"""Unit tests: supervision policy, poison sidecars, shutdown guard.

The pool-level behaviour (kills, retries, drains) is pinned by
``tests/integration/test_serve_supervised.py``; these tests cover the
pure pieces — policy validation, backoff arithmetic, the poison
sidecar format, and the two-stage shutdown state machine.
"""

import json
import pickle
import random
import signal

import pytest

from repro.api import ScenarioSpec
from repro.errors import (
    CircuitBreakerOpen,
    PoisonedScenario,
    ReferenceBudgetExceeded,
    ScenarioDeadlineExceeded,
    SimulationError,
    SpecValidationError,
    WorkerCrashed,
)
from repro.serve.supervise import (
    EXIT_ABORTED,
    EXIT_INTERRUPTED,
    POISON_SCHEMA,
    PoisonRecord,
    ShutdownGuard,
    SupervisionPolicy,
    SupervisionReport,
    breaker_root_cause,
    is_transient,
    load_poison_records,
    write_interrupt_checkpoint,
    write_poison_record,
)


class TestPolicy:
    def test_defaults_valid(self):
        SupervisionPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": 0.0},
            {"deadline_seconds": -1.0},
            {"grace_seconds": -0.1},
            {"max_attempts": 0},
            {"poison_threshold": 0},
            {"backoff_base_seconds": -1.0},
            {"backoff_jitter": 1.5},
            {"breaker_threshold": 0.0},
            {"breaker_threshold": 1.1},
            {"breaker_min_samples": 0},
            {"watchdog_tick_seconds": 0.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    def test_no_deadline_allowed(self):
        assert SupervisionPolicy(
            deadline_seconds=None
        ).deadline_seconds is None

    def test_backoff_grows_then_caps(self):
        policy = SupervisionPolicy(
            backoff_base_seconds=0.5,
            backoff_cap_seconds=3.0,
            backoff_jitter=0.0,
        )
        rng = random.Random(0)
        delays = [
            policy.backoff_delay(attempt, rng)
            for attempt in range(1, 6)
        ]
        assert delays == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_backoff_jitter_bounded_and_seeded(self):
        policy = SupervisionPolicy(
            backoff_base_seconds=1.0,
            backoff_cap_seconds=1.0,
            backoff_jitter=0.25,
        )
        a = [
            policy.backoff_delay(1, random.Random(42))
            for _ in range(20)
        ]
        b = [
            policy.backoff_delay(1, random.Random(42))
            for _ in range(20)
        ]
        assert a == b  # seeded jitter is reproducible
        assert all(0.75 <= d <= 1.25 for d in a)

    def test_transient_classification(self):
        assert is_transient(OSError("disk glitch"))
        assert is_transient(ScenarioDeadlineExceeded("em3d", 1.0, 2.0))
        assert is_transient(WorkerCrashed("em3d", -9))
        assert not is_transient(SimulationError("bad machine state"))
        assert not is_transient(ValueError("nope"))


class TestSpecSupervisionKnobs:
    def test_valid_overrides(self):
        spec = ScenarioSpec(
            "em3d", deadline_seconds=12.5, max_attempts=2
        )
        assert spec.deadline_seconds == 12.5
        assert spec.max_attempts == 2

    def test_bad_deadline_rejected(self):
        with pytest.raises(SpecValidationError):
            ScenarioSpec("em3d", deadline_seconds=0.0)

    def test_bad_attempts_rejected(self):
        with pytest.raises(SpecValidationError):
            ScenarioSpec("em3d", max_attempts=0)

    def test_knobs_excluded_from_fingerprint(self):
        """Budget knobs never change results, so a stored result must
        serve a request with different supervision settings."""
        from repro.bench.runner import BenchContext
        from repro.serve.scheduler import spec_fingerprint

        context = BenchContext(quick=True)
        plain = spec_fingerprint(ScenarioSpec("em3d"), context)
        tuned = spec_fingerprint(
            ScenarioSpec("em3d", deadline_seconds=1.0, max_attempts=9),
            context,
        )
        assert plain == tuned


class TestBreakerRootCause:
    def test_sole_deterministic_cause_is_the_root(self):
        cause = ReferenceBudgetExceeded(20, 10)
        breaker = CircuitBreakerOpen(
            8, 0, 0.5, {"ReferenceBudgetExceeded": 8}, cause
        )
        assert breaker_root_cause(breaker) is cause
        assert "8 ReferenceBudgetExceeded" in str(breaker)

    def test_mixed_or_transient_causes_have_no_root(self):
        mixed = CircuitBreakerOpen(
            8, 0, 0.5,
            {"ReferenceBudgetExceeded": 5, "SimulationError": 3},
            ReferenceBudgetExceeded(20, 10),
        )
        transient = CircuitBreakerOpen(
            8, 0, 0.5, {"WorkerCrashed": 8}, WorkerCrashed("a", -9)
        )
        assert breaker_root_cause(mixed) is None
        assert breaker_root_cause(transient) is None
        assert breaker_root_cause(CircuitBreakerOpen(8, 0, 0.5)) is None

    def test_pickle_round_trip_keeps_causes(self):
        breaker = CircuitBreakerOpen(
            8, 2, 0.5, {"ReferenceBudgetExceeded": 8},
            ReferenceBudgetExceeded(20, 10),
        )
        clone = pickle.loads(pickle.dumps(breaker))
        assert clone.causes == breaker.causes
        assert isinstance(clone.exemplar, ReferenceBudgetExceeded)
        assert str(clone) == str(breaker)

    def test_poison_pickle_round_trip_keeps_the_error(self):
        poison = PoisonedScenario(
            "em3d|tlb96", 2, "ReferenceBudgetExceeded: over budget",
            ReferenceBudgetExceeded(20, 10),
        )
        clone = pickle.loads(pickle.dumps(poison))
        assert isinstance(clone.error, ReferenceBudgetExceeded)
        assert str(clone.error) == str(poison.error)
        assert str(clone) == str(poison)


def _poison(fingerprint="ab" + "0" * 62):
    return PoisonRecord(
        index=3,
        label="em3d|tlb96",
        fingerprint=fingerprint,
        workload="em3d",
        config_label="tlb96",
        attempts=4,
        classification="deterministic",
        errors=["SimulationError: boom", "SimulationError: boom"],
    )


class TestPoisonRecord:
    def test_json_carries_schema(self):
        doc = _poison().to_json()
        assert doc["schema"] == POISON_SCHEMA
        assert doc["classification"] == "deterministic"

    def test_sidecar_named_by_fingerprint(self):
        record = _poison()
        assert record.sidecar_name() == (
            f"{record.fingerprint}.poison.json"
        )
        assert _poison(fingerprint=None).sidecar_name() == (
            "idx3.poison.json"
        )

    def test_write_load_round_trip(self, tmp_path):
        record = _poison()
        path = write_poison_record(tmp_path / "poison", record)
        assert path.exists()
        loaded = load_poison_records(tmp_path / "poison")
        assert loaded == [record]

    def test_load_skips_bad_files(self, tmp_path):
        poison_dir = tmp_path / "poison"
        write_poison_record(poison_dir, _poison())
        (poison_dir / "garbage.poison.json").write_text("{not json")
        (poison_dir / "alien.poison.json").write_text(
            json.dumps({"schema": "other/1", "label": "x"})
        )
        (poison_dir / "short.poison.json").write_text(
            json.dumps({"schema": POISON_SCHEMA, "label": "x"})
        )
        loaded = load_poison_records(poison_dir)
        assert [r.label for r in loaded] == ["em3d|tlb96"]

    def test_load_missing_dir_is_empty(self, tmp_path):
        assert load_poison_records(tmp_path / "nonesuch") == []

    def test_last_error(self):
        assert _poison().last_error == "SimulationError: boom"
        empty = _poison()
        empty.errors = []
        assert empty.last_error == "unknown"


class TestShutdownGuard:
    def test_starts_quiet(self):
        guard = ShutdownGuard()
        assert not guard.drain_requested
        assert not guard.abort_requested

    def test_drain_then_abort(self):
        guard = ShutdownGuard()
        guard.request_drain()
        assert guard.drain_requested and not guard.abort_requested
        guard.request_abort()
        assert guard.abort_requested

    def test_signal_escalation(self):
        """First signal drains, second hard-aborts, third falls
        through to a plain KeyboardInterrupt."""
        guard = ShutdownGuard()
        guard.handle_signal(signal.SIGINT)
        assert guard.drain_requested and not guard.abort_requested
        guard.handle_signal(signal.SIGINT)
        assert guard.abort_requested
        with pytest.raises(KeyboardInterrupt):
            guard.handle_signal(signal.SIGINT)

    def test_context_manager_installs_and_restores(self):
        before = signal.getsignal(signal.SIGINT)
        with ShutdownGuard() as guard:
            assert signal.getsignal(signal.SIGINT) == (
                guard.handle_signal
            )
        assert signal.getsignal(signal.SIGINT) == before

    def test_exit_codes_are_distinct(self):
        assert EXIT_INTERRUPTED == 75
        assert EXIT_ABORTED == 130
        assert EXIT_INTERRUPTED != EXIT_ABORTED


class TestInterruptCheckpoint:
    def test_checkpoint_contents(self, tmp_path):
        report = SupervisionReport()
        report.poison.append(_poison())
        path = write_interrupt_checkpoint(
            tmp_path,
            report,
            completed_fingerprints=["ff" * 32, "aa" * 32],
            pending_labels=["gcc|tlb64"],
        )
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-sweep-interrupt/1"
        assert doc["completed"] == sorted(["ff" * 32, "aa" * 32])
        assert doc["pending"] == ["gcc|tlb64"]
        assert doc["poisoned"] == ["em3d|tlb96"]
