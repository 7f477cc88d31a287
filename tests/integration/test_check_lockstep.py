"""Integration tests: lockstep differential harness, shrinker, corpus."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import BenchContext
from repro.check.corpus import (
    CORPUS,
    corpus_config,
    corpus_trace,
    get_bug,
    run_sanitized,
    validate_corpus,
)
from repro.check.lockstep import run_lockstep
from repro.check.shrink import emit_repro, shrink_trace
from repro.errors import InvariantViolation
from repro.sim.config import paper_no_mtlb

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def trace():
    return corpus_trace()


@pytest.fixture(scope="module")
def config():
    return corpus_config()


@pytest.fixture(scope="module")
def vortex_trace(tmp_path_factory):
    ctx = BenchContext(
        quick=True, cache_dir=tmp_path_factory.mktemp("vortex_traces")
    )
    return ctx.trace("vortex")


class TestLockstep:
    def test_clean_engines_identical(self, trace, config):
        report = run_lockstep(trace, config)
        assert report.identical
        assert report.boundaries == 8  # 2 events + 6 segments
        assert "identical" in report.render()

    @pytest.mark.parametrize("tlb", [64, 96])
    def test_conventional_vortex_engines_identical(self, vortex_trace, tlb):
        """A dense conventional machine: the vector engine retires most
        of it through deferred-cache spans."""
        report = run_lockstep(
            vortex_trace, paper_no_mtlb(tlb), workload="vortex"
        )
        assert report.identical, report.render()

    def test_planted_state_divergence_located(self, trace, config):
        bug = get_bug("vector-dirty-mark")
        report = run_lockstep(trace, config, plant=bug)
        assert not report.identical
        d = report.divergence
        assert d.boundary == bug.boundary
        assert "cache" in d.components
        # Component-level detail from the phase-2 snapshot diff.
        assert any("(scalar) vs" in line for line in d.details)
        assert "FIRST DIVERGENCE" in report.render()

    def test_planted_stat_skew_located(self, trace, config):
        report = run_lockstep(
            trace, config, plant=get_bug("vector-stat-skew")
        )
        d = report.divergence
        assert d is not None and d.components == ["stats"]
        assert any("memory_stall_cycles" in line for line in d.details)


class TestCorpus:
    def test_every_planted_bug_caught(self):
        outcomes = validate_corpus()
        escaped = [o for o in outcomes if not o.caught]
        assert not escaped, "\n".join(
            f"{o.bug.name}: {o.detail}" for o in escaped
        )
        assert len(outcomes) == len(CORPUS) == 12

    def test_pr8_bugs_pin_their_own_machines(self):
        """The lifted-path bugs only exist on set-assoc / fault-armed
        machines, so they carry their own config factories; the rest
        keep the shared corpus box."""
        assoc = get_bug("assoc-way-skew")
        clamp = get_bug("trigger-clamp-skew")
        assert assoc.make_config().cache.associativity == 2
        assert clamp.make_config().faults.triggers
        assert get_bug("vector-stat-skew").make_config() == corpus_config()

    def test_assoc_way_skew_diverges_in_stats(self):
        """The mirror-desync plant must be localised by the differ on
        the set-assoc machine it pins (the PR-8 way-match path)."""
        bug = get_bug("assoc-way-skew")
        report = run_lockstep(
            corpus_trace(), bug.make_config(), plant=bug
        )
        assert not report.identical
        assert "stats" in report.divergence.components

    def test_trigger_clamp_skew_suppresses_the_fault(self):
        """The schedule-mutation plant makes the vector run skip the
        scheduled mtlb-parity trigger entirely (exact-count semantics),
        so the runs diverge where the scalar run injects it."""
        bug = get_bug("trigger-clamp-skew")
        report = run_lockstep(
            corpus_trace(), bug.make_config(), plant=bug
        )
        assert not report.identical
        assert "stats" in report.divergence.components

    def test_sanitize_bug_names_component(self, trace, config):
        bug = get_bug("shadow-ref-leak")
        with pytest.raises(InvariantViolation) as exc:
            run_sanitized(trace, config, bug)
        assert exc.value.component == "shadow_table"

    def test_diff_bugs_only_corrupt_vector_runs(self):
        for bug in CORPUS:
            if bug.kind == "diff":
                assert bug.applies_to("vector")
                assert not bug.applies_to("scalar")


class TestShrinker:
    def test_diff_failure_shrinks_under_target(self, trace, config):
        bug = get_bug("vector-stat-skew")

        def failing(t):
            return not run_lockstep(t, config, plant=bug).identical

        shrunk = shrink_trace(trace, failing)
        assert shrunk.total_refs <= 1000
        assert failing(shrunk)
        assert "OVER-TARGET" not in shrunk.name

    def test_sanitize_failure_shrinks_under_target(self, trace, config):
        bug = get_bug("shadow-ref-leak")

        def failing(t):
            try:
                run_sanitized(t, config, bug)
            except InvariantViolation:
                return True
            return False

        shrunk = shrink_trace(trace, failing)
        assert shrunk.total_refs <= 1000
        assert failing(shrunk)

    def test_non_failing_trace_rejected(self, trace):
        with pytest.raises(ValueError):
            shrink_trace(trace, lambda t: False)

    def test_emitted_repro_script_reproduces(
        self, trace, config, tmp_path
    ):
        bug = get_bug("vector-dirty-mark")

        def failing(t):
            return not run_lockstep(t, config, plant=bug).identical

        shrunk = shrink_trace(trace, failing)
        script = emit_repro(
            shrunk,
            config,
            tmp_path,
            "repro-dirty-mark",
            mode="diff",
            plant_name=bug.name,
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
        )
        # Exit 1 while the failure reproduces, with the full report.
        assert proc.returncode == 1, proc.stderr
        assert "FIRST DIVERGENCE" in proc.stdout
        assert "cache" in proc.stdout
