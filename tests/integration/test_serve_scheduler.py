"""Integration tests for the scenario service (repro.serve).

Pins the service's contract end to end: the facade is bit-identical to
the legacy entry points, the scheduler dedupes within a batch and
against the store, checkpoint/resume is equivalent to a store cache
hit, and the CLI front (``repro serve sweep``/``status``) round-trips
through ``repro metrics diff --require-identical``.
"""

import dataclasses
import gc
import json
import warnings
import weakref

import pytest

from repro.api import ScenarioSpec, Session, validate_spec
from repro.bench.runner import BenchContext
from repro.cli import repro_main
from repro.errors import SnapshotSchemaError, SpecValidationError
from repro.obs.snapshot import SCHEMA_VERSION, load_snapshot, write_snapshot
from repro.serve import ResultStore, SweepClient, SweepScheduler
from repro.sim.config import paper_mtlb, paper_no_mtlb
from repro.sim.system import System, simulate
from repro.workloads import PAPER_SUITE, build_workload

TINY = {name: 0.02 for name in PAPER_SUITE}


@pytest.fixture
def session(tmp_path):
    return Session(
        quick=True, scales=dict(TINY), cache_dir=tmp_path / "cache",
        store=tmp_path / "store",
    )


class TestFacadeEquivalence:
    def test_bit_identical_to_simulate_all_workloads(self, session):
        """repro.api.run(spec) == legacy simulate() on every workload
        (same trace path, same machine, full RunStats equality)."""
        config = paper_mtlb(96)
        for workload in PAPER_SUITE:
            report = session.run(ScenarioSpec(workload, config))
            trace = build_workload(
                workload, scale=TINY[workload],
                seed=session.context.seed,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                legacy = simulate(trace, config)
            assert dataclasses.asdict(report.stats) == (
                dataclasses.asdict(legacy.stats)
            ), workload

    def test_simulate_warns_deprecated(self, session):
        trace = build_workload("em3d", scale=0.02, seed=1998)
        with pytest.deprecated_call():
            simulate(trace, paper_mtlb(96))

    def test_engine_override_is_cache_compatible(self, session):
        """A stored scalar result serves a vector-spec request: engine
        is excluded from the fingerprint because engines are
        bit-identical."""
        scalar = session.run(
            ScenarioSpec("em3d", paper_mtlb(96), engine="scalar")
        )
        vector = session.run(
            ScenarioSpec("em3d", paper_mtlb(96), engine="vector")
        )
        assert vector.cache_hit
        assert vector.fingerprint == scalar.fingerprint
        assert vector.stats == scalar.stats


class TestRunFreesMachine:
    """A finished machine is freed by reference counting alone: nothing
    it owns refers back to it strongly, so the cyclic collector is not
    needed to reclaim a run's memory."""

    @pytest.mark.parametrize("backend", ["mtlb", "coalesced", "victima"])
    def test_system_dead_once_report_returned(
        self, session, monkeypatch, backend
    ):
        machines = []
        build = System.__init__

        def recording_init(self, config):
            machines.append(weakref.ref(self))
            build(self, config)

        monkeypatch.setattr(System, "__init__", recording_init)
        config = paper_mtlb(96) if backend == "mtlb" else paper_no_mtlb(96)
        spec = ScenarioSpec("em3d", config, backend=backend)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            report = session.run(spec)
            assert report.stats is not None and not report.cache_hit
            assert len(machines) == 1
            assert machines[0]() is None
        finally:
            if was_enabled:
                gc.enable()


class TestSchedulerDedupe:
    def test_same_spec_twice_simulates_once(self, session):
        """In-batch dedupe: duplicate fingerprints collapse onto one
        execution; both reports carry the same stats."""
        spec = ScenarioSpec("em3d", paper_mtlb(96))
        scheduler = session.scheduler()
        reports = scheduler.sweep([spec, spec])
        assert scheduler.simulated.value == 1
        assert scheduler.deduped.value == 1
        assert reports[0].stats == reports[1].stats
        assert not reports[0].cache_hit and reports[1].cache_hit

    def test_warm_sweep_hits_store(self, session):
        specs = [
            ScenarioSpec(w, cfg)
            for w in ("em3d", "gcc")
            for cfg in (paper_no_mtlb(96), paper_mtlb(96))
        ]
        cold = session.scheduler()
        cold_reports = cold.sweep(specs)
        assert cold.simulated.value == 4
        warm = session.scheduler()
        warm_reports = warm.sweep(specs)
        assert warm.simulated.value == 0
        assert warm.store_hits.value == 4
        assert warm.cache_hit_rate >= 0.9
        for a, b in zip(cold_reports, warm_reports):
            assert a.stats == b.stats

    def test_parallel_sweep_matches_serial(self, session):
        specs = [
            ScenarioSpec(w, cfg)
            for w in ("em3d", "radix")
            for cfg in (paper_no_mtlb(96), paper_mtlb(96))
        ]
        serial = session.scheduler().sweep(specs)
        # A fresh store so the parallel path actually simulates.
        parallel = SweepScheduler(
            context=session.context, store=None, jobs=2
        ).sweep(specs)
        for a, b in zip(serial, parallel):
            assert dataclasses.asdict(a.stats) == (
                dataclasses.asdict(b.stats)
            )

    def test_completion_events_stream_in_order(self, session):
        events = []
        specs = [
            ScenarioSpec("em3d", paper_no_mtlb(96)),
            ScenarioSpec("em3d", paper_mtlb(96)),
        ]
        session.scheduler().sweep(
            specs, on_result=lambda i, r: events.append((i, r.cache_hit))
        )
        assert events == [(0, False), (1, False)]

    def test_obs_instruments_populated(self, session):
        scheduler = session.scheduler()
        scheduler.sweep([ScenarioSpec("em3d", paper_mtlb(96))])
        metrics = scheduler.registry.collect()
        assert metrics["serve.submitted"] == 1
        assert metrics["serve.queue_depth"] == 0

    def test_invalid_spec_fails_before_any_work(self, session):
        scheduler = session.scheduler()
        with pytest.raises(SpecValidationError, match="unknown workload"):
            scheduler.sweep(
                [ScenarioSpec("em3d", paper_mtlb(96)),
                 ScenarioSpec("nonesuch")]
            )
        assert scheduler.submitted.value == 0  # nothing started

    def test_failed_scenario_reported_not_raised(self, session):
        session.context.max_references = 10
        reports = session.scheduler().sweep(
            [ScenarioSpec("em3d", paper_mtlb(96))], raise_errors=False
        )
        assert not reports[0].ok
        assert reports[0].stats is None


class TestScaleHygiene:
    def test_explicit_scale_never_leaks_into_later_specs(self, session):
        """A spec's explicit scale override is pinned to that spec
        alone: a default-scale spec in the same serial batch still
        resolves, executes, and commits at the session default, and
        the session's own scale table comes back untouched."""
        from repro.serve import spec_fingerprint

        baseline = dict(session.context.scales)
        config = paper_mtlb(96)
        override = ScenarioSpec("em3d", config, scale=0.01, seed=71)
        default = ScenarioSpec("em3d", config, seed=72)
        expected = spec_fingerprint(default, session.context)

        reports = session.sweep([override, default])
        assert all(r.ok for r in reports)
        assert reports[1].fingerprint == expected
        assert session.context.scales == baseline
        assert session.store.get(
            reports[0].fingerprint
        ).meta["scale"] == 0.01
        assert session.store.get(expected).meta["scale"] == (
            baseline["em3d"]
        )

    def test_parallel_workers_pin_the_resolved_scales(self, session):
        """The pool path ships each scenario's resolved scales to the
        workers: mixed override/default batches over 2 workers commit
        every record at exactly the scale its fingerprint claims."""
        baseline = dict(session.context.scales)
        config = paper_mtlb(96)
        specs = [
            ScenarioSpec("em3d", config, scale=0.01, seed=81),
            ScenarioSpec("em3d", config, seed=82),
            ScenarioSpec("radix", config, scale=0.01, seed=83),
            ScenarioSpec("radix", config, seed=84),
        ]
        scheduler = SweepScheduler(
            context=session.context, store=session.store, jobs=2
        )
        reports = scheduler.sweep(specs)
        assert all(r.ok for r in reports)
        assert session.context.scales == baseline
        for spec, report in zip(specs, reports):
            record = session.store.get(report.fingerprint)
            want = (
                spec.scale if spec.scale is not None
                else baseline[spec.workload]
            )
            assert record.meta["scale"] == want, spec


class TestResumeAsCacheHit:
    CONFIGS = staticmethod(
        lambda: {
            "tlb96": paper_no_mtlb(96),
            "tlb96+mtlb1282w": paper_mtlb(96),
        }
    )

    def test_matrix_resumes_from_store_without_checkpoint(self, tmp_path):
        """With a store attached, deleting the checkpoint no longer
        costs a re-simulation: resume is a store cache hit."""
        store = ResultStore(tmp_path / "store")
        ctx = BenchContext(
            quick=True, scales={"em3d": 0.02},
            cache_dir=tmp_path / "cache", store=store,
        )
        full = ctx.run_matrix(
            ["em3d"], self.CONFIGS(), "tlb96", checkpoint="r1"
        )
        assert not (tmp_path / "cache" / "checkpoint_r1.json").exists()
        # Rerun: no checkpoint file exists, but the store serves both
        # cells without touching the simulator.
        fresh = BenchContext(
            quick=True, scales={"em3d": 0.02},
            cache_dir=tmp_path / "cache", store=store,
        )

        def boom(workload, config):  # noqa: ARG001
            raise AssertionError("cell was re-simulated")

        fresh.run = boom
        again = fresh.run_matrix(
            ["em3d"], self.CONFIGS(), "tlb96", checkpoint="r1"
        )
        for label in self.CONFIGS():
            assert (
                again.get("em3d", label).total_cycles
                == full.get("em3d", label).total_cycles
            )

    def test_old_checkpoint_files_still_resume(self, tmp_path):
        """Pre-service checkpoint JSON (cells of RunStats fields) is
        still honoured: a store-less resume re-runs only missing
        cells, exactly as before the refactor."""
        configs = self.CONFIGS()
        ctx = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path
        )
        full = ctx.run_matrix(["em3d"], configs, "tlb96")
        # Hand-write a legacy-format checkpoint holding the first cell.
        first = dataclasses.asdict(
            full.get("em3d", "tlb96").stats
        )
        meta = ctx._checkpoint_meta("tlb96")
        (tmp_path / "checkpoint_old.json").write_text(
            json.dumps({"meta": meta, "cells": {"em3d|tlb96": first}})
        )
        resumed_ctx = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path
        )
        ran = []
        real_run = resumed_ctx.run
        resumed_ctx.run = lambda w, c: (
            ran.append(c.label) or real_run(w, c)
        )
        matrix = resumed_ctx.run_matrix(
            ["em3d"], configs, "tlb96", checkpoint="old"
        )
        assert ran == ["tlb96+mtlb1282w"]
        for label in configs:
            assert (
                matrix.get("em3d", label).total_cycles
                == full.get("em3d", label).total_cycles
            )


class TestSweepClient:
    def test_submit_gather_async_surface(self, session):
        import asyncio

        client = SweepClient(session=session)
        specs = [ScenarioSpec("em3d", paper_mtlb(96))]

        async def go():
            ticket = await client.submit(specs)
            return await client.gather(ticket)

        reports = asyncio.run(go())
        assert reports[0].ok
        status = client.status()
        assert status["entries"] == 1
        assert status["simulated"] == 1

    def test_ticket_single_use(self, session):
        import asyncio

        client = SweepClient(session=session)

        async def go():
            ticket = await client.submit(
                [ScenarioSpec("em3d", paper_mtlb(96))]
            )
            await client.gather(ticket)
            with pytest.raises(RuntimeError, match="already gathered"):
                await client.gather(ticket)

        asyncio.run(go())


class TestServeCli:
    def test_sweep_cold_then_warm_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        args = [
            "serve", "sweep", "fig4", "--quick",
            "--store", str(tmp_path / "store"),
        ]
        assert repro_main(args + ["-o", "cold.json"]) == 0
        assert repro_main(args + ["-o", "warm.json"]) == 0
        assert repro_main(
            ["metrics", "diff", "cold.json", "warm.json",
             "--require-identical"]
        ) == 0
        # The warm run's store served everything.
        status = ResultStore(tmp_path / "store").status()
        assert status["entries"] == 10

    def test_status_command(self, tmp_path, capsys):
        assert repro_main(
            ["serve", "status", "--store", str(tmp_path / "store")]
        ) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "quarantined" in out

    def test_bad_jobs_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            repro_main(
                ["serve", "sweep", "fig4", "--quick", "--jobs", "0",
                 "--store", str(tmp_path / "store")]
            )


class TestSnapshotVersioning:
    def test_snapshots_are_stamped(self, session, tmp_path):
        from repro.obs.snapshot import run_snapshot

        report = session.run(ScenarioSpec("em3d", paper_mtlb(96)))
        snap = run_snapshot(report.to_result(), label="t")
        assert snap["schema_version"] == SCHEMA_VERSION
        assert snap["repro_version"]

    def test_load_refuses_future_schema_clearly(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({
            "schema": "repro-metrics/99",
            "schema_version": 99,
            "label": "x",
            "runs": {},
        }))
        with pytest.raises(SnapshotSchemaError, match="re-generate"):
            load_snapshot(path)

    def test_load_refuses_version_stamp_mismatch(self, tmp_path):
        path = tmp_path / "stamp.json"
        path.write_text(json.dumps({
            "schema": "repro-metrics/1",
            "schema_version": 2,
            "label": "x",
            "runs": {},
        }))
        with pytest.raises(SnapshotSchemaError, match="schema_version"):
            load_snapshot(path)

    def test_unstamped_snapshots_still_load(self, tmp_path):
        """Snapshots written before the stamp are version 1 de facto."""
        path = write_snapshot(
            {"schema": "repro-metrics/1", "label": "x", "runs": {}},
            tmp_path / "old.json",
        )
        assert load_snapshot(path)["runs"] == {}

    def test_metrics_diff_cli_explains_mismatch(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        write_snapshot(
            {"schema": "repro-metrics/1", "label": "x", "runs": {}}, good
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": "repro-metrics/99", "label": "x", "runs": {},
        }))
        assert repro_main(
            ["metrics", "diff", str(good), str(bad)]
        ) == 2
        err = capsys.readouterr().err
        assert "repro-metrics/99" in err


class TestValidateSpecMixes:
    def test_mix_spec_validates(self):
        validate_spec(
            ScenarioSpec(("em3d", "gcc"), paper_mtlb(96))
        )

    def test_mix_runs_through_session(self, session):
        report = session.run(
            ScenarioSpec(("em3d", "radix"), paper_mtlb(96),
                         quantum_refs=5_000)
        )
        assert report.ok
        again = session.run(
            ScenarioSpec(("em3d", "radix"), paper_mtlb(96),
                         quantum_refs=5_000)
        )
        assert again.cache_hit
        assert again.stats == report.stats
