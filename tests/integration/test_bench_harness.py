"""Smoke tests for the benchmark harness (tiny inputs).

The full harness runs under ``pytest benchmarks/ --benchmark-only``;
these tests only check that its plumbing — scales, trace caching (with
corruption detection), checkpoint/resume, matrix running, report
rendering — works.
"""

import json

import pytest

from repro.bench import BenchContext, run_fig2, run_allocator_ablation
from repro.bench.figure3 import render_report
from repro.errors import (
    PoisonedScenario,
    ReferenceBudgetExceeded,
    TraceCacheCorrupt,
)
from repro.sim.config import paper_mtlb, paper_no_mtlb
from repro.sim.results import ResultMatrix
from repro.trace.io import load_trace


@pytest.fixture
def tiny_ctx(tmp_path):
    return BenchContext(
        quick=True,
        scales={name: 0.02 for name in
                ("compress95", "vortex", "radix", "em3d", "gcc")},
        cache_dir=tmp_path,
    )


class TestBenchContext:
    def test_trace_caching_on_disk(self, tiny_ctx, tmp_path):
        first = tiny_ctx.trace("em3d")
        # The columnar store (default since PR 9) replaces per-file
        # .npz caching: entries live under store/<aa>/<address>/.
        from repro.trace.store import TraceStore

        rows = TraceStore(tmp_path / "store").ls()
        assert [r["workload"] for r in rows] == ["em3d"]
        assert not list(tmp_path.glob("em3d_*.npz"))
        # A fresh context reads the cached entry and gets the same stream.
        again = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path
        ).trace("em3d")
        assert first.total_refs == again.total_refs

    def test_legacy_trace_caching_on_disk(self, tmp_path):
        ctx = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path,
            trace_store=False,
        )
        first = ctx.trace("em3d")
        assert list(tmp_path.glob("em3d_*.npz"))
        again = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path,
            trace_store=False,
        ).trace("em3d")
        assert first.total_refs == again.total_refs

    def test_run_matrix(self, tiny_ctx):
        configs = {
            "tlb96": paper_no_mtlb(96),
            "tlb96+mtlb1282w": paper_mtlb(96),
        }
        matrix = tiny_ctx.run_matrix(["em3d"], configs, "tlb96")
        assert isinstance(matrix, ResultMatrix)
        assert matrix.normalised("em3d", "tlb96") == 1.0
        report = render_report(matrix, ["em3d"], configs.keys())
        assert "em3d" in report

    def test_quick_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        from repro.bench import quick_mode_requested
        assert quick_mode_requested()
        monkeypatch.setenv("REPRO_BENCH_QUICK", "0")
        assert not quick_mode_requested()


class TestTraceCacheIntegrity:
    """Legacy .npz path corruption handling (trace_store=False)."""

    @pytest.fixture
    def legacy_ctx(self, tmp_path):
        return BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path,
            trace_store=False,
        )

    def test_corrupt_cache_detected_and_regenerated(
        self, legacy_ctx, tmp_path
    ):
        reference = legacy_ctx.trace("em3d")
        (path,) = tmp_path.glob("em3d_*.npz")
        path.write_bytes(b"this is not an npz file at all")
        with pytest.raises(TraceCacheCorrupt):
            load_trace(path)
        # The harness treats it as a miss: warn, delete, regenerate.
        fresh_ctx = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path,
            trace_store=False,
        )
        with pytest.warns(RuntimeWarning, match="corrupt"):
            again = fresh_ctx.trace("em3d")
        assert again.total_refs == reference.total_refs
        # The regenerated file is valid once more.
        (path,) = tmp_path.glob("em3d_*.npz")
        assert load_trace(path).total_refs == reference.total_refs

    def test_truncated_cache_detected(self, legacy_ctx, tmp_path):
        legacy_ctx.trace("em3d")
        (path,) = tmp_path.glob("em3d_*.npz")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TraceCacheCorrupt):
            load_trace(path)


class TestCheckpointResume:
    CONFIGS = staticmethod(
        lambda: {
            "tlb96": paper_no_mtlb(96),
            "tlb96+mtlb1282w": paper_mtlb(96),
        }
    )

    def test_checkpoint_deleted_after_full_run(self, tiny_ctx, tmp_path):
        tiny_ctx.run_matrix(
            ["em3d"], self.CONFIGS(), "tlb96", checkpoint="t1"
        )
        assert not (tmp_path / "checkpoint_t1.json").exists()

    def test_resume_skips_completed_cells(self, tiny_ctx, tmp_path):
        configs = self.CONFIGS()
        full = tiny_ctx.run_matrix(["em3d"], configs, "tlb96")

        # Simulate a crash: kill the matrix after its first cell.
        class Boom(Exception):
            pass

        interrupted = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path
        )
        real_run = interrupted.run
        calls = []

        def tracked(workload, config):
            calls.append(config.label)
            if len(calls) > 1:
                raise Boom
            return real_run(workload, config)

        interrupted.run = tracked
        with pytest.raises(Boom):
            interrupted.run_matrix(
                ["em3d"], configs, "tlb96", checkpoint="t2"
            )
        ckpt = tmp_path / "checkpoint_t2.json"
        assert ckpt.exists()
        assert list(json.loads(ckpt.read_text())["cells"]) == [
            "em3d|tlb96"
        ]

        # Resume: only the missing cell is re-run.
        resumed_ctx = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path
        )
        resumed_calls = []
        real_resumed_run = resumed_ctx.run

        def tracked_resume(workload, config):
            resumed_calls.append(config.label)
            return real_resumed_run(workload, config)

        resumed_ctx.run = tracked_resume
        matrix = resumed_ctx.run_matrix(
            ["em3d"], configs, "tlb96", checkpoint="t2"
        )
        assert resumed_calls == ["tlb96+mtlb1282w"]
        assert not ckpt.exists()
        # The resumed matrix matches an uninterrupted run exactly.
        for label in configs:
            assert (
                matrix.get("em3d", label).total_cycles
                == full.get("em3d", label).total_cycles
            )

    def test_mismatched_context_discards_checkpoint(
        self, tiny_ctx, tmp_path
    ):
        ckpt = tmp_path / "checkpoint_t3.json"
        ckpt.write_text(
            json.dumps(
                {
                    "meta": {"version": 1, "quick": False, "seed": 7},
                    "cells": {"em3d|tlb96": {"total_cycles": 1}},
                }
            )
        )
        with pytest.warns(RuntimeWarning, match="different"):
            matrix = tiny_ctx.run_matrix(
                ["em3d"], {"tlb96": paper_no_mtlb(96)}, "tlb96",
                checkpoint="t3",
            )
        # The bogus cell was ignored and the run recomputed honestly.
        assert matrix.get("em3d", "tlb96").total_cycles > 1


class TestParallelMatrix:
    CONFIGS = staticmethod(
        lambda: {
            "tlb96": paper_no_mtlb(96),
            "tlb96+mtlb1282w": paper_mtlb(96),
        }
    )

    def test_parallel_matches_serial(self, tmp_path):
        configs = self.CONFIGS()
        serial = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path
        ).run_matrix(["em3d"], configs, "tlb96")
        parallel = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path,
            jobs=2,
        ).run_matrix(["em3d"], configs, "tlb96")
        for label in configs:
            import dataclasses as dc
            assert dc.asdict(parallel.get("em3d", label)) == dc.asdict(
                serial.get("em3d", label)
            )

    def test_parallel_resumes_from_serial_checkpoint(self, tmp_path):
        """A checkpoint written by a serial run is a valid merge point
        for a parallel one (and vice versa): the fingerprint ignores
        jobs and engine, which never change results."""
        configs = self.CONFIGS()
        ctx = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path
        )
        full = ctx.run_matrix(["em3d"], configs, "tlb96")

        class Boom(Exception):
            pass

        interrupted = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path
        )
        real_run = interrupted.run
        calls = []

        def tracked(workload, config):
            calls.append(config.label)
            if len(calls) > 1:
                raise Boom
            return real_run(workload, config)

        interrupted.run = tracked
        with pytest.raises(Boom):
            interrupted.run_matrix(
                ["em3d"], configs, "tlb96", checkpoint="p1"
            )
        assert (tmp_path / "checkpoint_p1.json").exists()

        resumed = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path,
            jobs=2,
        ).run_matrix(["em3d"], configs, "tlb96", checkpoint="p1")
        assert not (tmp_path / "checkpoint_p1.json").exists()
        for label in configs:
            assert (
                resumed.get("em3d", label).total_cycles
                == full.get("em3d", label).total_cycles
            )

    def test_worker_failure_keeps_completed_cells(self, tmp_path):
        """A cell that dies in a worker still leaves every completed
        cell checkpointed, so the rerun resumes instead of restarting."""
        ctx = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path,
            jobs=2, max_references=10,
        )
        # No cell can complete under a 10-reference budget: the
        # supervised pool retries the deterministic failure up to the
        # poison threshold, then quarantines the cell.  run_matrix
        # raises the worker's real exception (not a pickling artifact)
        # with the PoisonedScenario naming it chained as the cause,
        # leaving the trace cache warm.
        with pytest.raises(ReferenceBudgetExceeded) as exc:
            ctx.run_matrix(
                ["em3d"], self.CONFIGS(), "tlb96", checkpoint="p2"
            )
        assert isinstance(exc.value.__cause__, PoisonedScenario)
        assert "ReferenceBudgetExceeded" in str(exc.value.__cause__)
        from repro.trace.store import TraceStore

        assert any(
            row.get("workload") == "em3d"
            for row in TraceStore(tmp_path / "store").ls()
        )


class TestReferenceBudget:
    def test_budget_exceeded_raises(self, tmp_path):
        ctx = BenchContext(
            quick=True, scales={"em3d": 0.02}, cache_dir=tmp_path,
            max_references=10,
        )
        with pytest.raises(ReferenceBudgetExceeded):
            ctx.run("em3d", paper_no_mtlb(96))

    def test_no_budget_by_default(self, tiny_ctx):
        result = tiny_ctx.run("em3d", paper_no_mtlb(96))
        assert result.stats.references > 10


class TestStaticBenches:
    def test_fig2(self):
        report, errors = run_fig2()
        assert errors == []
        assert "16384KB" in report

    def test_allocator_ablation(self):
        result = run_allocator_ablation(requests=800)
        assert result.shape_errors == []
