"""Benchmark-harness plumbing: scales, trace caching, matrix runs.

The harness reruns identical traces across many machine configurations
and many pytest sessions.  :class:`BenchContext` pins the per-workload
input scales (documented in EXPERIMENTS.md), caches generated traces on
disk, and runs workload x configuration matrices into a
:class:`~repro.sim.results.ResultMatrix`.

Robustness features (this file is the harness's crash-safety layer):

* corrupt/truncated trace-cache files are detected by checksum
  (:class:`~repro.errors.TraceCacheCorrupt`), warned about, deleted,
  and regenerated;
* matrix runs can *checkpoint* each completed (workload, config) cell
  to disk and resume after a crash or kill, re-running only the
  missing cells (``run_matrix(..., checkpoint="fig3")``);
* a per-run reference budget (``max_references``) bounds any single
  pathological cell instead of hanging the whole matrix;
* matrix cells are independent, so ``run_matrix(..., jobs=N)`` fans
  them out over a :class:`~concurrent.futures.ProcessPoolExecutor`.
  The checkpoint file doubles as the merge point: each finished cell
  is persisted (atomically) as it arrives, a killed parallel run
  resumes exactly like a serial one, and the assembled matrix is
  always in deterministic workload x config order regardless of
  completion order.

Since the scenario-service refactor, :meth:`BenchContext.run_matrix`
is a thin client of the sharded scheduler in
:mod:`repro.serve.scheduler`: each missing cell becomes a
:class:`~repro.api.ScenarioSpec`, and attaching a
:class:`~repro.serve.store.ResultStore` (``store=``) turns
checkpoint/resume into a content-addressed cache hit that survives
checkpoint deletion.

Since PR 9 the disk layer defaults to the content-addressed columnar
trace store (:mod:`repro.trace.store`): entries are keyed by the exact
scale bits (``float.hex()``), populated once across processes under a
single-flight lock, and loaded as memory-mapped column views that
parallel sweep shards share through the page cache.  The legacy
one-``.npz``-per-trace layout remains available for comparison and
migration (``trace_store=False`` / ``REPRO_TRACE_STORE=0``); legacy
files found at the old path are migrated into the store on first use
when their scale survives the old ``%g`` keying round-trip.

Environment knobs:

* ``REPRO_BENCH_QUICK=1`` — use the quick (CI) scales everywhere;
* ``REPRO_TRACE_CACHE=<dir>`` — trace cache directory (default
  ``.trace_cache/`` under the repository root / current directory);
* ``REPRO_TRACE_STORE=0`` — fall back to the legacy per-file cache.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Union

from ..errors import CircuitBreakerOpen, PoisonedScenario, TraceCacheCorrupt
from ..sim.config import SystemConfig
from ..sim.results import ResultMatrix, RunResult
from ..sim.stats import RunStats
from ..sim.system import System
from ..trace.io import load_trace, save_trace
from ..trace.store import StreamedTrace, TraceStore
from ..trace.trace import Trace
from ..workloads import build_workload, stream_workload

#: Input scales used for reported (non-quick) benchmark numbers.  Chosen
#: so each run finishes in seconds while keeping every workload's paper
#: *footprint* characteristics (see EXPERIMENTS.md for the rationale).
PAPER_SCALES: Dict[str, float] = {
    "compress95": 0.25,
    "vortex": 0.5,
    "radix": 0.3,
    "em3d": 0.3,
    "gcc": 1.0,
}

#: Much smaller inputs for CI / the test suite.
QUICK_SCALES: Dict[str, float] = {
    "compress95": 0.04,
    "vortex": 0.06,
    "radix": 0.05,
    "em3d": 0.08,
    "gcc": 0.12,
}

DEFAULT_SEED = 1998


def quick_mode_requested() -> bool:
    """True when the environment asks for quick (CI) scales."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def trace_store_requested() -> bool:
    """True unless the environment opts back into the legacy cache."""
    return os.environ.get("REPRO_TRACE_STORE", "1") not in ("", "0")


class BenchContext:
    """Shared state for one benchmark session."""

    def __init__(
        self,
        quick: Optional[bool] = None,
        scales: Optional[Mapping[str, float]] = None,
        cache_dir: Optional[Path] = None,
        seed: int = DEFAULT_SEED,
        max_references: Optional[int] = None,
        jobs: Optional[int] = None,
        engine: Optional[str] = None,
        sanitize: bool = False,
        store: Optional[object] = None,
        trace_store: Optional[bool] = None,
        stream_cold: bool = False,
    ) -> None:
        if quick is None:
            quick = quick_mode_requested()
        self.quick = quick
        base = QUICK_SCALES if quick else PAPER_SCALES
        self.scales: Dict[str, float] = dict(base)
        if scales:
            self.scales.update(scales)
        if cache_dir is None:
            env = os.environ.get("REPRO_TRACE_CACHE")
            cache_dir = Path(env) if env else Path(".trace_cache")
        self.cache_dir = Path(cache_dir)
        self.seed = seed
        #: Per-run reference budget; a run that would exceed it raises
        #: :class:`~repro.errors.ReferenceBudgetExceeded` instead of
        #: running unbounded.  None = no limit.
        self.max_references = max_references
        #: Worker-process count for :meth:`run_matrix`.  None or <= 1
        #: runs serially in-process.
        self.jobs = jobs
        #: Trace-engine override applied to every config this context
        #: runs ("auto" | "scalar" | "vector"); None respects each
        #: config's own ``engine`` field.  Engines are bit-identical,
        #: so results (and checkpoints) are interchangeable.
        self.engine = engine
        #: Run every config with the invariant sanitizer suite enabled
        #: (repro.check).  Read-only checks: results and checkpoints
        #: stay bit-identical, only wall-clock changes.
        self.sanitize = sanitize
        #: Optional :class:`~repro.serve.store.ResultStore` consulted by
        #: :meth:`run_matrix` before simulating a cell.  Off by default:
        #: a plain context always simulates what it is asked to.
        self.store = store
        #: Disk-cache backend selector.  True (the default) routes
        #: :meth:`trace_at` through the content-addressed columnar
        #: store under ``cache_dir/store``; False keeps the legacy
        #: one-``.npz``-per-trace layout.  ``REPRO_TRACE_STORE=0``
        #: flips the default.
        if trace_store is None:
            trace_store = trace_store_requested()
        self.trace_store = bool(trace_store)
        #: With ``stream_cold``, :meth:`run` simulates a cold-cache
        #: trace *while* it is being generated (streamed through a
        #: :class:`~repro.trace.store.TraceWriter`) instead of waiting
        #: for generation to finish.  Store mode only.
        self.stream_cold = stream_cold
        self._trace_store_backend: Optional[TraceStore] = None
        self._traces: Dict[str, Trace] = {}

    # ------------------------------------------------------------------ #
    # Traces
    # ------------------------------------------------------------------ #

    def scale_of(self, workload: str) -> float:
        """The input scale this context uses for *workload*."""
        return self.scales.get(workload, 1.0)

    def trace(self, workload: str) -> Trace:
        """Return the workload's trace, via memory and disk caches."""
        cached = self._traces.get(workload)
        if cached is not None:
            return cached
        trace = self.trace_at(workload, self.scale_of(workload))
        self._traces[workload] = trace
        return trace

    def trace_store_backend(self) -> TraceStore:
        """The context's columnar trace store (``cache_dir/store``)."""
        if self._trace_store_backend is None:
            self._trace_store_backend = TraceStore(
                self.cache_dir / "store"
            )
        return self._trace_store_backend

    def _legacy_trace_path(self, workload: str, scale: float) -> Path:
        return self.cache_dir / (
            f"{workload}_s{scale:g}_seed{self.seed}.npz"
        )

    @staticmethod
    def _warn_corrupt(exc: TraceCacheCorrupt) -> None:
        # Corrupt cache: warn, quarantine/delete, regenerate (never
        # simulate a silently wrong reference stream).  The warning is
        # advisory; pool workers also surface it through the
        # ``trace.cache_corrupt`` counter, which *is* visible from the
        # parent (RuntimeWarnings in worker processes are not).
        warnings.warn(f"{exc}; regenerating", RuntimeWarning)

    def trace_at(self, workload: str, scale: float) -> Trace:
        """Load or generate *workload*'s trace at an explicit *scale*.

        Disk cache only: the in-memory cache is keyed by name with the
        scale implied by ``scales``, so callers (the sweep prewarm
        paths) can warm arbitrary (workload, scale) pairs without
        disturbing this context's own resolution.

        In store mode (the default) this is single-flight across
        processes — one cold worker generates, the rest block and then
        load shared memory-mapped columns.  A legacy ``.npz`` at the
        old path is migrated into the store instead of regenerated
        when its ``%g``-keyed scale round-trips exactly.
        """
        if not self.trace_store:
            return self._trace_at_legacy(workload, scale)
        store = self.trace_store_backend()

        def produce(writer) -> None:
            shell, items = stream_workload(
                workload, scale=scale, seed=self.seed
            )
            writer.begin(shell.name, shell.text_base, shell.text_size)
            for _ in writer.tee(items):
                pass

        try:
            return store.get_or_create(
                workload,
                scale,
                self.seed,
                produce,
                legacy_path=self._legacy_trace_path(workload, scale),
                on_corrupt=self._warn_corrupt,
            )
        except OSError:
            # Read-only filesystem: run uncached, like the legacy path.
            return build_workload(workload, scale=scale, seed=self.seed)

    def stream_trace(
        self, workload: str, scale: Optional[float] = None
    ) -> Union[Trace, StreamedTrace]:
        """A trace ready to simulate that may still be generating.

        A warm store entry returns an ordinary :class:`Trace`.  A cold
        one returns a single-use :class:`StreamedTrace` whose consumer
        drives generation, with every item teed into the store — the
        simulator starts on the first segment while later segments are
        still being built.  Legacy mode degrades to :meth:`trace_at`.
        """
        if scale is None:
            scale = self.scale_of(workload)
        if not self.trace_store:
            return self.trace_at(workload, scale)
        store = self.trace_store_backend()
        try:
            return store.stream_or_load(
                workload,
                scale,
                self.seed,
                lambda: stream_workload(
                    workload, scale=scale, seed=self.seed
                ),
                on_corrupt=self._warn_corrupt,
            )
        except OSError:
            return build_workload(workload, scale=scale, seed=self.seed)

    def _trace_at_legacy(self, workload: str, scale: float) -> Trace:
        path = self._legacy_trace_path(workload, scale)
        trace: Optional[Trace] = None
        if path.exists():
            try:
                trace = load_trace(path)
            except TraceCacheCorrupt as exc:
                self._warn_corrupt(exc)
                try:
                    path.unlink()
                except OSError:
                    pass
            except (ValueError, KeyError, OSError):
                trace = None  # stale format: regenerate below
        if trace is None:
            trace = build_workload(workload, scale=scale, seed=self.seed)
            try:
                save_trace(trace, path)
            except OSError:
                pass  # read-only filesystem: run uncached
        return trace

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def run(self, workload: str, config: SystemConfig) -> RunResult:
        """Simulate one workload on one configuration."""
        if self.engine is not None and config.engine != self.engine:
            config = dataclasses.replace(config, engine=self.engine)
        if self.sanitize and not config.sanitize:
            config = dataclasses.replace(config, sanitize=True)
        system = System(config)
        system.reference_budget = self.max_references
        if self.stream_cold and self.trace_store:
            cached = self._traces.get(workload)
            if cached is not None:
                return system.run(cached)
            trace = self.stream_trace(workload)
            if isinstance(trace, Trace):
                # Warm store entry: memoise like the eager path.
                self._traces[workload] = trace
            return system.run(trace)
        return system.run(self.trace(workload))

    def run_matrix(
        self,
        workloads: Sequence[str],
        configs: Mapping[str, SystemConfig],
        base_label: str,
        progress: bool = False,
        checkpoint: Optional[str] = None,
        jobs: Optional[int] = None,
        store: Optional[object] = None,
    ) -> ResultMatrix:
        """Run every workload on every configuration.

        With *checkpoint* set, every completed (workload, config) cell
        is persisted to ``<cache_dir>/checkpoint_<name>.json`` with an
        atomic write, and a later invocation of the same matrix resumes
        from it, re-running only the missing cells.  The checkpoint is
        deleted once the whole matrix completes.

        The missing cells are executed by the sharded sweep scheduler
        (:mod:`repro.serve.scheduler`): *jobs* (default: the context's
        ``jobs``) > 1 shards them over worker processes; each cell
        checkpoints as it completes, so crash-resume semantics match
        the serial path.  With *store* (default: the context's
        ``store``) attached, cells already in the content-addressed
        result store are served from disk instead of simulated —
        resume-as-cache-hit, surviving checkpoint deletion.
        """
        from ..api import ScenarioSpec
        from ..serve.scheduler import SweepScheduler
        from ..serve.supervise import breaker_root_cause, is_transient

        if jobs is None:
            jobs = self.jobs
        if store is None:
            store = self.store
        path = self._checkpoint_path(checkpoint) if checkpoint else None
        cells: Dict[str, dict] = (
            self._load_checkpoint(path, base_label) if path else {}
        )
        pending = [
            (workload, label, config)
            for workload in workloads
            for label, config in configs.items()
            if f"{workload}|{label}" not in cells
        ]
        if progress and cells and pending:
            print(
                f"  resuming: {len(cells)} cell(s) checkpointed",
                flush=True,
            )
        if pending:
            specs = [
                ScenarioSpec(workload=workload, config=config,
                             seed=self.seed)
                for workload, _, config in pending
            ]
            keys = [f"{w}|{label}" for w, label, _ in pending]

            def on_result(index: int, report) -> None:
                cells[keys[index]] = report.stats_dict()
                if path is not None:
                    self._save_checkpoint(path, base_label, cells)

            scheduler = SweepScheduler(
                context=self,
                store=store,
                jobs=jobs if jobs is not None else 1,
                progress_cb=(
                    (lambda msg: print(msg, flush=True))
                    if progress else None
                ),
            )
            try:
                scheduler.sweep(specs, on_result=on_result)
            except CircuitBreakerOpen as breaker:
                # A supervised sweep (jobs > 1) that fails wholesale
                # trips the breaker; when one deterministic error type
                # explains every failure, raise that error as the
                # serial path does, so the core count never decides
                # which exception the caller sees.
                cause = breaker_root_cause(breaker)
                if cause is None:
                    raise
                raise cause from breaker
            except PoisonedScenario as poison:
                # Too few failures to trip the breaker: the poisoned
                # cell's own deterministic error is the diagnosis, as
                # on the serial path.
                if poison.error is None or is_transient(poison.error):
                    raise
                raise poison.error from poison
        matrix = ResultMatrix(base_label)
        for workload in workloads:
            for label in configs:
                matrix.add(
                    RunResult(
                        workload=workload,
                        config_label=label,
                        stats=RunStats(**cells[f"{workload}|{label}"]),
                    )
                )
        if path is not None:
            try:
                path.unlink()
            except OSError:
                pass
        return matrix

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #

    def _checkpoint_path(self, name: str) -> Path:
        return self.cache_dir / f"checkpoint_{name}.json"

    def _checkpoint_meta(self, base_label: str) -> dict:
        """Context fingerprint: a checkpoint from different scales,
        seed, or quickness must not be resumed from."""
        return {
            "version": 1,
            "quick": self.quick,
            "seed": self.seed,
            "scales": self.scales,
            "base_label": base_label,
            "max_references": self.max_references,
        }

    def _load_checkpoint(
        self, path: Path, base_label: str
    ) -> Dict[str, dict]:
        if not path.exists():
            return {}
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            warnings.warn(
                f"checkpoint {path} is unreadable; starting over",
                RuntimeWarning,
            )
            return {}
        if payload.get("meta") != self._checkpoint_meta(base_label):
            warnings.warn(
                f"checkpoint {path} was written under a different "
                "bench context; ignoring it",
                RuntimeWarning,
            )
            return {}
        cells = payload.get("cells", {})
        known = set(RunStats.__dataclass_fields__)
        for key, fields in cells.items():
            if not isinstance(fields, dict) or set(fields) - known:
                warnings.warn(
                    f"checkpoint {path} cell {key!r} has unknown "
                    "fields; starting over",
                    RuntimeWarning,
                )
                return {}
        return dict(cells)

    def _save_checkpoint(
        self, path: Path, base_label: str, cells: Dict[str, dict]
    ) -> None:
        """Atomically persist the completed cells (tmp + rename), so a
        kill mid-write leaves the previous checkpoint intact."""
        payload = {
            "meta": self._checkpoint_meta(base_label),
            "cells": cells,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, path)
        except OSError:
            pass  # read-only filesystem: run without checkpoints
