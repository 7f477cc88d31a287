"""Per-layer host-time spans, recorded from outside the simulator.

:class:`Tracer` replaces each layer's entry point with a wrapper that
keeps a stack of open spans.  A span's *self* time is its duration
minus the spans nested inside it: a fill inside a scalar span inside a
vector segment is charged to ``mem.fill`` only.  Spans stay in memory
and are summed per layer name; ``take()`` returns and clears them.

Entry points are looked up by name.  When a refactor removes one, the
layer is listed in ``missing`` and its metrics read zero; the traced
run keeps going.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Tuple

#: Trace-store counters reported from ``trace_metrics_source()``.
STORE_COUNTERS = ("hits", "misses", "generated", "chunks_read",
                  "chunks_written", "single_flight_waits")

#: (module, attribute path, layer) for the plain wrappers.  An imported
#: alias is patched in every module that holds it, because callers look
#: it up in their own namespace.
_PLAIN: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "_vector_miss_retire", "sim.miss_retire"),
    ("repro.sim.engine", "run_segment_vector", "sim.vector"),
    ("repro.sim.system", "run_segment_vector", "sim.vector"),
    ("repro.sim.engine", "run_segment_scalar", "sim.scalar_engine"),
    ("repro.sim.system", "run_segment_scalar", "sim.scalar_engine"),
    ("repro.sim.system", "System._fill_stall", "mem.fill"),
    ("repro.mem.mmc", "MemoryController.writeback", "mem.writeback"),
    ("repro.sim.system", "System._refill_tlb", "backends.refill"),
    ("repro.sim.system", "System._exec_event", "os_model.event"),
    ("repro.sim.system", "System.__init__", "sim.build"),
    ("repro.bench.runner", "build_workload", "workloads.generate"),
    ("repro.trace.store", "TraceStore.get_or_create", "trace.store"),
    ("repro.trace.store", "TraceStore.load", "trace.store"),
    ("repro.trace.store", "TraceStore.stream_or_load", "trace.store"),
)


class Tracer:
    """Span stack plus per-layer totals; install/uninstall patches."""

    def __init__(self) -> None:
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self.clear()

    def clear(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: References retired inside ``_scalar_span`` (stop - start).
        self.span_refs = 0

    def take(self) -> Dict[str, object]:
        out = {
            "self_ns": self.self_ns,
            "total_ns": self.total_ns,
            "calls": self.calls,
            "span_refs": self.span_refs,
        }
        self.clear()
        return out

    # -- spans -------------------------------------------------------- #

    def wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tracer.self_ns[layer] = (
                    tracer.self_ns.get(layer, 0) + elapsed - nested
                )
                tracer.total_ns[layer] = (
                    tracer.total_ns.get(layer, 0) + elapsed
                )
                tracer.calls[layer] = tracer.calls.get(layer, 0) + 1

        traced.__wrapped__ = fn
        return traced

    def _wrap_scalar_span(self, fn: Callable) -> Callable:
        inner = self.wrap("sim.scalar_span", fn)
        tracer = self

        def traced(system, seg, start, stop, *args, **kwargs):
            tracer.span_refs += stop - start
            return inner(system, seg, start, stop, *args, **kwargs)

        return traced

    def _wrap_fused_paths(self, fn: Callable) -> Callable:
        wrap = self.wrap

        def traced(system):
            paths = fn(system)
            if paths is None:
                return None
            fill, writeback, drain = paths
            return (wrap("mem.fill", fill), wrap("mem.writeback", writeback),
                    drain)

        return traced

    def _wrap_generator(self, fn: Callable) -> Callable:
        """``stream_workload`` generates partly when called and partly
        as its item iterator is consumed, so both are spans."""
        wrap = self.wrap
        call = wrap("workloads.generate", fn)

        def traced(*args, **kwargs):
            shell, items = call(*args, **kwargs)
            step = wrap("workloads.generate", iter(items).__next__)

            def timed():
                while True:
                    try:
                        yield step()
                    except StopIteration:
                        return

            return shell, timed()

        return traced

    # -- patching ----------------------------------------------------- #

    def _patch(self, module: str, path: str, make: Callable) -> None:
        try:
            owner = importlib.import_module(module)
            *parents, name = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        self._patched.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        self.missing = []
        for module, path, layer in _PLAIN:
            self._patch(module, path,
                        lambda fn, layer=layer: self.wrap(layer, fn))
        self._patch("repro.sim.engine", "_scalar_span",
                    self._wrap_scalar_span)
        self._patch("repro.sim.engine", "_fused_paths",
                    self._wrap_fused_paths)
        self._patch("repro.bench.runner", "stream_workload",
                    self._wrap_generator)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


def store_counters() -> Dict[str, float]:
    """Cumulative trace-store counters of this process."""
    try:
        from repro.trace.store import trace_metrics_source
    except ImportError:
        return {}
    source = trace_metrics_source()
    return {name: source.get(f"store.{name}", 0) for name in STORE_COUNTERS}
