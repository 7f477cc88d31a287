"""One fresh interpreter of the benchmark: set up, or set up and measure.

``run.py`` starts this file once per step, so every measured workload
runs in its own interpreter and its set-up time starts at interpreter
start.  The simulator is entered only through ``repro.api``
(``Session``, ``ScenarioSpec``, ``RunReport``); the result of each step
is written as JSON to ``--out``.

Modes:

* ``setup``: import, construct the ``Session``, load the warm traces
  (fig3/fig4), and stop: one ``setup_s`` sample.  The first such step
  for a seed builds the benchmark's warm trace store and is not timed.
* ``measure``: the same set-up, then passes of the workload until
  ``--seconds`` at the reference host speed (``hostclock.py``) have been
  spent, at least one pass.  With ``--trace 1`` one untraced pass is
  followed by traced passes until ``--seconds`` of wall time have been
  spent; the per-layer spans come only from the traced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path


def _since(t0: float) -> float:
    return time.monotonic() - t0


PROGRAMS = ("compress95", "vortex", "radix", "em3d", "gcc")


def build_specs(workload: str, seed: int):
    """The cells of one workload, in submission order."""
    from repro.api import ScenarioSpec
    from repro import figure3_configs, figure4_configs, paper_mtlb
    from repro import paper_no_mtlb

    if workload == "fig3-quick":
        return [
            ScenarioSpec(program, config, seed=seed)
            for program in PROGRAMS
            for config in figure3_configs().values()
        ]
    if workload == "fig4-em3d":
        return [
            ScenarioSpec("em3d", config, seed=seed)
            for config in figure4_configs().values()
        ]
    if workload == "cold-sweep":
        return [
            spec
            for program in PROGRAMS
            for spec in (
                ScenarioSpec(program, paper_mtlb(96), seed=seed),
                ScenarioSpec(program, paper_no_mtlb(96), seed=seed,
                             backend="coalesced"),
                ScenarioSpec(program, paper_no_mtlb(96), seed=seed,
                             backend="victima"),
            )
        ]
    raise SystemExit(f"unknown workload {workload!r}")


def stats_digest(report) -> str:
    """sha256 over a cell's ``RunStats`` fields, canonical JSON."""
    doc = json.dumps(report.stats_dict(), sort_keys=True,
                     separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest ended child
    (a pool worker); ``ru_maxrss`` is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Checker:
    """Output check for one run: every cell's stats digest.

    ``expected`` maps a cell label to the digest it must have: the pinned
    set at seed 1998, or at another seed what earlier runs of this
    checkout recorded.  Within a run every pass must reproduce the
    first pass's digests.
    """

    def __init__(self, expected):
        self.expected = expected
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {why}")

    def check(self, report, rerun: bool = False) -> None:
        label = report.spec.label
        self.attempted += 1
        if report.error is not None:
            self.fail(label, f"raised {report.error!r}")
            return
        if rerun and not report.cache_hit:
            self.fail(label, "rerun missed the result store")
            return
        if not rerun and report.cache_hit:
            self.fail(label, "first pass was served from a cache")
            return
        digest = stats_digest(report)
        want = self.expected.get(label)
        if want is not None and want != digest:
            self.fail(label, f"digest {digest[:12]} != expected "
                      f"{want[:12]}")
            return
        first = self.seen.setdefault(label, digest)
        if first != digest:
            self.fail(label, "digest differs from this run's first pass")


#: Exact simulated counts summed per pass: metric name -> RunStats field.
COUNTS = {
    "run.references": "references",
    "tlb.misses": "tlb_misses",
    "cache.misses": "cache_misses",
    "mmc.fills": "fills",
    "mtlb.misses": "mtlb_misses",
    "remap.pages": "remap_pages",
}


def setup(workload: str, seed: int, cache: Path, run_dir: Path):
    """Construct the session a pass runs in; for fig3/fig4 also load
    (or, on a seed's first use, build) the warm traces."""
    from repro.api import Session

    if workload == "cold-sweep":
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        return Session(quick=True, seed=seed, cache_dir=run_dir / "traces",
                       store=run_dir / "results")
    session = Session(quick=True, seed=seed,
                      cache_dir=cache / "warm" / f"seed{seed}")
    for program in sorted({spec.workload
                           for spec in build_specs(workload, seed)}):
        session.context.trace(program)
    return session


def one_pass(workload, session, specs, checker, jobs):
    """Run every cell once and check it; returns the pass's record."""
    first = []
    submit = time.monotonic()

    def on_result(index, report):
        if not first:
            first.append(time.monotonic())

    scheduler = session.scheduler(jobs=jobs)
    reports = scheduler.sweep(specs, on_result=on_result,
                              raise_errors=False)
    counts = dict.fromkeys(COUNTS, 0)
    for report in reports:
        checker.check(report)
        if report.stats is not None:
            stats = report.stats_dict()
            for name, field in COUNTS.items():
                counts[name] += stats[field]
    done = time.monotonic()
    out = {
        "t_submit": submit,
        "t_done": done,
        "wall_s": done - submit,
        "first_result_s": (first[0] if first else done) - submit,
        "exec_s": sum(r.wall_seconds for r in reports),
        "cell_s": [r.wall_seconds for r in reports],
        "jobs": jobs,
        "submitted": scheduler.submitted.value,
        "counts": counts,
    }
    if workload == "cold-sweep":
        start = time.monotonic()
        rerun = session.sweep(specs, jobs=jobs, raise_errors=False)
        out["rerun_s"] = time.monotonic() - start
        for report in rerun:
            checker.check(report, rerun=True)
        out["rerun_hits"] = sum(1 for r in rerun if r.cache_hit)
    return out


def measure(args, session, cache: Path, run_dir: Path, tracer) -> dict:
    """The run's passes and everything checked and counted in them."""
    import numpy
    from hostclock import HostClock, read_spool, speed
    from repro import __version__

    workload, seed = args.workload, args.seed
    expected = {}
    if args.digests is not None and args.digests.exists():
        expected = json.loads(args.digests.read_text())["cells"]
    specs = build_specs(workload, seed)
    jobs = (os.cpu_count() or 1) if workload == "cold-sweep" else 1
    checker = Checker(expected)
    passes, traced = [], []
    start = time.monotonic()
    clock, spool = None, None
    measured = 0.0
    if workload == "cold-sweep":
        # Pool workers do the work, so each runs its own probe.  The
        # parent only waits; a probe there would time the scheduler.
        spool = run_dir / "clock"
        os.register_at_fork(after_in_child=lambda: HostClock(spool).start())
    else:
        clock = HostClock()
        clock.start()
    try:
        while True:
            if passes and workload == "cold-sweep":
                session = setup(workload, seed, cache, run_dir)
            if spool is not None:
                spool.mkdir(exist_ok=True)
            record = one_pass(workload, session, specs, checker, jobs)
            samples = read_spool(spool) if spool else clock.samples
            record["host_speed"] = speed(samples, record["t_submit"],
                                         record["t_done"])
            passes.append(record)
            # Count time at the reference speed, so that the number of
            # passes (and the memory they leave) does not follow the host.
            measured += record["wall_s"] * (record["host_speed"] or 1.0)
            if args.trace or measured >= args.seconds:
                break
    finally:
        if clock is not None:
            clock.stop()
    missing = []
    if tracer is not None:
        from layers import store_counters

        tracer.install()
        missing = tracer.missing
        while True:
            if workload == "cold-sweep":
                # Spans inside pool workers are out of reach, so the
                # traced cold pass runs the same specs at jobs=1.
                session = setup(workload, seed, cache, run_dir)
            before = store_counters()
            record = one_pass(workload, session, specs, checker, 1)
            record["spans"] = tracer.take()
            record["trace_store"] = {
                name: value - before[name]
                for name, value in store_counters().items()
            }
            traced.append(record)
            if _since(start) >= args.seconds:
                break
        tracer.uninstall()
    return {
        "passes": passes,
        "traced": traced,
        "missing_layers": missing,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "digests": checker.seen,
        "peak_rss_mb": peak_rss_mb(),
        "provenance": {
            "repro_version": __version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "scales": dict(session.context.scales),
            "seed": seed,
            "traces": "cold" if workload == "cold-sweep" else "warm",
            "jobs": jobs,
            "cells": len(specs),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--cache", type=Path, required=True)
    ap.add_argument("--digests", type=Path, default=None)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    run_dir = args.cache / "cold" / f"pid{os.getpid()}"
    result = {}
    tracer = None
    if args.trace:
        from layers import Tracer, store_counters

        # Traced set-up: the warm-trace loads are fig3/fig4's only
        # trace-store work.
        tracer = Tracer()
        tracer.install()
    try:
        session = setup(args.workload, args.seed, args.cache, run_dir)
        result["setup_s"] = _since(args.t0)
        if tracer is not None:
            tracer.uninstall()
            result["setup_spans"] = tracer.take()
            result["setup_trace_store"] = store_counters()
        if args.mode == "measure":
            result.update(measure(args, session, args.cache, run_dir,
                                  tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
