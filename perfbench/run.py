"""Host-time benchmark of the simulator: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3-quick|fig4-em3d|cold-sweep|all
                             [--seed 1998] [--seconds 20] [--trace 0|1]

Every step runs in a fresh interpreter (``child.py``) with the
``REPRO_*`` environment cleared and a trace cache the benchmark owns
under ``.perfbench_cache/``.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; see ``README.md``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only
when every cell was simulated and checked without error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
PINNED_SEED = 1998
PINNED = HERE / f"digests_seed{PINNED_SEED}.json"
WORKLOADS = ("fig3-quick", "fig4-em3d", "cold-sweep")
#: Extra set-up-only interpreters per untraced run; with the measuring
#: interpreter's own set-up they give the ``setup_s`` median.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170


class StepFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The parent environment minus every ``REPRO_*`` knob, with the
    checkout's ``src/`` as the import path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def step(mode: str, workload: str, seed: int, seconds: float = 0.0,
         trace: int = 0, digests: Path = None) -> dict:
    """Run one child interpreter and return what it wrote."""
    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        out = Path(tmp) / "out.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--cache", str(CACHE), "--out", str(out)]
        if digests is not None:
            cmd += ["--digests", str(digests)]
        cmd += ["--t0", repr(time.monotonic())]
        # A session of its own, so a timeout also stops pool workers.
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                start_new_session=True)
        try:
            log, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise StepFailed(f"{mode} {workload} timed out after "
                             f"{CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not out.exists():
            raise StepFailed(f"{mode} {workload} exited "
                             f"{proc.returncode}:\n{log[-4000:]}")
        return json.loads(out.read_text())


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setups, result) -> dict:
    """``wall_s`` is each pass's wall time at the reference host speed
    (``hostclock.py``), the median over the run's passes."""
    return {
        "wall_s": metric(median([p["wall_s"] * (p["host_speed"] or 1.0)
                                 for p in result["passes"]]), "s"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }


def per_layer(result) -> dict:
    """Per-layer metrics: spans averaged over the traced passes, the
    serve layer from the untraced ones (parent side of the real pool)."""
    from layers import STORE_COUNTERS

    traced, passes = result["traced"], result["passes"]
    n = len(traced)
    self_ns, total_ns, calls = {}, {}, {}
    span_refs = 0
    for record in traced:
        spans = record["spans"]
        for name, value in spans["self_ns"].items():
            self_ns[name] = self_ns.get(name, 0) + value / n
        for name, value in spans["total_ns"].items():
            total_ns[name] = total_ns.get(name, 0) + value / n
        for name, value in spans["calls"].items():
            calls[name] = calls.get(name, 0) + value / n
        span_refs += spans["span_refs"] / n
    counts = traced[-1]["counts"]
    setup_spans = result["setup_spans"]["self_ns"]
    for layer in ("trace.store", "workloads.generate"):
        # Per run: the set-up's share plus one traced pass.
        self_ns[layer] = self_ns.get(layer, 0) + setup_spans.get(layer, 0)

    def s(layer, table=self_ns):
        return metric(table.get(layer, 0) / 1e9, "s")

    def c(layer):
        return metric(calls.get(layer, 0), "count")

    def per(ns, events):
        return metric(ns / events if events else 0.0, "ns")

    engine_ns = total_ns.get("sim.vector", 0) + total_ns.get(
        "sim.scalar_engine", 0)
    out = {
        "sim.scalar_span_s": s("sim.scalar_span"),
        "sim.scalar_span_calls": c("sim.scalar_span"),
        "sim.scalar_span_refs_frac": metric(
            span_refs / counts["run.references"]
            if counts["run.references"] else 0.0, "ratio"),
        "sim.vector_self_s": s("sim.vector"),
        "sim.miss_retire_s": s("sim.miss_retire"),
        "sim.miss_retire_calls": c("sim.miss_retire"),
        "sim.scalar_engine_s": s("sim.scalar_engine", total_ns),
        "sim.build_s": s("sim.build"),
        "mem.fill_s": s("mem.fill"),
        "mem.fill_calls": c("mem.fill"),
        "mem.writeback_s": s("mem.writeback"),
        "mem.writeback_calls": c("mem.writeback"),
        "backends.refill_s": s("backends.refill"),
        "backends.refill_calls": c("backends.refill"),
        "os_model.event_s": s("os_model.event"),
        "os_model.event_calls": c("os_model.event"),
        "workloads.generate_s": s("workloads.generate"),
        "trace.store_s": s("trace.store"),
    }
    for name in STORE_COUNTERS:
        count = result["setup_trace_store"].get(name, 0) + sum(
            r["trace_store"].get(name, 0) for r in traced) / n
        out[f"trace.store.{name}"] = metric(count, "count")
    exec_s = median([p["exec_s"] for p in passes])
    wall = median([p["wall_s"] for p in passes])
    jobs = passes[0]["jobs"]
    reruns = [p["rerun_s"] for p in passes if "rerun_s" in p]
    out.update({
        "serve.exec_s": metric(exec_s, "s"),
        "serve.overhead_frac": metric(
            1.0 - exec_s / (jobs * wall) if wall else 0.0, "ratio"),
        "serve.rerun_s": metric(median(reruns), "s"),
        "serve.store_hit_frac": metric(
            passes[-1].get("rerun_hits", 0) / passes[-1]["submitted"],
            "ratio"),
        "serve.first_result_s": metric(
            median([p["first_result_s"] for p in passes]), "s"),
        "sim.ns_per_ref": per(engine_ns, counts["run.references"]),
        "backends.ns_per_refill": per(total_ns.get("backends.refill", 0),
                                      counts["tlb.misses"]),
        "mem.ns_per_fill": per(total_ns.get("mem.fill", 0),
                               counts["mmc.fills"]),
    })
    out.update({name: metric(value, "count")
                for name, value in counts.items()})
    untraced_wall = passes[0]["wall_s"]
    traced_wall = median([r["wall_s"] for r in traced])
    out.update({
        "bench.untraced_wall_s": metric(untraced_wall, "s"),
        "bench.traced_wall_s": metric(traced_wall, "s"),
        "bench.trace_overhead_s": metric(traced_wall - untraced_wall, "s"),
    })
    return out


def digests_file(seed: int) -> Path:
    """Pinned digests at the default seed; elsewhere a record kept in
    the cache, checked by later runs of the same checkout."""
    if seed == PINNED_SEED:
        return PINNED
    return CACHE / "digests" / f"seed{seed}.json"


def record_digests(path: Path, seed: int, digests: dict) -> None:
    doc = {"seed": seed, "cells": {}}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["cells"].update(digests)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    warm_marker = CACHE / "warm" / f"seed{seed}" / f".ready-{workload}"
    if workload != "cold-sweep" and not warm_marker.exists():
        # Build the warm trace store once per seed; never timed.
        step("setup", workload, seed)
        warm_marker.touch()
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(step("setup", workload, seed)["setup_s"])
    digests = digests_file(seed)
    checked = digests.exists()
    result = step("measure", workload, seed, seconds, trace, digests)
    setups.append(result["setup_s"])
    attempted, failed = result["attempted"], result["failed"]
    problems = list(result["problems"])
    if seed == PINNED_SEED:
        pinned = json.loads(PINNED.read_text())["cells"]
        unpinned = sorted(set(result["digests"]) - set(pinned))
        failed += len(unpinned)
        problems += [f"{label}: no pinned digest" for label in unpinned]
    else:
        record_digests(digests, seed, result["digests"])
    provenance = dict(result["provenance"], git_sha=git_sha(),
                      workload=workload, seconds=seconds, trace=trace,
                      samples=len(result["passes"]),
                      traced_samples=len(result["traced"]),
                      setup_samples=len(setups))
    metrics = (per_layer(result) if trace
               else end_to_end(setups, result))
    for problem in problems:
        print(f"{workload}: FAILED {problem}")
    if result["missing_layers"]:
        print(f"{workload}: layers not found, reported as 0: "
              f"{', '.join(result['missing_layers'])}")
    print(f"{workload}: provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"{workload}: digests "
          f"{'checked against' if checked else 'recorded in'} "
          f"{digests.relative_to(ROOT)}")
    print(f"{workload}: error_rate = {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} cells)")
    passes = result["passes"]
    speeds = [p["host_speed"] for p in passes]
    if None in speeds:
        print(f"{workload}: a pass had no host-speed sample; its wall_s "
              "is the raw wall time")
    print(f"{workload}: raw wall = "
          f"{median([p['wall_s'] for p in passes]):.6g} s at host speed "
          f"{median([s for s in speeds if s is not None]):.4g} "
          f"({len(passes)} pass(es))")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    samples = CACHE / "results" / f"{workload}_seed{seed}_trace{trace}.jsonl"
    samples.parent.mkdir(parents=True, exist_ok=True)
    with samples.open("a") as fh:
        fh.write(json.dumps({"provenance": provenance, "setups": setups,
                             "passes": result["passes"],
                             "metrics": metrics}) + "\n")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    CACHE.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
    except StepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
