"""Pin the ``RunStats`` digest of every benchmark cell at seed 1998.

Runs every cell of every workload twice, once on the default engine
and once with ``engine="scalar"``, and fails unless the two agree.
Writes ``digests_seed1998.json`` beside this file, which ``run.py``
checks every default-seed run against.  Run it from the repository
root, after a change that is meant to alter simulated results::

    PYTHONPATH=src python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

from child import build_specs, stats_digest
from run import CACHE, PINNED, PINNED_SEED, WORKLOADS


def main() -> int:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    from repro.api import Session

    specs = {}
    for workload in WORKLOADS:
        for spec in build_specs(workload, PINNED_SEED):
            specs.setdefault(spec.label, spec)
    session = Session(quick=True, seed=PINNED_SEED,
                      cache_dir=CACHE / "pin")
    digests = {}
    for engine in (None, "scalar"):
        batch = [dataclasses.replace(spec, engine=engine)
                 for spec in specs.values()]
        for report in session.sweep(batch, jobs=os.cpu_count() or 1):
            digests.setdefault(engine, {})[report.spec.label] = (
                stats_digest(report))
    differ = sorted(label for label in specs
                    if digests[None][label] != digests["scalar"][label])
    if differ:
        print(f"engines disagree on {len(differ)} cell(s): "
              f"{', '.join(differ)}", file=sys.stderr)
        return 1
    doc = {"seed": PINNED_SEED, "engines_agree": ["default", "scalar"],
           "cells": dict(sorted(digests[None].items()))}
    PINNED.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"pinned {len(doc['cells'])} cells in {PINNED.name}; "
          "scalar engine identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
