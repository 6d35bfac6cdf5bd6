"""Record the reference outputs that ``run.py`` compares operations against.

    python3 bench/make_oracle.py

Runs every workload for the default seed (0) and one held-out seed (1) and
writes ``bench/oracle.json``.  The stored oracle is the seed commit's
output; regenerate it only for a change that is meant to alter outputs, and
say so where the change is described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

SEEDS = (0, 1)
TRAIN_STEPS = 512  # more than a 15 s run of train_s0 completes at the seed commit


def record(workload, seed: int) -> list:
    state = workload.setup(seed)
    observations = []
    for _ in range(1 if workload.repeats else TRAIN_STEPS):
        workload.before(state)
        out = workload.op(state)
        problems = workload.invariants(state, out)
        if problems:
            raise SystemExit(f"{workload.name} seed {seed}: {problems}")
        observations.append(workload.observe(state, out))
    return observations


def main() -> int:
    oracle = {name: {str(seed): record(w, seed) for seed in SEEDS}
              for name, w in workloads.WORKLOADS.items()}
    path = Path(__file__).resolve().parent / "oracle.json"
    path.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
