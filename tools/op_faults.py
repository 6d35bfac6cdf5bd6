"""Minor page faults, peak memory and time of a benchmark workload's operations.

Sets a workload up for a seed, exactly as ``bench/workloads.py`` does, runs
one untimed warm-up operation and then N operations one after another, and
prints one JSON line: each operation's minor page faults (the change in
``getrusage``'s ``ru_minflt`` across it), the process's ``ru_maxrss`` at the
end (in KiB, as Linux reports it) and the median operation time.  A minor
fault is a page the process touches for the first time since the allocator
mapped it, so a count that stays high from one operation to the next shows
scratch memory handed back to the OS and faulted in again.

Usage, from anywhere:

    python3 tools/op_faults.py --workload niah_grid --ops 50 --seed 0 [--root CHECKOUT]

``--workload all`` measures each of the four workloads in a process of its
own, one after another, and prints one line per workload, so that one
command takes the census of a checkout.

``--root`` names the checkout whose ``bench/workloads.py`` and ``src/`` run,
by default the one holding this script, so that one copy of the script
measures another commit's checkout too.  The script only reads ``bench/``;
the workload's own scratch files go where ``bench/run.py``'s go.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKLOADS = ("niah_grid", "train_s0", "long_video", "ground_io")


def measure(workload_name: str, ops: int, seed: int) -> dict:
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    state = workload.setup(seed)
    workload.before(state)
    workload.op(state)  # warm-up: lazy set-up and first-touch faults land here
    faults, times = [], []
    for _ in range(ops):
        workload.before(state)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = perf_counter()
        workload.op(state)
        times.append(perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return {"workload": workload_name, "seed": seed, "ops": ops, "minflt_per_op": faults,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "op_median_ms": 1e3 * statistics.median(times)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--ops", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    if args.workload == "all":
        for name in WORKLOADS:
            done = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--ops", str(args.ops), "--seed", str(args.seed),
                                   "--root", str(args.root)])
            if done.returncode:
                return done.returncode
        return 0
    sys.path.insert(0, str(args.root.resolve() / "bench"))
    print(json.dumps(measure(args.workload, args.ops, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
