"""Exact work counts of one operation of a benchmark workload.

Sets a workload up for a seed, exactly as ``bench/workloads.py`` does, runs
one untimed warm-up operation and then three more, one per instrument, so
that no instrument's own work shows in another's count:

* under cProfile: the total number of function calls, and the calls of each
  vlmlab function by qualified name (``vlmlab.numerics.linear.<locals>.
  <lambda>``; calls that cProfile keeps under one file, line and name, such
  as two lambdas on one line, are counted together);
* under tracemalloc: the peak of the memory the operation allocated, in
  bytes;
* under ``bench/tracer.py``'s ``Tracer``: the calls of each public
  ``numerics`` function, and ``numerics.ops``, the tape nodes they made.

Beside them it prints ``setup_modules``, the sorted vlmlab modules that
the workload's ``setup`` loads: an exact count of the import work that
``bench/run.py``'s ``setup_s`` times in a fresh interpreter.

It prints them as one JSON line.  Unlike times, the call counts are exact:
two processes print the same counts, so a change that removes work can
state exactly how much.  Compare two checkouts at the same path depth:
niah_grid's ``pathlib`` calls grow with the depth of the checkout's
``.bench_out/``.

Usage, from anywhere:

    python3 tools/op_cost.py --workload train_s0 [--seed 0] [--root CHECKOUT]

``--root`` names the checkout whose ``bench/workloads.py`` and ``src/`` run,
by default the one holding this script, so that one copy of the script
measures another commit's checkout too.  The script only reads ``bench/``;
the workload's own scratch files go where ``bench/run.py``'s go.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import tracemalloc
from pathlib import Path
from types import CodeType


def _qualified_names(package: Path) -> dict[tuple[str, int, str], str]:
    """(file, first line, name), cProfile's key of a function, mapped to the
    function's module and qualified name, for every function in ``package``."""
    names = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, CodeType)]
            names[(str(path), code.co_firstlineno, code.co_name)] = (
                f"{module}.{getattr(code, 'co_qualname', code.co_name)}")
    return names


def measure(workload_name: str, seed: int) -> dict:
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[workload_name]
    loaded = set(sys.modules)
    state = workload.setup(seed)
    setup_modules = sorted(name for name in set(sys.modules) - loaded
                           if name == "vlmlab" or name.startswith("vlmlab."))
    workload.before(state)
    workload.op(state)  # warm-up: lazy set-up and memoised work land here

    workload.before(state)
    profile = cProfile.Profile()
    profile.runcall(workload.op, state)
    stats = pstats.Stats(profile)
    names = _qualified_names(workloads.SRC / "vlmlab")
    calls: dict[str, int] = {}
    for key, (_, count, *_) in stats.stats.items():
        if key in names:
            calls[names[key]] = calls.get(names[key], 0) + count

    workload.before(state)
    tracemalloc.start()
    workload.op(state)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    workload.before(state)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        workload.op(state)
    finally:
        tracer.active = False
        tracer.unpatch()
    ops = {name.removeprefix("numerics."): n for name, n in sorted(tracer.calls.items())
           if name.startswith("numerics.") and not name.endswith(".bwd")
           and name not in ("numerics.tensor_init", "numerics.backward")}
    return {"workload": workload_name, "seed": seed, "setup_modules": setup_modules,
            "calls_total": stats.total_calls,
            "calls": dict(sorted(calls.items())), "tracemalloc_peak_bytes": peak,
            "numerics_calls": ops, "numerics.ops": tracer.counts["numerics.ops"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("niah_grid", "train_s0", "long_video", "ground_io"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "bench"))
    print(json.dumps(measure(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
