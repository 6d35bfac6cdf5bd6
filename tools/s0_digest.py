"""SHA-256 digests of a chained train_s0 run.

Sets up the benchmark's train_s0 workload for a seed, exactly as
``bench/workloads.py`` does, runs N of its operations one after another (one
``train_toy`` step each, on the same model), and prints the SHA-256 of the N
losses and of the final parameters, by name and in order.  Two checkouts
whose digests agree computed the same bits.  ``--stage`` trains another
stage on the same model and batch (by default S0, the workload's own); its
name appears in the output only when it is not S0.

Usage, from anywhere:

    python3 tools/s0_digest.py --steps 512 --seed 0 [--stage S1] [--root CHECKOUT]

``--root`` names the checkout whose ``bench/workloads.py`` and ``src/`` run,
by default the one holding this script, so that one copy of the script
digests another commit's checkout too.  The script only reads ``bench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def digests(steps: int, seed: int, stage: str = "S0") -> dict:
    import workloads  # holds BLAS to one thread, so it comes before numpy

    import numpy as np
    from vlmlab.harness import load_stage_config

    workload = workloads.WORKLOADS["train_s0"]
    state = workload.setup(seed)
    state["stage"] = load_stage_config(stage)
    losses = [workload.op(state).losses[0] for _ in range(steps)]
    params = hashlib.sha256()
    for name, param in state["model"].parameters().items():
        params.update(name.encode())
        params.update(param.data.tobytes())
    return {"seed": seed, "steps": steps, **({"stage": stage} if stage != "S0" else {}),
            "losses_sha256": hashlib.sha256(np.array(losses).tobytes()).hexdigest(),
            "params_sha256": params.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=512)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--stage", default="S0", choices=("S0", "S1", "S2", "S3"))
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    if args.steps < 0:
        parser.error("--steps must be non-negative")
    sys.path.insert(0, str(args.root.resolve() / "bench"))
    print(json.dumps(digests(args.steps, args.seed, args.stage)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
