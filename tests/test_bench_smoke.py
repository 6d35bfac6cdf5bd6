"""Benchmark smoke check: every workload in ``bench/workloads.py`` sets up and
runs one checked operation, for seeds 0 and 1.

Each operation goes through ``bench/run.py``'s ``Loop.once``, so it runs the
workload's own invariants and its comparison against ``bench/oracle.json``.
The check runs in one subprocess from the repository root, as
``bench/run.py`` does, and writes only under the ignored ``.bench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SMOKE = """
import json, sys
sys.path.insert(0, "bench")
import run, workloads
report = {}
for name, workload in sorted(workloads.WORKLOADS.items()):
    for seed in (0, 1):
        loop = run.Loop(workload, workload.setup(seed), seed)
        loop.once()
        report[f"{name} seed {seed}"] = [loop.steps, loop.failed, loop.problems[:3]]
print(json.dumps(report))
"""


def test_every_workload_runs_one_checked_operation():
    done = subprocess.run([sys.executable, "-c", SMOKE], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert len(report) == 8, sorted(report)
    for key, (attempted, failed, problems) in report.items():
        assert (attempted, failed) == (1, 0), f"{key}: {problems}"
