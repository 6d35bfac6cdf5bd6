"""The scripts under ``tools/``, run as a user runs them."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from vlmlab.harness import load_stage_config, make_synthetic_batch, train_toy
from vlmlab.seeding import Rng
from vlmlab.vision import ModelConfig, VisionLanguageModel

ROOT = Path(__file__).resolve().parents[1]


def digest_report(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "s0_digest.py"), *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def train_digests(seed: int, stage: str, steps: int) -> dict:
    """The digests of one ``steps``-step ``train_toy`` run of ``stage`` on the
    benchmark's train_s0 model and batch."""
    rng = Rng(seed)
    cfg = ModelConfig()
    model = VisionLanguageModel(cfg, rng.split("model"))
    batch = make_synthetic_batch(cfg, rng.split("data"), n_examples=8, text_len=12)
    losses = train_toy(model, load_stage_config(stage), batch, steps=steps, lr=0.1).losses
    params = hashlib.sha256()
    for name, param in model.parameters().items():
        params.update(name.encode())
        params.update(param.data.tobytes())
    return {"losses_sha256": hashlib.sha256(np.array(losses).tobytes()).hexdigest(),
            "params_sha256": params.hexdigest()}


def test_s0_digest_hashes_the_chained_steps():
    """Three chained train_s0 operations hash to the digests of one
    three-step S0 ``train_toy`` run on the benchmark's model and batch."""
    assert digest_report("--steps", "3", "--seed", "1") == {"seed": 1, "steps": 3,
                                                           **train_digests(1, "S0", 3)}


def test_s0_digest_trains_another_stage():
    """``--stage S1`` chains S1 steps on the same model and batch, and names
    the stage in its report."""
    assert digest_report("--steps", "2", "--seed", "0", "--stage", "S1") == {
        "seed": 0, "steps": 2, "stage": "S1", **train_digests(0, "S1", 2)}


def test_op_faults_reports_each_operation():
    """Two ground_io operations give two fault counts, the peak memory and
    the median operation time, by name."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "op_faults.py"),
                           "--workload", "ground_io", "--ops", "2", "--seed", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert set(report) == {"workload", "seed", "ops", "minflt_per_op", "maxrss_kb",
                           "op_median_ms"}
    assert (report["workload"], report["seed"], report["ops"]) == ("ground_io", 1, 2)
    assert len(report["minflt_per_op"]) == 2
    assert all(type(n) is int and n >= 0 for n in report["minflt_per_op"])
    assert type(report["maxrss_kb"]) is int and report["maxrss_kb"] > 0
    assert type(report["op_median_ms"]) is float and report["op_median_ms"] > 0


def test_op_faults_all_prints_one_line_per_workload():
    """``--workload all`` measures the four workloads one after another, in
    a process each, and prints each one's report on a line of its own."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "op_faults.py"),
                           "--workload", "all", "--ops", "1", "--seed", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    reports = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["workload"] for r in reports] == ["niah_grid", "train_s0", "long_video",
                                                "ground_io"]
    for report in reports:
        assert (report["seed"], report["ops"], len(report["minflt_per_op"])) == (1, 1, 1)
        assert type(report["maxrss_kb"]) is int and report["maxrss_kb"] > 0


def test_op_cost_counts_are_the_same_in_two_processes():
    """Two processes print the same cProfile call counts and the same traced
    numerics calls for a train_s0 operation, which trains once; the memory
    peak is a positive byte count."""
    reports = []
    for _ in range(2):
        done = subprocess.run([sys.executable, str(ROOT / "tools" / "op_cost.py"),
                               "--workload", "train_s0", "--seed", "1"],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        reports.append(json.loads(done.stdout))
    first, second = reports
    assert set(first) == {"workload", "seed", "calls_total", "calls", "tracemalloc_peak_bytes",
                          "numerics_calls", "numerics.ops"}
    assert (first["workload"], first["seed"]) == ("train_s0", 1)
    assert first["calls"]["vlmlab.harness.training.train_toy"] == 1
    assert first["calls_total"] > sum(first["calls"].values())
    assert first["numerics_calls"]["linear"] > 0 and first["numerics.ops"] > 0
    assert type(first["tracemalloc_peak_bytes"]) is int and first["tracemalloc_peak_bytes"] > 0
    for key in ("calls_total", "calls", "numerics_calls", "numerics.ops"):
        assert first[key] == second[key], key


def test_op_cost_train_s0_step_reuses_the_batch_plan():
    """After the warm-up, a train_s0 operation, one ``train_toy`` call on the
    benchmark's batch, plans nothing: it assigns no position ids, checks no
    target and no segment lengths, and prepares the batch from the plan
    made with it."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "op_cost.py"),
                           "--workload", "train_s0", "--seed", "0"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout)["calls"]
    assert calls["vlmlab.harness.training.train_toy"] == 1
    assert calls["vlmlab.vision.VisionLanguageModel.prepare_planned"] == 1
    assert calls["vlmlab.numerics._runs"] > 0
    for name in ("vlmlab.mrope.assign_position_ids", "vlmlab.harness.training._example_indices",
                 "vlmlab.numerics._segments", "vlmlab.vision.plan_batch"):
        assert name not in calls, name


def test_src_lines_counts_total_and_code_lines(tmp_path):
    """``total`` counts every line of the ``*.py`` files under ``src/``;
    ``code`` leaves out blank lines, comments and docstrings, and counts a
    multi-line string that is no docstring on each of its lines.
    ``modules`` gives both counts per file, by its path under ``src/``."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Module docstring,\non two lines."""\n'
                                         '\n'
                                         'X = 1  # a comment\n')
    (package / "mod.py").write_text('def f():\n'
                                    '    """Docstring."""\n'
                                    '    # a comment\n'
                                    '    return """two\n'
                                    'lines"""\n'
                                    '\n'
                                    'class C:\n'
                                    '    "one-line docstring"\n'
                                    '    y = "no docstring"\n')
    (tmp_path / "outside.py").write_text("Z = 2\n")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"),
                           "--root", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"total": 13, "code": 6, "modules": {
        "pkg/__init__.py": {"total": 4, "code": 1}, "pkg/mod.py": {"total": 9, "code": 5}}}
