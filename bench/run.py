"""The vlmlab benchmark: one closed-loop workload per run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload niah_grid --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it measures the per-layer metrics named in
``BENCHMARK.json`` from an outside-in trace (see ``tracer.py``).  Human
readable lines start with ``#``; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full run
record, with metadata and, for traced runs, every span, is written to
``.bench_out/`` in the checkout.

Every operation's output is checked: against the stored oracle of the seed
commit (``oracle.json``) when the seed has an entry, and against invariants
that hold for any seed.  An operation that raises or fails a check counts
in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracer import NUMERICS_OPS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = workloads.ROOT
CPUS = sorted(os.sched_getaffinity(0))
SETUP_PROBES = 7
MIN_TAIL_OPS = 20

_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import workloads; "
          "w = workloads.WORKLOADS[sys.argv[2]]; t = time.perf_counter(); "
          "w.setup(int(sys.argv[3])); print(time.perf_counter() - t)")


def tail(values):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples), or None below 20 samples.
    """
    n = len(values)
    if n < MIN_TAIL_OPS:
        return None
    rank = n - 10
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def setup_probe(name: str, seed: int) -> float:
    """Seconds to set the workload up in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _PROBE, str(BENCH), name, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class NoOperations(Exception):
    """No timed operation completed, so there is nothing to measure."""

    def __init__(self, loop):
        super().__init__(f"no operation completed; first problems: {loop.problems[:3]}")


class Loop:
    """The closed loop: one operation at a time, each checked before the next."""

    def __init__(self, workload, state, seed: int):
        self.workload = workload
        self.state = state
        oracle = json.loads((BENCH / "oracle.json").read_text(encoding="utf-8"))
        self.refs = oracle.get(workload.name, {}).get(str(seed), [])
        self.steps = 0
        self.failed = 0
        self.problems: list[str] = []

    def once(self, tracer: Tracer | None = None) -> float | None:
        """Run and check one operation; returns its seconds, or None if it raised."""
        w, state = self.workload, self.state
        step = self.steps
        self.steps += 1
        # Consecutive operations run on different CPUs: other tenants load
        # each core of a shared machine independently, sometimes for a
        # minute, and the fastest operation should not depend on one core.
        os.sched_setaffinity(0, {CPUS[step % len(CPUS)]})
        try:
            w.before(state)
            if tracer is None:
                start = perf_counter()
                out = w.op(state)
                seconds = perf_counter() - start
            else:
                tracer.active = True
                try:
                    out, seconds = tracer.run(lambda: w.op(state), "bench.op")
                finally:
                    tracer.active = False
                    tracer.end_op()
            problems = w.invariants(state, out)
            ref = self.refs[0] if w.repeats and self.refs else (
                self.refs[step] if step < len(self.refs) else None)
            if ref is not None:
                problems += workloads.compare(w.observe(state, out), ref)
        except Exception:  # the loop keeps running; the failure is counted and shown
            seconds, problems = None, [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.problems.extend(f"op {step}: {p}" for p in problems)
        return seconds

    def run_for(self, seconds: float, pauses: int = 0, pause=None) -> list[float]:
        """Operate until ``seconds`` have passed; returns the operation times.

        ``pause()`` runs between operations each time another
        ``seconds / (pauses + 1)`` have passed, ``pauses`` times at most.
        """
        times = []
        start = perf_counter()
        deadline = start + seconds
        next_pause, done = 1, 0
        while True:
            t = self.once()
            if t is not None:
                times.append(t)
            now = perf_counter()
            if now >= deadline:
                return times
            if done < pauses and now - start >= next_pause * seconds / (pauses + 1):
                pause()
                next_pause, done = next_pause + 1, done + 1


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(CPUS),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "git_revision": git_revision(), "src_lines": src_lines,
    }


def git_revision() -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(workload, state, seed: int, seconds: int) -> tuple[Loop, dict, dict]:
    loop = Loop(workload, state, seed)
    items = workload.items(state)
    # Set-up probes are spread over the run, so that one burst of load from
    # other processes on the machine does not decide the result.
    setups = [setup_probe(workload.name, seed)]
    loop.once()  # the untimed warm-up operation, checked like the rest
    times = loop.run_for(seconds, pauses=SETUP_PROBES - 1,
                         pause=lambda: setups.append(setup_probe(workload.name, seed)))
    if not times:
        raise NoOperations(loop)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload.name, seed))
    # The least of several samples: other tenants of a shared machine slow
    # whole stretches of a run down, never speed one up.
    fastest = min(times)
    metrics = {
        "setup_s": (min(setups), "s"),
        "items_per_s": (items / fastest, "1/s"),
        "op_min_ms": (1e3 * fastest, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    slow = tail(times)
    side = {
        "items_per_op": items, "op_ms": [1e3 * t for t in times], "setup_samples_s": setups,
        "op_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "setup_p50_s": {"value": statistics.median(setups), "unit": "s"},
        "items_per_s_mean": {"value": items * len(times) / sum(times), "unit": "1/s"},
        "op_tail_ms": ({"value": 1e3 * slow[0], "unit": "ms", "percentile": slow[1],
                        "samples": slow[2]}
                       if slow else {"absent": f"{len(times)} timed operations, fewer than "
                                            f"{MIN_TAIL_OPS}"}),
        "error_rate": {"value": loop.failed / loop.steps, "unit": "ratio"},
    }
    return loop, metrics, side


def traced(workload, seed: int, seconds: int) -> tuple[Loop, dict, dict, dict]:
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        state = workload.setup(seed)
    finally:
        tracer.active = False
        tracer.unpatch()
    setup_phase = (dict(tracer.self_s), dict(tracer.incl_s), tracer.calls.copy())
    tracer.clear()

    loop = Loop(workload, state, seed)
    loop.once()  # untimed warm-up
    # Untraced and traced operations alternate, so that both see the same
    # load from other processes on the machine.
    untraced, traced_times = [], []
    deadline = perf_counter() + seconds
    pair = 0
    while True:
        # The order swaps every pair, so that both kinds run as often on each
        # CPU the loop alternates between.
        for use_tracer in ((False, True) if pair % 2 == 0 else (True, False)):
            if use_tracer:
                tracer.install()
                try:
                    t = loop.once(tracer)
                finally:
                    tracer.unpatch()
                if t is not None:
                    traced_times.append(t)
            else:
                t = loop.once()
                if t is not None:
                    untraced.append(t)
        pair += 1
        if perf_counter() >= deadline:
            break
    if not (untraced and traced_times):
        raise NoOperations(loop)
    metrics, absent, notes = layer_metrics(tracer, setup_phase, state, untraced, traced_times)
    side = {"untraced_ops": len(untraced), "traced_ops": len(traced_times),
            "absent": absent, "notes": notes}
    spans = {"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": tracer.spans}
    return loop, metrics, side, spans


def layer_metrics(tr: Tracer, setup_phase, state, untraced, traced_times):
    n = len(traced_times)
    setup_self, setup_incl, setup_calls = setup_phase
    absent: dict[str, str] = {}
    notes: dict[str, dict] = {}
    out: dict[str, tuple[float, str]] = {}

    def ms(name):
        return 1e3 * tr.self_s.get(name, 0.0) / n

    def calls(name):
        return tr.calls.get(name, 0) / n

    def count(key):
        return tr.counts.get(key, 0) / n

    def ratio(metric, num, den, why):
        if den:
            out[metric] = (num / den, "ratio")
        else:
            out[metric] = (0.0, "ratio")
            absent[metric] = why

    ops = [name[len("numerics."):] for name in tr.calls
           if name.startswith("numerics.") and not name.endswith(".bwd")
           and name not in ("numerics.tensor_init", "numerics.backward")]
    out["numerics.ops"] = (count("numerics.ops"), "count")
    out["numerics.tensors"] = (calls("numerics.tensor_init"), "count")
    out["numerics.tensor_init_ms"] = (ms("numerics.tensor_init"), "ms")
    out["numerics.fwd_ms"] = (sum(ms(f"numerics.{op}") for op in ops), "ms")
    out["numerics.bwd_ms"] = (sum(ms(f"numerics.{op}.bwd") for op in ops), "ms")
    out["numerics.backward_ms"] = (ms("numerics.backward"), "ms")
    out["numerics.out_bytes"] = (count("numerics.out_bytes"), "bytes")
    for op in NUMERICS_OPS:
        out[f"numerics.{op}.calls"] = (calls(f"numerics.{op}"), "count")
        out[f"numerics.{op}.fwd_ms"] = (ms(f"numerics.{op}"), "ms")
        out[f"numerics.{op}.bwd_ms"] = (ms(f"numerics.{op}.bwd"), "ms")

    for name, extra in (("mrope.assign_position_ids", "ids"), ("mrope.apply_mrope", "rows")):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.ms"] = (ms(name), "ms")
        out[f"{name}.{extra}"] = (count(f"{name}.{extra}"), "count")
    ratio("mrope.ids_used_ratio", tr.counts["mrope.group_ids_used"],
          tr.counts["mrope.ids_built_for_probes"], "no run_niah_probe call in this workload")

    elements = ("sequence.TextSpan", "sequence.ImageBlock", "sequence.FrameGroup")
    out["sequence.elements_built"] = (sum(calls(e) for e in elements), "count")
    out["sequence.build_ms"] = (sum(ms(e) for e in elements + ("sequence.MultimodalSequence",)),
                                "ms")
    out["timeline.sample_frames.ms"] = (ms("timeline.sample_frames"), "ms")
    out["timeline.interleave_timestamps.calls"] = (calls("timeline.interleave_timestamps"), "count")
    out["timeline.interleave_timestamps.ms"] = (ms("timeline.interleave_timestamps"), "ms")
    out["timeline.format_timestamp.calls"] = (calls("timeline.format_timestamp"), "count")
    out["timeline.format_timestamp.distinct"] = (count("timeline.format_timestamp.distinct"),
                                                 "count")

    for name in ("harness.niah.build_niah_sequence", "harness.niah.run_niah_probe"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.ms"] = (ms(name), "ms")
    probes = tr.durations["harness.niah.run_niah_probe"]
    if probes:
        out["harness.niah.probe_p50_ms"] = (1e3 * statistics.median(probes), "ms")
    else:
        out["harness.niah.probe_p50_ms"] = (0.0, "ms")
        absent["harness.niah.probe_p50_ms"] = "no run_niah_probe call in this workload"
    probe_tail = tail(probes)
    out["harness.niah.probe_tail_ms"] = (1e3 * probe_tail[0] if probe_tail else 0.0, "ms")
    if probe_tail:
        notes["harness.niah.probe_tail_ms"] = {"percentile": probe_tail[1],
                                               "samples": probe_tail[2]}
    else:
        absent["harness.niah.probe_tail_ms"] = f"{len(probes)} probes, fewer than {MIN_TAIL_OPS}"
    out["harness.reports.emit_report.ms"] = (ms("harness.reports.emit_report"), "ms")
    out["harness.reports.emit_report.bytes"] = (count("harness.reports.emit_report.bytes"), "bytes")
    out["cli.main.ms"] = (ms("cli.main"), "ms")

    for short, name in (("prepare", "vision.prepare"), ("encoder", "vision.encoder"),
                        ("merge_2x2", "vision.merge_2x2"), ("decoder", "vision.decoder")):
        out[f"vision.{short}.calls"] = (calls(name), "count")
        out[f"vision.{short}.ms"] = (ms(name), "ms")
    out["vision.model_init_ms"] = (1e3 * setup_incl.get("vision.model_init", 0.0), "ms")
    out["harness.training.train_toy.ms"] = (ms("harness.training.train_toy"), "ms")
    out["harness.training.make_synthetic_batch.ms"] = (
        1e3 * setup_self.get("harness.training.make_synthetic_batch", 0.0), "ms")
    ratio("harness.training.grad_used_ratio", state.get("grad_applied", 0),
          state.get("grad_computed", 0), "no parameter gradients in this workload")
    out["objective.gradient_weights.ms"] = (ms("objective.gradient_weights"), "ms")
    out["objective.aggregate.calls"] = (calls("objective.aggregate"), "count")
    out["objective.aggregate.ms"] = (ms("objective.aggregate"), "ms")
    out["seeding.rng.inits"] = (float(setup_calls.get("seeding.rng", 0)), "count")
    out["seeding.rng.ms"] = (1e3 * setup_self.get("seeding.rng", 0.0), "ms")

    out["grounding.parse_grounding_json.calls"] = (calls("grounding.parse_grounding_json"), "count")
    out["grounding.parse_grounding_json.ms"] = (ms("grounding.parse_grounding_json"), "ms")
    out["grounding.parse_grounding_json.records"] = (
        count("grounding.parse_grounding_json.records"), "count")
    out["grounding.serialize_grounding_json.ms"] = (ms("grounding.serialize_grounding_json"), "ms")
    out["grounding.serialize_grounding_json.bytes"] = (
        count("grounding.serialize_grounding_json.bytes"), "bytes")
    out["grounding.iou.calls"] = (calls("grounding.iou"), "count")
    out["grounding.iou.ms"] = (ms("grounding.iou"), "ms")

    untraced_ms = 1e3 * statistics.fmean(untraced)
    traced_ms = 1e3 * statistics.fmean(traced_times)
    self_sum_ms = 1e3 * sum(tr.self_s.values()) / n
    notes["self_time_closure"] = {
        "gap_ms": self_sum_ms - untraced_ms,
        "within_overhead": abs(self_sum_ms - untraced_ms) <= abs(traced_ms - untraced_ms)}
    out["trace.untraced_op_ms"] = (untraced_ms, "ms")
    out["trace.traced_op_ms"] = (traced_ms, "ms")
    out["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    out["trace.self_sum_ms"] = (self_sum_ms, "ms")
    out["trace.hook_ms"] = (1e3 * tr.hook_s / n, "ms")
    out["trace.spans"] = (len(tr.spans) / n, "count")

    for metric, reason in tr.missing.items():
        absent[metric] = reason
    return out, absent, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (workloads.SRC / "vlmlab" / "__init__.py").is_file():
        print(f"bench: no vlmlab source under {workloads.SRC}", file=sys.stderr)
        return 2
    import vlmlab
    if Path(vlmlab.__file__).resolve().parent != workloads.SRC / "vlmlab":
        print(f"bench: vlmlab was imported from {vlmlab.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    try:
        if args.trace:
            loop, metrics, side, spans = traced(workload, args.seed, args.seconds)
        else:
            state = workload.setup(args.seed)
            spans = None
            loop, metrics, side = end_to_end(workload, state, args.seed, args.seconds)
    except NoOperations as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    result = {"correct": loop.failed == 0, "attempted": loop.steps, "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"meta": meta, "result": result, "side": side, "problems": loop.problems[:50]}
    if spans is not None:
        record["trace"] = spans
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    record_path = workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record), encoding="utf-8")

    for problem in loop.problems[:5]:
        print(f"bench: {problem}", file=sys.stderr)
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    shown = {k: v for k, v in side.items() if k != "op_ms"}
    print(f"# side {json.dumps(shown, sort_keys=True)}")
    print(f"# record {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
