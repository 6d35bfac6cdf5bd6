"""The four closed-loop workloads of the vlmlab benchmark.

Each workload is one client in one process: the next operation starts only
after the previous one has returned and been checked.  A workload builds its
inputs from the seed alone, through the library's own constructors, and
calls into the library only through module attributes at call time, so the
traced run can interpose on them.

Every workload provides:

* ``setup(seed)`` - import vlmlab and build the config, model and inputs;
  this is what ``setup_s`` times in a fresh interpreter.
* ``items(state)`` - the items one operation completes.
* ``before(state)`` - untimed preparation of the check (optional).
* ``op(state)`` - one timed operation.
* ``observe(state, out)`` - the values compared with the stored oracle.
* ``invariants(state, out)`` - checks that hold for any seed; returns a
  list of problems.

This module imports nothing from vlmlab at import time, so that a setup
probe can time the library import itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# One client, one process, no extra threads: BLAS runs single-threaded.  Set
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REL_TOL = 1e-12


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _nll(logits, targets):
    """Per-row negative log-likelihood recomputed with plain numpy."""
    import numpy as np

    m = logits.max(axis=1)
    lse = np.log(np.exp(logits - m[:, None]).sum(axis=1)) + m
    return lse - logits[np.arange(len(targets)), targets]


class Workload:
    repeats = True  # every operation gives the same output

    def before(self, state):
        pass


class NiahGrid(Workload):
    name = "niah_grid"
    why = ("vlmlab niah CLI, one probe per default duration (1-68 min, 4,096-frame cap): "
           "bound by per-token position ids and per-group dataclasses, barely touches the tape")
    # The default grid (9 depths, 3 trials) takes 5-8 s, too long an
    # operation to time steadily on a shared machine.
    depths = (0.5,)
    trials = 1

    def setup(self, seed):
        from vlmlab import cli  # noqa: F401  (the operation's entry point)
        from vlmlab.harness import NiahConfig

        cfg = NiahConfig(seed=seed, needle_depths=self.depths, trials=self.trials)
        OUT.mkdir(parents=True, exist_ok=True)
        config = OUT / f"niah_grid-config-seed{seed}.json"
        config.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        return {"seed": seed, "cfg": cfg, "config": str(config)}

    def items(self, state):
        from vlmlab import timeline

        cfg = state["cfg"]
        policy = timeline.SamplingPolicy(fps=1.0, max_frames=cfg.num_frames, tokens_per_frame=1,
                                         token_budget=cfg.num_frames, group_size=1)
        per_grid_row = []
        for minutes in cfg.durations_min:
            frames = timeline.sample_frames(minutes * 60.0, 30.0, policy)
            per_grid_row.append(timeline.interleave_timestamps(frames, group_size=1).token_count())
        return sum(per_grid_row) * len(cfg.needle_depths) * cfg.trials

    def op(self, state):
        from vlmlab import cli

        out_dir = tempfile.mkdtemp(prefix="niah-", dir=OUT)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["niah", "--config", state["config"], "--seed", str(state["seed"]),
                                 "--out", out_dir])
            report = Path(out_dir, "niah.json").read_bytes()
            table = Path(out_dir, "niah.csv").read_bytes()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return code, report, table

    def observe(self, state, out):
        _, report, table = out
        return {"json_sha256": _sha256(report), "csv_sha256": _sha256(table)}

    def invariants(self, state, out):
        code, report, table = out
        cfg = state["cfg"]
        problems = []
        if code != 0:
            problems.append(f"cli exit code {code}")
        doc = json.loads(report)
        cells = doc.get("cells", [])
        expected = len(cfg.durations_min) * len(cfg.needle_depths)
        if len(cells) != expected:
            problems.append(f"{len(cells)} report cells, expected {expected}")
        if any(c.get("accuracy") != 1.0 or c.get("trials") != cfg.trials for c in cells):
            problems.append("a report cell has accuracy below 1.0 or wrong trials")
        if doc.get("config", {}).get("seed") != state["seed"]:
            problems.append("report config does not carry the run seed")
        rows = table.decode("utf-8").splitlines()
        if rows[:1] != ["duration,depth,accuracy"] or len(rows) != expected + 1:
            problems.append("csv header or row count is wrong")
        csv_cells = [tuple(float(v) for v in r.split(",")) for r in rows[1:]]
        json_cells = [(c["duration"], c["depth"], c["accuracy"]) for c in cells]
        if csv_cells != json_cells:
            problems.append("csv and json reports disagree")
        return problems


def _component_grad_norms(model):
    import numpy as np

    sums = {}
    for name, param in model.parameters().items():
        if param.grad is not None:
            comp = model.component_of(name)
            sums[comp] = sums.get(comp, 0.0) + float(np.sum(param.grad * param.grad))
    return {comp: math.sqrt(total) for comp, total in sorted(sums.items())}


class TrainS0(Workload):
    name = "train_s0"
    why = ("one S0 train_toy step on 8 tiny examples (~15 tokens): tape overhead on many "
           "small tensors, encoder/decoder gradients computed then discarded")
    repeats = False  # the model trains, so each step has its own loss
    lr = 0.1

    def setup(self, seed):
        from vlmlab.harness import load_stage_config, make_synthetic_batch
        from vlmlab.seeding import Rng
        from vlmlab.vision import ModelConfig, VisionLanguageModel

        rng = Rng(seed)
        cfg = ModelConfig()
        model = VisionLanguageModel(cfg, rng.split("model"))
        batch = make_synthetic_batch(cfg, rng.split("data"), n_examples=8, text_len=12)
        return {"seed": seed, "model": model, "batch": batch, "stage": load_stage_config("S0"),
                "grad_applied": 0, "grad_computed": 0}

    def items(self, state):
        return sum(example.sequence.token_count() for example in state["batch"])

    def before(self, state):
        """Recompute the coming step's loss from the model's logits with numpy."""
        import numpy as np

        model = state["model"]
        means, counts = [], []
        for example in state["batch"]:
            logits = model.forward(model.prepare(example.sequence, example.grids)).data
            picked = logits[np.asarray(example.target_positions)]
            nll = _nll(picked, np.asarray(example.target_ids))
            means.append(float(nll.mean()))
            counts.append(len(nll))
        weights = [n ** 0.5 for n in counts]
        state["expected_loss"] = sum(w * m for w, m in zip(weights, means)) / sum(weights)
        state["params_before"] = model.parameters()

    def op(self, state):
        from vlmlab.harness import training

        return training.train_toy(state["model"], state["stage"], state["batch"],
                                  steps=1, lr=self.lr)

    def observe(self, state, out):
        return {"loss": out.losses[0]}

    def invariants(self, state, out):
        problems = []
        if len(out.losses) != 1 or not math.isfinite(out.losses[0]):
            return [f"losses {out.losses} are not one finite value"]
        if not _close(out.losses[0], state["expected_loss"]):
            problems.append(f"loss {out.losses[0]!r} != numpy recomputation "
                            f"{state['expected_loss']!r}")
        # Gradient elements computed versus applied by the update.
        after = state["model"].parameters()
        for name, param in state["params_before"].items():
            if param.grad is None:
                continue
            state["grad_computed"] += param.grad.size
            if after[name] is not param:
                state["grad_applied"] += param.grad.size
            elif state["model"].component_of(name) in state["stage"].trainable:
                problems.append(f"trainable parameter {name} was not updated")
        return problems


class LongVideo(Workload):
    name = "long_video"
    why = ("prepare+forward+backward over a 32-group timestamped timeline (571 tokens): "
           "a few large O(N^2) attention arrays instead of many tiny ones, apply_mrope on q and k")
    # 32 groups of two frames; at 128 groups (2,377 tokens) one operation
    # takes about 1.6 s, too long to time steadily on a shared machine.
    duration_s = 64.0
    group_size = 2

    def setup(self, seed):
        from vlmlab import timeline
        from vlmlab.numerics import Tensor
        from vlmlab.seeding import Rng
        from vlmlab.sequence import TextSpan
        from vlmlab.vision import ModelConfig, PatchGrid, VisionLanguageModel

        rng = Rng(seed)
        cfg = ModelConfig()
        model = VisionLanguageModel(cfg, rng.split("model"))
        frames_wanted = int(self.duration_s)
        policy = timeline.SamplingPolicy(fps=1.0, max_frames=frames_wanted, tokens_per_frame=4,
                                         token_budget=4 * frames_wanted, group_size=self.group_size)
        frames = timeline.sample_frames(self.duration_s, 30.0, policy)
        seq = timeline.interleave_timestamps(frames, group_size=self.group_size, gh=2, gw=2)
        patches = rng.split("patches")
        grids, token_ids = {}, []
        for index, element in enumerate(seq.elements):
            if isinstance(element, TextSpan):
                token_ids.extend(element.token_ids)
            else:
                features = patches.split(index).normal((16, cfg.dim))
                grids[index] = PatchGrid(4, 4, cfg.dim, Tensor(features))
                token_ids.extend([None] * element.token_count())
        # Next-token targets: every position whose successor is a text token.
        positions = [i for i in range(len(token_ids) - 1) if token_ids[i + 1] is not None]
        targets = [token_ids[i + 1] for i in positions]
        return {"seed": seed, "model": model, "seq": seq, "grids": grids,
                "positions": positions, "targets": targets}

    def items(self, state):
        return state["seq"].token_count()

    def op(self, state):
        from vlmlab import numerics

        model = state["model"]
        prepared = model.prepare(state["seq"], state["grids"])
        logits = model.forward(prepared)
        picked = numerics.gather_rows(logits, state["positions"])
        loss = numerics.sum_all(numerics.token_nll(picked, state["targets"]))
        loss.backward()
        return loss.item(), logits.data

    def observe(self, state, out):
        return {"loss": out[0], "grad_norms": _component_grad_norms(state["model"])}

    def invariants(self, state, out):
        import numpy as np

        loss, logits = out
        problems = []
        recomputed = float(_nll(logits[np.asarray(state["positions"])],
                                np.asarray(state["targets"])).sum())
        if not _close(loss, recomputed):
            problems.append(f"loss {loss!r} != numpy recomputation {recomputed!r}")
        norms = _component_grad_norms(state["model"])
        if sorted(norms) != ["decoder", "encoder", "merger"]:
            problems.append(f"gradients reached only {sorted(norms)}")
        if not all(math.isfinite(v) and v > 0 for v in norms.values()):
            problems.append(f"gradient norms {norms} are not finite and positive")
        return problems


class GroundIO(Workload):
    name = "ground_io"
    why = ("parse -> serialize -> re-parse of 2,000-record box2d, point and box3d documents "
           "plus IoU of neighbouring boxes: the only workload that reaches grounding")
    records_per_kind = 2000
    # kind -> (coordinate key, label prefix)
    kinds = {"box2d": ("bbox_2d", "box"), "point": ("point_2d", "point"), "box3d": ("bbox_3d", "cube")}

    def setup(self, seed):
        from vlmlab import grounding  # noqa: F401  (the operation's library)

        gen = random.Random(seed)
        n = self.records_per_kind
        boxes, points, boxes3d = [], [], []
        for i in range(n):
            x1, y1 = gen.randint(0, 990), gen.randint(0, 990)
            x2, y2 = gen.randint(x1, 1000), gen.randint(y1, 1000)
            boxes.append([x1, y1, x2, y2])
            points.append([gen.randint(0, 1000), gen.randint(0, 1000)])
            box3d = [round(gen.uniform(-50, 50), 3) for _ in range(3)]
            box3d += [round(gen.uniform(0, 10), 3) for _ in range(3)]
            box3d += [round(gen.uniform(-math.pi, math.pi), 4) for _ in range(3)]
            if i % 5 == 0:
                box3d[3] = float(gen.randint(1, 9))  # integral floats print as ints
            boxes3d.append(box3d)

        expected = {"box2d": boxes, "point": points, "box3d": boxes3d}
        docs = {}
        for kind, (key, label) in self.kinds.items():
            entries = []
            for i, coords in enumerate(expected[kind]):
                if kind != "box3d" and i % 7 == 0:
                    coords = [float(c) for c in coords]  # integral floats are accepted
                entries.append({"label": f"{label}_{i}", key: coords})
            docs[kind] = json.dumps(entries, separators=(",", ":"))
        return {"seed": seed, "docs": docs, "expected": expected}

    def items(self, state):
        return sum(len(rows) for rows in state["expected"].values())

    def op(self, state):
        from vlmlab import grounding

        out = {}
        for kind, text in state["docs"].items():
            records = grounding.parse_grounding_json(text, kind)
            canonical = grounding.serialize_grounding_json(records)
            out[kind] = (records, canonical, grounding.parse_grounding_json(canonical, kind))
        boxes = out["box2d"][0]
        ious = [grounding.iou(a, b) for a, b in zip(boxes, boxes[1:])]
        return out, ious

    def observe(self, state, out):
        return {kind: _sha256(canonical.encode("utf-8"))
                for kind, (_, canonical, _) in sorted(out[0].items())}

    def invariants(self, state, out):
        by_kind, ious = out
        problems = []
        for kind, (records, canonical, reparsed) in by_kind.items():
            if reparsed != records:
                problems.append(f"{kind}: parse(serialize(x)) != x")
            key, label = self.kinds[kind]
            expected = [{key: coords, "label": f"{label}_{i}"}
                        for i, coords in enumerate(state["expected"][kind])]
            if json.loads(canonical) != expected:
                problems.append(f"{kind}: canonical output does not hold the input records")
        boxes = state["expected"]["box2d"]
        for j, (a, b) in enumerate(zip(boxes, boxes[1:])):
            ix = max(0, min(a[2], b[2]) - max(a[0], b[0]))
            iy = max(0, min(a[3], b[3]) - max(a[1], b[1]))
            union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - ix * iy
            want = ix * iy / union if union else 0.0
            if abs(ious[j] - want) > REL_TOL:
                problems.append(f"iou of boxes {j},{j + 1} is {ious[j]!r}, expected {want!r}")
                break
        if len(ious) != len(boxes) - 1:
            problems.append(f"{len(ious)} IoU values for {len(boxes)} boxes")
        return problems


WORKLOADS = {w.name: w for w in (NiahGrid(), TrainS0(), LongVideo(), GroundIO())}


def compare(observed, reference, path="") -> list[str]:
    """Differences between an observation and its oracle entry.

    Strings must match exactly; numbers within ``REL_TOL`` relative.
    """
    if isinstance(reference, dict):
        if not isinstance(observed, dict) or sorted(observed) != sorted(reference):
            return [f"{path or 'observation'}: keys differ from the oracle"]
        return [p for key in reference for p in compare(observed[key], reference[key], f"{path}.{key}")]
    if isinstance(reference, float):
        return [] if _close(float(observed), reference) else [f"{path}: {observed!r} != oracle {reference!r}"]
    return [] if observed == reference else [f"{path}: {observed!r} != oracle {reference!r}"]
