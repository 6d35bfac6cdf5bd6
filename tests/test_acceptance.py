"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance and runtime budget and prints a
single ``[criterion N] PASS`` line (visible with ``pytest -s``); a failing
assertion surfaces as the test's FAILED line instead.
"""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from vlmlab import mrope
from vlmlab import numerics as N
from vlmlab.grounding import (NormalizedBox, denormalize, iou, normalize, normalize_box,
                              parse_grounding_json, serialize_grounding_json)
from vlmlab.harness import (NiahConfig, build_niah_sequence, load_stage_config,
                            make_synthetic_batch, train_toy)
from vlmlab.harness.niah import run_niah_grid
from vlmlab.mrope import build_frequency_allocation, rotation_tables
from vlmlab.numerics import Tensor, rotate_pairs
from vlmlab.objective import aggregate
from vlmlab.seeding import Rng
from vlmlab.sequence import ImageBlock, MultimodalSequence, TextSpan
from vlmlab.timeline import (SamplingPolicy, detokenize, format_timestamp,
                             interleave_timestamps, parse_timestamp,
                             position_id_range_report, sample_frames, tokenize)
from vlmlab.vision import (Merger, ModelConfig, PatchGrid, VisionLanguageModel, _block_corners,
                           _merge)

from test_grounding import random_records


class _Stopwatch:
    def __init__(self, criterion: int, budget_s: float, description: str):
        self.criterion = criterion
        self.budget_s = budget_s
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.criterion} exceeded its {self.budget_s}s budget: {elapsed:.2f}s")
            print(f"[criterion {self.criterion:2d}] PASS ({elapsed:6.2f}s) {self.description}")
        return False


def test_criterion_1_relative_shift_invariance():
    with _Stopwatch(1, 5.0, "rotary relative-shift invariance < 1e-9"):
        worst = 0.0
        for head_dim in (6, 12, 24):
            alloc = build_frequency_allocation(head_dim)
            rng = Rng(101).split(head_dim)
            for trial in range(1000):
                r = rng.split(trial)
                q = Tensor(r.split("q").normal((1, head_dim)))
                k = Tensor(r.split("k").normal((1, head_dim)))
                pq, pk, shift = (r.split(tag).integers(0, 4096, 3) for tag in ("pq", "pk", "c"))
                base = float(rotate_pairs(q, *rotation_tables([pq], alloc)).data[0]
                             @ rotate_pairs(k, *rotation_tables([pk], alloc)).data[0])
                moved = float(rotate_pairs(q, *rotation_tables([pq + shift], alloc)).data[0]
                              @ rotate_pairs(k, *rotation_tables([pk + shift], alloc)).data[0])
                worst = max(worst, abs(base - moved))
        assert worst < 1e-9, f"max deviation {worst}"


def test_criterion_2_interleaved_spectrum_balance():
    with _Stopwatch(2, 1.0, "interleaved balance; chunked span contrast"):
        for half in range(3, 65):
            alloc = build_frequency_allocation(2 * half)
            report = mrope.spectrum_report(alloc)
            for axis in "thw":
                assert report[axis]["max_gap"] <= 3, (half, axis)
                assert mrope.spans_spectrum_ends(alloc, axis), (half, axis)
        # Contrast: the chunked baseline misses one end for some axis.  At
        # half == 3 chunked and interleaved coincide (one pair per axis),
        # so the contrast is asserted where chunks are wider than a pair.
        for half in range(4, 65):
            chunked = build_frequency_allocation(2 * half, scheme="chunked")
            assert not all(mrope.spans_spectrum_ends(chunked, axis) for axis in "thw"), half


def test_criterion_3_deepstack_zero_injection_equivalence():
    with _Stopwatch(3, 10.0, "zero-injection bit-equality on 16 seeded configs"):
        rng = Rng(303)
        for case in range(16):
            r = rng.split(case)
            dims = r.split("dims")
            cfg = ModelConfig(
                encoder_depth=int(dims.integers(3, 6)),
                decoder_depth=int(dims.integers(3, 5)),
                dim=2 * int(dims.integers(2, 4)),
                llm_dim=2 * int(dims.integers(4, 7)),
                head_dim=2 * int(dims.integers(2, 5)),
                taps=(0, 1, 2),
                vocab=int(dims.integers(16, 64)),
            )
            model = VisionLanguageModel(cfg, r.split("model"))
            # Force every deepstack merger's output to zero.
            for merger in model.tap_mergers:
                merger.params["fc2.w"] = Tensor(np.zeros((cfg.llm_dim, cfg.llm_dim)))
                merger.params["fc2.b"] = Tensor(np.zeros(cfg.llm_dim))
            eh, ew = int(dims.integers(1, 3)), int(dims.integers(1, 3))
            seq = MultimodalSequence.of((TextSpan((1, 2, 3)), ImageBlock(eh, ew),
                                         TextSpan((4, 5))))
            grid = PatchGrid(2 * eh, 2 * ew, cfg.dim,
                             Tensor(r.split("feat").normal((4 * eh * ew, cfg.dim))))
            prepared = model.prepare(seq, {1: grid})
            with_ds = model.forward(prepared)
            without = model.forward(dataclasses.replace(prepared, deepstack=[]))
            assert with_ds.data.tobytes() == without.data.tobytes(), case
            # Context-length neutrality on every test input.
            assert with_ds.shape[0] == without.shape[0] == seq.token_count()


def test_criterion_4_gradient_checks():
    with _Stopwatch(4, 30.0, "finite-difference checks < 1e-5; live tap mergers"):
        tol, h = 1e-5, 1e-5
        # layer_norm
        weight = Tensor(Rng(41).normal((3, 6)))
        err = N.grad_check(
            lambda x: N.sum_all(N.mul(N.layer_norm(x, Tensor(Rng(42).normal(6)),
                                                   Tensor(Rng(43).normal(6))), weight)),
            Tensor(Rng(44).normal((3, 6))), h=h)
        assert err < tol, f"layer_norm {err}"
        # softmax cross-entropy
        err = N.grad_check(lambda x: N.sum_all(N.token_nll(x, [2, 0, 5])),
                           Tensor(Rng(45).normal((3, 8))), h=h)
        assert err < tol, f"softmax-xent {err}"
        # merger MLP, wrt its input features and its first-layer weight
        merger = Merger(4, 8, Rng(46))
        probe = Tensor(Rng(47).normal((4, 8)))
        corners = _block_corners([(4, 4)])
        err = N.grad_check(lambda x: N.sum_all(N.mul(_merge(x, corners, merger, None), probe)),
                           Tensor(Rng(48).normal((16, 4))), h=h)
        assert err < tol, f"merger input {err}"
        feats = Tensor(Rng(49).normal((4, 4)))

        def merger_weight_loss(w):
            merger.params["fc1.w"] = w
            return N.sum_all(_merge(feats, _block_corners([(2, 2)]), merger, None))

        err = N.grad_check(merger_weight_loss, merger.params["fc1.w"], h=h)
        assert err < tol, f"merger weight {err}"
        # one full toy decoder step, wrt the input embeddings
        cfg = ModelConfig(encoder_depth=3, decoder_depth=3, dim=4, llm_dim=8,
                          head_dim=4, taps=(0, 1, 2), vocab=16)
        model = VisionLanguageModel(cfg, Rng(50))
        ids = [(i, i, i) for i in range(4)]
        targets = [3, 1, 4, 1]

        def decoder_loss(emb):
            return N.sum_all(N.token_nll(model.decoder.forward(emb, ids), targets))

        err = N.grad_check(decoder_loss, Tensor(Rng(51).normal((4, cfg.llm_dim))), h=h)
        assert err < tol, f"decoder step {err}"
        # non-zero gradient norm at all three tap mergers, whether they add
        # onto a decoder layer's input or, under the ablation, its output
        seq = MultimodalSequence.of((TextSpan((1, 2)), ImageBlock(1, 2), TextSpan((3,))))
        grid = PatchGrid(2, 4, cfg.dim, Tensor(Rng(52).normal((8, cfg.dim))))
        for after in (False, True):
            model = VisionLanguageModel(dataclasses.replace(cfg, inject_after_layer=after),
                                        Rng(50))
            prepared = model.prepare(seq, {1: grid})
            logits = model.forward(prepared)
            N.sum_all(N.token_nll(logits, [0] * logits.shape[0])).backward()
            for i, merger in enumerate(model.tap_mergers):
                for key in ("fc1.w", "fc1.b", "fc2.w", "fc2.b"):
                    grad = merger.params[key].grad
                    assert grad is not None and np.linalg.norm(grad) > 0, (after, i, key)


def test_criterion_5_objective_module():
    with _Stopwatch(5, 5.0, "scheme values exact; comonotone sandwich x1000"):
        losses, counts = np.array([0.0, 1.0, 1.0, 1.0, 1.0]), [1, 4]
        assert aggregate(losses, counts, "per_sample") == 0.5
        assert aggregate(losses, counts, "per_token") == 0.8
        assert aggregate(losses, counts, "sqrt") == pytest.approx(2.0 / 3.0, abs=1e-15)
        rng = Rng(505)
        for trial in range(100):
            loss = float(rng.split(f"c{trial}").uniform((), 0.0, 3.0))
            counts = [1, 2, 5, 11]
            for scheme in ("per_sample", "per_token", "sqrt"):
                assert aggregate(np.full(sum(counts), loss), counts, scheme) == pytest.approx(
                    loss, abs=1e-12)
        for trial in range(1000):
            r = rng.split(trial)
            n = int(r.split("n").integers(2, 7))
            counts = sorted(int(c) for c in r.split("c").integers(1, 48, n))
            means = sorted(float(m) for m in r.split("m").uniform(n, 0.0, 4.0))
            comon = np.repeat(means, counts)
            lo, mid, hi = (aggregate(comon, counts, s) for s in ("per_sample", "sqrt", "per_token"))
            assert lo <= mid + 1e-12 <= hi + 2e-12, trial


def test_criterion_6_timestamp_conformance():
    with _Stopwatch(6, 5.0, "timestamp formats; tokenizer round trips x10k"):
        assert format_timestamp(3.0, "seconds") == "<3.0 seconds>"
        rng = Rng(606)
        for trial in range(500):
            t = float(rng.split(f"h{trial}").uniform((), 0.0, 10 ** 6))
            assert parse_timestamp(format_timestamp(t, "hms")) == float(int(t))
        for trial in range(10000):
            r = rng.split(trial)
            n = int(r.split("len").integers(0, 32))
            s = "".join(chr(int(c)) for c in r.split("chars").integers(1, 0x500, n))
            assert detokenize(tokenize(s)) == s


def test_criterion_7_sampling_caps_and_sparsity():
    with _Stopwatch(7, 1.0, "2048-frame cap; textual gap 1 vs absolute ~20"):
        policy = SamplingPolicy(fps=2.0, max_frames=2048, tokens_per_frame=1,
                                token_budget=10 ** 9)
        frames = sample_frames(3600.0, 30.0, policy)
        assert len(frames) == 2048
        assert all(0 <= t < 3600.0 for t in frames)
        assert frames.tolist() == [k * 3600.0 / 2048 for k in range(2048)]

        two_hours = [2.0 * k for k in range(3600)]
        seq = interleave_timestamps(two_hours, group_size=1)
        textual = position_id_range_report(seq, "textual_timestamp")
        group_ts = mrope.frame_group_ids(seq)[:, 0].tolist()
        assert all(b - a == 1 for a, b in zip(group_ts, group_ts[1:]))
        assert textual["sparsity"] == 1.0
        absolute = position_id_range_report(seq, "absolute_time", granularity=0.1)
        assert absolute["max_t"] == 71980
        assert absolute["count_t_distinct"] == 3600
        assert absolute["sparsity"] == pytest.approx(20.0, abs=0.01)


def test_criterion_8_grounding():
    with _Stopwatch(8, 10.0, "coordinate bounds; parse/serialize identity x10k"):
        for w, h in ((1, 1), (640, 480), (31, 8192)):
            box = normalize_box(0, 0, w, h, w, h)
            assert (box.x1, box.y1, box.x2, box.y2) == (0, 0, 1000, 1000)
        for dim in range(1, 65):
            for v in range(dim + 1):
                assert abs(denormalize(normalize(v, dim), dim) - v) <= dim / 2000 + 1e-9
        rng = Rng(808)
        for kind, count in (("point", 4000), ("box2d", 3000), ("box3d", 3000)):
            records = random_records(kind, rng.split(kind), count)
            text = serialize_grounding_json(records)
            assert parse_grounding_json(text, kind) == records
        a = NormalizedBox(0, 0, 10, 10)
        b = NormalizedBox(5, 5, 15, 15)
        assert iou(a, b) == pytest.approx(float(Fraction(25, 175)), abs=1e-15)


def test_criterion_9_niah_toy_heatmap():
    with _Stopwatch(9, 60.0, "orthogonal needle: 1.0 in all 4x9 cells to 4096 groups"):
        cfg = NiahConfig(seed=909, trials=3)
        assert len(cfg.durations_min) == 4 and len(cfg.needle_depths) == 9
        alloc = build_frequency_allocation(cfg.signature_dim)
        # Confirm the grid really reaches 4096 groups at the longest duration.
        longest, _, _ = build_niah_sequence(cfg, cfg.durations_min[-1] * 60.0, 0.5)
        assert len(longest.start_times) == 4096
        grid = run_niah_grid(cfg, alloc)
        for row in grid:
            for acc in row:
                assert acc == 1.0, grid


def test_criterion_10_stage_schema():
    with _Stopwatch(10, 30.0, "stage table values; S0 leaves encoder+decoder intact"):
        expected = {"S0": 8192, "S1": 8192, "S2": 32768, "S3": 262144}
        for name, seq_len in expected.items():
            assert load_stage_config(name).sequence_length == seq_len
        assert load_stage_config("S0").trainable == frozenset({"merger"})

        cfg = ModelConfig(encoder_depth=3, decoder_depth=3, dim=4, llm_dim=8,
                          head_dim=4, taps=(0, 1, 2), vocab=32)
        model = VisionLanguageModel(cfg, Rng(1010))
        before = {k: v.data.tobytes() for k, v in model.parameters().items()}
        batch = make_synthetic_batch(cfg, Rng(1011), n_examples=4, text_len=6)
        result = train_toy(model, load_stage_config("S0"), batch, steps=5, lr=0.3)
        after = {k: v.data.tobytes() for k, v in model.parameters().items()}
        for name in before:
            if name.startswith(("encoder.", "decoder.")):
                assert before[name] == after[name], name
        assert any(before[n] != after[n] for n in before if n.startswith("merger."))
        assert result.losses[-1] <= result.losses[0]
