import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vlmlab import numerics as N
from vlmlab.errors import ConfigError, ShapeError
from vlmlab.harness import make_synthetic_batch
from vlmlab.harness.training import _batch_loss
from vlmlab.mrope import assign_position_ids
from vlmlab.numerics import Tensor
from vlmlab.seeding import Rng
from vlmlab.sequence import TEXT, FrameGroup, ImageBlock, MultimodalSequence, TextSpan
from vlmlab.timeline import SamplingPolicy, interleave_timestamps, sample_frames
from vlmlab.vision import (Decoder, Merger, ModelConfig, PatchGrid, PreparedInput, VisionEncoder,
                           VisionLanguageModel, merge_2x2)


def small_config(**overrides) -> ModelConfig:
    base = dict(encoder_depth=3, decoder_depth=3, dim=4, llm_dim=8, head_dim=4,
                taps=(0, 1, 2), vocab=23)
    base.update(overrides)
    return ModelConfig(**base)


def random_grid(cfg: ModelConfig, gh: int, gw: int, seed=0) -> PatchGrid:
    return PatchGrid(gh, gw, cfg.dim, Tensor(Rng(seed).normal((gh * gw, cfg.dim))))


class TestTypes:
    def test_tapset_strictly_increasing(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            ModelConfig(taps=(2, 2, 3))

    def test_tapset_depth_check(self):
        with pytest.raises(ConfigError, match="out of range"):
            ModelConfig(encoder_depth=4, taps=(0, 1, 5))

    def test_default_taps_evenly_spaced(self):
        assert ModelConfig(encoder_depth=12).taps == (3, 6, 9)
        assert ModelConfig(encoder_depth=4).taps == (1, 2, 3)
        assert ModelConfig(encoder_depth=3).taps == (0, 1, 2)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_encoder_too_shallow_for_three_taps(self, depth):
        with pytest.raises(ConfigError, match="three strictly increasing"):
            ModelConfig(encoder_depth=depth)

    def test_patch_grid_row_count(self):
        with pytest.raises(ShapeError):
            PatchGrid(2, 2, 3, Tensor(np.ones((3, 3))))

    @pytest.mark.parametrize("gh,gw,dim,features,field", [
        (2.0, 4, 4, Tensor(np.ones((8, 4))), "gh"),
        (True, 8, 4, Tensor(np.ones((8, 4))), "gh"),
        (2, np.int64(4), 4, Tensor(np.ones((8, 4))), "gw"),
        (2, 4, 4.0, Tensor(np.ones((8, 4))), "dim"),
        (2, 4, 4, np.ones((8, 4)), "features"),
    ], ids=["gh-float", "gh-bool", "gw-numpy-int", "dim-float", "features-ndarray"])
    def test_patch_grid_field_types(self, gh, gw, dim, features, field):
        with pytest.raises(ConfigError, match=f"patch grid {field} must be"):
            PatchGrid(gh, gw, dim, features)

    def test_injection_plan_validation(self):
        ModelConfig(decoder_depth=3, inject_layers=(0, 1, 2))
        with pytest.raises(ConfigError, match="out of range"):
            ModelConfig(decoder_depth=2, inject_layers=(0, 1, 2))
        with pytest.raises(ConfigError, match="duplicate"):
            ModelConfig(decoder_depth=3, inject_layers=(0, 1, 1))

    @pytest.mark.parametrize("overrides,match", [
        ({"dim": 2.5}, "dim must be an integer"),
        ({"llm_dim": 16.0}, "llm_dim must be an integer"),
        ({"head_dim": 8.0}, "head_dim must be an integer"),
        ({"encoder_depth": True}, "encoder_depth must be an integer"),
        ({"vocab": "300"}, "vocab must be an integer"),
        ({"taps": (0, 1, 2.5)}, "taps must hold integers"),
        ({"taps": (0.0, 1, 2)}, "taps must hold integers"),
        ({"inject_layers": (0, 1.5, 2)}, "inject_layers must hold integers"),
        ({"inject_layers": (0, 1, 2.0)}, "inject_layers must hold integers"),
    ])
    def test_sizes_taps_and_inject_layers_are_integers(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            ModelConfig(**overrides)

    @pytest.mark.parametrize("overrides", [{"rope_scheme": "bogus"}, {"rope_base": 1.0},
                                           {"head_dim": 0}])
    def test_rotary_allocation_checked_at_config(self, overrides):
        with pytest.raises(ConfigError):
            ModelConfig(**overrides)

    def test_model_config_json_round_trip(self):
        cfg = small_config()
        again = ModelConfig.from_json(cfg.to_json())
        assert again.taps == cfg.taps and again.vocab == cfg.vocab


@st.composite
def model_configs(draw):
    encoder_depth = draw(st.integers(3, 12))
    decoder_depth = draw(st.integers(3, 6))
    taps = draw(st.none() | st.lists(st.integers(0, encoder_depth - 1), min_size=3,
                                     max_size=3, unique=True).map(lambda t: tuple(sorted(t))))
    return ModelConfig(
        encoder_depth=encoder_depth, decoder_depth=decoder_depth,
        dim=draw(st.integers(1, 64)), llm_dim=draw(st.integers(1, 64)),
        head_dim=2 * draw(st.integers(1, 32)), taps=taps,
        inject_layers=tuple(draw(st.lists(st.integers(0, decoder_depth - 1),
                                          min_size=3, max_size=3, unique=True))),
        vocab=draw(st.integers(1, 1000)),
        rope_base=draw(st.floats(1.0, 1e9, exclude_min=True)),
        rope_scheme=draw(st.sampled_from(["interleaved", "chunked"])),
        inject_after_layer=draw(st.booleans()))


@given(model_configs())
@example(ModelConfig(rope_scheme="chunked", rope_base=500.0, inject_after_layer=True))
def test_model_config_json_round_trip_is_lossless(cfg):
    assert ModelConfig.from_json(cfg.to_json()) == cfg


class TestInterpolate:
    def test_identity(self):
        table = N.parameter(Rng(1).normal((4, 4, 3)))
        np.testing.assert_array_equal(N.interpolate_bilinear(table, 4, 4).data, table.data)

    def test_midpoint(self):
        table = Tensor(np.asarray([[[2.0], [6.0]]]))
        out = N.interpolate_bilinear(table, 1, 3)
        np.testing.assert_allclose(out.data[0, :, 0], [2.0, 4.0, 6.0])

    def test_constant(self):
        out = N.interpolate_bilinear(Tensor(np.full((3, 2, 2), 1.5)), 7, 5)
        np.testing.assert_allclose(out.data, np.full((7, 5, 2), 1.5))


class TestEncoder:
    def test_tap_shapes(self):
        cfg = small_config()
        enc = VisionEncoder(cfg, Rng(0))
        _, taps = enc.forward(random_grid(cfg, 2, 4))
        assert [t.shape for t in taps] == [(8, 4)] * 3

    def test_zero_weights_make_taps_equal(self):
        # With all projections zeroed the residual path passes the input
        # through unchanged, so every tap sees the same hidden state.
        cfg = small_config()
        enc = VisionEncoder(cfg, Rng(0))
        for name, p in list(enc.params.items()):
            if name.endswith((".w", ".b")) or name == "pos_table":
                enc.params[name] = Tensor(np.zeros(p.shape))
        grid = random_grid(cfg, 2, 2, seed=3)
        _, taps = enc.forward(grid)
        for t in taps:
            np.testing.assert_array_equal(t.data, grid.features.data)

    def test_singleton_grid_attention(self):
        cfg = small_config()
        enc = VisionEncoder(cfg, Rng(0))
        _, taps = enc.forward(random_grid(cfg, 1, 1, seed=4))
        assert all(t.shape == (1, cfg.dim) for t in taps)

    def test_tap_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            small_config(taps=(0, 1, 3))

    def test_packed_grids_equal_single_calls(self):
        cfg = small_config()
        enc = VisionEncoder(cfg, Rng(0))
        grids = [random_grid(cfg, 2, 4, seed=s) for s in (5, 6, 7)]
        final, taps = enc.forward(*grids)
        for i, grid in enumerate(grids):
            one_final, one_taps = enc.forward(grid)
            rows = slice(8 * i, 8 * (i + 1))
            for packed, single in zip([final, *taps], [one_final, *one_taps]):
                np.testing.assert_allclose(packed.data[rows], single.data, rtol=1e-12, atol=1e-12)

    def test_single_grid_has_no_batch_axis(self):
        # One grid runs its attention at rank 2: no reshape into a batch.
        cfg = small_config()
        final, _ = VisionEncoder(cfg, Rng(0)).forward(random_grid(cfg, 2, 2))
        batched = [node._op for node in tape_nodes(final) if node.data.ndim == 3]
        assert sorted(batched) == ["interpolate_bilinear", "leaf"]  # the position table

    def test_batch_of_mixed_shapes_rejected(self):
        cfg = small_config()
        with pytest.raises(ShapeError, match="one encoder batch"):
            VisionEncoder(cfg, Rng(0)).forward(random_grid(cfg, 2, 2), random_grid(cfg, 2, 4))

    def test_no_grids_rejected(self):
        with pytest.raises(ShapeError, match="at least one grid"):
            VisionEncoder(small_config(), Rng(0)).forward()


def prepared_bytes(prepared: PreparedInput) -> list[bytes]:
    return [t.data.tobytes() for t in (prepared.embeddings, *prepared.deepstack)]


class TestEncoderMemo:
    """``VisionEncoder.forward`` returns the tensors of an earlier call with the
    same grids until a parameter object of the encoder changes."""

    def test_same_grids_return_the_same_tensors(self):
        cfg = small_config()
        enc = VisionEncoder(cfg, Rng(0))
        grids = [random_grid(cfg, 2, 4, seed=s) for s in (5, 6)]
        final, taps = enc.forward(*grids)
        again, again_taps = enc.forward(*grids)
        assert again is final
        assert all(a is b for a, b in zip(again_taps, taps, strict=True))
        # Equal shapes and equal values are not the same grid: the features
        # object is part of the key, and so is the shape.
        copy = PatchGrid(2, 4, cfg.dim, Tensor(grids[0].features.data))
        assert enc.forward(copy)[0] is not enc.forward(grids[0])[0]
        assert (enc.forward(copy)[0].data.tobytes()
                == enc.forward(grids[0])[0].data.tobytes())
        transposed = PatchGrid(4, 2, cfg.dim, grids[0].features)
        assert (enc.forward(transposed)[0].data.tobytes()
                != enc.forward(grids[0])[0].data.tobytes())

    def test_second_prepare_adds_no_encoder_nodes(self):
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(0))
        grid = random_grid(cfg, 2, 4, seed=5)
        first = prepared_multimodal(cfg, model, grid=grid)
        second = prepared_multimodal(cfg, model, grid=grid)
        seen = {id(node) for out in (first.embeddings, *first.deepstack)
                for node in tape_nodes(out)}
        new_ops = Counter(node._op for out in (second.embeddings, *second.deepstack)
                          for node in tape_nodes(out) if id(node) not in seen)
        # Only the text embedding, the four mergers and the sequence order run again.
        assert new_ops == {"linear": 4 * 2, "gelu": 4, "gather_rows": 1 + 4 + 1, "reshape": 4,
                           "concat_rows": 1}
        fresh = prepared_multimodal(cfg, VisionLanguageModel(cfg, Rng(0)), grid=grid)
        assert prepared_bytes(second) == prepared_bytes(first) == prepared_bytes(fresh)

    @pytest.mark.parametrize("write", ["set_parameter", "params"])
    def test_changed_parameter_gives_a_fresh_encoding(self, write):
        cfg = small_config()
        model, fresh = VisionLanguageModel(cfg, Rng(0)), VisionLanguageModel(cfg, Rng(0))
        grid = random_grid(cfg, 2, 4, seed=5)
        before = prepared_bytes(prepared_multimodal(cfg, model, grid=grid))
        for target in (model, fresh):
            value = Tensor(target.encoder.params["block1.q.w"].data * 3.0)
            if write == "set_parameter":
                target.set_parameter("encoder.block1.q.w", value)
            else:
                target.encoder.params["block1.q.w"] = value
        after = prepared_bytes(prepared_multimodal(cfg, model, grid=grid))
        assert after == prepared_bytes(prepared_multimodal(cfg, fresh, grid=grid))
        assert after != before


class TestMerge2x2:
    def test_minimal_grid(self):
        m = Merger(4, 8, Rng(0))
        out = merge_2x2(Tensor(Rng(1).normal((4, 4))), 2, 2, m)
        assert out.shape == (1, 8)

    def test_counting(self):
        m = Merger(4, 8, Rng(0))
        out = merge_2x2(Tensor(Rng(1).normal((24, 4))), 4, 6, m)
        assert out.shape == (6, 8)

    def test_odd_grid_rejected(self):
        m = Merger(4, 8, Rng(0))
        with pytest.raises(ShapeError, match="even"):
            merge_2x2(Tensor(np.ones((6, 4))), 3, 2, m)

    @pytest.mark.parametrize("gh", range(2, 17, 2))
    @pytest.mark.parametrize("gw", range(2, 17, 2))
    def test_output_count_exhaustive(self, gh, gw):
        m = Merger(2, 3, Rng(0))
        out = merge_2x2(Tensor(Rng(1).normal((gh * gw, 2))), gh, gw, m)
        assert out.shape[0] == gh * gw // 4

    def test_block_layout(self):
        # With fc1 the identity on the four corner channels, output block b
        # reflects rows (r00, r01, r10, r11) of block b.
        m = Merger(1, 4, Rng(0))
        m.params["fc1.w"] = Tensor(np.eye(4))
        m.params["fc1.b"] = Tensor(np.zeros(4))
        feats = Tensor(np.arange(8.0)[:, None])  # 4x2 grid of scalars
        # Block b's corners r00, r01, r10, r11 are rows 4b .. 4b+3.
        corners = np.arange(8.0).reshape(2, 4)
        out = merge_2x2(feats, 4, 2, m)
        w1, b1, w2, b2 = (m.params[name].data for name in ("fc1.w", "fc1.b", "fc2.w", "fc2.b"))
        pre = corners @ w1 + b1
        hidden = 0.5 * pre * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                            * (pre + 0.044715 * pre ** 3)))
        np.testing.assert_allclose(out.data, hidden @ w2 + b2)

    def test_packed_grids_equal_single_calls(self):
        m = Merger(3, 5, Rng(0))
        feats = [Tensor(Rng(s).normal((24, 3))) for s in (1, 2)]
        packed = merge_2x2(N.concat_rows(feats), 4, 6, m)
        singles = np.concatenate([merge_2x2(f, 4, 6, m).data for f in feats])
        np.testing.assert_allclose(packed.data, singles, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 4), (0, 4), (8, 3), (8,), (2, 4, 4)])
    def test_features_not_whole_grids_rejected(self, shape):
        m = Merger(4, 8, Rng(0))
        with pytest.raises(ShapeError, match="vs grid 2x2"):
            merge_2x2(Tensor(np.ones(shape)), 2, 2, m)


def tape_nodes(out: Tensor) -> list[Tensor]:
    """Every tensor ``out`` depends on, itself included."""
    seen, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _closure_arrays(value, found: dict, seen: set) -> None:
    """Collect into ``found`` every array reachable from ``value`` through
    closure cells, tuples and lists; tensors (their own nodes) are skipped."""
    if id(value) in seen or isinstance(value, Tensor):
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        found[id(value)] = value
    elif isinstance(value, (tuple, list)):
        for item in value:
            _closure_arrays(item, found, seen)
    elif callable(value):
        for cell in getattr(value, "__closure__", None) or ():
            _closure_arrays(cell.cell_contents, found, seen)


class TestDeepstackInject:
    def test_zero_injection_identity(self):
        hidden = Tensor(Rng(0).normal((6, 8)))
        out = N.add_rows_at(hidden, Tensor(np.zeros((2, 8))), [2, 5])
        assert out.data.tobytes() == hidden.data.tobytes()

    def test_ones_at_positions(self):
        hidden = Tensor(Rng(0).normal((6, 8)))
        out = N.add_rows_at(hidden, Tensor(np.ones((2, 8))), [2, 5])
        np.testing.assert_array_equal(out.data[[2, 5]], hidden.data[[2, 5]] + 1.0)
        untouched = [i for i in range(6) if i not in (2, 5)]
        np.testing.assert_array_equal(out.data[untouched], hidden.data[untouched])

    def test_empty_positions(self):
        hidden = Tensor(Rng(0).normal((4, 8)))
        out = N.add_rows_at(hidden, Tensor(np.zeros((0, 8))), [])
        np.testing.assert_array_equal(out.data, hidden.data)

    def test_out_of_range_position(self):
        with pytest.raises(ShapeError, match="out of range"):
            N.add_rows_at(Tensor(np.ones((4, 8))), Tensor(np.ones((1, 8))), [4])


def prepared_multimodal(cfg, model, seed=0, grid=None):
    seq = MultimodalSequence.of((TextSpan((1, 2)), ImageBlock(1, 2), TextSpan((3, 4, 5))))
    return model.prepare(seq, {1: grid or random_grid(cfg, 2, 4, seed=seed)})


class TestDecoder:
    def test_no_injection_baseline_shape(self):
        cfg = small_config()
        dec = Decoder(cfg, Rng(0))
        emb = Tensor(Rng(1).normal((5, cfg.llm_dim)))
        ids = [(i, i, i) for i in range(5)]
        logits = dec.forward(emb, ids)
        assert logits.shape == (5, cfg.vocab)

    def test_zero_injection_bit_identical(self):
        cfg = small_config()
        dec = Decoder(cfg, Rng(0))
        emb = Tensor(Rng(1).normal((5, cfg.llm_dim)))
        ids = [(i, i, i) for i in range(5)]
        base = dec.forward(emb, ids)
        zeros = Tensor(np.zeros((2, cfg.llm_dim)))
        injected = dec.forward(emb, ids, [zeros] * len(cfg.inject_layers), [1, 2])
        assert base.data.tobytes() == injected.data.tobytes()

    def test_context_length_neutrality(self):
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(0))
        prep = prepared_multimodal(cfg, model)
        with_ds = model.forward(prep)
        without = model.forward(dataclasses.replace(prep, deepstack=[]))
        assert with_ds.shape == without.shape == (prep.embeddings.shape[0], cfg.vocab)

    def test_deepstack_count_checked(self):
        cfg = small_config()
        dec = Decoder(cfg, Rng(0))
        emb = Tensor(Rng(1).normal((3, cfg.llm_dim)))
        ids = [(i, i, i) for i in range(3)]
        with pytest.raises(ShapeError, match="deepstack tensors"):
            dec.forward(emb, ids, [Tensor(np.zeros((1, cfg.llm_dim)))], [0])

    def test_causality(self):
        cfg = small_config()
        dec = Decoder(cfg, Rng(5))
        n = 6
        emb = Rng(6).normal((n, cfg.llm_dim))
        ids = [(i, i, i) for i in range(n)]
        base = dec.forward(Tensor(emb), ids).data
        for j in range(1, n):
            bumped = emb.copy()
            bumped[j] += Rng(100 + j).normal(cfg.llm_dim)
            out = dec.forward(Tensor(bumped), ids).data
            np.testing.assert_allclose(out[:j], base[:j], atol=1e-12)
            assert np.abs(out[j:] - base[j:]).max() > 0

    def test_attention_keeps_no_probabilities(self):
        """Over n = 150 tokens, three row blocks, no tape node outputs n * n
        elements, and no attention node's backward closure keeps an array of
        more than n * width elements: backward recomputes the probabilities
        instead of keeping them, so a score, mask or probability block
        fails here."""
        cfg = small_config()
        n = 150
        emb = N.parameter(Rng(7).normal((n, cfg.llm_dim)))
        ids = np.repeat(np.arange(n)[:, None], 3, axis=1)
        logits = Decoder(cfg, Rng(8)).forward(emb, ids)
        nodes = tape_nodes(N.sum_all(N.token_nll(logits, np.arange(n) % cfg.vocab)))
        assert max(node.data.size for node in nodes) < n * n
        layers = [node for node in nodes if node._op == "attention"]
        assert len(layers) == cfg.decoder_depth
        for node in layers:
            kept: dict[int, np.ndarray] = {}
            _closure_arrays(node._backward, kept, set())
            assert kept and max(a.size for a in kept.values()) <= n * cfg.head_dim

    def test_gradient_reaches_all_tap_mergers(self):
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(0))
        prep = prepared_multimodal(cfg, model, seed=2)
        logits = model.forward(prep)
        loss = N.sum_all(N.token_nll(logits, [0] * logits.shape[0]))
        loss.backward()
        for i, merger in enumerate(model.tap_mergers):
            grads = [merger.params[k].grad for k in ("fc1.w", "fc2.w")]
            assert all(g is not None and np.linalg.norm(g) > 0 for g in grads), f"tap {i}"

    def test_zeroed_mergers_match_no_deepstack_baseline(self):
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(3))
        for merger in model.tap_mergers:
            merger.params["fc2.w"] = Tensor(np.zeros((cfg.llm_dim, cfg.llm_dim)))
            merger.params["fc2.b"] = Tensor(np.zeros(cfg.llm_dim))
        prep = prepared_multimodal(cfg, model, seed=4)
        on = model.forward(prep)
        off = model.forward(dataclasses.replace(prep, deepstack=[]))
        assert on.data.tobytes() == off.data.tobytes()


# Elements 1, 4 and 5 share one patch-grid shape; element 3 has another.
MIXED = MultimodalSequence.of((TextSpan((1, 2)), ImageBlock(1, 2), TextSpan((3,)),
                               ImageBlock(2, 2), FrameGroup(0.0, 1.0, 1, 2), ImageBlock(1, 2),
                               TextSpan((4, 5))))


def mixed_grids(cfg):
    return {1: random_grid(cfg, 2, 4, seed=1), 3: random_grid(cfg, 4, 4, seed=2),
            4: random_grid(cfg, 2, 4, seed=3), 5: random_grid(cfg, 2, 4, seed=4)}


def per_element_reference(model, seq, grids):
    """``prepare`` built one element at a time, with single-grid passes."""
    embed, deepstack, positions, cursor = [], [[], [], []], [], 0
    for idx, element in enumerate(seq.elements):
        n = element.token_count()
        if isinstance(element, TextSpan):
            embed.append(N.gather_rows(model.decoder.params["embed"], element.token_ids))
        else:
            grid = grids[idx]
            final, taps = model.encoder.forward(grid)
            embed.append(merge_2x2(final, grid.gh, grid.gw, model.main_merger))
            for level, (state, merger) in enumerate(zip(taps, model.tap_mergers)):
                deepstack[level].append(merge_2x2(state, grid.gh, grid.gw, merger))
            positions.extend(range(cursor, cursor + n))
        cursor += n
    return PreparedInput(N.concat_rows(embed), assign_position_ids(seq), positions,
                         [N.concat_rows(parts) for parts in deepstack])


def summed_loss_grads(model, prepared):
    logits = model.forward(prepared)
    N.sum_all(N.token_nll(logits, [0] * logits.shape[0])).backward()
    return {name: p.grad for name, p in model.parameters().items()}


class TestPrepare:
    def test_mixed_shapes_equal_per_element_reference(self):
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(9))
        grids = mixed_grids(cfg)
        packed = model.prepare(MIXED, grids)
        packed_grads = summed_loss_grads(model, packed)
        reference = per_element_reference(model, MIXED, grids)
        reference_grads = summed_loss_grads(model, reference)

        assert packed.visual_positions == reference.visual_positions == [2, 3, *range(5, 13)]
        np.testing.assert_array_equal(packed.position_ids, reference.position_ids)
        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(packed.embeddings.data, reference.embeddings.data, **close)
        assert len(packed.deepstack) == len(reference.deepstack) == 3
        for got, want in zip(packed.deepstack, reference.deepstack):
            np.testing.assert_allclose(got.data, want.data, **close)
        assert sorted(packed_grads) == sorted(reference_grads)
        for name, grad in packed_grads.items():
            assert grad is not None, name
            np.testing.assert_allclose(grad, reference_grads[name], **close, err_msg=name)

    def test_one_encoder_pass_per_grid_shape(self, monkeypatch):
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(0))
        batches = []
        forward = model.encoder.forward
        monkeypatch.setattr(model.encoder, "forward",
                            lambda *grids: batches.append(grids) or forward(*grids))
        grids = mixed_grids(cfg)
        model.prepare(MIXED, grids)
        assert batches == [(grids[1], grids[4], grids[5]), (grids[3],)]

    @pytest.mark.parametrize("broken,error,match", [
        ("missing", ConfigError, "element 4 has no patch grid"),
        ("size", ShapeError, "element 4: patch grid 4x4 is not twice"),
        ("width", ShapeError, "grid width 3 vs encoder width 4"),
    ])
    def test_errors_inside_a_packed_batch(self, broken, error, match):
        # Element 4 sits in the middle of the packed batch of elements 1, 4, 5.
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(0))
        grids = mixed_grids(cfg)
        if broken == "missing":
            del grids[4]
        elif broken == "size":
            grids[4] = random_grid(cfg, 4, 4)
        else:
            grids[4] = PatchGrid(2, 4, 3, Tensor(np.ones((8, 3))))
        with pytest.raises(error, match=match):
            model.prepare(MIXED, grids)

    def test_unknown_element_rejected(self):
        # Element types are checked when the sequence is built, before prepare.
        with pytest.raises(TypeError, match="unknown element str"):
            MultimodalSequence.of((TextSpan((1,)), "image"))

    def test_timestamped_sequence_equals_element_form(self):
        cfg = small_config(vocab=256)  # timestamp text is byte tokens
        model = VisionLanguageModel(cfg, Rng(0))
        seq = interleave_timestamps([0.0, 0.5, 1.0, 1.5, 2.0], group_size=2, gh=1, gw=2)
        grids = {idx: random_grid(cfg, 2, 4, seed=idx) for idx in (1, 3, 5)}
        got = model.prepare(seq, grids)
        assert "elements" not in vars(seq)  # prepare reads the arrays only
        want = model.prepare(MultimodalSequence.of(seq.elements), grids)
        assert got.embeddings.data.tobytes() == want.embeddings.data.tobytes()
        assert len(got.deepstack) == len(want.deepstack) == 3
        for a, b in zip(got.deepstack, want.deepstack):
            assert a.data.tobytes() == b.data.tobytes()
        assert got.visual_positions == want.visual_positions
        np.testing.assert_array_equal(got.position_ids, want.position_ids)

    def test_empty_sequence_rejected(self):
        model = VisionLanguageModel(small_config(), Rng(0))
        with pytest.raises(ConfigError, match="empty sequence"):
            model.prepare(MultimodalSequence.of((TextSpan(()),)), {})

    def test_grid_must_be_twice_token_grid(self):
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(0))
        seq = MultimodalSequence.of((ImageBlock(2, 2),))
        with pytest.raises(ShapeError, match="twice"):
            model.prepare(seq, {0: random_grid(cfg, 2, 2)})

    @pytest.mark.parametrize("stray", [0, 2, 7, -1])
    def test_grid_of_no_visual_element_rejected(self, stray):
        # Elements 0 and 2 are text; 7 and -1 are outside the sequence.
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(0))
        seq = MultimodalSequence.of((TextSpan((1,)), ImageBlock(1, 2), TextSpan((2,))))
        grid = random_grid(cfg, 2, 4)
        with pytest.raises(ConfigError, match=f"element {stray} has a patch grid but is not"):
            model.prepare(seq, {1: grid, stray: grid})

    def test_missing_grid(self):
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(0))
        with pytest.raises(ConfigError, match="no patch grid"):
            model.prepare(MultimodalSequence.of((ImageBlock(1, 1),)), {})

    def test_frame_group_counts_as_visual(self):
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(0))
        seq = MultimodalSequence.of((TextSpan((1,)), FrameGroup(0.0, 0.5, 1, 1)))
        prep = model.prepare(seq, {1: random_grid(cfg, 2, 2)})
        assert prep.visual_positions == [1]
        assert len(prep.deepstack) == len(cfg.inject_layers)

    def test_parameters_are_component_prefixed(self):
        model = VisionLanguageModel(small_config(), Rng(0))
        components = {model.component_of(k) for k in model.parameters()}
        assert components == {"encoder", "merger", "decoder"}

    @pytest.mark.parametrize("name", ["encoder.bogus", "merger.tap7.fc1.w", "merger.tapX.fc1.w",
                                      "merger.foo", "decoder", "bogus.embed"])
    def test_set_parameter_rejects_an_unlisted_name(self, name):
        model = VisionLanguageModel(small_config(), Rng(0))
        before = dict(model.parameters())
        with pytest.raises(KeyError):
            model.set_parameter(name, Tensor(np.zeros(1)))
        assert model.parameters() == before

    def test_post_layer_injection_ablation(self):
        pre = VisionLanguageModel(small_config(), Rng(8))
        post = VisionLanguageModel(small_config(inject_after_layer=True), Rng(8))
        prep_pre = prepared_multimodal(small_config(), pre, seed=5)
        prep_post = prepared_multimodal(small_config(), post, seed=5)
        a = pre.forward(prep_pre)
        b = post.forward(prep_post)
        assert a.shape == b.shape
        assert a.data.tobytes() != b.data.tobytes()

    def test_model_config_schema_version_checked(self):
        cfg = small_config()
        raw = json.loads(cfg.to_json())
        assert raw["schema_version"] == 1
        raw["schema_version"] = 9
        with pytest.raises(ConfigError, match="schema_version"):
            ModelConfig.from_json(json.dumps(raw))


def tape_ops(root: Tensor) -> Counter:
    """How many nodes of each op the tape under ``root`` holds, leaves left out."""
    ops, seen, stack = Counter(), set(), [root]
    while stack:
        node = stack.pop()
        if node._parents and id(node) not in seen:
            seen.add(id(node))
            ops[node._op] += 1
            stack.extend(node._parents)
    return ops


def projections(cfg: ModelConfig, decoder_passes: int, encoder_passes: int) -> int:
    """q, k, v, o, mlp1 and mlp2 per block, the decoder's head, and fc1 and
    fc2 of each of an encoder pass's four mergers."""
    return (decoder_passes * (6 * cfg.decoder_depth + 1)
            + encoder_passes * (6 * cfg.encoder_depth + 4 * 2))


class TestTape:
    """Each projection is one ``linear`` node.  The other op kinds are the
    ones the model's tapes held when a projection was a matrix product node
    followed by a bias node."""

    OTHER_OPS = {"add", "scale", "sum", "token_nll", "gather_rows", "layer_norm", "gelu",
                 "attention", "rotate_pairs", "add_rows_at", "reshape", "interpolate_bilinear",
                 "concat_rows"}

    def check(self, loss, cfg, decoder_passes, encoder_passes, nodes):
        ops = tape_ops(loss)
        assert ops["linear"] == projections(cfg, decoder_passes, encoder_passes)
        assert set(ops) <= self.OTHER_OPS | {"linear"}
        assert sum(ops.values()) == nodes

    def test_s0_batch_loss(self):
        # Eight examples, every other one with an image: the train_s0 benchmark step.
        cfg, rng = ModelConfig(), Rng(0)
        model = VisionLanguageModel(cfg, rng.split("model"))
        batch = make_synthetic_batch(cfg, rng.split("data"), n_examples=8, text_len=12)
        loss, _ = _batch_loss(model, batch, "sqrt")
        self.check(loss, cfg, decoder_passes=8, encoder_passes=4, nodes=735)
        # A later step reaches the same number of nodes, the encoder's
        # remembered ones among them.
        again, _ = _batch_loss(model, batch, "sqrt")
        self.check(again, cfg, decoder_passes=8, encoder_passes=4, nodes=735)

    def test_long_video_forward_and_loss(self):
        # 32 timestamped groups of two frames, as in the long_video benchmark.
        cfg, rng = ModelConfig(), Rng(0)
        model = VisionLanguageModel(cfg, rng.split("model"))
        policy = SamplingPolicy(fps=1.0, max_frames=64, tokens_per_frame=4, token_budget=256,
                                group_size=2)
        seq = interleave_timestamps(sample_frames(64.0, 30.0, policy), group_size=2, gh=2, gw=2)
        kind, count, _, _ = seq.columns
        grids = {idx: random_grid(cfg, 4, 4, seed=idx)
                 for idx in np.flatnonzero(kind != TEXT).tolist()}
        # Next-token targets: every position whose successor is a text token.
        text = np.repeat(kind == TEXT, count)
        token_at = np.zeros(len(text), dtype=np.int64)
        token_at[text] = seq.tokens
        positions = np.flatnonzero(text[1:])
        logits = model.forward(model.prepare(seq, grids))
        loss = N.sum_all(N.token_nll(N.gather_rows(logits, positions), token_at[positions + 1]))
        self.check(loss, cfg, decoder_passes=1, encoder_passes=1, nodes=150)
