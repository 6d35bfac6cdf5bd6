import dataclasses
import functools
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vlmlab import numerics as N
from vlmlab import objective, vision
from vlmlab.errors import ConfigError, ShapeError
from vlmlab.harness import load_stage_config, make_synthetic_batch, train_toy
from vlmlab.harness.training import batch_loss
from vlmlab.mrope import assign_position_ids
from vlmlab.numerics import Tensor
from vlmlab.seeding import Rng
from vlmlab.sequence import TEXT, FrameGroup, ImageBlock, MultimodalSequence, TextSpan
from vlmlab.timeline import SamplingPolicy, interleave_timestamps, sample_frames
from vlmlab.vision import (Decoder, Merger, ModelConfig, PatchGrid, PreparedInput, VisionEncoder,
                           VisionLanguageModel, plan_batch)


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

    @pytest.mark.parametrize("gh,gw", [(0, 2), (2, 0)])
    def test_patch_grid_at_least_1x1(self, gh, gw):
        with pytest.raises(ConfigError, match=f"patch grid must be at least 1x1, got {gh}x{gw}"):
            PatchGrid(gh, gw, 4, Tensor(np.ones((0, 4))))

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

    @pytest.mark.parametrize("gh,gw", [(2, 4), (4, 2), (1, 3)])
    def test_rotary_ids_are_zero_row_column(self, monkeypatch, gh, gw):
        """Each patch's rotary ids are (0, its row, its column), row-major over
        a non-square grid and again for each grid of a batch."""
        cfg = small_config()
        seen = []
        tables = vision.rotation_tables
        monkeypatch.setattr(vision, "rotation_tables",
                            lambda ids, alloc: seen.append(np.asarray(ids).tolist())
                            or tables(ids, alloc))
        VisionEncoder(cfg, Rng(0)).forward(random_grid(cfg, gh, gw, seed=1),
                                           random_grid(cfg, gh, gw, seed=2))
        assert seen == [[[0, r, c] for r in range(gh) for c in range(gw)] * 2]

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
        new = {id(node): node._op for out in (second.embeddings, *second.deepstack)
               for node in tape_nodes(out) if id(node) not in seen}
        new_ops = Counter(new.values())
        # Only the text embedding, the stack of encoder states, the four
        # mergers and the sequence order run again.
        assert new_ops == {"linear": 4 * 2, "gelu": 4, "gather_rows": 1 + 4 + 1, "reshape": 4,
                           "concat_rows": 1 + 1}
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


def explicit_corners(sides):
    """The rows of each 2x2 block's top-left, top-right, bottom-left and
    bottom-right patch, for row-major grids of ``sides`` one after another,
    block by block with explicit loops."""
    rows, start = [], 0
    for gh, gw in sides:
        for r in range(0, gh, 2):
            for c in range(0, gw, 2):
                top = start + r * gw + c
                rows.append([top, top + 1, top + gw, top + gw + 1])
        start += gh * gw
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def merged_blocks(features, sides, merger, segments=None):
    """``merger`` over each 2x2 block's patches of ``features`` side by side,
    the blocks laid out by ``explicit_corners``."""
    corners = explicit_corners(sides)
    blocks = N.gather_rows(features, corners.reshape(-1))
    return merger.forward(N.reshape(blocks, (len(corners), 4 * merger.dim)), segments)


class TestMerge2x2:
    """The merge ``prepare_planned`` runs, ``_merge`` over the block rows of
    ``_block_corners``, against blocks laid out by explicit loops."""

    def test_minimal_grid(self):
        corners = vision._block_corners([(2, 2)])
        assert corners.tolist() == [[0, 1, 2, 3]]
        out = vision._merge(Tensor(Rng(1).normal((4, 4))), corners, Merger(4, 8, Rng(0)), None)
        assert out.shape == (1, 8)

    def test_counting(self):
        assert vision._block_corners([(4, 6)]).tolist() == [
            [0, 1, 6, 7], [2, 3, 8, 9], [4, 5, 10, 11],
            [12, 13, 18, 19], [14, 15, 20, 21], [16, 17, 22, 23]]

    @pytest.mark.parametrize("gh", range(2, 17, 2))
    @pytest.mark.parametrize("gw", range(2, 17, 2))
    def test_output_count_exhaustive(self, gh, gw):
        corners = vision._block_corners([(gh, gw)])
        assert corners.shape == (gh * gw // 4, 4)
        assert corners.tolist() == explicit_corners([(gh, gw)]).tolist()

    def test_block_layout(self):
        # With fc1 the identity on the four corner channels, output block b
        # reflects rows (r00, r01, r10, r11) of block b.
        m = Merger(1, 4, Rng(0))
        m.params["fc1.w"] = Tensor(np.eye(4))
        m.params["fc1.b"] = Tensor(np.zeros(4))
        feats = Tensor(np.arange(8.0)[:, None])  # 4x2 grid of scalars
        # Block b's corners r00, r01, r10, r11 are rows 4b .. 4b+3.
        corners = np.arange(8.0).reshape(2, 4)
        out = vision._merge(feats, vision._block_corners([(4, 2)]), m, None)
        w1, b1, w2, b2 = (m.params[name].data for name in ("fc1.w", "fc1.b", "fc2.w", "fc2.b"))
        pre = corners @ w1 + b1
        hidden = 0.5 * pre * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                            * (pre + 0.044715 * pre ** 3)))
        np.testing.assert_allclose(out.data, hidden @ w2 + b2)

    def test_packed_grids_equal_single_calls(self):
        m = Merger(3, 5, Rng(0))
        feats = [Tensor(Rng(s).normal((24, 3))) for s in (1, 2)]
        corners = vision._block_corners([(4, 6)] * 2)
        assert corners.tolist() == explicit_corners([(4, 6)] * 2).tolist()
        packed = vision._merge(N.concat_rows(feats), corners, m, None)
        singles = np.concatenate([merged_blocks(f, [(4, 6)], m).data for f in feats])
        np.testing.assert_allclose(packed.data, singles, rtol=1e-12, atol=1e-12)

    def test_mixed_sides_equal_single_calls(self):
        """Grids of several shapes in one call, one run per grid, give the
        bytes of one call per grid."""
        m = Merger(3, 5, Rng(0))
        sides = [(2, 4), (4, 2), (2, 2), (4, 6)]
        feats = [Tensor(Rng(s).normal((gh * gw, 3))) for s, (gh, gw) in enumerate(sides)]
        corners = vision._block_corners(sides)
        assert corners.tolist() == explicit_corners(sides).tolist()
        packed = vision._merge(N.concat_rows(feats), corners, m,
                               [gh * gw // 4 for gh, gw in sides])
        singles = [merged_blocks(f, [side], m).data for f, side in zip(feats, sides)]
        assert packed.data.tobytes() == np.concatenate(singles).tobytes()

    # The merge takes whole grids of even sides on trust; they are checked
    # where grids are made and planned, once.
    def test_odd_grid_rejected(self):
        seq = MultimodalSequence.of((ImageBlock(1, 1),))
        with pytest.raises(ShapeError, match="patch grid 3x2 is not twice the token grid 1x1"):
            plan_batch([(seq, {0: random_grid(small_config(), 3, 2)})])

    @pytest.mark.parametrize("sides", [[(2, 4), (3, 2)], [(0, 2)], [(2, -2)]])
    def test_every_grid_must_have_even_sides(self, sides):
        """``plan_batch`` refuses an odd side in any grid of a sample, and
        ``PatchGrid`` a side below 1."""
        with pytest.raises((ShapeError, ConfigError), match="element 1: patch grid 3x2 is not "
                                                            "twice|patch grid must be at least"):
            grids = {i: PatchGrid(gh, gw, 4, Tensor(np.ones((abs(gh * gw), 4))))
                     for i, (gh, gw) in enumerate(sides)}
            plan_batch([(MultimodalSequence.of([ImageBlock(1, 2)] * len(sides)), grids)])

    @pytest.mark.parametrize("shape", [(6, 4), (0, 4), (8, 3), (8,), (2, 4, 4), (8, 4)])
    def test_features_not_whole_grids_rejected(self, shape):
        with pytest.raises(ShapeError, match=r"features \S.* vs grid 2x2 width 4"):
            PatchGrid(2, 2, 4, Tensor(np.ones(shape)))


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
        for after in (False, True):  # onto each layer's input, then its output
            cfg = small_config(inject_after_layer=after)
            dec = Decoder(cfg, Rng(0))
            emb = Tensor(Rng(1).normal((5, cfg.llm_dim)))
            ids = [(i, i, i) for i in range(5)]
            base = dec.forward(emb, ids)
            zeros = Tensor(np.zeros((2, cfg.llm_dim)))
            injected = dec.forward(emb, ids, [zeros] * len(cfg.inject_layers), [1, 2])
            assert base.data.tobytes() == injected.data.tobytes(), after
            assert tape_ops(injected)["add_rows_at"] == len(cfg.inject_layers), after

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

    @pytest.mark.parametrize("width,tokens,match", [
        (5, 3, "embedding width 5 vs 8"),
        (8, 2, "3 position ids for 2 tokens"),
    ])
    def test_embedding_shape_checked(self, width, tokens, match):
        dec = Decoder(small_config(), Rng(0))
        with pytest.raises(ShapeError, match=match):
            dec.forward(Tensor(np.ones((tokens, width))), [(i, i, i) for i in range(3)])

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

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_each_tap_level_reaches_its_inject_layer_at_visual_rows(self, monkeypatch, level):
        """Against all tap mergers zeroed, keeping only ``level``'s leaves the
        inputs of the layers before ``inject_layers[level]`` as they were and
        moves that layer's input at the visual rows alone, in a packed batch
        of two samples whose second starts at row 5."""
        cfg = small_config(inject_layers=(2, 0, 1))
        model = VisionLanguageModel(cfg, Rng(3))
        samples = [
            (MultimodalSequence.of((TextSpan((1, 2)), ImageBlock(1, 2), TextSpan((3,)))),
             {1: random_grid(cfg, 2, 4, seed=1)}),
            (MultimodalSequence.of((TextSpan((4, 5, 6)), ImageBlock(1, 2), TextSpan((7, 8)))),
             {1: random_grid(cfg, 2, 4, seed=2)}),
        ]
        inputs = {}
        block_forward = vision._block_forward

        def recording(params, prefix, x, rotation, causal, *args, **kwargs):
            if causal:  # a decoder block
                inputs[prefix] = x.data
            return block_forward(params, prefix, x, rotation, causal, *args, **kwargs)

        monkeypatch.setattr(vision, "_block_forward", recording)
        trained = [dict(merger.params) for merger in model.tap_mergers]

        def layer_inputs(kept):
            for i, merger in enumerate(model.tap_mergers):
                merger.params.update(trained[i])
                if i != kept:
                    merger.params["fc2.w"] = Tensor(np.zeros((cfg.llm_dim, cfg.llm_dim)))
                    merger.params["fc2.b"] = Tensor(np.zeros(cfg.llm_dim))
            inputs.clear()
            model.forward(model.prepare_planned(plan_batch(samples)))
            return dict(inputs)

        base, moved = layer_inputs(None), layer_inputs(level)
        target = cfg.inject_layers[level]
        for layer in range(target + 1):
            changed = (moved[f"block{layer}"] != base[f"block{layer}"]).any(axis=1)
            assert np.flatnonzero(changed).tolist() == ([2, 3, 8, 9] if layer == target
                                                        else []), layer

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


def long_timeline(cfg: ModelConfig):
    """The long_video benchmark's input: 32 timestamped groups of two frames
    (571 tokens), random 4x4 patch grids, and the next-token loss rows, every
    row whose successor is a text token."""
    policy = SamplingPolicy(fps=1.0, max_frames=64, tokens_per_frame=4, token_budget=256,
                            group_size=2)
    seq = interleave_timestamps(sample_frames(64.0, 30.0, policy), group_size=2, gh=2, gw=2)
    kind, count, _, _ = seq.columns
    grids = {idx: random_grid(cfg, 4, 4, seed=idx)
             for idx in np.flatnonzero(kind != TEXT).tolist()}
    return seq, grids, np.flatnonzero(np.repeat(kind == TEXT, count)[1:])


class TestLossRows:
    """``forward(prepared, rows)`` runs ``ln_f`` and the head on the loss
    rows only, one sample at a time."""

    def test_s0_batch_is_bit_identical_to_the_full_logits(self):
        """On the train_s0 batch, whose samples hold 11 to 13 loss rows each,
        the loss rows' logits are the full logits' rows, and every
        parameter's gradient of the weighted loss is the one taken through
        the full logits, bit for bit."""
        cfg, rng = ModelConfig(), Rng(0)
        model = VisionLanguageModel(cfg, rng.split("model"))
        batch = make_synthetic_batch(cfg, rng.split("data"), n_examples=8, text_len=12)
        prepared = model.prepare_planned(batch.inputs)
        full = model.forward(prepared)
        rows = model.forward(prepared, (batch.rows, batch.counts))
        assert rows.data.tobytes() == full.data[batch.rows].tobytes()

        def gradients(logits):
            nll = N.token_nll(logits, batch.targets)
            weights = objective.gradient_weights(batch.counts, "sqrt")
            N.weighted_run_sum(nll, batch.counts, weights).backward()
            grads = {name: param.grad for name, param in model.parameters().items()}
            for param in model.parameters().values():
                param.grad = None
            return grads

        want = gradients(N.gather_rows(full, batch.rows))
        got = gradients(rows)
        assert got.keys() == want.keys()
        for name, grad in got.items():
            assert grad.tobytes() == want[name].tobytes(), name

    def test_one_row_and_a_long_timeline_agree_to_1e_12(self):
        """A sample with one loss row takes a matrix-vector product, and the
        442 loss rows of a 571-row timeline a product of another shape than
        all rows take, so either may round otherwise: each logit agrees with
        the full logits' to 1e-12 of the row's largest magnitude."""
        cfg, rng = ModelConfig(), Rng(0)
        model = VisionLanguageModel(cfg, rng.split("model"))
        example = make_synthetic_batch(cfg, rng.split("data"), n_examples=1, text_len=12)[0]
        seq, grids, positions = long_timeline(cfg)
        for prepared, rows in (
                *((model.prepare(example.sequence, example.grids), [row]) for row in range(14)),
                (model.prepare(seq, grids), positions)):
            rows = np.asarray(rows)
            want = model.forward(prepared).data[rows]
            got = model.forward(prepared, (rows, N.Segments([len(rows)]))).data
            assert got.shape == want.shape
            assert (np.abs(got - want).max(axis=1)
                    <= 1e-12 * np.abs(want).max(axis=1)).all(), len(rows)


def decoder_loss(n: int, **overrides) -> Tensor:
    """The summed next-token loss of a small decoder over ``n`` random rows."""
    cfg = small_config(**overrides)
    emb = N.parameter(Rng(7).normal((n, cfg.llm_dim)))
    ids = np.repeat(np.arange(n)[:, None], 3, axis=1)
    logits = Decoder(cfg, Rng(8)).forward(emb, ids)
    return N.sum_all(N.token_nll(logits, np.arange(n) % cfg.vocab))


def backward_peak(loss: Tensor) -> int:
    """Bytes ``loss.backward()`` holds at its traced peak."""
    tracemalloc.start()
    try:
        loss.backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBackwardMemory:
    """Backward keeps only what it still needs: a computed tensor's gradient
    is dropped once passed on, and ``token_nll`` recomputes its probabilities."""

    def test_only_leaves_keep_gradients(self):
        loss = decoder_loss(150)
        loss.backward()
        nodes = tape_nodes(loss)
        assert all(node.grad is None for node in nodes if node._parents)
        leaves = [node for node in nodes if not node._parents and node.requires_grad]
        assert leaves and all(node.grad is not None for node in leaves)

    def test_peak_linear_in_rows_and_flat_in_depth(self):
        """Twice the rows take under about twice the memory, and four times
        the layers barely more: only the parameter gradients add up.  Kept
        intermediate gradients would grow the peak with every layer."""
        n = 256
        base = backward_peak(decoder_loss(n))
        assert backward_peak(decoder_loss(2 * n)) < 2.1 * base
        assert backward_peak(decoder_loss(n, decoder_depth=12)) < 1.5 * base

    def test_token_nll_keeps_no_probabilities(self):
        n, vocab = 40, 23
        logits = N.parameter(Rng(9).normal((n, vocab)))
        node = N.token_nll(logits, np.arange(n) % vocab)
        kept: dict[int, np.ndarray] = {}
        _closure_arrays(node._backward, kept, set())
        assert kept and max(a.size for a in kept.values()) <= n


# Elements 1, 4 and 5 share one patch-grid shape; element 3 has another, so
# elements 1, 3 and the run 4-5 make three encoder passes.
MIXED = MultimodalSequence.of((TextSpan((1, 2)), ImageBlock(1, 2), TextSpan((3,)),
                               ImageBlock(2, 2), FrameGroup(0.0, 1.0, 1, 2), ImageBlock(1, 2),
                               TextSpan((4, 5))))


def mixed_grids(cfg):
    return {1: random_grid(cfg, 2, 4, seed=1), 3: random_grid(cfg, 4, 4, seed=2),
            4: random_grid(cfg, 2, 4, seed=3), 5: random_grid(cfg, 2, 4, seed=4)}


def per_element_reference(model, seq, grids):
    """``prepare`` built one element at a time, with single-grid passes and
    2x2 blocks laid out by explicit loops."""
    embed, deepstack, positions, cursor = [], [[], [], []], [], 0
    for idx, element in enumerate(seq.elements):
        n = element.token_count()
        if isinstance(element, TextSpan):
            embed.append(N.gather_rows(model.decoder.params["embed"], element.token_ids))
        else:
            grid = grids[idx]
            final, taps = model.encoder.forward(grid)
            embed.append(merged_blocks(final, [(grid.gh, grid.gw)], model.main_merger))
            for level, (state, merger) in enumerate(zip(taps, model.tap_mergers)):
                deepstack[level].append(merged_blocks(state, [(grid.gh, grid.gw)], merger))
            positions.extend(range(cursor, cursor + n))
        cursor += n
    return PreparedInput(N.concat_rows(embed), assign_position_ids(seq), np.asarray(positions),
                         [N.concat_rows(parts) for parts in deepstack], (cursor,))


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

        assert packed.visual_positions.dtype == np.int64
        assert (packed.visual_positions.tolist() == reference.visual_positions.tolist()
                == [2, 3, *range(5, 13)])
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

    def test_packed_samples_run_as_their_own_passes(self):
        """A batch's segments are its samples' rows; its logits are each
        sample's own logits, byte for byte, one after another."""
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(9))
        samples = [(MIXED, mixed_grids(cfg)),
                   (MultimodalSequence.of((TextSpan((3, 1, 4)),)), {}),
                   (MultimodalSequence.of((TextSpan((1, 2)), ImageBlock(1, 2),
                                           TextSpan((3, 4, 5)))), {1: random_grid(cfg, 2, 4, 6)})]
        packed = model.prepare_planned(plan_batch(samples))
        assert [model.prepare(*sample).segments for sample in samples] == [(15,), (3,), (7,)]
        assert packed.segments == (15, 3, 7)
        assert packed.visual_positions.tolist() == [2, 3, *range(5, 13), 20, 21]
        logits = model.forward(packed).data
        for sample, start in zip(samples, (0, 15, 18)):
            alone = model.forward(model.prepare(*sample)).data
            assert logits[start:start + len(alone)].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("names", [
        ("mixed", "text", "visual", "two_of_one_shape", "shapes_reversed"),
        ("shapes_reversed", "mixed"),
        ("visual", "another_visual"),
        ("text", "two_of_one_shape", "text"),
        ("visual",),
        ("visual", "visual_again"),
        ("mixed", "text", "mixed", "visual_again", "visual"),
    ])
    def test_batch_equals_single_sample_prepares(self, names):
        """Each sample's rows of a batch's embeddings, ids, visual positions
        and DeepStack levels are, byte for byte, those of its own prepare,
        and the parameter gradients those of one pass per sample with the
        losses added in order.  "mixed" meets its grid shapes 2x4 then 4x4,
        "shapes_reversed" 4x4 then 2x4.  "visual_again" holds the 4x4 grid
        object of "visual", and a name listed twice is one sample twice:
        samples that share a grid share its encoder memo entry, whose
        gradient terms the batch still adds sample after sample."""
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(5))
        visual_grid = random_grid(cfg, 4, 4, 7)
        catalogue = {
            "mixed": (MIXED, mixed_grids(cfg)),
            "text": (MultimodalSequence.of((TextSpan((3, 1, 4)),)), {}),
            "visual": (MultimodalSequence.of((ImageBlock(2, 2),)), {0: visual_grid}),
            "another_visual": (MultimodalSequence.of((ImageBlock(2, 2),)),
                               {0: random_grid(cfg, 4, 4, 12)}),
            "visual_again": (MultimodalSequence.of((TextSpan((5, 2)), ImageBlock(2, 2))),
                             {1: visual_grid}),
            "two_of_one_shape": (
                MultimodalSequence.of((ImageBlock(1, 2), TextSpan((6,)), ImageBlock(1, 2))),
                {0: random_grid(cfg, 2, 4, 8), 2: random_grid(cfg, 2, 4, 9)}),
            "shapes_reversed": (
                MultimodalSequence.of((TextSpan((7, 8)), ImageBlock(2, 2), TextSpan((9,)),
                                       FrameGroup(0.0, 1.0, 1, 2))),
                {1: random_grid(cfg, 4, 4, 10), 3: random_grid(cfg, 2, 4, 11)}),
        }
        samples = [catalogue[name] for name in names]
        batch = model.prepare_planned(plan_batch(samples))
        singles = [model.prepare(*sample) for sample in samples]
        assert batch.segments == tuple(single.segments[0] for single in singles)
        starts = np.cumsum([0, *batch.segments])
        firsts = np.cumsum([0, *(len(single.visual_positions) for single in singles)])
        assert len(batch.deepstack) == (3 if firsts[-1] else 0)
        for single, start, end, first, last in zip(singles, starts, starts[1:], firsts,
                                                   firsts[1:]):
            assert batch.embeddings.data[start:end].tobytes() == single.embeddings.data.tobytes()
            assert batch.position_ids[start:end].tobytes() == single.position_ids.tobytes()
            assert (batch.visual_positions[first:last] - start).tolist() == \
                single.visual_positions.tolist()
            for level, alone in zip(batch.deepstack, single.deepstack):
                assert level.data[first:last].tobytes() == alone.data.tobytes()

        def targets(rows, salt):
            return (np.arange(rows) * 7 + salt) % cfg.vocab

        def gradients(loss):
            loss.backward()
            grads = {name: param.grad for name, param in model.parameters().items()}
            for param in model.parameters().values():
                param.grad = None
            return grads

        logits = model.forward(batch)
        batch_grads = gradients(N.sum_all(N.token_nll(logits, np.concatenate(
            [targets(rows, salt) for salt, rows in enumerate(batch.segments)]))))
        losses = [N.sum_all(N.token_nll(model.forward(model.prepare(*sample)),
                                        targets(rows, salt)))
                  for salt, (sample, rows) in enumerate(zip(samples, batch.segments))]
        loop_grads = gradients(functools.reduce(N.add, losses))
        assert batch_grads.keys() == loop_grads.keys()
        for name, grad in batch_grads.items():
            want = loop_grads[name]
            assert (grad is None) == (want is None), name
            assert grad is None or grad.tobytes() == want.tobytes(), name

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError, match="cannot prepare an empty batch"):
            plan_batch([])

    def test_one_encoder_pass_per_run_of_grid_shape(self, monkeypatch):
        """Consecutive grids of one shape make one encoder pass, so every
        level comes out in element order: each DeepStack level is its tap
        merger's output itself, with no gather to reorder its rows."""
        cfg = small_config()
        model = VisionLanguageModel(cfg, Rng(0))
        batches = []
        forward = model.encoder.forward
        monkeypatch.setattr(model.encoder, "forward",
                            lambda *grids: batches.append(grids) or forward(*grids))
        grids = mixed_grids(cfg)
        prepared = model.prepare(MIXED, grids)
        assert batches == [(grids[1],), (grids[3],), (grids[4], grids[5])]
        for level, merger in zip(prepared.deepstack, model.tap_mergers):
            assert level._op == "linear"
            assert merger.params["fc2.w"] in level._parents

    @pytest.mark.parametrize("broken,error,match", [
        ("missing", ConfigError, "element 4 has no patch grid"),
        ("size", ShapeError, "element 4: patch grid 4x4 is not twice"),
        ("width", ShapeError, "grid width 3 vs encoder width 4"),
    ])
    def test_errors_inside_a_packed_batch(self, broken, error, match):
        # Element 4 sits in the middle of the sample, opening the run of
        # elements 4 and 5 that makes one encoder pass.
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
        assert got.visual_positions.tolist() == want.visual_positions.tolist()
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
        assert prep.visual_positions.tolist() == [1]
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

    def test_model_config_json_must_be_an_object(self):
        with pytest.raises(ConfigError, match="model config must be a JSON object"):
            ModelConfig.from_json("[1]")

    def test_model_config_schema_version_checked(self):
        cfg = small_config()
        raw = json.loads(cfg.to_json())
        assert raw["schema_version"] == 1
        raw["schema_version"] = 9
        with pytest.raises(ConfigError, match="schema_version"):
            ModelConfig.from_json(json.dumps(raw))


def tensors_under(*roots: Tensor) -> list[Tensor]:
    """Every tensor the tapes under ``roots`` hold, leaves included, once each."""
    found, seen, stack = [], set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            found.append(node)
            stack.extend(node._parents)
    return found


def tape_ops(root: Tensor) -> Counter:
    """How many nodes of each op the tape under ``root`` holds, leaves left out."""
    return Counter(node._op for node in tensors_under(root) if node._parents)


def projections(cfg: ModelConfig, decoder_passes: int, encoder_passes: int,
                merger_passes: int) -> int:
    """q, k, v, o, mlp1 and mlp2 per block, the decoder's head, and fc1 and
    fc2 of each of the four mergers."""
    return (decoder_passes * (6 * cfg.decoder_depth + 1)
            + encoder_passes * 6 * cfg.encoder_depth + merger_passes * 4 * 2)


class TestTape:
    """Each projection is one ``linear`` node.  The other op kinds are the
    ones the model's tapes held when a projection was a matrix product node
    followed by a bias node, and the loss's ``weighted_run_sum``."""

    OTHER_OPS = {"add", "sum", "weighted_run_sum", "token_nll", "gather_rows", "layer_norm",
                 "gelu", "attention", "rotate_pairs", "add_rows_at", "reshape",
                 "interpolate_bilinear", "concat_rows"}

    def check(self, loss, cfg, decoder_passes, encoder_passes, nodes):
        ops = tape_ops(loss)
        assert ops["linear"] == projections(cfg, decoder_passes, encoder_passes, 1)
        assert set(ops) <= self.OTHER_OPS | {"linear"}
        assert sum(ops.values()) == nodes

    def test_s0_batch_loss(self):
        # Eight examples, every other one with an image: the train_s0 benchmark
        # step.  The batch is prepared as one input: each image example's
        # grid makes its own encoder pass, and each merger and the decoder
        # run once over the batch, gathering its blocks from one stack of
        # every pass's states; one node takes the weighted loss.
        cfg, rng = ModelConfig(), Rng(0)
        model = VisionLanguageModel(cfg, rng.split("model"))
        batch = make_synthetic_batch(cfg, rng.split("data"), n_examples=8, text_len=12)
        loss, _ = batch_loss(model, batch, "sqrt")
        self.check(loss, cfg, decoder_passes=1, encoder_passes=4, nodes=310)
        assert tape_ops(loss)["token_nll"] == tape_ops(loss)["weighted_run_sum"] == 1
        # A later step reaches the same number of nodes, the encoder's
        # remembered ones among them, from the batch's kept plan.
        again, _ = batch_loss(model, batch, "sqrt")
        self.check(again, cfg, decoder_passes=1, encoder_passes=4, nodes=310)
        # After an S0 step only the mergers require a gradient, so backward
        # walks 80 of the tape's 448 tensors, leaves included, and no
        # encoder node.
        train_toy(model, load_stage_config("S0"), batch, steps=1, lr=0.1)
        pruned, _ = batch_loss(model, batch, "sqrt")
        self.check(pruned, cfg, decoder_passes=1, encoder_passes=4, nodes=310)
        reached = tensors_under(pruned)
        assert (len(reached), sum(t.requires_grad for t in reached)) == (448, 80)
        encoded = [model.encoder.forward(*example.grids.values())
                   for example in batch if example.grids]
        assert len(encoded) == 4
        assert {id(final) for final, _ in encoded} <= {id(t) for t in reached}
        assert not any(t.requires_grad for final, taps in encoded
                       for t in tensors_under(final, *taps))

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
        self.check(loss, cfg, decoder_passes=1, encoder_passes=1, nodes=151)
