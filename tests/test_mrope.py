import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlmlab import mrope
from vlmlab.errors import ConfigError, ShapeError
from vlmlab.mrope import (assign_position_ids, build_frequency_allocation, rotation_tables,
                          spans_spectrum_ends, spectrum_report)
from vlmlab.numerics import Tensor, rotate_pairs
from vlmlab.seeding import Rng
from vlmlab.sequence import FrameGroup, ImageBlock, MultimodalSequence, TextSpan


def _ids(seq):
    return [tuple(row) for row in assign_position_ids(seq).tolist()]


class TestAssignPositionIds:
    def test_text_only_matches_1d_rope(self):
        seq = MultimodalSequence.of((TextSpan(tuple(range(5))),))
        ids = _ids(seq)
        assert ids == [(i, i, i) for i in range(5)]

    def test_text_then_image(self):
        seq = MultimodalSequence.of((TextSpan((7, 8, 9)), ImageBlock(2, 2), TextSpan((1,))))
        ids = _ids(seq)
        image_ids = ids[3:7]
        assert all(t == 3 for t, _, _ in image_ids)
        assert {(h, w) for _, h, w in image_ids} == {(3, 3), (3, 4), (4, 3), (4, 4)}
        assert ids[7] == (5, 5, 5)

    def test_two_frame_groups_no_text(self):
        seq = MultimodalSequence.of((FrameGroup(0, 0, 1, 1), FrameGroup(1, 1, 1, 1)))
        assert _ids(seq) == [(0, 0, 0), (1, 1, 1)]

    def test_empty_sequence(self):
        assert _ids(MultimodalSequence.of(())) == []

    def test_group_t_ids_consecutive_across_timestamp_text(self):
        elements = []
        for k in range(6):
            elements.append(TextSpan(tuple(range(10))))  # stand-in timestamp text
            elements.append(FrameGroup(float(k), float(k), 1, 1))
        seq = MultimodalSequence.of(tuple(elements))
        group_ts = mrope.frame_group_ids(seq)[:, 0].tolist()
        assert group_ts == list(range(group_ts[0], group_ts[0] + 6))

    def test_wide_image_advances_by_max_side(self):
        seq = MultimodalSequence.of((ImageBlock(1, 4), TextSpan((0,))))
        ids = _ids(seq)
        assert ids[-1] == (4, 4, 4)


def reference_position_ids(seq: MultimodalSequence) -> list[tuple[int, int, int]]:
    """The per-token loop that defines the position-id layout."""
    ids = []
    nxt = 0
    group_t = None
    for element in seq.elements:
        if isinstance(element, TextSpan):
            for _ in element.token_ids:
                ids.append((nxt, nxt, nxt))
                nxt += 1
        elif isinstance(element, ImageBlock):
            o = nxt
            for r in range(element.gh):
                for c in range(element.gw):
                    ids.append((o, o + r, o + c))
            nxt = o + max(element.gh, element.gw)
        else:
            o = nxt
            t = o if group_t is None else group_t + 1
            group_t = t
            for r in range(element.gh):
                for c in range(element.gw):
                    ids.append((t, o + r, o + c))
            nxt = max(t, o + max(element.gh, element.gw) - 1) + 1
    return ids


_elements = st.one_of(
    st.lists(st.integers(0, 255), max_size=5).map(lambda ids: TextSpan(tuple(ids))),
    st.tuples(st.integers(1, 3), st.integers(1, 9)).map(lambda g: ImageBlock(*g)),
    st.tuples(st.integers(1, 3), st.integers(1, 4)).map(
        lambda g: FrameGroup(0.0, 0.0, *g)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_elements, max_size=12))
def test_position_ids_match_per_token_reference(elements):
    seq = MultimodalSequence.of(tuple(elements))
    ids = assign_position_ids(seq)
    expected = np.asarray(reference_position_ids(seq), dtype=np.int64).reshape(-1, 3)
    assert ids.dtype == np.int64 and ids.shape == (seq.token_count(), 3)
    np.testing.assert_array_equal(ids, expected)
    group_rows = [i for i, e in enumerate(elements) if isinstance(e, FrameGroup)]
    starts = np.cumsum([0] + [e.token_count() for e in elements])
    first_ids = expected[starts[group_rows]].reshape(-1, 3)
    np.testing.assert_array_equal(mrope.frame_group_ids(seq), first_ids)
    assert mrope.frame_group_ids(seq)[:, 0].tolist() == first_ids[:, 0].tolist()


class TestFrequencyAllocation:
    def test_interleaved_pattern(self):
        alloc = build_frequency_allocation(12, scheme="interleaved")
        assert alloc.axis_of_pair == ("t", "h", "w", "t", "h", "w")

    def test_chunked_pattern(self):
        alloc = build_frequency_allocation(12, scheme="chunked", chunk_split=(2, 2, 2))
        assert alloc.axis_of_pair == ("t", "t", "h", "h", "w", "w")

    def test_theta_value(self):
        alloc = build_frequency_allocation(12, base=10000.0)
        assert alloc.theta[1] == pytest.approx(10000.0 ** (-2.0 / 12.0), rel=1e-12)
        assert alloc.theta[1] == pytest.approx(0.21544, abs=1e-5)

    def test_theta_strictly_decreasing(self):
        alloc = build_frequency_allocation(32)
        assert all(a > b for a, b in zip(alloc.theta, alloc.theta[1:]))

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            build_frequency_allocation(7)

    def test_bad_split_rejected(self):
        with pytest.raises(ConfigError, match="summing"):
            build_frequency_allocation(12, scheme="chunked", chunk_split=(1, 2, 2))

    def test_float_head_dim_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            build_frequency_allocation(8.0)

    def test_float_split_not_truncated(self):
        # int() would read it as (1, 1, 1), which sums to head_dim 6's three pairs.
        with pytest.raises(ConfigError, match="summing"):
            build_frequency_allocation(6, scheme="chunked", chunk_split=[1.5, 1.5, 1])

    def test_numpy_integers_pass(self):
        alloc = build_frequency_allocation(np.int64(6), scheme="chunked",
                                           chunk_split=[np.int64(1), np.int32(1), np.uint8(1)])
        assert alloc.axis_of_pair == ("t", "h", "w")
        assert build_frequency_allocation(**json.loads(json.dumps(alloc.to_config()))) == alloc

    def test_chunk_split_array_and_empty(self):
        # A numpy array has no truth value, and an empty split is not a request for the default.
        from_array = build_frequency_allocation(6, scheme="chunked", chunk_split=np.array([1, 1, 1]))
        assert from_array == build_frequency_allocation(6, scheme="chunked", chunk_split=[1, 1, 1])
        with pytest.raises(ConfigError, match="summing"):
            build_frequency_allocation(6, scheme="chunked", chunk_split=())

    def test_bad_base_rejected(self):
        with pytest.raises(ConfigError, match="base"):
            build_frequency_allocation(8, base=1.0)

    def test_default_chunk_split_covers_all_pairs(self):
        for half in range(3, 65):
            split = mrope.default_chunk_split(half)
            assert sum(split) == half and min(split) >= 0

    def test_config_round_trip(self):
        for alloc in (build_frequency_allocation(24),
                      build_frequency_allocation(24, scheme="chunked", chunk_split=(5, 4, 3))):
            again = build_frequency_allocation(**alloc.to_config())
            assert again == alloc


class TestApplyMrope:
    """Rotary application as the encoder, decoder and probe run it:
    ``rotation_tables`` of the ids, then ``rotate_pairs``."""

    def test_zero_position_is_identity(self):
        x = Tensor(Rng(0).normal((4, 8)))
        alloc = build_frequency_allocation(8)
        out = rotate_pairs(x, *rotation_tables([(0, 0, 0)] * 4, alloc))
        np.testing.assert_array_equal(out.data, x.data)

    def test_norm_preserved(self):
        alloc = build_frequency_allocation(24)
        x = Tensor(Rng(1).normal((16, 24)))
        ids = Rng(2).integers(0, 500, (16, 3))
        out = rotate_pairs(x, *rotation_tables(ids, alloc))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1),
                                   np.linalg.norm(x.data, axis=1), atol=1e-12)

    def test_hand_trigonometry(self):
        # head_dim=2 has a single pair at theta=1 driven by t.
        alloc = build_frequency_allocation(2)
        out = rotate_pairs(Tensor([[1.0, 0.0]]), *rotation_tables([(1, 0, 0)], alloc))
        np.testing.assert_allclose(out.data, [[math.cos(1.0), math.sin(1.0)]], atol=1e-15)
        np.testing.assert_allclose(out.data, [[0.54030, 0.84147]], atol=1e-5)

    def test_id_length_mismatch(self):
        alloc = build_frequency_allocation(8)
        with pytest.raises(ShapeError, match="angle shape"):
            rotate_pairs(Tensor(np.ones((3, 8))), *rotation_tables([(0, 0, 0)], alloc))

    @pytest.mark.parametrize("ids", [[(0.5, 0, 0)], [(True, False, True)]],
                             ids=["float", "bool"])
    def test_ids_must_be_integers(self, ids):
        with pytest.raises(ShapeError, match="integers"):
            rotation_tables(ids, build_frequency_allocation(8))

    @pytest.mark.parametrize("ids", [[0, 1], [(0, 1)], [[(0, 0, 0)]]], ids=["flat", "pairs", "rank-3"])
    def test_ids_must_be_triples(self, ids):
        with pytest.raises(ShapeError, match="position ids must be \\(seq, 3\\) triples"):
            rotation_tables(ids, build_frequency_allocation(8))

    def test_head_dim_mismatch(self):
        alloc = build_frequency_allocation(8)
        with pytest.raises(ShapeError, match="angle shape"):
            rotate_pairs(Tensor(np.ones((1, 6))), *rotation_tables([(0, 0, 0)], alloc))


@pytest.mark.parametrize("head_dim", [6, 12, 24])
@pytest.mark.parametrize("scheme", ["interleaved", "chunked"])
def test_relative_shift_invariance(head_dim, scheme):
    alloc = build_frequency_allocation(head_dim, scheme=scheme)
    rng = Rng(7).split(f"{scheme}{head_dim}")
    worst = 0.0
    for trial in range(100):
        t_rng = rng.split(trial)
        q = Tensor(t_rng.split("q").normal((1, head_dim)))
        k = Tensor(t_rng.split("k").normal((1, head_dim)))
        pq, pk, shift = (t_rng.split(tag).integers(0, 4096, 3) for tag in ("pq", "pk", "c"))
        base = float(rotate_pairs(q, *rotation_tables([pq], alloc)).data[0]
                     @ rotate_pairs(k, *rotation_tables([pk], alloc)).data[0])
        moved = float(rotate_pairs(q, *rotation_tables([pq + shift], alloc)).data[0]
                      @ rotate_pairs(k, *rotation_tables([pk + shift], alloc)).data[0])
        worst = max(worst, abs(base - moved))
    assert worst < 1e-9


class TestSpectrum:
    def test_interleaved_12(self):
        report = spectrum_report(build_frequency_allocation(12))
        for axis in "thw":
            assert report[axis]["count"] == 2
            assert report[axis]["max_gap"] == 3

    def test_chunked_222_t_span(self):
        report = spectrum_report(build_frequency_allocation(12, scheme="chunked",
                                                            chunk_split=(2, 2, 2)))
        assert report["t"]["min_index"] == 0
        assert report["t"]["max_index"] == 1

    def test_single_occupancy_gap_is_zero(self):
        report = spectrum_report(build_frequency_allocation(6))
        for axis in "thw":
            assert report[axis]["count"] == 1
            assert report[axis]["max_gap"] == 0

    @pytest.mark.parametrize("half", range(3, 65))
    def test_interleaved_balance(self, half):
        alloc = build_frequency_allocation(2 * half)
        report = spectrum_report(alloc)
        for axis in "thw":
            assert report[axis]["max_gap"] <= 3
            assert spans_spectrum_ends(alloc, axis)

    @pytest.mark.parametrize("half", range(4, 65))
    def test_chunked_violates_span_somewhere(self, half):
        alloc = build_frequency_allocation(2 * half, scheme="chunked")
        assert not all(spans_spectrum_ends(alloc, axis) for axis in "thw")

    def test_chunked_span_contrast_degenerate_at_three_pairs(self):
        # With one pair per axis the chunked layout coincides with the
        # interleaved one, so no contrast exists at half == 3.
        chunked = build_frequency_allocation(6, scheme="chunked")
        interleaved = build_frequency_allocation(6)
        assert chunked.axis_of_pair == interleaved.axis_of_pair
