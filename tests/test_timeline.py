import math
from decimal import ROUND_HALF_UP, Context, Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlmlab.errors import ConfigError
from vlmlab.mrope import assign_position_ids, frame_group_ids
from vlmlab.seeding import Rng
from vlmlab.sequence import (FRAMES, IMAGE, TEXT, FrameGroup, ImageBlock, MultimodalSequence,
                             TextSpan)
from vlmlab.timeline import (SamplingPolicy, _stamp_numbers, detokenize, format_timestamp,
                             interleave_timestamps, parse_timestamp,
                             position_id_range_report, sample_frames, tokenize)


def ample_policy(fps=2.0):
    return SamplingPolicy(fps=fps, max_frames=100000, tokens_per_frame=1,
                          token_budget=10 ** 9)


class TestSampleFrames:
    def test_dense_grid(self):
        frames = sample_frames(10.0, 30.0, ample_policy(fps=2.0))
        assert frames.tolist() == [k * 0.5 for k in range(20)]

    def test_cap_2048_uniform(self):
        policy = SamplingPolicy(fps=2.0, max_frames=2048, tokens_per_frame=1,
                                token_budget=10 ** 9)
        frames = sample_frames(3600.0, 30.0, policy)
        assert len(frames) == 2048
        spacing = 3600.0 / 2048
        assert frames[:3].tolist() == [0.0, spacing, 2 * spacing]
        assert frames[-1] == 2047 * spacing < 3600.0

    def test_zero_duration(self):
        assert sample_frames(0.0, 30.0, ample_policy()).tolist() == [0.0]

    def test_token_budget_caps_before_max_frames(self):
        policy = SamplingPolicy(fps=1.0, max_frames=1000, tokens_per_frame=10,
                                token_budget=100)
        frames = sample_frames(500.0, 30.0, policy)
        assert len(frames) == 10

    def test_native_fps_bounds_rate(self):
        frames = sample_frames(10.0, 0.5, ample_policy(fps=2.0))
        assert frames.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]

    @pytest.mark.parametrize("duration, policy", [
        (0.0, ample_policy()), (10.0, ample_policy(fps=2.0)),
        (3600.0, SamplingPolicy(fps=2.0, max_frames=2048, tokens_per_frame=1,
                                token_budget=10 ** 9))])
    def test_frames_are_a_float64_array(self, duration, policy):
        frames = sample_frames(duration, 30.0, policy)
        assert isinstance(frames, np.ndarray) and frames.dtype == np.float64

    def test_policy_validation(self):
        with pytest.raises(ConfigError, match="positive"):
            SamplingPolicy(fps=0.0)

    @pytest.mark.parametrize("field, value", [
        ("fps", math.nan), ("fps", math.inf), ("token_budget", math.nan), ("group_size", -1)])
    def test_policy_rejects_non_finite_fields(self, field, value):
        # NaN and inf fail the field's type, -1 its range.
        match = f"{field} must be (a finite number|an integer|finite and positive)"
        with pytest.raises(ConfigError, match=match):
            SamplingPolicy(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("max_frames", 2.5), ("token_budget", 100.0), ("tokens_per_frame", True),
        ("group_size", 1.5)])
    def test_policy_rejects_non_integer_counts(self, field, value):
        # sample_frames counts its frames with np.arange, which takes 2.5 without complaint.
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SamplingPolicy(**{field: value})

    @pytest.mark.parametrize("duration, native_fps, message", [
        (math.nan, 30.0, "duration"), (math.inf, 30.0, "duration"), (-1.0, 30.0, "duration"),
        (10.0, math.nan, "native fps"), (10.0, math.inf, "native fps"),
        (10.0, 0.0, "native fps"), (10.0, -30.0, "native fps")])
    def test_bad_clip_rejected(self, duration, native_fps, message):
        with pytest.raises(ConfigError, match=f"{message} must be finite"):
            sample_frames(duration, native_fps, ample_policy())

    def test_randomized_cap_sweep(self):
        rng = Rng(99)
        for trial in range(1000):
            r = rng.split(trial)
            policy = SamplingPolicy(
                fps=float(r.split("fps").uniform((), 0.1, 8.0)),
                max_frames=int(r.split("mf").integers(1, 4000)),
                tokens_per_frame=int(r.split("tpf").integers(1, 64)),
                token_budget=int(r.split("tb").integers(1, 100000)))
            duration = float(r.split("dur").uniform((), 0.0, 5000.0))
            frames = sample_frames(duration, 30.0, policy)
            assert len(frames) <= max(1, policy.frame_cap())
            if duration > 0:
                assert all(0 <= t < duration for t in frames)
                assert all(a < b for a, b in zip(frames, frames[1:]))
            else:
                assert frames.tolist() == [0.0]


class TestTimestamps:
    def test_seconds_format(self):
        assert format_timestamp(3.0) == "<3.0 seconds>"

    def test_zero(self):
        assert format_timestamp(0) == "<0.0 seconds>"

    def test_hms(self):
        assert format_timestamp(3661.0, "hms") == "<01:01:01>"

    def test_round_half_up(self):
        assert format_timestamp(2.25) == "<2.3 seconds>"
        assert format_timestamp(2.24) == "<2.2 seconds>"

    def test_hms_truncates_and_pads(self):
        assert format_timestamp(59.9, "hms") == "<00:00:59>"
        assert format_timestamp(450000.0, "hms") == "<125:00:00>"

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            format_timestamp(-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError):
            format_timestamp(float("inf"))

    def test_huge_seconds_exact(self):
        # Exact up to the bound of the domain, about 1.1 million years; rejected above it.
        assert format_timestamp(2.0 ** 45) == f"<{2 ** 45}.0 seconds>"
        assert format_timestamp(2.0 ** 45, "hms") == "<9773436691:20:32>"
        for t in (1e27, 1e300):
            with pytest.raises(ConfigError, match=r"at most 2\*\*45 s"):
                format_timestamp(t)

    def test_unknown_style(self):
        with pytest.raises(ConfigError, match="style"):
            format_timestamp(1.0, "minutes")

    def test_hms_round_trip_truncated_value(self):
        rng = Rng(3)
        for trial in range(500):
            t = float(rng.split(trial).uniform((), 0, 500000))
            assert parse_timestamp(format_timestamp(t, "hms")) == float(int(t))

    def test_seconds_parse(self):
        assert parse_timestamp("<3.0 seconds>") == 3.0

    @pytest.mark.parametrize("text", [
        "<\u0663.\u0660 seconds>", "<\u0660\u0661:00:00>", "<01:\u0660\u0660:00>",
        "<3.0 seconds>\n", "<01:00:00>\n", " <3.0 seconds>", "<3.0 seconds> ", "<3 seconds>",
        "<1:00:00>", "<01:60:00>", "<-1.0 seconds>", "<03.0 seconds>", "<00.0 seconds>",
        "<001:00:00>", "<0100:00:00>"],
        ids=["arabic-indic-seconds", "arabic-indic-hours", "arabic-indic-minutes",
             "seconds-trailing-newline", "hms-trailing-newline", "leading-space",
             "trailing-space", "no-tenths", "one-digit-hours", "minutes-60", "negative",
             "seconds-leading-zero", "seconds-double-zero", "hours-leading-zero-3-digits",
             "hours-leading-zero-4-digits"])
    def test_parse_rejects_what_format_never_writes(self, text):
        with pytest.raises(ValueError):
            parse_timestamp(text)

    @pytest.mark.parametrize("text", [
        "<35184372088832.1 seconds>", "<9773436691:20:33>", "<" + "9" * 400 + ".0 seconds>",
        "<" + "9" * 400 + ":00:00>"],
        ids=["seconds-one-tenth-above", "hms-one-second-above", "seconds-400-digits",
             "hms-400-digits"])
    def test_parse_rejects_stamps_above_the_bound(self, text):
        with pytest.raises(ValueError, match=r"above 2\*\*45 s"):
            parse_timestamp(text)

    @pytest.mark.parametrize("t, seconds", [(-0.0, 0.0), (0.0, 0.0), (0.05, 0.1), (2.25, 2.3),
                                            (59.96, 60.0), (3600.0, 3600.0),
                                            (2.0 ** 45, 2.0 ** 45)])
    def test_round_trip(self, t, seconds):
        assert parse_timestamp(format_timestamp(t)) == seconds
        assert parse_timestamp(format_timestamp(t, "hms")) == float(int(t))


class TestTokenizer:
    def test_empty(self):
        assert tokenize("") == []
        assert detokenize([]) == ""

    def test_timestamp_round_trip(self):
        s = "<3.0 seconds>"
        assert detokenize(tokenize(s)) == s

    def test_invalid_id(self):
        with pytest.raises(ValueError, match="byte value"):
            detokenize([65, 300])
        with pytest.raises(ValueError, match="byte value"):
            detokenize([True, 65])

    def test_injective_on_random_corpus(self):
        rng = Rng(17)
        seen = {}
        for trial in range(10000):
            r = rng.split(trial)
            n = int(r.split("len").integers(0, 24))
            s = "".join(chr(int(c)) for c in r.split("chars").integers(32, 0x2FF, n))
            key = tuple(tokenize(s))
            assert detokenize(key) == s
            if key in seen:
                assert seen[key] == s
            seen[key] = s


class TestInterleave:
    def test_four_frames_two_groups(self):
        seq = interleave_timestamps([0.0, 0.5, 1.0, 1.5], group_size=2)
        kinds = [type(e).__name__ for e in seq.elements]
        assert kinds == ["TextSpan", "FrameGroup", "TextSpan", "FrameGroup"]
        first_text = seq.elements[0]
        assert detokenize(first_text.token_ids) == "<0.0 seconds>"
        groups = seq.elements[1::2]
        assert (groups[0].start_time, groups[0].end_time) == (0.0, 0.5)
        assert (groups[1].start_time, groups[1].end_time) == (1.0, 1.5)

    def test_singleton(self):
        seq = interleave_timestamps([2.0])
        assert [type(e).__name__ for e in seq.elements] == ["TextSpan", "FrameGroup"]

    def test_remainder_group(self):
        seq = interleave_timestamps([0.0, 0.5, 1.0], group_size=2)
        groups = seq.elements[1::2]
        assert len(groups) == 2
        assert (groups[1].start_time, groups[1].end_time) == (1.0, 1.0)

    def test_empty_frames_rejected(self):
        with pytest.raises(ConfigError, match="at least one frame"):
            interleave_timestamps([])

    def test_hms_style_stamps(self):
        seq = interleave_timestamps([3661.0], style="hms")
        assert detokenize(seq.elements[0].token_ids) == "<01:01:01>"

    @pytest.mark.parametrize("frames", [[0.0, math.nan], [0.0, math.inf], [math.nan, 1.0],
                                        [math.inf, math.inf]])
    def test_non_finite_frames_rejected(self, frames):
        with pytest.raises(ConfigError, match="finite"):
            interleave_timestamps(frames, group_size=2)

    def test_array_form(self):
        seq = interleave_timestamps([0.0, 0.5, 1.0, 1.0, 2.25], group_size=2)
        np.testing.assert_array_equal(seq.start_times, [0.0, 1.0, 2.25])
        np.testing.assert_array_equal(seq.end_times, [0.5, 1.0, 2.25])
        np.testing.assert_array_equal(seq.columns[1, 0::2], [13, 13, 13])
        assert detokenize(seq.tokens.tolist()) == (
            "<0.0 seconds><1.0 seconds><2.3 seconds>")
        assert seq.token_count() == 39 + 3


class TestSparsityReport:
    def test_textual_scheme_consecutive(self):
        frames = [2.0 * k for k in range(100)]
        seq = interleave_timestamps(frames, group_size=1)
        report = position_id_range_report(seq, "textual_timestamp")
        assert report["count_t_distinct"] == 100
        assert report["sparsity"] == 1.0
        assert report["max_t"] - report["min_t"] + 1 == 100

    def test_absolute_two_hour_scenario(self):
        frames = [2.0 * k for k in range(3600)]
        seq = interleave_timestamps(frames, group_size=1)
        report = position_id_range_report(seq, "absolute_time", granularity=0.1)
        assert report["max_t"] == 71980
        assert report["count_t_distinct"] == 3600
        assert report["sparsity"] == pytest.approx(20.0, abs=0.01)

    def test_single_group(self):
        seq = interleave_timestamps([5.0])
        report = position_id_range_report(seq, "textual_timestamp")
        assert report["count_t_distinct"] == 1
        assert report["sparsity"] == 1.0

    def test_absolute_sparsity_exceeds_one_when_spacing_exceeds_granularity(self):
        frames = [0.7 * k for k in range(50)]
        seq = interleave_timestamps(frames, group_size=1)
        report = position_id_range_report(seq, "absolute_time", granularity=0.1)
        assert report["sparsity"] > 1.0

    def test_granularity_validated(self):
        seq = interleave_timestamps([0.0])
        with pytest.raises(ConfigError, match="granularity"):
            position_id_range_report(seq, "absolute_time", granularity=0.0)

    def test_absolute_ids_overflow(self):
        seq = interleave_timestamps([0.0, 1.0], group_size=1)
        with pytest.raises(ConfigError, match="absolute-time ids overflow at granularity 5e-324"):
            position_id_range_report(seq, "absolute_time", granularity=5e-324)

    def test_unknown_scheme(self):
        seq = interleave_timestamps([0.0])
        with pytest.raises(ConfigError, match="unknown scheme 'relative'"):
            position_id_range_report(seq, "relative")

    def test_needs_frame_groups(self):
        with pytest.raises(ConfigError, match="frame groups"):
            position_id_range_report(MultimodalSequence.of((TextSpan((1,)),)))


class TestSequenceTypes:
    def test_frame_group_time_order(self):
        with pytest.raises(ConfigError, match="start <= end"):
            MultimodalSequence.of((FrameGroup(2.0, 1.0, 1, 1),))

    def test_frame_group_negative_time(self):
        with pytest.raises(ConfigError, match="start <= end"):
            MultimodalSequence.of((FrameGroup(-1.0, 0.0, 1, 1),))

    @pytest.mark.parametrize("start, end", [(0.0, math.nan), (math.nan, 1.0),
                                            (0.0, math.inf), (-math.inf, 0.0)])
    def test_frame_group_non_finite_time(self, start, end):
        with pytest.raises(ConfigError, match="finite"):
            MultimodalSequence.of((FrameGroup(start, end, 1, 1),))

    def test_frame_group_grid_bounds(self):
        with pytest.raises(ConfigError, match="1x1"):
            MultimodalSequence.of((FrameGroup(0.0, 0.0, 0, 1),))

    def test_array_check_names_first_bad_group(self):
        columns = np.array([[FRAMES] * 3, [1, 0, 0], [1, 0, 0], [1, 2, 3]])
        with pytest.raises(ConfigError, match="got 0x2"):
            MultimodalSequence(columns, np.array([], dtype=np.int64),
                               np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0]))

    def test_array_constructor_checks_frame_grids(self):
        columns = np.array([[TEXT, FRAMES], [1, 0], [0, 0], [0, 1]], dtype=np.int64)
        with pytest.raises(ConfigError, match="1x1"):
            MultimodalSequence(columns, np.array([7]), np.array([0.0]), np.array([1.0]))

    def test_text_counts_must_sum_to_the_tokens(self):
        columns = np.array([[TEXT], [5], [0], [0]])
        with pytest.raises(ConfigError, match="sum to 5, but there are 1 tokens"):
            MultimodalSequence(columns, np.array([1]), np.array([]), np.array([]))

    def test_a_checked_sequence_cannot_be_written_through(self):
        """The sequence holds read-only views: a write through it raises
        where it happens, and the arrays it was made from are not copied."""
        columns = np.array([[TEXT, FRAMES], [4, 1], [0, 1], [0, 1]])
        arrays = columns, np.arange(4), np.array([0.0]), np.array([1.0])
        seq = MultimodalSequence(*arrays)
        for name, source in zip(("columns", "tokens", "start_times", "end_times"), arrays):
            held = getattr(seq, name)
            assert np.shares_memory(held, source) and source.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 6
        assert seq.token_count() == 5

    def test_array_constructor_checks_image_grids(self):
        columns = np.array([[IMAGE], [0], [0], [0]])
        with pytest.raises(ConfigError, match="element 0: image grid must be at least 1x1, got 0x0"):
            MultimodalSequence(columns, np.array([], dtype=np.int64), np.array([]), np.array([]))

    def test_non_integer_image_grid_is_not_truncated(self):
        with pytest.raises(ConfigError, match="integer array"):
            MultimodalSequence.of((ImageBlock(1.5, 2),))
        with pytest.raises(ConfigError, match="integer array"):
            MultimodalSequence.of((ImageBlock(True, 2),))

    def test_text_ids_must_be_integers(self):
        with pytest.raises(TypeError):
            TextSpan((1.5,))
        with pytest.raises(TypeError):
            TextSpan((True, 2))
        span = TextSpan((np.int64(3), np.uint8(4)))
        assert span.token_ids == (3, 4) and all(type(t) is int for t in span.token_ids)

    @pytest.mark.parametrize("kwargs, message", [
        ({"gh": 1.5}, "integer array"), ({"gw": 2.0}, "integer array"),
        ({"group_size": 1.5}, "group_size must be an integer"),
        ({"group_size": True}, "group_size must be an integer"),
        ({"gh": True}, "integer array"),
    ], ids=["gh-1.5", "gw-2.0", "group-size-1.5", "group-size-true", "gh-true"])
    def test_interleave_rejects_non_integer_sizes(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            interleave_timestamps([0.0, 1.0], **{"group_size": 1, **kwargs})


def test_of_elements_round_trip():
    seq = MultimodalSequence.of((
        TextSpan((60, 51, 62)),
        FrameGroup(0.0, 1.0, 1, 2),
        TextSpan(()),
    ))
    assert MultimodalSequence.of(seq.elements).elements == seq.elements


grids = st.integers(1, 64)
times = st.floats(0.0, 1e6)
elements = st.one_of(
    st.builds(TextSpan, st.lists(st.integers(0, 10 ** 6), max_size=6).map(tuple)),
    st.builds(ImageBlock, grids, grids),
    st.builds(lambda a, b, gh, gw: FrameGroup(min(a, b), max(a, b), gh, gw),
              times, times, grids, grids),
)


def reference_columns(elements):
    """Per-element layout columns: kind, token count, gh and gw (0 for text)."""
    rows = [(TEXT, len(e.token_ids), 0, 0) if isinstance(e, TextSpan)
            else (IMAGE if isinstance(e, ImageBlock) else FRAMES, e.gh * e.gw, e.gh, e.gw)
            for e in elements]
    return np.array(rows, dtype=np.int64).reshape(-1, 4).T


@given(st.lists(elements, max_size=8))
def test_of_matches_per_element_reference(items):
    seq = MultimodalSequence.of(items)
    assert seq.elements == tuple(items)
    assert seq.columns.dtype == np.int64
    np.testing.assert_array_equal(seq.columns, reference_columns(items))
    assert seq.tokens.tolist() == [t for e in items if isinstance(e, TextSpan)
                                   for t in e.token_ids]
    groups = [e for e in items if isinstance(e, FrameGroup)]
    assert seq.start_times.tolist() == [g.start_time for g in groups]
    assert seq.end_times.tolist() == [g.end_time for g in groups]
    assert seq.token_count() == sum(e.token_count() for e in items)


@given(st.lists(elements, max_size=8).map(MultimodalSequence.of))
def test_of_elements_round_trip_is_lossless(seq):
    again = MultimodalSequence.of(seq.elements)
    assert again.elements == seq.elements
    for name in ("columns", "tokens", "start_times", "end_times"):
        np.testing.assert_array_equal(getattr(again, name), getattr(seq, name))


def single_perturbations(seq):
    """Each way of breaking one value of a valid sequence's arrays."""
    columns, tokens, start, end = seq.columns, seq.tokens, seq.start_times, seq.end_times
    yield "extra token", (columns, np.append(tokens, 7), start, end)
    yield "float columns", (columns.astype(np.float64), tokens, start, end)
    if len(start):
        yield "dropped start time", (columns, tokens, start[1:], end)
    for e, (kind, count, _, _) in enumerate(columns.T.tolist()):
        changes = [("kind 3", 0, 3), ("count + 1", 1, count + 1), ("count - 1", 1, count - 1)]
        if kind == TEXT:
            changes.append(("text gh 1", 2, 1))
        else:
            changes += [("gh 0", 2, 0), ("gw 0", 3, 0)]
        for what, row, value in changes:
            changed = columns.copy()
            changed[row, e] = value
            yield f"element {e}: {what}", (changed, tokens, start, end)


@given(st.lists(elements, max_size=8).map(MultimodalSequence.of))
def test_constructor_rejects_every_single_perturbation(seq):
    MultimodalSequence(seq.columns, seq.tokens, seq.start_times, seq.end_times)
    for what, arrays in single_perturbations(seq):
        with pytest.raises(ConfigError):
            MultimodalSequence(*arrays)
            pytest.fail(f"built after {what}")


def reference_interleave(frames, group_size=2, style="seconds", gh=1, gw=1):
    """The per-group loop that defines the timestamped timeline."""
    if not frames:
        raise ConfigError("interleave_timestamps needs at least one frame")
    if group_size < 1:
        raise ConfigError(f"group_size must be >= 1, got {group_size}")
    elements = []
    for start in range(0, len(frames), group_size):
        chunk = frames[start:start + group_size]
        stamp = reference_stamp(chunk[0], style)
        elements.append(TextSpan(tuple(tokenize(stamp))))
        elements.append(FrameGroup(start_time=chunk[0], end_time=chunk[-1], gh=gh, gw=gw))
    return MultimodalSequence.of(tuple(elements))


def reference_stamp(t, style):
    """The definition of a stamp: ``Decimal(repr(t))`` half up to tenths, or
    ``int(t)`` split into hours, minutes and seconds, for t in [0, 2**45]."""
    t = float(t) + 0.0
    if not 0 <= t <= 2.0 ** 45:
        raise ConfigError(f"no stamp for {t}")
    if style == "seconds":
        tenths = Decimal(repr(t)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP,
                                           context=Context(prec=400))
        return f"<{tenths} seconds>"
    hours, rem = divmod(int(t), 3600)
    return f"<{hours:02d}:{rem // 60:02d}:{rem % 60:02d}>"


# Ties k/20 of the seconds style and the floats either side of them, small and
# up to the 2**45 s bound of the domain, where one ulp is largest.
ties = st.one_of(st.integers(0, 200_000), st.integers(0, 20 * 2 ** 45)).map(lambda k: k / 20)
stamp_times = st.one_of(ties, ties.map(lambda t: min(math.nextafter(t, math.inf), 2.0 ** 45)),
                        ties.map(lambda t: math.nextafter(t, 0.0)), st.floats(0.0, 2.0 ** 45),
                        st.sampled_from([-0.0, 2.0 ** 45, math.nextafter(2.0 ** 45, 0.0)]))


@settings(max_examples=300, deadline=None)
@given(times=st.lists(stamp_times, min_size=1, max_size=30),
       style=st.sampled_from(["seconds", "hms"]))
def test_stamps_match_the_definition(times, style):
    stamps = [reference_stamp(t, style) for t in times]
    seq = interleave_timestamps(times, group_size=1, style=style)
    assert detokenize(seq.tokens.tolist()) == "".join(stamps)
    assert seq.columns[1, 0::2].tolist() == [len(stamp) for stamp in stamps]
    assert [format_timestamp(t, style) for t in times] == stamps


@pytest.mark.parametrize("style", ["seconds", "hms"])
def test_stamp_sweep_matches_the_definition(style):
    # Hypothesis draws few distinct floats with a fractional part near 2**45 s,
    # the bound of the domain and where one ulp is largest; this sweep has about
    # 70,000 ties, floats just below them and uniform floats in [2**44, 2**45].
    rng = np.random.default_rng(20)
    grid = np.arange(20_001) / 20
    top = rng.integers(20 * 2 ** 44, 20 * 2 ** 45 + 1, 20_000) / 20
    times = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, 0.0),
                            np.exp2(rng.uniform(-10.0, 45.0, 20_000)),
                            rng.integers(0, 20 * 2 ** 45 + 1, 20_000) / 20,
                            top, np.nextafter(top, 0.0), rng.uniform(2.0 ** 44, 2.0 ** 45, 20_000),
                            [2.0 ** 45, math.nextafter(2.0 ** 45, 0.0), 5e-324]])
    seq = interleave_timestamps(times, group_size=1, style=style)
    stamps = [reference_stamp(t, style) for t in times.tolist()]
    assert seq.tokens.tobytes() == "".join(stamps).encode("ascii")
    assert seq.columns[1, 0::2].tolist() == [len(stamp) for stamp in stamps]
    for t in (math.nextafter(2.0 ** 45, math.inf), 2.0 ** 53 + 2, 1e16 + 0.5, 1e27, 1e300):
        with pytest.raises(ConfigError, match="at most"):
            interleave_timestamps([0.0, t], group_size=1, style=style)


def test_no_tie_needs_moving_up():
    """The step of ``_stamp_numbers``' docstring: the float tau of every tie
    (r + 0.5) / 10 gets floor(fl(10 tau) + 0.5) = r + 1, so no time needs
    moving up to a tie's tenths.  In each binade up to 2**45 s this checks the first
    and last 5,000 ties and 5,000 drawn between, and that the float below
    each tie stamps as r."""
    rng = np.random.default_rng(45)
    for k in range(-5, 45):
        lo = max(0, math.ceil(2.0 ** k * 10 - 0.5))  # the first r whose tie is in the binade
        hi = min(math.ceil(2.0 ** (k + 1) * 10 - 0.5), 10 * 2 ** 45) - 1
        if hi < lo:  # [1/16, 1/8) holds no tie
            continue
        r = np.concatenate([np.arange(lo, min(lo + 5000, hi + 1)),
                            np.arange(max(hi - 4999, lo), hi + 1), rng.integers(lo, hi + 1, 5000)])
        tau = (2 * r + 1) / 20
        assert ((2.0 ** k <= tau) & (tau < 2.0 ** (k + 1))).all(), k
        assert (np.floor(tau * 10 + 0.5) == r + 1).all(), k
        assert (_stamp_numbers(tau, "seconds") == r + 1).all(), k
        assert (_stamp_numbers(np.nextafter(tau, 0.0), "seconds") == r).all(), k


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


# k/20 puts half-up ties of the seconds style (0.05, 2.25, ...) in reach and
# repeats values often; arbitrary floats cover the rest, and -0.0 must get the
# same stamp as 0.0.
frame_times = st.one_of(st.integers(0, 2000).map(lambda k: k / 20), st.floats(0.0, 2.0 ** 45),
                        st.just(-0.0))


@settings(max_examples=200, deadline=None)
@given(frames=st.lists(frame_times, min_size=1, max_size=20).map(sorted),
       group_size=st.integers(1, 4), style=st.sampled_from(["seconds", "hms"]),
       gh=st.integers(1, 3), gw=st.integers(1, 3))
def test_interleave_matches_per_group_reference(frames, group_size, style, gh, gw):
    seq = interleave_timestamps(frames, group_size, style, gh, gw)
    ref = reference_interleave(frames, group_size, style, gh, gw)
    np.testing.assert_array_equal(assign_position_ids(seq), assign_position_ids(ref))
    np.testing.assert_array_equal(frame_group_ids(seq), frame_group_ids(ref))
    assert seq.token_count() == ref.token_count()
    np.testing.assert_array_equal(seq.start_times, ref.start_times)
    np.testing.assert_array_equal(seq.end_times, ref.end_times)
    assert seq.elements == ref.elements


@pytest.mark.parametrize("frames, group_size", [
    ([], 1), ([-1.0], 1), ([0.0, -1.0], 1), ([0.0, -1.0], 2), ([math.nan], 1),
    ([math.inf], 1), ([0.0, math.nan], 2), ([0.0, math.inf], 2), ([0.0, 1.0, math.nan], 1),
    ([1.0, 0.5], 2), ([0.0, 2.0, 1.0], 3), ([1.0, 0.0, -1.0], 2), ([0.0], 0),
    ([math.nextafter(2.0 ** 45, math.inf)], 1), ([2.0 ** 46], 1), ([0.0, 1e300], 1),
])
def test_interleave_rejects_what_the_reference_rejects(frames, group_size):
    assert _raised(interleave_timestamps, frames, group_size) is (
        _raised(reference_interleave, frames, group_size))


@settings(max_examples=200, deadline=None)
@given(frames=st.lists(st.one_of(frame_times, st.floats(-5.0, 5.0),
                                 st.sampled_from([math.nan, math.inf, -math.inf])),
                       max_size=8),
       group_size=st.integers(1, 4), style=st.sampled_from(["seconds", "hms"]))
def test_interleave_errors_match_reference(frames, group_size, style):
    assert _raised(interleave_timestamps, frames, group_size, style) is (
        _raised(reference_interleave, frames, group_size, style))
