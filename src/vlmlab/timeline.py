"""Video frame sampling, textual timestamps, and temporal-id diagnostics.

Covers the encoder-side timeline plumbing: choosing frame times under a
token budget, rendering timestamps as text (``<3.0 seconds>`` or
``<HH:MM:SS>``), a lossless byte-level tokenizer, interleaving timestamp
text with frame groups into one :class:`~vlmlab.sequence.MultimodalSequence`
built straight from arrays, and a report contrasting the density of
temporal position ids under textual timestamps versus absolute-time
encoding.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mrope
from .errors import ConfigError, is_integer
from .sequence import FRAMES, TEXT, MultimodalSequence

# Byte-level vocabulary: ids 0..255 are raw byte values.
BYTE_VOCAB_SIZE = 256
# Most frame groups in one timeline of `vlmlab sparsity` or `vlmlab niah` (a
# sparsity run at the cap takes about 0.45 s and 65 MB).
MAX_GROUPS = 100_000
# Largest time a stamp can carry, about 1.1 million years.  Up to it the float
# rule of _stamp_numbers is exact: one ulp is under 0.01, so repr(t) can fall on
# a tie n.n5 only when t is the float nearest the tie.
MAX_STAMP_SECONDS = 2.0 ** 45

# As format_timestamp writes them: hours of two digits, or more with no leading
# zero; whole seconds 0 or with no leading zero.
_HMS_RE = re.compile(r"<(\d{2}|[1-9]\d{2,}):(\d{2}):(\d{2})>", re.ASCII)
_SECONDS_RE = re.compile(r"<((?:0|[1-9]\d*)\.\d) seconds>", re.ASCII)
# Per style: the fewest digits a stamp number prints, and the text after its
# leading digits, '#' standing for one digit.
_LAYOUTS = {"seconds": (2, ".# seconds>"), "hms": (6, ":##:##>")}


@dataclass(frozen=True)
class SamplingPolicy:
    """Frame-sampling knobs: target rate, frame cap, and token budget."""

    fps: float = 1.0
    max_frames: int = 2048
    tokens_per_frame: int = 1
    token_budget: int = 2048
    group_size: int = 2

    def __post_init__(self):
        for name in ("fps", "max_frames", "tokens_per_frame", "token_budget", "group_size"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"sampling policy field {name} must be finite and positive")
            if name != "fps" and type(value) is not int:
                raise ConfigError(f"sampling policy field {name} must be an integer, got {value!r}")

    def frame_cap(self) -> int:
        return min(self.max_frames, self.token_budget // self.tokens_per_frame)


def sample_frames(duration: float, native_fps: float, policy: SamplingPolicy) -> np.ndarray:
    """Pick frame timestamps in [0, duration) for a clip, as a float64 array.

    The target count is floor(duration * rate), clamped to at least one
    frame, where the rate is the policy fps capped by what the source
    actually provides.  If the target fits under the frame cap the frames
    sit on the sampling grid k/rate; otherwise exactly cap frames are
    spread uniformly over [0, duration).
    """
    if not 0 <= duration < math.inf:
        raise ConfigError(f"duration must be finite and non-negative, got {duration}")
    if not 0 < native_fps < math.inf:
        raise ConfigError(f"native fps must be finite and positive, got {native_fps}")
    if duration == 0:
        return np.zeros(1)
    rate = min(policy.fps, native_fps)
    target = max(1, math.floor(duration * rate))
    cap = policy.frame_cap()
    if target <= cap:
        return np.arange(target) / rate
    return np.arange(cap) * duration / cap


def _stamp_numbers(times: np.ndarray, style: str) -> np.ndarray:
    """Each time in [0, MAX_STAMP_SECONDS] as one int64 stamp number: tenths of
    a second, or hours * 10**4 + minutes * 100 + seconds.

    ``seconds`` rounds ``repr(t)``, read exactly, half up to tenths, which is
    r = floor(10 t + 0.5), moved down by one where t lies below the float of
    the tie (2 r - 1) / 20 and up by one where it reaches the float of
    (2 r + 1) / 20: in the domain ``repr(t)`` reaches a tie exactly when t
    reaches the tie's float.
    """
    if style == "seconds":
        tenths = np.floor(times * 10 + 0.5)
        tenths -= times < (2 * tenths - 1) / 20
        tenths += times >= (2 * tenths + 1) / 20
        return tenths.astype(np.int64)
    seconds = times.astype(np.int64)
    return seconds // 3600 * 10_000 + seconds % 3600 // 60 * 100 + seconds % 60


def _render_stamps(times: Sequence[float], style: str) -> tuple[np.ndarray, np.ndarray]:
    """The stamp bytes of each time, back to back, and each stamp's length.

    Every stamp is written into one fixed-width row of a uint8 array; a mask
    then drops the leading zeros beyond the stamp's own digit count.
    """
    times = np.asarray(times, dtype=np.float64) + 0.0  # -0.0 stamps as 0.0
    bad = ~((times >= 0) & (times <= MAX_STAMP_SECONDS))  # NaN fails both
    if bad.any():
        raise ConfigError("timestamp must be finite and non-negative, at most 2**45 s, "
                          f"got {times[bad.argmax()].item()}")
    if style not in _LAYOUTS:
        raise ConfigError(f"unknown timestamp style {style!r}")
    min_digits, tail = _LAYOUTS[style]
    numbers = _stamp_numbers(times, style)
    width = max(min_digits, len(str(numbers.max())))
    text = "<" + "#" * (width - tail.count("#")) + tail
    slots = [i for i, c in enumerate(text) if c == "#"]
    rows = np.tile(np.frombuffer(text.encode(), np.uint8), (len(times), 1))
    rest = numbers
    for slot in reversed(slots):  # numpy divides fast by a scalar, but not by an array
        quotient = rest // 10
        rows[:, slot] = rest - quotient * 10 + ord("0")
        rest = quotient
    powers = np.array([10 ** p for p in range(width)], dtype=np.int64)
    dropped = width - np.maximum(min_digits, np.searchsorted(powers, numbers, side="right"))
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, slots] = np.arange(width) >= dropped[:, None]
    return rows[keep], len(text) - dropped


def format_timestamp(t: float, style: str = "seconds") -> str:
    """Render a time offset as timestamp text.

    ``seconds`` gives tenths of a second with half-up rounding, e.g.
    ``<3.0 seconds>``.  ``hms`` gives ``<HH:MM:SS>`` with zero padding,
    seconds truncated toward zero, and hours bounded by t <= MAX_STAMP_SECONDS.
    """
    stamp, _ = _render_stamps([t], style)
    return stamp.tobytes().decode("ascii")


def parse_timestamp(text: str) -> float:
    """Invert :func:`format_timestamp` (seconds value for either style); a
    stamp above ``MAX_STAMP_SECONDS``, which format never writes, is rejected."""
    m = _HMS_RE.fullmatch(text)
    if m:
        h, mnt, s = (int(g) for g in m.groups())
        if mnt >= 60 or s >= 60:
            raise ValueError(f"minutes/seconds out of range in {text!r}")
        seconds = h * 3600 + mnt * 60 + s  # an int: compared before float() can overflow
    elif m := _SECONDS_RE.fullmatch(text):
        seconds = float(m.group(1))
    else:
        raise ValueError(f"not a timestamp: {text!r}")
    if seconds > MAX_STAMP_SECONDS:
        raise ValueError(f"timestamp above 2**45 s: {text!r}")
    return float(seconds)


def tokenize(text: str) -> list[int]:
    """UTF-8 byte tokenization; every byte maps to its own id."""
    return list(text.encode("utf-8"))


def detokenize(ids: Sequence[int]) -> str:
    for i, t in enumerate(ids):
        if not 0 <= t < BYTE_VOCAB_SIZE:
            raise ValueError(f"token {t} at position {i} is not a byte value")
    return bytes(ids).decode("utf-8")


def interleave_timestamps(frames: Sequence[float], group_size: int = 2,
                          style: str = "seconds", gh: int = 1,
                          gw: int = 1) -> MultimodalSequence:
    """Group frames and prefix each group with its start timestamp as text.

    Frames are split into consecutive runs of ``group_size`` (the last run
    may be short); each run becomes one frame group preceded by the byte
    tokens of its first frame's formatted time.  All start times are rendered
    in one array pass, byte for byte as :func:`format_timestamp` writes them.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if not frames.size:
        raise ConfigError("interleave_timestamps needs at least one frame")
    if not (is_integer(group_size) and group_size >= 1):
        raise ConfigError(f"group_size must be an integer >= 1, got {group_size}")
    first = np.arange(0, len(frames), group_size)
    starts = frames[first]
    ends = frames[np.minimum(first + group_size, len(frames)) - 1]
    tokens, lengths = _render_stamps(starts, style)
    # Text then frames for each group: (4, groups, 2), flattened to (4, elements).  The
    # dtype comes from gh and gw, so a non-integer grid fails the sequence check uncast.
    columns = np.zeros((4, len(starts), 2), dtype=np.result_type(gh, gw))
    columns[0] = (TEXT, FRAMES)
    columns[1, :, 0] = lengths
    columns[1:, :, 1] = np.array([[gh * gw], [gh], [gw]])
    return MultimodalSequence(columns.reshape(4, -1), tokens, starts, ends)


def position_id_range_report(seq: MultimodalSequence,
                             scheme: str = "textual_timestamp",
                             granularity: float = 0.1) -> dict[str, float]:
    """Density statistics of the temporal ids assigned to frame groups.

    Under ``textual_timestamp`` the groups take the ids produced by the
    position assignment (one consecutive integer per group); under
    ``absolute_time`` each group's id is its start time divided by the
    granularity, rounded half up.  ``sparsity`` is the occupied span
    divided by the number of distinct ids, so consecutive ids score
    exactly 1 regardless of where the run starts.
    """
    if scheme == "textual_timestamp":
        t_ids = mrope.frame_group_ids(seq)[:, 0]
    elif scheme == "absolute_time":
        if not (math.isfinite(granularity) and granularity > 0):
            raise ConfigError(f"granularity must be finite and positive, got {granularity}")
        # Floats, not int64: ids of long clips at fine granularity pass 2**63.
        with np.errstate(over="ignore"):
            t_ids = np.floor(seq.start_times / granularity + 0.5)
        if not np.isfinite(t_ids).all():
            raise ConfigError(f"absolute-time ids overflow at granularity {granularity}")
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    if not len(t_ids):
        raise ConfigError("sequence has no frame groups")
    distinct = np.unique(t_ids)
    low, high = int(distinct[0]), int(distinct[-1])
    return {
        "max_t": high,
        "min_t": low,
        "count_t_distinct": len(distinct),
        "sparsity": (high - low + 1) / len(distinct),
    }
