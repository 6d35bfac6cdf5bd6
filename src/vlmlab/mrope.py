"""Three-axis rotary position encoding for multimodal sequences.

Each token carries a (t, h, w) position triple; a sequence's ids are one
(n, 3) int64 array.  Every adjacent coordinate
pair of a head vector is driven by exactly one of the three axes and one
angular frequency; the *allocation* decides which.  Two schemes are
provided:

* ``interleaved`` - axes cycle t, h, w, t, h, w, ... across the frequency
  ladder, so every axis touches both the fast and the slow end of the
  spectrum.
* ``chunked`` - each axis owns one contiguous block of frequencies (the
  baseline the interleaved scheme improves on).

Frequencies follow the standard rotary ladder ``theta[i] = base**(-2i/D)``
for pair index ``i`` and head width ``D``.  Rotation of pair i at position
component p is by angle ``p * theta[i]`` with the convention
``(x1*cos - x2*sin, x1*sin + x2*cos)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError, is_integer
# Private, as the benchmark tracer wraps every public numerics function as an op.
from .numerics import _indices
from .sequence import FRAMES, TEXT, MultimodalSequence

AXES = ("t", "h", "w")
DEFAULT_BASE = 10000.0


@dataclass(frozen=True)
class FrequencyAllocation:
    """Assignment of axes and frequencies to rotary pairs.

    ``axis_of_pair[i]`` names the position component that drives pair i;
    ``theta[i]`` is its angular frequency.  ``chunk_split`` is retained for
    serialization of chunked allocations.
    """

    head_dim: int
    base: float
    scheme: str
    axis_of_pair: tuple[str, ...]
    theta: tuple[float, ...]
    chunk_split: tuple[int, int, int] | None = None

    def to_config(self) -> dict:
        cfg = {"head_dim": self.head_dim, "base": self.base, "scheme": self.scheme}
        if self.chunk_split is not None:
            cfg["chunk_split"] = list(self.chunk_split)
        return cfg


def default_chunk_split(num_pairs: int) -> tuple[int, int, int]:
    """Near-equal thirds; remainder pairs go to t, then h."""
    b, r = divmod(num_pairs, 3)
    return (b + (1 if r > 0 else 0), b + (1 if r > 1 else 0), b)


def build_frequency_allocation(head_dim: int, base: float = DEFAULT_BASE,
                               scheme: str = "interleaved",
                               chunk_split: Sequence[int] | None = None) -> FrequencyAllocation:
    """Construct and validate a frequency allocation."""
    if not (is_integer(head_dim) and head_dim >= 2 and head_dim % 2 == 0):
        raise ConfigError(f"head_dim must be an even integer >= 2, got {head_dim!r}")
    if not 1.0 < base < math.inf:
        raise ConfigError(f"rotary base must be finite and exceed 1, got {base}")
    num_pairs = head_dim // 2
    theta = tuple(float(base) ** (-2.0 * i / head_dim) for i in range(num_pairs))

    if scheme == "interleaved":
        if chunk_split is not None:
            raise ConfigError("chunk_split only applies to the chunked scheme")
        axis_of_pair = tuple(AXES[i % 3] for i in range(num_pairs))
        split = None
    elif scheme == "chunked":
        split = tuple(default_chunk_split(num_pairs) if chunk_split is None else chunk_split)
        if (len(split) != 3 or not all(is_integer(c) and c >= 0 for c in split)
                or sum(split) != num_pairs):
            raise ConfigError(f"chunk_split {split} must be three counts summing to {num_pairs}")
        split = tuple(map(int, split))
        axis_of_pair = tuple(
            axis for axis, count in zip(AXES, split) for _ in range(count)
        )
    else:
        raise ConfigError(f"unknown scheme {scheme!r}; expected 'interleaved' or 'chunked'")

    return FrequencyAllocation(head_dim=int(head_dim), base=float(base), scheme=scheme,
                               axis_of_pair=axis_of_pair, theta=theta, chunk_split=split)


def _layout(seq: MultimodalSequence) -> tuple[np.ndarray, ...]:
    """Six int64 columns, one row per element: token count, first token
    index, t anchor, h/w origin, grid width and element kind, from the
    sequence's columns.

    The running index (the h/w origin) is the exclusive cumulative sum of
    each element's advance: a text span's length, or the larger side of a
    grid.  Frame group t ids form a chain from the first group's running
    index, one per group.  A text span reports its own length as grid
    width, so its k-th token lands in row 0, column k.  The columns stay
    apart so that a caller needing two of them copies only those.
    """
    kind, count, gh, gw = seq.columns
    text = kind == TEXT
    frames = kind == FRAMES
    advance = np.where(text, count, np.maximum(gh, gw))
    origin = np.cumsum(advance) - advance
    chain = np.cumsum(frames) - 1 + (origin[frames][0] if frames.any() else 0)
    t0 = np.where(frames, chain, origin)
    return count, np.cumsum(count) - count, t0, origin, np.where(text, count, gw), kind


def assign_position_ids(seq: MultimodalSequence) -> np.ndarray:
    """Assign one (t, h, w) triple per token: an (n, 3) int64 array.

    Text tokens advance a running scalar index and take it on all three
    axes.  An image block starting at running index o keeps t = o and spans
    h in [o, o+rows), w in [o, o+cols); afterwards the running index resumes
    one past the largest component emitted.  Video frame groups lay out h/w
    the same way, but their temporal component forms a chain: the first
    group anchors at its running index and each later group takes the
    previous group's t plus one, so group t ids stay consecutive no matter
    how much text (e.g. timestamps) sits between them.
    """
    layout = np.stack(_layout(seq), axis=1)
    _, start, t0, origin, width, kind = np.repeat(layout, layout[:, 0], axis=0).T
    row, col = np.divmod(np.arange(len(start)) - start, width)
    text_col = (kind == TEXT) * col
    return np.stack((t0 + text_col, origin + row + text_col, origin + col), axis=1)


def frame_group_ids(seq: MultimodalSequence) -> np.ndarray:
    """The (t, h, w) id of each frame group's first token, (groups, 3) int64."""
    _, _, t0, origin, _, kind = _layout(seq)
    frames = kind == FRAMES
    origin = origin[frames]
    return np.stack((t0[frames], origin, origin), axis=1)


def rotation_tables(ids, alloc: FrequencyAllocation) -> tuple[np.ndarray, np.ndarray]:
    """The (seq, pairs) cos and sin of each token's pair angles.

    ``ids`` is any (seq, 3) integer, not bool, array-like of (t, h, w) triples.
    """
    pos = _indices(ids, "rotation_tables")
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ShapeError(f"position ids must be (seq, 3) triples, got shape {pos.shape}")
    axis_index = np.asarray([AXES.index(a) for a in alloc.axis_of_pair])
    # (seq, pairs): position component of the pair's axis times its frequency
    ang = pos[:, axis_index].astype(np.float64) * np.asarray(alloc.theta)[None, :]
    return np.cos(ang), np.sin(ang)


def spectrum_report(alloc: FrequencyAllocation) -> dict[str, dict[str, int]]:
    """Per-axis occupancy statistics over the pair indices.

    ``max_gap`` is the largest difference between consecutive assigned
    indices; axes with fewer than two indices report 0.
    """
    report: dict[str, dict[str, int]] = {}
    for axis in AXES:
        indices = [i for i, a in enumerate(alloc.axis_of_pair) if a == axis]
        if not indices:
            report[axis] = {"count": 0, "min_index": -1, "max_index": -1, "max_gap": 0}
            continue
        gaps = [b - a for a, b in zip(indices, indices[1:])]
        report[axis] = {
            "count": len(indices),
            "min_index": indices[0],
            "max_index": indices[-1],
            "max_gap": max(gaps) if gaps else 0,
        }
    return report


def spans_spectrum_ends(alloc: FrequencyAllocation, axis: str) -> bool:
    """Whether ``axis`` reaches both the low and high end of the ladder.

    The ends are bands of width max(ceil(P/3), 3) over the P pair indices
    (never wider than the ladder itself); an axis must place at least one
    pair in each band.  The floor of 3 keeps the check meaningful for tiny
    ladders, where exact thirds would be narrower than the cyclic stride.
    """
    num_pairs = len(alloc.axis_of_pair)
    band = min(num_pairs, max(-(-num_pairs // 3), 3))
    indices = [i for i, a in enumerate(alloc.axis_of_pair) if a == axis]
    if not indices:
        return False
    return indices[0] < band and indices[-1] >= num_pairs - band
