"""Multimodal sequences held as arrays.

A sequence is an ordered list of text spans, image blocks, and video frame
groups.  Grids are given in visual tokens (post-merge).  A
:class:`MultimodalSequence` stores that list as arrays: one per-element
column block (kind, token count, gh, gw), every text token id in order, and
the start and end time of each frame group.  Its constructor is the one
check of every sequence invariant; the element classes hold values only.
``MultimodalSequence.of`` builds a sequence from element objects, and
``elements`` gives them back.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ConfigError

# Element kinds in layout columns.
TEXT, IMAGE, FRAMES = 0, 1, 2


@dataclass(frozen=True)
class TextSpan:
    token_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "token_ids", tuple(map(operator.index, self.token_ids)))

    def token_count(self) -> int:
        return len(self.token_ids)


@dataclass(frozen=True)
class ImageBlock:
    gh: int
    gw: int

    def token_count(self) -> int:
        return self.gh * self.gw


@dataclass(frozen=True)
class FrameGroup:
    start_time: float
    end_time: float
    gh: int
    gw: int

    def token_count(self) -> int:
        return self.gh * self.gw


SequenceElement = TextSpan | ImageBlock | FrameGroup


def _is_int_array(a, ndim: int) -> bool:
    return isinstance(a, np.ndarray) and a.ndim == ndim and np.issubdtype(a.dtype, np.integer)


@dataclass(frozen=True, eq=False)
class MultimodalSequence:
    """A multimodal sequence held as arrays.

    Element e has kind ``columns[0, e]`` (TEXT, IMAGE or FRAMES), token count
    ``columns[1, e]`` and grid ``columns[2, e]`` x ``columns[3, e]`` (0 x 0
    for text).  Text spans take their ids in order from ``tokens``; frame
    group g covers ``start_times[g]`` to ``end_times[g]``.  ``elements``
    gives the same sequence as element objects, built on first access.

    Construction is the one check of a sequence: integer columns and tokens
    of those shapes, known kinds, text of grid 0 x 0 whose counts (>= 0) sum
    to ``len(tokens)``, visual grids of at least 1 x 1 holding gh * gw
    tokens, and finite times 0 <= start <= end, one pair per frame group.
    """

    columns: np.ndarray  # (4, elements) integer
    tokens: np.ndarray  # (text tokens,) integer ids
    start_times: np.ndarray  # (groups,) float64
    end_times: np.ndarray  # (groups,) float64

    def __post_init__(self):
        columns, tokens, start, end = self.columns, self.tokens, self.start_times, self.end_times
        if not (_is_int_array(columns, 2) and len(columns) == 4 and _is_int_array(tokens, 1)):
            raise ConfigError("columns must be a (4, elements) and tokens a flat integer array, "
                              f"got {np.asarray(columns).dtype} {np.shape(columns)} and "
                              f"{np.asarray(tokens).dtype} {np.shape(tokens)}")
        kind, count, gh, gw = columns
        text, frames = kind == TEXT, kind == FRAMES
        groups = (np.count_nonzero(frames),)
        if np.shape(start) != groups or np.shape(end) != groups:
            raise ConfigError(f"start and end times need one entry per frame group ({groups[0]}), "
                              f"got shapes {np.shape(start)} and {np.shape(end)}")
        t0, t1 = np.zeros((2, len(kind)))
        t0[frames], t1[frames] = start, end
        for bad, message in (
                (~text & (kind != IMAGE) & ~frames, "unknown kind {k}"),
                (text & ((gh != 0) | (gw != 0) | (count < 0)),
                 "text needs a 0x0 grid and a count of at least 0, got {c} on {h}x{w}"),
                (~text & ((gh < 1) | (gw < 1)), "{name} grid must be at least 1x1, got {h}x{w}"),
                (~text & (count != gh * gw), "{name} count must be {h}x{w}, got {c}"),
                (~(np.isfinite(t0) & np.isfinite(t1) & (0 <= t0) & (t0 <= t1)),
                 "frame group times must be finite and satisfy 0 <= start <= end, "
                 "got [{t0}, {t1}]")):
            if bad.any():
                e = np.flatnonzero(bad)[0]
                raise ConfigError(f"element {e}: " + message.format(
                    k=kind[e], c=count[e], h=gh[e], w=gw[e], t0=t0[e], t1=t1[e],
                    name="image" if kind[e] == IMAGE else "frame"))
        if count[text].sum() != len(tokens):
            raise ConfigError(f"text counts sum to {count[text].sum()}, "
                              f"but there are {len(tokens)} tokens")

    @classmethod
    def of(cls, elements: Iterable[SequenceElement]) -> MultimodalSequence:
        """Build a sequence from element objects, taking their grids uncast."""
        rows, tokens, times = [], [], []
        for e in elements:
            if isinstance(e, TextSpan):
                rows.append((TEXT, len(e.token_ids), 0, 0))
                tokens.extend(e.token_ids)
            elif isinstance(e, ImageBlock):
                rows.append((IMAGE, e.gh * e.gw, e.gh, e.gw))
            elif isinstance(e, FrameGroup):
                rows.append((FRAMES, e.gh * e.gw, e.gh, e.gw))
                times.append((e.start_time, e.end_time))
            else:
                raise TypeError(f"unknown element {type(e).__name__}")
        start_times, end_times = np.array(times, dtype=np.float64).reshape(-1, 2).T
        return cls(np.array(rows or np.zeros((0, 4), np.int64)).T,
                   np.array(tokens, dtype=np.int64), start_times, end_times)

    def token_count(self) -> int:
        return int(self.columns[1].sum())

    @cached_property
    def elements(self) -> tuple[SequenceElement, ...]:
        tokens = self.tokens.tolist()
        times = zip(self.start_times.tolist(), self.end_times.tolist())
        elements: list[SequenceElement] = []
        at = 0
        for kind, count, gh, gw in self.columns.T.tolist():
            if kind == TEXT:
                elements.append(TextSpan(tuple(tokens[at:at + count])))
                at += count
            elif kind == IMAGE:
                elements.append(ImageBlock(gh, gw))
            else:
                elements.append(FrameGroup(*next(times), gh, gw))
        return tuple(elements)

