"""Multimodal sequences held as arrays, and their JSON manifest form.

A sequence is an ordered list of text spans, image blocks, and video frame
groups.  Grids are given in visual tokens (post-merge).  A
:class:`MultimodalSequence` stores that list as arrays: one per-element
column block (kind, token count, gh, gw), every text token id in order, and
the start and end time of each frame group.  ``MultimodalSequence.of``
builds one from element objects, and ``elements`` gives them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ConfigError

# Element kinds in layout columns.
TEXT, IMAGE, FRAMES = 0, 1, 2


def check_frame_groups(start_times, end_times, gh, gw) -> None:
    """The one check on frame groups: finite times with 0 <= start <= end
    and a grid of at least 1x1.  Each argument is a scalar or an array with
    one entry per group."""
    start = np.asarray(start_times, dtype=np.float64)
    end = np.asarray(end_times, dtype=np.float64)
    bad = ~(np.isfinite(start) & np.isfinite(end) & (0 <= start) & (start <= end))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ConfigError(
            f"frame group times must be finite and satisfy 0 <= start <= end, "
            f"got [{start.flat[i]}, {end.flat[i]}]")
    gh, gw = np.broadcast_arrays(gh, gw)
    bad = (gh < 1) | (gw < 1)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ConfigError(f"frame grid must be at least 1x1, got {gh.flat[i]}x{gw.flat[i]}")


@dataclass(frozen=True)
class TextSpan:
    token_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "token_ids", tuple(map(int, self.token_ids)))

    def token_count(self) -> int:
        return len(self.token_ids)


@dataclass(frozen=True)
class ImageBlock:
    gh: int
    gw: int

    def __post_init__(self):
        if self.gh < 1 or self.gw < 1:
            raise ConfigError(f"image grid must be at least 1x1, got {self.gh}x{self.gw}")

    def token_count(self) -> int:
        return self.gh * self.gw


@dataclass(frozen=True)
class FrameGroup:
    start_time: float
    end_time: float
    gh: int
    gw: int

    def __post_init__(self):
        check_frame_groups(self.start_time, self.end_time, self.gh, self.gw)

    def token_count(self) -> int:
        return self.gh * self.gw


SequenceElement = TextSpan | ImageBlock | FrameGroup


@dataclass(frozen=True, eq=False)
class MultimodalSequence:
    """A multimodal sequence held as arrays.

    Element e has kind ``columns[0, e]`` (TEXT, IMAGE or FRAMES), token count
    ``columns[1, e]`` and grid ``columns[2, e]`` x ``columns[3, e]`` (0 x 0
    for text).  Text spans take their ids in order from ``tokens``; frame
    group g covers ``start_times[g]`` to ``end_times[g]``.  ``elements``
    gives the same sequence as element objects, built on first access.
    """

    columns: np.ndarray  # (4, elements) int64
    tokens: np.ndarray  # (text tokens,) integer ids
    start_times: np.ndarray  # (groups,) float64
    end_times: np.ndarray  # (groups,) float64

    def __post_init__(self):
        kind, _, gh, gw = self.columns
        frames = kind == FRAMES
        check_frame_groups(self.start_times, self.end_times, gh[frames], gw[frames])

    @classmethod
    def of(cls, elements: Iterable[SequenceElement]) -> MultimodalSequence:
        """Build a sequence from text spans, image blocks and frame groups."""
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
        return cls(np.array(rows, dtype=np.int64).reshape(-1, 4).T,
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


def sequence_to_manifest(seq: MultimodalSequence) -> dict:
    """Serialize a sequence to a plain-JSON manifest."""
    elements = []
    for e in seq.elements:
        if isinstance(e, TextSpan):
            elements.append({"kind": "text", "token_ids": list(e.token_ids)})
        elif isinstance(e, ImageBlock):
            elements.append({"kind": "image", "gh": e.gh, "gw": e.gw})
        else:
            elements.append({
                "kind": "frame_group",
                "start_time": e.start_time,
                "end_time": e.end_time,
                "gh": e.gh,
                "gw": e.gw,
            })
    return {"schema_version": 1, "elements": elements}


def sequence_from_manifest(manifest: dict) -> MultimodalSequence:
    """Rebuild a sequence from its manifest form."""
    elements: list[SequenceElement] = []
    for i, entry in enumerate(manifest.get("elements", [])):
        kind = entry.get("kind")
        if kind == "text":
            elements.append(TextSpan(tuple(entry["token_ids"])))
        elif kind == "image":
            elements.append(ImageBlock(entry["gh"], entry["gw"]))
        elif kind == "frame_group":
            elements.append(FrameGroup(
                start_time=entry["start_time"], end_time=entry["end_time"],
                gh=entry["gh"], gw=entry["gw"],
            ))
        else:
            raise ConfigError(f"element {i}: unknown kind {kind!r}")
    return MultimodalSequence.of(elements)
