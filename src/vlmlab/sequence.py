"""Multimodal sequence elements and their JSON manifest form.

A sequence is an ordered list of text spans, image blocks, and video frame
groups.  Grids are given in visual tokens (post-merge).  Position layout
reads a sequence as per-element columns (kind, token count, gh, gw); see
:meth:`MultimodalSequence.layout_columns`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Element kinds in layout columns.
TEXT, IMAGE, FRAMES = 0, 1, 2


def check_frame_groups(start_times, end_times, gh: int, gw: int) -> None:
    """The one check on frame groups: finite times with 0 <= start <= end
    and a grid of at least 1x1.  Times are scalars or equal-length arrays."""
    start = np.asarray(start_times, dtype=np.float64)
    end = np.asarray(end_times, dtype=np.float64)
    bad = ~(np.isfinite(start) & np.isfinite(end) & (0 <= start) & (start <= end))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ConfigError(
            f"frame group times must be finite and satisfy 0 <= start <= end, "
            f"got [{start.flat[i]}, {end.flat[i]}]")
    if gh < 1 or gw < 1:
        raise ConfigError(f"frame grid must be at least 1x1, got {gh}x{gw}")


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


@dataclass(frozen=True)
class MultimodalSequence:
    elements: tuple[SequenceElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))

    def token_count(self) -> int:
        return sum(e.token_count() for e in self.elements)

    def frame_groups(self) -> list[FrameGroup]:
        return [e for e in self.elements if isinstance(e, FrameGroup)]

    @property
    def start_times(self) -> np.ndarray:
        """Start time of each frame group, float64."""
        return np.array([g.start_time for g in self.frame_groups()], dtype=np.float64)

    def layout_columns(self) -> np.ndarray:
        """(4, elements) int64 rows: kind, token count, gh and gw (0 for text)."""
        rows = [(TEXT, len(e.token_ids), 0, 0) if isinstance(e, TextSpan)
                else (IMAGE if isinstance(e, ImageBlock) else FRAMES, e.gh * e.gw, e.gh, e.gw)
                for e in self.elements]
        return np.array(rows, dtype=np.int64).reshape(-1, 4).T


def sequence_to_manifest(seq: MultimodalSequence) -> dict:
    """Serialize a sequence to a plain-JSON manifest."""
    elements = []
    for e in seq.elements:
        if isinstance(e, TextSpan):
            elements.append({"kind": "text", "token_ids": list(e.token_ids)})
        elif isinstance(e, ImageBlock):
            elements.append({"kind": "image", "gh": e.gh, "gw": e.gw})
        elif isinstance(e, FrameGroup):
            elements.append({
                "kind": "frame_group",
                "start_time": e.start_time,
                "end_time": e.end_time,
                "gh": e.gh,
                "gw": e.gw,
            })
        else:
            raise TypeError(f"unknown element {type(e).__name__}")
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
    return MultimodalSequence(tuple(elements))
