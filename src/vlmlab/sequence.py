"""Multimodal sequence elements and their JSON manifest form.

A sequence is an ordered list of text spans, image blocks, and video frame
groups.  Grids are given in visual tokens (post-merge).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


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
        if self.start_time < 0 or self.end_time < self.start_time:
            raise ConfigError(
                f"frame group times must satisfy 0 <= start <= end, "
                f"got [{self.start_time}, {self.end_time}]")
        if self.gh < 1 or self.gw < 1:
            raise ConfigError(f"frame grid must be at least 1x1, got {self.gh}x{self.gw}")

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
