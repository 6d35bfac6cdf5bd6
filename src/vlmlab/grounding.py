"""Normalized grounding coordinates and their JSON interchange formats.

Pixel coordinates are mapped onto the integer range [0, 1000] regardless
of image size, so detections are resolution independent.  Parsers and
serializers cover four record kinds:

* ``box2d``  - ``{"bbox_2d": [x1, y1, x2, y2], "label": ...}``
* ``point``  - ``{"point_2d": [x, y], "label": ...}``
* ``box3d``  - ``{"bbox_3d": [x_center, y_center, z_center, x_size,
  y_size, z_size, roll, pitch, yaw], "label": ...}`` (meters / radians)
* ``count``  - ``{"count": n, "label": ...}`` (direct counting)

Serialization is canonical: fixed key order, single-space separators,
byte-stable, and re-parses to identical records.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import GroundingParseError

COORD_MAX = 1000
_FLOAT_MAX = sys.float_info.max

_KIND_KEYS = {"box2d": "bbox_2d", "point": "point_2d", "box3d": "bbox_3d", "count": "count"}
_KIND_ARITY = {"box2d": 4, "point": 2, "box3d": 9}


@dataclass(frozen=True)
class NormalizedBox:
    x1: int
    y1: int
    x2: int
    y2: int
    label: str = ""

    def __post_init__(self):
        for name in ("x1", "y1", "x2", "y2"):
            v = getattr(self, name)
            if type(v) is not int or not 0 <= v <= COORD_MAX:
                raise ValueError(f"{name}={v!r} outside [0, {COORD_MAX}]")
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"box corners out of order: ({self.x1},{self.y1})-({self.x2},{self.y2})")

    def area(self) -> int:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True)
class NormalizedPoint:
    x: int
    y: int
    label: str = ""

    def __post_init__(self):
        for name in ("x", "y"):
            v = getattr(self, name)
            if type(v) is not int or not 0 <= v <= COORD_MAX:
                raise ValueError(f"{name}={v!r} outside [0, {COORD_MAX}]")


@dataclass(frozen=True)
class Box3D:
    x_center: float
    y_center: float
    z_center: float
    x_size: float
    y_size: float
    z_size: float
    roll: float
    pitch: float
    yaw: float
    label: str = ""

    def __post_init__(self):
        if min(self.x_size, self.y_size, self.z_size) < 0:
            raise ValueError("3D box sizes must be non-negative")

    def params(self) -> list[float]:
        return [self.x_center, self.y_center, self.z_center,
                self.x_size, self.y_size, self.z_size,
                self.roll, self.pitch, self.yaw]


@dataclass(frozen=True)
class CountRecord:
    count: int
    label: str = ""

    def __post_init__(self):
        if type(self.count) is not int or self.count < 0:
            raise ValueError(f"count must be a non-negative integer, got {self.count!r}")


def normalize(v: float, dim: int) -> int:
    """Map a pixel coordinate in [0, dim] to an integer in [0, 1000].

    Rounding is half-up, computed in exact rational arithmetic.
    """
    if dim < 1:
        raise ValueError(f"image dimension must be >= 1, got {dim}")
    if not 0 <= v <= dim:
        raise ValueError(f"coordinate {v} outside image extent [0, {dim}]")
    n = math.floor(Fraction(v) * COORD_MAX / dim + Fraction(1, 2))
    return min(max(n, 0), COORD_MAX)


def denormalize(n: int, dim: int) -> float:
    """Map a normalized coordinate back to pixel units (real-valued)."""
    if dim < 1:
        raise ValueError(f"image dimension must be >= 1, got {dim}")
    if not 0 <= n <= COORD_MAX:
        raise ValueError(f"normalized coordinate {n} outside [0, {COORD_MAX}]")
    return n * dim / COORD_MAX


def normalize_box(x1: float, y1: float, x2: float, y2: float,
                  width: int, height: int, label: str = "") -> NormalizedBox:
    return NormalizedBox(normalize(x1, width), normalize(y1, height),
                         normalize(x2, width), normalize(y2, height), label)


def _check_number(value, kind: str, index: int):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GroundingParseError(f"element {index}: non-numeric entry in '{_KIND_KEYS[kind]}'")


def _coerce_normalized(value, kind: str, index: int) -> int:
    _check_number(value, kind, index)
    if isinstance(value, float) and not value.is_integer():
        raise GroundingParseError(
            f"element {index}: normalized coordinates must be integers, got {value}")
    return int(value)


def parse_grounding_json(text: str, kind: str):
    """Parse a grounding JSON array into typed records.

    Rejects malformed JSON, wrong arity, out-of-range normalized
    coordinates, non-finite 3D box values, non-integer counts and missing
    labels, naming the offending element index.
    """
    if kind not in _KIND_KEYS:
        raise GroundingParseError(f"unknown kind {kind!r}; expected one of {sorted(_KIND_KEYS)}")
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # As for configs: malformed text, an over-long integer or too deep a nesting.
        raise GroundingParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise GroundingParseError(f"top level must be a JSON array, got {type(payload).__name__}")

    key, arity = _KIND_KEYS[kind], _KIND_ARITY.get(kind)
    records = []
    for i, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise GroundingParseError(f"element {i}: expected an object")
        if key not in entry:
            raise GroundingParseError(f"element {i}: missing '{key}'")
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            raise GroundingParseError(f"element {i}: missing label")
        value = entry[key]
        if arity is not None and (not isinstance(value, list) or len(value) != arity):
            got = len(value) if isinstance(value, list) else type(value).__name__
            raise GroundingParseError(
                f"element {i}: expected {arity} numbers in '{key}', got {got}")
        try:
            if kind == "count":
                records.append(CountRecord(value, label))
            elif kind == "point":
                x, y = (_coerce_normalized(c, kind, i) for c in value)
                records.append(NormalizedPoint(x, y, label))
            elif kind == "box2d":
                x1, y1, x2, y2 = (_coerce_normalized(c, kind, i) for c in value)
                records.append(NormalizedBox(x1, y1, x2, y2, label))
            else:
                for c in value:
                    _check_number(c, kind, i)
                    # False for NaN and the infinities; also bounds huge integer literals.
                    if not -_FLOAT_MAX <= c <= _FLOAT_MAX:
                        raise GroundingParseError(f"element {i}: non-finite entry in '{key}'")
                records.append(Box3D(*(float(c) for c in value), label=label))
        except GroundingParseError:
            raise
        except ValueError as exc:
            raise GroundingParseError(f"element {i}: {exc}") from exc
    return records


def _json_number(v: float):
    # Emit integral floats as ints so serialize(parse(s)) stays byte-stable.
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


def serialize_grounding_json(records) -> str:
    """Canonical JSON for a list of grounding records."""
    entries = []
    for r in records:
        if isinstance(r, NormalizedPoint):
            entries.append({"point_2d": [r.x, r.y], "label": r.label})
        elif isinstance(r, NormalizedBox):
            entries.append({"bbox_2d": [r.x1, r.y1, r.x2, r.y2], "label": r.label})
        elif isinstance(r, Box3D):
            entries.append({"bbox_3d": [_json_number(p) for p in r.params()], "label": r.label})
        elif isinstance(r, CountRecord):
            entries.append({"count": r.count, "label": r.label})
        else:
            raise TypeError(f"cannot serialize {type(r).__name__}")
    return json.dumps(entries, separators=(", ", ": "), ensure_ascii=False, allow_nan=False)


def iou(a: NormalizedBox, b: NormalizedBox) -> float:
    """Intersection over union of two normalized boxes (0 when union is empty)."""
    ix = max(0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = a.area() + b.area() - inter
    if union == 0:
        return 0.0
    return float(Fraction(inter, union))
