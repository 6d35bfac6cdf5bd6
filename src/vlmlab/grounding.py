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
import numbers
import operator
import sys
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, repeat

from .errors import GroundingParseError

COORD_MAX = 1000
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class NormalizedPoint:
    x: int
    y: int
    label: str = ""

    def __post_init__(self):
        for name in ("x", "y"):
            v = getattr(self, name)
            if type(v) is not int or not 0 <= v <= COORD_MAX:
                raise ValueError(f"{name}={v!r} outside [0, {COORD_MAX}]")


@dataclass(frozen=True, slots=True)
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
        for f in fields(self)[:9]:
            v = getattr(self, f.name)
            # The comparison is false for NaN and the infinities, and exact for ints.
            if (not isinstance(v, (int, float)) or isinstance(v, bool)
                    or not -_FLOAT_MAX <= v <= _FLOAT_MAX):
                raise ValueError(f"{f.name}={v!r} is not a finite number")
        if min(self.x_size, self.y_size, self.z_size) < 0:
            raise ValueError("3D box sizes must be non-negative")

    def params(self) -> list[float]:
        return [self.x_center, self.y_center, self.z_center,
                self.x_size, self.y_size, self.z_size,
                self.roll, self.pitch, self.yaw]


@dataclass(frozen=True, slots=True)
class CountRecord:
    count: int
    label: str = ""

    def __post_init__(self):
        if type(self.count) is not int or self.count < 0:
            raise ValueError(f"count must be a non-negative integer, got {self.count!r}")


def _check_dimension(dim):
    # As for the record fields, a bool is not an integer.
    if type(dim) is not int or dim < 1:
        raise ValueError(f"image dimension must be an integer >= 1, got {dim!r}")


def normalize(v: float, dim: int) -> int:
    """Map a pixel coordinate in [0, dim] to an integer in [0, 1000].

    Rounding is half-up, computed in exact rational arithmetic.  ``v`` is a
    float or a rational number (int, ``Fraction``, numpy integer), not a bool.
    """
    _check_dimension(dim)
    if isinstance(v, bool) or not isinstance(v, (float, numbers.Rational)):
        raise ValueError(f"coordinate must be a number, got {v!r}")
    if not 0 <= v <= dim:
        raise ValueError(f"coordinate {v} outside image extent [0, {dim}]")
    n = math.floor(Fraction(v) * COORD_MAX / dim + Fraction(1, 2))
    return min(max(n, 0), COORD_MAX)


def denormalize(n: int, dim: int) -> float:
    """Map a normalized coordinate back to pixel units (real-valued)."""
    _check_dimension(dim)
    if type(n) is not int:
        raise ValueError(f"normalized coordinate must be an integer, got {n!r}")
    if not 0 <= n <= COORD_MAX:
        raise ValueError(f"normalized coordinate {n} outside [0, {COORD_MAX}]")
    return n * dim / COORD_MAX


def normalize_box(x1: float, y1: float, x2: float, y2: float,
                  width: int, height: int, label: str = "") -> NormalizedBox:
    return NormalizedBox(normalize(x1, width), normalize(y1, height),
                         normalize(x2, width), normalize(y2, height), label)


# kind -> (the key of its value, the value's arity (None: one number), record class)
_KINDS = {"box2d": ("bbox_2d", 4, NormalizedBox), "point": ("point_2d", 2, NormalizedPoint),
          "box3d": ("bbox_3d", 9, Box3D), "count": ("count", None, CountRecord)}


def parse_grounding_json(text: str, kind: str):
    """Parse a grounding JSON array into typed records.

    Rejects malformed JSON, wrong arity, out-of-range normalized
    coordinates, non-finite 3D box values, non-integer counts, missing
    labels and labels that are not valid Unicode, naming the offending
    element index.  Every check runs over a whole column of the document;
    only a failed one looks for the first bad element.
    """
    if kind not in _KINDS:
        raise GroundingParseError(f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}")
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # As for configs: malformed text, an over-long integer or too deep a nesting.
        raise GroundingParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise GroundingParseError(f"top level must be a JSON array, got {type(payload).__name__}")
    columns = _checked_columns(payload, kind)
    if columns is None:
        raise GroundingParseError(_first_fault(payload, kind))
    return _unchecked_records(_KINDS[kind][2], columns)


def _checked_columns(payload: list, kind: str):
    """The field columns of a document's records, or None if any entry is bad.

    Each check is one C-level pass over a column held in a plain Python
    list.  numpy stays out of this module: importing it takes longer than
    parsing a 2,000-record document.
    """
    key, arity, _ = _KINDS[kind]
    if not (set(map(type, payload)) <= {dict}
            and all(map(dict.__contains__, payload, repeat(key)))):
        return None
    labels = list(map(dict.get, payload, repeat("label")))
    if not (set(map(type, labels)) <= {str} and all(labels)):
        return None
    flat = list(map(dict.__getitem__, payload, repeat(key)))
    if arity is not None:
        if not (set(map(type, flat)) <= {list} and set(map(len, flat)) <= {arity}):
            return None
        flat = list(chain.from_iterable(flat))
    try:
        "".join(labels).encode("utf-8")
    except UnicodeEncodeError:
        return None

    types = set(map(type, flat))
    if kind == "count":
        if not (types <= {int} and min(flat, default=0) >= 0):
            return None
        return [flat, labels]
    if not types <= {int, float}:
        return None
    if kind == "box3d":
        try:
            numbers = list(map(float, flat))
        except OverflowError:  # an integer literal past the float range
            return None
        if not all(map(math.isfinite, numbers)):
            return None
        # An integer just past the float range rounds to a finite float.
        if int in types and not max(map(abs, flat)) <= _FLOAT_MAX:
            return None
        del flat
        if min(numbers[3::9] + numbers[4::9] + numbers[5::9], default=0.0) < 0:
            return None
    else:
        if float in types:
            try:
                numbers = list(map(int, flat))
            except (OverflowError, ValueError):  # the infinities and NaN
                return None
            if numbers != flat:
                return None
            del flat
        else:
            numbers = flat
        if numbers and not (min(numbers) >= 0 and max(numbers) <= COORD_MAX):
            return None
    columns = [numbers[j::arity] for j in range(arity)]
    if kind == "box2d" and (any(map(operator.gt, columns[0], columns[2]))
                            or any(map(operator.gt, columns[1], columns[3]))):
        return None
    return [*columns, labels]


def _first_fault(payload: list, kind: str) -> str:
    """The error text of the lowest-index bad entry, checked one entry at a time.

    Within an entry the checks run in a fixed order: the entry is an
    object, holds the kind's key and a non-empty label, its value has the
    kind's arity, its label encodes as UTF-8; then its numbers slot by slot
    (type, then integrality or finiteness); then the record's own checks.
    """
    key, arity, cls = _KINDS[kind]
    for i, entry in enumerate(payload):
        if not isinstance(entry, dict):
            return f"element {i}: expected an object"
        if key not in entry:
            return f"element {i}: missing '{key}'"
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            return f"element {i}: missing label"
        value = entry[key]
        if arity is not None and (not isinstance(value, list) or len(value) != arity):
            got = len(value) if isinstance(value, list) else type(value).__name__
            return f"element {i}: expected {arity} numbers in '{key}', got {got}"
        try:
            label.encode("utf-8")
        except UnicodeEncodeError:
            return f"element {i}: label is not valid Unicode"
        if arity is None:
            value = [value]
        else:
            for c in value:
                if type(c) not in (int, float):
                    return f"element {i}: non-numeric entry in '{key}'"
                if kind == "box3d" and not -_FLOAT_MAX <= c <= _FLOAT_MAX:
                    return f"element {i}: non-finite entry in '{key}'"
                if kind != "box3d" and type(c) is float and not c.is_integer():
                    return f"element {i}: normalized coordinates must be integers, got {c}"
            value = list(map(float if kind == "box3d" else int, value))
        try:
            cls(*value, label)
        except ValueError as exc:
            return f"element {i}: {exc}"
    raise AssertionError("a column check failed on a document with no bad entry")


def _unchecked_records(cls, columns: list) -> list:
    """Records of ``cls`` from its field columns, without running ``__post_init__``.

    The parser has checked every column.  Each field is stored through its
    slot descriptor, one column at a time, which bypasses the frozen
    ``__setattr__`` as the dataclass's own ``__init__`` does.
    """
    records = list(map(object.__new__, repeat(cls, len(columns[-1]))))
    for f, column in zip(fields(cls), columns):
        deque(map(getattr(cls, f.name).__set__, records, column), maxlen=0)
    return records


def serialize_grounding_json(records) -> str:
    """Canonical JSON for a list of grounding records."""
    entries = []
    for r in records:
        if isinstance(r, NormalizedPoint):
            entries.append({"point_2d": [r.x, r.y], "label": r.label})
        elif isinstance(r, NormalizedBox):
            entries.append({"bbox_2d": [r.x1, r.y1, r.x2, r.y2], "label": r.label})
        elif isinstance(r, Box3D):
            # Integral floats print as ints so serialize(parse(s)) stays byte-stable.
            entries.append({"bbox_3d": [int(p) if isinstance(p, float) and p.is_integer() else p
                                        for p in r.params()], "label": r.label})
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
    # int / int is correctly rounded: the nearest float to the exact ratio.
    return inter / union
