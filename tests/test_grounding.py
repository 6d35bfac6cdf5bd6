import json
import math
import os
import string
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vlmlab
from vlmlab.errors import GroundingParseError
from vlmlab.grounding import (Box3D, CountRecord, NormalizedBox, NormalizedPoint, denormalize,
                              iou, normalize, normalize_box, parse_grounding_json,
                              serialize_grounding_json)
from vlmlab.seeding import Rng


class TestNormalize:
    def test_full_image_box(self):
        for w, h in ((1, 1), (640, 480), (8192, 31)):
            box = normalize_box(0, 0, w, h, w, h)
            assert (box.x1, box.y1, box.x2, box.y2) == (0, 0, 1000, 1000)

    def test_exact_proportion(self):
        assert normalize(512, 1024) == 500

    def test_rational_rounding(self):
        assert normalize(1, 3) == 333
        assert normalize(2, 3) == 667

    def test_half_rounds_up(self):
        # 1*1000/2000 = 0.5 exactly
        assert normalize(1, 2000) == 1

    def test_rational_and_float_coordinates(self):
        assert normalize(Fraction(1, 2), 1) == normalize(0.5, 1) == 500
        assert normalize(np.int64(512), 1024) == normalize(np.float64(512.0), 1024) == 500

    def test_out_of_extent_rejected(self):
        with pytest.raises(ValueError, match="outside image extent"):
            normalize(11, 10)
        with pytest.raises(ValueError, match="outside image extent"):
            normalize(-1, 10)

    def test_round_trip_bound_exhaustive_small(self):
        for dim in range(1, 65):
            for v in range(dim + 1):
                back = denormalize(normalize(v, dim), dim)
                assert abs(back - v) <= dim / 2000 + 1e-9, (v, dim)

    def test_round_trip_bound_sampled_large(self):
        rng = Rng(5)
        for trial in range(2000):
            r = rng.split(trial)
            dim = int(r.split("d").integers(65, 8193))
            v = int(r.split("v").integers(0, dim + 1))
            back = denormalize(normalize(v, dim), dim)
            assert abs(back - v) <= dim / 2000 + 1e-9

    def test_resolution_invariance_under_integer_scaling(self):
        rng = Rng(6)
        for trial in range(500):
            r = rng.split(trial)
            dim = int(r.split("d").integers(1, 2000))
            v = int(r.split("v").integers(0, dim + 1))
            factor = int(r.split("f").integers(1, 9))
            assert normalize(v, dim) == normalize(v * factor, dim * factor)

    @pytest.mark.parametrize("call, message", [
        (lambda: normalize(5, float("inf")), "image dimension must be an integer >= 1, got inf"),
        (lambda: normalize(5, 10.5), "image dimension must be an integer >= 1, got 10.5"),
        (lambda: normalize(1, True), "image dimension must be an integer >= 1, got True"),
        (lambda: normalize(0, 0), "image dimension must be an integer >= 1, got 0"),
        (lambda: normalize(True, 10), "coordinate must be a number, got True"),
        (lambda: normalize("5", 10), "coordinate must be a number, got '5'"),
        (lambda: normalize(None, 10), "coordinate must be a number, got None"),
        (lambda: normalize([1], 10), "coordinate must be a number, got [1]"),
        (lambda: normalize_box(True, 0, 1, 1, 10, 10), "coordinate must be a number, got True"),
        (lambda: denormalize(500.5, 1000), "normalized coordinate must be an integer, got 500.5"),
        (lambda: denormalize(True, 1000), "normalized coordinate must be an integer, got True"),
        (lambda: denormalize(500, 10.5), "image dimension must be an integer >= 1, got 10.5"),
        (lambda: denormalize(500, float("nan")), "image dimension must be an integer >= 1, got nan"),
        (lambda: denormalize(1001, 1000), "normalized coordinate 1001 outside [0, 1000]"),
    ], ids=["normalize-dim-inf", "normalize-dim-float", "normalize-dim-bool", "normalize-dim-0",
            "normalize-coordinate-bool", "normalize-coordinate-str", "normalize-coordinate-none",
            "normalize-coordinate-list", "normalize-box-coordinate-bool",
            "denormalize-coordinate-float", "denormalize-coordinate-bool",
            "denormalize-dim-float", "denormalize-dim-nan", "denormalize-coordinate-above-1000"])
    def test_bad_inputs_rejected(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


class TestParse:
    def test_point_example(self):
        records = parse_grounding_json('[{"point_2d": [500, 500], "label": "point_1"}]',
                                       "point")
        assert records == [NormalizedPoint(500, 500, "point_1")]

    def test_empty_array(self):
        assert parse_grounding_json("[]", "box2d") == []

    def test_box3d_arity_error_names_element(self):
        payload = json.dumps([{"bbox_3d": [1, 2, 3, 4, 5, 6, 7, 8], "label": "x"}])
        with pytest.raises(GroundingParseError, match="element 0: expected 9 numbers"):
            parse_grounding_json(payload, "box3d")

    def test_error_index_advances(self):
        payload = json.dumps([
            {"point_2d": [1, 2], "label": "ok"},
            {"point_2d": [1], "label": "bad"},
        ])
        with pytest.raises(GroundingParseError, match="element 1"):
            parse_grounding_json(payload, "point")

    def test_malformed_json(self):
        with pytest.raises(GroundingParseError, match="malformed JSON"):
            parse_grounding_json("[{", "point")

    def test_missing_label(self):
        with pytest.raises(GroundingParseError, match="missing label"):
            parse_grounding_json('[{"point_2d": [1, 2]}]', "point")

    def test_out_of_range_coordinate(self):
        with pytest.raises(GroundingParseError, match="outside \\[0, 1000\\]"):
            parse_grounding_json('[{"bbox_2d": [0, 0, 1200, 10], "label": "x"}]', "box2d")

    @pytest.mark.parametrize("kind, payload, message", [
        ("box2d", '[{"bbox_2d": [0, 0, 1200, 10], "label": "x"}]', "element 0: x2=1200 outside"),
        ("point", '[{"point_2d": [3, -1], "label": "x"}]', "element 0: y=-1 outside"),
        ("point", '[{"point_2d": [3, 1e300], "label": "x"}]', "element 0: y=1000.* outside"),
    ], ids=["box2d-x2", "point-y-negative", "point-y-huge"])
    def test_out_of_range_error_names_the_slot(self, kind, payload, message):
        with pytest.raises(GroundingParseError, match=message):
            parse_grounding_json(payload, kind)

    @pytest.mark.parametrize("make", [lambda: NormalizedBox(True, 0, 1, 1),
                                      lambda: NormalizedBox(0, 0, 1, True),
                                      lambda: NormalizedPoint(0, False),
                                      lambda: CountRecord(True)],
                             ids=["box-x1", "box-y2", "point-y", "count"])
    def test_records_reject_bools(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("count", ["true", "false", '"3"', "[3]", "-1", "2.0"])
    def test_count_must_be_a_non_negative_integer(self, count):
        with pytest.raises(GroundingParseError, match="element 0: count must be"):
            parse_grounding_json(f'[{{"count": {count}, "label": "x"}}]', "count")

    def test_non_integer_normalized_coordinate(self):
        with pytest.raises(GroundingParseError, match="integers"):
            parse_grounding_json('[{"point_2d": [1.5, 2], "label": "x"}]', "point")

    def test_box_corner_order_enforced(self):
        with pytest.raises(GroundingParseError, match="out of order"):
            parse_grounding_json('[{"bbox_2d": [10, 0, 5, 10], "label": "x"}]', "box2d")

    def test_box3d_negative_size_rejected(self):
        payload = json.dumps([{"bbox_3d": [0, 0, 0, -1, 1, 1, 0, 0, 0], "label": "x"}])
        with pytest.raises(GroundingParseError, match="non-negative"):
            parse_grounding_json(payload, "box3d")

    def test_unknown_kind(self):
        with pytest.raises(GroundingParseError, match="unknown kind"):
            parse_grounding_json("[]", "polygon")

    def test_top_level_must_be_array(self):
        with pytest.raises(GroundingParseError, match="array"):
            parse_grounding_json('{"point_2d": [1, 2], "label": "x"}', "point")

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "float-1e400", "int-1e400"])
    @pytest.mark.parametrize("slot", range(9))
    def test_box3d_non_finite_rejected(self, value, slot):
        params = ["0", "0", "0", "1", "1", "1", "0", "0", "0"]
        params[slot] = value
        payload = ('[{"bbox_3d": [0, 0, 0, 1, 1, 1, 0, 0, 0], "label": "ok"}, '
                   f'{{"bbox_3d": [{", ".join(params)}], "label": "x"}}]')
        with pytest.raises(GroundingParseError, match="element 1: non-finite"):
            parse_grounding_json(payload, "box3d")

    @pytest.mark.parametrize("value", [int(sys.float_info.max) + 1, -int(sys.float_info.max) - 1],
                             ids=["past-max", "past-minus-max"])
    def test_box3d_integer_past_the_float_range_rejected(self, value):
        # float() would round these to +-max rather than overflow.
        payload = json.dumps([{"bbox_3d": [0, 0, 0, 1, 1, 1, 0, 0, value], "label": "x"}])
        with pytest.raises(GroundingParseError, match="element 0: non-finite"):
            parse_grounding_json(payload, "box3d")

    @pytest.mark.parametrize("kind, payload, message", [
        ("point", '[{"point_2d": [1.5, 2], "label": "a"}, {"label": "b"}]',
         "element 0: normalized coordinates must be integers, got 1.5"),
        ("point", '[{"point_2d": [1.5, "x"], "label": "a"}]',
         "element 0: normalized coordinates must be integers, got 1.5"),
        ("box2d", '[{"bbox_2d": [0, 0, 1200, true], "label": "a"}]',
         "element 0: non-numeric entry in 'bbox_2d'"),
        ("box3d", '[{"bbox_3d": [0, 0, 0, -1, 1, 1, 0, 0, NaN], "label": "a"}]',
         "element 0: non-finite entry in 'bbox_3d'"),
    ], ids=["number-fault-before-a-later-structure-fault", "slot-0-before-slot-1",
            "every-slot-typed-before-ranges", "finiteness-before-sizes"])
    def test_first_fault_in_check_order(self, kind, payload, message):
        with pytest.raises(GroundingParseError) as exc:
            parse_grounding_json(payload, kind)
        assert str(exc.value) == message

    def test_serialize_rejects_an_unknown_record(self):
        with pytest.raises(TypeError, match="cannot serialize dict"):
            serialize_grounding_json([{"point_2d": [1, 2], "label": "a"}])

    def test_serialize_rejects_non_finite(self):
        with pytest.raises(ValueError):
            serialize_grounding_json([Box3D(float("nan"), 0, 0, 1, 1, 1, 0, 0, 0, "x")])

    @pytest.mark.parametrize("params, message", [
        ((float("nan"), 0, 0, 1, 1, 1, 0, 0, 0), "x_center=nan is not a finite number"),
        ((0, 0, 0, 1, 1, 1, 0, 0, float("inf")), "yaw=inf is not a finite number"),
        ((0, 0, 0, 1, float("-inf"), 1, 0, 0, 0), "y_size=-inf is not a finite number"),
        ((0, 0, 10 ** 400, 1, 1, 1, 0, 0, 0), "z_center=1000"),
        ((True, 0, 0, 1, 1, 1, 0, 0, 0), "x_center=True is not a finite number"),
        ((0, "a", 0, 1, 1, 1, 0, 0, 0), "y_center='a' is not a finite number"),
        ((0, 0, 0, 1, 1, None, 0, 0, 0), "z_size=None is not a finite number"),
        ((0, 0, 0, 1, -0.5, 1, 0, 0, 0), "3D box sizes must be non-negative"),
    ], ids=["nan", "inf", "negative-inf-size", "integer-past-float-range", "bool", "string",
            "none", "negative-size"])
    def test_box3d_holds_nine_finite_numbers(self, params, message):
        with pytest.raises(ValueError, match=message):
            Box3D(*params, "x")

    def test_label_must_be_valid_unicode(self):
        # JSON can spell a lone surrogate, which no UTF-8 output can carry.
        payload = ('[{"point_2d": [1, 2], "label": "ok"}, '
                   '{"point_2d": [1, 2], "label": "a\\ud800"}]')
        with pytest.raises(GroundingParseError,
                           match="^element 1: label is not valid Unicode$"):
            parse_grounding_json(payload, "point")

    def test_count_envelope(self):
        records = parse_grounding_json('[{"count": 7, "label": "apples"}]', "count")
        assert records == [CountRecord(7, "apples")]
        with pytest.raises(GroundingParseError, match="count"):
            parse_grounding_json('[{"count": 1.5, "label": "x"}]', "count")


def random_records(kind: str, rng: Rng, n: int):
    out = []
    for i in range(n):
        r = rng.split(i)
        label = "obj_" + str(int(r.split("l").integers(0, 10 ** 6)))
        if kind == "point":
            x, y = (int(v) for v in r.split("xy").integers(0, 1001, 2))
            out.append(NormalizedPoint(x, y, label))
        elif kind == "box2d":
            xs = sorted(int(v) for v in r.split("x").integers(0, 1001, 2))
            ys = sorted(int(v) for v in r.split("y").integers(0, 1001, 2))
            out.append(NormalizedBox(xs[0], ys[0], xs[1], ys[1], label))
        else:
            params = r.split("p").normal(6) * 5.0
            sizes = abs(r.split("s").normal(3))
            out.append(Box3D(params[0], params[1], params[2],
                             sizes[0], sizes[1], sizes[2],
                             params[3], params[4], params[5], label))
    return out


@pytest.mark.parametrize("kind", ["point", "box2d", "box3d"])
def test_parse_serialize_identity(kind):
    rng = Rng(11).split(kind)
    records = random_records(kind, rng, 500)
    text = serialize_grounding_json(records)
    assert parse_grounding_json(text, kind) == records
    # Serialization is canonical: stable bytes on a round trip.
    assert serialize_grounding_json(parse_grounding_json(text, kind)) == text


labels = st.text(min_size=1)
coords = st.integers(0, 1000)
finite = st.floats(allow_nan=False, allow_infinity=False)
sizes = st.floats(min_value=0.0, allow_infinity=False)
records_of_kind = {
    "point": st.builds(NormalizedPoint, coords, coords, labels),
    "box2d": st.builds(lambda xs, ys, label: NormalizedBox(min(xs), min(ys), max(xs), max(ys),
                                                           label),
                       st.tuples(coords, coords), st.tuples(coords, coords), labels),
    "box3d": st.builds(lambda c, s, a, label: Box3D(*c, *s, *a, label=label),
                       st.tuples(finite, finite, finite), st.tuples(sizes, sizes, sizes),
                       st.tuples(finite, finite, finite), labels),
    "count": st.builds(CountRecord, st.integers(min_value=0), labels),
}


@pytest.mark.parametrize("kind", sorted(records_of_kind))
@given(data=st.data())
def test_serialize_parse_round_trip(kind, data):
    records = data.draw(st.lists(records_of_kind[kind], max_size=8))
    text = serialize_grounding_json(records)
    assert parse_grounding_json(text, kind) == records
    assert serialize_grounding_json(parse_grounding_json(text, kind)) == text


def test_serialized_key_order():
    text = serialize_grounding_json([NormalizedPoint(1, 2, "a")])
    assert text == '[{"point_2d": [1, 2], "label": "a"}]'
    text = serialize_grounding_json([NormalizedBox(1, 2, 3, 4, "b")])
    assert text == '[{"bbox_2d": [1, 2, 3, 4], "label": "b"}]'


class TestIoU:
    def test_identical(self):
        a = NormalizedBox(10, 10, 200, 150)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(NormalizedBox(0, 0, 10, 10), NormalizedBox(20, 20, 30, 30)) == 0.0

    def test_hand_case(self):
        a = NormalizedBox(0, 0, 10, 10)
        b = NormalizedBox(5, 5, 15, 15)
        assert iou(a, b) == pytest.approx(float(Fraction(25, 175)), abs=1e-15)

    def test_symmetry(self):
        rng = Rng(12)
        for trial in range(200):
            a, b = random_records("box2d", rng.split(trial), 2)
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0

    def test_degenerate_union(self):
        a = NormalizedBox(5, 5, 5, 5)
        assert iou(a, a) == 0.0


@settings(max_examples=300, deadline=None)
@given(boxes=st.lists(records_of_kind["box2d"], min_size=2, max_size=2),
       shared=st.booleans(), degenerate=st.booleans())
def test_iou_is_the_exact_ratio_rounded_once(boxes, shared, degenerate):
    a, b = boxes
    if shared:
        b = a
    if degenerate:  # zero width: the intersection, and maybe the union, is empty
        a = NormalizedBox(a.x1, a.y1, a.x1, a.y2)
    ix = max(0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0, min(a.y2, b.y2) - max(a.y1, b.y1))
    union = a.area() + b.area() - ix * iy
    assert iou(a, b) == (float(Fraction(ix * iy, union)) if union else 0.0)


def test_grounding_imports_no_numpy():
    # numpy's import alone would take longer than parsing a 2,000-record document.
    env = {**os.environ, "PYTHONPATH": str(Path(vlmlab.__file__).parents[1])}
    code = "import sys, vlmlab.grounding; assert 'numpy' not in sys.modules, 'numpy imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


# --- The error text of a bad document -------------------------------------------------
#
# reference_parse is the per-record parser that the column checks replaced: every
# number is checked in a Python loop and every record through its constructor.  It
# defines which element and which slot the error names, and the text.

_REFERENCE = {"box2d": ("bbox_2d", 4), "point": ("point_2d", 2), "box3d": ("bbox_3d", 9),
              "count": ("count", None)}


def _reference_number(value, key: str, index: int):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GroundingParseError(f"element {index}: non-numeric entry in '{key}'")


def _reference_normalized(value, key: str, index: int) -> int:
    _reference_number(value, key, index)
    if isinstance(value, float) and not value.is_integer():
        raise GroundingParseError(
            f"element {index}: normalized coordinates must be integers, got {value}")
    return int(value)


def reference_parse(text: str, kind: str):
    payload = json.loads(text)
    key, arity = _REFERENCE[kind]
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
                x, y = (_reference_normalized(c, key, i) for c in value)
                records.append(NormalizedPoint(x, y, label))
            elif kind == "box2d":
                x1, y1, x2, y2 = (_reference_normalized(c, key, i) for c in value)
                records.append(NormalizedBox(x1, y1, x2, y2, label))
            else:
                for c in value:
                    _reference_number(c, key, i)
                    if not -sys.float_info.max <= c <= sys.float_info.max:
                        raise GroundingParseError(f"element {i}: non-finite entry in '{key}'")
                records.append(Box3D(*(float(c) for c in value), label=label))
        except GroundingParseError:
            raise
        except ValueError as exc:
            raise GroundingParseError(f"element {i}: {exc}") from exc
    return records


# Written into the JSON text verbatim: json.dumps cannot spell these.
_VERBATIM = {"<1e400>": "1e400", "<-1e400>": "-1e400"}
BAD_NUMBERS = [True, False, "3", None, math.nan, math.inf, -math.inf, *_VERBATIM, 1.5, -0.5,
               -1, 1001, 10 ** 400, int(sys.float_info.max) + 1]
# (fault, the bad number it writes); each bad number is a fault of its own.
FAULTS = [("number", bad) for bad in BAD_NUMBERS] + [
    (fault, None) for fault in ("swap", "negative-size", "short", "long", "not-a-list",
                                "not-an-object", "no-key", "no-label", "empty-label",
                                "label-not-a-string")]

_coordinate = st.one_of(st.integers(0, 1000), st.integers(0, 1000).map(float))
_param = st.one_of(st.floats(-1e6, 1e6), st.integers(-100, 100))
_size = st.one_of(st.floats(0.0, 1e6), st.integers(0, 100))
_values = {
    "point": st.lists(_coordinate, min_size=2, max_size=2),
    "box2d": st.tuples(_coordinate, _coordinate, _coordinate, _coordinate).map(
        lambda c: [min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3])]),
    "box3d": st.tuples(st.lists(_param, min_size=3, max_size=3),
                       st.lists(_size, min_size=3, max_size=3),
                       st.lists(_param, min_size=3, max_size=3)).map(lambda p: [*p[0], *p[1], *p[2]]),
    "count": st.integers(0, 10 ** 6),
}


def _corrupt(entries: list, index: int, fault: str, bad, data, kind: str):
    key, arity = _REFERENCE[kind]
    entry = entries[index]
    if not isinstance(entry, dict):
        return
    value = entry.get(key)
    if fault == "number":
        if arity is None:
            entry[key] = bad
        elif isinstance(value, list) and value:
            value[data.draw(st.integers(0, len(value) - 1))] = bad
    elif fault == "swap" and kind == "box2d" and isinstance(value, list) and len(value) == 4:
        axis = data.draw(st.integers(0, 1))
        value[axis], value[axis + 2] = value[axis + 2], value[axis]
    elif fault == "negative-size" and kind == "box3d" and isinstance(value, list) and len(value) == 9:
        value[data.draw(st.integers(3, 5))] = -data.draw(st.floats(1e-3, 1e3))
    elif fault == "short" and isinstance(value, list) and value:
        value.pop()
    elif fault == "long" and isinstance(value, list):
        value.append(0)
    elif fault == "not-a-list":
        entry[key] = data.draw(st.sampled_from(["1, 2", {"x": 1}, 3]))
    elif fault == "not-an-object":
        entries[index] = data.draw(st.sampled_from([[1, 2], "x", 3, None]))
    elif fault == "no-key":
        entry.pop(key, None)
    elif fault == "no-label":
        entry.pop("label", None)
    elif fault == "empty-label":
        entry["label"] = ""
    elif fault == "label-not-a-string":
        entry["label"] = data.draw(st.sampled_from([3, None, ["a"]]))


@pytest.mark.parametrize("kind", sorted(_REFERENCE))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_error_text_matches_the_per_record_reference(kind, data):
    key, _ = _REFERENCE[kind]
    labels = st.text(string.ascii_letters + "_ ", min_size=1, max_size=5)
    values = data.draw(st.lists(_values[kind], min_size=1, max_size=6))
    entries = [{key: v, "label": data.draw(labels)} for v in values]
    faults = data.draw(st.lists(st.tuples(st.integers(0, len(entries) - 1), st.sampled_from(FAULTS)),
                                max_size=2))
    for index, (fault, bad) in faults:
        _corrupt(entries, index, fault, bad, data, kind)
    text = json.dumps(entries)
    for marker, literal in _VERBATIM.items():
        text = text.replace(json.dumps(marker), literal)

    try:
        want = reference_parse(text, kind)
    except GroundingParseError as exc:
        with pytest.raises(GroundingParseError) as got:
            parse_grounding_json(text, kind)
        assert str(got.value) == str(exc)
    else:
        # repr tells 1 from 1.0, so the field types must match too.
        assert repr(parse_grounding_json(text, kind)) == repr(want)
