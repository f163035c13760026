"""The per-shape checkers that the compiled validation closures must agree with.

Each checker is ``check(raw, ctype, path, diags)``: it appends its
findings to ``diags`` and returns the typed value, or None when the
input is unusable. They state each shape's rules in their plainest form
and are kept here unchanged as the reference of
``test_compiled_closures_match_per_component_checkers``; the value
classes come from ``dsdl.validation`` so that results compare equal.
"""

from __future__ import annotations

import datetime
import math

from dsdl.diagnostics import Diagnostic, LocatorError, error, warning
from dsdl.locator import parse_locator
from dsdl.schema import ClassDomain
from dsdl.validation import Box, ImageShapeValue, IntervalValue, KeypointSet, MediaRef, RotatedBox


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _type_name(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "list"
    if isinstance(value, dict):
        return "mapping"
    return type(value).__name__


def _fail(diags: list[Diagnostic], code: str, path: str, message: str) -> None:
    """Record an error; returns ``None``, the value of an unusable input."""
    diags.append(error(code, path, message))


# -- scalars ------------------------------------------------------------------


def _check_bool(raw, ctype, path, diags):
    if isinstance(raw, bool):
        return raw
    return _fail(diags, "TYPE_MISMATCH", path, f"expected a boolean, got {_type_name(raw)}")


def _check_int(raw, ctype, path, diags):
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, float):
        return _fail(diags, "TYPE_MISMATCH", path, f"expected an integer, got non-integral {raw}")
    if _is_number(raw):
        return raw
    return _fail(diags, "TYPE_MISMATCH", path, f"expected an integer, got {_type_name(raw)}")


def _check_num(raw, ctype, path, diags):
    if not _is_number(raw):
        return _fail(diags, "TYPE_MISMATCH", path, f"expected a number, got {_type_name(raw)}")
    if isinstance(raw, float) and not math.isfinite(raw):
        return _fail(diags, "RANGE", path, f"number must be finite, got {raw}")
    return raw


def _check_str(raw, ctype, path, diags):
    if isinstance(raw, str):
        return raw
    return _fail(diags, "TYPE_MISMATCH", path, f"expected a string, got {_type_name(raw)}")


def _check_id(raw, ctype, path, diags):
    """InstanceID and UniqueID: an integer or a string, kept as a string."""
    if isinstance(raw, str):
        return raw
    if isinstance(raw, int) and not isinstance(raw, bool):
        return str(raw)
    return _fail(diags, "TYPE_MISMATCH", path, f"{ctype.head} must be an integer or string, got {_type_name(raw)}")


# -- fixed-arity numeric shapes -------------------------------------------------


def _numbers(raw, arity: int, path: str, diags: list[Diagnostic], what: str) -> tuple | None:
    """``raw`` as a tuple of ``arity`` finite numbers, or None after an error."""
    if not isinstance(raw, list):
        return _fail(diags, "TYPE_MISMATCH", path, f"{what} must be a list, got {_type_name(raw)}")
    if len(raw) != arity:
        return _fail(diags, "ARITY", path, f"{what} requires exactly {arity} values, got {len(raw)}")
    for i, item in enumerate(raw):
        if not _is_number(item):
            return _fail(diags, "TYPE_MISMATCH", f"{path}/{i}", f"{what} component must be a number")
        if isinstance(item, float) and not math.isfinite(item):
            return _fail(diags, "RANGE", f"{path}/{i}", f"{what} component must be finite, got {item}")
    return tuple(raw)


def _check_coord(raw, ctype, path, diags):
    return _numbers(raw, 3 if ctype.shape == "coord3d" else 2, path, diags, ctype.head)


def _check_interval(raw, ctype, path, diags):
    values = _numbers(raw, 2, path, diags, "Interval")
    if values is None:
        return None
    begin, end = values
    if begin > end:
        return _fail(diags, "RANGE", path, f"interval begin {begin} exceeds end {end}")
    return IntervalValue(begin, end)


def _check_bbox(raw, ctype, path, diags):
    values = _numbers(raw, 4, path, diags, "BBox")
    if values is None:
        return None
    x, y, w, h = values
    if w < 0 or h < 0:
        return _fail(diags, "RANGE", path, f"BBox width/height must be non-negative, got {w}x{h}")
    return Box(x, y, w, h)


def _check_image_shape(raw, ctype, path, diags):
    values = _numbers(raw, 2, path, diags, "ImageShape")
    if values is None:
        return None
    if any(isinstance(v, float) and not v.is_integer() for v in values):
        return _fail(diags, "TYPE_MISMATCH", path, "ImageShape values must be integers")
    width, height = (int(v) for v in values)
    if width <= 0 or height <= 0:
        return _fail(diags, "RANGE", path, f"ImageShape values must be positive, got {[width, height]}")
    return ImageShapeValue(width, height)


def _check_rotated_bbox(raw, ctype, path, diags):
    mode = ctype.arg("mode")
    measure = ctype.args.get("measure", "radian")
    values = _numbers(raw, 8 if mode == "xyxy" else 5, path, diags, f"RotatedBBox[mode={mode}]")
    if values is None:
        return None
    if mode == "xywht":
        angle = values[4]
        bound, unit = (180.0, "degrees") if measure == "degree" else (math.pi, "radians")
        if not (-bound < angle < bound):
            return _fail(diags, "RANGE", path, f"rotation angle {angle} outside (-{bound}, {bound}) {unit}")
    return RotatedBox(mode, measure, values)


def _check_keypoint(raw, ctype, path, diags):
    dom: ClassDomain = ctype.arg("dom")
    if not isinstance(raw, list):
        return _fail(diags, "TYPE_MISMATCH", path, f"Keypoint value must be a flat list, got {_type_name(raw)}")
    expected = 3 * len(dom.classes)
    if len(raw) != expected:
        message = f"keypoint list for {dom.name} ({len(dom.classes)} classes) requires {expected} values, got {len(raw)}"
        return _fail(diags, "ARITY", path, message)
    values = _numbers(raw, expected, path, diags, "keypoint")
    if values is None:
        return None
    return KeypointSet(dom.name, tuple(values[i:i + 3] for i in range(0, expected, 3)))


def _check_polygon(raw, ctype, path, diags):
    if not isinstance(raw, list):
        return _fail(diags, "TYPE_MISMATCH", path, f"Polygon must be a list, got {_type_name(raw)}")
    if not raw:
        return _fail(diags, "ARITY", path, "Polygon requires at least one ring")

    def is_point(item) -> bool:
        return isinstance(item, list) and len(item) == 2 and all(_is_number(v) for v in item)

    wrapped = all(is_point(item) for item in raw)
    rings = []
    for ri, ring in enumerate([raw] if wrapped else raw):
        ring_path = path if wrapped else f"{path}/{ri}"
        if not isinstance(ring, list):
            return _fail(diags, "TYPE_MISMATCH", ring_path, "polygon ring must be a list of points")
        if len(ring) < 3:
            return _fail(diags, "ARITY", ring_path, f"polygon ring requires at least 3 points, got {len(ring)}")
        for pi, point in enumerate(ring):
            if not isinstance(point, list) or len(point) != 2:
                return _fail(diags, "ARITY", f"{ring_path}/{pi}", "polygon point must be an [x, y] pair")
            if not all(_is_number(v) for v in point):
                return _fail(diags, "TYPE_MISMATCH", f"{ring_path}/{pi}", "polygon point must be numeric")
            for ci, v in enumerate(point):
                if isinstance(v, float) and not math.isfinite(v):
                    message = f"polygon coordinate must be finite, got {v}"
                    return _fail(diags, "RANGE", f"{ring_path}/{pi}/{ci}", message)
        rings.append(tuple((x, y) for x, y in ring))
    return tuple(rings)


# -- dates, labels, media -------------------------------------------------------


def _check_datetime(raw, ctype, path, diags):
    """Date and Time: ISO 8601, or the type's ``fmt`` when it has one."""
    kind = ctype.shape
    if not isinstance(raw, str):
        return _fail(diags, "TYPE_MISMATCH", path, f"{kind} value must be a string, got {_type_name(raw)}")
    fmt = ctype.arg("fmt")
    try:
        if fmt is None:
            return (datetime.date if kind == "date" else datetime.time).fromisoformat(raw)
        parsed = datetime.datetime.strptime(raw, fmt)
        return parsed.date() if kind == "date" else parsed.time()
    except ValueError as exc:
        expected = fmt if fmt is not None else "ISO 8601"
        return _fail(diags, "DATE_FORMAT", path, f"{raw!r} does not match {expected}: {exc}")


def _check_media(raw, ctype, path, diags):
    """A locator string or a ``{$loc, $descr}`` mapping; Text may also be inline."""
    text = ctype.shape == "text"
    if isinstance(raw, str) and text:
        # inline string content is the text itself; loading through a
        # locator requires the explicit {$loc: ...} form
        return raw
    descr = None
    if isinstance(raw, dict):
        if "$loc" not in raw:
            return _fail(diags, "LOC_SYNTAX", path, f"{ctype.head} mapping lacks required key $loc")
        if not isinstance(raw["$loc"], str):
            return _fail(diags, "LOC_SYNTAX", f"{path}/$loc", "$loc must be a string")
        descr = raw.get("$descr")
        if descr is not None and not isinstance(descr, dict):
            return _fail(diags, "TYPE_MISMATCH", f"{path}/$descr", "$descr must be a mapping")
        for key in raw:
            if key not in ("$loc", "$descr"):
                message = f"unexpected key {key!r} in {ctype.head} mapping"
                diags.append(warning("FIELD_UNKNOWN", f"{path}/{key}", message))
        raw = raw["$loc"]
    elif not isinstance(raw, str):
        if text:
            what = "Text value must be a string or $loc mapping"
        else:
            what = f"{ctype.head} value must be an object locator string or a $loc mapping"
        return _fail(diags, "TYPE_MISMATCH", path, f"{what}, got {_type_name(raw)}")
    try:
        locator = parse_locator(raw)
    except LocatorError as exc:
        return _fail(diags, "LOC_SYNTAX", path, exc.diagnostic.message)
    return MediaRef(ctype.head, locator, tuple(descr.items()) if descr is not None else None)
