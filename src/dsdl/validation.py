"""Validation of raw sample values against concrete types.

Every builtin value shape is covered: scalars, fixed-arity coordinate
shapes, polygons, dates and times, labels, lists, records, media
references, keypoint sets, rotated boxes, ids, and image shapes.
Validation never raises for bad data; it returns a typed value (or
``None``) plus located diagnostics, so one bad sample never hides the
rest of the corpus.

A type is compiled on its first validation into one closure per type
node, through the single ``_CHECKS`` table of value shapes, and each
node keeps its closure: a struct node shared by many fields, or a type
validated by many calls, compiles once. Values are then checked by calling closures, with no
per-value dispatch. A value's path is built only when a finding is
reported, or by the struct or list that holds other values. Common
well-typed input is accepted in one pass; anything else goes to the
shape's checker, which builds every diagnostic.

Records are null-complete: a typed record carries every declared field
exactly once, with omitted optionals explicitly ``None``. A missing
required field is a ``FIELD_MISSING`` warning; ``validate_value`` makes
it an error in strict mode, and strict mode changes nothing else.
"""

from __future__ import annotations

import datetime
import math
import re
from pathlib import Path

from .diagnostics import (
    ClassLookupError,
    Diagnostic,
    DocumentError,
    DsdlError,
    LocatorError,
    Severity,
    error,
    warning,
)
from .document import LOCAL_PATH, RawDataSection, _load_json, _load_yaml, read_utf8
from .locator import ObjectLocator, parse_locator
from .resolver import ConcreteType, ResolvedSchema
from .schema import ClassDomain, ClassRef, lookup_class
from .slotted import Frozen, Slotted, set_field

_QUALIFIED_NAME = re.compile(r"(?P<dom>[A-Za-z_][A-Za-z0-9_]*)::(?P<path>.+)", re.DOTALL)
_QUALIFIED_INDEX = re.compile(r"(?P<dom>[A-Za-z_][A-Za-z0-9_]*)\[(?P<idx>\d+(\.\d+)*)\]")


class Box(Frozen):
    __slots__ = ("x", "y", "w", "h")

    def __init__(self, x: float, y: float, w: float, h: float):
        set_field(self, "x", x)
        set_field(self, "y", y)
        set_field(self, "w", w)
        set_field(self, "h", h)


class IntervalValue(Frozen):
    __slots__ = ("begin", "end")

    def __init__(self, begin: float, end: float):
        set_field(self, "begin", begin)
        set_field(self, "end", end)


class ImageShapeValue(Frozen):
    """Stored as (width, height) by convention; recorded verbatim."""

    __slots__ = ("width", "height")

    def __init__(self, width: int, height: int):
        set_field(self, "width", width)
        set_field(self, "height", height)


class RotatedBox(Frozen):
    __slots__ = ("mode", "measure", "values")

    def __init__(self, mode: str, measure: str, values: tuple[float, ...]):
        set_field(self, "mode", mode)
        set_field(self, "measure", measure)
        set_field(self, "values", values)


class KeypointSet(Frozen):
    """Flat ``[x, y, v, ...]`` triples; visibility is kept, not judged."""

    __slots__ = ("domain", "points")

    def __init__(self, domain: str, points: tuple[tuple[float, float, float], ...]):
        set_field(self, "domain", domain)
        set_field(self, "points", points)


class MediaRef(Frozen):
    __slots__ = ("class_name", "locator", "descr")

    def __init__(self, class_name: str, locator: ObjectLocator, descr: tuple | None = None):
        set_field(self, "class_name", class_name)
        set_field(self, "locator", locator)
        set_field(self, "descr", descr)

    def descriptor(self) -> dict | None:
        return dict(self.descr) if self.descr is not None else None


class Record(Slotted):
    __slots__ = ("struct_name", "values")

    def __init__(self, struct_name: str, values: dict[str, object]):
        self.struct_name = struct_name
        self.values = values

    def __getitem__(self, name: str):
        return self.values[name]


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


def _path(parent, key) -> str:
    """The path of the value at ``key`` below ``parent``; ``key`` itself at the top."""
    return key if parent is None else f"{parent}/{key}"


# Every checker is ``check(raw, ctype, path, diags)``: it appends its
# findings to ``diags`` and returns the typed value, or None when the
# input is unusable. The compiled closures below fall back to it for any
# input that they do not accept themselves.

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


# -- compiled closures -----------------------------------------------------------
#
# ``_CHECKS`` maps each value shape to a factory ``make(ctype)`` that
# returns the shape's closure ``check(raw, parent, key, diags)``;
# ``_checker(etype)`` gives that of a nested type. The value's
# path is ``_path(parent, key)``: a struct or list builds its own, a leaf
# builds it only to report. A leaf accepts its common exact-typed input in
# one pass and hands any other input to its checker above.

_INF = math.inf
_NUMBER = (int, float)


def _leaf(checker, fast=None):
    """The factory of a leaf shape.

    ``fast(raw)``, when given, types common input in one pass and gives
    None for anything else. ``checker`` then runs with an empty path and,
    only when it reported, again with the real one, so a value that
    passes costs no path.
    """

    def make(ctype):
        def check(raw, parent, key, diags):
            if fast is not None:
                value = fast(raw)
                if value is not None:
                    return value
            mark = len(diags)
            value = checker(raw, ctype, "", diags)
            if len(diags) > mark:
                del diags[mark:]
                value = checker(raw, ctype, _path(parent, key), diags)
            return value

        return check

    return make


def _fast_num(raw):
    # comparing with an infinity never converts an int, so 10**400 is safe
    return raw if type(raw) is int or type(raw) is float and -_INF < raw < _INF else None


def _fast_bbox(raw):
    if type(raw) is list and len(raw) == 4:
        x, y, w, h = raw
        if (
            type(x) in _NUMBER and type(y) in _NUMBER and type(w) in _NUMBER and type(h) in _NUMBER
            and -_INF < x < _INF and -_INF < y < _INF and 0 <= w < _INF and 0 <= h < _INF
        ):
            return Box(x, y, w, h)
    return None


def _fast_image_shape(raw):
    if type(raw) is list and len(raw) == 2:
        width, height = raw
        if type(width) is int and type(height) is int and width > 0 and height > 0:
            return ImageShapeValue(width, height)
    return None


def _make_label(ctype):
    dom: ClassDomain | None = ctype.arg("dom")
    by_name, refs = (dom.by_name, dom.refs) if dom is not None else ({}, [])

    def check(raw, parent, key, diags):
        if type(raw) is str:
            ref = by_name.get(raw)
            # a class name may also read as an index path or as ``Dom::path``
            # (never as ``Dom[idx]``: a class segment holds no bracket)
            if ref is not None and not raw[0].isdigit() and "::" not in raw:
                return ref
        elif type(raw) is int and 0 < raw <= len(refs):
            return refs[raw - 1]
        ref, found = validate_label(raw, dom, _path(parent, key))
        diags.extend(found)
        return ref

    return check


def _make_list(ctype):
    check_item = _checker(ctype.arg("etype"))

    def check(raw, parent, key, diags):
        path = _path(parent, key)
        if not isinstance(raw, list):
            return _fail(diags, "TYPE_MISMATCH", path, f"expected a list, got {_type_name(raw)}")
        return [check_item(item, path, i, diags) for i, item in enumerate(raw)]

    return check


def _make_struct(ctype):
    """A null-complete record; a missing required field is a ``FIELD_MISSING`` warning."""
    head, names = ctype.head, ctype.fields.keys()
    fields = tuple((name, name in ctype.optional, _checker(ftype)) for name, ftype in ctype.fields.items())

    def check(raw, parent, key, diags):
        path = _path(parent, key)
        if not isinstance(raw, dict):
            return _fail(diags, "TYPE_MISMATCH", path, f"expected a {head} record, got {_type_name(raw)}")
        inner = path or None
        values: dict[str, object] = {}
        for name, optional, check_field in fields:
            item = raw.get(name)
            if item is not None:
                values[name] = check_field(item, inner, name, diags)
                continue
            if not optional:
                diags.append(warning("FIELD_MISSING", _path(inner, name), f"required field {name!r} is missing"))
            values[name] = None
        if not raw.keys() <= names:
            for name in raw:
                if name not in names:
                    message = f"field {name!r} is not declared on {head}"
                    diags.append(warning("FIELD_UNKNOWN", _path(inner, str(name)), message))
        return Record(head, values)

    return check


_CHECKS = {
    "bool": _leaf(_check_bool),
    "int": _leaf(_check_int),
    "num": _leaf(_check_num, _fast_num),
    "str": _leaf(_check_str),
    "coord": _leaf(_check_coord),
    "coord3d": _leaf(_check_coord),
    "interval": _leaf(_check_interval),
    "bbox": _leaf(_check_bbox, _fast_bbox),
    "polygon": _leaf(_check_polygon),
    "date": _leaf(_check_datetime),
    "time": _leaf(_check_datetime),
    "label": _make_label,
    "list": _make_list,
    "media": _leaf(_check_media),
    "text": _leaf(_check_media),
    "keypoint": _leaf(_check_keypoint),
    "rotated_bbox": _leaf(_check_rotated_bbox),
    "instance_id": _leaf(_check_id),
    "unique_id": _leaf(_check_id),
    "image_shape": _leaf(_check_image_shape, _fast_image_shape),
    "struct": _make_struct,
}


def _checker(ctype: ConcreteType):
    """The closure of ``ctype``, compiled on first use and kept in the node's
    ``_check`` slot, so a node shared by many fields (see
    ``resolver._Instantiation``) or validated by many calls compiles once."""
    check = getattr(ctype, "_check", None)
    if check is None:
        check = _compile(ctype)
        set_field(ctype, "_check", check)
    return check


def _compile(ctype: ConcreteType):
    return _CHECKS[ctype.shape](ctype)


def _run(check, raw, parent, key, strict: bool) -> tuple[object, list[Diagnostic]]:
    diags: list[Diagnostic] = []
    value = check(raw, parent, key, diags)
    if strict:
        diags = [error(d.code, d.path, d.message, d.source) if d.code == "FIELD_MISSING" else d for d in diags]
    return value, diags


def validate_value(
    raw, ctype: ConcreteType, path: str = "", *, strict: bool = False
) -> tuple[object, list[Diagnostic]]:
    """Validate ``raw`` against the concrete type ``ctype``.

    Returns the typed value (``None`` when unusable) and the located
    diagnostics, in document order. ``strict`` makes a missing required
    field (``FIELD_MISSING``) an error; every other severity stays.
    """
    return _run(_checker(ctype), raw, None, path, strict)


def validate_label(
    raw, dom: ClassDomain | None, path: str = ""
) -> tuple[ClassRef | None, list[Diagnostic]]:
    """Resolve a label in any of its four syntaxes.

    Bare names and bare 1-based integers require a bound domain;
    ``Dom::path`` and ``Dom[idx.path]`` carry their own domain and must
    agree with the bound one when both exist.
    """
    if isinstance(raw, (bool, float)):
        return None, [error("LABEL_SYNTAX", path, f"label must be a name or integer index, got {raw!r}")]
    if not isinstance(raw, (int, str)) or raw == "":
        return None, [error("LABEL_SYNTAX", path, f"label must be a name or integer index, got {_type_name(raw)}")]
    selector = raw
    qualified = isinstance(raw, str) and (_QUALIFIED_NAME.fullmatch(raw) or _QUALIFIED_INDEX.fullmatch(raw))
    if qualified:
        dom_name = qualified.group("dom")
        by_name = qualified.re is _QUALIFIED_NAME
        selector = qualified.group("path" if by_name else "idx")
        if dom is None:
            # unbound: record the reference without range validation
            if by_name:
                return ClassRef(dom_name, (), selector), []
            return ClassRef(dom_name, tuple(int(p) for p in selector.split(".")), ""), []
        if dom.name != dom_name:
            message = f"label names domain {dom_name!r} but the field is bound to {dom.name!r}"
            return None, [error("LABEL_DOMAIN_MISMATCH", path, message)]
    elif dom is None:
        what = "index" if isinstance(raw, int) else repr(raw)
        return None, [error("LABEL_SYNTAX", path, f"bare label {what} requires a bound class domain")]
    try:
        return lookup_class(dom, selector), []
    except ClassLookupError as exc:
        return None, [error(exc.code, path, exc.diagnostic.message)]


def load_external_samples(path: str, base: str | Path) -> list:
    """Load the ``samples`` list from an external JSON or YAML file."""
    return _load_external(path, base, "samples")


_MISSING_KEY_CODES = {"samples": "MISSING_SAMPLES_KEY", "global-info": "MISSING_GLOBAL_INFO_KEY"}


def _load_external(path: str, base: str | Path, key: str):
    """The top-level ``key`` (``samples`` or ``global-info``) of an external JSON or YAML file."""
    full = Path(base) / path
    if not full.is_file():
        raise DsdlError(error("FILE_NOT_FOUND", str(path), f"external data file {full} does not exist"))
    try:
        text = read_utf8(full, str(path))
        if full.suffix in (".yaml", ".yml"):
            payload = _load_yaml(text, str(full))
        else:
            payload = _load_json(text, str(full))
    except OSError as exc:
        raise DsdlError(error("FILE_NOT_FOUND", str(path), f"cannot read external data file {full}: {exc}")) from exc
    except DocumentError as exc:
        raise DsdlError(exc.diagnostic) from exc
    if not isinstance(payload, dict):
        raise DsdlError(
            error("MALFORMED_SAMPLES", str(path), f"external data file {full} must hold a mapping")
        )
    if key not in payload:
        raise DsdlError(error(_MISSING_KEY_CODES[key], key, f"{path} has no top-level {key!r} key"))
    if key == "samples" and not isinstance(payload[key], list):
        raise DsdlError(error("MALFORMED_SAMPLES", "samples", f"'samples' in {path} is not a list"))
    return payload[key]


class ValidationReport(Slotted):
    """Everything one validation run produced, in document order."""

    __slots__ = ("samples", "global_info", "diagnostics", "truncated")

    def __init__(self, samples=None, global_info=None, diagnostics: list[Diagnostic] | None = None, truncated=False):
        self.samples = [] if samples is None else samples
        self.global_info = global_info
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.truncated = truncated

    @property
    def sample_count(self) -> int:
        return len(self.samples)

    @property
    def errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def notes(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.NOTE)

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for d in self.diagnostics:
            counts[d.code] = counts.get(d.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_jsonable(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "errors": self.errors,
            "warnings": self.warnings,
            "notes": self.notes,
            "counts_by_code": self.counts_by_code(),
            "truncated": self.truncated,
            "diagnostics": [d.to_jsonable() for d in self.diagnostics],
        }


_ABSENT = object()


def _load_channel(where: str | None, inline, key: str, base: str | Path, report: ValidationReport):
    """The raw value of one data channel, or ``_ABSENT``.

    ``inline`` when ``where`` is ``$local``, else the top-level ``key``
    of the external file ``where``. ``_ABSENT`` when the channel has no
    source, or when its file failed to load, which ``report`` records.
    """
    if where is None:
        return _ABSENT
    if where == LOCAL_PATH:
        return inline
    try:
        return _load_external(where, base, key)
    except DsdlError as exc:
        report.diagnostics.append(exc.diagnostic)
        return _ABSENT


def validate_dataset(
    schema: ResolvedSchema,
    data: RawDataSection | None,
    base: str | Path = ".",
    *,
    strict: bool = False,
    max_errors: int | None = None,
) -> ValidationReport:
    """Validate every sample (inline or external) against the schema.

    Inline ``samples`` are used iff ``sample-path`` is ``$local``;
    otherwise the external file wins. The same rule applies to
    global-info. Samples validate independently; ``max_errors`` stops a
    channel once that many errors, and at least one, are counted, and
    marks the report truncated.
    """
    report = ValidationReport()
    if data is None:
        return report

    if schema.sample_type is not None:
        raw_samples = _load_channel(data.sample_path, data.samples or [], "samples", base, report)
        if raw_samples is not _ABSENT:
            check = _checker(schema.sample_type)
            errors_seen = 0
            for i, raw in enumerate(raw_samples):
                value, diags = _run(check, raw, "samples", i, strict)
                report.samples.append(value)
                report.diagnostics.extend(diags)
                errors_seen += sum(1 for d in diags if d.severity is Severity.ERROR)
                if max_errors is not None and errors_seen >= max(max_errors, 1) and i + 1 < len(raw_samples):
                    report.truncated = True
                    break

    if schema.global_info_type is not None:
        raw_info = _load_channel(data.global_info_path, data.global_info, "global-info", base, report)
        if raw_info is not _ABSENT:
            value, diags = _run(_checker(schema.global_info_type), raw_info, None, "global-info", strict)
            report.global_info = value
            report.diagnostics.extend(diags)

    return report
