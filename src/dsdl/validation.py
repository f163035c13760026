"""Validation of raw sample values against concrete types.

Every builtin value shape is covered: scalars, fixed-arity coordinate
shapes, polygons, dates and times, labels, lists, records, media
references, keypoint sets, rotated boxes, ids, and image shapes.
Validation never raises for bad data; it returns a typed value (or
``None``) plus located diagnostics, so one bad sample never hides the
rest of the corpus.

Each value shape is stated once, as one closure in the ``_CHECKS``
table. A type is compiled on its first validation into one closure per
type node, and each node keeps its closure: a struct node shared by many
fields, or a type validated by many calls, compiles once. Values are
then checked by calling closures, with no per-value dispatch, and each
value is checked once. A value's path is built from its parent's path
and its key only when a finding is reported, or by the struct or list
that holds other values. A node also compiles, on demand, a check-only
closure from the same shape: the same checks and findings, with no
typed value built, for a caller that reads only the findings.

Records are null-complete: a typed record carries every declared field
exactly once, with omitted optionals explicitly ``None``. A missing
required field is a ``FIELD_MISSING`` warning; ``validate_value`` makes
it an error in strict mode, and strict mode changes nothing else.
"""

from __future__ import annotations

import datetime
import json
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
    echo,
    error,
    show_number,
    warning,
)
from .document import (
    LOCAL_PATH,
    RawDataSection,
    _DuplicateKey,
    _json_pairs_hook,
    _load_json,
    _load_yaml,
    check_data_section,
    read_utf8,
)
from .locator import ObjectLocator, parse_locator
from .resolver import ConcreteType, ResolvedSchema
from .schema import ClassDomain, ClassRef, index_path, lookup_class
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


def _path(parent, key) -> str:
    """The path of the value at ``key`` below ``parent``; ``key`` itself at the top."""
    return key if parent is None else f"{parent}/{key}"


def _show_key(name) -> str:
    """A mapping key as a message echoes it: its repr, but an integer past
    Python's int-to-string digit limit reads as ``show_number``'s placeholder."""
    return show_number(name) if isinstance(name, int) else repr(name)


def _fail(diags: list[Diagnostic], code: str, parent, key, message: str) -> None:
    """Record an error at ``_path(parent, key)``; returns ``None``, the value of an unusable input."""
    diags.append(error(code, _path(parent, key), message))


# Every value shape is one closure ``check(raw, parent, key, diags)`` that
# appends its findings to ``diags`` and returns the typed value, or None when
# the input is unusable. It builds its path ``_path(parent, key)`` only to
# report, and may accept its common exact-typed input first. A factory
# ``make(ctype, build)`` reads the type's arguments once and returns the
# closure. With ``build`` false it returns the check-only closure: the same
# checks and findings, and None where the building closure gives None, but
# no typed value is built. A value-building shape then calls ``_unbuilt`` in
# place of its value class, and a struct or list returns ``raw``.

_INF = math.inf
_NUMBER = (int, float)


def _unbuilt(*parts):
    """Stands in for a value class in a check-only closure: the checked
    parts, not built into a value."""
    return parts


# -- scalars ------------------------------------------------------------------


def _bool(raw, parent, key, diags):
    if isinstance(raw, bool):
        return raw
    return _fail(diags, "TYPE_MISMATCH", parent, key, f"expected a boolean, got {_type_name(raw)}")


def _int(raw, parent, key, diags):
    if isinstance(raw, float):
        if raw.is_integer():
            return int(raw)
        return _fail(diags, "TYPE_MISMATCH", parent, key, f"expected an integer, got non-integral {show_number(raw)}")
    if _is_number(raw):
        return raw
    return _fail(diags, "TYPE_MISMATCH", parent, key, f"expected an integer, got {_type_name(raw)}")


def _num(raw, parent, key, diags):
    # comparing with an infinity never converts an int, so 10**400 is safe
    if type(raw) in _NUMBER and -_INF < raw < _INF:
        return raw
    if not _is_number(raw):
        return _fail(diags, "TYPE_MISMATCH", parent, key, f"expected a number, got {_type_name(raw)}")
    if isinstance(raw, float) and not math.isfinite(raw):
        return _fail(diags, "RANGE", parent, key, f"number must be finite, got {show_number(raw)}")
    return raw


def _str(raw, parent, key, diags):
    if isinstance(raw, str):
        return raw
    return _fail(diags, "TYPE_MISMATCH", parent, key, f"expected a string, got {_type_name(raw)}")


def _make_id(ctype, build):
    """InstanceID and UniqueID: an integer or a string, kept as a string."""
    head = ctype.head

    def check(raw, parent, key, diags):
        if isinstance(raw, str):
            return raw
        if isinstance(raw, int) and not isinstance(raw, bool):
            try:
                return str(raw)
            except ValueError:  # past Python's int-to-string digit limit
                return _fail(diags, "RANGE", parent, key, f"{head} integer has too many digits")
        return _fail(diags, "TYPE_MISMATCH", parent, key, f"{head} must be an integer or string, got {_type_name(raw)}")

    return check


# -- fixed-arity numeric shapes -------------------------------------------------


def _numbers(raw, arity: int, parent, key, diags: list[Diagnostic], what: str) -> tuple | None:
    """``raw`` as a tuple of ``arity`` finite numbers, or None after an error."""
    if not isinstance(raw, list):
        return _fail(diags, "TYPE_MISMATCH", parent, key, f"{what} must be a list, got {_type_name(raw)}")
    if len(raw) != arity:
        return _fail(diags, "ARITY", parent, key, f"{what} requires exactly {arity} values, got {len(raw)}")
    for i, item in enumerate(raw):
        if type(item) in _NUMBER and -_INF < item < _INF:
            continue
        if not _is_number(item):
            return _fail(diags, "TYPE_MISMATCH", _path(parent, key), i, f"{what} component must be a number")
        if isinstance(item, float) and not math.isfinite(item):
            message = f"{what} component must be finite, got {show_number(item)}"
            return _fail(diags, "RANGE", _path(parent, key), i, message)
    return tuple(raw)


def _make_coord(ctype, build):
    arity, what = 3 if ctype.shape == "coord3d" else 2, ctype.head

    def check(raw, parent, key, diags):
        return _numbers(raw, arity, parent, key, diags, what)

    return check


def _make_interval(ctype, build):
    make = IntervalValue if build else _unbuilt

    def check(raw, parent, key, diags):
        values = _numbers(raw, 2, parent, key, diags, "Interval")
        if values is None:
            return None
        begin, end = values
        if begin > end:
            message = f"interval begin {show_number(begin)} exceeds end {show_number(end)}"
            return _fail(diags, "RANGE", parent, key, message)
        return make(begin, end)

    return check


def _make_bbox(ctype, build):
    make = Box if build else _unbuilt

    def check(raw, parent, key, diags):
        if type(raw) is list and len(raw) == 4:
            x, y, w, h = raw
            if (
                type(x) in _NUMBER and type(y) in _NUMBER and type(w) in _NUMBER and type(h) in _NUMBER
                and -_INF < x < _INF and -_INF < y < _INF and 0 <= w < _INF and 0 <= h < _INF
            ):
                return make(x, y, w, h)
        values = _numbers(raw, 4, parent, key, diags, "BBox")
        if values is None:
            return None
        x, y, w, h = values
        if w < 0 or h < 0:
            message = f"BBox width/height must be non-negative, got {show_number(w)}x{show_number(h)}"
            return _fail(diags, "RANGE", parent, key, message)
        return make(x, y, w, h)

    return check


def _make_image_shape(ctype, build):
    make = ImageShapeValue if build else _unbuilt

    def check(raw, parent, key, diags):
        if type(raw) is list and len(raw) == 2:
            width, height = raw
            if type(width) is int and type(height) is int and width > 0 and height > 0:
                return make(width, height)
        values = _numbers(raw, 2, parent, key, diags, "ImageShape")
        if values is None:
            return None
        width, height = values
        if width % 1 or height % 1:
            return _fail(diags, "TYPE_MISMATCH", parent, key, "ImageShape values must be integers")
        width, height = int(width), int(height)
        if width <= 0 or height <= 0:
            message = f"ImageShape values must be positive, got [{show_number(width)}, {show_number(height)}]"
            return _fail(diags, "RANGE", parent, key, message)
        return make(width, height)

    return check


def _make_rotated_bbox(ctype, build):
    mode = ctype.arg("mode")
    measure = ctype.args.get("measure", "radian")
    arity, what = 8 if mode == "xyxy" else 5, f"RotatedBBox[mode={mode}]"
    bound, unit = (180.0, "degrees") if measure == "degree" else (math.pi, "radians")
    make = RotatedBox if build else _unbuilt

    def check(raw, parent, key, diags):
        values = _numbers(raw, arity, parent, key, diags, what)
        if values is None:
            return None
        if mode == "xywht" and not -bound < values[4] < bound:
            message = f"rotation angle {show_number(values[4])} outside (-{bound}, {bound}) {unit}"
            return _fail(diags, "RANGE", parent, key, message)
        return make(mode, measure, values)

    return check


def _make_keypoint(ctype, build):
    dom: ClassDomain = ctype.arg("dom")
    name, expected = dom.name, 3 * len(dom)
    make = KeypointSet if build else _unbuilt
    arity_message = f"keypoint list for {name} ({len(dom)} classes) requires {expected} values, got"

    def check(raw, parent, key, diags):
        if not isinstance(raw, list):
            return _fail(diags, "TYPE_MISMATCH", parent, key, f"Keypoint value must be a flat list, got {_type_name(raw)}")
        if len(raw) != expected:
            return _fail(diags, "ARITY", parent, key, f"{arity_message} {len(raw)}")
        values = _numbers(raw, expected, parent, key, diags, "keypoint")
        if values is None:
            return None
        return make(name, tuple([values[i:i + 3] for i in range(0, expected, 3)]))

    return check


def _is_point(item) -> bool:
    return isinstance(item, list) and len(item) == 2 and _is_number(item[0]) and _is_number(item[1])


def _polygon(raw, parent, key, diags):
    """One ring of ``[x, y]`` points, or a list of rings."""
    if not isinstance(raw, list):
        return _fail(diags, "TYPE_MISMATCH", parent, key, f"Polygon must be a list, got {_type_name(raw)}")
    if not raw:
        return _fail(diags, "ARITY", parent, key, "Polygon requires at least one ring")

    def ring_path():
        return _path(parent, key) if wrapped else _path(_path(parent, key), ri)

    wrapped = all(_is_point(item) for item in raw)
    rings = []
    for ri, ring in enumerate([raw] if wrapped else raw):
        if not isinstance(ring, list):
            return _fail(diags, "TYPE_MISMATCH", None, ring_path(), "polygon ring must be a list of points")
        if len(ring) < 3:
            return _fail(diags, "ARITY", None, ring_path(), f"polygon ring requires at least 3 points, got {len(ring)}")
        for pi, point in enumerate(ring):
            if not isinstance(point, list) or len(point) != 2:
                return _fail(diags, "ARITY", ring_path(), pi, "polygon point must be an [x, y] pair")
            if not (_is_number(point[0]) and _is_number(point[1])):
                return _fail(diags, "TYPE_MISMATCH", ring_path(), pi, "polygon point must be numeric")
            for ci, v in enumerate(point):
                if isinstance(v, float) and not math.isfinite(v):
                    message = f"polygon coordinate must be finite, got {show_number(v)}"
                    return _fail(diags, "RANGE", _path(ring_path(), pi), ci, message)
        rings.append(tuple([(x, y) for x, y in ring]))
    return tuple(rings)


# -- dates, labels, media -------------------------------------------------------


def _make_datetime(ctype, build):
    """Date and Time: ISO 8601, or the type's ``fmt`` when it has one."""
    kind, fmt = ctype.shape, ctype.arg("fmt")
    from_iso = (datetime.date if kind == "date" else datetime.time).fromisoformat
    expected = fmt if fmt is not None else "ISO 8601"

    def check(raw, parent, key, diags):
        if not isinstance(raw, str):
            return _fail(diags, "TYPE_MISMATCH", parent, key, f"{kind} value must be a string, got {_type_name(raw)}")
        try:
            if fmt is None:
                return from_iso(raw)
            parsed = datetime.datetime.strptime(raw, fmt)
            return parsed.date() if kind == "date" else parsed.time()
        except ValueError as exc:
            return _fail(diags, "DATE_FORMAT", parent, key, f"{raw!r} does not match {expected}: {exc}")

    return check


def _make_media(ctype, build):
    """A locator string or a ``{$loc, $descr}`` mapping; Text may also be inline."""
    head, text = ctype.head, ctype.shape == "text"
    make = MediaRef if build else _unbuilt
    if text:
        what = "Text value must be a string or $loc mapping"
    else:
        what = f"{head} value must be an object locator string or a $loc mapping"

    def check(raw, parent, key, diags):
        if isinstance(raw, str) and text:
            # inline string content is the text itself; loading through a
            # locator requires the explicit {$loc: ...} form
            return raw
        descr = None
        if isinstance(raw, dict):
            if "$loc" not in raw:
                return _fail(diags, "LOC_SYNTAX", parent, key, f"{head} mapping lacks required key $loc")
            if not isinstance(raw["$loc"], str):
                return _fail(diags, "LOC_SYNTAX", _path(parent, key), "$loc", "$loc must be a string")
            descr = raw.get("$descr")
            if descr is not None and not isinstance(descr, dict):
                return _fail(diags, "TYPE_MISMATCH", _path(parent, key), "$descr", "$descr must be a mapping")
            for name in raw:
                if name not in ("$loc", "$descr"):
                    message = f"unexpected key {_show_key(name)} in {head} mapping"
                    diags.append(warning("FIELD_UNKNOWN", _path(_path(parent, key), show_number(name)), message))
            raw = raw["$loc"]
        elif not isinstance(raw, str):
            return _fail(diags, "TYPE_MISMATCH", parent, key, f"{what}, got {_type_name(raw)}")
        try:
            locator = parse_locator(raw)
        except LocatorError as exc:
            return _fail(diags, "LOC_SYNTAX", parent, key, exc.diagnostic.message)
        return make(head, locator, tuple(descr.items()) if descr is not None else None)

    return check


def _make_label(ctype, build):
    dom: ClassDomain | None = ctype.arg("dom")
    # the domain's refs by class index and class text, each added on its first
    # lookup, so a label seen before costs one dict get
    refs = dom._refs if dom is not None else {}

    def check(raw, parent, key, diags):
        if type(raw) is str:
            ref = refs.get(raw)
            # a class name may also read as an index path or as ``Dom::path``
            # (never as ``Dom[idx]``: a class segment holds no bracket)
            if ref is not None and not raw[0].isdigit() and "::" not in raw:
                return ref
        elif type(raw) is int:
            ref = refs.get(raw)
            if ref is not None:
                return ref
        ref, found = validate_label(raw, dom, _path(parent, key))
        diags.extend(found)
        return ref

    return check


def _make_list(ctype, build):
    check_item = _checker(ctype.arg("etype"), build)

    def check(raw, parent, key, diags):
        path = _path(parent, key)
        if not isinstance(raw, list):
            return _fail(diags, "TYPE_MISMATCH", parent, key, f"expected a list, got {_type_name(raw)}")
        return [check_item(item, path, i, diags) for i, item in enumerate(raw)]

    def check_only(raw, parent, key, diags):
        path = _path(parent, key)
        if not isinstance(raw, list):
            return _fail(diags, "TYPE_MISMATCH", parent, key, f"expected a list, got {_type_name(raw)}")
        for i, item in enumerate(raw):
            check_item(item, path, i, diags)
        return raw

    return check if build else check_only


def _make_struct(ctype, build):
    """A null-complete record; a missing required field is a ``FIELD_MISSING`` warning."""
    head, names = ctype.head, ctype.fields.keys()
    fields = tuple((name, name in ctype.optional, _checker(ftype, build)) for name, ftype in ctype.fields.items())
    mismatch = f"expected a {head} record, got"

    def missing(inner, name, diags):
        diags.append(warning("FIELD_MISSING", _path(inner, name), f"required field {name!r} is missing"))

    def undeclared(raw, inner, diags):
        for name in raw:
            if name not in names:
                message = f"field {_show_key(name)} is not declared on {head}"
                diags.append(warning("FIELD_UNKNOWN", _path(inner, show_number(name)), message))

    def check(raw, parent, key, diags):
        path = _path(parent, key)
        if not isinstance(raw, dict):
            return _fail(diags, "TYPE_MISMATCH", parent, key, f"{mismatch} {_type_name(raw)}")
        inner = path or None
        values: dict[str, object] = {}
        for name, optional, check_field in fields:
            item = raw.get(name)
            if item is not None:
                values[name] = check_field(item, inner, name, diags)
                continue
            if not optional:
                missing(inner, name, diags)
            values[name] = None
        if not raw.keys() <= names:
            undeclared(raw, inner, diags)
        return Record(head, values)

    def check_only(raw, parent, key, diags):
        path = _path(parent, key)
        if not isinstance(raw, dict):
            return _fail(diags, "TYPE_MISMATCH", parent, key, f"{mismatch} {_type_name(raw)}")
        inner = path or None
        for name, optional, check_field in fields:
            item = raw.get(name)
            if item is not None:
                check_field(item, inner, name, diags)
            elif not optional:
                missing(inner, name, diags)
        if not raw.keys() <= names:
            undeclared(raw, inner, diags)
        return raw

    return check if build else check_only


# each shape's closure, or the factory that makes it from the type's arguments
_CHECKS = {
    "bool": _bool,
    "int": _int,
    "num": _num,
    "str": _str,
    "coord": _make_coord,
    "coord3d": _make_coord,
    "interval": _make_interval,
    "bbox": _make_bbox,
    "polygon": _polygon,
    "date": _make_datetime,
    "time": _make_datetime,
    "label": _make_label,
    "list": _make_list,
    "media": _make_media,
    "text": _make_media,
    "keypoint": _make_keypoint,
    "rotated_bbox": _make_rotated_bbox,
    "instance_id": _make_id,
    "unique_id": _make_id,
    "image_shape": _make_image_shape,
    "struct": _make_struct,
}
_FACTORIES = {
    _make_bbox, _make_coord, _make_datetime, _make_id, _make_image_shape, _make_interval, _make_keypoint,
    _make_label, _make_list, _make_media, _make_rotated_bbox, _make_struct,
}


def _checker(ctype: ConcreteType, build: bool = True):
    """The closure of ``ctype``: the building one, or with ``build`` false
    the check-only one, which gives the same findings and builds no typed
    value. Each is compiled on first use from the same ``_CHECKS`` entry
    and kept in the node's ``_check`` or ``_check_only`` slot, so a node
    shared by many fields (see ``resolver._Instantiation``) or validated by
    many calls compiles once per kind."""
    slot = "_check" if build else "_check_only"
    check = getattr(ctype, slot, None)
    if check is None:
        check = _compile(ctype, build)
        set_field(ctype, slot, check)
    return check


def _compile(ctype: ConcreteType, build: bool = True):
    shape = _CHECKS[ctype.shape]
    return shape(ctype, build) if shape in _FACTORIES else shape


class SampleCounts(Slotted):
    """What :func:`summarize_dataset` counts over the samples that hold no error.

    ``labels`` maps each label, as ``str(ClassRef)``, to its frequency.
    ``optional_fill`` maps ``(struct, field)`` to ``[present, total]`` for
    each optional field of a struct that some value reached: ``total``
    counts the values of that struct, ``present`` those giving the field
    a non-null value. ``locators`` maps each locator kind to the number
    of media values, and of Text values given as a ``$loc`` mapping,
    that use it.
    """

    __slots__ = ("labels", "optional_fill", "locators")

    def __init__(self, labels=None, optional_fill=None, locators=None):
        self.labels: dict[str, int] = {} if labels is None else labels
        self.optional_fill: dict[tuple[str, str], list[int]] = {} if optional_fill is None else optional_fill
        self.locators: dict[str, int] = {} if locators is None else locators


_ABSENT = object()


# A census ``census(raw, counts)`` folds into ``counts`` what one raw value
# that checked without error holds. Like a closure, it is compiled once per
# type node; a label or media node reads the ref or locator from its own
# check-only closure, so no shape's rules are stated twice. A node whose
# subtree holds no label, media or text, and no struct with an optional
# field, has no census and its values are never walked.


def _census(ctype: ConcreteType):
    """The census of ``ctype``, or None; compiled on first use and kept in
    the node's ``_census`` slot."""
    census = getattr(ctype, "_census", _ABSENT)
    if census is _ABSENT:
        census = _compile_census(ctype)
        set_field(ctype, "_census", census)
    return census


def _compile_census(ctype: ConcreteType):
    shape = ctype.shape
    if shape == "label":
        check = _checker(ctype, False)

        def census(raw, counts):
            labels, key = counts.labels, str(check(raw, None, None, []))
            labels[key] = labels.get(key, 0) + 1

    elif shape in ("media", "text"):
        check = _checker(ctype, False)

        def census(raw, counts):
            parts = check(raw, None, None, [])
            if type(parts) is tuple:  # not inline Text, which is its own string
                locators, kind = counts.locators, parts[1].kind
                locators[kind] = locators.get(kind, 0) + 1

    elif shape == "list":
        count_item = _census(ctype.arg("etype"))
        if count_item is None:
            return None

        def census(raw, counts):
            for item in raw:
                count_item(item, counts)

    elif shape == "struct":
        fields = tuple((name, c) for name, ftype in ctype.fields.items() if (c := _census(ftype)) is not None)
        optional = tuple(((ctype.head, name), name) for name in sorted(ctype.optional))
        if not fields and not optional:
            return None

        def census(raw, counts):
            fill = counts.optional_fill
            for key, name in optional:
                tally = fill.get(key)
                if tally is None:
                    tally = fill[key] = [0, 0]
                tally[1] += 1
                if raw.get(name) is not None:
                    tally[0] += 1
            for name, count_field in fields:
                item = raw.get(name)
                if item is not None:
                    count_field(item, counts)

    else:
        return None
    return census


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
        if dom is None and by_name:
            # unbound: the reference is recorded without range validation
            return ClassRef(dom_name, (), selector), []
        if dom is not None and dom.name != dom_name:
            message = f"label names domain {dom_name!r} but the field is bound to {dom.name!r}"
            return None, [error("LABEL_DOMAIN_MISMATCH", path, message)]
    elif dom is None:
        what = "index" if isinstance(raw, int) else repr(raw)
        return None, [error("LABEL_SYNTAX", path, f"bare label {what} requires a bound class domain")]
    try:
        if dom is None:  # an unbound ``Dom[idx]``, recorded likewise
            return ClassRef(dom_name, index_path(selector), ""), []
        return lookup_class(dom, selector), []
    except ClassLookupError as exc:
        return None, [error(exc.code, path, exc.diagnostic.message)]


def load_external_samples(path: str, base: str | Path) -> list:
    """Load the ``samples`` list from an external JSON or YAML file."""
    return _load_external(path, base, "samples")


_MISSING_KEY_CODES = {"samples": "MISSING_SAMPLES_KEY", "global-info": "MISSING_GLOBAL_INFO_KEY"}
_YAML_SUFFIXES = (".yaml", ".yml")


def _load_external(path: str, base: str | Path, key: str):
    """The top-level ``key`` (``samples`` or ``global-info``) of an external JSON or YAML file."""
    full, text = _read_external(path, base)
    return _decode_external(full, text, path, key)


def _read_external(path: str, base: str | Path) -> tuple[Path, str]:
    """The full path and the text of the external data file ``path``."""
    full = Path(base) / path
    try:
        if not full.is_file():
            message = f"external data file {echo(str(full))} does not exist"
            raise DsdlError(error("FILE_NOT_FOUND", echo(str(path)), message))
        return full, read_utf8(full, echo(str(path)))
    except OSError as exc:
        message = f"cannot read external data file {echo(str(full))}: {echo(str(exc))}"
        raise DsdlError(error("FILE_NOT_FOUND", echo(str(path)), message)) from exc
    except DocumentError as exc:
        raise DsdlError(exc.diagnostic) from exc


def _decode_external(full: Path, text: str, path: str, key: str):
    """The top-level ``key`` of the external data file ``full``, decoded whole from its ``text``."""
    try:
        payload = _load_yaml(text, str(full)) if full.suffix in _YAML_SUFFIXES else _load_json(text, str(full))
    except DocumentError as exc:
        raise DsdlError(exc.diagnostic) from exc
    shown = echo(str(path))
    if not isinstance(payload, dict):
        raise DsdlError(error("MALFORMED_SAMPLES", shown, f"external data file {echo(str(full))} must hold a mapping"))
    if key not in payload:
        raise DsdlError(error(_MISSING_KEY_CODES[key], key, f"{shown} has no top-level {key!r} key"))
    if key == "samples" and not isinstance(payload[key], list):
        raise DsdlError(error("MALFORMED_SAMPLES", "samples", f"'samples' in {shown} is not a list"))
    return payload[key]


_SPACE = json.decoder.WHITESPACE.match  # JSON's whitespace, as json itself skips it
_UNDECODABLE = (StopIteration, ValueError, RecursionError, _DuplicateKey)  # what _load_json reports


class _Unstreamable(Exception):
    """The text does not open with ``{"samples": [``, or does not decode."""


def _stream_samples(text: str):
    """Each element of the ``samples`` array of the JSON ``text``, decoded
    one at a time over ``text`` itself, so that only the element being
    checked is held; the rest of the text is decoded after the last one.

    Only text that opens with ``{"samples": [`` streams. Other text, and
    anything the stream cannot decode (a syntax error, a duplicate key, an
    integer past the digit limit, too deep a nest), raises
    :class:`_Unstreamable` when it is reached; ``_load_json`` over the whole
    text then gives the finding, with its own line and column.
    """
    pos = 0
    for token in ("{", '"samples"', ":", "["):
        pos = _SPACE(text, pos).end()
        if not text.startswith(token, pos):
            raise _Unstreamable
        pos += len(token)
    scan = json.JSONDecoder(object_pairs_hook=_json_pairs_hook).scan_once
    pos = _SPACE(text, pos).end()
    if not text.startswith("]", pos):
        while True:
            try:
                item, pos = scan(text, pos)
            except _UNDECODABLE as exc:
                raise _Unstreamable from exc
            yield item
            pos = _SPACE(text, pos).end()
            if not text.startswith(",", pos):
                break
            pos = _SPACE(text, pos + 1).end()
        if not text.startswith("]", pos):
            raise _Unstreamable
    try:  # the keys after the array, the closing brace and trailing whitespace; a second "samples" is a duplicate
        json.loads('{"samples": 0' + text[pos + 1:], object_pairs_hook=_json_pairs_hook)
    except _UNDECODABLE as exc:
        raise _Unstreamable from exc


class ValidationReport(Slotted):
    """Everything one validation run produced, in document order.

    ``_unkept`` counts the samples validated without keeping a value
    (``validate_dataset(..., build=False)``).
    """

    __slots__ = ("samples", "global_info", "diagnostics", "truncated", "_unkept")

    def __init__(self, samples=None, global_info=None, diagnostics: list[Diagnostic] | None = None, truncated=False):
        self.samples = [] if samples is None else samples
        self.global_info = global_info
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.truncated = truncated
        self._unkept = 0

    @property
    def sample_count(self) -> int:
        return len(self.samples) + self._unkept

    def _count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    errors = property(lambda self: self._count(Severity.ERROR))
    warnings = property(lambda self: self._count(Severity.WARNING))
    notes = property(lambda self: self._count(Severity.NOTE))

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


def _check_samples(check, census, raws, strict: bool, max_errors: int | None, build: bool):
    """The report and the counts of the raw samples ``raws``, each checked
    by ``check``; each sample whose findings hold no error is then folded
    into the counts by ``census``, unless it is None.

    ``max_errors`` stops the checking once that many errors, and at least
    one, are counted; the rest of ``raws`` is still drawn, so a stream
    decodes to its end before the report is used.
    """
    report, counts = ValidationReport(), SampleCounts()
    limit = None if max_errors is None else max(max_errors, 1)
    items = iter(raws)
    count = errors_seen = 0
    for raw in items:
        value, diags = _run(check, raw, "samples", count, strict)
        count += 1
        if build:
            report.samples.append(value)
        report.diagnostics.extend(diags)
        errors = sum(1 for d in diags if d.severity is Severity.ERROR) if diags else 0
        if census is not None and not errors:
            census(raw, counts)
        if limit is not None:
            errors_seen += errors
            if errors_seen >= limit:
                report.truncated = next(items, _ABSENT) is not _ABSENT
                break
    for _ in items:
        pass
    if not build:
        report._unkept = count
    return report, counts


def _sample_report(check, census, data: RawDataSection, base, strict: bool, max_errors: int | None, build: bool):
    """The report and the counts of the sample channel of ``data``: inline,
    or its external file, which streams when it is JSON. A stream that
    cannot go on is dropped, its counts with its findings, and the file is
    read again whole."""
    if data.sample_path == LOCAL_PATH:
        return _check_samples(check, census, data.samples, strict, max_errors, build)
    full, text = _read_external(data.sample_path, base)
    if full.suffix not in _YAML_SUFFIXES:
        try:
            return _check_samples(check, census, _stream_samples(text), strict, max_errors, build)
        except _Unstreamable:
            pass  # the whole-file load below gives the finding, or reads what the stream does not
    raws = _decode_external(full, text, data.sample_path, "samples")
    return _check_samples(check, census, raws, strict, max_errors, build)


def validate_dataset(
    schema: ResolvedSchema,
    data: RawDataSection | None,
    base: str | Path = ".",
    *,
    strict: bool = False,
    max_errors: int | None = None,
    build: bool = True,
) -> ValidationReport:
    """Validate every sample (inline or external) against the schema.

    Inline ``samples`` are used iff ``sample-path`` is ``$local``;
    otherwise the external file wins. The same rule applies to
    global-info. A section that breaks a rule of a parsed ``data``
    section (see ``document.check_data_section``) gives that finding and
    nothing is validated. Samples validate independently; ``max_errors``
    stops a channel once that many errors, and at least one, are counted,
    and marks the report truncated.

    With ``build`` false no typed value is built or kept: ``samples``
    stays empty and ``global_info`` ``None``, while ``sample_count``, the
    diagnostics and ``truncated`` are those of the building run. Either
    way an external JSON sample file that opens with ``{"samples": [`` is
    decoded one sample at a time, and its findings count once the whole
    text has decoded; any other file is loaded whole.
    """
    return _validate(schema, data, base, strict, max_errors, build, False)[0]


def summarize_dataset(
    schema: ResolvedSchema,
    data: RawDataSection | None,
    base: str | Path = ".",
    *,
    strict: bool = False,
    max_errors: int | None = None,
) -> tuple[ValidationReport, SampleCounts]:
    """``validate_dataset(..., build=False)``, and the :class:`SampleCounts`
    of the samples: their labels, optional-field fill and locator kinds.

    Each sample is counted as it is checked, and only when its findings,
    with ``strict`` applied, hold no error; no sample is kept. Global
    info is not counted.
    """
    return _validate(schema, data, base, strict, max_errors, False, True)


def _validate(schema: ResolvedSchema, data, base, strict: bool, max_errors, build: bool, count: bool):
    """The body of ``validate_dataset`` and ``summarize_dataset``: the report,
    and the counts of the samples when ``count`` is set."""
    report, counts = ValidationReport(), SampleCounts()
    if data is None:
        return report, counts
    try:
        data = check_data_section(data)
    except DocumentError as exc:
        report.diagnostics.append(exc.diagnostic)
        return report, counts

    if schema.sample_type is not None and data.sample_path is not None:
        check = _checker(schema.sample_type, build)
        census = _census(schema.sample_type) if count else None
        try:
            report, counts = _sample_report(check, census, data, base, strict, max_errors, build)
        except DsdlError as exc:
            report.diagnostics.append(exc.diagnostic)

    if schema.global_info_type is not None and data.global_info_path is not None:
        try:
            if data.global_info_path == LOCAL_PATH:
                raw_info = data.global_info
            else:
                raw_info = _load_external(data.global_info_path, base, "global-info")
        except DsdlError as exc:
            report.diagnostics.append(exc.diagnostic)
        else:
            value, diags = _run(_checker(schema.global_info_type, build), raw_info, None, "global-info", strict)
            if build:
                report.global_info = value
            report.diagnostics.extend(diags)

    return report, counts
