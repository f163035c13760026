"""Validation of raw sample values against concrete types.

Every builtin value shape is covered: scalars, fixed-arity coordinate
shapes, polygons, dates and times, labels, lists, records, media
references, keypoint sets, rotated boxes, ids, and image shapes.
Validation never raises for bad data; it returns a typed value (or
``None``) plus located diagnostics, so one bad sample never hides the
rest of the corpus.

Each value shape is stated once, as one closure that its factory in the
``_CHECKS`` table makes. A type is compiled on its first validation into
one closure per type node, and each node keeps its closure: a struct node
shared by many fields, or a type validated by many calls, compiles once.
Values are then checked by calling closures, with no per-value dispatch,
and each value is checked once. A value's path is joined only when a
finding is reported, so clean data formats no path.

Records are null-complete: a typed record carries every declared field
exactly once, with omitted optionals explicitly ``None``. A missing
required field is a ``FIELD_MISSING`` warning; ``validate_value`` makes
it an error in strict mode, and strict mode changes nothing else.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from itertools import islice
from pathlib import Path, PurePath

from .diagnostics import (
    ClassLookupError,
    Diagnostic,
    DocumentError,
    DsdlError,
    LocatorError,
    NAME_LIMIT,
    Severity,
    echo,
    error,
    expect,
    show_key,
    show_number,
    warning,
)
from .document import (
    HOSTS,
    LOCAL_PATH,
    RawDataSection,
    _DuplicateKey,
    _json_pairs_hook,
    _load_json,
    _load_yaml,
    check_data_section,
    read_utf8,
)
from .locator import parse_locator
from .resolver import ConcreteType, LibraryEnvironment, ResolvedSchema, resolve_file
from .schema import ClassDomain, ClassRef, index_path, lookup_class
from .slotted import Frozen, Slotted, set_field

_QUALIFIED_NAME = re.compile(r"(?P<dom>[A-Za-z_][A-Za-z0-9_]*)::(?P<path>.+)", re.DOTALL)
_QUALIFIED_INDEX = re.compile(r"(?P<dom>[A-Za-z_][A-Za-z0-9_]*)\[(?P<idx>\d+(\.\d+)*)\]")


class Box(Frozen):
    __slots__ = ("x", "y", "w", "h")


class IntervalValue(Frozen):
    __slots__ = ("begin", "end")


class ImageShapeValue(Frozen):
    """Stored as (width, height) by convention; recorded verbatim."""

    __slots__ = ("width", "height")


class RotatedBox(Frozen):
    __slots__ = ("mode", "measure", "values")


class KeypointSet(Frozen):
    """Flat ``[x, y, v, ...]`` triples; visibility is kept, not judged."""

    __slots__ = ("domain", "points")


class MediaRef(Frozen):
    __slots__ = ("class_name", "locator", "descr")
    _defaults = {"descr": None}

    def descriptor(self) -> dict | None:
        return dict(self.descr) if self.descr is not None else None


class Record(Slotted):
    __slots__ = ("struct_name", "values")

    def __getitem__(self, name: str):
        return self.values[name]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPE_NAMES = (
    (type(None), "null"), (bool, "boolean"), ((int, float), "number"), (str, "string"), (list, "list"), (dict, "mapping")
)


def _type_name(value) -> str:
    for kinds, name in _TYPE_NAMES:  # bool before int, which it subclasses
        if isinstance(value, kinds):
            return name
    return type(value).__name__


def _path(parent, key) -> str:
    """The path of the value at ``key`` below the chain ``parent``, joined in a
    loop at any depth; ``key`` itself at the top, where ``parent`` is None."""
    if parent is None:
        return key
    keys = [key]
    while parent is not None:
        parent, key = parent
        keys.append(key)
    return "/".join([str(key) for key in reversed(keys)])


def _fail(diags: list[Diagnostic], code: str, parent, key, message: str) -> None:
    """Record an error at ``_path(parent, key)``; returns ``None``, the value of an unusable input."""
    diags.append(error(code, _path(parent, key), message))


# Every value shape is one closure ``check(raw, parent, key, diags)`` that
# appends its findings to ``diags`` and returns the typed value, or None when
# the input is unusable. ``parent`` is None at the top, else the chain
# ``(parent, key)`` of the struct or list holding the value; only ``_path``
# unpacks it, so a tuple key stays one key, and only to report. The closure
# may accept its common exact-typed input first, in one pass: a ``BBox`` or
# ``ImageShape`` list, a finite ``Num``, a ``Label`` in its domain, a ``Polygon``
# ring of at least 3 ``[x, y]`` lists of finite ints or floats. A factory
# ``make(ctype, build)`` reads the type's arguments once and returns the
# closure, one for both modes. With ``build`` false the closure only checks:
# the same checks and findings, and None where the building closure gives
# None, but no typed value is built. A value-building shape then calls
# ``_unbuilt`` in place of its value class, and a struct or list returns ``raw``.
# A check-only closure's ``diags`` is a ``_Tally``, and it also notes there
# what ``summarize_dataset`` counts: a label's ref, the locator kind of a
# media or ``$loc`` Text value, and each struct with an optional field.

_INF = math.inf
_NUMBER = (int, float)


def _unbuilt(*parts):
    """Stands in for a value class in a check-only closure: the checked parts, not built into a value."""
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
            return _fail(diags, "TYPE_MISMATCH", (parent, key), i, f"{what} component must be a number")
        if isinstance(item, float) and not math.isfinite(item):
            message = f"{what} component must be finite, got {show_number(item)}"
            return _fail(diags, "RANGE", (parent, key), i, message)
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
    if type(raw) is list and len(raw) >= 3:
        ring = []
        for point in raw:
            x, y = point if type(point) is list and len(point) == 2 else (None, None)
            if not (type(x) in _NUMBER and type(y) in _NUMBER and -_INF < x < _INF and -_INF < y < _INF):
                break
            ring.append((x, y))
        else:
            return (tuple(ring),)
    if not isinstance(raw, list):
        return _fail(diags, "TYPE_MISMATCH", parent, key, f"Polygon must be a list, got {_type_name(raw)}")
    if not raw:
        return _fail(diags, "ARITY", parent, key, "Polygon requires at least one ring")

    wrapped = all(_is_point(item) for item in raw)
    rings = []
    for ri, ring in enumerate([raw] if wrapped else raw):
        ring_at = (parent, key) if wrapped else ((parent, key), ri)  # the ring's own (parent, key)
        if not isinstance(ring, list):
            return _fail(diags, "TYPE_MISMATCH", *ring_at, "polygon ring must be a list of points")
        if len(ring) < 3:
            return _fail(diags, "ARITY", *ring_at, f"polygon ring requires at least 3 points, got {len(ring)}")
        for pi, point in enumerate(ring):
            if not isinstance(point, list) or len(point) != 2:
                return _fail(diags, "ARITY", ring_at, pi, "polygon point must be an [x, y] pair")
            if not (_is_number(point[0]) and _is_number(point[1])):
                return _fail(diags, "TYPE_MISMATCH", ring_at, pi, "polygon point must be numeric")
            for ci, v in enumerate(point):
                if isinstance(v, float) and not math.isfinite(v):
                    message = f"polygon coordinate must be finite, got {show_number(v)}"
                    return _fail(diags, "RANGE", (ring_at, pi), ci, message)
        rings.append(tuple([(x, y) for x, y in ring]))
    return tuple(rings)


# -- dates, labels, media -------------------------------------------------------


def _make_datetime(ctype, build):
    """Date and Time: ISO 8601, or the type's ``fmt`` when it has one."""
    import datetime  # here, so that a run with no Date or Time field never loads it

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
            # the parser's reason repeats the value, so it is cut only when the value is
            reason = echo(str(exc)) if len(raw) > NAME_LIMIT else exc
            message = f"{echo(raw, show=repr)} does not match {expected}: {reason}"
            return _fail(diags, "DATE_FORMAT", parent, key, message)

    return check


def _make_media(ctype, build):
    """A locator string or a ``{$loc, $descr}`` mapping; Text may also be inline."""
    head, text, noting = ctype.head, ctype.shape == "text", not build
    make = MediaRef if build else _unbuilt
    if text:
        what = "Text value must be a string or $loc mapping"
    else:
        what = f"{head} value must be an object locator string or a $loc mapping"

    def check(raw, parent, key, diags):
        if isinstance(raw, str) and text:
            # inline string content is the text itself; a locator needs the explicit {$loc: ...} form
            return raw
        descr = None
        if isinstance(raw, dict):
            if "$loc" not in raw:
                return _fail(diags, "LOC_SYNTAX", parent, key, f"{head} mapping lacks required key $loc")
            if not isinstance(raw["$loc"], str):
                return _fail(diags, "LOC_SYNTAX", (parent, key), "$loc", "$loc must be a string")
            descr = raw.get("$descr")
            if descr is not None and not isinstance(descr, dict):
                return _fail(diags, "TYPE_MISMATCH", (parent, key), "$descr", "$descr must be a mapping")
            for name in raw:
                if name not in ("$loc", "$descr"):
                    message = f"unexpected key {show_key(name)} in {head} mapping"
                    diags.append(warning("FIELD_UNKNOWN", _path((parent, key), show_number(name)), message))
            raw = raw["$loc"]
        elif not isinstance(raw, str):
            return _fail(diags, "TYPE_MISMATCH", parent, key, f"{what}, got {_type_name(raw)}")
        try:
            locator = parse_locator(raw)
        except LocatorError as exc:
            return _fail(diags, "LOC_SYNTAX", parent, key, exc.diagnostic.message)
        if noting:
            diags.locators.append(locator.kind)
        return make(head, locator, tuple(descr.items()) if descr is not None else None)

    return check


def _make_label(ctype, build):
    dom: ClassDomain | None = ctype.arg("dom")
    # the domain's refs by class index and by each class text that reads only
    # as a name, each added on its first lookup, so a label seen before costs
    # one dict get (a bool, equal to an index, is not looked up)
    refs, noting = dom._refs if dom is not None else {}, not build

    def check(raw, parent, key, diags):
        ref = refs.get(raw) if type(raw) is str or type(raw) is int else None
        if ref is None:
            ref, found = validate_label(raw, dom)  # a path is joined only for a finding it returns
            diags.extend([error(d.code, _path(parent, key), d.message) for d in found])
        if noting:
            diags.labels.append(ref)
        return ref

    return check


def _make_list(ctype, build):
    check_item = _checker(ctype.arg("etype"), build)

    def check(raw, parent, key, diags):
        if not isinstance(raw, list):
            return _fail(diags, "TYPE_MISMATCH", parent, key, f"expected a list, got {_type_name(raw)}")
        at = (parent, key)
        items = [check_item(item, at, i, diags) for i, item in enumerate(raw)]
        return items if build else raw

    return check


def _make_struct(ctype, build):
    """A null-complete record; a missing required field is a ``FIELD_MISSING`` warning."""
    head, names = ctype.head, ctype.fields
    fields = tuple((name, name in ctype.optional, _checker(ftype, build)) for name, ftype in ctype.fields.items())
    mismatch = f"expected a {head} record, got"
    # the optional fields a check-only closure notes, as ``((struct, field), field)``
    counted = () if build else tuple(((head, name), name) for name in sorted(ctype.optional))

    def check(raw, parent, key, diags):
        if not isinstance(raw, dict):
            return _fail(diags, "TYPE_MISMATCH", parent, key, f"{mismatch} {_type_name(raw)}")
        if counted:
            diags.fill.append((counted, raw))
        # the fields of a record at the top with an empty path are at their bare names
        inner = (parent, key) if parent is not None or key else None
        values: dict[str, object] | None = {} if build else None
        present = 0  # declared fields with a value; fewer than len(raw) means some key is undeclared
        for name, optional, check_field in fields:
            item = raw.get(name)
            if item is not None:
                present += 1
                item = check_field(item, inner, name, diags)
            elif not optional:
                diags.append(warning("FIELD_MISSING", _path(inner, name), f"required field {name!r} is missing"))
            if build:
                values[name] = item
        if present != len(raw):
            for name in raw:
                if name not in names:
                    message = f"field {show_key(name)} is not declared on {head}"
                    diags.append(warning("FIELD_UNKNOWN", _path(inner, show_number(name)), message))
        return Record(head, values) if build else raw

    return check


# each shape's factory: the closure of a type node, made from its arguments
_CHECKS = {
    "bool": lambda ctype, build: _bool,
    "int": lambda ctype, build: _int,
    "num": lambda ctype, build: _num,
    "str": lambda ctype, build: _str,
    "coord": _make_coord,
    "coord3d": _make_coord,
    "interval": _make_interval,
    "bbox": _make_bbox,
    "polygon": lambda ctype, build: _polygon,
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


def _checker(ctype: ConcreteType, build: bool = True):
    """The closure of ``ctype``: building, or with ``build`` false check-only,
    noting what it counts into a ``_Tally``. Each is compiled on first use from
    the same ``_CHECKS`` entry and kept in the node's ``_check`` or
    ``_check_only`` slot, so a node shared by many fields (see
    ``resolver._Instantiation``) or calls compiles once per mode."""
    slot = "_check" if build else "_check_only"
    check = getattr(ctype, slot, None)
    if check is None:
        check = _compile(ctype, build)
        set_field(ctype, slot, check)
    return check


def _compile(ctype: ConcreteType, build: bool = True):
    return _CHECKS[ctype.shape](ctype, build)


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

    def _add(self, tally: _Tally) -> None:
        """Count what the closures of one sample noted in ``tally``."""
        labels, locators, fill = self.labels, self.locators, self.optional_fill
        for label in map(str, tally.labels):
            labels[label] = labels.get(label, 0) + 1
        for kind in tally.locators:
            locators[kind] = locators.get(kind, 0) + 1
        for optional, raw in tally.fill:
            for at, name in optional:
                counted = fill.get(at)
                if counted is None:
                    counted = fill[at] = [0, 0]
                counted[0] += raw.get(name) is not None
                counted[1] += 1


class _Tally(list):
    """One sample's findings in check-only mode, and what its closures noted
    in walk order: each label's ref, each locator's kind, and for each struct
    with an optional field that was reached, its optional fields as
    ``((struct, field), field)`` and its raw mapping."""

    __slots__ = ("labels", "locators", "fill")

    def __init__(self):
        self.labels, self.locators, self.fill = [], [], []


def _run(check, raw, parent, key, strict: bool, diags: list[Diagnostic] | None = None) -> tuple[object, list[Diagnostic]]:
    """The value ``check`` gives for ``raw``, and its findings in ``diags`` (a new list by default)
    with ``strict`` applied: each ``FIELD_MISSING`` made an error, all that ``strict`` changes."""
    diags = [] if diags is None else diags
    value = check(raw, parent, key, diags)
    if strict:
        diags[:] = [error(d.code, d.path, d.message, d.source) if d.code == "FIELD_MISSING" else d for d in diags]
    return value, diags


def validate_value(raw, ctype: ConcreteType, path: str = "", *, strict: bool = False) -> tuple[object, list[Diagnostic]]:
    """Validate ``raw`` against the concrete type ``ctype``.

    Returns the typed value (``None`` when unusable) and the located
    diagnostics, in document order. ``strict`` makes a missing required
    field (``FIELD_MISSING``) an error; every other severity stays.
    """
    expect(ctype, ConcreteType, "validate_value() ctype must be a ConcreteType")
    expect(path, str, "validate_value() path must be a str")
    return _run(_checker(ctype), raw, None, path, strict)


def validate_label(raw, dom: ClassDomain | None, path: str = "") -> tuple[ClassRef | None, list[Diagnostic]]:
    """Resolve a label in any of its four syntaxes.

    Bare names and bare 1-based integers require a bound domain;
    ``Dom::path`` and ``Dom[idx.path]`` carry their own domain and must
    agree with the bound one when both exist.
    """
    if dom is not None and not isinstance(getattr(dom, "name", None), str):  # any domain with a str name, as ClassDomain has
        raise TypeError(f"validate_label() dom must be a ClassDomain or None, not {type(dom).__name__}")
    expect(path, str, "validate_label() path must be a str")
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
            message = f"label names domain {echo(dom_name, show=repr)} but the field is bound to {dom.name!r}"
            return None, [error("LABEL_DOMAIN_MISMATCH", path, message)]
    elif dom is None:
        what = "index" if isinstance(raw, int) else echo(raw, show=repr)
        return None, [error("LABEL_SYNTAX", path, f"bare label {what} requires a bound class domain")]
    try:
        if dom is None:  # an unbound ``Dom[idx]``, recorded likewise
            return ClassRef(dom_name, index_path(selector), ""), []
        return lookup_class(dom, selector), []
    except ClassLookupError as exc:
        return None, [error(exc.code, path, exc.diagnostic.message)]


def load_external_samples(path: str, base: str | Path) -> list:
    """Load the ``samples`` list from the external JSON or YAML file ``path``,
    which must lie below the parent of ``base`` (else ``PATH_ESCAPE``)."""
    expect(path, str, "load_external_samples() path must be a str")
    expect(base, (str, PurePath), "load_external_samples() base must be a str or PurePath")
    full, text = _read_external(path, base)
    return _decode_external(full, text, path, "samples")


_MISSING_KEY_CODES = {"samples": "MISSING_SAMPLES_KEY", "global-info": "MISSING_GLOBAL_INFO_KEY"}


def _read_external(path: str, base: str | Path) -> tuple[Path, str]:
    """The full path and the text of the external data file ``path``, which
    must resolve, symlinks followed, below the dataset root: the parent of
    ``base``, the description's directory."""
    full = Path(base) / path
    try:
        if not full.resolve().is_relative_to(Path(base).resolve().parent):
            message = f"external data file {echo(str(path), show=repr)} traverses above the dataset root"
            raise DsdlError(error("PATH_ESCAPE", echo(str(path)), message))
        if not full.is_file():
            message = f"external data file {echo(str(full))} does not exist"
            raise DsdlError(error("FILE_NOT_FOUND", echo(str(path)), message))
        return full, read_utf8(full, echo(str(path)))
    except (OSError, RuntimeError, ValueError) as exc:  # resolve() raises the last two on a symlink loop or a NUL
        message = f"cannot read external data file {echo(str(full))}: {echo(str(exc))}"
        raise DsdlError(error("FILE_NOT_FOUND", echo(str(path)), message)) from exc
    except DocumentError as exc:
        raise DsdlError(exc.diagnostic) from exc


def _decode_external(full: Path, text: str, path: str, key: str):
    """The top-level ``key`` of the external data file ``full``, decoded whole from its ``text``."""
    try:
        payload = _load_yaml(text, str(full)) if HOSTS.get(full.suffix) == "yaml" else _load_json(text, str(full))
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


# JSON's whitespace, as json itself skips it, around ``{"samples": [``, and
# after an element: a comma, or the array's closing bracket
_HEAD = re.compile(r'[ \t\n\r]*\{[ \t\n\r]*"samples"[ \t\n\r]*:[ \t\n\r]*\[[ \t\n\r]*(\]?)')
_NEXT = re.compile(r"[ \t\n\r]*(?:,[ \t\n\r]*|(\]))")
_UNDECODABLE = (StopIteration, ValueError, RecursionError, _DuplicateKey)  # what _load_json reports


def _stream_samples(text: str):
    """Each element of the ``samples`` array of the JSON ``text``, decoded
    one at a time over ``text`` itself, so that only the element being
    checked is held; the rest of the text is decoded after the last one.

    Returns ``None`` once the whole text has decoded, else the number of
    elements yielded: 0 for text that does not open with ``{"samples": [``,
    or as many as came before what the stream cannot decode (a syntax
    error, a duplicate key, an integer past the digit limit, too deep a
    nest). ``_load_json`` over the whole text then gives the finding, with
    its own line and column.
    """
    at = _HEAD.match(text)
    if at is None:
        return 0
    scan, done = json.JSONDecoder(object_pairs_hook=_json_pairs_hook).scan_once, 0
    while not at.group(1):  # until the closing bracket
        try:
            item, pos = scan(text, at.end())
        except _UNDECODABLE:
            return done
        yield item
        done += 1
        at = _NEXT.match(text, pos)
        if at is None:
            return done
    try:  # the keys after the array, the closing brace and trailing whitespace; a second "samples" is a duplicate
        json.loads('{"samples": 0' + text[at.end():], object_pairs_hook=_json_pairs_hook)
    except _UNDECODABLE:
        return done
    return None


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
        return dict(sorted(Counter([d.code for d in self.diagnostics]).items()))

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


def _raw_samples(data: RawDataSection, base):
    """Each raw sample of ``data``, once and in order: inline, or from its
    external file, which streams when it is JSON. A stream stops after a
    sample only at a fault; the whole-file load then raises its finding as a
    :class:`DsdlError`, as it does for any file that does not load."""
    if data.sample_path == LOCAL_PATH:
        yield from data.samples
        return
    full, text = _read_external(data.sample_path, base)
    done = 0
    if HOSTS.get(full.suffix) != "yaml":
        done = yield from _stream_samples(text)
    if done is not None:  # the whole-file load gives the finding, or reads what the stream did not
        yield from islice(_decode_external(full, text, data.sample_path, "samples"), done, None)


def _checked(stype: ConcreteType, items, strict: bool, build: bool):
    """Each raw sample of ``items`` as ``(index, value, findings)``, checked by the ``_checker``
    closure of ``stype`` for ``build`` into its own list (a ``_Tally`` when checking only), ``strict`` applied."""
    check, top, new = _checker(stype, build), (None, "samples"), list if build else _Tally
    for index, raw in enumerate(items):
        yield (index, *_run(check, raw, top, index, strict, new()))


def _section(function: str, schema: ResolvedSchema, data: RawDataSection | None, base) -> RawDataSection:
    """``data`` as ``check_data_section`` gives it, once the arguments of ``function`` have their types."""
    expect(schema, ResolvedSchema, f"{function}() schema must be a ResolvedSchema")
    expect(base, (str, PurePath), f"{function}() base must be a str or PurePath")
    expect(data, (RawDataSection, type(None)), f"{function}() data must be a RawDataSection or None")
    return check_data_section(data)


def iter_samples(schema: ResolvedSchema, data: RawDataSection | None, base: str | Path = ".", *, strict: bool = False):
    """Each sample of ``data`` as ``(index, value, diagnostics)``, checked as
    :func:`validate_dataset` checks it; ``value`` is ``None`` when the sample is
    unusable. No sample is kept and global info is not read. A section that
    breaks a rule of a ``data`` section raises :class:`DocumentError` before any
    sample; a sample file that does not load raises the :class:`DsdlError` of
    ``validate_dataset``'s finding, a streamed one after the samples before its fault.
    """
    data = _section("iter_samples", schema, data, base)
    if schema.sample_type is not None and data.sample_path is not None:
        yield from _checked(schema.sample_type, _raw_samples(data, base), strict, True)


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
    text has decoded; any other file is loaded whole, as is one whose
    stream stops at a fault, which gives that fault's finding.
    """
    return _fold("validate_dataset", schema, data, base, strict, max_errors, bool(build), False)[0]


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

    Each sample is counted in the one walk that checks it, each label and
    locator checked once, and only when its findings, with ``strict``
    applied, hold no error; no sample is kept. Global info is not counted.
    """
    return _fold("summarize_dataset", schema, data, base, strict, max_errors, False, True)


def check_file(file: str | PurePath, env: LibraryEnvironment, *, strict: bool = False, max_errors: int | None = None,
               count: bool = False, allow_version: bool = False) -> tuple[ValidationReport, SampleCounts]:
    """Check the description file ``file``, as ``dsdl validate`` and ``dsdl summary`` do.

    :func:`resolve_file`, then, if the schema resolved, the samples of its
    ``data`` section, with paths below the file's directory, are checked as by
    ``validate_dataset(..., build=False)``, or with ``count`` as by
    :func:`summarize_dataset`. The report holds the resolve findings first; the
    counts are empty unless ``count`` is set. ``OSError``, and the
    ``ENCODING_ERROR`` :class:`DocumentError` of a file that is not UTF-8, propagate.
    """
    path = Path(expect(file, (str, PurePath), "check_file() file must be a str or PurePath"))
    expect(env, LibraryEnvironment, "check_file() env must be a LibraryEnvironment")
    expect(max_errors, (int, type(None)), "check_file() max_errors must be an int or None")
    doc, schema, diags = resolve_file(path, env, allow_version=allow_version)
    report, counts = ValidationReport(), SampleCounts()
    if schema is not None:
        report, counts = _fold("check_file", schema, doc.data, path.parent, strict, max_errors, False, count)
    report.diagnostics[:0] = diags
    return report, counts


def _fold(function: str, schema: ResolvedSchema, data, base, strict: bool, max_errors, build: bool, count: bool):
    """The report of ``validate_dataset`` and the counts of ``summarize_dataset``,
    folded over ``_checked``: each sample's value is kept when building, its
    ``_Tally`` counted with ``count`` set when it holds no error, and its findings
    added to the report. Once ``max_errors`` is reached the rest of the raw
    samples is drawn unchecked, so a stream decodes to its end before the report is used."""
    expect(max_errors, (int, type(None)), f"{function}() max_errors must be an int or None")
    report, counts = ValidationReport(), SampleCounts()
    try:
        data = _section(function, schema, data, base)
    except DocumentError as exc:
        return ValidationReport(diagnostics=[exc.diagnostic]), counts

    if schema.sample_type is not None and data.sample_path is not None:
        samples, diags, items = report.samples, report.diagnostics, _raw_samples(data, base)
        left, index = _INF if max_errors is None else max(max_errors, 1), -1  # errors until truncation
        try:
            for index, value, found in _checked(schema.sample_type, items, strict, build):
                if build:
                    samples.append(value)
                errors = sum(1 for d in found if d.severity is Severity.ERROR) if found else 0
                if count and not errors:
                    counts._add(found)
                diags += found
                left -= errors
                if left <= 0:
                    report.truncated = sum(1 for _ in items) > 0
                    break
            report._unkept = 0 if build else index + 1
        except DsdlError as exc:  # the file does not load: the channel's report is that one finding
            report, counts = ValidationReport(diagnostics=[exc.diagnostic]), SampleCounts()

    if schema.global_info_type is not None and data.global_info_path is not None:
        try:
            if data.global_info_path == LOCAL_PATH:
                raw_info = data.global_info
            else:
                full, text = _read_external(data.global_info_path, base)
                raw_info = _decode_external(full, text, data.global_info_path, "global-info")
        except DsdlError as exc:
            report.diagnostics.append(exc.diagnostic)
        else:
            check = _checker(schema.global_info_type, build)
            value, diags = _run(check, raw_info, None, "global-info", strict, [] if build else _Tally())
            if build:
                report.global_info = value
            report.diagnostics.extend(diags)

    return report, counts
