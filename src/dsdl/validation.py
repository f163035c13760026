"""Validation of raw sample values against concrete types.

Every builtin value shape is covered: scalars, fixed-arity coordinate
shapes, polygons, dates and times, labels, lists, records, media
references, keypoint sets, rotated boxes, ids, and image shapes.
Validation never raises for bad data; it returns a typed value (or
``None``) plus located diagnostics, so one bad sample never hides the
rest of the corpus.

Each value shape has one checker, found by a single ``_CHECKS`` lookup.
Records are null-complete: a typed record carries every declared field
exactly once, with omitted optionals explicitly ``None``. A missing
required field is a ``FIELD_MISSING`` warning; ``validate_value`` makes
it an error in strict mode, and strict mode changes nothing else.
"""

from __future__ import annotations

import datetime
import math
import re
from dataclasses import dataclass, field, replace
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

_QUALIFIED_NAME = re.compile(r"(?P<dom>[A-Za-z_][A-Za-z0-9_]*)::(?P<path>.+)", re.DOTALL)
_QUALIFIED_INDEX = re.compile(r"(?P<dom>[A-Za-z_][A-Za-z0-9_]*)\[(?P<idx>\d+(\.\d+)*)\]")


@dataclass(frozen=True)
class Box:
    x: float
    y: float
    w: float
    h: float


@dataclass(frozen=True)
class IntervalValue:
    begin: float
    end: float


@dataclass(frozen=True)
class ImageShapeValue:
    """Stored as (width, height) by convention; recorded verbatim."""

    width: int
    height: int


@dataclass(frozen=True)
class RotatedBox:
    mode: str
    measure: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class KeypointSet:
    """Flat ``[x, y, v, ...]`` triples; visibility is kept, not judged."""

    domain: str
    points: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class MediaRef:
    class_name: str
    locator: ObjectLocator
    descr: tuple | None = None

    def descriptor(self) -> dict | None:
        return dict(self.descr) if self.descr is not None else None


@dataclass
class Record:
    struct_name: str
    values: dict[str, object]

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


# Every checker is ``check(raw, ctype, path, diags)``: it appends its
# findings to ``diags`` and returns the typed value, or None when the
# input is unusable. ``_CHECKS`` maps each value shape to its checker.

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


def _check_label(raw, ctype, path, diags):
    ref, found = validate_label(raw, ctype.arg("dom"), path=path)
    diags.extend(found)
    return ref


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


# -- containers -------------------------------------------------------------------


def _check_list(raw, ctype, path, diags):
    if not isinstance(raw, list):
        return _fail(diags, "TYPE_MISMATCH", path, f"expected a list, got {_type_name(raw)}")
    etype = ctype.arg("etype")
    check = _CHECKS[etype.shape]
    return [check(item, etype, f"{path}/{i}", diags) for i, item in enumerate(raw)]


def _check_struct(raw, ctype, path, diags):
    """A null-complete record; a missing required field is a ``FIELD_MISSING`` warning."""
    if not isinstance(raw, dict):
        return _fail(diags, "TYPE_MISMATCH", path, f"expected a {ctype.head} record, got {_type_name(raw)}")
    values: dict[str, object] = {}
    for fname, ftype in ctype.fields.items():
        fpath = f"{path}/{fname}" if path else fname
        item = raw.get(fname)
        if item is None:
            if fname not in ctype.optional:
                diags.append(warning("FIELD_MISSING", fpath, f"required field {fname!r} is missing"))
            values[fname] = None
        else:
            values[fname] = _CHECKS[ftype.shape](item, ftype, fpath, diags)
    for key in raw:
        if key not in ctype.fields:
            message = f"field {key!r} is not declared on {ctype.head}"
            diags.append(warning("FIELD_UNKNOWN", f"{path}/{key}" if path else str(key), message))
    return Record(ctype.head, values)


_CHECKS = {
    "bool": _check_bool,
    "int": _check_int,
    "num": _check_num,
    "str": _check_str,
    "coord": _check_coord,
    "coord3d": _check_coord,
    "interval": _check_interval,
    "bbox": _check_bbox,
    "polygon": _check_polygon,
    "date": _check_datetime,
    "time": _check_datetime,
    "label": _check_label,
    "list": _check_list,
    "media": _check_media,
    "text": _check_media,
    "keypoint": _check_keypoint,
    "rotated_bbox": _check_rotated_bbox,
    "instance_id": _check_id,
    "unique_id": _check_id,
    "image_shape": _check_image_shape,
    "struct": _check_struct,
}


def validate_value(
    raw, ctype: ConcreteType, path: str = "", *, strict: bool = False
) -> tuple[object, list[Diagnostic]]:
    """Validate ``raw`` against the concrete type ``ctype``.

    Returns the typed value (``None`` when unusable) and the located
    diagnostics, in document order. ``strict`` makes a missing required
    field (``FIELD_MISSING``) an error; every other severity stays.
    """
    diags: list[Diagnostic] = []
    value = _CHECKS[ctype.shape](raw, ctype, path, diags)
    if strict:
        diags = [replace(d, severity=Severity.ERROR) if d.code == "FIELD_MISSING" else d for d in diags]
    return value, diags


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


@dataclass
class ValidationReport:
    """Everything one validation run produced, in document order."""

    samples: list = field(default_factory=list)
    global_info: object = None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    sample_count: int = 0
    truncated: bool = False

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
            errors_seen = 0
            for i, raw in enumerate(raw_samples):
                value, diags = validate_value(raw, schema.sample_type, f"samples/{i}", strict=strict)
                report.samples.append(value)
                report.diagnostics.extend(diags)
                errors_seen += sum(1 for d in diags if d.severity is Severity.ERROR)
                if max_errors is not None and errors_seen >= max(max_errors, 1) and i + 1 < len(raw_samples):
                    report.truncated = True
                    break
            report.sample_count = len(report.samples)

    if schema.global_info_type is not None:
        raw_info = _load_channel(data.global_info_path, data.global_info, "global-info", base, report)
        if raw_info is not _ABSENT:
            value, diags = validate_value(raw_info, schema.global_info_type, "global-info", strict=strict)
            report.global_info = value
            report.diagnostics.extend(diags)

    return report
