"""Validation of raw sample values against concrete types.

Every builtin value shape is covered: scalars, fixed-arity coordinate
shapes, polygons, dates and times, labels, lists, records, media
references, keypoint sets, rotated boxes, ids, and image shapes.
Validation never raises for bad data; it returns a typed value (or
``None``) plus located diagnostics, so one bad sample never hides the
rest of the corpus.

Records are null-complete: a typed record carries every declared field
exactly once, with omitted optionals explicitly ``None``. A missing
required field is a warning by default and an error in strict mode.
"""

from __future__ import annotations

import datetime
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import (
    ClassLookupError,
    Diagnostic,
    DocumentError,
    DsdlError,
    LocatorError,
    Severity,
    error,
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


class _Validator:
    def __init__(self, strict: bool = False):
        self.strict = strict
        self.diags: list[Diagnostic] = []

    def fail(self, code: str, path: str, message: str) -> None:
        self.diags.append(error(code, path, message))

    def warn(self, code: str, path: str, message: str) -> None:
        severity = Severity.ERROR if self.strict and code == "FIELD_MISSING" else Severity.WARNING
        self.diags.append(Diagnostic(code, severity, path, message))

    def non_finite(self, value, path: str, what: str) -> bool:
        """Report NaN or an infinity as ``RANGE``; True when reported."""
        if isinstance(value, float) and not math.isfinite(value):
            self.fail("RANGE", path, f"{what} must be finite, got {value}")
            return True
        return False

    # -- dispatch ---------------------------------------------------------

    def value(self, raw, ctype: ConcreteType, path: str):
        handler = getattr(self, "_" + ctype.shape, None)
        if handler is None:  # pragma: no cover - inventory is closed
            raise AssertionError(f"no handler for shape {ctype.shape}")
        return handler(raw, ctype, path)

    # -- scalars ----------------------------------------------------------

    def _bool(self, raw, ctype, path):
        if isinstance(raw, bool):
            return raw
        self.fail("TYPE_MISMATCH", path, f"expected a boolean, got {_type_name(raw)}")
        return None

    def _int(self, raw, ctype, path):
        if isinstance(raw, bool):
            self.fail("TYPE_MISMATCH", path, "expected an integer, got boolean")
            return None
        if isinstance(raw, int):
            return raw
        if isinstance(raw, float) and raw.is_integer():
            return int(raw)
        if isinstance(raw, float):
            self.fail("TYPE_MISMATCH", path, f"expected an integer, got non-integral {raw}")
            return None
        self.fail("TYPE_MISMATCH", path, f"expected an integer, got {_type_name(raw)}")
        return None

    def _num(self, raw, ctype, path):
        if _is_number(raw):
            return None if self.non_finite(raw, path, "number") else raw
        self.fail("TYPE_MISMATCH", path, f"expected a number, got {_type_name(raw)}")
        return None

    def _str(self, raw, ctype, path):
        if isinstance(raw, str):
            return raw
        self.fail("TYPE_MISMATCH", path, f"expected a string, got {_type_name(raw)}")
        return None

    # -- fixed-arity numeric shapes ---------------------------------------

    def _numbers(self, raw, arity: int, path: str, what: str):
        if not isinstance(raw, list):
            self.fail("TYPE_MISMATCH", path, f"{what} must be a list, got {_type_name(raw)}")
            return None
        if len(raw) != arity:
            self.fail("ARITY", path, f"{what} requires exactly {arity} values, got {len(raw)}")
            return None
        for i, item in enumerate(raw):
            if not _is_number(item):
                self.fail("TYPE_MISMATCH", f"{path}/{i}", f"{what} component must be a number")
                return None
            if self.non_finite(item, f"{path}/{i}", f"{what} component"):
                return None
        return tuple(raw)

    def _coord(self, raw, ctype, path):
        return self._numbers(raw, 2, path, "Coord")

    def _coord3d(self, raw, ctype, path):
        return self._numbers(raw, 3, path, "Coord3D")

    def _interval(self, raw, ctype, path):
        values = self._numbers(raw, 2, path, "Interval")
        if values is None:
            return None
        begin, end = values
        if begin > end:
            self.fail("RANGE", path, f"interval begin {begin} exceeds end {end}")
            return None
        return IntervalValue(begin, end)

    def _bbox(self, raw, ctype, path):
        values = self._numbers(raw, 4, path, "BBox")
        if values is None:
            return None
        x, y, w, h = values
        if w < 0 or h < 0:
            self.fail("RANGE", path, f"BBox width/height must be non-negative, got {w}x{h}")
            return None
        return Box(x, y, w, h)

    def _image_shape(self, raw, ctype, path):
        values = self._numbers(raw, 2, path, "ImageShape")
        if values is None:
            return None
        out = []
        for v in values:
            if isinstance(v, float) and not v.is_integer():
                self.fail("TYPE_MISMATCH", path, "ImageShape values must be integers")
                return None
            out.append(int(v))
        if any(v <= 0 for v in out):
            self.fail("RANGE", path, f"ImageShape values must be positive, got {out}")
            return None
        return ImageShapeValue(out[0], out[1])

    def _polygon(self, raw, ctype, path):
        if not isinstance(raw, list):
            self.fail("TYPE_MISMATCH", path, f"Polygon must be a list, got {_type_name(raw)}")
            return None
        if not raw:
            self.fail("ARITY", path, "Polygon requires at least one ring")
            return None

        def is_point(item) -> bool:
            return isinstance(item, list) and len(item) == 2 and all(_is_number(v) for v in item)

        wrapped = all(is_point(item) for item in raw)
        rings_raw = [raw] if wrapped else raw
        rings = []
        for ri, ring in enumerate(rings_raw):
            ring_path = path if wrapped else f"{path}/{ri}"
            if not isinstance(ring, list):
                self.fail("TYPE_MISMATCH", ring_path, "polygon ring must be a list of points")
                return None
            if len(ring) < 3:
                self.fail("ARITY", ring_path, f"polygon ring requires at least 3 points, got {len(ring)}")
                return None
            points = []
            for pi, point in enumerate(ring):
                if not isinstance(point, list) or len(point) != 2:
                    self.fail("ARITY", f"{ring_path}/{pi}", "polygon point must be an [x, y] pair")
                    return None
                if not all(_is_number(v) for v in point):
                    self.fail("TYPE_MISMATCH", f"{ring_path}/{pi}", "polygon point must be numeric")
                    return None
                for ci, v in enumerate(point):
                    if self.non_finite(v, f"{ring_path}/{pi}/{ci}", "polygon coordinate"):
                        return None
                points.append((point[0], point[1]))
            rings.append(tuple(points))
        return tuple(rings)

    # -- dates and times ---------------------------------------------------

    def _date(self, raw, ctype, path):
        return self._datetime_value(raw, ctype, path, kind="date")

    def _time(self, raw, ctype, path):
        return self._datetime_value(raw, ctype, path, kind="time")

    def _datetime_value(self, raw, ctype, path, kind: str):
        if not isinstance(raw, str):
            self.fail("TYPE_MISMATCH", path, f"{kind} value must be a string, got {_type_name(raw)}")
            return None
        fmt = ctype.arg("fmt")
        try:
            if fmt is not None:
                parsed = datetime.datetime.strptime(raw, fmt)
                return parsed.date() if kind == "date" else parsed.time()
            if kind == "date":
                return datetime.date.fromisoformat(raw)
            return datetime.time.fromisoformat(raw)
        except ValueError as exc:
            expected = fmt if fmt is not None else "ISO 8601"
            self.fail("DATE_FORMAT", path, f"{raw!r} does not match {expected}: {exc}")
            return None

    # -- labels -------------------------------------------------------------

    def _label(self, raw, ctype, path):
        ref, diags = validate_label(raw, ctype.arg("dom"), path=path)
        self.diags.extend(diags)
        return ref

    # -- containers ----------------------------------------------------------

    def _list(self, raw, ctype, path):
        if not isinstance(raw, list):
            self.fail("TYPE_MISMATCH", path, f"expected a list, got {_type_name(raw)}")
            return None
        etype = ctype.arg("etype")
        return [self.value(item, etype, f"{path}/{i}") for i, item in enumerate(raw)]

    def _struct(self, raw, ctype, path):
        if not isinstance(raw, dict):
            self.fail("TYPE_MISMATCH", path, f"expected a {ctype.head} record, got {_type_name(raw)}")
            return None
        values: dict[str, object] = {}
        for fname, ftype in ctype.fields.items():
            fpath = f"{path}/{fname}" if path else fname
            if fname not in raw or raw[fname] is None:
                if fname not in ctype.optional:
                    self.warn("FIELD_MISSING", fpath, f"required field {fname!r} is missing")
                values[fname] = None
                continue
            values[fname] = self.value(raw[fname], ftype, fpath)
        for key in raw:
            if key not in ctype.fields:
                self.warn("FIELD_UNKNOWN", f"{path}/{key}" if path else str(key),
                          f"field {key!r} is not declared on {ctype.head}")
        return Record(ctype.head, values)

    # -- media and special shapes ---------------------------------------------

    def _media(self, raw, ctype, path):
        if isinstance(raw, str):
            return self._media_ref(raw, None, ctype, path)
        if isinstance(raw, dict):
            return self._media_mapping(raw, ctype, path)
        self.fail(
            "TYPE_MISMATCH",
            path,
            f"{ctype.head} value must be an object locator string or a $loc mapping, got {_type_name(raw)}",
        )
        return None

    def _media_mapping(self, raw, ctype, path):
        if "$loc" not in raw:
            self.fail("LOC_SYNTAX", path, f"{ctype.head} mapping lacks required key $loc")
            return None
        loc_raw = raw["$loc"]
        if not isinstance(loc_raw, str):
            self.fail("LOC_SYNTAX", f"{path}/$loc", "$loc must be a string")
            return None
        descr = raw.get("$descr")
        if descr is not None and not isinstance(descr, dict):
            self.fail("TYPE_MISMATCH", f"{path}/$descr", "$descr must be a mapping")
            return None
        for key in raw:
            if key not in ("$loc", "$descr"):
                self.warn("FIELD_UNKNOWN", f"{path}/{key}", f"unexpected key {key!r} in {ctype.head} mapping")
        return self._media_ref(loc_raw, descr, ctype, path)

    def _media_ref(self, text: str, descr, ctype, path):
        try:
            locator = parse_locator(text)
        except LocatorError as exc:
            self.fail("LOC_SYNTAX", path, exc.diagnostic.message)
            return None
        packed = tuple(descr.items()) if isinstance(descr, dict) else None
        return MediaRef(ctype.head, locator, packed)

    def _text(self, raw, ctype, path):
        # inline string content is the text itself; loading through a
        # locator requires the explicit {$loc: ...} form
        if isinstance(raw, str):
            return raw
        if isinstance(raw, dict):
            return self._media_mapping(raw, ctype, path)
        self.fail("TYPE_MISMATCH", path, f"Text value must be a string or $loc mapping, got {_type_name(raw)}")
        return None

    def _instance_id(self, raw, ctype, path):
        return self._id_value(raw, path, "InstanceID")

    def _unique_id(self, raw, ctype, path):
        return self._id_value(raw, path, "UniqueID")

    def _id_value(self, raw, path, what):
        if isinstance(raw, bool):
            self.fail("TYPE_MISMATCH", path, f"{what} must be an integer or string, got boolean")
            return None
        if isinstance(raw, int):
            return str(raw)
        if isinstance(raw, str):
            return raw
        self.fail("TYPE_MISMATCH", path, f"{what} must be an integer or string, got {_type_name(raw)}")
        return None

    def _keypoint(self, raw, ctype, path):
        dom: ClassDomain = ctype.arg("dom")
        if not isinstance(raw, list):
            self.fail("TYPE_MISMATCH", path, f"Keypoint value must be a flat list, got {_type_name(raw)}")
            return None
        expected = 3 * len(dom.classes)
        if len(raw) != expected:
            self.fail(
                "ARITY",
                path,
                f"keypoint list for {dom.name} ({len(dom.classes)} classes) requires {expected} values, got {len(raw)}",
            )
            return None
        for i, item in enumerate(raw):
            if not _is_number(item):
                self.fail("TYPE_MISMATCH", f"{path}/{i}", "keypoint component must be a number")
                return None
            if self.non_finite(item, f"{path}/{i}", "keypoint component"):
                return None
        triples = tuple(
            (raw[i], raw[i + 1], raw[i + 2]) for i in range(0, len(raw), 3)
        )
        return KeypointSet(dom.name, triples)

    def _rotated_bbox(self, raw, ctype, path):
        mode = ctype.arg("mode")
        measure = ctype.arg("measure", "radian")
        arity = 8 if mode == "xyxy" else 5
        values = self._numbers(raw, arity, path, f"RotatedBBox[mode={mode}]")
        if values is None:
            return None
        if mode == "xywht":
            angle = values[4]
            bound = 180.0 if measure == "degree" else math.pi
            if not (-bound < angle < bound):
                unit = "degrees" if measure == "degree" else "radians"
                self.fail("RANGE", path, f"rotation angle {angle} outside (-{bound}, {bound}) {unit}")
                return None
        return RotatedBox(mode, measure, values)


def validate_value(
    raw, ctype: ConcreteType, path: str = "", *, strict: bool = False
) -> tuple[object, list[Diagnostic]]:
    """Validate ``raw`` against the concrete type ``ctype``.

    Returns the typed value (``None`` when unusable) and the located
    diagnostics, in document order.
    """
    v = _Validator(strict=strict)
    value = v.value(raw, ctype, path)
    return value, v.diags


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
    payload = _load_external(path, base)
    if "samples" not in payload:
        raise DsdlError(
            error("MISSING_SAMPLES_KEY", "samples", f"{path} has no top-level 'samples' key")
        )
    samples = payload["samples"]
    if not isinstance(samples, list):
        raise DsdlError(error("MALFORMED_SAMPLES", "samples", f"'samples' in {path} is not a list"))
    return samples


def load_external_global_info(path: str, base: str | Path):
    """Load the ``global-info`` value from an external JSON or YAML file."""
    payload = _load_external(path, base)
    if "global-info" not in payload:
        raise DsdlError(
            error("MISSING_GLOBAL_INFO_KEY", "global-info", f"{path} has no top-level 'global-info' key")
        )
    return payload["global-info"]


def _load_external(path: str, base: str | Path) -> dict:
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
    return payload


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

    raw_samples: list | None = None
    if schema.sample_type is not None and data.sample_path is not None:
        if data.sample_path == LOCAL_PATH:
            raw_samples = data.samples or []
        else:
            try:
                raw_samples = load_external_samples(data.sample_path, base)
            except DsdlError as exc:
                report.diagnostics.append(exc.diagnostic)

    if raw_samples is not None:
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
        raw_info = None
        have_info = False
        if data.global_info_path == LOCAL_PATH:
            raw_info = data.global_info
            have_info = True
        elif data.global_info_path is not None:
            try:
                raw_info = load_external_global_info(data.global_info_path, base)
                have_info = True
            except DsdlError as exc:
                report.diagnostics.append(exc.diagnostic)
        if have_info:
            value, diags = validate_value(raw_info, schema.global_info_type, "global-info", strict=strict)
            report.global_info = value
            report.diagnostics.extend(diags)

    return report
