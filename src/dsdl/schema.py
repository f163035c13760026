"""Schema model: class domains, struct classes, and the builtin inventory.

A ``defs`` section defines two kinds of entities, discriminated by
``$def``: ``class_domain`` (an ordered, possibly hierarchical list of
category names) and ``struct`` (a record schema with fields, optional
parameters, and an optional-field set). Builtin types carry parameter
signatures consumed by the resolver and a value-shape tag consumed by
the validation engine.

Class indices are 1-based throughout: ``COCO[3]`` is the third declared
class. A single index addresses the flat declared list; a dotted index
path (``3.2.5``) walks the hierarchy implied by dotted class names.
"""

from __future__ import annotations

import re

from .diagnostics import ClassLookupError, Diagnostic, error, show_number, warning
from .document import split_definition_key
from .slotted import Frozen, Slotted, set_field
from .typeexpr import (
    GrammarError,
    TypeExpr,
    parse_sample_type_spec,
    walk_param_refs,
)

_SEGMENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SEGMENT_ANNOT_RE = re.compile(r"(?P<name>[^\[\]]+)(\[(?P<parent>[^\]]+)\])?")
# a whole dotted path of plain identifiers: no annotation, no warning
_PLAIN_PATH_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


class ClassSegment(Frozen):
    """One dotted-path segment, optionally annotated ``name[parent]``."""

    __slots__ = ("name", "parent")

    def __init__(self, name: str, parent: str | None = None):
        set_field(self, "name", name)
        set_field(self, "parent", parent)


ClassPath = tuple[ClassSegment, ...]


class ClassRef(Frozen):
    """A resolved reference to a class within a domain.

    ``index_path`` is the 1-based hierarchical position (one entry per
    path segment); it is empty for references that were parsed from a
    qualified name without a resolvable domain.
    """

    __slots__ = ("domain", "index_path", "path")

    def __init__(self, domain: str, index_path: tuple[int, ...], path: str):
        set_field(self, "domain", domain)
        set_field(self, "index_path", index_path)
        set_field(self, "path", path)

    def __str__(self) -> str:
        if self.path:
            return f"{self.domain}::{self.path}"
        return f"{self.domain}[{'.'.join(str(i) for i in self.index_path)}]"


class ClassDomain(Frozen):
    """An ordered, possibly hierarchical list of class paths.

    Only :func:`build_definitions` creates domains. It fills the lookup
    tables in the same pass that parses ``classes``, so the cost of
    :func:`lookup_class` does not depend on the domain's size: ``refs``
    holds every class in declared order (the flat 1-based index),
    ``by_name`` maps each dotted name to its ref, ``by_leaf`` maps the
    last segment of each multi-segment class to its ref, or to ``None``
    when several classes share it, and ``children`` lists the distinct
    names below each name prefix in first-appearance order.
    """

    __slots__ = ("name", "classes", "skeleton", "parents", "refs", "by_name", "by_leaf", "children")
    _fields = __slots__[:4]  # equality, hash and repr leave out the lookup tables

    def __init__(self, name: str, classes: list[ClassPath], skeleton, parents, refs, by_name, by_leaf, children):
        set_field(self, "name", name)
        set_field(self, "classes", classes)
        set_field(self, "skeleton", skeleton)
        set_field(self, "parents", parents)
        set_field(self, "refs", refs)
        set_field(self, "by_name", by_name)
        set_field(self, "by_leaf", by_leaf)
        set_field(self, "children", children)

    def __len__(self) -> int:
        return len(self.refs)

    def class_names(self) -> list[str]:
        return [ref.path for ref in self.refs]


class StructClass(Frozen):
    __slots__ = ("name", "params", "fields", "optional", "parents")

    def __init__(self, name: str, params=None, fields=None, optional: frozenset[str] = frozenset(), parents=None):
        set_field(self, "name", name)
        set_field(self, "params", [] if params is None else params)
        set_field(self, "fields", {} if fields is None else fields)
        set_field(self, "optional", optional)
        set_field(self, "parents", [] if parents is None else parents)


Definition = ClassDomain | StructClass


class ParamSpec(Frozen):
    __slots__ = ("name", "kind", "required", "default")

    def __init__(self, name: str, kind: str, required: bool = True, default: object = None):
        set_field(self, "name", name)
        set_field(self, "kind", kind)  # domain-ref | type-ref | string | bool
        set_field(self, "required", required)
        set_field(self, "default", default)


class BuiltinSignature(Frozen):
    __slots__ = ("name", "params", "shape")

    def __init__(self, name: str, params: tuple[ParamSpec, ...], shape: str):
        set_field(self, "name", name)
        set_field(self, "params", params)
        set_field(self, "shape", shape)


def _sig(name: str, shape: str, *params: ParamSpec) -> BuiltinSignature:
    return BuiltinSignature(name, params, shape)


BUILTINS: dict[str, BuiltinSignature] = {
    s.name: s
    for s in (
        _sig("Bool", "bool"),
        _sig("Int", "int"),
        _sig("Num", "num"),
        _sig("Str", "str"),
        _sig("Coord", "coord"),
        _sig("Coord3D", "coord3d"),
        _sig("Interval", "interval"),
        _sig("BBox", "bbox"),
        _sig("Polygon", "polygon"),
        _sig("Date", "date", ParamSpec("fmt", "string", required=False)),
        _sig("Time", "time", ParamSpec("fmt", "string", required=False)),
        _sig("Label", "label", ParamSpec("dom", "domain-ref")),
        _sig(
            "List",
            "list",
            ParamSpec("etype", "type-ref"),
            ParamSpec("ordered", "bool", required=False, default=False),
        ),
        _sig("Image", "media"),
        _sig("Video", "media"),
        _sig("Audio", "media"),
        _sig("Text", "text"),
        _sig("PointCloud", "media"),
        _sig("LabelMap", "media", ParamSpec("dom", "domain-ref")),
        _sig("InstanceMap", "media"),
        _sig("Keypoint", "keypoint", ParamSpec("dom", "domain-ref")),
        _sig(
            "RotatedBBox",
            "rotated_bbox",
            ParamSpec("mode", "string"),
            ParamSpec("measure", "string", required=False, default="radian"),
        ),
        _sig("InstanceID", "instance_id"),
        _sig("UniqueID", "unique_id"),
        _sig("ImageShape", "image_shape"),
    )
}

MEDIA_BUILTINS = tuple(name for name, s in BUILTINS.items() if s.shape in ("media", "text"))


class DefinitionRegistry(Slotted):
    """Name -> definition mapping, and name -> the file it came from (``None`` when inline)."""

    __slots__ = ("entries", "provenance")

    def __init__(self, entries: dict[str, Definition] | None = None, provenance: dict[str, str | None] | None = None):
        self.entries = {} if entries is None else entries
        self.provenance = {} if provenance is None else provenance

    def get(self, name: str) -> Definition | None:
        return self.entries.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def items(self):
        return self.entries.items()


def build_definitions(
    raw_defs: dict[str, object],
    *,
    provenance: dict[str, str | None] | None = None,
) -> tuple[DefinitionRegistry, list[Diagnostic]]:
    """Classify raw ``defs`` entries into a :class:`DefinitionRegistry`.

    Malformed entries are reported and skipped; well-formed siblings
    still register, so one bad definition does not hide the rest.
    """
    registry = DefinitionRegistry()
    diags: list[Diagnostic] = []
    for key, body in raw_defs.items():
        source = (provenance or {}).get(key)
        name, parents = split_definition_key(key)
        path = f"defs/{name}"
        if not isinstance(body, dict):
            diags.append(error("MALFORMED_DEF", path, "definition body must be a mapping", source))
            continue
        kind = body.get("$def")
        if kind == "class_domain":
            entry = _build_class_domain(name, parents, body, path, source, diags)
        elif kind == "struct":
            entry = _build_struct(name, parents, body, path, source, diags)
        elif kind is None:
            diags.append(error("MALFORMED_DEF", path, "definition lacks a $def discriminator", source))
            continue
        else:
            diags.append(
                error("UNKNOWN_DEF_KIND", path, f"unknown $def value {kind!r} (expected struct or class_domain)", source)
            )
            continue
        if entry is None:
            continue
        registry.entries[name] = entry
        registry.provenance[name] = source
    return registry, diags


def _build_class_domain(
    name: str,
    parents: list[str],
    body: dict,
    path: str,
    source: str | None,
    diags: list[Diagnostic],
) -> ClassDomain | None:
    classes_raw = body.get("classes")
    if not isinstance(classes_raw, list) or not classes_raw:
        diags.append(error("MALFORMED_DEF", path, "class_domain requires a non-empty classes list", source))
        return None
    for key in body:
        if key not in ("$def", "classes", "skeleton"):
            diags.append(warning("DEF_UNKNOWN_KEY", f"{path}/{key}", f"unrecognized class_domain key {key!r}", source))

    classes: list[ClassPath] = []
    refs: list[ClassRef] = []
    by_name: dict[str, ClassRef] = {}
    by_leaf: dict[str, ClassRef | None] = {}
    positions: dict[tuple[str, ...], dict[str, int]] = {}  # prefix -> {child: 1-based position}
    plain: dict[str, ClassSegment] = {}  # equal plain segments are shared
    for i, item in enumerate(classes_raw):
        if not isinstance(item, str) or not item:
            diags.append(error("MALFORMED_DEF", f"{path}/classes/{i}", "class name must be a non-empty string", source))
            return None
        if _PLAIN_PATH_RE.fullmatch(item):
            text = item
            names = tuple(item.split("."))
            cls_path = tuple([plain.get(n) or plain.setdefault(n, ClassSegment(n)) for n in names])
        else:
            segments = []
            for seg_text in item.split("."):
                m = _SEGMENT_ANNOT_RE.fullmatch(seg_text)
                if not m:
                    diags.append(error("MALFORMED_DEF", f"{path}/classes/{i}", f"malformed class path {item!r}", source))
                    return None
                seg_name = m.group("name")
                if not _SEGMENT_RE.fullmatch(seg_name):
                    # taken verbatim, but flagged: the convention is to map
                    # special characters to underscores in global-info
                    diags.append(
                        warning("CLASS_NAME_SYNTAX", f"{path}/classes/{i}", f"class name segment {seg_name!r} is not an identifier", source)
                    )
                segments.append(ClassSegment(seg_name, m.group("parent")))
            cls_path = tuple(segments)
            names = tuple(seg.name for seg in segments)
            text = ".".join(names)
        if text in by_name:
            diags.append(error("MALFORMED_DEF", f"{path}/classes/{i}", f"duplicate class path {text!r}", source))
            return None
        index_path = []
        for depth, seg_name in enumerate(names):
            prefix = names[:depth]
            siblings = positions.get(prefix)
            if siblings is None:
                siblings = positions[prefix] = {}
            position = siblings.get(seg_name)
            if position is None:
                position = siblings[seg_name] = len(siblings) + 1
            index_path.append(position)
        ref = ClassRef(name, tuple(index_path), text)
        refs.append(ref)
        by_name[text] = ref
        if len(names) > 1:
            leaf = names[-1]
            by_leaf[leaf] = None if leaf in by_leaf else ref
        classes.append(cls_path)

    skeleton = None
    skeleton_raw = body.get("skeleton")
    if skeleton_raw is not None:
        if not isinstance(skeleton_raw, list):
            diags.append(error("MALFORMED_DEF", f"{path}/skeleton", "skeleton must be a list of index pairs", source))
            return None
        skeleton = []
        for i, pair in enumerate(skeleton_raw):
            ok = (
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
            )
            if not ok:
                diags.append(error("MALFORMED_DEF", f"{path}/skeleton/{i}", f"skeleton entry {pair!r} is not a pair of integers", source))
                return None
            a, b = pair
            if not (1 <= a <= len(classes) and 1 <= b <= len(classes)) or a == b:
                diags.append(
                    error(
                        "MALFORMED_DEF",
                        f"{path}/skeleton/{i}",
                        f"skeleton pair [{a}, {b}] out of range for {len(classes)} classes",
                        source,
                    )
                )
                return None
            skeleton.append((a, b))

    children = {prefix: list(siblings) for prefix, siblings in positions.items()}
    return ClassDomain(name, classes, skeleton, parents, refs, by_name, by_leaf, children)


def _build_struct(
    name: str,
    parents: list[str],
    body: dict,
    path: str,
    source: str | None,
    diags: list[Diagnostic],
) -> StructClass | None:
    fields_raw = body.get("$fields")
    if not isinstance(fields_raw, dict) or not fields_raw:
        diags.append(error("MALFORMED_DEF", path, "struct requires a non-empty $fields mapping", source))
        return None
    for key in body:
        if key not in ("$def", "$fields", "$params", "$optional"):
            diags.append(warning("DEF_UNKNOWN_KEY", f"{path}/{key}", f"unrecognized struct key {key!r}", source))

    params_raw = body.get("$params", [])
    if not isinstance(params_raw, list) or not all(isinstance(p, str) for p in params_raw):
        diags.append(error("MALFORMED_DEF", f"{path}/$params", "$params must be a list of names", source))
        return None

    fields: dict[str, TypeExpr] = {}
    for fname, spec in fields_raw.items():
        fpath = f"{path}/$fields/{fname}"
        try:
            fields[str(fname)] = parse_sample_type_spec(spec)
        except GrammarError as exc:
            diags.append(error(exc.diagnostic.code, fpath, exc.diagnostic.message, source))
            return None

    optional_raw = body.get("$optional", [])
    if not isinstance(optional_raw, list) or not all(isinstance(o, str) for o in optional_raw):
        diags.append(error("MALFORMED_DEF", f"{path}/$optional", "$optional must be a list of field names", source))
        return None
    bad = [o for o in optional_raw if o not in fields]
    if bad:
        diags.append(
            error(
                "OPTIONAL_UNKNOWN_FIELD",
                f"{path}/$optional",
                f"$optional names unknown fields: {', '.join(sorted(bad))}",
                source,
            )
        )
        return None

    declared = set(params_raw)
    for fname, expr in fields.items():
        for ref in walk_param_refs(expr):
            if ref.name not in declared:
                diags.append(
                    error(
                        "UNBOUND_PARAM",
                        f"{path}/$fields/{fname}",
                        f"${ref.name} is not declared in $params",
                        source,
                    )
                )
                return None

    return StructClass(name, list(params_raw), fields, frozenset(optional_raw), parents)


_INDEX_PATH_RE = re.compile(r"\d+(\.\d+)*")


def lookup_class(domain: ClassDomain, selector: str | int) -> ClassRef:
    """Resolve a class selector against ``domain``.

    Selectors are dot-delimited name paths (``animal.dog.hound``), a
    bare 1-based integer addressing the flat declared list, or a dotted
    1-based index path (``3.2.5``) walking the hierarchy. A selector
    that reads as an index path is never taken as a name. Raises
    :class:`ClassLookupError` with ``CLASS_NOT_FOUND`` or
    ``CLASS_INDEX_RANGE``; a selector that is neither ``str`` nor
    ``int`` (``bool`` included) is an invalid ``CLASS_NOT_FOUND``.

    Every lookup reads the domain's tables, built once when the domain
    was defined, so its cost does not depend on the domain's size: an
    index path costs one step per level.
    """
    if isinstance(selector, bool) or not isinstance(selector, (str, int)):
        raise ClassLookupError(error("CLASS_NOT_FOUND", "", f"invalid class selector {selector!r}"))
    if isinstance(selector, int):
        return _lookup_flat(domain, selector)
    if _INDEX_PATH_RE.fullmatch(selector):
        parts = index_path(selector)
        if len(parts) == 1:
            return _lookup_flat(domain, parts[0])
        names: tuple[str, ...] = ()
        for idx in parts:
            siblings = domain.children.get(names, ())
            if not 1 <= idx <= len(siblings):
                raise ClassLookupError(
                    error(
                        "CLASS_INDEX_RANGE",
                        "",
                        f"index {show_number(idx)} out of range 1..{len(siblings)} at level {len(names) + 1}",
                    )
                )
            names += (siblings[idx - 1],)
        ref = domain.by_name.get(".".join(names))
        if ref is None:
            raise ClassLookupError(
                error("CLASS_NOT_FOUND", "", f"index path {selector!r} addresses no declared class in {domain.name}")
            )
        return ref
    ref = domain.by_name.get(selector)
    if ref is not None:
        return ref
    if selector in domain.by_leaf:
        # a bare leaf is accepted when it is unambiguous in the domain
        ref = domain.by_leaf[selector]
        if ref is None:
            raise ClassLookupError(
                error("CLASS_NOT_FOUND", "", f"class name {selector!r} is ambiguous in {domain.name}")
            )
        return ref
    raise ClassLookupError(error("CLASS_NOT_FOUND", "", f"no class {selector!r} in {domain.name}"))


def index_path(selector: str) -> tuple[int, ...]:
    """The indices of a dotted index path such as ``3.2.5``; an index past
    Python's int-to-string digit limit is a ``CLASS_INDEX_RANGE`` lookup error."""
    try:
        return tuple([int(p) for p in selector.split(".")])
    except ValueError:
        raise ClassLookupError(error("CLASS_INDEX_RANGE", "", "class index has too many digits")) from None


def _lookup_flat(domain: ClassDomain, index: int) -> ClassRef:
    refs = domain.refs
    if not 1 <= index <= len(refs):
        raise ClassLookupError(
            error(
                "CLASS_INDEX_RANGE",
                "",
                f"class index {show_number(index)} out of range 1..{len(refs)} in {domain.name}",
            )
        )
    return refs[index - 1]
