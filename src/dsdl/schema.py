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
from itertools import islice

from .diagnostics import ClassLookupError, Diagnostic, ResolutionError, echo, error, expect, show_key, show_number, warning
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
_PLAIN_PATH_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")
# the bytes of plain dotted paths, and a segment after a dot that is empty or
# begins with a digit; a class list is checked in blocks of ``_PLAIN_BLOCK``
# classes to bound the joined text and its byte copy
_PLAIN_BYTES = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_."
_PLAIN_GAP_RE = re.compile(r"\.[0-9.]")
_PLAIN_BLOCK = 256


class ClassSegment(Frozen):
    """One dotted-path segment, optionally annotated ``name[parent]``."""

    __slots__ = ("name", "parent")
    _defaults = {"parent": None}


ClassPath = tuple[ClassSegment, ...]


class ClassRef(Frozen):
    """A resolved reference to a class within a domain.

    ``index_path`` is the 1-based hierarchical position (one entry per
    path segment); it is empty for references that were parsed from a
    qualified name without a resolvable domain.

    A domain's shared ref places its ``index_path`` when that field is
    first read (as equality, hash, repr and pickling do): until then it
    holds the domain's placement, which keeps the class list alive, though
    not the domain.
    """

    __slots__ = ("domain", "index_path", "path", "_placed_by")

    def __getattr__(self, name: str):
        # reached only for a slot not set: a lazy ref's ``index_path`` before its first read
        if name != "index_path":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        placement, index = self._placed_by
        index_path = placement.index_path(index)
        set_field(self, "index_path", index_path)
        object.__delattr__(self, "_placed_by")
        return index_path

    def __str__(self) -> str:
        if self.path:
            return f"{self.domain}::{self.path}"
        return f"{self.domain}[{'.'.join(str(i) for i in self.index_path)}]"


class _Placement(Slotted):
    """A domain's sweep that places each child's 1-based position below each
    dotted prefix (``""`` is the top), in first-appearance order, kept between
    lookups so that each extends it only as far as it reads.

    ``positions`` covers ``names[:placed]``; ``last`` and ``siblings`` are the
    sweep's last prefix and its children. The index path of class i depends
    only on ``names[:i]``, so placing up to i is exact. ``children`` lists
    the children of each prefix that an index path has walked, as far as it
    has read them. It holds no domain or ref, so a ref that holds it
    makes no reference cycle. A class in the same branch as the one before
    it costs one ``rpartition`` and one ``setdefault``; an index path checks
    for its child only where a run of siblings begins, since each name
    within the run of its prefix adds at most one child.
    """

    __slots__ = ("names", "index", "positions", "placed", "last", "siblings", "children")

    def __init__(self, names: list[str], index: dict[str, int]):
        self.names, self.index, self.children = names, index, {}
        self.placed, self.last, self.siblings = 0, "", {}
        self.positions = {"": self.siblings}

    def place(self, stop: int, prefix: str | None = None, count: int = 0) -> None:
        """Extend the sweep over ``names[:stop]``. Given a ``prefix``, stop
        before the leaf of the first name that begins a run of names below
        it, or whose new ancestors give it ``count`` children."""
        if stop <= self.placed:
            return
        positions, last, siblings = self.positions, self.last, self.siblings
        for text in self.names[self.placed:stop]:
            parent, _, leaf = text.rpartition(".")
            if parent != last:
                last, siblings = parent, positions.get(parent)
                if siblings is None:  # a prefix seen for the first time: place it and its ancestors
                    above = ""
                    for seg in parent.split("."):
                        level = positions.setdefault(above, {})
                        if seg not in level:
                            level[seg] = len(level) + 1
                        above = f"{above}.{seg}" if above else seg
                    siblings = positions[parent] = {}
                if prefix is not None and (parent == prefix or len(positions.get(prefix, ())) >= count):
                    stop = self.index[text] - 1  # this name's leaf is placed on the next call
                    break
            siblings.setdefault(leaf, len(siblings) + 1)
        self.placed, self.last, self.siblings = stop, last, siblings

    def index_path(self, index: int) -> tuple[int, ...]:
        """The index path of the ``index``-th class (1-based), placing up to it."""
        self.place(index)
        positions, prefix, index_path = self.positions, "", []
        for seg in self.names[index - 1].split("."):
            index_path.append(positions[prefix][seg])
            prefix = f"{prefix}.{seg}" if prefix else seg
        return tuple(index_path)

    def child(self, prefix: str, idx: int) -> str | None:
        """The text of the ``idx``-th child of ``prefix``, placing names only until
        it has one; ``None``, with every name placed, when it has none."""
        names, positions = self.names, self.positions
        while len(positions.get(prefix, ())) < idx and self.placed < len(names):
            if self.last == prefix:  # in a run below prefix, each name gives it at most one child
                self.place(min(len(names), self.placed + idx - len(positions[prefix])))
            else:
                self.place(len(names), prefix, idx)
        siblings = positions.get(prefix, ())
        if not 1 <= idx <= len(siblings):
            self.place(len(names))  # so that a range message counts every child
            return None
        children = self.children.setdefault(prefix, [])
        if len(children) < idx:  # the children placed since the last read are the last keys
            children += reversed([*islice(reversed(siblings), len(siblings) - len(children))])
        return f"{prefix}.{children[idx - 1]}" if prefix else children[idx - 1]


class ClassDomain(Frozen):
    """An ordered, possibly hierarchical list of class paths.

    :func:`build_definitions` builds the domains of a description, and at
    resolve time does only the per-class work that its checks need. A
    domain keeps the declared ``items``, the canonical dotted text of each
    class in ``names`` (the declared list itself when every item is a plain
    dotted identifier) and ``index``, each text's 1-based position.

    The hierarchy tables are built by the lookups that read them and then
    kept. ``placement`` (a :class:`_Placement`, made on the first
    :meth:`ref` or index path) places each child's 1-based position below a
    dotted prefix only as far down the class list as a lookup reads: a
    name, integer or ``Dom::path`` lookup places nothing, reading a ref's
    ``index_path`` places up to that class, and an index path places until
    each prefix it walks has the wanted child (all of the list when one has
    not). ``leaves``, the last segment of each multi-segment class -> its
    index (0 when several classes share it), is built on the first bare
    name that is not a class text.

    The :class:`ClassRef` of a class is made by :meth:`ref` on its first
    lookup and then shared. ``classes``, the classes as segments, is made
    from ``items`` on first access. Equality, hash and repr mean name,
    classes, skeleton and parents.
    """

    __slots__ = (
        "name", "items", "skeleton", "parents", "names", "index",
        "_refs", "_classes", "_placement", "_leaves", "__weakref__",
    )
    _fields = ("name", "classes", "skeleton", "parents")

    def __init__(self, name: str, items: list[str], skeleton, parents, names, index):
        self.__setstate__([name, items, skeleton, parents, names, index])

    def __setstate__(self, state: list) -> None:
        super().__setstate__(state)
        set_field(self, "_refs", {})  # class index, and class text when only a name reads it -> its ClassRef
        for cache in ("_classes", "_placement", "_leaves"):
            set_field(self, cache, None)

    @property
    def classes(self) -> list[ClassPath]:
        classes = self._classes
        if classes is None:
            classes = [
                tuple([ClassSegment(*_SEGMENT_ANNOT_RE.fullmatch(seg).group("name", "parent")) for seg in item.split(".")])
                for item in self.items
            ]
            set_field(self, "_classes", classes)
        return classes

    @property
    def placement(self) -> _Placement:
        placement = self._placement
        if placement is None:
            placement = _Placement(self.names, self.index)
            set_field(self, "_placement", placement)
        return placement

    @property
    def leaves(self) -> dict[str, int]:
        leaves = self._leaves
        if leaves is None:
            leaves = _leaves(self.names)
            set_field(self, "_leaves", leaves)
        return leaves

    def ref(self, index: int) -> ClassRef:
        """The ref of the ``index``-th class (1-based), made on first use and then
        shared; an index outside the domain is a ``CLASS_INDEX_RANGE`` lookup error.
        It is kept under its class text too, unless an index path (a leading
        digit) or ``Dom::path`` (a ``::``) reads that text as a label; no
        text holds the bracket of ``Dom[idx]``."""
        ref = self._refs.get(index)
        if ref is None:
            if not 1 <= index <= len(self.names):
                message = f"class index {show_number(index)} out of range 1..{len(self.names)} in {self.name}"
                raise ClassLookupError(error("CLASS_INDEX_RANGE", "", message))
            text = self.names[index - 1]
            ref = self._refs[index] = ClassRef(self.name, None, text)
            object.__delattr__(ref, "index_path")  # placed on its first read
            set_field(ref, "_placed_by", (self.placement, index))
            if not text[0].isdigit() and "::" not in text:
                self._refs[text] = ref
        return ref

    def __len__(self) -> int:
        return len(self.names)

    def class_names(self) -> list[str]:
        return list(self.names)


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
    __slots__ = ("name", "kind", "required", "default")  # kind: domain-ref | type-ref | string | bool
    _defaults = {"required": True, "default": None}


class BuiltinSignature(Frozen):
    __slots__ = ("name", "params", "shape")


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
    still register, so one bad definition does not hide the rest. A
    builder raises :class:`ResolutionError` at an entry's first error,
    which is recorded here; it appends its warnings as it finds them.
    """
    expect(raw_defs, dict, "build_definitions() raw_defs must be a dict")
    expect(provenance, (dict, type(None)), "build_definitions() provenance must be a dict or None")
    registry = DefinitionRegistry()
    diags: list[Diagnostic] = []
    for key, body in raw_defs.items():
        source = (provenance or {}).get(key)
        name, parents = split_definition_key(key)
        path = f"defs/{name}"
        try:
            if not isinstance(body, dict):
                raise ResolutionError(error("MALFORMED_DEF", path, "definition body must be a mapping", source))
            kind = body.get("$def")
            if kind == "class_domain":
                entry = _build_class_domain(name, parents, body, path, source, diags)
            elif kind == "struct":
                entry = _build_struct(name, parents, body, path, source, diags)
            elif kind is None:
                raise ResolutionError(error("MALFORMED_DEF", path, "definition lacks a $def discriminator", source))
            else:
                message = f"unknown $def value {show_key(kind)} (expected struct or class_domain)"
                raise ResolutionError(error("UNKNOWN_DEF_KIND", path, message, source))
        except ResolutionError as exc:
            diags.append(exc.diagnostic)
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
) -> ClassDomain:
    classes_raw = body.get("classes")
    if not isinstance(classes_raw, list) or not classes_raw:
        raise ResolutionError(error("MALFORMED_DEF", path, "class_domain requires a non-empty classes list", source))
    for key in body:
        if key not in ("$def", "classes", "skeleton"):
            diags.append(warning("DEF_UNKNOWN_KEY", f"{path}/{key}", f"unrecognized class_domain key {show_key(key)}", source))

    items = list(classes_raw)
    names = _class_texts(items, path, source, diags)
    index = dict(zip(names, range(1, len(names) + 1)))
    if len(index) != len(names):  # reported at the first repeated item
        seen: set[str] = set()
        for i, text in enumerate(names):
            if text in seen:
                message = f"duplicate class path {echo(text, show=repr)}"
                raise ResolutionError(error("MALFORMED_DEF", f"{path}/classes/{i}", message, source))
            seen.add(text)

    skeleton = None
    skeleton_raw = body.get("skeleton")
    if skeleton_raw is not None:
        if not isinstance(skeleton_raw, list):
            raise ResolutionError(error("MALFORMED_DEF", f"{path}/skeleton", "skeleton must be a list of index pairs", source))
        skeleton = []
        for i, pair in enumerate(skeleton_raw):
            ok = (
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
            )
            if not ok:
                raise ResolutionError(error("MALFORMED_DEF", f"{path}/skeleton/{i}", f"skeleton entry {echo(repr(pair))} is not a pair of integers", source))
            a, b = pair
            if not (1 <= a <= len(names) and 1 <= b <= len(names)) or a == b:
                message = f"skeleton pair [{a}, {b}] out of range for {len(names)} classes"
                raise ResolutionError(error("MALFORMED_DEF", f"{path}/skeleton/{i}", message, source))
            skeleton.append((a, b))

    return ClassDomain(name, items, skeleton, parents, names, index)


def _class_texts(items: list, path: str, source: str | None, diags: list[Diagnostic]) -> list[str]:
    """The canonical dotted text of each declared class; a malformed item is a ``ResolutionError``.

    A list of plain dotted identifiers is its own texts. Any other list is
    read item by item, which reports ``name[parent]`` annotations and
    non-identifier segments; it ends at the first repeated text, so that
    no item after a duplicate is read.
    """
    if _all_plain(items):
        return items
    names: list[str] = []
    seen: set[str] = set()
    for i, item in enumerate(items):
        if not isinstance(item, str) or not item:
            raise ResolutionError(error("MALFORMED_DEF", f"{path}/classes/{i}", "class name must be a non-empty string", source))
        text = item
        if not _PLAIN_PATH_RE.fullmatch(item):
            segments = []
            for seg_text in item.split("."):
                m = _SEGMENT_ANNOT_RE.fullmatch(seg_text)
                if not m:
                    raise ResolutionError(error("MALFORMED_DEF", f"{path}/classes/{i}", f"malformed class path {echo(item, show=repr)}", source))
                seg_name = m.group("name")
                if not _SEGMENT_RE.fullmatch(seg_name):
                    # taken verbatim, but flagged: the convention is to map
                    # special characters to underscores in global-info
                    diags.append(
                        warning("CLASS_NAME_SYNTAX", f"{path}/classes/{i}", f"class name segment {echo(seg_name, show=repr)} is not an identifier", source)
                    )
                segments.append(seg_name)
            text = ".".join(segments)
        names.append(text)
        if text in seen:
            break
        seen.add(text)
    return names


def _all_plain(items: list) -> bool:
    """Whether every item is a plain dotted identifier: each block of classes,
    joined by dots, is ASCII of identifier bytes and dots, begins with no
    digit or dot, ends with no dot and has no dot before a digit or dot."""
    try:
        for start in range(0, len(items), _PLAIN_BLOCK):
            text = ".".join(items[start:start + _PLAIN_BLOCK])
            if not text.isascii() or text.encode().translate(None, _PLAIN_BYTES) or text[:1] in "0123456789.":
                return False
            if text[-1] == "." or _PLAIN_GAP_RE.search(text):
                return False
    except TypeError:  # a non-str item is not plain
        return False
    return True


def _leaves(names: list[str]) -> dict[str, int]:
    """The leaf of each multi-segment class -> its 1-based index, or 0 when
    several classes share the leaf."""
    leaves: dict[str, int] = {}
    for i, text in enumerate(names, 1):
        _, dot, leaf = text.rpartition(".")
        if dot:
            leaves[leaf] = 0 if leaf in leaves else i
    return leaves


def _build_struct(
    name: str,
    parents: list[str],
    body: dict,
    path: str,
    source: str | None,
    diags: list[Diagnostic],
) -> StructClass:
    fields_raw = body.get("$fields")
    if not isinstance(fields_raw, dict) or not fields_raw:
        raise ResolutionError(error("MALFORMED_DEF", path, "struct requires a non-empty $fields mapping", source))
    for key in body:
        if key not in ("$def", "$fields", "$params", "$optional"):
            diags.append(warning("DEF_UNKNOWN_KEY", f"{path}/{key}", f"unrecognized struct key {show_key(key)}", source))

    params_raw = body.get("$params", [])
    if not isinstance(params_raw, list) or not all(isinstance(p, str) for p in params_raw):
        raise ResolutionError(error("MALFORMED_DEF", f"{path}/$params", "$params must be a list of names", source))

    fields: dict[str, TypeExpr] = {}
    for fname, spec in fields_raw.items():
        fpath = f"{path}/$fields/{fname}"
        try:
            fields[str(fname)] = parse_sample_type_spec(spec)
        except GrammarError as exc:
            raise ResolutionError(error(exc.diagnostic.code, fpath, exc.diagnostic.message, source)) from exc

    optional_raw = body.get("$optional", [])
    if not isinstance(optional_raw, list) or not all(isinstance(o, str) for o in optional_raw):
        raise ResolutionError(error("MALFORMED_DEF", f"{path}/$optional", "$optional must be a list of field names", source))
    bad = [o for o in optional_raw if o not in fields]
    if bad:
        message = f"$optional names unknown fields: {', '.join(sorted(bad))}"
        raise ResolutionError(error("OPTIONAL_UNKNOWN_FIELD", f"{path}/$optional", message, source))

    declared = set(params_raw)
    for fname, expr in fields.items():
        for ref in walk_param_refs(expr):
            if ref.name not in declared:
                message = f"${ref.name} is not declared in $params"
                raise ResolutionError(error("UNBOUND_PARAM", f"{path}/$fields/{fname}", message, source))

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

    A lookup reads the domain's tables, each built or extended by the
    lookups that need it (see :class:`ClassDomain`): a name or integer
    lookup then costs the same whatever the domain's size, and an index
    path one step per level. It returns the class's shared ref.
    """
    expect(domain, ClassDomain, "lookup_class() domain must be a ClassDomain")
    if isinstance(selector, bool) or not isinstance(selector, (str, int)):
        raise ClassLookupError(error("CLASS_NOT_FOUND", "", f"invalid class selector {echo(repr(selector))}"))
    if isinstance(selector, int):
        return domain.ref(selector)
    if _INDEX_PATH_RE.fullmatch(selector):
        parts = index_path(selector)
        if len(parts) == 1:
            return domain.ref(parts[0])
        placement, prefix = domain.placement, ""
        for level, idx in enumerate(parts, 1):
            text = placement.child(prefix, idx)
            if text is None:
                count = len(placement.positions.get(prefix, ()))
                raise ClassLookupError(
                    error("CLASS_INDEX_RANGE", "", f"index {show_number(idx)} out of range 1..{count} at level {level}")
                )
            prefix = text
        index = domain.index.get(prefix)
        if index is None:
            message = f"index path {echo(selector, show=repr)} addresses no declared class in {domain.name}"
            raise ClassLookupError(error("CLASS_NOT_FOUND", "", message))
        return domain.ref(index)
    index = domain.index.get(selector)
    if index is None:
        # a bare leaf is accepted when it is unambiguous in the domain
        index = domain.leaves.get(selector)
        if not index:  # None, or 0 for a leaf that several classes share
            shown = echo(selector, show=repr)
            what = f"no class {shown}" if index is None else f"class name {shown} is ambiguous"
            raise ClassLookupError(error("CLASS_NOT_FOUND", "", f"{what} in {domain.name}"))
    return domain.ref(index)


def index_path(selector: str) -> tuple[int, ...]:
    """The indices of a dotted index path such as ``3.2.5``; an index past
    Python's int-to-string digit limit is a ``CLASS_INDEX_RANGE`` lookup error."""
    try:
        return tuple([int(p) for p in selector.split(".")])
    except ValueError:
        raise ClassLookupError(error("CLASS_INDEX_RANGE", "", "class index has too many digits")) from None

