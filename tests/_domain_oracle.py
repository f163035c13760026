"""The class-domain builder and lookup that the current ones must agree with.

``_build_class_domain`` and ``lookup_class`` (with ``index_path`` and
``_lookup_flat``) are the eager versions, kept here unchanged as the
reference of ``test_class_domain_matches_eager_oracle``: they make every
``ClassSegment`` and ``ClassRef`` while the domain is built and keep them
in the domain's tables. ``ClassDomain`` is the domain class they build, so
its repr reads as the current one's; segments, refs and diagnostics come
from ``dsdl`` so that results compare equal.
"""

from __future__ import annotations

import re

from dsdl.diagnostics import ClassLookupError, Diagnostic, error, show_number, warning
from dsdl.schema import ClassPath, ClassRef, ClassSegment
from dsdl.slotted import Frozen, set_field

_SEGMENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SEGMENT_ANNOT_RE = re.compile(r"(?P<name>[^\[\]]+)(\[(?P<parent>[^\]]+)\])?")
# a whole dotted path of plain identifiers: no annotation, no warning
_PLAIN_PATH_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


class ClassDomain(Frozen):
    """The eager domain: every segment and ref is made at build time and held in its tables."""

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
