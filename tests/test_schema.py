"""Schema model: definition building, builtin inventory, class lookup."""

import gc
import json
import pickle
import re
import tracemalloc
import weakref
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dsdl import LibraryEnvironment, build_definitions, lookup_class, parse_document, resolve_schema, schema, validate_dataset
from dsdl.diagnostics import ClassLookupError
from dsdl.resolver import ConcreteType
from dsdl.schema import BUILTINS, ClassDomain, ClassRef, StructClass
from dsdl.validation import validate_value

import _domain_oracle as oracle
from conftest import CORPUS


@pytest.fixture
def get_started_defs():
    doc = parse_document((CORPUS / "get-started.yaml").read_text(), format="yaml")
    return doc.defs


def test_build_get_started_definitions(get_started_defs):
    registry, diags = build_definitions(get_started_defs)
    assert diags == []
    dom = registry.get("MyClassDom")
    assert isinstance(dom, ClassDomain)
    assert dom.class_names() == ["dog", "cat", "fish", "tiger"]
    sample = registry.get("ImageClassificationSample")
    assert isinstance(sample, StructClass)
    assert list(sample.fields) == ["image", "label"]


def test_build_parametric_struct():
    raw = {
        "ObjectDetectionSample": {
            "$def": "struct",
            "$params": ["cdom"],
            "$fields": {
                "image": "Image",
                "objects": "List[etype=LocalObjectEntry[cdom=$cdom]]",
            },
        }
    }
    registry, diags = build_definitions(raw)
    assert diags == []
    struct = registry.get("ObjectDetectionSample")
    assert struct.params == ["cdom"]
    assert struct.fields["objects"].head == "List"


def test_optional_unknown_field_is_flagged():
    raw = {
        "S": {
            "$def": "struct",
            "$fields": {"label": "Str"},
            "$optional": ["labl"],
        }
    }
    registry, diags = build_definitions(raw)
    assert "S" not in registry
    assert [d.code for d in diags] == ["OPTIONAL_UNKNOWN_FIELD"]


def test_unbound_param_is_flagged_at_definition_time():
    raw = {
        "S": {"$def": "struct", "$fields": {"label": "Label[dom=$cdom]"}}
    }
    _, diags = build_definitions(raw)
    assert [d.code for d in diags] == ["UNBOUND_PARAM"]


def test_unknown_def_kind():
    _, diags = build_definitions({"S": {"$def": "enum", "values": []}})
    assert [d.code for d in diags] == ["UNKNOWN_DEF_KIND"]


def test_malformed_definitions():
    _, diags = build_definitions(
        {
            "NoFields": {"$def": "struct"},
            "NoClasses": {"$def": "class_domain"},
        }
    )
    assert [d.code for d in diags] == ["MALFORMED_DEF", "MALFORMED_DEF"]


def test_duplicate_class_paths_rejected():
    _, diags = build_definitions(
        {"D": {"$def": "class_domain", "classes": ["dog", "dog"]}}
    )
    assert [d.code for d in diags] == ["MALFORMED_DEF"]


def test_skeleton_bounds_are_validated():
    body = {"$def": "class_domain", "classes": ["a", "b"], "skeleton": [[1, 3]]}
    _, diags = build_definitions({"D": body})
    assert [d.code for d in diags] == ["MALFORMED_DEF"]
    body["skeleton"] = [[1, 1]]
    _, diags = build_definitions({"D": body})
    assert [d.code for d in diags] == ["MALFORMED_DEF"]
    body["skeleton"] = [[1]]
    _, diags = build_definitions({"D": body})
    assert [(d.code, d.path, d.message) for d in diags] == [
        ("MALFORMED_DEF", "defs/D/skeleton/0", "skeleton entry [1] is not a pair of integers")
    ]
    body["skeleton"] = [[2, 1]]
    registry, diags = build_definitions({"D": body})
    assert diags == []
    assert registry.get("D").skeleton == [(2, 1)]


def test_definition_key_bracket_suffix_records_parents():
    raw = {
        "Desc[Base]": {"$def": "class_domain", "classes": ["nose[person]"]},
    }
    registry, diags = build_definitions(raw)
    assert diags == []
    dom = registry.get("Desc")
    assert dom.parents == ["Base"]
    assert dom.classes[0][0].name == "nose"
    assert dom.classes[0][0].parent == "person"


def test_field_spec_mapping_form():
    raw = {
        "S": {
            "$def": "struct",
            "$fields": {"label": {"$type": "Label", "dom": "MyClassDom"}},
        }
    }
    registry, diags = build_definitions(raw)
    assert diags == []
    expr = registry.get("S").fields["label"]
    assert expr.head == "Label"
    assert expr.args[0].key == "dom"


def test_build_definitions_is_idempotent(get_started_defs):
    first, _ = build_definitions(get_started_defs)
    second, _ = build_definitions(get_started_defs)
    assert first == second


def test_builtin_inventory():
    expected = {
        "Bool", "Int", "Num", "Str",
        "Coord", "Coord3D", "Interval", "BBox", "Polygon", "Date", "Time",
        "Label", "List",
        "Image", "Video", "Audio", "Text", "PointCloud", "LabelMap", "InstanceMap",
        "Keypoint", "RotatedBBox", "InstanceID", "UniqueID", "ImageShape",
    }
    assert set(BUILTINS) == expected
    assert [p.name for p in BUILTINS["List"].params] == ["etype", "ordered"]
    assert BUILTINS["RotatedBBox"].params[1].default == "radian"
    assert BUILTINS["Label"].params[0].required


@pytest.fixture
def my_class_dom(get_started_defs):
    registry, _ = build_definitions(get_started_defs)
    return registry.get("MyClassDom")


@pytest.fixture
def hierarchical_dom():
    raw = {
        "ClassDom": {
            "$def": "class_domain",
            "classes": [
                "vehicle.airplane",
                "food.apple",
                "accessory.backpack",
                "food.banana",
                "animal.bear",
                "vehicle.bicycle",
                "animal.bird",
                "vehicle.boat",
            ],
        }
    }
    registry, diags = build_definitions(raw)
    assert diags == []
    return registry.get("ClassDom")


def test_lookup_by_name(my_class_dom):
    # oracle: linear scan of the declared list, 1-based
    assert lookup_class(my_class_dom, "cat") == ClassRef("MyClassDom", (2,), "cat")


def test_lookup_by_index_matches_name(my_class_dom):
    assert lookup_class(my_class_dom, "2") == lookup_class(my_class_dom, "cat")
    assert lookup_class(my_class_dom, 2) == lookup_class(my_class_dom, "cat")


def test_lookup_unknown_name(my_class_dom):
    with pytest.raises(ClassLookupError) as exc:
        lookup_class(my_class_dom, "horse")
    assert exc.value.code == "CLASS_NOT_FOUND"


def test_lookup_index_out_of_range(my_class_dom):
    for bad in (0, 5, "9"):
        with pytest.raises(ClassLookupError) as exc:
            lookup_class(my_class_dom, bad)
        assert exc.value.code == "CLASS_INDEX_RANGE"


def test_lookup_rejects_selectors_of_other_types(my_class_dom):
    for bad in (True, 1.5, 2.0, None, [1], (2,), b"cat", {"cat": 1}):
        with pytest.raises(ClassLookupError) as exc:
            lookup_class(my_class_dom, bad)
        assert exc.value.code == "CLASS_NOT_FOUND"
        assert exc.value.diagnostic.message == f"invalid class selector {bad!r}"


def test_lookup_in_what_is_not_a_domain_is_a_type_error():
    for domain in (None, "MyClassDom", {"cat": 1}):
        with pytest.raises(TypeError, match="domain must be a ClassDomain, not "):
            lookup_class(domain, "cat")


def test_hierarchical_name_lookup(hierarchical_dom):
    ref = lookup_class(hierarchical_dom, "vehicle.airplane")
    assert ref.path == "vehicle.airplane"
    assert len(ref.path.split(".")) == 2
    assert ref.index_path == (1, 1)


def test_hierarchical_index_path(hierarchical_dom):
    # distinct level-1 names in first-appearance order:
    # vehicle(1), food(2), accessory(3), animal(4)
    assert lookup_class(hierarchical_dom, "2.2") == lookup_class(hierarchical_dom, "food.banana")
    with pytest.raises(ClassLookupError) as exc:
        lookup_class(hierarchical_dom, "2.3")
    assert exc.value.code == "CLASS_INDEX_RANGE"


def test_flat_index_addresses_declared_order(hierarchical_dom):
    # the 4th declared class is food.banana regardless of hierarchy
    ref = lookup_class(hierarchical_dom, 4)
    assert ref.path == "food.banana"
    assert ref.index_path == (2, 2)


def test_unique_leaf_fallback(hierarchical_dom):
    assert lookup_class(hierarchical_dom, "backpack").path == "accessory.backpack"


def test_shared_leaf_requires_full_path():
    raw = {
        "D": {"$def": "class_domain", "classes": ["food.apple", "toy.apple"]}
    }
    registry, diags = build_definitions(raw)
    assert diags == []
    dom = registry.get("D")
    assert lookup_class(dom, "food.apple").index_path == (1, 1)
    with pytest.raises(ClassLookupError):
        lookup_class(dom, "apple")


def test_name_index_agreement_for_every_class(hierarchical_dom):
    for i, name in enumerate(hierarchical_dom.class_names(), start=1):
        assert lookup_class(hierarchical_dom, name) == lookup_class(hierarchical_dom, i)


# -- differential property: lookup_class against a linear-scan oracle ----------

_SEGMENT_NAMES = ("a", "b", "c", "x_1", "1", "2", "10")


def _oracle_lookup(domain, selector):
    """Brute-force restatement of the class-selector rules.

    Sibling order, index paths and leaf matches are recomputed by scanning
    the declared class list on every call, so nothing is shared with the
    index that ``lookup_class`` uses. Returns a ``ClassRef`` or the
    ``(code, message)`` the lookup must raise.
    """
    paths = [tuple(seg.name for seg in p) for p in domain.classes]

    def siblings(prefix):
        out = []
        for names in paths:
            if len(names) > len(prefix) and names[: len(prefix)] == prefix and names[len(prefix)] not in out:
                out.append(names[len(prefix)])
        return out

    def ref(names):
        index_path = tuple(siblings(names[:d]).index(names[d]) + 1 for d in range(len(names)))
        return ClassRef(domain.name, index_path, ".".join(names))

    def flat(index):
        if not 1 <= index <= len(paths):
            return ("CLASS_INDEX_RANGE", f"class index {index} out of range 1..{len(paths)} in {domain.name}")
        return ref(paths[index - 1])

    if isinstance(selector, bool):
        return ("CLASS_NOT_FOUND", f"invalid class selector {selector!r}")
    if isinstance(selector, int):
        return flat(selector)
    if re.fullmatch(r"\d+(\.\d+)*", selector):
        parts = tuple(int(p) for p in selector.split("."))
        if len(parts) == 1:
            return flat(parts[0])
        names = ()
        for idx in parts:
            level = siblings(names)
            if not 1 <= idx <= len(level):
                return ("CLASS_INDEX_RANGE", f"index {idx} out of range 1..{len(level)} at level {len(names) + 1}")
            names += (level[idx - 1],)
        if names not in paths:
            return ("CLASS_NOT_FOUND", f"index path {selector!r} addresses no declared class in {domain.name}")
        return ClassRef(domain.name, parts, ".".join(names))
    names = tuple(selector.split("."))
    if names in paths:
        return ref(names)
    if len(names) == 1:
        matches = [p for p in paths if p[-1] == names[0]]
        if len(matches) == 1:
            return ref(matches[0])
        if len(matches) > 1:
            return ("CLASS_NOT_FOUND", f"class name {selector!r} is ambiguous in {domain.name}")
    return ("CLASS_NOT_FOUND", f"no class {selector!r} in {domain.name}")


@st.composite
def _class_domains(draw):
    """Class lists with digit-named segments, ``name[parent]`` annotations,
    shared leaves and prefixes that are classes themselves."""
    segment = st.sampled_from(_SEGMENT_NAMES)
    paths = draw(st.lists(st.lists(segment, min_size=1, max_size=3).map(tuple), min_size=1, max_size=10, unique=True))
    for path in draw(st.lists(st.sampled_from(paths), max_size=3)):
        if len(path) > 1 and path[:-1] not in paths:
            paths.append(path[:-1])
    annotate = st.sampled_from((None, None, "p", "q"))

    def segment_text(name):
        parent = draw(annotate)
        return name if parent is None else f"{name}[{parent}]"

    classes = [".".join(segment_text(name) for name in path) for path in paths]
    registry, diags = build_definitions({"Dom": {"$def": "class_domain", "classes": classes}})
    assert [d.code for d in diags if d.code != "CLASS_NAME_SYNTAX"] == []
    return registry.get("Dom")


def _outcome(lookup, domain, selector):
    try:
        return lookup(domain, selector)
    except ClassLookupError as exc:
        return (exc.code, exc.diagnostic.message)


@settings(max_examples=300, deadline=None)
@given(_class_domains(), st.data())
def test_lookup_class_matches_linear_scan_oracle(domain, data):
    names = domain.class_names()
    selectors = [True, False, -1, 0, len(names) + 1, str(len(names) + 1), "", "zz", "a.zz"]
    for i, name in enumerate(names, start=1):
        ref = _oracle_lookup(domain, i)
        selectors += [name, i, str(i), name.split(".")[-1], ".".join(str(k) for k in ref.index_path)]
    # index paths with out-of-range components at every level
    index_path = st.lists(st.integers(0, 5), min_size=1, max_size=4).map(lambda p: ".".join(map(str, p)))
    selectors += data.draw(st.lists(index_path, max_size=8))
    selectors += data.draw(st.lists(st.lists(st.sampled_from(_SEGMENT_NAMES), min_size=1, max_size=3).map(".".join), max_size=8))
    for selector in selectors:
        assert _outcome(lookup_class, domain, selector) == _outcome(_oracle_lookup, domain, selector), selector


# -- differential property: the domain layer against the eager oracle -------------

_PLAIN_SEGMENTS = ("a", "b", "c", "x_1", "_")
_ODD_SEGMENTS = ("1", "10", "a-b", "\u0663", "x::y", "a\nb", " a")
_ODD_ITEMS = ("", 1, None, True, 1.5, ["a"], "a..b", "a.", ".a", "a[", "[p]", "a[p]]", "a[p].b[q", "a\n", "a.b\n")


@st.composite
def _domain_bodies(draw):
    """``class_domain`` bodies: flat and dotted lists with shared prefixes and
    leaves, ``name[parent]`` annotations, non-identifier segments, malformed
    and non-``str`` items, repeats (also of a path against its annotated
    form) and skeletons in and out of range."""
    if draw(st.booleans()):  # plain dotted identifiers only: the unannotated fast path
        item = st.lists(st.sampled_from(_PLAIN_SEGMENTS), min_size=1, max_size=3).map(".".join)
    else:
        segment = st.sampled_from(_PLAIN_SEGMENTS + _ODD_SEGMENTS)
        parent = st.sampled_from((None, None, None, "p", "q"))
        annotated = st.tuples(segment, parent).map(lambda sp: sp[0] if sp[1] is None else f"{sp[0]}[{sp[1]}]")
        item = st.lists(annotated, min_size=1, max_size=3).map(".".join)
    items = draw(st.lists(item, min_size=1, max_size=12, unique=True))
    # each rarer case is drawn past the first, plainest choice
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        copy = draw(st.sampled_from(items))
        if draw(st.booleans()):
            copy += "[x]"
        items.insert(draw(st.integers(0, len(items))), copy)
    if draw(st.sampled_from((False, False, False, True))):
        items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(_ODD_ITEMS)))
    body = {"$def": "class_domain", "classes": draw(st.sampled_from((items,) * 9 + ([], "a", None)))}
    index = st.integers(1, len(items))
    pair = st.one_of(
        st.lists(index, min_size=2, max_size=2),
        st.lists(st.integers(0, len(items) + 1), min_size=2, max_size=2),
        st.sampled_from(([1], [True, 1], [1.0, 2], "ab")),
    )
    skeleton = draw(st.one_of(st.none(), st.lists(pair, max_size=3), st.just("x")))
    if skeleton is not None:
        body["skeleton"] = skeleton
    return body


def _both(body):
    """The domain and findings of ``body`` from ``build_definitions`` and from the oracle."""
    registry, diags = build_definitions({"Dom": body})
    eager_diags = []
    eager = oracle._build_class_domain("Dom", [], body, "defs/Dom", None, eager_diags)
    return (registry.get("Dom"), diags), (eager, eager_diags)


def _labels(dom, raws, lookup):
    """Each raw label through ``validate_label``, with ``lookup`` as its class lookup."""
    from unittest import mock

    from dsdl import validation

    with mock.patch.object(validation, "lookup_class", lookup):
        return [validation.validate_label(raw, dom, "v") for raw in raws]


@settings(max_examples=300, deadline=None)
@given(_domain_bodies(), _domain_bodies(), st.data())
def test_class_domain_matches_eager_oracle(body, other_body, data):
    (dom, diags), (eager, eager_diags) = _both(body)
    assert diags == eager_diags
    assert (dom is None) == (eager is None)
    if dom is None:
        return
    assert len(dom) == len(eager) and dom.class_names() == eager.class_names()
    assert dom.classes == eager.classes and repr(dom) == repr(eager)
    assert dom == _both(body)[0][0]
    (other, _), (other_eager, _) = _both(other_body)
    if other is not None:
        assert (dom == other) == (eager == other_eager) and (other == dom) == (other_eager == eager)

    n = len(dom)
    selectors = [True, None, 1.5, -1, 0, n + 1, str(n + 1), f"{n + 1}.1", "", "zz", "a.zz", "a", "b", "c"]
    labels = [True, 1.5, None, -1, 0, n + 1, "", "zz", "Dom::zz", f"Dom[{n + 1}]", "Other::a", "Other[1]"]
    for i, name in enumerate(dom.class_names(), start=1):
        path = ".".join(map(str, eager.refs[i - 1].index_path))
        leaf = name.split(".")[-1]
        selectors += [name, i, str(i), path, leaf]
        labels += [name, i, str(i), path, leaf, f"Dom::{name}", f"Dom[{path}]", f"Dom[{i}]", f"Dom::{leaf}"]
    index_path = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(lambda p: ".".join(map(str, p)))
    drawn = data.draw(st.lists(index_path, max_size=6))
    selectors += drawn
    labels += drawn + [f"Dom[{p}]" for p in drawn]
    for selector in selectors:
        assert _outcome(lookup_class, dom, selector) == _outcome(oracle.lookup_class, eager, selector), selector
    expected = _labels(eager, labels, oracle.lookup_class)
    assert _labels(dom, labels, lookup_class) == expected
    # the compiled label closure, whose fast path reads the refs made so far
    ctype = ConcreteType("Label", "label", {"dom": _both(body)[0][0]})
    for raw, want in zip(labels, expected):
        got = validate_value(raw, ctype, "v")
        assert got == want and validate_value(raw, ctype, "v")[0] is got[0], raw


def _with_bad_item(size, at, bad):
    """A plain dotted list of ``size`` classes whose ``at``-th item is ``bad``."""
    items = [f"c{i}.d{i % 7}" for i in range(size)]
    items[at] = bad
    return items


_BLOCK = 256  # classes per block of the plain check, schema._PLAIN_BLOCK
_BLOCK_EDGES = [
    (size, at) for size in (_BLOCK + 1, 2 * _BLOCK + 1) for at in (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK) if at < size
]
# items that are not plain, each failing a different step of the per-block check
_BAD_ITEMS = [
    ("q\nr", "newline"), ("q-r", "dash"), (7, "int"), ("1q", "digit-first"), ("", "empty"), (".q", "dot-first"),
    ("q.", "dot-last"), ("q..r", "empty-segment"), ("é", "non-ascii"), ("٣", "non-ascii-digit"), ("\ud800", "surrogate"),
]


@pytest.mark.parametrize(
    "items",
    [["a\nb"], ["a", "b\nc"], ["a\n", "b"], ["a", ""], ["a", 1], ["x.y", "x.\ny"]]
    + [_with_bad_item(size, at, bad) for size, at in _BLOCK_EDGES for bad, _ in _BAD_ITEMS],
    ids=["newline", "newline-in-second", "trailing-newline", "empty", "int", "dot-newline"]
    + [f"{size}-at-{at}-{kind}" for size, at in _BLOCK_EDGES for _, kind in _BAD_ITEMS],
)
def test_the_block_wise_plain_check_matches_eager_oracle(items):
    (dom, diags), (eager, eager_diags) = _both({"$def": "class_domain", "classes": items})
    assert diags == eager_diags
    assert (dom is None) == (eager is None)
    if dom is not None:
        assert dom.class_names() == eager.class_names() and dom.classes == eager.classes
        assert repr(dom) == repr(eager)


# -- work bound: a domain makes its refs, segments and tables on first use ------------


def _big_domain():
    """A 10k-class, three-level dotted domain ``Big``; class ``top{a}.mid{b}.leaf{a}_{b}_{c}``
    is the ``a * 1000 + b * 50 + c + 1``-th."""
    classes = [f"top{a}.mid{b}.leaf{a}_{b}_{c}" for a in range(10) for b in range(20) for c in range(50)]
    registry, diags = build_definitions({"Big": {"$def": "class_domain", "classes": classes}})
    assert diags == []
    return registry.get("Big")


def test_building_a_big_domain_makes_no_ref_or_segment(monkeypatch):
    made = {"ClassRef": 0, "ClassSegment": 0}

    def counting(cls):
        init = cls.__init__

        def counted(self, *args):
            made[cls.__name__] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)

    counting(schema.ClassRef)
    counting(schema.ClassSegment)
    dom = _big_domain()
    assert len(dom) == 10_000
    assert made == {"ClassRef": 0, "ClassSegment": 0}
    ref = lookup_class(dom, "top3.mid7.leaf3_7_9")
    assert (ref.domain, ref.index_path, ref.path) == ("Big", (4, 8, 10), "top3.mid7.leaf3_7_9")
    assert made == {"ClassRef": 1, "ClassSegment": 0}
    for same in ("top3.mid7.leaf3_7_9", "leaf3_7_9", 3 * 1000 + 7 * 50 + 10, "4.8.10"):
        assert lookup_class(dom, same) is ref
    assert made == {"ClassRef": 1, "ClassSegment": 0}


def test_a_big_domain_is_checked_for_plain_names_in_blocks(monkeypatch):
    calls = {"block": 0, "path": 0}

    def counting(name, method, key):
        call = getattr(getattr(schema, name), method)

        def counted(text):
            calls[key] += 1
            return call(text)

        monkeypatch.setattr(schema, name, SimpleNamespace(**{method: counted}))

    # a plain block reaches the last step of its check, one search for a bad segment
    counting("_PLAIN_GAP_RE", "search", "block")
    counting("_PLAIN_PATH_RE", "fullmatch", "path")
    assert len(_big_domain()) == 10_000
    assert schema._PLAIN_BLOCK == _BLOCK
    assert 0 < calls["block"] <= -(-10_000 // _BLOCK) and calls["path"] == 0


def test_checking_a_long_class_list_for_plain_names_takes_bounded_memory():
    # one match over the whole list would hold about 80 MB of backtracking state
    classes = [f"top{i % 10}.mid{i % 200}.leaf{i}" for i in range(200_000)]
    tracemalloc.start()
    try:
        assert schema._class_texts(classes, "defs/Big", None, []) is classes
        check_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        registry, diags = build_definitions({"Big": {"$def": "class_domain", "classes": classes}})
        kept, build_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diags == [] and len(registry.get("Big")) == 200_000
    assert check_peak < 1_000_000
    # building also keeps a 200k-entry index, which holds both its old and
    # its new table for a moment each time it grows (about 3 MB at the last)
    assert build_peak - kept < 5_000_000


# one class of the big domain in each label syntax: name, index, ``Dom::path``,
# bare leaf, index path and ``Dom[i.j.k]``
_BIG_LABELS = ("top3.mid7.leaf3_7_9", 3 * 1000 + 7 * 50 + 10, "Big::top3.mid7.leaf3_7_9", "leaf3_7_9", "4.8.10", "Big[4.8.10]")


def _label(dom, raw):
    from dsdl.validation import validate_label

    ref, diags = validate_label(raw, dom, "v")
    assert diags == [], raw
    return ref


def test_a_big_domain_places_positions_only_as_far_as_a_lookup_reads(monkeypatch):
    leaf_maps = []
    build_leaves = schema._leaves
    monkeypatch.setattr(schema, "_leaves", lambda names: leaf_maps.append(1) or build_leaves(names))
    dom = _big_domain()
    assert dom._placement is None
    name, index, qname, leaf, ipath, qindex = _BIG_LABELS
    ref = _label(dom, name)
    placement = dom._placement
    for raw in (name, index, qname, leaf):  # the bare leaf builds the leaf map, and places nothing either
        assert _label(dom, raw) is ref
    assert placement.placed == 0 and leaf_maps == [1]
    assert ref.index_path == (4, 8, 10)  # the first read places up to the class
    assert placement.placed == index
    positions = {prefix: dict(siblings) for prefix, siblings in placement.positions.items()}
    # a second read places nothing, nor does a class placed already, in any syntax
    assert ref.index_path == (4, 8, 10) and pickle.loads(pickle.dumps(ref)) == ref
    first = lookup_class(dom, 1)
    assert first.index_path == (1, 1, 1) and pickle.loads(pickle.dumps(first)) == first
    assert _label(dom, ipath) is ref and _label(dom, qindex) is ref
    assert placement.placed == index and placement.positions == positions
    # an index path places until each prefix it walks has the wanted child, here up to its class
    later = lookup_class(dom, "7.3.20")
    assert (later.path, placement.placed) == ("top6.mid2.leaf6_2_19", 6 * 1000 + 2 * 50 + 20)
    assert later.index_path == (7, 3, 20) and placement.placed == 6120
    assert _label(dom, "Big[7.3.20]") is later and placement.placed == 6120
    # each walked level keeps its children as a list, read up to the wanted one
    lists = {"": 7, "top3": 8, "top3.mid7": 10, "top6": 3, "top6.mid2": 20}
    assert {prefix: len(children) for prefix, children in placement.children.items()} == lists
    assert lookup_class(dom, "7.3.5").path == "top6.mid2.leaf6_2_4" and placement.placed == 6120
    assert {prefix: len(children) for prefix, children in placement.children.items()} == lists
    # out of range at a level, every name is placed, so the message counts all children
    with pytest.raises(ClassLookupError, match=r"index 51 out of range 1\.\.50 at level 3"):
        lookup_class(dom, "9.20.51")
    assert placement.placed == 10_000 and leaf_maps == [1]
    for raw in _BIG_LABELS * 2:
        assert _label(dom, raw) is ref


def test_index_paths_read_in_order_through_a_wide_level_take_each_child_once(monkeypatch):
    pulled = []

    def counted(iterable):
        for item in iterable:
            pulled.append(item)
            yield item

    monkeypatch.setattr(schema, "islice", lambda iterable, *args: islice(counted(iterable), *args))
    n = 500
    registry, _ = build_definitions({"Wide": {"$def": "class_domain", "classes": [f"a.x{i}" for i in range(n)]}})
    dom = registry.get("Wide")
    for i in range(1, n + 1):
        assert lookup_class(dom, f"1.{i}").path == f"a.x{i - 1}" and dom.placement.placed == i
    # each lookup adds only the newly placed child to the level's list, not a rescan of the level
    assert len(pulled) == n + 1


def test_a_pickled_big_domain_gives_the_same_refs_before_and_after_its_tables_are_built():
    dom = _big_domain()
    before = pickle.loads(pickle.dumps(dom))
    assert before == dom and repr(before) == repr(dom)
    refs = [_label(dom, raw) for raw in _BIG_LABELS]  # builds every table of dom
    assert [_label(before, raw) for raw in _BIG_LABELS] == refs
    after = pickle.loads(pickle.dumps(dom))
    assert after == dom and after == before
    assert [_label(after, raw) for raw in reversed(_BIG_LABELS)] == refs[::-1]
    assert all(ref == refs[0] for ref in refs)


def test_a_flat_domain_places_positions_only_as_far_as_a_lookup_reads():
    registry, _ = build_definitions({"Flat": {"$def": "class_domain", "classes": [f"c{i}" for i in range(100)]}})
    dom = registry.get("Flat")
    ref = _label(dom, "c41")
    for raw in ("c41", 42, "42", "Flat::c41", "Flat[42]"):
        assert _label(dom, raw) is ref
    assert dom.placement.placed == 0
    assert ref.index_path == (42,) and dom.placement.placed == 42  # the first read places up to the class
    for index in (7, 90):
        assert pickle.loads(pickle.dumps(lookup_class(dom, index))) == ClassRef("Flat", (index,), f"c{index - 1}")
    assert dom.placement.placed == 90


def test_a_class_text_that_another_label_syntax_reads_stays_that_syntax_after_its_class_is_looked_up():
    """Classes ``3`` and ``a::b``, each looked up by its index first, still read
    as an index path and as ``Dom::path`` when given as text."""
    from dsdl.validation import validate_label

    labels = [1, "3", 2, "a::b", "3", "a::b"]
    text = json.dumps({
        "$dsdl-version": "0.5.0",
        "D": {"$def": "class_domain", "classes": ["3", "a::b"]},
        "S": {"$def": "struct", "$fields": {"tags": "List[etype=Label[dom=D]]"}},
        "data": {"sample-type": "S", "samples": [{"tags": labels}]},
    })
    doc = parse_document(text, format="json")
    resolved, diags = resolve_schema(doc, LibraryEnvironment(()))
    assert [d.code for d in diags] == ["CLASS_NAME_SYNTAX"] * 2
    report = validate_dataset(resolved, doc.data)
    dom = resolved.registry.get("D")
    assert report.samples[0]["tags"] == [ClassRef("D", (1,), "3"), None, ClassRef("D", (2,), "a::b"), None, None, None]
    assert [d.code for d in report.diagnostics] == ["CLASS_INDEX_RANGE", "LABEL_DOMAIN_MISMATCH"] * 2
    alone = [d for i, raw in enumerate(labels) for d in validate_label(raw, dom, f"samples/0/tags/{i}")[1]]
    assert report.diagnostics == alone


# -- lifetime: a lazy ref holds its domain's placement, not its domain ---------------


def _big_dataset():
    """A resolved schema over the big domain, and the built report of two samples labelled in it."""
    classes = [f"top{a}.mid{b}.leaf{a}_{b}_{c}" for a in range(10) for b in range(20) for c in range(50)]
    samples = [{"tags": ["top3.mid7.leaf3_7_9", 5]}, {"tags": ["Big::top9.mid19.leaf9_19_49"]}]
    text = json.dumps({
        "$dsdl-version": "0.5.0",
        "Big": {"$def": "class_domain", "classes": classes},
        "S": {"$def": "struct", "$fields": {"tags": "List[etype=Label[dom=Big]]"}},
        "data": {"sample-type": "S", "samples": samples},
    })
    doc = parse_document(text, format="json")
    resolved, diags = resolve_schema(doc, LibraryEnvironment(()))
    assert diags == []
    report = validate_dataset(resolved, doc.data)
    assert report.diagnostics == [] and report.sample_count == 2
    return resolved, report


def test_a_ref_outlives_its_schema_and_domain():
    resolved, report = _big_dataset()
    read, pickled = report.samples[0]["tags"]
    del resolved, report
    gc.collect()
    assert read.index_path == (4, 8, 10)
    assert pickle.loads(pickle.dumps(read)) == ClassRef("Big", (4, 8, 10), "top3.mid7.leaf3_7_9")
    assert pickle.loads(pickle.dumps(pickled)) == ClassRef("Big", (1, 1, 5), "top0.mid0.leaf0_0_4")


def test_a_resolved_domain_is_freed_without_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        resolved, report = _big_dataset()
        dom = weakref.ref(resolved.registry.get("Big"))
        assert report.samples[0]["tags"][0].index_path == (4, 8, 10)  # the placement is part way
        kept = report.samples[1]["tags"][0]
        del resolved, report
        assert dom() is None  # freed by reference counting alone: no cycle holds it
        assert kept.index_path == (10, 20, 50)
    finally:
        gc.enable()


# -- differential property: lazily placed index paths against the eager oracle -------

_TREE_SEGMENTS = ("a", "b", "c", "d", "e_1")


@st.composite
def _dotted_bodies(draw):
    """Dotted class lists over a random tree, some of whose prefixes are classes
    too, declared in nested order (each subtree together, siblings in a drawn
    order), in sorted order or shuffled; some segments carry ``[parent]``."""
    paths = draw(st.lists(st.lists(st.sampled_from(_TREE_SEGMENTS), min_size=1, max_size=4).map(tuple), min_size=1, max_size=25, unique=True))
    order = draw(st.sampled_from(("nested", "sorted", "shuffled")))
    if order == "nested":
        rank = {seg: r for r, seg in enumerate(draw(st.permutations(_TREE_SEGMENTS)))}
        paths.sort(key=lambda path: [rank[seg] for seg in path])
    elif order == "sorted":
        paths.sort()
    else:
        paths = draw(st.permutations(paths))
    annotate = draw(st.booleans())
    items = [".".join(f"{seg}[p]" if annotate and draw(st.booleans()) else seg for seg in path) for path in paths]
    return {"$def": "class_domain", "classes": items}


def _selector(eager, k: int, syntax: str):
    """Class ``k``'s (1-based) label in ``syntax``, and the selector the oracle looks up."""
    ref = eager.refs[k - 1]
    ipath = ".".join(map(str, ref.index_path))
    return {
        "name": (ref.path, ref.path), "index": (k, k), "str-index": (str(k), str(k)), "ipath": (ipath, ipath),
        "leaf": (ref.path.split(".")[-1],) * 2, "qname": (f"Dom::{ref.path}", ref.path),
        "qindex": (f"Dom[{ipath}]", ipath), "flat-qindex": (f"Dom[{k}]", str(k)),
    }[syntax]


_SYNTAXES = ("name", "index", "str-index", "ipath", "leaf", "qname", "qindex", "flat-qindex")


@settings(max_examples=300, deadline=None)
@given(_dotted_bodies(), st.data())
def test_lazily_placed_index_paths_match_eager_oracle_in_any_read_order(body, data):
    from dsdl.validation import validate_label

    (dom, diags), (eager, eager_diags) = _both(body)
    assert diags == eager_diags and dom is not None
    n, got = len(eager), []  # got: (ref, the oracle's ref) of each lookup so far
    op = st.one_of(
        st.tuples(st.just("lookup"), st.integers(1, n), st.sampled_from(_SYNTAXES)),
        st.tuples(st.just("miss"), st.lists(st.integers(0, 6), min_size=2, max_size=4).map(lambda p: ".".join(map(str, p)))),
        st.tuples(st.sampled_from(("read", "pickle")), st.integers(0, 100)),
        st.just(("pickle-domain",)),
    )
    for step in data.draw(st.lists(op, max_size=30)):
        placed = dom.placement.placed  # what earlier steps placed, in a flat domain as in a dotted one
        if step[0] == "lookup":
            _, k, syntax = step
            raw, selector = _selector(eager, k, syntax)
            expected = _outcome(oracle.lookup_class, eager, selector)
            ref = validate_label(raw, dom, "v")[0] if syntax.startswith("q") else _outcome(lookup_class, dom, selector)
            if isinstance(expected, ClassRef):
                got.append((ref, expected))
            else:  # an ambiguous leaf
                assert syntax == "leaf" and ref == expected
            # a lookup places nothing, but an index path, which places no further than its class
            bound = k if syntax in ("ipath", "qindex") else 0
            assert dom.placement.placed <= max(placed, bound), step
        elif step[0] == "miss":
            assert _outcome(lookup_class, dom, step[1]) == _outcome(oracle.lookup_class, eager, step[1]), step
        elif step[0] == "pickle-domain":
            dom = pickle.loads(pickle.dumps(dom))
        elif got:
            ref, expected = got[step[1] % len(got)]
            if step[0] == "read":
                assert ref.index_path == expected.index_path
                assert dom.placement.placed <= max(placed, eager.refs.index(expected) + 1)
            else:
                assert pickle.loads(pickle.dumps(ref)) == expected
    for ref, expected in data.draw(st.permutations(got)):
        assert ref == expected and repr(ref) == repr(expected) and hash(ref) == hash(expected)
