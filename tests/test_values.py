"""The value classes: equality, hash, repr, immutability and pickling of every one."""

import pickle

import pytest

from dsdl.diagnostics import Diagnostic, Severity
from dsdl.document import RawDataSection, RawDocument
from dsdl.locator import AliasPath, LoadedMedia, ObjectId, RelativePath, ResolutionEnvironment
from dsdl.resolver import ConcreteType, LibraryEnvironment, ResolvedSchema, _Instantiation
from dsdl.schema import (
    BuiltinSignature,
    ClassDomain,
    ClassRef,
    ClassSegment,
    DefinitionRegistry,
    ParamSpec,
    StructClass,
    build_definitions,
    lookup_class,
)
from dsdl.typeexpr import Arg, NumberLit, ParamRef, TypeExpr
from dsdl.validation import (
    Box,
    ImageShapeValue,
    IntervalValue,
    KeypointSet,
    MediaRef,
    Record,
    RotatedBox,
    ValidationReport,
)


def _domain():
    registry, _ = build_definitions({"D": {"$def": "class_domain", "classes": ["a"]}})
    return registry.get("D")


# class name: (make an instance, its exact repr)
_FROZEN = {
    "Diagnostic": (
        lambda: Diagnostic("C", Severity.ERROR, "p", "m"),
        "Diagnostic(code='C', severity=<Severity.ERROR: 'error'>, path='p', message='m', source=None)",
    ),
    "RelativePath": (lambda: RelativePath("a/b", "a/b"), "RelativePath(path='a/b', text='a/b')"),
    "AliasPath": (lambda: AliasPath("m", "x", "$m/x"), "AliasPath(alias='m', remainder='x', text='$m/x')"),
    "ObjectId": (lambda: ObjectId("d", "i", "::d::i"), "ObjectId(domain='d', object_id='i', text='::d::i')"),
    "ResolutionEnvironment": (
        lambda: ResolutionEnvironment("/r"),
        "ResolutionEnvironment(data_root='/r', aliases={}, id_mapper=None)",
    ),
    "LoadedMedia": (lambda: LoadedMedia(b"x"), "LoadedMedia(payload=b'x', descr=None)"),
    "ParamRef": (lambda: ParamRef("p"), "ParamRef(name='p')"),
    "NumberLit": (lambda: NumberLit("1.5"), "NumberLit(text='1.5')"),
    "Arg": (lambda: Arg("k", NumberLit("1")), "Arg(key='k', value=NumberLit(text='1'))"),
    "TypeExpr": (
        lambda: TypeExpr("List", (Arg("etype", TypeExpr("Int")),)),
        "TypeExpr(head='List', args=(Arg(key='etype', value=TypeExpr(head='Int', args=())),))",
    ),
    "LibraryEnvironment": (lambda: LibraryEnvironment(), "LibraryEnvironment(search_paths=())"),
    "ConcreteType": (
        lambda: ConcreteType("Int", "int"),
        "ConcreteType(head='Int', shape='int', args={}, fields=None, optional=frozenset())",
    ),
    "ClassSegment": (lambda: ClassSegment("a", "p"), "ClassSegment(name='a', parent='p')"),
    "ClassRef": (lambda: ClassRef("D", (1, 2), "a.b"), "ClassRef(domain='D', index_path=(1, 2), path='a.b')"),
    "ClassDomain": (
        _domain,
        "ClassDomain(name='D', classes=[(ClassSegment(name='a', parent=None),)], skeleton=None, parents=[])",
    ),
    "StructClass": (
        lambda: StructClass("S"),
        "StructClass(name='S', params=[], fields={}, optional=frozenset(), parents=[])",
    ),
    "ParamSpec": (lambda: ParamSpec("fmt", "string"), "ParamSpec(name='fmt', kind='string', required=True, default=None)"),
    "BuiltinSignature": (lambda: BuiltinSignature("Int", (), "int"), "BuiltinSignature(name='Int', params=(), shape='int')"),
    "Box": (lambda: Box(1, 2, 3, 4), "Box(x=1, y=2, w=3, h=4)"),
    "IntervalValue": (lambda: IntervalValue(1, 2), "IntervalValue(begin=1, end=2)"),
    "ImageShapeValue": (lambda: ImageShapeValue(5, 3), "ImageShapeValue(width=5, height=3)"),
    "RotatedBox": (
        lambda: RotatedBox("xywht", "radian", (1, 2, 3, 4, 0.5)),
        "RotatedBox(mode='xywht', measure='radian', values=(1, 2, 3, 4, 0.5))",
    ),
    "KeypointSet": (lambda: KeypointSet("D", ((1, 2, 2),)), "KeypointSet(domain='D', points=((1, 2, 2),))"),
    "MediaRef": (
        lambda: MediaRef("Image", RelativePath("a", "a")),
        "MediaRef(class_name='Image', locator=RelativePath(path='a', text='a'), descr=None)",
    ),
}

_MUTABLE = {
    "RawDataSection": (
        lambda: RawDataSection(sample_path="$local", samples=[]),
        "RawDataSection(sample_type=None, sample_path='$local', samples=[], global_info_type=None,"
        " global_info_path=None, global_info=None)",
    ),
    "RawDocument": (
        lambda: RawDocument("0.5.0"),
        "RawDocument(dsdl_version='0.5.0', imports=[], meta={}, defs={}, data=None)",
    ),
    "ResolvedSchema": (
        lambda: ResolvedSchema(None, None, DefinitionRegistry(), {}),
        "ResolvedSchema(sample_type=None, global_info_type=None,"
        " registry=DefinitionRegistry(entries={}, provenance={}), meta={})",
    ),
    "_Instantiation": (
        lambda: _Instantiation(DefinitionRegistry(), (), []),
        "_Instantiation(registry=DefinitionRegistry(entries={}, provenance={}), media_extensions=(), diags=[],"
        " structs={}, depth=0)",
    ),
    "DefinitionRegistry": (lambda: DefinitionRegistry(), "DefinitionRegistry(entries={}, provenance={})"),
    "Record": (lambda: Record("S", {"a": 1}), "Record(struct_name='S', values={'a': 1})"),
    "ValidationReport": (
        lambda: ValidationReport(),
        "ValidationReport(samples=[], global_info=None, diagnostics=[], truncated=False)",
    ),
}


@pytest.mark.parametrize("make, text", _FROZEN.values(), ids=list(_FROZEN))
def test_frozen_value_class(make, text):
    a, b = make(), make()
    assert a == b and not a != b and a is not b
    assert a != object() and a.__eq__(object()) is NotImplemented
    assert repr(a) == text
    assert type(a).__hash__ is not None
    try:
        hashed = hash(a)
    except TypeError:  # a frozen value holding a list or dict is unhashable, as a tuple holding one is
        pass
    else:
        assert hashed == hash(b) == hash(a._values())
    for field in type(a).__match_args__:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b and repr(a) == text
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a and repr(copy) == text


@pytest.mark.parametrize("make, text", _MUTABLE.values(), ids=list(_MUTABLE))
def test_mutable_value_class(make, text):
    a, b = make(), make()
    assert a == b and not a != b and a is not b
    assert a != object()
    assert repr(a) == text
    with pytest.raises(TypeError):
        hash(a)
    field = text[text.index("(") + 1:text.index("=")]
    setattr(a, field, "changed")
    assert getattr(a, field) == "changed" and a != b
    assert pickle.loads(pickle.dumps(b)) == b


@pytest.mark.parametrize(
    "a, b",
    [
        (IntervalValue(5, 3), ImageShapeValue(5, 3)),
        (ParamRef("x"), NumberLit("x")),
        (RelativePath("a", "b"), ClassSegment("a", "b")),
        (AliasPath("a", "b", "c"), ClassRef("a", "b", "c")),
        (Record("S", {}), DefinitionRegistry("S", {})),
    ],
    ids=lambda v: type(v).__name__,
)
def test_equal_fields_of_different_classes_are_unequal(a, b):
    assert a != b and b != a


def test_defaults_are_fresh_per_instance():
    first, second = RawDocument("0.5.0"), RawDocument("0.5.0")
    first.imports.append("x")
    first.defs["a"] = 1
    assert second == RawDocument("0.5.0", [], {}, {}, None)
    assert ValidationReport().samples is not ValidationReport().samples
    assert StructClass("S").params is not StructClass("S").params
    assert ConcreteType("Int", "int").args is not ConcreteType("Int", "int").args
    assert RawDataSection() == RawDataSection(None, None, None, None, None, None)


def test_class_domain_compares_and_shows_its_classes_only():
    built = _domain()
    ref = lookup_class(built, "a")  # fills the ref cache
    bare = ClassDomain("D", ["a"], None, [], [], {})
    assert built == bare and repr(built) == repr(bare)
    assert len(built) == 1 and len(bare) == 0
    copy = pickle.loads(pickle.dumps(built))
    assert copy == built and lookup_class(copy, 1) == ref and lookup_class(built, 1) is ref

