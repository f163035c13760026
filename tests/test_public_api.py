"""Wrong-typed arguments to the public callables of ``dsdl.__all__``: one table.

An argument of the wrong Python type is outside a callable's domain and is
a ``TypeError`` (README, "Total"). Each public function has a row here or
a reason why it takes any argument; so does each public class.
"""

import pytest

import dsdl
from dsdl import (
    LibraryEnvironment,
    MediaClassRegistry,
    ResolutionEnvironment,
    StructClass,
    build_definitions,
    check_acyclic,
    instantiate_type,
    iter_samples,
    load_external_samples,
    load_object,
    lookup_class,
    parse_document,
    parse_locator,
    parse_type_expression,
    register_media_class,
    render_type_expression,
    resolve_imports,
    resolve_locator,
    resolve_schema,
    summarize_dataset,
    validate_dataset,
    validate_label,
    validate_value,
)

_DOC = '$dsdl-version: "0.5.0"\ndefs:\n  S:\n    $def: struct\n    $fields: {n: Int}\ndata:\n  sample-type: S\n  samples: [{n: 1}]\n'
_IMPORTING = '$dsdl-version: "0.5.0"\n$import: [imageclass]\n'


def _schema():
    doc = parse_document(_DOC, format="yaml")
    return resolve_schema(doc, LibraryEnvironment(()))[0], doc.data


def _dom():
    return build_definitions({"Dom": {"$def": "class_domain", "classes": ["x"]}})[0].get("Dom")


def _loader(reader, descr):
    return reader.read()


_ENV = ResolutionEnvironment(data_root="/d")

# (public name, call, a part of the TypeError's message)
_ROWS = [
    ("parse_document", lambda: parse_document(b"a: 1"), "parse_document() text must be str"),
    ("parse_document", lambda: parse_document("a: 1", format=None), "parse_document() format must be str"),
    ("parse_type_expression", lambda: parse_type_expression(b"Int"), "parse_type_expression() text must be str"),
    ("render_type_expression", lambda: render_type_expression("Int"), "render_type_expression() takes a TypeExpr"),
    ("resolve_schema", lambda: resolve_schema(None, LibraryEnvironment(())), "resolve_schema() doc must be"),
    ("resolve_schema", lambda: resolve_schema(parse_document(_IMPORTING), None), "resolve_schema() env must be"),
    ("resolve_imports", lambda: resolve_imports("", LibraryEnvironment(())), "resolve_imports() doc must be"),
    ("resolve_imports", lambda: resolve_imports(parse_document(_IMPORTING), ()), "resolve_imports() env must be"),
    ("build_definitions", lambda: build_definitions([]), "build_definitions() raw_defs must be"),
    ("check_acyclic", lambda: check_acyclic({}), "check_acyclic() registry must be"),
    ("instantiate_type", lambda: instantiate_type("Int", {}, build_definitions({})[0]), "instantiate_type() expr must be"),
    ("instantiate_type", lambda: instantiate_type(parse_type_expression("Int"), {}, {}), "instantiate_type() registry must be"),
    ("validate_dataset", lambda: validate_dataset(None, None), "schema must be a ResolvedSchema"),
    ("validate_dataset", lambda: validate_dataset(_schema()[0], ""), "data must be a RawDataSection"),
    ("summarize_dataset", lambda: summarize_dataset(None, _schema()[1]), "schema must be a ResolvedSchema"),
    ("summarize_dataset", lambda: summarize_dataset(_schema()[0], {}), "data must be a RawDataSection"),
    ("iter_samples", lambda: next(iter_samples("S", None)), "schema must be a ResolvedSchema"),
    ("iter_samples", lambda: next(iter_samples(_schema()[0], 0)), "data must be a RawDataSection"),
    ("validate_value", lambda: validate_value(1, "Int"), "validate_value() ctype must be"),
    ("lookup_class", lambda: lookup_class("Dom", "x"), "lookup_class() domain must be"),
    ("validate_label", lambda: validate_label("Dom::x", 5), "validate_label() dom must be"),
    ("validate_label", lambda: validate_label("Dom[1]", "D"), "validate_label() dom must be"),
    ("validate_label", lambda: validate_label("x", [_dom()]), "validate_label() dom must be"),
    ("validate_label", lambda: validate_label("x", StructClass("Dom")), "lookup_class() domain must be"),
    ("load_external_samples", lambda: load_external_samples(5, "."), "unsupported operand"),
    ("resolve_locator", lambda: resolve_locator(parse_locator("x.jpg"), None), "resolve_locator() env must be"),
    ("resolve_locator", lambda: resolve_locator("x.jpg", _ENV), "not an ObjectLocator"),
    ("load_object", lambda: load_object("Image", "x.jpg", None, {}, open), "resolve_locator() env must be"),
    ("load_object", lambda: load_object("Image", "x.jpg", None, _ENV, open, {}), "load_object() registry must be"),
    ("register_media_class", lambda: register_media_class(5, None, MediaClassRegistry()), "register() name must be"),
    ("register_media_class", lambda: register_media_class("Mesh", 3, MediaClassRegistry()), "register() loader must be"),
    ("register_media_class", lambda: register_media_class("Mesh", _loader, "r"), "register_media_class() registry must be"),
    ("MediaClassRegistry", lambda: MediaClassRegistry().register("Foo", 3), "register() loader must be"),
    ("MediaClassRegistry", lambda: MediaClassRegistry().register(b"Foo", _loader), "register() name must be"),
    ("ResolutionEnvironment", lambda: ResolutionEnvironment(5), "ResolutionEnvironment() data_root must be"),
    ("ResolutionEnvironment", lambda: ResolutionEnvironment(aliases=[("m", "/x")]), "ResolutionEnvironment() aliases must be"),
    ("ResolutionEnvironment", lambda: ResolutionEnvironment(aliases={"m": 5}), "ResolutionEnvironment() aliases must map"),
    ("ResolutionEnvironment", lambda: ResolutionEnvironment(aliases={5: "/x"}), "ResolutionEnvironment() aliases must map"),
    ("ResolutionEnvironment", lambda: ResolutionEnvironment.from_sources(config_aliases={"m": None}), "ResolutionEnvironment() aliases must map"),
    ("ResolutionEnvironment", lambda: ResolutionEnvironment(id_mapper="map"), "ResolutionEnvironment() id_mapper must be"),
]

# the public callables with no row, and why no argument of theirs has a wrong type
_NO_ROW = {
    "default_media_registry": "takes no argument",
    "parse_locator": "any other value than a non-empty str is a LOC_SYNTAX finding",
    "parse_sample_type_spec": "any other value than a str or mapping is a GRAMMAR_ERROR finding",
    **dict.fromkeys(
        ("ClassDomain ClassRef ConcreteType DefinitionRegistry Diagnostic LibraryEnvironment AliasPath "
         "ObjectId RelativePath RawDataSection RawDocument ResolvedSchema SampleCounts StructClass TypeExpr "
         "ValidationReport").split(),
        "a value class, which keeps its fields as given",
    ),
    **dict.fromkeys(
        "ClassLookupError DocumentError DsdlError GrammarError LocatorError ResolutionError Severity".split(),
        "an exception or enum class",
    ),
}


def test_every_public_callable_has_a_wrong_type_row_or_a_reason():
    callables = {name for name in dsdl.__all__ if callable(getattr(dsdl, name))}
    rows = {name for name, _, _ in _ROWS}
    assert not rows & set(_NO_ROW)
    assert callables == rows | set(_NO_ROW)


@pytest.mark.parametrize(
    "name, call, message", _ROWS, ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(_ROWS)]
)
def test_a_public_callable_given_an_argument_of_the_wrong_type_raises_a_type_error(name, call, message):
    with pytest.raises(TypeError) as exc:
        call()
    assert message in str(exc.value), str(exc.value)
