"""Wrong-typed arguments to the public callables of ``dsdl.__all__``: one table.

An argument of the wrong Python type is outside a callable's domain and is
a ``TypeError`` (README, "Total"). Each parameter of each public function,
and of the public classes that check theirs, has a row here or a reason why
it takes any value; every other public class has a reason why it has none.
"""

import inspect

import pytest

import dsdl
from dsdl import (
    LibraryEnvironment,
    MediaClassRegistry,
    ResolutionEnvironment,
    StructClass,
    build_definitions,
    check_acyclic,
    check_file,
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
    resolve_file,
    resolve_imports,
    resolve_locator,
    resolve_schema,
    summarize_dataset,
    validate_dataset,
    validate_label,
    validate_value,
)

from conftest import CORPUS

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

# (public name, parameter, call, a part of the TypeError's message)
_ROWS = [
    ("parse_document", "text", lambda: parse_document(b"a: 1"), "parse_document() text must be str"),
    ("parse_document", "format", lambda: parse_document("a: 1", format=None), "parse_document() format must be str"),
    ("parse_type_expression", "text", lambda: parse_type_expression(b"Int"), "parse_type_expression() text must be str"),
    ("render_type_expression", "expr", lambda: render_type_expression("Int"), "render_type_expression() takes a TypeExpr"),
    ("resolve_schema", "doc", lambda: resolve_schema(None, LibraryEnvironment(())), "resolve_schema() doc must be"),
    ("resolve_schema", "env", lambda: resolve_schema(parse_document(_IMPORTING), None), "resolve_schema() env must be"),
    ("resolve_imports", "doc", lambda: resolve_imports("", LibraryEnvironment(())), "resolve_imports() doc must be"),
    ("resolve_imports", "env", lambda: resolve_imports(parse_document(_IMPORTING), ()), "resolve_imports() env must be"),
    ("build_definitions", "raw_defs", lambda: build_definitions([]), "build_definitions() raw_defs must be"),
    ("check_acyclic", "registry", lambda: check_acyclic({}), "check_acyclic() registry must be"),
    ("instantiate_type", "expr", lambda: instantiate_type("Int", {}, build_definitions({})[0]), "instantiate_type() expr must be"),
    ("instantiate_type", "registry", lambda: instantiate_type(parse_type_expression("Int"), {}, {}), "instantiate_type() registry must be"),
    ("validate_dataset", "schema", lambda: validate_dataset(None, None), "schema must be a ResolvedSchema"),
    ("validate_dataset", "data", lambda: validate_dataset(_schema()[0], ""), "data must be a RawDataSection"),
    ("summarize_dataset", "schema", lambda: summarize_dataset(None, _schema()[1]), "schema must be a ResolvedSchema"),
    ("summarize_dataset", "data", lambda: summarize_dataset(_schema()[0], {}), "data must be a RawDataSection"),
    ("iter_samples", "schema", lambda: next(iter_samples("S", None)), "schema must be a ResolvedSchema"),
    ("iter_samples", "data", lambda: next(iter_samples(_schema()[0], 0)), "data must be a RawDataSection"),
    ("validate_value", "ctype", lambda: validate_value(1, "Int"), "validate_value() ctype must be"),
    ("lookup_class", "domain", lambda: lookup_class("Dom", "x"), "lookup_class() domain must be"),
    ("validate_label", "dom", lambda: validate_label("Dom::x", 5), "validate_label() dom must be"),
    ("validate_label", "dom", lambda: validate_label("Dom[1]", "D"), "validate_label() dom must be"),
    ("validate_label", "dom", lambda: validate_label("x", [_dom()]), "validate_label() dom must be"),
    ("validate_label", "dom", lambda: validate_label("x", StructClass("Dom")), "lookup_class() domain must be"),
    ("load_external_samples", "path", lambda: load_external_samples(5, "."), "load_external_samples() path must be"),
    ("resolve_locator", "env", lambda: resolve_locator(parse_locator("x.jpg"), None), "resolve_locator() env must be"),
    ("resolve_locator", "loc", lambda: resolve_locator("x.jpg", _ENV), "not an ObjectLocator"),
    ("load_object", "env", lambda: load_object("Image", "x.jpg", None, {}, open), "resolve_locator() env must be"),
    ("load_object", "registry", lambda: load_object("Image", "x.jpg", None, _ENV, open, {}), "load_object() registry must be"),
    ("register_media_class", "name", lambda: register_media_class(5, None, MediaClassRegistry()), "register() name must be"),
    ("register_media_class", "loader", lambda: register_media_class("Mesh", 3, MediaClassRegistry()), "register() loader must be"),
    ("register_media_class", "registry", lambda: register_media_class("Mesh", _loader, "r"), "register_media_class() registry must be"),
    ("MediaClassRegistry", "loader", lambda: MediaClassRegistry().register("Foo", 3), "register() loader must be"),
    ("MediaClassRegistry", "name", lambda: MediaClassRegistry().register(b"Foo", _loader), "register() name must be"),
    ("ResolutionEnvironment", "data_root", lambda: ResolutionEnvironment(5), "ResolutionEnvironment() data_root must be"),
    ("ResolutionEnvironment", "aliases", lambda: ResolutionEnvironment(aliases=[("m", "/x")]), "ResolutionEnvironment() aliases must be"),
    ("ResolutionEnvironment", "aliases", lambda: ResolutionEnvironment(aliases={"m": 5}), "ResolutionEnvironment() aliases must map"),
    ("ResolutionEnvironment", "aliases", lambda: ResolutionEnvironment(aliases={5: "/x"}), "ResolutionEnvironment() aliases must map"),
    ("ResolutionEnvironment", "aliases", lambda: ResolutionEnvironment.from_sources(config_aliases={"m": None}), "ResolutionEnvironment() aliases must map"),
    ("ResolutionEnvironment", "id_mapper", lambda: ResolutionEnvironment(id_mapper="map"), "ResolutionEnvironment() id_mapper must be"),
    ("LibraryEnvironment", "search_paths", lambda: LibraryEnvironment("lib"), "LibraryEnvironment() search_paths must be"),
    ("LibraryEnvironment", "search_paths", lambda: LibraryEnvironment([5]), "LibraryEnvironment() search_paths must be"),
    ("LibraryEnvironment", "search_paths", lambda: LibraryEnvironment(5), "LibraryEnvironment() search_paths must be"),
    ("load_external_samples", "base", lambda: load_external_samples("x.json", 5), "load_external_samples() base must be"),
    ("validate_dataset", "max_errors", lambda: validate_dataset(*_schema(), max_errors="1"), "validate_dataset() max_errors must be"),
    ("summarize_dataset", "max_errors", lambda: summarize_dataset(*_schema(), max_errors=1.5), "summarize_dataset() max_errors must be"),
    ("validate_dataset", "base", lambda: validate_dataset(*_schema(), None), "validate_dataset() base must be"),
    ("summarize_dataset", "base", lambda: summarize_dataset(*_schema(), b"."), "summarize_dataset() base must be"),
    ("iter_samples", "base", lambda: next(iter_samples(*_schema(), 5)), "iter_samples() base must be"),
    ("build_definitions", "provenance", lambda: build_definitions({}, provenance=5), "build_definitions() provenance must be"),
    ("instantiate_type", "bindings", lambda: instantiate_type(parse_type_expression("Int"), [], build_definitions({})[0]), "instantiate_type() bindings must be"),
    ("instantiate_type", "media_extensions", lambda: instantiate_type(parse_type_expression("Int"), {}, build_definitions({})[0], media_extensions="Mesh"), "instantiate_type() media_extensions must be"),
    ("instantiate_type", "diags", lambda: instantiate_type(parse_type_expression("Int"), {}, build_definitions({})[0], diags=()), "instantiate_type() diags must be"),
    ("resolve_imports", "source", lambda: resolve_imports(parse_document(_IMPORTING), LibraryEnvironment(()), 5), "resolve_imports() source must be"),
    ("resolve_schema", "source", lambda: resolve_schema(parse_document(_DOC), LibraryEnvironment(()), source=5), "resolve_schema() source must be"),
    ("resolve_schema", "media_extensions", lambda: resolve_schema(parse_document(_DOC), LibraryEnvironment(()), media_extensions="Mesh"), "resolve_schema() media_extensions must be"),
    ("load_object", "class_name", lambda: load_object(5, "x.jpg", None, _ENV, open), "load_object() class_name must be"),
    ("load_object", "loc", lambda: load_object("Image", 5, None, _ENV, open), "not an ObjectLocator"),
    ("load_object", "reader_provider", lambda: load_object("Image", "x.jpg", None, _ENV, "open"), "load_object() reader_provider must be"),
    ("parse_document", "source", lambda: parse_document("a: 1", source=5), "parse_document() source must be"),
    ("validate_value", "path", lambda: validate_value("a", _schema()[0].sample_type, 5), "validate_value() path must be"),
    ("validate_label", "path", lambda: validate_label("x", _dom(), 5), "validate_label() path must be"),
    ("resolve_file", "file", lambda: resolve_file(5, LibraryEnvironment(())), "resolve_file() file must be"),
    ("resolve_file", "env", lambda: resolve_file(CORPUS / "get-started.json", None), "resolve_file() env must be"),
    ("check_file", "file", lambda: check_file(5, LibraryEnvironment(())), "check_file() file must be"),
    ("check_file", "env", lambda: check_file(CORPUS / "get-started.json", None), "check_file() env must be"),
    ("check_file", "max_errors", lambda: check_file(CORPUS / "get-started.json", LibraryEnvironment(()), max_errors="1"), "check_file() max_errors must be"),
]

# the parameters with no row, and why any value of theirs is in the callable's domain
_ANY_VALUE = {
    ("parse_locator", "text"): "any other value than a non-empty str is a LOC_SYNTAX finding",
    ("parse_sample_type_spec", "raw"): "any other value than a str or mapping is a GRAMMAR_ERROR finding",
    ("lookup_class", "selector"): "any other value than a str or int is a CLASS_NOT_FOUND finding",
    ("load_object", "descr"): "handed to the loader as it is",
    ("validate_value", "raw"): "any value: a finding names what it is",
    ("validate_label", "raw"): "any value: a LABEL_SYNTAX finding names what it is",
    **dict.fromkeys(
        [("parse_document", "allow_version"), ("resolve_file", "allow_version"), ("validate_value", "strict"),
         ("iter_samples", "strict"), ("validate_dataset", "strict"), ("validate_dataset", "build"),
         ("summarize_dataset", "strict"), ("check_file", "strict"), ("check_file", "count"),
         ("check_file", "allow_version")],
        "read for its truth value",
    ),
}

# the public classes whose parameters are walked, as the callable that takes them
_CHECKED_CLASSES = {
    "LibraryEnvironment": LibraryEnvironment,
    "ResolutionEnvironment": ResolutionEnvironment,
    "MediaClassRegistry": MediaClassRegistry.register,
}

# every other public class, and why it checks no argument
_NO_ROW = {
    **dict.fromkeys(
        ("ClassDomain ClassRef ConcreteType DefinitionRegistry Diagnostic AliasPath "
         "ObjectId RelativePath RawDataSection RawDocument ResolvedSchema SampleCounts StructClass TypeExpr "
         "ValidationReport").split(),
        "a value class, which keeps its fields as given",
    ),
    **dict.fromkeys(
        "ClassLookupError DocumentError DsdlError GrammarError LocatorError ResolutionError Severity".split(),
        "an exception or enum class",
    ),
}


def _walked() -> dict:
    """Each public function, and each class of ``_CHECKED_CLASSES``, by its public name."""
    functions = {name: getattr(dsdl, name) for name in dsdl.__all__ if inspect.isfunction(getattr(dsdl, name))}
    return {**functions, **_CHECKED_CLASSES}


def test_every_public_callable_has_a_wrong_type_row_or_a_reason():
    callables = {name for name in dsdl.__all__ if callable(getattr(dsdl, name))}
    assert not set(_walked()) & set(_NO_ROW)
    assert callables == set(_walked()) | set(_NO_ROW)


def test_every_parameter_of_a_public_callable_has_a_wrong_type_row_or_a_reason():
    """Read from the signatures, so a new parameter needs a row or a reason too."""
    parameters = {
        (name, parameter)
        for name, target in _walked().items()
        for parameter in inspect.signature(target).parameters
        if parameter != "self"
    }
    rows = {(name, parameter) for name, parameter, _, _ in _ROWS}
    assert not rows & set(_ANY_VALUE)
    assert parameters == rows | set(_ANY_VALUE)


@pytest.mark.parametrize(
    "name, parameter, call, message", _ROWS, ids=[f"{name}-{i}" for i, (name, *_) in enumerate(_ROWS)]
)
def test_a_public_callable_given_an_argument_of_the_wrong_type_raises_a_type_error(name, parameter, call, message):
    with pytest.raises(TypeError) as exc:
        call()
    assert message in str(exc.value), str(exc.value)


def test_the_readme_library_example_runs_from_the_repository_root(monkeypatch, capsys):
    """The ``## Library`` python block of README.md, run as it stands, so it cannot drift from the code."""
    root = CORPUS.parent.parent
    section = (root / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(root)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "2 0 {'VOCClassDom::bicycle': 1, 'VOCClassDom::cat': 2, 'VOCClassDom::sofa': 2}",
        "0 ['VOCClassDom::bicycle'] []",
        "1 ['VOCClassDom::cat', 'VOCClassDom::cat', 'VOCClassDom::sofa', 'VOCClassDom::sofa'] []",
        "2 {}",
    ]
