"""Import resolution, cycle checking, and type instantiation."""

import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dsdl import (
    LibraryEnvironment,
    check_acyclic,
    check_file,
    instantiate_type,
    parse_document,
    resolve_file,
    resolve_imports,
    resolve_schema,
    resolver,
    validate_dataset,
)
from dsdl.diagnostics import DocumentError, ResolutionError, Severity
from dsdl.document import RawDataSection, RawDocument
from dsdl.resolver import ConcreteType, _check_fmt, substitute_params
from dsdl.schema import ClassDomain, build_definitions
from dsdl.typeexpr import Arg, TypeExpr, parse_type_expression

import _resolver_oracle as oracle
from conftest import CORPUS, error_diags, load_corpus_doc


# -- imports -----------------------------------------------------------------


def test_import_from_default_library(library_env):
    doc, path = load_corpus_doc("library-import.yaml")
    registry, diags = resolve_imports(doc, library_env, source=path)
    assert error_diags(diags) == []
    assert "MyClassDom" in registry
    assert "ImageClassificationSample" in registry


def test_an_import_name_may_carry_its_extension(library_env):
    doc = parse_document('$dsdl-version: "0.5.0"\n$import: [object-detection.yaml]\n', format="yaml")
    registry, diags = resolve_imports(doc, library_env)
    assert diags == []
    assert "ObjectDetectionSample" in registry


_LIB = '$dsdl-version: "0.5.0"\ndefs:\n  Dom:\n    $def: class_domain\n    classes: [{}]\n'


@pytest.mark.parametrize("name", ["lib", "lib.yml"])
def test_a_yml_library_is_imported_by_its_stem_or_its_file_name(tmp_path, name):
    (tmp_path / "lib.yml").write_text(_LIB.format("a"))
    path = tmp_path / "d.yaml"
    path.write_text(f'$dsdl-version: "0.5.0"\n$import: [{name}]\ndata:\n  sample-type: Label[dom=Dom]\n  samples: [a]\n')
    report, _ = check_file(path, LibraryEnvironment(()))
    assert (report.diagnostics, report.sample_count) == ([], 1)


@pytest.mark.parametrize(
    "present, found", [(("yaml", "json", "yml"), "yaml"), (("json", "yml"), "json"), (("yml",), "yml")]
)
def test_an_import_stem_tries_yaml_then_json_then_yml(tmp_path, present, found):
    for suffix in present:
        lib = {"$dsdl-version": "0.5.0", "defs": {"Dom": {"$def": "class_domain", "classes": [suffix]}}}
        (tmp_path / f"lib.{suffix}").write_text(json.dumps(lib) if suffix == "json" else _LIB.format(suffix))
    doc = parse_document('$dsdl-version: "0.5.0"\n$import: [lib]\n', format="yaml")
    registry, diags = resolve_imports(doc, LibraryEnvironment(()), source=tmp_path / "d.yaml")
    assert diags == [] and registry.get("Dom").names == [found]


def test_resolution_of_what_is_not_a_document_or_against_what_is_not_an_environment_is_a_type_error(library_env):
    for doc in (None, '$dsdl-version: "0.5.0"\n', {}):
        with pytest.raises(TypeError, match=r"resolve_schema\(\) doc must be a RawDocument, not "):
            resolve_schema(doc, library_env)
    plain = parse_document('$dsdl-version: "0.5.0"\n', format="yaml")
    importing = parse_document('$dsdl-version: "0.5.0"\n$import: [imageclass]\n', format="yaml")
    for doc in (plain, importing):
        for env in (None, ("lib",)):
            with pytest.raises(TypeError, match=r"resolve_schema\(\) env must be a LibraryEnvironment, not "):
                resolve_schema(doc, env)


_IMPORTING = '$dsdl-version: "0.5.0"\n$import: [imageclass]\n'


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda env: resolve_imports(None, env), r"resolve_imports\(\) doc must be a RawDocument, not NoneType"),
        (lambda env: resolve_imports(parse_document(_IMPORTING, format="yaml"), None),
         r"resolve_imports\(\) env must be a LibraryEnvironment, not NoneType"),
        (lambda env: check_acyclic(None), r"check_acyclic\(\) registry must be a DefinitionRegistry, not NoneType"),
        (lambda env: build_definitions(None), r"build_definitions\(\) raw_defs must be a dict, not NoneType"),
        (lambda env: instantiate_type("Int", {}, resolve_imports(parse_document(_IMPORTING, format="yaml"), env)[0]),
         r"instantiate_type\(\) expr must be a TypeExpr, not str"),
    ],
    ids=["resolve_imports-doc", "resolve_imports-env", "check_acyclic", "build_definitions", "instantiate_type"],
)
def test_a_resolution_stage_given_an_argument_of_the_wrong_type_raises_a_type_error(library_env, call, message):
    with pytest.raises(TypeError, match=message):
        call(library_env)


def test_unresolvable_import_lists_searched_paths(library_env):
    doc = parse_document('$dsdl-version: "0.5.0"\n$import: [nosuchlib]\n', format="yaml")
    registry, diags = resolve_imports(doc, library_env)
    errors = error_diags(diags)
    assert [d.code for d in errors] == ["IMPORT_NOT_FOUND"]
    assert "library" in errors[0].message  # default library dir is reported


def test_later_import_wins_and_warns(tmp_path, library_env):
    (tmp_path / "liba.yaml").write_text(
        '$dsdl-version: "0.5.0"\nS:\n  $def: struct\n  $fields:\n    a: Int\n'
    )
    (tmp_path / "libb.yaml").write_text(
        '$dsdl-version: "0.5.0"\nS:\n  $def: struct\n  $fields:\n    b: Str\n'
    )
    doc = parse_document('$dsdl-version: "0.5.0"\n$import: [liba, libb]\n', format="yaml")
    env = LibraryEnvironment.from_environment((tmp_path,))
    registry, diags = resolve_imports(doc, env)
    overwrites = [d for d in diags if d.code == "IMPORT_OVERWRITE"]
    assert len(overwrites) == 1
    assert overwrites[0].severity is Severity.WARNING
    assert list(registry.get("S").fields) == ["b"]
    assert registry.provenance["S"].endswith("libb.yaml")


def test_importing_file_overwrites_what_it_imports(tmp_path):
    """A file's definitions merge after those of the files it imports, however deep."""
    (tmp_path / "liba.yaml").write_text(
        '$dsdl-version: "0.5.0"\n$import: [libb, libc]\nS:\n  $def: struct\n  $fields:\n    a: Int\n'
    )
    (tmp_path / "libb.yaml").write_text(
        '$dsdl-version: "0.5.0"\n$import: [libc]\nS:\n  $def: struct\n  $fields:\n    b: Int\n'
    )
    (tmp_path / "libc.yaml").write_text('$dsdl-version: "0.5.0"\nS:\n  $def: struct\n  $fields:\n    c: Int\n')
    doc = parse_document('$dsdl-version: "0.5.0"\n$import: [liba]\n', format="yaml")
    registry, diags = resolve_imports(doc, LibraryEnvironment((tmp_path,)))
    lib = {name: str((tmp_path / f"{name}.yaml").resolve()) for name in ("liba", "libb", "libc")}
    assert [d.message for d in diags] == [
        f"definition 'S' from {lib['libc']} is overwritten by {lib['libb']}",
        f"definition 'S' from {lib['libb']} is overwritten by {lib['liba']}",
    ]
    assert list(registry.get("S").fields) == ["a"]
    assert registry.provenance["S"] == lib["liba"]


def test_a_list_of_search_paths_is_kept_as_the_tuple_it_equals(tmp_path):
    assert LibraryEnvironment([tmp_path]).search_paths == (tmp_path,)
    assert hash(LibraryEnvironment([tmp_path])) == hash(LibraryEnvironment((tmp_path,)))


def test_an_import_found_but_unreadable_is_a_cannot_read_finding_and_the_rest_still_merge(tmp_path, monkeypatch):
    """An ``OSError`` from reading a found import file is an ``IMPORT_NOT_FOUND`` finding at
    its ``$import`` entry; resolution goes on with the next import."""
    (tmp_path / "locked.yaml").write_text('$dsdl-version: "0.5.0"\nA:\n  $def: struct\n  $fields:\n    a: Int\n')
    (tmp_path / "open.yaml").write_text('$dsdl-version: "0.5.0"\nB:\n  $def: struct\n  $fields:\n    b: Int\n')
    locked, read = (tmp_path / "locked.yaml").resolve(), resolver.read_utf8

    def refuse_locked(file, path):
        if file == locked:
            raise PermissionError(13, "Permission denied", str(file))
        return read(file, path)

    monkeypatch.setattr(resolver, "read_utf8", refuse_locked)
    doc = parse_document('$dsdl-version: "0.5.0"\n$import: [locked, open]\n', format="yaml")
    registry, diags = resolve_imports(doc, LibraryEnvironment((tmp_path,)))
    assert [(d.code, d.severity, d.path, d.message) for d in diags] == [(
        "IMPORT_NOT_FOUND",
        Severity.ERROR,
        "$import/locked",
        f"cannot read {locked}: [Errno 13] Permission denied: '{locked}'",
    )]
    assert "A" not in registry and list(registry.get("B").fields) == ["b"]


def test_an_import_finding_names_the_importing_file_whether_unfound_or_unreadable(tmp_path, monkeypatch):
    main, lib = tmp_path / "main.yaml", tmp_path / "lib.yaml"
    main.write_text('$dsdl-version: "0.5.0"\n$import: [locked, nosuchlib, lib]\n')
    lib.write_text('$dsdl-version: "0.5.0"\n$import: [nosuchlib]\n')
    (tmp_path / "locked.yaml").write_text('$dsdl-version: "0.5.0"\n')
    locked, read = (tmp_path / "locked.yaml").resolve(), resolver.read_utf8

    def refuse_locked(file, path):
        if file == locked:
            raise PermissionError(13, "Permission denied", str(file))
        return read(file, path)

    monkeypatch.setattr(resolver, "read_utf8", refuse_locked)
    doc = parse_document(main.read_text(), format="yaml", source=main)
    _, diags = resolve_imports(doc, LibraryEnvironment(()), source=main)
    assert [(d.path, d.message.split()[1], d.source) for d in diags] == [
        ("$import/locked", "read", str(main)),
        ("$import/nosuchlib", "resolve", str(main)),
        ("$import/nosuchlib", "resolve", str(lib.resolve())),
    ]


def test_own_definition_overwrites_import_with_warning(tmp_path):
    (tmp_path / "liba.yaml").write_text(
        '$dsdl-version: "0.5.0"\nD:\n  $def: class_domain\n  classes: [x]\n'
    )
    text = (
        '$dsdl-version: "0.5.0"\n$import: [liba]\n'
        "defs:\n  D:\n    $def: class_domain\n    classes: [y]\n"
    )
    main = tmp_path / "main.yaml"
    main.write_text(text)
    doc = parse_document(text, format="yaml", source=str(main))
    registry, diags = resolve_imports(doc, LibraryEnvironment(()), source=main)
    assert [d.code for d in diags if d.code == "IMPORT_OVERWRITE"] == ["IMPORT_OVERWRITE"]
    assert registry.get("D").class_names() == ["y"]


def test_import_cycle_is_reported(tmp_path):
    (tmp_path / "a.yaml").write_text('$dsdl-version: "0.5.0"\n$import: [b]\n')
    (tmp_path / "b.yaml").write_text('$dsdl-version: "0.5.0"\n$import: [a]\n')
    text = '$dsdl-version: "0.5.0"\n$import: [a]\n'
    main = tmp_path / "main.yaml"
    main.write_text(text)
    doc = parse_document(text, format="yaml", source=str(main))
    _, diags = resolve_imports(doc, LibraryEnvironment(()), source=main)
    assert "IMPORT_CYCLE" in [d.code for d in diags]


def test_relative_import_resolves_against_importing_file(library_env):
    doc, path = load_corpus_doc("cifar10/set-train/train.yaml")
    registry, diags = resolve_imports(doc, library_env, source=path)
    assert error_diags(diags) == []
    assert "Cifar10ImageClassificationClassDom" in registry


def test_a_definition_overwrites_an_import_of_its_name_whatever_parents_either_key_adds(tmp_path):
    """``Dom[Base]`` defines ``Dom``, so it overwrites an imported ``Dom``,
    and ``Dom`` an imported ``Dom[Base]``, each with one warning."""
    base = "Base:\n  $def: class_domain\n  classes: [person]\n"
    plain, with_parent = "Dom:\n  $def: class_domain\n  classes: [x]\n", 'Dom[Base]:\n  $def: class_domain\n  classes: ["nose[person]"]\n'
    for imported, own, shadowed in ((plain, with_parent, "Dom"), (with_parent, plain, "Dom[Base]")):
        (tmp_path / "lib.yaml").write_text('$dsdl-version: "0.5.0"\n' + base + imported)
        main = tmp_path / "main.yaml"
        main.write_text('$dsdl-version: "0.5.0"\n$import: [lib]\n' + own)
        doc = parse_document(main.read_text(), format="yaml", source=str(main))
        registry, diags = resolve_imports(doc, LibraryEnvironment(()), source=main)
        lib = str((tmp_path / "lib.yaml").resolve())
        assert [(d.severity, d.code, d.path, d.message) for d in diags] == [(
            Severity.WARNING, "IMPORT_OVERWRITE", f"defs/{own.split(':')[0]}",
            f"definition {shadowed!r} from {lib} is overwritten by {main}",
        )]
        assert registry.get("Dom").parents == (["Base"] if own is with_parent else [])
        assert registry.provenance["Dom"] == str(main)


def test_imported_library_requires_version_header(tmp_path):
    (tmp_path / "broken.yaml").write_text("D:\n  $def: class_domain\n  classes: [x]\n")
    doc = parse_document('$dsdl-version: "0.5.0"\n$import: [broken]\n', format="yaml")
    _, diags = resolve_imports(doc, LibraryEnvironment((tmp_path,)))
    errors = error_diags(diags)
    assert [d.code for d in errors] == ["VERSION_MISSING"]
    assert errors[0].source.endswith("broken.yaml")


def test_imported_library_not_utf8(tmp_path):
    (tmp_path / "latin.yaml").write_bytes(b'$dsdl-version: "0.5.0"\nD:\n  $def: class_domain\n  classes: [caf\xe9]\n')
    doc = parse_document('$dsdl-version: "0.5.0"\n$import: [latin]\n', format="yaml")
    _, diags = resolve_imports(doc, LibraryEnvironment((tmp_path,)))
    assert [(d.code, d.path) for d in diags] == [("ENCODING_ERROR", "$import/latin")]


def test_nested_imports_merge_depth_first(tmp_path):
    (tmp_path / "base.yaml").write_text(
        '$dsdl-version: "0.5.0"\nD:\n  $def: class_domain\n  classes: [x]\n'
    )
    (tmp_path / "middle.yaml").write_text(
        '$dsdl-version: "0.5.0"\n$import: [base]\nS:\n  $def: struct\n  $fields:\n    d: Label[dom=D]\n'
    )
    doc = parse_document('$dsdl-version: "0.5.0"\n$import: [middle]\n', format="yaml")
    registry, diags = resolve_imports(doc, LibraryEnvironment((tmp_path,)))
    assert error_diags(diags) == []
    assert "D" in registry and "S" in registry


def test_yaml_preferred_over_json(tmp_path):
    (tmp_path / "lib.yaml").write_text(
        '$dsdl-version: "0.5.0"\nD:\n  $def: class_domain\n  classes: [from_yaml]\n'
    )
    (tmp_path / "lib.json").write_text(
        '{"$dsdl-version": "0.5.0", "D": {"$def": "class_domain", "classes": ["from_json"]}}'
    )
    doc = parse_document('$dsdl-version: "0.5.0"\n$import: [lib]\n', format="yaml")
    registry, diags = resolve_imports(doc, LibraryEnvironment((tmp_path,)))
    assert error_diags(diags) == []
    assert registry.get("D").class_names() == ["from_yaml"]


# -- acyclicity ----------------------------------------------------------------


def _registry_from(raw):
    registry, diags = build_definitions(raw)
    assert diags == []
    return registry


def test_get_started_registry_is_acyclic(library_env):
    doc, _ = load_corpus_doc("get-started.yaml")
    registry, _ = build_definitions(doc.defs)
    assert check_acyclic(registry) == []


def test_two_node_cycle():
    registry = _registry_from(
        {
            "A": {"$def": "struct", "$fields": {"x": "B"}},
            "B": {"$def": "struct", "$fields": {"y": "A"}},
        }
    )
    diags = check_acyclic(registry)
    assert [d.code for d in diags] == ["CYCLE_DETECTED"]
    assert "A -> B -> A" in diags[0].message


def test_self_loop_through_container():
    registry = _registry_from(
        {"A": {"$def": "struct", "$fields": {"x": "List[etype=A]"}}}
    )
    diags = check_acyclic(registry)
    assert [d.code for d in diags] == ["CYCLE_DETECTED"]
    assert "A -> A" in diags[0].message


@st.composite
def _reference_graphs(draw):
    """A registry of 1 to 8 structs ``S0`` .., defined in any order, each
    field naming ``Int`` or any of the structs, itself included, directly
    or through ``List[etype=...]``."""
    n = draw(st.integers(1, 8))
    defs = {}
    for i in draw(st.permutations(range(n))):
        fields = {}
        for k in range(draw(st.integers(1, 3))):
            j = draw(st.integers(0, n - 1))
            fields[f"f{k}"] = draw(st.sampled_from(("Int", f"S{j}", f"List[etype=S{j}]")))
        defs[f"S{i}"] = {"$def": "struct", "$fields": fields}
    return _registry_from(defs)


@settings(max_examples=300, deadline=None)
@given(_reference_graphs())
def test_check_acyclic_matches_work_list_oracle(registry):
    def findings(diags):
        return [(d.code, d.path, d.message) for d in diags]

    assert findings(check_acyclic(registry)) == findings(oracle.check_acyclic(registry))


# -- instantiation --------------------------------------------------------------


@pytest.fixture
def detection_registry():
    return _registry_from(
        {
            "MyClassDom": {"$def": "class_domain", "classes": ["dog", "cat", "fish", "tiger"]},
            "LocalObjectEntry": {
                "$def": "struct",
                "$params": ["cdom"],
                "$fields": {"bbox": "BBox", "label": "Label[dom=$cdom]"},
            },
            "ObjectDetectionSample": {
                "$def": "struct",
                "$params": ["cdom"],
                "$fields": {
                    "image": "Image",
                    "objects": "List[etype=LocalObjectEntry[cdom=$cdom]]",
                },
            },
        }
    )


def test_instantiate_parametric_struct(detection_registry):
    expr = parse_type_expression("ObjectDetectionSample[cdom=MyClassDom]")
    ctype = instantiate_type(expr, {}, detection_registry)
    assert ctype.shape == "struct"
    objects = ctype.fields["objects"]
    assert objects.head == "List"
    entry = objects.arg("etype")
    assert entry.head == "LocalObjectEntry"
    label_dom = entry.fields["label"].arg("dom")
    assert isinstance(label_dom, ClassDomain)
    assert label_dom.name == "MyClassDom"


def test_substitution_compositionality(detection_registry):
    struct = detection_registry.get("ObjectDetectionSample")
    whole = instantiate_type(
        parse_type_expression("ObjectDetectionSample[cdom=MyClassDom]"), {}, detection_registry
    )
    bindings = {"cdom": parse_type_expression("MyClassDom")}
    for fname, fexpr in struct.fields.items():
        direct = instantiate_type(fexpr, bindings, detection_registry)
        assert whole.fields[fname] == direct


def test_two_independent_domains():
    registry = _registry_from(
        {
            "SceneDom": {"$def": "class_domain", "classes": ["street", "river"]},
            "ObjectDom": {"$def": "class_domain", "classes": ["person", "car"]},
            "S": {
                "$def": "struct",
                "$params": ["scenedom", "objectdom"],
                "$fields": {
                    "sclabel": "Label[dom=$scenedom]",
                    "olabel": "Label[dom=$objectdom]",
                },
            },
        }
    )
    ctype = instantiate_type(
        parse_type_expression("S[scenedom=SceneDom, objectdom=ObjectDom]"), {}, registry
    )
    assert ctype.fields["sclabel"].arg("dom").name == "SceneDom"
    assert ctype.fields["olabel"].arg("dom").name == "ObjectDom"


def test_label_requires_dom(detection_registry):
    with pytest.raises(ResolutionError) as exc:
        instantiate_type(parse_type_expression("Label"), {}, detection_registry)
    assert exc.value.code == "MISSING_PARAM"
    assert "dom" in exc.value.diagnostic.message


def test_positional_list_argument_and_default(detection_registry):
    ctype = instantiate_type(parse_type_expression("List[Int]"), {}, detection_registry)
    assert ctype.arg("etype") == ConcreteType("Int", "int")
    assert ctype.arg("ordered") is False


def test_positional_label_argument(detection_registry):
    ctype = instantiate_type(parse_type_expression("Label[MyClassDom]"), {}, detection_registry)
    assert ctype.arg("dom").name == "MyClassDom"


def test_unknown_type(detection_registry):
    with pytest.raises(ResolutionError) as exc:
        instantiate_type(parse_type_expression("Hologram"), {}, detection_registry)
    assert exc.value.code == "UNKNOWN_TYPE"


def test_missing_struct_param(detection_registry):
    with pytest.raises(ResolutionError) as exc:
        instantiate_type(parse_type_expression("ObjectDetectionSample"), {}, detection_registry)
    assert exc.value.code == "MISSING_PARAM"


def test_extra_param(detection_registry):
    with pytest.raises(ResolutionError) as exc:
        instantiate_type(
            parse_type_expression("ObjectDetectionSample[cdom=MyClassDom, extra=1]"),
            {},
            detection_registry,
        )
    assert exc.value.code == "EXTRA_PARAM"


def test_positional_argument_after_keyed_one_in_a_hand_built_expression(detection_registry):
    """The grammar rejects this order first, so only a library caller reaches it."""
    expr = TypeExpr("List", (Arg("etype", TypeExpr("Int")), Arg(None, TypeExpr("Int"))))
    with pytest.raises(ResolutionError) as exc:
        instantiate_type(expr, {}, detection_registry)
    assert (exc.value.code, exc.value.diagnostic.message) == ("EXTRA_PARAM", "List: positional argument after keyed argument")


def test_arg_kind_mismatch(detection_registry):
    with pytest.raises(ResolutionError) as exc:
        instantiate_type(
            parse_type_expression("Label[dom=LocalObjectEntry]"), {}, detection_registry
        )
    assert exc.value.code == "ARG_KIND"


def test_labelmap_cdom_alias_is_canonicalized(detection_registry):
    notes = []
    ctype = instantiate_type(
        parse_type_expression("LabelMap[cdom=MyClassDom]"),
        {},
        detection_registry,
        diags=notes,
    )
    assert ctype.arg("dom").name == "MyClassDom"
    assert [d.code for d in notes] == ["PARAM_ALIAS"]
    assert notes[0].severity is Severity.NOTE


def test_rotated_bbox_defaults_and_validation(detection_registry):
    ctype = instantiate_type(parse_type_expression('RotatedBBox[mode="xywht"]'), {}, detection_registry)
    assert ctype.arg("measure") == "radian"
    with pytest.raises(ResolutionError) as exc:
        instantiate_type(parse_type_expression('RotatedBBox[mode="oval"]'), {}, detection_registry)
    assert exc.value.code == "ARG_KIND"
    with pytest.raises(ResolutionError) as exc:
        instantiate_type(parse_type_expression("RotatedBBox"), {}, detection_registry)
    assert exc.value.code == "MISSING_PARAM"


def test_unsupported_fmt_directive_fails_at_schema_time(detection_registry):
    with pytest.raises(ResolutionError) as exc:
        instantiate_type(parse_type_expression('Time[fmt="%Q"]'), {}, detection_registry)
    assert exc.value.code == "DATE_FORMAT"
    instantiate_type(parse_type_expression('Time[fmt="%H:%M"]'), {}, detection_registry)


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("Label[D, E]", "EXTRA_PARAM", "Label takes at most 1 arguments"),
        ("Label[D, dom=D]", "EXTRA_PARAM", "Label: parameter 'dom' bound twice"),
        ("List[etype=D]", "UNKNOWN_TYPE", "'D' is a class domain, not a type"),
        ('Date[fmt="%"]', "DATE_FORMAT", "dangling % in fmt"),
        (
            'RotatedBBox[mode="xywht", measure="grad"]',
            "ARG_KIND",
            "RotatedBBox measure must be one of ('radian', 'degree'), got 'grad'",
        ),
        ("List[etype=Int, ordered=1]", "ARG_KIND", "List.ordered must be a boolean"),
        ("Date[fmt=1]", "ARG_KIND", "Date.fmt must be a string"),
        ("List[etype=1]", "ARG_KIND", "List.etype must be a type"),
        ("List[etype=$p]", "MISSING_PARAM", "no binding for parameter $p"),
    ],
    ids=[
        "positional-extra", "bound-twice", "domain-as-type", "dangling-percent", "measure", "ordered", "fmt",
        "etype-not-a-type", "unbound-param",
    ],
)
def test_instantiation_finding(text, code, message):
    registry = _registry_from(
        {
            "D": {"$def": "class_domain", "classes": ["a", "b"]},
            "E": {"$def": "class_domain", "classes": ["c"]},
        }
    )
    with pytest.raises(ResolutionError) as exc:
        instantiate_type(parse_type_expression(text), {}, registry)
    assert (exc.value.code, exc.value.diagnostic.message) == (code, message)


@pytest.mark.parametrize(
    "fmt, message",
    [
        ("%", "dangling % in fmt"),
        ("a%", "dangling % in fmt"),
        ("%%", None),
        ("%%%", "dangling % in fmt"),
        ("%Q", "unsupported fmt directive %Q"),
        ("%Y-%m-%d", None),
        ("%\n", "unsupported fmt directive %\n"),
    ],
)
def test_check_fmt_findings(fmt, message):
    if message is None:
        _check_fmt(fmt, "p")
        return
    with pytest.raises(ResolutionError) as exc:
        _check_fmt(fmt, "p")
    assert (exc.value.code, exc.value.diagnostic.message) == ("DATE_FORMAT", message)


def test_a_mapping_integer_past_the_digit_limit_is_a_grammar_error():
    struct = {"$def": "struct", "$params": ["x"], "$fields": {"n": {"$type": "List", "etype": "Int", "x": 10**5000}}}
    _, diags = build_definitions({"S": struct})
    assert [(d.code, d.path) for d in diags] == [("GRAMMAR_ERROR", "defs/S/$fields/n")]
    struct["$fields"]["n"] = "Int"
    doc = RawDocument(
        "0.5.0",
        defs={"S": struct},
        data=RawDataSection(sample_type={"$type": "S", "x": 10**5000}, sample_path="$local", samples=[]),
    )
    schema, diags = resolve_schema(doc, LibraryEnvironment())
    assert schema is None
    assert [(d.code, d.path, d.message) for d in diags] == [
        ("GRAMMAR_ERROR", "data/sample-type", "integer argument has too many digits (at offset 0)")
    ]


def test_a_bare_fmt_word_is_a_string():
    ctype = instantiate_type(parse_type_expression("Date[fmt=abc]"), {}, _registry_from({}))
    assert ctype.describe() == 'Date[fmt="abc"]'


def test_instantiation_is_pure(detection_registry):
    expr = parse_type_expression("ObjectDetectionSample[cdom=MyClassDom]")
    before = dict(detection_registry.entries)
    a = instantiate_type(expr, {}, detection_registry)
    b = instantiate_type(expr, {}, detection_registry)
    assert a == b
    assert detection_registry.entries == before


def test_substitute_params_chains():
    expr = parse_type_expression("Label[dom=$cdom1]")
    out = substitute_params(expr, {"cdom1": parse_type_expression("KeypointDom")})
    assert out == parse_type_expression("Label[dom=KeypointDom]")


def _struct_chain(levels: int) -> dict:
    """``S0`` .. ``S<levels>``, where ``S<i>`` has fields ``a`` and ``b`` of type ``S<i+1>``."""
    defs = {f"S{i}": {"$def": "struct", "$fields": {"a": f"S{i + 1}", "b": f"S{i + 1}"}} for i in range(levels)}
    defs[f"S{levels}"] = {"$def": "struct", "$fields": {"x": "Int"}}
    return defs


def test_shared_struct_is_built_once_per_instantiation():
    ctype = instantiate_type(parse_type_expression("S0"), {}, _registry_from(_struct_chain(3)))
    assert ctype.fields["a"] is ctype.fields["b"]
    assert ctype.fields["a"].fields["a"] is ctype.fields["b"].fields["b"]
    # without sharing, a chain this deep would build 2**40 struct nodes
    doc = parse_document(
        json.dumps({"$dsdl-version": "0.5.0", "defs": _struct_chain(40), "data": {"sample-type": "S0", "samples": [{}]}}),
        format="json",
    )
    schema, diags = resolve_schema(doc, LibraryEnvironment())
    assert diags == []
    report = validate_dataset(schema, doc.data)
    assert [(d.code, d.path) for d in report.diagnostics] == [
        ("FIELD_MISSING", "samples/0/a"),
        ("FIELD_MISSING", "samples/0/b"),
    ]


def test_unhashable_binding_in_a_struct_argument_is_a_coded_error():
    registry = _registry_from(
        {
            "Dom": {"$def": "class_domain", "classes": ["x"]},
            "S": {"$def": "struct", "$params": ["d"], "$fields": {"l": "Label[dom=$d]"}},
        }
    )
    with pytest.raises(ResolutionError) as exc:
        instantiate_type(parse_type_expression("S[d=$x]"), {"x": ["Dom"]}, registry)
    assert (exc.value.code, exc.value.diagnostic.path) == ("ARG_KIND", "l")


def test_param_alias_note_once_for_a_shared_struct():
    registry = _registry_from(
        {
            "Dom": {"$def": "class_domain", "classes": ["x"]},
            "M": {"$def": "struct", "$fields": {"m": "LabelMap[cdom=Dom]"}},
            "S": {"$def": "struct", "$fields": {"a": "M", "b": "M"}},
        }
    )
    notes = []
    ctype = instantiate_type(parse_type_expression("S"), {}, registry, diags=notes)
    assert [(d.code, d.path) for d in notes] == [("PARAM_ALIAS", "a/m")]
    assert ctype.fields["a"] is ctype.fields["b"]


def test_shared_struct_with_a_note_is_built_once_per_level(monkeypatch):
    built = []
    init = ConcreteType.__init__

    def counted(self, head, shape, *args):
        if shape == "struct":
            built.append(head)
            assert len(built) <= 1000, "struct builds grow with the paths, not with the levels"
        init(self, head, shape, *args)

    monkeypatch.setattr(ConcreteType, "__init__", counted)
    defs = _struct_chain(60)
    defs["S60"] = {"$def": "struct", "$fields": {"m": "LabelMap[cdom=Dom]"}}
    defs["Dom"] = {"$def": "class_domain", "classes": ["x"]}
    doc = parse_document(
        json.dumps({"$dsdl-version": "0.5.0", "defs": defs, "data": {"sample-type": "S0", "samples": [{}]}}),
        format="json",
    )
    schema, diags = resolve_schema(doc, LibraryEnvironment())
    assert built == [f"S{i}" for i in range(60, -1, -1)]  # the innermost build finishes first
    assert [(d.code, d.path) for d in diags] == [("PARAM_ALIAS", "data/sample-type/" + "a/" * 60 + "m")]
    assert schema.sample_type.fields["a"] is schema.sample_type.fields["b"]


# -- differential property: memoised struct builds against the per-path oracle ------


@st.composite
def _struct_dags(draw):
    """A registry of up to 7 structs ``S0`` .. over the class domains ``D`` and
    ``E``, and an expression that uses ``S0``.

    A field of ``S<i>`` is ``Int``, a label, a label map (``LabelMap[cdom=D]``
    reports a ``PARAM_ALIAS`` note), a later struct or a ``List`` of one. A
    struct argument is a domain or one of the struct's own ``$params``. Rarely
    a field names an unknown type or domain, or a struct reference leaves a
    parameter out.
    """
    n = draw(st.integers(1, 7))
    params = [draw(st.sampled_from(((), (), ("p",), ("p", "q")))) for _ in range(n)]

    def ref(j, own):
        values = ("D", "E") + tuple("$" + p for p in own) * 2
        args = [f"{name}={draw(st.sampled_from(values))}" for name in params[j]]
        if args and draw(st.integers(0, 19)) == 0:
            del args[draw(st.integers(0, len(args) - 1))]
        return f"S{j}[{', '.join(args)}]" if args else f"S{j}"

    defs = {dom: {"$def": "class_domain", "classes": ["x", "y"]} for dom in ("D", "E")}
    for i, own in enumerate(params):
        leaves = ("Int", "LabelMap[cdom=D]", "LabelMap[dom=D]", "Label[dom=E]", "List[etype=LabelMap[cdom=D]]")
        leaves += tuple(f"Label[dom=${p}]" for p in own)
        fields = {}
        for k in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(("leaf",) * 8 + ("struct",) * 8 + ("list",) * 3 + ("fault",)))
            if kind == "fault":
                fields[f"f{k}"] = draw(st.sampled_from(("Nope", "Label[dom=Nope]")))
            elif kind == "leaf" or i == n - 1:
                fields[f"f{k}"] = draw(st.sampled_from(leaves))
            else:
                fields[f"f{k}"] = ref(draw(st.sampled_from((i + 1, i + 1) + tuple(range(i + 1, n)))), own)
                if kind == "list":
                    fields[f"f{k}"] = f"List[etype={fields[f'f{k}']}]"
        defs[f"S{i}"] = {"$def": "struct", "$fields": fields}
        if own:
            defs[f"S{i}"]["$params"] = list(own)
    return _registry_from(defs), parse_type_expression(ref(0, ()))


def _instantiated(instantiate, expr, registry):
    """The type or the error of ``instantiate``, and the diagnostics it reported."""
    diags = []
    try:
        return instantiate(expr, {}, registry, diags=diags), diags
    except ResolutionError as exc:
        return (exc.code, exc.diagnostic.path, exc.diagnostic.message), diags


@settings(max_examples=300, deadline=None)
@given(_struct_dags())
def test_instantiation_matches_per_path_oracle(dag):
    registry, expr = dag
    builds = [0]
    nodes = {}  # (closed struct expression, depth) -> every node returned for it
    init, closed = ConcreteType.__init__, resolver._instantiate_closed

    def counted(self, head, shape, *args):
        builds[0] += shape == "struct"
        init(self, head, shape, *args)

    def recorded(expr, run, path):
        ctype = closed(expr, run, path)
        if ctype.shape == "struct":
            nodes.setdefault((expr, run.depth), []).append(ctype)
        return ctype

    with mock.patch.object(ConcreteType, "__init__", counted), mock.patch.object(resolver, "_instantiate_closed", recorded):
        got, diags = _instantiated(instantiate_type, expr, registry)
    want, oracle_diags = _instantiated(oracle.instantiate_type, expr, registry)
    assert got == want
    notes = [d for d in diags if d.severity is Severity.NOTE]
    oracle_notes = [d for d in oracle_diags if d.severity is Severity.NOTE]
    assert [d for d in diags if d not in notes] == [d for d in oracle_diags if d not in oracle_notes]
    remaining = iter(oracle_notes)
    assert all(d in remaining for d in notes)  # an order-preserving subsequence
    assert bool(notes) == bool(oracle_notes)
    # one build per struct expression and depth: at most definitions x levels
    # builds for each choice of domain arguments
    assert all(len({id(node) for node in same}) == 1 for same in nodes.values())
    assert builds[0] == len(nodes)


# -- schema resolution -----------------------------------------------------------


def test_resolve_voc_schema(library_env):
    doc, path = load_corpus_doc("voc/train.yaml")
    schema, diags = resolve_schema(doc, library_env, source=path)
    assert error_diags(diags) == []
    assert schema.sample_type.describe() == "ObjectDetectionSample[cdom=VOCClassDom]"
    entry = schema.sample_type.fields["objects"].arg("etype")
    assert entry.describe() == "LocalObjectEntry[cdom=VOCClassDom]"
    assert len(schema.sample_type.fields["objects"].arg("etype").fields["label"].arg("dom")) == 20


def test_resolve_dota_schema_with_global_info(library_env):
    doc, path = load_corpus_doc("dota/set-train/train.yaml")
    schema, diags = resolve_schema(doc, library_env, source=path)
    assert error_diags(diags) == []
    assert schema.sample_type.head == "OrientedObjectDetectionSample"
    assert schema.global_info_type.describe() == "ClassMapInfo[cdom=DOTAV2ClassDom]"


def test_resolve_file_reads_parses_and_resolves_a_description(library_env):
    path = CORPUS / "get-started.yaml"
    doc, schema, diags = resolve_file(str(path), library_env)
    assert diags == [] and doc.dsdl_version == "0.5.0"
    assert schema.sample_type.describe() == "ImageClassificationSample"


def test_resolve_file_on_a_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        resolve_file(tmp_path / "missing.yaml", LibraryEnvironment(()))


def test_resolve_file_on_a_file_that_is_not_utf8_raises_encoding_error(tmp_path):
    bad = tmp_path / "latin.yaml"
    bad.write_bytes(b'$dsdl-version: "0.5.0"\nmeta: {name: caf\xe9}\n')
    with pytest.raises(DocumentError) as exc:
        resolve_file(bad, LibraryEnvironment(()))
    assert (exc.value.code, exc.value.diagnostic.path) == ("ENCODING_ERROR", str(bad))


def test_resolve_file_on_text_that_does_not_parse_gives_only_its_finding(tmp_path):
    path = tmp_path / "d.yaml"
    path.write_text("a: [")
    doc, schema, diags = resolve_file(path, LibraryEnvironment(()))
    assert (doc, schema) == (None, None)
    assert [(d.code, d.source) for d in diags] == [("SYNTAX_ERROR", str(path))]


def test_data_section_without_sample_type(library_env):
    text = '$dsdl-version: "0.5.0"\ndata:\n  samples:\n    - 1\n'
    doc = parse_document(text, format="yaml")
    schema, diags = resolve_schema(doc, library_env)
    assert schema is None
    assert "MALFORMED_DATA_SECTION" in [d.code for d in error_diags(diags)]


def test_cycle_stops_resolution(library_env):
    text = (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  A:\n    $def: struct\n    $fields: {x: B}\n"
        "  B:\n    $def: struct\n    $fields: {y: A}\n"
        "data:\n  sample-type: A\n  samples: [{}]\n"
    )
    doc = parse_document(text, format="yaml")
    schema, diags = resolve_schema(doc, library_env)
    assert schema is None
    assert "CYCLE_DETECTED" in [d.code for d in diags]
