"""Import resolution, cycle checking, and type instantiation."""

import json

import pytest

from dsdl import (
    LibraryEnvironment,
    check_acyclic,
    instantiate_type,
    parse_document,
    resolve_imports,
    resolve_schema,
    validate_dataset,
)
from dsdl.diagnostics import ResolutionError, Severity
from dsdl.resolver import ConcreteType, substitute_params
from dsdl.schema import ClassDomain, build_definitions
from dsdl.typeexpr import parse_type_expression

from conftest import CORPUS, error_diags, load_corpus_doc


# -- imports -----------------------------------------------------------------


def test_import_from_default_library(library_env):
    doc, path = load_corpus_doc("library-import.yaml")
    registry, diags = resolve_imports(doc, library_env, source=path)
    assert error_diags(diags) == []
    assert "MyClassDom" in registry
    assert "ImageClassificationSample" in registry


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
    assert registry.provenance["S"].source.endswith("libb.yaml")


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


def test_param_alias_note_at_every_path_of_a_shared_struct():
    registry = _registry_from(
        {
            "Dom": {"$def": "class_domain", "classes": ["x"]},
            "M": {"$def": "struct", "$fields": {"m": "LabelMap[cdom=Dom]"}},
            "S": {"$def": "struct", "$fields": {"a": "M", "b": "M"}},
        }
    )
    notes = []
    ctype = instantiate_type(parse_type_expression("S"), {}, registry, diags=notes)
    assert [(d.code, d.path) for d in notes] == [("PARAM_ALIAS", "a/m"), ("PARAM_ALIAS", "b/m")]
    assert ctype.fields["a"] == ctype.fields["b"]


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
