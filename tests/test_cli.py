"""CLI contract: exit codes, output formats, determinism."""

import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml as pyyaml
from hypothesis import given, settings, strategies as st

from dsdl import LibraryEnvironment, parse_document, resolve_schema
from dsdl.diagnostics import NAME_LIMIT, echo
from dsdl.typeexpr import parse_type_expression, render_type_expression

from conftest import CORPUS, run_cli


def corpus(rel: str) -> str:
    return str(CORPUS / rel)


# -- validate ---------------------------------------------------------------


def test_validate_get_started_exits_zero():
    code, out, _ = run_cli("validate", corpus("get-started.yaml"))
    assert code == 0
    assert out == "2 samples validated, 0 errors, 0 warnings\n"


def test_validate_missing_file_exits_two():
    code, out, err = run_cli("validate", "does-not-exist.yaml")
    assert code == 2
    assert "cannot read" in err
    assert out == ""


def test_validate_non_utf8_file_exits_two(tmp_path):
    bad = tmp_path / "latin.yaml"
    bad.write_bytes(b'$dsdl-version: "0.5.0"\nmeta: {name: caf\xe9}\n')
    for command in ("validate", "inspect", "summary"):
        code, out, err = run_cli(command, str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error ENCODING_ERROR {bad} ")


# a flow mapping that does not close: the JSON and the YAML parser each report it in their own words
_UNCLOSED = '{"$dsdl-version": "0.5.0", meta: ['


@pytest.mark.parametrize(
    "name, host", [("d.json", "JSON"), ("d.yaml", "YAML"), ("d.yml", "YAML"), ("d", "JSON"), ("d.txt", "JSON")]
)
def test_the_host_format_of_a_description_follows_its_suffix(tmp_path, name, host):
    """.json is JSON, .yaml and .yml YAML, and any other suffix ``auto``: JSON
    first, whose finding it gives for text that opens with a brace."""
    (tmp_path / name).write_text(_UNCLOSED)
    code, out, _ = run_cli("validate", str(tmp_path / name))
    assert code == 1
    assert out.startswith(f"error SYNTAX_ERROR  malformed {host}: ")


@pytest.mark.parametrize("name", ["get-started.yml", "get-started"])
def test_a_yml_or_extensionless_copy_of_a_yaml_description_validates(tmp_path, name):
    copy = tmp_path / name
    copy.write_text((CORPUS / "get-started.yaml").read_text(encoding="utf-8"))
    assert run_cli("validate", str(copy)) == (0, "2 samples validated, 0 errors, 0 warnings\n", "")


@pytest.mark.parametrize(
    "name, text", [("s.yml", "samples:\n  - {n: 1}\n  - {n: 2}\n"), ("s.dat", '{"samples": [{"n": 1}, {"n": 2}]}')]
)
def test_an_external_sample_file_is_yaml_by_its_suffix_and_json_otherwise(tmp_path, name, text):
    defs = {"S": {"$def": "struct", "$fields": {"n": "Int"}}}
    description = {"$dsdl-version": "0.5.0", "defs": defs, "data": {"sample-type": "S", "sample-path": name}}
    (tmp_path / "d.json").write_text(json.dumps(description))
    (tmp_path / name).write_text(text)
    assert run_cli("validate", str(tmp_path / "d.json")) == (0, "2 samples validated, 0 errors, 0 warnings\n", "")
    (tmp_path / name).write_text(_UNCLOSED)
    code, out, _ = run_cli("validate", str(tmp_path / "d.json"))
    assert code == 1
    assert f"malformed {'YAML' if name.endswith('.yml') else 'JSON'}: " in out


_DEEP_NEST = "[" * 100_000 + "]" * 100_000
_DEEP_CASES = {
    "yaml-description": ({"d.yaml": '$dsdl-version: "0.5.0"\nmeta: {a: ' + _DEEP_NEST + "}\n"}, "YAML"),
    "json-description": ({"d.json": '{"$dsdl-version": "0.5.0", "meta": {"a": ' + _DEEP_NEST + "}}"}, "JSON"),
    "yaml-import": (
        {
            "d.yaml": '$dsdl-version: "0.5.0"\n$import: [./deep]\n',
            "deep.yaml": '$dsdl-version: "0.5.0"\nX: ' + _DEEP_NEST + "\n",
        },
        "YAML",
    ),
    "json-external-samples": (
        {
            "d.yaml": '$dsdl-version: "0.5.0"\ndata:\n  sample-type: Int\n  sample-path: s.json\n',
            "s.json": '{"samples": ' + _DEEP_NEST + "}",
        },
        "JSON",
    ),
}


@pytest.mark.parametrize("case", list(_DEEP_CASES))
def test_validate_nesting_too_deep_is_a_coded_finding(tmp_path, case):
    files, label = _DEEP_CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    description = next(tmp_path / name for name in files if name.startswith("d."))
    for argv in (("validate",), ("validate", "--format", "json"), ("summary",)):
        code, out, err = run_cli(*argv, str(description))
        assert code == 1
        assert err == ""
        assert f"malformed {label}: nesting is too deep" in out
    code, out, _ = run_cli("validate", str(description))
    assert out.splitlines() == [
        f"error SYNTAX_ERROR  malformed {label}: nesting is too deep",
        "0 samples validated, 1 errors, 0 warnings",
    ]


def test_long_import_chain_validates(tmp_path):
    """``lib{i}`` imports ``lib{i+1}``, 1,200 files deep, each defining one struct."""
    depth = 1_200
    for i in range(depth):
        imports = f"$import: [lib{i + 1}]\n" if i + 1 < depth else ""
        struct = f"S{i}:\n  $def: struct\n  $fields:\n    x: Int\n"
        (tmp_path / f"lib{i}.yaml").write_text(f'$dsdl-version: "0.5.0"\n{imports}{struct}')
    description = tmp_path / "d.yaml"
    description.write_text('$dsdl-version: "0.5.0"\n$import: [lib0]\ndata:\n  sample-type: S0\n  samples: [{x: 1}]\n')
    assert run_cli("validate", str(description)) == (0, "1 samples validated, 0 errors, 0 warnings\n", "")


def _list_type(levels: int, form: str):
    """``List[etype=...Int]`` nested ``levels`` deep, as text or as ``{$type: ...}`` mappings."""
    spec = "Int"
    for _ in range(levels - 1):
        spec = f"List[etype={spec}]" if form == "string" else {"$type": "List", "etype": spec}
    return spec


@pytest.mark.parametrize("form", ["string", "mapping"])
def test_type_nesting_limit(tmp_path, form):
    from dsdl.typeexpr import MAX_TYPE_DEPTH

    value = 7
    for _ in range(MAX_TYPE_DEPTH - 1):
        value = [value]
    ok = tmp_path / "ok.json"
    sample_type = _list_type(MAX_TYPE_DEPTH, form)
    ok.write_text(json.dumps({"$dsdl-version": "0.5.0", "data": {"sample-type": sample_type, "samples": [value]}}))
    assert run_cli("validate", str(ok)) == (0, "1 samples validated, 0 errors, 0 warnings\n", "")

    for levels in (MAX_TYPE_DEPTH + 1, 400):
        deep = tmp_path / f"deep{levels}.json"
        sample_type = _list_type(levels, form)
        deep.write_text(json.dumps({"$dsdl-version": "0.5.0", "data": {"sample-type": sample_type, "samples": [[]]}}))
        for argv in (("validate",), ("inspect",), ("summary", "--format", "json")):
            code, out, err = run_cli(*argv, str(deep))
            assert (code, err) == (1, "")
            assert "type expression nested too deeply" in out
        code, out, _ = run_cli("validate", str(deep))
        lines = out.splitlines()
        assert lines[0].startswith("error GRAMMAR_ERROR data/sample-type type expression nested too deeply (at offset ")
        assert lines[1:] == ["0 samples validated, 1 errors, 0 warnings"]

        field = tmp_path / f"field{levels}.json"
        defs = {"S": {"$def": "struct", "$fields": {"f": sample_type}}}
        field.write_text(json.dumps({"$dsdl-version": "0.5.0", "defs": defs}))
        code, out, err = run_cli("validate", str(field))
        assert (code, err) == (1, "")
        assert out.startswith("error GRAMMAR_ERROR defs/S/$fields/f type expression nested too deeply (at offset ")


def test_deep_struct_chain_is_a_coded_finding(tmp_path):
    """``S{i}.x: S{i+1}``, 600 structs deep: a finding, not a ``RecursionError``."""
    from dsdl.typeexpr import MAX_TYPE_DEPTH

    levels = 600
    defs = {f"S{i}": {"$def": "struct", "$fields": {"x": f"S{i + 1}"}} for i in range(levels - 1)}
    defs[f"S{levels - 1}"] = {"$def": "struct", "$fields": {"x": "Int"}}
    deep = tmp_path / "chain.json"
    deep.write_text(json.dumps({"$dsdl-version": "0.5.0", "defs": defs, "data": {"sample-type": "S0", "samples": [{}]}}))
    for argv in (("validate",), ("inspect",), ("summary", "--format", "json")):
        code, out, err = run_cli(*argv, str(deep))
        assert (code, err) == (1, "")
        assert "TYPE_TOO_DEEP" in out
    code, out, _ = run_cli("validate", str(deep))
    # the struct at level MAX_TYPE_DEPTH + 1 is reported at its field path
    path = "data/sample-type" + "/x" * MAX_TYPE_DEPTH
    assert out.splitlines() == [
        f"error TYPE_TOO_DEEP {path} type nested too deeply: more than {MAX_TYPE_DEPTH} levels through struct fields",
        "0 samples validated, 1 errors, 0 warnings",
    ]

    # MAX_TYPE_DEPTH levels in all: MAX_TYPE_DEPTH - 1 structs around an Int
    defs = {f"S{i}": {"$def": "struct", "$fields": {"x": f"S{i + 1}"}} for i in range(MAX_TYPE_DEPTH - 2)}
    defs[f"S{MAX_TYPE_DEPTH - 2}"] = {"$def": "struct", "$fields": {"x": "Int"}}
    value: object = 7
    for _ in range(MAX_TYPE_DEPTH - 1):
        value = {"x": value}
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"$dsdl-version": "0.5.0", "defs": defs, "data": {"sample-type": "S0", "samples": [value]}}))
    assert run_cli("validate", str(ok)) == (0, "1 samples validated, 0 errors, 0 warnings\n", "")


def test_summary_of_the_deepest_struct_chain(tmp_path):
    """A sample as deep as ``TYPE_TOO_DEEP`` allows, a label at the bottom, is summarised."""
    from dsdl.typeexpr import MAX_TYPE_DEPTH

    last = MAX_TYPE_DEPTH - 2
    defs = {f"S{i}": {"$def": "struct", "$fields": {"x": f"S{i + 1}"}} for i in range(last)}
    defs[f"S{last}"] = {"$def": "struct", "$fields": {"x": "Label[dom=D]", "y": "Image"}, "$optional": ["y"]}
    defs["D"] = {"$def": "class_domain", "classes": ["a", "b"]}
    value: object = "b"
    for _ in range(MAX_TYPE_DEPTH - 1):
        value = {"x": value}
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"$dsdl-version": "0.5.0", "defs": defs, "data": {"sample-type": "S0", "samples": [value]}}))
    text = f"samples: 1\nlabels:\n  D::b: 1\noptional-fill:\n  S{last}.y: 0/1\n"
    assert run_cli("summary", str(ok)) == (0, text, "")
    code, out, err = run_cli("summary", "--format", "json", str(ok))
    assert (code, err) == (0, "")
    assert json.loads(out)["labels"] == {"D::b": 1}


def test_usage_error_exits_two():
    code, _, _ = run_cli("validate")
    assert code == 2
    code, _, _ = run_cli()
    assert code == 2


def test_deleted_required_field_warns_by_default_fails_strict(tmp_path):
    raw = pyyaml.safe_load((CORPUS / "get-started.yaml").read_text())
    del raw["data"]["samples"][0]["label"]
    target = tmp_path / "mutated.yaml"
    target.write_text(pyyaml.safe_dump(raw))

    code, out, _ = run_cli("validate", str(target))
    assert code == 0
    assert "warning FIELD_MISSING samples/0/label" in out

    code, out, _ = run_cli("validate", "--strict", str(target))
    assert code == 1
    assert "error FIELD_MISSING samples/0/label" in out


def test_validate_error_exits_one(tmp_path):
    raw = pyyaml.safe_load((CORPUS / "get-started.yaml").read_text())
    raw["data"]["samples"][0]["label"] = 9
    target = tmp_path / "mutated.yaml"
    target.write_text(pyyaml.safe_dump(raw))
    code, out, _ = run_cli("validate", str(target))
    assert code == 1
    assert "error CLASS_INDEX_RANGE samples/0/label" in out


def test_validate_json_report_round_trips():
    code, text_out, _ = run_cli("validate", corpus("optional-label.yaml"))
    code_json, json_out, _ = run_cli("validate", "--format", "json", corpus("optional-label.yaml"))
    assert code == code_json == 0
    payload = json.loads(json_out)
    assert payload["sample_count"] == 4
    assert payload["errors"] == 0
    assert payload["warnings"] == 0
    assert payload["diagnostics"] == []
    assert "4 samples validated, 0 errors, 0 warnings" in text_out


def test_json_report_lists_every_text_diagnostic(tmp_path):
    raw = pyyaml.safe_load((CORPUS / "voc/train.yaml").read_text())
    raw["data"]["samples"][0]["objects"][0]["bbox"] = [1.0, 2.0, 3.0]
    target = tmp_path / "voc.yaml"
    target.write_text(pyyaml.safe_dump(raw))
    args = (str(target), "--library-path", corpus("voc"))
    code_t, text_out, _ = run_cli("validate", *args)
    code_j, json_out, _ = run_cli("validate", "--format", "json", *args)
    assert code_t == code_j == 1
    payload = json.loads(json_out)
    text_diag_lines = [l for l in text_out.splitlines() if l.startswith(("error", "warning", "note"))]
    assert len(payload["diagnostics"]) == len(text_diag_lines)
    for diag, line in zip(payload["diagnostics"], text_diag_lines):
        assert f"{diag['severity']} {diag['code']} {diag['path']}" in line
    assert payload["counts_by_code"] == {"ARITY": 1}


def test_repeated_runs_are_byte_identical():
    for args in (
        ("validate", corpus("voc/train.yaml")),
        ("inspect", corpus("voc/train.yaml")),
        ("summary", corpus("optional-label.yaml")),
        ("validate", "--format", "json", corpus("dota/set-train/train.yaml")),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second


# -- inspect -----------------------------------------------------------------


def test_inspect_voc_expands_sample_type():
    code, out, _ = run_cli("inspect", corpus("voc/train.yaml"))
    assert code == 0
    assert "sample-type: ObjectDetectionSample[cdom=VOCClassDom]" in out
    assert "objects: List[etype=LocalObjectEntry[cdom=VOCClassDom], ordered=false]" in out
    assert "class_domain VOCClassDom (20 classes)" in out
    assert "20. cow" in out


def test_inspect_keypoints_shows_skeleton():
    code, out, _ = run_cli("inspect", corpus("keypoints/set-train/train.yaml"))
    assert code == 0
    assert "skeleton: [16, 14]," in out


def test_inspect_cycle_exits_one(tmp_path):
    target = tmp_path / "cycle.yaml"
    target.write_text(
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  A:\n    $def: struct\n    $fields: {x: B}\n"
        "  B:\n    $def: struct\n    $fields: {y: A}\n"
    )
    code, out, _ = run_cli("inspect", str(target))
    assert code == 1
    assert "CYCLE_DETECTED" in out


_BOX_DEFS = (
    '$dsdl-version: "0.5.0"\n'
    "defs:\n"
    "  P: {$def: struct, $fields: {x: Int, y: Str}}\n"
    '  Box: {$def: struct, $params: [t], $fields: {v: "List[etype=$t]", w: Int}, $optional: [w]}\n'
    '  Holder: {$def: struct, $fields: {ps: "List[etype=List[etype=P]]"}}\n'
    "data:\n  samples: []\n  sample-type: "
)
_BOX_TYPES = {
    "Box[t=Int]": "Int",
    "Box[t=List[etype=Int]]": "List[etype=Int]",
    "{$type: Box, t: {$type: Int}}": "Int",
    "Box[t=Box[t=Box[t=P]]]": "Box[t=Box[t=P]]",
}


def _text_fields(out: str) -> list[tuple[int, str]]:
    """(depth, name) of each field line below the sample-type and
    global-info-type lines of text inspect."""
    pairs, inside = [], False
    for line in out.splitlines():
        if line.startswith(("sample-type: ", "global-info-type: ")):
            inside = True
        elif inside:
            body = line.lstrip(" ")
            pairs.append(((len(line) - len(body)) // 2 - 1, body.split(": ", 1)[0]))
    return pairs


def _json_fields(node: dict, depth: int = 0) -> list[tuple[int, str]]:
    """(depth, name) of each field of a JSON inspect node, walked through ``args.etype``."""
    pairs = []
    etype = node.get("args", {}).get("etype")
    if etype is not None:
        pairs += _json_fields(etype, depth)
    for name, child in node.get("fields", {}).items():
        pairs.append((depth, name))
        pairs += _json_fields(child, depth + 1)
    return pairs


def _assert_inspect_formats_agree(path: str) -> tuple[int, str, dict]:
    """Inspect ``path`` in both formats, assert that they list the same fields,
    and return the exit code, the text and the JSON payload."""
    code, text, _ = run_cli("inspect", path)
    json_code, out, _ = run_cli("inspect", "--format", "json", path)
    assert json_code == code
    payload = json.loads(out)
    walked = [pair for key in ("sample_type", "global_info_type") if key in payload for pair in _json_fields(payload[key])]
    assert _text_fields(text) == walked, path
    return code, text, payload


@pytest.mark.parametrize("spec", list(_BOX_TYPES))
def test_inspect_shows_a_struct_parameter_bound_to_a_type(tmp_path, spec):
    target = tmp_path / "box.yaml"
    target.write_text(_BOX_DEFS + spec + "\n")
    code, _, payload = _assert_inspect_formats_agree(str(target))
    assert code == 0
    assert payload["sample_type"]["args"] == {"t": {"type_expression": _BOX_TYPES[spec]}}


def test_inspect_shows_a_struct_parameter_bound_to_a_number(tmp_path):
    """A number bound to a struct parameter reads back as its text in the
    type expression, and as the number in JSON."""
    target = tmp_path / "n.yaml"
    target.write_text(
        '$dsdl-version: "0.5.0"\n'
        "defs:\n  S: {$def: struct, $params: [n], $fields: {x: Int}}\n"
        "data:\n  sample-type: 'S[n=3]'\n  samples: [{x: 1}]\n"
    )
    code, text, payload = _assert_inspect_formats_agree(str(target))
    assert code == 0
    assert "sample-type: S[n=3]" in text.splitlines()
    assert payload["sample_type"]["args"] == {"n": 3}


def test_a_mapping_form_domain_that_is_not_a_name_is_an_unknown_type(tmp_path):
    """A domain given as a string in mapping form is looked up by that string, name or not."""
    target = tmp_path / "d.yaml"
    target.write_text('$dsdl-version: "0.5.0"\ndata:\n  sample-type: {$type: Label, dom: "not a name"}\n  samples: []\n')
    for command in ("validate", "inspect"):
        code, out, err = run_cli(command, str(target))
        finding = "error UNKNOWN_TYPE data/sample-type Label.dom: unknown class domain 'not a name'"
        assert (code, out.splitlines()[0], err) == (1, finding, ""), command


def test_inspect_lists_the_fields_below_nested_lists(tmp_path):
    target = tmp_path / "holder.yaml"
    target.write_text(_BOX_DEFS + "Holder\n")
    _, text, _ = _assert_inspect_formats_agree(str(target))
    assert text.splitlines()[-3:] == [
        "  ps: List[etype=List[etype=P, ordered=false], ordered=false]",
        "    x: Int",
        "    y: Str",
    ]


def test_inspect_formats_agree_on_the_corpus():
    files = sorted(p for p in CORPUS.rglob("*") if p.suffix in (".yaml", ".json"))
    typed = [p for p in files if "sample_type" in _assert_inspect_formats_agree(str(p))[2]]
    assert len(typed) >= 20


def test_inspect_shows_provenance_of_winning_definition(tmp_path):
    (tmp_path / "liba.yaml").write_text(
        '$dsdl-version: "0.5.0"\nS:\n  $def: struct\n  $fields:\n    a: Int\n'
    )
    (tmp_path / "libb.yaml").write_text(
        '$dsdl-version: "0.5.0"\nS:\n  $def: struct\n  $fields:\n    b: Str\n'
    )
    target = tmp_path / "main.yaml"
    target.write_text('$dsdl-version: "0.5.0"\n$import: [liba, libb]\n')
    code, out, _ = run_cli("inspect", str(target), "--library-path", str(tmp_path))
    assert code == 0
    assert "warning IMPORT_OVERWRITE" in out
    assert out.count("IMPORT_OVERWRITE") == 1
    struct_line = next(l for l in out.splitlines() if l.strip().startswith("struct S"))
    assert "libb.yaml" in struct_line
    assert "b: Str" in out
    assert "a: Int" not in out


def test_inspect_type_text_parses_back(tmp_path):
    """A string argument reads the same under ``definitions:`` and under
    ``sample-type:``, escaped, and each field's type text parses."""
    target = tmp_path / "when.yaml"
    target.write_text(
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  S: {$def: struct, $fields: {when: 'Date[fmt=\"%Y\\\"%m\"]', whens: 'List[etype=Date[fmt=\"%Y\\\"%m\"]]'}}\n"
        "data:\n  sample-type: S\n  samples: []\n"
    )
    code, out, _ = run_cli("inspect", str(target))
    assert code == 0
    lines = out.splitlines()
    assert [line.strip() for line in lines if "when:" in line] == ['when: Date[fmt="%Y\\"%m"]'] * 2
    doc = parse_document(target.read_text(), source=str(target))
    schema, _ = resolve_schema(doc, LibraryEnvironment.from_environment(), source=target)
    for ftype in schema.sample_type.fields.values():
        assert render_type_expression(parse_type_expression(ftype.describe())) == ftype.describe()
    assert schema.sample_type.fields["whens"].arg("etype").arg("fmt") == '%Y"%m'


def test_a_non_finite_mapping_argument_is_a_grammar_error(tmp_path):
    """``NaN`` has no type-expression literal: ``S[x=nan]`` would read back
    as a type named ``nan``."""
    target = tmp_path / "nan.json"
    target.write_text(
        '{"$dsdl-version": "0.5.0", "defs": {"S": {"$def": "struct", "$params": ["x"], "$fields": {"n": "Int"}}},'
        ' "data": {"sample-type": {"$type": "S", "x": NaN}, "samples": []}}'
    )
    code, out, _ = run_cli("inspect", str(target))
    assert code == 1
    assert "error GRAMMAR_ERROR data/sample-type number nan has no type-expression literal" in out


_H = '$dsdl-version: "0.5.0"\n'
_FINDINGS = {
    "$import: 5\n": ("MALFORMED_IMPORT", "$import"),
    "$import: nosuchlib\n": ("IMPORT_NOT_FOUND", "$import/nosuchlib"),
    "meta: [1]\n": ("MALFORMED_META", "meta"),
    "data: [1]\n": ("MALFORMED_DATA_SECTION", "data"),
    "1: x\n": ("MALFORMED_DEF", "defs"),
    "defs: [1]\n": ("MALFORMED_DEF", "defs"),
    "defs: null\n": None,
    "defs: {S: 5}\n": ("MALFORMED_DEF", "defs/S"),
    "defs:\n  S: {$fields: {a: Int}}\n": ("MALFORMED_DEF", "defs/S"),
    "defs:\n  S: {$def: struct, $params: [1], $fields: {a: Int}}\n": ("MALFORMED_DEF", "defs/S/$params"),
    "defs:\n  S: {$def: struct, $fields: {a: Int}, $optional: 5}\n": ("MALFORMED_DEF", "defs/S/$optional"),
    "defs:\n  S: {$def: struct, $fields: {a: {$type: 5}}}\n": ("GRAMMAR_ERROR", "defs/S/$fields/a"),
    "defs:\n  S: {$def: struct, $fields: {a: 5}}\n": ("GRAMMAR_ERROR", "defs/S/$fields/a"),
    "defs:\n  S: {$def: struct, $fields: {a: {$type: List, etype: [1]}}}\n": ("GRAMMAR_ERROR", "defs/S/$fields/a"),
    "defs:\n  S: {$def: struct, $fields: {a: 'true'}}\n": ("GRAMMAR_ERROR", "defs/S/$fields/a"),
    (
        "defs:\n  D: {$def: class_domain, classes: [x]}\n  S: {$def: struct, $fields: {a: 'Label[D, D]'}}\n"
        "data:\n  sample-type: S\n  samples: [{a: x}]\n"
    ): ("EXTRA_PARAM", "data/sample-type/a"),
    "data:\n  sample-type: 'List[etype=1]'\n  samples: [[1]]\n": ("ARG_KIND", "data/sample-type"),
    "data:\n  sample-type: 'List[etype=$p]'\n  samples: [[1]]\n": ("MISSING_PARAM", "data/sample-type"),
    # mapping-form arguments: a bool, a number and a $param
    (
        "defs:\n  S: {$def: struct, $fields: {a: {$type: List, etype: Int, ordered: true}}}\n"
        "data:\n  sample-type: S\n  samples: [{a: [1]}]\n"
    ): None,
    (
        "defs:\n  T: {$def: struct, $params: [n], $fields: {x: Int}}\n  S: {$def: struct, $fields: {a: {$type: T, n: 3}}}\n"
        "data:\n  sample-type: S\n  samples: [{a: {x: 1}}]\n"
    ): None,
    (
        "defs:\n  S: {$def: struct, $params: [t], $fields: {a: {$type: List, etype: $t}}}\n"
        "data:\n  sample-type: 'S[t=Int]'\n  samples: [{a: [1]}]\n"
    ): None,
}


@pytest.mark.parametrize("body", list(_FINDINGS))
def test_a_malformed_description_gives_one_located_finding(tmp_path, body):
    target = tmp_path / "d.yaml"
    target.write_text(_H + body)
    code, out, err = run_cli("validate", "--format", "json", str(target))
    expected = _FINDINGS[body]
    found = [(d["code"], d["path"]) for d in json.loads(out)["diagnostics"]]
    assert (code, found, err) == ((1, [expected], "") if expected else (0, [], ""))


@pytest.mark.parametrize("flag", [("--alias", "bad"), ("--max-errors", "x")])
def test_a_bad_option_value_exits_two_and_names_the_flag(flag):
    code, out, err = run_cli("validate", *flag, corpus("get-started.yaml"))
    assert (code, out) == (2, "")
    assert f"argument {flag[0]}:" in err


# -- resolve-loc ----------------------------------------------------------------


def test_resolve_loc_relative():
    code, out, _ = run_cli("resolve-loc", "abc/001.jpg", "--data-root", "/d")
    assert code == 0
    assert out == "relative -> /d/abc/001.jpg\n"


def test_resolve_loc_alias_flag():
    code, out, _ = run_cli("resolve-loc", "$m/x.jpg", "--alias", "m=/mnt")
    assert code == 0
    assert out == "alias -> /mnt/x.jpg\n"


def test_resolve_loc_alias_flag_beats_environment(monkeypatch):
    monkeypatch.setenv("DSDL_ALIAS_m", "/from-env")
    code, out, _ = run_cli("resolve-loc", "$m/x.jpg", "--alias", "m=/from-flag")
    assert code == 0
    assert out == "alias -> /from-flag/x.jpg\n"
    code, out, _ = run_cli("resolve-loc", "$m/x.jpg")
    assert code == 0
    assert out == "alias -> /from-env/x.jpg\n"


def test_resolve_loc_syntax_error_exits_one():
    code, out, _ = run_cli("resolve-loc", "::a::")
    assert code == 1
    assert "LOC_SYNTAX" in out


def test_resolve_loc_undefined_alias_exits_one():
    code, out, _ = run_cli("resolve-loc", "$nope/x.jpg")
    assert code == 1
    assert "ALIAS_UNDEFINED" in out


def test_resolve_loc_without_environment_classifies_only():
    code, out, _ = run_cli("resolve-loc", "abc/001.jpg")
    assert code == 0
    assert out.startswith("relative abc/001.jpg")
    code, out, _ = run_cli("resolve-loc", "::cuhk.ie::abcd1234xyz")
    assert code == 0
    assert out.startswith("object-id")


# -- summary ----------------------------------------------------------------------


def test_summary_get_started():
    code, out, _ = run_cli("summary", corpus("get-started.yaml"))
    assert code == 0
    assert "samples: 2" in out
    assert "MyClassDom::cat: 1" in out
    assert "MyClassDom::dog: 1" in out


def test_summary_fill_rates():
    code, out, _ = run_cli("summary", corpus("optional-label.yaml"))
    assert code == 0
    assert "ImageClassificationSample.label: 2/4" in out
    assert "relative: 4" in out


def test_summary_empty_samples(tmp_path):
    target = tmp_path / "empty.yaml"
    target.write_text(
        '$dsdl-version: "0.5.0"\n'
        "defs:\n  S:\n    $def: struct\n    $fields: {n: Int}\n"
        "data:\n  sample-type: S\n  sample-path: $local\n  samples: []\n"
    )
    code, out, _ = run_cli("summary", str(target))
    assert code == 0
    assert "samples: 0" in out


# -- config ------------------------------------------------------------------------


def test_show_config_prints_effective_settings(monkeypatch):
    monkeypatch.setenv("DSDL_LIBRARY_PATH", "/lib/a")
    code, out, _ = run_cli(
        "validate",
        corpus("get-started.yaml"),
        "--show-config",
        "--library-path",
        "/lib/b",
        "--data-root",
        "/data",
        "--alias",
        "m=/mnt",
    )
    assert code == 0
    assert "config:" in out
    assert "/lib/a" in out and "/lib/b" in out
    assert "data-root: /data" in out
    assert "m=/mnt" in out


def test_show_config_block_is_exact(monkeypatch):
    from dsdl.resolver import DEFAULT_LIBRARY_DIR

    monkeypatch.setenv("DSDL_LIBRARY_PATH", os.pathsep.join(["/lib/a", "/lib/c"]))
    monkeypatch.setenv("DSDL_ALIAS_m", "/env-m")
    monkeypatch.setenv("DSDL_ALIAS_n", "/env-n")
    argv = (
        "validate",
        corpus("get-started.yaml"),
        "--show-config",
        "--library-path",
        "/lib/b",
        "--alias",
        "m=/mnt",
        "--strict",
        "--max-errors",
        "3",
    )
    block = [
        f"  library-paths: {DEFAULT_LIBRARY_DIR}, /lib/a, /lib/c, /lib/b",
        "  data-root: <unset>",
        "  aliases: m=/mnt, n=/env-n",
        "  format: text",
        "  strict: true",
        "  max-errors: 3",
    ]
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["config:", *block, "2 samples validated, 0 errors, 0 warnings"]
    code, out, err = run_cli(*argv, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["config"] == [*block[:3], "  format: json", *block[4:]]
    assert payload["sample_count"] == 2


_CYCLE = (
    '$dsdl-version: "0.5.0"\n'
    "defs:\n"
    "  A:\n    $def: struct\n    $fields: {x: B}\n"
    "  B:\n    $def: struct\n    $fields: {y: A}\n"
)


def _assert_shows_config(argv: tuple[str, ...]) -> None:
    code, out, _ = run_cli(*argv, "--show-config")
    assert code == 1
    assert out.startswith("config:\n")
    code, out, _ = run_cli(*argv, "--show-config", "--format", "json")
    assert code == 1
    assert json.loads(out)["config"][-1] == "  max-errors: <unlimited>"


def test_show_config_on_inspect_failure(tmp_path):
    target = tmp_path / "cycle.yaml"
    target.write_text(_CYCLE)
    _assert_shows_config(("inspect", str(target)))


def test_show_config_on_summary_failure(tmp_path):
    target = tmp_path / "broken.yaml"
    target.write_text('$dsdl-version: "0.5.0"\nmeta: [unclosed\n')
    _assert_shows_config(("summary", str(target)))


def test_show_config_on_locator_syntax_error():
    _assert_shows_config(("resolve-loc", "$$bad"))


def test_ill_typed_yaml_tag_is_a_coded_finding(tmp_path):
    target = tmp_path / "tagged.yaml"
    target.write_text('$dsdl-version: "0.5.0"\nmeta: {n: !!int x}\n')
    code, out, err = run_cli("validate", str(target))
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == "error SYNTAX_ERROR  malformed YAML: invalid !!int value 'x' at line 2, column 11"


_HUGE_INT = "1" * 5000


@pytest.mark.parametrize(
    "files",
    [
        {"d.json": '{"$dsdl-version": "0.5.0", "meta": {"n": ' + _HUGE_INT + "}}"},
        {
            "d.yaml": '$dsdl-version: "0.5.0"\ndata:\n  sample-type: Int\n  sample-path: s.json\n',
            "s.json": '{"samples": [' + _HUGE_INT + "]}",
        },
    ],
    ids=["description", "sample-path"],
)
def test_json_integer_past_the_digit_limit_is_a_coded_finding(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    description = next(tmp_path / name for name in files if name.startswith("d."))
    code, out, err = run_cli("validate", str(description))
    assert (code, err) == (1, "")
    first = out.splitlines()[0]
    assert first.startswith("error SYNTAX_ERROR ")
    assert first.endswith("malformed JSON: integer has too many digits")
    assert "11111" not in out


@pytest.mark.parametrize("field", ["Label[dom=D]", "InstanceID"])
@pytest.mark.parametrize("digits", ["0x" + "f" * 4000, "0o" + "7" * 5000], ids=["hex", "octal"])
def test_yaml_hex_or_octal_integer_past_the_digit_limit_is_a_coded_finding(tmp_path, field, digits):
    target = tmp_path / "d.yaml"
    target.write_text(
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  D:\n    $def: class_domain\n    classes: [a, b]\n"
        "  S:\n    $def: struct\n"
        f"    $fields: {{v: '{field}'}}\n"
        "data:\n"
        "  sample-type: S\n"
        f"  samples: [{{v: {digits}}}]\n"
    )
    code, out, err = run_cli("validate", str(target))
    assert (code, err) == (1, "")
    assert out.splitlines()[0].startswith(f"error SYNTAX_ERROR  malformed YAML: invalid !!int value '{digits[:2]}")


@pytest.mark.parametrize("digits", ["1" * 5000, "0x" + "f" * 4000], ids=["decimal", "hex"])
def test_over_long_yaml_integer_is_echoed_cut_short(tmp_path, digits):
    target = tmp_path / "d.yaml"
    target.write_text(f'$dsdl-version: "0.5.0"\nmeta: {{n: {digits}}}\n')
    code, out, err = run_cli("validate", str(target))
    assert (code, err) == (1, "")
    first = out.splitlines()[0]
    assert first.startswith(f"error SYNTAX_ERROR  malformed YAML: invalid !!int value '{digits[:40]}'...")
    assert len(first) < 200


# -- start-up: what a fresh interpreter imports ------------------------------------

_REPO = CORPUS.parent.parent


def _fresh_modules(code: str) -> set[str]:
    """The modules a fresh interpreter running ``code`` holds beyond a bare one."""
    env = {**os.environ, "PYTHONPATH": str(_REPO / "src")}
    show = "; import sys; sys.stderr.write(' '.join(sys.modules))"

    def modules(snippet: str) -> set[str]:
        done = subprocess.run([sys.executable, "-c", snippet + show], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return set(done.stderr.split())

    return modules(code) - modules("pass")


_STARTUP_FREE = {"yaml", "dataclasses", "inspect", "typing"}


def test_importing_the_cli_loads_no_yaml_or_dataclasses():
    assert _fresh_modules("import dsdl.cli") & _STARTUP_FREE == set()


def test_validating_json_loads_no_yaml_or_dataclasses():
    run = f"from dsdl.cli import main; assert main(['validate', '--format', 'json', {corpus('get-started.json')!r}]) == 0"
    assert _fresh_modules(run) & _STARTUP_FREE == set()


def test_validating_yaml_in_a_fresh_interpreter_imports_yaml():
    run = f"from dsdl.cli import main; assert main(['validate', {corpus('get-started.yaml')!r}]) == 0"
    added = _fresh_modules(run)
    assert "yaml" in added and added & {"dataclasses", "inspect"} == set()


def test_importing_dsdl_loads_no_validation_locator_datetime_or_yaml():
    assert _fresh_modules("import dsdl") & {"dsdl.validation", "dsdl.locator", "datetime", "yaml"} == set()


def test_parsing_and_resolving_json_loads_no_validation_or_datetime():
    run = (
        "import dsdl; from pathlib import Path; "
        f"path = Path({corpus('get-started.json')!r}); "
        "doc = dsdl.parse_document(path.read_text(), source=str(path)); "
        "schema, _ = dsdl.resolve_schema(doc, dsdl.LibraryEnvironment.from_environment(environ={}), source=path); "
        "assert schema is not None"
    )
    assert _fresh_modules(run) & {"dsdl.validation", "datetime", "yaml"} == set()


def test_resolving_a_json_file_loads_no_validation_datetime_or_yaml():
    run = (
        f"import dsdl; doc, schema, diags = dsdl.resolve_file({corpus('get-started.json')!r}, "
        "dsdl.LibraryEnvironment.from_environment(environ={})); assert schema is not None and diags == []"
    )
    assert _fresh_modules(run) & {"dsdl.validation", "datetime", "yaml"} == set()


@pytest.mark.parametrize("count", [False, True])
def test_checking_a_json_file_loads_no_datetime_or_yaml(count):
    run = (
        f"import dsdl; report, counts = dsdl.check_file({corpus('get-started.json')!r}, "
        f"dsdl.LibraryEnvironment.from_environment(environ={{}}), count={count}); "
        "assert report.sample_count == 2 and report.diagnostics == []"
    )
    assert _fresh_modules(run) & {"datetime", "yaml", "dataclasses"} == set()


def test_validate_loads_datetime_only_for_a_date_field(tmp_path):
    dated = tmp_path / "dated.json"
    dated.write_text(
        json.dumps({"$dsdl-version": "0.5.0", "data": {"sample-type": "Date", "samples": ["2024-01-02"]}})
    )
    validate = "from dsdl.cli import main; assert main(['validate', {!r}]) == 0"
    assert "datetime" not in _fresh_modules(validate.format(corpus("get-started.json")))
    assert "datetime" in _fresh_modules(validate.format(str(dated)))


def test_inspect_loads_no_validation_or_datetime():
    inspect = f"from dsdl.cli import main; assert main(['inspect', {corpus('get-started.json')!r}]) == 0"
    assert _fresh_modules(inspect) & {"dsdl.validation", "datetime"} == set()


def test_every_public_name_is_the_object_its_home_module_defines():
    import dsdl

    assert len(set(dsdl.__all__)) == len(dsdl.__all__)
    for name in dsdl.__all__:
        value = getattr(dsdl, name)
        # a dict and a union of classes carry no module of their own
        home = {"BUILTINS": "dsdl.schema", "ObjectLocator": "dsdl.locator"}.get(name) or value.__module__
        assert vars(importlib.import_module(home))[name] is value, name
        if name in dsdl._LAZY:
            assert home == f"dsdl.{dsdl._LAZY[name]}", name


def test_dir_and_a_star_import_give_every_public_name_in_a_fresh_interpreter():
    run = (
        "import dsdl; names = set(dsdl.__all__); assert names <= set(dir(dsdl)); "
        "bound = {}; exec('from dsdl import *', bound); del bound['__builtins__']; "
        "assert set(bound) == names and all(bound[n] is getattr(dsdl, n) for n in names)"
    )
    assert {"dsdl.validation", "dsdl.locator"} <= _fresh_modules(run)


@pytest.mark.parametrize("name, home", [("check_file", "dsdl.validation"), ("parse_locator", "dsdl.locator")])
def test_python_importtime_lists_a_lazily_loaded_module(name, home):
    env = {**os.environ, "PYTHONPATH": str(_REPO / "src")}
    run = [sys.executable, "-X", "importtime", "-c", f"import dsdl; dsdl.{name}"]
    done = subprocess.run(run, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert home in [line.rpartition("|")[2].strip() for line in done.stderr.splitlines()], done.stderr


def test_an_unknown_name_is_the_standard_attribute_error():
    import dsdl

    with pytest.raises(AttributeError, match=r"^module 'dsdl' has no attribute 'nope'$"):
        dsdl.nope
    assert not hasattr(dsdl, "nope") and "nope" not in dir(dsdl)
    with pytest.raises(ImportError, match="cannot import name 'nope' from 'dsdl'"):
        from dsdl import nope  # noqa: F401


_TWO_BAD_SAMPLES = (
    '$dsdl-version: "0.5.0"\n'
    "defs:\n"
    "  S:\n    $def: struct\n    $fields: {n: Int}\n"
    "data:\n"
    "  sample-type: S\n"
    "  samples:\n"
    "    - {n: 1}\n"
    "    - {n: bad}\n"
    "    - {n: worse}\n"
)


def test_max_errors_below_one_is_a_usage_error(tmp_path):
    target = tmp_path / "bad.yaml"
    target.write_text(_TWO_BAD_SAMPLES)
    for n in ("0", "-1"):
        code, out, err = run_cli("validate", "--max-errors", n, str(target))
        assert (code, out) == (2, "")
        assert "--max-errors" in err
    code, out, _ = run_cli("validate", "--max-errors", "1", str(target))
    assert code == 1
    assert out.splitlines()[-1] == "2 samples validated, 1 errors, 0 warnings (truncated)"


def test_cli_resolves_registered_media_class(monkeypatch, tmp_path):
    from dsdl import locator

    monkeypatch.setattr(locator, "_default_registry", locator.MediaClassRegistry())
    locator.register_media_class("PointCloudV2", lambda reader, descr: reader.read())
    target = tmp_path / "points.yaml"
    target.write_text(
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  S:\n    $def: struct\n    $fields: {cloud: PointCloudV2}\n"
        "data:\n"
        "  sample-type: S\n"
        '  samples: [{cloud: "scans/0001.pcd"}]\n'
    )
    code, out, _ = run_cli("validate", str(target))
    assert (code, out) == (0, "1 samples validated, 0 errors, 0 warnings\n")


@pytest.mark.parametrize(
    "channel, payload",
    [("sample-path", '{"samples": [1]}'), ("global-info-path", '{"global-info": 1}')],
)
def test_unreadable_external_file_is_a_coded_finding(monkeypatch, tmp_path, channel, payload):
    from dsdl import validation

    (tmp_path / "ext.json").write_text(payload)
    target = tmp_path / "d.yaml"
    target.write_text(
        '$dsdl-version: "0.5.0"\n'
        "data:\n"
        "  sample-type: Int\n"
        "  global-info-type: Int\n"
        f"  {channel}: ext.json\n"
    )

    def refuse(file, path):
        raise PermissionError(13, "Permission denied", str(file))

    monkeypatch.setattr(validation, "read_utf8", refuse)
    code, out, err = run_cli("validate", str(target))
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == (
        f"error FILE_NOT_FOUND ext.json cannot read external data file {tmp_path / 'ext.json'}: "
        f"[Errno 13] Permission denied: '{tmp_path / 'ext.json'}'"
    )


def test_control_characters_in_a_finding_read_as_escapes(tmp_path):
    from dsdl.diagnostics import warning

    target = tmp_path / "d.json"
    defs = {"S": {"$def": "struct", "$fields": {"x": "Int"}}}
    data = {"sample-type": "S", "samples": [{"x": 1, "a\nb\u0000c": 2}]}
    target.write_text(json.dumps({"$dsdl-version": "0.5.0", "defs": defs, "data": data}))
    assert run_cli("validate", str(target)) == (
        0,
        "warning FIELD_UNKNOWN samples/0/a\\nb\\x00c field 'a\\nb\\x00c' is not declared on S\n"
        "1 samples validated, 0 errors, 1 warnings\n",
        "",
    )
    code, out, _ = run_cli("validate", "--format", "json", str(target))
    assert json.loads(out)["diagnostics"][0]["path"] == "samples/0/a\nb\x00c"
    assert warning("C", "p\t\r\x1f\x7f", "\\ é \u2028\x85\x9b").format() == "warning C p\\t\\r\\x1f\\x7f \\ é \\u2028\\x85\\x9b"


def test_control_characters_in_a_class_name_read_as_escapes(tmp_path):
    target = tmp_path / "d.json"
    defs = {"D": {"$def": "class_domain", "classes": ["a\nb", "c"]}, "S": {"$def": "struct", "$fields": {"y": "Label[dom=D]"}}}
    data = {"sample-type": "S", "samples": [{"y": "a\nb"}]}
    target.write_text(json.dumps({"$dsdl-version": "0.5.0", "defs": defs, "data": data}))
    code, out, _ = run_cli("summary", str(target))
    assert code == 0 and out.splitlines()[:3] == ["samples: 1", "labels:", "  D::a\\nb: 1"]
    code, out, _ = run_cli("inspect", str(target))
    assert code == 0 and "    1. a\\nb\n    2. c\n" in out
    assert all(line.isprintable() for line in out.splitlines())
    code, out, _ = run_cli("summary", "--format", "json", str(target))
    assert json.loads(out)["labels"] == {"D::a\nb": 1}


_TOO_LONG = "a" * 5000  # longer than any file name the OS accepts


@pytest.mark.parametrize("name", ["a\0b", _TOO_LONG], ids=["nul", "too-long"])
def test_import_name_the_os_refuses_is_not_found(tmp_path, name):
    target = tmp_path / "d.json"
    target.write_text(json.dumps({"$dsdl-version": "0.5.0", "$import": [name]}))
    code, out, err = run_cli("validate", str(target))
    assert (code, err) == (1, "")
    # a control character in the path reads as its escape; a name is echoed up to NAME_LIMIT characters
    clipped, cut = name[:NAME_LIMIT], "..." if len(name) > NAME_LIMIT else ""
    shown = repr(clipped)[1:-1] + cut
    assert out.splitlines()[0].startswith(f"error IMPORT_NOT_FOUND $import/{shown} cannot resolve import {clipped!r}{cut}; searched: ")


def test_library_path_entry_the_os_refuses_is_skipped(monkeypatch, tmp_path):
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "mylib.yaml").write_text('$dsdl-version: "0.5.0"\nS:\n  $def: struct\n  $fields: {x: Int}\n')
    monkeypatch.setenv("DSDL_LIBRARY_PATH", os.pathsep.join(["/" + _TOO_LONG, str(tmp_path / "lib")]))
    target = tmp_path / "d.yaml"
    target.write_text('$dsdl-version: "0.5.0"\n$import: [mylib, nosuchlib]\ndata:\n  sample-type: S\n  samples: [{x: 1}]\n')
    code, out, err = run_cli("validate", str(target))
    assert (code, err) == (1, "")
    assert [line.split()[:3] for line in out.splitlines()[:-1]] == [["error", "IMPORT_NOT_FOUND", "$import/nosuchlib"]]


@pytest.mark.parametrize("channel", ["sample-path", "global-info-path"])
def test_an_external_file_above_the_dataset_root_is_one_path_escape_finding(tmp_path, channel):
    (tmp_path / "outside.json").write_text('{"samples": [1], "global-info": 1}')
    (tmp_path / "root" / "set").mkdir(parents=True)
    target = tmp_path / "root" / "set" / "d.yaml"
    target.write_text(
        '$dsdl-version: "0.5.0"\n'
        "data:\n"
        "  sample-type: Int\n"
        "  global-info-type: Int\n"
        f"  {channel}: ../../outside.json\n"
    )
    line = "error PATH_ESCAPE ../../outside.json external data file '../../outside.json' traverses above the dataset root"
    for argv in (("validate",), ("summary",)):
        code, out, err = run_cli(*argv, str(target))
        assert (code, err) == (1, ""), argv
        assert [row for row in out.splitlines() if "PATH_ESCAPE" in row] == [line], argv


@pytest.mark.parametrize("channel", ["sample-path", "global-info-path"])
def test_external_file_name_the_os_refuses_is_a_coded_finding(tmp_path, channel):
    target = tmp_path / "d.yaml"
    target.write_text(
        '$dsdl-version: "0.5.0"\n'
        "data:\n"
        "  sample-type: Int\n"
        "  global-info-type: Int\n"
        f"  {channel}: {_TOO_LONG}\n"
    )
    for argv in (("validate",), ("validate", "--format", "json"), ("summary",)):
        code, out, err = run_cli(*argv, str(target))
        assert (code, err) == (1, ""), argv
        assert f"cannot read external data file {echo(str(tmp_path / _TOO_LONG))}: " in out, argv


_CLI_TOKENS = [
    b"$dsdl-version: 0.5.0\n",
    b'$dsdl-version: "0.5.0"\n',
    b"data:\n",
    b"  sample-type: ",
    b"  samples:\n",
    b"    - ",
    b"  sample-path: s.json\n",
    b"  global-info-path: $local\n",
    b"defs:\n",
    b"  D:\n",
    b"  S:\n",
    b"    $def: class_domain\n",
    b"    classes: [a, b.c, b.d]\n",
    b"$def: struct",
    b"    $fields: {",
    b"$import: [",
    b"Label[dom=D]",
    b"List[etype=",
    b"BBox",
    b"S",
    b"]",
    b"}",
    b"\n",
    b"  ",
    b"- ",
    b": ",
    b'{"',
    b'": ',
    b"[",
    b",",
    b"!!int x",
    b"&a ",
    b"*a",
    b"D::b.c",
    b"1.2",
    b"\xff",
]


@settings(max_examples=200, deadline=None)
@given(
    content=st.lists(st.one_of(st.binary(max_size=12), st.sampled_from(_CLI_TOKENS)), max_size=40).map(b"".join),
    suffix=st.sampled_from([".yaml", ".json", ".txt"]),
    command=st.sampled_from(["validate", "inspect", "summary"]),
    flags=st.sampled_from([(), ("--format", "json")]),
)
def test_cli_is_total(content, suffix, command, flags):
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / f"input{suffix}"
        target.write_bytes(content)
        code, out, err = run_cli(command, *flags, str(target))
    assert code in (0, 1, 2)
    assert all(line.isprintable() for line in out.splitlines() + err.splitlines())


_LINE_BOUND = 1000  # characters; a finding echoes each name up to NAME_LIMIT


@pytest.mark.parametrize(
    "data",
    [
        f"  sample-type: Int\n  sample-path: {_TOO_LONG}\n",
        f"  sample-type: Int\n  sample-path: {'d/' * 2500}s.json\n",
        f"  sample-type: Int\n  samples: []\n  global-info-type: Int\n  global-info-path: {_TOO_LONG}\n",
        f"  sample-type: Int\n  samples: []\n$import: [{_TOO_LONG}]\n",
        f"  sample-type: Int\n  samples: []\n$import: [{'d/' * 2500}lib]\n",
    ],
    ids=["sample-path", "deep-sample-path", "global-info-path", "import", "deep-import"],
)
def test_a_finding_on_an_over_long_name_is_a_short_line(tmp_path, data):
    target = tmp_path / "d.yaml"
    target.write_text(f'$dsdl-version: "0.5.0"\ndata:\n{data}')
    for argv in (("validate",), ("validate", "--format", "json"), ("summary",)):
        code, out, err = run_cli(*argv, str(target))
        assert (code, err) == (1, ""), argv
        assert 0 < max(map(len, out.splitlines())) < _LINE_BOUND, argv


def test_a_finding_on_an_over_long_sample_value_echoes_it_cut_short(tmp_path):
    target = tmp_path / "d.json"
    sample = {"day": _TOO_LONG, "label": _TOO_LONG, "image": "::" + _TOO_LONG, _TOO_LONG: 1}
    target.write_text(
        json.dumps(
            {
                "$dsdl-version": "0.5.0",
                "defs": {
                    "D": {"$def": "class_domain", "classes": ["a", "b"]},
                    "S": {"$def": "struct", "$fields": {"day": "Date", "label": "Label[dom=D]", "image": "Image"}},
                },
                "data": {"sample-type": "S", "samples": [sample]},
            }
        )
    )
    code, out, err = run_cli("validate", "--format", "json", str(target))
    assert (code, err) == (1, "")
    found = {d["code"]: (d["path"], d["message"]) for d in json.loads(out)["diagnostics"]}
    shown = echo(_TOO_LONG, show=repr)
    assert found["CLASS_NOT_FOUND"] == ("samples/0/label", f"no class {shown} in D")
    assert found["LOC_SYNTAX"] == (
        "samples/0/image",
        f"object-id locator must be ::<domain>::<id>, got {echo('::' + _TOO_LONG, show=repr)}",
    )
    # a path is an address, so it is never cut
    assert found["FIELD_UNKNOWN"] == (f"samples/0/{_TOO_LONG}", f"field {shown} is not declared on S")
    path, message = found.pop("DATE_FORMAT")
    assert path == "samples/0/day" and message.startswith(f"{shown} does not match ISO 8601: ")
    assert len(found) == 3 and len(message) < _LINE_BOUND
    # a value within the bound prints whole, and so does the parser's reason, which repeats it
    target.write_text(json.dumps({"$dsdl-version": "0.5.0", "data": {"sample-type": "Date", "samples": ["a" * 200]}}))
    code, out, err = run_cli("validate", "--format", "json", str(target))
    shown = repr("a" * 200)
    [found] = json.loads(out)["diagnostics"]
    assert found["message"] == f"{shown} does not match ISO 8601: Invalid isoformat string: {shown}"
    code, out, err = run_cli("validate", str(target))
    assert (code, err) == (1, "")
    assert max(len(line) for line in out.splitlines() if " FIELD_UNKNOWN " not in line) < _LINE_BOUND


def _described(defs=None, sample_type="Int", **keys) -> dict:
    """A JSON description with ``defs``, the top-level ``keys`` and one sample of ``sample_type``."""
    return {"$dsdl-version": "0.5.0", **keys, "defs": defs or {}, "data": {"sample-type": sample_type, "samples": [1]}}


_LONG_SHOWN = echo(_TOO_LONG, show=repr)
_DOMAIN = {"$def": "class_domain", "classes": ["a"]}


@pytest.mark.parametrize(
    "document, code, path, message",
    [
        (
            _described({"D": {"$def": "class_domain", "classes": [_TOO_LONG, "b", _TOO_LONG]}}),
            "MALFORMED_DEF", "defs/D/classes/2", f"duplicate class path {_LONG_SHOWN}",
        ),
        (
            _described({"S": {"$def": "struct", "$fields": {"n": "Int"}, _TOO_LONG: 1}}),
            "DEF_UNKNOWN_KEY", f"defs/S/{_TOO_LONG}", f"unrecognized struct key {_LONG_SHOWN}",
        ),
        (
            _described({"D": {"$def": "class_domain", "classes": ["a"], _TOO_LONG: 1}}),
            "DEF_UNKNOWN_KEY", f"defs/D/{_TOO_LONG}", f"unrecognized class_domain key {_LONG_SHOWN}",
        ),
        (
            _described({"D": {"$def": "class_domain", "classes": ["a", f"{_TOO_LONG}..b"]}}),
            "MALFORMED_DEF", "defs/D/classes/1", f"malformed class path {echo(f'{_TOO_LONG}..b', show=repr)}",
        ),
        (
            _described({"D": {"$def": "class_domain", "classes": ["a", f"b.{_TOO_LONG}!"]}}),
            "CLASS_NAME_SYNTAX", "defs/D/classes/1", f"class name segment {echo(f'{_TOO_LONG}!', show=repr)} is not an identifier",
        ),
        (
            _described({"T": {"$def": _TOO_LONG}}),
            "UNKNOWN_DEF_KIND", "defs/T", f"unknown $def value {_LONG_SHOWN} (expected struct or class_domain)",
        ),
        (_described(sample_type=_TOO_LONG), "UNKNOWN_TYPE", "data/sample-type", f"unknown type {_LONG_SHOWN}"),
        (
            _described({_TOO_LONG: _DOMAIN}, _TOO_LONG),
            "UNKNOWN_TYPE", "data/sample-type", f"{_LONG_SHOWN} is a class domain, not a type",
        ),
        (
            _described(sample_type=f"Label[dom={_TOO_LONG}]"),
            "UNKNOWN_TYPE", "data/sample-type", f"Label.dom: unknown class domain {_LONG_SHOWN}",
        ),
        (
            _described({_TOO_LONG: {"$def": "struct", "$fields": {"n": "Int"}}}, f"Label[dom={_TOO_LONG}]"),
            "ARG_KIND", "data/sample-type", f"Label.dom: {_LONG_SHOWN} is not a class domain",
        ),
        (
            _described({"D": _DOMAIN}, f"Label[{_TOO_LONG}=D]"),
            "EXTRA_PARAM", "data/sample-type", f"Label has no parameter {_LONG_SHOWN}",
        ),
        (
            _described(**{"$" + _TOO_LONG: 1}),
            "UNKNOWN_DIRECTIVE", "$" + _TOO_LONG, f"reserved key {echo('$' + _TOO_LONG, show=repr)} is not a DSDL directive",
        ),
        (
            _described({_TOO_LONG: _DOMAIN}, **{_TOO_LONG: _DOMAIN}),
            "DUPLICATE_DEF", f"defs/{_TOO_LONG}", f"definition {_LONG_SHOWN} appears twice in this file",
        ),
        (
            _described(**{"$dsdl-version": _TOO_LONG}),
            "VERSION_UNSUPPORTED", "$dsdl-version", f"unsupported DSDL version {_LONG_SHOWN} (accepted: 0.5.x)",
        ),
        (
            '{"$dsdl-version": "0.5.0", "%s": 1, "%s": 2}' % (_TOO_LONG, _TOO_LONG),
            "DUPLICATE_KEY", "", f"duplicate mapping key {_LONG_SHOWN}",
        ),
        (
            # a YAML implicit key holds at most 1024 characters, so these keys are explicit
            '$dsdl-version: "0.5.0"\n? %s\n: 1\n? %s\n: 2\n' % (_TOO_LONG, _TOO_LONG),
            "DUPLICATE_KEY", "", f"duplicate mapping key {_LONG_SHOWN} at line 4, column 3",
        ),
    ],
    ids=[
        "duplicate-class", "struct-key", "class-domain-key", "malformed-class", "class-segment", "def-kind",
        "unknown-type", "domain-as-type", "unknown-domain", "not-a-domain", "type-parameter", "directive",
        "duplicate-def", "version", "json-duplicate-key", "yaml-duplicate-key",
    ],
)
def test_a_finding_on_over_long_description_text_echoes_it_cut_short(tmp_path, document, code, path, message):
    """``document`` is a description, or the text of one: JSON when it opens with a brace, else YAML."""
    if isinstance(document, dict):
        document = json.dumps(document)
    target = tmp_path / ("d.json" if document.startswith("{") else "d.yaml")
    target.write_text(document)
    _, out, err = run_cli("validate", "--format", "json", str(target))
    assert err == ""
    found = {d["code"]: (d["path"], d["message"]) for d in json.loads(out)["diagnostics"]}
    # the path is an address, so it stays whole; the message is one short line
    assert found[code] == (path, message)
    assert len(message) < _LINE_BOUND


def test_an_imported_definition_overwritten_under_an_over_long_name_echoes_it_cut_short(tmp_path):
    struct = {"$def": "struct", "$fields": {"n": "Int"}}
    (tmp_path / "lib.json").write_text(json.dumps({"$dsdl-version": "0.5.0", "defs": {_TOO_LONG: struct}}))
    target = tmp_path / "d.json"
    target.write_text(json.dumps(_described({_TOO_LONG: struct}, **{"$import": ["lib"]})))
    code, out, err = run_cli("validate", "--format", "json", str(target))
    assert (code, err) == (0, "")
    [found] = json.loads(out)["diagnostics"]
    assert (found["code"], found["path"]) == ("IMPORT_OVERWRITE", f"defs/{_TOO_LONG}")
    assert found["message"].startswith(f"definition {_LONG_SHOWN} from ") and len(found["message"]) < _LINE_BOUND


def test_a_usage_failure_is_one_short_printable_stderr_line(tmp_path):
    for name in ("no\nsuch.yaml", "\x1b[2J" + _TOO_LONG):
        code, out, err = run_cli("validate", str(tmp_path / name))
        assert (code, out) == (2, "")
        assert err.endswith("\n") and len(err.splitlines()) == 1
        assert err.startswith("dsdl: error: cannot read ") and err[:-1].isprintable() and len(err) < _LINE_BOUND
