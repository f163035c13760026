"""CLI contract: exit codes, output formats, determinism."""

import json
import tempfile
from pathlib import Path

import pytest
import yaml as pyyaml
from hypothesis import given, settings, strategies as st

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
        code, _, _ = run_cli(command, *flags, str(target))
    assert code in (0, 1, 2)
