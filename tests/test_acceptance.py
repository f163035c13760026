"""Acceptance suite: one test per criterion, one PASS line each.

The corpus files under tests/corpus/ are the conformance inputs; the
property criteria use seeded generators so every run exercises exactly
the stated number of cases deterministically.
"""

import json
import math
import random
import re
import string
import time

import pytest
import yaml as pyyaml

from dsdl import (
    LibraryEnvironment,
    check_acyclic,
    instantiate_type,
    parse_document,
    parse_locator,
    resolve_schema,
    validate_label,
    validate_value,
)
from dsdl.diagnostics import GrammarError, LocatorError, Severity
from dsdl.document import _load_core
from dsdl.locator import AliasPath, ObjectId, RelativePath, ResolutionEnvironment
from dsdl.schema import (
    ClassDomain,
    DefinitionRegistry,
    StructClass,
    build_definitions,
    lookup_class,
)
from dsdl.typeexpr import (
    Arg,
    NumberLit,
    ParamRef,
    TypeExpr,
    parse_type_expression,
    render_type_expression,
)

from conftest import CORPUS, CORPUS_FILES, error_diags, run_cli, run_corpus_pipeline


def _mutate_corpus_yaml(rel: str, tmp_path, mutate) -> str:
    raw = pyyaml.safe_load((CORPUS / rel).read_text())
    mutate(raw)
    target = tmp_path / ("mutated-" + rel.replace("/", "-"))
    target.write_text(pyyaml.safe_dump(raw))
    return str(target)


ROTATED_DEGREE_DOC = """\
$dsdl-version: "0.5.0"
defs:
    ThingDom:
        $def: class_domain
        classes: [thing]
    RotatedSample:
        $def: struct
        $params: ['cdom']
        $fields:
            rbbox: RotatedBBox[mode="xywht", measure="degree"]
            label: Label[dom=$cdom]
data:
    sample-type: RotatedSample[cdom=ThingDom]
    samples:
        - {rbbox: [10.0, 20.0, 30.0, 40.0, 90.0], label: 1}
"""


# -- criterion 1 ----------------------------------------------------------------


def test_c01_conformance_corpus():
    started = time.perf_counter()
    for rel, expected_samples in CORPUS_FILES.items():
        schema, report, diags = run_corpus_pipeline(rel)
        assert schema is not None, rel
        errors = error_diags(diags) + error_diags(report.diagnostics)
        assert errors == [], f"{rel}: {[d.format() for d in errors]}"
        assert report.sample_count == expected_samples, rel
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"corpus suite took {elapsed:.2f}s"
    print(
        f"\nPASS criterion 1: {len(CORPUS_FILES)} corpus files validated with "
        f"zero errors in {elapsed:.2f}s"
    )


# -- criterion 2 ----------------------------------------------------------------


def test_c02_json_yaml_equivalence():
    docs = {}
    schemas = {}
    reports = {}
    for rel in ("get-started.json", "get-started.yaml"):
        schema, report, diags = run_corpus_pipeline(rel)
        docs[rel] = parse_document(
            (CORPUS / rel).read_text(), format="json" if rel.endswith("json") else "yaml"
        )
        schemas[rel] = schema
        reports[rel] = report
        assert diags == []
    assert docs["get-started.json"] == docs["get-started.yaml"]
    a, b = schemas["get-started.json"], schemas["get-started.yaml"]
    assert a.sample_type == b.sample_type
    assert a.global_info_type == b.global_info_type
    assert a.registry.entries == b.registry.entries
    assert a.meta == b.meta
    ra, rb = reports["get-started.json"], reports["get-started.yaml"]
    assert ra.samples == rb.samples
    assert ra.diagnostics == rb.diagnostics == []
    print("\nPASS criterion 2: JSON and YAML get-started files resolve and validate identically")


# -- criterion 3 ----------------------------------------------------------------


def test_c03_mutation_suite(tmp_path):
    checked = []

    def expect(path_arg, code, diag_path, severity, extra=()):
        cli = ("validate", path_arg) + tuple(extra)
        exit_code, out, _ = run_cli(*cli)
        line = next((l for l in out.splitlines() if f" {code} " in l), None)
        assert line is not None, f"{code} not reported:\n{out}"
        assert f"{severity.value} {code} {diag_path}" in line
        matching = [l for l in out.splitlines() if f" {code} " in l]
        checked.append((code, diag_path))
        return exit_code, out, matching

    # delete a required field
    def drop_label(raw):
        del raw["data"]["samples"][0]["label"]

    target = _mutate_corpus_yaml("get-started.yaml", tmp_path, drop_label)
    code, _, _ = expect(target, "FIELD_MISSING", "samples/0/label", Severity.WARNING)
    assert code == 0
    strict_code, strict_out, _ = run_cli("validate", "--strict", target)
    assert strict_code == 1
    assert "error FIELD_MISSING samples/0/label" in strict_out

    # wrong BBox arity
    def short_bbox(raw):
        raw["data"]["samples"][0]["objects"][0]["bbox"] = [1.0, 2.0, 3.0]

    target = _mutate_corpus_yaml("voc/train.yaml", tmp_path, short_bbox)
    code, _, _ = expect(
        target,
        "ARITY",
        "samples/0/objects/0/bbox",
        Severity.ERROR,
        ("--library-path", str(CORPUS / "voc")),
    )
    assert code == 1

    # out-of-range label index
    def bad_index(raw):
        raw["data"]["samples"][0]["label"] = 9

    target = _mutate_corpus_yaml("get-started.yaml", tmp_path, bad_index)
    code, _, _ = expect(target, "CLASS_INDEX_RANGE", "samples/0/label", Severity.ERROR)
    assert code == 1

    # rotated-box angle out of range under measure="degree"
    rotated = tmp_path / "rotated.yaml"
    rotated.write_text(ROTATED_DEGREE_DOC)
    code, out, _ = run_cli("validate", str(rotated))
    assert code == 0 and "0 errors" in out
    raw = pyyaml.safe_load(ROTATED_DEGREE_DOC)
    raw["data"]["samples"][0]["rbbox"][4] = 200.0
    rotated.write_text(pyyaml.safe_dump(raw))
    code, _, _ = expect(str(rotated), "RANGE", "samples/0/rbbox", Severity.ERROR)
    assert code == 1

    # unknown import
    def bad_import(raw):
        raw["$import"] = ["nosuchlib"]

    target = _mutate_corpus_yaml("get-started.yaml", tmp_path, bad_import)
    code, _, _ = expect(target, "IMPORT_NOT_FOUND", "$import/nosuchlib", Severity.ERROR)
    assert code == 1

    # duplicated definition across two imports: exactly one overwrite
    # warning, and the later definition wins (observable via inspect)
    (tmp_path / "liba.yaml").write_text(
        '$dsdl-version: "0.5.0"\nS:\n  $def: struct\n  $fields:\n    a: Int\n'
    )
    (tmp_path / "libb.yaml").write_text(
        '$dsdl-version: "0.5.0"\nS:\n  $def: struct\n  $fields:\n    b: Str\n'
    )
    dup = tmp_path / "dup.yaml"
    dup.write_text('$dsdl-version: "0.5.0"\n$import: [liba, libb]\n')
    code, out, matching = expect(
        str(dup), "IMPORT_OVERWRITE", "defs/S", Severity.WARNING,
        ("--library-path", str(tmp_path)),
    )
    assert code == 0
    assert len(matching) == 1
    icode, inspect_out, _ = run_cli("inspect", str(dup), "--library-path", str(tmp_path))
    assert icode == 0
    assert "b: Str" in inspect_out and "a: Int" not in inspect_out
    struct_line = next(l for l in inspect_out.splitlines() if l.strip().startswith("struct S"))
    assert "libb.yaml" in struct_line

    print(f"\nPASS criterion 3: {len(checked)} mutations produced the expected code at the expected path")


# -- criterion 4 ----------------------------------------------------------------

_IDENT_CHARS = string.ascii_letters + "_"
_NUMBER_POOL = ["0", "1", "42", "-7", "+12", "3.5", "-0.25", "1e-06", "2.5E+3", ".5"]
_STRING_ALPHABET = 'abz 019_%:.-/"\\[],=$\u00e9\u4e2d'


def _gen_ident(rng):
    while True:
        name = rng.choice(_IDENT_CHARS) + "".join(
            rng.choice(_IDENT_CHARS + string.digits) for _ in range(rng.randrange(0, 8))
        )
        if name not in ("true", "false"):
            return name


def _gen_value(rng, depth):
    kind = rng.randrange(6 if depth > 0 else 5)
    if kind == 0:
        return "".join(rng.choice(_STRING_ALPHABET) for _ in range(rng.randrange(0, 10)))
    if kind == 1:
        return NumberLit(rng.choice(_NUMBER_POOL))
    if kind == 2:
        return rng.choice((True, False))
    if kind == 3:
        return ParamRef(_gen_ident(rng))
    if kind == 4:
        return TypeExpr(_gen_ident(rng))
    return _gen_expr(rng, depth - 1)


def _gen_expr(rng, depth):
    n_args = rng.randrange(0, 5)  # <= 4 args per level
    n_pos = rng.randrange(0, n_args + 1)
    args = [Arg(None, _gen_value(rng, depth)) for _ in range(n_pos)]
    args += [Arg(_gen_ident(rng), _gen_value(rng, depth)) for _ in range(n_args - n_pos)]
    return TypeExpr(_gen_ident(rng), tuple(args))


def _inject_fault(rng, text):
    fault = rng.randrange(6)
    if fault == 0:
        return text + "["
    if fault == 1:
        return text + ","
    if fault == 2:
        return "," + text
    if fault == 3:
        return text + "]"
    if fault == 4 and "[" in text:
        return text.replace("[", ",", 1)
    if fault == 5 and text.endswith("]"):
        return text[:-1] + ",]"
    return text + "[]"


def test_c04_grammar_property():
    rng = random.Random(0x5D5D1)
    for _ in range(1000):
        expr = _gen_expr(rng, depth=5)
        rendered = render_type_expression(expr)
        assert parse_type_expression(rendered) == expr
    for _ in range(1000):
        broken = _inject_fault(rng, render_type_expression(_gen_expr(rng, depth=3)))
        with pytest.raises(GrammarError):
            parse_type_expression(broken)
    print("\nPASS criterion 4: 1000 ASTs round-tripped, 1000 mutated strings rejected")


# -- criterion 5 ----------------------------------------------------------------


def _gen_domain(rng, index) -> ClassDomain:
    def fresh_names(count, taken):
        names = []
        while len(names) < count:
            name = _gen_ident(rng)
            if name not in taken and name not in names:
                names.append(name)
        return names

    kind = rng.choice(("flat", "two", "three"))
    if kind == "flat":
        paths = fresh_names(rng.randrange(1, 51), set())
    else:
        depth = 2 if kind == "two" else 3
        paths = []
        parents = fresh_names(rng.randrange(2, 5), set())
        taken = set(parents)
        while len(paths) < min(50, rng.randrange(2, 51)):
            segments = [rng.choice(parents)]
            for _ in range(depth - 1):
                name = fresh_names(1, taken)[0]
                taken.add(name)
                segments.append(name)
            paths.append(".".join(segments))
    registry, diags = build_definitions(
        {f"Dom{index}": {"$def": "class_domain", "classes": paths}}
    )
    assert diags == []
    return registry.get(f"Dom{index}")


def test_c05_label_equivalence_property():
    rng = random.Random(0x1ABE1)
    for index in range(100):
        dom = _gen_domain(rng, index)
        names = dom.class_names()
        for i, name in enumerate(names, start=1):
            by_name = lookup_class(dom, name)
            by_index = lookup_class(dom, i)
            assert by_name == by_index, (dom.name, name, i)
            ref_bare, d1 = validate_label(name, dom)
            ref_qual, d2 = validate_label(f"{dom.name}::{name}", dom)
            ref_int, d3 = validate_label(i, dom)
            ref_qidx, d4 = validate_label(f"{dom.name}[{i}]", dom)
            assert d1 == d2 == d3 == d4 == []
            assert ref_bare == ref_qual == ref_int == ref_qidx == by_name
        for bad in (0, len(names) + 1):
            _, diags = validate_label(bad, dom)
            assert [d.code for d in diags] == ["CLASS_INDEX_RANGE"], (dom.name, bad)
    print("\nPASS criterion 5: name/index/qualified selectors agree on 100 random domains")


# -- criterion 6 ----------------------------------------------------------------


def _random_registry(rng) -> tuple[DefinitionRegistry, list[list[bool]]]:
    n = rng.randrange(1, 9)
    registry = DefinitionRegistry()
    adjacency = [[False] * n for _ in range(n)]
    for i in range(n):
        fields = {}
        for j in range(n):
            if rng.random() < 0.25:
                adjacency[i][j] = True
                fields[f"f{j}"] = TypeExpr("List", (Arg("etype", TypeExpr(f"S{j}")),))
        if not fields:
            fields["value"] = TypeExpr("Int")
        registry.entries[f"S{i}"] = StructClass(f"S{i}", [], fields, frozenset())
    return registry, adjacency


def _oracle_has_cycle(adjacency) -> bool:
    # brute force: transitive closure, cycle iff some node reaches itself
    n = len(adjacency)
    reach = [row[:] for row in adjacency]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return any(reach[i][i] for i in range(n))


def test_c06_cycle_oracle():
    rng = random.Random(0xC1C1E)
    agreements = 0
    for _ in range(500):
        registry, adjacency = _random_registry(rng)
        found = bool(check_acyclic(registry))
        assert found == _oracle_has_cycle(adjacency)
        agreements += 1
    assert agreements == 500
    print("\nPASS criterion 6: check_acyclic agreed with the brute-force oracle on 500 graphs")


# -- criterion 7 ----------------------------------------------------------------


def test_c07_locator_totality(monkeypatch):
    rng = random.Random(0x10CA7)
    alphabet = "abcXYZ019$:/\\._-~ \t\u00e9\u4e2d{}"
    parsed = 0
    for _ in range(10000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 24)))
        try:
            parse_locator(text)
        except LocatorError:
            pass
        parsed += 1
    assert parsed == 10000

    assert isinstance(parse_locator("abc/001.jpg"), RelativePath)
    assert isinstance(parse_locator("$mydir1/abc/001.jpg"), AliasPath)
    assert isinstance(parse_locator("::cuhk.ie::abcd1234xyz"), ObjectId)

    env = ResolutionEnvironment.from_sources(
        cli_aliases={"m": "/from-flag"}, environ={"DSDL_ALIAS_m": "/from-env"}
    )
    from dsdl import resolve_locator

    assert resolve_locator(parse_locator("$m/x.jpg"), env) == "/from-flag/x.jpg"
    monkeypatch.setenv("DSDL_ALIAS_m", "/from-env")
    code, out, _ = run_cli("resolve-loc", "$m/x.jpg", "--alias", "m=/from-flag")
    assert code == 0 and out.strip().endswith("/from-flag/x.jpg")
    print("\nPASS criterion 7: 10000 locator strings parsed totally; precedence holds")


# -- criterion 8 ----------------------------------------------------------------


def test_c08_arity_shape_oracle():
    registry, diags = build_definitions(
        {
            "K1": {"$def": "class_domain", "classes": ["a"]},
            "K5": {"$def": "class_domain", "classes": list("abcde")},
            "K17": {"$def": "class_domain", "classes": [f"k{i}" for i in range(17)]},
        }
    )
    assert diags == []
    shapes = [
        ("Coord", 2),
        ("Coord3D", 3),
        ("Interval", 2),
        ("BBox", 4),
        ('RotatedBBox[mode="xyxy"]', 8),
        ('RotatedBBox[mode="xywht"]', 5),
        ("ImageShape", 2),
    ]
    cases = 0
    for text, arity in shapes:
        ctype = instantiate_type(parse_type_expression(text), {}, registry)
        for length in range(11):
            value, diags = validate_value([1] * length, ctype, "v")
            codes = [d.code for d in diags]
            if length == arity:
                assert codes == [], (text, length, codes)
                assert value is not None
            else:
                assert codes == ["ARITY"], (text, length, codes)
            cases += 1
    for k, dom_name in ((1, "K1"), (5, "K5"), (17, "K17")):
        ctype = instantiate_type(
            parse_type_expression(f"Keypoint[dom={dom_name}]"), {}, registry
        )
        ok, diags = validate_value([1.0] * (3 * k), ctype, "v")
        assert diags == [] and ok is not None
        for bad in (3 * k - 1, 3 * k + 1, 3 * (k - 1), 3 * (k + 1)):
            if bad == 3 * k or bad < 0:
                continue
            _, diags = validate_value([1.0] * bad, ctype, "v")
            assert [d.code for d in diags] == ["ARITY"], (k, bad)
            cases += 1
    print(f"\nPASS criterion 8: {cases} arity cases matched the declared arities exactly")


# -- criterion 9 ----------------------------------------------------------------

_SUMMARY_RE = re.compile(r"(\d+) samples validated, (\d+) errors, (\d+) warnings")


def _assert_json_matches_text(args):
    code_t, text_out, _ = run_cli("validate", *args)
    code_j, json_out, _ = run_cli("validate", "--format", "json", *args)
    assert code_t == code_j
    payload = json.loads(json_out)
    m = _SUMMARY_RE.search(text_out)
    assert m is not None
    assert payload["sample_count"] == int(m.group(1))
    assert payload["errors"] == int(m.group(2))
    assert payload["warnings"] == int(m.group(3))
    diag_lines = [
        l for l in text_out.splitlines() if l.split(" ")[0] in ("error", "warning", "note")
    ]
    assert len(payload["diagnostics"]) == len(diag_lines)
    for diag, line in zip(payload["diagnostics"], diag_lines):
        assert line == f"{diag['severity']} {diag['code']} {diag['path']} {diag['message']}"
    total = sum(payload["counts_by_code"].values())
    assert total == len(diag_lines)
    return code_t


def test_c09_cli_contract(tmp_path):
    # corpus: every file exits 0 and is byte-identical across runs
    for rel in CORPUS_FILES:
        path = str(CORPUS / rel)
        first = run_cli("validate", path)
        second = run_cli("validate", path)
        assert first == second
        assert first[0] == 0, (rel, first[1])
        _assert_json_matches_text((path,))

    # mutations drive the nonzero exits
    def bad_index(raw):
        raw["data"]["samples"][0]["label"] = 9

    bad = _mutate_corpus_yaml("get-started.yaml", tmp_path, bad_index)
    assert _assert_json_matches_text((bad,)) == 1
    first = run_cli("validate", bad)
    assert first == run_cli("validate", bad)

    def drop_label(raw):
        del raw["data"]["samples"][0]["label"]

    warn = _mutate_corpus_yaml("get-started.yaml", tmp_path, drop_label)
    assert _assert_json_matches_text((warn,)) == 0
    code, _, _ = run_cli("validate", "--strict", warn)
    assert code == 1

    assert run_cli("validate", str(tmp_path / "missing.yaml"))[0] == 2
    assert run_cli("validate")[0] == 2
    print("\nPASS criterion 9: exit codes, JSON round-trip, and byte-identical reruns verified")


# -- the pure-Python YAML loader -------------------------------------------------


def test_acceptance_on_the_pure_python_yaml_loader(monkeypatch, tmp_path):
    """Criteria 1-3 and 9 with libyaml's parser taken away, as under a PyYAML built without it."""
    with_libyaml = {rel: run_cli("validate", str(CORPUS / rel)) for rel in CORPUS_FILES}
    monkeypatch.setattr("dsdl.document._load_events", _load_core)
    test_c01_conformance_corpus()
    test_c02_json_yaml_equivalence()
    for sub in ("c03", "c09"):
        (tmp_path / sub).mkdir()
    test_c03_mutation_suite(tmp_path / "c03")
    test_c09_cli_contract(tmp_path / "c09")
    assert {rel: run_cli("validate", str(CORPUS / rel)) for rel in CORPUS_FILES} == with_libyaml
