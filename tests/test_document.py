"""Description-file parsing: structure, headers, reserved keys."""

import json
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from dsdl import parse_document
from dsdl.diagnostics import DocumentError, DsdlError
from dsdl.document import _MAX_DEPTH, _CoreLoader, _DuplicateKey, _load_events, _load_yaml, check_data_section
from dsdl.validation import load_external_samples

from conftest import CORPUS, load_perfbench

GET_STARTED_JSON = (CORPUS / "get-started.json").read_text()
GET_STARTED_YAML = (CORPUS / "get-started.yaml").read_text()


def test_get_started_json():
    doc = parse_document(GET_STARTED_JSON, format="json")
    assert doc.dsdl_version == "0.5.0"
    assert doc.meta["name"] == "my-dataset"
    assert list(doc.defs) == ["MyClassDom", "ImageClassificationSample"]
    assert doc.data is not None
    assert len(doc.data.samples) == 2
    assert doc.data.sample_path == "$local"


@pytest.mark.parametrize("fmt", ["auto", "json", "yaml"])
def test_bytes_text_is_a_type_error(fmt):
    with pytest.raises(TypeError, match="text must be str, not bytes"):
        parse_document(GET_STARTED_JSON.encode(), format=fmt)


@pytest.mark.parametrize("fmt", [None, b"json", 1])
def test_a_format_that_is_not_a_str_is_a_type_error(fmt):
    with pytest.raises(TypeError, match="format must be str, not "):
        parse_document(GET_STARTED_JSON, format=fmt)


@pytest.mark.parametrize("section", ["", {"samples": []}, 0])
def test_checking_a_data_section_of_another_type_is_a_type_error(section):
    with pytest.raises(TypeError, match=r"check_data_section\(\) section must be a RawDataSection or None, not "):
        check_data_section(section)


def test_a_finding_from_a_path_source_carries_it_as_text_and_round_trips_through_json():
    with pytest.raises(DocumentError) as exc:
        parse_document("a: [", source=Path("d.yaml"))
    jsonable = exc.value.diagnostic.to_jsonable()
    assert jsonable["source"] == "d.yaml"
    assert json.loads(json.dumps(jsonable)) == jsonable


def test_an_unknown_format_name_is_a_value_error():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        parse_document(GET_STARTED_JSON, format="xml")


def test_json_and_yaml_yield_identical_documents():
    assert parse_document(GET_STARTED_JSON, format="json") == parse_document(
        GET_STARTED_YAML, format="yaml"
    )


def test_auto_format_tries_json_then_yaml():
    assert parse_document(GET_STARTED_JSON, format="auto") == parse_document(
        GET_STARTED_YAML, format="auto"
    )


def test_parsing_is_pure():
    assert parse_document(GET_STARTED_YAML, format="yaml") == parse_document(
        GET_STARTED_YAML, format="yaml"
    )


def test_missing_version_is_an_error():
    with pytest.raises(DocumentError) as exc:
        parse_document("meta:\n  name: x\n", format="yaml")
    assert exc.value.code == "VERSION_MISSING"


def test_unsupported_version():
    with pytest.raises(DocumentError) as exc:
        parse_document('$dsdl-version: "0.6.0"\n', format="yaml")
    assert exc.value.code == "VERSION_UNSUPPORTED"


def test_allow_version_escape_hatch():
    doc = parse_document('$dsdl-version: "0.6.0"\n', format="yaml", allow_version=True)
    assert doc.dsdl_version == "0.6.0"


def test_any_0_5_x_is_accepted():
    for version in ("0.5.0", "0.5.2", "0.5.3", "0.5"):
        doc = parse_document(f'$dsdl-version: "{version}"\n', format="yaml")
        assert doc.dsdl_version == version


def test_unquoted_version_scalar_stays_a_string():
    doc = parse_document("$dsdl-version: 0.5.0\n", format="yaml")
    assert doc.dsdl_version == "0.5.0"


def test_unknown_dollar_directive_is_rejected():
    text = '$dsdl-version: "0.5.0"\n$frobnicate: 1\n'
    with pytest.raises(DocumentError) as exc:
        parse_document(text, format="yaml")
    assert exc.value.code == "UNKNOWN_DIRECTIVE"


def test_top_level_definitions_merge_with_defs_section():
    text = (CORPUS.parent.parent / "src/dsdl/library/imageclass.yaml").read_text()
    doc = parse_document(text, format="yaml")
    assert list(doc.defs) == ["MyClassDom", "ImageClassificationSample"]


def test_duplicate_definition_names_are_rejected():
    text = (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  A:\n    $def: class_domain\n    classes: [x]\n"
        "A:\n  $def: class_domain\n  classes: [y]\n"
    )
    with pytest.raises(DocumentError) as exc:
        parse_document(text, format="yaml")
    assert exc.value.code == "DUPLICATE_DEF"


def test_a_name_defined_with_and_without_parents_is_a_duplicate():
    """``Dom[Base]`` defines ``Dom``, so one file may not define both."""
    for first, second in (("Dom", "Dom[Base]"), ("Dom[Base]", "Dom"), ("Dom[Base]", "Dom[Other]")):
        text = (
            '$dsdl-version: "0.5.0"\n'
            f"defs:\n  {first}:\n    $def: class_domain\n    classes: [x]\n"
            f"{second}:\n  $def: class_domain\n  classes: [y]\n"
        )
        with pytest.raises(DocumentError) as exc:
            parse_document(text, format="yaml")
        diagnostic = exc.value.diagnostic
        assert (diagnostic.code, diagnostic.path, diagnostic.message) == (
            "DUPLICATE_DEF", f"defs/{second}", "definition 'Dom' appears twice in this file"
        )


def test_duplicate_yaml_keys_are_rejected():
    text = '$dsdl-version: "0.5.0"\nmeta:\n  a: 1\n  a: 2\n'
    with pytest.raises(DocumentError) as exc:
        parse_document(text, format="yaml")
    assert exc.value.code == "DUPLICATE_KEY"


def test_duplicate_json_keys_are_rejected():
    text = '{"$dsdl-version": "0.5.0", "meta": {"a": 1, "a": 2}}'
    with pytest.raises(DocumentError) as exc:
        parse_document(text, format="json")
    assert exc.value.code == "DUPLICATE_KEY"


def test_json_duplicate_key_names_the_first_repeated_key(tmp_path):
    """A key repeated three times in a nested object of an external samples
    file is reported once, and before a later key repeated only twice."""
    text = '{"samples": [{"m": {"a": 1, "k": 1, "b": 2, "k": 2, "k": 3, "a": 4}}]}'
    (tmp_path / "samples.json").write_text(text)
    with pytest.raises(DsdlError) as exc:
        load_external_samples("samples.json", tmp_path)
    assert exc.value.diagnostic.format() == "error DUPLICATE_KEY  duplicate mapping key 'k'"
    assert exc.value.diagnostic.source == str(tmp_path / "samples.json")


def test_yaml_syntax_error_reports_line_and_column():
    with pytest.raises(DocumentError) as exc:
        parse_document("a: [1, 2\nb: 3\n", format="yaml")
    assert exc.value.code == "SYNTAX_ERROR"
    assert "line" in exc.value.diagnostic.message


def test_json_syntax_error_reports_line_and_column():
    with pytest.raises(DocumentError) as exc:
        parse_document('{"a": }', format="json")
    assert exc.value.code == "SYNTAX_ERROR"
    assert "line 1" in exc.value.diagnostic.message


def test_local_sample_path_requires_samples():
    text = '$dsdl-version: "0.5.0"\ndata:\n  sample-type: Int\n  sample-path: $local\n'
    with pytest.raises(DocumentError) as exc:
        parse_document(text, format="yaml")
    assert exc.value.code == "MALFORMED_DATA_SECTION"


def test_inline_samples_imply_local_path():
    doc = parse_document(GET_STARTED_YAML, format="yaml")
    assert doc.data.sample_path == "$local"


def test_external_sample_path_without_inline_samples():
    text = '$dsdl-version: "0.5.0"\ndata:\n  sample-type: Int\n  sample-path: s.json\n'
    doc = parse_document(text, format="yaml")
    assert doc.data.sample_path == "s.json"
    assert doc.data.samples is None


def test_yaml_1_2_scalars():
    text = '$dsdl-version: "0.5.0"\nmeta:\n  a: yes\n  b: true\n  d: 2016-05-04\n'
    doc = parse_document(text, format="yaml")
    assert doc.meta == {"a": "yes", "b": True, "d": "2016-05-04"}


def test_meta_is_schema_free():
    text = '$dsdl-version: "0.5.0"\nmeta:\n  Dataset Name: "CMP Facade"\n  anything: 3\n'
    doc = parse_document(text, format="yaml")
    assert doc.meta["Dataset Name"] == "CMP Facade"
    assert doc.meta["anything"] == 3


# -- deep nesting -----------------------------------------------------------------

DEEP = 100_000


def _deep_document(fmt: str) -> str:
    nest = "[" * DEEP + "]" * DEEP
    if fmt == "yaml":
        return f'$dsdl-version: "0.5.0"\nmeta: {{a: {nest}}}\n'
    return f'{{"$dsdl-version": "0.5.0", "meta": {{"a": {nest}}}}}'


@pytest.mark.parametrize("fmt", ["yaml", "json", "auto"])
def test_nesting_too_deep_is_a_syntax_error(fmt):
    text = _deep_document("json" if fmt == "auto" else fmt)
    with pytest.raises(DocumentError) as exc:
        parse_document(text, format=fmt, source="deep")
    label = "YAML" if fmt == "yaml" else "JSON"
    assert exc.value.diagnostic.format() == f"error SYNTAX_ERROR  malformed {label}: nesting is too deep"
    assert exc.value.diagnostic.source == "deep"


@pytest.mark.parametrize("suffix", [".yaml", ".json"])
def test_external_file_nesting_too_deep_is_a_syntax_error(tmp_path, suffix):
    nest = "[" * DEEP + "]" * DEEP
    (tmp_path / f"deep{suffix}").write_text(f'{{"samples": {nest}}}')
    with pytest.raises(DsdlError) as exc:
        load_external_samples(f"deep{suffix}", tmp_path)
    assert exc.value.code == "SYNTAX_ERROR"
    assert exc.value.diagnostic.message.endswith("nesting is too deep")


# -- libyaml fast path against the pure-Python loader ----------------------------

_REPO = CORPUS.parent.parent
_YAML_FILES = sorted(CORPUS.rglob("*.yaml")) + sorted((_REPO / "src/dsdl/library").glob("*.yaml"))


@pytest.mark.parametrize("path", _YAML_FILES, ids=lambda p: str(p.relative_to(_REPO)))
def test_fast_loader_matches_pure_python_loader_on_shipped_yaml(path):
    text = path.read_text(encoding="utf-8")
    assert _load_events(text) == yaml.load(text, Loader=_CoreLoader)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_shipped_yaml_never_needs_the_pure_python_loader(monkeypatch, tmp_path):
    """The corpus, the library and the benchmark's yaml-inline files, whose
    full description the pure-Python loader parses over ten times slower."""
    gen, generated = load_perfbench("gen"), []
    for seed in (1, 2, 3):
        for size in ("tiny", "full"):
            out = tmp_path / f"{size}-{seed}"
            gen.generate("yaml-inline", seed, out, size=size)
            generated += sorted(out.glob("*.yaml"))

    class _Refuse(_CoreLoader):
        def __init__(self, stream):
            raise AssertionError("fell back to the pure-Python loader")

    monkeypatch.setattr("dsdl.document._CoreLoader", _Refuse)
    for path in _YAML_FILES + generated:
        _load_yaml(path.read_text(encoding="utf-8"), str(path))


def _reference_outcome(text: str) -> tuple:
    """The pure-Python loader, its errors wrapped as ``_load_yaml`` wrapped them before libyaml was used."""
    try:
        return ("value", repr(yaml.load(text, Loader=_CoreLoader)))
    except _DuplicateKey as exc:
        return ("DUPLICATE_KEY", f"duplicate mapping key {exc.key!r} at line {exc.line}, column {exc.column}")
    except yaml.MarkedYAMLError as exc:  # an ill-typed explicit tag is one too, in both loaders
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        return ("SYNTAX_ERROR", f"malformed YAML: {exc.problem or exc}{where}")
    except yaml.YAMLError as exc:
        return ("SYNTAX_ERROR", f"malformed YAML: {exc}")


def _outcome(text: str) -> tuple:
    try:
        return ("value", repr(_load_yaml(text, None)))
    except DocumentError as exc:
        return (exc.code, exc.diagnostic.message)
    except Exception as exc:
        return (type(exc).__name__, str(exc))


# tab, "?" and a mid-stream BOM are what libyaml accepts and the pure-Python
# loader rejects; a lone surrogate cannot be encoded for libyaml at all
_YAMLISH = st.lists(
    st.sampled_from(
        [
            "a", "b", "k", "1", "-1", "0x1F", "0o17", "1e3", ".5", ".inf", ".nan", "null", "~", "true", "yes",
            "2001-12-14", "é", ":", ": ", " ", "  ", "\n", "\n  ", "\r", "\x85", "- ", "-", "#", "'", '"', "\\",
            "|", ">", "[", "]", "{", "}", ",", "&x ", "*x", "!!str ", "!!int ", "!!set ", "!t ", "!", "<<",
            "a: 1\n", "a: 2\n", "%YAML 1.2\n", "---", "...", "\t", "?", "? ", "\ufeff", "\ud800",
        ]
    ),
    max_size=40,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(_YAMLISH)
# each of these once parsed differently under libyaml
@example("!")
@example("a:\t1\n")
@example("[a?]")
@example("a: |#\n")
@example("a: 1\n\ufeffb: 2\n")
@example("a: \ud800\n")
@example("!!set a")
def test_load_yaml_agrees_with_the_pure_python_loader(text):
    assert _outcome(text) == _reference_outcome(text)


def _nest(depth: int) -> str:
    return "[" * depth + "]" * depth


# text, and whether libyaml's event loop leaves it to the pure-Python loader
_EVENT_LOOP_CASES = {
    "anchor": ("a: &x 1\n", True),
    "anchor on a collection": ("a: &x [1]\n", True),
    "alias": ("a: &x 1\nb: *x\n", True),
    "explicit tag": ("!!str 1", True),
    "bare !": ("!", True),
    "local tag": ("a: !x b", True),
    "sequence as key": ("[a, b]: 1", True),
    "mapping as key": ("{{a: 1}: 2}", True),
    "duplicate 1 and true": ("{1: a, true: b}", True),
    "second document": ("--- a\n--- b", True),
    "nesting at the bound": (_nest(_MAX_DEPTH), False),
    "nesting past the bound": (_nest(_MAX_DEPTH + 1), True),
    "literal block scalar": ("a: |\n  x: 1\n  2\n", False),
    "folded block scalar": ("a: >-\n  x\n  true\n", False),
}


@pytest.mark.parametrize("text, leaves", list(_EVENT_LOOP_CASES.values()), ids=list(_EVENT_LOOP_CASES))
def test_event_loop_agrees_with_the_pure_python_loader(monkeypatch, text, leaves):
    parsed = []

    class _Recording(_CoreLoader):
        def __init__(self, stream):
            parsed.append(stream)
            super().__init__(stream)

    monkeypatch.setattr("dsdl.document._CoreLoader", _Recording)
    assert _outcome(text) == _reference_outcome(text)
    assert bool(parsed) == (leaves or not yaml.__with_libyaml__)


# plain scalars in each core-schema form, and words that begin like one
_FORMS = [
    "~", "null", "NULL", "true", "False", "012", "-0", "+7", "0o17", "0x1F", "1.", ".5", "1e3", "-.inf", ".NaN",
    "no", "nan", "nulls", "t", "tRUE", "f", "falsy", "0x", "0xG", "0o8",
]
_FORM_VALUES = {form: yaml.load(form, Loader=_CoreLoader) for form in _FORMS}


def _pairs(values, min_size: int):
    # keys unique as a dict counts them: 1, 1. and true are one key
    keys = st.sampled_from(_FORMS)
    return st.lists(st.tuples(keys, values), min_size=min_size, max_size=3, unique_by=lambda kv: _FORM_VALUES[kv[0]])


def _flow(depth: int):
    """A flow list or mapping, ``depth`` levels deep at most, on one line."""
    inner = st.sampled_from(_FORMS)
    if depth > 1:
        inner = inner | _flow(depth - 1)
    return st.one_of(
        st.lists(inner, max_size=3).map(lambda items: f"[{', '.join(items)}]"),
        _pairs(inner | st.just(""), 0).map(lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"),
    )


def _block(depth: int):
    """The lines of a block list or mapping, ``depth`` levels deep at most."""
    child = st.sampled_from(["", *_FORMS]).map(lambda text: (text, []))
    if depth > 1:
        child |= _flow(depth - 1).map(lambda text: (text, [])) | _block(depth - 1).map(lambda lines: ("", lines))

    def lines(head: str, text: str, nested: list) -> list:
        return [f"{head} {text}".rstrip(), *(f"  {line}" for line in nested)]

    return st.one_of(
        st.lists(child, min_size=1, max_size=3).map(lambda items: [line for c in items for line in lines("-", *c)]),
        _pairs(child, 1).map(lambda pairs: [line for k, c in pairs for line in lines(f"{k}:", *c)]),
    )


@settings(max_examples=300, deadline=None)
@given(_block(4).map("\n".join) | _flow(4))
@example("[-0, 012, +7, 0o17, 0x1F, 0xG, 1., .5, 1e3, -.inf, .NaN, nan, ~, null, NULL, true, False, no]")
@example("-0: 012\n1.:\n~: [0x1F, {.NaN: -.inf, 0o17: }]\n")
def test_event_loop_resolves_plain_scalars_as_the_pure_python_loader(text):
    """Valid documents of every core-schema form in block and flow
    collections: the event loop builds them alone, and each value and its
    type match the pure-Python loader's."""
    parsed = []

    class _Recording(_CoreLoader):
        def __init__(self, stream):
            parsed.append(stream)
            super().__init__(stream)

    with mock.patch("dsdl.document._CoreLoader", _Recording):
        value = _load_events(text)
    assert bool(parsed) == (not yaml.__with_libyaml__)
    assert repr(value) == repr(yaml.load(text, Loader=_CoreLoader))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("opener, closer", [("[", "]"), ("{a: ", "}")])
def test_nesting_past_the_recursion_limit_needs_no_pure_python_parse(monkeypatch, opener, closer):
    class _Refuse(_CoreLoader):
        def __init__(self, stream):
            raise AssertionError("fell back to the pure-Python loader")

    monkeypatch.setattr("dsdl.document._CoreLoader", _Refuse)
    with pytest.raises(DocumentError) as exc:
        _load_yaml(opener * DEEP + closer * DEEP, "deep")
    assert exc.value.diagnostic.format() == "error SYNTAX_ERROR  malformed YAML: nesting is too deep"


def _deep_reference_outcome(text: str) -> tuple:
    try:
        return _reference_outcome(text)
    except RecursionError:
        return ("SYNTAX_ERROR", "malformed YAML: nesting is too deep")


# what may follow the innermost opener: nothing, the closers, and faults the
# pure-Python loader finds while constructing or in its scanner
_DEEP_TAILS = ["", "{closers}", "{closers}]", "!!int x{closers}", "- a", "'a"]
# what may sit past ``_MAX_DEPTH`` with the nest going on below it: an alias
# or a repeated anchor, which the pure-Python composer rejects before it
# nests too deep, and a tag, which only its constructor would read
_DEEP_FAULTS = ["*x, ", "&x 1, &x 2, ", "&x 1, *x, ", "!!int x, "]


def test_deep_nesting_agrees_with_the_pure_python_loader():
    """At and past ``_MAX_DEPTH``, and at and past the recursion limit. The
    limit is lowered for the test: the pure-Python scanner is quadratic in
    flow depth, and at 300 that loader still parses ``_MAX_DEPTH + 10``
    levels."""
    limit, texts = 300, []
    for opener, closer in (("[", "]"), ("{a: ", "}")):
        for depth in (_MAX_DEPTH - 1, _MAX_DEPTH, _MAX_DEPTH + 1, _MAX_DEPTH + 10, limit - 1, limit, limit + 1):
            texts += [opener * depth + tail.format(closers=closer * depth) for tail in _DEEP_TAILS]
        for fault in _DEEP_FAULTS:
            depth = _MAX_DEPTH + 1 + limit
            texts.append(opener * (_MAX_DEPTH + 1) + fault + opener * limit + closer * depth)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        for text in texts:
            assert _outcome(text) == _deep_reference_outcome(text), text
    finally:
        sys.setrecursionlimit(saved)


@pytest.mark.parametrize("text, value", [("012", 12), ("019", 19), ("-007", -7), ("0o17", 15), ("0x1F", 31)])
def test_integers_follow_the_yaml_1_2_core_schema(text, value):
    assert _load_yaml(f"n: {text}\n", None) == {"n": value}
    assert yaml.load(f"n: {text}\n", Loader=_CoreLoader) == {"n": value}


_HEADER = '$dsdl-version: "0.5.0"\n'


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_YAMLISH, st.text(), _YAMLISH.map(_HEADER.__add__)),
    st.sampled_from(["yaml", "json", "auto"]),
)
@example("a: !!int x", "yaml")
@example("a: !!float x", "yaml")
@example("a: !!timestamp x", "yaml")
@example("{{a: 1}: 2}", "yaml")
@example("!!set a", "yaml")
def test_parse_document_is_total(text, fmt):
    try:
        parse_document(text, format=fmt)
    except DocumentError:
        pass


@pytest.mark.parametrize(
    "text, message",
    [
        ("a: !!int x", "invalid !!int value 'x' at line 1, column 4"),
        ("a: !!float x", "invalid !!float value 'x' at line 1, column 4"),
        ("a: !!timestamp x", "invalid !!timestamp value 'x' at line 1, column 4"),
        ("a: [1, !!bool maybe]", "invalid !!bool value 'maybe' at line 1, column 8"),
        ("{{a: 1}: 2}", "found unhashable key at line 1, column 2"),
        ("!!set a", "expected a mapping node, but found scalar at line 1, column 1"),
    ],
)
def test_ill_typed_tag_is_a_syntax_error(text, message):
    with pytest.raises(DocumentError) as info:
        _load_yaml(text, "d.yaml")
    assert info.value.diagnostic.code == "SYNTAX_ERROR"
    assert info.value.diagnostic.message == f"malformed YAML: {message}"
