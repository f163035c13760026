"""``summarize_dataset`` and ``dsdl summary``: counts folded sample by sample.

The counts are held against ``_summary_oracle``, which walks the typed
values that ``validate_dataset(..., build=True)`` keeps; against a run
without a fallback when a stream falls back to the whole-file load;
against the benchmark generator's manifest; and, in memory, against
check-only validation.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _summary_oracle import counts as oracle_counts
from conftest import load_perfbench
from dsdl import (
    DocumentError,
    LibraryEnvironment,
    SampleCounts,
    default_media_registry,
    iter_samples,
    parse_document,
    resolve_schema,
    summarize_dataset,
    validate_dataset,
)
from dsdl import cli, validation

CORPUS = Path(__file__).parent / "corpus"
gen = load_perfbench("gen")
pipeline = load_perfbench("pipeline")


def _resolve(text: str, path: Path, fmt: str = "auto"):
    """parse -> resolve as ``dsdl summary`` does; (document, schema)."""
    doc = parse_document(text, format=fmt, source=str(path))
    schema, _ = resolve_schema(
        doc,
        LibraryEnvironment.from_environment(),
        source=path,
        media_extensions=default_media_registry().extension_names(),
    )
    return doc, schema


def _assert_counts_match_the_oracle(doc, schema, base: Path, strict: bool):
    """Assert that the report is check-only validation's and, on an
    error-free dataset, that the folded counts equal the walk over the typed
    values. Returns the report."""
    report, counts = summarize_dataset(schema, doc.data, base=base, strict=strict)
    assert report == validate_dataset(schema, doc.data, base=base, strict=strict, build=False)
    if not report.errors:
        built = validate_dataset(schema, doc.data, base=base, strict=strict)
        assert counts == oracle_counts(schema, built.samples)
    return report


def test_summary_counts_match_the_typed_value_walk_on_the_corpus():
    compared = set()
    for path in sorted(CORPUS.rglob("*")):
        if path.suffix not in (".yaml", ".json"):
            continue
        try:
            doc, schema = _resolve(path.read_text(encoding="utf-8"), path)
        except DocumentError:
            continue  # an imported type file or an external data file
        if schema is None:
            continue
        for strict in (False, True):
            report = _assert_counts_match_the_oracle(doc, schema, path.parent, strict)
            if report.sample_count and not report.errors:
                compared.add(str(path.relative_to(CORPUS)))
    assert len(compared) >= 20, sorted(compared)


_DESCRIPTION = """\
$dsdl-version: "0.5.0"
defs:
  D:
    $def: class_domain
    classes: [a, b]
  Never:
    $def: struct
    $fields: {x: Int}
    $optional: [x]
  Rare:
    $def: struct
    $fields: {y: Int}
    $optional: [y]
  Part:
    $def: struct
    $fields: {tag: "Label[dom=D]", note: Text}
    $optional: [note]
  S:
    $def: struct
    $fields: {image: Image, caption: Text, parts: "List[etype=Part]", rare: Rare}
    $optional: [caption, rare]
data:
  sample-type: S
  sample-path: $local
  samples:
    - {image: a.jpg, caption: inline words, parts: [{tag: a}, {tag: 2, note: {$loc: n.txt}}]}
    - {image: $al/b.jpg, caption: {$loc: c.txt, $descr: {k: 1}}, parts: []}
    - {image: b.jpg, caption: null, parts: [{tag: "D::b", note: inline}]}
    - {caption: {$loc: d.txt}, parts: [{tag: b}]}
"""
# the last sample lacks its required image: a warning, an error under --strict
_COUNTS = {
    False: SampleCounts(
        {"D::a": 1, "D::b": 3},
        {("Part", "note"): [2, 4], ("S", "caption"): [3, 4], ("S", "rare"): [0, 4]},
        {"alias": 1, "relative": 5},
    ),
    True: SampleCounts(
        {"D::a": 1, "D::b": 2},
        {("Part", "note"): [2, 3], ("S", "caption"): [2, 3], ("S", "rare"): [0, 3]},
        {"alias": 1, "relative": 4},
    ),
}


@pytest.mark.parametrize("strict", [False, True])
def test_summary_counts_optional_fill_only_where_a_struct_is_reached(tmp_path, strict):
    """``Never`` is declared and ``Rare`` sits under an optional field that no
    sample gives: neither has an ``optional-fill`` entry. A Text value is
    counted as a locator only when given as a ``$loc`` mapping, and a sample
    with an error is not counted at all."""
    doc, schema = _resolve(_DESCRIPTION, tmp_path / "d.yaml", "yaml")
    report, counts = summarize_dataset(schema, doc.data, base=tmp_path, strict=strict)
    assert (report.sample_count, report.errors) == (4, int(strict))
    assert counts == _COUNTS[strict]
    if not strict:
        assert not _assert_counts_match_the_oracle(doc, schema, tmp_path, strict).errors


def test_summary_text_matches_the_counts(tmp_path):
    (tmp_path / "d.yaml").write_text(_DESCRIPTION, encoding="utf-8")
    code, out = _cli("summary", str(tmp_path / "d.yaml"))
    assert code == 0
    assert out.splitlines()[1:] == [
        "labels:",
        "  D::a: 1",
        "  D::b: 3",
        "optional-fill:",
        "  Part.note: 2/4",
        "  S.caption: 3/4",
        "  S.rare: 0/4",
        "locators:",
        "  alias: 1",
        "  relative: 5",
    ]


def test_summary_does_not_count_the_global_info(tmp_path):
    """An inline global-info is validated, but its labels, optional fields and
    locators are not counted."""
    text = _DESCRIPTION + (
        "  global-info-type: Part\n"
        "  global-info: {tag: a, note: {$loc: g.txt}}\n"
    )
    doc, schema = _resolve(text, tmp_path / "d.yaml", "yaml")
    report, counts = summarize_dataset(schema, doc.data, base=tmp_path)
    assert counts == _COUNTS[False]
    assert report == validate_dataset(schema, doc.data, base=tmp_path, build=False)
    bad = text.replace("{tag: a,", "{tag: zzz,")
    doc, schema = _resolve(bad, tmp_path / "d.yaml", "yaml")
    report, counts = summarize_dataset(schema, doc.data, base=tmp_path)
    assert [(d.code, d.path) for d in report.diagnostics if d.code != "FIELD_MISSING"] == [
        ("CLASS_NOT_FOUND", "global-info/tag")
    ]
    assert counts == _COUNTS[False]


def test_summary_checks_each_label_and_locator_once(tmp_path, monkeypatch):
    """The summary parses each locator and resolves each qualified label as
    often as check-only validation does: one walk both checks and counts."""
    text = (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  D:\n    $def: class_domain\n    classes: [x, y]\n"
        "  S:\n    $def: struct\n    $fields: {image: Image, mask: Image, note: Text, label: 'Label[dom=D]'}\n"
        "    $optional: [note]\n"
        "data:\n  sample-type: S\n  samples:\n"
        "    - {image: img/a.jpg, mask: $masks/a.png, note: {$loc: notes/a.txt}, label: 'D::x'}\n"
        "    - {image: img/b.jpg, mask: $masks/b.png, note: inline words, label: 'D::y'}\n"
    )
    doc, schema = _resolve(text, tmp_path / "d.yaml", "yaml")
    calls: dict[str, int] = {}
    for name in ("parse_locator", "validate_label"):

        def counted(*args, _name=name, _call=getattr(validation, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _call(*args)

        monkeypatch.setattr(validation, name, counted)
    report = validate_dataset(schema, doc.data, base=tmp_path, build=False)
    checked = dict(calls)
    calls.clear()
    assert summarize_dataset(schema, doc.data, base=tmp_path) == (
        report,
        SampleCounts({"D::x": 1, "D::y": 1}, {("S", "note"): [2, 2]}, {"relative": 3, "alias": 2}),
    )
    assert calls == checked == {"parse_locator": 5, "validate_label": 2}


@pytest.mark.parametrize("order", ["check-first", "count-first"])
def test_summary_runs_the_closures_check_only_validation_runs(tmp_path, monkeypatch, order):
    """Counting compiles no closure of its own: after one of check-only
    validation and the summary has run on a schema, the other compiles no
    type node, the global-info type's included."""
    text = _DESCRIPTION + "  global-info-type: Part\n  global-info: {tag: a, note: {$loc: g.txt}}\n"
    doc, schema = _resolve(text, tmp_path / "d.yaml", "yaml")
    runs = [
        lambda: validate_dataset(schema, doc.data, base=tmp_path, build=False),
        lambda: summarize_dataset(schema, doc.data, base=tmp_path)[0],
    ]
    if order == "count-first":
        runs.reverse()
    compiled, compile_node = [], validation._compile

    def counting(ctype, build=True):
        compiled.append(ctype)
        return compile_node(ctype, build)

    monkeypatch.setattr(validation, "_compile", counting)
    first = runs[0]()
    assert compiled
    compiled.clear()
    assert runs[1]() == first
    assert compiled == []


def test_validate_dataset_reads_build_as_a_plain_flag():
    """Any false ``build``, None included, gives the check-only report."""
    from conftest import CORPUS_FILES, load_corpus_doc

    for rel in CORPUS_FILES:
        doc, path = load_corpus_doc(rel)
        schema, _ = resolve_schema(doc, LibraryEnvironment.from_environment(), source=path)
        report = validate_dataset(schema, doc.data, base=path.parent, build=False)
        for build in (None, 0):
            assert validate_dataset(schema, doc.data, base=path.parent, build=build) == report, (rel, build)


_STREAMED = {
    "samples": [
        {"image": "a.jpg", "label": "a", "note": {"$loc": "n.txt"}},
        {"image": "b.jpg", "label": "zzz"},
        {"image": "$al/c.jpg", "label": 2},
        {"image": "d.jpg", "label": "b", "note": "inline"},
    ]
}


@pytest.mark.parametrize("max_errors", [None, 1])
def test_a_stream_that_falls_back_counts_each_sample_once(tmp_path, monkeypatch, max_errors):
    """A stream that stops part-way hands over to the whole-file load at the
    sample it stopped at, so every sample is checked and counted once: the
    summary, both modes of ``validate_dataset`` and ``iter_samples`` read as
    when the stream runs to its end."""
    text = (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  D:\n    $def: class_domain\n    classes: [a, b]\n"
        "  S:\n    $def: struct\n    $fields: {image: Image, label: 'Label[dom=D]', note: Text}\n"
        "    $optional: [note]\n"
        "data:\n  sample-type: S\n  sample-path: s.json\n"
    )
    (tmp_path / "s.json").write_text(json.dumps(_STREAMED), encoding="utf-8")
    doc, schema = _resolve(text, tmp_path / "d.yaml", "yaml")
    expected = summarize_dataset(schema, doc.data, base=tmp_path, max_errors=max_errors)
    assert expected[0].errors == 1

    stream, fell_back = validation._stream_samples, []

    def stops_after(k: int):
        def stream_k(text):
            for i, item in enumerate(stream(text)):
                if i == k:
                    fell_back.append(k)
                    return k
                yield item

        return stream_k

    for k in range(len(_STREAMED["samples"])):
        monkeypatch.setattr(validation, "_stream_samples", stops_after(k))
        assert summarize_dataset(schema, doc.data, base=tmp_path, max_errors=max_errors) == expected
    assert fell_back == list(range(len(_STREAMED["samples"])))

    def runs():
        """The sample keys that each call checks, and what the calls return."""
        checker, checked = validation._checker, []

        def counting(ctype, build=True):
            check = checker(ctype, build)
            if ctype is not schema.sample_type:
                return check
            keys = []
            checked.append(keys)

            def counted(raw, parent, key, diags):
                keys.append(key)
                return check(raw, parent, key, diags)

            return counted

        monkeypatch.setattr(validation, "_checker", counting)
        reports = [validate_dataset(schema, doc.data, base=tmp_path, max_errors=max_errors, build=b) for b in (True, False)]
        return checked, reports, list(iter_samples(schema, doc.data, base=tmp_path))

    monkeypatch.setattr(validation, "_stream_samples", stream)
    _, reports, samples = runs()
    assert [index for index, _, _ in samples] == list(range(len(_STREAMED["samples"])))
    for k in range(len(_STREAMED["samples"])):
        monkeypatch.setattr(validation, "_stream_samples", stops_after(k))
        checked, *got = runs()
        assert got == [reports, samples]
        assert len(checked) == 3 and all(keys == list(range(len(keys))) for keys in checked), (k, checked)


def _cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_generated_workloads_agree_with_their_manifest(tmp_path, seed):
    """Every benchmark workload, generated at its tiny size: the library
    result and the ``validate``, ``validate --format json`` and ``summary``
    output agree with the generator's manifest, which is worked out without
    dsdl (``summary``'s label frequencies included)."""
    for workload in gen.WORKLOADS:
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        manifest = gen.generate(workload, seed, out, size="tiny")
        desc = out / manifest["description"]
        report, diags, _ = pipeline.run_pipeline(desc, manifest["format"])
        assert pipeline.report_problems(manifest, report, diags) == [], (workload, seed)
        for kind, argv in (
            ("validate", ["validate", str(desc)]),
            ("validate-json", ["validate", "--format", "json", str(desc)]),
            ("summary", ["summary", str(desc)]),
        ):
            code, text = _cli(*argv)
            assert pipeline.cli_problems(kind, manifest, code, text.encode(), b"") == [], (workload, seed, kind)


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_summary_holds_no_more_than_check_only_validation(tmp_path):
    """Counting keeps no sample: on 3,200 external samples the summary path
    peaks within 1.2 times check-only validation (keeping every typed value
    roughly doubles it)."""
    text = (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  D:\n    $def: class_domain\n    classes: [a, b]\n"
        "  Obj:\n    $def: struct\n    $fields: {bbox: BBox, label: 'Label[dom=D]', note: Text}\n"
        "    $optional: [note]\n"
        "  Det:\n    $def: struct\n    $fields: {image: Image, objects: 'List[etype=Obj]'}\n"
        "data:\n  sample-type: Det\n  sample-path: s.json\n"
    )
    objects = [{"bbox": [1.5, 2, 30, 40.25], "label": "a" if k % 2 else 2} for k in range(4)]
    samples = [{"image": f"img/{i:06d}.jpg", "objects": objects} for i in range(3200)]
    (tmp_path / "s.json").write_text(json.dumps({"samples": samples}, indent=1), encoding="utf-8")
    doc, schema = _resolve(text, tmp_path / "d.yaml", "yaml")

    def summary():
        report, counts = summarize_dataset(schema, doc.data, base=tmp_path)
        assert (report.sample_count, report.diagnostics) == (3200, [])
        assert counts.labels == {"D::a": 6400, "D::b": 6400}

    summary()  # compiles the closures and the census
    validate_peak = _peak(lambda: validate_dataset(schema, doc.data, base=tmp_path, build=False))
    summary_peak = _peak(summary)
    assert summary_peak <= 1.2 * validate_peak, (summary_peak, validate_peak)
