"""``summarize_dataset`` and ``dsdl summary``: counts folded sample by sample.

The counts are held against ``_summary_oracle``, which walks the typed
values that ``validate_dataset(..., build=True)`` keeps; against a run
without a fallback when a stream falls back to the whole-file load;
against the benchmark generator's manifest; and, in memory, against
check-only validation.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _summary_oracle import counts as oracle_counts
from dsdl import (
    DocumentError,
    LibraryEnvironment,
    SampleCounts,
    default_media_registry,
    parse_document,
    resolve_schema,
    summarize_dataset,
    validate_dataset,
)
from dsdl import cli, validation

CORPUS = Path(__file__).parent / "corpus"
PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _load_perfbench(name: str):
    """A module of the benchmark, loaded from its file without adding
    ``perfbench`` to ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_perfbench("gen")
pipeline = _load_perfbench("pipeline")


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
    """A stream that stops part-way drops its counts with its findings; the
    whole-file load then counts every sample once."""
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
                    raise validation._Unstreamable
                yield item

        return stream_k

    for k in range(len(_STREAMED["samples"])):
        monkeypatch.setattr(validation, "_stream_samples", stops_after(k))
        assert summarize_dataset(schema, doc.data, base=tmp_path, max_errors=max_errors) == expected
    assert fell_back == list(range(len(_STREAMED["samples"])))


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
