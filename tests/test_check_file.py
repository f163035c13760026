"""``check_file``: one call from a description file to its report and counts,
as ``dsdl validate`` and ``dsdl summary`` run it."""

import pytest

from dsdl import (
    DocumentError,
    LibraryEnvironment,
    SampleCounts,
    ValidationReport,
    check_file,
    resolve_file,
    summarize_dataset,
    validate_dataset,
)

from conftest import CORPUS

_DESCRIPTIONS = sorted(str(p.relative_to(CORPUS)) for p in CORPUS.rglob("*") if p.suffix in (".yaml", ".json"))


def _chained(path, env, count, options):
    """What ``check_file`` stands for: resolve, then check or count the samples."""
    doc, schema, diags = resolve_file(path, env)
    report, counts = ValidationReport(), SampleCounts()
    if schema is not None:
        if count:
            report, counts = summarize_dataset(schema, doc.data, base=path.parent, **options)
        else:
            report = validate_dataset(schema, doc.data, base=path.parent, build=False, **options)
    return diags + report.diagnostics, report.sample_count, report.truncated, counts


@pytest.mark.parametrize("rel", _DESCRIPTIONS)
def test_check_file_is_resolve_file_then_a_check_only_or_counting_run(rel):
    path, env = CORPUS / rel, LibraryEnvironment.from_environment()
    for options in ({}, {"strict": True}, {"max_errors": 1}):
        for count in (False, True):
            report, counts = check_file(path, env, count=count, **options)
            got = report.diagnostics, report.sample_count, report.truncated, counts
            assert got == _chained(path, env, count, options), (options, count)
            assert (report.samples, report.global_info) == ([], None)


def test_check_file_puts_the_resolve_findings_first_and_applies_strict_and_max_errors(tmp_path):
    (tmp_path / "lib.yaml").write_text('$dsdl-version: "0.5.0"\ndefs:\n  S:\n    $def: struct\n    $fields: {m: Int}\n')
    path = tmp_path / "d.yaml"
    path.write_text(
        '$dsdl-version: "0.5.0"\n$import: [lib]\ndefs:\n  S:\n    $def: struct\n    $fields: {n: Int}\n'
        "data:\n  sample-type: S\n  samples: [{n: 1}, {}, {n: x}, {n: y}]\n"
    )
    env = LibraryEnvironment(())
    for options in ({}, {"strict": True}, {"max_errors": 1}, {"strict": True, "max_errors": 1}):
        for count in (False, True):
            report, counts = check_file(path, env, count=count, **options)
            assert (report.diagnostics, report.sample_count, report.truncated, counts) == _chained(
                path, env, count, options
            )
            assert report.diagnostics[0].code == "IMPORT_OVERWRITE"
    report, _ = check_file(path, env, strict=True, max_errors=1)
    assert [d.code for d in report.diagnostics] == ["IMPORT_OVERWRITE", "FIELD_MISSING"]
    assert (report.sample_count, report.truncated) == (2, True)


def test_check_file_on_a_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        check_file(tmp_path / "missing.yaml", LibraryEnvironment(()))


def test_check_file_on_a_file_that_is_not_utf8_raises_encoding_error(tmp_path):
    bad = tmp_path / "latin.yaml"
    bad.write_bytes(b'$dsdl-version: "0.5.0"\nmeta: {name: caf\xe9}\n')
    with pytest.raises(DocumentError) as exc:
        check_file(bad, LibraryEnvironment(()), count=True)
    assert (exc.value.code, exc.value.diagnostic.path) == ("ENCODING_ERROR", str(bad))


@pytest.mark.parametrize("count", [False, True])
def test_check_file_on_text_that_does_not_parse_gives_its_one_finding_and_no_sample(tmp_path, count):
    path = tmp_path / "d.yaml"
    path.write_text("a: [")
    report, counts = check_file(path, LibraryEnvironment(()), count=count)
    assert [(d.code, d.source) for d in report.diagnostics] == [("SYNTAX_ERROR", str(path))]
    assert (report.sample_count, report.truncated, counts) == (0, False, SampleCounts())

