"""External JSON sample files read one sample at a time.

``validate_dataset`` decodes a JSON sample file that opens with
``{"samples": [`` element by element; anything else falls back to the
whole-file load. Each case here is compared with that whole-file load.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from dsdl import DsdlError, iter_samples, parse_document, resolve_schema, summarize_dataset, validate_dataset
from dsdl import validation
from dsdl.validation import Record, load_external_samples


def _whole_file_only(text):
    return 0
    yield  # a generator, like the stream it replaces


def _schema(library_env, sample_type: str, defs: str = ""):
    text = (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  D:\n    $def: class_domain\n    classes: [a, b]\n"
        "  S:\n    $def: struct\n    $fields: {n: Int}\n"
        f"{defs}"
        f"data:\n  sample-type: {sample_type}\n  sample-path: s.json\n"
    )
    doc = parse_document(text, format="yaml")
    schema, diags = resolve_schema(doc, library_env)
    assert diags == []
    return schema, doc.data


def _outcome(report) -> tuple:
    return report.to_jsonable(), report.samples, report.global_info


_SAMPLES = '{"n": 1}, {"n": "x"}, {"n": 2}'
_CASES = {
    # name: (file text, whether the stream reads it to the end)
    "clean": (f'{{"samples": [{_SAMPLES}]}}', True),
    "spaced": (f' \n{{ "samples" :\t[ {_SAMPLES} \r\n] }} \n', True),
    "key after samples": (f'{{"samples": [{_SAMPLES}], "meta": {{"k": [1, 2]}}}}', True),
    "empty array": ('{"samples": []}', True),
    "empty array, spaced": ('{"samples": [ \n ] }', True),
    "syntax error after the array": (f'{{"samples": [{_SAMPLES}] "meta": 1}}', False),
    "second samples key": (f'{{"samples": [{_SAMPLES}], "samples": []}}', False),
    "key before samples": (f'{{"meta": 1, "samples": [{_SAMPLES}]}}', False),
    "duplicate key in a sample": ('{"samples": [{"n": 1}, {"n": 2, "n": 3}]}', False),
    "duplicate key after the array": (f'{{"samples": [{_SAMPLES}], "a": 1, "a": 2}}', False),
    "trailing garbage": (f'{{"samples": [{_SAMPLES}]}} x', False),
    "trailing comma in the array": (f'{{"samples": [{_SAMPLES},]}}', False),
    "trailing comma in the object": (f'{{"samples": [{_SAMPLES}],}}', False),
    "missing comma": ('{"samples": [{"n": 1} {"n": 2}]}', False),
    "unclosed": (f'{{"samples": [{_SAMPLES}', False),
    "samples not a list": ('{"samples": 5}', False),
    "byte order mark": (f'\ufeff{{"samples": [{_SAMPLES}]}}', False),
    "stop, then a malformed element": ('{"samples": [{"n": "x"}, {"n": 1}, {"n": ]}', False),
    "too many digits": ('{"samples": [{"n": 1}, {"n": ' + "9" * 5000 + "}]}", False),
    "too deep": ('{"samples": [' + "[" * 100_000 + "]" * 100_000 + "]}", False),
    "not a mapping": ("[1, 2]", False),
}


@pytest.mark.parametrize("text, streamed", _CASES.values(), ids=list(_CASES))
def test_streaming_equals_the_whole_file_load(tmp_path, library_env, monkeypatch, text, streamed):
    (tmp_path / "s.json").write_text(text, encoding="utf-8")
    schema, data = _schema(library_env, "S")
    runs = [{"build": build, "max_errors": max_errors} for build in (True, False) for max_errors in (None, 1)]

    stream, fell_back = validation._stream_samples, []

    def watched(text):
        done = yield from stream(text)
        if done is not None:
            fell_back.append(True)
        return done

    monkeypatch.setattr(validation, "_stream_samples", watched)
    got = [_outcome(validate_dataset(schema, data, base=tmp_path, **run)) for run in runs]
    assert (not fell_back) == streamed
    monkeypatch.setattr(validation, "_stream_samples", _whole_file_only)
    expected = [_outcome(validate_dataset(schema, data, base=tmp_path, **run)) for run in runs]
    assert got == expected


def _one_character_edits(text: str):
    """``text`` with each character deleted, and with ``,``, ``]``, ``"`` or ``{`` inserted at each offset."""
    for i in range(len(text) + 1):
        if i < len(text):
            yield text[:i] + text[i + 1:]
        for char in ',]"{':
            yield text[:i] + char + text[i:]


def test_a_stream_stops_after_a_sample_only_at_a_fault_that_the_whole_file_load_raises(tmp_path, library_env, monkeypatch):
    """Every one-character edit of a sample file with a key after its array
    reads as the whole-file load alone reads it, through every entry point;
    and a stream that stopped after a sample stopped at a fault, which the
    whole-file load raises."""
    schema, data = _schema(library_env, "S")
    runs = [{"build": build, "max_errors": max_errors} for build in (True, False) for max_errors in (None, 1)]
    stream, stops = validation._stream_samples, []

    def watched(text):
        done = yield from stream(text)
        stops.append(done)
        return done

    def outcomes() -> list:
        got = [_outcome(validate_dataset(schema, data, base=tmp_path, **run)) for run in runs]
        got.append(summarize_dataset(schema, data, base=tmp_path))
        try:
            got.append(list(iter_samples(schema, data, base=tmp_path)))
        except DsdlError as exc:
            got.append(exc.diagnostic)
        return got

    seen = set()
    for text in dict.fromkeys(_one_character_edits('{"samples": [{"n": 1}, {"n": "x"}], "meta": {"k": [1]}}')):
        (tmp_path / "s.json").write_text(text, encoding="utf-8")
        stops.clear()
        monkeypatch.setattr(validation, "_stream_samples", watched)
        got = outcomes()
        monkeypatch.setattr(validation, "_stream_samples", _whole_file_only)
        assert got == outcomes(), text
        seen.update(stops)
        if any(stops):
            with pytest.raises(DsdlError):
                load_external_samples("s.json", tmp_path)
    assert {None, 0, 1, 2} <= seen  # streamed whole, not at all, and stopped after each sample


def test_iter_samples_yields_the_samples_before_a_fault_then_raises_its_finding(tmp_path, library_env):
    """A stream that stops at a malformed element has yielded the samples
    before it; the iterator then raises the finding ``validate_dataset``
    reports for the file."""
    (tmp_path / "s.json").write_text(_CASES["stop, then a malformed element"][0], encoding="utf-8")
    schema, data = _schema(library_env, "S")
    [finding] = validate_dataset(schema, data, base=tmp_path).diagnostics
    assert finding.code == "SYNTAX_ERROR"
    samples = iter_samples(schema, data, base=tmp_path)
    (first, value, found), second = next(samples), next(samples)
    assert (first, value, [(d.code, d.path) for d in found]) == (0, Record("S", {"n": None}), [("TYPE_MISMATCH", "samples/0/n")])
    assert second == (1, Record("S", {"n": 1}), [])
    with pytest.raises(DsdlError) as raised:
        next(samples)
    assert raised.value.diagnostic == finding


def test_a_stream_stopped_by_max_errors_is_truncated_only_when_samples_remain(tmp_path, library_env):
    schema, data = _schema(library_env, "S")
    for text, truncated in (('{"samples": [{"n": 1}, {"n": "x"}, {"n": 2}]}', True), ('{"samples": [{"n": "x"}]}', False)):
        (tmp_path / "s.json").write_text(text)
        for build in (True, False):
            report = validate_dataset(schema, data, base=tmp_path, max_errors=1, build=build)
            assert (report.truncated, report.errors) == (truncated, 1)


def _detection_samples(count: int) -> str:
    objects = [{"bbox": [1.5, 2, 30, 40.25], "label": "a" if k % 2 else 2} for k in range(4)]
    return json.dumps({"samples": [{"image": f"img/{i:06d}.jpg", "objects": objects} for i in range(count)]}, indent=1)


def test_check_only_validation_holds_the_text_and_one_sample(tmp_path, library_env):
    """With ``build=False``, memory grows with the file's text, not with the
    values decoded from it: 3,200 samples peak at most twice the file's size
    above 800 samples (decoding the whole file at once takes about 3.5 times)."""
    defs = (
        "  Obj:\n    $def: struct\n    $fields: {bbox: BBox, label: 'Label[dom=D]'}\n"
        "  Det:\n    $def: struct\n    $fields: {image: Image, objects: 'List[etype=Obj]'}\n"
    )
    schema, data = _schema(library_env, "Det", defs)
    peaks, sizes = [], []
    for count in (800, 3200):
        (tmp_path / "s.json").write_text(_detection_samples(count))
        sizes.append((tmp_path / "s.json").stat().st_size)
        tracemalloc.start()
        try:
            report = validate_dataset(schema, data, base=tmp_path, build=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (report.sample_count, report.diagnostics) == (count, [])
    assert peaks[1] - peaks[0] <= 2 * sizes[1], (peaks, sizes)
