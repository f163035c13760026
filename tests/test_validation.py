"""Value validation: every builtin shape, labels, datasets."""

import datetime
import math

import pytest

from dsdl import (
    instantiate_type,
    load_external_samples,
    parse_type_expression,
    validate_dataset,
    validate_label,
    validate_value,
)
from dsdl.diagnostics import DsdlError, Severity
from dsdl.locator import RelativePath
from dsdl.schema import ClassRef, build_definitions
from dsdl.validation import (
    Box,
    ImageShapeValue,
    IntervalValue,
    KeypointSet,
    MediaRef,
    Record,
    RotatedBox,
)

from conftest import CORPUS, error_diags, run_corpus_pipeline


@pytest.fixture
def registry():
    registry, diags = build_definitions(
        {
            "MyClassDom": {"$def": "class_domain", "classes": ["dog", "cat", "fish", "tiger"]},
            "KeypointDom1": {"$def": "class_domain", "classes": ["a"]},
            "KeypointDom5": {"$def": "class_domain", "classes": list("abcde")},
            "Sample": {
                "$def": "struct",
                "$fields": {"image": "Image", "label": "Label[dom=MyClassDom]"},
            },
            "OptSample": {
                "$def": "struct",
                "$fields": {"image": "Image", "label": "Label[dom=MyClassDom]"},
                "$optional": ["label"],
            },
        }
    )
    assert diags == []
    return registry


def ctype(registry, text):
    return instantiate_type(parse_type_expression(text), {}, registry)


def check(registry, text, raw, path="v"):
    return validate_value(raw, ctype(registry, text), path)


# -- records ------------------------------------------------------------------


def test_classification_sample(registry):
    value, diags = check(registry, "Sample", {"image": "xyz/0001.jpg", "label": "cat"})
    assert diags == []
    assert value.values["image"] == MediaRef("Image", RelativePath("xyz/0001.jpg", "xyz/0001.jpg"))
    assert value.values["label"] == ClassRef("MyClassDom", (2,), "cat")


def test_omitted_optional_field_is_null(registry):
    value, diags = check(registry, "OptSample", {"image": "xyz/0003.jpg"})
    assert diags == []
    assert value.values["label"] is None
    assert set(value.values) == {"image", "label"}


def test_missing_required_field_warns_by_default(registry):
    value, diags = check(registry, "Sample", {"image": "xyz/0001.jpg"})
    assert [d.code for d in diags] == ["FIELD_MISSING"]
    assert diags[0].severity is Severity.WARNING
    assert diags[0].path == "v/label"
    assert value.values["label"] is None


def test_missing_required_field_is_error_in_strict_mode(registry):
    _, diags = validate_value(
        {"image": "x.jpg"}, ctype(registry, "Sample"), "v", strict=True
    )
    assert diags[0].code == "FIELD_MISSING"
    assert diags[0].severity is Severity.ERROR


def test_unknown_field_warns(registry):
    _, diags = check(registry, "Sample", {"image": "x.jpg", "label": 1, "extra": 0})
    assert [d.code for d in diags] == ["FIELD_UNKNOWN"]
    assert diags[0].severity is Severity.WARNING


def test_non_mapping_record(registry):
    _, diags = check(registry, "Sample", [1, 2])
    assert [d.code for d in diags] == ["TYPE_MISMATCH"]


# -- scalars ---------------------------------------------------------------------


def test_int_accepts_integers_only(registry):
    assert check(registry, "Int", 12) == (12, [])
    assert check(registry, "Int", -3) == (-3, [])
    value, diags = check(registry, "Int", 12.5)
    assert value is None
    assert [d.code for d in diags] == ["TYPE_MISMATCH"]
    _, diags = check(registry, "Int", True)
    assert [d.code for d in diags] == ["TYPE_MISMATCH"]


def test_num_and_str_and_bool(registry):
    assert check(registry, "Num", 1.25e-6) == (1.25e-6, [])
    assert check(registry, "Str", "hello") == ("hello", [])
    assert check(registry, "Bool", True) == (True, [])
    assert error_diags(check(registry, "Num", "x")[1])
    assert error_diags(check(registry, "Str", 1)[1])
    assert error_diags(check(registry, "Bool", 1)[1])


# -- fixed-arity shapes -------------------------------------------------------------


def test_bbox_example(registry):
    value, diags = check(registry, "BBox", [1, 2, 3, 4])
    assert diags == []
    assert value == Box(1, 2, 3, 4)


def test_bbox_wrong_arity(registry):
    value, diags = check(registry, "BBox", [1, 2, 3], path="samples/0/objects/0/bbox")
    assert value is None
    assert [d.code for d in diags] == ["ARITY"]
    assert diags[0].path == "samples/0/objects/0/bbox"


def test_bbox_negative_size(registry):
    _, diags = check(registry, "BBox", [1, 2, -3, 4])
    assert [d.code for d in diags] == ["RANGE"]


def test_interval_order(registry):
    assert check(registry, "Interval", [1, 5])[0] == IntervalValue(1, 5)
    _, diags = check(registry, "Interval", [5, 1])
    assert [d.code for d in diags] == ["RANGE"]


def test_coord_shapes(registry):
    assert check(registry, "Coord", [1.5, 2])[0] == (1.5, 2)
    assert check(registry, "Coord3D", [1, 2, 3])[0] == (1, 2, 3)
    assert [d.code for d in check(registry, "Coord", [1, 2, 3])[1]] == ["ARITY"]


def test_image_shape(registry):
    assert check(registry, "ImageShape", [5502, 3875])[0] == ImageShapeValue(5502, 3875)
    assert [d.code for d in check(registry, "ImageShape", [5502])[1]] == ["ARITY"]
    assert [d.code for d in check(registry, "ImageShape", [0, 10])[1]] == ["RANGE"]
    assert [d.code for d in check(registry, "ImageShape", [1.5, 10])[1]] == ["TYPE_MISMATCH"]


# -- polygons ----------------------------------------------------------------------


def test_polygon_single_ring_auto_wraps(registry):
    value, diags = check(registry, "Polygon", [[1, 2], [3, 4], [5, 6]])
    assert diags == []
    assert value == (((1, 2), (3, 4), (5, 6)),)


def test_polygon_ring_list(registry):
    value, diags = check(registry, "Polygon", [[[420, 21], [512, 23], [512, 42], [420, 40]]])
    assert diags == []
    assert len(value) == 1
    assert len(value[0]) == 4


def test_polygon_short_ring(registry):
    _, diags = check(registry, "Polygon", [[1, 2], [3, 4]])
    assert [d.code for d in diags] == ["ARITY"]


# -- dates and times ------------------------------------------------------------------


def test_time_with_fmt(registry):
    value, diags = check(registry, 'Time[fmt="%H:%M"]', "15:32")
    assert diags == []
    assert value == datetime.time(15, 32)


def test_iso_date_and_time(registry):
    assert check(registry, "Date", "2016-05-04")[0] == datetime.date(2016, 5, 4)
    assert check(registry, "Time", "15:32:00")[0] == datetime.time(15, 32)
    _, diags = check(registry, "Date", "04/05/2016")
    assert [d.code for d in diags] == ["DATE_FORMAT"]


# -- labels -----------------------------------------------------------------------------


def test_label_qualified_name_without_domain():
    ref, diags = validate_label("COCO::cat", None)
    assert diags == []
    assert ref.domain == "COCO"
    assert ref.path == "cat"


def test_label_index_matches_name(registry):
    dom = registry.get("MyClassDom")
    by_index, d1 = validate_label(2, dom)
    by_name, d2 = validate_label("cat", dom)
    assert d1 == d2 == []
    assert by_index == by_name == ClassRef("MyClassDom", (2,), "cat")


def test_label_hierarchical_qualified_name():
    ref, diags = validate_label("MyDom::animal.dog.hound", None)
    assert diags == []
    assert len(ref.path.split(".")) == 3


def test_label_index_out_of_range(registry):
    ref, diags = validate_label("MyClassDom[9]", registry.get("MyClassDom"))
    assert ref is None
    assert [d.code for d in diags] == ["CLASS_INDEX_RANGE"]


def test_label_domain_mismatch(registry):
    ref, diags = validate_label("OtherDom::cat", registry.get("MyClassDom"))
    assert ref is None
    assert [d.code for d in diags] == ["LABEL_DOMAIN_MISMATCH"]


def test_bare_label_requires_domain():
    ref, diags = validate_label("cat", None)
    assert ref is None
    assert [d.code for d in diags] == ["LABEL_SYNTAX"]


def test_label_rejects_non_label_values(registry):
    for bad in (1.5, True, [], ""):
        ref, diags = validate_label(bad, registry.get("MyClassDom"))
        assert ref is None
        assert diags[0].code == "LABEL_SYNTAX"


def test_qualified_forms_agree_with_bare_forms(registry):
    dom = registry.get("MyClassDom")
    assert validate_label("MyClassDom::cat", dom) == validate_label("cat", dom)
    assert validate_label("MyClassDom[2]", dom) == validate_label(2, dom)


# -- media, text, ids ----------------------------------------------------------------------


def test_media_locator_with_descriptor(registry):
    raw = {"$loc": "abc/0001.jpg", "$descr": {"size": [640, 480], "color": "rgb"}}
    value, diags = check(registry, "Image", raw)
    assert diags == []
    assert isinstance(value, MediaRef)
    assert value.locator == RelativePath("abc/0001.jpg", "abc/0001.jpg")
    assert value.descriptor() == {"size": [640, 480], "color": "rgb"}


def test_media_mapping_requires_loc(registry):
    _, diags = check(registry, "Image", {"$descr": {}})
    assert [d.code for d in diags] == ["LOC_SYNTAX"]


def test_media_bad_locator(registry):
    _, diags = check(registry, "Image", "$aliasonly")
    assert [d.code for d in diags] == ["LOC_SYNTAX"]


def test_text_is_inline_content(registry):
    value, diags = check(registry, "Text", "Lines")
    assert diags == []
    assert value == "Lines"


def test_text_with_explicit_locator(registry):
    value, diags = check(registry, "Text", {"$loc": "texts/0001.txt"})
    assert diags == []
    assert isinstance(value, MediaRef)


def test_instance_and_unique_ids(registry):
    assert check(registry, "InstanceID", "000000000001")[0] == "000000000001"
    assert check(registry, "InstanceID", 7)[0] == "7"
    assert check(registry, "UniqueID", "0")[0] == "0"
    assert [d.code for d in check(registry, "InstanceID", 1.5)[1]] == ["TYPE_MISMATCH"]


def test_non_finite_numbers_are_range_errors(registry):
    from dsdl import parse_document, resolve_schema

    text = (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  S:\n    $def: struct\n    $fields: {b: BBox, i: Interval}\n"
        "data:\n"
        "  sample-type: S\n"
        "  samples:\n"
        "    - {b: [0, 0, .nan, .inf], i: [.nan, 1]}\n"
    )
    doc = parse_document(text, format="yaml")
    schema, _ = resolve_schema(doc, None)
    report = validate_dataset(schema, doc.data)
    assert [(d.code, d.path) for d in report.diagnostics] == [
        ("RANGE", "samples/0/b/2"),
        ("RANGE", "samples/0/i/0"),
    ]
    for spec, raw, path in (
        ("Num", math.nan, "v"),
        ("Num", -math.inf, "v"),
        ("Coord", [1, math.inf], "v/1"),
        ("Polygon", [[0, 0], [1, 0], [math.nan, 1]], "v/2/0"),
        ("Keypoint[dom=KeypointDom1]", [1.0, math.inf, 2], "v/1"),
    ):
        value, diags = check(registry, spec, raw)
        assert value is None
        assert [(d.code, d.path) for d in diags] == [("RANGE", path)], spec


# -- keypoints and rotated boxes ----------------------------------------------------------------


def test_keypoint_length_is_three_per_class(registry):
    value, diags = check(registry, "Keypoint[dom=KeypointDom5]", [1.0] * 15)
    assert diags == []
    assert isinstance(value, KeypointSet)
    assert len(value.points) == 5
    for bad_len in (14, 16, 12, 18):
        _, diags = check(registry, "Keypoint[dom=KeypointDom5]", [1.0] * bad_len)
        assert [d.code for d in diags] == ["ARITY"]


def test_rotated_bbox_xyxy(registry):
    raw = [2244.0, 1791.0, 2254.0, 1795.0, 2245.0, 1813.0, 2238.0, 1809.0]
    value, diags = check(registry, 'RotatedBBox[mode="xyxy"]', raw)
    assert diags == []
    assert value == RotatedBox("xyxy", "radian", tuple(raw))
    _, diags = check(registry, 'RotatedBBox[mode="xyxy"]', raw[:5])
    assert [d.code for d in diags] == ["ARITY"]


def test_rotated_bbox_angle_ranges(registry):
    value, diags = check(registry, 'RotatedBBox[mode="xywht", measure="degree"]', [1, 2, 3, 4, 90])
    assert diags == []
    _, diags = check(registry, 'RotatedBBox[mode="xywht", measure="degree"]', [1, 2, 3, 4, 200])
    assert [d.code for d in diags] == ["RANGE"]
    _, diags = check(registry, 'RotatedBBox[mode="xywht"]', [1, 2, 3, 4, math.pi + 0.1])
    assert [d.code for d in diags] == ["RANGE"]
    value, diags = check(registry, 'RotatedBBox[mode="xywht"]', [1, 2, 3, 4, 3.14])
    assert diags == []


# -- external files ---------------------------------------------------------------------------------


def test_load_external_samples():
    samples = load_external_samples("samples.json", CORPUS / "external-files")
    assert len(samples) == 4
    assert samples[0] == {"image": "xyz/0001.jpg", "label": "cat"}


def test_external_file_missing_samples_key(tmp_path):
    (tmp_path / "bad.json").write_text('{"rows": []}')
    with pytest.raises(DsdlError) as exc:
        load_external_samples("bad.json", tmp_path)
    assert exc.value.code == "MISSING_SAMPLES_KEY"


def test_external_file_samples_not_a_list(tmp_path):
    (tmp_path / "bad.json").write_text('{"samples": {"a": 1}}')
    with pytest.raises(DsdlError) as exc:
        load_external_samples("bad.json", tmp_path)
    assert exc.value.code == "MALFORMED_SAMPLES"


def test_external_file_not_found(tmp_path):
    with pytest.raises(DsdlError) as exc:
        load_external_samples("missing.json", tmp_path)
    assert exc.value.code == "FILE_NOT_FOUND"


def test_external_file_not_utf8(tmp_path):
    (tmp_path / "bad.json").write_bytes(b'{"samples": ["\xff"]}')
    with pytest.raises(DsdlError) as exc:
        load_external_samples("bad.json", tmp_path)
    assert exc.value.code == "ENCODING_ERROR"
    assert exc.value.diagnostic.path == "bad.json"


def test_trackingnet_nested_samples():
    samples = load_external_samples("train_samples.json", CORPUS / "trackingnet/set-train")
    assert samples[0]["video_name"] == "0-6LB4FqxoE_0"
    assert samples[0]["videoframes"][0]["objects"][0]["instance_id"] == "000000000001"


# -- dataset-level validation -------------------------------------------------------------------------


def test_get_started_dataset():
    _, report, diags = run_corpus_pipeline("get-started.yaml")
    assert error_diags(diags) == []
    assert report.sample_count == 2
    assert report.diagnostics == []


def test_optional_label_dataset():
    _, report, _ = run_corpus_pipeline("optional-label.yaml")
    assert report.sample_count == 4
    assert report.diagnostics == []
    assert report.samples[0].values["label"] is None
    assert report.samples[1].values["label"] == ClassRef("MyClassDom", (1,), "dog")


def test_optional_removed_yields_field_missing_warnings(library_env):
    import yaml as pyyaml

    from dsdl import parse_document, resolve_schema

    raw = pyyaml.safe_load((CORPUS / "optional-label.yaml").read_text())
    del raw["defs"]["ImageClassificationSample"]["$optional"]
    doc = parse_document(pyyaml.safe_dump(raw), format="yaml")
    schema, _ = resolve_schema(doc, library_env)
    report = validate_dataset(schema, doc.data)
    missing = [d for d in report.diagnostics if d.code == "FIELD_MISSING"]
    assert len(missing) == 2  # oracle: hand count of label-less samples
    assert all(d.severity is Severity.WARNING for d in missing)
    assert [d.path for d in missing] == ["samples/0/label", "samples/2/label"]

    strict = validate_dataset(schema, doc.data, strict=True)
    assert sum(1 for d in strict.diagnostics if d.severity is Severity.ERROR) == 2


def test_dota_global_info_is_typed():
    _, report, diags = run_corpus_pipeline("dota/set-train/train.yaml")
    assert error_diags(diags) == []
    info = report.global_info
    assert isinstance(info, Record)
    entries = info.values["class_info"]
    assert entries[0].values["dsdl_name"] == ClassRef("DOTAV2ClassDom", (12,), "roundabout")
    assert entries[1].values["original_name"] == "large-vehicle"


def test_external_dataset_reads_both_channels():
    _, report, diags = run_corpus_pipeline("external-files/dataset.yaml")
    assert error_diags(diags) == []
    assert report.sample_count == 4
    assert report.global_info is not None
    assert report.global_info.values["class-info"][0].values["label"].path == "dog"


def test_external_null_global_info_is_validated(tmp_path, library_env):
    from dsdl import parse_document, resolve_schema

    (tmp_path / "info.json").write_text('{"global-info": null}')
    (tmp_path / "none.json").write_text("{}")
    text = (
        '$dsdl-version: "0.5.0"\n'
        "data:\n  sample-type: Int\n  samples: []\n  global-info-type: Int\n  global-info-path: {}\n"
    )
    for name, expected in (
        ("info.json", [("TYPE_MISMATCH", "global-info", "expected an integer, got null")]),
        ("none.json", [("MISSING_GLOBAL_INFO_KEY", "global-info", "none.json has no top-level 'global-info' key")]),
    ):
        doc = parse_document(text.format(name), format="yaml")
        schema, _ = resolve_schema(doc, library_env)
        report = validate_dataset(schema, doc.data, base=tmp_path)
        assert [(d.code, d.path, d.message) for d in report.diagnostics] == expected


def test_determinism_identical_reports():
    _, first, _ = run_corpus_pipeline("voc/train.yaml")
    _, second, _ = run_corpus_pipeline("voc/train.yaml")
    assert first.samples == second.samples
    assert first.diagnostics == second.diagnostics


def test_null_completeness_across_corpus():
    from conftest import CORPUS_FILES

    def records(value):
        if isinstance(value, Record):
            yield value
            for nested in value.values.values():
                yield from records(nested)
        elif isinstance(value, list):
            for item in value:
                yield from records(item)

    for rel in CORPUS_FILES:
        schema, report, _ = run_corpus_pipeline(rel)
        for sample in report.samples:
            for record in records(sample):
                struct = schema.registry.get(record.struct_name)
                assert list(record.values) == list(struct.fields)


def test_strict_mode_monotonicity():
    from conftest import CORPUS_FILES

    for rel in CORPUS_FILES:
        _, default_report, _ = run_corpus_pipeline(rel)
        _, strict_report, _ = run_corpus_pipeline(rel, strict=True)
        assert len(strict_report.diagnostics) >= len(default_report.diagnostics)


def test_scalar_sample_type(library_env):
    # the sample type may be any type, not only a struct
    from dsdl import parse_document, resolve_schema

    text = '$dsdl-version: "0.5.0"\ndata:\n  sample-type: Int\n  samples: [1, 2, 3]\n'
    doc = parse_document(text, format="yaml")
    schema, diags = resolve_schema(doc, library_env)
    assert diags == []
    report = validate_dataset(schema, doc.data)
    assert report.samples == [1, 2, 3]
    assert report.diagnostics == []


def test_max_errors_truncates(registry, library_env):
    from dsdl import parse_document, resolve_schema

    text = (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  S:\n    $def: struct\n    $fields: {n: Int}\n"
        "data:\n"
        "  sample-type: S\n"
        "  samples:\n" + "".join("    - {n: bad}\n" for _ in range(10))
    )
    doc = parse_document(text, format="yaml")
    schema, _ = resolve_schema(doc, library_env)
    report = validate_dataset(schema, doc.data, max_errors=3)
    assert report.truncated
    assert report.errors == 3
    full = validate_dataset(schema, doc.data)
    assert not full.truncated
    assert full.errors == 10


def test_max_errors_below_one_counts_an_error_before_truncating(library_env):
    from dsdl import parse_document, resolve_schema

    text = (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  S:\n    $def: struct\n    $fields: {n: Int}\n"
        "data:\n"
        "  sample-type: S\n"
        "  samples: [{n: 1}, {n: bad}, {n: worse}]\n"
    )
    doc = parse_document(text, format="yaml")
    schema, _ = resolve_schema(doc, library_env)
    for max_errors in (0, -1):
        report = validate_dataset(schema, doc.data, max_errors=max_errors)
        assert (report.sample_count, report.errors, report.truncated) == (2, 1, True)


def test_every_value_shape_has_one_checker():
    from dsdl.schema import BUILTINS
    from dsdl.validation import _CHECKS

    assert set(_CHECKS) == {s.shape for s in BUILTINS.values()} | {"struct"}


def test_strict_field_missing_counts_toward_max_errors(library_env):
    from dsdl import parse_document, resolve_schema

    text = (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n"
        "  S:\n    $def: struct\n    $fields: {n: Int, m: Int}\n"
        "data:\n"
        "  sample-type: S\n"
        "  samples: [{n: 1}, {n: bad, m: 2}, {n: 3, m: 4}]\n"
    )
    doc = parse_document(text, format="yaml")
    schema, _ = resolve_schema(doc, library_env)
    report = validate_dataset(schema, doc.data, strict=True, max_errors=1)
    assert [(d.severity, d.code, d.path) for d in report.diagnostics] == [
        (Severity.ERROR, "FIELD_MISSING", "samples/0/m"),
    ]
    assert (report.sample_count, report.truncated) == (1, True)
    lenient = validate_dataset(schema, doc.data, max_errors=1)
    assert [(d.severity, d.code) for d in lenient.diagnostics] == [
        (Severity.WARNING, "FIELD_MISSING"),
        (Severity.ERROR, "TYPE_MISMATCH"),
    ]
    assert (lenient.sample_count, lenient.truncated) == (2, True)


def test_strict_promotes_only_field_missing(registry):
    raw = {"image": {"$loc": "a.jpg", "$extra": 1}, "extra": 2}
    _, diags = validate_value(raw, ctype(registry, "Sample"), "v", strict=True)
    assert [(d.severity, d.code, d.path) for d in diags] == [
        (Severity.WARNING, "FIELD_UNKNOWN", "v/image/$extra"),
        (Severity.ERROR, "FIELD_MISSING", "v/label"),
        (Severity.WARNING, "FIELD_UNKNOWN", "v/extra"),
    ]
