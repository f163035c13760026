"""Value validation: every builtin shape, labels, datasets."""

import datetime
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from dsdl import (
    instantiate_type,
    iter_samples,
    load_external_samples,
    parse_type_expression,
    validate_dataset,
    validate_label,
    validate_value,
)
from dsdl.diagnostics import DsdlError, Severity, echo
from dsdl.locator import RelativePath
from dsdl.resolver import ConcreteType
from dsdl.schema import ClassRef, build_definitions, lookup_class
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


@pytest.mark.parametrize(
    "spec, raw, path, message",
    [
        ("Polygon", [[["a", 1], [2, 3], [4, 5]]], "v/0/0", "polygon point must be numeric"),
        ("Image", {"$loc": "a.jpg", "$descr": 5}, "v/$descr", "$descr must be a mapping"),
    ],
    ids=["polygon-point", "media-descriptor"],
)
def test_a_mistyped_component_is_a_type_mismatch(registry, spec, raw, path, message):
    value, diags = check(registry, spec, raw)
    assert value is None
    assert [(d.code, d.path, d.message) for d in diags] == [("TYPE_MISMATCH", path, message)]


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


def test_an_unbound_index_label_prints_in_its_index_form():
    ref, diags = validate_label("D[1.2]", None)
    assert (ref, diags, str(ref)) == (ClassRef("D", (1, 2), ""), [], "D[1.2]")


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
    from dsdl import LibraryEnvironment, parse_document, resolve_schema

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
    schema, _ = resolve_schema(doc, LibraryEnvironment())
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


def test_external_file_name_too_long_for_the_os(tmp_path):
    name = "a" * 5000
    with pytest.raises(DsdlError) as exc:
        load_external_samples(name, tmp_path)
    assert (exc.value.code, exc.value.diagnostic.path) == ("FILE_NOT_FOUND", echo(name))
    assert exc.value.diagnostic.message.startswith(f"cannot read external data file {echo(str(tmp_path / name))}: ")


def test_external_file_not_utf8(tmp_path):
    (tmp_path / "bad.json").write_bytes(b'{"samples": ["\xff"]}')
    with pytest.raises(DsdlError) as exc:
        load_external_samples("bad.json", tmp_path)
    assert exc.value.code == "ENCODING_ERROR"
    assert exc.value.diagnostic.path == "bad.json"


@pytest.fixture
def dataset(tmp_path):
    """A description directory ``root/set``, whose dataset root is ``root``, beside ``outside.json``."""
    base = tmp_path / "root" / "set"
    base.mkdir(parents=True)
    (tmp_path / "root" / "defs").mkdir()
    for file in (tmp_path / "outside.json", tmp_path / "root" / "defs" / "s.json"):
        file.write_text('{"samples": [1]}')
    return base


@pytest.mark.parametrize(
    "name",
    ["../../outside.json", "../../missing.json", "../../root/../outside.json", "OUTSIDE", "OUTSIDE-MISSING"],
)
def test_an_external_file_outside_the_dataset_root_is_a_path_escape(dataset, name):
    name = {"OUTSIDE": str(dataset.parent.parent / "outside.json"), "OUTSIDE-MISSING": "/no/such/file.json"}.get(name, name)
    with pytest.raises(DsdlError) as exc:
        load_external_samples(name, dataset)
    assert (exc.value.code, exc.value.diagnostic.path) == ("PATH_ESCAPE", echo(name))
    assert exc.value.diagnostic.message == f"external data file {name!r} traverses above the dataset root"


def test_an_external_file_anywhere_below_the_dataset_root_is_read(dataset):
    (dataset / "link.json").symlink_to(dataset.parent / "defs" / "s.json")
    for name in ("../defs/s.json", "link.json", str(dataset.parent / "defs" / "s.json"), "./../set/../defs/s.json"):
        assert load_external_samples(name, dataset) == [1]


def test_a_symlink_out_of_the_dataset_root_is_a_path_escape(dataset):
    (dataset / "link.json").symlink_to(dataset.parent.parent / "outside.json")
    (dataset.parent / "up").symlink_to(dataset.parent.parent, target_is_directory=True)
    for name in ("link.json", "../up/outside.json"):
        with pytest.raises(DsdlError) as exc:
            load_external_samples(name, dataset)
        assert (exc.value.code, exc.value.diagnostic.path) == ("PATH_ESCAPE", name)


def test_a_symlink_loop_or_a_nul_in_an_external_file_name_is_file_not_found(dataset):
    (dataset / "loop.json").symlink_to(dataset / "loop.json")
    for name in ("loop.json", "a\x00b.json"):
        with pytest.raises(DsdlError) as exc:
            load_external_samples(name, dataset)
        assert (exc.value.code, exc.value.diagnostic.path) == ("FILE_NOT_FOUND", echo(name))
        assert exc.value.diagnostic.message.startswith(f"cannot read external data file {echo(str(dataset / name))}: ")


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


_INLINE_INFO = (
    '$dsdl-version: "0.5.0"\n'
    "defs:\n"
    "  D: {$def: class_domain, classes: [a, b]}\n"
    '  Info: {$def: struct, $fields: {count: Int, label: "Label[dom=D]"}}\n'
    "data:\n  sample-type: Label[dom=D]\n  samples: [a]\n"
)


@pytest.mark.parametrize(
    "info, expected",
    [
        ("{count: 2, label: b}", []),
        ("{count: two, label: b}", [("TYPE_MISMATCH", "global-info/count", "expected an integer, got string")]),
    ],
    ids=["valid", "mismatch"],
)
def test_inline_global_info_is_validated(library_env, info, expected):
    from dsdl import parse_document, resolve_schema

    doc = parse_document(_INLINE_INFO + f"  global-info-type: Info\n  global-info: {info}\n", format="yaml")
    schema, diags = resolve_schema(doc, library_env)
    assert diags == []
    built = validate_dataset(schema, doc.data)
    assert [(d.code, d.path, d.message) for d in built.diagnostics] == expected
    assert isinstance(built.global_info, Record)
    assert built.global_info.values["label"] == ClassRef("D", (2,), "b")
    checked = validate_dataset(schema, doc.data, build=False)
    assert checked.to_jsonable() == built.to_jsonable()
    assert checked.global_info is None


@pytest.mark.parametrize("channel", ["global-info: {count: 2}", "global-info-path: info.json"])
def test_global_info_without_its_type_stops_resolution(library_env, channel):
    from dsdl import parse_document, resolve_schema

    doc = parse_document(_INLINE_INFO + f"  {channel}\n", format="yaml")
    schema, diags = resolve_schema(doc, library_env)
    assert schema is None
    assert [(d.severity, d.code, d.path, d.message) for d in diags] == [
        (Severity.ERROR, "MALFORMED_DATA_SECTION", "data/global-info-type", "global-info is present but global-info-type is not")
    ]


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


def test_a_type_compiles_once_over_many_calls(registry, monkeypatch):
    from dsdl import validation

    compiled = []

    def counting(node, build=True):
        compiled.append(node)
        return compile_node(node, build)

    compile_node = validation._compile
    monkeypatch.setattr(validation, "_compile", counting)
    sample = ctype(registry, "Sample")
    raw = {"image": {"$loc": "a.jpg", "$extra": 1}, "label": "dog", "extra": 2}
    first = validate_value(raw, sample, "v", strict=True)
    nodes = len(compiled)
    assert nodes == 3  # the struct and its two fields
    second = validate_value(raw, sample, "v", strict=True)
    assert len(compiled) == nodes
    assert first == second and len(first[1]) == 2
    assert sample == ctype(registry, "Sample") and repr(sample) == repr(ctype(registry, "Sample"))


def test_a_failing_value_builds_one_diagnostic(registry, monkeypatch):
    from dsdl import validation

    built = []
    make = validation.error

    def counting(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(validation, "error", counting)
    for spec, raw in (("Bool", 1), ("BBox", [0, 0, -1, 1])):
        built.clear()
        _, diags = validate_value(raw, ctype(registry, spec), "v")
        assert len(built) == len(diags) == 1, spec


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_BIG = 10**_DIGIT_LIMIT  # one digit past the limit, which ``str`` refuses
_DIGITS = "1" * (_DIGIT_LIMIT + 1)


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this Python has no int-to-string digit limit")
@pytest.mark.parametrize(
    "spec, raw, code",
    [
        ("InstanceID", _BIG, "RANGE"),
        ("UniqueID", -_BIG, "RANGE"),
        ("Interval", [_BIG, 1], "RANGE"),
        ("BBox", [0, 0, -_BIG, 1], "RANGE"),
        ("ImageShape", [1, -_BIG], "RANGE"),
        ('RotatedBBox[mode="xywht"]', [0, 0, 1, 1, _BIG], "RANGE"),
        ("Label[dom=MyClassDom]", _BIG, "CLASS_INDEX_RANGE"),
        ("Label[dom=MyClassDom]", _DIGITS, "CLASS_INDEX_RANGE"),
        ("Label[dom=MyClassDom]", f"1.{_DIGITS}", "CLASS_INDEX_RANGE"),
        ("Label[dom=MyClassDom]", f"MyClassDom[{_DIGITS}]", "CLASS_INDEX_RANGE"),
    ],
    ids=["id", "unique-id", "interval", "bbox", "image-shape", "rotated-bbox", "index", "digits", "index-path", "dom-index"],
)
def test_an_integer_past_the_digit_limit_is_a_coded_finding(registry, spec, raw, code):
    value, diags = validate_value(raw, ctype(registry, spec), "v")
    assert value is None
    assert [(d.severity, d.code, d.path) for d in diags] == [(Severity.ERROR, code, "v")]
    assert "too many digits" in diags[0].message


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this Python has no int-to-string digit limit")
def test_a_class_index_past_the_digit_limit_is_a_lookup_error(registry):
    assert validate_label(f"D[{_DIGITS}]", None, "v")[1][0].code == "CLASS_INDEX_RANGE"
    with pytest.raises(DsdlError, match="too many digits") as raised:
        lookup_class(registry.get("MyClassDom"), _BIG)
    assert raised.value.code == "CLASS_INDEX_RANGE"


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this Python has no int-to-string digit limit")
@pytest.mark.parametrize(
    "spec, raw, shown, message",
    [
        ("Sample", {"image": "a.png", "label": "cat", _BIG: 2}, "<integer with too many digits>", "field {} is not declared on Sample"),
        ("Image", {"$loc": "a.png", -_BIG: 1}, "-<integer with too many digits>", "unexpected key {} in Image mapping"),
    ],
    ids=["struct", "media"],
)
def test_an_undeclared_key_past_the_digit_limit_is_a_warning(registry, spec, raw, shown, message):
    value, diags = validate_value(raw, ctype(registry, spec), "v")
    assert value is not None
    assert [(d.severity, d.code, d.path, d.message) for d in diags] == [
        (Severity.WARNING, "FIELD_UNKNOWN", f"v/{shown}", message.format(shown))
    ]


# -- compiled closures against the per-component checkers -------------------------------------


class _Float(float):
    pass


class _Int(int):
    pass


def _label_checker(raw, ctype, path, diags):
    ref, found = validate_label(raw, ctype.arg("dom"), path)
    diags.extend(found)
    return ref


def _differential_types():
    """Each builtin type, with the per-component checker that its compiled
    closure must agree with."""
    import _shape_oracle as v

    registry, _ = build_definitions(
        {
            # names that also read as an index path or a qualified label
            "D": {"$def": "class_domain", "classes": ["dog", "cat", "2", "x::y", "a.b", "\u0663"]},
            "K": {"$def": "class_domain", "classes": ["p", "q"]},
        }
    )
    checkers = {
        "Bool": v._check_bool,
        "Int": v._check_int,
        "Num": v._check_num,
        "Str": v._check_str,
        "Coord": v._check_coord,
        "Coord3D": v._check_coord,
        "Interval": v._check_interval,
        "BBox": v._check_bbox,
        "Polygon": v._check_polygon,
        "Date": v._check_datetime,
        'Time[fmt="%H:%M"]': v._check_datetime,
        "Label[dom=D]": _label_checker,
        "Image": v._check_media,
        "Text": v._check_media,
        "Keypoint[dom=K]": v._check_keypoint,
        'RotatedBBox[mode="xywht", measure="degree"]': v._check_rotated_bbox,
        'RotatedBBox[mode="xyxy"]': v._check_rotated_bbox,
        "InstanceID": v._check_id,
        "UniqueID": v._check_id,
        "ImageShape": v._check_image_shape,
    }
    return [(ctype(registry, spec), checker) for spec, checker in checkers.items()]


_DIFFERENTIAL_TYPES = _differential_types()
_FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e308, 5e-324])
_NUMBERS = st.one_of(
    st.integers(-3, 700),
    st.sampled_from([10**400, -(10**400), True, False]),
    _FLOATS,
    _FLOATS.map(_Float),
    st.integers().map(_Int),
)
_WORDS = st.sampled_from(
    ["dog", "2", "7", "1.1", "\u0663", "x::y", "D::dog", "D::x::y", "D[2]", "D[9]", "E::dog", "a.b", "b", "",
     "2024-02-29", "2024-13-01", "12:30", "12:30:00", "img/a.png", "$bad", "::d::1"]
)
_VALUES = st.recursive(
    st.one_of(st.none(), _NUMBERS, _WORDS, st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=9),
        st.dictionaries(st.sampled_from(["$loc", "$descr", "x"]), inner, max_size=3),
    ),
    max_leaves=12,
)
# lists of short number lists: polygon rings and near misses
_POINTS = st.lists(st.lists(_NUMBERS, min_size=1, max_size=3), max_size=5)


def test_differential_types_cover_every_builtin_shape():
    from dsdl.schema import BUILTINS

    shapes = {t.shape for t, _ in _DIFFERENTIAL_TYPES}
    assert shapes | {"list"} == {s.shape for s in BUILTINS.values()}


@settings(max_examples=300, deadline=None)
@given(_VALUES | st.lists(_NUMBERS, max_size=9) | _POINTS | st.lists(_POINTS, max_size=3))
@example([0, math.inf, 1, 1])
@example([0, 0, -0.0, 10**400])
@example([0, 0, math.nan, 1])
@example([_Float(1.0), 2, 3, 4])
@example([True, 2, 3, 4])
@example([1, 2, 3])
@example([640, 480])
@example([640.0, 480])
@example([10**400, 1])
@example([[0, 0], [1, 0], [1, math.inf]])
# each way out of the Polygon fast path, and an int it accepts
@example([[0, 0], [True, 0], [1, 1]])
@example([[0, 0], [1, 0], [1, _Float(1.0)]])
@example([[0, 0], [math.nan, 0], [1, 1]])
@example([[0, 0], [1, 0], [-math.inf, 1]])
@example([[0, 0], [1, 0]])
@example([[0, 0], [1, 0, 2], [1, 1]])
@example([[[0, 0], [1, 0], [1, 1]], [[0, 0], [2, 0], [2, 2]]])
@example([[0, 0], [1, 0], [10**400, 1]])
@example(_Float("inf"))
@example(10**400)
@example(True)
@example("D[2]")
@example("\u0663")
@example({"$loc": "a.png", "$descr": {"k": 1}, "x": 2})
def test_compiled_closures_match_per_component_checkers(raw):
    """Each closure, fast path or not, gives its checker's value and findings,
    at the top and at a list item's path."""

    def findings(diags):
        return [(d.severity, d.code, d.path, d.message) for d in diags]

    for ct, checker in _DIFFERENTIAL_TYPES:
        expected_diags = []
        expected = checker(raw, ct, "v", expected_diags)
        value, diags = validate_value(raw, ct, "v")
        assert (value, findings(diags)) == (expected, findings(expected_diags)), ct.describe()

        items = [raw, raw]
        expected_diags = []
        expected = [checker(item, ct, f"v/{i}", expected_diags) for i, item in enumerate(items)]
        listed = ConcreteType("List", "list", {"etype": ct})
        value, diags = validate_value(items, listed, "v")
        assert (value, findings(diags)) == (expected, findings(expected_diags)), ct.describe()


@settings(max_examples=300, deadline=None)
@given(_VALUES | st.lists(_NUMBERS, max_size=9))
@example([0, 0, 1, 1])
@example([640, 480])
@example([1, 2])
@example([0, 0, 1, 1, 30])
@example([0.0] * 6)
@example({"$loc": "a.png", "$descr": {"k": 1}, "x": 2})
@example("img/a.png")
def test_check_only_closures_match_building_closures(raw):
    """The check-only closure of each type gives the building closure's
    findings, and None exactly where it gives None, at the top and at a
    list item's path."""
    from dsdl.validation import _checker, _Tally

    def run(ct, build):
        diags = _Tally()
        value = _checker(ct, build)(raw, None, "v", diags)
        return value is None, [(d.severity, d.code, d.path, d.message) for d in diags]

    for ct, _ in _DIFFERENTIAL_TYPES:
        listed = ConcreteType("List", "list", {"etype": ct})
        for node in (ct, listed):
            assert run(node, False) == run(node, True), node.describe()
        items = [raw, raw]
        assert _checker(listed, False)(items, None, "v", _Tally()) is items


def test_each_shape_is_one_closure_in_both_modes(registry):
    """The building and the check-only closure of a node run the same code."""
    from dsdl.validation import _checker

    nodes = [ct for ct, _ in _DIFFERENTIAL_TYPES]
    nodes += [ConcreteType("List", "list", {"etype": ct}) for ct in nodes]
    nodes.append(ctype(registry, "Sample"))
    for node in nodes:
        assert _checker(node, True).__code__ is _checker(node, False).__code__, node.describe()


def test_check_only_dataset_matches_building_dataset():
    """Every corpus description, with each CLI flag set: ``build=False``
    gives the building run's count, findings and truncation, and keeps no
    value. Without ``max_errors``, ``iter_samples`` yields the building
    run's values and, in order, the findings of its sample channel."""
    from conftest import CORPUS_FILES, load_corpus_doc
    from dsdl import LibraryEnvironment, RawDataSection, resolve_schema

    for rel in CORPUS_FILES:
        doc, path = load_corpus_doc(rel)
        schema, _ = resolve_schema(doc, LibraryEnvironment.from_environment(), source=path)
        for flags in ({}, {"strict": True}, {"max_errors": 1}):
            built = validate_dataset(schema, doc.data, base=path.parent, **flags)
            checked = validate_dataset(schema, doc.data, base=path.parent, build=False, **flags)
            assert checked.to_jsonable() == built.to_jsonable(), (rel, flags)
            assert (checked.samples, checked.global_info) == ([], None)
            assert built.sample_count == len(built.samples) > 0
            if "max_errors" in flags:
                continue
            # the same section without its global-info channel
            samples_only = RawDataSection(doc.data.sample_type, doc.data.sample_path, doc.data.samples)
            channel = validate_dataset(schema, samples_only, base=path.parent, **flags).diagnostics
            yielded = list(iter_samples(schema, doc.data, base=path.parent, **flags))
            assert [index for index, _, _ in yielded] == list(range(built.sample_count)), (rel, flags)
            assert [value for _, value, _ in yielded] == built.samples, (rel, flags)
            assert [d for _, _, found in yielded for d in found] == channel, (rel, flags)


# -- hand-built data sections ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "section, yaml_data, code, path, message",
    [
        (
            {"sample_type": "S", "sample_path": 5},
            "  sample-type: S\n  sample-path: 5\n",
            "MALFORMED_DATA_SECTION", "data/sample-path", "sample-path must be a string",
        ),
        (
            {"sample_type": "S", "samples": [{"n": 1}], "global_info_path": 7},
            "  sample-type: S\n  samples: [{n: 1}]\n  global-info-path: 7\n",
            "MALFORMED_DATA_SECTION", "data/global-info-path", "global-info-path must be a string",
        ),
        (
            {"sample_type": "S", "samples": [{"n": 1}], "global_info_path": "$local"},
            "  sample-type: S\n  samples: [{n: 1}]\n  global-info-path: $local\n",
            "MALFORMED_DATA_SECTION", "data/global-info", "global-info-path is $local but no global-info is present",
        ),
        (
            {"sample_type": "S", "sample_path": "$local", "samples": "abc"},
            "  sample-type: S\n  samples: abc\n",
            "MALFORMED_SAMPLES", "data/samples", "samples must be a list",
        ),
    ],
    ids=["sample-path", "global-info-path", "global-info-local", "samples"],
)
def test_a_hand_built_data_section_gives_the_parsed_finding(library_env, section, yaml_data, code, path, message):
    from dsdl import RawDataSection, parse_document, resolve_schema
    from dsdl.diagnostics import DocumentError

    head = '$dsdl-version: "0.5.0"\ndefs:\n  S:\n    $def: struct\n    $fields: {n: Int}\n'
    with pytest.raises(DocumentError) as parsed:
        parse_document(head + "data:\n" + yaml_data, format="yaml")
    assert (parsed.value.code, parsed.value.diagnostic.path, parsed.value.diagnostic.message) == (code, path, message)
    doc = parse_document(head + "data:\n  sample-type: S\n  samples: []\n", format="yaml")
    schema, _ = resolve_schema(doc, library_env)
    for build in (True, False):
        report = validate_dataset(schema, RawDataSection(**section), build=build)
        assert [(d.severity, d.code, d.path, d.message) for d in report.diagnostics] == [
            (Severity.ERROR, code, path, message)
        ]
        assert report.sample_count == 0
    # iter_samples raises that finding before it yields anything
    samples = iter_samples(schema, RawDataSection(**section))
    with pytest.raises(DocumentError) as raised:
        next(samples)
    assert raised.value.diagnostic == report.diagnostics[0]
    assert list(samples) == []


def test_a_data_section_of_another_type_is_a_type_error(library_env):
    """``data`` is a ``RawDataSection`` or ``None``; anything else, an empty
    string included, is refused before any sample, not read as no data."""
    from dsdl import parse_document, resolve_schema, summarize_dataset

    doc = parse_document('$dsdl-version: "0.5.0"\ndefs:\n  S:\n    $def: struct\n    $fields: {n: Int}\n'
                         "data:\n  sample-type: S\n  samples: [{n: 1}]\n", format="yaml")
    schema, _ = resolve_schema(doc, library_env)
    calls = (validate_dataset, lambda *args: validate_dataset(*args, build=False), summarize_dataset,
             lambda *args: list(iter_samples(*args)))
    for data in ("", "x", {"samples": []}, 0):
        for call in calls:
            with pytest.raises(TypeError, match="data must be a RawDataSection or None, not "):
                call(schema, data)
    assert validate_dataset(schema, None).sample_count == 0


def test_a_schema_or_type_of_another_type_is_a_type_error(library_env):
    """The ``None`` schema of a failed resolution, or anything else that is no
    schema, is refused by each dataset function; no type, by ``validate_value``."""
    from dsdl import parse_document, resolve_schema, summarize_dataset

    doc = parse_document('$dsdl-version: "0.5.0"\ndata:\n  sample-type: Nothing\n  samples: [1]\n', format="yaml")
    schema, diags = resolve_schema(doc, library_env)
    assert (schema, [d.code for d in diags]) == (None, ["UNKNOWN_TYPE"])
    calls = (validate_dataset, lambda *args: validate_dataset(*args, build=False), summarize_dataset,
             lambda *args: next(iter_samples(*args)))
    for bad in (schema, "S", doc):
        for data in (doc.data, None):
            for call in calls:
                with pytest.raises(TypeError, match="schema must be a ResolvedSchema, not "):
                    call(bad, data)
    for ctype in ("Int", None, parse_type_expression("Int")):
        with pytest.raises(TypeError, match=r"validate_value\(\) ctype must be a ConcreteType, not "):
            validate_value(1, ctype)


# -- paths ---------------------------------------------------------------------------------------


def test_clean_data_formats_no_path(monkeypatch, tmp_path):
    """A run with no finding joins no path, building or not: the benchmark's
    json-detect and labels-scale workloads at their tiny size, and every
    corpus file whose validation has no findings."""
    from conftest import CORPUS_FILES, load_corpus_doc, load_perfbench
    from dsdl import LibraryEnvironment, parse_document, resolve_schema, validation

    gen, runs = load_perfbench("gen"), []
    for workload in ("json-detect", "labels-scale"):
        manifest = gen.generate(workload, 1, tmp_path / workload, size="tiny")
        desc = tmp_path / workload / manifest["description"]
        doc = parse_document(desc.read_text(encoding="utf-8"), format=manifest["format"], source=str(desc))
        runs.append((workload, doc, desc))
    runs += [(rel, *load_corpus_doc(rel)) for rel in CORPUS_FILES]
    joined, join = [], validation._path
    monkeypatch.setattr(validation, "_path", lambda parent, key: joined.append(key) or join(parent, key))
    clean = []
    for name, doc, path in runs:
        schema, _ = resolve_schema(doc, LibraryEnvironment.from_environment(), source=path)
        for build in (True, False):
            joined.clear()
            report = validate_dataset(schema, doc.data, base=path.parent, build=build)
            if not report.diagnostics:
                assert (joined, report.sample_count > 0) == ([], True), (name, build)
                clean.append(name)
    assert clean[:4] == ["json-detect", "json-detect", "labels-scale", "labels-scale"]
    assert len(clean) >= len(CORPUS_FILES)  # at least half the corpus, in both modes


def test_a_deep_chain_joins_without_recursion():
    from dsdl.validation import _path

    chain = None
    for i in range(10_000):
        chain = (chain, i)
    assert _path(chain, "x") == "/".join(map(str, range(10_000))) + "/x"
    assert _path(None, "top") == "top" and _path((None, ""), 0) == "/0"


_STEP = st.one_of(
    st.tuples(st.just("list"), st.integers(0, 2)),
    st.tuples(st.just("struct"), st.text(alphabet="ab_$. /0", min_size=1, max_size=4)),
)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(_STEP, max_size=100 - 1),
    leaf=st.sampled_from(["Int", "BBox"]),
    top=st.text(alphabet="ab/ 0", max_size=4),
)
def test_a_bad_leaf_is_found_at_the_path_of_its_keys(steps, leaf, top):
    """Nested List and struct types, up to MAX_TYPE_DEPTH nodes deep, with one
    bad leaf: the one finding is at the path that the keys walked down to the
    leaf give, through ``validate_value`` and through ``validate_dataset``."""
    from dsdl import RawDataSection
    from dsdl.resolver import ResolvedSchema
    from dsdl.schema import DefinitionRegistry
    from dsdl.typeexpr import MAX_TYPE_DEPTH

    assert len(steps) < MAX_TYPE_DEPTH
    if leaf == "Int":
        node, good, bad, below = ConcreteType("Int", "int"), 1, "x", []
    else:  # a bad component is one key further down
        node, good, bad, below = ConcreteType("BBox", "bbox"), [0, 0, 1, 1], [0, 0, "w", 1], ["2"]
    keys = []
    for depth, (kind, key) in enumerate(reversed(steps)):
        if kind == "list":  # a good list is empty, so no value is checked twice over
            node = ConcreteType("List", "list", {"etype": node})
            good, bad = [], [good] * key + [bad] + [good]
        else:
            node = ConcreteType(f"S{depth}", "struct", {}, {key: node})
            good, bad = {key: good}, {key: bad}
        keys.insert(0, str(key))
    expected = "/".join([top, *keys, *below])
    if not top and steps and steps[0][0] == "struct":  # a record at the empty path holds its fields at their bare names
        expected = expected[1:]
    _, diags = validate_value(bad, node, top)
    assert [(d.code, d.path) for d in diags] == [("TYPE_MISMATCH", expected)]
    schema = ResolvedSchema(node, None, DefinitionRegistry(), {})
    data = RawDataSection(sample_type=node.head, sample_path="$local", samples=[good, bad])
    for build in (True, False):
        report = validate_dataset(schema, data, build=build)
        assert [(d.code, d.path) for d in report.diagnostics] == [
            ("TYPE_MISMATCH", "/".join(["samples", "1", *keys, *below]))
        ]


@pytest.mark.parametrize("key", [("a", "b"), (None, "x"), ((None, "v"), 0)], ids=["pair", "top-pair", "nested-pair"])
def test_an_undeclared_tuple_key_is_one_key_of_its_path(registry, key):
    """A mapping key that is a tuple, as a YAML complex key reads, prints as
    it always has: a chain node is a pair too, but a key is never unpacked."""
    from dsdl import RawDataSection
    from dsdl.resolver import ResolvedSchema
    from dsdl.schema import DefinitionRegistry

    listed = ctype(registry, "List[etype=Sample]")
    raw = {"image": {"$loc": "a.jpg", key: 2}, "label": "cat", key: 1}
    expected = [
        ("FIELD_UNKNOWN", f"v/0/image/{key}", f"unexpected key {key!r} in Image mapping"),
        ("FIELD_UNKNOWN", f"v/0/{key}", f"field {key!r} is not declared on Sample"),
    ]
    _, diags = validate_value([raw], listed, "v")
    assert [(d.code, d.path, d.message) for d in diags] == expected
    schema = ResolvedSchema(listed.arg("etype"), None, DefinitionRegistry(), {})
    report = validate_dataset(schema, RawDataSection(sample_type="Sample", sample_path="$local", samples=[raw]))
    assert [(d.code, d.path, d.message) for d in report.diagnostics] == [
        (code, path.replace("v/0", "samples/0"), message) for code, path, message in expected
    ]


def test_a_label_seen_before_costs_no_lookup_and_places_nothing_whatever_its_domains_size(monkeypatch):
    """README: once the tables that a lookup reads are built, the cost of a label
    does not depend on the size of its domain. Validating the same class texts and
    indices again, after their refs' index paths were read, calls ``validate_label``
    0 times and places no more names, on a 20-, a 1k- and a 10k-class (dotted) domain."""
    import json

    from dsdl import LibraryEnvironment, parse_document, resolve_schema
    from dsdl import validation

    sizes = {"D20": 20, "D1k": 1000, "D10k": 10000}
    classes = {
        name: [f"g{i // 100}.s{i // 10 % 10}.c{i % 10}" if n == 10000 else f"c{i}" for i in range(n)]
        for name, n in sizes.items()
    }
    defs = {name: {"$def": "class_domain", "classes": names} for name, names in classes.items()}
    defs["S"] = {"$def": "struct", "$fields": {name: f"List[etype=Label[dom={name}]]" for name in sizes}}
    sample = {
        name: [names[0], names[n // 2], names[-1], 1, n // 3, n] for (name, names), n in zip(classes.items(), sizes.values())
    }
    text = json.dumps({"$dsdl-version": "0.5.0", "defs": defs, "data": {"sample-type": "S", "samples": [sample]}})
    doc = parse_document(text, format="json")
    schema, diags = resolve_schema(doc, LibraryEnvironment(()))
    assert diags == []
    record = validate_dataset(schema, doc.data).samples[0]
    for name, n in sizes.items():
        paths = [ref.index_path for ref in record[name]]
        assert paths[-1] == ((n,) if n < 10000 else (100, 10, 10))
    domains = [schema.registry.get(name) for name in sizes]
    placed = [dom.placement.placed for dom in domains]

    calls = []
    looked_up = validation.validate_label
    monkeypatch.setattr(validation, "validate_label", lambda *a: calls.append(a) or looked_up(*a))
    for build in (True, False):
        report = validate_dataset(schema, doc.data, build=build)
        assert (report.diagnostics, report.sample_count) == ([], 1)
    assert calls == []
    assert [dom.placement.placed for dom in domains] == placed
