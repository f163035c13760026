"""Object locators: parsing, resolution, media class registry."""

import io

import pytest

from dsdl import (
    MediaClassRegistry,
    ResolutionEnvironment,
    load_object,
    parse_locator,
    resolve_locator,
)
from dsdl.diagnostics import DsdlError, LocatorError, Severity
from dsdl.locator import AliasPath, LoadedMedia, ObjectId, RelativePath


# -- parsing ---------------------------------------------------------------


def test_relative_path_form():
    loc = parse_locator("abc/001.jpg")
    assert loc == RelativePath("abc/001.jpg", "abc/001.jpg")
    assert loc.kind == "relative"


def test_alias_path_form():
    loc = parse_locator("$mydir1/abc/001.jpg")
    assert loc == AliasPath("mydir1", "abc/001.jpg", "$mydir1/abc/001.jpg")


def test_object_id_form():
    loc = parse_locator("::cuhk.ie::abcd1234xyz")
    assert loc == ObjectId("cuhk.ie", "abcd1234xyz", "::cuhk.ie::abcd1234xyz")


@pytest.mark.parametrize("bad", ["", "$name", "$name/", "$/x", "::a::", "::::x", "::a", "::"])
def test_malformed_locators(bad):
    with pytest.raises(LocatorError) as exc:
        parse_locator(bad)
    assert exc.value.code == "LOC_SYNTAX"


def test_parse_preserves_original_text():
    assert parse_locator("a\\b/c.jpg").text == "a\\b/c.jpg"


def test_reparsing_original_text_preserves_variant():
    for text in ("abc/001.jpg", "$mydir1/abc/001.jpg", "::cuhk.ie::abcd1234xyz"):
        loc = parse_locator(text)
        assert parse_locator(loc.text) == loc


# -- resolution ----------------------------------------------------------------


def test_relative_resolution_joins_data_root():
    env = ResolutionEnvironment(data_root="/data")
    assert resolve_locator(parse_locator("abc/001.jpg"), env) == "/data/abc/001.jpg"


def test_alias_resolution():
    env = ResolutionEnvironment(aliases={"mydir1": "/mnt/x"})
    # oracle: plain string concatenation with separator normalization
    assert resolve_locator(parse_locator("$mydir1/abc/001.jpg"), env) == "/mnt/x/abc/001.jpg"


def test_object_id_resolution_through_mapper():
    table = {("cuhk.ie", "abcd1234xyz"): "s3://bucket/k"}
    env = ResolutionEnvironment(id_mapper=lambda d, i: table.get((d, i)))
    assert resolve_locator(parse_locator("::cuhk.ie::abcd1234xyz"), env) == "s3://bucket/k"


def test_alias_undefined():
    with pytest.raises(LocatorError) as exc:
        resolve_locator(parse_locator("$m/x.jpg"), ResolutionEnvironment())
    assert exc.value.code == "ALIAS_UNDEFINED"


def test_missing_mapper_and_unknown_id():
    with pytest.raises(LocatorError) as exc:
        resolve_locator(parse_locator("::d::i"), ResolutionEnvironment())
    assert exc.value.code == "ID_MAPPER_MISSING"
    env = ResolutionEnvironment(id_mapper=lambda d, i: None)
    with pytest.raises(LocatorError) as exc:
        resolve_locator(parse_locator("::d::i"), env)
    assert exc.value.code == "ID_NOT_FOUND"


def test_missing_data_root():
    with pytest.raises(LocatorError) as exc:
        resolve_locator(parse_locator("x.jpg"), ResolutionEnvironment())
    assert exc.value.code == "DATA_ROOT_UNSET"


def test_parent_traversal_is_rejected():
    env = ResolutionEnvironment(data_root="/data")
    with pytest.raises(LocatorError) as exc:
        resolve_locator(parse_locator("a/../../etc/passwd"), env)
    assert exc.value.code == "PATH_ESCAPE"


def test_resolution_against_what_is_not_an_environment_is_a_type_error():
    for env in (None, {"data_root": "/data"}):
        with pytest.raises(TypeError, match="env must be a ResolutionEnvironment, not "):
            resolve_locator(parse_locator("x.jpg"), env)


def test_windows_separators_normalize_in_locator_only():
    env = ResolutionEnvironment(data_root="/data")
    assert resolve_locator(parse_locator("a\\b\\c.jpg"), env) == "/data/a/b/c.jpg"


def test_resolution_is_pure():
    env = ResolutionEnvironment(data_root="/data")
    loc = parse_locator("abc/001.jpg")
    assert resolve_locator(loc, env) == resolve_locator(loc, env)


def test_alias_precedence_flag_beats_env():
    env = ResolutionEnvironment.from_sources(
        cli_aliases={"m": "/from-flag"},
        config_aliases={"m": "/from-config"},
        environ={"DSDL_ALIAS_m": "/from-env"},
    )
    assert env.aliases["m"] == "/from-flag"
    env = ResolutionEnvironment.from_sources(
        config_aliases={"m": "/from-config"},
        environ={"DSDL_ALIAS_m": "/from-env"},
    )
    assert env.aliases["m"] == "/from-config"
    env = ResolutionEnvironment.from_sources(environ={"DSDL_ALIAS_m": "/from-env"})
    assert env.aliases["m"] == "/from-env"


# -- media class registry ---------------------------------------------------------


def test_builtin_media_classes_preregistered():
    registry = MediaClassRegistry()
    for name in ("Image", "Video", "Audio", "Text", "PointCloud", "LabelMap", "InstanceMap"):
        assert name in registry


def test_builtin_media_classes_are_the_media_and_text_shapes():
    from dsdl.schema import BUILTINS

    expected = tuple(name for name, sig in BUILTINS.items() if sig.shape in ("media", "text"))
    assert MediaClassRegistry().names() == expected
    assert set(expected) == {"Image", "Video", "Audio", "Text", "PointCloud", "LabelMap", "InstanceMap"}
    warning = MediaClassRegistry().register("Text", lambda reader, descr: None)
    assert warning is not None and warning.code == "MEDIA_OVERRIDE"


def test_register_new_class():
    registry = MediaClassRegistry()
    warning = registry.register("PointCloudV2", lambda reader, descr: reader.read())
    assert warning is None
    assert "PointCloudV2" in registry
    assert registry.extension_names() == ("PointCloudV2",)


def test_register_existing_class_warns():
    registry = MediaClassRegistry()
    warning = registry.register("Image", lambda reader, descr: None)
    assert warning is not None
    assert warning.code == "MEDIA_OVERRIDE"
    assert warning.severity is Severity.WARNING


def test_register_non_media_builtin_conflicts():
    registry = MediaClassRegistry()
    with pytest.raises(DsdlError) as exc:
        registry.register("Int", lambda reader, descr: None)
    assert exc.value.code == "REGISTER_CONFLICT"


def test_frozen_registry_rejects_registration():
    registry = MediaClassRegistry()
    registry.freeze()
    with pytest.raises(DsdlError):
        registry.register("X", lambda reader, descr: None)


def test_extension_class_usable_in_fields(library_env):
    from dsdl import parse_document, resolve_schema, validate_dataset

    registry = MediaClassRegistry()
    registry.register("PointCloudV2", lambda reader, descr: reader.read())
    text = (
        '$dsdl-version: "0.5.0"\n'
        "defs:\n  S:\n    $def: struct\n    $fields: {cloud: PointCloudV2}\n"
        "data:\n  sample-type: S\n  samples:\n    - {cloud: pc/0001.bin}\n"
    )
    doc = parse_document(text, format="yaml")
    schema, diags = resolve_schema(
        doc, library_env, media_extensions=registry.extension_names()
    )
    assert diags == []
    report = validate_dataset(schema, doc.data)
    assert report.diagnostics == []
    assert report.samples[0].values["cloud"].class_name == "PointCloudV2"


def test_an_extension_class_takes_no_arguments(library_env):
    from dsdl import parse_document, resolve_schema

    registry = MediaClassRegistry()
    registry.register("Mesh", lambda reader, descr: reader.read())
    doc = parse_document('$dsdl-version: "0.5.0"\ndata:\n  sample-type: "Mesh[x=1]"\n  samples: []\n', format="yaml")
    schema, diags = resolve_schema(doc, library_env, media_extensions=registry.extension_names())
    assert schema is None
    assert [(d.code, d.path, d.message) for d in diags] == [("EXTRA_PARAM", "data/sample-type", "Mesh takes no arguments")]


# -- object loading ----------------------------------------------------------------


class _Instrumented:
    def __init__(self):
        self.calls = []

    def load(self, reader, descr):
        # the contract: an already-open reader, never an address
        assert hasattr(reader, "read")
        payload = reader.read()
        self.calls.append((payload, descr))
        return LoadedMedia(payload, descr)


def test_load_object_passes_open_reader_exactly_once():
    registry = MediaClassRegistry()
    loader = _Instrumented()
    registry.register("Image", loader)
    opened = []

    def provider(address):
        opened.append(address)
        return io.BytesIO(b"pixels:" + address.encode())

    env = ResolutionEnvironment(data_root="/d")
    out = load_object("Image", "abc/0001.jpg", {"size": [640, 480]}, env, provider, registry)
    assert opened == ["/d/abc/0001.jpg"]
    assert len(loader.calls) == 1
    assert out.payload == b"pixels:/d/abc/0001.jpg"
    assert out.descr == {"size": [640, 480]}


def test_load_object_unknown_class():
    env = ResolutionEnvironment(data_root="/d")
    with pytest.raises(DsdlError) as exc:
        load_object("Hologram", "a.jpg", None, env, lambda a: io.BytesIO(), MediaClassRegistry())
    assert exc.value.code == "UNKNOWN_MEDIA_CLASS"


def test_load_object_wraps_loader_failures():
    registry = MediaClassRegistry()

    def bad_loader(reader, descr):
        raise ValueError("boom")

    registry.register("Image", bad_loader)
    env = ResolutionEnvironment(data_root="/d")
    with pytest.raises(DsdlError) as exc:
        load_object("Image", "abc/0001.jpg", None, env, lambda a: io.BytesIO(), registry)
    assert exc.value.code == "LOADER_FAILURE"
    assert "/d/abc/0001.jpg" in exc.value.diagnostic.path


def test_stub_loader_returns_payload_and_descriptor():
    registry = MediaClassRegistry()
    env = ResolutionEnvironment(data_root="/d")
    out = load_object(
        "Image", "a.jpg", {"color": "rgb"}, env, lambda a: io.BytesIO(b"data"), registry
    )
    assert out == LoadedMedia(b"data", {"color": "rgb"})
