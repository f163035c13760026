"""Description-file parsing: YAML or JSON text into a :class:`RawDocument`.

A description file has four parts: a header (``$dsdl-version``, optional
``$import``), an open ``meta`` mapping, definitions, and an optional
``data`` section. Definitions may live under a ``defs`` key or directly
at the top level (library files use the latter). Any other ``$``-prefixed
top-level key is reserved and rejected.

Parsing is pure: text in, structure out, no environment reads.
:func:`read_utf8` is the one place the other stages read a file's text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml
from yaml.composer import Composer
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.nodes import MappingNode
from yaml.resolver import Resolver

from .diagnostics import DocumentError, error

LOCAL_PATH = "$local"

_VERSION_RE = re.compile(r"0\.5(\.\w+)?")
_DEF_KEY_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)(\[(?P<parents>[^\]]+)\])?")

_KNOWN_DIRECTIVES = ("$dsdl-version", "$import")


@dataclass
class RawDataSection:
    """Unresolved ``data`` section.

    ``sample_path`` defaults to ``$local`` when samples are inline and no
    path was given; it stays ``None`` when the section carries no sample
    channel at all (e.g. global-info only).
    """

    sample_type: object = None
    sample_path: str | None = None
    samples: list | None = None
    global_info_type: object = None
    global_info_path: str | None = None
    global_info: object = None


@dataclass
class RawDocument:
    """A parsed but unresolved description or library file."""

    dsdl_version: str
    imports: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    defs: dict[str, object] = field(default_factory=dict)
    data: RawDataSection | None = None


class _DuplicateKey(Exception):
    def __init__(self, key: object, line: int | None, column: int | None):
        super().__init__(str(key))
        self.key = key
        self.line = line
        self.column = column


class _CoreSchema:
    """YAML 1.2 core-schema scalars, duplicate-key rejection and ill-typed tags.

    Mixed into both loaders, ahead of PyYAML's classes, so its resolver
    table, ``construct_object`` and ``construct_mapping`` win. The table
    drops the 1.1-only implicit resolvers (yes/no/on/off booleans,
    sexagesimal numbers). A value its explicit tag cannot read and an
    unhashable mapping key raise ``ConstructorError``, with the node's
    mark, like PyYAML's own constructor failures.
    """

    yaml_implicit_resolvers: dict = {}

    def construct_object(self, node, deep=False):
        # PyYAML's scalar constructors raise plain Python errors on a value
        # their explicit tag cannot read (``!!int x``, ``!!bool x``)
        try:
            return super().construct_object(node, deep)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            tag = node.tag.replace("tag:yaml.org,2002:", "!!")
            value = f" {node.value!r}" if isinstance(node.value, str) else ""
            raise ConstructorError(None, None, f"invalid {tag} value{value}", node.start_mark) from exc

    def construct_mapping(self, node, deep=False):
        seen = set()
        # a node that is not a mapping (``!!set a``) is left for PyYAML to reject
        for key_node, _ in node.value if isinstance(node, MappingNode) else ():
            key = self.construct_object(key_node, deep=True)
            if isinstance(key, list):
                key = tuple(key)
            try:
                duplicate = key in seen
            except TypeError:
                continue  # unhashable: PyYAML's construct_mapping reports it with its mark
            if duplicate:
                raise _DuplicateKey(key, key_node.start_mark.line + 1, key_node.start_mark.column + 1)
            seen.add(key)
        return super().construct_mapping(node, deep)


for _tag, _regexp, _first in [
    ("tag:yaml.org,2002:null", r"~|null|Null|NULL|", list("~nN") + [""]),
    ("tag:yaml.org,2002:bool", r"true|True|TRUE|false|False|FALSE", list("tTfF")),
    (
        "tag:yaml.org,2002:int",
        r"[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+",
        list("-+0123456789"),
    ),
    (
        "tag:yaml.org,2002:float",
        r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?"
        r"|[-+]?\.(inf|Inf|INF)|\.(nan|NaN|NAN)",
        list("-+0123456789."),
    ),
]:
    for _ch in _first:
        _CoreSchema.yaml_implicit_resolvers.setdefault(_ch, []).append(
            (_tag, re.compile(f"^(?:{_regexp})$"))
        )


class _CoreLoader(_CoreSchema, yaml.SafeLoader):
    """Pure-Python SafeLoader: the reference parser and the only source of YAML diagnostics."""


if yaml.__with_libyaml__:

    class _FastLoader(_CoreSchema, Composer, yaml.cyaml.CParser, SafeConstructor, Resolver):
        """libyaml's C scanner and parser feeding PyYAML's Python composer.

        The composer is the Python one, not libyaml's, because the C
        composer recurses on the C stack and a deep enough nest crashes
        the interpreter; the Python one raises ``RecursionError``.
        """

        def __init__(self, stream):
            yaml.cyaml.CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)

        def compose_scalar_node(self, anchor):
            # PyYAML's parser resolves a scalar tagged with the non-specific
            # "!" as plain even when it is empty; libyaml does not, which
            # would turn a bare "!" into '' instead of None.
            event = self.peek_event()
            if event.tag == "!":
                event.implicit = (True, False)
            return super().compose_scalar_node(anchor)

else:
    _FastLoader = _CoreLoader


# block-scalar header with a comment but no space before it ("|#")
_BLOCK_HEADER_COMMENT_RE = re.compile(r"[|>][-+0-9]*#")


def _libyaml_agrees(text: str) -> bool:
    """False for text on which libyaml is known to accept what the pure-Python loader rejects.

    That is a tab anywhere, a ``?`` anywhere (libyaml reads it
    differently inside flow collections), a byte-order mark after the
    first character and a comment glued to a block-scalar header.
    Screened-out text goes straight to the pure-Python loader.
    """
    return (
        "\t" not in text
        and "?" not in text
        and text.find("\ufeff", 1) < 0
        and not _BLOCK_HEADER_COMMENT_RE.search(text)
    )


def _load_yaml(text: str, source: str | None) -> object:
    """Load YAML ``text``, raising :class:`DocumentError` on any failure.

    Text passes first through :class:`_FastLoader` (libyaml's parser
    under PyYAML's composer and constructor) unless
    :func:`_libyaml_agrees` screens it out. If that raises anything but
    ``RecursionError``, the text is parsed again by :class:`_CoreLoader`,
    so every ``SYNTAX_ERROR`` and ``DUPLICATE_KEY`` message, line and
    column comes from the pure-Python loader whether or not PyYAML was
    built with libyaml. Nesting deeper than the composer's recursion
    allows is a ``SYNTAX_ERROR`` on both paths.
    """
    try:
        if _FastLoader is not _CoreLoader and _libyaml_agrees(text):
            try:
                return yaml.load(text, Loader=_FastLoader)
            except RecursionError:
                raise
            except Exception:
                pass  # parsed again below, so the pure-Python loader reports it
        return yaml.load(text, Loader=_CoreLoader)
    except RecursionError as exc:
        raise DocumentError(error("SYNTAX_ERROR", "", "malformed YAML: nesting is too deep", source)) from exc
    except _DuplicateKey as exc:
        raise DocumentError(
            error(
                "DUPLICATE_KEY",
                "",
                f"duplicate mapping key {exc.key!r} at line {exc.line}, column {exc.column}",
                source,
            )
        ) from exc
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise DocumentError(
            error("SYNTAX_ERROR", "", f"malformed YAML: {exc.problem or exc}{where}", source)
        ) from exc
    except yaml.YAMLError as exc:
        raise DocumentError(error("SYNTAX_ERROR", "", f"malformed YAML: {exc}", source)) from exc


def _json_pairs_hook(pairs):
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise _DuplicateKey(key, None, None)
        seen.add(key)
        out[key] = value
    return out


def _load_json(text: str, source: str | None) -> object:
    try:
        return json.loads(text, object_pairs_hook=_json_pairs_hook)
    except RecursionError as exc:
        raise DocumentError(error("SYNTAX_ERROR", "", "malformed JSON: nesting is too deep", source)) from exc
    except _DuplicateKey as exc:
        raise DocumentError(
            error("DUPLICATE_KEY", "", f"duplicate mapping key {exc.key!r}", source)
        ) from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(
            error(
                "SYNTAX_ERROR",
                "",
                f"malformed JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}",
                source,
            )
        ) from exc


def read_utf8(file: Path, path: str) -> str:
    """Read ``file`` as UTF-8 text.

    Undecodable bytes raise :class:`DocumentError` with an
    ``ENCODING_ERROR`` diagnostic located at ``path``; ``OSError``
    propagates to the caller.
    """
    try:
        return file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(
            error("ENCODING_ERROR", path, f"{file} is not valid UTF-8: {exc.reason} at byte {exc.start}", str(file))
        ) from exc


def parse_document(
    text: str,
    format: str = "auto",
    *,
    source: str | None = None,
    allow_version: bool = False,
) -> RawDocument:
    """Parse ``text`` into a :class:`RawDocument`.

    ``format`` is ``yaml``, ``json``, or ``auto`` (JSON first, then
    YAML). The JSON and YAML renderings of the same content produce
    structurally identical documents. Raises :class:`DocumentError`
    with a coded diagnostic on any fatal problem.
    """
    if format == "json":
        payload = _load_json(text, source)
    elif format == "yaml":
        payload = _load_yaml(text, source)
    elif format == "auto":
        try:
            payload = _load_json(text, source)
        except DocumentError as json_err:
            try:
                payload = _load_yaml(text, source)
            except DocumentError as yaml_err:
                raise json_err if text.lstrip()[:1] in ("{", "[") else yaml_err
    else:
        raise ValueError(f"unknown format {format!r}")

    if not isinstance(payload, dict):
        raise DocumentError(
            error("SYNTAX_ERROR", "", "document must be a mapping at the top level", source)
        )
    return _build_document(payload, source, allow_version)


def _build_document(payload: dict, source: str | None, allow_version: bool) -> RawDocument:
    version = payload.get("$dsdl-version")
    if version is None or version == "":
        raise DocumentError(
            error("VERSION_MISSING", "$dsdl-version", "missing required header $dsdl-version", source)
        )
    version = str(version)
    if not _VERSION_RE.fullmatch(version) and not allow_version:
        raise DocumentError(
            error(
                "VERSION_UNSUPPORTED",
                "$dsdl-version",
                f"unsupported DSDL version {version!r} (accepted: 0.5.x)",
                source,
            )
        )

    imports_raw = payload.get("$import", [])
    if isinstance(imports_raw, str):
        imports_raw = [imports_raw]
    if not isinstance(imports_raw, list) or not all(isinstance(i, str) for i in imports_raw):
        raise DocumentError(
            error("MALFORMED_IMPORT", "$import", "$import must be a list of library names", source)
        )

    meta = payload.get("meta") or {}
    if not isinstance(meta, dict):
        raise DocumentError(error("MALFORMED_META", "meta", "meta must be a mapping", source))

    defs: dict[str, object] = {}

    def _add_def(key: object, body: object, path: str) -> None:
        if not isinstance(key, str):
            raise DocumentError(
                error("MALFORMED_DEF", path, f"definition name must be a string, got {key!r}", source)
            )
        if key in defs:
            raise DocumentError(
                error("DUPLICATE_DEF", f"{path}/{key}", f"definition {key!r} appears twice in this file", source)
            )
        defs[key] = body

    data_section = None
    for key, value in payload.items():
        if key in _KNOWN_DIRECTIVES:
            continue
        if isinstance(key, str) and key.startswith("$"):
            raise DocumentError(
                error("UNKNOWN_DIRECTIVE", key, f"reserved key {key!r} is not a DSDL directive", source)
            )
        if key == "meta":
            continue
        if key == "defs":
            if value is None:
                continue
            if not isinstance(value, dict):
                raise DocumentError(error("MALFORMED_DEF", "defs", "defs must be a mapping", source))
            for def_key, def_body in value.items():
                _add_def(def_key, def_body, "defs")
        elif key == "data":
            data_section = _build_data_section(value, source)
        else:
            # library files put definitions directly at the top level
            _add_def(key, value, "defs")

    return RawDocument(
        dsdl_version=version,
        imports=list(imports_raw),
        meta=dict(meta),
        defs=defs,
        data=data_section,
    )


def _build_data_section(value: object, source: str | None) -> RawDataSection:
    if not isinstance(value, dict):
        raise DocumentError(error("MALFORMED_DATA_SECTION", "data", "data must be a mapping", source))

    samples = value.get("samples")
    if samples is not None and not isinstance(samples, list):
        raise DocumentError(
            error("MALFORMED_SAMPLES", "data/samples", "samples must be a list", source)
        )

    sample_path = value.get("sample-path")
    if sample_path is not None and not isinstance(sample_path, str):
        raise DocumentError(
            error("MALFORMED_DATA_SECTION", "data/sample-path", "sample-path must be a string", source)
        )
    if sample_path is None and samples is not None:
        sample_path = LOCAL_PATH
    if sample_path == LOCAL_PATH and samples is None:
        raise DocumentError(
            error(
                "MALFORMED_DATA_SECTION",
                "data/samples",
                "sample-path is $local but no samples are present",
                source,
            )
        )

    global_info = value.get("global-info")
    global_info_path = value.get("global-info-path")
    if global_info_path is not None and not isinstance(global_info_path, str):
        raise DocumentError(
            error(
                "MALFORMED_DATA_SECTION",
                "data/global-info-path",
                "global-info-path must be a string",
                source,
            )
        )
    if global_info_path is None and global_info is not None:
        global_info_path = LOCAL_PATH
    if global_info_path == LOCAL_PATH and global_info is None:
        raise DocumentError(
            error(
                "MALFORMED_DATA_SECTION",
                "data/global-info",
                "global-info-path is $local but no global-info is present",
                source,
            )
        )

    return RawDataSection(
        sample_type=value.get("sample-type"),
        sample_path=sample_path,
        samples=samples,
        global_info_type=value.get("global-info-type"),
        global_info_path=global_info_path,
        global_info=global_info,
    )


def split_definition_key(key: str) -> tuple[str, list[str]]:
    """Split a definition key into its name and bracketed parent names.

    ``"Dom[Parent]"`` yields ``("Dom", ["Parent"])``; keys without a
    suffix yield an empty parent list. The suffix is preserved verbatim
    by the parser and only interpreted here.
    """
    m = _DEF_KEY_RE.fullmatch(key)
    if not m:
        return key, []
    parents = m.group("parents")
    if not parents:
        return m.group("name"), []
    return m.group("name"), [p.strip() for p in parents.split(",")]
