"""Description-file parsing: YAML or JSON text into a :class:`RawDocument`.

A description file has four parts: a header (``$dsdl-version``, optional
``$import``), an open ``meta`` mapping, definitions, and an optional
``data`` section. Definitions may live under a ``defs`` key or directly
at the top level (library files use the latter). Any other ``$``-prefixed
top-level key is reserved and rejected.

Parsing is pure: text in, structure out, no environment reads.
:func:`read_utf8` is the one place the other stages read a file's text.
PyYAML is imported on the first YAML parse, so JSON text never pays for it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path, PurePath

from .diagnostics import DocumentError, echo, error, expect, show_key
from .slotted import Slotted

LOCAL_PATH = "$local"

# the host format of a file by its suffix; with any other, a description file
# is parsed as "auto" (see resolver.resolve_file) and an external data file as
# JSON. The order is the order in which an ``$import`` name tries the suffixes
HOSTS = {".yaml": "yaml", ".json": "json", ".yml": "yaml"}

_VERSION_RE = re.compile(r"0\.5(\.\w+)?")
_DEF_KEY_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)(\[(?P<parents>[^\]]+)\])?")

_KNOWN_DIRECTIVES = ("$dsdl-version", "$import")


class RawDataSection(Slotted):
    """Unresolved ``data`` section.

    ``sample_path`` defaults to ``$local`` when samples are inline and no
    path was given; it stays ``None`` when the section carries no sample
    channel at all (e.g. global-info only).
    """

    __slots__ = ("sample_type", "sample_path", "samples", "global_info_type", "global_info_path", "global_info")
    _defaults = dict.fromkeys(__slots__)


class RawDocument(Slotted):
    """A parsed but unresolved description or library file."""

    __slots__ = ("dsdl_version", "imports", "meta", "defs", "data")

    def __init__(self, dsdl_version: str, imports=None, meta=None, defs=None, data: RawDataSection | None = None):
        self.dsdl_version = dsdl_version
        self.imports = [] if imports is None else imports
        self.meta = {} if meta is None else meta
        self.defs = {} if defs is None else defs
        self.data = data


class _DuplicateKey(Exception):
    def __init__(self, key: object, line: int | None, column: int | None):
        super().__init__(str(key))
        self.key = key
        self.line = line
        self.column = column


_CORE_INT_RE = re.compile(r"[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+")


def _core_int(text: str) -> int:
    """A YAML 1.2 core-schema int: decimal, octal after ``0o``, hexadecimal after ``0x``."""
    if not _CORE_INT_RE.fullmatch(text):
        raise ValueError(text)
    base = {"0o": 8, "0x": 16}.get(text[:2], 10)
    value = int(text, base)
    if base != 10:
        str(value)  # ValueError past the int-string digit limit, as int() raises on long decimal text
    return value


# YAML 1.2 core-schema plain scalars, tried in order: name, tag, pattern, first characters (the number rows share
# theirs, so they share their patterns), value. No yes/no/on/off booleans, sexagesimal numbers or leading-zero octals.
_NUMERIC = "-+.0123456789"
_CORE_SCALARS = [
    ("null", "null", r"~|null|Null|NULL|", [*"~nN", ""], lambda text: None),
    ("bool", "bool", r"true|True|TRUE|false|False|FALSE", "tTfF", lambda text: text[0] in "tT"),
    ("decimal", "int", r"[-+]?[0-9]+", _NUMERIC, int),
    ("octal_hex", "int", r"0o[0-7]+|0x[0-9a-fA-F]+", _NUMERIC, _core_int),
    ("float", "float", r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?", _NUMERIC, float),
    # float() reads ".inf" and ".nan" without their dot
    ("inf_nan", "float", r"[-+]?\.(inf|Inf|INF)|\.(nan|NaN|NAN)", _NUMERIC, lambda text: float(text.replace(".", "", 1))),
]
# PyYAML's resolver table: first character -> [(tag, pattern)], filled by _yaml()
_CORE_RESOLVERS: dict[str, list] = {}
# first character -> match() of its rows as named alternatives, filled by _yaml()
_CORE_MATCH: dict[str, object] = {}
_CORE_VALUES = {name: value for name, _, _, _, value in _CORE_SCALARS}


class _CoreRules:
    """The rules of ``_CoreLoader``: the pure-Python SafeLoader that :func:`_yaml` builds,
    the reference parser and the only source of YAML diagnostics.

    Plain scalars resolve through the core-schema table and a repeated
    key raises :class:`_DuplicateKey`. A value its explicit tag cannot
    read and an unhashable mapping key raise ``ConstructorError``, with
    the node's mark, like PyYAML's own constructor failures.
    """

    yaml_implicit_resolvers = _CORE_RESOLVERS

    def construct_object(self, node, deep=False):
        # PyYAML's scalar constructors raise plain Python errors on a value
        # their explicit tag cannot read (``!!int x``, ``!!bool x``)
        try:
            return super().construct_object(node, deep)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            tag = node.tag.replace("tag:yaml.org,2002:", "!!")
            shown = ""
            if isinstance(node.value, str):  # at most _ECHO_LIMIT characters of it
                shown = f" {echo(node.value, _ECHO_LIMIT, repr)}"
            raise yaml.constructor.ConstructorError(None, None, f"invalid {tag} value{shown}", node.start_mark) from exc

    def construct_mapping(self, node, deep=False):
        seen = set()
        # a node that is not a mapping (``!!set a``) is left for PyYAML to reject
        for key_node, _ in node.value if isinstance(node, yaml.MappingNode) else ():
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


_ECHO_LIMIT = 40  # characters of a value that "invalid !!<tag> value" echoes
yaml = None  # PyYAML, once _yaml() has imported it


def _yaml():
    """PyYAML, imported on the first call, which also builds ``_CoreLoader``,
    its resolver table and the event loop's ``_CORE_MATCH``."""
    global yaml, _CoreLoader
    if yaml is None:
        import yaml as module

        by_first: dict[str, dict] = {}  # first character -> tag -> name -> pattern, in row order
        for name, tag, regexp, first, _ in _CORE_SCALARS:
            for ch in first:
                by_first.setdefault(ch, {}).setdefault(tag, {})[name] = regexp
        for ch, tags in by_first.items():  # re's cache compiles each distinct pattern once
            named = "|".join(f"(?P<{name}>{regexp})" for rows in tags.values() for name, regexp in rows.items())
            _CORE_MATCH[ch] = re.compile(f"(?:{named})$").match
            resolvers = [(f"tag:yaml.org,2002:{tag}", "|".join(rows.values())) for tag, rows in tags.items()]
            _CORE_RESOLVERS[ch] = [(tag, re.compile(f"^(?:{regexp})$")) for tag, regexp in resolvers]

        _CoreLoader = type("_CoreLoader", (_CoreRules, module.SafeLoader), {})
        _CoreLoader.add_constructor(
            "tag:yaml.org,2002:int", lambda loader, node: _core_int(loader.construct_scalar(node))
        )
        yaml = module
    return yaml


def __getattr__(name: str):
    # ``_CoreLoader`` exists once PyYAML is imported; asking for it imports it
    if name == "_CoreLoader":
        _yaml()
        return _CoreLoader
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_core(text: str) -> object:
    return _yaml().load(text, Loader=_CoreLoader)


_MAX_DEPTH = 100  # open collections the event loop builds before it only counts them
_NO_KEY = object()  # the pending key of a mapping that waits for its next key


class _NotTaken(Exception):
    """Input the event loop leaves to :class:`_CoreLoader`."""


def _count_past_max_depth(get) -> None:
    """Read on from the event that opens collection ``_MAX_DEPTH + 1``,
    counting only the collections that open and close.

    Once ``sys.getrecursionlimit()`` collections are open, raise
    ``RecursionError``: the composer of :class:`_CoreLoader` takes at
    least two frames a level, so it fails before half that depth. An
    anchor or alias, which that composer may reject first, and the end
    of the document leave the text to it.
    """
    opened, limit = _MAX_DEPTH + 1, sys.getrecursionlimit()
    while opened < limit:
        event = get()
        kind = type(event)
        if kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
            opened -= 1
        elif kind is yaml.AliasEvent or kind is yaml.DocumentEndEvent or event.anchor is not None:
            raise _NotTaken
        elif kind is not yaml.ScalarEvent:
            opened += 1
    raise RecursionError("YAML nests deeper than the recursion limit")


def _load_events(text: str) -> object:
    """Build the value of ``text`` in one loop over libyaml's parser events.

    The open list or dict and its pending key are two locals, pushed on the
    loop's own stack as a collection opens: nesting costs no recursion. A plain
    scalar resolves with one match, from the core-schema rows that also make
    :class:`_CoreLoader`'s resolvers, and no memo; quoted and block scalars are ``str``.
    Any tag (a bare ``!`` too), anchor or alias, a non-scalar or
    repeated key, a second document, nesting deeper than ``_MAX_DEPTH``
    and any libyaml exception leave the whole text to :class:`_CoreLoader`,
    except nesting as deep as the recursion limit, which raises
    ``RecursionError`` without a second parse.
    """
    yaml = _yaml()
    if not yaml.__with_libyaml__:
        return _load_core(text)
    match_plain, convert, no_key = _CORE_MATCH.get, _CORE_VALUES, _NO_KEY
    try:
        get = yaml.cyaml.CParser(text).get_event
        get()  # stream start
        if type(get()) is yaml.StreamEndEvent:
            return None
        stack: list = []  # (node, key) of each enclosing collection
        node, key = None, no_key
        while True:
            event = get()
            kind = type(event)
            if kind is yaml.ScalarEvent:
                if event.tag is not None or event.anchor is not None:
                    raise _NotTaken
                value = event.value
                if event.implicit[0]:
                    match = match_plain(value[:1])
                    if match is not None and (found := match(value)) is not None:
                        value = convert[found.lastgroup](value)
            elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
                if event.tag is not None or event.anchor is not None:
                    raise _NotTaken
                if len(stack) == _MAX_DEPTH:
                    _count_past_max_depth(get)
                stack.append((node, key))
                node, key = {} if kind is yaml.MappingStartEvent else [], no_key
                continue
            elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
                value = node
                node, key = stack.pop()
            else:
                raise _NotTaken  # an alias
            if type(node) is list:
                node.append(value)
            elif key is not no_key:
                node[key], key = value, no_key
            elif node is None:
                break  # the document's value
            elif value in node:  # a list or dict key raises TypeError: unhashable
                raise _NotTaken  # the key rule of _CoreLoader.construct_mapping
            else:
                key = value
        get()  # document end
        if type(get()) is not yaml.StreamEndEvent:
            raise _NotTaken  # a second document
        return value
    except RecursionError:
        raise  # too deep for the pure-Python loader as well
    except Exception:  # libyaml's errors too: the pure-Python loader parses the text again and reports
        return _load_core(text)


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

    Text :func:`_libyaml_agrees` passes goes to :func:`_load_events`,
    other text to :class:`_CoreLoader`, so every ``SYNTAX_ERROR`` and
    ``DUPLICATE_KEY`` message, line and column come from the pure-Python
    loader whether or not PyYAML was built with libyaml. Nesting deeper
    than its recursion allows is a ``SYNTAX_ERROR``.
    """
    yaml = _yaml()
    try:
        return _load_events(text) if _libyaml_agrees(text) else _load_core(text)
    except RecursionError as exc:
        raise DocumentError(error("SYNTAX_ERROR", "", "malformed YAML: nesting is too deep", source)) from exc
    except _DuplicateKey as exc:
        message = f"duplicate mapping key {show_key(exc.key)} at line {exc.line}, column {exc.column}"
        raise DocumentError(error("DUPLICATE_KEY", "", message, source)) from exc
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise DocumentError(
            error("SYNTAX_ERROR", "", f"malformed YAML: {exc.problem or exc}{where}", source)
        ) from exc
    except yaml.YAMLError as exc:
        raise DocumentError(error("SYNTAX_ERROR", "", f"malformed YAML: {exc}", source)) from exc


def _json_pairs_hook(pairs):
    out = dict(pairs)
    if len(out) != len(pairs):
        # only a repeated key shrinks the dict; name the first one repeated
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKey(key, None, None)
            seen.add(key)
    return out


def _load_json(text: str, source: str | None) -> object:
    try:
        return json.loads(text, object_pairs_hook=_json_pairs_hook)
    except RecursionError as exc:
        raise DocumentError(error("SYNTAX_ERROR", "", "malformed JSON: nesting is too deep", source)) from exc
    except _DuplicateKey as exc:
        raise DocumentError(error("DUPLICATE_KEY", "", f"duplicate mapping key {show_key(exc.key)}", source)) from exc
    except json.JSONDecodeError as exc:
        message = f"malformed JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        raise DocumentError(error("SYNTAX_ERROR", "", message, source)) from exc
    except ValueError as exc:  # an integer past Python's int-string digit limit
        raise DocumentError(error("SYNTAX_ERROR", "", "malformed JSON: integer has too many digits", source)) from exc


def read_utf8(file: Path, path: str) -> str:
    """Read ``file`` as UTF-8 text.

    Undecodable bytes raise :class:`DocumentError` with an
    ``ENCODING_ERROR`` diagnostic located at ``path``; ``OSError``
    propagates to the caller.
    """
    try:
        return file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        message = f"{echo(str(file))} is not valid UTF-8: {exc.reason} at byte {exc.start}"
        raise DocumentError(error("ENCODING_ERROR", path, message, str(file))) from exc


def parse_document(
    text: str,
    format: str = "auto",
    *,
    source: str | PurePath | None = None,
    allow_version: bool = False,
) -> RawDocument:
    """Parse ``text`` into a :class:`RawDocument`.

    ``format`` is ``yaml``, ``json``, or ``auto`` (JSON first, then
    YAML). The JSON and YAML renderings of the same content produce
    structurally identical documents. Raises :class:`DocumentError`
    with a coded diagnostic on any fatal problem, and :class:`ValueError`
    for a ``format`` that names no format. Each finding's source is
    ``str(source)``.
    """
    expect(text, str, "parse_document() text must be str")
    expect(format, str, "parse_document() format must be str")
    if expect(source, (str, PurePath, type(None)), "parse_document() source must be a str, PurePath or None") is not None:
        source = str(source)
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
        raise DocumentError(error("SYNTAX_ERROR", "", "document must be a mapping at the top level", source))
    return _build_document(payload, source, allow_version)


def _build_document(payload: dict, source: str | None, allow_version: bool) -> RawDocument:
    version = payload.get("$dsdl-version")
    if version is None or version == "":
        raise DocumentError(error("VERSION_MISSING", "$dsdl-version", "missing required header $dsdl-version", source))
    version = str(version)
    if not _VERSION_RE.fullmatch(version) and not allow_version:
        message = f"unsupported DSDL version {show_key(version)} (accepted: 0.5.x)"
        raise DocumentError(error("VERSION_UNSUPPORTED", "$dsdl-version", message, source))

    imports_raw = payload.get("$import", [])
    if isinstance(imports_raw, str):
        imports_raw = [imports_raw]
    if not isinstance(imports_raw, list) or not all(isinstance(i, str) for i in imports_raw):
        raise DocumentError(error("MALFORMED_IMPORT", "$import", "$import must be a list of library names", source))

    meta = payload.get("meta") or {}
    if not isinstance(meta, dict):
        raise DocumentError(error("MALFORMED_META", "meta", "meta must be a mapping", source))

    defs: dict[str, object] = {}
    names: set[str] = set()  # a key may add parents to its name: "Dom[Base]" defines Dom

    def _add_def(key: object, body: object, path: str) -> None:
        if not isinstance(key, str):
            raise DocumentError(error("MALFORMED_DEF", path, f"definition name must be a string, got {key!r}", source))
        name = split_definition_key(key)[0]
        if name in names:
            message = f"definition {show_key(name)} appears twice in this file"
            raise DocumentError(error("DUPLICATE_DEF", f"{path}/{key}", message, source))
        names.add(name)
        defs[key] = body

    data_section = None
    for key, value in payload.items():
        if key in _KNOWN_DIRECTIVES:
            continue
        if isinstance(key, str) and key.startswith("$"):
            message = f"reserved key {show_key(key)} is not a DSDL directive"
            raise DocumentError(error("UNKNOWN_DIRECTIVE", key, message, source))
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
    section = RawDataSection(
        sample_type=value.get("sample-type"),
        sample_path=value.get("sample-path"),
        samples=value.get("samples"),
        global_info_type=value.get("global-info-type"),
        global_info_path=value.get("global-info-path"),
        global_info=value.get("global-info"),
    )
    return check_data_section(section, source)


def check_data_section(section: RawDataSection | None, source: str | None = None) -> RawDataSection:
    """``section`` with each channel's path defaulted to ``$local`` when its
    data is inline, after the rules of a data section's shape; ``None`` is
    an empty section.

    The first rule broken raises :class:`DocumentError`
    (``MALFORMED_SAMPLES`` or ``MALFORMED_DATA_SECTION``), located at the
    key of the ``data`` mapping, so a parsed section and a hand-built one
    give the same finding.
    """
    section = RawDataSection() if section is None else expect(section, RawDataSection, "check_data_section() section must be a RawDataSection or None")
    samples, sample_path = section.samples, section.sample_path
    if samples is not None and not isinstance(samples, list):
        raise DocumentError(error("MALFORMED_SAMPLES", "data/samples", "samples must be a list", source))
    if sample_path is not None and not isinstance(sample_path, str):
        message = "sample-path must be a string"
        raise DocumentError(error("MALFORMED_DATA_SECTION", "data/sample-path", message, source))
    if sample_path is None and samples is not None:
        sample_path = LOCAL_PATH
    if sample_path == LOCAL_PATH and samples is None:
        message = "sample-path is $local but no samples are present"
        raise DocumentError(error("MALFORMED_DATA_SECTION", "data/samples", message, source))

    global_info, global_info_path = section.global_info, section.global_info_path
    if global_info_path is not None and not isinstance(global_info_path, str):
        message = "global-info-path must be a string"
        raise DocumentError(error("MALFORMED_DATA_SECTION", "data/global-info-path", message, source))
    if global_info_path is None and global_info is not None:
        global_info_path = LOCAL_PATH
    if global_info_path == LOCAL_PATH and global_info is None:
        message = "global-info-path is $local but no global-info is present"
        raise DocumentError(error("MALFORMED_DATA_SECTION", "data/global-info", message, source))

    return RawDataSection(
        section.sample_type, sample_path, samples, section.global_info_type, global_info_path, global_info
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
