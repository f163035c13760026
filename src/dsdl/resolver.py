"""Resolution: imports, acyclicity, and parameter binding.

``$import`` names are resolved against the importing file's directory
first, then the library search paths (default library directory, then
``DSDL_LIBRARY_PATH`` entries, then caller-supplied paths). A name that
ends in ``.yaml``, ``.json`` or ``.yml`` is looked for as given; any other
name tries those suffixes in that order (``document.HOSTS``) in each
directory. Definitions merge in import order with the importing file's
own definitions last; a name collision keeps the later definition and
raises an ``IMPORT_OVERWRITE`` warning.

Instantiation substitutes ``$param`` references from the given
bindings, binds positional arguments to declared parameter order, and
produces a fully concrete type ready for validation. A concrete type
nests at most ``MAX_TYPE_DEPTH`` levels, counted through struct fields;
a deeper one is a ``TYPE_TOO_DEEP`` error.
"""

from __future__ import annotations

import os
import re
from pathlib import Path, PurePath

from .diagnostics import Diagnostic, DocumentError, ResolutionError, echo, error, expect, note, show_key, warning
from .document import HOSTS, RawDocument, parse_document, read_utf8, split_definition_key
from .schema import (
    BUILTINS,
    BuiltinSignature,
    ClassDomain,
    DefinitionRegistry,
    StructClass,
    build_definitions,
)
from .slotted import Frozen, Slotted, set_field
from .typeexpr import (
    MAX_TYPE_DEPTH,
    Arg,
    GrammarError,
    NumberLit,
    ParamRef,
    TypeExpr,
    parse_sample_type_spec,
    render_type_expression,
    walk_heads,
)

LIBRARY_PATH_VAR = "DSDL_LIBRARY_PATH"

DEFAULT_LIBRARY_DIR = Path(__file__).parent / "library"


class LibraryEnvironment(Frozen):
    """Ordered library search paths; order is deterministic and reported."""

    __slots__ = ("search_paths",)

    def __init__(self, search_paths: tuple[Path, ...] = ()):
        what = "LibraryEnvironment() search_paths must be a tuple or list of Path"
        for path in expect(search_paths, (tuple, list), what):
            expect(path, Path, what)
        set_field(self, "search_paths", tuple(search_paths))

    @classmethod
    def from_environment(
        cls,
        extra_paths: tuple[Path, ...] = (),
        environ: dict | None = None,
    ) -> "LibraryEnvironment":
        env = os.environ if environ is None else environ
        paths: list[Path] = [DEFAULT_LIBRARY_DIR]
        raw = env.get(LIBRARY_PATH_VAR, "")
        for entry in raw.split(os.pathsep):
            if entry:
                paths.append(Path(entry))
        paths.extend(Path(p) for p in extra_paths)
        return cls(tuple(paths))


class ConcreteType(Frozen):
    """A fully parameter-bound type.

    ``args`` maps parameter names to materialized values: class-domain
    entries for domain refs, nested concrete types for type refs, and
    plain scalars otherwise. Struct heads additionally carry a concrete
    field map and their optional-field set. ``_check`` and ``_check_only``
    keep the node's building and check-only validation closures, each once
    it is compiled (see ``validation._checker``).
    """

    __slots__ = ("head", "shape", "args", "fields", "optional", "_check", "_check_only")

    def __init__(self, head: str, shape: str, args=None, fields: dict | None = None, optional=frozenset()):
        set_field(self, "head", head)
        set_field(self, "shape", shape)
        set_field(self, "args", {} if args is None else args)
        set_field(self, "fields", fields)
        set_field(self, "optional", optional)

    def arg(self, name: str):
        return self.args.get(name)

    def describe(self) -> str:
        """This type as type-expression text, which parses back."""
        return render_type_expression(_expression(self))


def _expression(value):
    """A concrete type, or one of its argument values, as a type-expression
    value: a domain as its name and a number as its text."""
    if isinstance(value, ConcreteType):
        return TypeExpr(value.head, tuple([Arg(key, _expression(arg)) for key, arg in value.args.items()]))
    if isinstance(value, ClassDomain):
        return TypeExpr(value.name)
    if isinstance(value, (TypeExpr, ParamRef, str, bool)):
        return value
    return NumberLit(str(value))  # a number, or a caller's binding of another kind, as its text


class ResolvedSchema(Slotted):
    __slots__ = ("sample_type", "global_info_type", "registry", "meta")


def resolve_imports(
    doc: RawDocument,
    env: LibraryEnvironment,
    source: str | Path | None = None,
) -> tuple[DefinitionRegistry, list[Diagnostic]]:
    """Merge the definitions of ``doc`` and everything it imports.

    Returns the merged registry plus diagnostics (``IMPORT_NOT_FOUND``,
    ``IMPORT_CYCLE``, one ``IMPORT_OVERWRITE`` warning per shadowed
    name, and any definition-build findings).
    """
    expect(doc, RawDocument, "resolve_imports() doc must be a RawDocument")
    expect(env, LibraryEnvironment, "resolve_imports() env must be a LibraryEnvironment")
    expect(source, (str, PurePath, type(None)), "resolve_imports() source must be a str, PurePath or None")
    diags: list[Diagnostic] = []
    merged: dict[str, object] = {}
    origins: dict[str, str | None] = {}
    keys: dict[str, str] = {}  # each definition name's key in merged, which may add parents: "Dom[Base]"
    loaded: set[Path] = set()

    def merge_defs(defs: dict, origin: str | None) -> None:
        for key, body in defs.items():
            name = split_definition_key(key)[0]
            shadowed = keys.get(name)
            if shadowed is not None:
                diags.append(
                    warning(
                        "IMPORT_OVERWRITE",
                        f"defs/{key}",
                        f"definition {show_key(shadowed)} from {origins[shadowed] or '<input>'} is overwritten by {origin or '<input>'}",
                    )
                )
                del merged[shadowed]  # re-insert to record the later position
            merged[key] = body
            origins[key] = origin
            keys[name] = key

    root = Path(source) if source is not None else None
    # Depth first with an explicit stack, so a long import chain costs no
    # recursion; a file's definitions merge after everything it imports.
    frames = [(root, iter(doc.imports), doc.defs)]
    while frames:
        doc_source, names, defs = frames[-1]
        base = doc_source.parent if doc_source is not None else None
        importer = str(doc_source) if doc_source is not None else None
        for name in names:
            resolved = _find_import(name, base, env)
            if resolved is None:
                searched = [str(base)] if base is not None else []
                searched += [str(p) for p in env.search_paths]
                searched = ", ".join(map(echo, searched)) or "<none>"
                diags.append(
                    error(
                        "IMPORT_NOT_FOUND",
                        f"$import/{echo(name)}",
                        f"cannot resolve import {echo(name, show=repr)}; searched: {searched}",
                        importer,
                    )
                )
                continue
            chain = [frame[0] for frame in frames]  # the files on the current import path
            if resolved in chain:
                cycle = [p.name for p in chain[chain.index(resolved):]] + [resolved.name]
                diags.append(
                    error(
                        "IMPORT_CYCLE",
                        f"$import/{echo(name)}",
                        f"import cycle: {' -> '.join(cycle)}",
                        importer,
                    )
                )
                continue
            if resolved in loaded:
                continue
            loaded.add(resolved)
            try:
                imported = parse_document(
                    read_utf8(resolved, f"$import/{echo(name)}"),
                    format=HOSTS.get(resolved.suffix, "auto"),
                    source=str(resolved),
                )
            except OSError as exc:
                message = f"cannot read {echo(str(resolved))}: {echo(str(exc))}"
                diags.append(error("IMPORT_NOT_FOUND", f"$import/{echo(name)}", message, importer))
                continue
            except DocumentError as exc:
                diags.append(exc.diagnostic)
                continue
            frames.append((resolved, iter(imported.imports), imported.defs))
            break
        else:
            frames.pop()
            merge_defs(defs, str(doc_source) if doc_source is not None else None)

    registry, build_diags = build_definitions(merged, provenance=origins)
    diags.extend(build_diags)
    return registry, diags


def _find_import(name: str, base: Path | None, env: LibraryEnvironment) -> Path | None:
    stems = [name] if name.endswith(tuple(HOSTS)) else [name + suffix for suffix in HOSTS]
    roots = ([base] if base is not None else []) + list(env.search_paths)
    for root in roots:
        for stem in stems:
            try:
                candidate = (root / stem).resolve()
                if candidate.is_file():
                    return candidate
            except (OSError, ValueError):  # a path the OS refuses, such as one too long or with a NUL
                continue
    return None


def check_acyclic(registry: DefinitionRegistry) -> list[Diagnostic]:
    """Detect reference cycles among definitions (self-reference counts).

    Returns ``CYCLE_DETECTED`` diagnostics naming the full cycle path,
    or an empty list when the reference graph is a DAG.
    """
    expect(registry, DefinitionRegistry, "check_acyclic() registry must be a DefinitionRegistry")
    graph: dict[str, list[str]] = {}
    for name, entry in registry.items():
        edges: list[str] = []
        if isinstance(entry, StructClass):
            for expr in entry.fields.values():
                for head in walk_heads(expr):
                    if head in registry and head not in edges:
                        edges.append(head)
        graph[name] = edges

    diags: list[Diagnostic] = []
    color: dict[str, int] = {}  # 1 on the path, 2 done; absent unvisited

    for start in graph:
        if start in color:
            continue
        # depth first with a stack of edge iterators, so a long definition
        # chain costs no recursion; ``path`` holds the nodes whose edges are open
        color[start] = 1
        path, stack = [start], [iter(graph[start])]
        while stack:
            for succ in stack[-1]:
                state = color.get(succ)
                if state == 1:
                    cycle = " -> ".join(path[path.index(succ):] + [succ])
                    diags.append(error("CYCLE_DETECTED", f"defs/{succ}", f"circular reference: {cycle}"))
                elif state is None:
                    color[succ] = 1
                    path.append(succ)
                    stack.append(iter(graph[succ]))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    return diags


def substitute_params(expr: TypeExpr, bindings: dict[str, object]) -> TypeExpr:
    """Replace every ``$param`` in ``expr``'s arguments from ``bindings``."""
    new_args = []
    for arg in expr.args:
        value = arg.value
        if isinstance(value, ParamRef):
            if value.name not in bindings:
                raise ResolutionError(
                    error("MISSING_PARAM", "", f"no binding for parameter ${value.name}")
                )
            value = bindings[value.name]
        elif isinstance(value, TypeExpr):
            value = substitute_params(value, bindings)
        new_args.append(Arg(arg.key, value))
    return TypeExpr(expr.head, tuple(new_args))


class _Instantiation(Slotted):
    """What one :func:`instantiate_type` call, or one type that :func:`resolve_schema` instantiates, shares.

    ``depth`` counts the types open around the one being built, struct
    fields included; a concrete type nests at most ``MAX_TYPE_DEPTH``
    levels, so building, compiling and validating it recurse boundedly.
    ``structs`` maps each closed struct expression already built at a
    depth to its concrete type: a struct used at many paths is built once
    per depth, shares that node and reports its notes at the first path.
    """

    __slots__ = ("registry", "media_extensions", "diags", "structs", "depth")

    def __init__(self, registry: DefinitionRegistry, media_extensions: tuple[str, ...], diags: list[Diagnostic]):
        self.registry = registry
        self.media_extensions = media_extensions
        self.diags = diags
        self.structs: dict[tuple[TypeExpr, int], ConcreteType] = {}
        self.depth = 0


def instantiate_type(
    expr: TypeExpr,
    bindings: dict[str, object],
    registry: DefinitionRegistry,
    *,
    media_extensions: tuple[str, ...] = (),
    diags: list[Diagnostic] | None = None,
) -> ConcreteType:
    """Bind ``expr`` into a :class:`ConcreteType`.

    Positional arguments map to declared parameter order (the builtin
    signature for builtins, ``$params`` for structs) before keyed ones.
    Raises :class:`ResolutionError` on ``UNKNOWN_TYPE``,
    ``MISSING_PARAM``, ``EXTRA_PARAM``, or ``ARG_KIND`` problems.
    """
    expect(expr, TypeExpr, "instantiate_type() expr must be a TypeExpr")
    expect(bindings, dict, "instantiate_type() bindings must be a dict")
    expect(registry, DefinitionRegistry, "instantiate_type() registry must be a DefinitionRegistry")
    expect(media_extensions, (tuple, list), "instantiate_type() media_extensions must be a tuple or list")
    expect(diags, (list, type(None)), "instantiate_type() diags must be a list or None")
    closed = substitute_params(expr, bindings)
    run = _Instantiation(registry, media_extensions, diags if diags is not None else [])
    return _instantiate_closed(closed, run, "")


def _bind_args(
    head: str,
    args: tuple[Arg, ...],
    ordered_names: list[str],
    path: str,
) -> dict[str, object]:
    bound: dict[str, object] = {}
    positional = True
    index = 0
    for arg in args:
        if arg.key is None:
            if not positional:
                raise ResolutionError(
                    error("EXTRA_PARAM", path, f"{head}: positional argument after keyed argument")
                )
            if index >= len(ordered_names):
                raise ResolutionError(
                    error("EXTRA_PARAM", path, f"{head} takes at most {len(ordered_names)} arguments")
                )
            name = ordered_names[index]
            index += 1
        else:
            positional = False
            name = arg.key
            if name not in ordered_names:
                raise ResolutionError(
                    error("EXTRA_PARAM", path, f"{head} has no parameter {show_key(name)}")
                )
        if name in bound:
            raise ResolutionError(error("EXTRA_PARAM", path, f"{head}: parameter {name!r} bound twice"))
        bound[name] = arg.value
    return bound


_ROTATED_MODES = ("xyxy", "xywht")
_ANGLE_MEASURES = ("radian", "degree")
_FMT_DIRECTIVES = set("YmdHMSfzjab")


def _check_fmt(fmt: str, path: str) -> None:
    for m in re.finditer(r"%(.?)", fmt, re.DOTALL):
        directive = m[1]
        if not directive:
            raise ResolutionError(error("DATE_FORMAT", path, "dangling % in fmt"))
        if directive != "%" and directive not in _FMT_DIRECTIVES:
            raise ResolutionError(error("DATE_FORMAT", path, f"unsupported fmt directive %{directive}"))


def _instantiate_closed(expr: TypeExpr, run: _Instantiation, path: str) -> ConcreteType:
    if run.depth >= MAX_TYPE_DEPTH:
        message = f"type nested too deeply: more than {MAX_TYPE_DEPTH} levels through struct fields"
        raise ResolutionError(error("TYPE_TOO_DEEP", path, message))
    run.depth += 1
    try:
        head = expr.head
        if head in BUILTINS:
            return _instantiate_builtin(expr, BUILTINS[head], run, path)
        entry = run.registry.get(head)
        if isinstance(entry, StructClass):
            return _instantiate_struct(expr, entry, run, path)
        if isinstance(entry, ClassDomain):
            raise ResolutionError(
                error("UNKNOWN_TYPE", path, f"{show_key(head)} is a class domain, not a type")
            )
        if head in run.media_extensions:
            if expr.args:
                raise ResolutionError(error("EXTRA_PARAM", path, f"{head} takes no arguments"))
            return ConcreteType(head, "media")
        raise ResolutionError(error("UNKNOWN_TYPE", path, f"unknown type {show_key(head)}"))
    finally:
        run.depth -= 1


def _instantiate_builtin(expr: TypeExpr, sig: BuiltinSignature, run: _Instantiation, path: str) -> ConcreteType:
    args = expr.args
    if sig.name == "LabelMap" and any(a.key == "cdom" for a in args):
        # the templates use both spellings; canonicalize and say so
        args = tuple(Arg("dom", a.value) if a.key == "cdom" else a for a in args)
        run.diags.append(note("PARAM_ALIAS", path, "LabelMap argument cdom canonicalized to dom"))

    names = [p.name for p in sig.params]
    bound = _bind_args(sig.name, args, names, path)
    materialized: dict[str, object] = {}
    for spec in sig.params:
        if spec.name not in bound:
            if spec.required:
                raise ResolutionError(
                    error("MISSING_PARAM", path, f"{sig.name} requires parameter {spec.name!r}")
                )
            if spec.default is not None:
                materialized[spec.name] = spec.default
            continue
        materialized[spec.name] = _materialize(sig.name, spec, bound[spec.name], run, path)

    if sig.name == "RotatedBBox":
        mode = materialized.get("mode")
        if mode not in _ROTATED_MODES:
            raise ResolutionError(
                error("ARG_KIND", path, f"RotatedBBox mode must be one of {_ROTATED_MODES}, got {mode!r}")
            )
        if materialized.get("measure") not in _ANGLE_MEASURES:
            raise ResolutionError(
                error(
                    "ARG_KIND",
                    path,
                    f"RotatedBBox measure must be one of {_ANGLE_MEASURES}, got {materialized.get('measure')!r}",
                )
            )
    if sig.name in ("Date", "Time") and "fmt" in materialized:
        _check_fmt(materialized["fmt"], path)

    return ConcreteType(sig.name, sig.shape, materialized)


def _materialize(head: str, spec, value, run: _Instantiation, path: str):
    if spec.kind == "domain-ref":
        name = None
        if isinstance(value, TypeExpr) and not value.args:
            name = value.head
        elif isinstance(value, str):
            name = value
        if name is None:
            raise ResolutionError(
                error("ARG_KIND", path, f"{head}.{spec.name} must name a class domain")
            )
        entry = run.registry.get(name)
        if entry is None:
            raise ResolutionError(
                error("UNKNOWN_TYPE", path, f"{head}.{spec.name}: unknown class domain {show_key(name)}")
            )
        if not isinstance(entry, ClassDomain):
            raise ResolutionError(
                error("ARG_KIND", path, f"{head}.{spec.name}: {show_key(name)} is not a class domain")
            )
        return entry
    if spec.kind == "type-ref":
        if not isinstance(value, TypeExpr):
            raise ResolutionError(error("ARG_KIND", path, f"{head}.{spec.name} must be a type"))
        return _instantiate_closed(value, run, path)
    if spec.kind == "string":
        if isinstance(value, str):
            return value
        if isinstance(value, TypeExpr) and not value.args:
            return value.head
        raise ResolutionError(error("ARG_KIND", path, f"{head}.{spec.name} must be a string"))
    if spec.kind == "bool":
        if isinstance(value, bool):
            return value
        raise ResolutionError(error("ARG_KIND", path, f"{head}.{spec.name} must be a boolean"))
    raise AssertionError(f"unknown param kind {spec.kind}")


def _instantiate_struct(expr: TypeExpr, struct: StructClass, run: _Instantiation, path: str) -> ConcreteType:
    key: tuple[TypeExpr, int] | None = (expr, run.depth)
    try:
        shared = run.structs.get(key)
    except TypeError:  # a caller's binding that is no type-expression value
        shared = key = None
    if shared is not None:
        return shared
    bound = _bind_args(struct.name, expr.args, struct.params, path)
    missing = [p for p in struct.params if p not in bound]
    if missing:
        raise ResolutionError(
            error(
                "MISSING_PARAM",
                path,
                f"{struct.name} requires parameter(s) {', '.join(missing)}",
            )
        )
    display: dict[str, object] = {}
    for name, value in bound.items():
        domain = run.registry.get(value.head) if isinstance(value, TypeExpr) and not value.args else None
        if isinstance(domain, ClassDomain):
            display[name] = domain
        elif isinstance(value, NumberLit):
            display[name] = value.as_number()
        else:
            display[name] = value

    fields: dict[str, ConcreteType] = {}
    for fname, fexpr in struct.fields.items():
        fpath = f"{path}/{fname}" if path else fname
        closed = substitute_params(fexpr, bound)
        fields[fname] = _instantiate_closed(closed, run, fpath)
    ctype = ConcreteType(struct.name, "struct", display, fields, struct.optional)
    if key is not None:
        run.structs[key] = ctype
    return ctype


def resolve_schema(
    doc: RawDocument,
    env: LibraryEnvironment,
    *,
    source: str | Path | None = None,
    media_extensions: tuple[str, ...] = (),
) -> tuple[ResolvedSchema | None, list[Diagnostic]]:
    """Run the full resolution pipeline for ``doc``.

    Imports are resolved, definitions built, acyclicity checked, and
    the sample and global-info types instantiated. Returns the schema
    (or ``None`` when a stage it depends on failed) plus all collected
    diagnostics.
    """
    expect(doc, RawDocument, "resolve_schema() doc must be a RawDocument")
    expect(env, LibraryEnvironment, "resolve_schema() env must be a LibraryEnvironment")
    expect(source, (str, PurePath, type(None)), "resolve_schema() source must be a str, PurePath or None")
    expect(media_extensions, (tuple, list), "resolve_schema() media_extensions must be a tuple or list")
    registry, diags = resolve_imports(doc, env, source)

    cycle_diags = check_acyclic(registry)
    diags.extend(cycle_diags)
    if cycle_diags:
        return None, diags

    sample_type = None
    global_info_type = None
    failed = False
    if doc.data is not None:
        if doc.data.sample_type is None:
            diags.append(
                error("MALFORMED_DATA_SECTION", "data/sample-type", "data section lacks a sample-type")
            )
            failed = True
        else:
            sample_type = _instantiate_spec(
                doc.data.sample_type, "data/sample-type", registry, media_extensions, diags
            )
            failed = failed or sample_type is None
        if doc.data.global_info_type is not None:
            global_info_type = _instantiate_spec(
                doc.data.global_info_type, "data/global-info-type", registry, media_extensions, diags
            )
            failed = failed or global_info_type is None
        elif doc.data.global_info_path is not None or doc.data.global_info is not None:
            diags.append(
                error(
                    "MALFORMED_DATA_SECTION",
                    "data/global-info-type",
                    "global-info is present but global-info-type is not",
                )
            )
            failed = True

    if failed:
        return None, diags
    schema = ResolvedSchema(sample_type, global_info_type, registry, dict(doc.meta))
    return schema, diags


def resolve_file(
    file: str | PurePath, env: LibraryEnvironment, *, allow_version: bool = False
) -> tuple[RawDocument | None, ResolvedSchema | None, list[Diagnostic]]:
    """Read, parse and resolve the description file ``file``.

    The host format is ``document.HOSTS`` of the file's suffix, ``auto``
    for any other; the types are resolved with the media classes of the
    default registry. A document that does not parse gives no document,
    no schema and its one finding. ``OSError``, and the ``ENCODING_ERROR``
    :class:`DocumentError` of a file that is not UTF-8, propagate.
    """
    from .locator import default_media_registry

    path = Path(expect(file, (str, PurePath), "resolve_file() file must be a str or PurePath"))
    expect(env, LibraryEnvironment, "resolve_file() env must be a LibraryEnvironment")
    text = read_utf8(path, echo(str(path)))
    try:
        doc = parse_document(text, HOSTS.get(path.suffix, "auto"), source=path, allow_version=allow_version)
    except DocumentError as exc:
        return None, None, [exc.diagnostic]
    schema, diags = resolve_schema(doc, env, source=path, media_extensions=default_media_registry().extension_names())
    return doc, schema, diags


def _instantiate_spec(
    raw_spec: object,
    path: str,
    registry: DefinitionRegistry,
    media_extensions: tuple[str, ...],
    diags: list[Diagnostic],
) -> ConcreteType | None:
    try:
        expr = parse_sample_type_spec(raw_spec)
    except GrammarError as exc:
        diags.append(error(exc.diagnostic.code, path, exc.diagnostic.message))
        return None
    try:
        return _instantiate_closed(substitute_params(expr, {}), _Instantiation(registry, media_extensions, diags), path)
    except ResolutionError as exc:
        diag = exc.diagnostic
        diags.append(error(diag.code, diag.path or path, diag.message))
        return None
