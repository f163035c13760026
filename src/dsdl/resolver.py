"""Resolution: imports, acyclicity, and parameter binding.

``$import`` names are resolved against the importing file's directory
first, then the library search paths (default library directory, then
``DSDL_LIBRARY_PATH`` entries, then caller-supplied paths), preferring
``.yaml`` over ``.json``. Definitions merge in import order with the
importing file's own definitions last; a name collision keeps the later
definition and raises an ``IMPORT_OVERWRITE`` warning.

Instantiation substitutes ``$param`` references from the given
bindings, binds positional arguments to declared parameter order, and
produces a fully concrete type ready for validation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import Diagnostic, DocumentError, ResolutionError, error, note, warning
from .document import RawDocument, parse_document, read_utf8
from .schema import (
    BUILTINS,
    BuiltinSignature,
    ClassDomain,
    DefinitionRegistry,
    Provenance,
    StructClass,
    build_definitions,
)
from .typeexpr import (
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
_IMPORT_EXTENSIONS = (".yaml", ".json")

DEFAULT_LIBRARY_DIR = Path(__file__).parent / "library"


@dataclass(frozen=True)
class LibraryEnvironment:
    """Ordered library search paths; order is deterministic and reported."""

    search_paths: tuple[Path, ...] = ()

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


@dataclass(frozen=True)
class ConcreteType:
    """A fully parameter-bound type.

    ``args`` maps parameter names to materialized values: class-domain
    entries for domain refs, nested concrete types for type refs, and
    plain scalars otherwise. Struct heads additionally carry a concrete
    field map and their optional-field set.
    """

    head: str
    shape: str
    args: dict = field(default_factory=dict)
    fields: dict | None = None
    optional: frozenset[str] = frozenset()

    def arg(self, name: str):
        return self.args.get(name)

    def describe(self) -> str:
        if not self.args:
            return self.head
        parts = []
        for key, value in self.args.items():
            if isinstance(value, ClassDomain):
                parts.append(f"{key}={value.name}")
            elif isinstance(value, ConcreteType):
                parts.append(f"{key}={value.describe()}")
            elif isinstance(value, TypeExpr):
                parts.append(f"{key}={render_type_expression(value)}")
            elif isinstance(value, bool):
                parts.append(f"{key}={'true' if value else 'false'}")
            elif isinstance(value, str):
                parts.append(f'{key}="{value}"')
            else:
                parts.append(f"{key}={value}")
        return f"{self.head}[{', '.join(parts)}]"


@dataclass
class ResolvedSchema:
    sample_type: ConcreteType | None
    global_info_type: ConcreteType | None
    registry: DefinitionRegistry
    meta: dict


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
    diags: list[Diagnostic] = []
    merged: dict[str, object] = {}
    origins: dict[str, str | None] = {}
    loaded: set[Path] = set()

    def merge_defs(defs: dict, origin: str | None) -> None:
        for key, body in defs.items():
            if key in merged:
                diags.append(
                    warning(
                        "IMPORT_OVERWRITE",
                        f"defs/{key}",
                        f"definition {key!r} from {origins[key] or '<input>'} is overwritten by {origin or '<input>'}",
                    )
                )
                del merged[key]  # re-insert to record the later position
            merged[key] = body
            origins[key] = origin

    def visit(document: RawDocument, doc_source: Path | None, stack: list[Path]) -> None:
        base = doc_source.parent if doc_source is not None else None
        for name in document.imports:
            resolved = _find_import(name, base, env)
            if resolved is None:
                searched = [str(base)] if base is not None else []
                searched += [str(p) for p in env.search_paths]
                diags.append(
                    error(
                        "IMPORT_NOT_FOUND",
                        f"$import/{name}",
                        f"cannot resolve import {name!r}; searched: {', '.join(searched) or '<none>'}",
                        str(doc_source) if doc_source else None,
                    )
                )
                continue
            if resolved in stack:
                cycle = [p.name for p in stack[stack.index(resolved):]] + [resolved.name]
                diags.append(
                    error(
                        "IMPORT_CYCLE",
                        f"$import/{name}",
                        f"import cycle: {' -> '.join(cycle)}",
                        str(doc_source) if doc_source else None,
                    )
                )
                continue
            if resolved in loaded:
                continue
            loaded.add(resolved)
            try:
                imported = parse_document(
                    read_utf8(resolved, f"$import/{name}"),
                    format="yaml" if resolved.suffix == ".yaml" else "json",
                    source=str(resolved),
                )
            except OSError as exc:
                diags.append(error("IMPORT_NOT_FOUND", f"$import/{name}", f"cannot read {resolved}: {exc}"))
                continue
            except DocumentError as exc:
                diags.append(exc.diagnostic)
                continue
            visit(imported, resolved, stack + [resolved])
            merge_defs(imported.defs, str(resolved))

    root = Path(source) if source is not None else None
    visit(doc, root, [root] if root is not None else [])
    merge_defs(doc.defs, str(root) if root is not None else None)

    registry, build_diags = build_definitions(merged, provenance=origins)
    diags.extend(build_diags)
    return registry, diags


def _find_import(name: str, base: Path | None, env: LibraryEnvironment) -> Path | None:
    if name.endswith(_IMPORT_EXTENSIONS):
        stems = [name]
    else:
        stems = [name + ext for ext in _IMPORT_EXTENSIONS]
    roots = ([base] if base is not None else []) + list(env.search_paths)
    for root in roots:
        for stem in stems:
            candidate = (root / stem).resolve()
            if candidate.is_file():
                return candidate
    return None


def check_acyclic(registry: DefinitionRegistry) -> list[Diagnostic]:
    """Detect reference cycles among definitions (self-reference counts).

    Returns ``CYCLE_DETECTED`` diagnostics naming the full cycle path,
    or an empty list when the reference graph is a DAG.
    """
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
    color: dict[str, int] = {}  # 0 unvisited, 1 on stack, 2 done

    for start in graph:
        if color.get(start, 0) != 0:
            continue
        # iterative DFS; definition chains may be arbitrarily deep
        stack: list[str] = []
        work: list[tuple[str, int]] = [(start, 0)]
        while work:
            node, edge_index = work.pop()
            if edge_index == 0:
                color[node] = 1
                stack.append(node)
            edges = graph[node]
            advanced = False
            for i in range(edge_index, len(edges)):
                succ = edges[i]
                state = color.get(succ, 0)
                if state == 1:
                    cycle = stack[stack.index(succ):] + [succ]
                    diags.append(
                        error(
                            "CYCLE_DETECTED",
                            f"defs/{succ}",
                            f"circular reference: {' -> '.join(cycle)}",
                        )
                    )
                elif state == 0:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                color[node] = 2
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


@dataclass
class _Instantiation:
    """What one :func:`instantiate_type` call shares.

    ``structs`` maps each closed struct expression already built, without
    a diagnostic, to its concrete type, so a struct used at many paths is
    built once and the result shares that node.
    """

    registry: DefinitionRegistry
    media_extensions: tuple[str, ...]
    diags: list[Diagnostic]
    structs: dict[TypeExpr, ConcreteType] = field(default_factory=dict)


def instantiate_type(
    expr: TypeExpr,
    bindings: dict[str, object],
    registry: DefinitionRegistry,
    *,
    media_extensions: tuple[str, ...] = (),
    diags: list[Diagnostic] | None = None,
    _path: str = "",
) -> ConcreteType:
    """Bind ``expr`` into a :class:`ConcreteType`.

    Positional arguments map to declared parameter order (the builtin
    signature for builtins, ``$params`` for structs) before keyed ones.
    Raises :class:`ResolutionError` on ``UNKNOWN_TYPE``,
    ``MISSING_PARAM``, ``EXTRA_PARAM``, or ``ARG_KIND`` problems.
    """
    closed = substitute_params(expr, bindings)
    run = _Instantiation(registry, media_extensions, diags if diags is not None else [])
    return _instantiate_closed(closed, run, _path)


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
                    error("EXTRA_PARAM", path, f"{head} has no parameter {name!r}")
                )
        if name in bound:
            raise ResolutionError(error("EXTRA_PARAM", path, f"{head}: parameter {name!r} bound twice"))
        bound[name] = arg.value
    return bound


_ROTATED_MODES = ("xyxy", "xywht")
_ANGLE_MEASURES = ("radian", "degree")
_FMT_DIRECTIVES = set("YmdHMSfzjab")


def _check_fmt(fmt: str, path: str) -> None:
    i = 0
    while i < len(fmt):
        if fmt[i] == "%":
            if i + 1 >= len(fmt):
                raise ResolutionError(error("DATE_FORMAT", path, "dangling % in fmt"))
            directive = fmt[i + 1]
            if directive != "%" and directive not in _FMT_DIRECTIVES:
                raise ResolutionError(
                    error("DATE_FORMAT", path, f"unsupported fmt directive %{directive}")
                )
            i += 2
        else:
            i += 1


def _instantiate_closed(expr: TypeExpr, run: _Instantiation, path: str) -> ConcreteType:
    head = expr.head
    if head in BUILTINS:
        return _instantiate_builtin(expr, BUILTINS[head], run, path)
    entry = run.registry.get(head)
    if isinstance(entry, StructClass):
        return _instantiate_struct(expr, entry, run, path)
    if isinstance(entry, ClassDomain):
        raise ResolutionError(
            error("UNKNOWN_TYPE", path, f"{head!r} is a class domain, not a type")
        )
    if head in run.media_extensions:
        if expr.args:
            raise ResolutionError(error("EXTRA_PARAM", path, f"{head} takes no arguments"))
        return ConcreteType(head, "media")
    raise ResolutionError(error("UNKNOWN_TYPE", path, f"unknown type {head!r}"))


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
                error("UNKNOWN_TYPE", path, f"{head}.{spec.name}: unknown class domain {name!r}")
            )
        if not isinstance(entry, ClassDomain):
            raise ResolutionError(
                error("ARG_KIND", path, f"{head}.{spec.name}: {name!r} is not a class domain")
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
    key: TypeExpr | None = expr
    try:
        hash(key)
    except TypeError:  # a caller's binding that is no type-expression value
        key = None
    shared = run.structs.get(key)
    if shared is not None:
        return shared
    reported = len(run.diags)
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
    if key is not None and len(run.diags) == reported:
        # a build that reported something is redone at each path, so
        # every path gets its own diagnostics
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
        return instantiate_type(expr, {}, registry, media_extensions=media_extensions, diags=diags, _path=path)
    except ResolutionError as exc:
        diag = exc.diagnostic
        diags.append(error(diag.code, diag.path or path, diag.message))
        return None
