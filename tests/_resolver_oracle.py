"""The resolver versions that the current ones must agree with.

``_Instantiation``, ``instantiate_type``, ``_instantiate_closed``,
``_instantiate_builtin``, ``_materialize`` and ``_instantiate_struct``
are the versions that shared a struct build only when it reported no
diagnostic, kept here unchanged as the reference of
``test_instantiation_matches_per_path_oracle``: a build that reported a
``PARAM_ALIAS`` note is redone at every path, so each path gets its own
note. ``check_acyclic`` is the version that walked definitions with a
work list of ``(node, edge_index)`` pairs, kept unchanged as the
reference of ``test_check_acyclic_matches_work_list_oracle``. Types,
argument binding and diagnostics come from ``dsdl`` so that results
compare equal.
"""

from __future__ import annotations

from dsdl.diagnostics import Diagnostic, ResolutionError, error, note
from dsdl.resolver import _ANGLE_MEASURES, _ROTATED_MODES, ConcreteType, _bind_args, _check_fmt, substitute_params
from dsdl.schema import BUILTINS, BuiltinSignature, ClassDomain, DefinitionRegistry, StructClass
from dsdl.slotted import Slotted
from dsdl.typeexpr import MAX_TYPE_DEPTH, Arg, NumberLit, TypeExpr, walk_heads


class _Instantiation(Slotted):
    """What one :func:`instantiate_type` call shares.

    ``depth`` counts the types open around the one being built, struct
    fields included; a concrete type nests at most ``MAX_TYPE_DEPTH``
    levels, so building, compiling and validating it recurse boundedly.
    ``structs`` maps each closed struct expression already built at a
    depth, without a diagnostic, to its concrete type, so a struct used
    at many paths is built once per depth and the result shares that node.
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
                error("UNKNOWN_TYPE", path, f"{head!r} is a class domain, not a type")
            )
        if head in run.media_extensions:
            if expr.args:
                raise ResolutionError(error("EXTRA_PARAM", path, f"{head} takes no arguments"))
            return ConcreteType(head, "media")
        raise ResolutionError(error("UNKNOWN_TYPE", path, f"unknown type {head!r}"))
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
    key: tuple[TypeExpr, int] | None = (expr, run.depth)
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
