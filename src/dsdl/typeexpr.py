"""The type-expression mini-language.

Grammar::

    TypeExpr := Ident ('[' Arg (',' Arg)* ']')?
    Arg      := (Ident '=')? Value
    Value    := TypeExpr | '$' Ident | string | number | bool

Unicode whitespace between tokens is ignored. Strings are double-quoted with
backslash escapes. Numbers keep their exact decimal text so a later
consumer decides int-versus-float. Positional arguments may only
precede keyed ones. A type expression nests at most ``MAX_TYPE_DEPTH``
levels (``Int`` is one, ``List[etype=Int]`` two), counted across the
string and mapping forms together.
"""

from __future__ import annotations

import re

from .diagnostics import GrammarError, expect
from .slotted import Frozen

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# optional whitespace, then an identifier, a number, a whole quoted
# string, or one character ("" at the end of the text)
_TOKEN_RE = re.compile(
    rf'\s*(?:({_IDENT_RE.pattern})|([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)|("(?:[^"\\]|\\.)*")|(.?))',
    re.DOTALL,
)
_IDENT, _NUMBER, _STRING = 1, 2, 3
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}

MAX_TYPE_DEPTH = 100


class ParamRef(Frozen):
    """A ``$name`` reference to an enclosing struct parameter."""

    __slots__ = ("name",)


class NumberLit(Frozen):
    """Numeric literal kept as its exact source text."""

    __slots__ = ("text",)

    def as_number(self) -> int | float:
        try:
            return int(self.text)
        except ValueError:
            return float(self.text)


class Arg(Frozen):
    __slots__ = ("key", "value")


class TypeExpr(Frozen):
    __slots__ = ("head", "args")
    _defaults = {"args": ()}


ArgValue = TypeExpr | ParamRef | NumberLit | str | bool


class _TooDeep(GrammarError):
    """Nesting past ``MAX_TYPE_DEPTH``; never read as a literal string."""

    def __init__(self, offset: int):
        super().__init__("type expression nested too deeply", offset)


def _token(text: str, pos: int) -> tuple[int, str, int, int]:
    """The token after ``pos`` as ``(kind, token, start, end)``; ``""`` at the end."""
    m = _TOKEN_RE.match(text, pos)
    kind = m.lastindex
    return kind, m.group(kind), m.start(kind), m.end()


def parse_type_expression(text: str) -> TypeExpr:
    """Parse ``text`` into a :class:`TypeExpr`.

    Raises :class:`GrammarError` (with a character offset) on any
    malformed input: unbalanced brackets, ``T[]``, trailing commas,
    a positional argument after a keyed one, or stray trailing text.
    """
    expect(text, str, "parse_type_expression() text must be str")
    return _parse_text(text, 0)


def _parse_text(text: str, depth: int) -> TypeExpr:
    expr, pos = _parse_expr(text, 0, depth)
    _, token, start, _ = _token(text, pos)
    if token:
        raise GrammarError("unexpected trailing input", start)
    return expr


def _parse_expr(text: str, pos: int, depth: int) -> tuple[TypeExpr, int]:
    kind, head, start, pos = _token(text, pos)
    if kind != _IDENT:
        raise GrammarError("expected identifier", start)
    if head in ("true", "false"):
        raise GrammarError("boolean literal cannot head a type expression", pos)
    if depth >= MAX_TYPE_DEPTH:
        raise _TooDeep(pos)
    _, token, start, pos = _token(text, pos)
    if token != "[":
        return TypeExpr(head), start
    args: list[Arg] = []
    while True:
        _, token, start, _ = _token(text, pos)
        if token == "]":
            raise GrammarError("trailing comma" if args else "empty argument list", start)
        arg, pos = _parse_arg(text, pos, depth + 1)
        if arg.key is None and args and args[-1].key is not None:
            raise GrammarError("positional argument after keyed argument", pos)
        args.append(arg)
        _, token, start, pos = _token(text, pos)
        if token == "]":
            return TypeExpr(head, tuple(args)), pos
        if token != ",":
            raise GrammarError("expected ',' or ']'", start)


def _parse_arg(text: str, pos: int, depth: int) -> tuple[Arg, int]:
    kind, key, _, end = _token(text, pos)
    if kind == _IDENT:
        _, token, _, after = _token(text, end)
        if token == "=":
            value, pos = _parse_value(text, after, depth)
            return Arg(key, value), pos
    value, pos = _parse_value(text, pos, depth)
    return Arg(None, value), pos


def _parse_value(text: str, pos: int, depth: int) -> tuple[ArgValue, int]:
    kind, token, start, end = _token(text, pos)
    if kind == _IDENT:
        if token in ("true", "false"):
            return token == "true", end
        return _parse_expr(text, pos, depth)
    if kind == _NUMBER:
        return NumberLit(token), end
    if kind == _STRING:
        return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m[1], m[1]), token[1:-1]), end
    if token == "$":
        kind, name, start, end = _token(text, end)
        if kind != _IDENT:
            raise GrammarError("expected identifier", start)
        return ParamRef(name), end
    if token == '"':
        if (len(text) - len(text.rstrip("\\"))) % 2:
            raise GrammarError("unterminated escape", len(text) - 1)
        raise GrammarError("unterminated string", start)
    if token and (token.isdigit() or token in "+-."):
        raise GrammarError("expected number", start)
    raise GrammarError("expected a value", start)


def render_type_expression(expr: TypeExpr) -> str:
    """Canonical text for ``expr``; ``parse(render(t)) == t``."""
    expect(expr, TypeExpr, "render_type_expression() takes a TypeExpr")
    if not expr.args:
        return expr.head
    parts = []
    for arg in expr.args:
        rendered = _render_value(arg.value)
        parts.append(f"{arg.key}={rendered}" if arg.key else rendered)
    return f"{expr.head}[{', '.join(parts)}]"


def _render_value(value: ArgValue) -> str:
    if isinstance(value, TypeExpr):
        return render_type_expression(value)
    if isinstance(value, ParamRef):
        return f"${value.name}"
    if isinstance(value, NumberLit):
        return value.text
    if isinstance(value, bool):
        return "true" if value else "false"
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def parse_sample_type_spec(raw: object) -> TypeExpr:
    """Normalize a ``sample-type`` (or field) spec into a :class:`TypeExpr`.

    Accepts the plain string form (``"N[k=v]"``) or the mapping form
    (``{$type: N, k: v}``); the two are equivalent. Mapping values that
    parse as type expressions become nested ASTs, everything else stays
    a literal.
    """
    return _parse_spec(raw, 0)


def _parse_spec(raw: object, depth: int) -> TypeExpr:
    if isinstance(raw, str):
        return _parse_text(raw, depth)
    if isinstance(raw, dict):
        if "$type" not in raw:
            raise GrammarError("mapping type spec lacks required key $type", 0, code="MISSING_TYPE_KEY")
        head_raw = raw["$type"]
        if not isinstance(head_raw, str):
            raise GrammarError("$type must be a string", 0)
        expr = _parse_text(head_raw, depth)
        extra: list[Arg] = []
        for key, value in raw.items():
            if key == "$type":
                continue
            extra.append(Arg(key, _spec_value(value, depth + 1)))
        return TypeExpr(expr.head, expr.args + tuple(extra))
    raise GrammarError(f"type spec must be a string or mapping, got {type(raw).__name__}", 0)


def _spec_value(value: object, depth: int) -> ArgValue:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        try:
            text = repr(value)
        except ValueError:  # an int past the interpreter's digit limit
            raise GrammarError("integer argument has too many digits", 0) from None
        if _token(text, 0)[0] != _NUMBER:  # nan, inf, -inf
            raise GrammarError(f"number {text} has no type-expression literal", 0)
        return NumberLit(text)
    if isinstance(value, str):
        if value.startswith("$") and _IDENT_RE.fullmatch(value[1:] or "-"):
            return ParamRef(value[1:])
        try:
            return _parse_text(value, depth)
        except _TooDeep:
            raise
        except GrammarError:
            return value
    if isinstance(value, dict):
        return _parse_spec(value, depth)
    raise GrammarError(f"unsupported argument value of type {type(value).__name__}", 0)


def walk_param_refs(expr: TypeExpr):
    """Yield every :class:`ParamRef` reachable from ``expr``."""
    for arg in expr.args:
        value = arg.value
        if isinstance(value, ParamRef):
            yield value
        elif isinstance(value, TypeExpr):
            yield from walk_param_refs(value)


def walk_heads(expr: TypeExpr):
    """Yield every head identifier reachable from ``expr``, outermost first."""
    yield expr.head
    for arg in expr.args:
        if isinstance(arg.value, TypeExpr):
            yield from walk_heads(arg.value)
