"""The type-expression mini-language.

Grammar::

    TypeExpr := Ident ('[' Arg (',' Arg)* ']')?
    Arg      := (Ident '=')? Value
    Value    := TypeExpr | '$' Ident | string | number | bool

Whitespace between tokens is ignored. Strings are double-quoted with
backslash escapes. Numbers keep their exact decimal text so a later
consumer decides int-versus-float. Positional arguments may only
precede keyed ones. A type expression nests at most ``MAX_TYPE_DEPTH``
levels (``Int`` is one, ``List[etype=Int]`` two), counted across the
string and mapping forms together.
"""

from __future__ import annotations

import re

from .diagnostics import GrammarError
from .slotted import Frozen, set_field

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

MAX_TYPE_DEPTH = 100


class ParamRef(Frozen):
    """A ``$name`` reference to an enclosing struct parameter."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class NumberLit(Frozen):
    """Numeric literal kept as its exact source text."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        set_field(self, "text", text)

    def as_number(self) -> int | float:
        try:
            return int(self.text)
        except ValueError:
            return float(self.text)


class Arg(Frozen):
    __slots__ = ("key", "value")

    def __init__(self, key: str | None, value: ArgValue):
        set_field(self, "key", key)
        set_field(self, "value", value)


class TypeExpr(Frozen):
    __slots__ = ("head", "args")

    def __init__(self, head: str, args: tuple[Arg, ...] = ()):
        set_field(self, "head", head)
        set_field(self, "args", args)


ArgValue = TypeExpr | ParamRef | NumberLit | str | bool


class _TooDeep(GrammarError):
    """Nesting past ``MAX_TYPE_DEPTH``; never read as a literal string."""

    def __init__(self, offset: int):
        super().__init__("type expression nested too deeply", offset)


class _Scanner:
    def __init__(self, text: str, depth: int):
        self.text = text
        self.pos = 0
        self.depth = depth  # type-expression levels enclosing the text

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise GrammarError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise GrammarError("expected identifier", self.pos)
        self.pos = m.end()
        return m.group()

    def string(self) -> str:
        # opening quote already peeked
        self.skip_ws()
        start = self.pos
        self.pos += 1
        out: list[str] = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "\\":
                if self.pos + 1 >= len(self.text):
                    raise GrammarError("unterminated escape", self.pos)
                nxt = self.text[self.pos + 1]
                out.append({"n": "\n", "t": "\t"}.get(nxt, nxt))
                self.pos += 2
            elif ch == '"':
                self.pos += 1
                return "".join(out)
            else:
                out.append(ch)
                self.pos += 1
        raise GrammarError("unterminated string", start)

    def number(self) -> NumberLit:
        self.skip_ws()
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            raise GrammarError("expected number", self.pos)
        self.pos = m.end()
        return NumberLit(m.group())


def parse_type_expression(text: str) -> TypeExpr:
    """Parse ``text`` into a :class:`TypeExpr`.

    Raises :class:`GrammarError` (with a character offset) on any
    malformed input: unbalanced brackets, ``T[]``, trailing commas,
    a positional argument after a keyed one, or stray trailing text.
    """
    return _parse_text(text, 0)


def _parse_text(text: str, depth: int) -> TypeExpr:
    sc = _Scanner(text, depth)
    expr = _parse_expr(sc)
    if not sc.at_end():
        raise GrammarError("unexpected trailing input", sc.pos)
    return expr


def _parse_expr(sc: _Scanner) -> TypeExpr:
    head = sc.ident()
    if head in ("true", "false"):
        raise GrammarError("boolean literal cannot head a type expression", sc.pos)
    if sc.depth >= MAX_TYPE_DEPTH:
        raise _TooDeep(sc.pos)
    if sc.peek() != "[":
        return TypeExpr(head)
    sc.expect("[")
    if sc.peek() == "]":
        raise GrammarError("empty argument list", sc.pos)
    args: list[Arg] = []
    seen_keyed = False
    sc.depth += 1
    while True:
        arg = _parse_arg(sc)
        if arg.key is None and seen_keyed:
            raise GrammarError("positional argument after keyed argument", sc.pos)
        seen_keyed = seen_keyed or arg.key is not None
        args.append(arg)
        ch = sc.peek()
        if ch == ",":
            sc.expect(",")
            if sc.peek() == "]":
                raise GrammarError("trailing comma", sc.pos)
            continue
        if ch == "]":
            sc.expect("]")
            sc.depth -= 1
            return TypeExpr(head, tuple(args))
        raise GrammarError("expected ',' or ']'", sc.pos)


def _parse_arg(sc: _Scanner) -> Arg:
    key: str | None = None
    save = sc.pos
    ch = sc.peek()
    if _IDENT_RE.match(ch or ""):
        ident = sc.ident()
        if sc.peek() == "=":
            sc.expect("=")
            key = ident
        else:
            sc.pos = save
    return Arg(key, _parse_value(sc))


def _parse_value(sc: _Scanner) -> ArgValue:
    ch = sc.peek()
    if ch == "$":
        sc.expect("$")
        return ParamRef(sc.ident())
    if ch == '"':
        return sc.string()
    if ch and (ch.isdigit() or ch in "+-."):
        return sc.number()
    if _IDENT_RE.match(ch or ""):
        save = sc.pos
        ident = sc.ident()
        if ident == "true":
            return True
        if ident == "false":
            return False
        sc.pos = save
        return _parse_expr(sc)
    raise GrammarError("expected a value", sc.pos)


def render_type_expression(expr: TypeExpr) -> str:
    """Canonical text for ``expr``; ``parse(render(t)) == t``."""
    if not isinstance(expr, TypeExpr):
        raise TypeError(f"render_type_expression() takes a TypeExpr, not {type(expr).__name__}")
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
        return NumberLit(repr(value))
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
