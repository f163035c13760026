"""Every finding code written as a string literal in ``src/dsdl`` is upper
snake case and named by some test: a misspelt code at a new site fails here.

A code is in a code position when it is the first argument of ``error``,
``warning`` or ``note``, the second of ``_fail``, a ``code=`` keyword,
``GrammarError``'s default ``code``, or a value of ``_MISSING_KEY_CODES``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

TESTS = Path(__file__).parent
SOURCE = TESTS.parent / "src" / "dsdl"
_UPPER_SNAKE = re.compile(r"[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)*")
_FINDINGS = {"error": 0, "warning": 0, "note": 0, "_fail": 1}  # function name: position of the code


def _literals(node: ast.AST):
    """The string literals that ``node`` evaluates to: itself, or either branch of a conditional."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node
    elif isinstance(node, ast.IfExp):
        yield from _literals(node.body)
        yield from _literals(node.orelse)


def _code_sites(tree: ast.AST):
    """Each node of ``tree`` that holds a finding code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in _FINDINGS and len(node.args) > _FINDINGS[name]:
                yield node.args[_FINDINGS[name]]
            yield from (keyword.value for keyword in node.keywords if keyword.arg == "code")
        elif isinstance(node, ast.ClassDef) and node.name == "GrammarError":
            init = next(item for item in node.body if isinstance(item, ast.FunctionDef) and item.name == "__init__")
            named = init.args.args[len(init.args.args) - len(init.args.defaults):]
            yield from (default for arg, default in zip(named, init.args.defaults) if arg.arg == "code")
        elif isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "_MISSING_KEY_CODES" for target in node.targets):
            yield from node.value.values


def _codes() -> dict[str, list[str]]:
    """Each finding code in a code position, with the ``file:line`` sites that write it."""
    codes: dict[str, list[str]] = {}
    for file in sorted(SOURCE.glob("*.py")):
        for site in _code_sites(ast.parse(file.read_text(encoding="utf-8"))):
            for literal in _literals(site):
                codes.setdefault(literal.value, []).append(f"{file.name}:{literal.lineno}")
    return codes


def test_every_finding_code_is_upper_snake_case_and_named_by_a_test():
    codes = _codes()
    assert {"SYNTAX_ERROR", "GRAMMAR_ERROR", "MISSING_TYPE_KEY", "MISSING_SAMPLES_KEY", "CLASS_NOT_FOUND"} <= set(codes)
    named = [file.read_text(encoding="utf-8") for file in sorted(TESTS.glob("*.py")) if file.name != Path(__file__).name]
    named.append((TESTS / "golden" / "cli.json").read_text(encoding="utf-8"))
    named_text = "\n".join(named)
    bad = {code: sites for code, sites in codes.items() if not _UPPER_SNAKE.fullmatch(code)}
    assert bad == {}, "finding codes that are not upper snake case"
    unnamed = {code: sites for code, sites in codes.items() if not re.search(rf"\b{code}\b", named_text)}
    assert unnamed == {}, "finding codes that no test names"
