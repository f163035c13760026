"""Diagnostics: coded, severity-tagged, path-located findings.

Every problem the toolchain reports -- from a malformed header to a
wrong-arity bounding box -- is a :class:`Diagnostic`. Codes are stable
strings; paths are slash-separated locations into the document or the
sample data (e.g. ``samples/3/objects/0/bbox``).
"""

from __future__ import annotations

from enum import Enum

from .slotted import Frozen


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.value


class Diagnostic(Frozen):
    """A single located finding."""

    __slots__ = ("code", "severity", "path", "message", "source")
    _defaults = {"source": None}

    def format(self) -> str:
        """One-line rendering: ``severity code path message``, through :func:`printable`."""
        return printable(f"{self.severity.value} {self.code} {self.path} {self.message}")

    def to_jsonable(self) -> dict:
        out = {
            "severity": self.severity.value,
            "code": self.code,
            "path": self.path,
            "message": self.message,
        }
        if self.source is not None:
            out["source"] = self.source
        return out


def printable(text: str) -> str:
    """``text`` with each character that is not printable (a control
    character, a line or paragraph separator) as its Python escape, so a
    line of text output stays one line and a terminal acts on none of it.
    A backslash is printed as itself."""
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


NAME_LIMIT = 200  # characters of a name, path or OS message that a finding echoes


def echo(text: str, limit: int = NAME_LIMIT, show=str) -> str:
    """``show(text)`` for a finding to echo, cut to the first ``limit``
    characters of ``text`` and then marked ``...``, so a finding on an
    over-long name stays one short line."""
    if len(text) > limit:
        return show(text[:limit]) + "..."
    return show(text)


def expect(value, kinds, what: str):
    """``value`` when it is an instance of ``kinds``; otherwise a :class:`TypeError`
    reading ``what`` (``"f() arg must be a T"``) and the type that was given."""
    if isinstance(value, kinds):
        return value
    raise TypeError(f"{what}, not {type(value).__name__}")


def error(code: str, path: str, message: str, source: str | None = None) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, path, message, source)


def warning(code: str, path: str, message: str, source: str | None = None) -> Diagnostic:
    return Diagnostic(code, Severity.WARNING, path, message, source)


def note(code: str, path: str, message: str, source: str | None = None) -> Diagnostic:
    return Diagnostic(code, Severity.NOTE, path, message, source)


def show_number(number) -> str:
    """``number`` as a message echoes it; an integer past Python's
    int-to-string digit limit, which ``str`` refuses, reads as a placeholder."""
    try:
        return str(number)
    except ValueError:
        return f"{'-' if number < 0 else ''}<integer with too many digits>"


def show_key(name) -> str:
    """A mapping key, or another value read from the input, as a message echoes it: its
    repr, clipped by ``echo``, but an integer past Python's int-to-string digit limit
    reads as ``show_number``'s placeholder."""
    if isinstance(name, int):
        return show_number(name)
    return echo(name, show=repr) if isinstance(name, str) else echo(repr(name))


class DsdlError(Exception):
    """Base error; carries the diagnostic it would report."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.format())
        self.diagnostic = diagnostic

    @property
    def code(self) -> str:
        return self.diagnostic.code


class DocumentError(DsdlError):
    """Fatal problem while parsing a description or library file."""


class GrammarError(DsdlError):
    """Type-expression text violates the grammar."""

    def __init__(self, message: str, offset: int, path: str = "", code: str = "GRAMMAR_ERROR"):
        super().__init__(error(code, path, f"{message} (at offset {offset})"))
        self.offset = offset


class ResolutionError(DsdlError):
    """Import, definition, or instantiation failure."""


class ClassLookupError(DsdlError):
    """Class selector does not address a class in the domain."""


class LocatorError(DsdlError):
    """Object-locator parse or resolution failure."""
