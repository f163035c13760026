"""Command-line front end: parse, resolve, validate, inspect.

Exit codes are stable: 0 means no errors (warnings allowed unless
``--strict``), 1 means findings, 2 means usage or I/O failure.
Diagnostics go to stdout in text mode (they are the product); usage
errors go to stderr. Repeated runs on unchanged inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .diagnostics import Diagnostic, DocumentError, DsdlError, LocatorError, Severity, echo, printable
from .locator import ResolutionEnvironment, parse_locator, resolve_locator
from .resolver import ConcreteType, LibraryEnvironment, resolve_file
from .schema import ClassDomain
from .typeexpr import TypeExpr, render_type_expression

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

_ENV_INSUFFICIENT = ("DATA_ROOT_UNSET", "ID_MAPPER_MISSING")


def _resolution_environment(args: argparse.Namespace) -> ResolutionEnvironment:
    return ResolutionEnvironment.from_sources(args.data_root, dict(args.alias), environ=os.environ)


def _config_lines(args: argparse.Namespace) -> list[str]:
    """The ``--show-config`` block: the effective settings after flag > environment > default."""
    paths = LibraryEnvironment.from_environment(args.library_path).search_paths
    aliases = sorted(_resolution_environment(args).aliases.items())
    return [
        "config:",
        "  library-paths: " + ", ".join(str(p) for p in paths),
        f"  data-root: {args.data_root or '<unset>'}",
        "  aliases: " + (", ".join(f"{k}={v}" for k, v in aliases) or "<none>"),
        f"  format: {args.format}",
        f"  strict: {'true' if args.strict else 'false'}",
        f"  max-errors: {args.max_errors or '<unlimited>'}",
    ]


def _parse_alias(text: str) -> tuple[str, str]:
    name, sep, target = text.partition("=")
    if not sep or not name or not target:
        raise argparse.ArgumentTypeError(f"alias must be NAME=DIR, got {text!r}")
    return name, target


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"N must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--strict", action="store_true")
    common.add_argument("--library-path", action="append", default=[], metavar="DIR")
    common.add_argument("--data-root", metavar="DIR")
    common.add_argument("--alias", action="append", default=[], type=_parse_alias, metavar="NAME=DIR")
    common.add_argument("--max-errors", type=_positive_int, metavar="N")
    common.add_argument("--allow-version", action="store_true")
    common.add_argument("--show-config", action="store_true")

    parser = argparse.ArgumentParser(
        prog="dsdl",
        description="Parse, resolve, and validate DSDL data set description files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, run, operand, text in (
        ("validate", cmd_validate, "file", "validate a description file"),
        ("inspect", cmd_inspect, "file", "dump the resolved schema"),
        ("resolve-loc", cmd_resolve_loc, "locator", "classify and resolve an object locator"),
        ("summary", cmd_summary, "file", "dataset statistics"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument(operand)
        p.set_defaults(run=run)
    return parser


class _UsageFailure(Exception):
    """Exit 2: the input cannot be read. The message is the stderr line."""


def _read(args: argparse.Namespace, run, **options):
    """``run`` (:func:`resolve_file`, or ``check_file``) on the operand; a file that
    cannot be read is a usage failure."""
    env = LibraryEnvironment.from_environment(args.library_path)
    try:
        return run(args.file, env, allow_version=args.allow_version, **options)
    except OSError as exc:
        raise _UsageFailure(f"dsdl: error: cannot read {echo(str(Path(args.file)))}: {echo(str(exc))}") from exc
    except DocumentError as exc:
        raise _UsageFailure(exc.diagnostic.format()) from exc


def _exit_code(report: ValidationReport, args: argparse.Namespace) -> int:
    return EXIT_FINDINGS if report.errors or (args.strict and report.warnings) else EXIT_OK


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    """Write ``payload`` as JSON or ``lines`` as text, with the config block if
    asked for; each text line is written through :func:`printable`."""
    if args.format == "json":
        if args.show_config:
            payload = {**payload, "config": _config_lines(args)[1:]}
        lines = [json.dumps(payload, indent=2)]
    else:
        if args.show_config:
            lines = _config_lines(args) + lines
        lines = [printable(line) for line in lines]
    sys.stdout.write("\n".join(lines) + "\n" if lines else "")


def _emit_failure(args: argparse.Namespace, diagnostics: list[Diagnostic]) -> None:
    payload = {"file": args.file, "diagnostics": [d.to_jsonable() for d in diagnostics]}
    _emit(args, payload, [d.format() for d in diagnostics])


def cmd_validate(args: argparse.Namespace) -> int:
    from .validation import check_file  # validation loads here and in summary, so inspect never loads it

    report, _ = _read(args, check_file, strict=args.strict, max_errors=args.max_errors)
    summary = f"{report.sample_count} samples validated, {report.errors} errors, {report.warnings} warnings"
    if report.truncated:
        summary += " (truncated)"
    lines = [d.format() for d in report.diagnostics] + [summary]
    _emit(args, {"file": args.file, **report.to_jsonable()}, lines)
    return _exit_code(report, args)


def _concrete(ctype: ConcreteType, indent: str, lines: list[str]) -> dict:
    """The JSON node of ``ctype``; on the way, each struct field's text line is
    appended to ``lines``, with the fields of its type indented below it. A type
    argument, such as a ``List``'s ``etype``, is walked at the same indent."""
    args = {}
    for key, value in ctype.args.items():
        if isinstance(value, ClassDomain):
            args[key] = {"class_domain": value.name}
        elif isinstance(value, ConcreteType):
            args[key] = _concrete(value, indent, lines)
        elif isinstance(value, TypeExpr):
            args[key] = {"type_expression": render_type_expression(value)}
        else:
            args[key] = value
    out: dict = {"type": ctype.head}
    if args:
        out["args"] = args
    if ctype.fields is not None:
        out["fields"] = fields = {}
        for name, ftype in ctype.fields.items():
            lines.append(f"{indent}{name}: {ftype.describe()}{' (optional)' if name in ctype.optional else ''}")
            fields[name] = _concrete(ftype, indent + "  ", lines)
        if ctype.optional:
            out["optional"] = sorted(ctype.optional)
    return out


def cmd_inspect(args: argparse.Namespace) -> int:
    doc, schema, diags = _read(args, resolve_file)
    if schema is None or any(d.severity is Severity.ERROR for d in diags):
        _emit_failure(args, diags)
        return EXIT_FINDINGS if diags else EXIT_OK

    defs: dict = {}
    lines = [f"file: {args.file}", f"dsdl-version: {doc.dsdl_version}"]
    lines.extend(d.format() for d in diags)
    lines.append("definitions:")
    for name, entry in schema.registry.items():
        source = schema.registry.provenance[name]
        origin = f" [{source}]" if source else ""
        if isinstance(entry, ClassDomain):
            classes = entry.class_names()
            defs[name] = {
                "kind": "class_domain",
                "classes": {str(i): c for i, c in enumerate(classes, start=1)},
                "source": source,
            }
            lines.append(f"  class_domain {name} ({len(entry)} classes){origin}")
            lines.extend(f"    {i}. {cname}" for i, cname in enumerate(classes, start=1))
            if entry.skeleton:
                defs[name]["skeleton"] = [list(p) for p in entry.skeleton]
                lines.append("    skeleton: " + ", ".join(f"[{a}, {b}]" for a, b in entry.skeleton))
            if entry.parents:
                defs[name]["parents"] = entry.parents
        else:
            fields = {f: render_type_expression(e) for f, e in entry.fields.items()}
            defs[name] = {
                "kind": "struct",
                "params": entry.params,
                "fields": fields,
                "optional": sorted(entry.optional),
                "source": source,
            }
            params = f"[{', '.join(entry.params)}]" if entry.params else ""
            lines.append(f"  struct {name}{params}{origin}")
            for fname, text in fields.items():
                suffix = " (optional)" if fname in entry.optional else ""
                lines.append(f"    {fname}: {text}{suffix}")

    payload: dict = {"file": args.file, "version": doc.dsdl_version, "definitions": defs}
    for key, label, ctype in (
        ("sample_type", "sample-type", schema.sample_type),
        ("global_info_type", "global-info-type", schema.global_info_type),
    ):
        if ctype is not None:
            lines.append(f"{label}: {ctype.describe()}")
            payload[key] = _concrete(ctype, "  ", lines)
    if diags:
        payload["diagnostics"] = [d.to_jsonable() for d in diags]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_resolve_loc(args: argparse.Namespace) -> int:
    payload: dict = {"locator": args.locator}
    try:
        loc = parse_locator(args.locator)
    except LocatorError as exc:
        payload["error"] = exc.diagnostic.to_jsonable()
        _emit(args, payload, [exc.diagnostic.format()])
        return EXIT_FINDINGS

    payload["variant"] = loc.kind
    try:
        payload["address"] = address = resolve_locator(loc, _resolution_environment(args))
        line = f"{loc.kind} -> {address}"
    except LocatorError as exc:
        if exc.code not in _ENV_INSUFFICIENT:
            payload["error"] = exc.diagnostic.to_jsonable()
            _emit(args, payload, [exc.diagnostic.format()])
            return EXIT_FINDINGS
        line = f"{loc.kind} {args.locator} (unresolved: environment insufficient)"
    _emit(args, payload, [line])
    return EXIT_OK


def cmd_summary(args: argparse.Namespace) -> int:
    from .validation import check_file

    report, counts = _read(args, check_file, strict=args.strict, max_errors=args.max_errors, count=True)
    if report.errors:
        _emit_failure(args, report.diagnostics)
        return EXIT_FINDINGS

    fill, locators = counts.optional_fill, counts.locators
    payload = {
        "file": args.file,
        "sample_count": report.sample_count,
        "labels": dict(sorted(counts.labels.items())),
        "optional_fill": {
            f"{s}.{f}": {"present": c[0], "total": c[1]} for (s, f), c in sorted(fill.items())
        },
        "locator_variants": dict(sorted(locators.items())),
        "errors": report.errors,
        "warnings": report.warnings,
    }
    lines = [f"samples: {report.sample_count}", "labels:"]
    lines.extend(f"  {key}: {count}" for key, count in payload["labels"].items())
    if fill:
        lines.append("optional-fill:")
        lines.extend(f"  {key}: {c['present']}/{c['total']}" for key, c in payload["optional_fill"].items())
    if locators:
        lines.append("locators:")
        lines.extend(f"  {kind}: {count}" for kind, count in payload["locator_variants"].items())
    _emit(args, payload, lines)
    return _exit_code(report, args)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except _UsageFailure as exc:
        print(printable(str(exc)), file=sys.stderr)
        return EXIT_USAGE
    except DsdlError as exc:
        print(exc.diagnostic.format())
        return EXIT_FINDINGS


if __name__ == "__main__":
    raise SystemExit(main())
