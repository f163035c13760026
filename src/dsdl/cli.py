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
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import DocumentError, DsdlError, LocatorError
from .document import RawDocument, parse_document, read_utf8
from .locator import ResolutionEnvironment, default_media_registry, parse_locator, resolve_locator
from .resolver import ConcreteType, LibraryEnvironment, ResolvedSchema, resolve_schema
from .schema import ClassDomain, StructClass
from .typeexpr import render_type_expression
from .validation import ClassRef, MediaRef, Record, ValidationReport, validate_dataset

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

_ENV_INSUFFICIENT = ("DATA_ROOT_UNSET", "ID_MAPPER_MISSING")


@dataclass
class CliConfig:
    """Effective configuration after flag > environment > default merging."""

    library_paths: tuple[str, ...] = ()
    data_root: str | None = None
    aliases: dict[str, str] = field(default_factory=dict)
    format: str = "text"
    strict: bool = False
    max_errors: int | None = None
    allow_version: bool = False
    show_config: bool = False

    def library_environment(self) -> LibraryEnvironment:
        return LibraryEnvironment.from_environment(tuple(Path(p) for p in self.library_paths))

    def resolution_environment(self) -> ResolutionEnvironment:
        return ResolutionEnvironment.from_sources(
            data_root=self.data_root,
            cli_aliases=self.aliases,
            environ=os.environ,
        )

    def lines(self) -> list[str]:
        env = self.library_environment()
        out = ["config:"]
        out.append("  library-paths: " + (", ".join(str(p) for p in env.search_paths) or "<none>"))
        out.append(f"  data-root: {self.data_root or '<unset>'}")
        aliases = self.resolution_environment().aliases
        alias_text = ", ".join(f"{k}={v}" for k, v in sorted(aliases.items())) or "<none>"
        out.append(f"  aliases: {alias_text}")
        out.append(f"  format: {self.format}")
        out.append(f"  strict: {'true' if self.strict else 'false'}")
        out.append(f"  max-errors: {self.max_errors if self.max_errors is not None else '<unlimited>'}")
        return out


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

    p = sub.add_parser("validate", parents=[common], help="validate a description file")
    p.add_argument("file")
    p = sub.add_parser("inspect", parents=[common], help="dump the resolved schema")
    p.add_argument("file")
    p = sub.add_parser("resolve-loc", parents=[common], help="classify and resolve an object locator")
    p.add_argument("locator")
    p = sub.add_parser("summary", parents=[common], help="dataset statistics")
    p.add_argument("file")
    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    return CliConfig(
        library_paths=tuple(args.library_path),
        data_root=args.data_root,
        aliases=dict(args.alias),
        format=args.format,
        strict=args.strict,
        max_errors=args.max_errors,
        allow_version=args.allow_version,
        show_config=args.show_config,
    )


class _UsageFailure(Exception):
    pass


class _UnreadableInput(DsdlError):
    """The description file cannot be decoded: an I/O failure with a coded diagnostic."""


def _run(
    file: str, config: CliConfig, validate: bool
) -> tuple[RawDocument | None, ResolvedSchema | None, ValidationReport]:
    """parse -> resolve -> validate; the report holds every diagnostic in that order."""
    path = Path(file)
    try:
        text = read_utf8(path, str(path))
    except OSError as exc:
        raise _UsageFailure(f"cannot read {path}: {exc}") from exc
    except DocumentError as exc:
        raise _UnreadableInput(exc.diagnostic) from exc
    fmt = {".json": "json", ".yaml": "yaml", ".yml": "yaml"}.get(path.suffix, "auto")
    try:
        doc = parse_document(text, format=fmt, source=str(path), allow_version=config.allow_version)
    except DocumentError as exc:
        return None, None, ValidationReport(diagnostics=[exc.diagnostic])
    schema, diags = resolve_schema(
        doc,
        config.library_environment(),
        source=path,
        media_extensions=default_media_registry().extension_names(),
    )
    report = ValidationReport()
    if validate and schema is not None:
        report = validate_dataset(
            schema, doc.data, base=path.parent, strict=config.strict, max_errors=config.max_errors
        )
    report.diagnostics[:0] = diags
    return doc, schema, report


def _exit_code(report: ValidationReport, config: CliConfig) -> int:
    return EXIT_FINDINGS if report.errors or (config.strict and report.warnings) else EXIT_OK


def _emit(config: CliConfig, payload: dict, lines: list[str]) -> None:
    """Write ``payload`` as JSON or ``lines`` as text, with the config block if asked for."""
    if config.format == "json":
        if config.show_config:
            payload = {**payload, "config": config.lines()[1:]}
        lines = [json.dumps(payload, indent=2)]
    elif config.show_config:
        lines = config.lines() + lines
    sys.stdout.write("\n".join(lines) + "\n" if lines else "")


def _emit_failure(file: str, config: CliConfig, report: ValidationReport) -> None:
    payload = {"file": file, "diagnostics": [d.to_jsonable() for d in report.diagnostics]}
    _emit(config, payload, [d.format() for d in report.diagnostics])


def cmd_validate(file: str, config: CliConfig) -> int:
    _, _, report = _run(file, config, validate=True)
    summary = f"{report.sample_count} samples validated, {report.errors} errors, {report.warnings} warnings"
    if report.truncated:
        summary += " (truncated)"
    lines = [d.format() for d in report.diagnostics] + [summary]
    _emit(config, {"file": file, **report.to_jsonable()}, lines)
    return _exit_code(report, config)


def _concrete_lines(ctype: ConcreteType, indent: str, out: list[str], seen: tuple[str, ...] = ()) -> None:
    if ctype.fields is None:
        return
    for fname, ftype in ctype.fields.items():
        suffix = " (optional)" if fname in ctype.optional else ""
        out.append(f"{indent}{fname}: {ftype.describe()}{suffix}")
        nested = ftype
        if nested.shape == "list":
            nested = nested.arg("etype")
        if nested is not None and nested.shape == "struct" and nested.head not in seen:
            _concrete_lines(nested, indent + "  ", out, seen + (ctype.head,))


def _concrete_jsonable(ctype: ConcreteType) -> dict:
    args = {}
    for key, value in ctype.args.items():
        if isinstance(value, ClassDomain):
            args[key] = {"class_domain": value.name}
        elif isinstance(value, ConcreteType):
            args[key] = _concrete_jsonable(value)
        else:
            args[key] = value
    out: dict = {"type": ctype.head}
    if args:
        out["args"] = args
    if ctype.fields is not None:
        out["fields"] = {name: _concrete_jsonable(f) for name, f in ctype.fields.items()}
        if ctype.optional:
            out["optional"] = sorted(ctype.optional)
    return out


def cmd_inspect(file: str, config: CliConfig) -> int:
    doc, schema, report = _run(file, config, validate=False)
    if report.errors or schema is None:
        _emit_failure(file, config, report)
        return EXIT_FINDINGS if report.diagnostics else EXIT_OK

    defs: dict = {}
    lines = [f"file: {file}", f"dsdl-version: {doc.dsdl_version}"]
    lines.extend(d.format() for d in report.diagnostics)
    lines.append("definitions:")
    for name, entry in schema.registry.items():
        source = schema.registry.provenance[name].source
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

    payload: dict = {"file": file, "version": doc.dsdl_version, "definitions": defs}
    for key, label, ctype in (
        ("sample_type", "sample-type", schema.sample_type),
        ("global_info_type", "global-info-type", schema.global_info_type),
    ):
        if ctype is not None:
            payload[key] = _concrete_jsonable(ctype)
            lines.append(f"{label}: {ctype.describe()}")
            _concrete_lines(ctype, "  ", lines)
    if report.diagnostics:
        payload["diagnostics"] = [d.to_jsonable() for d in report.diagnostics]
    _emit(config, payload, lines)
    return EXIT_OK


def cmd_resolve_loc(locator_text: str, config: CliConfig) -> int:
    payload: dict = {"locator": locator_text}
    try:
        loc = parse_locator(locator_text)
    except LocatorError as exc:
        payload["error"] = exc.diagnostic.to_jsonable()
        _emit(config, payload, [exc.diagnostic.format()])
        return EXIT_FINDINGS

    payload["variant"] = loc.kind
    try:
        payload["address"] = address = resolve_locator(loc, config.resolution_environment())
        line = f"{loc.kind} -> {address}"
    except LocatorError as exc:
        if exc.code not in _ENV_INSUFFICIENT:
            payload["error"] = exc.diagnostic.to_jsonable()
            _emit(config, payload, [exc.diagnostic.format()])
            return EXIT_FINDINGS
        line = f"{loc.kind} {locator_text} (unresolved: environment insufficient)"
    _emit(config, payload, [line])
    return EXIT_OK


def _walk_values(value):
    yield value
    if isinstance(value, Record):
        for item in value.values.values():
            yield from _walk_values(item)
    elif isinstance(value, list):
        for item in value:
            yield from _walk_values(item)


def cmd_summary(file: str, config: CliConfig) -> int:
    _, schema, report = _run(file, config, validate=True)
    if report.errors or schema is None:
        _emit_failure(file, config, report)
        return EXIT_FINDINGS

    labels: dict[str, int] = {}
    fill: dict[tuple[str, str], list[int]] = {}
    locators: dict[str, int] = {}
    for sample in report.samples:
        for value in _walk_values(sample):
            if isinstance(value, ClassRef):
                key = str(value)
                labels[key] = labels.get(key, 0) + 1
            elif isinstance(value, MediaRef):
                locators[value.locator.kind] = locators.get(value.locator.kind, 0) + 1
            elif isinstance(value, Record):
                struct = schema.registry.get(value.struct_name)
                optional = struct.optional if isinstance(struct, StructClass) else frozenset()
                for fname in optional:
                    counts = fill.setdefault((value.struct_name, fname), [0, 0])
                    counts[1] += 1
                    if value.values.get(fname) is not None:
                        counts[0] += 1

    payload = {
        "file": file,
        "sample_count": report.sample_count,
        "labels": dict(sorted(labels.items())),
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
    _emit(config, payload, lines)
    return _exit_code(report, config)


_COMMANDS = {
    "validate": cmd_validate,
    "inspect": cmd_inspect,
    "resolve-loc": cmd_resolve_loc,
    "summary": cmd_summary,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    target = args.locator if args.command == "resolve-loc" else args.file
    try:
        return _COMMANDS[args.command](target, _config_from_args(args))
    except _UsageFailure as exc:
        print(f"dsdl: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _UnreadableInput as exc:
        print(exc.diagnostic.format(), file=sys.stderr)
        return EXIT_USAGE
    except DsdlError as exc:
        print(exc.diagnostic.format())
        return EXIT_FINDINGS


if __name__ == "__main__":
    raise SystemExit(main())
