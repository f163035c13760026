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

from .diagnostics import Diagnostic, DocumentError, DsdlError, LocatorError, Severity
from .document import parse_document, read_utf8
from .locator import ResolutionEnvironment, parse_locator, resolve_locator
from .resolver import ConcreteType, LibraryEnvironment, ResolvedSchema, resolve_schema
from .schema import ClassDomain, StructClass
from .typeexpr import render_type_expression
from .validation import (
    ClassRef,
    MediaRef,
    Record,
    ValidationReport,
    validate_dataset,
)

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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--strict", action="store_true")
    common.add_argument("--library-path", action="append", default=[], metavar="DIR")
    common.add_argument("--data-root", metavar="DIR")
    common.add_argument("--alias", action="append", default=[], type=_parse_alias, metavar="NAME=DIR")
    common.add_argument("--max-errors", type=int, metavar="N")
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


class _Pipeline:
    """parse -> resolve -> validate, collecting diagnostics in order."""

    def __init__(self, file: str, config: CliConfig):
        self.path = Path(file)
        self.config = config
        self.diagnostics: list[Diagnostic] = []
        self.doc = None
        self.schema: ResolvedSchema | None = None
        self.report: ValidationReport | None = None

    def run(self, validate: bool = True) -> None:
        try:
            text = read_utf8(self.path, str(self.path))
        except OSError as exc:
            raise _UsageFailure(f"cannot read {self.path}: {exc}") from exc
        except DocumentError as exc:
            raise _UnreadableInput(exc.diagnostic) from exc
        fmt = {".json": "json", ".yaml": "yaml", ".yml": "yaml"}.get(self.path.suffix, "auto")
        try:
            self.doc = parse_document(
                text, format=fmt, source=str(self.path), allow_version=self.config.allow_version
            )
        except DocumentError as exc:
            self.diagnostics.append(exc.diagnostic)
            return
        self.schema, diags = resolve_schema(
            self.doc, self.config.library_environment(), source=self.path
        )
        self.diagnostics.extend(diags)
        if validate and self.schema is not None:
            self.report = validate_dataset(
                self.schema,
                self.doc.data,
                base=self.path.parent,
                strict=self.config.strict,
                max_errors=self.config.max_errors,
            )
            self.diagnostics.extend(self.report.diagnostics)

    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    def warning_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.WARNING)

    def note_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.NOTE)

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for d in self.diagnostics:
            counts[d.code] = counts.get(d.code, 0) + 1
        return dict(sorted(counts.items()))

    def exit_code(self) -> int:
        if self.error_count() > 0:
            return EXIT_FINDINGS
        if self.config.strict and self.warning_count() > 0:
            return EXIT_FINDINGS
        return EXIT_OK


class _UsageFailure(Exception):
    pass


class _UnreadableInput(DsdlError):
    """The description file cannot be decoded: an I/O failure with a coded diagnostic."""


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n" if lines else "")


def cmd_validate(file: str, config: CliConfig) -> int:
    pipe = _Pipeline(file, config)
    pipe.run(validate=True)
    sample_count = pipe.report.sample_count if pipe.report is not None else 0
    if config.format == "json":
        payload = {
            "file": file,
            "sample_count": sample_count,
            "errors": pipe.error_count(),
            "warnings": pipe.warning_count(),
            "notes": pipe.note_count(),
            "counts_by_code": pipe.counts_by_code(),
            "truncated": bool(pipe.report.truncated) if pipe.report else False,
            "diagnostics": [d.to_jsonable() for d in pipe.diagnostics],
        }
        if config.show_config:
            payload["config"] = config.lines()[1:]
        _emit([json.dumps(payload, indent=2, sort_keys=False)])
        return pipe.exit_code()
    lines: list[str] = []
    if config.show_config:
        lines.extend(config.lines())
    lines.extend(d.format() for d in pipe.diagnostics)
    summary = (
        f"{sample_count} samples validated, "
        f"{pipe.error_count()} errors, {pipe.warning_count()} warnings"
    )
    if pipe.report is not None and pipe.report.truncated:
        summary += " (truncated)"
    lines.append(summary)
    _emit(lines)
    return pipe.exit_code()


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
    pipe = _Pipeline(file, config)
    pipe.run(validate=False)
    if pipe.error_count() > 0 or pipe.schema is None:
        if config.format == "json":
            _emit([json.dumps({"file": file, "diagnostics": [d.to_jsonable() for d in pipe.diagnostics]}, indent=2)])
        else:
            _emit([d.format() for d in pipe.diagnostics])
        return EXIT_FINDINGS if pipe.diagnostics else EXIT_OK

    schema = pipe.schema
    if config.format == "json":
        defs = {}
        for name, entry in schema.registry.items():
            prov = schema.registry.provenance[name]
            if isinstance(entry, ClassDomain):
                defs[name] = {
                    "kind": "class_domain",
                    "classes": {str(i): c for i, c in enumerate(entry.class_names(), start=1)},
                    "source": prov.source,
                }
                if entry.skeleton:
                    defs[name]["skeleton"] = [list(p) for p in entry.skeleton]
                if entry.parents:
                    defs[name]["parents"] = entry.parents
            else:
                defs[name] = {
                    "kind": "struct",
                    "params": entry.params,
                    "fields": {f: render_type_expression(e) for f, e in entry.fields.items()},
                    "optional": sorted(entry.optional),
                    "source": prov.source,
                }
        payload: dict = {"file": file, "version": pipe.doc.dsdl_version, "definitions": defs}
        if schema.sample_type is not None:
            payload["sample_type"] = _concrete_jsonable(schema.sample_type)
        if schema.global_info_type is not None:
            payload["global_info_type"] = _concrete_jsonable(schema.global_info_type)
        if pipe.diagnostics:
            payload["diagnostics"] = [d.to_jsonable() for d in pipe.diagnostics]
        if config.show_config:
            payload["config"] = config.lines()[1:]
        _emit([json.dumps(payload, indent=2, sort_keys=False)])
        return EXIT_OK

    lines: list[str] = []
    if config.show_config:
        lines.extend(config.lines())
    lines.append(f"file: {file}")
    lines.append(f"dsdl-version: {pipe.doc.dsdl_version}")
    lines.extend(d.format() for d in pipe.diagnostics)
    lines.append("definitions:")
    for name, entry in schema.registry.items():
        prov = schema.registry.provenance[name]
        origin = f" [{prov.source}]" if prov.source else ""
        if isinstance(entry, ClassDomain):
            lines.append(f"  class_domain {name} ({len(entry)} classes){origin}")
            for i, cname in enumerate(entry.class_names(), start=1):
                lines.append(f"    {i}. {cname}")
            if entry.skeleton:
                edges = ", ".join(f"[{a}, {b}]" for a, b in entry.skeleton)
                lines.append(f"    skeleton: {edges}")
        else:
            params = f"[{', '.join(entry.params)}]" if entry.params else ""
            lines.append(f"  struct {name}{params}{origin}")
            for fname, fexpr in entry.fields.items():
                suffix = " (optional)" if fname in entry.optional else ""
                lines.append(f"    {fname}: {render_type_expression(fexpr)}{suffix}")
    if schema.sample_type is not None:
        lines.append(f"sample-type: {schema.sample_type.describe()}")
        _concrete_lines(schema.sample_type, "  ", lines)
    if schema.global_info_type is not None:
        lines.append(f"global-info-type: {schema.global_info_type.describe()}")
        _concrete_lines(schema.global_info_type, "  ", lines)
    _emit(lines)
    return EXIT_OK


def cmd_resolve_loc(locator_text: str, config: CliConfig) -> int:
    lines: list[str] = []
    if config.show_config and config.format == "text":
        lines.extend(config.lines())
    try:
        loc = parse_locator(locator_text)
    except LocatorError as exc:
        if config.format == "json":
            _emit([json.dumps({"locator": locator_text, "error": exc.diagnostic.to_jsonable()}, indent=2)])
        else:
            lines.append(exc.diagnostic.format())
            _emit(lines)
        return EXIT_FINDINGS

    address = None
    failure: Diagnostic | None = None
    try:
        address = resolve_locator(loc, config.resolution_environment())
    except LocatorError as exc:
        if exc.code not in _ENV_INSUFFICIENT:
            failure = exc.diagnostic

    if config.format == "json":
        payload: dict = {"locator": locator_text, "variant": loc.kind}
        if address is not None:
            payload["address"] = address
        if failure is not None:
            payload["error"] = failure.to_jsonable()
        if config.show_config:
            payload["config"] = config.lines()[1:]
        _emit([json.dumps(payload, indent=2)])
        return EXIT_FINDINGS if failure else EXIT_OK

    if failure is not None:
        lines.append(failure.format())
        _emit(lines)
        return EXIT_FINDINGS
    if address is not None:
        lines.append(f"{loc.kind} -> {address}")
    else:
        lines.append(f"{loc.kind} {locator_text} (unresolved: environment insufficient)")
    _emit(lines)
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
    pipe = _Pipeline(file, config)
    pipe.run(validate=True)
    if pipe.error_count() > 0 or pipe.report is None:
        if config.format == "json":
            _emit([json.dumps({"file": file, "diagnostics": [d.to_jsonable() for d in pipe.diagnostics]}, indent=2)])
        else:
            _emit([d.format() for d in pipe.diagnostics])
        return EXIT_FINDINGS

    labels: dict[str, int] = {}
    fill: dict[tuple[str, str], list[int]] = {}
    locators: dict[str, int] = {}
    for sample in pipe.report.samples:
        for value in _walk_values(sample):
            if isinstance(value, ClassRef):
                key = str(value)
                labels[key] = labels.get(key, 0) + 1
            elif isinstance(value, MediaRef):
                locators[value.locator.kind] = locators.get(value.locator.kind, 0) + 1
            elif isinstance(value, Record):
                struct = pipe.schema.registry.get(value.struct_name)
                optional = struct.optional if isinstance(struct, StructClass) else frozenset()
                for fname in optional:
                    counts = fill.setdefault((value.struct_name, fname), [0, 0])
                    counts[1] += 1
                    if value.values.get(fname) is not None:
                        counts[0] += 1

    if config.format == "json":
        payload = {
            "file": file,
            "sample_count": pipe.report.sample_count,
            "labels": dict(sorted(labels.items())),
            "optional_fill": {
                f"{s}.{f}": {"present": c[0], "total": c[1]}
                for (s, f), c in sorted(fill.items())
            },
            "locator_variants": dict(sorted(locators.items())),
            "errors": pipe.error_count(),
            "warnings": pipe.warning_count(),
        }
        if config.show_config:
            payload["config"] = config.lines()[1:]
        _emit([json.dumps(payload, indent=2, sort_keys=False)])
        return pipe.exit_code()

    lines: list[str] = []
    if config.show_config:
        lines.extend(config.lines())
    lines.append(f"samples: {pipe.report.sample_count}")
    lines.append("labels:")
    for key, count in sorted(labels.items()):
        lines.append(f"  {key}: {count}")
    if fill:
        lines.append("optional-fill:")
        for (struct, fname), counts in sorted(fill.items()):
            lines.append(f"  {struct}.{fname}: {counts[0]}/{counts[1]}")
    if locators:
        lines.append("locators:")
        for kind, count in sorted(locators.items()):
            lines.append(f"  {kind}: {count}")
    _emit(lines)
    return pipe.exit_code()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    config = _config_from_args(args)
    try:
        if args.command == "validate":
            return cmd_validate(args.file, config)
        if args.command == "inspect":
            return cmd_inspect(args.file, config)
        if args.command == "resolve-loc":
            return cmd_resolve_loc(args.locator, config)
        if args.command == "summary":
            return cmd_summary(args.file, config)
    except _UsageFailure as exc:
        print(f"dsdl: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _UnreadableInput as exc:
        print(exc.diagnostic.format(), file=sys.stderr)
        return EXIT_USAGE
    except DsdlError as exc:
        print(exc.diagnostic.format())
        return EXIT_FINDINGS
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
