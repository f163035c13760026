"""DSDL: parser, type checker, and validation engine for the
Data Set Description Language.

Typical use::

    from dsdl import LibraryEnvironment, resolve_file, validate_dataset

    doc, schema, diags = resolve_file(path, LibraryEnvironment.from_environment())
    if schema is not None:
        report = validate_dataset(schema, doc.data, base=path.parent)

``import dsdl`` loads parsing and resolution only; the locator and
validation layers load on the first use of one of their names.
"""

from .diagnostics import (
    ClassLookupError,
    Diagnostic,
    DocumentError,
    DsdlError,
    GrammarError,
    LocatorError,
    ResolutionError,
    Severity,
)
from .document import RawDataSection, RawDocument, parse_document
from .resolver import (
    ConcreteType,
    LibraryEnvironment,
    ResolvedSchema,
    check_acyclic,
    instantiate_type,
    resolve_file,
    resolve_imports,
    resolve_schema,
)
from .schema import (
    BUILTINS,
    ClassDomain,
    ClassRef,
    DefinitionRegistry,
    StructClass,
    build_definitions,
    lookup_class,
)
from .typeexpr import (
    TypeExpr,
    parse_sample_type_spec,
    parse_type_expression,
    render_type_expression,
)

# Names whose home module loads on the first access to one of them (PEP 562).
# Parsing and resolving use neither module, so ``dsdl inspect`` never loads
# validation.
_LAZY = {
    name: home
    for home, names in {
        "locator": "AliasPath MediaClassRegistry ObjectId ObjectLocator RelativePath ResolutionEnvironment "
        "default_media_registry load_object parse_locator register_media_class resolve_locator",
        "validation": "SampleCounts ValidationReport iter_samples load_external_samples summarize_dataset "
        "validate_dataset validate_label validate_value",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = sorted(
    [
        "BUILTINS",
        "ClassDomain",
        "ClassLookupError",
        "ClassRef",
        "ConcreteType",
        "DefinitionRegistry",
        "Diagnostic",
        "DocumentError",
        "DsdlError",
        "GrammarError",
        "LibraryEnvironment",
        "LocatorError",
        "RawDataSection",
        "RawDocument",
        "ResolutionError",
        "ResolvedSchema",
        "Severity",
        "StructClass",
        "TypeExpr",
        "build_definitions",
        "check_acyclic",
        "instantiate_type",
        "lookup_class",
        "parse_document",
        "parse_sample_type_spec",
        "parse_type_expression",
        "render_type_expression",
        "resolve_file",
        "resolve_imports",
        "resolve_schema",
        *_LAZY,
    ]
)


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
