"""DSDL: parser, type checker, and validation engine for the
Data Set Description Language.

Typical use::

    from dsdl import parse_document, LibraryEnvironment, resolve_schema, validate_dataset

    doc = parse_document(text, format="auto", source=path)
    schema, diags = resolve_schema(doc, LibraryEnvironment.from_environment(), source=path)
    report = validate_dataset(schema, doc.data, base=path.parent)
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
from .locator import (
    AliasPath,
    MediaClassRegistry,
    ObjectId,
    ObjectLocator,
    RelativePath,
    ResolutionEnvironment,
    default_media_registry,
    load_object,
    parse_locator,
    register_media_class,
    resolve_locator,
)
from .resolver import (
    ConcreteType,
    LibraryEnvironment,
    ResolvedSchema,
    check_acyclic,
    instantiate_type,
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
from .validation import (
    SampleCounts,
    ValidationReport,
    load_external_samples,
    summarize_dataset,
    validate_dataset,
    validate_label,
    validate_value,
)

__version__ = "0.1.0"

__all__ = [
    "AliasPath",
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
    "MediaClassRegistry",
    "ObjectId",
    "ObjectLocator",
    "RawDataSection",
    "RawDocument",
    "RelativePath",
    "ResolutionEnvironment",
    "ResolutionError",
    "ResolvedSchema",
    "SampleCounts",
    "Severity",
    "StructClass",
    "TypeExpr",
    "ValidationReport",
    "build_definitions",
    "check_acyclic",
    "default_media_registry",
    "instantiate_type",
    "load_external_samples",
    "load_object",
    "lookup_class",
    "parse_document",
    "parse_locator",
    "parse_sample_type_spec",
    "parse_type_expression",
    "register_media_class",
    "render_type_expression",
    "resolve_imports",
    "resolve_locator",
    "resolve_schema",
    "summarize_dataset",
    "validate_dataset",
    "validate_label",
    "validate_value",
]
