"""The ``__init__`` that ``dsdl.slotted`` generates, and what the value types are not."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import dsdl
from dsdl.diagnostics import Diagnostic
from dsdl.document import RawDataSection
from dsdl.locator import AliasPath, LoadedMedia, ObjectId, RelativePath
from dsdl.resolver import ResolvedSchema
from dsdl.schema import BuiltinSignature, ClassRef, ClassSegment, ParamSpec
from dsdl.slotted import Frozen, Slotted
from dsdl.typeexpr import Arg, NumberLit, ParamRef, TypeExpr
from dsdl.validation import Box, ImageShapeValue, IntervalValue, KeypointSet, MediaRef, Record, RotatedBox

from test_values import _FROZEN, _MUTABLE

# each class whose __init__ is generated: the defaults of its trailing fields
_GENERATED = {
    Diagnostic: {"source": None},
    RawDataSection: dict.fromkeys(RawDataSection.__match_args__),
    ResolvedSchema: {},
    ClassSegment: {"parent": None},
    ClassRef: {},
    ParamSpec: {"required": True, "default": None},
    BuiltinSignature: {},
    ParamRef: {},
    NumberLit: {},
    Arg: {},
    TypeExpr: {"args": ()},
    RelativePath: {},
    AliasPath: {},
    ObjectId: {},
    LoadedMedia: {"descr": None},
    Box: {},
    IntervalValue: {},
    ImageShapeValue: {},
    RotatedBox: {},
    KeypointSet: {},
    MediaRef: {"descr": None},
    Record: {},
}


def _copies_only(init: ast.FunctionDef) -> bool:
    """Whether every statement of ``init`` sets a field from the parameter of its name:
    ``set_field(self, "f", f)``, a slot setter's ``_set_f(self, f)``, or ``self.f = f``."""
    params = {arg.arg for arg in init.args.args[1:]}
    for statement in init.body:
        match statement:
            case ast.Assign(targets=[ast.Attribute(value=ast.Name(id="self"), attr=field)], value=ast.Name(id=name)):
                pass
            case ast.Expr(ast.Call(args=[ast.Name(id="self"), ast.Constant(value=field), ast.Name(id=name)])):
                pass
            case ast.Expr(ast.Call(args=[ast.Name(id="self"), ast.Name(id=name)])):
                field = name
            case _:
                return False
        if field != name or name not in params:
            return False
    return bool(init.body)


def test_no_class_writes_an_init_that_only_copies_its_parameters():
    copying = []
    for path in sorted(Path(dsdl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for init in node.body:
                    if isinstance(init, ast.FunctionDef) and init.name == "__init__" and _copies_only(init):
                        copying.append(f"{path.name}: {node.name}")
    assert copying == []


@pytest.mark.parametrize("cls, defaults", _GENERATED.items(), ids=[cls.__name__ for cls in _GENERATED])
def test_a_generated_init_takes_the_fields_in_order_by_position_or_keyword(cls, defaults):
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    parameters = inspect.signature(cls).parameters
    assert tuple(parameters) == cls.__match_args__
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters.values())
    assert {name: p.default for name, p in parameters.items() if p.default is not p.empty} == defaults
    values = [f"value {i}" for i in range(len(cls.__match_args__))]
    made = cls(*values)
    assert made == cls(**dict(zip(cls.__match_args__, values)))
    assert [getattr(made, name) for name in cls.__match_args__] == values
    required = len(values) - len(defaults)
    assert cls(*values[:required]) == cls(*values[:required], *defaults.values())
    with pytest.raises(TypeError):
        cls(*values, "one too many")


def test_a_generated_init_sets_the_fields_of_a_frozen_or_mutable_class_and_no_cache():
    class Point(Frozen):
        __slots__ = ("x", "y", "_cache")
        _defaults = {"y": 0}

    class Cell(Slotted):
        __slots__ = ("value",)

    point, cell = Point(1), Cell(value=[])
    assert (point.x, point.y) == (1, 0) and not hasattr(point, "_cache")
    with pytest.raises(AttributeError):
        point.x = 2
    cell.value = 3
    assert cell == Cell(3)


def test_defaults_must_name_trailing_fields():
    with pytest.raises(TypeError, match="_defaults must name its trailing fields"):

        class Bad(Frozen):
            __slots__ = ("x", "y")
            _defaults = {"x": 0}


@pytest.mark.parametrize("make", [make for make, _ in (*_FROZEN.values(), *_MUTABLE.values())], ids=[*_FROZEN, *_MUTABLE])
def test_the_dataclasses_functions_do_not_apply_to_a_value_type(make):
    """README: ``dataclasses.fields``, ``asdict``, ``replace`` and ``is_dataclass`` do not apply."""
    value = make()
    assert not dataclasses.is_dataclass(value) and not dataclasses.is_dataclass(type(value))
    for function in (dataclasses.fields, dataclasses.asdict, dataclasses.replace):
        with pytest.raises(TypeError):
            function(value)
