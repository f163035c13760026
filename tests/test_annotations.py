"""Every annotation in ``src/dsdl`` names something its module can see."""

import importlib
import inspect
import pkgutil
import typing

import dsdl


def _functions(owner, module: str):
    """The functions and methods defined in ``owner``, a module or a class, and in its classes."""
    for value in vars(owner).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f is not None)
        elif inspect.isfunction(value) and value.__module__ == module:
            yield value
        elif inspect.isclass(value) and value.__module__ == module and value is not owner:
            yield from _functions(value, module)


def test_every_function_and_method_resolves_under_get_type_hints():
    modules = [importlib.import_module(f"dsdl.{info.name}") for info in pkgutil.iter_modules(dsdl.__path__)]
    checked, unresolved = 0, []
    for module in [dsdl, *modules]:
        for function in _functions(module, module.__name__):
            checked += 1
            try:
                typing.get_type_hints(function)
            except NameError as exc:  # a name the module never binds
                unresolved.append(f"{module.__name__}.{function.__qualname__}: {exc}")
    assert checked > 100 and unresolved == []
