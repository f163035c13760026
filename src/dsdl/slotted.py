"""Base classes of the value types, which list their fields in ``__slots__``.

A value class that writes no ``__init__`` gets one that takes its fields
in ``__slots__`` order, the trailing ones defaulting to the values of its
``_defaults`` mapping (immutable values only, as they are shared). A class
that checks its arguments, or turns ``None`` into a fresh container,
writes its own. A slot named with a leading underscore is a cache,
outside ``__init__``, equality, hash, repr and pickling; a class may
compare and show fewer fields by naming them in ``_fields``.
"""

set_field = object.__setattr__  # how a frozen class's own __init__ sets a field


def _make_init(cls):
    """The ``__init__`` of ``cls``, compiled once from its own field names
    (slot names, which Python holds to be identifiers), as ``dataclasses``
    does. A frozen class sets each field with its slot descriptor's
    ``__set__``, which skips the refused ``__setattr__``; a mutable one
    assigns, which Python specialises."""
    names = cls.__match_args__
    defaults = vars(cls).get("_defaults", {})
    if set(names[len(names) - len(defaults):]) != set(defaults):
        raise TypeError(f"{cls.__name__}._defaults must name its trailing fields")
    frozen = issubclass(cls, Frozen)
    namespace = {f"_set_{name}": vars(cls)[name].__set__ for name in names} if frozen else {}
    body = [f"_set_{name}(self, {name})" if frozen else f"self.{name} = {name}" for name in names]
    exec(f"def __init__(self, {', '.join(names)}):\n    " + "\n    ".join(body), namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults[name] for name in names if name in defaults)
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    return init


class Slotted:
    """A mutable value: compared and shown by its fields, unhashable."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the fields in __init__ order, which pattern matching and pickling read
        cls.__match_args__ = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._fields = cls.__dict__.get("_fields", cls.__match_args__)
        if cls.__match_args__ and "__init__" not in vars(cls):
            cls.__init__ = _make_init(cls)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"


class Frozen(Slotted):
    """An immutable value: hashable by its fields; assignment raises ``AttributeError``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self.__match_args__]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self.__match_args__, state):
            set_field(self, name, value)
