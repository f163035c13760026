"""Base classes of the value types, which list their fields in ``__slots__`` and write their own ``__init__``.

A slot named with a leading underscore is a cache, outside equality,
hash, repr and pickling; a class may compare and show fewer fields by
naming them in ``_fields``.
"""

set_field = object.__setattr__  # how a frozen class's __init__ sets a field


def field_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in ``__init__`` order.
    A frozen value class built once per sample value sets its fields with
    these, which skip the by-name lookup that ``set_field`` makes."""
    return tuple([cls.__dict__[name].__set__ for name in cls.__match_args__])


class Slotted:
    """A mutable value: compared and shown by its fields, unhashable."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the fields in __init__ order, which pattern matching and pickling read
        cls.__match_args__ = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._fields = cls.__dict__.get("_fields", cls.__match_args__)

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
