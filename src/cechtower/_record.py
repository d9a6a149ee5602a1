"""The frozen record every value class of the package derives from.

A record names its fields in ``_fields``, in constructor order, and
``Record.__init__`` is its one constructor: it takes the fields
positionally or by name, like a written-out signature would, and stores
them.  A field given no value takes its default from the class mapping
``_defaults``, which names trailing fields only; a missing field without
one, an extra positional value, or an unknown or repeated keyword raises
``TypeError``.  A class that checks or normalizes its arguments writes
its own ``__init__``, which ends with one ``Record.__init__(self, ...)``
call and sets only its derived attributes with ``object.__setattr__``.

After construction no attribute can be assigned or deleted.  Records
compare and hash by the tuple of their fields, only against an instance
of the same class, and print as ``Name(field=value, ...)`` without the
fields in ``_hidden``.  Classes compared or hashed on hot paths write
their own ``__eq__`` and ``__hash__`` over the same tuple.

The classes are written out instead of generated by ``dataclasses``,
whose code generation took most of the time a process spent importing
the package.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._fields
        if named or len(values) != len(fields):
            values = self._complete(values, named)
        # One store per field: writing ``self.__dict__`` instead would turn
        # the instance's inline values into a dict and halve the speed of
        # every later attribute read (CPython 3.11).
        store = object.__setattr__
        for name, value in zip(fields, values):
            store(self, name, value)

    @classmethod
    def _complete(cls, values: tuple, named: dict) -> tuple:
        """Every field's value in order: the positional ones, then the
        named ones and the defaults; TypeError as a signature raises it."""
        fields, name = cls._fields, cls.__qualname__
        if len(values) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(values)} were given")
        for field in fields[:len(values)]:
            if field in named:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
        for key in named:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        given = {**cls._defaults, **named}
        missing = [field for field in fields[len(values):] if field not in given]
        if missing:
            raise TypeError(f"{name}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return values + tuple([given[field] for field in fields[len(values):]])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{type(self).__qualname__}({shown})"
