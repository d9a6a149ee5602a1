"""The frozen record every value class of the package derives from.

A record names its fields in ``_fields``, in constructor order, and its
own ``__init__`` sets them with ``object.__setattr__``; after that no
attribute can be assigned or deleted.  Records compare and hash by the
tuple of their fields, only against an instance of the same class, and
print as ``Name(field=value, ...)`` without the fields in ``_hidden``.
Classes compared or hashed on hot paths write their own ``__eq__`` and
``__hash__`` over the same tuple.

The classes are written out instead of generated by ``dataclasses``,
whose code generation took most of the time a process spent importing
the package.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

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
