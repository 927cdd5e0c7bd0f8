"""Immutable value records, written without ``dataclasses``.

Importing ``dataclasses`` pulls in ``inspect`` and compiles generated
source for every decorated class, a cost every cold ``dfb`` run paid.
A record instead names its fields in ``__match_args__`` (which also
serves ``match`` class patterns) and sets them in its own ``__init__``
through :data:`set_field`. The base derives what a frozen dataclass
would: equality with a record of the same class, a hash over the fields,
``Name(field=value, ...)`` as its repr, pickling through the
constructor, and an ``AttributeError`` on assignment. Classes that
cannot derive from it borrow its methods. Only ``App`` (hash stored at
construction, identity compared first) and ``ClassDecl`` (``pos`` left
out of equality) write their own ``__eq__`` and ``__hash__``; every
record writes its own ``__init__``.
"""

from __future__ import annotations

set_field = object.__setattr__


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
