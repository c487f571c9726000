"""The base of the package's immutable slotted classes.

A ``Record`` has the equality, hash and ``repr`` of a frozen dataclass,
read from its fields: the names in the ``__slots__`` of the class and of its
bases, base first, less those that start with an underscore, which hold
values derived from the fields.  Assigning or deleting an attribute raises
``AttributeError``, so ``__init__`` sets the slots through
``object.__setattr__``, or, in the classes built most often, through the
slots' own setters.  Nothing here generates code, so a class costs no more
at import than its body.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ())
            if not name.startswith("_")
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"
