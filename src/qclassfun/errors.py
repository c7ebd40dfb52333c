"""Exception types shared across the library, and the base of its records.

The CLI maps these onto exit codes: usage problems exit 2 (handled by
argparse), :class:`DomainError` and subclasses exit 3.
"""

from __future__ import annotations


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class FamilyError(DomainError):
    """A label or operation was used with the wrong fusion family."""


class KacTypeError(DomainError):
    """An operation requiring a non-Kac family received Kac-type data."""


class BudgetError(RuntimeError):
    """A size, term or precision budget was exhausted before completion."""


class Record:
    """Base of the library's frozen records, whose fields are the names in
    the subclass's ``__slots__``: equal within one class when their fields
    are, hashed by them and printed as ``Name(field=value, ...)``.  Each
    ``__init__`` binds the fields with its ``_set=object.__setattr__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
