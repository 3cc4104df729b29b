"""The verdict record every check suite returns, and the base of the
package's immutable value types.

A suite is a plain function that returns a :class:`CheckReport`: a title
and a tuple of :class:`CheckResult` rows.  ``qcartan check`` prints
``str(report)`` in text mode and one JSON record per row in json-lines
mode.  This module imports nothing from the package, so every layer,
the normalizer and the alphabet included, can build reports and
:class:`Record` types.
"""

from __future__ import annotations

from typing import NamedTuple


class Record:
    """An immutable record of named fields: the base of the package's
    small value types.  It stands in for frozen dataclasses, whose
    module pulls inspect, ast and dis into every process's start-up.

    A subclass names its fields in ``__slots__``, in constructor order,
    and stores them in ``__init__`` with :meth:`_fill`; after that,
    setting or deleting an attribute raises AttributeError.  The
    repr is ``Name(field=value, ...)`` over every field.  Equality and
    hashing are by value over the fields in ``_compare`` (every field
    when None), and only between records of the same class; a type with
    identity semantics sets ``__eq__`` and ``__hash__`` back to
    object's.
    """

    __slots__ = ()
    _compare = None

    def _fill(self, *values):
        """Store values in the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compare or self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class CheckResult(NamedTuple):
    """One verdict; also the (name, passed, detail) row the CLI prints."""

    name: str
    passed: bool
    detail: str = ""

    @classmethod
    def compare(cls, name: str, lhs, rhs) -> CheckResult:
        """Passes when lhs == rhs; a failure shows both sides."""
        ok = lhs == rhs
        return cls(name, ok, "" if ok else f"{lhs} != {rhs}")

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        out = f"{verdict} {self.name}"
        return out + (f": {self.detail}" if self.detail else "")


class CheckReport(Record):
    """The rows of one check; passed exactly when every row passed.

    relations_checked counts the relations (or cases) a table check
    covered; it is 0 for suites that do not count relations.  An
    immutable :class:`Record`, equal by value.
    """

    __slots__ = ("title", "results", "relations_checked")

    def __init__(self, title: str, results: tuple,
                 relations_checked: int = 0):
        self._fill(title, results, relations_checked)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self):
        return [r for r in self.results if not r.passed]

    def __str__(self):
        head = "PASS" if self.passed else "FAIL"
        lines = [
            f"{head} {self.title}: {len(self.results)} checks, "
            f"{len(self.failures)} failures"
        ]
        lines.extend(f"  {r}" for r in self.failures)
        return "\n".join(lines)
