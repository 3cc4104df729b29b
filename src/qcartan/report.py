"""The verdict record every check suite returns.

A suite is a plain function that returns a :class:`CheckReport`: a title
and a tuple of :class:`CheckResult` rows.  ``qcartan check`` prints
``str(report)`` in text mode and one JSON record per row in json-lines
mode.  This module imports nothing from the package, so every layer,
the normalizer included, can build reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


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


@dataclass(frozen=True)
class CheckReport:
    """The rows of one check; passed exactly when every row passed.

    relations_checked counts the relations (or cases) a table check
    covered; it is 0 for suites that do not count relations.
    """

    title: str
    results: tuple
    relations_checked: int = 0

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
