"""Exceptions, validation reports and enumeration budgets.

Every validator in this package reports law violations as data (an
:class:`Issue` inside a :class:`ValidationReport`) instead of raising, so a
single run can show everything that is wrong with a structure;
:class:`ValidationFailed` carries such reports where nothing may be computed.
Other exceptions are reserved for malformed calls: mismatched hom endpoints,
missing preconditions, and work past a cap, which every cap reports through
:class:`BudgetExceeded`.
"""

from __future__ import annotations

import os


class QfcaError(Exception):
    """Base class for all errors raised by this package."""


class TypeMismatch(QfcaError):
    """Arrow or distributor endpoints do not line up."""


class BaseMismatch(QfcaError):
    """A (co)presheaf argument of the wrong kind or on the wrong base category."""


class InvalidParams(QfcaError):
    """A bad argument: a preset or its parameters, a label, a shape, a closure kind or a budget."""


class ValidationFailed(QfcaError):
    """A structure failed validation, so nothing is computed on it; ``reports`` says why."""

    def __init__(self, reports):
        super().__init__(f"{', '.join(r.subject for r in reports)} failed validation; "
                         "see the report")
        self.reports = reports


class NotGirard(QfcaError):
    """A complement was requested but the family is not cyclic dualizing."""


class NotAQuantale(QfcaError):
    """A one-object quantaloid was required."""


class HypothesesNotMet(QfcaError):
    """A probe's standing hypotheses fail, so its verdict is undefined."""


class BudgetExceeded(QfcaError):
    """Work past a cap: ``kind`` (a key of ``_DEFAULT_BUDGETS``), its ``limit``,
    the ``count`` and ``what`` exceeded it.  ``count`` is the size reached when
    the cap tripped: the members an enumeration produced, the codes of a
    closure, or the prefixes a family search pushed.
    """

    def __init__(self, kind: str, limit: int, count: int, what: str):
        unit = _DEFAULT_BUDGETS[kind][1]
        super().__init__(f"{kind} cap of {limit} {unit} exceeded by {what} (count {count}); "
                         "QFCA_BUDGET overrides it")
        self.kind, self.limit, self.count = kind, limit, count


class SearchBudgetExceeded(BudgetExceeded):
    """The family search exceeded its node budget."""


class ClosureBudgetExceeded(BudgetExceeded):
    """A meet-closure grew past the configured cap."""


class ColimitMissing(QfcaError):
    """A pointwise Kan extension failed because a weighted (co)limit is absent."""

    def __init__(self, point: str, kind: str = "colimit"):
        super().__init__(f"no {kind} exists at point {point!r}")
        self.point = point


# Default caps and what they count.  The environment variable QFCA_BUDGET,
# read at each use, replaces all caps at once; it is the only way to change one.
_DEFAULT_BUDGETS = {
    "enumeration": (10**5, "members"),
    "search": (10**6, "nodes"),
    "closure": (10**5, "elements"),
}


def budget(kind: str) -> int:
    env = os.environ.get("QFCA_BUDGET")
    if env is not None:
        if not (env.isascii() and env.isdigit()):  # as quantaloid._int_param reads a string
            raise InvalidParams(f"QFCA_BUDGET must be an integer, got {env!r}; "
                                "a cap is written in ASCII digits")
        return int(env)
    return _DEFAULT_BUDGETS[kind][0]


class _Record:
    """Equality and repr over the ``_fields`` of a subclass, as a dataclass has
    them.  A mutable record is unhashable, a :class:`_Frozen` one hashable."""

    __hash__ = None

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Record):
    """A record that is hashable and refuses assignment once built."""

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Issue(_Frozen):
    """One violated law: a machine-readable code, where it happened, and why."""

    _fields = ("code", "where", "detail")

    def __init__(self, code: str, where: tuple, detail: str):
        self._set(code, where, detail)

    def to_json(self) -> dict:
        return {"code": self.code, "where": list(self.where), "detail": self.detail}


class ValidationReport(_Record):
    """Outcome of a structural validator; empty ``issues`` means valid."""

    _fields = ("subject", "issues")

    def __init__(self, subject: str, issues: list[Issue] | None = None):
        self._set(subject, [] if issues is None else issues)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, where: tuple, detail: str) -> None:
        self.issues.append(Issue(code, where, detail))

    def require(self) -> "ValidationReport":
        """Raise if invalid; handy when a valid input is a precondition."""
        if not self.ok:
            first = self.issues[0]
            raise QfcaError(f"{self.subject}: {first.code} at {first.where}: {first.detail}"
                            + (f" (+{len(self.issues) - 1} more)" if len(self.issues) > 1 else ""))
        return self

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "issues": [i.to_json() for i in self.issues],
        }


class Condition(_Record):
    """One hypothesis or conclusion checked by a theorem verifier."""

    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._set(name, passed, detail)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class Report(_Record):
    """Structured outcome of a theorem verifier: named per-condition results.

    Verifiers never answer with a bare boolean; a failing report names the
    hypothesis that broke and, where possible, the coordinates of a
    counterexample.
    """

    _fields = ("name", "conditions")

    def __init__(self, name: str, conditions: list[Condition] | None = None):
        self._set(name, [] if conditions is None else conditions)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.conditions.append(Condition(name, bool(passed), detail))
        return bool(passed)

    def check_none(self, name: str, bad: list, detail: str) -> bool:
        """Pass when there is no counterexample in ``bad``; else name the first."""
        return self.check(name, not bad, detail + (f"; differs at {bad[0]}" if bad else ""))

    def skip(self, name: str, detail: str) -> None:
        self.conditions.append(Condition(name, True, f"skipped: {detail}"))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def extend(self, other: "Report", prefix: str = "") -> None:
        for c in other.conditions:
            self.conditions.append(Condition(prefix + c.name, c.passed, c.detail))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "conditions": [c.to_json() for c in self.conditions],
        }
