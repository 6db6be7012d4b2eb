"""Audit reports: a uniform record of checked instances and violations.

All rule audits in this package return a RuleReport. Violations are kept in
canonical (lexicographic) instance order so reports are deterministic and
byte-stable when serialized.
"""
from __future__ import annotations

import sys

from ._record import Record, set_field


def number_to_jsonable(x):
    """Fractions become exact strings; floats and ints pass through."""
    if type(x) is float or type(x) is int:  # skips Fraction's ABC check
        return x
    # a Fraction exists only once fractions is imported, and a poset report,
    # whose values are ints, should not import it
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return str(x)
    return x


class RuleViolation(Record):
    __slots__ = ("instance", "lhs", "rhs", "residual")

    def __init__(self, instance: tuple, lhs, rhs, residual):
        set_field(self, "instance", instance)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "residual", residual)

    def to_dict(self) -> dict:
        return {
            "instance": list(self.instance),
            "lhs": number_to_jsonable(self.lhs),
            "rhs": number_to_jsonable(self.rhs),
            "residual": number_to_jsonable(self.residual),
        }

    def text_line(self) -> str:
        inst = ", ".join(map(str, self.instance))
        return (f"violation ({inst}): lhs={self.lhs} rhs={self.rhs} "
                f"residual={self.residual}")


class RuleReport(Record):
    """Outcome of one rule audit over a lattice or chain configuration.
    Unlike the other records it can be changed, so it has no hash."""

    __slots__ = ("rule", "checked", "tolerance", "violations", "skipped")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, rule: str, checked: int, tolerance,
                 violations: list[RuleViolation] | None = None, skipped: int = 0):
        self.rule = rule
        self.checked = checked
        self.tolerance = tolerance
        self.violations = [] if violations is None else violations
        self.skipped = skipped

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "checked": self.checked,
            "skipped": self.skipped,
            "tolerance": number_to_jsonable(self.tolerance),
            "violations": [v.to_dict() for v in self.violations],
        }

    def text_lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        head = (f"rule {self.rule}: checked={self.checked} "
                f"skipped={self.skipped} violations={len(self.violations)} {status}")
        return [head] + ["  " + v.text_line() for v in self.violations]


def build_report(rule, checked, tolerance, violations, skipped=0) -> RuleReport:
    """Assemble a report with violations sorted into canonical order: by
    instance, a tuple of element ids, which are strings."""
    ordered = sorted(violations, key=lambda v: v.instance)
    return RuleReport(rule=rule, checked=checked, tolerance=tolerance,
                      violations=ordered, skipped=skipped)
