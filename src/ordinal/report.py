"""Audit reports: a uniform record of checked instances and violations.

All rule audits in this package return a RuleReport. Violations are kept in
canonical (lexicographic) instance order so reports are deterministic and
byte-stable when serialized.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


def number_to_jsonable(x):
    """Fractions become exact strings; floats and ints pass through."""
    if type(x) is float or type(x) is int:  # skips Fraction's ABC check
        return x
    if isinstance(x, Fraction):
        return str(x)
    return x


@dataclass(frozen=True)
class RuleViolation:
    instance: tuple
    lhs: object
    rhs: object
    residual: object

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


@dataclass
class RuleReport:
    """Outcome of one rule audit over a lattice or chain configuration."""

    rule: str
    checked: int
    tolerance: object
    violations: list[RuleViolation] = field(default_factory=list)
    skipped: int = 0

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
    """Assemble a report with violations sorted into canonical order."""
    ordered = sorted(violations, key=lambda v: tuple(map(str, v.instance)))
    return RuleReport(rule=rule, checked=checked, tolerance=tolerance,
                      violations=ordered, skipped=skipped)
