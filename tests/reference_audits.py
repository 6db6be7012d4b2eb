"""The six rule audits as plain loops over element ids, kept for testing.

This is the straightforward implementation that ``ordinal.valuation``'s
index-space kernel replaced, with the loop bodies unchanged. The
differential tests check that the kernel's reports equal these, so it is
an oracle, not part of the package.
"""
from __future__ import annotations

from ordinal.report import RuleReport, RuleViolation, build_report
from ordinal.valuation import DEFAULT_TOL, BiValuation, Valuation, Value


def check_sum_rule(v: Valuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit v(x v y) + v(x ^ y) = v(x) + v(y) over all unordered pairs."""
    p = v.poset
    p._require_lattice()
    violations = []
    checked = 0
    n = len(p.elements)
    for i in range(n):
        for j in range(i + 1, n):
            x, y = p.elements[i], p.elements[j]
            checked += 1
            lhs = v(p.join(x, y)) + v(p.meet(x, y))
            rhs = v(x) + v(y)
            residual = abs(lhs - rhs)
            if residual > tol:
                violations.append(RuleViolation((x, y), lhs, rhs, residual))
    return build_report("sum", checked, tol, violations)


def check_monotone(v: Valuation, tol: Value = 0) -> RuleReport:
    """Audit x <= y  =>  v(x) <= v(y)."""
    p = v.poset
    violations = []
    checked = 0
    for x in p.elements:
        for y in p.elements:
            if x != y and p.leq(x, y):
                checked += 1
                gap = v(x) - v(y)
                if gap > tol:
                    violations.append(RuleViolation((x, y), v(x), v(y), gap))
    return build_report("monotone", checked, tol, violations)


def check_chain_rule(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit w(x|z) = w(x|y) * w(y|z) over all chains x <= y <= z."""
    p = w.poset
    violations = []
    checked = skipped = 0
    for z in p.elements:
        below_z = p.lower_bound([z])
        for y in below_z:
            for x in p.lower_bound([y]):
                wxz, wxy, wyz = w.get(x, z), w.get(x, y), w.get(y, z)
                if wxz is None or wxy is None or wyz is None:
                    skipped += 1
                    continue
                checked += 1
                rhs = wxy * wyz
                residual = abs(wxz - rhs)
                if residual > tol:
                    violations.append(RuleViolation((x, y, z), wxz, rhs, residual))
    return build_report("chain", checked, tol, violations, skipped)


def check_diamond_lemma(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit w(y|x) = w(x ^ y | x) over all pairs; instances are (x, y)."""
    p = w.poset
    p._require_lattice()
    violations = []
    checked = skipped = 0
    for x in p.elements:
        for y in p.elements:
            lhs = w.get(y, x)
            rhs = w.get(p.meet(x, y), x)
            if lhs is None or rhs is None:
                skipped += 1
                continue
            checked += 1
            residual = abs(lhs - rhs)
            if residual > tol:
                violations.append(RuleViolation((x, y), lhs, rhs, residual))
    return build_report("diamond", checked, tol, violations, skipped)


def check_context_product_rule(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit w(y ^ z | x) = w(z | x ^ y) * w(y | x) over all ordered triples."""
    p = w.poset
    p._require_lattice()
    violations = []
    checked = skipped = 0
    for x in p.elements:
        for y in p.elements:
            xy = p.meet(x, y)
            wyx = w.get(y, x)
            for z in p.elements:
                lhs = w.get(p.meet(y, z), x)
                wz = w.get(z, xy)
                if lhs is None or wz is None or wyx is None:
                    skipped += 1
                    continue
                checked += 1
                rhs = wz * wyx
                residual = abs(lhs - rhs)
                if residual > tol:
                    violations.append(RuleViolation((x, y, z), lhs, rhs, residual))
    return build_report("context", checked, tol, violations, skipped)


def check_bivaluation_sum_rule(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit the sum rule inside every available context t; instances (t, x, y)."""
    p = w.poset
    p._require_lattice()
    violations = []
    checked = skipped = 0
    n = len(p.elements)
    for t in w.contexts():
        for i in range(n):
            for j in range(i + 1, n):
                x, y = p.elements[i], p.elements[j]
                parts = (w.get(p.join(x, y), t), w.get(p.meet(x, y), t),
                         w.get(x, t), w.get(y, t))
                if any(part is None for part in parts):
                    skipped += 1
                    continue
                checked += 1
                lhs = parts[0] + parts[1]
                rhs = parts[2] + parts[3]
                residual = abs(lhs - rhs)
                if residual > tol:
                    violations.append(RuleViolation((t, x, y), lhs, rhs, residual))
    return build_report("bisum", checked, tol, violations, skipped)
