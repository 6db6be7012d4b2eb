"""audit: one valuation-rule audit per operation on warm lattices.

Boolean lattices B5 and B6 and the product B3 x B4 are built and certified
in set-up, so join/meet lookups are warm and almost all the work is
valuation arithmetic. Each operation derives its valuation from seeded atom
weights, builds the bi-valuation when the rule needs one, runs the audit and
serializes the report. Weights come in floats (multiples of 1/16, so sums
are exact; tolerance 1e-9) and in Fractions (tolerance 0).

Negative controls: a valuation shifted at one element breaks the sum and
bisum rules, and a bi-valuation changed with ``with_value`` breaks the
chain, diamond and context rules. Their exact violation counts come from
``oracle`` and must be non-zero.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import oracle
from harness import Op

ATOMS = "abcdef"
RULES = ("sum", "monotone", "bisum", "chain", "diamond", "context")
NEEDS_W = {"bisum", "chain", "diamond", "context"}


DENOMINATORS = (1, 2, 3, 5, 7, 9)


def seeded_weights(rng, n, exact):
    """Atom weights for the library and the same weights as oracle integers.

    Exact weights draw their denominators from one fixed set in seeded
    order, so Fraction sizes, and with them the cost, do not depend on the
    seed.
    """
    if exact:
        dens = rng.sample(DENOMINATORS, n)
        weights = [Fraction(rng.randint(1, 20) * d + rng.randint(1, d), d) if d > 1
                   else Fraction(rng.randint(1, 20)) for d in dens]
        scale = math.lcm(*(w.denominator for w in weights))
        return weights, [int(w * scale) for w in weights]
    ints = [rng.randint(1, 64) for _ in range(n)]
    return [k / 16 for k in ints], ints


def setup(seed, workdir):
    from ordinal import poset as P
    from ordinal import valuation as V

    rng = random.Random(seed)
    lattices = {n: P.boolean_lattice(ATOMS[:n]) for n in (5, 6)}
    left, right = P.boolean_lattice("abc"), P.boolean_lattice("wxyz")
    product = P.lattice_product(left, right)
    for lat in (*lattices.values(), left, right, product):
        lat.is_lattice()
    checks = {"sum": V.check_sum_rule, "monotone": V.check_monotone,
              "bisum": V.check_bivaluation_sum_rule, "chain": V.check_chain_rule,
              "diamond": V.check_diamond_lemma, "context": V.check_context_product_rule,
              "product": V.check_product_rule_for_lattice_product}

    def audit(tr, rule, arg, tol, *more):
        with tr.span(f"valuation.audit.{rule}"):
            report = checks[rule](*more, arg, tol)
        tr.count("valuation.audit.checked", report.checked)
        tr.count("valuation.audit.skipped", report.skipped)
        tr.count("valuation.audit.violations", len(report.violations))
        with tr.span("report.serialize"):
            doc, lines = report.to_dict(), report.text_lines()
        return (report.rule, report.checked, report.skipped, len(report.violations),
                len(doc["violations"]), len(lines))

    def bivaluation(tr, v, tol):
        with tr.span("valuation.bivaluation"):
            w = V.bivaluation_from_valuation(v, tol, validate=False)
        tr.count("valuation.bivaluation.entries", len(w.table))
        return w

    def expect(rule, checked, skipped, violations, control=False):
        """``violations`` may be a function of no arguments; it is then
        counted at the first check, after set-up. A negative control must
        break something."""
        def check(r):
            count = violations() if callable(violations) else violations
            return (r == (rule, checked, skipped, count, count, 1 + count)
                    and (count > 0 or not control))
        return check

    ops = []
    for n, lat in lattices.items():
        counts = oracle.audit_counts(n)
        b = oracle.Boolean(ATOMS[:n])
        for exact in (False, True):
            weights, ints = seeded_weights(rng, n, exact)
            wmap = dict(zip(b.atoms, weights))
            tol = 0 if exact else 1e-9
            label = f"B{n}.{'exact' if exact else 'float'}"

            def derive(tr, lat=lat, wmap=wmap):
                with tr.span("valuation.derive"):
                    return V.derive_valuation_from_atoms(lat, wmap)

            for rule in RULES:
                def call(tr, rule=rule, derive=derive, tol=tol):
                    v = derive(tr)
                    arg = bivaluation(tr, v, tol) if rule in NEEDS_W else v
                    return audit(tr, rule, arg, tol)
                ops.append(Op(f"{rule}.{label}", call, expect(rule, *counts[rule], 0)))

            if (n, exact) not in ((5, True), (6, False)):
                continue
            # negative control 1: shift v at one element of n // 2 atoms; the
            # violation count, and with it the report's size, depends only on
            # that number, so every seed costs the same
            e = rng.choice(b.masks_of_size(n // 2))
            shift = Fraction(rng.randint(1, 5), 7) if exact else rng.randint(1, 8) / 4
            broken = {"sum": lambda n=n, e=e: oracle.perturbed_sum_violations(n, e),
                      "bisum": lambda n=n, e=e: oracle.perturbed_bisum_violations(n, e)}
            for rule, count in broken.items():
                def call(tr, rule=rule, derive=derive, tol=tol, e=b.ident(e), shift=shift):
                    v = derive(tr)
                    with tr.span("valuation.derive"):
                        v = v.replace(e, v(e) + shift)
                    arg = bivaluation(tr, v, tol) if rule in NEEDS_W else v
                    return audit(tr, rule, arg, tol)
                ops.append(Op(f"{rule}.{label}.shifted", call,
                              expect(rule, *counts[rule], count, control=True)))

            # negative control 2: change one bi-valuation entry w(kx | kc), kx
            # a part of n // 2 - 1 atoms of a context kc of n - 2 atoms
            kc = rng.choice(b.masks_of_size(n - 2))
            kx = rng.choice([m for m in b.masks_of_size(n // 2 - 1) if m & kc == m])
            half = Fraction(1, 2) if exact else 0.5
            new = Fraction(oracle.popmask_sum(ints, kx), oracle.popmask_sum(ints, kc)) + Fraction(1, 2)
            broken = oracle.with_value_violations(n, ints, (kx, kc), new)
            for rule, count in broken.items():
                def call(tr, rule=rule, derive=derive, tol=tol, x=b.ident(kx), c=b.ident(kc)):
                    w = bivaluation(tr, derive(tr), tol)
                    with tr.span("valuation.bivaluation"):
                        w = w.with_value(x, c, w.get(x, c) + half)
                    return audit(tr, rule, w, tol)
                ops.append(Op(f"{rule}.{label}.with_value", call,
                              expect(rule, *counts[rule], count)))
            if min(broken.values()) == 0:
                raise RuntimeError(f"negative control on {label} breaks nothing: {broken}")

    # product rule on B3 x B4: v((x, y)) = v(x) * v(y)
    pairs = [(x, y, P.pair_id(x, y)) for x in left.elements for y in right.elements]
    for exact in (False, True):
        wl, _ = seeded_weights(rng, 3, exact)
        wr, _ = seeded_weights(rng, 4, exact)
        tol = 0 if exact else 1e-9

        def call(tr, wl=dict(zip("abc", wl)), wr=dict(zip("wxyz", wr)), tol=tol):
            with tr.span("valuation.derive"):
                vl = V.derive_valuation_from_atoms(left, wl)
                vr = V.derive_valuation_from_atoms(right, wr)
                vp = V.Valuation(product, {xy: vl(x) * vr(y) for x, y, xy in pairs})
            return audit(tr, "product", vp, tol, vl, vr)
        ops.append(Op(f"product.{'exact' if exact else 'float'}", call,
                      expect("product", len(pairs), 0, 0)))
    rng.shuffle(ops)
    return ops
