"""certify: generate a lattice or a non-lattice, certify it, and query it.

One operation takes one generated poset through ``is_lattice`` and checks
the verdict and witness. For a lattice it then runs the consistency audit,
both irreducible scans and a batch of join/meet/leq queries. All poset work
and all of the benchmark's peak memory sit here; no valuation work does.
Every size is fixed; the seed picks the query pairs, the order of each
product's factors and the order of the operations, so each seed costs about
the same.
"""
from __future__ import annotations

import itertools
import math
import random

import oracle
from harness import Op, resident_mb

BOOL_ATOMS = "abcdefghij"
PART_ATOMS = "abcdefg"
DIVISORS = (5040, 720720, 720720, 60, 360, 840, 1260, 2520, 10080, 27720, 55440)
# B8 and the 720720 divisor lattice (about equal cost) each run twice, so
# p90 falls inside a group of four like operations, not between two sizes
BOOLEAN_SIZES = (4, 5, 6, 7, 8, 8, 9, 10)
QUERIES = 20  # of each of join, meet and leq per lattice


class Model:
    """A lattice as the oracle sees it: raw elements and their operations."""

    def __init__(self, elements, ident, join, meet, leq, covers, jirr, mirr):
        self.elements = list(elements)
        self.ident, self.join, self.meet, self.leq = ident, join, meet, leq
        self.covers, self.jirr, self.mirr = covers, jirr, mirr


def boolean_model(atoms):
    b = oracle.Boolean(atoms)
    n = len(atoms)
    return Model(b.masks(), b.ident, lambda x, y: x | y, lambda x, y: x & y,
                 lambda x, y: x & ~y == 0, n * 2 ** (n - 1), n, n)


def partition_model(n):
    covers = sum(oracle.stirling2(n, k) * math.comb(k, 2) for k in range(1, n + 1))
    return Model(oracle.set_partitions(PART_ATOMS[:n]), oracle.literal,
                 oracle.coarsen_join, oracle.refine_meet, oracle.refines,
                 covers, math.comb(n, 2), oracle.stirling2(n, 2))


def divisor_model(n):
    ds = oracle.divisors(n)
    irr = oracle.prime_power_count(n)
    return Model(ds, str, math.lcm, math.gcd, lambda x, y: y % x == 0,
                 oracle.divisor_cover_count(n), irr, irr)


def product_model(a, b):
    pairs = [(x, y) for x in a.elements for y in b.elements]
    return Model(pairs, lambda p: f"({a.ident(p[0])},{b.ident(p[1])})",
                 lambda p, q: (a.join(p[0], q[0]), b.join(p[1], q[1])),
                 lambda p, q: (a.meet(p[0], q[0]), b.meet(p[1], q[1])),
                 lambda p, q: a.leq(p[0], q[0]) and b.leq(p[1], q[1]),
                 a.covers * len(b.elements) + len(a.elements) * b.covers,
                 a.jirr + b.jirr, a.mirr + b.mirr)


def make_queries(rng, model):
    queries, answers = [], []
    for kind in ("join", "meet", "leq"):
        for _ in range(QUERIES):
            x, y = rng.choice(model.elements), rng.choice(model.elements)
            queries.append((kind, model.ident(x), model.ident(y)))
            answers.append(model.leq(x, y) if kind == "leq"
                           else model.ident(getattr(model, kind)(x, y)))
    return queries, answers


def run_queries(tr, p, queries, NoUniqueBound):
    answers = []
    nounique = 0
    with tr.span("poset.query", calls=len(queries)):
        for kind, x, y in queries:
            try:
                answers.append(getattr(p, kind)(x, y))
            except NoUniqueBound:
                answers.append(None)
                nounique += 1
    tr.count("poset.query.nounique", nounique)
    return answers


def certify(tr, make):
    with tr.span("poset.generate"):
        p = make()
    tr.count("poset.elements", len(p))
    tr.count("poset.covers", len(p.covers))
    before = resident_mb() if tr.enabled else 0.0
    with tr.span("poset.certify"):
        cert = p.is_lattice()
    if tr.enabled:
        tr.high("poset.certify.rss_growth_mb", resident_mb() - before)
        tr.count("poset.certify.pairs", oracle.scan_position(p.elements, cert.witness))
    return p, cert


def lattice_op(kind, make, model, rng, P, NoUniqueBound):
    queries, answers = make_queries(rng, model)
    size = len(model.elements)
    expected = (size, model.covers, None, size * size, True,
                model.jirr, model.mirr, answers)

    def call(tr):
        p, cert = certify(tr, make)
        with tr.span("poset.consistency"):
            report = P.verify_consistency_relations(p)
        tr.count("poset.consistency.checked", report.checked)
        with tr.span("poset.irreducibles", calls=2):
            jirr, mirr = p.join_irreducibles(), p.meet_irreducibles()
        return (len(p), len(p.covers), cert.witness, report.checked,
                report.passed, len(jirr), len(mirr),
                run_queries(tr, p, queries, NoUniqueBound))

    return Op(kind, call, lambda r: r == expected)


def setup(seed, workdir):
    from ordinal import poset as P
    from ordinal.errors import NoUniqueBound
    from ordinal.spacetime import causal_grid_poset

    rng = random.Random(seed)
    ops = []

    def add_lattice(kind, make, model):
        ops.append(lattice_op(kind, make, model, rng, P, NoUniqueBound))

    for n in BOOLEAN_SIZES:
        add_lattice(f"boolean.{n}", lambda n=n: P.boolean_lattice(BOOL_ATOMS[:n]),
                    boolean_model(BOOL_ATOMS[:n]))
    for n in range(4, 8):
        add_lattice(f"partition.{n}", lambda n=n: P.partition_lattice(PART_ATOMS[:n]),
                    partition_model(n))
    for n in DIVISORS:
        add_lattice(f"divisors.{n}", lambda n=n: P.divisor_lattice(n), divisor_model(n))

    factors = {
        "B2": (lambda: P.boolean_lattice("xy"), lambda: boolean_model("xy")),
        "B3": (lambda: P.boolean_lattice("abc"), lambda: boolean_model("abc")),
        "P3": (lambda: P.partition_lattice("abc"), lambda: partition_model(3)),
        "D12": (lambda: P.divisor_lattice(12), lambda: divisor_model(12)),
        "D30": (lambda: P.divisor_lattice(30), lambda: divisor_model(30)),
    }
    for a, b in itertools.combinations(sorted(factors), 2):
        if rng.random() < 0.5:
            a, b = b, a
        (make_a, model_a), (make_b, model_b) = factors[a], factors[b]
        add_lattice(f"product.{a}x{b}",
                    lambda ma=make_a, mb=make_b: P.lattice_product(ma(), mb()),
                    product_model(model_a(), model_b()))

    for n in range(16, 33, 2):
        ops.append(grid_op(n, rng, causal_grid_poset, NoUniqueBound))
    for n in range(4, 9):
        for drop_top in (True, False):
            ops.append(deleted_boolean_op(n, drop_top, rng, P, NoUniqueBound))
    # B8 without its top is the median operation; with three of it, p50
    # falls inside a group of like operations, not between two sizes
    ops += [deleted_boolean_op(8, True, rng, P, NoUniqueBound) for _ in range(2)]
    rng.shuffle(ops)
    return ops


def non_lattice_op(kind, make, size, covers, witness, bounds, leq_queries,
                   NoUniqueBound):
    """Certify must fail at ``witness``; its join and meet answer ``bounds``
    (None where the bound is not unique)."""
    queries = [("join", *witness), ("meet", *witness)] + [
        ("leq", x, y) for x, y, _ in leq_queries]
    expected = (size, covers, witness,
                list(bounds) + [answer for _, _, answer in leq_queries])

    def call(tr):
        p, cert = certify(tr, make)
        return (len(p), len(p.covers), cert.witness,
                run_queries(tr, p, queries, NoUniqueBound))

    return Op(kind, call, lambda r: r == expected)


def grid_op(n, rng, causal_grid_poset, NoUniqueBound):
    ids = oracle.grid_ids(n)
    leqs = []
    for _ in range(QUERIES):
        x, y = rng.choice(ids), rng.choice(ids)
        (t1, x1), (t2, x2) = oracle.grid_point(x), oracle.grid_point(y)
        leqs.append((x, y, t2 - t1 >= abs(x2 - x1)))
    witness = oracle.grid_first_witness(n)
    a, b = (oracle.grid_point(w) for w in witness)
    bounds = (oracle.grid_bound(n, a, b, True), oracle.grid_bound(n, a, b, False))
    return non_lattice_op(f"grid.{n}", lambda: causal_grid_poset(n), n * n,
                          oracle.grid_covers(n), witness, bounds, leqs,
                          NoUniqueBound)


def deleted_boolean_op(n, drop_top, rng, P, NoUniqueBound):
    b = oracle.Boolean(BOOL_ATOMS[:n])
    gone = b.full if drop_top else 0
    masks = [m for m in b.masks() if m != gone]
    leqs = []
    for _ in range(QUERIES):
        x, y = rng.choice(masks), rng.choice(masks)
        leqs.append((b.ident(x), b.ident(y), x & ~y == 0))
    witness = oracle.deleted_boolean_witness(b, drop_top)
    x, y = (next(m for m in masks if b.ident(m) == w) for w in witness)
    bounds = (None, b.ident(x & y)) if drop_top else (b.ident(x | y), None)

    def make():
        full = P.boolean_lattice(BOOL_ATOMS[:n])
        drop = b.ident(gone)
        return P.build_poset([e for e in full.elements if e != drop],
                             [c for c in full.covers if drop not in c])

    return non_lattice_op(f"boolean.{n}.no_{'top' if drop_top else 'bottom'}",
                          make, 2 ** n - 1, n * 2 ** (n - 1) - n, witness, bounds,
                          leqs, NoUniqueBound)
