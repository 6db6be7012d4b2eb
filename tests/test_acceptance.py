"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from ordinal import (Event, ObserverChain, Partition, AtomDistribution,
                     Valuation, bivaluation_from_valuation, boolean_lattice,
                     boost_frame, build_poset, chain_poset,
                     check_bivaluation_sum_rule, check_chain_rule,
                     check_context_product_rule, check_diamond_lemma,
                     check_monotone, check_product_rule_for_lattice_product,
                     check_sum_rule, derive_valuation_from_atoms,
                     divisor_lattice, interval_pair, lattice_product,
                     mutual_information, pair_id, partition_entropy,
                     partition_lattice, verify_consistency_relations)
from ordinal.errors import NotSynchronized


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, \
        f"{name}: {elapsed:.2f}s exceeds the {budget_seconds}s budget"
    print(f"[criterion {number}] {name}: PASS ({elapsed:.3f}s)")


def all_rule_audits(v, w, tol):
    return [check_sum_rule(v, tol), check_bivaluation_sum_rule(w, tol),
            check_chain_rule(w, tol), check_diamond_lemma(w, tol),
            check_context_product_rule(w, tol)]


def test_criterion_1_partition_lattice_of_three_atoms():
    with criterion(1, "partition lattice of three atoms", 1.0):
        lat = partition_lattice("abc")
        assert len(lat) == 5
        middles = {"a|bc", "ab|c", "ac|b"}
        for a in middles:
            for b in middles:
                assert lat.leq(a, b) == (a == b)  # a 3-element antichain
        assert lat.join("a|bc", "ac|b") == "abc"
        assert lat.meet("a|bc", "ac|b") == "a|b|c"
        assert set(lat.join_irreducibles()) == middles


def test_criterion_2_bell_number_oracle():
    with criterion(2, "partition lattice sizes match the Bell recursion", 10.0):
        # independent oracle: B(n+1) = sum_k C(n, k) B(k)
        bell = [1]
        for n in range(6):
            bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
        assert bell[1:] == [1, 2, 5, 15, 52, 203]
        for n in range(1, 7):
            assert len(partition_lattice("abcdef"[:n])) == bell[n]


def test_criterion_3_consistency_relations():
    with criterion(3, "consistency relations on three classic lattices", 10.0):
        for lat in (divisor_lattice(60),
                    boolean_lattice("abcd"),
                    chain_poset([f"{i:02d}" for i in range(10)])):
            report = verify_consistency_relations(lat)
            assert report.passed and report.checked == len(lat) ** 2


def test_criterion_4_valuation_rule_suite():
    with criterion(4, "valuation and bi-valuation rules on random weights", 60.0):
        tol = 1e-9
        rng = random.Random(20260810)
        lattices = {n: boolean_lattice("abcde"[:n]) for n in (2, 3, 4, 5)}
        for trial in range(100):
            n = 2 + trial % 4
            lat = lattices[n]
            weights = {a: rng.uniform(0.05, 1.0) for a in "abcde"[:n]}
            v = derive_valuation_from_atoms(lat, weights)
            w = bivaluation_from_valuation(v, tol)
            for report in all_rule_audits(v, w, tol):
                assert report.passed, (report.rule, trial)

        # integer-weight fixture: exact arithmetic, zero tolerance
        lat = lattices[4]
        exact = derive_valuation_from_atoms(
            lat, {"a": F(1), "b": F(2), "c": F(3), "d": F(4)})
        w = bivaluation_from_valuation(exact, tol=0)
        for report in all_rule_audits(exact, w, 0):
            assert report.passed, report.rule


def test_criterion_5_lattice_product_rule():
    with criterion(5, "product valuation on a product of two diamonds", 5.0):
        left = boolean_lattice("ab")
        right = boolean_lattice("cd")
        vl = derive_valuation_from_atoms(left, {"a": F(2, 7), "b": F(3, 7)})
        vr = derive_valuation_from_atoms(right, {"c": F(5, 11), "d": F(6, 11)})
        prod = lattice_product(left, right)
        vpq = Valuation(prod, {pair_id(x, y): vl(x) * vr(y)
                               for x in left.elements for y in right.elements})
        report = check_product_rule_for_lattice_product(vl, vr, vpq, tol=1e-12)
        assert report.passed and report.checked == 16


def test_criterion_6_mutual_information_identity():
    with criterion(6, "mutual information equals the entropy sum rule", 10.0):
        def direct(a, b, d):
            total = 0.0
            for block_a in a.blocks:
                for block_b in b.blocks:
                    joint = d.block_prob(block_a & block_b)
                    if joint > 0:
                        total += joint * math.log2(
                            joint / (d.block_prob(block_a) * d.block_prob(block_b)))
            return total

        rng = random.Random(37)
        for _ in range(200):
            n = rng.randint(2, 6)
            atoms = "abcdef"[:n]
            raw = [rng.uniform(0.01, 1.0) for _ in atoms]
            total = sum(raw)
            d = AtomDistribution({a: v / total for a, v in zip(atoms, raw)})

            def rand_partition():
                blocks = {}
                for atom in atoms:
                    blocks.setdefault(rng.randrange(n), []).append(atom)
                return Partition.from_blocks(blocks.values())

            a, b = rand_partition(), rand_partition()
            rep = mutual_information(a, b, d)
            assert abs(rep.mi - direct(a, b, d)) < 1e-9

        # exact anchors
        uniform = AtomDistribution({s: 0.25 for s in ("00", "01", "10", "11")})
        first = Partition.from_blocks([["00", "01"], ["10", "11"]])
        second = Partition.from_blocks([["00", "10"], ["01", "11"]])
        assert mutual_information(first, second, uniform).mi == 0.0
        skew = AtomDistribution({"a": 0.5, "b": 0.3, "c": 0.2})
        part = Partition.parse("a|bc")
        rep = mutual_information(part, part, skew)
        assert rep.mi == rep.h_a == partition_entropy(part, skew)


def test_criterion_7_interval_invariance_from_projections():
    with criterion(7, "interval scalar invariant across boosted chain frames", 5.0):
        e1, e2 = Event(0, 0), Event(2, 1)
        span = (-20, 900)
        frames = {
            F(1): (ObserverChain(origin=Event(0, 0), index_range=span),
                   ObserverChain(origin=Event(0, 5), index_range=span)),
            F(3, 2): (ObserverChain(origin=Event(0, 0), k=F(2, 3), tick=F(1, 6),
                                    index_range=span),
                      ObserverChain(origin=Event(0, 5), k=F(2, 3), tick=F(1, 6),
                                    index_range=span)),
            F(2): (ObserverChain(origin=Event(0, 0), k=F(1, 2), tick=F(1, 2),
                                 index_range=span),
                   ObserverChain(origin=Event(0, 5), k=F(1, 2), tick=F(1, 2),
                                 index_range=span)),
        }
        rest = interval_pair(e1, e2, *frames[F(1)])  # sync checked inside
        assert (rest.dp, rest.dq) == (3, 1)
        assert rest.ds2 == F(3)
        for k, (p, q) in frames.items():
            ip = interval_pair(e1, e2, p, q)
            assert ip.ds2 == F(3)  # exact rational in every frame
            boost = boost_frame(k)
            assert ip == boost.apply(rest)
            beta = (k ** 2 - 1) / (k ** 2 + 1)
            gamma = (k ** 2 + 1) / (2 * k)
            chain = ObserverChain(origin=Event(0, 0), k=k)
            assert (chain.beta, chain.gamma) == (beta, gamma)
            assert ip.dt == gamma * (rest.dt + beta * rest.dx)
            assert ip.dx == gamma * (rest.dx + beta * rest.dt)


def test_criterion_8_negative_controls():
    with criterion(8, "perturbations and broken preconditions are caught", 10.0):
        # a single perturbed valuation entry (> 10 * tol) trips an audit
        tol = 1e-9
        lat = boolean_lattice("abc")
        v = derive_valuation_from_atoms(
            lat, {"a": F(1, 5), "b": F(3, 10), "c": F(1, 2)})
        perturbed = v.replace("{a,b}", float(v("{a,b}")) + 2e-8)
        w = bivaluation_from_valuation(perturbed, tol, validate=False)
        audits = all_rule_audits(perturbed, w, tol) + [check_monotone(perturbed)]
        assert any(not report.passed for report in audits)

        # a desynchronized chain pair is rejected, and forcing it past the
        # gate produces a frame-dependent scalar
        p = ObserverChain(origin=Event(0, 0), index_range=(0, 200))
        q = ObserverChain(origin=Event(0, 5), index_range=(0, 200))
        q_slow = ObserverChain(origin=Event(0, 5), tick=2, index_range=(0, 200))
        e1, e2 = Event(0, 0), Event(2, 1)
        synced = interval_pair(e1, e2, p, q)
        try:
            interval_pair(e1, e2, p, q_slow)
            raised = False
        except NotSynchronized:
            raised = True
        assert raised
        forced = interval_pair(e1, e2, p, q_slow, check_sync=False)
        assert forced.ds2 != synced.ds2

        # ambiguous bounds are rejected with the canonical witness pair
        bowtie = build_poset("pqrs", [("p", "r"), ("p", "s"),
                                      ("q", "r"), ("q", "s")])
        cert = bowtie.is_lattice()
        assert not cert.is_lattice
        assert cert.witness == ("p", "q")
