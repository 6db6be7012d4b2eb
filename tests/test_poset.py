import math
import time
import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from ordinal import valuation
from ordinal import (BoundExceeded, CycleDetected, LatticeCertificate,
                     NoUniqueBound, NotALattice, RedundantCover, TooManyAtoms,
                     UnknownElement, boolean_lattice, build_poset, chain_poset,
                     divisor_lattice, lattice_product, pair_id, parse_subset_id,
                     partition_lattice, subset_id, verify_consistency_relations)
from ordinal.poset import Poset, StandardContext, _enumerate_consistency
from ordinal.spacetime import causal_grid_poset

SUITS = ["clubs", "diamonds", "hearts", "spades"]


def is_prime(m):
    return m > 1 and all(m % f for f in range(2, math.isqrt(m) + 1))


def brute_lower_bound(p, s):
    return [z for z in p.elements if all(p.leq(z, x) for x in s)]


def brute_upper_bound(p, s):
    return [z for z in p.elements if all(p.leq(x, z) for x in s)]


# --- construction and validation ---

def test_three_chain_builds():
    p = build_poset("abc", [("a", "b"), ("b", "c")])
    assert p.leq("a", "c") and not p.leq("c", "a")
    assert p.covers == (("a", "b"), ("b", "c"))


def test_two_cycle_rejected():
    with pytest.raises(CycleDetected):
        build_poset("ab", [("a", "b"), ("b", "a")])


def test_self_cover_rejected():
    with pytest.raises(CycleDetected):
        build_poset("ab", [("a", "a")])


def test_redundant_cover_rejected():
    with pytest.raises(RedundantCover) as info:
        build_poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert str(info.value) == "cover ('a', 'c') is implied through 'b'"


def test_redundant_cover_names_the_lowest_topological_middle():
    # b and c both sit between a and d; the topological order is a, c, b, d
    with pytest.raises(RedundantCover) as info:
        build_poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("a", "d")])
    assert str(info.value) == "cover ('a', 'd') is implied through 'c'"


def test_unknown_cover_endpoint_rejected():
    with pytest.raises(UnknownElement):
        build_poset("ab", [("a", "z")])


def test_empty_element_id_rejected():
    with pytest.raises(ValueError):
        build_poset(["", "a"], [])


# --- order queries ---

def test_chain_leq():
    p = chain_poset(["1", "2", "3"])
    assert p.leq("1", "2")
    assert not p.leq("2", "1")


def test_antichain_everything_incomparable():
    p = build_poset(SUITS, [])
    for a in SUITS:
        for b in SUITS:
            assert p.leq(a, b) == (a == b)


def test_leq_reflexive(p3):
    for x in p3.elements:
        assert p3.leq(x, x)


def test_leq_unknown_element(p3):
    with pytest.raises(UnknownElement):
        p3.leq("abc", "nope")


def test_reach_is_a_partial_order(b3, p3, bowtie):
    for p in (b3, p3, bowtie, divisor_lattice(12)):
        for x in p.elements:
            assert p.leq(x, x)
            for y in p.elements:
                if p.leq(x, y) and p.leq(y, x):
                    assert x == y
                for z in p.elements:
                    if p.leq(x, y) and p.leq(y, z):
                        assert p.leq(x, z)


def test_transitive_reduction_equals_covers(b3, p3):
    for p in (b3, p3, divisor_lattice(60)):
        reduced = set()
        for x in p.elements:
            for y in p.elements:
                if x == y or not p.leq(x, y):
                    continue
                between = any(z not in (x, y) and p.leq(x, z) and p.leq(z, y)
                              for z in p.elements)
                if not between:
                    reduced.add((x, y))
        assert reduced == set(p.covers)


def random_dag_order(n, data, top=False, bottom=False):
    """Reachability and transitive reduction of a random DAG on n nodes; with
    top (bottom), the last (first) node lies above (below) every other."""
    # edges only point upward in node order
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)
             if top and j == n - 1 or bottom and i == 0 or data.draw(st.booleans())}
    # brute-force reflexive-transitive closure, then its reduction
    reach = {(i, i) for i in range(n)} | set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(reach):
            for (c, d) in list(reach):
                if b == c and (a, d) not in reach:
                    reach.add((a, d))
                    changed = True
    reduction = {(a, b) for (a, b) in reach if a != b
                 and not any(z not in (a, b) and (a, z) in reach and (z, b) in reach
                             for z in range(n))}
    return reach, reduction


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_builder_reproduces_any_random_dag_order(n, data):
    reach, reduction = random_dag_order(n, data)
    ids = [f"n{i}" for i in range(n)]
    p = build_poset(ids, [(ids[a], ids[b]) for a, b in reduction])
    for i in range(n):
        for j in range(n):
            assert p.leq(ids[i], ids[j]) == ((i, j) in reach)
    assert set(p.covers) == {(ids[a], ids[b]) for a, b in reduction}
    # any strictly redundant extra cover must be rejected
    extra = sorted((a, b) for (a, b) in reach
                   if a != b and (a, b) not in reduction)
    if extra:
        a, b = extra[0]
        with pytest.raises(RedundantCover):
            build_poset(ids, [(ids[x], ids[y]) for x, y in reduction]
                        + [(ids[a], ids[b])])


# --- bounds, join, meet ---

def test_upper_bound_is_reflexive(p3):
    # canonical element order puts "abc" before "ab|c"
    assert p3.upper_bound(["ab|c"]) == ["abc", "ab|c"]
    top = "abc"
    assert p3.upper_bound([top]) == [top]


def test_lower_bound_matches_brute_force(p3):
    s = ["a|bc", "ac|b"]
    assert p3.lower_bound(s) == ["a|b|c"]
    assert p3.lower_bound(s) == brute_lower_bound(p3, s)


def test_bounds_of_empty_set_rejected(p3):
    with pytest.raises(ValueError):
        p3.upper_bound([])


def test_bound_unknown_element(p3):
    with pytest.raises(UnknownElement):
        p3.upper_bound(["nope"])


def test_partition_join_meet(p3):
    assert p3.join("a|bc", "ac|b") == "abc"
    assert p3.meet("a|bc", "ac|b") == "a|b|c"


def test_join_matches_brute_force_minimum(p3):
    for x in p3.elements:
        for y in p3.elements:
            ub = brute_upper_bound(p3, [x, y])
            least = [z for z in ub if all(p3.leq(z, w) for w in ub)]
            assert least == [p3.join(x, y)]


def test_join_idempotent(b3):
    for x in b3.elements:
        assert b3.join(x, x) == x
        assert b3.meet(x, x) == x


def test_bowtie_join_ambiguous():
    # a fresh bowtie, so the first pass runs before any certification
    bowtie = build_poset("pqrs", [("p", "r"), ("p", "s"), ("q", "r"), ("q", "s")])
    join_text = "join of 'p' and 'q': 2 minimal upper bounds"
    meet_text = "meet of 'r' and 's': 2 maximal lower bounds"
    for certified in (False, True):
        if certified:
            assert not bowtie.is_lattice().is_lattice
        for op, x, y, text in [(bowtie.join, "p", "q", join_text),
                               (bowtie.join, "q", "p", join_text),
                               (bowtie.meet, "r", "s", meet_text),
                               (bowtie.meet, "s", "r", meet_text)]:
            with pytest.raises(NoUniqueBound) as err:
                op(x, y)
            assert str(err.value) == text


def test_join_and_meet_name_the_unknown_element():
    p = divisor_lattice(12)
    for certified in (False, True):
        if certified:
            assert p.is_lattice().is_lattice
        for op in (p.leq, p.join, p.meet):
            for x, y, unknown in [("7", "2", "7"), ("2", "7", "7"), ("7", "8", "7")]:
                with pytest.raises(UnknownElement) as err:
                    op(x, y)
                assert str(err.value) == f"element {unknown!r} is not in the poset"


def test_join_without_any_upper_bound():
    p = build_poset(SUITS, [])
    with pytest.raises(NoUniqueBound):
        p.join("clubs", "hearts")


# --- lattice certification ---

def test_diamond_is_a_lattice():
    cert = boolean_lattice("ab").is_lattice()
    assert cert.is_lattice and cert.witness is None


def test_bowtie_is_not_a_lattice(bowtie):
    cert = bowtie.is_lattice()
    assert not cert.is_lattice
    assert cert.witness == ("p", "q")  # first offending pair canonically


def test_chain_is_a_lattice():
    assert chain_poset([str(i) for i in range(6)]).is_lattice().is_lattice


def test_certificate_witness_consistency():
    with pytest.raises(ValueError):
        LatticeCertificate(True, ("a", "b"))
    with pytest.raises(ValueError):
        LatticeCertificate(False, None)


def brute_witness(p):
    """Lexicographically first pair without a unique join or meet, read from
    the bound sets; None for a lattice."""
    for i, x in enumerate(p.elements):
        for y in p.elements[i + 1:]:
            upper, lower = p.upper_bound([x, y]), p.lower_bound([x, y])
            least = [z for z in upper if all(p.leq(z, w) for w in upper)]
            greatest = [z for z in lower if all(p.leq(w, z) for w in lower)]
            if len(least) != 1 or len(greatest) != 1:
                return (x, y)
    return None


def without(p, drop):
    return build_poset([e for e in p.elements if e != drop],
                       [c for c in p.covers if drop not in c])


def assert_certificate_matches_brute_force(p):
    cert = p.is_lattice()
    assert cert.witness == brute_witness(p)
    assert cert.is_lattice == (cert.witness is None)


@pytest.mark.parametrize("factory", [
    lambda: without(boolean_lattice("abcd"), "{a,b,c,d}"),
    lambda: without(boolean_lattice("abcd"), "{}"),
    lambda: build_poset("pqrs", [("p", "r"), ("p", "s"), ("q", "r"), ("q", "s")]),
    lambda: build_poset("0abc1", [("0", "a"), ("0", "b"), ("0", "c"),
                                  ("a", "1"), ("b", "1"), ("c", "1")]),  # M3
    lambda: build_poset("0abc1", [("0", "a"), ("a", "b"), ("b", "1"),
                                  ("0", "c"), ("c", "1")]),  # N5
    # bounded, and each element is the join of the join-irreducibles below
    # it, check (a) of Poset._standard_context; yet 5 and 7 have two
    # maximal lower bounds, 1 and 2, so check (b) rejects it
    lambda: build_poset("012345678", [("0", "1"), ("0", "2"), ("1", "3"), ("1", "7"),
                                      ("2", "4"), ("2", "5"), ("3", "5"), ("4", "6"),
                                      ("5", "8"), ("6", "7"), ("7", "8")]),
], ids=["B4-no-top", "B4-no-bottom", "bowtie", "M3", "N5", "two-meet-candidates"])
def test_certificate_matches_brute_force_on_fixed_posets(factory):
    assert_certificate_matches_brute_force(factory())


BOWTIE = [("p", "r"), ("p", "s"), ("q", "r"), ("q", "s")]
UNBOUNDED = {
    **{f"grid-{n}": lambda n=n: causal_grid_poset(n) for n in range(2, 9)},
    **{f"B{n}-no-top": lambda n=n: without(boolean_lattice("abcdef"[:n]),
                                           subset_id("abcdef"[:n])) for n in range(2, 7)},
    **{f"B{n}-no-bottom": lambda n=n: without(boolean_lattice("abcdef"[:n]), "{}")
       for n in range(2, 7)},
    "bowtie": lambda: build_poset("pqrs", BOWTIE),
    "antichain": lambda: build_poset(SUITS, []),
    # bounded, so it reaches the standard context
    "bounded-bowtie": lambda: build_poset("01pqrs", BOWTIE + [("0", "p"), ("0", "q"),
                                                              ("r", "1"), ("s", "1")]),
}


@pytest.mark.parametrize("name", UNBOUNDED)
def test_witness_without_a_bottom_or_top_matches_brute_force(name):
    # a non-empty poset without a bottom or a top is refused before the
    # standard context is built; the witness scan then runs as before
    assert_certificate_matches_brute_force(UNBOUNDED[name]())


def naturally_labelled(k):
    """Every order on 0..k-1 in which i below j implies i < j, as the list of
    each element's strict down-set, a bitmask."""
    orders = [[]]
    for j in range(k):  # j's down-set: any down-closed set of 0..j-1
        orders = [downs + [s] for downs in orders for s in range(1 << j)
                  if all(downs[i] & ~s == 0 for i in range(j) if s >> i & 1)]
    return orders


def bounded_posets(most):
    """Each naturally labelled order on at most `most` inner elements, with
    a bottom "0" and a top added; inner element i is named str(i + 1)."""
    for k in range(most + 1):
        ids, top = [str(i) for i in range(k + 2)], str(k + 1)
        for downs in naturally_labelled(k):
            covers = [(ids[i + 1], ids[j + 1]) for j, d in enumerate(downs)
                      for i in range(k) if d >> i & 1
                      and not any(downs[m] >> i & 1 for m in range(k) if d >> m & 1)]
            covers += [("0", ids[j + 1]) for j, d in enumerate(downs) if d == 0]
            covers += [(ids[j + 1], top) for j in range(k)
                       if not any(d >> j & 1 for d in downs)]
            yield build_poset(ids, covers if k else [("0", top)])


def test_certificate_matches_brute_force_on_every_small_bounded_poset():
    # with a bottom and a top, every verdict comes from the standard context;
    # up to 5 inner elements check (a) alone decides every one, so 6 are
    # needed for a non-lattice that only check (b) rejects
    posets = list(bounded_posets(6))
    assert len(posets) == 1 + 1 + 2 + 7 + 40 + 357 + 4824  # naturally labelled orders
    verdicts = set()
    for p in posets:
        assert p.bottom() == "0" and p.top() == p.elements[-1]
        assert_certificate_matches_brute_force(p)
        verdicts.add(p.is_lattice().is_lattice)
    assert verdicts == {True, False}


def test_distributivity_matches_brute_force_on_every_small_lattice():
    # valuation._distributive reads one extent bit and one intent bit per
    # cover; the extent half alone passes 24 of these lattices that do not
    # distribute, such as the convex subsets of three points on a line
    verdicts = []
    for p in bounded_posets(6):
        if not p.is_lattice().is_lattice:
            continue
        pos, ids = {e: i for i, e in enumerate(p.elements)}, range(len(p))
        join = [[pos[p.join(x, y)] for y in p.elements] for x in p.elements]
        meet = [[pos[p.meet(x, y)] for y in p.elements] for x in p.elements]
        distributes = all(meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
                          for x, y, z in product(ids, repeat=3))
        assert valuation._distributive(p) == distributes, p.covers
        verdicts.append(distributes)
    assert (len(verdicts), sum(verdicts)) == (4007, 90)


@pytest.mark.parametrize("p", [build_poset([], []), build_poset(["a"], [])],
                         ids=["empty", "one-element"])
def test_empty_and_one_element_posets_are_lattices(p):
    cert = p.is_lattice()
    assert cert.is_lattice and cert.witness is None


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_certificate_matches_brute_force_on_random_posets(n, data):
    _, reduction = random_dag_order(n, data)
    # labels in random order, so lexicographic and topological order differ
    ids = data.draw(st.permutations("abcdefg"))[:n]
    assert_certificate_matches_brute_force(
        build_poset(ids, [(ids[a], ids[b]) for a, b in reduction]))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.booleans(), st.data())
def test_certifier_matches_brute_force_on_posets_with_a_top(n, bottom, data):
    _, reduction = random_dag_order(n, data, top=True, bottom=bottom)
    ids = data.draw(st.permutations("abcdefghi"))[:n]
    p = build_poset(ids, [(ids[a], ids[b]) for a, b in reduction])
    assert p.top() == ids[n - 1]
    assert_certificate_matches_brute_force(p)
    if not p.is_lattice().is_lattice:
        return
    # a certified lattice answers from its extents and intents
    for x in p.elements:
        for y in p.elements:
            upper, lower = p.upper_bound([x, y]), p.lower_bound([x, y])
            assert [p.join(x, y)] == [z for z in upper if all(p.leq(z, w) for w in upper)]
            assert [p.meet(x, y)] == [z for z in lower if all(p.leq(w, z) for w in lower)]


def test_certifying_b10_keeps_no_per_pair_storage():
    p = boolean_lattice("abcdefghij")
    tracemalloc.start()
    try:
        assert p.is_lattice().is_lattice
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_certifying_b14_keeps_no_per_pair_storage():
    # one bit per pair would be 32 MiB at 16,384 elements, and the all-pairs
    # meet scan this certifier replaced took about 73 s
    p = boolean_lattice("abcdefghijklmn")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert p.is_lattice().is_lattice
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert elapsed < 20


# --- consistency relations self-audit ---

def test_consistency_divisors_of_12():
    p = divisor_lattice(12)
    report = verify_consistency_relations(p)
    assert report.passed and report.checked == len(p) ** 2
    for a in p.elements:
        for b in p.elements:
            assert p.join(a, b) == str(math.lcm(int(a), int(b)))
            assert p.meet(a, b) == str(math.gcd(int(a), int(b)))


def test_consistency_audits_the_public_join(monkeypatch):
    p = divisor_lattice(12)
    join = p.join
    monkeypatch.setattr(p, "join", lambda x, y: "12" if (x, y) == ("2", "4") else join(x, y))
    report = verify_consistency_relations(p)
    assert [(v.instance, v.lhs, v.rhs) for v in report.violations] == [(("2", "4"), 1.0, 0.0)]


@pytest.mark.parametrize("table, expected", [
    # join reads the intents: with int(2) := int(4), "2" joins like "4"
    ("intent", [("1", "2"), ("2", "2"), ("2", "6")]),
    # meet reads the extents: with ext(2) := ext(4), "2" meets like "4"
    ("extent", [("2", "12"), ("2", "2"), ("2", "4")]),
])
def test_consistency_audits_the_narrow_tables(table, expected):
    p = divisor_lattice(12)
    masks = getattr(p._require_lattice(), table)
    masks[p._pos["2"]] = masks[p._pos["4"]]
    report = verify_consistency_relations(p)
    assert [(v.instance, v.lhs, v.rhs) for v in report.violations] == [
        (pair, 1.0, 0.0) for pair in expected]


def test_consistency_powerset_of_three(b3):
    assert verify_consistency_relations(b3).passed
    for x in b3.elements:
        for y in b3.elements:
            sx, sy = parse_subset_id(x), parse_subset_id(y)
            assert b3.join(x, y) == subset_id(sx | sy)
            assert b3.meet(x, y) == subset_id(sx & sy)


def test_consistency_integer_chain():
    p = chain_poset([str(i) for i in range(6)])
    assert verify_consistency_relations(p).passed
    for a in p.elements:
        for b in p.elements:
            assert p.join(a, b) == max(a, b, key=int)
            assert p.meet(a, b) == min(a, b, key=int)


def test_consistency_requires_lattice(bowtie):
    with pytest.raises(NotALattice):
        verify_consistency_relations(bowtie)


def test_consistency_holds_on_every_generated_lattice():
    for lat in (partition_lattice("abcd"),
                boolean_lattice("ab"),
                divisor_lattice(30),
                lattice_product(chain_poset("012"), chain_poset("01"))):
        assert verify_consistency_relations(lat).passed


class JoinsTwoAndFourToTwelve(Poset):
    def join(self, x, y):
        return "12" if (x, y) == ("2", "4") else super().join(x, y)


def test_consistency_audits_a_subclass_join():
    p = divisor_lattice(12)
    p.__class__ = JoinsTwoAndFourToTwelve
    # the tables still prove the statement, so only enumeration sees the override
    assert p.is_lattice().is_lattice and p._consistency_holds()
    report = verify_consistency_relations(p)
    assert [(v.instance, v.lhs, v.rhs) for v in report.violations] == [(("2", "4"), 1.0, 0.0)]


def test_consistency_of_p8_is_proved_not_enumerated():
    # enumerating its 17,139,600 ordered pairs takes about 15 s
    p = partition_lattice("abcdefgh")
    assert p.is_lattice().is_lattice
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = verify_consistency_relations(p)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked == len(p) ** 2
    assert peak < 4 * 2**20
    assert elapsed < 5


PROOF_LATTICES = [
    *(lambda k=k: boolean_lattice("abcde"[:k]) for k in range(1, 6)),
    lambda: partition_lattice("abc"),
    lambda: partition_lattice("abcd"),
    lambda: divisor_lattice(60),
    lambda: lattice_product(chain_poset("012"), partition_lattice("abc")),
]


def order_context(p, jirr=None, mirr=None):
    """The tables a certified lattice holds, by their definitions and by
    position, for any poset and, if given, any lists of irreducible ids in
    place of the elements with one lower and one upper cover."""
    if jirr is None:
        jirr = tuple(x for x in p.elements if sum(b == x for _, b in p.covers) == 1)
    if mirr is None:
        mirr = tuple(x for x in p.elements if sum(a == x for a, _ in p.covers) == 1)
    extent = [sum(1 << k for k, j in enumerate(jirr) if p.leq(j, x)) for x in p._at]
    intent = [sum(1 << k for k, m in enumerate(mirr) if p.leq(x, m)) for x in p._at]
    return StandardContext(tuple(p._pos[j] for j in jirr), tuple(p._pos[m] for m in mirr),
                           extent, intent, {e: q for q, e in enumerate(extent)},
                           {i: q for q, i in enumerate(intent)})


def corrupt(p, data):
    """Change one entry of one table that leq, join or meet reads, or none;
    returns the table's name."""
    table = data.draw(st.sampled_from(
        ["none", "_up_t", "_pos", "extent", "intent", "by_extent", "by_intent"]))
    context, n = p._context, len(p)
    element, position = st.sampled_from(p.elements), st.integers(0, n - 1)
    if table == "_up_t":
        p._up_t[data.draw(st.integers(0, n - 1))] ^= 1 << data.draw(st.integers(0, n))
    elif table == "_pos":
        x, y = data.draw(element), data.draw(element)
        if data.draw(st.booleans()):
            p._pos[x], p._pos[y] = p._pos[y], p._pos[x]
        else:
            p._pos[x] = p._pos[y]
    elif table in ("extent", "intent"):
        masks = getattr(context, table)
        width = len(context.join_irreducibles if table == "extent"
                    else context.meet_irreducibles)
        x = data.draw(position)
        if data.draw(st.booleans()):
            masks[x] = masks[data.draw(position)]
        else:
            masks[x] ^= 1 << data.draw(st.integers(0, width))
    elif table in ("by_extent", "by_intent"):
        inverse = getattr(context, table)
        key = data.draw(st.sampled_from(sorted(inverse)))
        how = data.draw(st.sampled_from(["move", "drop", "add"]))
        if how == "move":
            inverse[key] = data.draw(position)
        elif how == "drop":
            del inverse[key]
        else:
            inverse[key ^ 1 << data.draw(st.integers(0, 8))] = data.draw(position)
    return table


def certified(p, change):
    """p certified as a lattice, then one of its tables changed."""
    assert p.is_lattice().is_lattice
    change(p)
    return p


def with_tables(p, jirr=None, mirr=None, by_extent=(), by_intent=()):
    """p with the tables that order_context defines, plus any extra entries
    for the inverses, each a mask and an element id."""
    p._context = order_context(p, jirr, mirr)
    p._context.by_extent.update((e, p._pos[x]) for e, x in dict(by_extent).items())
    p._context.by_intent.update((i, p._pos[x]) for i, x in dict(by_intent).items())
    return p


def grow_row(element, by):
    """A change that puts by's position into element's up row."""
    def change(p):
        p._up_t[p._pos[element]] |= 1 << p._pos[by]
    return change


def drop_an_intent_bit(p):
    # in the chain 0 < 1 < 2, M is (0, 1); without 1, 0's intent is still
    # unique, and join(0, 1) finds the intent of 2
    context, zero = p._context, p._pos["0"]
    del context.by_intent[context.intent[zero]]
    context.intent[zero] = 0b01
    context.by_intent[0b01] = zero


@pytest.mark.parametrize("make", [
    # a and b are incomparable, yet the inverses send the empty intersections
    # to b and a, so join(a, b) == b and meet(a, b) == a
    lambda: with_tables(build_poset("ab", []), ("a", "b"), ("a", "b"),
                        by_extent={0: "a"}, by_intent={0: "b"}),
    lambda: certified(boolean_lattice("ab"), grow_row("{a}", "{}")),
    lambda: certified(boolean_lattice("ab"), grow_row("{a,b}", "{a}")),
    lambda: certified(chain_poset("012"), drop_an_intent_bit),
    # with M = (a,), b's intent is empty, so join(a, b) == b; but a and b
    # have disjoint extents and no meet
    lambda: with_tables(build_poset("ab", []), ("a", "b"), ("a",)),
    # with M = every element, a and b have disjoint intents and no join, and
    # no extent is every J
    lambda: with_tables(build_poset("0ab", [("0", "a"), ("0", "b")]),
                        ("a", "b"), ("0", "a", "b")),
], ids=["C1", "C2", "C3", "C4", "C6-extents", "C6-every-J"])
def test_each_proof_condition_is_needed(make):
    """Each case fails one condition of Poset._consistency_holds and meets
    the others, and the enumeration fails on it: without that condition the
    proof would pass tables that fail the statement."""
    p = make()
    assert not p._consistency_holds()
    try:
        passed = _enumerate_consistency(p).passed
    except KeyError:  # a meet or join the tables do not hold
        passed = False
    assert not passed


def test_enumeration_runs_meet_where_join_already_differs():
    # a, b < 1 with J = (1, a, b) and M = (a, b): join(a, b) finds 1, but
    # ext(a) & ext(b) is no extent, so meet(a, b) has nothing to return;
    # a test that stopped at the join would report the pair, and all nine,
    # as consistent
    p = with_tables(build_poset("1ab", [("a", "1"), ("b", "1")]), ("1", "a", "b"),
                    ("a", "b"))
    assert p.join("a", "b") == "1"
    assert not p._consistency_holds()
    with pytest.raises(KeyError):
        _enumerate_consistency(p)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, len(PROOF_LATTICES) + 6), st.data())
def test_consistency_proof_is_sound(case, data):
    """Whenever the proof passes, the enumeration does too, and it passes on
    every lattice left as certified. The posets are fixed lattices and random
    ones with a top and a bottom; a non-lattice gets the tables that
    order_context defines for it."""
    if case < len(PROOF_LATTICES):
        p = PROOF_LATTICES[case]()
    else:
        n = case - len(PROOF_LATTICES) + 2
        _, reduction = random_dag_order(n, data, top=True, bottom=True)
        ids = data.draw(st.permutations("abcdefgh"))[:n]
        p = build_poset(ids, [(ids[a], ids[b]) for a, b in reduction])
    lattice = p.is_lattice().is_lattice
    if not lattice:
        p._context = order_context(p)
    table = corrupt(p, data)
    proved = p._consistency_holds()
    if lattice and table == "none":
        assert proved
    if proved:
        enumerated = _enumerate_consistency(p)
        assert enumerated.passed
        if lattice:
            assert verify_consistency_relations(p).to_dict() == enumerated.to_dict()


# --- irreducibles ---

def test_partition_join_irreducibles(p3):
    assert set(p3.join_irreducibles()) == {"a|bc", "ab|c", "ac|b"}
    assert set(p3.meet_irreducibles()) == {"a|bc", "ab|c", "ac|b"}


def test_boolean_atoms_are_join_irreducible(b3):
    assert set(b3.join_irreducibles()) == {"{a}", "{b}", "{c}"}


def test_chain_irreducibles_are_all_non_bottom():
    p = chain_poset([str(i) for i in range(5)])
    assert set(p.join_irreducibles()) == {str(i) for i in range(1, 5)}


def test_irreducibles_require_lattice(bowtie):
    with pytest.raises(NotALattice):
        bowtie.join_irreducibles()


def brute_irreducibles(p, op, below):
    """Elements that are not op of two strictly smaller (in ``below``'s
    sense) elements; an element with nothing smaller is excluded."""
    out = []
    for x in p.elements:
        smaller = [z for z in p.elements if z != x and below(z, x)]
        if smaller and not any(op(a, b) == x for a in smaller for b in smaller):
            out.append(x)
    return out


@pytest.mark.parametrize("factory", [
    lambda: boolean_lattice("abcd"),
    lambda: partition_lattice("abcd"),
    lambda: divisor_lattice(60),
    lambda: chain_poset([str(i) for i in range(6)]),
    lambda: lattice_product(partition_lattice("abc"), chain_poset("012")),
], ids=["B4", "P4", "D60", "chain", "P3xC3"])
def test_irreducibles_match_their_definition(factory):
    p = factory()
    assert p.join_irreducibles() == brute_irreducibles(p, p.join, p.leq)
    assert p.meet_irreducibles() == brute_irreducibles(
        p, p.meet, lambda z, x: p.leq(x, z))


# --- lattice laws by brute force ---

@pytest.mark.parametrize("factory", [
    lambda: chain_poset([str(i) for i in range(5)]),
    lambda: boolean_lattice("abc"),
    lambda: partition_lattice("abcd"),
    lambda: divisor_lattice(60),
    lambda: boolean_lattice("abcdef"),  # 64 elements
])
def test_join_meet_algebra_laws(factory):
    p = factory()
    els = p.elements
    join = {(x, y): p.join(x, y) for x in els for y in els}
    meet = {(x, y): p.meet(x, y) for x in els for y in els}
    for x in els:
        assert join[(x, x)] == x and meet[(x, x)] == x
        for y in els:
            assert join[(x, y)] == join[(y, x)]
            assert meet[(x, y)] == meet[(y, x)]
    for x in els:
        for y in els:
            for z in els:
                assert join[(join[(x, y)], z)] == join[(x, join[(y, z)])]
                assert meet[(meet[(x, y)], z)] == meet[(x, meet[(y, z)])]


# --- generators ---

def test_boolean_lattice_sizes():
    assert len(boolean_lattice("ab")) == 4
    assert len(boolean_lattice("abc")) == 8


def test_boolean_lattice_bounds():
    with pytest.raises(ValueError):
        boolean_lattice([])
    with pytest.raises(TooManyAtoms):
        boolean_lattice([f"a{i}" for i in range(17)])


def test_partition_lattice_shape(p3):
    assert len(p3) == 5
    middles = ["a|bc", "ab|c", "ac|b"]
    for a in middles:
        for b in middles:
            assert p3.leq(a, b) == (a == b)
    assert p3.bottom() == "a|b|c"
    assert p3.top() == "abc"


def test_partition_lattice_sizes():
    assert len(partition_lattice("a")) == 1
    assert len(partition_lattice("abcd")) == 15
    with pytest.raises(TooManyAtoms):
        partition_lattice("abcdefghi")
    with pytest.raises(ValueError):
        partition_lattice([])


def test_divisor_lattice_elements():
    p = divisor_lattice(60)
    assert sorted(int(d) for d in p.elements) == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
    for n in [*range(1, 301), 720720]:
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        p = divisor_lattice(n)
        assert p.elements == tuple(sorted(map(str, divisors)))
        covers = [(str(a), str(b)) for a in divisors for b in divisors
                  if a < b and b % a == 0 and is_prime(b // a)]
        assert p.covers == tuple(sorted(covers))


def test_divisor_lattice_bound():
    # the most divisors of any n up to the bound
    p = divisor_lattice(963761198400)
    assert (len(p), len(p.covers)) == (6720, 35776)
    assert len(divisor_lattice(10**12)) == 169
    for n in (10**12 + 1, 10**18 + 9, 897612484786617600):
        with pytest.raises(BoundExceeded, match=rf"^divisor lattice n = {n} exceeds 10\*\*12$"):
            divisor_lattice(n)


# --- lattice product ---

def test_product_of_two_two_element_chains_is_a_diamond():
    b1 = boolean_lattice("a")
    prod = lattice_product(b1, b1)
    assert len(prod) == 4
    assert prod.is_lattice().is_lattice
    assert len(prod.covers) == 4
    mids = [e for e in prod.elements if e not in (prod.bottom(), prod.top())]
    assert not prod.leq(mids[0], mids[1]) and not prod.leq(mids[1], mids[0])


def _isomorphic(p, q):
    if len(p) != len(q):
        return False
    for perm in permutations(q.elements):
        send = dict(zip(p.elements, perm))
        if all(p.leq(x, y) == q.leq(send[x], send[y])
               for x, y in product(p.elements, repeat=2)):
            return True
    return False


def test_product_is_associative_up_to_isomorphism():
    c2 = chain_poset(["0", "1"])
    left = lattice_product(lattice_product(c2, c2), c2)
    right = lattice_product(c2, lattice_product(c2, c2))
    assert _isomorphic(left, right)


def test_product_of_chains_is_a_grid_lattice():
    grid = lattice_product(chain_poset(["0", "1", "2"]), chain_poset(["0", "1"]))
    assert len(grid) == 6
    assert grid.is_lattice().is_lattice
    # componentwise order, checked by brute force
    for x1 in ("0", "1", "2"):
        for y1 in ("0", "1"):
            for x2 in ("0", "1", "2"):
                for y2 in ("0", "1"):
                    expected = x1 <= x2 and y1 <= y2
                    assert grid.leq(pair_id(x1, y1), pair_id(x2, y2)) == expected


def test_product_join_meet_componentwise(b3):
    q = chain_poset(["0", "1", "2"])
    prod = lattice_product(b3, q)
    for x1 in b3.elements:
        for y1 in q.elements:
            for x2 in b3.elements:
                for y2 in q.elements:
                    assert prod.join(pair_id(x1, y1), pair_id(x2, y2)) == \
                        pair_id(b3.join(x1, x2), q.join(y1, y2))
                    assert prod.meet(pair_id(x1, y1), pair_id(x2, y2)) == \
                        pair_id(b3.meet(x1, x2), q.meet(y1, y2))


def test_product_requires_lattices(bowtie):
    with pytest.raises(NotALattice):
        lattice_product(bowtie, chain_poset(["0", "1"]))


def test_product_rejects_factor_ids_whose_pair_ids_collide():
    # ('x', 'y,z') and ('x,y', 'z') are both named "(x,y,z)": the first
    # product was merged into a 3-element chain, the second rejected as cyclic
    for left, right, shared in [(["x", "x,y"], ["z", "y,z"], "(x,y,z)"),
                                (["a", "a,b"], ["b,c", "c"], "(a,b,c)")]:
        with pytest.raises(ValueError) as err:
            lattice_product(chain_poset(left), chain_poset(right))
        assert str(err.value) == f"product id {shared!r} names two distinct pairs"
