import math
import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from ordinal import (CycleDetected, LatticeCertificate, NoUniqueBound,
                     NotALattice, RedundantCover, TooManyAtoms, UnknownElement,
                     boolean_lattice, build_poset, chain_poset, divisor_lattice,
                     lattice_product, pair_id, parse_subset_id,
                     partition_lattice, subset_id, verify_consistency_relations)

SUITS = ["clubs", "diamonds", "hearts", "spades"]


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
    with pytest.raises(RedundantCover):
        build_poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])


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


def random_dag_order(n, data):
    """Reachability and transitive reduction of a random DAG on n nodes."""
    # edges only point upward in node order
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)
             if data.draw(st.booleans())}
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


def test_bowtie_join_ambiguous(bowtie):
    with pytest.raises(NoUniqueBound):
        bowtie.join("p", "q")
    with pytest.raises(NoUniqueBound):
        bowtie.meet("r", "s")


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
], ids=["B4-no-top", "B4-no-bottom", "bowtie", "M3", "N5"])
def test_certificate_matches_brute_force_on_fixed_posets(factory):
    assert_certificate_matches_brute_force(factory())


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_certificate_matches_brute_force_on_random_posets(n, data):
    _, reduction = random_dag_order(n, data)
    # labels in random order, so lexicographic and topological order differ
    ids = data.draw(st.permutations("abcdefg"))[:n]
    assert_certificate_matches_brute_force(
        build_poset(ids, [(ids[a], ids[b]) for a, b in reduction]))


def test_certifying_b10_keeps_no_per_pair_storage():
    p = boolean_lattice("abcdefghij")
    tracemalloc.start()
    try:
        assert p.is_lattice().is_lattice
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
