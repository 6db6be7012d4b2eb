"""The builder and the generators against the versions they replaced.

``reference_generators`` keeps those versions. The package's generators
write ids and covers from bitmasks, block masks and integers, and build in
index space; they must give the same elements and covers, and the same
positions and rows as the reference builder gives from those. Every id
they write must read back through its parser, and atom names that would
make an id ambiguous are refused. The builder must give what the
reference builder gives, or raise the same exception with the same text.
Every poset must list its covers in sorted order, and each position's
lower covers as its covers give them.
"""
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import reference_generators as ref
from ordinal import (Partition, boolean_lattice, build_poset, chain_poset,
                     divisor_lattice, lattice_product, pair_id, parse_subset_id,
                     partition_lattice, subset_id)
from ordinal.spacetime import causal_grid_poset

LETTERS = "abcdefghij"


def tables(p):
    return p.elements, p.covers, p._at, p._up_t, p._down_t


def lower_covers(p):
    """Each position's lower covers as a set, read from the string covers."""
    lower = [set() for _ in p._at]
    for a, b in p.covers:
        lower[p._pos[b]].add(p._pos[a])
    return lower


def same_poset(p, q):
    return (p.elements == q.elements and p.covers == q.covers
            and p.covers == tuple(sorted(p.covers))
            and [set(below) for below in p._lower] == lower_covers(p)
            and tables(p) == tables(ref.reference_build_poset(p.elements, p.covers)))


@pytest.mark.parametrize("n", range(1, 11))
def test_boolean_lattice_matches_reference(n):
    # x1..x10 sort as x1, x10, x2, ..., so sorted order is not numeric order
    for atoms in (LETTERS[:n], [f"x{i}" for i in range(1, n + 1)]):
        assert same_poset(boolean_lattice(atoms), ref.boolean_lattice(atoms))


@pytest.mark.parametrize("n", range(1, 8))
def test_partition_lattice_matches_reference(n):
    atom_sets = [LETTERS[:n]]
    if n <= 5:
        atom_sets.append([f"a{i}" for i in range(1, n + 1)])
    for atoms in atom_sets:
        assert same_poset(partition_lattice(atoms), ref.partition_lattice(atoms))


@pytest.mark.parametrize("n", [*range(1, 33), 64])
def test_causal_grid_poset_matches_reference(n):
    assert same_poset(causal_grid_poset(n), ref.causal_grid_poset(n))


@pytest.mark.parametrize("n", [1, 7, 720720, 963761198400])
def test_divisor_lattice_matches_reference(n):
    assert same_poset(divisor_lattice(n), ref.divisor_lattice(n))


FACTORS = {"B2": lambda: boolean_lattice("ab"), "B3": lambda: boolean_lattice("abc"),
           "P3": lambda: partition_lattice("abc"), "D12": lambda: divisor_lattice(12),
           "D30": lambda: divisor_lattice(30)}


@pytest.mark.parametrize("left, right", product(FACTORS, repeat=2))
def test_lattice_product_matches_reference(left, right):
    p, q = FACTORS[left](), FACTORS[right]()
    expected = ref.reference_build_poset(
        [pair_id(x, y) for x in p.elements for y in q.elements],
        [(pair_id(x, a), pair_id(x, b)) for x in p.elements for a, b in q.covers]
        + [(pair_id(a, y), pair_id(b, y)) for a, b in p.covers for y in q.elements])
    assert same_poset(lattice_product(p, q), expected)


@pytest.mark.parametrize("labels", [["a"], list("dcba"), [str(i) for i in range(12)]])
def test_chain_poset_matches_reference(labels):
    expected = ref.reference_build_poset(labels, list(zip(labels, labels[1:])))
    assert same_poset(chain_poset(labels), expected)


def test_top_of_each_generator_range():
    p8 = partition_lattice("abcdefgh")
    assert (len(p8.elements), len(p8.covers)) == (4140, 28337)
    grid = causal_grid_poset(64)
    assert (len(grid.elements), len(grid.covers)) == (4096, 11970)


@pytest.mark.parametrize("atoms", ["abcd", ["a1", "b2", "c3", "d4"], ["a", "bb", "c"],
                                   ["{x}", "a b", "y"], "}{)("])
def test_partition_ids_round_trip(atoms):
    for element in partition_lattice(atoms).elements:
        assert Partition.parse(element).literal() == element


@pytest.mark.parametrize("atoms", ["abcd", ["x1", "x10", "x2"], ["{", "}", " a", "b|c"]])
def test_subset_ids_round_trip(atoms):
    for element in boolean_lattice(atoms).elements:
        assert subset_id(parse_subset_id(element)) == element


@pytest.mark.parametrize("text", ["a", "{a", "{a,,b}", "{,}"])
def test_a_malformed_subset_id_is_rejected(text):
    with pytest.raises(ValueError, match="is not a subset id"):
        parse_subset_id(text)


@pytest.mark.parametrize("atoms, bad", [(["a", "b", "a,b"], "a,b"), (["", "a"], "")])
def test_boolean_lattice_rejects_ambiguous_atoms(atoms, bad):
    with pytest.raises(ValueError, match=f"^boolean atom {bad!r} must be non-empty"):
        boolean_lattice(atoms)


@pytest.mark.parametrize("bad", ["", "a|b", "a,b", "[a", "a]", " a", "a\t"])
def test_partition_lattice_rejects_ambiguous_atoms(bad):
    with pytest.raises(ValueError) as info:
        partition_lattice(["c", bad])
    assert str(info.value).startswith(f"partition atom {bad!r} must be non-empty")


# --- the builder against the reference builder ---

NAMES = ["a", "b", "c", "ab", "b2", "10", "2", "x y"]
UNKNOWN = ["zz", 99, ""]


def outcome(build, elements, covers):
    try:
        p = build(elements, covers)
    except Exception as e:  # the class and text must match, whatever they are
        return type(e), str(e)
    assert p.covers == tuple(sorted(p.covers))
    assert [set(below) for below in p._lower] == lower_covers(p)
    return tables(p)


@st.composite
def builder_inputs(draw):
    """Up to 9 ids, str or int, with covers that are reduced, reduced plus
    one implied pair, raw (often redundant) or wild (any pair, so cycles
    and self-covers), plus duplicates and, at times, an unknown endpoint."""
    ids = draw(st.lists(st.one_of(st.sampled_from(NAMES), st.integers(0, 12)),
                        max_size=9, unique=True))
    n = len(ids)
    index = st.sampled_from(range(max(n, 1)))
    pairs = draw(st.lists(st.tuples(index, index), min_size=n - 1, max_size=2 * n)) if n else []
    mode = draw(st.sampled_from(["reduced", "implied", "raw", "wild"]))
    if mode != "wild":
        pairs = [(i, j) if i < j else (j, i) for i, j in pairs if i != j]
    if mode in ("reduced", "implied"):  # transitive reduction, then maybe one implied pair
        up = [{i} for i in range(n)]
        for i in reversed(range(n)):
            up[i].update(*(up[j] for a, j in pairs if a == i))
        pairs = [(i, j) for i, j in sorted(set(pairs))
                 if not any(j in up[k] for a, k in pairs if a == i and k != j)]
        implied = sorted({(i, j) for i, k in pairs for j in up[k] if j != k})
        if mode == "implied" and implied:
            pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(implied)))
    covers = [(ids[i], ids[j]) for i, j in pairs]
    covers += draw(st.lists(st.sampled_from(covers), max_size=3)) if covers else []
    if draw(st.sampled_from([False, False, False, True])):
        bad = [draw(st.sampled_from(UNKNOWN)), draw(st.sampled_from(ids + UNKNOWN))]
        covers.insert(draw(st.integers(0, len(covers))), tuple(draw(st.permutations(bad))))
    return ids, covers


@settings(max_examples=400, deadline=None)
@given(builder_inputs(), st.booleans())
def test_build_poset_matches_reference(inputs, one_shot):
    ids, covers = inputs
    if one_shot:
        got = outcome(build_poset, iter(ids), (c for c in covers))
    else:
        got = outcome(build_poset, ids, covers)
    assert got == outcome(ref.reference_build_poset, ids, covers)


def test_boolean_lattice_builds_without_string_pairs():
    # a set of 24,576 string-pair tuples took the peak to 8.5 MiB
    tracemalloc.start()
    try:
        boolean_lattice("abcdefghijkl")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
