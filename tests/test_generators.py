"""The generators against the object-building versions they replaced.

``reference_generators`` keeps those versions. The package's generators
write ids and covers from bitmasks, block masks and integers, and must give
the same elements and covers; every id they write must read back through
its parser, and atom names that would make an id ambiguous are refused.
"""
import pytest

import reference_generators as ref
from ordinal import (Partition, boolean_lattice, parse_subset_id,
                     partition_lattice, subset_id)
from ordinal.spacetime import causal_grid_poset

LETTERS = "abcdefghij"


def same_poset(p, q):
    return p.elements == q.elements and p.covers == q.covers


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
