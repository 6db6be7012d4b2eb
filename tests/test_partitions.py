import pytest
from hypothesis import given, strategies as st

from ordinal import GroundSetMismatch, Partition, all_partitions


def test_literal_compact():
    part = Partition.from_blocks([["a"], ["b", "c"]])
    assert part.literal() == "a|bc"


def test_literal_bracketed_for_multichar_atoms():
    part = Partition.from_blocks([["a1", "b2"], ["c3"]])
    assert part.literal() == "[a1,b2]|[c3]"


def test_parse_compact_and_bracketed():
    assert Partition.parse("bc|a") == Partition.from_blocks([["a"], ["b", "c"]])
    assert Partition.parse("[a1,b2]|[c3]") == \
        Partition.from_blocks([["a1", "b2"], ["c3"]])


def test_parse_rejects_empty_blocks():
    with pytest.raises(ValueError):
        Partition.parse("a||b")
    with pytest.raises(ValueError):
        Partition.parse("[a,]|[b]")


def test_overlapping_blocks_rejected():
    with pytest.raises(ValueError):
        Partition.from_blocks([["a", "b"], ["b"]])
    with pytest.raises(ValueError, match="blocks overlap"):
        Partition(frozenset([frozenset("ab"), frozenset("b")]))
    # a repeated atom or block is an error before the blocks become sets
    for blocks, atom in [([["a", "a"], ["b"]], "a"), ([["a", "b"], ["a", "b"]], "a"),
                         ([["a"], ["b"], ["b"]], "b")]:
        with pytest.raises(ValueError, match=f"partition repeats atom '{atom}'"):
            Partition.from_blocks(blocks)
    for text, atom in [("a|b|a", "a"), ("ab|ab", "a"), ("aa|b", "a"), ("b|[a1,a1]", "a1")]:
        with pytest.raises(ValueError, match=f"partition repeats atom '{atom}'"):
            Partition.parse(text)


def test_empty_block_rejected():
    with pytest.raises(ValueError):
        Partition.from_blocks([["a"], []])


def test_refinement():
    fine = Partition.parse("a|b|c")
    mid = Partition.parse("a|bc")
    top = Partition.parse("abc")
    assert fine.refines(mid) and mid.refines(top) and fine.refines(top)
    assert not mid.refines(fine)
    assert not Partition.parse("a|bc").refines(Partition.parse("ab|c"))


def test_refinement_needs_shared_ground():
    with pytest.raises(GroundSetMismatch):
        Partition.parse("a|b").refines(Partition.parse("a|c"))
    with pytest.raises(GroundSetMismatch):
        Partition.parse("a|b").common_refinement(Partition.parse("a|c"))


def test_block_of_an_unknown_atom():
    assert Partition.parse("ab|c").block_of("b") == frozenset("ab")
    with pytest.raises(KeyError):
        Partition.parse("ab|c").block_of("d")


def test_common_refinement_of_crossing_partitions():
    a = Partition.parse("a|bc")
    b = Partition.parse("b|ac")
    assert a.common_refinement(b) == Partition.parse("a|b|c")


def test_common_refinement_with_self_and_coarsest():
    x = Partition.parse("ab|cd")
    assert x.common_refinement(x) == x
    coarsest = Partition.coarsest("abcd")
    assert coarsest.common_refinement(x) == x


def test_finest_and_coarsest():
    assert Partition.finest("abc") == Partition.parse("a|b|c")
    assert Partition.coarsest("abc") == Partition.parse("abc")


def test_all_partitions_counts():
    counts = [len(list(all_partitions("abcdef"[:n]))) for n in range(1, 5)]
    assert counts == [1, 2, 5, 15]


def test_all_partitions_distinct():
    parts = list(all_partitions("abcd"))
    assert len(set(parts)) == len(parts)


def test_all_partitions_needs_an_atom():
    with pytest.raises(ValueError, match="ground set is empty"):
        next(all_partitions([]))


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6))
def test_literal_parse_round_trip(assignment):
    atoms = "abcdef"[:len(assignment)]
    blocks = {}
    for atom, group in zip(atoms, assignment):
        blocks.setdefault(group, []).append(atom)
    part = Partition.from_blocks(blocks.values())
    assert Partition.parse(part.literal()) == part
