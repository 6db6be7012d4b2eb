import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import ordinal
from ordinal import (AtomDistribution, GroundSetMismatch, Partition,
                     common_refinement, mutual_information, partition_entropy,
                     partition_lattice)


def direct_mutual_information(a, b, d):
    """Textbook double-sum oracle: sum over block pairs of p*log2(p/(pa*pb))."""
    total = 0.0
    for block_a in a.blocks:
        for block_b in b.blocks:
            joint = d.block_prob(block_a & block_b)
            if joint > 0:
                total += joint * math.log2(
                    joint / (d.block_prob(block_a) * d.block_prob(block_b)))
    return total


def random_partition(rng, atoms):
    return Partition.from_blocks(
        _group(atoms, [rng.randrange(len(atoms)) for _ in atoms]).values())


def _group(atoms, assignment):
    blocks = {}
    for atom, idx in zip(atoms, assignment):
        blocks.setdefault(idx, []).append(atom)
    return blocks


# --- distributions ---

def test_distribution_validation():
    with pytest.raises(ValueError):
        AtomDistribution({"a": -0.1, "b": 1.1})
    with pytest.raises(ValueError):
        AtomDistribution({"a": 0.5, "b": 0.4})


# --- entropy ---

def test_entropy_of_binary_split():
    d = AtomDistribution({"a": 0.5, "b": 0.25, "c": 0.25})
    assert partition_entropy(Partition.parse("a|bc"), d) == pytest.approx(1.0)


def test_entropy_of_coarsest_partition_is_zero():
    d = AtomDistribution({"a": 0.5, "b": 0.5})
    assert partition_entropy(Partition.coarsest("ab"), d) == 0.0


def test_entropy_of_uniform_finest_partition():
    d = AtomDistribution({a: 0.25 for a in "abcd"})
    assert partition_entropy(Partition.finest("abcd"), d) == pytest.approx(2.0)


def test_entropy_ground_set_mismatch():
    d = AtomDistribution({"a": 0.5, "b": 0.5})
    with pytest.raises(GroundSetMismatch):
        partition_entropy(Partition.parse("a|bc"), d)


def test_zero_probability_blocks_contribute_nothing():
    d = AtomDistribution({"a": 1.0, "b": 0.0})
    assert partition_entropy(Partition.finest("ab"), d) == 0.0


# --- mutual information ---

BITS = ["00", "01", "10", "11"]
FIRST_BIT = Partition.from_blocks([["00", "01"], ["10", "11"]])
SECOND_BIT = Partition.from_blocks([["00", "10"], ["01", "11"]])


def test_independent_bits_share_nothing():
    d = AtomDistribution({a: 0.25 for a in BITS})
    rep = mutual_information(FIRST_BIT, SECOND_BIT, d)
    assert rep.mi == 0.0
    assert rep.h_a == rep.h_b == 1.0
    assert rep.h_joint == 2.0


def test_identical_partitions_share_everything():
    d = AtomDistribution({"a": 0.5, "b": 0.25, "c": 0.25})
    part = Partition.parse("a|bc")
    rep = mutual_information(part, part, d)
    assert rep.mi == rep.h_a


def test_correlated_bits_against_double_sum_oracle():
    d = AtomDistribution({"00": 0.4, "01": 0.1, "10": 0.1, "11": 0.4})
    rep = mutual_information(FIRST_BIT, SECOND_BIT, d)
    oracle = direct_mutual_information(FIRST_BIT, SECOND_BIT, d)
    assert rep.mi == pytest.approx(oracle, abs=1e-12)
    assert rep.mi == pytest.approx(0.2780719051126377, abs=1e-12)


def test_mutual_information_ground_set_mismatch():
    d = AtomDistribution({"a": 0.5, "b": 0.5})
    with pytest.raises(GroundSetMismatch):
        mutual_information(Partition.parse("a|b"), Partition.parse("a|c"), d)


def test_identity_matches_oracle_on_random_cases():
    rng = random.Random(4099)
    for _ in range(60):
        n = rng.randint(2, 6)
        atoms = "abcdef"[:n]
        raw = [rng.uniform(0.01, 1.0) for _ in atoms]
        total = sum(raw)
        d = AtomDistribution({a: w / total for a, w in zip(atoms, raw)})
        a, b = random_partition(rng, atoms), random_partition(rng, atoms)
        rep = mutual_information(a, b, d)
        assert abs(rep.mi - direct_mutual_information(a, b, d)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4),
       st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4))
def test_refining_a_partition_never_loses_entropy(raw, assignment):
    atoms = "wxyz"
    total = sum(raw)
    d = AtomDistribution({a: v / total for a, v in zip(atoms, raw)})
    coarse = Partition.from_blocks(_group(atoms, assignment).values())
    fine = common_refinement(coarse, Partition.from_blocks([["w", "x"], ["y", "z"]]))
    assert fine.refines(coarse)
    assert partition_entropy(fine, d) >= partition_entropy(coarse, d) - 1e-12


def test_mutual_information_is_the_sum_rule_on_the_partition_lattice():
    # On the partition lattice (finest at bottom) the joint question is the
    # lattice meet, so I = H(A) + H(B) - H(A meet B) structurally.
    lat = partition_lattice("abc")
    d = AtomDistribution({"a": 0.5, "b": 0.3, "c": 0.2})
    parts = {e: Partition.parse(e) for e in lat.elements}
    for x in lat.elements:
        for y in lat.elements:
            meet_id = lat.meet(x, y)
            assert parts[x].common_refinement(parts[y]).literal() == meet_id
            rep = mutual_information(parts[x], parts[y], d)
            expected = (partition_entropy(parts[x], d)
                        + partition_entropy(parts[y], d)
                        - partition_entropy(parts[meet_id], d))
            assert rep.mi == pytest.approx(expected, abs=1e-12)


def test_entropy_does_not_depend_on_the_hash_seed():
    # block order follows the string hash seed, so compare two interpreters
    script = ("from ordinal import AtomDistribution, Partition, "
              "mutual_information, partition_entropy\n"
              "d = AtomDistribution({a: w / 28 for w, a in enumerate('abcdefg', 1)})\n"
              "a, b = Partition.parse('ab|cd|ef|g'), Partition.parse('a|bc|de|fg')\n"
              "print(repr(partition_entropy(a, d)), repr(partition_entropy(b, d)),\n"
              "      repr(mutual_information(a, b, d)))\n")
    src = os.path.dirname(os.path.dirname(ordinal.__file__))
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                      capture_output=True, text=True, timeout=60).stdout)
    assert outputs[0] == outputs[1]
