"""Entropy of partitions and the mutual-information identity.

A partition plays the role of a question; the entropy of the answer
distribution quantifies it. The joint question is the common refinement,
and mutual information is computed as I = H(A) + H(B) - H(joint), the sum
rule rearranged on the partition lattice (finer partitions sit lower, so
the common refinement is the lattice meet).

Logarithms are base 2 (bits) and 0*log(0) is 0 by continuity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import GroundSetMismatch
from .partitions import Partition

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class AtomDistribution:
    """Probabilities over atoms; must be non-negative and sum to one."""

    probs: Mapping[str, float]

    def __post_init__(self):
        for atom, prob in self.probs.items():
            if prob < 0:
                raise ValueError(f"negative probability {prob} for atom {atom!r}")
        total = sum(self.probs.values())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", dict(self.probs))

    def ground_set(self) -> frozenset[str]:
        return frozenset(self.probs)

    def block_prob(self, block) -> float:
        return math.fsum(map(self.probs.__getitem__, block))


@dataclass(frozen=True)
class RelevanceReport:
    """Entropies (bits) of two partitions, their joint, and the shared part."""

    h_a: float
    h_b: float
    h_joint: float
    mi: float

    def __post_init__(self):
        if min(self.h_a, self.h_b, self.h_joint) < 0:
            raise ValueError("entropies must be non-negative")
        if self.mi < -1e-9:
            raise ValueError(f"mutual information {self.mi} below tolerance")
        if self.h_joint > self.h_a + self.h_b + 1e-9:
            raise ValueError("joint entropy exceeds the sum of marginals")

    def to_dict(self) -> dict:
        return {"H_A": self.h_a, "H_B": self.h_b,
                "H_joint": self.h_joint, "I": self.mi}


def _require_same_ground(part: Partition, ground: frozenset[str]):
    if part.ground_set() != ground:
        raise GroundSetMismatch(
            f"partition {part.literal()!r} does not cover the distribution atoms")


def partition_entropy(part: Partition, d: AtomDistribution) -> float:
    """Shannon entropy of the block probabilities, in bits.

    Sums are taken with ``math.fsum``, which rounds correctly and so does not
    depend on the order of the blocks; that order follows the string hash
    seed, so a plain sum could change in the last digit from run to run.
    """
    _require_same_ground(part, d.ground_set())
    terms = []
    for block in part.blocks:
        prob = d.block_prob(block)
        if prob > 0.0:
            terms.append(prob * math.log2(prob))
    # 0.0 - x turns a zero sum of either sign into +0.0
    return max(0.0 - math.fsum(terms), 0.0)


def common_refinement(a: Partition, b: Partition) -> Partition:
    """The joint question: all non-empty pairwise block intersections."""
    return a.common_refinement(b)


def mutual_information(a: Partition, b: Partition,
                       d: AtomDistribution) -> RelevanceReport:
    """I(A;B) = H(A) + H(B) - H(joint), with the joint via common refinement."""
    ground = d.ground_set()
    _require_same_ground(a, ground)
    _require_same_ground(b, ground)
    h_a = partition_entropy(a, d)
    h_b = partition_entropy(b, d)
    h_joint = partition_entropy(common_refinement(a, b), d)
    return RelevanceReport(h_a=h_a, h_b=h_b, h_joint=h_joint,
                           mi=h_a + h_b - h_joint)
