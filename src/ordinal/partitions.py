"""Partitions of a finite atom set, ordered by refinement."""
from __future__ import annotations

from typing import Iterable, Iterator

from ._record import Record, set_field
from .errors import GroundSetMismatch


class Partition(Record):
    """A partition: disjoint non-empty blocks covering the ground set."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: frozenset[frozenset[str]]):
        set_field(self, "blocks", blocks)
        if not blocks:
            raise ValueError("partition needs at least one block")
        total = 0
        for block in blocks:
            if not block:
                raise ValueError("empty block in partition")
            total += len(block)
        if total != len(self.ground_set()):
            raise ValueError("blocks overlap")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[str]]) -> "Partition":
        return cls(frozenset(frozenset(b) for b in blocks))

    def ground_set(self) -> frozenset[str]:
        return frozenset(a for block in self.blocks for a in block)

    def sorted_blocks(self) -> list[tuple[str, ...]]:
        return sorted(tuple(sorted(b)) for b in self.blocks)

    def literal(self) -> str:
        """Canonical block string, e.g. ``a|bc`` or ``[a1,b2]|[c3]``."""
        compact = all(len(a) == 1 for a in self.ground_set())
        if compact:
            return "|".join("".join(b) for b in self.sorted_blocks())
        return "|".join("[" + ",".join(b) + "]" for b in self.sorted_blocks())

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse a block literal; brackets hold comma-separated multi-char atoms."""
        blocks = []
        for chunk in text.split("|"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"empty block in partition literal {text!r}")
            if chunk.startswith("[") and chunk.endswith("]"):
                atoms = [a.strip() for a in chunk[1:-1].split(",")]
            else:
                atoms = list(chunk)
            if any(not a for a in atoms):
                raise ValueError(f"empty atom in partition literal {text!r}")
            blocks.append(atoms)
        return cls.from_blocks(blocks)

    @classmethod
    def finest(cls, ground: Iterable[str]) -> "Partition":
        return cls.from_blocks([a] for a in ground)

    @classmethod
    def coarsest(cls, ground: Iterable[str]) -> "Partition":
        return cls.from_blocks([list(ground)])

    def block_of(self, atom: str) -> frozenset[str]:
        for block in self.blocks:
            if atom in block:
                return block
        raise KeyError(atom)

    def refines(self, other: "Partition") -> bool:
        """True when every block here sits inside a block of ``other``."""
        if self.ground_set() != other.ground_set():
            raise GroundSetMismatch(
                f"{self.literal()} and {other.literal()} partition different atoms")
        return all(block <= other.block_of(next(iter(block)))
                   for block in self.blocks)

    def common_refinement(self, other: "Partition") -> "Partition":
        """Blocks are the non-empty pairwise intersections."""
        if self.ground_set() != other.ground_set():
            raise GroundSetMismatch(
                f"{self.literal()} and {other.literal()} partition different atoms")
        blocks = []
        for a in self.blocks:
            for b in other.blocks:
                meet = a & b
                if meet:
                    blocks.append(meet)
        return Partition.from_blocks(blocks)


def all_partitions(ground: Iterable[str]) -> Iterator[Partition]:
    """Enumerate every partition by inserting atoms one at a time."""
    atoms = sorted(set(ground))
    if not atoms:
        raise ValueError("ground set is empty")

    def grow(remaining: list[str], blocks: list[list[str]]) -> Iterator[list[list[str]]]:
        if not remaining:
            yield blocks
            return
        head, rest = remaining[0], remaining[1:]
        for i in range(len(blocks)):
            yield from grow(rest, blocks[:i] + [blocks[i] + [head]] + blocks[i + 1:])
        yield from grow(rest, blocks + [[head]])

    for blocks in grow(atoms[1:], [[atoms[0]]]):
        yield Partition.from_blocks(blocks)
