"""The lattice generators as they were before they wrote ids from integer
encodings, kept for testing.

``boolean_lattice`` built a frozenset per subset, ``partition_lattice`` a
``Partition`` per element and per two-block merge, and ``causal_grid_poset``
an ``Event`` per grid point, with the bodies unchanged here. The
differential tests check that the package's generators give the same
elements and covers, so this is an oracle, not part of the package.
"""
from __future__ import annotations

from typing import Iterable

from ordinal.errors import TooManyAtoms
from ordinal.partitions import Partition, all_partitions
from ordinal.poset import Poset, build_poset, subset_id
from ordinal.spacetime import Event, causal_grid, grid_event_id


def boolean_lattice(atoms: Iterable[str]) -> Poset:
    """Powerset of the atoms ordered by inclusion; bottom is the empty set."""
    atom_list = sorted(set(atoms))
    if not atom_list:
        raise ValueError("boolean lattice needs at least one atom")
    if len(atom_list) > 16:
        raise TooManyAtoms(f"{len(atom_list)} atoms exceeds the bound of 16")
    subsets = [frozenset()]
    for a in atom_list:
        subsets += [s | {a} for s in subsets]
    elements = [subset_id(s) for s in subsets]
    covers = [(subset_id(s), subset_id(s | {a}))
              for s in subsets for a in atom_list if a not in s]
    return build_poset(elements, covers)


def partition_lattice(atoms: Iterable[str]) -> Poset:
    """All partitions ordered by refinement, finest at the bottom.

    Element ids are canonical block strings; covers merge exactly two blocks.
    """
    atom_list = sorted(set(atoms))
    if not atom_list:
        raise ValueError("partition lattice needs at least one atom")
    if len(atom_list) > 8:
        raise TooManyAtoms(f"{len(atom_list)} atoms exceeds the enumeration bound of 8")
    parts = list(all_partitions(atom_list))
    elements = [p.literal() for p in parts]
    covers = set()
    for part in parts:
        blocks = part.sorted_blocks()
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                merged = ([list(b) for k, b in enumerate(blocks) if k not in (i, j)]
                          + [list(blocks[i]) + list(blocks[j])])
                covers.add((part.literal(), Partition.from_blocks(merged).literal()))
    return build_poset(elements, sorted(covers))


def causal_grid_poset(n: int) -> Poset:
    """The causal order on causal_grid(n) as an explicit poset.

    Covers step one unit of time and at most one unit of space.
    """
    events = causal_grid(n)
    covers = []
    for e in events:
        if e.t == n - 1:
            continue
        for dx in (-1, 0, 1):
            x2 = e.x + dx
            if 0 <= x2 < n:
                covers.append((grid_event_id(e),
                               grid_event_id(Event(e.t + 1, x2))))
    return build_poset([grid_event_id(e) for e in events], covers)
