"""The poset builder and the lattice generators as they were before they
worked in index space, kept for testing.

``reference_build_poset`` stringified, de-duplicated and sorted every id
and cover, kept a dict from id to index, and checked each cover for
redundancy with one AND of two rows. ``boolean_lattice`` built a frozenset
per subset, ``partition_lattice`` a ``Partition`` per element and per
two-block merge, ``causal_grid_poset`` an ``Event`` per grid point, and
``divisor_lattice`` trial-divided up to sqrt(n) for the divisors. The
bodies are unchanged here, except that each builds through
``reference_build_poset``. The differential tests check that the package
gives the same elements, covers, positions and rows, so this is an
oracle, not part of the package.
"""
from __future__ import annotations

import math
from typing import Iterable

from ordinal.errors import (BoundExceeded, CycleDetected, RedundantCover,
                            TooManyAtoms, UnknownElement)
from ordinal.partitions import Partition, all_partitions
from ordinal.poset import Poset, subset_id
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
    return reference_build_poset(elements, covers)


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
    return reference_build_poset(elements, sorted(covers))


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
    return reference_build_poset([grid_event_id(e) for e in events], covers)


def divisor_lattice(n: int) -> Poset:
    """Divisors of n under 'divides'; join is lcm and meet is gcd.

    Each divisor d is covered by d * q for each prime q with d * q | n.
    n is at most 10**12, because finding the divisors trial-divides up to
    sqrt(n). Under that bound the most divisors, 6,720, belong to
    963761198400, whose lattice builds in about 0.35 s.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > 10**12:
        raise BoundExceeded(f"divisor lattice n = {n} exceeds 10**12")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divisors = sorted({*small, *(n // d for d in small)})
    primes, rest, f = [], n, 2
    while f * f <= rest:
        if rest % f == 0:
            primes.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        primes.append(rest)
    covers = [(str(d), str(d * q)) for d in divisors for q in primes if n % (d * q) == 0]
    return reference_build_poset([str(d) for d in divisors], covers)


def reference_build_poset(elements: Iterable[str], covers: Iterable[tuple[str, str]]) -> Poset:
    """Validate cover input and compute reachability.

    Rejects cyclic input (CycleDetected) and covers that are transitively
    implied (RedundantCover). Cover endpoints must be declared elements.
    """
    ids = sorted({str(e) for e in elements})
    if any(not e for e in ids):
        raise ValueError("element ids must be non-empty strings")
    index = {e: i for i, e in enumerate(ids)}
    n = len(ids)

    cover_pairs = sorted({(str(a), str(b)) for a, b in covers})
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for a, b in cover_pairs:
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise UnknownElement(f"cover endpoint {missing!r} is not an element")
        if a == b:
            raise CycleDetected(f"self-cover on {a!r}")
        succ[index[a]].append(index[b])
        pred[index[b]].append(index[a])

    order = _topological_order(n, succ, pred, ids)
    tp = [0] * n
    for pos, i in enumerate(order):
        tp[i] = pos

    up_t = [0] * n
    for pos in range(n - 1, -1, -1):  # tops first: successors accumulated
        mask = 1 << pos
        for j in succ[order[pos]]:
            mask |= up_t[tp[j]]
        up_t[pos] = mask
    down_t = [0] * n
    for pos in range(n):  # bottoms first
        mask = 1 << pos
        for j in pred[order[pos]]:
            mask |= down_t[tp[j]]
        down_t[pos] = mask

    # [a, b] holds a and b, and anything else in it makes the cover redundant
    for a, b in cover_pairs:
        ta, tb = tp[index[a]], tp[index[b]]
        interval = up_t[ta] & down_t[tb]
        if interval.bit_count() > 2:
            between = interval & ~(1 << ta | 1 << tb)
            middle = ids[order[(between & -between).bit_length() - 1]]
            raise RedundantCover(
                f"cover ({a!r}, {b!r}) is implied through {middle!r}")

    return Poset(ids, cover_pairs, order, up_t, down_t,
                 [[tp[j] for j in pred[i]] for i in order])


def _topological_order(n, succ, pred, ids) -> list[int]:
    indegree = [len(p) for p in pred]
    stack = [i for i in range(n) if indegree[i] == 0]
    order = []
    while stack:
        i = stack.pop()
        order.append(i)
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                stack.append(j)
    if len(order) != n:
        stuck = [ids[i] for i in range(n) if indegree[i] > 0]
        raise CycleDetected(f"cover relation has a cycle through {stuck[:4]}")
    return order
