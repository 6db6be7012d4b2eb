"""Finite posets and lattices over string element ids.

A Poset is immutable after construction. Reachability is computed eagerly
from the cover relation and stored as one bitmask row per element, with bit
positions laid out in topological order. That layout makes order tests O(1)
and joins/meets a couple of bitmask operations: the least upper bound of a
pair, when it exists, is the lowest set bit of the intersected up-sets.
Joins and meets are computed from the masks on every call and are never
memoised, so a poset's memory stays at its two mask tables.
All query results come back in canonical (lexicographic) element order,
which pins witness selection and keeps reports deterministic.

Conventions:
  - bounds are reflexive: x belongs to upper_bound({x});
  - covers must be irredundant on input (the builder rejects covers that are
    transitively implied rather than silently reducing them).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (CycleDetected, NoUniqueBound, NotALattice, RedundantCover,
                     TooManyAtoms, UnknownElement)
from .partitions import Partition, all_partitions
from .report import RuleViolation, build_report


@dataclass(frozen=True)
class LatticeCertificate:
    """Verdict of the every-pair join/meet uniqueness check."""

    is_lattice: bool
    witness: tuple[str, str] | None = None

    def __post_init__(self):
        if self.is_lattice == (self.witness is not None):
            raise ValueError("witness is present exactly when the check fails")

    def to_dict(self) -> dict:
        return {"is_lattice": self.is_lattice,
                "witness": list(self.witness) if self.witness else None}


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _unknown(element: str) -> UnknownElement:
    return UnknownElement(f"element {element!r} is not in the poset")


def _every_meet(down: list[int]) -> bool:
    """Does every pair of positions have a greatest lower bound? See
    ``Poset.meet`` for the test."""
    for q, dq in enumerate(down):
        for dp in down[:q]:
            m = dq & dp
            if down[m.bit_length() - 1] != m:
                return False
    return True


class Poset:
    """Validated finite poset; construct via :func:`build_poset` or a generator."""

    def __init__(self, elements: Sequence[str], covers: Sequence[tuple[str, str]],
                 order: list[int], up_t: list[int], down_t: list[int]):
        self.elements: tuple[str, ...] = tuple(elements)
        self.covers: tuple[tuple[str, str], ...] = tuple(covers)
        self._index = {e: i for i, e in enumerate(self.elements)}
        # order[pos] = lexicographic index of the element at topological
        # position pos. Masks live in position space; _at and _pos map
        # positions to elements and back.
        self._at = [self.elements[i] for i in order]
        self._pos = {e: pos for pos, e in enumerate(self._at)}
        self._up_t = up_t
        self._down_t = down_t
        self._full = (1 << len(self.elements)) - 1
        self._certificate: LatticeCertificate | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: str) -> bool:
        return element in self._index

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    def _position(self, element: str) -> int:
        try:
            return self._pos[element]
        except KeyError:
            raise _unknown(element) from None

    def leq(self, x: str, y: str) -> bool:
        """True iff x is included by y."""
        up, pos = self._up_t, self._pos
        try:
            return bool(up[pos[x]] >> pos[y] & 1)
        except KeyError:
            raise _unknown(x if x not in pos else y) from None

    def upper_bound(self, s: Iterable[str]) -> list[str]:
        """Every z with x <= z for all x in s (reflexive), canonical order."""
        return self._ids(self._bound_mask(s, self._up_t))

    def lower_bound(self, s: Iterable[str]) -> list[str]:
        return self._ids(self._bound_mask(s, self._down_t))

    def _ids(self, mask: int) -> list[str]:
        return sorted(self._at[p] for p in _bits(mask))

    def _bound_mask(self, s: Iterable[str], rows: list[int]) -> int:
        mask = self._full
        empty = True
        for x in s:
            empty = False
            mask &= rows[self._position(x)]
        if empty:
            raise ValueError("bound of an empty element set is not defined")
        return mask

    def _minimal_positions(self, mask: int) -> list[int]:
        return [p for p in _bits(mask) if self._down_t[p] & mask == 1 << p]

    def _maximal_positions(self, mask: int) -> list[int]:
        return [p for p in _bits(mask) if self._up_t[p] & mask == 1 << p]

    # An intersection of up-sets is up-closed, so it holds its lowest
    # position's whole up-set; that position is the least element exactly
    # when its up-set is the whole intersection. An empty intersection never
    # equals a row, since every row holds its own bit. Dually for meets.
    # join and meet are the hot path of every audit, so each does its own
    # lookups in one frame.

    def join(self, x: str, y: str) -> str:
        """Unique least upper bound; NoUniqueBound when absent or ambiguous."""
        up, pos = self._up_t, self._pos
        try:
            mask = up[pos[x]] & up[pos[y]]
        except KeyError:
            raise _unknown(x if x not in pos else y) from None
        low = (mask & -mask).bit_length() - 1
        if up[low] != mask:
            a, b = sorted((x, y))
            raise NoUniqueBound(f"join of {a!r} and {b!r}: "
                                f"{len(self._minimal_positions(mask))} minimal upper bounds")
        return self._at[low]

    def meet(self, x: str, y: str) -> str:
        down, pos = self._down_t, self._pos
        try:
            mask = down[pos[x]] & down[pos[y]]
        except KeyError:
            raise _unknown(x if x not in pos else y) from None
        high = mask.bit_length() - 1
        if down[high] != mask:
            a, b = sorted((x, y))
            raise NoUniqueBound(f"meet of {a!r} and {b!r}: "
                                f"{len(self._maximal_positions(mask))} maximal lower bounds")
        return self._at[high]

    # A bottom sits below everything, so it must take the first topological
    # position, and a top the last.

    def bottom(self) -> str | None:
        return self._at[0] if self._full and self._up_t[0] == self._full else None

    def top(self) -> str | None:
        return self._at[-1] if self._full and self._down_t[-1] == self._full else None

    def is_lattice(self) -> LatticeCertificate:
        """Check join/meet uniqueness for every pair; witness the first failure."""
        if self._certificate is None:
            self._certificate = self._certify()
        return self._certificate

    def _certify(self) -> LatticeCertificate:
        # A finite poset with a top is a lattice iff every pair has a meet
        # (the join of x and y is the meet of their upper bounds), so one
        # meet scan decides. A non-empty poset without a top has two maximal
        # elements with no join, so no dual scan could pass. Only a failure,
        # or a poset without a top, pays for the lexicographic join+meet scan
        # that picks the canonical witness.
        if self.top() is not None and _every_meet(self._down_t):
            return LatticeCertificate(True)
        for i, x in enumerate(self.elements):
            for y in self.elements[i + 1:]:
                try:
                    self.join(x, y)
                    self.meet(x, y)
                except NoUniqueBound:
                    return LatticeCertificate(False, (x, y))
        return LatticeCertificate(True)

    def _require_lattice(self):
        cert = self.is_lattice()
        if not cert.is_lattice:
            raise NotALattice(f"poset is not a lattice, witness pair {cert.witness}")

    def _irreducibles(self) -> tuple[list[str], list[str]]:
        self._require_lattice()
        lower, upper = Counter(), Counter()
        for a, b in self.covers:
            upper[a] += 1
            lower[b] += 1
        return ([x for x in self.elements if lower[x] == 1],
                [x for x in self.elements if upper[x] == 1])

    def join_irreducibles(self) -> list[str]:
        """Elements no pair of strictly smaller elements joins to; bottom excluded.

        In a finite lattice these are the elements with exactly one lower
        cover: two lower covers of x join to x, and below a single lower
        cover c every join of smaller elements stays at or under c.
        """
        return self._irreducibles()[0]

    def meet_irreducibles(self) -> list[str]:
        """Elements with exactly one upper cover; the dual of join-irreducibles."""
        return self._irreducibles()[1]

    def to_dict(self) -> dict:
        return {"elements": list(self.elements),
                "covers": sorted([list(c) for c in self.covers])}


def build_poset(elements: Iterable[str], covers: Iterable[tuple[str, str]]) -> Poset:
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

    for a, b in cover_pairs:
        ta, tb = tp[index[a]], tp[index[b]]
        between = (up_t[ta] & ~(1 << ta)) & (down_t[tb] & ~(1 << tb))
        if between:
            middle = ids[order[next(iter(_bits(between)))]]
            raise RedundantCover(
                f"cover ({a!r}, {b!r}) is implied through {middle!r}")

    return Poset(ids, cover_pairs, order, up_t, down_t)


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


def verify_consistency_relations(p: Poset):
    """Audit x <= y  <=>  (x v y = y and x ^ y = x) over all ordered pairs.

    A valid lattice always passes; the report exists as a self-audit oracle
    of the public ``leq``, ``join`` and ``meet``.
    """
    p._require_lattice()
    leq, join, meet = p.leq, p.join, p.meet
    violations = []
    for x in p.elements:
        for y in p.elements:
            structural = leq(x, y)
            operational = join(x, y) == y and meet(x, y) == x
            if structural != operational:
                violations.append(RuleViolation(
                    (x, y), float(structural), float(operational), 1.0))
    return build_report("consistency", len(p.elements) ** 2, 0, violations)


# --- generators ---

def chain_poset(labels: Sequence[str]) -> Poset:
    """Total order in the given label sequence."""
    labels = list(labels)
    return build_poset(labels, list(zip(labels, labels[1:])))


def subset_id(atoms: Iterable[str]) -> str:
    """Canonical id for a subset element of a boolean lattice."""
    return "{" + ",".join(sorted(atoms)) + "}"


def parse_subset_id(element: str) -> frozenset[str]:
    if not (element.startswith("{") and element.endswith("}")):
        raise ValueError(f"{element!r} is not a subset id")
    inner = element[1:-1]
    if not inner:
        return frozenset()
    atoms = inner.split(",")
    if any(not a for a in atoms):
        raise ValueError(f"{element!r} is not a subset id")
    return frozenset(atoms)


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


def divisor_lattice(n: int) -> Poset:
    """Divisors of n under 'divides'; join is lcm and meet is gcd."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    covers = [(str(a), str(b))
              for a in divisors for b in divisors
              if a < b and b % a == 0 and _is_prime(b // a)]
    return build_poset([str(d) for d in divisors], covers)


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def pair_id(x: str, y: str) -> str:
    return f"({x},{y})"


def lattice_product(p: Poset, q: Poset) -> Poset:
    """Cartesian product with componentwise order; requires two lattices."""
    p._require_lattice()
    q._require_lattice()
    elements = [pair_id(x, y) for x in p.elements for y in q.elements]
    covers = []
    for x in p.elements:
        for (a, b) in q.covers:
            covers.append((pair_id(x, a), pair_id(x, b)))
    for (a, b) in p.covers:
        for y in q.elements:
            covers.append((pair_id(a, y), pair_id(b, y)))
    return build_poset(elements, covers)
