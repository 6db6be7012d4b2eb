"""Finite posets and lattices over string element ids.

A Poset is immutable after construction. Reachability is computed eagerly
from the cover relation and stored as one bitmask row per element, with bit
positions laid out in topological order. That layout makes order tests O(1)
and, on any poset, joins/meets a couple of bitmask operations: the least
upper bound of a pair, when it exists, is the lowest set bit of the
intersected up-sets. Building works in index space: with the n ids sorted,
a cover is the integer key index[a] * n + index[b], and ``_assemble``
orders, folds and checks the keys. ``build_poset`` maps its covers to keys
once; the boolean, partition, divisor and grid generators rank their ids
with one sort and write the keys themselves, so no string pair is hashed or
sorted.

A finite lattice is also fixed by its join-irreducibles J and
meet-irreducibles M: it is the concept lattice of (J, M, <=) (Ganter &
Wille, Formal Concept Analysis, basic theorem). Certification builds that
standard context, each element's extent (the J below it, |J| bits) and
intent (the M above it, |M| bits), in one pass each way over the lower
covers that ``_assemble`` lists by position, plus n * |M| lookups;
``Poset._standard_context`` says why its two checks decide lattice-ness.
Once a lattice is certified, meet is the element whose extent is the
intersection of the two extents, and join the element whose intent is the
intersection of the two intents, so neither reads an n-bit row: 12 and 12
bits at 12 boolean atoms, 28 and 127 at 8 partition atoms, against rows of
4096 and 4140 bits. Certifying those two takes about 0.01 and 0.05 s, and
14 boolean atoms 0.08 s (CPython 3.11.7 on a shared 2-vCPU VM). Before a
passing certificate exists, and on non-lattices, join and meet read the
rows. A poset holds its ids and string covers, two row tables and its
lower-cover lists (a position per cover); once certified, two lists of n
narrow masks by position and their inverse dicts; once audited, the n-by-n
meet and join tables and down-set lists that ``valuation._table`` keeps in
``_tables``. Below the public methods everything is numbered by topological
position: ``leq``, ``join`` and ``meet`` turn their two ids into positions
once, and the certificate's tables hold positions only.
The consistency audit, x <= y iff x v y = y iff x ^ y = x, first proves the
statement for all n**2 pairs from those same tables, which ``leq``, ``join``
and ``meet`` read (``Poset._consistency_holds``): 0.03-0.05 s at 12 boolean
atoms and 0.11-0.12 s at 8 partition atoms, where the pairs took 11-17 s
one by one. It enumerates the pairs only when the proof fails or one of the
three methods is replaced, so a violation is still reported pair by pair.
All query results come back in canonical (lexicographic) element order,
which pins witness selection and keeps reports deterministic.

Conventions:
  - bounds are reflexive: x belongs to upper_bound({x});
  - covers must be irredundant on input (the builder rejects covers that are
    transitively implied rather than silently reducing them).
"""
from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterable, Sequence

from ._record import Record, set_field
from .errors import (BoundExceeded, CycleDetected, NoUniqueBound, NotALattice,
                     RedundantCover, TooManyAtoms, UnknownElement)
from .report import RuleViolation, build_report


class StandardContext(Record):
    """A lattice as its irreducibles, all by topological position. The
    irreducibles are positions in id order. extent[p] has bit k set for
    each join_irreducibles[k] below position p, intent[p] bit k for each
    meet_irreducibles[k] above it; on a lattice both lists are injective,
    and by_extent and by_intent map each mask back to its position."""

    __slots__ = ("join_irreducibles", "meet_irreducibles", "extent", "intent",
                 "by_extent", "by_intent")

    def __init__(self, join_irreducibles: tuple[int, ...],
                 meet_irreducibles: tuple[int, ...], extent: list[int],
                 intent: list[int], by_extent: dict[int, int],
                 by_intent: dict[int, int]):
        set_field(self, "join_irreducibles", join_irreducibles)
        set_field(self, "meet_irreducibles", meet_irreducibles)
        set_field(self, "extent", extent)
        set_field(self, "intent", intent)
        set_field(self, "by_extent", by_extent)
        set_field(self, "by_intent", by_intent)


class LatticeCertificate(Record):
    """Verdict of the lattice check: a lattice, or a witness pair that has
    no unique join or meet. A Poset keeps its standard context itself."""

    __slots__ = ("is_lattice", "witness")

    def __init__(self, is_lattice: bool, witness: tuple[str, str] | None = None):
        set_field(self, "is_lattice", is_lattice)
        set_field(self, "witness", witness)
        if is_lattice == (witness is not None):
            raise ValueError("witness is present exactly when the check fails")

    def to_dict(self) -> dict:
        return {"is_lattice": self.is_lattice,
                "witness": list(self.witness) if self.witness else None}


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _columns(rows: list[list[int]], width: int) -> list[int]:
    """The transpose of a bit matrix: mask k has bit p iff rows[p] lists k."""
    n = len(rows)
    digits = [bytearray(b"0" * n) for _ in range(width)]  # bit p is digit n - 1 - p
    for p, ks in enumerate(rows):
        for k in ks:
            digits[k][~p] = 49  # ord("1")
    return [int(d, 2) for d in digits]


def _unknown(element: str) -> UnknownElement:
    return UnknownElement(f"element {element!r} is not in the poset")


class Poset:
    """Validated finite poset; construct via :func:`build_poset` or a generator."""

    def __init__(self, elements: Sequence[str], covers: Sequence[tuple[str, str]],
                 order: list[int], up_t: list[int], down_t: list[int],
                 lower: list[list[int]]):
        self.elements: tuple[str, ...] = tuple(elements)
        self.covers: tuple[tuple[str, str], ...] = tuple(covers)
        # order[pos] = lexicographic index of the element at topological
        # position pos. Masks live in position space; _at and _pos map
        # positions to elements and back.
        self._at = [self.elements[i] for i in order]
        self._pos = {e: pos for pos, e in enumerate(self._at)}
        self._up_t = up_t
        self._down_t = down_t
        # lower[pos] lists the positions that pos covers, in no fixed order
        self._lower = lower
        self._full = (1 << len(self.elements)) - 1
        self._certificate: LatticeCertificate | None = None
        # the passing certificate's context, which join and meet read on
        # every call; None until is_lattice() has passed
        self._context: StandardContext | None = None
        # the meet and join tables and down-set lists the valuation audits
        # read, each built on first use (valuation._table) and dropped with
        # the poset
        self._tables: dict[str, list[list[int]]] = {}
        # whether the lattice is distributive, decided on first use
        # (valuation._distributive) and kept like the tables
        self._distributive: bool | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: str) -> bool:
        return element in self._pos

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    def _position(self, element: str) -> int:
        try:
            return self._pos[element]
        except KeyError:
            raise _unknown(element) from None

    def _positions(self, x: str, y: str) -> tuple[int, int]:
        """The positions of x and y, the one id lookup of leq, join and meet."""
        pos = self._pos
        try:
            return pos[x], pos[y]
        except KeyError:
            raise _unknown(x if x not in pos else y) from None

    def leq(self, x: str, y: str) -> bool:
        """True iff x is included by y."""
        a, b = self._positions(x, y)
        return bool(self._up_t[a] >> b & 1)

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

    # A certified lattice answers from its standard context: the intent of
    # x v y is int(x) & int(y), and the extent of x ^ y is ext(x) & ext(y).

    def join(self, x: str, y: str) -> str:
        """Unique least upper bound; NoUniqueBound when absent or ambiguous."""
        a, b = self._positions(x, y)
        context = self._context
        if context is None:
            return self._join_rows(a, b)
        return self._at[context.by_intent[context.intent[a] & context.intent[b]]]

    def meet(self, x: str, y: str) -> str:
        a, b = self._positions(x, y)
        context = self._context
        if context is None:
            return self._meet_rows(a, b)
        return self._at[context.by_extent[context.extent[a] & context.extent[b]]]

    # On rows: an intersection of up-sets is up-closed, so it holds its
    # lowest position's whole up-set; that position is the least element
    # exactly when its up-set is the whole intersection. An empty
    # intersection never equals a row, since every row holds its own bit.
    # Dually for meets.

    def _join_rows(self, a: int, b: int) -> str:
        up = self._up_t
        mask = up[a] & up[b]
        low = (mask & -mask).bit_length() - 1
        if up[low] != mask:
            x, y = sorted((self._at[a], self._at[b]))
            raise NoUniqueBound(f"join of {x!r} and {y!r}: "
                                f"{len(self._minimal_positions(mask))} minimal upper bounds")
        return self._at[low]

    def _meet_rows(self, a: int, b: int) -> str:
        down = self._down_t
        mask = down[a] & down[b]
        high = mask.bit_length() - 1
        if down[high] != mask:
            x, y = sorted((self._at[a], self._at[b]))
            raise NoUniqueBound(f"meet of {x!r} and {y!r}: "
                                f"{len(self._maximal_positions(mask))} maximal lower bounds")
        return self._at[high]

    # A bottom sits below everything, so it must take the first topological
    # position, and a top the last.

    def bottom(self) -> str | None:
        return self._at[0] if self._full and self._up_t[0] == self._full else None

    def top(self) -> str | None:
        return self._at[-1] if self._full and self._down_t[-1] == self._full else None

    def is_lattice(self) -> LatticeCertificate:
        """Certify the poset as a lattice, or witness the first pair in
        lexicographic order without a unique join or meet."""
        if self._certificate is None:
            self._context = self._standard_context()
            self._certificate = (LatticeCertificate(True)
                                 if self._context is not None
                                 else LatticeCertificate(False, self._first_witness()))
        return self._certificate

    def _standard_context(self) -> StandardContext | None:
        """The standard context (J, M, <=), or None if this is not a lattice.

        J holds the elements with exactly one lower cover, M those with
        exactly one upper cover. A non-empty lattice has a bottom and a top,
        so a poset missing either is refused first, from two rows. A finite
        poset with both is a lattice iff
          (a) each x is the least upper bound of ext(x), the J below it;
          (b) ext(x) & ext(m) is some element's extent, for each x and m in M.
        A lattice has both: x is the join of ext(x), and ext(x) & ext(m) is
        the extent of x ^ m. Conversely, (a) makes x -> ext(x) an order
        embedding, and (c) ext(y) is the intersection of ext(m) over the m in
        M above y, by induction down from the top, whose extent is all of J:
        if y has upper covers d1..dk, k >= 2, each ext(di) is such an
        intersection, so by (b) their intersection is an extent, ext(w) with
        y <= w <= each di; w is no di, as the di are distinct covers of y,
        so w = y. So ext(x) & ext(y) is the running intersection of ext(x)
        with each ext(m) above y, each step an extent by (b): the extent of
        the meet. With a top and all meets, a finite poset is a lattice.
        Elements of J satisfy (a) by definition; by induction along the
        covers, any other x does iff its up-set is the intersection of its
        lower covers' up-sets (the whole poset for none). So (a) costs one
        pass up the lower-cover lists, the intents one pass down them, and
        (b) n * |M| lookups.
        """
        n, up, lower = len(self._at), self._up_t, self._lower
        if n and (self.bottom() is None or self.top() is None):
            return None
        uppers = Counter(chain.from_iterable(lower))  # upper covers per position
        order = [self._pos[x] for x in self.elements]
        jirr = tuple(p for p in order if len(lower[p]) == 1)
        mirr = tuple(p for p in order if uppers[p] == 1)
        ext, intent = [0] * n, [0] * n
        for k, j in enumerate(jirr):
            ext[j] = 1 << k
        for k, m in enumerate(mirr):
            intent[m] = 1 << k
        for p in range(n):  # bottoms first, so each lower cover is done
            ups = self._full
            for c in lower[p]:
                ext[p] |= ext[c]
                ups &= up[c]
            if len(lower[p]) != 1 and ups != up[p]:
                return None
        for p in range(n - 1, -1, -1):  # tops first, so p's intent is done
            for c in lower[p]:
                intent[c] |= intent[p]
        by_extent = dict(zip(ext, range(n)))
        m_exts = [ext[m] for m in mirr]
        if any(e & f not in by_extent for e in ext for f in m_exts):
            return None
        return StandardContext(jirr, mirr, ext, intent, by_extent,
                               dict(zip(intent, range(n))))

    def _consistency_holds(self) -> bool:
        """Prove x <= y  <=>  (join(x, y) == y and meet(x, y) == x) for every
        ordered pair from the tables the three methods read: _pos and _up_t
        for leq, extent and by_extent for meet, intent and by_intent for join.
        False when the tables do not show it; a False proves nothing.

        Once _pos inverts _at, positions stand for the elements. Write E(x),
        I(x) for x's extent and intent, J[k] and M[i] for the irreducibles
        behind bits k and i. The statement holds when every mask fits in |J|
        or |M| bits and
          (C1) E and I are injective, with by_extent, by_intent as inverses;
          (C2) the x with bit k in E(x) are exactly J[k]'s up row;
          (C3) x's up row is the AND of J[k]'s up rows over k in E(x);
          (C4) I(x) = {i : E(x) <= E(M[i])};
          (C6) E(x) & E(M[i]) is an extent for every x and i, and so is
               every J, the mask of all of J.
        leq: y is in x's up row iff, by C3, in J[k]'s for each k in E(x) iff,
        by C2, E(x) <= E(y). meet: by C1, meet(x, y) == x iff E(x) & E(y) ==
        E(x), the same test. join: if E(x) <= E(y), then I(y) <= I(x) by C4,
        so join(x, y) == y by C1; the converse is not needed, since the
        statement asks for both tests.
        No lookup fails. (C5) E(x) is the AND of E(M[i]) over i in I(x) when
        I(x) is not empty: that AND is an extent by C6, E(w) say, and holds
        E(x) by C4; each i outside I(x) has E(x), so E(w), not <= E(M[i]), so
        I(w) = I(x) by C4 and w = x by C1. By C1 at most one x has an empty
        intent, so when x != y one of them, say y, has a non-empty one, and
        E(x) & E(y) is E(x) cut by one E(M[i]) at a time, each step an extent
        by C6. And I(x) & I(y) is an intent. When it is not empty, the AND of
        E(M[i]) over its i is an extent by C6, E(z) say, and I(z) = I(x) &
        I(y) by C4: each such E(M[i]) holds E(z), and any E(M[i]) that holds
        E(z) holds E(x) and E(y), which E(z) holds. When it is empty, no
        E(M[i]) is every J, or i would be in both intents, so by C4 the
        element whose extent is every J has the empty intent.
        That costs n * (|J| + |M|) narrow mask operations, one row AND per
        extent bit and at most |J| row ORs per element of M.
        """
        context, up, n = self._context, self._up_t, len(self._at)
        positions = list(range(n))
        if (context is None or len(up) < n
                or [self._pos.get(x) for x in self._at] != positions):
            return False
        ext, ints = context.extent, context.intent
        by_extent, by_intent = context.by_extent, context.by_intent
        jpos, mpos = context.join_irreducibles, context.meet_irreducibles
        every_j, every_m = (1 << len(jpos)) - 1, (1 << len(mpos)) - 1
        if (len(by_extent) != n or len(by_intent) != n  # C1
                or [by_extent.get(e) for e in ext] != positions
                or [by_intent.get(i) for i in ints] != positions
                or not all(0 <= e <= every_j for e in ext)
                or not all(0 <= i <= every_m for i in ints)
                or not all(0 <= q < n for q in jpos + mpos)):
            return False
        ext_bits = [[*_bits(e)] for e in ext]
        j_columns = _columns(ext_bits, len(jpos))
        j_rows = [up[q] for q in jpos]
        if j_columns != j_rows:  # C2
            return False
        full = (1 << n) - 1
        for p, ks in enumerate(ext_bits):  # C3
            row = full
            for k in ks:
                row &= j_rows[k]
            if row != up[p]:
                return False
        # C4, a column at a time: the x with E(x) <= E(M[i]) are those in no
        # column k of the extents for a k outside E(M[i])
        m_exts = [ext[q] for q in mpos]
        m_columns = _columns([[*_bits(i)] for i in ints], len(mpos))
        for column, f in zip(m_columns, m_exts):
            outside = 0
            for k in _bits(every_j & ~f):
                outside |= j_columns[k]
            if column != full & ~outside:
                return False
        return (every_j in by_extent  # C6
                and all(by_extent.keys() >= {e & f for f in m_exts} for e in ext))

    def _first_witness(self) -> tuple[str, str] | None:
        """The first pair in lexicographic order without a unique join or
        meet. Every non-lattice has one, and LatticeCertificate refuses a
        failing verdict without it."""
        order = [self._pos[x] for x in self.elements]
        for i, a in enumerate(order):
            for b in order[i + 1:]:
                try:
                    self._join_rows(a, b)
                    self._meet_rows(a, b)
                except NoUniqueBound:
                    return self._at[a], self._at[b]
        return None

    def _require_lattice(self) -> StandardContext:
        cert = self.is_lattice()
        if not cert.is_lattice:
            raise NotALattice(f"poset is not a lattice, witness pair {cert.witness}")
        return self._context

    def join_irreducibles(self) -> list[str]:
        """Elements no pair of strictly smaller elements joins to; bottom excluded.

        In a finite lattice these are the elements with exactly one lower
        cover: two lower covers of x join to x, and below a single lower
        cover c every join of smaller elements stays at or under c.
        """
        return [self._at[j] for j in self._require_lattice().join_irreducibles]

    def meet_irreducibles(self) -> list[str]:
        """Elements with exactly one upper cover; the dual of join-irreducibles."""
        return [self._at[m] for m in self._require_lattice().meet_irreducibles]

    def to_dict(self) -> dict:
        return {"elements": list(self.elements),
                "covers": [list(c) for c in self.covers]}


def build_poset(elements: Iterable[str], covers: Iterable[tuple[str, str]]) -> Poset:
    """Validate cover input and compute reachability.

    Rejects cyclic input (CycleDetected) and covers that are transitively
    implied (RedundantCover). Cover endpoints must be declared elements.
    Ids are stringified, de-duplicated and sorted, and each distinct cover
    (a, b) becomes the key index[a] * n + index[b], so sorting the keys
    sorts the covers as string pairs; ``_assemble`` does the rest. On an
    unknown endpoint or a self-cover, whose key is i * (n + 1), the sorted
    string pairs are scanned for the first bad cover, which the error names.
    """
    ids = sorted({str(e) for e in elements})
    if any(not e for e in ids):
        raise ValueError("element ids must be non-empty strings")
    index = {e: i for i, e in enumerate(ids)}
    n = len(ids)
    if not isinstance(covers, (list, tuple)):
        covers = list(covers)  # read twice when a cover is bad
    try:
        keys = sorted({index[str(a)] * n + index[str(b)] for a, b in covers})
    except KeyError:
        keys = None
    if keys is None or any(k % (n + 1) == 0 for k in keys):
        for a, b in sorted({(str(a), str(b)) for a, b in covers}):
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise UnknownElement(f"cover endpoint {missing!r} is not an element")
            if a == b:
                raise CycleDetected(f"self-cover on {a!r}")
    del index  # not held while the rows are built
    return _assemble(ids, keys)


def _assemble(ids: list[str], keys: list[int]) -> Poset:
    """The poset on ids, which are sorted, distinct and non-empty, with the
    cover (ids[k // n], ids[k % n]) for each key k, sorted, distinct and
    free of self-covers.

    Positions are Kahn's (1962) stack order over the successor lists, each
    in id order. The up rows are folded tops first, which also lists each
    position's lower covers highest first, and the down rows bottoms first
    along those lists. A cover p < q is implied exactly when p lies below
    another lower cover r of q; r sits above p, so its row is folded in
    before p is reached, and p's bit is then already in q's row. The
    RedundantCover message names the first implied cover in key order.
    The poset keeps the lower-cover lists, which certification reads.
    """
    n = len(ids)
    succ: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for k in keys:  # succ[a] holds a's keys, not new ints; k % n is the upper end
        succ[k // n].append(k)
        indegree[k % n] += 1
    stack = [i for i in range(n) if indegree[i] == 0]
    order = []
    while stack:
        i = stack.pop()
        order.append(i)
        for k in succ[i]:
            j = k % n
            indegree[j] -= 1
            if indegree[j] == 0:
                stack.append(j)
    if len(order) != n:
        stuck = [ids[i] for i in range(n) if indegree[i] > 0]
        raise CycleDetected(f"cover relation has a cycle through {stuck[:4]}")
    tp = [0] * n
    for pos, i in enumerate(order):
        tp[i] = pos

    up_t = [0] * n
    lower: list[list[int]] = [[] for _ in range(n)]
    for pos in range(n - 1, -1, -1):  # tops first: successors accumulated
        mask = 1 << pos
        for k in succ[order[pos]]:
            q = tp[k % n]
            mask |= up_t[q]
            lower[q].append(pos)
        up_t[pos] = mask
    del succ  # not read again: freeing it lowers the peak
    down_t = [0] * n
    implied = []
    for q, below in enumerate(lower):  # bottoms first
        mask = 1 << q
        for p in below:
            if mask >> p & 1:
                implied.append(order[p] * n + order[q])
            mask |= down_t[p]
        down_t[q] = mask
    if implied:  # the first in key order, through the lowest element between
        a, b = divmod(min(implied), n)
        between = up_t[tp[a]] & down_t[tp[b]] & ~(1 << tp[a] | 1 << tp[b])
        middle = ids[order[(between & -between).bit_length() - 1]]
        raise RedundantCover(f"cover ({ids[a]!r}, {ids[b]!r}) is implied through {middle!r}")
    return Poset(ids, [(ids[k // n], ids[k % n]) for k in keys], order, up_t, down_t, lower)


def verify_consistency_relations(p: Poset):
    """Audit x <= y  <=>  (x v y = y and x ^ y = x) over all ordered pairs.

    A valid lattice always passes; the report exists as a self-audit oracle
    of the public ``leq``, ``join`` and ``meet``. When those are Poset's own
    methods, ``Poset._consistency_holds`` first tries to prove the statement
    for every pair from the tables they read, in about n * (|J| + |M|) mask
    operations; a passing proof gives the report the enumeration would. The n**2 public
    calls run when the proof fails, or when leq, join or meet is replaced on
    the instance or overridden in a subclass, so every violation is reported
    as the enumeration finds it.
    """
    p._require_lattice()
    if (all(getattr(type(p), name) is getattr(Poset, name) and name not in vars(p)
            for name in ("leq", "join", "meet"))
            and p._consistency_holds()):
        return build_report("consistency", len(p.elements) ** 2, 0, [])
    return _enumerate_consistency(p)


def _enumerate_consistency(p: Poset):
    """The consistency report from three public calls per ordered pair."""
    leq, join, meet = p.leq, p.join, p.meet
    violations = []
    for x in p.elements:
        for y in p.elements:
            # both lookups run on every pair, so a table that fails one of
            # them raises here instead of hiding behind the other's verdict
            structural, joined, met = leq(x, y), join(x, y), meet(x, y)
            operational = joined == y and met == x
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


def _joined(atoms: Sequence[str], sep: str) -> list[str]:
    """joined[m] is sep.join of the atoms whose bits are set in m, in atom
    order. Atoms must be non-empty, so only joined[0] is empty."""
    joined = [""]
    for a in atoms:
        joined += [s + sep + a if s else a for s in joined]
    return joined


def _ranked(names: list[str]) -> tuple[list[str], list[int]]:
    """names sorted, and rank[i], the place of names[i] among them."""
    by_name = sorted(range(len(names)), key=names.__getitem__)
    rank = [0] * len(names)
    for r, i in enumerate(by_name):
        rank[i] = r
    return [names[i] for i in by_name], rank


def boolean_lattice(atoms: Iterable[str]) -> Poset:
    """Powerset of the atoms ordered by inclusion; bottom is the empty set.

    Atoms must be non-empty and contain no ',', so every element id reads
    back through parse_subset_id. Subsets are bitmasks over the sorted
    atoms: mask m has the subset_id of rank[m] in sorted order, and each
    cover adds one bit.
    """
    atom_list = sorted(set(atoms))
    for a in atom_list:
        if not a or "," in a:
            raise ValueError(f"boolean atom {a!r} must be non-empty and contain no ','")
    if not atom_list:
        raise ValueError("boolean lattice needs at least one atom")
    if len(atom_list) > 16:
        raise TooManyAtoms(f"{len(atom_list)} atoms exceeds the bound of 16")
    ids, rank = _ranked(["{" + s + "}" for s in _joined(atom_list, ",")])
    n = len(ids)
    bits = [1 << k for k in range(len(atom_list))]
    return _assemble(ids, sorted([rank[m] * n + rank[m | b]
                                  for m in range(n) for b in bits if not m & b]))


def partition_lattice(atoms: Iterable[str]) -> Poset:
    """All partitions ordered by refinement, finest at the bottom.

    Element ids are canonical block strings, as ``Partition.literal`` writes
    them: ``a|bc`` when every atom is one character, ``[a1,b2]|[c3]``
    otherwise. Atoms must be non-empty, contain none of ``|,[]`` and have
    no surrounding whitespace, so every id reads back through
    ``Partition.parse``. Covers merge exactly two blocks.

    A partition is a tuple of block bitmasks over the sorted atoms, in order
    of each block's least atom, which is the literal's block order; merging
    two blocks keeps the first one's place, so each cover's upper end is
    again such a tuple, found in a dict of the partitions, and ids come
    from a table of block strings without building a Partition.
    """
    atom_list = sorted(set(atoms))
    for a in atom_list:
        if not a or a != a.strip() or any(c in a for c in "|,[]"):
            raise ValueError(f"partition atom {a!r} must be non-empty, contain none "
                             "of '|,[]' and have no surrounding whitespace")
    if not atom_list:
        raise ValueError("partition lattice needs at least one atom")
    if len(atom_list) > 8:
        raise TooManyAtoms(f"{len(atom_list)} atoms exceeds the enumeration bound of 8")
    if all(len(a) == 1 for a in atom_list):
        block = _joined(atom_list, "")
    else:
        block = ["[" + s + "]" for s in _joined(atom_list, ",")]
    parts: list[tuple[int, ...]] = [()]
    for k in range(len(atom_list)):  # add atom k to each block, or alone
        bit, grown = 1 << k, []
        for part in parts:
            grown += [part[:i] + (b | bit,) + part[i + 1:] for i, b in enumerate(part)]
            grown.append(part + (bit,))
        parts = grown
    index = {part: p for p, part in enumerate(parts)}
    ids, rank = _ranked(["|".join([block[b] for b in part]) for part in parts])
    n = len(ids)
    return _assemble(ids, sorted([
        rank[p] * n + rank[index[part[:i] + (part[i] | part[j],) + part[i + 1:j] + part[j + 1:]]]
        for p, part in enumerate(parts) for j in range(1, len(part)) for i in range(j)]))


def divisor_lattice(n: int) -> Poset:
    """Divisors of n under 'divides'; join is lcm and meet is gcd.

    n is factored by trial division, p ** e for each prime p, and the
    divisors are numbered in mixed radix over the exponents: with stride s
    for p, divisor i times p is divisor i + s. Each divisor d is covered by
    d * p for each prime p with d * p | n. n is at most 10**12, because
    factoring a prime n trial-divides up to sqrt(n). Under that bound the
    most divisors, 6,720, belong to 963761198400, whose lattice builds in
    0.05-0.08 s (CPython 3.11 on a shared 2-vCPU VM).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > 10**12:
        raise BoundExceeded(f"divisor lattice n = {n} exceeds 10**12")
    divisors, steps, rest, f = [1], [], n, 2
    while rest > 1:
        if f * f > rest:  # no factor up to its square root: rest is prime
            f = rest
        if rest % f == 0:
            steps.append((f, len(divisors)))
            layer = divisors
            while rest % f == 0:
                rest //= f
                layer = [d * f for d in layer]
                divisors += layer
        f += 1
    ids, rank = _ranked([str(d) for d in divisors])
    size = len(ids)
    return _assemble(ids, sorted([rank[i] * size + rank[i + s]
                                  for i, d in enumerate(divisors)
                                  for p, s in steps if n % (d * p) == 0]))


def pair_id(x: str, y: str) -> str:
    return f"({x},{y})"


def lattice_product(p: Poset, q: Poset) -> Poset:
    """Cartesian product with componentwise order; requires two lattices.

    Pairs are named by pair_id, so factor ids holding ',' can give two
    pairs one id; that raises ValueError instead of merging them.
    """
    p._require_lattice()
    q._require_lattice()
    elements = [pair_id(x, y) for x in p.elements for y in q.elements]
    seen: set[str] = set()
    for e in elements:
        if e in seen:
            raise ValueError(f"product id {e!r} names two distinct pairs")
        seen.add(e)
    covers = []
    for x in p.elements:
        for (a, b) in q.covers:
            covers.append((pair_id(x, a), pair_id(x, b)))
    for (a, b) in p.covers:
        for y in q.elements:
            covers.append((pair_id(a, y), pair_id(b, y)))
    return build_poset(elements, covers)
