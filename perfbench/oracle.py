"""Expected outcomes computed from first principles, without the library.

Nothing here imports ``ordinal``. Boolean lattices are bitmasks over atoms,
partitions are tuples of frozensets, divisor lattices are integers, causal
events are integer (t, x) pairs, and valuations are exact integers. The
benchmark compares the library's answers against these.
"""
from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import combinations


def canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- element counts ---

def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)) // math.factorial(k)


def factorize(n: int) -> dict[int, int]:
    out, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Every divisor of n, from its factorisation."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def divisor_count(n: int) -> int:
    return math.prod(e + 1 for e in factorize(n).values())


def prime_power_count(n: int) -> int:
    """Join-irreducibles of the divisor lattice: prime powers dividing n."""
    return sum(factorize(n).values())


def divisor_cover_count(n: int) -> int:
    """Covers d -> d*p: for each prime p, divisors with exponent of p below max."""
    exps = factorize(n)
    total = divisor_count(n)
    return sum(total * e // (e + 1) for e in exps.values())


# --- boolean lattices as bitmasks ---

class Boolean:
    """Powerset of ``atoms``; element ids as the library formats subsets."""

    def __init__(self, atoms):
        self.atoms = sorted(atoms)
        self.n = len(self.atoms)
        self.full = (1 << self.n) - 1

    def ident(self, mask: int) -> str:
        return "{" + ",".join(a for i, a in enumerate(self.atoms) if mask >> i & 1) + "}"

    def masks(self):
        return range(self.full + 1)

    def masks_of_size(self, k):
        return [m for m in self.masks() if bin(m).count("1") == k]

    def ids(self):
        return sorted(self.ident(m) for m in self.masks())

    def cover_pairs(self):
        return sorted((self.ident(m), self.ident(m | 1 << i))
                      for m in self.masks() for i in range(self.n) if not m >> i & 1)

    def poset_doc(self):
        return {"elements": self.ids(), "covers": [list(c) for c in self.cover_pairs()]}


def lex_first_pair(ids_masks, fails):
    """First pair (i < j) in sorted-id order for which ``fails(a, b)``."""
    order = sorted(ids_masks)
    for i, (x, a) in enumerate(order):
        for y, b in order[i + 1:]:
            if fails(a, b):
                return (x, y)
    return None


def deleted_boolean_witness(b: Boolean, drop_top: bool):
    """Boolean lattice minus its top (joins covering everything vanish) or
    minus its bottom (meets of disjoint sets vanish)."""
    if drop_top:
        pairs = [(b.ident(m), m) for m in b.masks() if m != b.full]
        return lex_first_pair(pairs, lambda a, c: a | c == b.full)
    pairs = [(b.ident(m), m) for m in b.masks() if m != 0]
    return lex_first_pair(pairs, lambda a, c: a & c == 0)


def scan_position(ids, witness):
    """Pairs a row-major i < j scan visits up to and including the witness."""
    n = len(ids)
    if witness is None:
        return n * (n - 1) // 2
    i, j = ids.index(witness[0]), ids.index(witness[1])
    return sum(n - 1 - r for r in range(i)) + (j - i)


# --- partitions ---

def set_partitions(atoms):
    """Every partition of ``atoms`` as a frozenset of frozensets."""
    atoms = list(atoms)
    if len(atoms) == 1:
        yield frozenset([frozenset(atoms)])
        return
    head, rest = atoms[0], atoms[1:]
    for part in set_partitions(rest):
        blocks = list(part)
        for i, block in enumerate(blocks):
            yield frozenset(blocks[:i] + [block | {head}] + blocks[i + 1:])
        yield frozenset(blocks + [frozenset([head])])


def literal(part) -> str:
    blocks = sorted(tuple(sorted(b)) for b in part)
    if all(len(a) == 1 for b in blocks for a in b):
        return "|".join("".join(b) for b in blocks)
    return "|".join("[" + ",".join(b) + "]" for b in blocks)


def refine_meet(a, b):
    return frozenset(x & y for x in a for y in b if x & y)


def coarsen_join(a, b):
    blocks = [set(x) for x in a]
    for y in b:
        touching = [x for x in blocks if x & y]
        merged = set(y).union(*touching)
        blocks = [x for x in blocks if not x & y] + [merged]
    return frozenset(frozenset(x) for x in blocks)


def refines(a, b) -> bool:
    return all(any(x <= y for y in b) for x in a)


def entropy_bits(part, probs) -> float:
    h = 0.0
    for block in part:
        p = math.fsum(probs[a] for a in block)
        if p > 0:
            h -= p * math.log2(p)
    return h


# --- causal order on an integer grid ---

def grid_ids(n):
    return sorted(f"({t},{x})" for t in range(n) for x in range(n))


def grid_covers(n):
    return sum(3 if 0 < x < n - 1 else (2 if n > 1 else 1)
               for t in range(n - 1) for x in range(n))


def _grid_leq(a, b):
    return b[0] - a[0] >= abs(b[1] - a[1])


def grid_bound(n, a, b, up):
    """Unique least upper (``up``) or greatest lower bound of two (t, x)
    points of the n-by-n grid, or None.

    A strict comparison changes t, so the bounds with the extreme t are
    extremal; two of them rule out a unique bound, and a single one is the
    bound only if it compares with every other bound.
    """
    pts = [(t, x) for t in range(n) for x in range(n)]
    if up:
        bounds = [c for c in pts if _grid_leq(a, c) and _grid_leq(b, c)]
    else:
        bounds = [c for c in pts if _grid_leq(c, a) and _grid_leq(c, b)]
    if not bounds:
        return None
    edge = (min if up else max)(c[0] for c in bounds)
    extreme = [c for c in bounds if c[0] == edge]
    c = extreme[0]
    if len(extreme) > 1 or not all(
            _grid_leq(c, d) if up else _grid_leq(d, c) for d in bounds):
        return None
    return f"({c[0]},{c[1]})"


def grid_point(ident):
    t, x = ident[1:-1].split(",")
    return int(t), int(x)


def grid_first_witness(n):
    """First lexicographic pair without a unique join or meet."""
    ids = grid_ids(n)
    for i, x in enumerate(ids):
        for y in ids[i + 1:]:
            a, b = grid_point(x), grid_point(y)
            if grid_bound(n, a, b, True) is None or grid_bound(n, a, b, False) is None:
                return (x, y)
    return None


# --- valuations on boolean lattices, in exact integers ---

def popmask_sum(weights, mask):
    return sum(w for i, w in enumerate(weights) if mask >> i & 1)


def audit_counts(n: int) -> dict[str, tuple[int, int]]:
    """(checked, skipped) per rule for positive atom weights on B_n."""
    size = 2 ** n
    pairs = size * (size - 1) // 2
    return {
        "sum": (pairs, 0),
        "monotone": (3 ** n - 2 ** n, 0),
        "bisum": ((size - 1) * pairs, 0),
        "chain": (4 ** n - 2 ** n, 2 ** n),
        "diamond": (4 ** n - 2 ** n, 2 ** n),
        "context": (8 ** n - 6 ** n, 6 ** n),
    }


@functools.cache
def perturbed_sum_violations(n: int, e: int) -> int:
    """Pairs whose sum-rule residual picks up a shift of v at element e."""
    size = 2 ** n
    count = 0
    for x, y in combinations(range(size), 2):
        c = (x | y == e) + (x & y == e) - (x == e) - (y == e)
        count += c != 0
    return count


@functools.cache
def perturbed_bisum_violations(n: int, e: int) -> int:
    """(context, pair) instances broken by a positive shift of v at e != 0.

    In context t the identity is v((x|y)&t) + v(x&y&t) = v(x&t) + v(y&t)
    after multiplying out v(t) > 0; only terms equal to e move.
    """
    size = 2 ** n
    count = 0
    for t in range(1, size):
        for x, y in combinations(range(size), 2):
            xt, yt = x & t, y & t
            c = (xt | yt == e) + (xt & yt == e) - (xt == e) - (yt == e)
            count += c != 0
    return count


def with_value_violations(n, weights, key, new) -> dict[str, int]:
    """Chain, diamond and context violations after w(key) := new, exact.

    w(x|t) = v(x & t) / v(t) for t != 0. Instances not touching the key
    hold exactly, so only those that read it are evaluated.
    """
    size = 2 ** n
    v = [popmask_sum(weights, m) for m in range(size)]
    kx, kc = key

    def w(x, t):
        if t == 0:
            return None
        if (x, t) == key:
            return new
        return Fraction(v[x & t], v[t])

    def sub(a, b):
        return a & b == a

    chain = ({(kx, y, kc) for y in range(size)} | {(kx, kc, z) for z in range(size)}
             | {(x, kx, kc) for x in range(size)})
    chain = [(x, y, z) for x, y, z in chain if sub(x, y) and sub(y, z)]
    diamond = {(kc, kx)} | {(kc, y) for y in range(size) if kc & y == kx}
    context = set()
    for a in range(size):
        for b in range(size):
            if a & b == kx:
                context.add((kc, a, b))      # w(y ^ z | x) reads the key
            if a & b == kc:
                context.add((a, b, kx))      # w(z | x ^ y) reads it
        context.add((kc, kx, a))             # w(y | x) reads it

    def broken_chain(x, y, z):
        parts = (w(x, z), w(x, y), w(y, z))
        return None not in parts and parts[0] != parts[1] * parts[2]

    def broken_diamond(x, y):
        lhs, rhs = w(y, x), w(x & y, x)
        return lhs is not None and rhs is not None and lhs != rhs

    def broken_context(x, y, z):
        lhs, wz, wyx = w(y & z, x), w(z, x & y), w(y, x)
        return None not in (lhs, wz, wyx) and lhs != wz * wyx

    return {"chain": sum(broken_chain(*i) for i in chain),
            "diamond": sum(broken_diamond(*i) for i in diamond),
            "context": sum(broken_context(*i) for i in context)}


# --- causal chains ---

def rest_index(t, x, x0):
    """Index on a k=1, tick=1 chain through (0, x0): first element with
    t' - t >= |x' - x|."""
    return t + abs(x - x0)
