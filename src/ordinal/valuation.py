"""Valuations and bi-valuations on lattices, plus their constraint audits.

The audits check the identities that any quantification compatible with the
lattice structure has to satisfy:

  sum rule            v(x v y) + v(x ^ y) = v(x) + v(y)
  product rule        v((x, y)) = v(x) * v(y)            (lattice products)
  chain rule          w(x|z) = w(x|y) * w(y|z)           (x <= y <= z)
  diamond lemma       w(y|x) = w(x ^ y | x)
  context product     w(y ^ z | x) = w(z | x ^ y) * w(y | x)
  per-context sum     w(x v y|t) + w(x ^ y|t) = w(x|t) + w(y|t)

All audits are pure and run in whatever arithmetic the values carry:
floats with an explicit tolerance, or Fractions with tolerance 0 for exact
fixtures. A tolerance must be finite and non-negative; a NaN or infinite one
would pass anything. Contexts with zero measure are skipped and counted.

All but the product rule run on one kernel, on rows indexed by the poset's
topological positions, one per context. The order comes from the poset's
down-set rows, and meets and joins from the certificate's extents and intents,
in n x n tables, one per lattice. A valuation is such a row, and a
bi-valuation is stored as its rows. Each rule tests its instances in blocks
that read one or two rows. ``_arithmetic`` classifies each row, and a block
whose rows are all exact (each value an int or a Fraction) tests integers,
each row scaled to the lcm of its denominators. The block's scale S is the
product of the scales of the rows it reads, and a difference d violates iff
|d| > floor(tol * S), which is exactly |lhs - rhs| > tol. Any other block
is tested on the values as they are, with the same operations as a plain
loop, so float residuals are bit-identical. A block labels each of its
differences with the instance it decides, and the labels of the failing
differences are picked in one pass; only those instances have their sides
computed, on the raw values, with the block's own operations.

A row's provenance decides whether its blocks are evaluated at all. Each row
of ``bivaluation_from_valuation`` is a ``_Derived``: it carries the values of
its source valuation v and holds w(x | t) = v(x ^ t) / v(t), one quotient
object per meet x ^ t, divided only when something first reads it
(``_row``) and kept in the row object, so the bi-valuations that share the
row share one division. ``with_value`` writes a list copy of the row it
changes and shares the others, and a bi-valuation built from a table has
no derived row. On derived rows the rules are identities: the chain and
context rules multiply v(a) / v(b) by v(b) / v(c), the diamond lemma reads
one quotient on both sides, and row t's sum rule is v's sum rule below t
over v(t). So ``_proved`` names the rows on which no instance can violate,
from v's values alone. The kernel walks only the blocks that read a row it
does not name; each rule counts its instances in closed form from the set
of empty rows, so a proved audit divides no row and builds no table. The
monotone audit of values that do not fall along any cover is proved the
same way, for its one row, in either arithmetic ``_arithmetic`` names, and
so is the sum rule of values that ``_modular`` passes on a distributive
lattice. ``_distributive`` decides that from the covers, each of which
then adds one join-irreducible, and ``_modular`` sums v one such step up
from one lower cover of each element.

On a distributive lattice an unproved derived row t still saves most of its
n**2 / 2 sum-rule instances: (x v y) ^ t is (x ^ t) v (y ^ t) and the row
holds at each x the object at x ^ t, so instance (t, x, y) reads the very
objects of the pair class (x ^ t, y ^ t) below t. The row's one block
tests those classes instead, in the row's arithmetic, so bit for bit: over
the 2**k rows of B_k, (5**k - 3**k) / 2 classes for 2**k C(2**k, 2)
instances. A failing class fails each instance in it, with its sides.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, compress, count, product, repeat
from operator import add, is_, lt, mul, not_, or_, sub
from typing import Union

from ._record import Record, set_field
from .errors import (LatticeMismatch, NegativeAtomValue, UnknownElement,
                     ZeroMeasureContext)
from .poset import Poset, _bits, _joined, pair_id, parse_subset_id
from .report import RuleReport, RuleViolation, build_report

Value = Union[int, float, Fraction]

DEFAULT_TOL = 1e-9


class Valuation(Record):
    """Total real-valued assignment on the elements of one poset."""

    __slots__ = ("poset", "values")

    def __init__(self, poset: Poset, values: Mapping[str, Value]):
        missing = [e for e in poset.elements if e not in values]
        extra = [e for e in values if e not in poset]
        if missing or extra:
            raise ValueError(f"valuation is not total: missing={missing[:3]} "
                             f"extra={extra[:3]}")
        for element, value in values.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"element {element!r} has non-finite value {value}")
        set_field(self, "poset", poset)
        set_field(self, "values", dict(values))

    def __call__(self, element: str) -> Value:
        if element not in self.poset:
            raise UnknownElement(f"element {element!r} is not in the poset")
        return self.values[element]

    def replace(self, element: str, value: Value) -> "Valuation":
        if element not in self.poset:
            raise UnknownElement(f"element {element!r} is not in the poset")
        return Valuation(self.poset, {**self.values, element: value})


def derive_valuation_from_atoms(lat: Poset, atom_values: Mapping[str, Value]) -> Valuation:
    """v(S) = sum of atom weights in S, on a boolean lattice.

    Each v(S) is the left fold of S's weights in atom order from the int 0,
    as a plain loop adds them, so v(bottom) = 0 and the sum rule holds
    exactly for ints and Fractions. A float v(S) is rounded at each
    addition, so float sums that round can miss it: weights 0.1, 0.2 and
    0.7 on B3 leave residuals of 2.2e-16 and 1.1e-16.

    One prefix fold gives every subset's sum, one addition each, read at
    the canonical ids that boolean_lattice builds from the same atoms; any
    other id is parsed, for its sum or its error. With a weight key that is
    not a non-empty str without ',', no id is canonical.
    """
    for atom, weight in atom_values.items():
        if weight < 0:
            raise NegativeAtomValue(f"atom {atom!r} has negative weight {weight}")
    atoms = frozenset(atom_values)
    if len(lat) != 2 ** len(atoms):
        raise ValueError("element count does not match a boolean lattice "
                         "over the given atoms")
    canonical = {}
    if all(type(a) is str and a and "," not in a for a in atoms):
        order, sums = sorted(atoms), [0]
        for a in order:  # sums[m] folds the weights of mask m's atoms, lowest bit first
            weight = atom_values[a]
            sums += [s + weight for s in sums]
        canonical = dict(zip(["{" + s + "}" for s in _joined(order, ",")], sums))
    values = {}
    for element in lat.elements:
        if element in canonical:
            values[element] = canonical[element]
            continue
        members = parse_subset_id(element)
        if not members <= atoms:
            raise ValueError(f"element {element!r} uses atoms outside the weight map")
        # the same left fold; sum() compensates float rounding from Python 3.12 on
        values[element] = reduce(add, map(atom_values.__getitem__, sorted(members)), 0)
    return Valuation(lat, values)


# --- the audit kernel ---

# An undefined entry: arithmetic with it stays undefined, so an instance is
# skipped exactly when one of its terms is. It compares above every number,
# so it is the maximum of any block holding it and fails the block test.
_UNDEFINED = type("Undefined", (), {
    **dict.fromkeys(("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"),
                    lambda self, other: self),
    "__abs__": lambda self: self,
    **dict.fromkeys(("__gt__", "__ge__"), lambda self, other: True),
    **dict.fromkeys(("__lt__", "__le__"), lambda self, other: False)})()


def _arithmetic(row) -> str | None:
    """The arithmetic that a row's sums and differences compute in: "exact"
    when each value is an int or a Fraction, so they are exact and the
    kernel tests them in integers; "float" when each is a float or an int
    of size at most 2**53, which converts to a float exactly, so each is
    the correctly rounded float of the exact result (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 2); None for anything else:
    holes, bools, subclasses of int or Fraction, and a Fraction beside a
    float."""
    types = set(map(type, row))
    if types <= {int, Fraction}:
        return "exact"
    ints_convert = int not in types or all(abs(e) <= 2 ** 53 for e in row if type(e) is int)
    return "float" if types <= {int, float} and ints_convert else None


def require_tolerance(tol) -> None:
    """Raise ValueError for a NaN, infinite or negative tolerance."""
    if isinstance(tol, float) and not math.isfinite(tol) or not tol >= 0:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")


class _Derived:
    """A row of bivaluation_from_valuation: w(x | t) = v(x ^ t) / v(t) of
    v's ``values`` by position, v(t) > 0. Its ``entries`` are divided on
    their first read (``_row``) and kept here, so every bi-valuation that
    shares the row shares one division. It refers to no bi-valuation, so a
    shared row makes no reference cycle."""

    __slots__ = ("poset", "values", "t", "entries")

    def __init__(self, poset: Poset, values: list, t: int):
        self.poset, self.values, self.t, self.entries = poset, values, t, None


def _build_row(derived: _Derived) -> list:
    """The entries of a derived row. It divides each value below t once and
    holds that quotient wherever the meet x ^ t lands, so it keeps one
    quotient object per meet; every meet with t is below t."""
    p, values, t = derived.poset, derived.values, derived.t
    vt = values[t]
    quotient = {m: values[m] / vt for m in _table(p, "down")[t]}
    return list(map(quotient.__getitem__, _table(p, "meet")[t]))


def _row(rows: list, t: int):
    """The entries of rows[t]; a derived row divides them on its first read."""
    row = rows[t]
    if type(row) is not _Derived:
        return row
    if row.entries is None:
        row.entries = _build_row(row)
    return row.entries


def _empty(raw) -> set[int]:
    """The context rows with no defined value, None rows included. A
    derived row is not read: v(t) > 0 defines each of its entries."""
    return {t for t, row in enumerate(raw)
            if type(row) is not _Derived and all(map(is_, row or (), repeat(_UNDEFINED)))}


def _kernel(rule, tol, p, raw, counts, blocks, block, found, signed=False, *,
            proved) -> RuleReport:
    """Test one rule's instances, block by block, and report its violations.

    ``raw[t][x]`` is the value at the element in position x in the context
    in position t, or _UNDEFINED, and a row of None is empty. The kernel
    takes a row's entries (``_row``) on a block's first read of it, so a
    _Derived row that no evaluated block reads is never divided.
    ``counts(empty)`` gives the rule's number of instances and the number
    in blocks that read no row of ``empty``, the set of empty rows.
    ``proved`` has a bool per row: the caller vouches that a proved row
    holds no hole and that no instance of a block reading only proved rows
    violates, so such a block counts as checked and is not evaluated.
    ``blocks(unproved)`` yields, once each and in key order, the key, the
    rows it reads and the labels of each block that reads a row of
    ``unproved``, the non-empty rows that are not proved. Every instance of
    a block reads each of its rows, so a block that reads an empty row is
    skipped whole; only the others are evaluated, which with no row proved
    is every block that reads a non-empty row.
    ``block(rows, scale, key)`` gives a block's lhs and rhs streams, one
    difference per label and in the labels' order, either on the rows that
    _arithmetic names exact, in integers (row t times scale[t], the lcm of
    its denominators, scaled when a block first reads it), or on raw with
    every scale 1. Scaling each read row t by s_t scales each side by the
    product of the s_t over ``reads``, counting a repeated read each time
    it appears, so the kernel takes that product of the scales as the
    block's and a difference d at scale S violates iff |d| > floor(tol * S).
    A label names the instance that its difference decides, or a class of
    instances that read the very same objects; the caller vouches that
    such a class holds no hole and that the differences it leaves out,
    none where every difference is an instance, cannot violate.
    ``found(rows, key, failing)`` yields the positions and raw sides, with
    the block's operands in the block's order, of each instance that the
    failing labels decide, reading the entries ``rows[t]`` of the rows the
    block read; it runs only for a block that fails, so no block is
    evaluated a second time. An undefined difference fails, and an
    instance with an undefined side is skipped, not reported. So checked is
    the number of instances in blocks that read no empty row less the
    undefined instances of the evaluated blocks, and skipped is the rest of
    the total.
    """
    require_tolerance(tol)
    num, den = Fraction(tol).as_integer_ratio()
    empty = _empty(raw)
    total, checked = counts(empty)
    unproved = set(compress(count(), map(not_, proved))).difference(empty)
    n = len(raw)
    built, rows, scale, ones, inexact = [None] * n, [None] * n, [1] * n, [1] * n, set()
    violations = []
    for key, reads, labels in blocks(unproved):
        if not empty.isdisjoint(reads):
            continue  # skipped whole, as counts says
        for t in reads:  # each row is read, and scaled if exact, on its first read
            if built[t] is None:
                row = built[t] = _row(raw, t)
                if _arithmetic(row) == "exact":
                    s = scale[t] = math.lcm(*(e.denominator for e in row))
                    rows[t] = [e.numerator * (s // e.denominator) for e in row]
                else:
                    inexact.add(t)
        if inexact.isdisjoint(reads):
            diffs = list(map(sub, *block(rows, scale, key)))
            above = num * math.prod(map(scale.__getitem__, reads)) // den
        else:
            diffs, above = list(map(sub, *block(built, ones, key))), tol
        # a NaN never violates: max and min skip it, unless it comes
        # first, and then the test fails and the pick below decides
        if not diffs or max(diffs) <= above and (signed or -above <= min(diffs)):
            continue
        failing = compress(labels, map(lt, repeat(above), diffs if signed else map(abs, diffs)))
        for positions, a, b in found(built, key, failing):
            if a is _UNDEFINED or b is _UNDEFINED:
                checked -= 1
                continue
            ids = tuple(map(p._at.__getitem__, positions))
            violations.append(RuleViolation(ids, a, b, a - b if signed else abs(a - b)))
    return build_report(rule, checked, tol, violations, total - checked)


def _above(p: Poset, rows) -> Iterable[int]:
    """The positions at or above any of rows, in increasing order."""
    return _bits(reduce(or_, map(p._up_t.__getitem__, rows), 0))


def _table(p: Poset, kind: str) -> list[list[int]]:
    """p's "meet" or "join" table, n x n positions of x ^ y or x v y, or its
    "down" sets, each in increasing order; built on first use, kept on p."""
    if kind not in p._tables:
        p._tables[kind] = _build_table(p, kind)
    return p._tables[kind]


def _build_table(p: Poset, kind: str) -> list[list[int]]:
    if kind == "down":
        return [list(_bits(mask)) for mask in p._down_t]
    c = p._require_lattice()  # meets intersect extents, joins intents
    masks, owner = (c.intent, c.by_intent) if kind == "join" else (c.extent, c.by_extent)
    return [[owner[a & b] for b in masks] for a in masks]


def _times(stream, s):
    """The stream times s; at scale 1 the values pass through untouched."""
    return stream if s == 1 else map(mul, stream, repeat(s))


def _distributive(p: Poset) -> bool:
    """Whether the lattice is distributive: each cover y < x adds exactly one
    join-irreducible to the extent and drops exactly one meet-irreducible
    from the intent (Davey & Priestley, Introduction to Lattices and Order,
    ch. 5). A distributive lattice has the property, as its extents are the
    down-sets of J (Birkhoff), and a cover between two down-sets adds one
    element; so, dually, for its intents and M. Conversely, a maximal chain
    from the bottom to x then has |J(x)| steps and one from x to the top
    |M(x)|; joined, they make a maximal chain from the bottom to the top,
    which has |J| steps, so |J(x)| + |M(x)| = |J| for every x. As
    ext(x ^ y) is ext(x) & ext(y) and ext(x v y) contains ext(x) | ext(y),
    |J(x v y)| + |J(x ^ y)| >= |J(x)| + |J(y)|, and the same argument on
    intents gives <=; so equality holds, ext(x v y) = ext(x) | ext(y), and
    the lattice is a ring of sets. The extent half alone is not enough: the
    convex subsets of three points on a line pass it. Decided on first use
    and kept on p, like its tables; certification does not decide it."""
    if p._distributive is None:
        c = p._require_lattice()
        ext, intent = c.extent, c.intent
        p._distributive = all((ext[x] ^ ext[y]).bit_count() == 1
                              and (intent[x] ^ intent[y]).bit_count() == 1
                              for x, below in enumerate(p._lower) for y in below)
    return p._distributive


def _modular(p: Poset, values) -> int:
    """The mask of the positions x where v(x) is not v(bottom) + the sum of
    v(j) - v(j-) over the join-irreducibles j <= x, exactly; j- is j's one
    lower cover. p must be a distributive lattice, which _distributive
    decides. ``values`` has an int, a Fraction or a float at each position,
    and a float counts as the rational it is. On a distributive lattice,
    J(x v y) = J(x) | J(y) and J(x ^ y) = J(x) & J(y), so where no x <= t is
    in the mask, v(x v y) + v(x ^ y) = v(x) + v(y) for every pair below t,
    with no residual, and conversely (Rota 1971; Geissinger 1973). Each
    cover adds one join-irreducible, so x's sum is that of any one lower
    cover y plus the step of the j in ext(x) ^ ext(y), positions bottoms
    first."""
    c = p._require_lattice()
    ratios = [e.as_integer_ratio() for e in values]
    s = math.lcm(*(d for _, d in ratios))
    ints = [a * (s // d) for a, d in ratios]
    ext, lower = c.extent, p._lower
    steps = {1 << k: ints[j] - ints[lower[j][0]] for k, j in enumerate(c.join_irreducibles)}
    sums = ints[:1]  # the bottom, position 0; every other position has a lower cover
    for x in range(1, len(ints)):
        y = lower[x][0]
        sums.append(sums[y] + steps[ext[x] ^ ext[y]])
    return sum(1 << x for x, e, total in zip(count(), ints, sums) if e != total)


def _sum_rule(rule: str, p: Poset, raw, tol, proved) -> RuleReport:
    """The sum rule in each context, each row of raw that is not None;
    instances (x, y) or (t, x, y), ids x < y.

    Row t's block (t, d) tests the pairs (a, b) of d, a before b, which
    label its differences in the order combinations(d, 2) lists them. d lists
    every id, so that each pair is an instance, unless row t is a _Derived
    on a distributive lattice, and so diamond-exact. Then d is t's
    down-set and each pair is a class: the instance (t, x, y) reads the
    very objects of class (x ^ t, y ^ t), because row t holds at x v y what
    it holds at (x v y) ^ t = (x ^ t) v (y ^ t), and at x ^ y what it holds
    at (x ^ t) ^ (y ^ t). The right side adds the pair in either order, and
    addition is commutative, in IEEE floats too. A class (a, a) compares a
    sum with itself and never fails, so it is not listed, and a failing
    class (a, b) fails each instance with x ^ t = a and y ^ t = b, with the
    class's sides.
    """
    n, ids = len(p), [p._pos[e] for e in p.elements]
    size = n * (n - 1) // 2
    contexts = [t for t, row in enumerate(raw) if row is not None]

    def counts(empty):
        return len(contexts) * size, sum(t not in empty for t in contexts) * size

    def blocks(unproved):
        for t in contexts:
            if t in unproved:
                classes = type(raw[t]) is _Derived and _distributive(p)
                d = _table(p, "down")[t] if classes else ids
                yield (t, d), (t,), combinations(d, 2)

    def sides(row, d):
        """row[a v b] + row[a ^ b] and row[a] + row[b] over the pairs (a, b) of
        d, a before b, made one list per a."""
        join, meet = _table(p, "join"), _table(p, "meet")
        firsts = zip(count(1), map(join.__getitem__, d), map(meet.__getitem__, d))
        return (chain.from_iterable([row[join_a[b]] + row[meet_a[b]] for b in d[i:]]
                                    for i, join_a, meet_a in firsts),
                chain.from_iterable([at_a + row[b] for b in d[i:]]
                                    for i, at_a in enumerate(map(row.__getitem__, d), 1)))

    def block(rows, scale, key):
        t, d = key
        return sides(rows[t], d)

    def found(rows, key, pairs):
        t, d = key
        row, fiber = rows[t], {}
        # fiber[m] holds the x with x ^ t = m, or m alone when d is every id
        for x, m in enumerate(range(n) if d is ids else _table(p, "meet")[t]):
            fiber.setdefault(m, []).append(x)
        for a, b in pairs:
            lhs, rhs = map(next, sides(row, (a, b)))
            for x, y in product(fiber[a], fiber[b]):
                x, y = (x, y) if p._at[x] < p._at[y] else (y, x)
                yield (x, y) if rule == "sum" else (t, x, y), lhs, rhs
    return _kernel(rule, tol, p, raw, counts, blocks, block, found, proved=proved)


def _valuation_row(v: Valuation) -> list:
    """v's values indexed by position, the one context row of its audits."""
    return [_UNDEFINED if e is None else e for e in map(v.values.__getitem__, v.poset._at)]


# --- valuations ---

def check_sum_rule(v: Valuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit v(x v y) + v(x ^ y) = v(x) + v(y) over all unordered pairs.

    Values that _modular passes on a distributive lattice keep the rule
    with no residual: both sides of each pair are the same rational. In any
    row _arithmetic names, the kernel then adds each side exactly, or
    rounds both to the same float or overflows both to the same infinity,
    so each difference is 0 or NaN, which no tolerance fails. So the pairs
    are counted, not evaluated. The lattice is certified first, so a poset
    that is not one is refused whatever values are defined."""
    p, row = v.poset, _valuation_row(v)
    p._require_lattice()
    proved = _arithmetic(row) and _distributive(p) and not _modular(p, row)
    return _sum_rule("sum", p, [row], tol, [proved])


def check_monotone(v: Valuation, tol: Value = 0) -> RuleReport:
    """Audit x <= y  =>  v(x) <= v(y): one block per y, over the elements of
    y's shared down-set but y, its last entry.

    If v(a) <= v(b) holds exactly for every cover a -> b, read from the
    position row and the poset's lower-cover lists, it holds for every
    comparable pair by transitivity, and the kernel's difference v(x) - v(y)
    is then at most 0 for any row _arithmetic names: in integers, or in
    floats, where rounding is monotone and 0 is representable. So every
    pair passes at any tolerance, and the audit is counted from the
    down-set sizes."""
    p, row = v.poset, _valuation_row(v)
    total = sum(mask.bit_count() - 1 for mask in p._down_t)
    proved = bool(_arithmetic(row)) and all(
        row[c] <= row[q] for q, below in enumerate(p._lower) for c in below)

    def counts(empty):
        return total, 0 if empty else total

    def blocks(unproved):
        for y, down_y in enumerate(_table(p, "down") if unproved else ()):
            yield y, (0,), down_y[:-1]

    def block(rows, scale, y):
        return map(rows[0].__getitem__, _table(p, "down")[y][:-1]), repeat(rows[0][y])

    def found(rows, y, xs):
        for x in xs:
            yield (x, y), rows[0][x], rows[0][y]
    return _kernel("monotone", tol, p, [row], counts, blocks, block, found, signed=True,
                   proved=[proved])


def check_product_rule_for_lattice_product(vP: Valuation, vQ: Valuation,
                                           vPQ: Valuation,
                                           tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit v((x, y)) = v(x) * v(y) on the product of vP's and vQ's
    lattices; an instance that reads a hole (None) is skipped and counted."""
    require_tolerance(tol)
    if len(vPQ.poset) != len(vP.poset) * len(vQ.poset):
        raise LatticeMismatch("product valuation size does not match |P| * |Q|")
    violations, checked = [], 0
    for x in vP.poset.elements:
        for y in vQ.poset.elements:
            element = pair_id(x, y)
            if element not in vPQ.poset:
                raise LatticeMismatch(f"product lattice lacks element {element!r}")
            lhs, vx, vy = vPQ(element), vP(x), vQ(y)
            if lhs is None or vx is None or vy is None:
                continue
            checked += 1
            rhs = vx * vy
            residual = abs(lhs - rhs)
            if residual > tol:
                violations.append(RuleViolation((x, y), lhs, rhs, residual))
    return build_report("product", checked, tol, violations, len(vPQ.poset) - checked)


# --- bi-valuations ---

class BiValuation:
    """w(x | y): the degree to which context y includes x.

    Stored as one row per context, both indexed by position, which is the
    audit kernel's layout: ``_rows[t][x]`` is w(x | t) or _UNDEFINED, and a
    context with no entry has no row (None). ``table`` is a read-only
    (x, context)-keyed view of the rows, the mapping the constructor takes;
    ``dict(w.table)`` is a mutable copy.
    A row that bivaluation_from_valuation derived from a valuation v, one
    quotient object per meet x ^ t, is a _Derived: it carries v's values
    and its entries, which ``_row`` divides on their first read. Any other
    row is a list of its entries: a bi-valuation built from a table has no
    derived row, and ``with_value`` writes a list copy of the row it
    changes.
    """

    def __init__(self, poset: Poset, table: Mapping[tuple[str, str], Value]):
        self.poset, self._rows = poset, [None] * len(poset)
        for (x, context), value in table.items():
            self._put(x, context, value)

    def _put(self, x: str, y: str, value: Value) -> None:
        """Set w(x | y) in place, giving context y a row if it has none; a
        row it writes is a list, never a _Derived. A NaN is refused, as no
        audit could fail it; an infinity is kept, as a derived quotient can
        overflow to one."""
        if x not in self.poset or y not in self.poset:
            raise UnknownElement(f"bi-valuation key ({x!r}, {y!r}) is not in the poset")
        if isinstance(value, float) and math.isnan(value):
            raise ValueError(f"bi-valuation key ({x!r}, {y!r}) has value NaN")
        t = self.poset._pos[y]
        row = self._rows[t] = self._rows[t] or [_UNDEFINED] * len(self.poset)
        row[self.poset._pos[x]] = _UNDEFINED if value is None else value

    @property
    def table(self) -> Mapping[tuple[str, str], Value]:
        """Each (x, context) of the contexts with a row, contexts in id
        order and x in id order within each; None where undefined."""
        return _Table(self)

    def get(self, x: str, context: str):
        """Value of w(x | context), or None where undefined."""
        i, t = self.poset._pos.get(x), self.poset._pos.get(context)
        row = None if i is None or t is None else _row(self._rows, t)
        return None if row is None or row[i] is _UNDEFINED else row[i]

    def value(self, x: str, context: str) -> Value:
        if x not in self.poset or context not in self.poset:
            raise UnknownElement(f"bi-valuation key ({x!r}, {context!r}) is not in the poset")
        found = self.get(x, context)
        if found is None:
            raise ZeroMeasureContext(f"w({x!r} | {context!r}) is undefined")
        return found

    def contexts(self) -> list[str]:
        return [t for t in self.poset.elements if self._rows[self.poset._pos[t]] is not None]

    def with_value(self, x: str, context: str, value: Value) -> "BiValuation":
        w = BiValuation(self.poset, {})  # shares every row but the one it changes
        w._rows[:] = self._rows
        t = self.poset._pos.get(context)
        if t is not None and w._rows[t] is not None:
            w._rows[t] = list(_row(self._rows, t))
        w._put(x, context, value)
        return w


class _Table(Mapping):
    """A bi-valuation's ``table``: its rows as a read-only mapping from
    (x, context) to w(x | context), or None where undefined. Its length
    divides no row; reading an entry divides that entry's row."""

    __slots__ = ("_w",)

    def __init__(self, w: BiValuation):
        self._w = w

    def __len__(self) -> int:
        return len(self._w.contexts()) * len(self._w.poset)

    def __iter__(self):
        ids = self._w.poset.elements
        return ((x, t) for t in self._w.contexts() for x in ids)

    def __getitem__(self, key):
        pos = self._w.poset._pos
        x, t = key if type(key) is tuple and len(key) == 2 else (None, None)
        if x not in pos or t not in pos or self._w._rows[pos[t]] is None:
            raise KeyError(key)
        return self._w.get(x, t)


def bivaluation_from_valuation(v: Valuation, tol: Value = DEFAULT_TOL,
                               validate: bool = True) -> BiValuation:
    """w(x | y) = v(x ^ y) / v(y), defined wherever v(y) > 0; each row is
    divided on its first read. The rows are read through meets, so v's
    poset is certified as a lattice here: a proved audit counts a derived
    row without reading it. A hole in v is refused, as it would lie inside
    the derived rows above it, where _sum_rule's pair classes hold none."""
    p = v.poset
    values = [v.values[x] for x in p._at]
    if any(map(is_, values, repeat(None))):
        raise ValueError(f"element {p._at[values.index(None)]!r} has no value to condition on")
    if validate:
        audit = check_sum_rule(v, tol)
        if not audit.passed:
            raise ValueError(f"valuation fails the sum rule on "
                             f"{len(audit.violations)} pairs; cannot condition on it")
    w = BiValuation(p, {})
    p._require_lattice()
    w._rows = [_Derived(p, values, t) if vt > 0 else None for t, vt in enumerate(values)]
    return w


def _proved(w: BiValuation, tol, modular=False) -> list[bool]:
    """Whether each row of w is derived and no instance of w's chain,
    diamond and context rules, and with ``modular`` of its per-context sum
    rule on a distributive lattice, that reads only such rows can violate
    at tol (module docstring). The sum rule holds below row t when no
    position x <= t is in _modular's mask. With ``modular`` it decides
    distributivity first, so a poset that is not a lattice raises
    NotALattice; without, it reads no meet or join. The values are those
    of any derived row: bivaluation_from_valuation gives each row the same
    list, and with_value shares the rows it does not change.

    The quotients of values that _arithmetic names "exact" are Fractions
    when no v(t) > 0 is an int. Over an int they are correctly rounded
    floats if every value is an int, and beside a Fraction they would mix
    the two, so then no row is proved. Those of "float" values are
    correctly rounded floats, as a float division of operands that convert
    exactly is. With u = 2**-53 and M = max |v| / min {v(t) > 0} >= 1
    bounding every quotient, the kernel's operations leave a residual below
    (1 + u)(4u + O(u**2)) M in fl(q1) - fl(fl(q2) * fl(q3)) where
    q2 q3 = q1, and below (1 + u)(8u + O(u**2)) M in
    fl(fl(q1) + fl(q2)) - fl(fl(q3) + fl(q4)) where q1 + q2 = q3 + q4
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 2-3;
    gradual underflow adds at most 2**-1075 to a rounding). So any
    tolerance of at least 2**-49 M passes them; M stays at most 2**1000, so
    no quotient or product overflows."""
    none = [False] * len(w._rows)
    if modular and not _distributive(w.poset):
        return none
    derived = [type(row) is _Derived for row in w._rows]
    values = next((row.values for row in w._rows if type(row) is _Derived), None)
    kind = values is not None and _arithmetic(values)
    if kind == "exact" and any(type(e) is int and e > 0 for e in values):
        kind = "float" if set(map(type, values)) == {int} else None
    if not kind:
        return none
    positive = kind == "float" and [e for e in values if e > 0]
    if positive:
        m = Fraction(max(map(abs, values))) / Fraction(min(positive))
        if not (m <= 2 ** 1000 and tol >= m / 2 ** 49):
            return none
    if not modular:
        return derived
    bad = _modular(w.poset, values)
    return [d and not down & bad for d, down in zip(derived, w.poset._down_t)]


def check_chain_rule(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit w(x|z) = w(x|y) * w(y|z) over all chains x <= y <= z; block
    (z, y) reads rows z and y, and x runs over the elements below y."""
    p, raw = w.poset, w._rows

    def counts(empty):
        gone = sum(1 << t for t in empty)
        return (sum(d.bit_count() * u.bit_count() for d, u in zip(p._down_t, p._up_t)),
                sum(d.bit_count() * (u & ~gone).bit_count()
                    for y, (d, u) in enumerate(zip(p._down_t, p._up_t)) if y not in empty))

    def blocks(unproved):
        # (u, y) for each y <= u, and (z, u) for each z >= u, for each u in unproved
        for z in _above(p, unproved):
            down = _table(p, "down")
            for y in down[z] if z in unproved else [y for y in down[z] if y in unproved]:
                yield (z, y), (z, y), down[y]

    def block(rows, scale, key):
        z, y = key
        down_y = _table(p, "down")[y]
        return (_times(map(rows[z].__getitem__, down_y), scale[y]),
                map(mul, map(rows[y].__getitem__, down_y), repeat(rows[z][y])))

    def found(rows, key, xs):
        z, y = key
        for x in xs:
            yield (x, y, z), rows[z][x], rows[y][x] * rows[z][y]
    return _kernel("chain", tol, p, raw, counts, blocks, block, found, proved=_proved(w, tol))


def check_diamond_lemma(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit w(y|x) = w(x ^ y | x) over all pairs; instances are (x, y), and
    block x reads row x."""
    p, raw, n = w.poset, w._rows, len(w.poset)
    p._require_lattice()

    def block(rows, scale, x):
        return rows[x], map(rows[x].__getitem__, _table(p, "meet")[x])

    def found(rows, x, ys):
        meet_x = _table(p, "meet")[x]
        return (((x, y), rows[x][y], rows[x][meet_x[y]]) for y in ys)
    return _kernel("diamond", tol, p, raw, lambda empty: (n * n, n * (n - len(empty))),
                   lambda unproved: ((x, (x,), range(n)) for x in sorted(unproved)),
                   block, found, proved=_proved(w, tol))


def check_context_product_rule(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit w(y ^ z | x) = w(z | x ^ y) * w(y | x) over all ordered
    triples; block (x, y) reads rows x and x ^ y, and z runs over all
    elements."""
    p, raw, n = w.poset, w._rows, len(w.poset)
    c = p._require_lattice()

    def counts(empty):
        """n**3 instances, and n in each block (x, y) with neither x nor
        x ^ y in empty. When empty is a down-set, the union of the
        down-sets of its maximal elements e, x ^ y is in it iff
        x ^ y <= e for one of them, and x ^ y <= e iff
        ext(x) & ext(y) <= ext(e), as the extent of a meet is the
        intersection of the extents. So the y with x ^ y not below e are
        those whose extent meets ext(x) - ext(e): the union of the up-sets
        of those join-irreducibles, on any lattice; the y with x ^ y not in
        empty are in that union for every e. On a distributive lattice the
        other y are the down-set of x -> e, the relative pseudocomplement
        (Davey & Priestley, Introduction to Lattices and Order). Any other
        empty set is counted on the meet rows."""
        if not empty:
            return n ** 3, n ** 3
        gone = sum(1 << t for t in empty)
        tops = [t for t in empty if p._up_t[t] & gone == 1 << t]
        if reduce(or_, map(p._down_t.__getitem__, tops)) == gone:
            # the join-irreducibles not below e, for each maximal e
            first, *rest = [~c.extent[t] for t in tops]
            up = [p._up_t[j] for j in c.join_irreducibles].__getitem__
            kept = 0
            for x, ext in enumerate(c.extent):
                if x not in empty:
                    reach = reduce(or_, map(up, _bits(ext & first)), 0)
                    for outside in rest:
                        reach &= reduce(or_, map(up, _bits(ext & outside)), 0)
                    kept += reach.bit_count()
        else:
            flags = bytes(t in empty for t in range(n))
            kept = sum(n - sum(map(flags.__getitem__, meet_x))
                       for x, meet_x in enumerate(_table(p, "meet")) if x not in empty)
        return n ** 3, n * kept

    def blocks(unproved):
        # (u, y) for each y, and (x, y) for each x >= u with x ^ y = u, for each
        # u in unproved
        for x in _above(p, unproved):
            meet_x = _table(p, "meet")[x]
            for y in range(n) if x in unproved else [y for y, m in enumerate(meet_x)
                                                     if m in unproved]:
                yield (x, y), (x, meet_x[y]), range(n)

    def block(rows, scale, key):
        x, y = key
        meet = _table(p, "meet")
        xy = meet[x][y]
        return (_times(map(rows[x].__getitem__, meet[y]), scale[xy]),
                map(mul, rows[xy], repeat(rows[x][y])))

    def found(rows, key, zs):
        x, y = key
        meet = _table(p, "meet")
        for z in zs:
            yield (x, y, z), rows[x][meet[y][z]], rows[meet[x][y]][z] * rows[x][y]
    return _kernel("context", tol, p, raw, counts, blocks, block, found,
                   proved=_proved(w, tol))


def check_bivaluation_sum_rule(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit the sum rule inside every available context t; instances (t, x, y).

    Only a distributive lattice proves a row or tests it on its pair
    classes, and there every derived row is diamond-exact. _proved decides
    distributivity first, so a poset that is not a lattice is refused
    before any row is read."""
    return _sum_rule("bisum", w.poset, w._rows, tol, _proved(w, tol, modular=True))
