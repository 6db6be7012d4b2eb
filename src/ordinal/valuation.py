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
in n x n tables, one per lattice. A valuation is such a row. A bi-valuation is
stored as its rows, one per context with an entry, and the audits read them as
they are: ``BiValuation.table`` builds an (x, t)-keyed dict on each access,
and no audit calls it. A row is exact when each of its defined values is an
int or a Fraction; it is then scaled to the lcm of its denominators. Each rule
tests its instances in blocks that read one or two rows, and the choice is
made per block: a block whose rows are all exact tests integers, where a
difference d at scale S violates iff |d| > floor(tol * S), which is exactly
|lhs - rhs| > tol. Any other block is tested on the values as they are, with
the same operations as a plain loop, so float residuals are bit-identical. So
an int bottom or one float entry changes the arithmetic of the blocks that
read its row and no others.

The context and per-context sum rules have n**3 instances, but most of them
repeat others. Call row t diamond-exact when it is not empty, has no hole,
and holds at each x the very object it holds at x ^ t. Every row that
``bivaluation_from_valuation`` builds is: it divides each value below t by
v(t) once and shares that quotient wherever the meet lands, which also
keeps a row at one pointer per entry (10 MB at B10, not 33 MB). On such
rows an instance can read the same objects, through the same operations,
as a smaller one, which then stands in for it:
  - a context block (x, y) whose rows x and x ^ y are diamond-exact stands
    on the chain-rule block (x, x ^ y), which both rules build with one
    function; at B_n the 4**n blocks of n instances fall to 3**n chain
    blocks, whose verdicts are memoised;
  - on a distributive lattice, the sum rule in a diamond-exact row t stands
    on the unordered pairs (a, b) below t, a == b included: (x v y) ^ t is
    (x ^ t) v (y ^ t), and addition is commutative, in IEEE floats too. At
    B_n about 5**n / 2 pair classes replace n**2 (n - 1) / 2 instances, on
    the block's own function over the down-set of t, not all elements.
    Distributivity comes from the certificate: ext(x) | ext(j) must be an
    extent for every x and each join-irreducible j.
A stand-in runs in the same arithmetic as the block, since it reads the
same rows, so its differences are the block's, bit for bit. So the stand-in
decides the block: a passing one passes it with the same count, and each
violating instance of a failing one violates in every instance of the
block that reads its objects (in row t, the pairs x != y with x ^ t = a
and y ^ t = b for class (a, b); in block (x, y), the z with z ^ y' = z'
for chain instance z' <= y' <= x), with its sides. Those sides are
computed on the raw values for each violating stand-in instance, not for
each instance it stands for. A block that has no stand-in (rows that are
copied, changed, holed or empty, and bisum on a lattice that is not
distributive) runs on the kernel, and only the instances that violate
have their sides computed, on the raw values, with the block's own
operations.

Most audits need not run at all. A bi-valuation that
``bivaluation_from_valuation`` builds keeps its source's values, and its
rules are identities of w(x | t) = v(x ^ t) / v(t): the chain and context
rules multiply v(a) / v(b) by v(b) / v(c), the diamond lemma reads one
quotient on both sides, and the per-context sum rule is v's sum rule over
v(t). v keeps its sum rule on a distributive lattice when v(x) is v(bottom)
plus v(j) - v(j-) for each join-irreducible j <= x, which ``_modular``
checks exactly in O(n |J|). So no instance can violate when every quotient
is exact, or when they are floats and the tolerance is at least an a-priori
bound on their rounding, 2**-49 max |v| / min {v(t) > 0} (``_proved``); a
float row at tolerance 0 always runs on the kernel. The sum rule of exact
values that ``_modular`` proves, and the monotone audit of values that
do not fall along any cover, are proved the same way. A proved audit
evaluates no instance: it walks the kernel's blocks and counts each as
checked or skipped by the kernel's empty-row rule, so its report is the
kernel's, with no violation. ``_put`` and ``with_value`` drop the source,
and a bi-valuation built from a table has none, so a changed row always
runs on the kernel, and every violation comes from the kernel.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, count, product, repeat
from operator import countOf, is_, itemgetter, mul, sub
from typing import Mapping, Union

from ._record import Record, set_field
from .errors import (LatticeMismatch, NegativeAtomValue, UnknownElement,
                     ZeroMeasureContext)
from .poset import Poset, _bits, pair_id, parse_subset_id
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

    Disjoint joins are exactly additive by construction, so the sum rule
    holds with zero residual and v(bottom) = 0.
    """
    for atom, weight in atom_values.items():
        if weight < 0:
            raise NegativeAtomValue(f"atom {atom!r} has negative weight {weight}")
    atoms = frozenset(atom_values)
    if len(lat) != 2 ** len(atoms):
        raise ValueError("element count does not match a boolean lattice "
                         "over the given atoms")
    values = {}
    for element in lat.elements:
        members = parse_subset_id(element)
        if not members <= atoms:
            raise ValueError(f"element {element!r} uses atoms outside the weight map")
        values[element] = sum(atom_values[a] for a in sorted(members))
    return Valuation(lat, values)


# --- the audit kernel ---

# An undefined entry: arithmetic with it stays undefined, so an instance is
# skipped exactly when one of its terms is. It compares above every number,
# so it is the maximum of any block holding it and fails the block test.
_UNDEFINED = type("Undefined", (), {
    **dict.fromkeys(("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"),
                    lambda self, other: self),
    **dict.fromkeys(("__gt__", "__ge__"), lambda self, other: True),
    **dict.fromkeys(("__lt__", "__le__"), lambda self, other: False)})()

# The types an exact row holds, holes included; bool and subclasses of
# Fraction are not among them, so rows holding them stay raw.
_EXACT = {int, Fraction, type(_UNDEFINED)}


def require_tolerance(tol) -> None:
    """Raise ValueError for a NaN, infinite or negative tolerance."""
    if isinstance(tol, float) and not math.isfinite(tol) or not tol >= 0:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")


def _empty(raw) -> set[int]:
    """The context rows with no defined value, None rows included."""
    return {t for t, row in enumerate(raw) if all(map(is_, row or (), repeat(_UNDEFINED)))}


def _counted(rule, tol, raw, blocks) -> RuleReport:
    """The report _kernel gives when no instance violates, with no instance
    evaluated: the caller has proved that none does and that no row holds
    a hole. It walks the kernel's ``blocks`` and, by the kernel's rule,
    skips each block that is empty or reads an empty row, and counts every
    other block's instances as checked."""
    require_tolerance(tol)
    empty, checked, skipped = _empty(raw), 0, 0
    for _, reads, size in blocks:
        if size and empty.isdisjoint(reads):
            checked += size
        else:
            skipped += size
    return build_report(rule, checked, tol, [], skipped)


def _kernel(rule, tol, p, raw, blocks, block, instance, signed=False,
            proof=None) -> RuleReport:
    """Test one rule's instances, block by block, and report its violations.

    ``raw[t][x]`` is the value at the element in position x in the context
    in position t, or _UNDEFINED, and a row of None is empty.
    ``blocks`` yields each block's key, the context rows it reads and its
    number of instances; every instance reads each of those rows, so a
    block reading a row with no defined value is skipped whole.
    ``block(rows, scale, key)`` gives a block's lhs and rhs streams and
    their scale, on the exact rows in integers (row t times scale[t], the
    lcm of its denominators) or on raw at scale 1. The module docstring
    says which blocks get which arithmetic. ``instance(key, k)`` gives the
    positions of the block's k-th instance and its two sides on raw, with
    the block's operands in the block's order; it runs only for the
    instances that violate, so no block is evaluated a second time.
    ``proof``, if given, is a stand-in block function, the rows it may
    stand on (a bool per row) and an ``expand`` function. A block that
    reads only such rows has a stand-in: the stand-in's block whose key is
    the tuple of those rows. The caller vouches that each instance of the
    block has the operands and operations of an instance of its stand-in.
    Each stand-in is tested once, in the arithmetic its rows choose, and
    decides every block that stands on it: the block has no hole, so all
    of its instances count as checked, and ``expand(key, reads, failing)``
    yields the positions and raw sides of each instance of the block
    that stands on one of the stand-in's violating instances ``failing``.
    A block without a stand-in is tested itself.
    """
    require_tolerance(tol)
    num, den = Fraction(tol).as_integer_ratio()
    rows, scale, empty, inexact = [], [], _empty(raw), set()
    for t, row in enumerate(raw):
        row = row or ()
        types = set(map(type, row))
        if types <= _EXACT:
            s = math.lcm(*(e.denominator for e in row if e is not _UNDEFINED))
            rows.append([e if e is _UNDEFINED else e.numerator * (s // e.denominator)
                         for e in row])
        else:
            s = 1
            rows.append(None)
            inexact.add(t)
        scale.append(s)
    ones = [1] * len(raw)

    def differences(sides, key, reads):
        """lhs - rhs of the block that sides(rows, scale, key) gives, and
        the bound their sizes must keep."""
        if inexact.isdisjoint(reads):
            lhs, rhs, s = sides(rows, scale, key)
            return list(map(sub, lhs, rhs)), num * s // den
        lhs, rhs, _ = sides(raw, ones, key)
        return list(map(sub, lhs, rhs)), tol

    def fits(diffs, above):
        # a NaN never violates: max and min skip it, unless it comes first,
        # and then the test fails and violating() decides
        return max(diffs) <= above and (signed or -above <= min(diffs))

    def violating(diffs, above):
        return [k for k, d in enumerate(diffs)
                if d is not _UNDEFINED and (d if signed else abs(d)) > above]

    stand_in, sound, expand = proof or (None, (), None)
    unproved = {t for t, ok in enumerate(sound) if not ok}
    failing = {}  # the rows a stand-in reads -> its violating instances
    checked = skipped = 0
    violations = []

    def report(found):
        for positions, a, b in found:
            ids = tuple(map(p._at.__getitem__, positions))
            violations.append(RuleViolation(ids, a, b, a - b if signed else abs(a - b)))

    for key, reads, size in blocks:
        if not size or not empty.isdisjoint(reads):
            skipped += size
            continue
        if stand_in and unproved.isdisjoint(reads):
            if reads not in failing:
                diffs, above = differences(stand_in, reads, reads)
                failing[reads] = [] if fits(diffs, above) else violating(diffs, above)
            checked += size
            if failing[reads]:
                report(expand(key, reads, failing[reads]))
            continue
        diffs, above = differences(block, key, reads)
        if fits(diffs, above):
            checked += len(diffs)
            continue
        undefined = countOf(diffs, _UNDEFINED)
        skipped += undefined
        checked += len(diffs) - undefined
        report(instance(key, k) for k in violating(diffs, above))
    return build_report(rule, checked, tol, violations, skipped)


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


def _gather(indices):
    """A function from a row to its values at indices, in order."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: [row[i] for i in indices]


def _times(stream, s):
    """The stream times s; at scale 1 the values pass through untouched."""
    return stream if s == 1 else map(mul, stream, repeat(s))


def _diamond_exact(raw, meet) -> list[bool]:
    """Whether each row t is diamond-exact: it is not empty, has no hole,
    and holds at each x the very object it holds at x ^ t."""
    return [row is not None and not any(map(is_, row, repeat(_UNDEFINED)))
            and all(map(is_, row, map(row.__getitem__, meets)))
            for row, meets in zip(raw, meet)]


def _distributive(p: Poset) -> bool:
    """Whether the lattice is distributive: ext(x) | ext(j) is an extent for
    every x and every j in J. An extent is the union of the extents of the
    J in it, so then the extents are closed under union as well as
    intersection, join is union and meet intersection, and the lattice is
    a ring of sets (Davey & Priestley, Introduction to Lattices and Order,
    ch. 4-5). A distributive lattice has the property, as its extents are
    the down-sets of J (Birkhoff)."""
    c = p._require_lattice()
    j_exts = [c.extent[j] for j in c.join_irreducibles]
    return all(c.by_extent.keys() >= {e | f for f in j_exts} for e in c.extent)


def _quotient_kind(values) -> str | None:
    """How the quotients v(m) / v(t), v(t) > 0, that
    bivaluation_from_valuation divides v's values into compute: "exact"
    when each is a Fraction, so the kernel tests them in integers; "float"
    when each is a correctly rounded float, as int / int is, and so is a
    float division of operands that convert exactly; None for anything
    else, holes and bools included, and Fractions beside an int v(t) > 0,
    which would mix the two."""
    types = set(map(type, values))
    if types <= _EXACT and type(_UNDEFINED) not in types:
        if not any(type(e) is int and e > 0 for e in values):
            return "exact"  # each v(t) > 0 is a Fraction, and so is anything over it
        return "float" if types == {int} else None
    if types <= {int, float} and all(abs(e) <= 2 ** 53 for e in values if type(e) is int):
        return "float"
    return None


def _modular(p: Poset, values) -> bool:
    """Whether v(x) = v(bottom) + the sum of v(j) - v(j-) over the
    join-irreducibles j <= x, exactly, at every position x; j- is j's one
    lower cover, whose extent is j's without j. ``values`` has an int, a
    Fraction or a float at each position, and a float counts as the
    rational it is. On a distributive lattice, J(x v y) = J(x) | J(y) and
    J(x ^ y) = J(x) & J(y), so then v(x v y) + v(x ^ y) = v(x) + v(y) for
    every pair, with no residual (Rota 1971; Geissinger 1973)."""
    c = p._require_lattice()
    ratios = [e.as_integer_ratio() for e in values]
    s = math.lcm(*(d for _, d in ratios))
    ints = [a * (s // d) for a, d in ratios]
    steps = [ints[j] - ints[c.by_extent[c.extent[j] ^ 1 << k]]
             for k, j in enumerate(c.join_irreducibles)]
    base = ints[c.by_extent[0]] if ints else 0
    return all(e == base + sum(map(steps.__getitem__, _bits(mask)))
               for e, mask in zip(ints, c.extent))


def _fibers(meets) -> dict[int, list[int]]:
    """The positions x grouped by meets[x], each group in increasing order."""
    fibers = {}
    for x, m in enumerate(meets):
        fibers.setdefault(m, []).append(x)
    return fibers


def _chain_rule(down, raw):
    """The chain rule's block (z, y) for z's row and y's row: w(x|z) against
    w(x|y) * w(y|z), as x runs over the elements below y; and its k-th
    instance, x = down[y][k], with its sides on raw."""
    below = [_gather(d) for d in down]

    def block(rows, scale, key):
        z, y = key
        return (_times(below[y](rows[z]), scale[y]),
                map(mul, below[y](rows[y]), repeat(rows[z][y])), scale[z] * scale[y])

    def instance(key, k):
        z, y = key
        x = down[y][k]
        return (x, y, z), raw[z][x], raw[y][x] * raw[z][y]
    return block, instance


def _pairs(d, skip):
    """The function from k to the k-th pair (a, b) of d, b at least skip
    places after a, as the sum rule lists them; and the number of pairs."""
    starts = list(accumulate(range(len(d) - skip, 0, -1), initial=0))  # pairs before a = d[i]

    def pair(k):
        i = bisect_right(starts, k) - 1
        return d[i], d[i + skip + k - starts[i]]
    return pair, starts[-1]


def _sum_rule(rule: str, p: Poset, raw, contexts, tol, sound=None,
              proved=False) -> RuleReport:
    """The sum rule in each context row; instances (x, y) or (t, x, y), ids x < y.

    A ``proved`` audit is counted, not evaluated. Given ``sound``, the
    diamond-exact rows of a distributive lattice, a diamond-exact row t stands
    on its pair classes: the instance (t, x, y) reads the very objects of
    class (x ^ t, y ^ t), because row t holds at x v y what it holds at
    (x v y) ^ t = (x ^ t) v (y ^ t), and at x ^ y what it holds at
    (x ^ t) ^ (y ^ t). The right side adds the pair in either order, and
    addition is commutative, in IEEE floats too. So a failing class (a, b)
    fails each instance with x in the fiber of a (the x with x ^ t = a),
    y in the fiber of b and x != y, with the class's sides.
    """
    n = len(p)
    blocks = (((t,), (t,), n * (n - 1) // 2) for t in contexts)
    if proved:
        return _counted(rule, tol, raw, blocks)
    join, meet = _table(p, "join"), _table(p, "meet")

    def sides(row, d, skip):
        """row[a v b] + row[a ^ b] and row[a] + row[b] over the pairs (a, b) of
        d, b at least skip places after a, made one list per a: d is every id
        for block (t,), the down-set of t for its stand-in, or one pair."""
        firsts = zip(count(), map(join.__getitem__, d), map(meet.__getitem__, d))
        return (chain.from_iterable([row[join_a[b]] + row[meet_a[b]] for b in d[i + skip:]]
                                    for i, join_a, meet_a in firsts),
                chain.from_iterable([at_a + row[b] for b in d[i + skip:]]
                                    for i, at_a in enumerate(map(row.__getitem__, d))))

    def block(over, skip):  # block (t,) over the pairs of over(t)
        return lambda rows, scale, key: (*sides(rows[key[0]], over(key[0]), skip), scale[key[0]])
    ids = [p._pos[e] for e in p.elements]
    pair, _ = _pairs(ids, 1)

    def instance(key, k):
        (t,), (x, y) = key, pair(k)
        return ((x, y) if rule == "sum" else (t, x, y), *map(next, sides(raw[t], (x, y), 1)))
    proof = None
    if sound is not None:
        down = _table(p, "down")

        def expand(key, reads, failing):
            (t,) = key
            row, fiber, (pair_class, _) = raw[t], _fibers(meet[t]), _pairs(down[t], 0)
            # a class (a, a) compares a sum with itself and never fails, so
            # a != b, and each pair from the two fibers is one instance
            for a, b in map(pair_class, failing):
                lhs, rhs = map(next, sides(row, (a, b), 1))
                for x, y in product(fiber[a], fiber[b]):
                    yield (t, x, y) if p._at[x] < p._at[y] else (t, y, x), lhs, rhs
        proof = block(down.__getitem__, 0), sound, expand
    return _kernel(rule, tol, p, raw, blocks, block(lambda t: ids, 1), instance, proof=proof)


def _valuation_row(v: Valuation) -> list:
    """v's values indexed by position, the one context row of its audits."""
    return [_UNDEFINED if e is None else e for e in map(v.values.__getitem__, v.poset._at)]


# --- valuations ---

def check_sum_rule(v: Valuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit v(x v y) + v(x ^ y) = v(x) + v(y) over all unordered pairs.

    Exact values that _modular proves on a distributive lattice keep the
    rule with no residual, so they are counted, not evaluated."""
    p, row = v.poset, _valuation_row(v)
    types = set(map(type, row))
    proved = (types <= _EXACT and type(_UNDEFINED) not in types
              and _distributive(p) and _modular(p, row))
    return _sum_rule("sum", p, [row], [0], tol, proved=proved)


def check_monotone(v: Valuation, tol: Value = 0) -> RuleReport:
    """Audit x <= y  =>  v(x) <= v(y): one block per y, over the elements of
    y's shared down-set but y, its last entry.

    If v(a) <= v(b) holds exactly for every cover a -> b, it holds for every
    comparable pair by transitivity, and the kernel's difference v(x) - v(y)
    is then at most 0 for any row _quotient_kind names: in integers, or in
    floats, where rounding is monotone and 0 is representable. So every
    pair passes at any tolerance, and the audit is counted from the
    down-set sizes."""
    p, row = v.poset, _valuation_row(v)
    blocks = ((y, (0,), mask.bit_count() - 1) for y, mask in enumerate(p._down_t))
    if _quotient_kind(row) and all(v.values[a] <= v.values[b] for a, b in p.covers):
        return _counted("monotone", tol, [row], blocks)
    down = _table(p, "down")
    return _kernel("monotone", tol, p, [row], blocks,
                   lambda rows, scale, y: (map(rows[0].__getitem__, down[y][:-1]),
                                           repeat(rows[0][y]), scale[0]),
                   lambda y, k: ((down[y][k], y), row[down[y][k]], row[y]), signed=True)


def check_product_rule_for_lattice_product(vP: Valuation, vQ: Valuation,
                                           vPQ: Valuation,
                                           tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit v((x, y)) = v(x) * v(y) on the product of vP's and vQ's lattices."""
    require_tolerance(tol)
    if len(vPQ.poset) != len(vP.poset) * len(vQ.poset):
        raise LatticeMismatch("product valuation size does not match |P| * |Q|")
    violations = []
    checked = 0
    for x in vP.poset.elements:
        for y in vQ.poset.elements:
            element = pair_id(x, y)
            if element not in vPQ.poset:
                raise LatticeMismatch(f"product lattice lacks element {element!r}")
            checked += 1
            lhs = vPQ(element)
            rhs = vP(x) * vQ(y)
            residual = abs(lhs - rhs)
            if residual > tol:
                violations.append(RuleViolation((x, y), lhs, rhs, residual))
    return build_report("product", checked, tol, violations)


# --- bi-valuations ---

class BiValuation:
    """w(x | y): the degree to which context y includes x.

    Stored as one row per context, both indexed by position, which is the
    audit kernel's layout: ``_rows[t][x]`` is w(x | t) or _UNDEFINED, and a
    context with no entry has no row (None). ``table`` builds the (x,
    context)-keyed dict the constructor takes on each access; no audit calls it.
    ``_source`` holds, by position, the values of the valuation that
    bivaluation_from_valuation divided into the rows; a bi-valuation built
    from a table has none, and ``_put`` drops it.
    """

    def __init__(self, poset: Poset, table: Mapping[tuple[str, str], Value]):
        self.poset, self._rows = poset, [None] * len(poset)
        self._source = None
        for (x, context), value in table.items():
            self._put(x, context, value)

    def _put(self, x: str, y: str, value: Value) -> None:
        """Set w(x | y) in place, giving context y a row if it has none."""
        self._source = None
        if x not in self.poset or y not in self.poset:
            raise UnknownElement(f"bi-valuation key ({x!r}, {y!r}) is not in the poset")
        t = self.poset._pos[y]
        row = self._rows[t] = self._rows[t] or [_UNDEFINED] * len(self.poset)
        row[self.poset._pos[x]] = _UNDEFINED if value is None else value

    @property
    def table(self) -> dict[tuple[str, str], Value]:
        """Each (x, context) of the contexts with a row; None where undefined."""
        ids, pos = self.poset.elements, self.poset._pos
        in_id_order = _gather([pos[e] for e in ids])
        return {(x, t): None if e is _UNDEFINED else e for t in self.contexts()
                for x, e in zip(ids, in_id_order(self._rows[pos[t]]))}

    def get(self, x: str, context: str):
        """Value of w(x | context), or None where undefined."""
        i, t = self.poset._pos.get(x), self.poset._pos.get(context)
        row = None if i is None or t is None else self._rows[t]
        return None if row is None or row[i] is _UNDEFINED else row[i]

    def value(self, x: str, context: str) -> Value:
        found = self.get(x, context)
        if found is None:
            raise ZeroMeasureContext(f"w({x!r} | {context!r}) is undefined")
        return found

    def contexts(self) -> list[str]:
        return [t for t in self.poset.elements if self._rows[self.poset._pos[t]]]

    def with_value(self, x: str, context: str, value: Value) -> "BiValuation":
        w = BiValuation(self.poset, {})  # shares every row but the one it changes
        w._rows[:] = (row and list(row) if t == context else row
                      for t, row in zip(self.poset._at, self._rows))
        w._put(x, context, value)
        return w


def bivaluation_from_valuation(v: Valuation, tol: Value = DEFAULT_TOL,
                               validate: bool = True) -> BiValuation:
    """w(x | y) = v(x ^ y) / v(y), defined wherever v(y) > 0."""
    if validate:
        audit = check_sum_rule(v, tol)
        if not audit.passed:
            raise ValueError(f"valuation fails the sum rule on "
                             f"{len(audit.violations)} pairs; cannot condition on it")
    p, w = v.poset, BiValuation(v.poset, {})
    values = [v.values[x] for x in p._at]
    # the meet table is symmetric, so its row y is its column y. Row y
    # divides each value below y once and holds that quotient wherever the
    # meet lands, which makes it diamond-exact; every meet with y is below
    # y, so no entry comes from an earlier row's quotients
    quotient = [None] * len(p)
    for t, (vy, meets, below) in enumerate(zip(values, _table(p, "meet"), _table(p, "down"))):
        if vy > 0:
            for m in below:
                quotient[m] = values[m] / vy
            w._rows[t] = [quotient[m] for m in meets]
    w._source = values
    return w


def _diamond_rows(w: BiValuation) -> list[bool]:
    """_diamond_exact of w's rows. A row that bivaluation_from_valuation
    builds is diamond-exact, so derived rows skip the check."""
    if w._source is not None:
        return [row is not None for row in w._rows]
    return _diamond_exact(w._rows, _table(w.poset, "meet"))


def _proved(w: BiValuation, tol, modular=False) -> bool:
    """Whether no instance of w's chain, diamond and context rules, and with
    ``modular`` of its per-context sum rule, can violate at tol, because
    w's rows are its source's quotients (module docstring).

    Float quotients are each correctly rounded (_quotient_kind), and with
    u = 2**-53 and M = max |v| / min {v(t) > 0} >= 1 bounding every
    quotient, the kernel's operations leave a residual below
    (1 + u)(4u + O(u**2)) M in fl(q1) - fl(fl(q2) * fl(q3)) where
    q2 q3 = q1, and below (1 + u)(8u + O(u**2)) M in
    fl(fl(q1) + fl(q2)) - fl(fl(q3) + fl(q4)) where q1 + q2 = q3 + q4
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 2-3;
    gradual underflow adds at most 2**-1075 to a rounding). So any
    tolerance of at least 2**-49 M passes them; M stays at most 2**1000, so
    no quotient or product overflows."""
    values = w._source
    kind = values is not None and _quotient_kind(values)
    if not kind:
        return False
    positive = [e for e in values if e > 0]
    if kind == "float" and positive:
        m = Fraction(max(map(abs, values))) / Fraction(min(positive))
        if not (m <= 2 ** 1000 and tol >= m / 2 ** 49):
            return False
    return not modular or _distributive(w.poset) and _modular(w.poset, values)


def check_chain_rule(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit w(x|z) = w(x|y) * w(y|z) over all chains x <= y <= z."""
    p, down = w.poset, _table(w.poset, "down")
    blocks = (((z, y), (z, y), len(down[y])) for z in range(len(p)) for y in down[z])
    if _proved(w, tol):
        return _counted("chain", tol, w._rows, blocks)
    return _kernel("chain", tol, p, w._rows, blocks, *_chain_rule(down, w._rows))


def check_diamond_lemma(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit w(y|x) = w(x ^ y | x) over all pairs; instances are (x, y)."""
    p, raw, meet = w.poset, w._rows, _table(w.poset, "meet")
    n = len(p)
    blocks = ((x, (x,), n) for x in range(n))
    if _proved(w, tol):
        return _counted("diamond", tol, raw, blocks)
    return _kernel("diamond", tol, p, raw, blocks,
                   lambda rows, scale, x: (rows[x], map(rows[x].__getitem__, meet[x]), scale[x]),
                   lambda x, y: ((x, y), raw[x][y], raw[x][meet[x][y]]))


def check_context_product_rule(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit w(y ^ z | x) = w(z | x ^ y) * w(y | x) over all ordered triples.

    Block (x, y) reads rows x and y' = x ^ y. When both are diamond-exact,
    its chain-rule block (x, y') stands in for it: with z' = z ^ y', row x
    holds at y ^ z the object at z' and at y the object at y', and row y'
    holds at z the object at z', so instance (x, y, z) computes row_x[z']
    against row_y'[z'] * row_x[y'], which is chain instance z' <= y' <= x.
    So a failing chain instance z' fails each instance (x, y, z) with
    z ^ y' = z', with the chain instance's sides.
    """
    p, raw, meet = w.poset, w._rows, _table(w.poset, "meet")
    n = len(p)
    blocks = (((x, y), (x, meet[x][y]), n) for x, y in product(range(n), repeat=2))
    if _proved(w, tol):
        return _counted("context", tol, raw, blocks)

    def block(rows, scale, key):  # z runs over all elements
        x, y = key
        xy = meet[x][y]
        return (_times(map(rows[x].__getitem__, meet[y]), scale[xy]),
                map(mul, rows[xy], repeat(rows[x][y])), scale[x] * scale[xy])

    def instance(key, z):
        x, y = key
        return (x, y, z), raw[x][meet[y][z]], raw[meet[x][y]][z] * raw[x][y]
    chain_block, chain_instance = _chain_rule(_table(p, "down"), raw)
    fibers = {}  # y' -> the positions z grouped by z ^ y'

    def expand(key, reads, failing):
        xy = reads[1]
        if xy not in fibers:
            fibers[xy] = _fibers(meet[xy])
        for k in failing:
            (zy, _, _), lhs, rhs = chain_instance(reads, k)  # zy = z ^ y' <= y' <= x
            for z in fibers[xy][zy]:
                yield (*key, z), lhs, rhs
    return _kernel("context", tol, p, raw, blocks, block, instance,
                   proof=(chain_block, _diamond_rows(w), expand))


def check_bivaluation_sum_rule(w: BiValuation, tol: Value = DEFAULT_TOL) -> RuleReport:
    """Audit the sum rule inside every available context t; instances (t, x, y)."""
    p, contexts = w.poset, [t for t, row in enumerate(w._rows) if row is not None]
    if _proved(w, tol, modular=True):
        return _sum_rule("bisum", p, w._rows, contexts, tol, proved=True)
    sound = _diamond_rows(w) if _distributive(p) else None
    return _sum_rule("bisum", p, w._rows, contexts, tol, sound=sound)
