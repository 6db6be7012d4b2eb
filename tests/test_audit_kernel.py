"""The index-space audit kernel against the plain loops it replaced.

``reference_audits`` keeps the straightforward loops over element ids. The
kernel's reports must equal theirs in ``to_dict()`` (compared as canonical
JSON, so 1 and 1.0 differ) and in ``text_lines()``, on floats, ints,
Fractions and mixtures, with zero-weight atoms, holes and perturbations.
The golden files hold ``ordinal rules audit`` output made by those loops;
``b4-mixed`` was made by the kernel that chose its arithmetic per table.
"""
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ordinal
import reference_audits as ref
from ordinal import valuation
from ordinal import (Valuation, bivaluation_from_valuation, boolean_lattice,
                     build_poset, chain_poset, check_bivaluation_sum_rule,
                     check_chain_rule, check_context_product_rule,
                     check_diamond_lemma, check_monotone,
                     check_product_rule_for_lattice_product, check_sum_rule,
                     derive_valuation_from_atoms, divisor_lattice,
                     lattice_product, partition_lattice)
from ordinal.cli import run
from ordinal.serialize import dumps_canonical
from ordinal.valuation import BiValuation

GOLDEN = Path(__file__).parent / "golden" / "audit"

VALUATION_RULES = [(check_sum_rule, ref.check_sum_rule),
                   (check_monotone, ref.check_monotone)]
BIVALUATION_RULES = [(check_bivaluation_sum_rule, ref.check_bivaluation_sum_rule),
                     (check_chain_rule, ref.check_chain_rule),
                     (check_diamond_lemma, ref.check_diamond_lemma),
                     (check_context_product_rule, ref.check_context_product_rule)]


def assert_same_report(kernel, reference):
    assert dumps_canonical(kernel.to_dict()) == dumps_canonical(reference.to_dict())
    assert kernel.text_lines() == reference.text_lines()


def assert_audits_agree(v, w, tol):
    for check, reference in VALUATION_RULES:
        assert_same_report(check(v, tol), reference(v, tol))
    for check, reference in BIVALUATION_RULES:
        assert_same_report(check(w, tol), reference(w, tol))


# --- differential tests ---

KINDS = ("float", "int", "fraction", "mixed")


def number(kind, max_value=6):
    if kind == "float":
        return st.floats(min_value=0, max_value=max_value, allow_nan=False,
                         allow_infinity=False)
    if kind == "int":
        return st.integers(min_value=0, max_value=max_value)
    return st.fractions(min_value=0, max_value=max_value, max_denominator=12)


tolerances = st.sampled_from([0, 1e-9, 0.05, Fraction(1, 20), Fraction(1, 7)])


@st.composite
def audited_inputs(draw):
    """A valuation on B1-B5 and its bi-valuation, possibly perturbed."""
    n = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(KINDS))
    lat = boolean_lattice("abcde"[:n])
    weights = draw(st.lists(number(kind), min_size=n, max_size=n))
    if draw(st.booleans()):  # a zero-weight atom makes zero-measure contexts
        weights[draw(st.integers(0, n - 1))] *= 0
    v = derive_valuation_from_atoms(lat, dict(zip("abcde", weights)))
    if kind == "mixed":  # one float among Fractions, and an int bottom
        e = draw(st.sampled_from(lat.elements))
        v = v.replace(e, float(v(e)))
    if draw(st.booleans()):  # a shifted valuation
        e = draw(st.sampled_from(lat.elements))
        v = v.replace(e, v(e) + draw(number(kind, 2)))
    tol = draw(tolerances)
    w = bivaluation_from_valuation(v, tol, validate=False)
    for _ in range(draw(st.integers(0, 3))):  # with_value: changed, new or undefined
        x, t = draw(st.sampled_from(lat.elements)), draw(st.sampled_from(lat.elements))
        w = w.with_value(x, t, draw(st.none() | number(kind, 2)))
    return v, w, tol


@settings(max_examples=40, deadline=None)
@given(audited_inputs())
def test_kernel_matches_reference_loops(case):
    assert_audits_agree(*case)


@st.composite
def mixed_tables(draw):
    """A valuation on B1-B5 and a bi-valuation whose rows mix ints,
    Fractions, floats, bools and holes, so some blocks run in integers and
    others on the raw values."""
    n = draw(st.integers(min_value=1, max_value=5))
    lat = boolean_lattice("abcde"[:n])
    kind = draw(st.sampled_from(("int bottom", "all int", "one float", "one bool")))
    weights = draw(st.lists(number("int" if kind == "all int" else "fraction"),
                            min_size=n, max_size=n))
    v = derive_valuation_from_atoms(lat, dict(zip("abcde", weights)))  # v({}) is the int 0
    w = bivaluation_from_valuation(v, validate=False)
    if kind == "all int":  # int/int divides into floats, so make the table ints
        w = BiValuation(lat, {k: round(value) for k, value in w.table.items()})
    entry = st.tuples(st.sampled_from(lat.elements), st.sampled_from(lat.elements))
    for _ in range(draw(st.integers(0, 2))):  # perturbations in the table's own kind
        w = w.with_value(*draw(entry), draw(number("int" if kind == "all int" else "fraction", 2)))
    if kind in ("one float", "one bool"):
        x, t = draw(entry)
        w = w.with_value(x, t, draw(st.booleans()) if kind == "one bool"
                         else float(w.get(x, t) or 0) + draw(st.sampled_from([0, 0.25, 1e-12])))
    for _ in range(draw(st.integers(0, 3))):  # holes
        w = w.with_value(*draw(entry), None)
    return v, w, draw(tolerances)


@settings(max_examples=60, deadline=None)
@given(mixed_tables())
def test_kernel_matches_reference_on_mixed_tables(case):
    assert_audits_agree(*case)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["P3", "P4", "D60", "C4", "C5"]), st.data())
def test_kernel_matches_reference_on_other_lattices(name, data):
    # C5's labels sort against its order: z is the bottom and v the top
    lat = {"P3": partition_lattice("abc"), "P4": partition_lattice("abcd"),
           "D60": divisor_lattice(60), "C4": chain_poset("wxyz"),
           "C5": chain_poset("zyxwv")}[name]
    kind = data.draw(st.sampled_from(KINDS))
    values = data.draw(st.lists(number(kind), min_size=len(lat), max_size=len(lat)))
    v = Valuation(lat, dict(zip(lat.elements, values)))
    tol = data.draw(tolerances)
    assert_audits_agree(v, bivaluation_from_valuation(v, tol, validate=False), tol)


def test_undefined_instances_are_skipped_where_failing_blocks_are_scanned():
    # row {a,b} holds inf at {}, so its diamond block starts with the NaN
    # inf - inf, a hole at {b} and a changed quotient at {a}: blocks that
    # read it fail, and their undefined instances are skipped, not reported
    lat = boolean_lattice("abc")
    v = derive_valuation_from_atoms(lat, {"a": 1.0, "b": 2.0, "c": 4.0})
    w = (bivaluation_from_valuation(v).with_value("{}", "{a,b}", float("inf"))
         .with_value("{b}", "{a,b}", None).with_value("{a}", "{a,b}", 0.75))
    counts = {}
    for check, reference in BIVALUATION_RULES:
        report = check(w, valuation.DEFAULT_TOL)
        assert_same_report(report, reference(w, valuation.DEFAULT_TOL))
        counts[report.rule] = (report.checked, report.skipped, len(report.violations))
    assert counts == {"diamond": (54, 10, 2), "chain": (52, 12, 3),
                      "context": (282, 230, 14), "bisum": (188, 8, 4)}


def test_chain_rule_on_a_poset_that_is_not_a_lattice(bowtie):
    # the chain rule needs no joins or meets; a hole and an exact table
    table = {(x, t): Fraction(1, 1 + len(x + t)) for x in "pqrs" for t in "pqrs"
             if bowtie.leq(x, t)}
    table[("p", "s")] = None
    for w in (BiValuation(bowtie, table),
              BiValuation(bowtie, {k: float(v or 0) for k, v in table.items()})):
        for tol in (0, 1e-9):
            assert_same_report(check_chain_rule(w, tol), ref.check_chain_rule(w, tol))


def test_a_bivaluation_derived_on_a_poset_that_is_not_a_lattice_is_refused(bowtie):
    # its rows hold meets, which the bowtie lacks; with every row proved
    # from the values, the audits would count rows that cannot be read
    v = Valuation(bowtie, {"p": 1, "q": 1, "r": 2, "s": 2})
    with pytest.raises(ordinal.NotALattice, match="witness pair"):
        bivaluation_from_valuation(v, validate=False)


@pytest.mark.parametrize("tol", [valuation.DEFAULT_TOL, -1.0])
def test_the_bivaluation_sum_rule_refuses_a_poset_that_is_not_a_lattice(bowtie, tol):
    # before any other work: with no row to read, and before the tolerance
    table = {(x, t): Fraction(1, 2) for x in "pqrs" for t in "rs" if bowtie.leq(x, t)}
    for w in (BiValuation(bowtie, {}), BiValuation(bowtie, table)):
        with pytest.raises(ordinal.NotALattice, match="witness pair"):
            check_bivaluation_sum_rule(w, tol)


@pytest.mark.parametrize("tol", [valuation.DEFAULT_TOL, -1.0])
def test_the_sum_rule_refuses_a_poset_that_is_not_a_lattice(bowtie, tol):
    # before any other work: with every value None no block reads the row,
    # and with one defined value the row is not proved
    for defined in ({}, {"p": 1}):
        v = Valuation(bowtie, {e: defined.get(e) for e in bowtie.elements})
        with pytest.raises(ordinal.NotALattice, match="witness pair"):
            check_sum_rule(v, tol)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_monotone_on_a_poset_that_is_not_a_lattice(bowtie, data):
    # the monotone audit reads only the order, not joins or meets
    kind = data.draw(st.sampled_from(KINDS))
    values = data.draw(st.lists(number(kind), min_size=4, max_size=4))
    v = Valuation(bowtie, dict(zip(bowtie.elements, values)))
    tol = data.draw(tolerances)
    assert_same_report(check_monotone(v, tol), ref.check_monotone(v, tol))


# --- the reduced bisum and context audits ---

REDUCED_RULES = [(check_bivaluation_sum_rule, ref.check_bivaluation_sum_rule),
                 (check_context_product_rule, ref.check_context_product_rule)]

# every lattice that is not distributive holds N5 (the pentagon) or M3
# (the diamond) as a sublattice; P3 is M3 again
REDUCED_LATTICES = {
    **{f"B{k}": boolean_lattice("abcde"[:k]) for k in range(1, 6)},
    "P3": partition_lattice("abc"), "P4": partition_lattice("abcd"),
    "D60": divisor_lattice(60),
    "N5": build_poset("0abc1", [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]),
    "M3": build_poset("0abc1", [("0", x) for x in "abc"] + [(x, "1") for x in "abc"]),
}
DISTRIBUTIVE = {"B1", "B2", "B3", "B4", "B5", "D60"}


def irreducible_sums(lat, weights):
    """v(x) = the sum of the weights of the join-irreducibles below x, with
    an int 0 at the bottom; on a distributive lattice v keeps the sum rule."""
    extent = lat._require_lattice().extent
    return Valuation(lat, {x: sum(w for k, w in enumerate(weights)
                                  if extent[lat._pos[x]] >> k & 1)
                           for x in lat.elements})


def fresh(value):
    """An equal value in a new object, where the type allows one."""
    if isinstance(value, float):
        return float(repr(value))
    if isinstance(value, Fraction):
        return Fraction(value.numerator, value.denominator)
    return value


def changed_quotient(w, t, x, delta):
    """w, every row of which is derived, with the object that row t holds
    at x replaced, wherever row t holds it, by that value plus delta in a
    new object. Row t stays diamond-exact, so each row stays a _Derived and
    bisum keeps its stand-ins; each is a new _Derived with its entries
    built and with source values that hold a hole, which _arithmetic names
    no arithmetic, so no row is proved."""
    changed, source = BiValuation(w.poset, {}), [None] * len(w.poset)
    for u in (u for u, row in enumerate(w._rows) if row is not None):
        entries = valuation._row(w._rows, u)
        if u == t:
            old = entries[x]
            new = old + delta
            entries = [new if e is old else e for e in entries]
        row = changed._rows[u] = valuation._Derived(w.poset, source, u)
        row.entries = entries
    return changed


@st.composite
def irreducible_valuations(draw):
    """A valuation on one of REDUCED_LATTICES from weights of one kind on
    its join-irreducibles, which keeps the sum rule on a distributive
    lattice; some with a zero weight, and some shifted at one element."""
    name = draw(st.sampled_from(sorted(REDUCED_LATTICES)))
    lat = REDUCED_LATTICES[name]
    kind = draw(st.sampled_from(KINDS))
    size = len(lat.join_irreducibles())
    weights = draw(st.lists(number(kind), min_size=size, max_size=size))
    if weights and draw(st.booleans()):  # a zero-weight atom makes zero-measure contexts
        weights[draw(st.integers(0, size - 1))] *= 0
    v = irreducible_sums(lat, weights)
    if kind == "mixed":  # one float among Fractions, and an int bottom
        e = draw(st.sampled_from(lat.elements))
        v = v.replace(e, float(v(e)))
    if draw(st.booleans()):  # a shifted valuation, so some pair classes fail
        e = draw(st.sampled_from(lat.elements))
        v = v.replace(e, v(e) + draw(number(kind, 2)))
    return v, kind


def with_values(draw, w, kind):
    """w after up to three with_value changes: changed, new or undefined."""
    lat = w.poset
    for _ in range(draw(st.integers(0, 3))):
        x, t = draw(st.sampled_from(lat.elements)), draw(st.sampled_from(lat.elements))
        w = w.with_value(x, t, draw(st.none() | number(kind, 2)))
    return w


@st.composite
def reduced_inputs(draw):
    """A bi-valuation on one of REDUCED_LATTICES and a tolerance: as built,
    with one quotient of a row changed in place, changed with with_value,
    or copied through a plain dict whose rows share no float or Fraction
    between their entries."""
    v, kind = draw(irreducible_valuations())
    lat = v.poset
    tol = draw(tolerances)
    w = bivaluation_from_valuation(v, tol, validate=False)
    contexts = [t for t, row in enumerate(w._rows) if row is not None]
    if contexts and draw(st.booleans()):  # one quotient changed wherever its row holds it
        w = changed_quotient(w, draw(st.sampled_from(contexts)),
                             draw(st.integers(0, len(lat) - 1)), draw(number(kind, 2)))
    w = with_values(draw, w, kind)
    if draw(st.booleans()):
        w = BiValuation(lat, {key: fresh(value) for key, value in w.table.items()})
    return w, tol


@settings(max_examples=80, deadline=None)
@given(reduced_inputs())
def test_reduced_audits_match_reference_loops(case):
    w, tol = case
    for check, reference in REDUCED_RULES:
        assert_same_report(check(w, tol), reference(w, tol))


# --- audits proved from the source valuation ---

# each arithmetic that _arithmetic tells apart, and the kind of the values
# that with_value writes into its bi-valuation
ARITHMETICS = {"quarters": "float", "tenths": "float", "near overflow": "float",
               "big int": "float", "fraction beside float": "mixed", "bool": "int",
               "ints beside fractions": "fraction"}


@st.composite
def classified_valuations(draw):
    """A valuation from weights k on the join-irreducibles of a
    distributive lattice, in each arithmetic: floats k / 4, whose sums are
    exact, and k / 10, whose sums are rounded; k times a power of two that
    puts the top within a factor 2 of the largest float, so that the sum
    rule's sides overflow to infinities and leave NaN residuals; an int
    beyond 2**53 beside floats; a Fraction beside a float; a bool at the
    bottom; and ints beside Fractions, with a positive int."""
    lat = REDUCED_LATTICES[draw(st.sampled_from(sorted(DISTRIBUTIVE - {"B1"})))]
    size, arithmetic = len(lat.join_irreducibles()), draw(st.sampled_from(sorted(ARITHMETICS)))
    ks = draw(st.lists(st.integers(1, 1000), min_size=size, max_size=size))
    unit = {"quarters": 1 / 4, "tenths": 1 / 10, "big int": 1 / 4,
            "near overflow": 2.0 ** (1024 - sum(ks).bit_length())}.get(arithmetic, 1)
    weights = [k * unit for k in ks]
    if arithmetic == "big int":
        weights[0] = 2 ** 53 + ks[0]
    elif arithmetic in ("fraction beside float", "ints beside fractions"):
        weights = [Fraction(k, 3) if i % 2 else k for i, k in enumerate(ks)]
        if arithmetic == "fraction beside float":
            weights[0] = ks[0] / 4
    v = irreducible_sums(lat, weights)
    return (v.replace(lat._at[0], False) if arithmetic == "bool" else v), ARITHMETICS[arithmetic]


@settings(max_examples=250, deadline=None)
@given(irreducible_valuations() | classified_valuations(),
       st.sampled_from([0, valuation.DEFAULT_TOL]), st.data())
def test_proved_audits_match_reference_loops(case, tol, data):
    # a derived bi-valuation is proved wherever its quotients allow, and a
    # with_value change clears the flag of the one row it changes
    v, kind = case
    w = bivaluation_from_valuation(v, tol, validate=False)
    if data.draw(st.booleans()):
        w = with_values(data.draw, w, kind)
    assert_audits_agree(v, w, tol)


def empty_rows_case(lat, case):
    """A Fraction valuation on lat, so that every derived row is proved at
    tolerance 0, whose empty rows, the t with v(t) <= 0, are: none; the
    down-set of the bottom or of a middle element, v(x) counting the
    join-irreducibles below x but not below e; the down-set of the last
    two incomparable positions, with two maximal elements; or not an
    ideal, the top at 0 and a middle element negative above a bottom with
    measure."""
    extent, n = lat._require_lattice().extent, len(lat)
    e = {"ideal of the bottom": 0, "ideal of a middle element": n // 2}.get(case)
    if e is None:
        values = [Fraction(1 + ext.bit_count(), 3) for ext in extent]
        if case == "not an ideal":
            values[n - 1], values[n // 2] = Fraction(0), values[n // 2] - 2
        if case == "ideal of two elements":
            down = lat._down_t
            pair = next(((x, y) for y in reversed(range(n)) for x in reversed(range(y))
                         if not down[y] >> x & 1), None)
            if pair is None:
                pytest.skip("a chain has no two incomparable elements")
            gone = down[pair[0]] | down[pair[1]]
            values = [Fraction(0) if gone >> t & 1 else value
                      for t, value in enumerate(values)]
    else:
        values = [Fraction((ext & ~extent[e]).bit_count(), 3) for ext in extent]
    return Valuation(lat, dict(zip(lat._at, values)))


EMPTY_ROWS = ["none", "ideal of the bottom", "ideal of a middle element",
              "ideal of two elements", "not an ideal", "with_value"]


@pytest.mark.parametrize("case", EMPTY_ROWS)
@pytest.mark.parametrize("name", sorted(REDUCED_LATTICES))
def test_closed_form_counts_match_reference_loops(monkeypatch, name, case):
    # a fresh lattice, so that no table is left from another test
    lat = build_poset(REDUCED_LATTICES[name].elements, REDUCED_LATTICES[name].covers)
    v = empty_rows_case(lat, "ideal of the bottom" if case == "with_value" else case)
    w = derived(v)
    if case == "with_value":  # one unproved row, whose blocks the kernel walks
        w = w.with_value(lat._at[0], lat._at[len(lat) // 2], Fraction(1, 2))
    built, build = [], valuation._build_table
    monkeypatch.setattr(valuation, "_build_table",
                        lambda p, kind: built.append(kind) or build(p, kind))
    for check in (check_chain_rule, check_diamond_lemma, check_context_product_rule):
        check(w, 0)
    # on proved rows the counts need no table, but for an empty set that is
    # not a down-set, whose context count reads the meet rows
    if case != "with_value":
        assert built == (["meet"] if case == "not an ideal" else [])
    assert_audits_agree(v, w, 0)


def rounding_bound(v):
    """2**-49 M, M = max |v| / min {v(t) > 0}: the least tolerance at which
    the rules of float quotients are proved, not evaluated."""
    values = v.values.values()
    return (Fraction(max(map(abs, values))) / Fraction(min(e for e in values if e > 0))
            / 2 ** 49)


@st.composite
def spread_valuations(draw):
    """Float weights k / 16, which sum exactly, or inexact 0.1 k, over four
    orders of magnitude on the join-irreducibles of a distributive lattice;
    some with one element, the bottom too, raised far above the rest, so
    that quotients near M are rounded."""
    lat = REDUCED_LATTICES[draw(st.sampled_from(sorted(DISTRIBUTIVE - {"B1"})))]
    size, unit = len(lat.join_irreducibles()), draw(st.sampled_from([1 / 16, 0.1]))
    v = irreducible_sums(lat, [unit * k for k in draw(
        st.lists(st.integers(1, 10 ** 4), min_size=size, max_size=size))])
    if draw(st.booleans()):
        e = draw(st.sampled_from(lat.elements))
        v = v.replace(e, v(e) + 0.1 * draw(st.integers(10 ** 6, 10 ** 12)))
    return v


@settings(max_examples=100, deadline=None)
@given(spread_valuations(), st.booleans())
def test_float_audits_at_the_rounding_bound_match_reference_loops(v, below):
    # at the bound the audits are proved, and just below it they run on the
    # kernel; a bound too small for the kernel's residuals would let a
    # proved audit pass instances that the reference loops fail
    tol = rounding_bound(v) * (1 - Fraction(1, 2 ** 30) if below else 1)
    assert_audits_agree(v, bivaluation_from_valuation(v, tol, validate=False), tol)


def pair_classes(rule, p, key):
    """Whether the kernel block key of rule tests the pair classes of a
    context's down-set rather than its instances."""
    return rule == "bisum" and key[1] is valuation._table(p, "down")[key[0]]


def kernel_blocks(monkeypatch):
    """A dict, filled as audits run, from each rule whose kernel evaluates
    a block to what it evaluated, in order: ("block", rows read) for a
    block of instances and ("stand-in", rows read) for a bisum block of
    pair classes, which stand in for the instances."""
    ran, kernel = {}, valuation._kernel

    def spy(rule, tol, p, raw, counts, blocks, block, *rest, **options):
        reads = {}  # by the key's identity, as a bisum key holds a list

        def listed(unproved):
            for key, rows, labels in blocks(unproved):
                reads[id(key)] = rows
                yield key, rows, labels

        def evaluate(rows, scale, key):
            kind = "stand-in" if pair_classes(rule, p, key) else "block"
            ran.setdefault(rule, []).append((kind, reads[id(key)]))
            return block(rows, scale, key)
        return kernel(rule, tol, p, raw, counts, listed, evaluate, *rest, **options)
    monkeypatch.setattr(valuation, "_kernel", spy)
    return ran


ON_W = {"bisum", "chain", "diamond", "context"}


def thirds(lat):
    """Fraction weights k / (k + 2) on the join-irreducibles, all above 1/3."""
    return irreducible_sums(lat, [Fraction(k, k + 2)
                                  for k in range(1, len(lat.join_irreducibles()) + 1)])


def ranks(lat):
    """Int weights 1, 2, ... on the join-irreducibles."""
    return irreducible_sums(lat, range(1, len(lat.join_irreducibles()) + 1))


def derived(v):
    return bivaluation_from_valuation(v, validate=False)


def steps(weight):
    """The valuation of weights weight(1), weight(2), ... on the
    join-irreducibles, as a function of the lattice."""
    return lambda lat: irreducible_sums(
        lat, [weight(k) for k in range(1, len(lat.join_irreducibles()) + 1)])


# case -> lattice, its valuation, the bi-valuation built from it, the
# tolerance or its function of the valuation, and the rules whose kernel
# must evaluate blocks
PATHS = {
    "fraction rows": ("B4", thirds, derived, 0, set()),
    "fraction rows, default tolerance": ("D60", thirds, derived, valuation.DEFAULT_TOL, set()),
    "int weights, default tolerance": ("B4", ranks, derived, valuation.DEFAULT_TOL, set()),
    "float rows at tolerance 0": ("B4", ranks, derived, 0, ON_W),
    # the bottom has measure, and its row has no pair class (a, b) with a != b
    "float rows at tolerance 0, a bottom with measure": (
        "B4", lambda lat: ranks(lat).replace("{}", 1), derived, 0, ON_W | {"sum"}),
    "float rows at the rounding bound": ("B4", ranks, derived, rounding_bound, set()),
    "float rows just below the rounding bound": (
        "B4", ranks, derived, lambda v: rounding_bound(v) * (1 - Fraction(1, 2 ** 30)),
        {"chain", "diamond", "context", "bisum"}),
    # only the blocks that read the changed row {a,b}
    "with_value": ("B4", thirds,
                   lambda v: derived(v).with_value("{a}", "{a,b}", Fraction(1, 2)), 0, ON_W),
    # {a,b} holds 1/3 + 2/4 = 5/6; chain, diamond and context are
    # identities of any quotient, so only the sum rules run
    "shifted values": ("B4", lambda lat: thirds(lat).replace("{a,b}", Fraction(14, 15)),
                       derived, 0, {"sum", "bisum"}),
    # the sum rule fails only at the top, whose context has measure 0, so
    # every bisum row with a context is proved
    "a cover that decreases": ("B4", lambda lat: thirds(lat).replace("{a,b,c,d}", 0),
                               derived, 0, {"sum", "monotone"}),
    "table-built": ("B4", thirds, lambda v: BiValuation(v.poset, derived(v).table),
                    valuation.DEFAULT_TOL, ON_W),
    "not distributive": ("N5", thirds, derived, 0, {"sum", "bisum"}),
    # float weights whose sums are exact keep the sum rule as exact ones do
    "float weights k / 4": ("B4", steps(lambda k: k / 4), derived, valuation.DEFAULT_TOL, set()),
    "float weights k / 4 at tolerance 0": ("B4", steps(lambda k: k / 4), derived, 0,
                                           ON_W - {"sum"}),
    # rounded sums fail _modular, so the sum rules run, on pair classes in bisum
    "float weights k / 10": ("B4", steps(lambda k: k / 10), derived, valuation.DEFAULT_TOL,
                             {"sum", "bisum"}),
    # an int over an int divides into a float, and a Fraction over it into a
    # Fraction, so no bi-valuation row is proved; monotone is proved in
    # integers
    "ints beside Fractions": ("B4", steps(lambda k: Fraction(k, 3) if k % 2 == 0 else k),
                              derived, 0, ON_W),
}


@pytest.mark.parametrize("case", PATHS)
def test_which_audits_run_on_the_kernel(monkeypatch, case):
    name, valuation_of, bivaluation_of, tol, expected = PATHS[case]
    v = valuation_of(REDUCED_LATTICES[name])
    w = bivaluation_of(v)
    tol = tol(v) if callable(tol) else tol
    ran = kernel_blocks(monkeypatch)
    assert_audits_agree(v, w, tol)
    # a block that reads only proved rows is counted, not evaluated
    assert set(ran) == expected
    if case == "with_value":
        changed = v.poset._pos["{a,b}"]
        assert all(changed in reads for evaluated in ran.values() for _, reads in evaluated)


@pytest.mark.parametrize("name", sorted(REDUCED_LATTICES))
def test_only_a_distributive_lattice_reduces_the_bisum_audit(monkeypatch, name):
    lat = REDUCED_LATTICES[name]
    assert valuation._distributive(lat) == (name in DISTRIBUTIVE)
    handed, tested, kernel = [], [], valuation._kernel

    def spy(rule, tol, p, raw, counts, blocks, block, *rest, **options):
        def listed(unproved):
            keys = list(blocks(unproved))
            handed.append(any(pair_classes(rule, p, key) for key, _, _ in keys))
            return keys

        def evaluate(rows, scale, key):
            if pair_classes(rule, p, key):
                tested.append(key[:1])
            return block(rows, scale, key)
        return kernel(rule, tol, p, raw, counts, listed, evaluate, *rest, **options)
    monkeypatch.setattr(valuation, "_kernel", spy)
    v = irreducible_sums(lat, range(1, len(lat.join_irreducibles()) + 1))
    w = bivaluation_from_valuation(v, validate=False)
    assert_same_report(check_bivaluation_sum_rule(w, 0),
                       ref.check_bivaluation_sum_rule(w, 0))
    # only a distributive lattice gets a stand-in, and every row with a
    # context is diamond-exact, so each one is tested on its pair classes
    contexts = [(t,) for t, row in enumerate(w._rows) if row is not None]
    assert handed == [name in DISTRIBUTIVE]
    assert sorted(tested) == (contexts if name in DISTRIBUTIVE else [])


# REDUCED_LATTICES and products of them with chains, one distributive and
# two not
LATTICES = {**REDUCED_LATTICES,
            "B2xC3": lattice_product(REDUCED_LATTICES["B2"], chain_poset("012")),
            "N5xC2": lattice_product(REDUCED_LATTICES["N5"], chain_poset("01")),
            "C2xM3": lattice_product(chain_poset("01"), REDUCED_LATTICES["M3"])}


def distributes(lat):
    """Whether x ^ (y v z) = (x ^ y) v (x ^ z) for every triple, by the
    public join and meet."""
    ids, join, meet = lat.elements, lat.join, lat.meet
    return all(meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
               for x in ids for y in ids for z in ids)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_distributivity_is_decided_once_and_kept_on_the_lattice(monkeypatch, name):
    lat = build_poset(LATTICES[name].elements, LATTICES[name].covers)
    lat.is_lattice()
    assert lat._distributive is None  # certification does not decide it
    verdict = valuation._distributive(lat)
    assert verdict == distributes(lat) == (name in DISTRIBUTIVE | {"B2xC3"})
    assert lat._tables == {}
    # a second call reads the kept verdict, not the standard context
    monkeypatch.setattr(lat, "_require_lattice", None)
    assert valuation._distributive(lat) is verdict


def modular_by_element(lat, values):
    """_modular's mask from its formula, an element at a time: the x where
    v(x) is not v(bottom) plus the steps v(j) - v(j-) of the J below x,
    each element's steps summed anew in rationals."""
    c = lat._require_lattice()
    exact = list(map(Fraction, values))
    steps = [exact[j] - exact[c.by_extent[c.extent[j] ^ 1 << k]]
             for k, j in enumerate(c.join_irreducibles)]
    bottom = exact[c.by_extent[0]]
    return sum(1 << x for x, (e, mask) in enumerate(zip(exact, c.extent))
               if e != bottom + sum(step for k, step in enumerate(steps) if mask >> k & 1))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(DISTRIBUTIVE | {"B2xC3"})),
       st.sampled_from(["int", "fraction", "float"]), st.booleans(), st.data())
def test_modular_matches_its_formula_at_each_element(name, kind, from_irreducibles, data):
    # _modular is defined on distributive lattices only. Values summed from
    # the join-irreducibles pass until one is shifted; values drawn an
    # element at a time mostly fail
    lat = LATTICES[name]
    if from_irreducibles:
        size = len(lat.join_irreducibles())
        v = irreducible_sums(lat, data.draw(st.lists(number(kind), min_size=size,
                                                     max_size=size)))
        values = valuation._valuation_row(v)
        if data.draw(st.booleans()):
            values[data.draw(st.integers(0, len(lat) - 1))] += data.draw(number(kind, 2))
    else:
        values = data.draw(st.lists(number(kind), min_size=len(lat), max_size=len(lat)))
    assert valuation._modular(lat, values) == modular_by_element(lat, values)


@pytest.mark.parametrize("name", ["N5", "M3", "P3", "P4", "N5xC2", "C2xM3"])
def test_a_lattice_that_does_not_distribute_never_runs_modular(monkeypatch, name):
    # _modular is defined on distributive lattices only, so both sum rules
    # decide distributivity first and evaluate their instances here
    def refuse(p, values):
        raise AssertionError(f"_modular ran on {name}")
    monkeypatch.setattr(valuation, "_modular", refuse)
    lat = LATTICES[name]
    size = len(lat.join_irreducibles())
    shifted = ranks(lat).replace(lat.elements[len(lat) // 2], len(lat))
    for v in (ranks(lat), shifted, irreducible_sums(lat, [k / 10 for k in range(1, size + 1)]),
              irreducible_sums(lat, [Fraction(1, k) for k in range(1, size + 1)])):
        for tol in (0, valuation.DEFAULT_TOL):
            assert_same_report(check_sum_rule(v, tol), ref.check_sum_rule(v, tol))
            assert_same_report(check_bivaluation_sum_rule(derived(v), tol),
                               ref.check_bivaluation_sum_rule(derived(v), tol))


@pytest.mark.parametrize("change", ["shifted", "changed quotient"])
@pytest.mark.parametrize("name", ["B4", "D60"])
def test_failing_stand_ins_decide_diamond_exact_rows(monkeypatch, name, change):
    lat = REDUCED_LATTICES[name]
    v = ranks(lat)
    middle = lat.elements[len(lat) // 2]
    if change == "shifted":
        v = v.replace(middle, v(middle) + 1)
    w = derived(v)
    if change == "changed quotient":
        w = changed_quotient(w, len(lat) - 1, lat._pos[middle], 0.5)
    # every row with a context is derived, and at tolerance 0 no float row
    # is proved
    assert all(type(row) is valuation._Derived for row in w._rows[1:]) and w._rows[0] is None
    ran = kernel_blocks(monkeypatch)
    reports = [(check(w, 0), reference(w, 0)) for check, reference in REDUCED_RULES]
    # the stand-ins decide every bisum block, the failing ones included, and
    # no bisum block runs itself; the context rule has no stand-in
    assert ran["bisum"] == [("stand-in", (t,)) for t in range(1, len(lat))]
    assert {kind for kind, _ in ran["context"]} == {"block"}
    for report, expected in reports:
        assert_same_report(report, expected)
    failed = {report.rule for report, _ in reports if not report.passed}
    assert "bisum" in failed and ("context" in failed or change == "shifted")


def test_a_changed_row_evaluates_only_the_blocks_that_read_it(monkeypatch):
    lat = boolean_lattice("abcdef")
    n, bottom, c = len(lat), lat._pos["{}"], lat._pos["{a,b,c}"]
    meet, down = valuation._table(lat, "meet"), valuation._table(lat, "down")
    v = thirds(lat)
    ran = kernel_blocks(monkeypatch)
    assert_audits_agree(v, derived(v).with_value("{a}", "{a,b,c}", Fraction(1, 2)), 0)
    # every other row is proved, and the bottom has measure 0, so a block
    # that reads it is skipped, not evaluated
    context = [(x, meet[x][y]) for x in range(n) for y in range(n)
               if c in (x, meet[x][y]) and bottom != meet[x][y]]
    chain = [(z, y) for z in range(n) for y in down[z] if c in (z, y) and y != bottom]
    assert ran == {"context": [("block", reads) for reads in context],
                   "chain": [("block", reads) for reads in chain],
                   "diamond": [("block", (c,))], "bisum": [("block", (c,))]}

    # v shifted at e keeps its sum rule below every t but those above e,
    # whose bisum rows stand on their pair classes
    ran.clear()
    e = lat._pos["{a,b,c}"]
    shifted = v.replace("{a,b,c}", v("{a,b,c}") + Fraction(1, 4))
    assert_audits_agree(shifted, derived(shifted), 0)
    assert ran == {"sum": [("block", (0,))],
                   "bisum": [("stand-in", (t,)) for t in range(n) if lat._down_t[t] >> e & 1]}


def test_violation_sides_keep_their_json_types():
    # an int table, w(x | t) = v(x ^ t) unnormalized, and an exact one
    lat = boolean_lattice("abc")
    shifted = irreducible_sums(lat, [1, 2, 3]).replace("{a,b}", 4)
    ints = BiValuation(lat, {(x, t): shifted(lat.meet(x, t))
                             for x in lat.elements for t in lat.elements})
    v = irreducible_sums(lat, [Fraction(1, 3), Fraction(2, 5), Fraction(4, 7)])
    exact = bivaluation_from_valuation(v.replace("{a,b}", v("{a,b}") + Fraction(1, 2)),
                                       validate=False)
    for w, kind in ((ints, int), (exact, str)):
        sides = set()
        for check, reference in BIVALUATION_RULES:
            report = check(w, 0)
            assert_same_report(report, reference(w, 0))
            sides |= {type(entry[side]) for entry in report.to_dict()["violations"]
                      for side in ("lhs", "rhs", "residual")}
        assert sides == {kind}


def test_built_rows_share_their_quotients_and_copied_rows_do_not():
    lat = boolean_lattice("abc")
    v = derive_valuation_from_atoms(lat, {"a": 0.1, "b": 0.2, "c": 0.7})
    w = bivaluation_from_valuation(v, validate=False)
    meet, top, ab = valuation._table(lat, "meet"), len(lat) - 1, lat._pos["{a,b}"]

    def rows(u):
        return [valuation._row(u._rows, t) for t in range(len(lat))]

    def plain(u):
        """The ids of u's rows that are not derived, None rows included."""
        return [lat._at[t] for t, row in enumerate(u._rows) if type(row) is not valuation._Derived]
    # each row with a context is derived, and once built holds at x the very
    # quotient it holds at x ^ t; the bottom has measure 0 and no row
    assert plain(w) == ["{}"] and w._rows[0] is None
    assert all(row[x] is row[m] for row, meets in zip(rows(w)[1:], meet[1:])
               for x, m in enumerate(meets))
    # with_value copies the row it changes into a list; every other row is
    # the very row of w, and each derived row carries the one source list,
    # which still proves every derived row
    changed = w.with_value("{a}", "{a,b}", w.get("{a}", "{a,b}") + 0.5)
    assert plain(changed) == ["{}", "{a,b}"]
    assert all(new is old for t, (new, old) in enumerate(zip(changed._rows, w._rows)) if t != ab)
    assert rows(changed)[ab] is not rows(w)[ab]
    assert len({id(row.values) for u in (w, changed) for row in u._rows[1:]
                if type(row) is valuation._Derived}) == 1
    assert valuation._proved(changed, 1.0) == [t not in (0, ab) for t in range(len(lat))]
    # a hole makes its row a list too, and w keeps its own rows
    holed = w.with_value("{c}", "{a,b}", None)
    assert plain(holed) == ["{}", "{a,b}"] and plain(w) == ["{}"]
    assert valuation._proved(w, 1.0) == [False] + [True] * top
    # a table copied from w has no derived row, so no source and no proof
    copied = BiValuation(lat, w.table)
    assert len(plain(copied)) == len(lat)
    assert valuation._proved(copied, 1.0) == [False] * len(lat)


def row_builds(monkeypatch):
    """A list, filled as rows are built, of the position of each row built."""
    built, build = [], valuation._build_row

    def spy(unbuilt):
        built.append(unbuilt.t)
        return build(unbuilt)
    monkeypatch.setattr(valuation, "_build_row", spy)
    return built


def test_a_row_that_a_with_value_copy_shares_is_divided_once(monkeypatch):
    # int ranks at tolerance 0 prove no row, so each chain audit reads
    # every row; the copy and w share the 62 rows the copy does not change
    lat = boolean_lattice("abcdef")
    w = derived(ranks(lat))
    built = row_builds(monkeypatch)
    changed = w.with_value("{a}", "{a,b}", 0.5)
    assert built == [lat._pos["{a,b}"]]
    for u in (changed, w):
        assert_same_report(check_chain_rule(u, 0), ref.check_chain_rule(u, 0))
    assert sorted(built) == list(range(1, len(lat)))


@pytest.mark.parametrize("kind", ["float", "fraction"])
@pytest.mark.parametrize("name", ["B5", "D60"])
def test_rows_are_built_only_when_read(monkeypatch, name, kind):
    lat = REDUCED_LATTICES[name]
    size, tol = len(lat.join_irreducibles()), valuation.DEFAULT_TOL
    v = irreducible_sums(lat, [k / 16 if kind == "float" else Fraction(k, k + 2)
                               for k in range(1, size + 1)])
    built = row_builds(monkeypatch)
    # the default audits are proved from the source values, and the
    # table's length, the contexts and the proof read no row
    w = derived(v)
    reports = [check(w, tol) for check, _ in BIVALUATION_RULES]
    assert len(w.table) == len(lat) * len(w.contexts()) == len(lat) * (len(lat) - 1)
    assert valuation._proved(w, tol, modular=True)[1:] == [True] * (len(lat) - 1)
    assert built == []
    for report, (_, reference) in zip(reports, BIVALUATION_RULES):
        assert_same_report(report, reference(w, tol))
    # get builds the row it reads, once
    x, t = lat.elements[1], lat.elements[-2]
    w, built[:] = derived(v), []
    w.get(x, t)
    w.get(lat.elements[-1], t)
    assert built == [lat._pos[t]]
    # with_value builds the row it changes, and its copy holds that row built
    w, built[:] = derived(v), []
    changed = w.with_value(x, t, 1)
    assert built == [lat._pos[t]]
    assert changed.get(x, t) == 1 and changed.get(lat.elements[0], t) == w.get(lat.elements[0], t)
    assert built == [lat._pos[t]]


def test_audits_of_an_empty_poset_check_nothing():
    empty = build_poset([], [])
    assert_audits_agree(Valuation(empty, {}), BiValuation(empty, {}), 0)


def test_exact_bivaluations_agree_at_the_tolerance_boundary():
    # residuals equal to the tolerance pass, residuals just above it fail
    lat = boolean_lattice("abc")
    v = derive_valuation_from_atoms(lat, {"a": Fraction(1, 3), "b": Fraction(2, 5),
                                          "c": Fraction(4, 7)})
    w = bivaluation_from_valuation(v, 0)
    w = w.with_value("{a}", "{a,b}", w.get("{a}", "{a,b}") + Fraction(1, 10))
    for tol in (Fraction(1, 10), Fraction(1, 10) - Fraction(1, 10 ** 12), 0.1,
                Fraction(1, 20), 0):
        assert_audits_agree(v, w, tol)
        assert check_diamond_lemma(w, tol).passed == (tol >= Fraction(1, 10))


# --- tolerances ---

@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-9,
                                 Fraction(-1, 2)])
def test_vacuous_tolerances_are_rejected(tol):
    lat = boolean_lattice("ab")
    v = Valuation(lat, {"{}": 0.0, "{a}": 1.0, "{b}": 1.0, "{a,b}": 3.0})
    w = bivaluation_from_valuation(v, validate=False)
    for check in (check_sum_rule, check_monotone):
        with pytest.raises(ValueError, match="tolerance"):
            check(v, tol)
    for check, _ in BIVALUATION_RULES:
        with pytest.raises(ValueError, match="tolerance"):
            check(w, tol)
    with pytest.raises(ValueError, match="tolerance"):
        check_product_rule_for_lattice_product(v, v, v, tol)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
def test_rules_audit_rejects_vacuous_tolerance(tmp_path, capsys, tol):
    (tmp_path / "b3.json").write_text((GOLDEN / "b3.json").read_text())
    (tmp_path / "broken.json").write_text(
        '{"{}": 0, "{a}": 1, "{b}": 1, "{c}": 1, "{a,b}": 2, "{a,c}": 2,'
        ' "{b,c}": 2, "{a,b,c}": 7}')
    # monotone audits at tolerance 0 whatever --tol says, but --tol is still checked
    for rules in ("sum,bisum,chain,diamond,context", "monotone"):
        code = run(["rules", "audit", "--poset", str(tmp_path / "b3.json"),
                    "--values", str(tmp_path / "broken.json"), f"--rules={rules}",
                    f"--tol={tol}"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("ordinal: error: tolerance")


@pytest.mark.parametrize("rules", [",", ""])
def test_rules_audit_rejects_an_empty_rule_list(capsys, monkeypatch, rules):
    # no audit would run, and an empty report list would read as a pass
    monkeypatch.chdir(GOLDEN)
    code = run(["rules", "audit", "--poset", "b3.json", "--atoms", "w3.json",
                f"--rules={rules}"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("ordinal: error: rules audit needs")


# --- golden output ---

GOLDEN_RUNS = {
    "b3": (0, ["--poset", "b3.json", "--atoms", "w3.json"]),
    "b4": (0, ["--poset", "b4.json", "--atoms", "w4.json"]),
    "b5": (0, ["--poset", "b5.json", "--atoms", "w5.json"]),
    "b6": (0, ["--poset", "b6.json", "--atoms", "w6.json"]),
    "b3-tol0": (1, ["--poset", "b3.json", "--atoms", "w3.json", "--tol", "0"]),
    "b4-tol0": (1, ["--poset", "b4.json", "--atoms", "w4.json", "--tol", "0"]),
    "b4-shifted": (1, ["--poset", "b4.json", "--values", "shifted4.json", "--rules",
                       "sum,bisum,chain,diamond,context,monotone"]),
    # total values: ints with four floats, two of them off the sum rule
    "b4-mixed": (1, ["--poset", "b4.json", "--values", "mixed4.json", "--rules",
                     "sum,bisum,chain,diamond,context,monotone"]),
    # a bowtie, which is not a lattice: a and b are both below c and d
    "bowtie-monotone": (1, ["--poset", "bowtie.json", "--values", "bowtie-values.json",
                            "--rules", "monotone"]),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_rules_audit_output_is_unchanged(capsys, monkeypatch, name, fmt):
    # the weights sum exactly in floats, so the output does not depend on
    # the order in which atom weights are added
    code, argv = GOLDEN_RUNS[name]
    monkeypatch.chdir(GOLDEN)
    assert run(["rules", "audit", *argv, "--format", fmt]) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / f"{name}.{fmt}.out").read_text()


def test_default_audit_of_b9_counts_every_instance(tmp_path, capsys):
    # 512 elements, and the bottom has measure 0: bisum checks C(512, 2)
    # pairs in each of 511 contexts, and context skips the 512 triples
    # (x, y, z) of each of the 3**9 pairs whose meet is the bottom
    atoms = "abcdefghi"
    (tmp_path / "b9.json").write_text(json.dumps(boolean_lattice(atoms).to_dict()))
    (tmp_path / "w9.json").write_text(json.dumps({a: k for k, a in enumerate(atoms, 1)}))
    assert run(["rules", "audit", "--poset", str(tmp_path / "b9.json"),
                "--atoms", str(tmp_path / "w9.json")]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert {r["rule"]: (r["checked"], r["skipped"]) for r in reports} == {
        "sum": (130_816, 0), "bisum": (66_846_976, 0), "chain": (261_632, 512),
        "diamond": (261_632, 512), "context": (124_140_032, 10_077_696)}


# --- tables and memory ---

def default_audit(v, tol=valuation.DEFAULT_TOL):
    """The audits a default ``rules audit`` runs, in its order."""
    w = bivaluation_from_valuation(v, validate=False)
    return [check_sum_rule(v, tol), *(check(w, tol) for check, _ in BIVALUATION_RULES)]


def test_tables_are_built_once_per_lattice(tmp_path, monkeypatch, capsys):
    built, build = [], valuation._build_table

    def spy(p, kind):
        built.append((kind, id(p), weakref.ref(p)))
        return build(p, kind)
    monkeypatch.setattr(valuation, "_build_table", spy)
    atoms = "abcd"
    weights = {a: k for k, a in enumerate(atoms, 1)}
    (tmp_path / "b4.json").write_text(json.dumps(boolean_lattice(atoms).to_dict()))
    (tmp_path / "w4.json").write_text(json.dumps(weights))
    # at the default tolerance every audit is proved from the valuation and
    # counted in closed form, so no row is built and no table read; at
    # tolerance 0 the float rows are built and run on the kernel, which also
    # reads the join table
    for tol, code, kinds in ((["--tol", "1e-9"], 0, []),
                             (["--tol", "0"], 1, ["down", "join", "meet"])):
        built.clear()
        assert run(["rules", "audit", "--poset", str(tmp_path / "b4.json"),
                    "--atoms", str(tmp_path / "w4.json"), *tol]) == code
        capsys.readouterr()
        # each table at most once, all of the run's one poset, which is
        # gone with the run
        assert sorted(kind for kind, _, _ in built) == kinds
        assert len({p for _, p, _ in built}) == (1 if kinds else 0)
        gc.collect()
        assert all(ref() is None for _, _, ref in built)

    built.clear()
    lat = boolean_lattice(atoms)
    v = derive_valuation_from_atoms(lat, weights)
    default_audit(v)
    assert built == []
    first = default_audit(v, 0)
    assert sorted(kind for kind, _, _ in built) == ["down", "join", "meet"]
    built.clear()
    # a second audit of the same poset builds none, and gets the same reports
    assert [r.to_dict() for r in default_audit(v, 0)] == [r.to_dict() for r in first]
    assert built == []
    # no cache outside the poset keeps it alive
    poset = weakref.ref(lat)
    del lat, v
    gc.collect()
    assert poset() is None


def test_sum_rule_audit_holds_no_array_of_pairs():
    # the audit streams each element's pairs, so at B9 its peak is the two
    # tables it builds and the 130,816 differences, with no array of every
    # pair and its join and meet. Weights k / 10 round in their sums, so
    # _modular does not prove the rule and its block is evaluated
    atoms = "abcdefghi"
    lat = boolean_lattice(atoms)
    v = derive_valuation_from_atoms(lat, {a: k / 10 for k, a in enumerate(atoms, 1)})
    lat.is_lattice()  # the certificate is the poset's, not the audit's
    tracemalloc.start()
    try:
        report = check_sum_rule(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked == 130_816
    assert {"join", "meet"} <= set(lat._tables)
    assert peak < 12 * 2 ** 20


def test_proved_audits_build_no_meet_table():
    # B10's meet table holds 1,048,576 entries, over 8 MiB of list slots
    # alone; the proved sum, context and diamond audits count their
    # instances from the empty rows and read no table, for float weights
    # whose sums are exact as for ints
    atoms = "abcdefghij"
    for weight in (int, lambda k: k / 4):
        lat = boolean_lattice(atoms)
        v = derive_valuation_from_atoms(lat, {a: weight(k) for k, a in enumerate(atoms, 1)})
        w = bivaluation_from_valuation(v, validate=False)
        tracemalloc.start()
        try:
            reports = [check_sum_rule(v), *(check(w) for check in (check_context_product_rule,
                                                                  check_diamond_lemma))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(r.passed, r.checked, r.skipped) for r in reports] == [
            (True, 523_776, 0), (True, 1_013_275_648, 60_466_176), (True, 1_047_552, 1024)]
        assert lat._tables == {}
        assert peak < 2 ** 20


def test_rules_audit_does_not_depend_on_the_hash_seed(tmp_path):
    # 0.1 + 0.2 + 0.7 rounds differently in different orders, and a set of
    # atoms iterates in an order that follows the string hash seed
    (tmp_path / "w3.json").write_text('{"a": 0.1, "b": 0.2, "c": 0.7}')
    argv = [sys.executable, "-m", "ordinal.cli", "rules", "audit", "--poset",
            str(GOLDEN / "b3.json"), "--atoms", str(tmp_path / "w3.json"), "--tol", "0"]
    src = os.path.dirname(os.path.dirname(ordinal.__file__))
    outputs = set()
    for seed in ("1", "2", "3", "4", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outputs.add(subprocess.run(argv, env=env, capture_output=True, text=True,
                                   timeout=60).stdout)
    assert len(outputs) == 1 and '"rule": "sum"' in outputs.pop()
