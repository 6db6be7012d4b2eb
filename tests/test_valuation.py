import math
import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from ordinal import (BiValuation, LatticeMismatch, NegativeAtomValue, NotALattice,
                     UnknownElement, Valuation, ZeroMeasureContext,
                     bivaluation_from_valuation, boolean_lattice, chain_poset,
                     check_bivaluation_sum_rule, check_chain_rule,
                     check_context_product_rule, check_diamond_lemma,
                     check_monotone, check_product_rule_for_lattice_product,
                     build_poset, check_sum_rule, derive_valuation_from_atoms,
                     divisor_lattice, lattice_product, pair_id, parse_subset_id,
                     partition_lattice)
from ordinal import valuation

WEIGHTS = {"a": 0.2, "b": 0.3, "c": 0.5}


def counting_valuation(lat):
    return Valuation(lat, {e: len(parse_subset_id(e)) for e in lat.elements})


def subset_sum(element, weights):
    """Independent oracle: evaluate a derived valuation by direct summation."""
    return sum(weights[a] for a in parse_subset_id(element))


@pytest.fixture(scope="module")
def vb3(b3):
    return derive_valuation_from_atoms(b3, WEIGHTS)


@pytest.fixture(scope="module")
def wb3(vb3):
    return bivaluation_from_valuation(vb3)


# --- valuation construction ---

def test_valuation_must_be_total(b3):
    with pytest.raises(ValueError):
        Valuation(b3, {"{a}": 1.0})


def test_valuation_unknown_element(vb3):
    with pytest.raises(UnknownElement):
        vb3("{z}")
    with pytest.raises(UnknownElement):
        vb3.replace("{z}", 1.0)


def test_derived_values_match_summation_oracle(b3, vb3):
    for element in b3.elements:
        assert vb3(element) == pytest.approx(subset_sum(element, WEIGHTS), abs=1e-15)
    assert vb3("{a,b}") == pytest.approx(0.5)
    assert vb3("{a,b,c}") == pytest.approx(1.0)
    assert vb3("{}") == 0


def test_derived_all_zero_atoms(b3):
    v = derive_valuation_from_atoms(b3, {"a": 0, "b": 0, "c": 0})
    assert all(v(e) == 0 for e in b3.elements)


def test_negative_atom_rejected(b3):
    with pytest.raises(NegativeAtomValue):
        derive_valuation_from_atoms(b3, {"a": -0.1, "b": 0.6, "c": 0.5})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_atom_weight_rejected(b3, bad):
    # with a NaN or infinite weight every audit would pass vacuously
    with pytest.raises(ValueError, match="non-finite"):
        derive_valuation_from_atoms(b3, {"a": bad, "b": 0.6, "c": 0.5})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_rejected(b3, bad):
    # a NaN residual never exceeds the tolerance, so every audit would pass
    values = {e: float(len(parse_subset_id(e))) for e in b3.elements}
    with pytest.raises(ValueError, match="non-finite"):
        Valuation(b3, {**values, "{a}": bad})
    with pytest.raises(ValueError, match="non-finite"):
        Valuation(b3, values).replace("{a,b}", bad)


def test_undefined_value_accepted(b3):
    values = {e: float(len(parse_subset_id(e))) for e in b3.elements}
    assert Valuation(b3, {**values, "{a}": None})("{a}") is None


def test_a_valuation_with_a_hole_is_not_conditioned_on(b3):
    # the sum rule skips the pairs that read the hole, so validation passes
    # it, but the hole would lie inside every derived row above {a}
    values = {e: len(parse_subset_id(e)) for e in b3.elements}
    v = Valuation(b3, {**values, "{a}": None})
    assert check_sum_rule(v, 0).passed
    for validate in (True, False):
        with pytest.raises(ValueError, match=r"element '\{a\}' has no value"):
            bivaluation_from_valuation(v, validate=validate)


def test_derive_needs_matching_boolean_lattice(b3):
    with pytest.raises(ValueError):
        derive_valuation_from_atoms(b3, {"a": 0.5, "b": 0.5})


def folded(element, weights):
    """Oracle: the weights of element's atoms added left to right in atom
    order from the int 0, which is what sum() does up to Python 3.11 (from
    3.12 on, sum() compensates float rounding)."""
    return reduce(add, (weights[a] for a in sorted(parse_subset_id(element))), 0)


BOOLEANS = {n: boolean_lattice("abcdef"[:n]) for n in range(1, 7)}
WEIGHT_KINDS = {
    "int": st.integers(0, 10 ** 6),
    "sixteenths": st.integers(0, 1000).map(lambda k: k / 16),
    "tenths": st.integers(0, 1000).map(lambda k: k / 10),
    "fraction": st.fractions(min_value=0, max_value=100, max_denominator=60),
    "int or fraction": st.integers(0, 100) | st.fractions(min_value=0, max_value=100,
                                                          max_denominator=60),
    "negative zero": st.sampled_from([-0.0, 0.0, 0, 0.1, Fraction(0)]),
}


def reversed_ids(lat):
    """lat with each id's atoms listed in reverse, as {b,a}: ids that no
    generator writes, but that name the same subsets."""
    name = {e: "{" + ",".join(sorted(parse_subset_id(e), reverse=True)) + "}"
            for e in lat.elements}
    return build_poset(name.values(), [(name[a], name[b]) for a, b in lat.covers]), name


def typed(value):
    return repr(value), type(value)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(BOOLEANS)), st.sampled_from(sorted(WEIGHT_KINDS)), st.data())
def test_derived_values_are_the_left_fold_of_their_weights(n, kind, data):
    lat = BOOLEANS[n]
    weights = dict(zip("abcdef", data.draw(st.lists(WEIGHT_KINDS[kind], min_size=n,
                                                     max_size=n))))
    v = derive_valuation_from_atoms(lat, weights)
    assert list(v.values) == list(lat.elements)
    assert [typed(v(e)) for e in lat.elements] == [typed(folded(e, weights))
                                                    for e in lat.elements]
    # ids that are not canonical are parsed, and get the same values
    renamed, name = reversed_ids(lat)
    u = derive_valuation_from_atoms(renamed, weights)
    assert [typed(u(name[e])) for e in lat.elements] == [typed(v(e)) for e in lat.elements]


@pytest.mark.parametrize("elements, covers, weights, message", [
    # a key holding ',' names no atom of any id: {a,b} holds the atoms a and b
    (["{}", "{a,b}"], [("{}", "{a,b}")], {"a,b": 1},
     "element '{a,b}' uses atoms outside the weight map"),
    # an empty key would join to the id of the empty set; {,b} is no subset id
    (["{}", "{b}", "{,b}", "{b,}"], [("{}", "{b}"), ("{b}", "{,b}"), ("{b}", "{b,}")],
     {"": 1, "b": 2}, "'{,b}' is not a subset id"),
    # a key that is not a str names no atom of any id
    (["{}", "{1}"], [("{}", "{1}")], {1: 1}, "element '{1}' uses atoms outside the weight map"),
])
def test_derive_refuses_ids_that_its_weight_keys_do_not_name(elements, covers, weights, message):
    with pytest.raises(ValueError) as refused:
        derive_valuation_from_atoms(build_poset(elements, covers), weights)
    assert str(refused.value) == message


# --- sum rule ---

def test_counting_valuation_passes_sum_rule_exactly(b3):
    report = check_sum_rule(counting_valuation(b3), tol=0)
    assert report.passed and report.checked == 28


def test_constructed_counterexample_has_residual_one():
    b2 = boolean_lattice("ab")
    v = Valuation(b2, {"{}": 0.0, "{a}": 1.0, "{b}": 1.0, "{a,b}": 3.0})
    report = check_sum_rule(v, tol=1e-9)
    assert [tuple(viol.instance) for viol in report.violations] == [("{a}", "{b}")]
    assert report.violations[0].residual == pytest.approx(1.0)


def test_probability_valuation_passes(vb3):
    assert check_sum_rule(vb3, tol=1e-9).passed


def test_sum_rule_requires_lattice(bowtie):
    v = Valuation(bowtie, {e: 1.0 for e in bowtie.elements})
    with pytest.raises(NotALattice):
        check_sum_rule(v)


def test_derived_valuation_is_monotone(vb3):
    assert check_monotone(vb3).passed


# --- product rule for lattice products ---

def test_counting_product_valuation_passes():
    c2 = chain_poset(["0", "1"])
    v = Valuation(c2, {"0": 0, "1": 1})
    prod = lattice_product(c2, c2)
    vpq = Valuation(prod, {pair_id(x, y): int(x) * int(y)
                           for x in "01" for y in "01"})
    assert check_product_rule_for_lattice_product(v, v, vpq, tol=0).passed


def test_independent_weights_on_product_of_diamonds():
    b1 = boolean_lattice("a")
    b1c = boolean_lattice("c")
    vp = derive_valuation_from_atoms(b1, {"a": 0.3})
    vq = derive_valuation_from_atoms(b1c, {"c": 0.7})
    prod = lattice_product(b1, b1c)
    vpq = Valuation(prod, {pair_id(x, y): vp(x) * vq(y)
                           for x in b1.elements for y in b1c.elements})
    assert check_product_rule_for_lattice_product(vp, vq, vpq, tol=1e-9).passed


def test_product_valuation_must_hold_every_pair():
    c2 = chain_poset(["0", "1"])
    v = Valuation(c2, {"0": 0, "1": 1})
    # four elements, as |P| * |Q| asks, but none of them a pair id
    vpq = Valuation(chain_poset("wxyz"), dict(zip("wxyz", range(4))))
    with pytest.raises(LatticeMismatch, match="product lattice lacks element"):
        check_product_rule_for_lattice_product(v, v, vpq)


def test_perturbed_product_valuation_flagged_once():
    c2 = chain_poset(["0", "1"])
    v = Valuation(c2, {"0": 0, "1": 1})
    prod = lattice_product(c2, c2)
    values = {pair_id(x, y): int(x) * int(y) for x in "01" for y in "01"}
    values[pair_id("1", "1")] += 0.1
    vpq = Valuation(prod, values)
    report = check_product_rule_for_lattice_product(v, v, vpq, tol=1e-9)
    assert len(report.violations) == 1
    assert tuple(report.violations[0].instance) == ("1", "1")


def test_product_rule_skips_and_counts_the_instances_that_read_a_hole():
    b1 = boolean_lattice("a")
    prod = lattice_product(b1, b1)
    vpq = Valuation(prod, {pair_id(x, y): 0 for x in b1.elements for y in b1.elements})
    # v({a}) has no value, so three of the four instances read a hole: in P,
    # in Q or in both; the one that reads none violates
    holed = Valuation(b1, {"{}": 1, "{a}": None})
    report = check_product_rule_for_lattice_product(holed, holed, vpq, tol=0)
    assert (report.checked, report.skipped) == (1, 3)
    assert [(v.instance, v.lhs, v.rhs) for v in report.violations] == [(("{}", "{}"), 0, 1)]
    # a hole in the product valuation skips its one instance
    report = check_product_rule_for_lattice_product(
        Valuation(b1, {"{}": 0, "{a}": 1}), Valuation(b1, {"{}": 0, "{a}": 1}),
        vpq.replace(pair_id("{a}", "{a}"), None), tol=0)
    assert (report.checked, report.skipped, report.passed) == (3, 1, True)


def test_product_rule_lattice_mismatch(b3):
    c2 = chain_poset(["0", "1"])
    v = Valuation(c2, {"0": 0, "1": 1})
    vb = counting_valuation(b3)
    with pytest.raises(LatticeMismatch):
        check_product_rule_for_lattice_product(v, v, vb)


# --- bi-valuations ---

def test_conditional_ratio(wb3):
    assert wb3.value("{a}", "{a,b}") == pytest.approx(0.4)


def test_context_includes_itself_fully(vb3, wb3):
    for x in wb3.contexts():
        assert wb3.value(x, x) == pytest.approx(1.0)


def test_disjoint_elements_have_zero_inclusion(wb3):
    assert wb3.value("{a}", "{b}") == 0


def test_zero_measure_context_is_undefined(b3):
    v = derive_valuation_from_atoms(b3, {"a": 0.0, "b": 0.4, "c": 0.6})
    w = bivaluation_from_valuation(v)
    with pytest.raises(ZeroMeasureContext):
        w.value("{b}", "{a}")
    assert w.get("{b}", "{a}") is None


def test_bivaluation_value_of_an_unknown_element(wb3):
    # an id that is not in the poset is unknown, not a zero-measure context,
    # as for Valuation and with_value
    for key in (("zzz", "{a}"), ("{a}", "zzz")):
        with pytest.raises(UnknownElement, match="not in the poset"):
            wb3.value(*key)
        assert wb3.get(*key) is None


def test_bivaluation_refuses_nan_and_keeps_infinity(b3, wb3):
    # a NaN entry would pass every audit that reads it
    nan = float("nan")
    with pytest.raises(ValueError, match=r"\('\{a\}', '\{b\}'\) has value NaN"):
        wb3.with_value("{a}", "{b}", nan)
    with pytest.raises(ValueError, match=r"\('\{c\}', '\{a,c\}'\) has value NaN"):
        BiValuation(b3, {("{a}", "{a}"): 1.0, ("{c}", "{a,c}"): nan})
    # a derived quotient can overflow to inf, and a copy of the table keeps it
    p = chain_poset("ab")
    w = bivaluation_from_valuation(Valuation(p, {"a": 1e308, "b": 1e-10}), validate=False)
    assert w.get("a", "b") == math.inf
    copied = BiValuation(p, w.table)
    assert copied.get("a", "b") == math.inf and dict(copied.table) == dict(w.table)
    assert wb3.with_value("{a}", "{b}", -math.inf).get("{a}", "{b}") == -math.inf


def test_bivaluation_normalization(vb3, wb3):
    top = vb3.poset.top()
    bottom = vb3.poset.bottom()
    assert wb3.value(top, top) == 1
    for t in wb3.contexts():
        assert wb3.value(bottom, t) == 0


def test_bivaluation_requires_sum_rule():
    b2 = boolean_lattice("ab")
    bad = Valuation(b2, {"{}": 0.0, "{a}": 1.0, "{b}": 1.0, "{a,b}": 3.0})
    with pytest.raises(ValueError):
        bivaluation_from_valuation(bad)


# --- bi-valuation rows, read through the public API only ---

LATTICES = {"B4": lambda: boolean_lattice("abcd"),
            "P4": lambda: partition_lattice("abcd"),
            "D60": lambda: divisor_lattice(60)}


def mixed_valuation(p, seed):
    """Seeded ints, Fractions and floats on p, some zero or negative; v(bottom) = 0."""
    rng = random.Random(seed)
    draws = (lambda: rng.randint(-2, 9), lambda: rng.uniform(-1, 5),
             lambda: Fraction(rng.randint(-2, 9), rng.randint(1, 7)))
    values = {e: rng.choice(draws)() for e in p.elements}
    return Valuation(p, {**values, p.bottom(): 0})


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_bivaluation_rows_match_public_calls(name):
    p = LATTICES[name]()
    v = mixed_valuation(p, seed=len(p))
    w = bivaluation_from_valuation(v, validate=False)
    for t in p.elements:
        for x in p.elements:
            expected = v(p.meet(x, t)) / v(t) if v(t) > 0 else None
            assert w.get(x, t) == expected and type(w.get(x, t)) is type(expected)
    contexts = [t for t in sorted(p.elements) if v(t) > 0]
    assert w.contexts() == contexts
    assert list(w.table) == [(x, t) for t in contexts for x in p.elements]


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_bivaluation_survives_a_round_trip_through_its_table(name):
    p = LATTICES[name]()
    w = bivaluation_from_valuation(mixed_valuation(p, seed=len(p)), validate=False)
    x, dead, live = p.top(), p.bottom(), w.contexts()[0]
    emptied = w.with_value(x, dead, None)  # a context that holds only None
    changed = w.with_value(x, live, 7)
    assert dead not in w.contexts() and dead in emptied.contexts()
    assert all(emptied.table[(y, dead)] is None for y in p.elements)
    assert changed.get(x, live) == 7 != w.get(x, live)
    for u in (w, emptied, changed):
        back = BiValuation(p, u.table)
        assert back.contexts() == u.contexts() and back.table == u.table
        assert all(back.get(y, t) is u.get(y, t)
                   for y in p.elements for t in p.elements)
    for key in (("nope", x), (x, "nope")):
        with pytest.raises(UnknownElement):
            BiValuation(p, {key: 1})
        with pytest.raises(UnknownElement):
            w.with_value(*key, 1)


# --- the table view ---

def table_as_dict(w):
    """The dict that ``table`` built on each access before it became a view."""
    pos = w.poset._pos
    rows = {t: valuation._row(w._rows, pos[t]) for t in w.contexts()}
    return {(x, t): None if row[pos[x]] is valuation._UNDEFINED else row[pos[x]]
            for t, row in rows.items() for x in w.poset.elements}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_table_view_matches_the_dict_it_replaced(name):
    p = LATTICES[name]()
    w = bivaluation_from_valuation(mixed_valuation(p, seed=len(p)), validate=False)
    live = w.contexts()[0]
    holed = w.with_value(p.top(), live, None)
    for u in (w, holed, BiValuation(p, holed.table)):
        expected = table_as_dict(u)
        assert dict(u.table) == expected and list(u.table) == list(expected)
        assert u.table == expected and len(u.table) == len(expected)
    assert holed.table[(p.top(), live)] is None and w.table[(p.top(), live)] is not None
    # the bottom has measure 0, so it has no row
    for key in ((p.top(), p.bottom()), ("nope", live), (live, "nope"), "nope", (live,)):
        with pytest.raises(KeyError):
            w.table[key]
        assert key not in w.table
    assert not hasattr(w.table, "__setitem__")
    with pytest.raises(TypeError):
        w.table[(p.top(), live)] = 1


def test_bivaluation_of_b9_stays_small():
    # one row per context holds about 8 MB here; an (x, t)-keyed dict held 30 MB
    lat = boolean_lattice("abcdefghi")
    v = derive_valuation_from_atoms(lat, {a: (i + 1) / 16
                                          for i, a in enumerate("abcdefghi")})
    lat.is_lattice()
    tracemalloc.start()
    try:
        w = bivaluation_from_valuation(v, validate=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w.contexts()) == len(lat) - 1
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_monotone_audit_of_b10_reads_the_shared_down_sets():
    # values that rise along every cover are proved from the covers; where
    # the top falls to 0, the kernel runs one block per y over the shared
    # down-sets, which peaks at about 1.6 MB here; a list of all
    # 3**10 - 2**10 comparable pairs and two gathers over it peaked at 8.4 MB
    lat = boolean_lattice("abcdefghij")
    v = derive_valuation_from_atoms(lat, {a: i for i, a in enumerate("abcdefghij", 1)})
    for values, violations in ((v, 0), (v.replace("{a,b,c,d,e,f,g,h,i,j}", 0), 1022)):
        tracemalloc.start()
        try:
            report = check_monotone(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.checked == 3 ** 10 - 2 ** 10 and len(report.violations) == violations
        assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


# --- chain rule ---

def test_chain_rule_specific_instance(wb3):
    lhs = wb3.value("{a}", "{a,b,c}")
    rhs = wb3.value("{a}", "{a,b}") * wb3.value("{a,b}", "{a,b,c}")
    assert lhs == pytest.approx(0.2)
    assert rhs == pytest.approx(0.4 * 0.5)
    assert check_chain_rule(wb3, tol=1e-9).passed


def test_chain_rule_flags_overwritten_entry(wb3):
    broken = wb3.with_value("{a}", "{a,b,c}", 0.9)
    report = check_chain_rule(broken, tol=1e-9)
    assert not report.passed
    assert any(viol.instance[0] == "{a}" and viol.instance[2] == "{a,b,c}"
               for viol in report.violations)


# --- diamond lemma ---

def test_diamond_lemma_passes_tightly(wb3):
    assert check_diamond_lemma(wb3, tol=1e-12).passed


def test_diamond_lemma_comparable_cases(wb3):
    # y above x: both sides are w(x|x) = 1; y below x: the identity is trivial
    assert wb3.value("{a,b}", "{a}") == wb3.value("{a}", "{a}") == 1
    assert wb3.value("{a}", "{a,b}") == wb3.value("{a}", "{a,b}")


# --- context product rule ---

def test_context_product_specific_instance(wb3):
    top = "{a,b,c}"
    lhs = wb3.value("{a}", top)  # {a,b} meet {a,c}, given top
    rhs = wb3.value("{a,c}", "{a,b}") * wb3.value("{a,b}", top)
    assert lhs == pytest.approx(0.2)
    assert rhs == pytest.approx(0.4 * 0.5)
    assert check_context_product_rule(wb3, tol=1e-9).passed


def test_context_product_on_random_b4_instances():
    rng = random.Random(1123)
    lat = boolean_lattice("abcd")
    for _ in range(50):
        weights = {a: rng.uniform(0.05, 1.0) for a in "abcd"}
        w = bivaluation_from_valuation(derive_valuation_from_atoms(lat, weights))
        assert check_context_product_rule(w, tol=1e-9).passed


# --- per-context sum rule ---

def test_bivaluation_sum_rule_passes_tightly(wb3):
    assert check_bivaluation_sum_rule(wb3, tol=1e-12).passed


def test_bivaluation_sum_rule_at_top_matches_plain_sum_rule(vb3, wb3):
    top = vb3.poset.top()
    p = vb3.poset
    for x in p.elements:
        for y in p.elements:
            lhs = wb3.value(p.join(x, y), top) + wb3.value(p.meet(x, y), top)
            rhs = wb3.value(x, top) + wb3.value(y, top)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_bivaluation_sum_rule_witness_carries_context(wb3):
    broken = wb3.with_value("{a}", "{a,b}", 0.95)
    report = check_bivaluation_sum_rule(broken, tol=1e-9)
    assert not report.passed
    assert all(viol.instance[0] in broken.contexts() for viol in report.violations)
    assert any(viol.instance[0] == "{a,b}" for viol in report.violations)


# --- exact arithmetic fixtures ---

def test_integer_weights_audit_exactly():
    lat = boolean_lattice("abcd")
    weights = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(3), "d": Fraction(4)}
    v = derive_valuation_from_atoms(lat, weights)
    w = bivaluation_from_valuation(v, tol=0)
    for report in (check_sum_rule(v, tol=0), check_monotone(v),
                   check_bivaluation_sum_rule(w, tol=0), check_chain_rule(w, tol=0),
                   check_diamond_lemma(w, tol=0), check_context_product_rule(w, tol=0)):
        assert report.passed, report.rule


# --- property tests ---

positive_weights = st.lists(
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False), min_size=3,
    max_size=3)


@settings(max_examples=40, deadline=None)
@given(positive_weights)
def test_random_weights_pass_all_audits(raw):
    lat = boolean_lattice("abc")
    v = derive_valuation_from_atoms(lat, dict(zip("abc", raw)))
    w = bivaluation_from_valuation(v)
    assert check_sum_rule(v, tol=1e-9).passed
    assert check_monotone(v, tol=1e-12).passed
    assert check_bivaluation_sum_rule(w, tol=1e-9).passed
    assert check_chain_rule(w, tol=1e-9).passed
    assert check_diamond_lemma(w, tol=1e-9).passed
    assert check_context_product_rule(w, tol=1e-9).passed


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=15), st.booleans())
def test_single_perturbation_is_always_detected(site, sign):
    tol = 1e-9
    lat = boolean_lattice("abcd")
    v = derive_valuation_from_atoms(
        lat, {"a": Fraction(1, 7), "b": Fraction(2, 7), "c": Fraction(3, 7),
              "d": Fraction(1, 7)})
    element = lat.elements[site]
    delta = (1 if sign else -1) * 2e-8  # well above 10 * tol
    perturbed = v.replace(element, float(v(element)) + delta)
    flagged = (not check_sum_rule(perturbed, tol).passed
               or not check_monotone(perturbed, tol).passed)
    assert flagged
