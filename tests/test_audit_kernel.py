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
                     partition_lattice)
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


def test_chain_rule_on_a_poset_that_is_not_a_lattice(bowtie):
    # the chain rule needs no joins or meets; a hole and an exact table
    table = {(x, t): Fraction(1, 1 + len(x + t)) for x in "pqrs" for t in "pqrs"
             if bowtie.leq(x, t)}
    table[("p", "s")] = None
    for w in (BiValuation(bowtie, table),
              BiValuation(bowtie, {k: float(v or 0) for k, v in table.items()})):
        for tol in (0, 1e-9):
            assert_same_report(check_chain_rule(w, tol), ref.check_chain_rule(w, tol))


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
    """w with the object that row t holds at x replaced, wherever row t
    holds it, by that value plus delta in a new object: row t stays
    diamond-exact, and the chain stand-ins of context blocks reading it
    fail."""
    changed = BiValuation(w.poset, {})
    changed._rows[:] = w._rows
    old = w._rows[t][x]
    new = old + delta
    changed._rows[t] = [new if e is old else e for e in w._rows[t]]
    return changed


@st.composite
def reduced_inputs(draw):
    """A bi-valuation on one of REDUCED_LATTICES and a tolerance: as built,
    with one quotient of a row changed in place, changed with with_value,
    or copied through a plain dict whose rows share no float or Fraction
    between their entries."""
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
    tol = draw(tolerances)
    w = bivaluation_from_valuation(v, tol, validate=False)
    contexts = [t for t, row in enumerate(w._rows) if row is not None]
    if contexts and draw(st.booleans()):  # one quotient changed wherever its row holds it
        w = changed_quotient(w, draw(st.sampled_from(contexts)),
                             draw(st.integers(0, len(lat) - 1)), draw(number(kind, 2)))
    for _ in range(draw(st.integers(0, 3))):  # with_value: changed, new or undefined
        x, t = draw(st.sampled_from(lat.elements)), draw(st.sampled_from(lat.elements))
        w = w.with_value(x, t, draw(st.none() | number(kind, 2)))
    if draw(st.booleans()):
        w = BiValuation(lat, {key: fresh(value) for key, value in w.table.items()})
    return w, tol


@settings(max_examples=80, deadline=None)
@given(reduced_inputs())
def test_reduced_audits_match_reference_loops(case):
    w, tol = case
    for check, reference in REDUCED_RULES:
        assert_same_report(check(w, tol), reference(w, tol))


@pytest.mark.parametrize("name", sorted(REDUCED_LATTICES))
def test_only_a_distributive_lattice_reduces_the_bisum_audit(monkeypatch, name):
    lat = REDUCED_LATTICES[name]
    assert valuation._distributive(lat) == (name in DISTRIBUTIVE)
    handed, tested, kernel = [], [], valuation._kernel

    def spy(*args, proof=None, **options):
        handed.append(proof is not None)
        if proof:
            stand_in, sound, expand = proof
            proof = (lambda rows, scale, key: tested.append(key) or stand_in(rows, scale, key),
                     sound, expand)
        return kernel(*args, proof=proof, **options)
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


@pytest.mark.parametrize("change", ["shifted", "changed quotient"])
@pytest.mark.parametrize("name", ["B4", "D60"])
def test_failing_stand_ins_decide_diamond_exact_rows(monkeypatch, name, change):
    lat = REDUCED_LATTICES[name]
    v = irreducible_sums(lat, range(1, len(lat.join_irreducibles()) + 1))
    middle = lat.elements[len(lat) // 2]
    if change == "shifted":
        v = v.replace(middle, v(middle) + 1)
    w = bivaluation_from_valuation(v, validate=False)
    if change == "changed quotient":
        w = changed_quotient(w, len(lat) - 1, lat._pos[middle], 0.5)
    assert all(valuation._diamond_exact(w._rows, valuation._table(lat, "meet"))[1:])
    kernel, ran = valuation._kernel, []

    def spy(rule, tol, p, raw, blocks, block, *rest, **options):
        def spied(rows, scale, key):
            ran.append((rule, key))
            return block(rows, scale, key)
        return kernel(rule, tol, p, raw, blocks, spied, *rest, **options)
    monkeypatch.setattr(valuation, "_kernel", spy)
    # every row with a context is diamond-exact, so the stand-ins decide
    # every block, the failing ones included, and no block runs itself
    reports = [(check(w, 0), reference(w, 0)) for check, reference in REDUCED_RULES]
    assert ran == []
    for report, expected in reports:
        assert_same_report(report, expected)
    failed = {report.rule for report, _ in reports if not report.passed}
    assert "bisum" in failed and ("context" in failed or change == "shifted")


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
    meet, top = valuation._table(lat, "meet"), len(lat) - 1
    # the bottom has measure 0 and no row
    assert valuation._diamond_exact(w._rows, meet) == [False] + [True] * top
    copied = BiValuation(lat, {key: fresh(value) for key, value in w.table.items()})
    # only at the top is x ^ t always x itself
    assert valuation._diamond_exact(copied._rows, meet) == [False] * top + [True]
    # with_value copies the row it changes, which then holds a new object
    # at {a} and the old one at {a,c}, whose meet with {a,b} is {a}
    changed = w.with_value("{a}", "{a,b}", w.get("{a}", "{a,b}") + 0.5)
    exact = valuation._diamond_exact(changed._rows, meet)
    assert [lat._at[t] for t, ok in enumerate(exact) if not ok] == ["{}", "{a,b}"]
    holed = w.with_value("{c}", "{a,b}", None)
    assert not valuation._diamond_exact(holed._rows, meet)[lat._pos["{a,b}"]]


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

def default_audit(v):
    """The audits a default ``rules audit`` runs, in its order."""
    w = bivaluation_from_valuation(v, validate=False)
    return [check_sum_rule(v), *(check(w) for check, _ in BIVALUATION_RULES)]


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
    assert run(["rules", "audit", "--poset", str(tmp_path / "b4.json"),
                "--atoms", str(tmp_path / "w4.json")]) == 0
    capsys.readouterr()
    # one meet table, one join table and one down-set list, all of the
    # run's one poset, which is gone with the run
    assert sorted(kind for kind, _, _ in built) == ["down", "join", "meet"]
    assert len({p for _, p, _ in built}) == 1
    gc.collect()
    assert all(ref() is None for _, _, ref in built)

    built.clear()
    lat = boolean_lattice(atoms)
    v = derive_valuation_from_atoms(lat, weights)
    first = default_audit(v)
    assert sorted(kind for kind, _, _ in built) == ["down", "join", "meet"]
    built.clear()
    # a second audit of the same poset builds none, and gets the same reports
    assert [r.to_dict() for r in default_audit(v)] == [r.to_dict() for r in first]
    assert built == []
    # no cache outside the poset keeps it alive
    poset = weakref.ref(lat)
    del lat, v
    gc.collect()
    assert poset() is None


def test_sum_rule_audit_holds_no_array_of_pairs():
    # the audit streams each element's pairs, so at B9 its peak is the two
    # tables it builds and the 130,816 differences, with no array of every
    # pair and its join and meet
    atoms = "abcdefghi"
    lat = boolean_lattice(atoms)
    v = derive_valuation_from_atoms(lat, {a: k for k, a in enumerate(atoms, 1)})
    lat.is_lattice()  # the certificate is the poset's, not the audit's
    tracemalloc.start()
    try:
        report = check_sum_rule(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked == 130_816
    assert peak < 12 * 2 ** 20


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
