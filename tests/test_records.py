"""The value records behave as the frozen dataclasses they replace did.

The expected reprs and hashes below were printed by the dataclass versions.
A hash that mixes in a string or None follows the process, so those
records are checked against the hash of their field tuple instead, which
is how a frozen dataclass hashed.
"""
import copy
import math
import pickle
import sys
from fractions import Fraction

import pytest

from ordinal import (AtomDistribution, Boost, Event, IntervalPair, LatticeCertificate,
                     NonPositiveBoost, ObserverChain, Partition, RelevanceReport,
                     RuleReport, RuleViolation, Valuation, chain_poset)
from ordinal.poset import StandardContext
from ordinal.serialize import Scene

F = Fraction

# name -> (build, the dataclass repr, its fields in order, one field changed)
RECORDS = {
    "RuleViolation": (
        lambda: RuleViolation(("a", "b"), 1, F(1, 2), -0.5),
        "RuleViolation(instance=('a', 'b'), lhs=1, rhs=Fraction(1, 2), residual=-0.5)",
        {"instance": ("a", "b"), "lhs": 1, "rhs": F(1, 2), "residual": -0.5},
        lambda: RuleViolation(("a", "b"), 1, F(1, 2), 0.5)),
    "RuleReport": (
        lambda: RuleReport("sum", 3, 1e-9, [RuleViolation(("x",), 1, 2, 1)], 1),
        "RuleReport(rule='sum', checked=3, tolerance=1e-09, violations=[RuleViolation("
        "instance=('x',), lhs=1, rhs=2, residual=1)], skipped=1)",
        {"rule": "sum", "checked": 3, "tolerance": 1e-9,
         "violations": [RuleViolation(("x",), 1, 2, 1)], "skipped": 1},
        lambda: RuleReport("sum", 3, 1e-9, [], 1)),
    "LatticeCertificate": (
        lambda: LatticeCertificate(False, ("a", "b")),
        "LatticeCertificate(is_lattice=False, witness=('a', 'b'))",
        {"is_lattice": False, "witness": ("a", "b")},
        lambda: LatticeCertificate(False, ("a", "c"))),
    "StandardContext": (
        lambda: StandardContext((0,), (1,), [0, 1], [1, 0], {0: 0}, {1: 0}),
        "StandardContext(join_irreducibles=(0,), meet_irreducibles=(1,), extent=[0, 1], "
        "intent=[1, 0], by_extent={0: 0}, by_intent={1: 0})",
        {"join_irreducibles": (0,), "meet_irreducibles": (1,), "extent": [0, 1],
         "intent": [1, 0], "by_extent": {0: 0}, "by_intent": {1: 0}},
        lambda: StandardContext((0,), (1,), [0, 1], [1, 0], {0: 0}, {})),
    "Partition": (
        lambda: Partition(frozenset([frozenset("a")])),
        "Partition(blocks=frozenset({frozenset({'a'})}))",
        {"blocks": frozenset([frozenset("a")])},
        lambda: Partition(frozenset([frozenset("b")]))),
    "AtomDistribution": (
        lambda: AtomDistribution({"a": 0.25, "b": 0.75}),
        "AtomDistribution(probs={'a': 0.25, 'b': 0.75})",
        {"probs": {"a": 0.25, "b": 0.75}},
        lambda: AtomDistribution({"a": 0.75, "b": 0.25})),
    "RelevanceReport": (
        lambda: RelevanceReport(1.0, 1.0, 1.5, 0.5),
        "RelevanceReport(h_a=1.0, h_b=1.0, h_joint=1.5, mi=0.5)",
        {"h_a": 1.0, "h_b": 1.0, "h_joint": 1.5, "mi": 0.5},
        lambda: RelevanceReport(1.0, 1.0, 2.0, 0.0)),
    "Event": (
        lambda: Event(1, "1/2"),
        "Event(t=Fraction(1, 1), x=Fraction(1, 2))",
        {"t": F(1), "x": F(1, 2)},
        lambda: Event(1, 0)),
    "ObserverChain": (
        lambda: ObserverChain(Event(0, 5), "1/2", 2, (1, 9), "Q"),
        "ObserverChain(origin=Event(t=Fraction(0, 1), x=Fraction(5, 1)), k=Fraction(1, 2), "
        "tick=Fraction(2, 1), index_range=(1, 9), label='Q')",
        {"origin": Event(0, 5), "k": F(1, 2), "tick": F(2), "index_range": (1, 9),
         "label": "Q"},
        lambda: ObserverChain(Event(0, 5), "1/2", 2, (1, 9), "P")),
    "IntervalPair": (
        lambda: IntervalPair(3, F(-1, 3)),
        "IntervalPair(dp=Fraction(3, 1), dq=Fraction(-1, 3))",
        {"dp": F(3), "dq": F(-1, 3)},
        lambda: IntervalPair(3, 3)),
    "Boost": (
        lambda: Boost(2),
        "Boost(k=Fraction(2, 1))",
        {"k": F(2)},
        lambda: Boost(3)),
    "Scene": (
        lambda: Scene({"e": Event(1, 0)}, {}),
        "Scene(events={'e': Event(t=Fraction(1, 1), x=Fraction(0, 1))}, chains={}, frames={})",
        {"events": {"e": Event(1, 0)}, "chains": {}, "frames": {}},
        lambda: Scene({}, {})),
}
# records with a field that is a list or dict have no hash, as before
UNHASHABLE = {"RuleReport", "StandardContext", "AtomDistribution", "Scene"}
# hashes of records whose fields hold only numbers, tuples of them and ""
# (hash("") is 0 under every hash seed), as the dataclasses gave them
FIXED_HASHES = {
    "RelevanceReport": (lambda: RelevanceReport(1.0, 1.0, 1.5, 0.5), 5259956575533862572),
    "RuleViolation": (lambda: RuleViolation((1, 2), 1, F(1, 2), -0.5), 380136664450014897),
    "Event": (lambda: Event(1, "1/2"), 3180726016069507864),
    "IntervalPair": (lambda: IntervalPair(3, F(-1, 3)), -2026652390027676766),
    "Boost": (lambda: Boost(2), 6909455589863252355),
    "ObserverChain": (lambda: ObserverChain(Event(0, 5), "1/2", 2, (1, 9)),
                      1797608521140322755),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_eq_and_hash_are_the_dataclass_ones(name):
    build, text, named, changed = RECORDS[name]
    record, fields = build(), tuple(named.values())
    assert type(record).__name__ == name
    assert repr(record) == text
    assert tuple(getattr(record, field) for field in named) == fields
    assert record == build() and not record != build()
    assert record != changed()
    assert record != fields and record.__eq__(fields) is NotImplemented
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(fields) == hash(build())


def test_records_of_different_classes_never_compare_equal():
    assert Event(1, 2) != IntervalPair(1, 2)
    assert IntervalPair(1, 2) != Event(1, 2)


@pytest.mark.parametrize("name", FIXED_HASHES)
def test_hashes_of_numeric_records_match_the_dataclass_values(name):
    build, value = FIXED_HASHES[name]
    if sys.hash_info.width != 64:
        pytest.skip("the captured hashes are those of a 64-bit build")
    assert hash(build()) == value


def test_a_valuation_compares_its_poset_by_identity():
    p = chain_poset(["a", "b"])
    v = Valuation(p, {"a": 0, "b": 1})
    assert v == Valuation(p, {"a": 0, "b": 1})
    assert v != Valuation(chain_poset(["a", "b"]), {"a": 0, "b": 1})
    assert repr(v) == f"Valuation(poset={p!r}, values={{'a': 0, 'b': 1}})"
    with pytest.raises(TypeError, match="unhashable"):
        hash(v)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"RuleReport"}))
def test_assigning_or_deleting_a_field_raises(name):
    build, _, named, _ = RECORDS[name]
    record, field = build(), next(iter(named))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert getattr(record, field) is before


def test_a_rule_report_can_be_changed():
    report = RuleReport("sum", 0, 0)
    report.checked = 4
    report.violations.append(RuleViolation(("a",), 1, 2, 1))
    assert report.checked == 4 and not report.passed


def test_keyword_construction_and_defaults():
    origin = Event(t=0, x=0)
    chain = ObserverChain(origin=origin)
    assert (chain.k, chain.tick, chain.index_range, chain.label) == (F(1), F(1), (0, 100), "")
    assert ObserverChain(origin, label="P", index_range=(2, 3), tick="1/2", k=2) == \
        ObserverChain(origin, F(2), F(1, 2), (2, 3), "P")
    a, b = RuleReport(rule="sum", checked=1, tolerance=0), RuleReport("sum", 1, 0)
    assert (a.violations, a.skipped) == ([], 0) and a == b
    assert a.violations is not b.violations  # a fresh list each
    s, t = Scene(events={}, chains={}), Scene({}, {})
    assert s.frames == {} and s.frames is not t.frames
    assert LatticeCertificate(is_lattice=True).witness is None
    assert RuleViolation(instance=("a",), lhs=1, rhs=2, residual=1) == \
        RuleViolation(("a",), 1, 2, 1)
    assert RelevanceReport(h_a=1.0, h_b=0.0, h_joint=1.0, mi=0.0).to_dict() == \
        {"H_A": 1.0, "H_B": 0.0, "H_joint": 1.0, "I": 0.0}
    assert IntervalPair(dq=1, dp=2) == IntervalPair(2, 1)
    assert Boost(k="2").k == F(2)
    assert Partition(blocks=frozenset([frozenset("ab")])).literal() == "ab"
    assert AtomDistribution(probs={"a": 1.0}).probs == {"a": 1.0}
    p = chain_poset(["a"])
    assert Valuation(poset=p, values={"a": 1}).values == {"a": 1}


def test_converting_fields_take_their_exact_form():
    e = Event(1, "-3/4")
    assert (type(e.t), type(e.x)) == (Fraction, Fraction) and e.x == F(-3, 4)
    ip = IntervalPair(2, "1/3")
    assert (type(ip.dp), ip.dq) == (Fraction, F(1, 3))
    probs = {"a": 0.5, "b": 0.5}
    d = AtomDistribution(probs)
    assert d.probs == probs and d.probs is not probs
    p = chain_poset(["a"])
    values = {"a": 1}
    assert Valuation(p, values).values is not values


@pytest.mark.parametrize("build, error, match", [
    (lambda: LatticeCertificate(True, ("a", "b")), ValueError, "witness"),
    (lambda: LatticeCertificate(False), ValueError, "witness"),
    (lambda: Partition(frozenset()), ValueError, "at least one block"),
    (lambda: Partition(frozenset([frozenset()])), ValueError, "empty block"),
    (lambda: Partition(frozenset([frozenset("ab"), frozenset("b")])), ValueError, "overlap"),
    (lambda: AtomDistribution({"a": -0.5, "b": 1.5}), ValueError, "negative"),
    (lambda: AtomDistribution({"a": float("nan"), "b": 1.0}), ValueError, "not finite"),
    (lambda: AtomDistribution({"a": 0.5}), ValueError, "sum to"),
    (lambda: RelevanceReport(-1.0, 1.0, 1.0, 0.0), ValueError, "non-negative"),
    (lambda: RelevanceReport(1.0, 1.0, 1.0, -1.0), ValueError, "below tolerance"),
    (lambda: RelevanceReport(1.0, 1.0, 3.0, 0.0), ValueError, "exceeds"),
    (lambda: Valuation(chain_poset(["a", "b"]), {"a": 0}), ValueError, "not total"),
    (lambda: Valuation(chain_poset(["a"]), {"a": 0, "z": 1}), ValueError, "not total"),
    (lambda: Valuation(chain_poset(["a"]), {"a": math.inf}), ValueError, "non-finite"),
    (lambda: ObserverChain(Event(0, 0), k=0), ValueError, "k must be positive"),
    (lambda: ObserverChain(Event(0, 0), tick="-1/2"), ValueError, "tick must be positive"),
    (lambda: ObserverChain(Event(0, 0), index_range=(3, 2)), ValueError, "range is empty"),
    (lambda: Boost(0), NonPositiveBoost, "must be positive"),
    (lambda: Event("1/0", 0), ZeroDivisionError, None),
], ids=lambda x: x if isinstance(x, str) else "")
def test_every_construction_check_still_raises(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_give_an_equal_record(name):
    record = RECORDS[name][0]()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
        assert repr(twin) == repr(record)


def test_copy_and_pickle_of_a_valuation():
    p = chain_poset(["a", "b"])
    v = Valuation(p, {"a": 0, "b": F(1, 2)})
    assert copy.copy(v) == v
    back = pickle.loads(pickle.dumps(v))
    assert back.values == v.values and back.poset.elements == p.elements
