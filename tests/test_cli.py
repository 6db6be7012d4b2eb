import argparse
import json
from pathlib import Path

import pytest

from ordinal import boolean_lattice, partition_lattice
from ordinal.cli import run
from ordinal.report import RuleReport

BOOST_SCENE = {
    "events": [{"id": "e1", "t": "0", "x": "0"},
               {"id": "e2", "t": "2", "x": "1"}],
    "chains": [
        {"id": "P", "k": "1", "tick": "1",
         "origin": {"t": "0", "x": "0"}, "range": [0, 200]},
        {"id": "Q", "k": "1", "tick": "1",
         "origin": {"t": "0", "x": "5"}, "range": [0, 200]},
        {"id": "P32", "k": "2/3", "tick": "1/6",
         "origin": {"t": "0", "x": "0"}, "range": [-10, 800]},
        {"id": "Q32", "k": "2/3", "tick": "1/6",
         "origin": {"t": "0", "x": "5"}, "range": [-10, 800]},
        {"id": "P2", "k": "1/2", "tick": "1/2",
         "origin": {"t": "0", "x": "0"}, "range": [-10, 400]},
        {"id": "Q2", "k": "1/2", "tick": "1/2",
         "origin": {"t": "0", "x": "5"}, "range": [-10, 400]},
        {"id": "Qslow", "k": "1", "tick": "2",
         "origin": {"t": "0", "x": "5"}, "range": [0, 200]},
    ],
    "frames": [
        {"id": "rest", "chains": ["P", "Q"]},
        {"id": "k=3/2", "chains": ["P32", "Q32"]},
        {"id": "k=2", "chains": ["P2", "Q2"]},
        {"id": "desync", "chains": ["P", "Qslow"]},
    ],
}


@pytest.fixture
def scene_path(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(BOOST_SCENE))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- poset commands ---

def test_poset_check_lattice(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(partition_lattice("abc").to_dict()))
    code, out, _ = invoke(capsys, "poset", "check", "--input", str(path),
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["is_lattice"] is True
    assert doc["consistency"]["violations"] == []


def test_poset_check_non_lattice_reports_witness(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "elements": ["p", "q", "r", "s"],
        "covers": [["p", "r"], ["p", "s"], ["q", "r"], ["q", "s"]]}))
    code, out, _ = invoke(capsys, "poset", "check", "--input", str(path),
                          "--format", "json")
    assert code == 1
    assert json.loads(out)["certificate"]["witness"] == ["p", "q"]
    code, out, _ = invoke(capsys, "poset", "check", "--input", str(path),
                          "--format", "text")
    assert code == 1
    assert out.splitlines() == ["elements: 4", "covers: 4", "lattice: no", "witness: p, q"]


def test_poset_check_rejects_cyclic_input(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"elements": ["a", "b"],
                                "covers": [["a", "b"], ["b", "a"]]}))
    code, _, err = invoke(capsys, "poset", "check", "--input", str(path))
    assert code == 2
    assert "cycle" in err


def test_poset_gen_boolean(capsys):
    code, out, _ = invoke(capsys, "poset", "gen", "boolean", "--atoms", "a,b")
    assert code == 0
    assert sorted(json.loads(out)["elements"]) == ["{a,b}", "{a}", "{b}", "{}"]


def test_poset_gen_partition(capsys):
    code, out, _ = invoke(capsys, "poset", "gen", "partition", "--atoms", "a,b,c")
    assert code == 0
    assert len(json.loads(out)["elements"]) == 5


def test_poset_gen_divisors(capsys):
    code, out, _ = invoke(capsys, "poset", "gen", "divisors", "--n", "12")
    assert code == 0
    assert sorted(int(d) for d in json.loads(out)["elements"]) == [1, 2, 3, 4, 6, 12]


def test_poset_gen_grid(capsys):
    code, out, _ = invoke(capsys, "poset", "gen", "grid", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 4
    assert ["(0,0)", "(1,1)"] not in doc["covers"] or True  # shape checked below
    assert len(doc["covers"]) == 4


def test_poset_gen_missing_flags(capsys):
    code, _, err = invoke(capsys, "poset", "gen", "boolean")
    assert code == 2 and "--atoms" in err


def test_poset_export_dot(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(boolean_lattice("ab").to_dict()))
    out_path = tmp_path / "p.dot"
    code, _, _ = invoke(capsys, "poset", "export-dot", "--input", str(path),
                        "--output", str(out_path))
    assert code == 0
    assert '"{a}" -> "{a,b}";' in out_path.read_text()


# --- rules audit ---

def write_audit_inputs(tmp_path, weights):
    poset_path = tmp_path / "lat.json"
    poset_path.write_text(json.dumps(boolean_lattice(sorted(weights)).to_dict()))
    atoms_path = tmp_path / "atoms.json"
    atoms_path.write_text(json.dumps(weights))
    return str(poset_path), str(atoms_path)


def test_rules_audit_all_pass(tmp_path, capsys):
    poset_path, atoms_path = write_audit_inputs(
        tmp_path, {"a": 0.2, "b": 0.3, "c": 0.5})
    code, out, _ = invoke(capsys, "rules", "audit", "--poset", poset_path,
                          "--atoms", atoms_path,
                          "--rules", "sum,chain,diamond,context,bisum",
                          "--tol", "1e-9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [r["rule"] for r in doc["reports"]] == \
        ["sum", "chain", "diamond", "context", "bisum"]
    assert all(r["violations"] == [] for r in doc["reports"])
    # a valuation document naming the same poset and weights gives the same report
    (tmp_path / "val.json").write_text(json.dumps(
        {"poset": "lat.json", "mode": "atoms", "values": {"a": 0.2, "b": 0.3, "c": 0.5}}))
    assert invoke(capsys, "rules", "audit", "--valuation", str(tmp_path / "val.json"),
                  "--rules", "sum,chain,diamond,context,bisum") == (0, out, "")


def test_rules_audit_total_mode_failure_round_trips(tmp_path, capsys):
    poset_path = tmp_path / "lat.json"
    poset_path.write_text(json.dumps(boolean_lattice("ab").to_dict()))
    values_path = tmp_path / "values.json"
    values_path.write_text(json.dumps(
        {"{}": 0.0, "{a}": 1.0, "{b}": 1.0, "{a,b}": 3.0}))
    code, out_json, _ = invoke(capsys, "rules", "audit", "--poset",
                               str(poset_path), "--values", str(values_path),
                               "--rules", "sum", "--format", "json")
    assert code == 1
    doc = json.loads(out_json)
    violations = doc["reports"][0]["violations"]
    assert len(violations) == 1

    code, out_text, _ = invoke(capsys, "rules", "audit", "--poset",
                               str(poset_path), "--values", str(values_path),
                               "--rules", "sum", "--format", "text")
    assert code == 1
    # every violation line in the text view corresponds to a JSON violation
    text_violations = [ln for ln in out_text.splitlines()
                       if ln.lstrip().startswith("violation (")]
    assert len(text_violations) == len(violations)
    for viol, line in zip(violations, text_violations):
        assert ", ".join(viol["instance"]) in line
        assert f"residual={viol['residual']}" in line


@pytest.mark.parametrize("fmt, unused", [("json", "text_lines"), ("text", "to_dict")])
def test_only_the_requested_format_is_built(tmp_path, monkeypatch, capsys, fmt, unused):
    poset_path, atoms_path = write_audit_inputs(tmp_path, {"a": 1, "b": 2, "c": 3})
    values_path = tmp_path / "values.json"
    values_path.write_text(json.dumps({"{}": 0, "{a}": 1, "{b}": 1, "{c}": 1, "{a,b}": 2,
                                       "{a,c}": 2, "{b,c}": 3, "{a,b,c}": 3}))
    commands = [("poset", "check", "--input", poset_path),
                ("rules", "audit", "--poset", poset_path, "--atoms", atoms_path),
                ("rules", "audit", "--poset", poset_path, "--values", str(values_path))]
    expected = [invoke(capsys, *argv, "--format", fmt) for argv in commands]
    assert [code for code, _, _ in expected] == [0, 0, 1]

    def refuse(self):
        raise AssertionError(f"RuleReport.{unused} called for --format {fmt}")
    monkeypatch.setattr(RuleReport, unused, refuse)
    for argv, before in zip(commands, expected):
        assert invoke(capsys, *argv, "--format", fmt) == before


def test_a_report_that_exhausts_memory_is_an_error(tmp_path, monkeypatch, capsys):
    # exit 1 would read as "violations found", and a traceback is not one line
    poset_path, atoms_path = write_audit_inputs(tmp_path, {"a": 1, "b": 2})

    def exhaust(doc):
        raise MemoryError
    monkeypatch.setattr("ordinal.serialize.dumps_canonical", exhaust)
    assert invoke(capsys, "rules", "audit", "--poset", poset_path, "--atoms",
                  atoms_path) == (2, "", "ordinal: error: out of memory\n")


def test_rules_audit_unknown_rule(tmp_path, capsys):
    poset_path, atoms_path = write_audit_inputs(tmp_path, {"a": 1.0})
    code, _, err = invoke(capsys, "rules", "audit", "--poset", poset_path,
                          "--atoms", atoms_path, "--rules", "nonsense")
    assert code == 2 and "unknown rules" in err


def test_rules_audit_needs_inputs(capsys):
    code, _, err = invoke(capsys, "rules", "audit")
    assert code == 2 and "rules audit needs" in err


@pytest.mark.parametrize("first, second", [("--valuation", "--poset"), ("--valuation", "--atoms"),
                                           ("--valuation", "--values"), ("--atoms", "--values")])
def test_rules_audit_refuses_conflicting_valuation_flags(tmp_path, capsys, first, second):
    # each flag of the pair is a source of the valuation, and one of them
    # was ignored: each pair here ran the audit of the other and exited 0
    poset_path, atoms_path = write_audit_inputs(tmp_path, {"a": 1, "b": 2, "c": 3})
    (tmp_path / "partial.json").write_text(json.dumps({"{}": 0, "{a}": 1}))
    (tmp_path / "val.json").write_text(json.dumps(
        {"poset": "lat.json", "mode": "atoms", "values": {"a": 1, "b": 2, "c": 3}}))
    files = {"--poset": poset_path, "--atoms": atoms_path,
             "--values": str(tmp_path / "partial.json"), "--valuation": str(tmp_path / "val.json")}
    pair = (first, second, "--poset") if first == "--atoms" else (first, second)
    argv = [arg for flag in pair for arg in (flag, files[flag])]
    code, out, err = invoke(capsys, "rules", "audit", *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and first in err and second in err


@pytest.mark.parametrize("rule", ["chain", "diamond", "context"])
def test_rules_audit_of_a_derived_bivaluation_needs_a_lattice(tmp_path, capsys, rule):
    # a and b are both below c and d; every row of the bi-valuation would be
    # proved from the values, so an audit that counts rows without reading
    # them passed the chain rule with exit 0
    (tmp_path / "bowtie.json").write_text(json.dumps(
        {"elements": ["a", "b", "c", "d"],
         "covers": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]}))
    (tmp_path / "values.json").write_text(json.dumps({"a": 1, "b": 1, "c": 2, "d": 2}))
    code, out, err = invoke(capsys, "rules", "audit", "--poset", str(tmp_path / "bowtie.json"),
                            "--values", str(tmp_path / "values.json"), "--rules", rule)
    assert code == 2 and out == ""
    assert err == "ordinal: error: poset is not a lattice, witness pair ('a', 'b')\n"


HUGE = 10 ** 400  # 401 digits, beyond the largest float


def audit_huge_values(tmp_path, capsys, atoms, values, *argv):
    poset_path = tmp_path / "lat.json"
    poset_path.write_text(json.dumps(boolean_lattice(atoms).to_dict()))
    values_path = tmp_path / "values.json"
    values_path.write_text(json.dumps(values))
    return invoke(capsys, "rules", "audit", "--poset", str(poset_path),
                  "--values", str(values_path), *argv)


def test_an_int_too_large_to_divide_into_a_float_is_an_input_error(tmp_path, capsys):
    # the bi-valuation divides 10**400 by 1, and the quotient is a float
    code, out, err = audit_huge_values(tmp_path, capsys, "a", {"{}": HUGE, "{a}": 1})
    assert code == 2 and out == ""
    assert err == "ordinal: error: integer division result too large for a float\n"


def test_an_int_too_large_to_add_to_a_float_is_an_input_error(tmp_path, capsys):
    # the sum rule adds 10**400 to a float in the row that holds 0.5
    code, out, err = audit_huge_values(
        tmp_path, capsys, "ab", {"{}": 0, "{a}": HUGE, "{b}": 0.5, "{a,b}": HUGE},
        "--rules", "sum")
    assert code == 2 and out == ""
    assert err == "ordinal: error: int too large to convert to float\n"


# --- info ---

def test_info_entropy(tmp_path, capsys):
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps({"probs": {"a": 0.5, "b": 0.25, "c": 0.25}}))
    code, out, _ = invoke(capsys, "info", "entropy", "--dist", str(dist),
                          "--partition", "a|bc", "--format", "json")
    assert code == 0
    assert json.loads(out)["entropy_bits"] == pytest.approx(1.0)


def test_info_mutual(tmp_path, capsys):
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps(
        {"probs": {"w": 0.4, "x": 0.1, "y": 0.1, "z": 0.4}}))
    code, out, _ = invoke(capsys, "info", "mutual", "--dist", str(dist),
                          "--a", "wx|yz", "--b", "wy|xz", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["I"] == pytest.approx(0.2780719051126377)


# --- spacetime ---

def test_spacetime_project(scene_path, capsys):
    code, out, _ = invoke(capsys, "spacetime", "project", "--scene", scene_path,
                          "--event", "e2", "--chain", "P", "--format", "json")
    assert code == 0
    assert json.loads(out)["index"] == 3


def test_spacetime_project_unquantifiable(tmp_path, capsys):
    doc = {"events": [{"id": "far", "t": "0", "x": "100"}],
           "chains": [{"id": "P", "k": "1", "tick": "1",
                       "origin": {"t": "0", "x": "0"}, "range": [0, 10]}]}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "spacetime", "project", "--scene", str(path),
                          "--event", "far", "--chain", "P", "--format", "json")
    assert code == 1
    assert json.loads(out)["quantifiable"] is False


def test_spacetime_sync(scene_path, capsys):
    code, out, _ = invoke(capsys, "spacetime", "sync", "--scene", scene_path,
                          "--chains", "P,Q", "--range", "0,10", "--format", "json")
    assert code == 0 and json.loads(out)["synchronized"] is True

    code, out, _ = invoke(capsys, "spacetime", "sync", "--scene", scene_path,
                          "--chains", "P,Qslow", "--range", "0,10",
                          "--format", "json")
    assert code == 1 and json.loads(out)["synchronized"] is False


def test_spacetime_sync_negative_range_needs_the_equals_form(scene_path, capsys):
    # P32 and Q32 run over [-10, 800]; a separate -5,3 reads as a flag
    code, out, err = invoke(capsys, "spacetime", "sync", "--scene", scene_path,
                            "--chains", "P32,Q32", "--range=-5,3", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["synchronized"] is True
    code, out, err = invoke(capsys, "spacetime", "sync", "--scene", scene_path,
                            "--chains", "P32,Q32", "--range", "-5,3", "--format", "json")
    assert code == 2 and out == ""
    assert "argument --range: expected one argument" in err


def test_spacetime_sync_empty_window_is_a_usage_error(scene_path, capsys):
    code, out, err = invoke(capsys, "spacetime", "sync", "--scene", scene_path,
                            "--chains", "P,Q", "--range", "5,2", "--format", "json")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "empty index window" in err


def test_spacetime_interval_invariant_across_frames(scene_path, capsys):
    code, out, _ = invoke(capsys, "spacetime", "interval", "--scene", scene_path,
                          "--events", "e1,e2", "--frames", "rest,k=3/2,k=2",
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant"] is True
    assert [row["ds2"] for row in doc["rows"]] == ["3", "3", "3"]
    by_frame = {row["frame"]: row for row in doc["rows"]}
    assert by_frame["rest"]["dp"] == "3" and by_frame["rest"]["dq"] == "1"
    assert by_frame["k=2"]["dp"] == "6" and by_frame["k=2"]["dq"] == "1/2"
    assert by_frame["k=3/2"]["dp"] == "9/2" and by_frame["k=3/2"]["dq"] == "2/3"


def test_spacetime_interval_text_table(scene_path, capsys):
    code, out, _ = invoke(capsys, "spacetime", "interval", "--scene", scene_path,
                          "--events", "e1,e2", "--frames", "rest,k=2",
                          "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["frame", "dp", "dq", "dt", "dx", "ds2"]
    assert lines[-1] == "invariant: yes"


def test_spacetime_interval_desynchronized_frame(scene_path, capsys):
    code, out, _ = invoke(capsys, "spacetime", "interval", "--scene", scene_path,
                          "--events", "e1,e2", "--frames", "desync",
                          "--format", "json")
    assert code == 1
    assert "error" in json.loads(out)["rows"][0]
    code, out, _ = invoke(capsys, "spacetime", "interval", "--scene", scene_path,
                          "--events", "e1,e2", "--frames", "rest,desync",
                          "--format", "text")
    assert code == 1
    lines = out.splitlines()
    assert lines[2].split()[:2] == ["desync", "error:"]
    assert lines[-1] == "invariant: no"


def test_spacetime_interval_window_clipped_to_one_index(tmp_path, capsys):
    # both events project onto P's last index and onto Q's 4, so the window
    # is P's [2, 3], over which the chains are not synchronized
    scene = {"events": [{"id": "e1", "t": "3/2", "x": "-3/4"},
                        {"id": "e2", "t": "9/4", "x": "11/4"}],
             "chains": [{"id": "P", "origin": {"t": "1", "x": "1"}, "range": [0, 3]},
                        {"id": "Q", "k": "2", "origin": {"t": "-1/2", "x": "-1"},
                         "range": [0, 5]}]}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, out, _ = invoke(capsys, "spacetime", "interval", "--scene", str(path),
                          "--events", "e1,e2", "--chains", "P,Q", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "events": ["e1", "e2"], "invariant": False,
        "rows": [{"frame": "P-Q", "error": "P and Q are not synchronized over "
                                          "indices (2, 3)"}]}


def test_spacetime_interval_single_chain_pair(scene_path, capsys):
    code, out, _ = invoke(capsys, "spacetime", "interval", "--scene", scene_path,
                          "--events", "e1,e2", "--chains", "P,Q",
                          "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["ds2"] == "3"


# --- malformed documents ---

MALFORMED = {
    "scene event without id": (
        "scene.json", {**BOOST_SCENE, "events": [{"t": "0", "x": "0"}]},
        ["spacetime", "interval", "--scene", "scene.json", "--events", "e1,e2",
         "--frames", "rest"]),
    "scene that is a list": (
        "scene.json", [BOOST_SCENE],
        ["spacetime", "sync", "--scene", "scene.json", "--chains", "P,Q",
         "--range", "0,10"]),
    "string atom weights": (
        "atoms.json", {"a": "1", "b": "2"},
        ["rules", "audit", "--poset", "lat.json", "--atoms", "atoms.json"]),
    "string probabilities": (
        "dist.json", {"probs": {"a": "0.5", "b": "0.5"}},
        ["info", "entropy", "--dist", "dist.json", "--partition", "a|b"]),
    "poset elements that are not a list": (
        "poset.json", {"elements": 5, "covers": []}, ["poset", "check", "--input", "poset.json"]),
    # a NaN or an infinity would let every audit pass, or give an entropy
    "NaN atom weight": (
        "atoms.json", {"a": float("nan"), "b": 2},
        ["rules", "audit", "--poset", "lat.json", "--atoms", "atoms.json"]),
    "infinite atom weight": (
        "atoms.json", {"a": float("inf"), "b": 2},
        ["rules", "audit", "--poset", "lat.json", "--atoms", "atoms.json"]),
    "infinite total value": (
        "values.json", {"{}": 0, "{a}": float("inf"), "{b}": 1, "{a,b}": float("inf")},
        ["rules", "audit", "--poset", "lat.json", "--values", "values.json"]),
    "NaN probability": (
        "dist.json", {"probs": {"a": float("nan"), "b": 0.5}},
        ["info", "entropy", "--dist", "dist.json", "--partition", "a|b"]),
    # Fraction would expand an exponent into as many digits as it names
    "scene coordinate in exponent notation": (
        "scene.json", {**BOOST_SCENE, "events": [{"id": "e1", "t": "1e-3", "x": "0"},
                                                 {"id": "e2", "t": "2", "x": "1"}]},
        ["spacetime", "interval", "--scene", "scene.json", "--events", "e1,e2",
         "--frames", "rest"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_an_input_error(tmp_path, monkeypatch, capsys, case):
    name, doc, argv = MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lat.json").write_text(json.dumps(boolean_lattice("ab").to_dict()))
    (tmp_path / name).write_text(json.dumps(doc))
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("ordinal: error")


def with_p_range(bounds):
    chains = [{**c, "range": bounds} if c["id"] == "P" else c for c in BOOST_SCENE["chains"]]
    return {**BOOST_SCENE, "chains": chains}


NAMED_ERRORS = {
    # int() truncated these, so [0.9, 10.7] loaded as (0, 10) and [true, 10] as (1, 10)
    "float range bound": (
        "scene.json", with_p_range([0.9, 10.7]),
        ["spacetime", "sync", "--scene", "scene.json", "--chains", "P,Q", "--range", "0,5"],
        "malformed scene document scene.json: range bound 0.9 is not an integer"),
    "boolean range bound": (
        "scene.json", with_p_range([True, 10]),
        ["spacetime", "sync", "--scene", "scene.json", "--chains", "P,Q", "--range", "0,5"],
        "malformed scene document scene.json: range bound True is not an integer"),
    "string range bound": (
        "scene.json", with_p_range([0, "10"]),
        ["spacetime", "interval", "--scene", "scene.json", "--events", "e1,e2",
         "--frames", "rest"],
        "malformed scene document scene.json: range bound '10' is not an integer"),
    # a repeated id would replace the entry before it; ids compare as strings
    "repeated scene event id": (
        "scene.json", {**BOOST_SCENE, "events": BOOST_SCENE["events"] + [
            {"id": "e1", "t": "1", "x": "0"}]},
        ["spacetime", "interval", "--scene", "scene.json", "--events", "e1,e2",
         "--frames", "rest"],
        "malformed scene document scene.json: event id 'e1' appears twice"),
    "repeated scene chain id": (
        "scene.json", {**BOOST_SCENE, "chains": BOOST_SCENE["chains"] + [
            {"id": 7, "range": [0, 9]}, {"id": "7", "range": [0, 10]}]},
        ["spacetime", "sync", "--scene", "scene.json", "--chains", "P,Q", "--range", "0,5"],
        "malformed scene document scene.json: chain id '7' appears twice"),
    "repeated scene frame id": (
        "scene.json", {**BOOST_SCENE, "frames": BOOST_SCENE["frames"] + [
            {"id": "rest", "chains": ["P", "Qslow"]}]},
        ["spacetime", "interval", "--scene", "scene.json", "--events", "e1,e2",
         "--frames", "rest"],
        "malformed scene document scene.json: frame id 'rest' appears twice"),
    "probabilities summing to 0.9": (
        "dist.json", {"probs": {"a": 0.5, "b": 0.4}},
        ["info", "entropy", "--dist", "dist.json", "--partition", "a|b"],
        "malformed distribution document dist.json: probabilities sum to 0.9, not 1"),
    "negative probability": (
        "dist.json", {"probs": {"a": 1.5, "b": -0.5}},
        ["info", "entropy", "--dist", "dist.json", "--partition", "a|b"],
        "malformed distribution document dist.json: negative probability -0.5 for atom 'b'"),
}


@pytest.mark.parametrize("case", sorted(NAMED_ERRORS))
def test_a_malformed_document_is_named_in_its_error(tmp_path, monkeypatch, capsys, case):
    name, doc, argv, message = NAMED_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps(doc))
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", f"ordinal: error: {message}\n")


@pytest.mark.parametrize("argv, broken", [
    (["poset", "check", "--input", "lat.json"], "lat.json"),
    (["rules", "audit", "--poset", "lat.json", "--atoms", "atoms.json"], "atoms.json"),
])
def test_truncated_document_names_its_file(tmp_path, monkeypatch, capsys, argv, broken):
    monkeypatch.chdir(tmp_path)
    write_audit_inputs(tmp_path, {"a": 1.0, "b": 2.0})
    text = (tmp_path / broken).read_text()
    (tmp_path / broken).write_text(text[:len(text) // 2])
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"ordinal: error: {broken} is not a JSON document: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["poset", "check", "--input", "empty.json"],
    ["poset", "check", "--input", "empty.json", "--format", "text"],
    ["poset", "export-dot", "--input", "empty.json"],
    ["rules", "audit", "--poset", "empty.json", "--values", "values.json"],
], ids=["check", "check text", "export-dot", "rules audit"])
def test_a_poset_document_with_no_elements_is_an_input_error(tmp_path, monkeypatch,
                                                               capsys, argv):
    # every audit of an empty poset checks nothing, and would pass vacuously
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.json").write_text(json.dumps({"elements": [], "covers": []}))
    (tmp_path / "values.json").write_text(json.dumps({"a": 1}))
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("ordinal: error: empty poset document empty.json: "
                   "'elements' lists no element\n")


# --- usage errors ---

RULE_NAMES = "('sum', 'bisum', 'chain', 'diamond', 'context', 'monotone')"

USAGE_ERRORS = {
    "gen boolean without --atoms": (["poset", "gen", "boolean"],
                                    "gen boolean requires --atoms"),
    "gen boolean with an empty --atoms": (["poset", "gen", "boolean", "--atoms", ""],
                                          "gen boolean requires --atoms"),
    "gen boolean with no atom in --atoms": (["poset", "gen", "boolean", "--atoms", ","],
                                            "boolean lattice needs at least one atom"),
    "gen partition without --atoms": (["poset", "gen", "partition"],
                                      "gen partition requires --atoms"),
    "gen partition with an atom that reads as two blocks": (
        ["poset", "gen", "partition", "--atoms", "a|b,c"],
        "partition atom 'a|b' must be non-empty, contain none of '|,[]' "
        "and have no surrounding whitespace"),
    "gen divisors without --n": (["poset", "gen", "divisors"], "gen divisors requires --n"),
    "gen divisors with --n 0": (["poset", "gen", "divisors", "--n", "0"],
                                "n must be a positive integer"),
    "gen divisors with --n above 10**12": (
        ["poset", "gen", "divisors", "--n", "1000000000001"],
        "divisor lattice n = 1000000000001 exceeds 10**12"),
    "gen grid without --n": (["poset", "gen", "grid"], "gen grid requires --n"),
    "sync with one chain": (["spacetime", "sync", "--scene", "scene.json", "--chains", "a",
                             "--range", "0,10"], "--chains needs exactly two chain ids"),
    "sync with a one-index --range": (
        ["spacetime", "sync", "--scene", "scene.json", "--chains", "P,Q", "--range", "3,3"],
        "index window [3, 3] holds one index, so it compares no step"),
    "sync with one number in --range": (
        ["spacetime", "sync", "--scene", "scene.json", "--chains", "P,Q", "--range", "5"],
        "--range needs two integers lo,hi, got '5'"),
    "sync with three numbers in --range": (
        ["spacetime", "sync", "--scene", "scene.json", "--chains", "P,Q", "--range", "0,1,2"],
        "--range needs two integers lo,hi, got '0,1,2'"),
    "sync with words in --range": (
        ["spacetime", "sync", "--scene", "scene.json", "--chains", "P,Q", "--range", "a,b"],
        "--range needs two integers lo,hi, got 'a,b'"),
    "interval with one chain": (["spacetime", "interval", "--scene", "scene.json",
                                 "--events", "e1,e2", "--chains", "a"],
                                "--chains needs exactly two chain ids"),
    "interval with one event": (["spacetime", "interval", "--scene", "scene.json",
                                 "--events", "a", "--frames", "rest"],
                                "--events needs exactly two event ids"),
    "interval with no frame id": (["spacetime", "interval", "--scene", "scene.json",
                                   "--events", "e1,e2", "--frames", ","],
                                  "interval needs a frame id in --frames, or --chains"),
    "interval with both frames and chains": (
        ["spacetime", "interval", "--scene", "scene.json", "--events", "e1,e2",
         "--frames", "rest", "--chains", "P,Q"],
        "spacetime interval takes --frames or --chains, not both"),
    "unknown rule": (["rules", "audit", "--poset", "lat.json", "--atoms", "atoms.json",
                      "--rules", "sum,nonsense"],
                     f"unknown rules ['nonsense']; choose from {RULE_NAMES}"),
    "audit of a poset without weights": (
        ["rules", "audit", "--poset", "lat.json"],
        "rules audit needs --atoms or --values alongside --poset"),
    "atom weights for an atom the lattice lacks": (
        ["rules", "audit", "--poset", "b3.json", "--atoms", "abd.json"],
        "element '{a,b,c}' uses atoms outside the weight map"),
    "atom weights on a chain": (
        ["rules", "audit", "--poset", "chain.json", "--atoms", "atoms.json"],
        "'p' is not a subset id"),
    "a partition literal that repeats an atom": (
        ["info", "entropy", "--dist", "dist.json", "--partition", "a|b|a"],
        "partition repeats atom 'a'"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_prints_one_exact_line(tmp_path, monkeypatch, capsys, case):
    argv, message = USAGE_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    for name, doc in [("scene.json", BOOST_SCENE),
                      ("b3.json", boolean_lattice("abc").to_dict()),
                      ("abd.json", {"a": 1, "b": 2, "d": 3}),
                      ("chain.json", {"elements": ["p", "q", "r", "s"],
                                      "covers": [["p", "q"], ["q", "r"], ["r", "s"]]}),
                      ("dist.json", {"probs": {"a": 0.5, "b": 0.5}})]:
        (tmp_path / name).write_text(json.dumps(doc))
    write_audit_inputs(tmp_path, {"a": 1.0, "b": 2.0})
    assert invoke(capsys, *argv) == (2, "", f"ordinal: error: {message}\n")


# --- help and argparse's usage errors, byte for byte ---

HELP_GOLDEN = Path(__file__).parent / "golden" / "cli"

# case -> argv and exit code. A case that exits 0 prints golden/cli/<case>.out
# to stdout and nothing to stderr; one that exits 2 prints <case>.err to
# stderr and nothing to stdout. The files hold what argparse printed at 80
# columns before build_parser built one group's commands per run, with the
# whole description and the help of every command and --output since added.
HELP_CASES = {
    "help": (["-h"], 0),
    "no-arguments": ([], 2),
    **{f"{group}-help": ([group, "-h"], 0)
       for group in ("poset", "rules", "info", "spacetime")},
    **{f"{group}-{command}-help": ([group, command, "-h"], 0)
       for group, command in [("poset", "check"), ("poset", "export-dot"), ("poset", "gen"),
                              ("rules", "audit"), ("info", "entropy"), ("info", "mutual"),
                              ("spacetime", "project"), ("spacetime", "sync"),
                              ("spacetime", "interval")]},
    "unknown-group": (["nonsense"], 2),
    "unknown-command": (["poset", "nonsense"], 2),
    "group-without-command": (["rules"], 2),
    "check-without-input": (["poset", "check"], 2),
    "format-xml": (["poset", "check", "--input", "x.json", "--format", "xml"], 2),
    "tol-x": (["rules", "audit", "--tol", "x"], 2),
    # the group is the first argument that names one, not argv[0]
    "unknown-option-before-group": (["--foo", "poset", "check"], 2),
}


@pytest.mark.parametrize("case", sorted(HELP_CASES))
def test_help_and_usage_errors_match_golden(monkeypatch, capsys, case):
    argv, code = HELP_CASES[case]
    monkeypatch.setenv("COLUMNS", "80")
    printed = (HELP_GOLDEN / f"{case}.{'out' if code == 0 else 'err'}").read_text()
    expected = (printed, "") if code == 0 else ("", printed)
    assert invoke(capsys, *argv) == (code, *expected)


@pytest.mark.parametrize("argv, built", [
    (["--version"], []),
    (["poset", "gen", "boolean", "--atoms", "a"], ["check", "export-dot", "gen"]),
    (["rules", "-h"], ["audit"]),
    (["info", "-h"], ["entropy", "mutual"]),
    (["spacetime", "-h"], ["project", "sync", "interval"]),
], ids=["version", "poset", "rules", "info", "spacetime"])
def test_a_run_builds_only_the_commands_of_its_group(monkeypatch, capsys, argv, built):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **options):
        names.append(name)
        return add_parser(self, name, **options)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    run(argv)
    groups = ["poset", "rules", "info", "spacetime"]
    assert names == [n for g in groups for n in [g] + (built if g == argv[0] else [])]


# --- harness behavior ---

def test_output_is_deterministic(scene_path, capsys):
    argv = ("spacetime", "interval", "--scene", scene_path,
            "--events", "e1,e2", "--frames", "rest,k=2", "--format", "json")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


def test_usage_error_exits_two(capsys):
    assert invoke(capsys, "poset", "nonsense")[0] == 2
    assert invoke(capsys, )[0] == 2


def test_missing_file_exits_two(capsys):
    code, _, err = invoke(capsys, "poset", "check", "--input", "/nope/missing.json")
    assert code == 2 and "error" in err


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = invoke(capsys, "poset", "gen", "boolean", "--atoms", "a",
                          "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["elements"]
