import json

import pytest

from ordinal import boolean_lattice, partition_lattice
from ordinal.cli import run

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


def test_rules_audit_unknown_rule(tmp_path, capsys):
    poset_path, atoms_path = write_audit_inputs(tmp_path, {"a": 1.0})
    code, _, err = invoke(capsys, "rules", "audit", "--poset", poset_path,
                          "--atoms", atoms_path, "--rules", "nonsense")
    assert code == 2 and "unknown rules" in err


def test_rules_audit_needs_inputs(capsys):
    code, _, err = invoke(capsys, "rules", "audit")
    assert code == 2 and "rules audit needs" in err


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


def test_spacetime_interval_single_chain_pair(scene_path, capsys):
    code, out, _ = invoke(capsys, "spacetime", "interval", "--scene", scene_path,
                          "--events", "e1,e2", "--chains", "P,Q",
                          "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["ds2"] == "3"


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
