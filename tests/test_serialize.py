import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordinal import OrdinalError, boolean_lattice, partition_lattice
from ordinal.serialize import (Scene, dumps_canonical, load_atom_values,
                               load_distribution, load_poset, load_scene,
                               load_valuation, parse_rational, poset_to_dot,
                               scene_to_dict)


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_poset_document_round_trip(tmp_path):
    p = partition_lattice("abc")
    path = write(tmp_path / "p.json", p.to_dict())
    loaded = load_poset(path)
    assert loaded.elements == p.elements
    assert loaded.covers == p.covers


def test_malformed_poset_document(tmp_path):
    path = write(tmp_path / "bad.json", {"elements": ["a"]})
    with pytest.raises(OrdinalError):
        load_poset(path)


@pytest.mark.parametrize("doc", [{"elements": 5, "covers": []},
                                 {"elements": ["a", None], "covers": []},
                                 {"elements": ["a", ""], "covers": []},
                                 {"elements": ["a", "b"], "covers": [["a"]]},
                                 {"elements": ["a", "b"], "covers": [["a", 2]]},
                                 {"elements": ["a", "b"], "covers": "ab"}, ["a", "b"]])
def test_poset_document_needs_string_elements_and_pairs(tmp_path, doc):
    # a null element used to become the element "None"
    path = write(tmp_path / "bad.json", doc)
    with pytest.raises(OrdinalError, match="malformed poset document"):
        load_poset(path)


def test_dot_export_lists_nodes_and_cover_edges():
    dot = poset_to_dot(boolean_lattice("ab"))
    assert dot.startswith("digraph poset {")
    assert '"{a}";' in dot
    assert '"{}" -> "{a}";' in dot
    assert dot.count("->") == 4


def test_valuation_document_atoms_mode(tmp_path):
    lat = boolean_lattice("ab")
    write(tmp_path / "lat.json", lat.to_dict())
    path = write(tmp_path / "val.json",
                 {"poset": "lat.json", "mode": "atoms",
                  "values": {"a": 0.25, "b": 0.75}})
    v = load_valuation(path)
    assert v("{a,b}") == pytest.approx(1.0)


def test_valuation_document_total_mode(tmp_path):
    lat = boolean_lattice("a")
    write(tmp_path / "lat.json", lat.to_dict())
    path = write(tmp_path / "val.json",
                 {"poset": "lat.json", "mode": "total",
                  "values": {"{}": 0.0, "{a}": 1.0}})
    assert load_valuation(path)("{a}") == 1.0


def test_valuation_document_bad_mode(tmp_path):
    lat = boolean_lattice("a")
    write(tmp_path / "lat.json", lat.to_dict())
    path = write(tmp_path / "val.json",
                 {"poset": "lat.json", "mode": "wat", "values": {"a": 1.0}})
    with pytest.raises(OrdinalError, match="unknown valuation mode 'wat'"):
        load_valuation(path)


@pytest.mark.parametrize("mode, values", [("atoms", {"a": 1.0, "z": 2.0}),
                                          ("total", {"{}": 0.0})])
def test_valuation_document_values_that_do_not_fit_the_poset(tmp_path, mode, values):
    write(tmp_path / "lat.json", boolean_lattice("a").to_dict())
    path = write(tmp_path / "val.json", {"poset": "lat.json", "mode": mode, "values": values})
    with pytest.raises(OrdinalError, match="malformed valuation document"):
        load_valuation(path)


def test_distribution_document(tmp_path):
    path = write(tmp_path / "d.json", {"probs": {"a": 0.5, "b": 0.25, "c": 0.25}})
    assert load_distribution(path).probs["a"] == 0.5


def test_parse_rational_accepts_strings_and_ints():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == -2
    assert parse_rational(7) == 7
    assert parse_rational("0.5") == F(1, 2)
    with pytest.raises(OrdinalError):
        parse_rational("x/y")
    with pytest.raises(OrdinalError):
        parse_rational(0.5)


@pytest.mark.parametrize("text", ["1e-200000", "2E3", "-1.5e2"])
def test_parse_rational_refuses_exponents(text):
    # Fraction expands an exponent into as many digits as it names
    with pytest.raises(OrdinalError, match="exponent"):
        parse_rational(text)


def test_scene_round_trip(tmp_path):
    doc = {
        "events": [{"id": "e1", "t": "0", "x": "0"},
                   {"id": "e2", "t": "2", "x": "1/2"}],
        "chains": [{"id": "P", "k": "1", "tick": "1",
                    "origin": {"t": "0", "x": "0"}, "range": [0, 50]},
                   {"id": "Q", "k": "1/2", "tick": "1/2",
                    "origin": {"t": "0", "x": "5"}, "range": [-5, 80]}],
        "frames": [{"id": "rest", "chains": ["P", "Q"]}],
    }
    path = write(tmp_path / "scene.json", doc)
    scene = load_scene(path)
    assert scene.event("e2").x == F(1, 2)
    assert scene.chain("Q").k == F(1, 2)
    assert scene.chain("Q").index_range == (-5, 80)
    assert scene.frame("rest")[0].label == "P"
    assert scene_to_dict(scene) == doc


def test_scene_with_unknown_frame_chain(tmp_path):
    doc = {"events": [], "chains": [],
           "frames": [{"id": "rest", "chains": ["P", "Q"]}]}
    path = write(tmp_path / "scene.json", doc)
    with pytest.raises(OrdinalError):
        load_scene(path)


def test_scene_lookup_errors():
    scene = Scene(events={}, chains={})
    with pytest.raises(OrdinalError):
        scene.event("nope")
    with pytest.raises(OrdinalError):
        scene.chain("nope")
    with pytest.raises(OrdinalError):
        scene.frame("nope")


def test_dumps_canonical_is_sorted_and_newline_terminated():
    text = dumps_canonical({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


# --- any JSON document: a result or OrdinalError, never another exception ---

leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
          | st.sampled_from(["0", "1", "-1/2", "3/4", "1/0", "a", "b", "atoms", "total"]))
json_values = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
    st.text(max_size=4) | st.sampled_from(["elements", "covers", "probs", "values", "id"]),
    inner, max_size=4), max_leaves=12)
names = st.sampled_from(["a", "b", "{}", "{a}", "{b}", "{a,b}", ""])


def some(**fields):
    """Objects holding some of these fields."""
    return st.fixed_dictionaries({}, optional=fields)


poset_docs = st.fixed_dictionaries({
    "elements": st.lists(names, max_size=4) | json_values,
    "covers": st.lists(st.lists(names, max_size=3), max_size=3) | json_values})
# each loader gets documents near its own format as well as any JSON value
DOCUMENTS = {
    load_poset: poset_docs,
    load_atom_values: st.dictionaries(names, leaves),
    load_distribution: st.fixed_dictionaries({"probs": st.dictionaries(names, leaves)}),
    load_valuation: some(poset=st.just("poset.json") | leaves, mode=leaves,
                         values=st.dictionaries(names, leaves) | json_values),
    load_scene: some(
        events=st.lists(some(id=leaves, t=leaves, x=leaves) | json_values, max_size=3),
        chains=st.lists(some(id=leaves, k=leaves, tick=leaves,
                             origin=some(t=leaves, x=leaves) | json_values,
                             range=st.lists(leaves, max_size=3) | json_values), max_size=3),
        frames=st.lists(some(id=leaves, chains=st.lists(leaves, max_size=3)), max_size=3)),
}


@pytest.mark.parametrize("loader", list(DOCUMENTS), ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loaders_return_a_result_or_raise_ordinal_error(loader, data):
    doc = data.draw(DOCUMENTS[loader] | json_values)
    if isinstance(doc, dict) and isinstance(doc.get("poset"), str):
        doc["poset"] = "poset.json"  # a valuation's poset path names a file that exists
    poset_doc = data.draw(st.just(boolean_lattice("ab").to_dict()) | poset_docs | json_values)
    with tempfile.TemporaryDirectory() as d:
        write(Path(d) / "poset.json", poset_doc)
        try:
            loader(write(Path(d) / "doc.json", doc))
        except OrdinalError:
            pass
