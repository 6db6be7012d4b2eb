"""File formats: poset documents, valuations, distributions, scenes, DOT."""
from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import TYPE_CHECKING

from ._record import Record, set_field
from .errors import OrdinalError

# each loader imports its domain module when it is called, so a command
# loads only the modules it reads; fractions, likewise, loads only when a
# rational is parsed
if TYPE_CHECKING:
    from fractions import Fraction

    from .information import AtomDistribution
    from .poset import Poset
    from .spacetime import Event, ObserverChain
    from .valuation import Valuation


def dumps_canonical(payload) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_json(path) -> dict:
    """The parsed document; a file that is not UTF-8 JSON is an OrdinalError
    naming it, since a command may read several."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise OrdinalError(f"{path} is not a JSON document: {exc}") from None


def _numbers(mapping, path, what: str) -> dict:
    """A JSON object whose values are all finite numbers, not strings or booleans."""
    if not isinstance(mapping, dict) or not mapping:
        raise OrdinalError(f"{path} does not hold {what} mapping")
    for key, value in mapping.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or isinstance(value, float) and not math.isfinite(value)):
            raise OrdinalError(f"{path}: {key!r} maps to {value!r}, not a finite number")
    return mapping


def load_poset(path) -> Poset:
    """Read ``{"elements": [...], "covers": [[lower, upper], ...]}``.

    Elements are non-empty strings; each cover is a list of two of them,
    checked in one pass and handed to ``build_poset`` as it is. A document
    with no elements is refused: every audit of it would check nothing and
    pass.
    """
    from .poset import build_poset

    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise OrdinalError(f"malformed poset document {path}: not a JSON object")
    elements, covers = doc.get("elements"), doc.get("covers")
    if not isinstance(elements, list) or not all(isinstance(e, str) and e for e in elements):
        raise OrdinalError(f"malformed poset document {path}: "
                           "'elements' must be a list of non-empty strings")
    if not elements:
        raise OrdinalError(f"empty poset document {path}: 'elements' lists no element")
    if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2 and isinstance(c[0], str)
            and isinstance(c[1], str) for c in covers):
        raise OrdinalError(f"malformed poset document {path}: "
                           "'covers' must be a list of [lower, upper] string pairs")
    return build_poset(elements, covers)


def poset_to_dot(p: Poset) -> str:
    """One node per element, one directed edge per cover, lower -> upper."""
    def quote(s: str) -> str:
        return '"' + s.replace('"', r'\"') + '"'

    lines = ["digraph poset {", "  rankdir=BT;"]
    lines += [f"  {quote(e)};" for e in p.elements]
    lines += [f"  {quote(a)} -> {quote(b)};" for a, b in p.covers]
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_atom_values(path) -> dict:
    """A plain ``{"atom": weight}`` mapping."""
    doc = _numbers(_load_json(path), path, "an atom-weight")
    return {str(k): v for k, v in doc.items()}


def load_valuation(path) -> Valuation:
    """Read ``{"poset": path, "mode": "atoms"|"total", "values": {...}}``.

    The poset path is resolved relative to the valuation document.
    """
    from .valuation import Valuation, derive_valuation_from_atoms

    doc = _load_json(path)
    try:
        poset_path = Path(path).parent / doc["poset"]
        mode = doc.get("mode", "atoms")
        values = _numbers(doc["values"], path, "a values")
    except (KeyError, TypeError, AttributeError) as exc:
        raise OrdinalError(f"malformed valuation document {path}: {exc}") from exc
    poset = load_poset(poset_path)
    try:
        if mode == "atoms":
            return derive_valuation_from_atoms(poset, values)
        if mode == "total":
            return Valuation(poset, values)
    except (ValueError, ArithmeticError) as exc:  # values that do not fit the poset
        raise OrdinalError(f"malformed valuation document {path}: {exc}") from exc
    raise OrdinalError(f"unknown valuation mode {mode!r}")


def load_distribution(path) -> AtomDistribution:
    """Read ``{"probs": {"a": 0.5, ...}}``."""
    from .information import AtomDistribution

    doc = _load_json(path)
    if not isinstance(doc, dict) or "probs" not in doc:
        raise OrdinalError(f"{path} lacks a 'probs' mapping")
    probs = _numbers(doc["probs"], path, "a 'probs'")
    try:
        return AtomDistribution(probs)
    except (ValueError, ArithmeticError) as exc:  # negative, or not summing to one
        raise OrdinalError(f"malformed distribution document {path}: {exc}") from exc


def parse_rational(value) -> Fraction:
    """Accept ints and strings like ``"3"``, ``"-1/2"`` or ``"0.5"``, but no
    exponents: ``"1e-20000000"`` would expand to twenty million digits."""
    from fractions import Fraction

    if isinstance(value, bool) or isinstance(value, float):
        raise OrdinalError(f"rationals must be integers or strings, got {value!r}")
    if isinstance(value, str) and re.search(r"[\d.][eE]", value):
        raise OrdinalError(f"bad rational {value!r}: exponent notation is not accepted")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise OrdinalError(f"bad rational {value!r}: {exc}") from exc


class Scene(Record):
    """Named events and chains, plus optional named frames (chain pairs)."""

    __slots__ = ("events", "chains", "frames")

    def __init__(self, events: dict[str, Event], chains: dict[str, ObserverChain],
                 frames: dict[str, tuple[str, str]] | None = None):
        set_field(self, "events", events)
        set_field(self, "chains", chains)
        set_field(self, "frames", {} if frames is None else frames)

    def event(self, name: str) -> Event:
        if name not in self.events:
            raise OrdinalError(f"scene has no event {name!r}")
        return self.events[name]

    def chain(self, name: str) -> ObserverChain:
        if name not in self.chains:
            raise OrdinalError(f"scene has no chain {name!r}")
        return self.chains[name]

    def frame(self, name: str) -> tuple[ObserverChain, ObserverChain]:
        if name not in self.frames:
            raise OrdinalError(f"scene has no frame {name!r}")
        a, b = self.frames[name]
        return self.chain(a), self.chain(b)


def _new_id(path, kind: str, entry, taken: dict) -> str:
    """entry's id as a string, refused if taken already has it: a repeated
    id would silently replace the entry before it."""
    name = str(entry["id"])
    if name in taken:
        raise OrdinalError(f"malformed scene document {path}: {kind} id {name!r} appears twice")
    return name


def load_scene(path) -> Scene:
    """Read a scene document; all rationals are strings like ``"3/4"``, and
    each bound of a chain's index range is a JSON integer."""
    from .spacetime import Event, ObserverChain

    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise OrdinalError(f"malformed scene document {path}: not a JSON object")
    try:
        events = {}
        for entry in doc.get("events", []):
            events[_new_id(path, "event", entry, events)] = Event(
                parse_rational(entry["t"]), parse_rational(entry["x"]))
        chains = {}
        for entry in doc.get("chains", []):
            origin = entry.get("origin", {"t": 0, "x": 0})
            lo, hi = entry.get("range", [0, 100])
            for bound in (lo, hi):
                if type(bound) is not int:  # a float or a bool would be truncated
                    raise OrdinalError(f"malformed scene document {path}: "
                                       f"range bound {bound!r} is not an integer")
            chains[_new_id(path, "chain", entry, chains)] = ObserverChain(
                origin=Event(parse_rational(origin["t"]), parse_rational(origin["x"])),
                k=parse_rational(entry.get("k", 1)),
                tick=parse_rational(entry.get("tick", 1)),
                index_range=(lo, hi),
                label=str(entry["id"]))
        frames = {}
        for entry in doc.get("frames", []):
            a, b = entry["chains"]
            frames[_new_id(path, "frame", entry, frames)] = (str(a), str(b))
    except (KeyError, TypeError, AttributeError, ValueError, ArithmeticError) as exc:
        raise OrdinalError(f"malformed scene document {path}: {exc}") from exc
    missing = [f for f, (a, b) in frames.items()
               if a not in chains or b not in chains]
    if missing:
        raise OrdinalError(f"frames reference unknown chains: {missing}")
    return Scene(events=events, chains=chains, frames=frames)


def scene_to_dict(scene: Scene) -> dict:
    return {
        "events": [{"id": name, "t": str(e.t), "x": str(e.x)}
                   for name, e in sorted(scene.events.items())],
        "chains": [{"id": name, "k": str(c.k), "tick": str(c.tick),
                    "origin": {"t": str(c.origin.t), "x": str(c.origin.x)},
                    "range": list(c.index_range)}
                   for name, c in sorted(scene.chains.items())],
        "frames": [{"id": name, "chains": list(pair)}
                   for name, pair in sorted(scene.frames.items())],
    }
