"""The package surface, and lazy loading: ``import ordinal`` loads no
submodule, and a command run loads only the modules that command uses.

What a fresh interpreter has loaded cannot be seen from inside this test
session, which has imported everything, so those checks run ``python -c``.
"""
import importlib
import json
import os
import subprocess
import sys

import pytest

import ordinal
from ordinal import cli

SUBMODULES = {"errors", "information", "partitions", "poset", "report",
              "serialize", "spacetime", "valuation"}
PRINT_LOADED = ("print(json.dumps(sorted(m[len('ordinal.'):] for m in sys.modules "
                "if m.startswith('ordinal.'))))")


def fresh_python(script: str, cwd=None) -> list[str]:
    """The stdout lines of script run in a new interpreter on this checkout."""
    src = os.path.dirname(os.path.dirname(ordinal.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True, timeout=60).stdout.splitlines()


def test_bare_import_loads_no_submodule():
    lines = fresh_python("import json, sys\nimport ordinal\n" + PRINT_LOADED + "\n"
                         "print(ordinal.valuation.__name__)\n"
                         "from ordinal import poset as P\n"
                         "print(P.boolean_lattice('ab').top())\n")
    assert lines == ["[]", "ordinal.valuation", "{a,b}"]


# modules no command may load: dataclasses pulls in inspect, ast, dis and
# tokenize, about 12 ms of every run
NEVER = {"dataclasses", "inspect"}
NO_SPACETIME = {"ordinal.information", "ordinal.partitions", "ordinal.spacetime"}
ONLY_SPACETIME = {"ordinal.information", "ordinal.partitions", "ordinal.poset",
                  "ordinal.report", "ordinal.valuation"}
SCENE = {"events": [{"id": "e1", "t": "3", "x": "1"}, {"id": "e2", "t": "9", "x": "2"}],
         "chains": [{"id": "P", "range": [0, 20]},
                    {"id": "Q", "origin": {"t": "0", "x": "5"}, "range": [0, 20]}],
         "frames": [{"id": "rest", "chains": ["P", "Q"]}]}
B2 = {"elements": ["{a,b}", "{a}", "{b}", "{}"],
      "covers": [["{a}", "{a,b}"], ["{b}", "{a,b}"], ["{}", "{a}"], ["{}", "{b}"]]}


@pytest.mark.parametrize("argv, unused", [
    (["--version"], {f"ordinal.{m}" for m in SUBMODULES - {"errors"}} | {"fractions"}),
    (["poset", "gen", "boolean", "--atoms", "a"],
     NO_SPACETIME | {"ordinal.valuation", "fractions", "decimal"}),
    (["poset", "check", "--input", "b2.json"],
     NO_SPACETIME | {"ordinal.valuation", "fractions", "decimal"}),
    (["rules", "audit", "--poset", "b2.json", "--atoms", "w2.json"], NO_SPACETIME),
    (["info", "entropy", "--dist", "dist.json", "--partition", "a|b"],
     {"ordinal.poset", "ordinal.report", "ordinal.spacetime", "ordinal.valuation",
      "fractions"}),
    (["spacetime", "sync", "--scene", "scene.json", "--chains", "P,Q", "--range", "0,5"],
     ONLY_SPACETIME),
    (["spacetime", "interval", "--scene", "scene.json", "--events", "e1,e2",
      "--frames", "rest"],
     ONLY_SPACETIME),
], ids=["version", "poset gen", "poset check", "rules audit", "info entropy",
        "spacetime sync", "spacetime interval"])
def test_a_command_loads_only_the_modules_it_uses(tmp_path, argv, unused):
    for name, doc in [("dist.json", {"probs": {"a": 0.5, "b": 0.5}}), ("b2.json", B2),
                      ("w2.json", {"a": 1, "b": 2}), ("scene.json", SCENE)]:
        (tmp_path / name).write_text(json.dumps(doc))
    lines = fresh_python(f"import json, sys\nfrom ordinal.cli import run\n"
                         f"print(run({argv!r}))\n"
                         "print(json.dumps(sorted(sys.modules)))\n", cwd=tmp_path)
    ran, loaded = lines[-2:]
    assert ran == "0"
    assert (NEVER | unused).isdisjoint(json.loads(loaded))


def test_every_export_resolves_to_the_object_its_submodule_defines():
    lines = fresh_python(
        "import importlib\nimport ordinal\n"
        "names = {}\nexec('from ordinal import *', names)\n"
        "print([name for name in ordinal.__all__ if not names[name] is getattr(ordinal, name)\n"
        "       is getattr(importlib.import_module('ordinal.' + ordinal._SUBMODULE_OF[name]),\n"
        "                  name)])\n")
    assert lines == ["[]"]
    assert set(ordinal.__all__) | (SUBMODULES - {"serialize"}) <= set(dir(ordinal))


def test_an_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match=r"^module 'ordinal' has no attribute 'nonsense'$"):
        ordinal.nonsense


@pytest.mark.parametrize("ref", [entry[0] for table in (cli.AUDITS, cli.GENERATORS)
                                 for entry in table.values()])
def test_every_cli_table_entry_resolves_to_a_function(ref):
    assert callable(cli._resolve(ref))
