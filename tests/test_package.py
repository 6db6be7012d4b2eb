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


@pytest.mark.parametrize("argv, unused", [
    (["--version"], SUBMODULES - {"errors"}),
    (["poset", "gen", "boolean", "--atoms", "a"],
     {"information", "partitions", "spacetime", "valuation"}),
    (["info", "entropy", "--dist", "dist.json", "--partition", "a|b"],
     {"poset", "report", "spacetime", "valuation"}),
], ids=["version", "poset gen", "info entropy"])
def test_a_command_loads_only_the_modules_it_uses(tmp_path, argv, unused):
    (tmp_path / "dist.json").write_text(json.dumps({"probs": {"a": 0.5, "b": 0.5}}))
    lines = fresh_python(f"import json, sys\nfrom ordinal.cli import run\n"
                         f"print(run({argv!r}))\n" + PRINT_LOADED + "\n", cwd=tmp_path)
    code, loaded = lines[-2:]
    assert code == "0"
    assert unused.isdisjoint(json.loads(loaded))


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
