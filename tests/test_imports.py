"""What each entry point loads: the package imports names on first use, and
the command line answers help and usage errors before any numeric module
loads, while ``import sixvertex.cli`` still loads every layer."""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sixvertex
from sixvertex import argv, cli, exactcore

ROOT = Path(__file__).resolve().parent.parent
NUMERIC = {"mpmath", "sixvertex.exactcore"}


def loaded_after(code):
    """The module names in sys.modules after running code in a fresh
    interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


HELP_AND_USAGE_ERRORS = """
from sixvertex.argv import main
for args in (["--help"], ["exact", "--help"]):
    try:
        main(args)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    else:
        raise AssertionError(args)
assert main(["exact"]) == 2    # --phase missing
"""


@pytest.mark.parametrize("code", [HELP_AND_USAGE_ERRORS, "import sixvertex"],
                         ids=["help_and_usage_errors", "bare_import"])
def test_light_paths_load_no_numeric_code(code):
    assert not NUMERIC & loaded_after(code)


def test_bare_import_lists_and_resolves_names_on_first_use():
    loaded = loaded_after(
        "import sixvertex\n"
        "assert set(sixvertex.__all__) <= set(dir(sixvertex))\n"
        "assert sixvertex.exactcore.__name__ == 'sixvertex.exactcore'")
    assert "mpmath" in loaded


def test_every_public_name_resolves():
    for name in sixvertex.__all__:
        getattr(sixvertex, name)
    namespace = {}
    exec("from sixvertex import *", namespace)
    assert set(sixvertex.__all__) <= set(namespace)
    assert sixvertex.tau_sequence is sixvertex.exactcore.tau_sequence


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sixvertex.no_such_name


def test_parser_phases_are_exactcore_phases():
    # --help prints them as {fe,d,af}: same values, same order
    assert argv.PHASES == exactcore.PHASES


def test_every_subcommand_has_a_command():
    sub = next(action for action in argv.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.COMMANDS)


def test_cli_import_loads_every_traced_layer():
    # perfbench's trace shim imports sixvertex.cli, then wraps the public
    # functions of each layer module it finds in sys.modules
    path = ROOT / "perfbench" / "traceshim.py"
    spec = importlib.util.spec_from_file_location("traceshim", path)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    assert len(shim.LAYERS) == 7
    assert set(shim.LAYERS) <= loaded_after("import sixvertex.cli")


def test_console_script_loads_no_numeric_code():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sixvertex"]
    module, func = target.split(":")
    loaded = loaded_after(f"import {module}\nassert callable({module}.{func})")
    assert module in loaded and not NUMERIC & loaded
