"""What each entry point loads: the package imports names on first use, and
the command line answers help and usage errors before any numeric module
loads, while ``import sixvertex.cli`` still loads every layer."""

import argparse
import csv
import importlib.util
import io
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
    interpreter on this checkout's sources (listed without importing json,
    so a code path that loads json shows it)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


HELP_AND_USAGE_ERRORS = """
from sixvertex.argv import main
for args, code in ((["--help"], 0), (["exact", "--help"], 0),
                   (["bulk", "--help", "-0.3"], 0),   # --help takes no value
                   (["exact"], 2)):    # --phase and --gamma missing
    try:
        main(args)
    except SystemExit as exc:
        assert exc.code == code, exc.code
    else:
        raise AssertionError(args)
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


def _trace_shim():
    """perfbench's trace shim, loaded by path: it imports sixvertex.cli,
    then wraps the public functions of each layer module in sys.modules."""
    path = ROOT / "perfbench" / "traceshim.py"
    spec = importlib.util.spec_from_file_location("traceshim", path)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    return shim


def test_cli_import_loads_every_traced_layer():
    shim = _trace_shim()
    assert len(shim.LAYERS) == 7
    assert set(shim.LAYERS) <= loaded_after("import sixvertex.cli")


def test_trace_shim_selects_functions_not_records():
    # the shim's own filter: public, callable, not a type, defined in the
    # layer; records (NamedTuple classes) are types, so none is wrapped and
    # the per-layer metrics count the same 36 functions as with dataclasses
    shim = _trace_shim()
    selected = {name for modname in shim.LAYERS
                for name, obj in vars(sys.modules[modname]).items()
                if not name.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == modname}
    records = {"PhaseParams", "Weights", "Phase", "TauValue", "EllipticData",
               "EnumResult", "FreeEnergy", "SaddleGeometry", "Precision"}
    assert not records & selected
    assert {"tau_sequence", "toda_residuals", "theta_all", "endpoints",
            "bulk_f", "rho_at", "enumerate_dwbc"} <= selected
    assert len(selected) == 36


EXACT = ["exact", "--phase", "af", "--gamma", "1", "--t", "0.3", "--n", "1..4",
         "--bits", "96"]


def test_cli_import_and_a_command_load_no_dataclasses_inspect_or_json():
    loaded = loaded_after("import sixvertex.cli\n"
                          "from sixvertex.argv import main\n"
                          f"assert main({EXACT!r}) == 0")
    assert "sixvertex.exactcore" in loaded
    assert not {"dataclasses", "inspect", "json"} & loaded


def test_json_format_loads_json_and_writes_the_csv_rows(capsys):
    assert "json" in loaded_after("from sixvertex.argv import main\n"
                                  f"assert main({EXACT + ['--format', 'json']!r}) == 0")
    assert argv.main(EXACT) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert argv.main(EXACT + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert rows[0] == payload["columns"] and len(rows) == 5
    assert rows[1:] == [[str(r[c]) for c in rows[0]] for r in payload["rows"]]


def test_console_script_loads_no_numeric_code():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sixvertex"]
    module, func = target.split(":")
    loaded = loaded_after(f"import {module}\nassert callable({module}.{func})")
    assert module in loaded and not NUMERIC & loaded
