"""Tests of the benchmark itself (not of sixvertex).

    python3 -m pytest perfbench -q

They run the real CLI on a tiny workload whose references are built on the
spot, so they take a few seconds.
"""

from __future__ import annotations

import json
import sys

import pytest

import check
import reference
import run
import workloads

TINY = ["exact --phase af --gamma 1 --t 0.3 --n 1..3", "check oracle --n 1..2"]
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_refs():
    return {c: reference.reference_for(c) for c in TINY}


@pytest.fixture
def tiny(monkeypatch, tiny_refs):
    """Register a two-command workload and return a runner for it."""
    monkeypatch.setitem(workloads.WORKLOADS, "tiny",
                        {"why": "test", "commands": TINY, "pools": {}})
    monkeypatch.setattr(run, "load_reference", lambda: tiny_refs)

    def go(capsys, trace=0):
        assert run.main(["--workload", "tiny", "--seconds", "0",
                         "--trace", str(trace)]) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return go


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_smoke_reports_every_metric_with_its_unit(tiny, capsys):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = tiny(capsys, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(kind)


def test_trace_accounts_for_command_time(tiny, capsys):
    m = {k: v["value"] for k, v in tiny(capsys, 1)["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in run.LAYER_NAMES)
    total = layers + m["cli.self_s"] + m["trace.unattributed_s"]
    assert total == pytest.approx(m["trace.command_s"], rel=1e-9)
    # exact computes tau twice per N (3 of 6 calls distinct); the oracle
    # check calls it once per (phase, N) (6 of 6)
    assert m["exactcore.tau_scaled.calls"] == 12
    assert m["exactcore.tau_scaled.useful_ratio"] == 9 / 12
    assert m["oracle.states"] == 3 * (1 + 2)


def test_perturbed_reference_lowers_digits(tiny_refs):
    command = TINY[0]
    out = reference.run_cli(command)
    text = "\n".join(",".join(r) for r in [out[0], *out[1]]) + "\n"
    base = check.check_output(command, tiny_refs[command], 0, text, "")
    perturbed = json.loads(json.dumps(tiny_refs[command]))
    value = perturbed["rows"][1][2]
    digit = value.index(".") + 20
    perturbed["rows"][1][2] = value[:digit] + str((int(value[digit]) + 5) % 10) + value[digit + 1:]
    worse = check.check_output(command, perturbed, 0, text, "")
    assert check.digits_floor([base]) > 70
    assert 17 < check.digits_floor([worse]) < 22
    assert worse.ok == base.ok == 3


def test_forced_nonzero_exit_raises_error_rate(tiny, capsys, monkeypatch):
    clean = tiny(capsys)
    real_argv = run.cli_argv
    header, rows = reference.run_cli(TINY[0])
    table = "\n".join(",".join(r) for r in [header, *rows])

    def failing(command):
        # the correct table, then exit 1: the printed rows fail as well
        if command == TINY[0]:
            return [sys.executable, "-c", f"import sys; print({table!r}); sys.exit(1)"]
        return real_argv(command)
    monkeypatch.setattr(run, "cli_argv", failing)
    forced = tiny(capsys)
    assert clean["failed"] == 0
    assert forced["attempted"] == clean["attempted"] == 3 + 6     # one pass
    assert forced["failed"] == 3
    assert forced["metrics"]["ok_rate"]["value"] < clean["metrics"]["ok_rate"]["value"]
    assert forced["correct"] is True     # a refusal is a failed row, not a wrong one


def test_references_cover_exactly_the_pool_commands():
    wanted = {c for name in workloads.WORKLOADS for c in workloads.all_commands(name)}
    assert set(check.load_reference()) == wanted
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_default_seed_picks_the_first_pool_values():
    cmds = workloads.commands("exact_seq")
    assert cmds[0] == "exact --phase af --gamma 1 --t 0.3 --n 1..40"
    assert workloads.commands("exact_seq", 3) == workloads.commands("exact_seq", 3)
