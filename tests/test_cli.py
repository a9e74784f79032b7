"""Command-line front end: golden values, determinism, exit codes, formats."""

import csv
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf, sqrt

from sixvertex import Precision, PhaseDomainError, cli, phase_params
from sixvertex.cli import main, parse_grid, parse_int_range
from sixvertex.oracle import MAX_ENUM_N

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PERFBENCH_REFERENCE = PERFBENCH / "reference.json"


def _load_perfbench():
    """perfbench's workloads and check modules, check loaded by path; both
    import from perfbench/ as their top level.  check's dataclasses need it
    in sys.modules while it runs."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        spec = importlib.util.spec_from_file_location(
            "perfbench_check", PERFBENCH / "check.py")
        check = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check)
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, check


WORKLOADS, PERFBENCH_CHECK = _load_perfbench()


def run(argv, capsys):
    """main's exit code, also when argparse refuses argv (SystemExit)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_int_range():
    assert parse_int_range("5") == [5]
    assert parse_int_range("1..4") == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        parse_int_range("4..1")


def test_parse_grid_counts():
    assert len(parse_grid("-0.9..0.9..0.1")) == 19
    assert len(parse_grid("0.5")) == 1
    assert parse_grid("0.3..0.3..0.1") == ["0.3"]
    assert parse_grid("0.3..0.25..0.1") == ["0.3"]   # stop rounds to start
    with pytest.raises(ValueError, match="empty grid"):
        parse_grid("0.3..0.1..0.1")


def test_exact_ice_point_golden(capsys):
    code, out, _ = run(["exact", "--phase", "d", "--gamma", "1.0471975512",
                        "--t", "0", "--n", "5", "--bits", "256"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,log_tau_scaled,Z,log_Z_over_N2"
    field = lines[1].split(",")[2]
    with mp.workprec(300):
        # gamma is only the 10-digit approximation of pi/3, so compare at the
        # matching accuracy: Z_5 = (sqrt3/2)^25 * 429
        expected = (sqrt(mpf(3)) / 2) ** 25 * 429
        assert abs(mpf(field) - expected) / expected < mpf("1e-9")


def test_exact_row_count(capsys):
    code, out, _ = run(["exact", "--phase", "af", "--gamma", "1.0", "--t",
                        "0.3", "--n", "1..10", "--bits", "128"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 11


def test_exact_fe_beyond_n16(capsys):
    code, out, _ = run(["exact", "--phase", "fe", "--gamma", "0.4", "--t",
                        "1.5", "--n", "17..24"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_exact_fe_n200(capsys):
    # the loss at N=200 is about 840 bits; the first round predicts it
    code, out, _ = run(["exact", "--phase", "fe", "--gamma", "0.4", "--t",
                        "1.5", "--n", "200"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1].startswith("200,")


def test_exact_fe_negative_gamma(capsys):
    # Z_N changes sign with N; the logarithms are of magnitudes
    rows = {}
    for gamma in ("0.4", "-0.4"):
        code, out, _ = run(["exact", "--phase", "fe", "--gamma", gamma,
                            "--t", "1.5", "--n", "1..3", "--bits", "128"],
                           capsys)
        assert code == 0
        rows[gamma] = [line.split(",") for line in out.strip().splitlines()[1:]]
    for (n, lt, z, lz), (_, lt_m, z_m, lz_m) in zip(rows["0.4"], rows["-0.4"]):
        assert (lt_m, lz_m) == (lt, lz)
        assert mpf(z_m) == (-1) ** int(n) * mpf(z)


def test_invalid_region_exits_2(capsys):
    code, _, err = run(["exact", "--phase", "fe", "--gamma", "2", "--t", "1"],
                       capsys)
    assert code == 2
    assert "|gamma| < t" in err


@pytest.mark.parametrize("bits", [64, 256])
def test_points_outside_the_kept_region_exit_2(bits, capsys):
    # t or gamma 10^(-d) past the edge, d between (bits+64) and (bits+96)
    # bits: the parse sees the point inside, the t and gamma kept do not;
    # and fe at gamma = 0, where c = sinh 0 = 0
    d = round((bits + 80) * 0.30103)
    past = lambda x: x + "0" * (d - len(x) + 1) + "1"
    for argv in (["bulk", "--phase", "fe", "--gamma", "0.4", "--t", past("0.4")],
                 ["exact", "--phase", "d", "--gamma", past("0.3"), "--t", "0.3",
                  "--n", "3"],
                 ["exact", "--phase", "fe", "--gamma", "0", "--t", "1",
                  "--n", "3"]):
        code, out, err = run(argv + ["--bits", str(bits)], capsys)
        assert (code, out) == (2, ""), argv
        assert f"{argv[2]} phase requires " in err and "Traceback" not in err
    # pi/2 is compared at the working precision, not at 53 bits
    p = Precision(bits)
    with pytest.raises(PhaseDomainError, match=r"gamma < pi/2"):
        phase_params("d", "0.3", "1.5707963267948967", p)
    for g in ("1.5707963267948965", "1.5707963267948966"):
        assert phase_params("d", "0.3", g, p).edge > 0


def test_determinism_and_out_file(tmp_path, capsys):
    args = ["exact", "--phase", "af", "--gamma", "1.0", "--t", "0.25",
            "--n", "1..6", "--bits", "192"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_jobs_match_serial(tmp_path):
    args = ["bulk", "--phase", "d", "--gamma", "0.9", "--t", "-0.2..0.2..0.2",
            "--bits", "128"]
    f1, f2 = tmp_path / "serial.csv", tmp_path / "par.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("command", ["bulk", "density"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(command, jobs, capsys):
    # a count below 1 used to run serially and exit 0
    code, out, err = run([command, "--phase", "d", "--gamma", "1", "--zeta",
                          "0.1", "--bits", "96", "--jobs", jobs], capsys)
    assert code == 2 and out == ""
    assert "--jobs must be >= 1" in err


@pytest.mark.parametrize("point", [
    ["--phase", "af", "--gamma", "1", "--zeta", "0.4", "--grid", "3"],
    ["--phase", "d", "--gamma", "1", "--zeta", "0.3", "--grid", "5"],
])
def test_density_jobs_match_serial(tmp_path, point):
    f1, f2 = tmp_path / "serial.csv", tmp_path / "par.csv"
    assert main(["density", *point, "--out", str(f1)]) == 0
    assert main(["density", *point, "--jobs", "2", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_rows_reuse_what_the_command_computed_once(monkeypatch, capsys):
    # density rows share the command's endpoint geometry; check oracle takes
    # every N of a phase from one tau sequence
    import sys
    from sixvertex import asymptotics, exactcore
    calls = {"endpoints": 0, "tau_sequence": 0}
    for name, original in (("endpoints", asymptotics.endpoints),
                           ("tau_sequence", exactcore.tau_sequence)):
        def counting(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for modname, module in list(sys.modules.items()):
            if modname.startswith("sixvertex") \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    code, _, _ = run(["density", "--phase", "d", "--gamma", "1", "--zeta", "0.3",
                      "--grid", "5"], capsys)
    assert code == 0 and calls["endpoints"] == 1, calls
    code, _, _ = run(["check", "oracle", "--n", "1..6"], capsys)
    assert code == 0 and calls["tau_sequence"] == 3, calls


def test_af_density_runs_no_quadrature(monkeypatch, capsys):
    # the af density is closed form: no quadrature rule runs, however
    # mpmath.quad was imported, so the slow route cannot come back unnoticed
    from mpmath.calculus.quadrature import QuadratureRule
    calls = []
    summation = QuadratureRule.summation

    def counting(self, *args, **kwargs):
        calls.append(args)
        return summation(self, *args, **kwargs)
    monkeypatch.setattr(QuadratureRule, "summation", counting)
    code, out, _ = run(["density", "--phase", "af", "--gamma", "1", "--zeta",
                        "0", "--grid", "5"], capsys)
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert code == 0 and len(rows) == 5
    assert {row[2] for row in rows} == {"0", "1"}   # bands and core sampled
    assert calls == []


def test_check_toda_passes(capsys):
    code, out, _ = run(["check", "toda", "--phase", "af", "--gamma", "1",
                        "--t", "0.2", "--n", "1..4", "--bits", "128"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.endswith("pass") for line in lines[1:])


def test_check_oracle_passes(capsys):
    # with no point flag it checks its three fixed points at every N
    code, out, _ = run(["check", "oracle", "--n", "1..3", "--bits", "192"],
                       capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == [
        f"oracle_{phase}_N{n}" for n in (1, 2, 3) for phase in ("fe", "d", "af")]
    assert all(row[3] == "pass" for row in rows)


def test_check_oracle_beyond_enumeration_range_exits_2(capsys):
    code, _, err = run(["check", "oracle", "--n", str(MAX_ENUM_N + 1),
                        "--bits", "64"], capsys)
    assert code == 2
    assert "outside supported enumeration range" in err


@pytest.mark.parametrize("argv,flags", [
    (["oracle", "--phase", "fe", "--gamma", "0.4", "--n", "1..2"],
     ["--phase", "--gamma"]),
    (["identities", "--t", "0.3"], ["--t"]),
    (["identities", "--zeta=-0.2"], ["--zeta"]),
])
def test_check_fixed_suites_refuse_a_phase_point(argv, flags, capsys):
    # oracle and identities run fixed points; they used to ignore these
    code, out, err = run(["check", *argv, "--bits", "96"], capsys)
    assert code == 2 and out == ""
    assert all(flag in err for flag in flags), err


@pytest.mark.parametrize("argv,err_text", [
    pytest.param(argv, text, id=" ".join(argv)) for argv, text in [
        *[([target, flag, "2"], f"unrecognized arguments: {flag}")
          for target, flags in (("identities", ("--n", "--imax", "--ansatz-n")),
                                ("toda", ("--imax", "--ansatz-n")),
                                ("oracle", ("--imax", "--ansatz-n")),
                                ("laplace", ("--n", "--ansatz-n")),
                                ("derivative", ("--n", "--imax")))
          for flag in flags],
        # flags go after the target: 96 is taken for a target, not for --bits
        (["--bits", "96", "oracle"], "invalid choice: '96'"),
    ]])
def test_check_targets_refuse_flags_they_do_not_read(argv, err_text, capsys):
    # each of these used to be ignored (or misparsed), and the check exited 0
    code, out, err = run(["check", *argv, "--bits", "96"], capsys)
    assert code == 2 and out == ""
    assert err_text in err, err


def test_check_toda_refuses_imax_from_config(tmp_path, capsys):
    cfg = tmp_path / "imax.json"
    cfg.write_text(json.dumps({"imax": 2}))
    code, out, err = run(["check", "toda", "--config", str(cfg), "--n", "1..2",
                          "--bits", "96"], capsys)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --imax=2" in err, err


def test_check_ode_refuses_ansatz_n_outside_af(monkeypatch, capsys):
    # only the af ansatz reads --ansatz-n; the d check used to ignore it
    def refuse(*args, **kwargs):
        raise AssertionError("ode_check ran before --ansatz-n was refused")

    monkeypatch.setattr(cli.asymptotics, "ode_check", refuse)
    code, out, err = run(["check", "ode", "--phase", "d", "--gamma", "1",
                          "--t", "0.3", "--ansatz-n", "4", "--bits", "96"],
                         capsys)
    assert code == 2 and out == ""
    assert "--ansatz-n applies to the af phase only" in err


def test_check_oracle_refuses_a_phase_point_from_config(tmp_path, capsys):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({"phase": "af", "gamma": "1"}))
    code, out, err = run(["check", "oracle", "--config", str(cfg),
                          "--n", "1..2", "--bits", "96"], capsys)
    assert code == 2 and out == ""
    assert "--phase" in err and "--gamma" in err


def test_check_identities_passes(capsys):
    code, out, _ = run(["check", "identities", "--bits", "128"], capsys)
    assert code == 0
    assert all(line.endswith("pass") for line in out.strip().splitlines()[1:])


def test_check_laplace(capsys):
    code, out, _ = run(["check", "laplace", "--gamma", "1", "--t", "0.3",
                        "--imax", "3", "--bits", "96"], capsys)
    assert code == 0
    assert "laplace_moments_max_err" in out


def test_check_laplace_honours_zeta(monkeypatch, capsys):
    # t = zeta * gamma, as in the other checks; the default stays t = 0.3
    seen = []

    def spy(prm, i_max, p):
        seen.append(prm)
        return mpf(0)

    monkeypatch.setattr(cli, "laplace_moment_check", spy)
    base = ["check", "laplace", "--gamma", "1.25", "--bits", "96"]
    for extra in (["--zeta", "0.4"], ["--zeta=-0.2"], []):
        assert run(base + extra, capsys)[0] == 0
    with mp.workprec(160):
        for prm, t in zip(seen, ("0.5", "-0.25", "0.3")):
            assert abs(prm.t - mpf(t)) < mpf(2) ** (-150), (prm.t, t)
            assert abs(prm.zeta - mpf(t) / mpf("1.25")) < mpf(2) ** (-150)


@pytest.mark.parametrize("phase,code", [("fe", 2), ("af", 2), ("d", 0)])
def test_check_laplace_runs_d_only(monkeypatch, capsys, phase, code):
    # an explicit --phase other than d used to run d silently and exit 0
    monkeypatch.setattr(cli, "laplace_moment_check", lambda *args: mpf(0))
    got, _, err = run(["check", "laplace", "--phase", phase, "--gamma", "1",
                       "--bits", "96"], capsys)
    assert got == code
    assert ("(choose from 'd')" in err) == (code == 2)


def test_check_ode_both_branches(capsys):
    code, out, _ = run(["check", "ode", "--phase", "d", "--gamma", "1",
                        "--t", "0.3", "--bits", "96"], capsys)
    assert code == 0
    assert "f_second_derivative_vs_exp2f" in out
    code, out, _ = run(["check", "ode", "--phase", "af", "--gamma", "1",
                        "--zeta", "0.2", "--ansatz-n", "4", "--bits", "96"],
                       capsys)
    assert code == 0
    assert "toda_of_theta_ansatz" in out


def test_check_derivative_af(capsys):
    code, out, _ = run(["check", "derivative", "--phase", "af", "--gamma",
                        "1", "--zeta", "0.4", "--bits", "96"], capsys)
    assert code == 0
    assert "chemical_potential_residual" in out


def test_check_derivative_af_at_large_gamma(capsys):
    # k' ~ 4 e^(-200) ~ 2^(-286) reaches the Landen pass unrounded
    code, out, err = run(["check", "derivative", "--phase", "af", "--gamma",
                          "200", "--zeta", "0.4"], capsys)
    assert code == 0 and "Traceback" not in err
    assert "chemical_potential_residual" in out and "FAIL" not in out


def test_af_density_core_at_large_gamma(capsys):
    # beta - beta' rounds to zero at 96 bits; the core reads the bound
    code, out, err = run(["density", "--phase", "af", "--gamma", "100",
                          "--zeta", "0", "--grid", "2", "--bits", "96"], capsys)
    assert code == 0 and "Traceback" not in err
    assert out.splitlines()[1:] == ["-50.0,0.005,1", "50.0,0.005,1"]


def test_fit_refuses_fewer_than_four_values(capsys):
    code, out, err = run(["fit", "--phase", "af", "--gamma", "1", "--zeta",
                          "0", "--n", "5..7"], capsys)
    assert code == 2 and out == ""
    assert "need at least 4 consecutive tau values" in err


def _reference_check_commands():
    with open(PERFBENCH_REFERENCE, encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    return {command: entry["rows"] for command, entry in commands.items()
            if command.startswith("check ")}


@pytest.mark.parametrize("command,rows", [
    pytest.param(command, rows, id=command)
    for command, rows in sorted(_reference_check_commands().items())])
def test_check_rows_match_perfbench_reference(command, rows, capsys):
    # the benchmark compares a check's name, tolerance and status as exact
    # text (its measured value by digits), so a renamed check, a changed
    # tolerance or a failing row shows here first
    code, out, _ = run(command.split(), capsys)
    assert code == 0
    got = list(csv.reader(io.StringIO(out)))[1:]
    assert [(c, t, s) for c, _, t, s in got] == \
        [(c, t, s) for c, _, t, s in rows]


@pytest.mark.parametrize("command", [
    pytest.param(command, id=command) for name in WORKLOADS.WORKLOADS
    for command in WORKLOADS.all_commands(name)])
def test_benchmark_rows_pass_its_own_check(command, monkeypatch, capsys):
    # every command any seed can select, judged by the benchmark's row
    # check: each requested row delivered with its digits, none wrong
    monkeypatch.delenv("SIXVERTEX_BITS", raising=False)
    code, out, err = run(command.split(), capsys)
    ref = PERFBENCH_CHECK.load_reference()[command]
    result = PERFBENCH_CHECK.check_output(command, ref, code, out, err)
    # no problems either: an extra row leaves ok == requested
    assert result.ok == result.requested and not result.wrong \
        and not result.problems, result.problems


def test_bulk_grid_rows(capsys):
    code, out, _ = run(["bulk", "--phase", "af", "--gamma", "1", "--zeta",
                        "-0.9..0.9..0.1", "--bits", "96"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 20


def test_grid_points_match_values_given_alone(capsys):
    # start + i*step in decimal: the middle point is 0, not a rounding
    # residue, and every grid row is the row of its value given alone
    code, out, _ = run(["bulk", "--phase", "d", "--gamma", "1", "--zeta",
                        "-0.9..0.9..0.1", "--bits", "96"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows[9].startswith("0.0,0.0,")
    for i in (0, 9, 12, 18):
        zeta = f"{(i - 9) / 10:.1f}"
        code, alone, _ = run(["bulk", "--phase", "d", "--gamma", "1",
                              "--zeta", zeta, "--bits", "96"], capsys)
        assert code == 0 and alone.strip().splitlines()[1] == rows[i], zeta


@pytest.mark.parametrize("grid", ["0.1..0.x..0.1", "nan..1..0.1",
                                  "0.1..0.3..0", "1..2", "0.3..0.1..0.1"])
def test_malformed_grid_exits_2(grid, capsys):
    code, out, err = run(["bulk", "--phase", "d", "--gamma", "1", "--zeta",
                          grid, "--bits", "96"], capsys)
    assert code == 2 and out == "" and "invalid input" in err


def test_density_symmetric_profile(capsys):
    code, out, _ = run(["density", "--phase", "d", "--gamma", "1.0",
                        "--zeta", "0", "--grid", "8", "--bits", "96"], capsys)
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 8
    rhos = [mpf(l.split(",")[1]) for l in lines]
    with mp.workprec(128):
        # zeta = 0 makes the potential even: profile symmetric under mu -> -mu
        for a, b in zip(rhos, reversed(rhos)):
            assert abs(a - b) < mpf("1e-12")


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_density_grid_below_one_exits_2(grid, capsys):
    code, out, err = run(["density", "--phase", "d", "--gamma", "1.0",
                          "--zeta", "0", "--grid", grid, "--bits", "96"],
                         capsys)
    assert code == 2
    assert out == ""
    assert "invalid input" in err


def test_fit_af_json(capsys):
    code, out, _ = run(["fit", "--phase", "af", "--gamma", "1", "--zeta", "0",
                        "--n", "2..9", "--bits", "256", "--format", "json"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["spread_top_half"]
    assert len(payload["rows"]) == 8


def test_fit_d_prints_the_ratios_of_one_bulk_f(monkeypatch, capsys):
    # r_N comes from smooth_fit_D, whose bulk f is the only one computed
    from sixvertex import asymptotics
    calls, fitted = [], []
    bulk_f, smooth_fit_D = asymptotics.bulk_f, asymptotics.smooth_fit_D

    def counting(*args, **kwargs):
        calls.append(args)
        return bulk_f(*args, **kwargs)

    def recording(*args, **kwargs):
        fitted.append(smooth_fit_D(*args, **kwargs))
        return fitted[-1]

    for modname, module in list(sys.modules.items()):
        if modname.startswith("sixvertex") \
                and getattr(module, "bulk_f", None) is bulk_f:
            monkeypatch.setattr(module, "bulk_f", counting)
    monkeypatch.setattr(asymptotics, "smooth_fit_D", recording)
    code, out, _ = run(["fit", "--phase", "d", "--gamma", "1", "--t", "0.3",
                        "--n", "2..12", "--bits", "128"], capsys)
    assert code == 0 and len(calls) == 1 and len(fitted) == 1
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows == [[str(n), cli._fmt(r, 128)]
                    for n, r in zip(range(2, 13), fitted[0][0])]


def test_fit_refuses_fe_before_computing_tau(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("fit computed tau before checking the phase")

    monkeypatch.setattr(cli, "tau_sequence", refuse)
    code, _, err = run(["fit", "--phase", "fe", "--gamma", "0.4", "--t", "1.5",
                        "--n", "2..500"], capsys)
    assert code == 2
    assert "invalid choice: 'fe' (choose from 'af', 'd')" in err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"phase": "af", "gamma": "1.0", "t": "0.3",
                               "n": "2", "bits": 128}))
    code, out, _ = run(["exact", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_explicit_flags_beat_the_config_file(tmp_path, capsys):
    # an abbreviated flag (--gam) is explicit too; check flags follow the target
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"phase": "af", "gamma": "1.0", "t": "0.3",
                               "bits": 96, "format": "json"}))
    code, out, _ = run(["exact", "--gam", "0.9", "--config", str(cfg),
                        "--n", "1"], capsys)
    assert code == 0 and json.loads(out)["meta"]["gamma"] == "0.9"
    code, out, _ = run(["check", "toda", "--config", str(cfg), "--n", "1..2",
                        "--zeta", "0.5"], capsys)
    assert code == 0
    assert json.loads(out)["meta"] == {"target": "toda", "bits": 96}


def test_abbreviated_zeta_skips_the_config_t(tmp_path, capsys):
    # --ze abbreviates --zeta, so the file's t must not join it: the run is
    # the run of --zeta 0.2 without a config
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"t": "0.3"}))
    point = ["--phase", "af", "--gamma", "1", "--n", "1..2", "--bits", "96"]
    got = run(["exact", *point, "--ze", "0.2", "--config", str(cfg)], capsys)
    want = run(["exact", *point, "--zeta", "0.2"], capsys)
    assert got == want and want[0] == 0


def test_negative_value_after_an_abbreviated_flag(capsys):
    point = ["bulk", "--phase", "af", "--gamma", "1", "--bits", "96"]
    got = run([*point, "--ze", "-0.9..0.9..0.3"], capsys)
    want = run([*point, "--zeta", "-0.9..0.9..0.3"], capsys)
    assert got == want and want[0] == 0 and len(want[1].splitlines()) == 8


def test_unwritable_out_exits_1(tmp_path, capsys):
    code, _, err = run(["exact", "--phase", "af", "--gamma", "1.0", "--t",
                        "0.3", "--n", "1", "--bits", "128",
                        "--out", str(tmp_path / "missing" / "x.csv")], capsys)
    assert code == 1
    assert "i/o error" in err


def test_env_var_bits(monkeypatch, capsys):
    monkeypatch.setenv("SIXVERTEX_BITS", "128")
    code, out, _ = run(["exact", "--phase", "af", "--gamma", "1.0",
                        "--t", "0.3", "--n", "1", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["meta"]["bits"] == 128


def test_malformed_env_var_bits_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("SIXVERTEX_BITS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--phase", "af", "--gamma", "1.0", "--t", "0.3",
              "--n", "1"])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err
