"""Command-line front end: golden values, determinism, exit codes, formats."""

import json

import pytest
from mpmath import mp, mpf, sqrt

from sixvertex import cli
from sixvertex.cli import main, parse_grid, parse_int_range
from sixvertex.oracle import MAX_ENUM_N


def run(argv, capsys):
    code = main(argv)
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
    # the af density is closed form: no mpmath.quad call in the resolvent
    # layer, so the slow route cannot come back unnoticed
    import importlib
    resolvent = importlib.import_module("sixvertex.asymptotics.resolvent")
    calls = []
    quad = resolvent.quad

    def counting(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)
    monkeypatch.setattr(resolvent, "quad", counting)
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
    code, out, _ = run(["check", "oracle", "--n", "1..3", "--bits", "192"],
                       capsys)
    assert code == 0
    assert all(line.endswith("pass") for line in out.strip().splitlines()[1:])


def test_check_oracle_beyond_enumeration_range_exits_2(capsys):
    code, _, err = run(["check", "oracle", "--n", str(MAX_ENUM_N + 1),
                        "--bits", "64"], capsys)
    assert code == 2
    assert "outside supported enumeration range" in err


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


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"phase": "af", "gamma": "1.0", "t": "0.3",
                               "n": "2", "bits": 128}))
    code, out, _ = run(["exact", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


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
