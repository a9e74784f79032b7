"""Command-line commands: the work behind each subcommand.

The entry point ``main`` lives in :mod:`sixvertex.argv` and is re-exported
here.  It parses argv and answers help and usage errors without loading this
module, then imports it to run the command named in ``COMMANDS`` and turns
exceptions into exit codes.  The layer imports below stay eager: importing
this module loads every layer the commands use, which perfbench's trace shim
relies on to find and wrap the layer functions.

Subcommands
-----------
exact    rows (N, log(tau_N/c_N), Z_N, log Z_N / N^2) over an N range
check    named cross-checks (toda | oracle | identities | laplace |
         derivative | ode) with pass/fail and measured residuals
bulk     free energy, z_limit and endpoints over a parameter grid
density  (mu, rho) samples with saturated intervals annotated
fit      theta-modulated ratios r_N and their spread (af), or the
         smooth-correction exponent report (d)

Parameters are decimal strings parsed directly at the requested binary
precision (no double round-trip).  Each command parses its input once and
hands the parsed objects (PhaseParams, SaddleGeometry, mpf mu) to its rows,
in process or pickled to the --jobs pool.  Output is CSV (default) or JSON
on stdout or --out; identical configurations produce byte-identical output.
A command returns its exit code (0 success / all checks pass, 1 a check
failed) or raises.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from functools import partial

from mpmath import mp, mpf

from . import asymptotics
from .argv import main  # noqa: F401  the entry point, re-exported
from .errors import PhaseDomainError
from .exactcore import (PHASE_AF, PHASE_D, laplace_moment_check, phase_params,
                        tau_sequence, toda_residuals, weights_from,
                        z_from_tau)
from .oracle import Z_bruteforce
from .precision import Precision, rounded
from .specfun import identity_checks


def _digits(bits):
    return max(17, int(bits * 0.30103) - 2)


def _fmt(x, bits):
    with mp.workprec(bits + 32):
        return mp.nstr(mpf(x), _digits(bits))


def parse_int_range(text):
    """'5' -> [5];  '1..10' -> [1,...,10]."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def parse_grid(text):
    """'0.3' -> ['0.3'];  'a..b..step' -> inclusive decimal grid.

    Each point start + i*step is formed exactly in decimal and passed on as
    a decimal string, so a grid point parses as the same value given alone
    (the grid -0.9..0.9..0.1 holds '0.0').  The commands parse the strings
    at their own precision.
    """
    parts = text.split("..")
    if len(parts) == 1:
        return [parts[0]]
    if len(parts) != 3:
        raise ValueError(f"grid must be 'value' or 'start..stop..step', got {text!r}")
    import decimal   # here: it costs every other command start-up time
    try:
        with decimal.localcontext() as ctx:
            ctx.prec = 4 * len(text) + 40
            ctx.traps[decimal.Inexact] = True
            start, stop, step = (decimal.Decimal(s) for s in parts)
            if step <= 0:
                raise ValueError("grid step must be positive")
            out, x = [], start
            while 2 * (x - stop) <= step:
                out.append(str(x))
                x = start + len(out) * step
            if not out:
                raise ValueError(f"empty grid {text!r}")
            return out
    except decimal.DecimalException as exc:
        raise ValueError(f"malformed grid {text!r}") from exc


def _emit(rows, header, args, meta=None):
    if args.format == "json":
        payload = {"meta": meta or {}, "columns": header,
                   "rows": [dict(zip(header, r)) for r in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _phase_point(phase, gamma, p, t=None, zeta=None):
    """phase_params at t (default 0), or at t = zeta * gamma formed at
    bits + 96; phase_params parses the decimal strings to bits + 64 itself."""
    if zeta is not None:
        with mp.workprec(p.bits + 96):
            t = mpf(zeta) * mpf(gamma)
    return phase_params(phase, "0" if t is None else t, gamma, p)


def _params_from_args(args, p):
    return _phase_point(args.phase, args.gamma, p, args.t,
                        getattr(args, "zeta", None))


# ---------------------------------------------------------------------------
# workers (top level so ProcessPoolExecutor can pickle them)
# ---------------------------------------------------------------------------


def _bulk_row(prm, bits):
    p = Precision(bits)
    fe = asymptotics.bulk_f(prm, p)
    geom = asymptotics.endpoints(prm, p)
    ep = [geom.alpha, geom.alpha_prime, geom.beta_prime, geom.beta]
    eps = [("" if e is None else _fmt(e, bits)) for e in ep]
    return (_fmt(prm.zeta, bits), _fmt(prm.t, bits), _fmt(fe.f, bits),
            _fmt(fe.z_limit, bits), *eps)


def _map_jobs(fn, items, n_workers):
    if n_workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: it costs every other command start-up time
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=n_workers) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _by_n(sequence, prm, ns, p):
    """sequence(prm, N_max, p)[N - 1] for each N of a range, from one call
    (tau_sequence, toda_residuals)."""
    if ns[0] < 1:
        raise ValueError("N must be >= 1")
    seq = sequence(prm, ns[-1], p)
    return [seq[n - 1] for n in ns]


def cmd_exact(args):
    p = Precision(args.bits)
    prm = _params_from_args(args, p)
    rows = []
    taus = _by_n(tau_sequence, prm, parse_int_range(args.n), p)
    for tv, z in zip(taus, z_from_tau(prm, taus, p)):
        with p.work():
            logz_n2 = mp.log(abs(z)) / tv.n ** 2
        rows.append((tv.n, _fmt(tv.log_scaled, args.bits), _fmt(z, args.bits),
                     _fmt(logz_n2, args.bits)))
    header = ["N", "log_tau_scaled", "Z", "log_Z_over_N2"]
    meta = {"phase": prm.phase, "t": _fmt(prm.t, args.bits),
            "gamma": _fmt(prm.gamma, args.bits), "bits": args.bits,
            "note": "log_tau_scaled = log|tau_N/c_N|, c_N = (prod n!)^2"}
    _emit(rows, header, args, meta)
    return 0


def cmd_bulk(args):
    p = Precision(args.bits)
    axis = "zeta" if args.zeta is not None else "t"
    # every row is validated before any is computed
    prms = [_phase_point(args.phase, args.gamma, p, **{axis: x})
            for x in parse_grid(getattr(args, axis))]
    rows = _map_jobs(partial(_bulk_row, bits=args.bits), prms, args.jobs)
    header = ["zeta", "t", "f", "z_limit", "alpha", "alpha_prime",
              "beta_prime", "beta"]
    meta = {"phase": args.phase, "gamma": _fmt(args.gamma, args.bits),
            "bits": args.bits,
            "note": "f = lim log(tau_N/c_N)/N^2; z_limit = a*b*exp(f)"}
    _emit(rows, header, args, meta)
    return 0


def cmd_density(args):
    if args.grid < 1:
        raise ValueError("--grid must be >= 1")
    p = Precision(args.bits)
    prm = _params_from_args(args, p)
    geom = asymptotics.endpoints(prm, p)
    with p.work():
        (lo, hi), sat, bound = asymptotics.support_and_saturation(prm, geom)
        lo, hi = rounded(lo, p), rounded(hi, p)
        step = (mpf(hi) - mpf(lo)) / args.grid
        mus = [mpf(lo) + (i + mpf(1) / 2) * step for i in range(args.grid)]
    rhos = _map_jobs(partial(asymptotics.rho_at, prm, geom, p=p), mus, args.jobs)
    rows = [(_fmt(mu, args.bits), _fmt(rho, args.bits))
            for mu, rho in zip(mus, rhos)]
    header = ["mu", "rho"]
    meta = {
        "phase": prm.phase, "t": _fmt(prm.t, args.bits),
        "gamma": _fmt(prm.gamma, args.bits), "bits": args.bits,
        "support": [_fmt(lo, args.bits), _fmt(hi, args.bits)],
        "saturated_intervals": [[_fmt(a, args.bits), _fmt(b, args.bits)]
                                for (a, b) in sat],
        "bound": "inf" if bound == mp.inf else _fmt(bound, args.bits),
    }
    if args.format == "csv":
        # annotate saturation in-band for plot-ready CSV
        rows = [(*row, int(any(a <= mu <= b for (a, b) in sat)))
                for mu, row in zip(mus, rows)]
        header = ["mu", "rho", "saturated"]
    _emit(rows, header, args, meta)
    return 0


def cmd_fit(args):
    p = Precision(args.bits)
    prm = _params_from_args(args, p)
    ns = parse_int_range(args.n)
    taus = _by_n(tau_sequence, prm, ns, p)
    if prm.phase == PHASE_AF:
        ratios, spread = asymptotics.subleading_AF_fit(taus, prm, p)
        rows = [(n, _fmt(r, args.bits)) for n, r in zip(ns, ratios)]
        header = ["N", "r_N"]
        meta = {"phase": prm.phase, "t": _fmt(prm.t, args.bits),
                "gamma": _fmt(prm.gamma, args.bits), "bits": args.bits,
                "spread_top_half": _fmt(spread, args.bits),
                "note": "r_N = log(tau_N/c_N) - N^2 f - log theta4((pi/2)(1+zeta)N)"}
    elif prm.phase == PHASE_D:
        kappa, const, resid = asymptotics.smooth_fit_D(taus, prm, p)
        fe = asymptotics.bulk_f(prm, p)
        with p.work():
            rows = [(n, _fmt(mpf(tv.log_scaled) - n ** 2 * mpf(fe.f), args.bits))
                    for n, tv in zip(ns, taus)]
        header = ["N", "r_N"]
        meta = {"phase": prm.phase, "t": _fmt(prm.t, args.bits),
                "gamma": _fmt(prm.gamma, args.bits), "bits": args.bits,
                "kappa_fit": repr(kappa),
                "const_fit": repr(const), "max_fit_residual": repr(resid),
                "note": "r_N = log(tau_N/c_N) - N^2 f; kappa reported, not asserted"}
    else:
        raise PhaseDomainError("fit supports the af and d phases")
    _emit(rows, header, args, meta)
    return 0


def _check_report(names_vals_tols):
    rows = []
    ok = True
    for name, val, tol in names_vals_tols:
        passed = abs(val) < tol
        ok = ok and passed
        rows.append((name, mp.nstr(abs(mpf(val)), 8), mp.nstr(mpf(tol), 5),
                     "pass" if passed else "FAIL"))
    return rows, ok


def cmd_check(args):
    p = Precision(args.bits)
    checks = []
    if args.target == "toda":
        prm = _params_from_args(args, p)
        tol = mpf(2) ** (-p.bits // 2 + 16)
        ns = parse_int_range(args.n)
        for n, resid in zip(ns, _by_n(toda_residuals, prm, ns, p)):
            checks.append((f"toda_residual_N{n}", resid, tol))
    elif args.target == "oracle":
        tol = mpf(2) ** (-p.bits // 2)
        with p.work():
            points = [("fe", mpf("1.5"), mpf("0.4")), ("d", mpf("0.3"), mpf("1.0")),
                      ("af", mpf("0.3"), mpf("1.0"))]
        ns = parse_int_range(args.n)
        prms = [phase_params(phase, t, g, p) for phase, t, g in points]
        phases = [(prm, weights_from(prm, p),
                   z_from_tau(prm, _by_n(tau_sequence, prm, ns, p), p))
                  for prm in prms]
        for i, n in enumerate(ns):
            for prm, w, zs in phases:
                zbf = Z_bruteforce(n, w.a, w.b, w.c, p)   # rejects n > MAX_ENUM_N
                with p.work():
                    rel = (zs[i] - zbf) / zbf
                checks.append((f"oracle_{prm.phase}_N{n}", rel, tol))
    elif args.target == "identities":
        checks = identity_checks(p)
    elif args.target == "laplace":
        prm = _phase_point(PHASE_D, args.gamma, p, args.t or "0.3",
                           args.zeta)
        checks.append(("laplace_moments_max_err",
                       laplace_moment_check(prm, args.imax, p), mpf("1e-10")))
    elif args.target == "derivative":
        prm = _params_from_args(args, p)
        ep, closed = asymptotics.dfdzeta(prm, p)
        with p.work():
            checks.append(("dfdzeta_endpoint_vs_closed", ep - closed, mpf("1e-8")))
        if prm.phase == PHASE_AF:
            geom = asymptotics.endpoints(prm, p)
            checks.append(("chemical_potential_residual",
                           asymptotics.chemb_residual(prm, geom, p), mpf("1e-8")))
    elif args.target == "ode":
        prm = _params_from_args(args, p)
        if prm.phase == PHASE_AF:
            checks.append(("toda_of_theta_ansatz",
                           asymptotics.ode_check(prm, p, n=args.ansatz_n),
                           mpf("1e-6")))
        else:
            checks.append(("f_second_derivative_vs_exp2f",
                           asymptotics.ode_check(prm, p), mpf("1e-10")))
    rows, ok = _check_report(checks)
    header = ["check", "measured", "tolerance", "status"]
    meta = {"target": args.target, "bits": args.bits}
    _emit(rows, header, args, meta)
    return 0 if ok else 1


COMMANDS = {"exact": cmd_exact, "check": cmd_check, "bulk": cmd_bulk,
            "density": cmd_density, "fit": cmd_fit}


if __name__ == "__main__":
    sys.exit(main())
