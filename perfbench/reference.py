"""Build ``perfbench/reference.json``: reference rows for every command any
seed can select.

    python3 perfbench/reference.py

It builds every missing entry and drops retired ones; existing entries are
kept, so to rebuild one, delete it from reference.json.  Sources:

exact, fit, bulk
    the same CLI command rerun at 4x its bits and again at 4x+64 bits; the
    agreement of the two runs is stored as ``certified_digits``.
density
    af: rho(mu) = (1/pi) |int_{(mu,inf) cap (alpha,alpha')} dx/sqrt|P(x)|
    - int_{(mu,inf) cap (beta',beta)} dx/sqrt|P(x)||, P the quartic with the
    four endpoints as roots, integrated on the real axis with the square-root
    end singularities substituted away.  This shares no code with the
    resolvent route (no offset, no extrapolation).  d and fe: the closed-form
    densities on the real axis.  Both are evaluated at two precisions.
check
    the check names and tolerances of a run at the command's own bits; every
    row must pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys

from mpmath import mp, mpf, sqrt, sin, log, atan, pi, quad

from check import REFERENCE, correct_digits, load_reference
from workloads import ROOT, SRC, WORKLOADS, all_commands, bits_of, child_env

sys.path.insert(0, str(SRC))
from sixvertex import Precision, endpoints, phase_params  # noqa: E402

EXTRA_DIGITS = 10      # stored beyond the digits the CLI prints


def _digits_kept(bits):
    return int(bits * math.log10(2)) + EXTRA_DIGITS


def run_cli(command, bits=None):
    """Run the CLI once; return (header, rows).  Raises on a non-zero exit."""
    argv = command.split()
    if bits is not None:
        if "--bits" in argv:
            argv[argv.index("--bits") + 1] = str(bits)
        else:
            argv += ["--bits", str(bits)]
    proc = subprocess.run([sys.executable, "-m", "sixvertex", *argv, "--jobs", "1"],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    table = list(csv.reader(io.StringIO(proc.stdout)))
    return table[0], table[1:]


def _rerun_reference(command):
    bits = bits_of(command)
    header, rows = run_cli(command, 4 * bits)
    _, rows2 = run_cli(command, 4 * bits + 64)
    agree = min((correct_digits(x, y, 4 * bits) for r, r2 in zip(rows, rows2)
                 for h, x, y in zip(header, r, r2) if x and h != "N"),
                default=float("inf"))
    keep = _digits_kept(bits)
    with mp.workprec(4 * bits + 64):
        rows = [[c if (not c or h == "N") else mp.nstr(mpf(c), keep)
                 for h, c in zip(header, r)] for r in rows]
    return {"header": header, "rows": rows, "ref_bits": 4 * bits,
            "certified_digits": round(agree, 1),
            "source": f"CLI rerun at {4 * bits} and {4 * bits + 64} bits"}


def _check_reference(command):
    header, rows = run_cli(command)
    if any(r[3] != "pass" for r in rows):
        raise RuntimeError(f"{command}: a check fails at the reference run")
    return {"header": header, "rows": [[r[0], "", r[2], r[3]] for r in rows],
            "source": "check names and tolerances; every row must pass"}


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def _af_rho(roots, mu):
    """(1/pi) |Im omega(mu + i0)| from integrals over the cuts right of mu."""
    r = roots

    def others(x, a, b):
        out = mpf(1)
        for c in r:
            if c != a and c != b:
                out *= abs(x - c)
        return out

    def cut_integral(a, b):
        if mu >= b:
            return mpf(0)
        if mu <= a:
            # x = a + (b-a) sin^2(th): the two end singularities cancel
            return quad(lambda th: 2 / sqrt(others(a + (b - a) * sin(th) ** 2, a, b)),
                        [0, pi / 2])
        # x = b - u^2 on (mu, b): the singularity at b cancels
        return quad(lambda u: 2 / sqrt((b - u ** 2 - a) * others(b - u ** 2, a, b)),
                    [0, sqrt(b - mu)])

    # 1/sqrt(P(x+i0)) is +i/sqrt|P| on (alpha, alpha'), -i/sqrt|P| on (beta', beta)
    return abs(cut_integral(r[0], r[1]) - cut_integral(r[2], r[3])) / pi


def _d_rho(alpha, beta, mu):
    num = sqrt(beta * (mu - alpha)) + sqrt(-alpha * (beta - mu))
    return abs(2 / pi ** 2 * log(num / sqrt(abs(mu) * (beta - alpha))))


def _fe_rho(lo, hi, mu):
    if mu <= lo:
        return mpf(1)
    return 2 / pi * atan(sqrt(lo * (hi - mu)) / sqrt(hi * (mu - lo)))


def _density_rows(command, bits):
    argv = command.split()
    opt = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
    p = Precision(bits)
    with mp.workprec(bits):
        gamma = mpf(opt["gamma"])
        t = mpf(opt["zeta"]) * gamma if "zeta" in opt else mpf(opt["t"])
        prm = phase_params(opt["phase"], t, gamma, p)
        g = endpoints(prm, p)
        al, be = mpf(g.alpha), mpf(g.beta)
        if prm.phase == "fe":
            lo, hi = mpf(0), max(al, be)
            sat = (mpf(0), min(al, be))
        elif prm.phase == "d":
            lo, hi, sat = al, be, None
        else:
            lo, hi = al, be
            sat = (mpf(g.alpha_prime), mpf(g.beta_prime))
            roots = (al, mpf(g.alpha_prime), mpf(g.beta_prime), be)
        grid = int(opt["grid"])
        rows = []
        for i in range(grid):
            mu = lo + (i + mpf(1) / 2) * (hi - lo) / grid
            if prm.phase == "fe":
                rho = _fe_rho(sat[1], hi, mu)
            elif prm.phase == "d":
                rho = _d_rho(al, be, mu)
            else:
                rho = _af_rho(roots, mu)
            saturated = int(sat is not None and sat[0] <= mu <= sat[1])
            rows.append((mu, rho, saturated))
        return rows


def _density_reference(command):
    bits = bits_of(command)
    hi_rows = _density_rows(command, 4 * bits + 64)
    lo_rows = _density_rows(command, 4 * bits)
    prec = 4 * bits + 64
    keep = _digits_kept(bits)
    with mp.workprec(prec):
        agree = min(correct_digits(mp.nstr(a[k], keep + 20), mp.nstr(b[k], keep + 20),
                                   4 * bits)
                    for a, b in zip(lo_rows, hi_rows) for k in (0, 1))
        rows = [[mp.nstr(mu, keep), mp.nstr(rho, keep), str(s)]
                for mu, rho, s in hi_rows]
    kind = "on-cut integral" if " af " in f" {command} " else "closed form"
    return {"header": ["mu", "rho", "saturated"], "rows": rows,
            "ref_bits": 4 * bits + 64, "certified_digits": round(agree, 1),
            "source": f"{kind} at {4 * bits} and {4 * bits + 64} bits"}


def reference_for(command):
    sub = command.split()[0]
    if sub == "check":
        return _check_reference(command)
    if sub == "density":
        return _density_reference(command)
    return _rerun_reference(command)


def save(refs):
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"commands": dict(sorted(refs.items()))}, fh, indent=1)
        fh.write("\n")


def main():
    wanted = [c for workload in WORKLOADS for c in all_commands(workload)]
    old = load_reference() if REFERENCE.exists() else {}
    refs = {c: old[c] for c in wanted if c in old}     # drop retired commands
    for command in wanted:
        if command in refs:
            continue
        refs[command] = reference_for(command)
        save(refs)
        print(f"{refs[command].get('certified_digits', '-'):>7}  {command}", flush=True)
    save(refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
