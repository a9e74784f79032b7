"""Command-line entry point: argv parsing ahead of the numeric stack.

``main`` parses argv, expands ``--config`` and answers ``--help`` and usage
errors with the standard library alone; only a command that runs imports
:mod:`sixvertex.cli` (and with it mpmath and every layer) to be dispatched.
Exit codes: 0 success / all checks pass, 1 computational failure, 2 invalid
input.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import SixVertexError, PhaseDomainError

ENV_BITS = "SIXVERTEX_BITS"

# exactcore.PHASES, in its order, spelled out so that parsing loads no
# numeric code; a test holds the two equal
PHASES = ("fe", "d", "af")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sixvertex",
        description="Six-vertex model with domain wall boundary conditions: "
                    "exact determinants, enumeration checks, asymptotics.")
    sub = ap.add_subparsers(dest="command", required=True)
    # the flags every command takes, copied into each parser by parents=
    base = argparse.ArgumentParser(add_help=False)
    # argparse applies type=int to a string default: a bad value exits 2
    base.add_argument("--bits", type=int, default=os.environ.get(ENV_BITS, "256"),
                      help=f"binary precision (default 256 or ${ENV_BITS})")
    base.add_argument("--format", choices=("csv", "json"), default="csv")
    base.add_argument("--out", help="write output to this path instead of stdout")
    base.add_argument("--jobs", type=int, default=1,
                      help="worker processes for bulk and density rows (>= 1)")
    base.add_argument("--config", help="JSON file with defaults for these flags")

    def command(subs, name, help, n=None, phases=None, **point):
        """A parser with the base flags, --n with default n, and the phase
        point with --phase limited to phases.  A check target passes its
        point defaults; elsewhere --phase and --gamma are required (a
        --config file can supply them)."""
        sp = subs.add_parser(name, help=help, parents=[base])
        if phases:
            sp.add_argument("--phase", choices=phases, required=not point)
            sp.add_argument("--gamma", required=not point,
                            help="gamma as a decimal string")
            grp = sp.add_mutually_exclusive_group()
            grp.add_argument("--t", help="t as a decimal string")
            grp.add_argument("--zeta", help="zeta = t/gamma as a decimal string")
            sp.set_defaults(**point)
        if n:
            sp.add_argument("--n", default=n, help="N or N range 'lo..hi'")
        return sp

    command(sub, "exact", "exact finite-N determinant data", n="1..8",
            phases=PHASES)

    sp = sub.add_parser("check", help="named cross-checks with pass/fail",
                        description="Flags follow the target.  toda, derivative "
                        "and ode default to --phase af --gamma 1, laplace to "
                        "--phase d --gamma 1 --t 0.3.")
    target = sp.add_subparsers(dest="target", required=True)
    af = {"phase": "af", "gamma": "1.0"}
    command(target, "toda", "bilinear (Toda) residuals of tau_N", n="1..5",
            phases=PHASES, **af)
    command(target, "oracle", "Z_N against enumeration at fixed fe, d and af "
            "points", n="1..5")
    command(target, "identities", "elliptic and theta identities")
    sp = command(target, "laplace", "Laplace moments (d phase)", phases=("d",),
                 phase="d", gamma="1.0", t="0.3")
    sp.add_argument("--imax", type=int, default=6, help="highest moment checked")
    command(target, "derivative", "df/dzeta identities", phases=PHASES, **af)
    sp = command(target, "ode", "the bulk free energy's ODE", phases=PHASES, **af)
    sp.add_argument("--ansatz-n", type=int,
                    help="af only: lattice size for the bilinear substitution")

    command(sub, "bulk", "bulk free energy over a parameter grid", phases=PHASES)
    sp = command(sub, "density", "limiting eigenvalue density profile",
                 phases=PHASES)
    sp.add_argument("--grid", type=int, default=100, help="number of samples")
    command(sub, "fit", "subleading-correction ratios and spread", n="2..16",
            phases=("af", "d"))
    return ap


def _inject_config(argv):
    """Expand --config FILE into synthetic flags placed after the command
    (and check target) and before the first explicit flag.  argparse keeps
    the last value, so explicit flags win, abbreviated ones (--gam) too; a
    flag given explicitly, or t or zeta when either is, even abbreviated
    (--ze), is skipped."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    import json   # here: only --config reads JSON
    with open(known.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    explicit = {tok.split("=", 1)[0] for tok in argv
                if tok.startswith("--") and len(tok) > 2}
    mutex = ("--t", "--zeta")
    point_given = any(m.startswith(tok) for m in mutex for tok in explicit)
    flags = []
    for key, value in cfg.items():
        flag = "--" + str(key).replace("_", "-")
        if flag in explicit or (flag in mutex and point_given):
            continue
        flags.append(f"{flag}={value}")
    at = next((i for i, tok in enumerate(argv) if tok.startswith("-")), len(argv))
    return argv[:at] + flags + argv[at:]


def _join_negative_values(argv):
    """Merge '--t -0.3' into '--t=-0.3' after any long flag but --help (the
    rest take one value), abbreviated or not, so argparse does not mistake
    negative decimals, or grids like -0.9..0.9..0.1, for option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok \
                and not "--help".startswith(tok) and i + 1 < len(argv) \
                and argv[i + 1].startswith("-") and len(argv[i + 1]) > 1 \
                and (argv[i + 1][1].isdigit() or argv[i + 1][1] == "."):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    argv = _join_negative_values(list(argv))
    ap = build_parser()
    try:
        argv = _inject_config(argv)
        args = ap.parse_args(argv)
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        from . import cli
        return cli.COMMANDS[args.command](args)
    except (PhaseDomainError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except SixVertexError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
