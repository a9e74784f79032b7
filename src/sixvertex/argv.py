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

    def common(sp, nrange=None):
        # argparse applies type=int to a string default: a bad value exits 2
        sp.add_argument("--bits", type=int,
                        default=os.environ.get(ENV_BITS, "256"),
                        help=f"binary precision (default 256 or ${ENV_BITS})")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="write output to this path instead of stdout")
        sp.add_argument("--jobs", type=int, default=1,
                        help="worker processes for bulk and density rows (>= 1)")
        sp.add_argument("--config", help="JSON file with defaults for these flags")
        # not argparse-required so that --config can supply them
        sp.add_argument("--phase", choices=PHASES)
        sp.add_argument("--gamma", help="gamma as a decimal string")
        grp = sp.add_mutually_exclusive_group()
        grp.add_argument("--t", help="t as a decimal string")
        grp.add_argument("--zeta", help="zeta = t/gamma as a decimal string")
        if nrange:
            sp.add_argument("--n", default=nrange, help="N or N range 'lo..hi'")

    sp = sub.add_parser("exact", help="exact finite-N determinant data")
    common(sp, nrange="1..8")

    sp = sub.add_parser("check", help="named cross-checks with pass/fail",
                        description="oracle and identities take no phase point; the "
                        "rest default to --phase af --gamma 1, laplace to --phase d "
                        "--gamma 1 --t 0.3.")
    sp.add_argument("target", choices=("toda", "oracle", "identities",
                                       "laplace", "derivative", "ode"))
    sp.add_argument("--imax", type=int, default=6,
                    help="laplace: highest moment checked")
    sp.add_argument("--ansatz-n", type=int, default=6,
                    help="ode (af): lattice size for the bilinear substitution")
    common(sp, nrange="1..5")

    sp = sub.add_parser("bulk", help="bulk free energy over a parameter grid")
    common(sp)

    sp = sub.add_parser("density", help="limiting eigenvalue density profile")
    common(sp)
    sp.add_argument("--grid", type=int, default=100, help="number of samples")

    sp = sub.add_parser("fit", help="subleading-correction ratios and spread")
    common(sp, nrange="2..16")
    return ap


def _inject_config(argv):
    """Expand --config FILE into synthetic flags placed before the explicit
    ones, so explicit flags keep precedence (argparse takes the last value)."""
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
    sub_idx = next((i for i, tok in enumerate(argv) if not tok.startswith("-")),
                   None)
    if sub_idx is None:
        return argv
    explicit = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    mutex = {"--t", "--zeta"}
    flags = []
    for key, value in cfg.items():
        flag = "--" + str(key).replace("_", "-")
        if flag in explicit:
            continue
        if flag in mutex and (explicit & mutex):
            continue
        flags.append(f"{flag}={value}")
    return argv[:sub_idx + 1] + flags + argv[sub_idx + 1:]


_VALUE_FLAGS = ("--t", "--zeta", "--gamma", "--n")


def _join_negative_values(argv):
    """Merge '--t -0.3' into '--t=-0.3' so argparse does not mistake negative
    decimal values (or grids like -0.9..0.9..0.1) for option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) \
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
        if args.command != "check":
            for name in ("phase", "gamma"):
                if getattr(args, name) is None:
                    raise ValueError(f"--{name} is required (flag or config file)")
        elif args.target in ("oracle", "identities"):
            given = [f"--{name}" for name in ("phase", "gamma", "t", "zeta")
                     if getattr(args, name) is not None]
            if given:
                raise ValueError(f"check {args.target} runs a fixed suite "
                                 f"and takes no {', '.join(given)}")
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
