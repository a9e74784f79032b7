"""Workload definitions and the way a seed turns them into CLI commands.

A workload is a list of command templates.  Each ``{field}`` in a template
is filled from that workload's pool for the field; the seed picks one value
per field.  Every value in every pool has committed reference rows, so any
seed can be checked.  The CLI only ever sees the generated argument strings.
"""

from __future__ import annotations

import itertools
import os
import random
import string
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0

# Pools hold nearby points with the same cost and the same known defects, so
# that a change of seed moves the inputs but not the expected figures: the af
# density points take the same number of quadrature evaluations, and the fe
# points all give up at N=20.
WORKLOADS = {
    "exact_seq": {
        "why": "finite-N Hankel determinants and the phi table (exactcore), "
               "incl. the fe precision wall (N 17..24) and the af digit loss "
               "at N=96",
        "commands": [
            "exact --phase af --gamma 1 --t {af_t} --n 1..40",
            "exact --phase d --gamma 1 --t {d_t} --n 1..32",
            "exact --phase fe --gamma 0.4 --t {fe_t} --n 1..16",
            "exact --phase fe --gamma 0.4 --t {fe_t} --n 17..24",
            "exact --phase af --gamma 1 --t {af96_t} --n 96",
            "fit --phase af --gamma 1 --zeta {fit_zeta} --n 2..40",
        ],
        "pools": {
            "af_t": ["0.3", "0.28", "0.32"],
            "d_t": ["0.3", "0.25", "0.35"],
            "fe_t": ["1.5", "1.51", "1.52"],
            "af96_t": ["0.3", "0.29", "0.31"],
            "fit_zeta": ["0"],        # zeta 0 (t = 0) is cheaper than its neighbours
        },
    },
    "density_scan": {
        "why": "af density by resolvent quadrature (asymptotics, mpmath.quad) "
               "next to the closed-form d and fe densities; exactcore unused",
        "commands": [
            "density --phase af --gamma 1 --zeta {af_zeta} --grid 2",
            "density --phase d --gamma 1 --zeta {d_zeta} --grid 100",
            "density --phase fe --gamma 0.4 --t {fe_t} --grid 100",
        ],
        "pools": {
            "af_zeta": ["0.4", "0.39", "0.395"],
            "d_zeta": ["0.3", "0.25", "0.35"],
            "fe_t": ["1.5", "1.45", "1.55"],
        },
    },
    "thermo_checks": {
        "why": "elliptic kernel and theta series (specfun), the DWBC "
               "enumeration oracle, Toda residuals at small N, and the "
               "per-command start-up cost",
        "commands": [
            "bulk --phase af --gamma {af_gamma} --zeta -0.95..0.95..0.05 --bits 1024",
            "bulk --phase d --gamma {d_gamma} --zeta -0.9..0.9..0.1",
            "bulk --phase fe --gamma {fe_gamma} --t 0.5..2..0.1",
            "check identities --bits 2048",
            "check oracle --n 1..6",
            "check toda --phase af --gamma 1 --t {toda_t} --n 1..12",
            "check derivative --phase af --gamma 1 --zeta {deriv_zeta}",
            "check ode --phase af --gamma 1 --t {ode_t}",
        ],
        "pools": {
            "af_gamma": ["1", "0.95", "1.05"],
            "d_gamma": ["1", "0.95", "1.05"],
            "fe_gamma": ["0.4", "0.35", "0.45"],
            "toda_t": ["0.2", "0.15", "0.25"],
            "deriv_zeta": ["0.4", "0.35", "0.45"],
            "ode_t": ["0.3", "0.25", "0.35"],
        },
    },
}


def _fields(template):
    return [f for _, f, _, _ in string.Formatter().parse(template) if f]


def commands(workload, seed=DEFAULT_SEED):
    """The command strings one seed selects for a workload, in order.  The
    default seed takes the first value of every pool."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    picks = {name: pool[0] if seed == DEFAULT_SEED else rng.choice(pool)
             for name, pool in sorted(spec["pools"].items())}
    return [tpl.format(**picks) for tpl in spec["commands"]]


def all_commands(workload):
    """Every command string any seed can select for a workload."""
    spec = WORKLOADS[workload]
    out = []
    for tpl in spec["commands"]:
        names = _fields(tpl)
        for values in itertools.product(*(spec["pools"][n] for n in names)):
            out.append(tpl.format(**dict(zip(names, values))))
    return out


def bits_of(command):
    """The --bits a command runs at (the CLI default is 256)."""
    argv = command.split()
    return int(argv[argv.index("--bits") + 1]) if "--bits" in argv else 256


def child_env():
    """Environment for CLI processes: the checkout's sources, default bits."""
    env = dict(os.environ)
    env.pop("SIXVERTEX_BITS", None)
    env["PYTHONPATH"] = str(SRC)
    return env
