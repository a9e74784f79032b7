"""Run the sixvertex CLI with a span around every public function of each
layer, and write the spans and counters to a JSON file at exit.

    PYTHONPATH=src python3 perfbench/traceshim.py SPANS.json <sixvertex args>

A function is wrapped in every ``sixvertex.*`` module namespace that bound it
by name (``sixvertex.cli.tau_scaled`` and ``sixvertex.exactcore.tau_scaled``
alike), so calls from the CLI and calls between layers are both seen.
``mpmath.quad`` is wrapped where the package imported it, and the integrand
passed to it is wrapped with a counter.  A span is [name, start, end,
parent index]; the root span ``cli`` covers ``sixvertex.cli.main``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

import mpmath

import sixvertex
import sixvertex.cli

LAYERS = {
    "sixvertex.exactcore": "exactcore",
    "sixvertex.specfun": "specfun",
    "sixvertex.oracle": "oracle",
    "sixvertex.asymptotics.geometry": "asymptotics",
    "sixvertex.asymptotics.freenergy": "asymptotics",
    "sixvertex.asymptotics.resolvent": "asymptotics",
    "sixvertex.asymptotics.fits": "asymptotics",
}


class Tracer:
    """In-memory spans plus the counters the per-layer ratios need."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.distinct = {}        # span name -> set of argument keys

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(result)
            return result
        return traced

    def key(self, name, fn, pick):
        """A before-hook recording pick(bound arguments) as a distinct key."""
        sig = inspect.signature(fn)
        seen = self.distinct.setdefault(name, set())

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.add(pick(self, bound.arguments))
            return args
        return before


def _tau_key(tracer, a):
    tracer.counts["exactcore.tau_scaled.n_cubed"] += a["N"] ** 3
    prm = a["params"]
    return (prm.phase, repr(prm.t), repr(prm.gamma), a["N"], a["p"].bits)


def _count_integrand(tracer):
    def before(args, kwargs):
        f = args[0]

        def counted(*xs):
            tracer.counts["asymptotics.quad.integrand_evals"] += 1
            return f(*xs)
        return (counted,) + tuple(args[1:])
    return before


def install(tracer):
    """Replace each public layer function, and quad, in every sixvertex
    namespace that bound it."""
    originals = {"asymptotics.quad": mpmath.quad}
    for modname, layer in LAYERS.items():
        for name, obj in vars(sys.modules[modname]).items():
            if (not name.startswith("_") and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == modname):
                originals[f"{layer}.{name}"] = obj

    def key(name, pick):
        return tracer.key(name, originals[name], pick)

    hooks = {
        "exactcore.tau_scaled": dict(before=key("exactcore.tau_scaled", _tau_key)),
        "specfun.elliptic_data_from_gamma": dict(before=key(
            "specfun.elliptic_data_from_gamma",
            lambda tr, a: (repr(a["gamma"]), a["p"].bits))),
        "oracle.enumerate_dwbc": dict(after=lambda r: tracer.counts.update(
            {"oracle.states": r.config_count})),
        "asymptotics.quad": dict(before=_count_integrand(tracer)),
    }
    wrappers = {id(fn): (fn, tracer.wrap(name, fn, **hooks.get(name, {})))
                for name, fn in originals.items()}
    for modname, mod in list(sys.modules.items()):
        if modname == "sixvertex" or modname.startswith("sixvertex."):
            for attr, obj in list(vars(mod).items()):
                fn, wrapper = wrappers.get(id(obj), (None, None))
                if fn is obj:
                    setattr(mod, attr, wrapper)


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    cli_main = tracer.wrap("cli", sixvertex.cli.main)
    code = 1
    try:
        code = cli_main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "distinct": {k: len(v) for k, v in tracer.distinct.items()}},
                      fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
