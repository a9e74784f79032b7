"""End-to-end benchmark of the sixvertex CLI.

    python3 perfbench/run.py --workload exact_seq [--seed 0] [--seconds 40] [--trace 0]

Each command of the workload runs as its own ``python3 -m sixvertex``
process with ``--jobs 1``, one at a time, so every run pays the cold costs a
user pays: interpreter start, imports, mpmath's quadrature-node cache and the
enumeration cache.  Passes over the command list repeat until ``--seconds``
is used up; every delivered row is checked against ``reference.json``.

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1
runs one plain pass and one pass under ``traceshim.py`` and prints the
per-layer metrics of the traced pass.  The last line of stdout is the JSON
result; the lines before it give the environment and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import mpmath

from check import check_output, digits_floor, load_reference
from workloads import DEFAULT_SEED, ROOT, SRC, WORKLOADS, child_env, commands

HERE = Path(__file__).resolve().parent
# interpreter start, imports and argv parsing, no computation
SETUP_ARGV = [sys.executable, "-m", "sixvertex", "--help"]
RUN_LIMIT_S = 170               # every child is killed past this point

# Functions whose spans give per-layer metrics, with the fields reported.
FUNCTION_METRICS = {
    "exactcore.tau_scaled": ("calls", "self_s"),
    "exactcore.phi_derivatives": ("calls", "self_s"),
    "exactcore.partition_Z": ("self_s",),
    "exactcore.toda_residual": ("self_s",),
    "asymptotics.rho_at": ("calls", "self_s"),
    "asymptotics.density": ("self_s",),
    "asymptotics.quad": ("calls", "self_s"),
    "asymptotics.endpoints": ("self_s",),
    "asymptotics.bulk_f": ("self_s",),
    "asymptotics.dfdzeta": ("self_s",),
    "asymptotics.chemb_residual": ("self_s",),
    "asymptotics.ode_check": ("self_s",),
    "asymptotics.subleading_AF_fit": ("self_s",),
    "specfun.theta": ("calls", "self_s"),
    "specfun.elliptic_data_from_gamma": ("calls", "self_s"),
    "specfun.jacobi_sn_cn_dn": ("calls", "self_s"),
    "specfun.jacobi_zeta": ("calls", "self_s"),
    "specfun.elliptic_K": ("calls", "self_s"),
    "specfun.elliptic_E": ("calls", "self_s"),
    "oracle.enumerate_dwbc": ("calls", "self_s"),
    "oracle.Z_bruteforce": ("self_s",),
}
LAYER_NAMES = ("exactcore", "specfun", "asymptotics", "oracle")


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv, tmp, deadline):
    """Run one process to completion; its CPU time and max RSS come from
    wait4, so they are the child's own.  The child is killed at deadline."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, out_path.read_text(), err_path.read_text())


def cli_argv(command):
    return [sys.executable, "-m", "sixvertex", *command.split(), "--jobs", "1"]


def run_pass(cmds, refs, tmp, deadline, trace=False, setup=None):
    """Run every command once; return [(command, Child, CommandCheck)].
    Given a setup list, one start-up sample (its wall time) is taken before
    each command and appended to it, so the samples spread over the run."""
    results = []
    for i, command in enumerate(cmds):
        if setup is not None:
            setup.append(run_child(SETUP_ARGV, tmp, deadline).wall_s)
        argv = cli_argv(command)
        if trace:
            argv[1:3] = [str(HERE / "traceshim.py"), str(tmp / f"spans{i}.json")]
        child = run_child(argv, tmp, deadline)
        results.append((command, child,
                        check_output(command, refs[command], child.returncode,
                                     child.stdout, child.stderr)))
    return results


def pass_wall(results):
    return sum(child.wall_s for _, child, _ in results)


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def _typical_pass(passes, field, combine=sum):
    """combine over commands of each command's median over passes, so that
    a slow spell in one pass does not move the figure."""
    return combine(statistics.median(getattr(p[i][1], field) for p in passes)
                   for i in range(len(passes[0])))


def end_to_end(passes, setup):
    checks = [chk for p in passes for _, _, chk in p]
    requested = sum(c.requested for c in checks)
    ok = sum(c.ok for c in checks)
    n = len(passes)
    metrics = {
        "wall_s": (_typical_pass(passes, "wall_s"), "s", n),
        "cpu_s": (_typical_pass(passes, "cpu_s"), "s", n),
        "digits_min": (digits_floor(checks), "digits", n),
        "ok_rate": (ok / requested, "ratio", requested),
        "peak_rss_mb": (_typical_pass(passes, "rss_mb", max), "MiB", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    return metrics, requested, requested - ok


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _load_spans(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:       # the process died before writing
        return {"spans": [], "counts": {}, "distinct": {}}


def per_layer(traced, tmp, plain_wall):
    """Per-layer metrics of one traced pass, plus a line per command."""
    calls, self_s = Counter(), defaultdict(float)
    counts, distinct = Counter(), Counter()
    roots_s = 0.0
    rows = density_rows = 0
    lines = []
    for i, (command, child, _) in enumerate(traced):
        data = _load_spans(tmp / f"spans{i}.json")
        spans = data["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        cmd_calls = Counter()
        for (name, start, end, parent), child_s in zip(spans, covered):
            cmd_calls[name] += 1
            self_s[name] += end - start - child_s
            if parent < 0:
                roots_s += end - start
        calls.update(cmd_calls)
        counts.update(data["counts"])
        distinct.update(data["distinct"])
        cmd_rows = max(0, child.stdout.count("\n") - 1)
        cmd_density_rows = cmd_rows if command.startswith("density") else 0
        rows += cmd_rows
        density_rows += cmd_density_rows
        lines.append(
            f"trace  {command}: tau_scaled {data['distinct'].get('exactcore.tau_scaled', 0)}"
            f" distinct / {cmd_calls['exactcore.tau_scaled']} calls, rho_at "
            f"{cmd_density_rows} rows / {cmd_calls['asymptotics.rho_at']} calls")

    def ratio(num, base):
        return num / base if base else 0.0

    command_s = pass_wall(traced)
    m = {}
    for fn, fields in FUNCTION_METRICS.items():
        if "calls" in fields:
            m[f"{fn}.calls"] = (calls[fn], "count")
        m[f"{fn}.self_s"] = (self_s[fn], "s")
    tau = "exactcore.tau_scaled"
    edg = "specfun.elliptic_data_from_gamma"
    m.update({
        f"{tau}.distinct": (distinct[tau], "count"),
        f"{tau}.useful_ratio": (ratio(distinct[tau], calls[tau]), "ratio"),
        f"{tau}.elim_ops": (counts[f"{tau}.n_cubed"] / 3, "count"),
        "asymptotics.rho_at.rows": (density_rows, "count"),
        "asymptotics.rho_at.useful_ratio": (
            ratio(density_rows, calls["asymptotics.rho_at"]), "ratio"),
        "asymptotics.quad.integrand_evals": (
            counts["asymptotics.quad.integrand_evals"], "count"),
        f"{edg}.distinct": (distinct[edg], "count"),
        f"{edg}.useful_ratio": (ratio(distinct[edg], calls[edg]), "ratio"),
        "oracle.states": (counts["oracle.states"], "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.rows": (rows, "count"),
        "trace.command_s": (command_s, "s"),
        "trace.unattributed_s": (command_s - roots_s, "s"),
        "trace.overhead_s": (command_s - plain_wall, "s"),
    })
    for layer in LAYER_NAMES:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                    if k.startswith(layer + ".")), "s")
    return m, lines


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "commit": _git_commit()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="sixvertex CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sixvertex" / "cli.py").is_file():
        print(f"perfbench: no sixvertex sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    refs = load_reference()
    cmds = commands(args.workload, args.seed)
    missing = [c for c in cmds if c not in refs]
    if missing:
        print(f"perfbench: no reference rows for {missing}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run_child(SETUP_ARGV, tmp, deadline)      # byte-compile once, untimed
        setup, passes = [], []
        start = time.monotonic()
        while True:
            passes.append(run_pass(cmds, refs, tmp, deadline, setup=setup))
            elapsed = time.monotonic() - start
            if (args.trace or elapsed * (1 + 1 / len(passes)) > args.seconds
                    or time.monotonic() + elapsed / len(passes) > deadline):
                break
        metrics, attempted, failed = end_to_end(passes, setup)
        lines = []
        if args.trace:
            traced = run_pass(cmds, refs, tmp, deadline, trace=True)
            layer_metrics, lines = per_layer(traced, tmp, pass_wall(passes[0]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "commands": cmds}))
    for i, (command, _, chk) in enumerate(passes[0]):
        digits = f"{min(chk.digits):6.1f}" if chk.digits else "     -"
        walls = " ".join(f"{p[i][1].wall_s:.3f}" for p in passes)
        print(f"rows {chk.ok:>4}/{chk.requested:<4} digits {digits}  {command}  "
              f"wall_s {walls}")
        for problem in chk.problems:
            print(f"check  {command}: {problem}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<12} {value:>12.6g} {unit:<7} n={n}")
    print(f"{'error_rate':<12} {failed / attempted:>12.6g} {'ratio':<7} "
          f"n={attempted} (= 1 - ok_rate)")
    for line in lines:
        print(line)
    if args.trace:
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
    else:
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    wrong = any(chk.wrong for p in passes for _, _, chk in p)
    print(json.dumps({"correct": not wrong,
                      "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
