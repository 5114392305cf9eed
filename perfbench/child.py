"""One workload process: runs solve -> verify -> simulate in-process
through divratchet.cli.main until the time budget is spent, checks every
output, and prints one JSON result line for perfbench/run.py.

Untraced mode times the commands.  Traced mode alternates untraced and
traced pipelines (the difference is the tracing overhead), then times
the convolution methods and the projected scan on the workload's grid.
In both modes, fresh interpreters timed up to `load_config` (setup_s and
the import times) run between the pipelines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import timeit
import traceback
from collections import Counter

import numpy
import scipy
import divratchet
from divratchet.cache import read_surface
from divratchet.cli import main as cli_main
from divratchet.surface import extract_boundary

import hostprobe
from workloads import REFERENCE, REFERENCE_VERDICT, V_TOL, WORKLOADS, X_TOL_CELLS

COMMANDS = ("solve", "verify", "simulate")
OUTPUTS = {"solve": "solve.csv", "verify": "certificate.json", "simulate": "simulate.json"}
#: a pipeline is always run at least this often, time budget permitting
MIN_PIPELINES = 2
#: stop starting pipelines after this long, whatever the budget says
HARD_STOP_S = 120.0
#: fresh interpreters timed per run for setup_s (median reported)
SETUP_PROBES = 7
#: probes run after each pass until SETUP_PROBES are done, so that they
#: sample the host across the run rather than in one burst
PROBES_PER_PASS = 2
#: prints the monotonic clock when load_config returns, and the package path
SETUP_CODE = (
    "import sys, time, divratchet; from divratchet.config import load_config; "
    "load_config(sys.argv[1]); print(time.monotonic(), divratchet.__file__)"
)
#: modules whose cumulative import time the traced run reports
IMPORTS = {"import.divratchet_s": "divratchet", "import.scipy_signal_s": "scipy.signal"}


def argv_for(cmd: str, cfg: str, work: str) -> list:
    out = ["--out", os.path.join(work, OUTPUTS[cmd])]
    if cmd == "solve":
        return ["solve", "--config", cfg, "--force"] + out
    if cmd == "verify":
        return ["verify", "--config", cfg] + out
    return ["simulate", "--config", cfg, "--strategy", "ratchet", "--x0", "0", "--c0", "0"] + out


def run_command(argv: list):
    """(seconds, exit code or None on an uncaught exception, stderr text)."""
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    except Exception:  # a crash is a failed operation; keep measuring the rest
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, rc, err.getvalue()


def sha256_of(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def cache_file(work: str) -> str | None:
    names = [n for n in os.listdir(work) if n.startswith("surface-") and n.endswith(".bin")]
    return os.path.join(work, names[0]) if len(names) == 1 else None


class Checker:
    """Output checks of one pipeline against the references and the
    first pipeline of this process (byte-for-byte repeatability)."""

    def __init__(self, workload: str, work: str, seed_mc: int):
        self.w = WORKLOADS[workload]
        self.ref = REFERENCE[workload]
        self.work = work
        self.seed_mc = seed_mc
        self.first_shas = None
        self.cert = None
        self.shape = {}

    def check(self, rcs: dict, errs: dict):
        """Return ({cmd: [reason, ...]} for failed ops, [output mismatch, ...])."""
        failed = {cmd: [] for cmd in COMMANDS}
        wrong = []

        def mismatch(cmd, reason):
            failed[cmd].append(reason)
            wrong.append(f"{cmd}: {reason}")

        for cmd in COMMANDS:
            if rcs[cmd] is None:
                failed[cmd].append("uncaught exception: " + errs[cmd].strip().splitlines()[-1])
            elif rcs[cmd] not in (0, 1) or (rcs[cmd] == 1 and cmd != "verify"):
                failed[cmd].append(f"exit {rcs[cmd]}: {errs[cmd].strip()}")

        paths = {cmd: os.path.join(self.work, OUTPUTS[cmd]) for cmd in COMMANDS}
        shas = {cmd: sha256_of(paths[cmd]) for cmd in COMMANDS}
        for cmd in COMMANDS:
            if shas[cmd] is None:
                mismatch(cmd, "no output file")
        if self.first_shas is None:
            self.first_shas = shas
        for cmd in COMMANDS:
            if shas[cmd] != self.first_shas[cmd]:
                mismatch(cmd, "output bytes differ from this run's first pipeline")

        v00 = None
        if shas["solve"] is not None:
            with open(paths["solve"], encoding="utf-8") as fh:
                header = fh.readline().strip().split(",")
                first = fh.readline().strip().split(",")
            v00 = float(first[-1])
            self.shape["v00"] = v00
            if header[-1] != "c=0.0" or float(first[0]) != 0.0:
                mismatch("solve", f"unexpected CSV layout {header[:1] + header[-1:]}")
            if not abs(v00 - self.ref["v00"]) <= V_TOL:
                mismatch("solve", f"v(0, c_floor) = {v00!r}, reference {self.ref['v00']!r} +- {V_TOL}")
            cpath = cache_file(self.work)
            if cpath is None:
                mismatch("solve", "no single surface cache file")
            else:
                self.check_shape(cpath, mismatch)

        cert = None
        if shas["verify"] is not None:
            with open(paths["verify"], encoding="utf-8") as fh:
                cert = json.load(fh)
            if rcs["verify"] is not None and (rcs["verify"] == 0) != cert["passed"]:
                mismatch("verify", f"exit {rcs['verify']} disagrees with passed={cert['passed']}")
            if cert["passed"] != REFERENCE_VERDICT:
                bad = [
                    f"{c['name']} {c['observed']:.3e} > {c['bound']:.3e}"
                    for c in cert["checks"]
                    if not c["passed"]
                ]
                failed["verify"].append("certificate fails: " + "; ".join(bad))

        if shas["simulate"] is not None:
            with open(paths["simulate"], encoding="utf-8") as fh:
                est = json.load(fh)
            if est["n_paths"] != self.w["paths"] or est["seed"] != self.seed_mc:
                mismatch("simulate", "paths or seed differ from the config")
            if cert is not None and v00 is not None:
                # verify's first cross-check point is (0, c_floor) with the
                # config seed, so its observed gap is this estimate's
                gap = next(c["observed"] for c in cert["checks"] if c["name"] == "mc_agreement_0")
                if not math.isclose(abs(est["mean"] - v00), gap, rel_tol=1e-12, abs_tol=1e-12):
                    mismatch("simulate", f"|mean - v(0,0)| {abs(est['mean'] - v00)!r} != certificate {gap!r}")
        self.cert = cert
        return failed, wrong

    def check_shape(self, cpath, mismatch):
        surface, _ = read_surface(cpath)
        x_star_max = float(extract_boundary(surface).x_star.max())
        contact = float(surface.masks[1:].mean())
        dx = surface.grid.dx
        self.shape.update(
            x_star_max=x_star_max,
            contact_fraction=contact,
            cache_bytes=os.path.getsize(cpath),
        )
        ref = self.ref["x_star_max"]
        if not abs(x_star_max - ref) <= X_TOL_CELLS * dx:
            mismatch("solve", f"x_star_max = {x_star_max!r}, reference {ref!r} +- {X_TOL_CELLS} dx")
        if not 0.0 < x_star_max < 0.8 * surface.grid.L:
            mismatch("solve", f"degenerate: x_star_max = {x_star_max!r} not inside (0, 0.8 L)")
        if not contact < 1.0:
            mismatch("solve", f"degenerate: contact fraction {contact!r} is 1")


def run_pipeline(cfg: str, work: str, checker: Checker, stats: dict):
    """Run the three commands once, with a host-probe block before, between
    and after them; append failures to stats and return each command's
    time and the mean kernel time of the two blocks bracketing it."""
    rcs, errs, times, kernel = {}, {}, {}, {}
    before = statistics.fmean(hostprobe.block())
    for cmd in COMMANDS:
        times[cmd], rcs[cmd], errs[cmd] = run_command(argv_for(cmd, cfg, work))
        after = statistics.fmean(hostprobe.block())
        kernel[cmd] = 0.5 * (before + after)
        before = after
    failed, wrong = checker.check(rcs, errs)
    stats["attempted"] += len(COMMANDS)
    for cmd in COMMANDS:
        if failed[cmd]:
            stats["failed"] += 1
            stats["failures"][f"{cmd}: {failed[cmd][0]}"] += 1
    stats["wrong"].extend(wrong)
    return times, kernel


def setup_probe(cfg: str, importtime: bool) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter until its load_config
    returned, and its stderr.  CLOCK_MONOTONIC is shared by all processes.
    This process imported divratchet first, so its bytecode is compiled."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_CODE, cfg]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    fields = out.stdout.split()
    if out.returncode != 0 or len(fields) != 2 or fields[1] != divratchet.__file__:
        raise RuntimeError(f"setup probe failed: {out.stderr.strip()[-400:]}")
    return float(fields[0]) - t0, out.stderr


def import_seconds(stderr: str, module: str) -> float:
    """Cumulative import time of module from `-X importtime` output."""
    pat = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*" + re.escape(module) + r"\s*$")
    for line in stderr.splitlines():
        m = pat.match(line)
        if m:
            return int(m.group(1)) * 1e-6
    raise RuntimeError(f"{module} not in -X importtime output")


def per_call_us(fn) -> float:
    """Per-call time in microseconds, fastest of five short batches."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    number = max(1, number // 4)
    return min(timer.repeat(repeat=5, number=number)) / number * 1e6


def kernel_micro(work: str) -> dict:
    """Per-call convolve (every method the claim family supports) and
    projected-scan times on the workload's grid, with computed op counts."""
    from divratchet._sweep import projected_backward_scan
    from divratchet.discretization import get_kernel

    surface, d = read_surface(cache_file(work))
    grid, m = surface.grid, surface.m
    kern = get_kernel(d, grid)
    f = surface.v[0]
    out = {}
    methods = ["direct", "fft", "recursive"] if kern.has_recursion() else ["direct", "fft"]
    for method in methods + ["auto"]:
        out[f"discretization.{method}_us"] = per_call_us(lambda: kern.convolve(f, method))
    n = grid.n_x
    a = (m.mu - m.c_floor) / grid.dx
    qt = a / (a + m.r + m.lam)
    mid = surface.ladder.n // 2
    alpha, psi = (1.0 - qt) * surface.v[mid][:n], surface.v[mid - 1][:n]
    out["sweep.scan_us"] = per_call_us(
        lambda: projected_backward_scan(alpha, qt, psi, float(surface.v[mid][n]))
    )
    out["discretization.direct_madds_computed"] = float((n + 1) ** 2)
    # Hillis-Steele levels s = 1, 2, 4, ... < n each compose n - s node maps
    updates, s = 0, 1
    while s < n:
        updates += n - s
        s <<= 1
    out["sweep.scan_node_updates_computed"] = float(updates)
    return out


def layer_metrics(tracer, checker: Checker) -> dict:
    """Per-layer metrics of one traced pipeline."""
    t = tracer
    sweeps = t.sweeps or [0]
    cert = checker.cert or {"checks": []}
    ladder_self = t.spans["ladder.solve"][2] + t.spans["ladder.rung"][2]
    return {
        "ladder.solve_s": t.total("ladder.solve"),
        "ladder.self_s": ladder_self,
        "ladder.calls": float(t.calls("ladder.solve")),
        "ladder.rungs": float(t.calls("ladder.rung")),
        "ladder.sweeps": float(sum(sweeps)),
        "ladder.sweeps_per_rung_max": float(max(sweeps)),
        "ladder.contact_fraction": checker.shape.get("contact_fraction", float("nan")),
        "ladder.x_star_max": checker.shape.get("x_star_max", float("nan")),
        "boundary.solve_s": t.total("boundary.solve"),
        "sweep.scan_calls": float(t.calls("sweep.scan")),
        "sweep.scan_s": t.total("sweep.scan"),
        "sweep.scan_us_per_call": t.total("sweep.scan") / max(1, t.calls("sweep.scan")) * 1e6,
        "discretization.convolve_calls": float(t.calls("discretization.convolve")),
        "discretization.convolve_s": t.total("discretization.convolve"),
        "model.sample_calls": float(t.calls("model.sample")),
        "model.sample_draws": float(t.draws),
        "model.sample_s": t.total("model.sample"),
        "model.sample_ns_per_draw": t.total("model.sample") / max(1, t.draws) * 1e9,
        "simulate.ratchet_s": t.total("simulate.ratchet"),
        "simulate.constant_s": t.total("simulate.constant"),
        "simulate.paths": float(t.paths),
        "simulate.useful_step_ratio": t.expected_steps / max(1, t.draws),
        "verify.invariants_s": t.total("verify.invariants"),
        "verify.calibrate_s": t.total("verify.calibrate"),
        "verify.mc_s": t.total("verify.mc"),
        "verify.checks_failed": float(sum(not c["passed"] for c in cert["checks"])),
        "verify.checks_total": float(len(cert["checks"])),
        "surface.build_s": t.total("surface.build"),
        "cache.write_s": t.total("cache.write"),
        "cache.read_s": t.total("cache.read"),
        "cache.bytes": float(checker.shape.get("cache_bytes", 0)),
        "config.load_s": t.total("config.load"),
    }


def layer_shares(tracer, command_s: float) -> dict:
    """Share of pipeline command time per layer (self time); the part no
    span covers is 'cli'."""
    selfs = tracer.layer_self()
    selfs["cli"] = command_s - sum(selfs.values())
    return {k: v / command_s for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--config", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--mc-seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    checker = Checker(args.workload, args.work, args.mc_seed)
    stats = {"attempted": 0, "failed": 0, "failures": Counter(), "wrong": []}
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    untraced = {cmd: [] for cmd in COMMANDS}
    kernels = {cmd: [] for cmd in COMMANDS}
    result = {"versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}

    def more(count: int, pass_s: float) -> bool:
        """Start another pass only if it should end within the budget."""
        now = time.perf_counter()
        if now - t_start > HARD_STOP_S:
            return False
        return count < MIN_PIPELINES or now + pass_s <= deadline

    probes = []

    def setup_probes(count: int):
        for _ in range(min(count, SETUP_PROBES - len(probes))):
            probes.append(setup_probe(args.config, importtime=bool(args.trace)))

    def timed_pipeline():
        times, kernel = run_pipeline(args.config, args.work, checker, stats)
        for cmd in COMMANDS:
            untraced[cmd].append(times[cmd])
            kernels[cmd].append(kernel[cmd])

    pass_s = 0.0
    if not args.trace:
        while more(len(untraced["solve"]), pass_s):
            t0 = time.perf_counter()
            timed_pipeline()
            setup_probes(PROBES_PER_PASS)
            pass_s = time.perf_counter() - t0
    else:
        from tracing import Tracer

        tracer = Tracer()
        traced_totals, per_layer, shares = [], [], []
        while more(len(traced_totals), pass_s):
            t0 = time.perf_counter()
            timed_pipeline()
            tracer.reset()
            tracer.install()
            try:
                times, _ = run_pipeline(args.config, args.work, checker, stats)
            finally:
                tracer.uninstall()
            total = sum(times.values())
            traced_totals.append(total)
            per_layer.append(layer_metrics(tracer, checker))
            shares.append(layer_shares(tracer, total))
            setup_probes(PROBES_PER_PASS)
            pass_s = time.perf_counter() - t0
        layers = {k: statistics.median(r[k] for r in per_layer) for k in per_layer[0]}
        # fastest raw pipeline on each side; host noise makes this rough
        untraced_total = min(map(sum, zip(*untraced.values())))
        layers["trace.overhead_s"] = min(traced_totals) - untraced_total
        layers.update(kernel_micro(args.work))
        share = {k: statistics.median(s.get(k, 0.0) for s in shares) for k in shares[0]}
        layers["shape.layer_share"] = share.get(WORKLOADS[args.workload]["layer"], 0.0)
        result["layers"] = layers
        result["shares"] = share
        result["pipeline_totals"] = {"untraced": untraced_total, "traced": min(traced_totals)}
    setup_probes(SETUP_PROBES)
    if args.trace:
        result["imports"] = {
            name: [import_seconds(err, module) for _, err in probes] for name, module in IMPORTS.items()
        }

    result.update(
        {
            "pipelines": len(untraced["solve"]),
            "times": untraced,
            "kernels": kernels,
            "setup": [dt for dt, _ in probes],
            "attempted": stats["attempted"],
            "failed": stats["failed"],
            "failures": stats["failures"],
            "wrong": stats["wrong"],
            "shas": checker.first_shas,
            "shape": checker.shape,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
