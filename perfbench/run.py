"""divratchet benchmark: time the solve -> verify -> simulate commands.

    python3 perfbench/run.py --workload ladder-exp --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

Run from anywhere; the program under test is <repo>/src/divratchet.  Each
workload runs in a fresh, single-threaded process (perfbench/child.py).
With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from hostprobe import NOMINAL_S
from workloads import REFERENCE, WORKLOADS, L, config_text, mc_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: wall-clock limit of one workload process
CHILD_TIMEOUT_S = 165.0


class BenchError(Exception):
    """A workload could not be measured; no result is printed."""


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "divratchet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout; see source_sha256)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def spec_names(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def run_workload(args) -> dict:
    """Run one workload in a fresh process, print its report and return
    its result object.  Raises BenchError if it could not be measured."""
    env = pinned_env()
    seed_mc = mc_seed(args.workload, args.seed)
    work = tempfile.mkdtemp(prefix=f".work-{args.workload}-", dir=HERE)
    try:
        cfg = os.path.join(work, "run.yaml")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(config_text(args.workload, args.seed, work))
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", args.workload, "--config", cfg, "--work", work,
            "--mc-seed", str(seed_mc), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        try:
            out = subprocess.run(
                cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload process exceeded {CHILD_TIMEOUT_S:.0f} s")
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise BenchError(f"workload process exited {out.returncode} without a result")
        res = json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = dict(res["layers"])
        for name, values in res["imports"].items():
            metrics[name] = statistics.median(values)
        section = "per_layer"
    else:
        # host-normalised: see hostprobe.py
        norm = {
            cmd: statistics.median(t * NOMINAL_S / k for t, k in zip(ts, res["kernels"][cmd]))
            for cmd, ts in res["times"].items()
        }
        metrics = {
            "setup_s": statistics.median(res["setup"]),
            "solve_s": norm["solve"],
            "verify_s": norm["verify"],
            "simulate_s": norm["simulate"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        section = "end_to_end"
    units = spec_names(section)
    if set(units) - set(metrics):
        raise BenchError(f"metrics {sorted(set(units) - set(metrics))} of BENCHMARK.json not measured")

    w = WORKLOADS[args.workload]
    ref = REFERENCE[args.workload]
    shape = res["shape"]
    print(
        f"perfbench {args.workload} seed={args.seed} mc_seed={seed_mc} trace={args.trace} "
        f"pipelines={res['pipelines']} n_x={w['n_x']} n={w['n']} paths={w['paths']}"
    )
    print("env " + json.dumps({
        "git_sha": git_sha(), "source_sha256": source_sha(),
        "python": platform.python_version(), "numpy": res["versions"]["numpy"],
        "scipy": res["versions"]["scipy"], "nproc": len(os.sched_getaffinity(0)),
        "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1, one workload process at a time",
    }, sort_keys=True))
    for name in units:
        print(f"  {name:<40} {metrics[name]:>14.6g} {units[name]}")
    for name in sorted(set(metrics) - set(units)):
        print(f"  {name:<40} {metrics[name]:>14.6g} (only where the claim family supports it)")
    print(f"  {'ops_failed':<40} {res['failed']:>14d} of {res['attempted']} ops")
    print("  raw wall seconds per pipeline: " + json.dumps(
        {cmd: [round(t, 4) for t in ts] for cmd, ts in res["times"].items()}))
    print(f"  bracketing host-probe kernel ms (nominal {NOMINAL_S * 1e3:.3f}): " + json.dumps(
        {cmd: [round(k * 1e3, 3) for k in ks] for cmd, ks in res["kernels"].items()}))
    print("  raw setup seconds: " + ", ".join(f"{dt:.4f}" for dt in res["setup"]))
    if args.trace:
        print("  layer shares of traced command time (self): " + ", ".join(
            f"{k} {v:.1%}" for k, v in res["shares"].items()))
        tot = res["pipeline_totals"]
        print(f"  fastest pipeline: untraced {tot['untraced']:.4f} s, traced {tot['traced']:.4f} s")
        largest = max(res["shares"], key=res["shares"].get)
        print(f"  layer guard: largest layer {largest}, expected {w['layer']}: "
              f"{'PASS' if largest == w['layer'] else 'FAIL'}")
    print(f"  outputs: v(0, c_floor) {shape.get('v00')!r}, x_star_max {shape.get('x_star_max')!r} "
          f"(guard: inside (0, {0.8 * L})), contact_fraction {shape.get('contact_fraction')!r} "
          f"(guard: below 1)")
    shas = res["shas"] or {}
    print("  sha256 " + " ".join(f"{cmd}={(s or 'missing')[:16]}" for cmd, s in shas.items())
          + f" (solve vs reference: {'match' if shas.get('solve') == ref['solve_sha256'] else 'differ'})")
    for reason, count in res["failures"].items():
        print(f"  FAILED x{count}: {reason}")
    return {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_all(args) -> dict:
    """Every workload in turn, each in its own fresh process."""
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {name: r["metrics"] for name, r in results.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        return fail("need --seed >= 0 and 0 < --seconds <= 60")
    if not (ROOT / "src" / "divratchet" / "__init__.py").is_file():
        return fail(f"no divratchet sources under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json in {ROOT}")
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as err:
        return fail(str(err))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
