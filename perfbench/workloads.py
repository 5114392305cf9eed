"""Workload definitions, input generation and stored reference values.

Every workload is the README model (mu=2, lam=2, r=0.1, ell=2, c_bar=1.2,
c_floor=0, L=20, default solver) with its own claim family, lattice size
and path count, chosen so that one layer dominates the pipeline.  The
benchmark seed only picks the Monte Carlo seed written into the YAML, so
the solve work is the same for every seed and the certificate and the
simulate estimate change with it.
"""

from __future__ import annotations

import hashlib
import json

MODEL = {"mu": 2.0, "lam": 2.0, "r": 0.1, "ell": 2.0, "c_bar": 1.2, "c_floor": 0.0}
L = 20.0

# layer: the traced layer (largest self time) the workload exists to stress.
WORKLOADS = {
    # the Picard ladder dominates; changes to the ladder show here
    "ladder-exp": {
        "claims": {"kind": "exponential", "gamma": 0.6},
        "n_x": 1000,
        "n": 64,
        "paths": 2048,
        "layer": "sweep",
    },
    # the batch Monte Carlo engine dominates verify and simulate
    "mc-exp": {
        "claims": {"kind": "exponential", "gamma": 0.6},
        "n_x": 400,
        "n": 16,
        "paths": 2048,
        "layer": "simulate",
    },
    # the Newton quantile sampler dominates; the only model-layer workload
    "mc-hyperexp": {
        "claims": {"kind": "hyperexponential", "weights": [0.7, 0.3], "means": [0.3, 1.3]},
        "n_x": 400,
        "n": 16,
        "paths": 512,
        "layer": "model",
    },
    # no recursion for Pareto, so O(n_x^2) direct convolution dominates;
    # bypasses exponential-mixture ladder changes.  1600 x 32 is a size at
    # which verify's complementarity check fails today.
    "ladder-pareto": {
        "claims": {"kind": "shifted_pareto", "alpha": 3.0, "theta": 1.2},
        "n_x": 1600,
        "n": 32,
        "paths": 512,
        "layer": "discretization",
    },
}

#: |v(0, c_floor) - reference| allowed.  The solver stops on a 1e-10 sweep
#: update at contraction 0.952, about 2e-9 from its fixed point, so any
#: solver that converges as tightly stays far inside this bound
V_TOL = 1e-6
#: x_star_max may move by this many cells (the mask threshold is 1e-6*dx)
X_TOL_CELLS = 2

#: outputs of the seed-independent solve at the commit that defined the
#: benchmark; solve_sha256 is reported as match/differ, never a failure
REFERENCE = {
    "ladder-exp": {
        "v00": 3.775438596187313,
        "x_star_max": 6.9,
        "solve_sha256": "233044ffc9d2373f920395a94f3e420f81aa5a850e868d7920b255e1b97fcf46",
    },
    "mc-exp": {
        "v00": 3.731666304445857,
        "x_star_max": 6.550000000000001,
        "solve_sha256": "28d208758e2aa2c1791e9c9dab4d25aec16c2afc09dc5461502aeb96804d174d",
    },
    "mc-hyperexp": {
        "v00": 2.846853795507358,
        "x_star_max": 6.15,
        "solve_sha256": "ff0a49d0a984cd1e26ae401436ec12922e7c4f23de4f0117d987d23fbea2650b",
    },
    "ladder-pareto": {
        "v00": 2.8649726223464076,
        "x_star_max": 5.9375,
        "solve_sha256": "afc6abce1e5b3a0f9c1047757ce2f9f0102d6e27578bc60fca0b9f146ed8fc94",
    },
}
#: every certificate must pass; a failing one is a failed operation
REFERENCE_VERDICT = True


def mc_seed(workload: str, seed: int) -> int:
    """Monte Carlo seed for a benchmark seed, stable across platforms."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def config_text(workload: str, seed: int, out_dir: str) -> str:
    """YAML run configuration (JSON is a YAML subset) for one workload."""
    w = WORKLOADS[workload]
    doc = {
        "model": MODEL,
        "claims": w["claims"],
        "grid": {"L": L, "n_x": w["n_x"]},
        "ladder": {"n": w["n"]},
        "simulate": {"paths": w["paths"], "seed": mc_seed(workload, seed)},
        "output": {"dir": out_dir},
    }
    return json.dumps(doc, indent=2) + "\n"
