"""Outside-in layer tracing: spans around divratchet's public functions.

`Tracer.install` replaces each function at the module attribute its
callers look it up through (its import site), and `uninstall` puts the
originals back.  Nothing under src/ is edited.  A span's self time is its
duration minus the time of the spans it directly contains, so the self
times of all spans plus the untraced remainder add up to command time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

import divratchet.cli as cli
import divratchet.discretization as discretization
import divratchet.ladder as ladder
import divratchet.model as model
import divratchet.simulate as simulate
import divratchet.verify as verify
from divratchet.surface import ValueSurface

#: span name -> layer whose self time it counts toward
LAYER_OF = {
    "config.load": "config",
    "ladder.solve": "ladder",
    "ladder.rung": "ladder",
    "boundary.solve": "boundary",
    "sweep.scan": "sweep",
    "discretization.convolve": "discretization",
    "model.sample": "model",
    "simulate.ratchet": "simulate",
    "simulate.constant": "simulate",
    "verify.invariants": "verify",
    "verify.calibrate": "verify",
    "verify.mc": "verify",
    "surface.build": "surface",
    "cache.write": "cache",
    "cache.read": "cache",
}


class Tracer:
    """Per-span call counts, total and self times, plus layer counters."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self._open = []  # child time accumulated by each open span
        self.sweeps = []  # Picard sweeps of every solved rung
        self.draws = 0
        self.paths = 0
        self.expected_steps = 0.0  # sum of n_paths * lam * horizon

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._open.pop()
                rec = self.spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if self._open:
                    self._open[-1] += dt
            if after is not None:
                after(args, kwargs, out)
            return out

        return span

    def _patch(self, owner, attr, name, after=None, kind=None):
        orig = owner.__dict__[attr]
        fn = orig.__func__ if kind is classmethod else orig
        wrapped = self._wrap(name, fn, after)
        setattr(owner, attr, kind(wrapped) if kind else wrapped)
        self._patches.append((owner, attr, orig))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")

        def on_rung(args, kwargs, out):
            self.sweeps.append(int(out.iterations))

        def on_sample(args, kwargs, out):
            self.draws += int(np.size(args[1]))

        def on_estimate(fn):
            sig = inspect.signature(fn)

            def after(args, kwargs, out):
                a = sig.bind(*args, **kwargs).arguments
                m = a["m"]
                horizon = a.get("horizon")
                T = simulate.default_horizon(m.r) if horizon is None else float(horizon)
                self.paths += int(a["n_paths"])
                self.expected_steps += int(a["n_paths"]) * m.lam * T

            return after

        self._patch(cli, "load_config", "config.load")
        self._patch(cli, "solve_ladder", "ladder.solve")
        self._patch(verify, "solve_ladder", "ladder.solve")
        self._patch(ladder, "solve_rung", "ladder.rung", on_rung)
        self._patch(ladder, "solve_g", "boundary.solve")
        self._patch(ladder, "projected_backward_scan", "sweep.scan")
        self._patch(discretization.ConvKernel, "convolve", "discretization.convolve")
        for cls in (model.Exponential, model.HyperExponential, model.ShiftedPareto):
            self._patch(cls, "sample_from_uniform", "model.sample", on_sample)
        for attr, name in (
            ("estimate_ratchet_payoff", "simulate.ratchet"),
            ("estimate_constant_payoff", "simulate.constant"),
        ):
            self._patch(simulate, attr, name, on_estimate(getattr(simulate, attr)))
        self._patch(cli, "run_invariant_suite", "verify.invariants")
        self._patch(cli, "calibrate_eps_disc", "verify.calibrate")
        self._patch(cli, "mc_cross_check", "verify.mc")
        self._patch(ValueSurface, "from_solution", "surface.build", kind=classmethod)
        self._patch(cli, "write_surface", "cache.write")
        self._patch(cli, "read_surface", "cache.read")

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def calls(self, name) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def total(self, name) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def layer_self(self) -> dict:
        """Self seconds per layer, over every span recorded since reset."""
        out = defaultdict(float)
        for name, (_, _, self_s) in self.spans.items():
            out[LAYER_OF[name]] += self_s
        return dict(out)
