"""Reference Monte Carlo engines that the package's batch estimators are
tested against.

* ``simulate_constant`` / ``simulate_boundary`` / ``simulate_ratchet`` are
  single-path event loops with a full event log (``PathRecord``).  They
  draw from Philox seeded with SeedSequence(seed, spawn_key=(path_index,)),
  one independent stream per path index, two uniforms per claim in the
  order (interarrival, size), and the ratchet snaps exactly onto the
  thresholds, reading its rate off them directly rather than evaluating
  the frontier schedule, so they are an independent accounting of the same
  strategy.
* ``reference_batch_ratchet`` is the masked batch ratchet loop that steps
  every path of a chunk on every claim column, dead or alive.  It carries
  the frontier clock and rate of the running maximum as state, as the
  engine does, and looks the dividend prefix up at that clock on every
  step.  The package's engine must reproduce its payoffs bitwise.
* ``reference_batch_constant`` is the masked batch constant-rate loop that
  steps every path of a chunk on every claim column and transforms each
  column's waits and discount factors on its own.  The package's engine
  must reproduce its payoffs bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from divratchet import simulate as sim
from divratchet.errors import ValidationError
from divratchet.model import ClaimDistribution, ModelParams
from divratchet.simulate import default_horizon
from divratchet.surface import rung_index


@dataclass
class PathRecord:
    """One simulated path: event log plus discounted totals.

    cumulative_injections[k] is the total injected capital up to and
    including event k; it is non-decreasing and jumps only at injection
    events (time zero for x0 < 0, claim instants otherwise).
    """

    x0: float
    c0: float
    seed: int
    path_index: int
    horizon: float
    times: np.ndarray
    kinds: list
    surplus_before: np.ndarray
    surplus_after: np.ndarray
    rate_after: np.ndarray
    cumulative_injections: np.ndarray
    discounted_dividends: float
    discounted_injection_cost: float

    @property
    def payoff(self) -> float:
        return self.discounted_dividends - self.discounted_injection_cost


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(path_index,)))
    )


class _Events:
    """Accumulates the event log arrays for a PathRecord."""

    def __init__(self):
        self.times = []
        self.kinds = []
        self.before = []
        self.after = []
        self.rate = []
        self.inj = []

    def add(self, t, kind, before, after, rate, inj=0.0):
        self.times.append(t)
        self.kinds.append(kind)
        self.before.append(before)
        self.after.append(after)
        self.rate.append(rate)
        self.inj.append(inj)

    def arrays(self):
        return (
            np.asarray(self.times),
            self.kinds,
            np.asarray(self.before),
            np.asarray(self.after),
            np.asarray(self.rate),
            np.cumsum(self.inj),
        )


def simulate_constant(
    m: ModelParams,
    d: ClaimDistribution,
    c_const: float,
    x0: float,
    seed: int,
    horizon: float | None = None,
    path_index: int = 0,
) -> PathRecord:
    """One path of the fixed-rate strategy: pay c_const forever, inject any
    shortfall at claim times (and at time zero if x0 < 0)."""
    if not c_const <= m.c_bar:
        raise ValidationError("constant rate must not exceed c_bar")
    T = default_horizon(m.r) if horizon is None else float(horizon)
    rng = _path_rng(seed, path_index)
    ev = _Events()
    t = 0.0
    div = 0.0
    cost = 0.0
    x = x0
    if x < 0.0:
        cost += m.ell * (-x)
        ev.add(0.0, "injection", x, 0.0, c_const, inj=-x)
        x = 0.0
    while True:
        u = rng.random(2)
        w = -math.log1p(-u[0]) / m.lam
        if t + w >= T:
            div += c_const * (math.exp(-m.r * t) - math.exp(-m.r * T)) / m.r
            x += (m.mu - c_const) * (T - t)
            ev.add(T, "horizon", x, x, c_const)
            break
        t_next = t + w
        div += c_const * (math.exp(-m.r * t) - math.exp(-m.r * t_next)) / m.r
        x += (m.mu - c_const) * w
        z = float(d.sample_from_uniform(u[1]))
        x_before = x
        x -= z
        if x < 0.0:
            cost += m.ell * math.exp(-m.r * t_next) * (-x)
            ev.add(t_next, "injection", x_before, 0.0, c_const, inj=-x)
            x = 0.0
        else:
            ev.add(t_next, "claim", x_before, x, c_const)
        t = t_next
    times, kinds, before, after, rate, cum_inj = ev.arrays()
    return PathRecord(
        x0=x0, c0=c_const, seed=seed, path_index=path_index, horizon=T,
        times=times, kinds=kinds, surplus_before=before, surplus_after=after,
        rate_after=rate, cumulative_injections=cum_inj,
        discounted_dividends=div, discounted_injection_cost=cost,
    )


def simulate_boundary(
    m: ModelParams,
    d: ClaimDistribution,
    x0: float,
    seed: int,
    horizon: float | None = None,
    path_index: int = 0,
) -> PathRecord:
    """One path of the cap-rate strategy (rate c_bar forever)."""
    return simulate_constant(m, d, m.c_bar, x0, seed, horizon, path_index)


def simulate_ratchet(
    m: ModelParams,
    d: ClaimDistribution,
    thresholds,
    x0: float,
    c0: float,
    seed: int,
    horizon: float | None = None,
    path_index: int = 0,
) -> PathRecord:
    """One path of the ratcheting feedback strategy of thresholds
    (x*_1..x*_n) from (x0, c0).

    From the rung i of c0 the dividend rate is c_k for the largest k <= i
    whose threshold x*_k the running maximum has not reached, c_0 = c_bar
    if none; rate changes happen exactly at the thresholds while on the
    frontier.
    """
    T = default_horizon(m.r) if horizon is None else float(horizon)
    x_star = np.asarray(thresholds, float)
    rates = np.linspace(m.c_bar, m.c_floor, x_star.size + 1)
    i0 = rung_index(rates, c0)

    def rung_at(y):
        k = i0
        while k > 0 and y >= x_star[k - 1]:
            k -= 1
        return k

    rng = _path_rng(seed, path_index)
    ev = _Events()
    t = 0.0
    div = 0.0
    cost = 0.0
    x = x0
    if x < 0.0:
        cost += m.ell * (-x)
        ev.add(0.0, "injection", x, 0.0, float(rates[rung_at(0.0)]), inj=-x)
        x = 0.0
    mx = x
    cur_rate = float(rates[rung_at(mx)])
    ev.add(0.0, "start", x, x, cur_rate)
    while True:
        u = rng.random(2)
        w = -math.log1p(-u[0]) / m.lam
        dur_total = min(w, T - t)
        # deterministic evolution across recovery and threshold crossings;
        # each iteration either exhausts the duration or snaps exactly onto
        # its target (the running maximum, or the threshold at which rung_at
        # steps down), so progress is guaranteed even when the increment
        # would underflow
        remaining = dur_total
        while remaining > 0.0:
            k = rung_at(mx)
            rate = float(rates[k])
            if x < mx:
                target = mx
            else:
                target = x_star[k - 1] if k else math.inf
            if rate != cur_rate:
                ev.add(t, "ratchet", x, x, rate)
                cur_rate = rate
            full = (target - x) / (m.mu - rate)
            if full <= remaining:
                step = full
                x_new = target
            else:
                step = remaining
                x_new = x + (m.mu - rate) * step
            div += rate * (math.exp(-m.r * t) - math.exp(-m.r * (t + step))) / m.r
            x = x_new
            mx = max(mx, x)
            t += step
            remaining = 0.0 if step == remaining else remaining - step
        if dur_total < w:
            ev.add(T, "horizon", x, x, cur_rate)
            break
        z = float(d.sample_from_uniform(u[1]))
        x_before = x
        x -= z
        if x < 0.0:
            cost += m.ell * math.exp(-m.r * t) * (-x)
            ev.add(t, "injection", x_before, 0.0, cur_rate, inj=-x)
            x = 0.0
        else:
            ev.add(t, "claim", x_before, x, cur_rate)
    times, kinds, before, after, rate, cum_inj = ev.arrays()
    return PathRecord(
        x0=x0, c0=c0, seed=seed, path_index=path_index, horizon=T,
        times=times, kinds=kinds, surplus_before=before, surplus_after=after,
        rate_after=rate, cumulative_injections=cum_inj,
        discounted_dividends=div, discounted_injection_cost=cost,
    )


def reference_batch_ratchet(m, d, sched, x0, n_paths, seed, T):
    rng = sim._batch_rng(seed)
    out = np.empty(n_paths)
    done = 0
    while done < n_paths:
        p = min(sim.CHUNK_PATHS, n_paths - done)
        t = np.zeros(p)
        x = np.full(p, max(x0, 0.0))
        mx = x.copy()
        # the frontier clock and rate of the running maximum, carried as the
        # engine carries them: read off mx at the start, then the clock
        # moves on by each frontier run and the rate is that of the rate run
        # it ends in
        tau = sched.clock(mx)
        rate_m = sched.rate_at(mx)
        div = np.zeros(p)
        cost = np.full(p, m.ell * max(-x0, 0.0))
        alive = np.ones(p, dtype=bool)
        while alive.any():
            draws = rng.random((p, sim.CLAIM_BLOCK, 2))
            sizes = d.sample_from_uniform(draws[:, :, 1])
            for k in range(sim.CLAIM_BLOCK):
                if not alive.any():
                    break
                w = -np.log1p(-draws[:, k, 0]) / m.lam
                dur = np.minimum(w, T - t)
                hor = alive & (w >= T - t)
                # recovery at the frozen rate of the running maximum
                rec = np.minimum((mx - x) / (m.mu - rate_m), dur)
                rec = np.maximum(rec, 0.0)
                t_mid = t + rec
                seg = rate_m * (np.exp(-m.r * t) - np.exp(-m.r * t_mid)) / m.r
                div[alive] += seg[alive]
                x_mid = np.minimum(x + (m.mu - rate_m) * rec, mx)
                # frontier growth for the remaining duration
                front = dur - rec
                has_front = alive & (front > 0.0)
                tau1 = tau + front
                pos1, dp1, rate1 = sched.at_clock(tau1)
                dp0 = sched.at_clock(tau)[1]
                fr_div = np.exp(-m.r * (t_mid - tau)) * (dp1 - dp0)
                div[has_front] += fr_div[has_front]
                x_end = np.where(has_front, pos1, x_mid)
                mx = np.where(has_front, pos1, mx)
                tau = np.where(has_front, tau1, tau)
                rate_m = np.where(has_front, rate1, rate_m)
                t_end = t + dur
                # claim for paths that did not hit the horizon
                run = alive & ~hor
                z = sizes[:, k]
                shortfall = np.maximum(z - x_end, 0.0)
                cost[run] += m.ell * np.exp(-m.r * t_end[run]) * shortfall[run]
                x_new = np.maximum(x_end - z, 0.0)
                x = np.where(run, x_new, x_end)
                t = np.where(alive, t_end, t)
                alive &= ~hor
        out[done : done + p] = div - cost
        done += p
    return out


def reference_batch_constant(m, d, c_const, x0, n_paths, seed, T):
    rng = sim._batch_rng(seed)
    out = np.empty(n_paths)
    done = 0
    while done < n_paths:
        p = min(sim.CHUNK_PATHS, n_paths - done)
        t = np.zeros(p)
        x = np.full(p, max(x0, 0.0))
        div = np.zeros(p)
        cost = np.full(p, m.ell * max(-x0, 0.0))
        alive = np.ones(p, dtype=bool)
        while alive.any():
            draws = rng.random((p, sim.CLAIM_BLOCK, 2))
            sizes = d.sample_from_uniform(draws[:, :, 1])
            for k in range(sim.CLAIM_BLOCK):
                if not alive.any():
                    break
                w = -np.log1p(-draws[:, k, 0]) / m.lam
                hit = alive & (t + w >= T)
                run = alive & ~hit
                div[hit] += (
                    c_const * (np.exp(-m.r * t[hit]) - math.exp(-m.r * T)) / m.r
                )
                t_next = t + w
                div[run] += (
                    c_const
                    * (np.exp(-m.r * t[run]) - np.exp(-m.r * t_next[run]))
                    / m.r
                )
                x[run] += (m.mu - c_const) * w[run]
                z = sizes[:, k]
                shortfall = np.where(run, np.maximum(z - x, 0.0), 0.0)
                cost[run] += m.ell * np.exp(-m.r * t_next[run]) * shortfall[run]
                x[run] = np.maximum(x[run] - z[run], 0.0)
                t[run] = t_next[run]
                alive &= ~hit
        out[done : done + p] = div - cost
        done += p
    return out
