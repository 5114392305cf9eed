"""Monte Carlo simulation of dividend strategies under the surplus model.

All dynamics between claims are deterministic (drift mu - C), so paths are
advanced event-by-event with closed-form discounted dividends per
constant-rate segment: c * (e^{-r t0} - e^{-r t1}) / r.  No time stepping,
hence no integration bias; the only errors are statistical and the finite
horizon, whose contribution is bounded by (c_bar/r) e^{-r T}.

Randomness contract: every claim event consumes two uniforms, in order
(interarrival, size); interarrivals map through -log(1-u)/lam, sizes
through the distribution's quantile function.  The estimators draw
canonical chunked matrices rng.random((P, K, 2)) from one Philox stream
seeded with SeedSequence(seed), P = CHUNK_PATHS paths and K = CLAIM_BLOCK
claims per block, so path p's k-th claim always sees the same pair
regardless of other paths' lifetimes.  The claim sizes of a block are
transformed in one sample_from_uniform call, which is elementwise, so they
equal the per-claim transforms.

The ratcheting strategy is the feedback read off a solved surface: the
dividend rate is the equivalent maximum rate of the running maximum (a
right-continuous step function per node cell).  While the surplus sits on
its running maximum ("frontier"), cell crossings happen at precomputed
clock times; while below it ("recovery"), the rate is frozen until the
maximum is reached again.  Both phases are exact.

The ratchet engine steps only live paths: a path leaves the working arrays
at the claim step that reaches the horizon, and the sizes of a new block
are transformed for the live rows only.  Each path carries the frontier
state of its running maximum (clock, dividend prefix and rate), which is
recomputed only on the steps where the maximum grows.  Neither changes
the arithmetic of any path, so payoffs are the same bits as stepping every
path on every column.  The single-path event-log simulators that check
this accounting live with the tests as reference implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import ClaimDistribution, ModelParams
from .surface import RateMap, rung_index

#: paths per canonical draw chunk; part of the byte-stability contract
CHUNK_PATHS = 16384
#: claim columns drawn per block
CLAIM_BLOCK = 64


def default_horizon(r: float) -> float:
    """Smallest integer horizon with discount factor below 1e-10."""
    return float(math.ceil(10.0 * math.log(10.0) / r))


def tail_bound(m: ModelParams, horizon: float) -> float:
    """Upper bound on discounted payoff beyond the horizon."""
    return (m.c_bar / m.r) * math.exp(-m.r * horizon)


@dataclass
class PayoffEstimate:
    """Sample mean and error of discounted payoffs over n_paths."""

    mean: float
    std_error: float
    n_paths: int
    horizon: float
    tail_bound: float


def _batch_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _estimate(payoffs: np.ndarray, horizon: float, m: ModelParams) -> PayoffEstimate:
    n = payoffs.size
    mean = math.fsum(payoffs) / n
    var = math.fsum((p - mean) ** 2 for p in payoffs) / (n - 1)
    return PayoffEstimate(
        mean=mean,
        std_error=math.sqrt(var / n),
        n_paths=n,
        horizon=horizon,
        tail_bound=tail_bound(m, horizon),
    )


class FrontierSchedule:
    """Precomputed growth schedule of the surplus along its running maximum.

    With node rates rho_j (constant on [x_j, x_{j+1})), the frontier clock
    tau(x) is the time for the maximum to grow from 0 to x, and DP(tau) the
    clock-discounted dividend integral int_0^tau e^{-r s} rho(pos(s)) ds.
    A frontier run from position x over duration D then contributes
    e^{-r (t_enter - tau(x))} * (DP(tau(x) + D) - DP(tau(x))) discounted
    dividends at absolute entry time t_enter.
    """

    def __init__(self, m: ModelParams, rho: np.ndarray, grid):
        self.m = m
        self.grid = grid
        self.rho = np.asarray(rho, float)
        if self.rho.shape != (grid.n_x + 1,):
            raise ValidationError("rate table must have one rate per node")
        if self.rho.max() > m.c_bar + 1e-12:
            raise ValidationError("rate table exceeds the cap")
        drift = m.mu - self.rho[:-1]
        dt = grid.dx / drift
        self.t_cross = np.concatenate([[0.0], np.cumsum(dt)])
        e = np.exp(-m.r * self.t_cross)
        seg = self.rho[:-1] * (e[:-1] - e[1:]) / m.r
        self.dp_node = np.concatenate([[0.0], np.cumsum(seg)])
        self.t_end = float(self.t_cross[-1])
        self.dp_end = float(self.dp_node[-1])
        self.cap_drift = m.mu - m.c_bar

    def rate_at(self, x):
        """Rate while the running maximum sits at x (right-continuous)."""
        x = np.asarray(x, float)
        j = np.minimum(np.maximum((x / self.grid.dx).astype(np.int64), 0), self.grid.n_x)
        return np.where(x >= self.grid.L, self.m.c_bar, self.rho[j])

    def clock(self, x):
        x = np.asarray(x, float)
        j = np.minimum(
            np.maximum(np.floor(x / self.grid.dx).astype(np.int64), 0), self.grid.n_x - 1
        )
        inside = self.t_cross[j] + (x - j * self.grid.dx) / (self.m.mu - self.rho[j])
        beyond = self.t_end + (x - self.grid.L) / self.cap_drift
        return np.where(x >= self.grid.L, beyond, inside)

    def pos_dp(self, tau):
        """Position and clock-discounted dividend prefix at clock tau."""
        tau = np.asarray(tau, float)
        j = np.minimum(
            np.maximum(np.searchsorted(self.t_cross, tau, side="right") - 1, 0),
            self.grid.n_x - 1,
        )
        over = tau >= self.t_end
        e_tau = np.exp(-self.m.r * tau)
        pos_in = j * self.grid.dx + (tau - self.t_cross[j]) * (self.m.mu - self.rho[j])
        dp_in = self.dp_node[j] + self.rho[j] * (
            np.exp(-self.m.r * self.t_cross[j]) - e_tau
        ) / self.m.r
        pos_out = self.grid.L + (tau - self.t_end) * self.cap_drift
        dp_out = self.dp_end + self.m.c_bar * (
            math.exp(-self.m.r * self.t_end) - e_tau
        ) / self.m.r
        return np.where(over, pos_out, pos_in), np.where(over, dp_out, dp_in)


def _ratchet_row(rate_map: RateMap, c0: float) -> np.ndarray:
    """Node-rate table for initial rate c0: the map's row at the enclosing
    rung (rates snap up, keeping the strategy admissible)."""
    return rate_map.values[rung_index(rate_map.rates, c0)]


def _batch_constant_payoffs(m, d, c_const, x0, n_paths, seed, T):
    rng = _batch_rng(seed)
    out = np.empty(n_paths)
    done = 0
    while done < n_paths:
        p = min(CHUNK_PATHS, n_paths - done)
        t = np.zeros(p)
        x = np.full(p, max(x0, 0.0))
        div = np.zeros(p)
        cost = np.full(p, m.ell * max(-x0, 0.0))
        alive = np.ones(p, dtype=bool)
        while alive.any():
            draws = rng.random((p, CLAIM_BLOCK, 2))
            sizes = d.sample_from_uniform(draws[:, :, 1])
            for k in range(CLAIM_BLOCK):
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


def _batch_ratchet_payoffs(m, d, sched, x0, n_paths, seed, T):
    rng = _batch_rng(seed)
    out = np.empty(n_paths)
    for done in range(0, n_paths, CHUNK_PATHS):
        p = min(CHUNK_PATHS, n_paths - done)
        res = out[done : done + p]
        # working arrays hold the live paths only; live[i] is the chunk
        # index of working row i
        live = np.arange(p)
        t = np.zeros(p)
        x = np.full(p, max(float(x0), 0.0))
        mx = x.copy()
        div = np.zeros(p)
        cost = np.full(p, m.ell * max(-x0, 0.0))
        # frontier state of the running maximum, recomputed only when it grows
        tau_m = sched.clock(mx)
        dp_m = sched.pos_dp(tau_m)[1]
        rate_m = sched.rate_at(mx)
        while live.size:
            draws = rng.random((p, CLAIM_BLOCK, 2))
            if live.size < p:
                # keep the live rows only; the full block is freed here
                draws = draws[live]
            sizes = d.sample_from_uniform(draws[:, :, 1])
            row = np.arange(live.size)  # block row of each working row
            for k in range(CLAIM_BLOCK):
                w = -np.log1p(-draws[row, k, 0]) / m.lam
                left = T - t
                dur = np.minimum(w, left)
                # recovery at the frozen rate of the running maximum
                drift = m.mu - rate_m
                rec = np.minimum((mx - x) / drift, dur)
                rec = np.maximum(rec, 0.0)
                t_mid = t + rec
                div += rate_m * (np.exp(-m.r * t) - np.exp(-m.r * t_mid)) / m.r
                x_end = np.minimum(x + drift * rec, mx)
                # frontier growth for the remaining duration
                front = dur - rec
                f = np.flatnonzero(front > 0.0)
                if f.size:
                    tau0 = tau_m[f]
                    pos1, dp1 = sched.pos_dp(tau0 + front[f])
                    div[f] += np.exp(-m.r * (t_mid[f] - tau0)) * (dp1 - dp_m[f])
                    x_end[f] = mx[f] = pos1
                    tau1 = sched.clock(pos1)
                    tau_m[f] = tau1
                    dp_m[f] = sched.pos_dp(tau1)[1]
                    rate_m[f] = sched.rate_at(pos1)
                t = t + dur
                # paths that reach the horizon take no claim and leave
                hor = w >= left
                if hor.any():
                    res[live[hor]] = div[hor] - cost[hor]
                    keep = ~hor
                    live, row, t, x_end, mx, div, cost, tau_m, dp_m, rate_m = (
                        a[keep]
                        for a in (live, row, t, x_end, mx, div, cost, tau_m, dp_m, rate_m)
                    )
                    if not live.size:
                        break
                z = sizes[row, k]
                shortfall = np.maximum(z - x_end, 0.0)
                cost += m.ell * np.exp(-m.r * t) * shortfall
                x = np.maximum(x_end - z, 0.0)
    return out


def estimate_constant_payoff(
    m: ModelParams,
    d: ClaimDistribution,
    c_const: float,
    x0: float,
    n_paths: int,
    seed: int,
    horizon: float | None = None,
    return_payoffs: bool = False,
):
    """Batch estimate of the fixed-rate strategy value at x0."""
    if not c_const <= m.c_bar:
        raise ValidationError("constant rate must not exceed c_bar")
    if n_paths < 2:
        raise ValidationError("need at least 2 paths for a standard error")
    T = default_horizon(m.r) if horizon is None else float(horizon)
    payoffs = _batch_constant_payoffs(m, d, c_const, x0, n_paths, seed, T)
    est = _estimate(payoffs, T, m)
    return (est, payoffs) if return_payoffs else est


def estimate_boundary_payoff(
    m: ModelParams,
    d: ClaimDistribution,
    x0: float,
    n_paths: int,
    seed: int,
    horizon: float | None = None,
    return_payoffs: bool = False,
):
    """Batch estimate of the cap-rate strategy value at x0."""
    return estimate_constant_payoff(
        m, d, m.c_bar, x0, n_paths, seed, horizon, return_payoffs
    )


def estimate_ratchet_payoff(
    m: ModelParams,
    d: ClaimDistribution,
    rate_map: RateMap,
    x0: float,
    c0: float,
    n_paths: int,
    seed: int,
    horizon: float | None = None,
    return_payoffs: bool = False,
):
    """Batch estimate of the ratcheting feedback strategy value at (x0, c0)."""
    if n_paths < 2:
        raise ValidationError("need at least 2 paths for a standard error")
    T = default_horizon(m.r) if horizon is None else float(horizon)
    sched = FrontierSchedule(m, _ratchet_row(rate_map, c0), rate_map.grid)
    payoffs = _batch_ratchet_payoffs(m, d, sched, x0, n_paths, seed, T)
    est = _estimate(payoffs, T, m)
    return (est, payoffs) if return_payoffs else est
