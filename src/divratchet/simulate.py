"""Monte Carlo simulation of dividend strategies under the surplus model.

All dynamics between claims are deterministic (drift mu - C), so paths are
advanced event-by-event with closed-form discounted dividends per
constant-rate segment: c * (e^{-r t0} - e^{-r t1}) / r.  No time stepping,
hence no integration bias; the only errors are statistical and the finite
horizon, whose contribution is bounded by (c_bar/r) e^{-r T}.

Randomness contract:
  * every claim event consumes two uniforms, in order (interarrival, size);
    interarrivals map through -log(1-u)/lam, sizes through the
    distribution's quantile function;
  * single-path simulators draw from Philox seeded with
    SeedSequence(seed, spawn_key=(path_index,)) - independent streams per
    path index under one seed;
  * batch estimators draw canonical chunked matrices rng.random((P, K, 2))
    from Philox seeded with SeedSequence(seed), so path p's k-th claim
    always sees the same pair regardless of other paths' lifetimes; the
    K claim sizes of a block are transformed in one sample_from_uniform
    call, which is elementwise, so they equal the per-claim transforms.

The ratcheting strategy is the feedback read off a solved surface: the
dividend rate is the equivalent maximum rate of the running maximum (a
right-continuous step function per node cell).  While the surplus sits on
its running maximum ("frontier"), cell crossings happen at precomputed
clock times; while below it ("recovery"), the rate is frozen until the
maximum is reached again.  Both phases are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass
class PayoffEstimate:
    """Sample mean and error of discounted payoffs over n_paths."""

    mean: float
    std_error: float
    n_paths: int
    horizon: float
    tail_bound: float


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(path_index,)))
    )


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
        j = np.clip((x / self.grid.dx).astype(np.int64), 0, self.grid.n_x)
        return np.where(x >= self.grid.L, self.m.c_bar, self.rho[j])

    def clock(self, x):
        x = np.asarray(x, float)
        j = np.clip(
            np.floor(x / self.grid.dx).astype(np.int64), 0, self.grid.n_x - 1
        )
        inside = self.t_cross[j] + (x - j * self.grid.dx) / (self.m.mu - self.rho[j])
        beyond = self.t_end + (x - self.grid.L) / self.cap_drift
        return np.where(x >= self.grid.L, beyond, inside)

    def pos_dp(self, tau):
        """Position and clock-discounted dividend prefix at clock tau."""
        tau = np.asarray(tau, float)
        j = np.clip(
            np.searchsorted(self.t_cross, tau, side="right") - 1,
            0,
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


def simulate_ratchet(
    m: ModelParams,
    d: ClaimDistribution,
    rate_map: RateMap,
    x0: float,
    c0: float,
    seed: int,
    horizon: float | None = None,
    path_index: int = 0,
) -> PathRecord:
    """One path of the ratcheting feedback strategy from (x0, c0).

    The dividend rate is the rate table evaluated at the running maximum;
    rate changes happen exactly at node crossings while on the frontier.
    """
    T = default_horizon(m.r) if horizon is None else float(horizon)
    sched = FrontierSchedule(m, _ratchet_row(rate_map, c0), rate_map.grid)
    rng = _path_rng(seed, path_index)
    ev = _Events()
    t = 0.0
    div = 0.0
    cost = 0.0
    x = x0
    if x < 0.0:
        cost += m.ell * (-x)
        ev.add(0.0, "injection", x, 0.0, float(sched.rate_at(0.0)), inj=-x)
        x = 0.0
    mx = x
    cur_rate = float(sched.rate_at(mx))
    ev.add(0.0, "start", x, x, cur_rate)
    dx = rate_map.grid.dx
    L = rate_map.grid.L
    while True:
        u = rng.random(2)
        w = -math.log1p(-u[0]) / m.lam
        dur_total = min(w, T - t)
        # deterministic evolution across recovery and node crossings; each
        # iteration either exhausts the duration or snaps exactly onto its
        # target (the running maximum or the next node), so progress is
        # guaranteed even when the increment would underflow
        remaining = dur_total
        while remaining > 0.0:
            if x < mx:
                rate = float(sched.rate_at(mx))
                target = mx
            elif x >= L:
                rate = m.c_bar
                target = math.inf
            else:
                j = int(x / dx)
                target = (j + 1) * dx
                if target <= x:
                    # x sits on a node whose quotient rounded down; the
                    # cell ahead is the right one, else target == x stalls
                    j += 1
                    target = (j + 1) * dx
                rate = float(sched.rho[min(j, sched.rho.size - 1)])
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
    done = 0
    while done < n_paths:
        p = min(CHUNK_PATHS, n_paths - done)
        t = np.zeros(p)
        x = np.full(p, max(x0, 0.0))
        mx = x.copy()
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
                dur = np.minimum(w, T - t)
                hor = alive & (w >= T - t)
                # recovery at the frozen rate of the running maximum
                rate_m = sched.rate_at(mx)
                rec = np.minimum((mx - x) / (m.mu - rate_m), dur)
                rec = np.maximum(rec, 0.0)
                t_mid = t + rec
                seg = rate_m * (np.exp(-m.r * t) - np.exp(-m.r * t_mid)) / m.r
                div[alive] += seg[alive]
                x_mid = np.minimum(x + (m.mu - rate_m) * rec, mx)
                # frontier growth for the remaining duration
                front = dur - rec
                has_front = alive & (front > 0.0)
                tau0 = sched.clock(mx)
                pos1, dp1 = sched.pos_dp(tau0 + front)
                _, dp0 = sched.pos_dp(tau0)
                fr_div = np.exp(-m.r * (t_mid - tau0)) * (dp1 - dp0)
                div[has_front] += fr_div[has_front]
                x_end = np.where(has_front, pos1, x_mid)
                mx = np.where(has_front, pos1, mx)
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
