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
equal the per-claim transforms.  Several strategies can run on one stream
(estimate_strategies): path p's k-th claim is then the same pair for every
one of them, so each strategy's payoffs are the bits its own estimator
gives at that seed, and the strategies are compared on common random
numbers.  A block is drawn for the paths that some strategy has not
finished; a strategy that has finished a path adds exactly 0 to it.

The ratcheting strategy is the feedback read off a solved surface: the
dividend rate is the equivalent maximum rate of the running maximum (a
right-continuous step function per node cell).  While the surplus sits on
its running maximum ("frontier"), cell crossings happen at precomputed
clock times; while below it ("recovery"), the rate is frozen until the
maximum is reached again.  Both phases are exact.

One driver serves every strategy.  It prepares each claim block once, not
once per claim column or per strategy.  A block is stored claim-major,
(2, K, n) for its n live paths, so every claim column is contiguous; its
interarrival slot is turned in place into the waits, and its sizes are
transformed for the live rows only.  The ratchet reads the block first.
It carries e^{-rt} and the frontier state of its running maximum (clock,
dividend prefix and rate), recomputed only for the rows whose maximum
grows, and it parks a path at its horizon: clock T, rate 0 and no claims,
so the path's later columns add exactly 0.  The constant rates then build
the claim clocks by column adds in the freed size slot and take their
discount factors with one exp, shared by every rate; the horizon is exact
by masking (from its horizon column on a path has the factor e^{-rT} and
claim size 0), so only the surplus recursion and the two running sums
remain per column.  Paths leave at the block end once every strategy has
passed their horizon.  None of this changes the arithmetic of any path, so
payoffs are the same bits as stepping every path on every column with
per-column transforms.  Those masked loops and the single-path event-log
simulators that check this accounting live with the tests as reference
implementations.
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
#: paths of a block drawn at a time
DRAW_SLAB = 256


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
    var = math.fsum(((payoffs - mean) ** 2).tolist()) / (n - 1)
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
        e_cross = np.exp(-m.r * self.t_cross)
        seg = self.rho[:-1] * (e_cross[:-1] - e_cross[1:]) / m.r
        self.dp_node = np.concatenate([[0.0], np.cumsum(seg)])
        self.t_end = float(self.t_cross[-1])
        self.dp_end = float(self.dp_node[-1])
        self.e_end = math.exp(-m.r * self.t_end)
        self.cap_drift = m.mu - m.c_bar
        # per-cell tables of the cells [x_j, x_{j+1}), j < n_x, read with
        # take(mode="clip"), which clamps the cell index as the lookups need
        self.cell_x = np.arange(grid.n_x) * grid.dx
        self.cell_t = self.t_cross[:-1]
        self.cell_rho = self.rho[:-1]
        self.cell_drift = drift
        self.cell_dp = self.dp_node[:-1]
        self.cell_e = e_cross[:-1]

    # Each lookup evaluates the beyond-L (beyond-t_end) branch only when
    # some entry lies there; entries inside get the same bits either way.

    def rate_at(self, x):
        """Rate while the running maximum sits at x (right-continuous)."""
        x = np.asarray(x, float)
        rate = self.rho.take((x / self.grid.dx).astype(np.int64), mode="clip")
        over = x >= self.grid.L
        return np.where(over, self.m.c_bar, rate) if np.count_nonzero(over) else rate

    def clock(self, x):
        x = np.asarray(x, float)
        # truncation, not floor: the clip sends every negative index to 0
        j = (x / self.grid.dx).astype(np.int64)
        tau = self.cell_t.take(j, mode="clip") + (
            x - self.cell_x.take(j, mode="clip")
        ) / self.cell_drift.take(j, mode="clip")
        over = x >= self.grid.L
        if np.count_nonzero(over):
            tau = np.where(over, self.t_end + (x - self.grid.L) / self.cap_drift, tau)
        return tau

    def pos_dp(self, tau):
        """Position and clock-discounted dividend prefix at clock tau."""
        tau = np.asarray(tau, float)
        # the cell whose crossing clock is the last one <= tau
        j = self.t_cross[1:].searchsorted(tau, side="right")
        e_tau = np.exp(-self.m.r * tau)
        pos = self.cell_x.take(j, mode="clip") + (
            tau - self.cell_t.take(j, mode="clip")
        ) * self.cell_drift.take(j, mode="clip")
        dp = self.cell_dp.take(j, mode="clip") + self.cell_rho.take(j, mode="clip") * (
            self.cell_e.take(j, mode="clip") - e_tau
        ) / self.m.r
        over = tau >= self.t_end
        if np.count_nonzero(over):
            pos = np.where(over, self.grid.L + (tau - self.t_end) * self.cap_drift, pos)
            dp_out = self.dp_end + self.m.c_bar * (self.e_end - e_tau) / self.m.r
            dp = np.where(over, dp_out, dp)
        return pos, dp


def _ratchet_row(rate_map: RateMap, c0: float) -> np.ndarray:
    """Node-rate table for initial rate c0: the map's row at the enclosing
    rung (rates snap up, keeping the strategy admissible)."""
    return rate_map.values[rung_index(rate_map.rates, c0)]


class _ClaimBlocks:
    """Claim blocks of one p-path chunk, stored claim-major.

    Each block is the next rng.random((p, K, 2)) of the stream, cut to the
    live rows and stored as (2, K, n), so that every claim column is
    contiguous.  It is drawn DRAW_SLAB rows at a time (the stream is the
    same as one draw) into buffers kept for the whole chunk, so a block
    touches no fresh pages and never holds the (p, K, 2) draws.
    """

    def __init__(self, rng, p):
        self.rng = rng
        self.buf = np.empty((2, CLAIM_BLOCK, p))
        self.slab = np.empty((min(DRAW_SLAB, p), CLAIM_BLOCK, 2))

    def next(self, d, lam, live):
        """Block of the live rows with its interarrival slot turned in place
        into the waits -log1p(-u)/lam, and the (K, n) claim sizes."""
        p = self.buf.shape[2]
        block = self.buf[:, :, : live.size]
        for i0 in range(0, p, DRAW_SLAB):
            rows = self.slab[: min(DRAW_SLAB, p - i0)]
            self.rng.random(out=rows)
            lo, hi = np.searchsorted(live, (i0, i0 + rows.shape[0]))
            if hi - lo < rows.shape[0]:
                rows = rows[live[lo:hi] - i0]
            block[:, :, lo:hi] = rows.T
        sizes = d.sample_from_uniform(block[1])
        w = block[0]
        np.negative(w, out=w)
        np.log1p(w, out=w)
        np.divide(w, -lam, out=w)
        return block, sizes


class _Ratchet:
    """The ratcheting strategy of a frontier schedule on the live paths of
    a chunk.

    Its state rows are t, e, mx, tau_m, dp_m, rate_m, x, div, cost: each
    path's clock and e^{-rt}, its running maximum and the frontier state of
    that maximum (clock, dividend prefix and rate), its surplus and the two
    running sums.
    """

    n_rows = 9

    def __init__(self, m, sched, T):
        self.m, self.sched, self.T = m, sched, T

    @staticmethod
    def payoffs(state):
        return state[7:8] - state[8:9]

    def start(self, state, x0):
        _, e, mx, tau_m, dp_m, rate_m, x, _, cost = state
        x[:] = max(float(x0), 0.0)
        cost[:] = self.m.ell * max(-x0, 0.0)
        e[:] = 1.0
        mx[:] = x
        tau_m[:] = self.sched.clock(mx)
        dp_m[:] = self.sched.pos_dp(tau_m)[1]
        rate_m[:] = self.sched.rate_at(mx)

    def step(self, block, sizes, state):
        """Advance the paths over one claim block, in place, and return the
        mask of the paths past their horizon.

        A path that reaches its horizon is parked: its clock is set to T and
        its rate to 0, so later steps last 0 and add exactly 0 dividends,
        and its claims are masked.
        """
        m, sched, T = self.m, self.sched, self.T
        waits = block[0]
        t, e, mx, tau_m, dp_m, rate_m, x, div, cost = state
        parked = 0
        for k in range(CLAIM_BLOCK):
            w = waits[k]
            left = T - t
            dur = np.minimum(w, left)
            # recovery at the frozen rate of the running maximum
            drift = m.mu - rate_m
            rec = np.minimum((mx - x) / drift, dur)
            np.maximum(rec, 0.0, out=rec)
            t_mid = t + rec
            e_mid = np.exp(-m.r * t_mid)
            div += rate_m * (e - e_mid) / m.r
            x_end = np.minimum(x + drift * rec, mx)
            t += dur
            # a path that stays off the frontier and takes its claim has
            # rec == dur, so it ends the step at t_mid; only frontier rows
            # need a new e^{-rt}
            e = e_mid
            # frontier growth for the remaining duration
            front = dur - rec
            f = (front > 0.0).nonzero()[0]
            if f.size:
                tau0 = tau_m[f]
                pos1, dp1 = sched.pos_dp(tau0 + front[f])
                div[f] += np.exp(-m.r * (t_mid[f] - tau0)) * (dp1 - dp_m[f])
                x_end[f] = mx[f] = pos1
                tau1 = sched.clock(pos1)
                tau_m[f] = tau1
                dp_m[f] = sched.pos_dp(tau1)[1]
                rate_m[f] = sched.rate_at(pos1)
                e[f] = np.exp(-m.r * t[f])
            # paths that reach the horizon take no claim; a parked path
            # meets w >= 0 == T - t on every later step, so more rows than
            # are parked means new ones to park
            hor = w >= left
            n_hor = np.count_nonzero(hor)
            if n_hor > parked:
                np.copyto(t, T, where=hor)
                np.copyto(rate_m, 0.0, where=hor)
                parked = n_hor
            z = sizes[k]
            shortfall = np.maximum(z - x_end, 0.0)
            if parked:
                np.copyto(shortfall, 0.0, where=hor)
            cost += m.ell * e * shortfall
            np.maximum(x_end - z, 0.0, out=x)
            if parked == t.size:
                break
        state[1] = e
        return t >= T


class _Constant:
    """Constant-rate strategies on the live paths of a chunk.

    The state rows t and e, each path's clock and discount factor at its
    last claim, are shared, since no rate changes them; then come x, div
    and cost per rate.
    """

    def __init__(self, m, rates, T):
        self.m, self.rates, self.T = m, rates, T
        self.n_rows = 2 + 3 * len(rates)

    @staticmethod
    def payoffs(state):
        return state[3::3] - state[4::3]

    def start(self, state, x0):
        state[1] = 1.0
        state[2::3] = max(float(x0), 0.0)
        state[4::3] = self.m.ell * max(-x0, 0.0)

    def step(self, block, sizes, state):
        """Advance the paths over one claim block, in place, and return the
        mask of the paths whose horizon fell in the block.

        The claim clocks go into the size slot of the block, which then
        holds their discount factors; from each path's horizon column on
        the factor is e^{-rT} and the claim size 0, so that column adds the
        dividend up to T and later columns add exactly 0.  A single rate
        scales the waits and interval discounts in place; several share
        one scratch pair.
        """
        m, rates, T = self.m, self.rates, self.T
        t, e = state[:2]
        w, clk = block
        np.add(t, w[0], out=clk[0])
        for k in range(1, CLAIM_BLOCK):
            np.add(clk[k - 1], w[k], out=clk[k])
        t[:] = clk[-1]
        gone = t >= T
        past = clk >= T if gone.any() else None
        np.multiply(clk, -m.r, out=clk)
        np.exp(clk, out=clk)
        n_cols = CLAIM_BLOCK
        if past is not None:
            np.copyto(clk, math.exp(-m.r * T), where=past)
            np.copyto(sizes, 0.0, where=past)
            # columns after the one where every path has passed T add 0
            ended = past.all(axis=1)
            if ended[-1]:
                n_cols = int(ended.argmax()) + 1
        # discount drops e_{k-1} - e_k of each claim interval
        drop = np.empty_like(sizes)
        np.subtract(e, clk[0], out=drop[0])
        np.subtract(clk[:-1], clk[1:], out=drop[1:])
        e[:] = clk[-1]
        # the claim loop reads ell e^{-r t_k} and (mu - c) w_k; products
        # commute bitwise, so these are the per-claim factors
        clk *= m.ell
        short = np.empty_like(t)
        gain, step = (drop, w) if len(rates) == 1 else np.empty((2,) + w.shape)
        for i, c_const in enumerate(rates):
            x, div, cost = state[2 + 3 * i : 5 + 3 * i]
            # dividends c (e_{k-1} - e_k) / r of each claim interval
            np.multiply(drop, c_const, out=gain)
            gain /= m.r
            np.multiply(w, m.mu - c_const, out=step)
            for k in range(n_cols):
                div += gain[k]
                x += step[k]
                np.subtract(sizes[k], x, out=short)
                np.maximum(short, 0.0, out=short)
                short *= clk[k]
                cost += short
                x -= sizes[k]
                np.maximum(x, 0.0, out=x)
        return gone


def _batch_payoffs(m, d, x0, n_paths, seed, T, sched=None, rates=()):
    """Payoffs per path, one row per strategy: the ratchet strategy of
    sched when given, then each constant rate, all on one claim stream.

    Each claim block is drawn once for the live paths; the ratchet reads it
    first, then the constant rates overwrite it with their claim clocks.
    Each strategy owns a band of n_rows state rows, which only its start,
    step and payoffs read; a path leaves when every strategy has passed its
    horizon.
    """
    strategies = [_Ratchet(m, sched, T)] if sched is not None else []
    if rates:
        strategies.append(_Constant(m, rates, T))
    edges = np.cumsum([0] + [s.n_rows for s in strategies]).tolist()
    bands = list(zip(strategies, edges, edges[1:]))
    rng = _batch_rng(seed)
    out = np.empty(((sched is not None) + len(rates), n_paths))
    for done in range(0, n_paths, CHUNK_PATHS):
        p = min(CHUNK_PATHS, n_paths - done)
        res = out[:, done : done + p]
        # state columns hold the live paths only; live[i] is the chunk
        # index of state column i
        live = np.arange(p)
        state = np.zeros((edges[-1], p))
        for s, lo, hi in bands:
            s.start(state[lo:hi], x0)
        blocks = _ClaimBlocks(rng, p)
        while live.size:
            block, sizes = blocks.next(d, m.lam, live)
            gone = np.ones(live.size, bool)
            for s, lo, hi in bands:
                gone &= s.step(block, sizes, state[lo:hi])
            del sizes  # freed before the next block is sampled
            if gone.any():
                ended = state[:, gone]
                res[:, live[gone]] = np.concatenate(
                    [s.payoffs(ended[lo:hi]) for s, lo, hi in bands]
                )
                keep = ~gone
                live, state = live[keep], state[:, keep]
    return out


def estimate_strategies(
    m: ModelParams,
    d: ClaimDistribution,
    x0: float,
    n_paths: int,
    seed: int,
    horizon: float | None = None,
    rate_map: RateMap | None = None,
    c0: float | None = None,
    constant_rates=(),
):
    """Batch estimates of several strategies from x0 on one claim stream:
    the ratcheting feedback strategy at (x0, c0) when rate_map is given,
    then each constant rate, in that order.  Returns the estimates and the
    (strategies, n_paths) payoffs; each strategy's payoffs are those of its
    own estimator at the same seed."""
    rates = tuple(constant_rates)
    if rate_map is None and not rates:
        raise ValidationError("no strategy: give a rate map or constant rates")
    if rate_map is not None and c0 is None:
        raise ValidationError("the ratchet strategy needs an initial rate c0")
    if not all(c <= m.c_bar for c in rates):
        raise ValidationError("constant rate must not exceed c_bar")
    if n_paths < 2:
        raise ValidationError("need at least 2 paths for a standard error")
    T = default_horizon(m.r) if horizon is None else float(horizon)
    sched = None
    if rate_map is not None:
        sched = FrontierSchedule(m, _ratchet_row(rate_map, c0), rate_map.grid)
    payoffs = _batch_payoffs(m, d, x0, n_paths, seed, T, sched, rates)
    return [_estimate(p, T, m) for p in payoffs], payoffs


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
    (est,), payoffs = estimate_strategies(
        m, d, x0, n_paths, seed, horizon, constant_rates=(c_const,)
    )
    return (est, payoffs[0]) if return_payoffs else est


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
    (est,), payoffs = estimate_strategies(m, d, x0, n_paths, seed, horizon, rate_map, c0)
    return (est, payoffs[0]) if return_payoffs else est
