"""Monte Carlo simulation of dividend strategies under the surplus model.

All dynamics between claims are deterministic (drift mu - C), so paths are
advanced event-by-event with closed-form discounted dividends per
constant-rate segment: c * (e^{-r t0} - e^{-r t1}) / r.  No time stepping,
hence no integration bias; the only errors are statistical and the finite
horizon T.  After T a path pays dividends at rate at most c_bar and
injection costs at expected rate at most ell lam E[Z] (a shortfall never
exceeds its claim), so the payoff lost by the cut, the dividends minus the
costs after T, lies within max(c_bar, ell lam E[Z]) e^{-r T} / r in
expectation.  The default T is the smallest integer at which that bound is
1e-6 of its value at T = 0.

Randomness contract: every claim event consumes two uniforms, in order
(interarrival, size); interarrivals map through -log(1-u)/lam, sizes
through the distribution's quantile function.  The estimators draw
canonical chunked matrices rng.random((P, K, 2)) from one Philox stream
seeded with SeedSequence(seed), P = CHUNK_PATHS paths and K = CLAIM_BLOCK
claims per block, so path p's k-th claim always sees the same pair
regardless of other paths' lifetimes.  The claim sizes of a block are
transformed in one sample_from_uniform call, which is elementwise, so they
equal the per-claim transforms.  Several strategies, each from several
start points, can run on one stream (estimate_strategies): path p's k-th
claim is then the same pair for every strategy and start point, so each
one's payoffs are the bits its own one-point estimator gives at that seed,
and they are all compared on common random numbers.  A block is drawn for
the paths that some strategy has not finished from some start point; one
that has finished a path adds exactly 0 to it.

The ratcheting strategy is the feedback read off a solved surface's n
switching thresholds: the dividend rate is that of the rate run the
running maximum lies in, at most n + 1 runs from any start rung, the last
(at c_bar) without a right edge.  While the surplus sits on its running
maximum ("frontier"), run changes happen at precomputed clock times; while
below it ("recovery"), the rate is frozen until the maximum is reached
again.  Both phases are exact.

One driver serves every strategy and start point.  It prepares each claim
block once, not once per claim column, strategy or start point.  A
strategy's state is stacked as (start points, n) arrays, so each per-claim
numpy call serves every start point while the block's claim columns
broadcast across them; the ratchet's start points each read their own
rate runs, stacked into one table.  A block is stored claim-major,
(2, K, n) for its n live paths, so every claim column is contiguous; its
interarrival slot is turned in place into the waits, and its sizes are
transformed for the live rows only.  The ratchet reads the block first.
It carries e^{-rt} and the frontier state of its running maximum (clock,
dividend prefix and rate).  A frontier run moves that clock on by its
duration, and one schedule lookup at the new clock gives the new maximum,
prefix and rate, all from the run the clock lies in; the clock is never
derived from the maximum again.  The ratchet parks a path at its horizon:
clock T, rate 0 and no claims, so the path's later columns add exactly 0.
The constant rates then build the claim clocks by column adds in the
freed size slot and take their discount factors with one exp, shared by
every rate; the horizon is exact by masking (from its horizon column on a
path has the factor e^{-rT} and claim size 0), so only the surplus
recursion and the two running sums remain per column.  Paths leave at
the block end once every strategy has passed their horizon from every
start point.  None of this changes the arithmetic of any path, so payoffs
are the same bits as stepping every path on every column with per-column
transforms.  Those masked loops and the single-path event-log simulators
that check this accounting live with the tests as reference
implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import ClaimDistribution, ModelParams
from .ladder import RateLadder
from .surface import frontier_runs, rung_index

#: paths per canonical draw chunk; part of the byte-stability contract
CHUNK_PATHS = 16384
#: claim columns drawn per block
CLAIM_BLOCK = 64
#: paths of a block drawn at a time
DRAW_SLAB = 256


def default_horizon(r: float) -> float:
    """Smallest integer horizon T with e^{-r T} <= 1e-6, that is
    ceil(6 ln 10 / r): there tail_bound is at most 1e-6 of
    max(c_bar, ell lam E[Z]) / r, whatever the model and claims."""
    return float(math.ceil(6.0 * math.log(10.0) / r))


def tail_bound(m: ModelParams, d: ClaimDistribution, horizon: float) -> float:
    """Bound on the expected discounted payoff beyond the horizon, either
    way: max(c_bar, ell lam E[Z]) e^{-r T} / r.  The dividends after T are
    at most c_bar e^{-r T} / r and the expected injection costs after T at
    most ell lam E[Z] e^{-r T} / r; the payoff is their difference."""
    return max(m.c_bar, m.ell * m.lam * d.gamma) * math.exp(-m.r * horizon) / m.r


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


def _estimate(
    payoffs: np.ndarray, horizon: float, m: ModelParams, d: ClaimDistribution
) -> PayoffEstimate:
    n = payoffs.size
    mean = math.fsum(payoffs) / n
    var = math.fsum(((payoffs - mean) ** 2).tolist()) / (n - 1)
    return PayoffEstimate(
        mean=mean,
        std_error=math.sqrt(var / n),
        n_paths=n,
        horizon=horizon,
        tail_bound=tail_bound(m, d, horizon),
    )


class FrontierSchedule:
    """Growth schedule of the surplus along its running maximum under the
    threshold strategy of x_star (the thresholds of rungs 1..n), from each
    start rate of c0s.

    From the rung of c0 the maximum meets the rate runs of frontier_runs,
    at most n + 1.  The frontier clock tau(x) is the time for the maximum
    to grow from 0 to x, and DP(tau) the clock-discounted dividend integral
    int_0^tau e^{-r s} rho(pos(s)) ds; both are closed forms per run.  A
    frontier run from position x over duration D then contributes
    e^{-r (t_enter - tau(x))} * (DP(tau(x) + D) - DP(tau(x))) discounted
    dividends at absolute entry time t_enter, and ends at clock
    tau(x) + D.  A caller that carries the clock thus needs one lookup per
    run, at_clock(tau(x) + D), for the new position, prefix and rate;
    clock() and rate_at() map a position to the clock and rate once, at
    the start.

    The start points' runs are stacked in one table.  A lookup takes at,
    the select() of its entries, and reads each entry's own point's runs;
    without it every entry reads the first point's.
    """

    def __init__(self, m: ModelParams, x_star, c0s):
        x_star = np.asarray(x_star, float)
        if x_star.ndim != 1 or not x_star.size or not np.all(x_star >= 0.0):
            raise ValidationError("thresholds must be a non-empty vector of surplus levels >= 0")
        rates = RateLadder(n=x_star.size, c_bar=m.c_bar, c_floor=m.c_floor).rates
        self.m = m
        self._edges, self._t_next, runs = [], [], []
        for c0 in c0s:
            left, rho = frontier_runs(rates, x_star, rung_index(rates, c0))
            drift = m.mu - rho
            t = np.concatenate(([0.0], np.cumsum(np.diff(left) / drift[:-1])))
            e = np.exp(-m.r * t)
            dp = np.concatenate(([0.0], np.cumsum(rho[:-1] * (e[:-1] - e[1:]) / m.r)))
            self._edges.append(left[1:])
            self._t_next.append(t[1:])
            runs.append(np.stack([left, t, rho, drift, dp, e]))
        # each run's left edge, entry clock, rate, drift, dividend prefix and
        # e^{-rt} at entry, one block of columns per point, so a lookup is
        # one take
        self.runs = np.concatenate(runs, axis=1)
        self._offsets = np.cumsum([0] + [r.shape[1] for r in runs[:-1]])
        self._points = np.arange(len(runs) + 1)

    def select(self, flat, width):
        """Lookup selection of entries of a (points, width) array, given by
        their ascending flat indices: the bounds of each point's entries.
        None for one point."""
        if len(self._edges) == 1:
            return None
        return flat.searchsorted(self._points * width)

    def _find(self, tables, v, at):
        """Each entry's run: the count of its point's table entries <= it,
        plus the offset of the point's block."""
        if at is None:  # the first point's block, at offset 0
            return tables[0].searchsorted(v, side="right")
        j = np.empty(v.shape, np.int64)
        for table, off, lo, hi in zip(tables, self._offsets, at[:-1], at[1:]):
            np.add(table.searchsorted(v[lo:hi], side="right"), off, out=j[lo:hi])
        return j

    def rate_at(self, x, at=None):
        """Rate while the running maximum sits at x (right-continuous)."""
        return self.runs[2].take(self._find(self._edges, x, at))

    def clock(self, x, at=None):
        x_j, t_j, _, drift_j = self.runs[:4].take(self._find(self._edges, x, at), axis=1)
        return t_j + (x - x_j) / drift_j

    def at_clock(self, tau, at=None):
        """Position, clock-discounted dividend prefix and rate at clock tau,
        all read from the one run whose entry clock is the last <= tau."""
        j = self._find(self._t_next, tau, at)
        x_j, t_j, rate, drift_j, dp_j, e_j = self.runs.take(j, axis=1)
        pos = x_j + (tau - t_j) * drift_j
        dp = dp_j + rate * (e_j - np.exp(-self.m.r * tau)) / self.m.r
        return pos, dp, rate


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


def _rows(band, k, n):
    """The k state arrays of a band of k * n rows: (n, paths) each, or
    (paths,) for n = 1."""
    return band.reshape((k, n, -1) if n > 1 else (k, -1))


def _column(values, like):
    """One value per row of like, shaped to broadcast over its paths."""
    return np.reshape(values, like.shape[:-1] + (1,))


class _Ratchet:
    """The ratcheting strategy of a frontier schedule from each of its start
    points, on the live paths of a chunk.

    Its state rows are t, e, mx, tau_m, dp_m, rate_m, x, div, cost, each a
    (points, n) array: each path's clock and e^{-rt}, its running maximum
    and the frontier state of that maximum (clock, dividend prefix and
    rate), its surplus and the two running sums.  The frontier state is
    read off the maximum at the start and carried from then on: a frontier
    run adds its duration to tau_m, and at_clock(tau_m) gives the new mx,
    dp_m and rate_m.  Row i of the schedule starts from x0s[i].
    """

    def __init__(self, m, sched, x0s, T):
        self.m, self.sched, self.x0s, self.T = m, sched, x0s, T
        self.n_rows = 9 * len(x0s)

    def payoffs(self, band):
        n = len(self.x0s)
        return band[7 * n : 8 * n] - band[8 * n :]

    def start(self, band):
        sched = self.sched
        _, e, mx, tau_m, dp_m, rate_m, x, _, cost = _rows(band, 9, len(self.x0s))
        x[:] = _column([max(float(x0), 0.0) for x0 in self.x0s], x)
        cost[:] = _column([self.m.ell * max(-x0, 0.0) for x0 in self.x0s], x)
        e[:] = 1.0
        mx[:] = x
        flat = mx.reshape(-1)
        at = sched.select(np.arange(flat.size), mx.shape[-1])
        tau = sched.clock(flat, at)
        tau_m[:] = tau.reshape(mx.shape)
        dp_m[:] = sched.at_clock(tau, at)[1].reshape(mx.shape)
        rate_m[:] = sched.rate_at(flat, at).reshape(mx.shape)

    def step(self, block, sizes, band):
        """Advance the paths over one claim block, in place, and return the
        mask of the paths past their horizon from every start point.

        A path that reaches its horizon is parked: its clock is set to T and
        its rate to 0, so later steps last 0 and add exactly 0 dividends,
        and its claims are masked.  Each claim column broadcasts across the
        start points; the frontier rows are indexed flat.
        """
        m, sched, T = self.m, self.sched, self.T
        waits = block[0]
        rows = _rows(band, 9, len(self.x0s))
        t, e, mx, _, _, rate_m, x, div, cost = rows
        width = t.shape[-1]
        # the same rows flat, for the frontier rows' flat indices
        t_f, _, mx_f, tau_f, dp_f, rate_f, _, div_f, _ = band.reshape(9, -1)
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
            f = (front > 0.0).ravel().nonzero()[0]
            if f.size:
                at = sched.select(f, width)
                tau0 = tau_f[f]
                tau1 = tau0 + front.ravel()[f]
                pos1, dp1, rate1 = sched.at_clock(tau1, at)
                div_f[f] += np.exp(-m.r * (t_mid.ravel()[f] - tau0)) * (dp1 - dp_f[f])
                x_end.ravel()[f] = mx_f[f] = pos1
                tau_f[f] = tau1
                dp_f[f] = dp1
                rate_f[f] = rate1
                e.ravel()[f] = np.exp(-m.r * t_f[f])
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
        rows[1] = e
        return (t >= T).reshape(-1, width).all(axis=0)


class _Constant:
    """Constant-rate strategies, each from its own start point, on the live
    paths of a chunk.

    The state rows t and e, each path's clock and discount factor at its
    last claim, are shared, since no rate or start changes them; then come
    the (strategies, n) arrays x, div and cost, one row per (x0, rate).
    """

    def __init__(self, m, starts, T):
        self.m, self.T = m, T
        self.x0s = [x0 for x0, _ in starts]
        self.rates = np.array([c for _, c in starts])
        self.n_rows = 2 + 3 * len(starts)

    def payoffs(self, band):
        n = len(self.x0s)
        return band[2 + n : 2 + 2 * n] - band[2 + 2 * n :]

    def start(self, band):
        x, _, cost = _rows(band[2:], 3, len(self.x0s))
        band[1] = 1.0
        x[:] = _column([max(float(x0), 0.0) for x0 in self.x0s], x)
        cost[:] = _column([self.m.ell * max(-x0, 0.0) for x0 in self.x0s], x)

    def step(self, block, sizes, band):
        """Advance the paths over one claim block, in place, and return the
        mask of the paths whose horizon fell in the block.

        The claim clocks go into the size slot of the block, which then
        holds their discount factors; from each path's horizon column on
        the factor is e^{-rT} and the claim size 0, so that column adds the
        dividend up to T and later columns add exactly 0.  Each claim
        column is scaled for all the strategies at once.
        """
        m, T = self.m, self.T
        t, e = band[:2]
        x, div, cost = _rows(band[2:], 3, len(self.x0s))
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
        short = np.empty_like(x)
        # dividends c (e_{k-1} - e_k) / r of each claim interval and the
        # surplus steps (mu - c) w_k
        rates = _column(self.rates, x)
        gain, step, drift = np.empty_like(x), np.empty_like(x), m.mu - rates
        for k in range(n_cols):
            np.multiply(drop[k], rates, out=gain)
            gain /= m.r
            np.multiply(w[k], drift, out=step)
            div += gain
            x += step
            np.subtract(sizes[k], x, out=short)
            np.maximum(short, 0.0, out=short)
            short *= clk[k]
            cost += short
            x -= sizes[k]
            np.maximum(x, 0.0, out=x)
        return gone


def _batch_payoffs(m, d, n_paths, seed, T, sched=None, x0s=(), starts=()):
    """Payoffs per path, one row per strategy and start point: the ratchet
    strategy of sched from each of x0s (schedule row i from x0s[i]), then
    the constant-rate strategy of each (x0, rate) of starts, all on one
    claim stream.

    Each claim block is drawn once for the live paths; the ratchet reads it
    first, then the constant rates overwrite it with their claim clocks.
    Each strategy owns a band of n_rows state rows, which only its start,
    step and payoffs read; a path leaves when every strategy has passed its
    horizon from every start point.
    """
    strategies = [_Ratchet(m, sched, x0s, T)] if len(x0s) else []
    if starts:
        strategies.append(_Constant(m, starts, T))
    edges = np.cumsum([0] + [s.n_rows for s in strategies]).tolist()
    bands = list(zip(strategies, edges, edges[1:]))
    rng = _batch_rng(seed)
    out = np.empty((len(x0s) + len(starts), n_paths))
    for done in range(0, n_paths, CHUNK_PATHS):
        p = min(CHUNK_PATHS, n_paths - done)
        res = out[:, done : done + p]
        # state columns hold the live paths only; live[i] is the chunk
        # index of state column i
        live = np.arange(p)
        state = np.zeros((edges[-1], p))
        for s, lo, hi in bands:
            s.start(state[lo:hi])
        blocks = _ClaimBlocks(rng, p)
        while live.size:
            block, sizes = blocks.next(d, m.lam, live)
            gone = np.ones(live.size, bool)
            for s, lo, hi in bands:
                gone &= s.step(block, sizes, state[lo:hi])
            del sizes  # freed before the next block is sampled
            if gone.any():
                ended = state.compress(gone, axis=1)
                res[:, live[gone]] = np.concatenate(
                    [s.payoffs(ended[lo:hi]) for s, lo, hi in bands]
                )
                # compress keeps the state C-ordered, so every band's rows
                # stay contiguous and its reshapes stay views
                keep = ~gone
                live, state = live[keep], state.compress(keep, axis=1)
    return out


def estimate_strategies(
    m: ModelParams,
    d: ClaimDistribution,
    n_paths: int,
    seed: int,
    horizon: float | None = None,
    thresholds=None,
    ratchets=(),
    constants=(),
):
    """Batch estimates of several strategies and start points on one claim
    stream: the ratcheting feedback strategy of thresholds (x*_1..x*_n, as
    `surface.ratchet_thresholds` gives them) from each (x0, c0) of
    ratchets, then the constant-rate strategy of each (x0, c) of
    constants, in that order.  Returns the estimates and the
    (strategies, n_paths) payoffs; each row's payoffs are those of its own
    one-point estimator at the same seed."""
    ratchets, constants = list(ratchets), list(constants)
    if not ratchets and not constants:
        raise ValidationError("no strategy: give ratchet or constant-rate start points")
    if ratchets and thresholds is None:
        raise ValidationError("the ratchet strategy needs its thresholds")
    # a non-finite start or rate gives a nan or infinite payoff
    if not all(map(math.isfinite, (v for s in ratchets + constants for v in s))):
        raise ValidationError("start points and rates must be finite")
    if not all(c <= m.c_bar for _, c in constants):
        raise ValidationError("constant rate must not exceed c_bar")
    if n_paths < 2:
        raise ValidationError("need at least 2 paths for a standard error")
    if seed < 0:  # SeedSequence takes non-negative integers only
        raise ValidationError(f"seed must be non-negative, got {seed}")
    T = default_horizon(m.r) if horizon is None else float(horizon)
    # no path ever reaches a nan or inf horizon, so the loop would not end
    if not 0 < T < math.inf:
        raise ValidationError(f"horizon must be finite and positive, got {horizon!r}")
    sched = FrontierSchedule(m, thresholds, [c0 for _, c0 in ratchets]) if ratchets else None
    payoffs = _batch_payoffs(
        m, d, n_paths, seed, T, sched, [x0 for x0, _ in ratchets], constants
    )
    return [_estimate(p, T, m, d) for p in payoffs], payoffs


def estimate_constant_payoff(
    m: ModelParams,
    d: ClaimDistribution,
    c_const: float,
    x0: float,
    n_paths: int,
    seed: int,
    horizon: float | None = None,
):
    """Batch estimate of the fixed-rate strategy value at x0, and its payoffs."""
    (est,), (payoffs,) = estimate_strategies(
        m, d, n_paths, seed, horizon, constants=[(x0, c_const)]
    )
    return est, payoffs


def estimate_ratchet_payoff(
    m: ModelParams,
    d: ClaimDistribution,
    thresholds,
    x0: float,
    c0: float,
    n_paths: int,
    seed: int,
    horizon: float | None = None,
):
    """Batch estimate of the value at (x0, c0) of the ratcheting feedback
    strategy of thresholds (x*_1..x*_n), and its per-path payoffs."""
    (est,), (payoffs,) = estimate_strategies(
        m, d, n_paths, seed, horizon, thresholds, ratchets=[(x0, c0)]
    )
    return est, payoffs
