"""Simulation tests: closed-form paths, stream contracts, and agreement
with the PDE solver through an entirely different route (sample paths vs
fixed-point iteration)."""

import math
import tracemalloc

import numpy as np
import pytest

import mc_reference
from divratchet import simulate as sim
from divratchet.discretization import Grid
from divratchet.errors import ValidationError
from divratchet.ladder import RateLadder, solve_g, solve_ladder
from divratchet.model import Exponential, HyperExponential, ModelParams, ShiftedPareto
from divratchet.surface import build_rate_map, ratchet_thresholds
from mc_reference import simulate_boundary, simulate_constant, simulate_ratchet
from rate_map_reference import chained_rate_map

M1 = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
D1 = Exponential(gamma_mean=0.5)

M2 = ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=0.0)
D2 = Exponential(gamma_mean=0.6)
DH = HyperExponential(weights=(0.7, 0.3), means=(0.3, 1.3))
DP = ShiftedPareto(alpha=3.0, theta=1.2)


@pytest.fixture(scope="module")
def surface2():
    grid = Grid(L=20.0, n_x=400)
    ladder = RateLadder(c_bar=M2.c_bar, c_floor=M2.c_floor, n=32)
    return solve_ladder(M2, D2, grid, ladder)


@pytest.fixture(scope="module")
def surface_h():
    grid = Grid(L=20.0, n_x=400)
    ladder = RateLadder(c_bar=M2.c_bar, c_floor=M2.c_floor, n=32)
    return solve_ladder(M2, DH, grid, ladder)


@pytest.fixture(scope="module")
def surface_p():
    grid = Grid(L=20.0, n_x=400)
    ladder = RateLadder(c_bar=M2.c_bar, c_floor=M2.c_floor, n=16)
    return solve_ladder(M2, DP, grid, ladder)


@pytest.fixture(scope="module")
def surface_readme():
    grid = Grid(L=20.0, n_x=800)
    ladder = RateLadder(c_bar=M2.c_bar, c_floor=M2.c_floor, n=32)
    return solve_ladder(M2, D2, grid, ladder)


@pytest.fixture(scope="module")
def x_star2(surface2):
    return ratchet_thresholds(surface2)


@pytest.fixture(scope="module")
def x_star_h(surface_h):
    return ratchet_thresholds(surface_h)


@pytest.fixture(scope="module")
def x_star_p(surface_p):
    return ratchet_thresholds(surface_p)


def test_default_horizon_value():
    assert sim.default_horizon(0.1) == 139.0
    assert sim.default_horizon(1.0) == 14.0


def test_tail_bound_value():
    # M1: dividends dominate (c_bar 1.0 > ell lam E[Z] 0.6); M2: injection
    # costs dominate (2.4 > c_bar 1.2)
    assert sim.tail_bound(M1, D1, 139.0) == pytest.approx(
        10.0 * math.exp(-13.9), rel=1e-12
    )
    assert sim.tail_bound(M2, D2, 139.0) == pytest.approx(
        24.0 * math.exp(-13.9), rel=1e-12
    )


def test_tail_bound_covers_injection_costs():
    # the cap rate from x0 = 0 with net drift mu - c_bar - lam E[Z] = -1
    # keeps the surplus near 0, so after T it pays injection costs of
    # about ell * 1 = 3 per unit of time against dividends of c_bar = 1:
    # cutting it at T raises the mean by about 2 e^{-rT}/r, twice the
    # dividends after T.  The paths share their claims across horizons, so
    # the short payoffs are the long ones cut at T and the gap has a
    # paired SE.
    m = ModelParams(mu=2.0, lam=2.0, r=0.1, ell=3.0, c_bar=1.0, c_floor=0.0)
    d = Exponential(gamma_mean=1.0)
    n, T = 1000, 10.0
    short, p_short = sim.estimate_constant_payoff(m, d, m.c_bar, 0.0, n, 3, horizon=T)
    long, p_long = sim.estimate_constant_payoff(m, d, m.c_bar, 0.0, n, 3)
    assert long.horizon == sim.default_horizon(m.r)
    gap = abs(short.mean - long.mean)
    se = float(np.std(p_short - p_long, ddof=1)) / math.sqrt(n)
    dividends_only = (m.c_bar / m.r) * math.exp(-m.r * T)
    assert gap > dividends_only + 3.0 * se
    assert gap <= short.tail_bound + 3.0 * se


def test_no_claims_constant_rate_closed_form():
    # lam tiny: the first interarrival exceeds any practical horizon, so the
    # path is pure drift and dividends have an exact closed form
    m = ModelParams(mu=2.0, lam=1e-8, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
    for c, x0, T in [(1.0, 1.0, 0.8), (0.4, 0.0, 12.0), (1.0, -1.5, 3.0)]:
        rec = simulate_constant(m, D1, c, x0, seed=3, horizon=T)
        assert "claim" not in rec.kinds
        expect_div = c * -math.expm1(-m.r * T) / m.r
        assert rec.discounted_dividends == pytest.approx(expect_div, abs=1e-12)
        expect_cost = m.ell * max(-x0, 0.0)
        assert rec.discounted_injection_cost == pytest.approx(expect_cost, abs=1e-15)
        assert rec.payoff == pytest.approx(expect_div - expect_cost, abs=1e-12)


def test_single_claim_reflection_hand_computed():
    # reconstruct the documented draw order: each claim consumes
    # (interarrival u, size u); horizon set between the first two arrivals
    seed, idx = 2024, 0
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(idx,)))
    )
    u = rng.random(4)
    w1 = -math.log1p(-u[0]) / M1.lam
    z1 = float(D1.sample_from_uniform(u[1]))
    w2 = -math.log1p(-u[2]) / M1.lam
    T = w1 + 0.5 * w2
    x0 = 0.0
    c = M1.c_bar
    rec = simulate_constant(M1, D1, c, x0, seed=seed, horizon=T, path_index=idx)
    assert rec.kinds.count("horizon") == 1
    assert len([k for k in rec.kinds if k in ("claim", "injection")]) == 1
    # dividends of a fixed-rate strategy are deterministic
    div = c * -math.expm1(-M1.r * T) / M1.r
    shortfall = max(z1 - (x0 + (M1.mu - c) * w1), 0.0)
    cost = M1.ell * math.exp(-M1.r * w1) * shortfall
    assert rec.discounted_dividends == pytest.approx(div, abs=1e-12)
    assert rec.discounted_injection_cost == pytest.approx(cost, abs=1e-12)


def test_path_record_event_log_consistency():
    rec = simulate_boundary(M1, D1, 2.0, seed=17, horizon=60.0)
    assert set(rec.kinds) <= {"claim", "injection", "horizon", "start"}
    assert rec.kinds[-1] == "horizon"
    assert rec.times[-1] == 60.0
    assert np.all(np.diff(rec.times) >= 0)
    assert np.all(rec.surplus_after >= 0.0)
    inj = [i for i, k in enumerate(rec.kinds) if k == "injection"]
    assert all(rec.surplus_after[i] == 0.0 for i in inj)


def test_cumulative_injections_monotone_and_localized(x_star2):
    rec = simulate_ratchet(M2, D2, x_star2, -1.0, 0.0, seed=23)
    d = rec.cumulative_injections
    assert np.all(np.diff(d) >= 0)
    jumps = np.flatnonzero(np.diff(np.concatenate([[0.0], d])) > 0)
    assert all(rec.kinds[i] == "injection" for i in jumps)
    assert d[0] == 1.0  # time-zero injection covers the deficit exactly
    # every injection restores the surplus to zero exactly
    inj = [i for i, k in enumerate(rec.kinds) if k == "injection"]
    assert len(inj) >= 2
    assert all(rec.surplus_after[i] == 0.0 for i in inj)


def test_two_seed_estimates_statistically_consistent():
    a, _ = sim.estimate_constant_payoff(M1, D1, M1.c_bar, 1.0, 4000, seed=101)
    b, _ = sim.estimate_constant_payoff(M1, D1, M1.c_bar, 1.0, 4000, seed=202)
    joint = math.hypot(a.std_error, b.std_error)
    assert abs(a.mean - b.mean) <= 3 * joint


def test_constant_rate_above_cap_rejected():
    with pytest.raises(ValidationError):
        simulate_constant(M1, D1, M1.c_bar + 0.1, 0.0, seed=1)
    with pytest.raises(ValidationError):
        sim.estimate_constant_payoff(M1, D1, M1.c_bar + 0.1, 0.0, 100, seed=1)


def test_estimator_needs_two_paths(x_star2):
    with pytest.raises(ValidationError):
        sim.estimate_constant_payoff(M1, D1, M1.c_bar, 0.0, 1, seed=1)
    with pytest.raises(ValidationError):
        sim.estimate_ratchet_payoff(M2, D2, x_star2, 0.0, 0.0, 1, seed=1)


def test_shared_stream_needs_a_strategy(x_star2):
    with pytest.raises(ValidationError):
        sim.estimate_strategies(M2, D2, 100, seed=1)
    with pytest.raises(ValidationError):
        sim.estimate_strategies(M2, D2, 100, seed=1, ratchets=[(0.0, 0.0)])
    # thresholds that are no vector of surplus levels >= 0
    for bad in ([], x_star2[None], np.append(x_star2[1:], np.nan), np.append(x_star2[1:], -1.0)):
        with pytest.raises(ValidationError, match="thresholds"):
            sim.estimate_strategies(M2, D2, 100, 1, None, bad, [(0.0, 0.0)])


def _no_loop(*args, **kwargs):
    raise AssertionError("the Monte Carlo loop was entered")


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -5.0, 0.0])
def test_horizon_must_be_finite_and_positive(horizon, x_star2, monkeypatch):
    # no path parks or leaves under a nan or inf horizon, so the estimate
    # would never return, and a negative one gave a mean with SE 0: each
    # is a typed error before any path is stepped
    monkeypatch.setattr(sim, "_batch_payoffs", _no_loop)
    for kw in (dict(thresholds=x_star2, ratchets=[(0.0, 0.0)]), dict(constants=[(0.0, 0.6)])):
        with pytest.raises(ValidationError, match="horizon"):
            sim.estimate_strategies(M2, D2, 100, 1, horizon, **kw)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_start_points_and_rates_must_be_finite(bad, x_star2, monkeypatch):
    # a nan start gave a nan estimate; an infinite start or rate never
    # reaches its horizon in finite arithmetic
    monkeypatch.setattr(sim, "_batch_payoffs", _no_loop)
    for kw in (
        dict(thresholds=x_star2, ratchets=[(bad, 0.0)]),
        dict(thresholds=x_star2, ratchets=[(0.0, 0.0), (1.0, bad)]),
        dict(constants=[(bad, 0.6)]),
        dict(constants=[(0.0, bad)]),
    ):
        with pytest.raises(ValidationError, match="finite"):
            sim.estimate_strategies(M2, D2, 100, 1, **kw)


def test_seed_must_be_non_negative(x_star2, monkeypatch):
    # numpy's SeedSequence raised a bare ValueError from inside the loop;
    # the check comes before the ratchet's schedule is built
    monkeypatch.setattr(sim, "_batch_payoffs", _no_loop)
    monkeypatch.setattr(sim, "FrontierSchedule", _no_loop)
    for kw in (dict(thresholds=x_star2, ratchets=[(0.0, 0.0)]), dict(constants=[(0.0, 0.6)])):
        with pytest.raises(ValidationError, match="seed"):
            sim.estimate_strategies(M2, D2, 100, -1, **kw)


def test_initial_rate_outside_ladder_rejected(x_star2):
    with pytest.raises(ValidationError):
        simulate_ratchet(M2, D2, x_star2, 0.0, M2.c_bar + 0.05, seed=1)
    with pytest.raises(ValidationError):
        sim.estimate_ratchet_payoff(M2, D2, x_star2, 0.0, -0.1, 100, seed=1)


def test_deterministic_same_seed(x_star2):
    a, _ = sim.estimate_ratchet_payoff(M2, D2, x_star2, 1.0, 0.6, 500, seed=9)
    b, _ = sim.estimate_ratchet_payoff(M2, D2, x_star2, 1.0, 0.6, 500, seed=9)
    assert a.mean == b.mean and a.std_error == b.std_error
    ra = simulate_ratchet(M2, D2, x_star2, 1.0, 0.6, seed=9)
    rb = simulate_ratchet(M2, D2, x_star2, 1.0, 0.6, seed=9)
    assert ra.payoff == rb.payoff
    assert np.array_equal(ra.times, rb.times)


def test_distinct_paths_distinct_streams():
    a = simulate_boundary(M1, D1, 0.0, seed=9, path_index=0)
    b = simulate_boundary(M1, D1, 0.0, seed=9, path_index=1)
    assert a.payoff != b.payoff


def test_payoff_never_exceeds_perpetuity_bound():
    cap = M1.c_bar / M1.r
    for i in range(20):
        rec = simulate_boundary(M1, D1, 3.0, seed=100, path_index=i)
        assert rec.payoff <= cap + 1e-9


def test_injection_shift_identity_single_paths(x_star2):
    r0 = simulate_ratchet(M2, D2, x_star2, 0.0, 0.0, seed=5)
    ra = simulate_ratchet(M2, D2, x_star2, -2.0, 0.0, seed=5)
    assert abs(ra.payoff - (r0.payoff - M2.ell * 2.0)) <= 1e-12
    c0 = simulate_constant(M1, D1, 1.0, 0.0, seed=5)
    ca = simulate_constant(M1, D1, 1.0, -3.0, seed=5)
    assert abs(ca.payoff - (c0.payoff - M1.ell * 3.0)) <= 1e-12


def test_injection_shift_identity_batch(x_star2):
    _, p0 = sim.estimate_ratchet_payoff(
        M2, D2, x_star2, 0.0, 0.4, 300, seed=21
    )
    _, pa = sim.estimate_ratchet_payoff(
        M2, D2, x_star2, -1.5, 0.4, 300, seed=21
    )
    assert np.max(np.abs(pa - (p0 - M2.ell * 1.5))) <= 1e-12


def test_cap_start_reproduces_fixed_rate_strategy(x_star2):
    # c0 = c_bar pins the whole rate table at the cap; the ratchet machinery
    # must then agree pathwise with the plain fixed-rate simulator
    _, pb = sim.estimate_constant_payoff(
        M2, D2, M2.c_bar, 1.0, 800, seed=11
    )
    _, pr = sim.estimate_ratchet_payoff(
        M2, D2, x_star2, 1.0, M2.c_bar, 800, seed=11
    )
    assert np.max(np.abs(pb - pr)) <= 1e-9


def test_flat_rate_table_matches_constant_simulator():
    # a ratchet that never switches from 0.6 exercises recovery and
    # frontier phases against the independent fixed-rate implementation,
    # claims included: its thresholds exceed the drift bound x0 + mu*T
    x_star = np.full(4, 200.0)  # rates 1.2, 0.9, 0.6, 0.3, 0
    for i in range(4):
        a = simulate_ratchet(
            M2, D2, x_star, 1.0, 0.6, seed=31, horizon=80.0, path_index=i
        )
        b = simulate_constant(
            M2, D2, 0.6, 1.0, seed=31, horizon=80.0, path_index=i
        )
        assert abs(a.payoff - b.payoff) <= 1e-9


def test_start_beyond_domain_pays_cap(x_star2):
    _, pb = sim.estimate_constant_payoff(
        M2, D2, M2.c_bar, 25.0, 200, seed=13
    )
    _, pr = sim.estimate_ratchet_payoff(
        M2, D2, x_star2, 25.0, 0.3, 200, seed=13
    )
    assert np.max(np.abs(pb - pr)) <= 1e-9


def test_single_path_matches_batch_on_shared_stream(x_star2, monkeypatch):
    # same draws, two independent accounting implementations (event loop
    # with node snapping vs vectorized schedule evaluation)
    monkeypatch.setattr(mc_reference, "_path_rng", lambda seed, idx: sim._batch_rng(seed))
    sched = sim.FrontierSchedule(M2, x_star2, [0.0])
    T = sim.default_horizon(M2.r)
    for s in range(1, 6):
        single = simulate_ratchet(M2, D2, x_star2, 0.0, 0.0, seed=s)
        batch = sim._batch_payoffs(M2, D2, 1, s, T, sched, (0.0,))[0]
        assert abs(single.payoff - batch[0]) <= 1e-11


def test_single_path_matches_batch_on_shared_stream_hyperexp(x_star_h, monkeypatch):
    # as above with hyperexponential claims: the batch engine transforms a
    # whole claim block at once, the single path one size per claim
    monkeypatch.setattr(mc_reference, "_path_rng", lambda seed, idx: sim._batch_rng(seed))
    sched = sim.FrontierSchedule(M2, x_star_h, [0.0])
    T = sim.default_horizon(M2.r)
    for s in range(1, 6):
        single = simulate_ratchet(M2, DH, x_star_h, 0.0, 0.0, seed=s)
        batch = sim._batch_payoffs(M2, DH, 1, s, T, sched, (0.0,))[0]
        assert abs(single.payoff - batch[0]) <= 1e-11


@pytest.mark.parametrize("horizon", [5.0, None], ids=["short", "default"])
@pytest.mark.parametrize(
    "claims, thresholds",
    [(D2, "x_star2"), (DH, "x_star_h"), (DP, "x_star_p")],
    ids=["exponential", "hyperexponential", "shifted_pareto"],
)
def test_batch_ratchet_bitwise_matches_reference(claims, thresholds, horizon, request, monkeypatch):
    # the live-path engine with carried frontier state against the masked
    # loop that steps every path on every column: same bits, over partial
    # and multiple chunks, starts below zero and beyond L, and a horizon
    # that every path reaches within the first claim block; the integer
    # start must not make the carried running maximum an integer array
    monkeypatch.setattr(sim, "CHUNK_PATHS", 300)
    x_star = request.getfixturevalue(thresholds)
    T = sim.default_horizon(M2.r) if horizon is None else horizon
    for x0 in (-1.0, 0, 3.0, 25.0):
        for c0 in (0.0, 0.5):
            sched = sim.FrontierSchedule(M2, x_star, [c0])
            new = sim._batch_payoffs(M2, claims, 1000, 7, T, sched, (x0,))[0]
            ref = mc_reference.reference_batch_ratchet(M2, claims, sched, x0, 1000, 7, T)
            assert np.array_equal(new, ref), (x0, c0)


@pytest.mark.parametrize("horizon", [5.0, None], ids=["short", "default"])
@pytest.mark.parametrize(
    "claims", [D2, DH, DP], ids=["exponential", "hyperexponential", "shifted_pareto"]
)
def test_batch_constant_bitwise_matches_reference(claims, horizon, monkeypatch):
    # the block-prepared engine (claim-major blocks, horizon by masking,
    # compaction at block ends) against the masked loop that steps every
    # path on every column: same bits over partial and multiple chunks,
    # starts below zero and beyond L, and a horizon inside the first block
    monkeypatch.setattr(sim, "CHUNK_PATHS", 300)
    T = sim.default_horizon(M2.r) if horizon is None else horizon
    for x0 in (-1.0, 0.0, 3.0, 25.0):
        for c in (0.0, 0.6, M2.c_bar):
            new = sim._batch_payoffs(M2, claims, 1000, 7, T, starts=((x0, c),))[0]
            ref = mc_reference.reference_batch_constant(M2, claims, c, x0, 1000, 7, T)
            assert np.array_equal(new, ref), (x0, c)


@pytest.mark.parametrize("horizon", [5.0, None], ids=["short", "default"])
@pytest.mark.parametrize(
    "claims, thresholds",
    [(D2, "x_star2"), (DH, "x_star_h"), (DP, "x_star_p")],
    ids=["exponential", "hyperexponential", "shifted_pareto"],
)
def test_shared_stream_matches_standalone_estimators(claims, thresholds, horizon, request, monkeypatch):
    # the ratchet strategy and three constant rates on one claim stream:
    # each keeps the payoff bits and estimate of its own estimator at the
    # same seed, over partial and multiple chunks and an integer start
    monkeypatch.setattr(sim, "CHUNK_PATHS", 300)
    x_star = request.getfixturevalue(thresholds)
    rates = (0.0, 0.6, M2.c_bar)
    for x0, c0 in ((-1.0, 0.0), (0, 0.5), (3.0, 0.0), (25.0, 0.5)):
        ests, pays = sim.estimate_strategies(
            M2, claims, 1000, 7, horizon, x_star, [(x0, c0)], [(x0, c) for c in rates]
        )
        alone = [sim.estimate_ratchet_payoff(M2, claims, x_star, x0, c0, 1000, 7, horizon)]
        for c in rates:
            alone.append(sim.estimate_constant_payoff(M2, claims, c, x0, 1000, 7, horizon))
        assert len(ests) == pays.shape[0] == len(alone)
        for est, p, (est1, p1) in zip(ests, pays, alone):
            assert np.array_equal(p, p1), (x0, c0)
            assert est == est1


@pytest.mark.parametrize("horizon", [5.0, None], ids=["short", "default"])
@pytest.mark.parametrize(
    "claims, thresholds",
    [(D2, "x_star2"), (DH, "x_star_h"), (DP, "x_star_p")],
    ids=["exponential", "hyperexponential", "shifted_pareto"],
)
def test_several_start_points_match_one_point_estimators(
    claims, thresholds, horizon, request, monkeypatch
):
    # one pass over several start points: ratchet rows from below zero, the
    # integer 0 and beyond L, at the cap, at 0 and between rungs, and
    # constant rows from their own starts; every row keeps the payoff bits
    # and estimate of its own one-point estimator at the same seed, over
    # partial and multiple chunks
    monkeypatch.setattr(sim, "CHUNK_PATHS", 300)
    x_star = request.getfixturevalue(thresholds)
    between = 0.5
    assert not np.any(np.linspace(M2.c_bar, M2.c_floor, x_star.size + 1) == between)
    ratchets = [(-1.0, 0.0), (0, M2.c_bar), (25.0, between), (3.0, between)]
    constants = [(-1.0, 0.6), (0, M2.c_bar), (3.0, 0.0), (25.0, 0.6)]
    ests, pays = sim.estimate_strategies(M2, claims, 1000, 7, horizon, x_star, ratchets, constants)
    alone = [
        sim.estimate_ratchet_payoff(M2, claims, x_star, x0, c0, 1000, 7, horizon)
        for x0, c0 in ratchets
    ] + [
        sim.estimate_constant_payoff(M2, claims, c, x0, 1000, 7, horizon)
        for x0, c in constants
    ]
    assert len(ests) == pays.shape[0] == len(alone)
    for row, (est, p, (est1, p1)) in enumerate(zip(ests, pays, alone)):
        assert np.array_equal(p, p1), row
        assert est == est1, row


@pytest.mark.parametrize(
    "path, k, ulps, ratchet_first, misses",
    [
        (0, 63, 0, False, False),
        (5, 63, 0, None, False),
        (109, 1, 1, True, False),
        (6, 1, 0, False, False),
        (279, 1, 1, True, True),
    ],
    ids=["block-edge-clock-first", "block-edge", "ratchet-first", "clock-first", "clock-misses-T"],
)
def test_shared_stream_horizon_at_a_claim(path, k, ulps, ratchet_first, misses, x_star2, monkeypatch):
    # the horizon is the clock of one path's claim k (claim 63 ends the
    # first block), moved up by some ulps.  The ratchet's horizon test
    # w_k >= T - t_(k-1) and the clock test t_(k-1) + w_k >= T round
    # differently: with ratchet_first the ratchet parks the path while the
    # constant rates still step it, and the other way round with False;
    # both strategies must keep the bits of the masked reference loops.
    # With misses, the ratchet's clock after its horizon step,
    # t_(k-1) + (T - t_(k-1)), is not T, and its e^{-rt} is not e^{-rT}:
    # only parking the clock at T and the rate at 0 keeps the later steps
    # of that path at exactly 0.  A pass from both start points at once,
    # each with its own frontier schedule, keeps the same bits
    monkeypatch.setattr(sim, "CHUNK_PATHS", 300)
    u = sim._batch_rng(7).random((300, sim.CLAIM_BLOCK, 2))
    w = -np.log1p(-u[path, : k + 1, 0]) / M2.lam
    t = 0.0
    for wk in w[:-1]:
        t = t + wk
    T = t + w[-1]
    for _ in range(ulps):
        T = np.nextafter(T, np.inf)
    if ratchet_first is not None:
        assert (w[-1] >= T - t, t + w[-1] >= T) == (ratchet_first, not ratchet_first)
    assert (np.exp(-M2.r * (t + (T - t))) != np.exp(-M2.r * T)) == misses
    sched = sim.FrontierSchedule(M2, x_star2, [0.0])
    refs = {}
    for x0 in (0.0, 3.0):
        ref = [mc_reference.reference_batch_ratchet(M2, D2, sched, x0, 600, 7, T)]
        for c in (0.6, M2.c_bar):
            ref.append(mc_reference.reference_batch_constant(M2, D2, c, x0, 600, 7, T))
        pays = sim._batch_payoffs(M2, D2, 600, 7, T, sched, (x0,), ((x0, 0.6), (x0, M2.c_bar)))
        for p, r in zip(pays, ref):
            assert np.array_equal(p, r), x0
        assert np.array_equal(sim._batch_payoffs(M2, D2, 600, 7, T, sched, (x0,))[0], ref[0]), x0
        refs[x0] = ref
    sched1 = sim.FrontierSchedule(M2, x_star2, [0.5])
    ref = [
        refs[0.0][0],
        mc_reference.reference_batch_ratchet(M2, D2, sched1, 3.0, 600, 7, T),
        refs[0.0][1],
        refs[3.0][2],
    ]
    stacked = sim.FrontierSchedule(M2, x_star2, [0.0, 0.5])
    pays = sim._batch_payoffs(
        M2, D2, 600, 7, T, stacked, (0.0, 3.0), ((0.0, 0.6), (3.0, M2.c_bar))
    )
    for row, (p, r) in enumerate(zip(pays, ref)):
        assert np.array_equal(p, r), row
    if misses:
        # the parked state itself, on the path's first block alone: its
        # clock is exactly T, its rate 0, and it has passed its horizon
        block = np.empty((2, sim.CLAIM_BLOCK, 1))
        block[0, :, 0] = -np.log1p(-u[path, :, 0]) / M2.lam
        sizes = D2.sample_from_uniform(u[path, :, 1:])
        ratchet = sim._Ratchet(M2, sched, (0.0,), T)
        state = np.zeros((ratchet.n_rows, 1))
        ratchet.start(state)
        assert ratchet.step(block, sizes, state)[0]
        assert state[0, 0] == T and state[5, 0] == 0.0


@pytest.mark.parametrize(
    "claims, thresholds",
    [(D2, "x_star2"), (DH, "x_star_h"), (DP, "x_star_p")],
    ids=["exponential", "hyperexponential", "shifted_pareto"],
)
def test_carried_frontier_state_tracks_running_maximum(claims, thresholds, request, monkeypatch):
    # the ratchet carries its frontier clock, moved on by each frontier run,
    # and reads the running maximum and its rate off that clock instead of
    # reading the clock off the maximum.  After every claim column
    # (one-column blocks), on every unparked row of a pass from four start
    # points whose frontier has moved since the start, mx and the rate are
    # exactly what at_clock gives for the carried clock, read from the row's
    # own point's schedule alone
    monkeypatch.setattr(sim, "CLAIM_BLOCK", 1)
    x_star = request.getfixturevalue(thresholds)
    x0s = (-1.0, 0.0, 3.0, 25.0)
    c0s = (0.0, 0.0, 0.5, M2.c_bar)
    T = sim.default_horizon(M2.r)
    ratchet = sim._Ratchet(M2, sim.FrontierSchedule(M2, x_star, c0s), x0s, T)
    alone = [sim.FrontierSchedule(M2, x_star, [c0]) for c0 in c0s]
    blocks = sim._ClaimBlocks(sim._batch_rng(7), 500)
    live = np.arange(500)
    state = np.zeros((ratchet.n_rows, live.size))
    ratchet.start(state)
    tau_start = sim._rows(state, 9, len(x0s))[3].copy()
    checked = 0
    while live.size:
        block, sizes = blocks.next(claims, M2.lam, live)
        gone = ratchet.step(block, sizes, state)
        t, _, mx, tau, _, rate = sim._rows(state, 9, len(x0s))[:6]
        moved = (tau != tau_start) & (t < T)
        for sched, on, mx_i, tau_i, rate_i in zip(alone, moved, mx, tau, rate):
            pos, _, rate1 = sched.at_clock(tau_i[on])
            assert np.array_equal(mx_i[on], pos)
            assert np.array_equal(rate_i[on], rate1)
            checked += np.count_nonzero(on)
        live, state = live[~gone], state.compress(~gone, axis=1)
        tau_start = tau_start[:, ~gone]
    assert checked > 10**5


@pytest.mark.parametrize(
    "surface", ["surface2", "surface_h", "surface_p", "surface_readme"],
    ids=["exponential", "hyperexponential", "shifted_pareto", "readme"],
)
def test_threshold_rule_is_the_rate_map(surface, request):
    # the strategy built from the thresholds alone pays, from every start
    # rung and at every node, the rate the mask-chained rate map gives, and
    # so does the rate-map table; beyond L (x0 = 25) it pays the cap
    s = request.getfixturevalue(surface)
    rm = chained_rate_map(s)
    assert np.array_equal(build_rate_map(s).view(np.int64), rm.view(np.int64))
    rungs, nodes = rm.shape
    sched = sim.FrontierSchedule(M2, ratchet_thresholds(s), s.rates)
    x = np.tile(s.grid.nodes, rungs)
    got = sched.rate_at(x, sched.select(np.arange(x.size), nodes)).reshape(rungs, nodes)
    assert np.array_equal(got.view(np.int64), rm.view(np.int64))
    beyond = sched.rate_at(np.full(rungs, 25.0), sched.select(np.arange(rungs), 1))
    assert np.all(beyond == M2.c_bar)


def test_integer_start_matches_float_start():
    # an integer x0 must not make the surplus an integer array
    for x0 in (-1, 0, 3):
        for est in (
            lambda x: sim.estimate_constant_payoff(
                M2, D2, 0.6, x, 300, seed=4, horizon=20.0
            ),
            lambda x: sim.estimate_constant_payoff(
                M2, D2, M2.c_bar, x, 300, seed=4, horizon=20.0
            ),
        ):
            assert np.array_equal(est(x0)[1], est(float(x0))[1]), x0


@pytest.mark.parametrize(
    "engine, claims, bound_mib",
    [
        ("constant", D2, 41.1),
        ("constant", DH, 46.1),
        ("ratchet", D2, 42.7),
        ("two-point", D2, 42.7),
    ],
    ids=[
        "constant-exponential",
        "constant-hyperexponential",
        "ratchet-exponential",
        "two-point-exponential",
    ],
)
def test_full_chunk_peak_memory(engine, claims, bound_mib, x_star2):
    # tracemalloc peak of one estimate over a full 16,384-path chunk and
    # two claim blocks.  The one-point bounds are the peaks of the
    # per-column engines, which held the last block while drawing the next;
    # preparing a block at once must not cost more than that.  One pass of
    # a ratchet and a constant rate from each of two start points holds one
    # claim block, as a one-point estimate does, so it takes the larger
    # one-point bound: only its per-path state grows with the points
    n = sim.CHUNK_PATHS
    tracemalloc.start()
    try:
        if engine == "constant":
            sim.estimate_constant_payoff(M2, claims, 0.6, 0.0, n, seed=1, horizon=40.0)
        elif engine == "ratchet":
            sim.estimate_ratchet_payoff(M2, claims, x_star2, 0.0, 0.0, n, seed=1, horizon=40.0)
        else:
            sim.estimate_strategies(
                M2, claims, n, 1, 40.0, x_star2,
                [(0.0, 0.0), (2.0, 0.6)], [(0.0, 0.6), (2.0, M2.c_bar)],
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20, peak / 2**20


def test_ratchet_rate_never_decreases_along_path(x_star2):
    rec = simulate_ratchet(M2, D2, x_star2, 0.0, 0.0, seed=5)
    rates = rec.rate_after
    assert np.all(np.diff(rates) >= -1e-15)
    assert rates[0] >= 0.0
    assert rates[-1] <= M2.c_bar + 1e-15


def test_deterministic_growth_matches_hand_integration():
    # no claims: the surplus climbs a known step-rate profile; dividends are
    # hand-integrated segment by segment and double-checked by Riemann sum
    m = ModelParams(mu=2.0, lam=1e-8, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
    # rates 1, 0.95, ..., 0: from 0.2 (rung 16) the thresholds of rungs
    # 16, 9 and 2 give 0.2 below 1.0, 0.55 below 2.2, 0.9 below 3.1 and
    # the cap above; the other rungs' thresholds lie behind
    x_star = np.zeros(20)
    x_star[[15, 8, 1]] = 1.0, 2.2, 3.1
    T = 40.0
    x0 = 0.3
    rec = simulate_ratchet(m, D1, x_star, x0, 0.2, seed=3, horizon=T)
    assert "claim" not in rec.kinds and "injection" not in rec.kinds

    t1 = (1.0 - x0) / (m.mu - 0.2)
    t2 = t1 + (2.2 - 1.0) / (m.mu - 0.55)
    t3 = t2 + (3.1 - 2.2) / (m.mu - 0.9)
    segs = [(0.2, 0.0, t1), (0.55, t1, t2), (0.9, t2, t3), (1.0, t3, T)]
    hand = sum(
        c * (math.exp(-m.r * a) - math.exp(-m.r * b)) / m.r for c, a, b in segs
    )
    # crude Riemann check that the hand integration itself is right
    tt = np.arange(0.0, T, 1e-4)
    pos = np.empty_like(tt)
    cur, tprev = x0, 0.0
    rate_of = lambda y: 0.2 if y < 1.0 else 0.55 if y < 2.2 else 0.9 if y < 3.1 else 1.0
    for i, t in enumerate(tt):
        cur += (m.mu - rate_of(cur)) * (t - tprev)
        pos[i] = cur
        tprev = t
    riemann = float(
        np.sum(np.exp(-m.r * tt) * np.vectorize(rate_of)(pos)) * 1e-4
    )
    assert hand == pytest.approx(riemann, abs=5e-4)
    assert rec.payoff == pytest.approx(hand, abs=1e-10)

    # batch accounting reproduces the same deterministic value
    est, pays = sim.estimate_ratchet_payoff(
        m, D1, x_star, x0, 0.2, 8, seed=3, horizon=T
    )
    assert np.max(np.abs(pays - hand)) <= 1e-10
    assert est.std_error <= 1e-12


def test_boundary_estimate_matches_pde_solution():
    grid = Grid(L=30.0, n_x=2000)
    sol = solve_g(M1, D1, grid)
    est, _ = sim.estimate_constant_payoff(M1, D1, M1.c_bar, 0.0, 20000, seed=42)
    # grid bias at this resolution is about 0.007; allow that plus noise
    assert abs(est.mean - sol.v[0]) <= 3 * est.std_error + 0.02
    j5 = round(5.0 / grid.dx)
    est5, _ = sim.estimate_constant_payoff(M1, D1, M1.c_bar, 5.0, 20000, seed=43)
    assert abs(est5.mean - sol.v[j5]) <= 3 * est5.std_error + 0.01


def test_ratchet_estimate_matches_surface(surface2, x_star2):
    # dual route: fixed-point PDE value vs sample paths of the feedback
    # strategy; coarse grid, so allow a first-order discretization margin
    for x0, c0, seed in [(0.0, 0.0, 99), (3.0, 0.6, 100)]:
        est, _ = sim.estimate_ratchet_payoff(
            M2, D2, x_star2, x0, c0, 8000, seed=seed
        )
        v = surface2.value_at(x0, c0)
        assert abs(est.mean - v) <= 3 * est.std_error + 0.2


def test_constant_strategies_never_beat_surface(surface2, x_star2):
    # any fixed rate in [c0, cap] is one admissible strategy, so its value
    # sits below the optimal surface up to noise and discretization error
    v = surface2.value_at(1.0, 0.0)
    for c in [0.3, 0.75, 1.2]:
        est, _ = sim.estimate_constant_payoff(M2, D2, c, 1.0, 4000, seed=55)
        assert est.mean <= v + 3 * est.std_error + 0.2
