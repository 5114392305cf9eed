"""Certificate engine tests: a clean solve passes every check, and each
deliberately corrupted surface is flagged by its targeted check."""

import dataclasses
import json

import numpy as np
import pytest

from divratchet.discretization import Grid, equation_slope, get_kernel
from divratchet import simulate as sim, verify
from divratchet.errors import RateOutOfRange, ValidationError
from divratchet.ladder import RateLadder, solve_ladder
from divratchet.model import Exponential, ModelParams, ShiftedPareto, h_eval
from divratchet.surface import ValueSurface
from divratchet.verify import (
    CheckResult,
    calibrate_eps_disc,
    mc_cross_check,
    run_invariant_suite,
)
from rate_map_reference import chained_rate_map

M2 = ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=0.0)
D2 = Exponential(gamma_mean=0.6)


@pytest.fixture(scope="module")
def solved():
    grid = Grid(L=20.0, n_x=400)
    ladder = RateLadder(c_bar=M2.c_bar, c_floor=M2.c_floor, n=32)
    return solve_ladder(M2, D2, grid, ladder)


def rebuild(surface, k, v=None, v_prime=None, mask=None):
    """Copy of the surface with rung k's arrays replaced."""
    arrays = [surface.v.copy(), surface.v_prime.copy(), surface.masks.copy()]
    for a, row in zip(arrays, (v, v_prime, mask)):
        if row is not None:
            a[k] = row
    return ValueSurface(
        surface.m, surface.grid, surface.ladder, *arrays,
        surface.iterations, surface.update_norms,
    )


class TestCheckResult:
    def test_margin_and_pass(self):
        ok = CheckResult(name="a", description="d", bound=1.0, observed=0.25)
        assert ok.passed and ok.margin == 0.75
        bad = CheckResult(name="b", description="d", bound=1.0, observed=1.5)
        assert not bad.passed and bad.margin == -0.5

    def test_boundary_case_passes_at_bound(self):
        edge = CheckResult(name="e", description="d", bound=1.0, observed=1.0)
        assert edge.passed


class TestInvariantSuite:
    def test_clean_solve_passes_every_check(self, solved):
        surface = solved
        cert = run_invariant_suite(surface, D2)
        failed = [c.name for c in cert.checks if not c.passed]
        assert cert.passed, f"failed: {failed}"
        names = {c.name for c in cert.checks}
        assert {
            "boundary_residual",
            "obstacle_order",
            "rate_slope_upper",
            "mask_up_closed",
            "complementarity",
            "boundary_inside_domain",
            "threshold_collapse",
        } <= names

    def test_json_roundtrip_and_determinism(self, solved):
        surface = solved
        a = run_invariant_suite(surface, D2).to_json()
        b = run_invariant_suite(surface, D2).to_json()
        assert a == b
        doc = json.loads(a)
        assert doc["passed"] is True
        assert all("margin" in c for c in doc["checks"])

    def test_check_lookup(self, solved):
        surface = solved
        cert = run_invariant_suite(surface, D2)
        assert cert.check("obstacle_order").passed
        with pytest.raises(KeyError):
            cert.check("no_such_check")

    def test_obstacle_violation_flagged(self, solved):
        surface = solved
        k = 10
        v = surface.v[k].copy()
        v[40:60] -= 0.05  # dip below the rung above
        cert = run_invariant_suite(rebuild(surface, k, v=v), D2)
        assert not cert.passed
        assert not cert.check("obstacle_order").passed

    def test_rate_slope_bound_violation_flagged(self, solved):
        surface = solved
        k = 10
        bump = 2.0 * (M2.ell - 1.0) / M2.r * surface.ladder.dc
        v = surface.v[k] + bump
        cert = run_invariant_suite(rebuild(surface, k, v=v), D2)
        assert not cert.passed
        assert not cert.check("rate_slope_upper").passed

    def test_mask_up_closure_violation_flagged(self, solved):
        surface = solved
        k = 20
        mask = surface.masks[k].copy()
        first = int(np.argmax(mask))
        assert mask[first:].all(), "fixture rung should have a clean contact tail"
        mask[first + 5] = False
        cert = run_invariant_suite(rebuild(surface, k, mask=mask), D2)
        assert not cert.passed
        assert not cert.check("mask_up_closed").passed

    def test_threshold_collapse_violation_flagged(self, solved):
        surface = solved
        # claim a gradient at zero of at most 1 on a high rung while lower
        # rungs keep strictly positive thresholds
        vp = surface.v_prime[1].copy()
        vp[0] = 0.9
        cert = run_invariant_suite(rebuild(surface, 1, v_prime=vp), D2)
        assert not cert.check("threshold_collapse").passed

    def test_gradient_violation_flagged(self, solved):
        surface = solved
        vp = surface.v_prime[5].copy()
        vp[100] = M2.ell + 0.5
        cert = run_invariant_suite(rebuild(surface, 5, v_prime=vp), D2)
        assert not cert.check("gradient_injection_cap").passed

    @pytest.mark.parametrize("bump", [1e-4, 1e-5])
    def test_complementarity_reads_the_values(self, solved, bump):
        # raise one free node of rung 5 and re-derive its slopes as
        # solve_rung does: the stored v' then zeroes the equation residual
        # at every free node, so only the residual of the forward difference
        # of v sees the bump (a slope change of bump/dx)
        surface, k = solved, 5
        grid, c = surface.grid, float(surface.rates[k])
        mask = surface.masks[k]
        j = int(np.argmax(mask)) // 2
        assert not mask[j]
        v = surface.v[k].copy()
        v[j] += bump
        kern, h = get_kernel(D2, grid), h_eval(M2, D2, grid.nodes)
        slope = equation_slope(kern.jump(v, M2.lam), v, c, M2, h)
        vp = np.where(mask, surface.v_prime[k - 1], slope)
        cert = run_invariant_suite(rebuild(surface, k, v=v, v_prime=vp), D2)
        assert [ch.name for ch in cert.checks if not ch.passed] == ["complementarity"]
        assert cert.check("complementarity").observed > 10 * bump

    @pytest.mark.parametrize(
        "d", [D2, ShiftedPareto(3.0, 1.2)], ids=["exponential", "shifted_pareto"]
    )
    def test_floor_rung_pinned_to_obstacle_flagged(self, solved, d):
        # the floor rung copied from the rung above is in contact everywhere,
        # where its equation is not a supersolution: only the signed defect
        # of complementarity sees it (min(|residual|, gap) reads 0 there)
        surface = solved if d is D2 else solve_ladder(M2, d, solved.grid, solved.ladder)
        k = surface.ladder.n
        mask = np.ones_like(surface.masks[k])
        floor = rebuild(surface, k, v=surface.v[k - 1], v_prime=surface.v_prime[k - 1], mask=mask)
        cert = run_invariant_suite(floor, d)
        assert [ch.name for ch in cert.checks if not ch.passed] == ["complementarity"]
        assert cert.check("complementarity").observed > 1e-3

    @pytest.mark.parametrize("frac", [0.9, 1.01], ids=["late-threshold", "no-contact"])
    def test_untrusted_threshold_fails_without_raising(self, solved, frac):
        # extract_boundary raises DomainTooSmall here; the certificate
        # reports the threshold instead (a rung without contact reads its
        # row length, (n_x + 1) dx), and the Monte Carlo check runs the
        # ratchet of those thresholds
        surface, k = solved, 5
        grid = surface.grid
        mask = surface.masks[k] & (grid.nodes >= frac * grid.L)
        bad = rebuild(surface, k, mask=mask)
        cert = run_invariant_suite(bad, D2)
        check = cert.check("boundary_inside_domain")
        assert not check.passed
        first = int(np.argmax(mask)) if mask.any() else grid.n_x + 1
        assert check.observed == first * grid.dx / grid.L
        assert check.observed == pytest.approx(min(frac, 1 + 1 / grid.n_x), abs=1e-12)
        mc = mc_cross_check(bad, D2, [(0.0, 0.0)], 200, seed=3, eps_disc=0.3)
        assert len(mc.checks) == 2

    def test_boundary_residual_violation_flagged(self, solved):
        # one cap-rung slope off by 1e-6 leaves (mu - c_bar) * 1e-6 of
        # equation residual there, far beyond the 1e-8 of DEFAULT_TOLERANCES
        surface = solved
        assert run_invariant_suite(surface, D2).check("boundary_residual").passed
        vp = surface.v_prime[0].copy()
        vp[100] += 1e-6
        cert = run_invariant_suite(rebuild(surface, 0, v_prime=vp), D2)
        assert not cert.check("boundary_residual").passed


def solve_at(n_x, n):
    return solve_ladder(
        M2, D2, Grid(L=20.0, n_x=n_x), RateLadder(c_bar=M2.c_bar, c_floor=M2.c_floor, n=n)
    )


class TestCalibration:
    def test_eps_disc_scales_with_step(self):
        surface = solve_at(200, 8)
        kappa, eps = calibrate_eps_disc(surface, D2)
        assert kappa > 0
        assert eps == pytest.approx(kappa * (surface.grid.dx + surface.ladder.dc), rel=1e-12)
        # a first-order scheme at this resolution moves by a visible but
        # small amount relative to the value scale c_bar/r = 12
        assert 1e-4 < eps < 2.0


@pytest.mark.parametrize(
    "n_x, n, solves",
    [(200, 8, 1), (100, 4, 1), (201, 8, 2), (200, 5, 2), (200, 1, 1)],
    ids=["halved", "fallback", "odd-grid", "odd-ladder", "one-rung"],
)
def test_calibration_reuses_config_surface(monkeypatch, n_x, n, solves):
    # the surface is the pair member of its own size (fine when it halves
    # evenly, coarse when the grid floor or a one-rung ladder blocks
    # halving), so only the other member is solved; an odd size is neither
    # member.  The budget equals the one from solving both members
    surface = solve_at(n_x, n)
    calls = []
    real = verify.solve_ladder

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "solve_ladder", counting)
    kappa, eps = calibrate_eps_disc(surface, D2)
    assert len(calls) == solves
    monkeypatch.undo()

    cx, cn = (n_x // 2, n // 2) if n_x >= 128 and n >= 2 else (n_x, n)
    coarse, fine = solve_at(cx, cn), solve_at(2 * cx, 2 * cn)
    diff = np.max(np.abs(coarse.v - fine.v[::2, ::2]))
    expect = 3.0 * diff / (coarse.grid.dx + coarse.ladder.dc)
    assert kappa == expect
    assert eps == expect * (surface.grid.dx + surface.ladder.dc)


class TestMcCrossCheck:
    def test_agreement_and_dominance_pass(self, solved):
        surface = solved
        cert = mc_cross_check(
            surface, D2, [(0.0, 0.0), (3.0, 0.6)], 4000, seed=7, eps_disc=0.25
        )
        failed = [c.name for c in cert.checks if not c.passed]
        assert cert.passed, f"failed: {failed}"
        names = [c.name for c in cert.checks]
        assert "mc_agreement_0" in names
        assert any(n.startswith("mc_dominance_0") for n in names)

    def test_points_share_one_stream(self, solved):
        # one pass over two points gives the checks of two one-point calls
        # at the same seed, the second re-indexed as point 1
        surface = solved
        points = [(0.0, 0.0), (3.0, 0.6)]
        both = mc_cross_check(surface, D2, points, 500, seed=3, eps_disc=0.3)
        one = [mc_cross_check(surface, D2, [pt], 500, seed=3, eps_disc=0.3) for pt in points]
        expect = one[0].checks + [
            CheckResult(
                name=c.name.replace("_0", "_1", 1),
                description=c.description,
                bound=c.bound,
                observed=c.observed,
            )
            for c in one[1].checks
        ]
        assert both.checks == expect

    def test_certificate_deterministic_for_fixed_seed(self, solved):
        surface = solved
        a = mc_cross_check(surface, D2, [(1.0, 0.3)], 500, seed=3, eps_disc=0.3)
        b = mc_cross_check(surface, D2, [(1.0, 0.3)], 500, seed=3, eps_disc=0.3)
        assert a.to_json() == b.to_json()

    def test_path_minimum_enforced(self, solved):
        surface = solved
        with pytest.raises(ValidationError):
            mc_cross_check(surface, D2, [(0.0, 0.0)], 1, seed=3, eps_disc=0.3)

    @pytest.mark.parametrize("c0", [M2.c_bar + 0.1, M2.c_floor - 0.1], ids=["above-cap", "below-floor"])
    def test_start_rate_outside_window_raises(self, solved, c0, monkeypatch):
        # on both sides of [c_floor, c_bar], before any path is stepped
        def no_loop(*args, **kwargs):
            raise AssertionError("the Monte Carlo loop was entered")

        monkeypatch.setattr(sim, "_batch_payoffs", no_loop)
        with pytest.raises(RateOutOfRange):
            mc_cross_check(solved, D2, [(0.0, 0.0), (1.0, c0)], 400, seed=5, eps_disc=0.3)


def removed_checks_fail(surface):
    """Whether the rate-map range, rate-map monotonicity or rate-slope sign
    check, which the certificate no longer runs, would fail the surface:
    each as it read the mask-chained rate map and the obstacle gaps."""
    rm, rates = chained_rate_map(surface), surface.rates
    gaps = np.diff(surface.v, axis=0)
    return (
        np.max(rates[:, None] - rm) > 0.0
        or np.max(rm - surface.m.c_bar) > 0.0
        or np.max(-np.diff(rm, axis=1)) > 0.0
        or np.max(-gaps / surface.ladder.dc) > 0.0
    )


def test_mutants_of_the_removed_checks_fail_the_certificate():
    # mask holes, random mask rows, contact sets shifted round the row and
    # rungs dipped below their obstacle: each fails mask_up_closed or
    # obstacle_order, so no mutant that a removed check would flag passes
    grid = Grid(L=20.0, n_x=200)
    surface = solve_ladder(M2, D2, grid, RateLadder(c_bar=M2.c_bar, c_floor=M2.c_floor, n=8))
    assert run_invariant_suite(surface, D2).passed and not removed_checks_fail(surface)
    rng = np.random.default_rng(5)
    n, nodes = surface.ladder.n, grid.n_x + 1

    def mutant(kind):
        k = int(rng.integers(1, n + 1))
        mask, v = surface.masks[k].copy(), surface.v[k].copy()
        first = int(np.argmax(mask))
        if kind == "hole":
            mask[rng.choice(np.arange(first + 1, nodes), size=int(rng.integers(1, 4)))] = False
        elif kind == "random":
            mask = rng.random(nodes) < rng.uniform(0.2, 0.8)
        elif kind == "shift":
            mask = np.roll(mask, int(rng.choice([-1, 1]) * rng.integers(1, 40)))
        else:
            lo = int(rng.integers(0, nodes - 10))
            hi = lo + int(rng.integers(1, 10))
            v[lo:hi] = surface.v[k - 1, lo:hi] - rng.uniform(1e-9, 1e-2)
        return rebuild(surface, k, v=v, mask=mask)

    flagged = 0
    for kind in ("hole", "random", "shift", "dip"):
        for _ in range(75):
            bad = mutant(kind)
            cert = run_invariant_suite(bad, D2)
            caught = {"mask_up_closed", "obstacle_order"} & {
                c.name for c in cert.checks if not c.passed
            }
            assert caught, kind
            flagged += removed_checks_fail(bad)
    assert flagged > 100, flagged
