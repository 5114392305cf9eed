"""Operator tests: product-integration convolution, jump operators, residual.

Closed-form convolution oracles used below (density Exp(mean 1)):
    f(x) = x    ->  int_0^x (x-y) e^{-y} dy = x - 1 + e^{-x}        (exact for
                    the scheme: the linear interpolant reproduces f)
    f(x) = x^2  ->  int_0^x (x-y)^2 e^{-y} dy = x^2 - 2x + 2 - 2e^{-x}
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divratchet import (
    Exponential,
    Grid,
    HyperExponential,
    ModelParams,
    ShiftedPareto,
    ValidationError,
    h_eval,
    scheme_residual,
)
from divratchet._sweep import backward_linear_solve, projected_backward_scan
from divratchet.discretization import get_kernel
from sweep_reference import reference_projected_sweep

M = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
ALL_DISTS = [
    Exponential(0.5),
    HyperExponential(weights=(0.4, 0.6), means=(0.5, 2.0)),
    ShiftedPareto(alpha=3.0, theta=1.0),
]


class TestGrid:
    def test_spacing(self):
        g = Grid(L=30.0, n_x=2000)
        assert g.dx == pytest.approx(0.015)
        assert g.nodes.shape == (2001,)
        assert g.nodes[-1] == pytest.approx(30.0)

    def test_rejects_small_n_x(self):
        with pytest.raises(ValidationError):
            Grid(L=10.0, n_x=32)

    def test_rejects_nonpositive_L(self):
        with pytest.raises(ValidationError):
            Grid(L=0.0, n_x=100)

    def test_node_array_length_check(self):
        g = Grid(L=10.0, n_x=100)
        with pytest.raises(ValidationError):
            scheme_residual(
                np.zeros(5), np.zeros(4), M.c_bar, M, get_kernel(Exponential(0.5), g), np.zeros(5)
            )


class TestJumpOperator:
    @pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.kind)
    def test_constant_reproduced(self, d):
        # T(K) = lam*K: mass below x plus the reflected tail mass sum to 1
        g = Grid(L=30.0, n_x=2000)
        f = np.full(g.n_x + 1, 7.0)
        t = get_kernel(d, g).jump(f, M.lam)
        assert np.max(np.abs(t - M.lam * 7.0)) < 1e-12

    def test_linear_oracle_exact(self):
        # piecewise-linear quadrature is exact on f(x) = x
        g = Grid(L=30.0, n_x=2000)
        d = Exponential(1.0)
        x = g.nodes
        t = get_kernel(d, g).jump(x.copy(), M.lam)
        assert np.max(np.abs(t - M.lam * (x - 1.0 + np.exp(-x)))) < 1e-12

    def test_quadratic_oracle_second_order(self):
        d = Exponential(1.0)
        errs = []
        for n_x in (250, 500, 1000):
            g = Grid(L=30.0, n_x=n_x)
            x = g.nodes
            # f(0) = 0, so the reflection tail adds nothing
            t = get_kernel(d, g).jump(x**2, M.lam)
            exact = M.lam * (x**2 - 2.0 * x + 2.0 - 2.0 * np.exp(-x))
            errs.append(np.max(np.abs(t - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_zero_at_origin_without_tail(self):
        g = Grid(L=30.0, n_x=500)
        f = np.cos(g.nodes)
        assert get_kernel(Exponential(0.5), g).convolve(f)[0] == 0.0

    def test_origin_with_tail_is_lam_f0(self):
        g = Grid(L=30.0, n_x=500)
        f = np.cos(g.nodes) + 2.0
        t0 = get_kernel(Exponential(0.5), g).jump(f, M.lam)[0]
        assert t0 == pytest.approx(M.lam * f[0], rel=1e-14)

    @pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.kind)
    def test_methods_agree(self, d):
        # odd and large n_x exercise the zero-padded FFT length
        for n_x in (2000, 1999, 4000):
            g = Grid(L=30.0, n_x=n_x)
            kern = get_kernel(d, g)
            f = np.sin(g.nodes / 3.0) + 2.0
            direct = kern.convolve(f, "direct")
            assert direct[0] == 0.0
            assert np.max(np.abs(direct - kern.convolve(f, "fft"))) < 1e-9
            if d.exp_components() is not None:
                assert np.max(np.abs(direct - kern.convolve(f, "recursive"))) < 1e-9

    @pytest.mark.parametrize(
        "d,path", zip(ALL_DISTS, ("recursive", "recursive", "fft")), ids=[d.kind for d in ALL_DISTS]
    )
    def test_auto_is_the_kernel_choice(self, d, path):
        g = Grid(L=30.0, n_x=1001)
        kern = get_kernel(d, g)
        f = np.cos(g.nodes / 2.0) + 1.5
        assert np.array_equal(kern.convolve(f), kern.convolve(f, path))

    @pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.kind)
    def test_prefix_is_causal(self, d):
        # S_j reads only f_0..f_j: a prefix of f convolves to the same
        # prefix of S.  300 and 260 share one FFT size, and 1 and 2 are the
        # smallest; the truncated Picard rungs rest on this
        g = Grid(L=30.0, n_x=1000)
        kern = get_kernel(d, g)
        f = np.sin(g.nodes / 3.0) + 2.0
        methods = ["direct", "fft"] + (["recursive"] if kern.has_recursion() else [])
        for method in methods:
            full = kern.convolve(f, method)
            for k in (0, 1, 2, 4, 63, 64, 300, 260, 511, 999, 1000):
                part = kern.convolve(f[: k + 1], method)
                assert part.shape == (k + 1,)
                assert np.max(np.abs(part - full[: k + 1])) < 1e-12, (method, k)

    def test_fft_transforms_one_per_size(self):
        # one cached transform per FFT size, and the whole-grid product is
        # the zero-padded FFT of all of w
        g = Grid(L=30.0, n_x=1000)
        kern = get_kernel(ShiftedPareto(3.0, 1.2), g)
        f = np.cos(g.nodes) + 1.5
        for k in range(1001):
            kern.convolve(f[: k + 1], "fft")
        assert len(kern._w_hat) == 11  # 2, 4, ..., 2048
        nfft = 2048
        full = np.fft.irfft(np.fft.rfft(f, nfft) * np.fft.rfft(kern.w, nfft), nfft)
        assert np.array_equal(kern.convolve(f, "fft"), full[:1001] - kern.b_corr * f[0])

    def test_recursive_requires_mixture(self):
        g = Grid(L=30.0, n_x=100)
        f = np.ones(101)
        with pytest.raises(ValidationError):
            get_kernel(ShiftedPareto(3.0, 1.0), g).convolve(f, "recursive")

    def test_unknown_method_rejected(self):
        g = Grid(L=30.0, n_x=100)
        with pytest.raises(ValidationError, match="unknown convolution method"):
            get_kernel(Exponential(0.5), g).convolve(np.ones(101), "magic")

    def test_bounded_by_sup(self):
        g = Grid(L=20.0, n_x=400)
        rng = np.random.default_rng(7)
        f = rng.uniform(-3, 5, g.n_x + 1)
        t = get_kernel(Exponential(0.5), g).jump(f, M.lam)
        assert np.max(np.abs(t)) <= M.lam * np.max(np.abs(f)) + 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_jump_operator_monotone(seed):
    # nonnegative weights make T order-preserving
    g = Grid(L=15.0, n_x=150)
    rng = np.random.default_rng(seed)
    base = rng.normal(size=g.n_x + 1)
    bump = rng.uniform(0, 1, size=g.n_x + 1)
    lo = get_kernel(Exponential(0.8), g).jump(base, M.lam)
    hi = get_kernel(Exponential(0.8), g).jump(base + bump, M.lam)
    assert np.all(hi >= lo - 1e-13)


class TestResidual:
    def test_constant_high_level(self):
        # f = c_bar/r kills everything except h: residual = h
        g = Grid(L=30.0, n_x=500)
        d = Exponential(0.5)
        f = np.full(g.n_x + 1, M.c_bar / M.r)
        fp = np.zeros(g.n_x + 1)
        _, res = scheme_residual(f, fp, M.c_bar, M, get_kernel(d, g), h_eval(M, d, g.nodes))
        np.testing.assert_allclose(res, h_eval(M, d, g.nodes), atol=1e-11)

    def test_constant_low_level(self):
        # f = (c_bar - lam*ell*gamma)/r gives residual h - h(0)
        g = Grid(L=30.0, n_x=500)
        d = Exponential(0.5)
        level = (M.c_bar - M.lam * M.ell * d.gamma) / M.r
        f = np.full(g.n_x + 1, level)
        fp = np.zeros(g.n_x + 1)
        _, res = scheme_residual(f, fp, M.c_bar, M, get_kernel(d, g), h_eval(M, d, g.nodes))
        expected = h_eval(M, d, g.nodes) - M.lam * M.ell * d.gamma
        np.testing.assert_allclose(res, expected, atol=1e-11)

    def test_rate_must_stay_below_mu(self):
        g = Grid(L=10.0, n_x=100)
        f = np.zeros(g.n_x + 1)
        with pytest.raises(ValidationError):
            scheme_residual(f, f, M.mu, M, get_kernel(Exponential(0.5), g), f)


class TestSweeps:
    def test_linear_solve_satisfies_recursion(self):
        rng = np.random.default_rng(3)
        alpha = rng.normal(size=777)
        qt, v_L = 0.948, 2.2
        v = backward_linear_solve(alpha, qt, v_L)
        assert v[-1] == v_L
        np.testing.assert_allclose(v[:-1], alpha + qt * v[1:], atol=1e-12)

    def test_projection_reduces_to_linear_when_slack(self):
        rng = np.random.default_rng(4)
        alpha = rng.uniform(1.0, 2.0, size=300)
        qt, v_L = 0.9, 5.0
        lin = backward_linear_solve(alpha, qt, v_L)
        psi = lin[:-1] - 1.0  # obstacle strictly below: never binds
        proj = projected_backward_scan(alpha, qt, psi, v_L)
        np.testing.assert_allclose(proj, lin, atol=1e-10)

    def test_projection_respects_obstacle_bitwise(self):
        rng = np.random.default_rng(5)
        alpha = rng.normal(size=400)
        psi = rng.normal(size=400) + 1.0
        v = projected_backward_scan(alpha, 0.93, psi, 0.0)
        assert np.all(v[:-1] >= psi)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    n=st.integers(1, 5000),
    qt=st.floats(1e-3, 0.99999),
    ties=st.booleans(),
)
def test_scan_matches_sequential_oracle(seed, n, qt, ties):
    # small qt and long n split the scan into many blocks (about 50 nodes
    # each at qt = 1e-3); ties gives the obstacle repeated values and a flat
    # run at its maximum, so runs of contact nodes share one value
    rng = np.random.default_rng(seed)
    alpha = rng.normal(size=n) * rng.uniform(0.1, 10)
    psi = rng.normal(size=n) * rng.uniform(0.1, 10)
    if ties:
        psi = np.round(psi)
        lo = int(rng.integers(0, n))
        psi[lo : lo + int(rng.integers(1, 200))] = psi.max()
    v_L = float(rng.normal())
    fast = projected_backward_scan(alpha, qt, psi, v_L)
    slow = reference_projected_sweep(alpha, qt, psi, v_L)
    scale = np.max(np.abs(slow)) + 1.0
    assert np.max(np.abs(fast - slow)) < 1e-11 * scale
    assert np.all(fast[:-1] >= psi)
    took = slow[:-1] == psi  # nodes where the oracle takes the obstacle
    assert np.array_equal(fast[:-1][took], psi[took])


@pytest.mark.parametrize("qt, n", [(0.5, 1600), (1e-3, 5000), (0.99999, 5000)])
def test_scan_blocks_stay_finite(qt, n):
    # qt^n underflows for the first two cases; the blocked suffix maximum
    # must still reproduce the sequential sweep
    rng = np.random.default_rng(11)
    alpha = rng.normal(size=n)
    psi = rng.normal(size=n)
    fast = projected_backward_scan(alpha, qt, psi, 0.25)
    slow = reference_projected_sweep(alpha, qt, psi, 0.25)
    assert np.all(np.isfinite(fast))
    assert np.max(np.abs(fast - slow)) < 1e-11 * (np.max(np.abs(slow)) + 1.0)
