"""Model-layer tests: parameter validation, claim families, tail-cost h.

Expected values tagged "frozen oracle" were produced by adaptive quadrature
(scipy.integrate.quad) applied to the raw integral definitions, independent
of the closed forms under test; tolerances cover the reported quad error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

from divratchet import (
    Exponential,
    HyperExponential,
    ModelParams,
    NoConvergence,
    ShiftedPareto,
    ValidationError,
    h_eval,
    make_distribution,
)
from divratchet import model


def reference_newton(d, target, x):
    """The hyperexponential Newton iteration from a start x below the root,
    kept verbatim from before it skipped the exp of largest-mean components
    and stepped on x in place."""
    g_max = max(d.means)
    comps = [(wk, gk, 1.0 / g_max - 1.0 / gk) for wk, gk in zip(d.weights, d.means)]
    active = np.arange(x.size)
    for _ in range(model.NEWTON_CAP):
        xa = x[active]
        s = hs = 0.0
        for wk, gk, neg_slope in comps:
            e = wk * np.exp(neg_slope * xa)
            s = s + e
            hs = hs + e / gk
        # step = (log S - target) / hazard, clipped at 0 against rounding
        step = np.maximum((np.log(s) - xa / g_max - target[active]) * s / hs, 0.0)
        xa += step
        x[active] = xa
        active = active[step > 1e-14 * (1.0 + xa)]
        if active.size == 0:
            return x
    raise NoConvergence(
        f"hyperexponential quantile: {active.size} draws unconverged "
        f"after {model.NEWTON_CAP} Newton steps",
        iterations=model.NEWTON_CAP,
    )


def top_bound_start(d, target):
    """g_max (log w_top - target), the lower bound of the root that
    S(x) >= w_top exp(-x/g_max) gives."""
    g_max = max(d.means)
    w_top = sum(wk for wk, gk in zip(d.weights, d.means) if gk == g_max)
    return np.maximum(0.0, g_max * (math.log(w_top) - target))


def top_bound_quantile(d, u):
    """The hyperexponential quantile as it stood before the tabulated
    start: Newton from the top-component bound.  The accuracy oracle of
    ``HyperExponential.sample_from_uniform``."""
    target = np.log1p(-np.clip(u, 0.0, 1.0 - 1e-16))
    return reference_newton(d, target, top_bound_start(d, target))


def reference_start(d, target):
    """The larger of the two tangents of x(E) at the table nodes around
    E = -target, shrunk by 1e-12, kept verbatim as the bitwise oracle of
    ``HyperExponential._tangent_start``."""
    w, g = np.asarray(d.weights), np.asarray(d.means)
    g_max = g.max()
    e_nodes = np.linspace(0.0, model.E_MAX, model.TABLE_NODES)
    nodes = reference_newton(
        d, -e_nodes, np.maximum(0.0, g_max * (math.log(w[g == g_max].sum()) + e_nodes))
    )
    terms = w * np.exp(nodes[:, None] * (1.0 / g_max - 1.0 / g))
    slope = terms.sum(axis=1) / (terms / g).sum(axis=1)
    inter = nodes - slope * e_nodes
    i = np.fmin(target * -((model.TABLE_NODES - 1) / model.E_MAX), model.TABLE_NODES - 2).astype(np.intp)
    lo = inter[i] - slope[i] * target
    hi = inter[i + 1] - slope[i + 1] * target
    return np.maximum(hi, lo) * (1.0 - 1e-12)


def reference_quantile(d, u):
    """Newton from the tabulated tangent start, the bitwise oracle of
    ``HyperExponential.sample_from_uniform``."""
    target = np.log1p(-np.clip(u, 0.0, 1.0 - 1e-16))
    return reference_newton(d, target, reference_start(d, target))


def tangent_start(d, target):
    """``HyperExponential._tangent_start`` on fresh work arrays."""
    x = np.empty(target.size)
    d._tangent_start(target, x, np.empty((2, target.size)), np.empty(target.size, np.intp))
    return x


#: the five mixtures of the bitwise test plus a stiff one
MIXTURES = [
    ((0.7, 0.3), (0.3, 1.3)),  # largest mean last
    ((0.3, 0.7), (1.3, 0.3)),  # largest mean first
    ((0.2, 0.5, 0.3), (1.3, 0.4, 1.3)),  # two components share it
    ((0.25, 0.25, 0.5), (2.0, 2.0, 0.5)),
    ((0.4, 0.6), (1.0, 1.0)),  # every slope 0
    ((0.9, 0.1), (0.1, 5.0)),  # stiff: means 50 apart
]
#: uniforms in the tail, up to and beyond the clip at 1 - 1e-16
TAIL_U = [1 - 1e-12, 1 - 1e-15, 1 - 1e-16, 1 - 2**-53, 0.999999, 1.0]


def p1_params():
    return ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)


class TestModelParams:
    def test_valid_construction(self):
        m = p1_params()
        assert m.mu == 2.0 and m.c_bar == 1.0

    def test_ell_must_exceed_one(self):
        with pytest.raises(ValidationError, match="ell"):
            ModelParams(mu=2.0, lam=1.0, r=0.1, ell=0.9, c_bar=1.0, c_floor=0.0)

    def test_ell_equal_one_rejected(self):
        with pytest.raises(ValidationError, match="ell"):
            ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.0, c_bar=1.0, c_floor=0.0)

    def test_c_bar_at_mu_rejected(self):
        with pytest.raises(ValidationError, match="c_bar"):
            ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=2.0, c_floor=0.0)

    def test_c_bar_nonpositive_rejected(self):
        with pytest.raises(ValidationError, match="c_bar"):
            ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=0.0, c_floor=-1.0)

    def test_c_floor_above_c_bar_rejected(self):
        with pytest.raises(ValidationError, match="c_floor"):
            ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=1.0)

    def test_negative_rate_params_rejected(self):
        for field, kwargs in [
            ("mu", dict(mu=-1.0, lam=1.0, r=0.1, ell=1.2, c_bar=0.5, c_floor=0.0)),
            ("lambda", dict(mu=2.0, lam=0.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)),
            ("r", dict(mu=2.0, lam=1.0, r=0.0, ell=1.2, c_bar=1.0, c_floor=0.0)),
        ]:
            with pytest.raises(ValidationError, match=field):
                ModelParams(**kwargs)


class TestExponential:
    def test_mean(self):
        assert Exponential(0.5).gamma == 0.5

    def test_cdf_closed_form(self):
        d = Exponential(2.0)
        x = np.array([0.0, 1.0, 5.0])
        np.testing.assert_allclose(d.cdf(x), 1.0 - np.exp(-x / 2.0), rtol=1e-14)

    def test_density_integrates_to_cdf(self):
        d = Exponential(0.7)
        val, err = quad(d.density, 0, 1.3)
        assert abs(val - d.cdf(1.3)) <= 1e-10 + 10 * err

    def test_partial_moment_oracle(self):
        d = Exponential(0.7)
        val, err = quad(lambda t: t * d.density(t), 0, 2.1)
        assert abs(val - d.partial_moment(2.1)) <= 1e-10 + 10 * err

    def test_tail_mean_closed_form(self):
        d = Exponential(0.5)
        # E[(Z-x)+] = gamma * exp(-x/gamma) for the exponential law
        np.testing.assert_allclose(d.tail_mean(1.0), 0.5 * np.exp(-2.0), rtol=1e-14)

    def test_sampling_inverse_cdf(self):
        d = Exponential(0.5)
        u = np.array([0.0, 0.5, 0.9])
        z = d.sample_from_uniform(u)
        np.testing.assert_allclose(d.cdf(z), u, atol=1e-14)

    def test_exp_components(self):
        w, g = Exponential(0.5).exp_components()
        assert w == (1.0,) and g == (0.5,)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValidationError):
            Exponential(0.0)


class TestHyperExponential:
    def make(self):
        return HyperExponential(weights=(0.5, 0.5), means=(1.0, 3.0))

    def test_cdf_frozen_oracle(self):
        # frozen oracle: quad of the mixture density over [0, 1]
        assert abs(self.make().cdf(1.0) - 0.45779462412738425) < 1e-12

    def test_partial_moment_frozen_oracle(self):
        # frozen oracle: quad of t*p(t) over [0, 2]
        assert abs(self.make().partial_moment(2.0) - 0.5134542775636008) < 1e-12

    def test_tail_mean_frozen_oracle(self):
        # frozen oracle: quad of (t-1.5)*p(t) over [1.5, inf)
        assert abs(self.make().tail_mean(1.5) - 1.0213610696431652) < 1e-9

    def test_mean_is_weighted(self):
        assert self.make().gamma == pytest.approx(2.0, rel=1e-14)

    def test_density_normalizes(self):
        d = self.make()
        val, err = quad(d.density, 0, np.inf)
        assert abs(val - 1.0) <= 1e-9 + 10 * err

    def test_sampling_inverse_cdf(self):
        d = self.make()
        u = np.linspace(0.01, 0.99, 23)
        z = d.sample_from_uniform(u)
        np.testing.assert_allclose(d.cdf(z), u, atol=1e-12)

    @pytest.mark.parametrize(
        "weights, means", [((0.7, 0.3), (0.3, 1.3)), ((0.5, 0.5), (1.0, 3.0))]
    )
    def test_sampling_tail_log_survival(self, weights, means):
        # log S(z) by logsumexp of the components, independent of the sampler
        d = HyperExponential(weights=weights, means=means)
        u = np.array([1 - 1e-12, 1 - 1e-15, 1 - 1e-16, 1.0])
        z = d.sample_from_uniform(u)
        log_s = logsumexp(np.log(weights) - z[:, None] / np.asarray(means), axis=1)
        expect = np.log1p(-np.clip(u, 0.0, 1.0 - 1e-16))
        np.testing.assert_allclose(log_s, expect, rtol=1e-12)
        assert np.all(np.diff(z) >= 0.0)

    def test_sampling_block_equals_elementwise(self):
        # the simulator transforms a whole claim block in one call
        d = HyperExponential(weights=(0.7, 0.3), means=(0.3, 1.3))
        u = np.random.default_rng(11).random((512, 64))
        u[0, :4] = [0.0, 1 - 1e-12, 1 - 1e-16, 1.0]
        z = d.sample_from_uniform(u)
        each = np.array([[d.sample_from_uniform(v) for v in row] for row in u])
        assert z.shape == u.shape
        assert np.array_equal(z, each)

    def test_sampling_sliced_block_equals_halves(self):
        # the block exceeds one SAMPLE_SLICE, and with 63 columns the slice
        # edge falls inside a row; each half fits in one slice
        d = self.make()
        u = np.random.default_rng(12).random((3 * model.SAMPLE_SLICE // 126, 63))
        half = u.shape[0] // 2
        assert u.size > model.SAMPLE_SLICE > u[:half].size
        assert model.SAMPLE_SLICE % u.shape[1] != 0
        z = d.sample_from_uniform(u)
        halves = np.concatenate([d.sample_from_uniform(u[:half]), d.sample_from_uniform(u[half:])])
        assert np.array_equal(z, halves)

    @pytest.mark.parametrize("weights, means", MIXTURES[:5])
    def test_quantile_bitwise_matches_reference(self, weights, means):
        # the work arrays, the sliced table lookup and the in-place Newton
        # leave every bit of the frozen copy; the block holds tail u up to
        # 1, where the clip acts.  The Newton from the top-component bound
        # agrees within its own stop rule
        d = HyperExponential(weights=weights, means=means)
        u = np.random.default_rng(21).random((64, 2048))
        u[0, :6] = [0.0, 0.5, 1 - 1e-12, 1 - 1e-15, 1 - 1e-16, 1.0]
        u[1, :4] = [1e-300, 1e-17, 1 - 2**-53, 0.999999]
        flat = u.ravel()
        z = d.sample_from_uniform(u).ravel()
        assert np.array_equal(z, reference_quantile(d, flat))
        head = u[:2, :8]
        assert np.array_equal(d.sample_from_uniform(head), reference_quantile(d, head.ravel()).reshape(head.shape))
        old = top_bound_quantile(d, flat)
        assert np.all(np.abs(z - old) <= 1e-14 * (1.0 + old))

    @pytest.mark.parametrize("weights, means", MIXTURES)
    def test_tangent_start_below_root(self, weights, means):
        # x(E) is convex, so a tangent never exceeds the root; the start
        # may touch it only within rounding.  The roots are solved in E
        d = HyperExponential(weights=weights, means=means)
        e = np.linspace(0.0, model.E_MAX, 100_001)
        target = np.concatenate([-e, np.log1p(-np.clip(TAIL_U, 0.0, 1.0 - 1e-16))])
        start = tangent_start(d, target)
        root = reference_newton(d, target, top_bound_start(d, target))
        assert np.all(start >= 0.0)
        assert np.all(start <= root * (1.0 + 4 * np.finfo(float).eps))
        assert np.array_equal(start, reference_start(d, target))

    @pytest.mark.parametrize("weights, means", MIXTURES)
    def test_sampling_monotone(self, weights, means):
        d = HyperExponential(weights=weights, means=means)
        u = np.sort(np.concatenate([np.random.default_rng(22).random(200_000), TAIL_U]))
        assert np.all(np.diff(d.sample_from_uniform(u)) >= 0.0)

    def test_sampling_nan_passes_through(self):
        z = self.make().sample_from_uniform(np.array([0.5, np.nan]))
        assert np.isfinite(z[0]) and np.isnan(z[1])

    def test_newton_cap_five_suffices(self, monkeypatch):
        # from the tangent start no draw of the benchmark mixture needs a
        # fifth step; from the top-component bound some need a sixth
        d = HyperExponential(weights=(0.7, 0.3), means=(0.3, 1.3))
        d.sample_from_uniform(0.5)  # the table is built under the full cap
        u = np.random.default_rng(23).random(100_000)
        monkeypatch.setattr(model, "NEWTON_CAP", 5)
        d.sample_from_uniform(u)
        with pytest.raises(NoConvergence):
            top_bound_quantile(d, u)

    def test_sampling_cap_raises(self, monkeypatch):
        d = self.make()
        d.sample_from_uniform(0.5)  # the table is built under the full cap
        monkeypatch.setattr(model, "NEWTON_CAP", 1)
        with pytest.raises(NoConvergence) as exc:
            d.sample_from_uniform(np.linspace(0.1, 0.9, 5))
        assert exc.value.iterations == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            HyperExponential(weights=(0.5, 0.4), means=(1.0, 3.0))

    def test_component_counts_must_match(self):
        with pytest.raises(ValidationError):
            HyperExponential(weights=(1.0,), means=(1.0, 3.0))


class TestShiftedPareto:
    def test_mean_closed_form(self):
        assert ShiftedPareto(alpha=3.0, theta=1.0).gamma == pytest.approx(0.5)

    def test_cdf_exact_fraction(self):
        # F(2) = 1 - (1/3)^3 = 26/27
        assert ShiftedPareto(3.0, 1.0).cdf(2.0) == pytest.approx(26.0 / 27.0, rel=1e-14)

    def test_partial_moment_frozen_oracle(self):
        # frozen oracle: quad of t*p(t) over [0, 2]
        assert abs(ShiftedPareto(3.0, 1.0).partial_moment(2.0) - 0.3703703703703703) < 1e-12

    def test_tail_mean_frozen_oracle(self):
        # frozen oracle: quad of (t-2)*p(t) over [2, inf)
        assert abs(ShiftedPareto(3.0, 1.0).tail_mean(2.0) - 0.05555555555555554) < 1e-12

    def test_density_at_zero(self):
        assert ShiftedPareto(2.0, 1.0).density(0.0) == pytest.approx(2.0, rel=1e-14)

    def test_sampling_inverse_cdf(self):
        d = ShiftedPareto(2.5, 1.5)
        u = np.linspace(0.0, 0.999, 31)
        np.testing.assert_allclose(d.cdf(d.sample_from_uniform(u)), u, atol=1e-12)

    def test_no_exp_components(self):
        assert ShiftedPareto(3.0, 1.0).exp_components() is None

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValidationError):
            ShiftedPareto(1.0, 1.0)


class TestTailCost:
    def test_h_frozen_oracle(self):
        # frozen oracle: lam*ell*quad of (t-1)*exp(-t) over [1, inf)
        m = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
        d = Exponential(1.0)
        assert abs(h_eval(m, d, 1.0) - 0.4414553294057307) < 5e-9

    def test_h_at_zero_is_lam_ell_gamma(self):
        m = p1_params()
        d = Exponential(0.5)
        assert h_eval(m, d, 0.0) == pytest.approx(m.lam * m.ell * 0.5, rel=1e-14)

    def test_h_slope_matches_tail(self):
        # h' = -lam*ell*(1 - F); check a centered difference against it
        m = p1_params()
        d = Exponential(0.5)
        x, eps = 0.8, 1e-6
        num = (h_eval(m, d, x + eps) - h_eval(m, d, x - eps)) / (2 * eps)
        assert num == pytest.approx(-m.lam * m.ell * (1 - d.cdf(x)), rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    x1=st.floats(0.0, 50.0),
    x2=st.floats(0.0, 50.0),
)
def test_cdf_monotone_exponential(x1, x2):
    d = Exponential(0.5)
    lo, hi = min(x1, x2), max(x1, x2)
    assert d.cdf(lo) <= d.cdf(hi) + 1e-15


@settings(max_examples=60, deadline=None)
@given(x1=st.floats(0.0, 50.0), x2=st.floats(0.0, 50.0))
def test_tail_mean_nonincreasing_pareto(x1, x2):
    d = ShiftedPareto(2.2, 1.3)
    lo, hi = min(x1, x2), max(x1, x2)
    assert d.tail_mean(hi) <= d.tail_mean(lo) + 1e-15


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.0, 30.0))
def test_density_nonnegative_hyper(x):
    d = HyperExponential(weights=(0.3, 0.7), means=(0.5, 2.0))
    assert d.density(x) >= 0.0


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.0, 20.0))
def test_partial_moment_plus_tail_identity(x):
    # E[Z] = PM(x) + x*(1-F(x)) + E[(Z-x)+]
    d = HyperExponential(weights=(0.4, 0.6), means=(1.0, 2.5))
    total = d.partial_moment(x) + x * (1 - d.cdf(x)) + d.tail_mean(x)
    assert total == pytest.approx(d.gamma, rel=1e-11, abs=1e-11)


class TestFactory:
    def test_exponential_kind(self):
        d = make_distribution("exponential", {"gamma": 0.5})
        assert isinstance(d, Exponential) and d.gamma == 0.5

    def test_hyperexponential_kind(self):
        d = make_distribution("hyperexponential", {"weights": [0.5, 0.5], "means": [1.0, 3.0]})
        assert isinstance(d, HyperExponential)

    def test_shifted_pareto_kind(self):
        d = make_distribution("shifted_pareto", {"alpha": 3.0, "theta": 1.0})
        assert isinstance(d, ShiftedPareto)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            make_distribution("lognormal", {})

    def test_missing_key(self):
        with pytest.raises(ValidationError):
            make_distribution("exponential", {})
