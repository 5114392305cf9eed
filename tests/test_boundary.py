"""Bottom-rung solver tests.

The Monte Carlo reference values were produced by an independent per-path
simulator of the cap-forever strategy (plain Python event loop, 40000 paths,
horizon 231) before this solver existed; they are frozen with their standard
errors.  The grid-bias allowance on top of 3 SE covers the first-order
discretization error, measured at ~0.0065 for n_x = 2000 by Richardson
extrapolation.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from divratchet import (
    Exponential,
    Grid,
    HyperExponential,
    ModelParams,
    NoConvergence,
    ShiftedPareto,
    h_eval,
)
from divratchet.boundary import boundary_residual_report, solve_g
from divratchet.discretization import ConvKernel, get_kernel, scheme_residual
from divratchet.ladder import RateLadder
from divratchet.verify import calibrate_eps_disc
from sweep_reference import reference_picard_g

M1 = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
D1 = Exponential(0.5)
G1 = Grid(L=30.0, n_x=2000)


@pytest.fixture(scope="module")
def sol_fine():
    return solve_g(M1, D1, G1, update_tol=1e-12)


class TestEnvelope:
    def test_residual(self, sol_fine):
        assert sol_fine.residual_sup <= 1e-8

    def test_value_bounds(self, sol_fine):
        g = sol_fine.g
        lower = (M1.c_bar - M1.lam * M1.ell * D1.gamma) / M1.r
        assert g.min() >= lower - 1e-9
        assert g.max() <= M1.c_bar / M1.r + 1e-9

    def test_gradient_bounds(self, sol_fine):
        gp = sol_fine.g_prime
        assert gp.min() >= -1e-9
        assert gp.max() <= M1.ell + 1e-9

    def test_concavity(self, sol_fine):
        g = sol_fine.g
        assert np.max(g[2:] - 2 * g[1:-1] + g[:-2]) <= 1e-8

    def test_dirichlet(self, sol_fine):
        g = sol_fine.g
        assert g[-1] == M1.c_bar / M1.r
        assert abs(g[-2] - M1.c_bar / M1.r) <= 1e-3

    def test_derivative_consistent_with_equation(self, sol_fine):
        # forward differences must match the derivative the equation
        # implies, to iteration error
        from divratchet import h_eval
        from divratchet.discretization import get_kernel

        g = sol_fine.g
        t = get_kernel(D1, G1).jump(g, M1.lam)
        h = h_eval(M1, D1, G1.nodes)
        implied = ((M1.r + M1.lam) * g - t + h - M1.c_bar) / (M1.mu - M1.c_bar)
        fd = np.diff(g) / G1.dx
        assert np.max(np.abs(fd - implied[:-1])) <= 1e-9


class TestAgainstSimulation:
    def test_value_at_zero(self, sol_fine):
        # frozen oracle: naive per-path MC, seed 2024031, 40000 paths
        mc, se = 9.498694182489494, 0.004218120073912909
        assert abs(sol_fine.g[0] - mc) <= 3 * se + 0.015

    def test_value_at_five(self, sol_fine):
        # frozen oracle: naive per-path MC, seed 2024032, 40000 paths
        mc, se = 9.998058683795772, 0.00026113990885941104
        j = int(round(5.0 / G1.dx))
        assert abs(sol_fine.g[j] - mc) <= 3 * se + 0.002


class TestConvergence:
    def test_first_order_in_dx(self):
        g0 = [
            solve_g(M1, D1, Grid(L=30.0, n_x=n), update_tol=1e-12).g[0]
            for n in (500, 1000, 2000)
        ]
        ratio = (g0[2] - g0[1]) / (g0[1] - g0[0])
        assert 0.3 <= ratio <= 0.7

    def test_deterministic(self):
        a = solve_g(M1, D1, Grid(L=30.0, n_x=500)).g
        b = solve_g(M1, D1, Grid(L=30.0, n_x=500)).g
        assert np.array_equal(a, b)

    def test_no_convergence_raises(self):
        # only the Picard route (densities without a recursion) iterates
        with pytest.raises(NoConvergence) as exc:
            solve_g(M1, ShiftedPareto(alpha=3.0, theta=1.0), Grid(L=30.0, n_x=500), max_iter=2)
        assert exc.value.iterations == 2
        assert exc.value.update_norm is not None


class TestExactOracle:
    """Exponential claims (mean gamma) have a closed-form g on the half-line:

        g(x) = c_bar/r - K exp(-rho x),   K = ell (1 - rho gamma) / rho,

    with rho the root in (0, 1/gamma) of
        (mu - c_bar) rho + r + lam - lam / (1 - rho gamma) = 0,
    so g'(0) = ell (1 - rho gamma).  The Dirichlet pin at L adds a term
    that is negligible on [0, L/2].
    """

    SETS = pytest.mark.parametrize(
        "m,gamma,L",
        [
            (M1, 0.5, 30.0),
            (ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=0.0), 0.6, 20.0),
        ],
        ids=["acceptance", "readme"],
    )

    @staticmethod
    def exact_g(m, gamma):
        """(closed-form g as a function of x, its slope at 0)."""

        def root_eq(rho):
            return (m.mu - m.c_bar) * rho + m.r + m.lam - m.lam / (1.0 - rho * gamma)

        rho = brentq(root_eq, 0.0, (1.0 - 1e-12) / gamma)
        slope0 = m.ell * (1.0 - rho * gamma)
        return (lambda x: m.c_bar / m.r - slope0 / rho * np.exp(-rho * x)), slope0

    @SETS
    def test_first_order_against_closed_form(self, m, gamma, L):
        exact, slope0 = self.exact_g(m, gamma)
        errs = []
        for n_x in (1000, 2000, 4000):
            grid = Grid(L=L, n_x=n_x)
            sol = solve_g(m, Exponential(gamma), grid)
            x = grid.nodes
            errs.append(float(np.max(np.abs(sol.g - exact(x))[x <= L / 2])))
            assert abs(sol.g_prime[0] - slope0) <= 0.5 * grid.dx
        assert 1.9 <= errs[0] / errs[1] <= 2.1
        assert 1.9 <= errs[1] / errs[2] <= 2.1

    @SETS
    def test_eps_disc_covers_rung0_error(self, m, gamma, L):
        # the refinement budget of verify must cover the true error of g,
        # the bottom rung of every ladder, at each size
        exact, _ = self.exact_g(m, gamma)
        d = Exponential(gamma)
        for n_x in (1000, 2000, 4000):
            grid = Grid(L=L, n_x=n_x)
            x = grid.nodes
            err = float(np.max(np.abs(solve_g(m, d, grid).g - exact(x))[x <= L / 2]))
            _, eps_disc = calibrate_eps_disc(m, d, grid, RateLadder(8, m.c_bar, m.c_floor))
            assert err <= eps_disc


class TestBandedG:
    """Exponential mixtures take g from one banded solve and a monotone
    projection, so its shape holds bitwise at every size.  Without the
    projection the acceptance set at n_x = 2000 gives g' down to -1.2e-13
    near L, and a running maximum alone gives g(L) = 10.000000000000076."""

    SETS = {
        "acceptance": (M1, 30.0, Exponential(0.5)),
        "readme": (ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=0.0),
                   20.0, Exponential(0.6)),
    }

    @pytest.mark.parametrize("n_x", [200, 500, 1000, 2000])
    @pytest.mark.parametrize("family", ["exponential", "hyperexponential"])
    @pytest.mark.parametrize("name", sorted(SETS))
    def test_shape_bitwise(self, name, family, n_x):
        m, L, d = self.SETS[name]
        if family == "hyperexponential":
            d = HyperExponential((0.7, 0.3), (0.3, 1.3))
        sol = solve_g(m, d, Grid(L=L, n_x=n_x))
        g = sol.g
        assert sol.picard_iterations == 1
        assert np.all(np.diff(g) >= 0.0)
        assert g.max() <= m.c_bar / m.r
        assert g[-1] == m.c_bar / m.r
        # measured 2.3e-14 to 3.8e-13; the Picard route stops near 1e-10
        assert sol.residual_sup <= 1e-11


class TestAgainstPlainPicard:
    """`solve_g` solves exponential mixtures in one banded solve and mixes
    the sweeps of other densities (Anderson); plain sweeps are the oracle."""

    @pytest.mark.parametrize(
        "d",
        [
            Exponential(0.6),
            HyperExponential((0.7, 0.3), (0.3, 1.3)),
            ShiftedPareto(alpha=3.0, theta=1.2),
        ],
        ids=["exponential", "hyperexponential", "shifted_pareto"],
    )
    def test_matches_plain_picard(self, d):
        m = ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=0.0)
        grid = Grid(L=20.0, n_x=400)
        sol = solve_g(m, d, grid)
        ref, plain_sweeps = reference_picard_g(m, d, grid)
        assert sol.final_update_norm <= 1e-10
        assert np.max(np.abs(sol.g - ref)) <= 1e-8
        assert sol.picard_iterations < plain_sweeps


class TestJumpOnce:
    @pytest.mark.parametrize(
        "d",
        [HyperExponential((0.7, 0.3), (0.3, 1.3)), ShiftedPareto(alpha=3.0, theta=1.2)],
        ids=["hyperexponential", "shifted_pareto"],
    )
    def test_converged_g_takes_one_jump(self, d, monkeypatch):
        # the T g of the slope at L also serves the residual; the residual
        # is bitwise the one scheme_residual computes on its own
        m = ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=0.0)
        grid = Grid(L=20.0, n_x=400)
        calls = []
        jump = ConvKernel.jump
        monkeypatch.setattr(ConvKernel, "jump", lambda self, f, lam: calls.append(1) or jump(self, f, lam))
        sol = solve_g(m, d, grid)
        sweeps = 0 if get_kernel(d, grid).has_recursion() else sol.picard_iterations
        assert len(calls) == sweeps + 1
        monkeypatch.undo()
        h = h_eval(m, d, grid.nodes)
        _, res = scheme_residual(sol.g, sol.g_prime, m.c_bar, m, get_kernel(d, grid), h)
        assert np.array_equal(sol.residual, res)


class TestOtherClaimFamilies:
    @pytest.mark.parametrize(
        "d",
        [
            HyperExponential(weights=(0.4, 0.6), means=(0.25, 0.75)),
            ShiftedPareto(alpha=3.0, theta=1.0),
        ],
        ids=["hyperexponential", "shifted_pareto"],
    )
    def test_envelope_holds(self, d):
        m = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
        grid = Grid(L=30.0, n_x=600)
        sol = solve_g(m, d, grid, update_tol=1e-11)
        g = sol.g
        assert sol.residual_sup <= 1e-8
        assert g.min() >= (m.c_bar - m.lam * m.ell * d.gamma) / m.r - 1e-9
        assert g.max() <= m.c_bar / m.r + 1e-9
        assert sol.g_prime.min() >= -1e-9
        assert sol.g_prime.max() <= m.ell + 1e-9
        # heavy tails approach the Dirichlet pin with visible curvature, so
        # the last interior node carries an O(dx^2) kink; 1e-3*dx^2 covers
        # the measured 1.3e-4*dx^2 with headroom
        assert np.max(g[2:] - 2 * g[1:-1] + g[:-2]) <= 1e-3 * grid.dx**2


class TestReport:
    def test_fields_and_shapes(self, sol_fine):
        rep = boundary_residual_report(sol_fine, M1, D1, G1)
        n = G1.n_x
        for key in ("x", "g", "g_prime", "residual"):
            assert rep[key].shape == (n + 1,)
        assert rep["residual_sup_interior"] <= 1e-8
        assert rep["lower_bound"] == 4.0
        assert rep["upper_bound"] == 10.0
        assert rep["dirichlet_gap"] <= 1e-3
