"""Tests of rung 0, the cap-rate value g (`ladder.solve_g`).

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
from divratchet import ladder, verify
from divratchet._sweep import anderson_fixed_point, backward_linear_solve, bordered_banded_solve
from divratchet.discretization import ConvKernel, get_kernel, scheme_residual
from divratchet.ladder import RateLadder, solve_g, solve_ladder
from divratchet.surface import DEFAULT_TOLERANCES, cap_slope
from divratchet.verify import calibrate_eps_disc, run_invariant_suite
from sweep_reference import reference_picard_g

M1 = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
D1 = Exponential(0.5)
G1 = Grid(L=30.0, n_x=2000)
H1 = HyperExponential((0.7, 0.3), (0.3, 1.3))
P1 = ShiftedPareto(alpha=3.0, theta=1.0)


@pytest.fixture(scope="module")
def sol_fine():
    return solve_g(M1, D1, G1)


def residual_sup(sol, m, d, grid):
    """Sup of g's scheme residual over the interior nodes, with its forward
    difference."""
    h = h_eval(m, d, grid.nodes)
    _, res = scheme_residual(sol.v, np.diff(sol.v) / grid.dx, m.c_bar, m, get_kernel(d, grid), h)
    return float(np.max(np.abs(res)))


def g_slope(sol, m, d, grid):
    """g' on every node, as the surface reads row 0 (`cap_slope`)."""
    return cap_slope(sol.v, m, get_kernel(d, grid), h_eval(m, d, grid.nodes))[0]


class TestEnvelope:
    def test_residual(self, sol_fine):
        assert residual_sup(sol_fine, M1, D1, G1) <= 1e-8

    def test_value_bounds(self, sol_fine):
        g = sol_fine.v
        lower = (M1.c_bar - M1.lam * M1.ell * D1.gamma) / M1.r
        assert g.min() >= lower - 1e-9
        assert g.max() <= M1.c_bar / M1.r + 1e-9

    def test_gradient_bounds(self, sol_fine):
        gp = g_slope(sol_fine, M1, D1, G1)
        assert gp.min() >= -1e-9
        assert gp.max() <= M1.ell + 1e-9

    def test_concavity(self, sol_fine):
        g = sol_fine.v
        assert np.max(g[2:] - 2 * g[1:-1] + g[:-2]) <= 1e-8

    def test_dirichlet(self, sol_fine):
        g = sol_fine.v
        assert g[-1] == M1.c_bar / M1.r
        assert abs(g[-2] - M1.c_bar / M1.r) <= 1e-3

    def test_derivative_consistent_with_equation(self, sol_fine):
        # forward differences must match the derivative the equation
        # implies, to iteration error
        from divratchet import h_eval
        from divratchet.discretization import get_kernel

        g = sol_fine.v
        t = get_kernel(D1, G1).jump(g, M1.lam)
        h = h_eval(M1, D1, G1.nodes)
        implied = ((M1.r + M1.lam) * g - t + h - M1.c_bar) / (M1.mu - M1.c_bar)
        fd = np.diff(g) / G1.dx
        assert np.max(np.abs(fd - implied[:-1])) <= 1e-9


class TestAgainstSimulation:
    def test_value_at_zero(self, sol_fine):
        # frozen oracle: naive per-path MC, seed 2024031, 40000 paths
        mc, se = 9.498694182489494, 0.004218120073912909
        assert abs(sol_fine.v[0] - mc) <= 3 * se + 0.015

    def test_value_at_five(self, sol_fine):
        # frozen oracle: naive per-path MC, seed 2024032, 40000 paths
        mc, se = 9.998058683795772, 0.00026113990885941104
        j = int(round(5.0 / G1.dx))
        assert abs(sol_fine.v[j] - mc) <= 3 * se + 0.002


class TestConvergence:
    def test_first_order_in_dx(self):
        g0 = [
            solve_g(M1, D1, Grid(L=30.0, n_x=n)).v[0]
            for n in (500, 1000, 2000)
        ]
        ratio = (g0[2] - g0[1]) / (g0[1] - g0[0])
        assert 0.3 <= ratio <= 0.7

    def test_deterministic(self):
        a = solve_g(M1, D1, Grid(L=30.0, n_x=500)).v
        b = solve_g(M1, D1, Grid(L=30.0, n_x=500)).v
        assert np.array_equal(a, b)

    def test_no_convergence_raises(self, monkeypatch):
        # only the Picard route (densities without a recursion) iterates
        monkeypatch.setattr(ladder, "MAX_ITER", 2)
        with pytest.raises(NoConvergence) as exc:
            solve_g(M1, ShiftedPareto(alpha=3.0, theta=1.0), Grid(L=30.0, n_x=500))
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
            errs.append(float(np.max(np.abs(sol.v - exact(x))[x <= L / 2])))
            assert abs((sol.v[1] - sol.v[0]) / grid.dx - slope0) <= 0.5 * grid.dx
        assert 1.9 <= errs[0] / errs[1] <= 2.1
        assert 1.9 <= errs[1] / errs[2] <= 2.1

    @SETS
    def test_eps_disc_covers_rung0_error(self, m, gamma, L):
        # the refinement budget verify prices for a solved ladder must cover
        # the true error of g, its bottom rung, at each size
        exact, _ = self.exact_g(m, gamma)
        d = Exponential(gamma)
        for n_x in (1000, 2000, 4000):
            grid = Grid(L=L, n_x=n_x)
            surface = solve_ladder(m, d, grid, RateLadder(8, m.c_bar, m.c_floor))
            x = grid.nodes
            err = float(np.max(np.abs(surface.v[0] - exact(x))[x <= L / 2]))
            _, eps_disc = calibrate_eps_disc(surface)
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
        g = sol.v
        assert sol.iterations == 1
        assert np.all(np.diff(g) >= 0.0)
        assert g.max() <= m.c_bar / m.r
        assert g[-1] == m.c_bar / m.r
        # measured 2.3e-14 to 3.8e-13; the Picard route stops near 1e-10
        assert residual_sup(sol, m, d, Grid(L=L, n_x=n_x)) <= 1e-11


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
        assert np.max(np.abs(sol.v - ref)) <= 1e-8
        assert sol.iterations < plain_sweeps


class TestJumpOnce:
    @staticmethod
    def count_jumps(monkeypatch, m, d, grid):
        """(solve_g's record, the number of T applications it made)."""
        calls = []
        jump = ConvKernel.jump
        monkeypatch.setattr(ConvKernel, "jump", lambda self, f, lam: calls.append(1) or jump(self, f, lam))
        sol = solve_g(m, d, grid)
        monkeypatch.undo()
        return sol, len(calls)

    @pytest.mark.parametrize(
        "d",
        [HyperExponential((0.7, 0.3), (0.3, 1.3)), ShiftedPareto(alpha=3.0, theta=1.2)],
        ids=["hyperexponential", "shifted_pareto"],
    )
    def test_converged_g_takes_one_jump(self, d, monkeypatch):
        # the residual g is accepted on takes one T g: the banded step's
        # own when the projection moves nothing, as here
        m = ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=0.0)
        grid = Grid(L=20.0, n_x=400)
        sol, calls = self.count_jumps(monkeypatch, m, d, grid)
        sweeps = 0 if get_kernel(d, grid).has_recursion() else sol.iterations
        assert calls == sweeps + 1

    def test_projected_g_takes_fresh_jump(self, monkeypatch):
        # at 2000 nodes the projection moves the acceptance set's g by
        # 7.6e-14, so the banded step's residual no longer holds and T g is
        # redone
        sol, calls = self.count_jumps(monkeypatch, M1, D1, G1)
        assert sol.final_update_norm > 0.0
        assert calls == 2


class TestOtherClaimFamilies:
    @pytest.mark.parametrize(
        "d",
        [
            HyperExponential(weights=(0.4, 0.6), means=(0.25, 0.75)),
            ShiftedPareto(alpha=3.0, theta=1.0),
        ],
        ids=["hyperexponential", "shifted_pareto"],
    )
    def test_envelope_holds(self, d, monkeypatch):
        m = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
        grid = Grid(L=30.0, n_x=600)
        monkeypatch.setattr(ladder, "PICARD_STOP", 1000)  # Picard g stops at 1e-11 (to an ulp)
        sol = solve_g(m, d, grid)
        g = sol.v
        assert residual_sup(sol, m, d, grid) <= 1e-8
        assert g.min() >= (m.c_bar - m.lam * m.ell * d.gamma) / m.r - 1e-9
        assert g.max() <= m.c_bar / m.r + 1e-9
        gp = g_slope(sol, m, d, grid)
        assert gp.min() >= -1e-9
        assert gp.max() <= m.ell + 1e-9
        # heavy tails approach the Dirichlet pin with visible curvature, so
        # the last interior node carries an O(dx^2) kink; 1e-3*dx^2 covers
        # the measured 1.3e-4*dx^2 with headroom
        assert np.max(g[2:] - 2 * g[1:-1] + g[:-2]) <= 1e-3 * grid.dx**2


class TestReport:
    """g's record is rung 0 of the ladder: a `ValueSlice`, whose row of the
    surface's masks is all True, as g has no rung above it."""

    def test_fields_and_shapes(self, sol_fine):
        n = G1.n_x
        assert sol_fine.v.shape == (n + 1,)
        assert residual_sup(sol_fine, M1, D1, G1) <= 1e-8
        assert abs(sol_fine.v[n - 1] - M1.c_bar / M1.r) <= 1e-3

    @pytest.mark.parametrize("d", [D1, H1, P1], ids=["exponential", "hyperexponential",
                                                    "shifted_pareto"])
    def test_record_is_ladder_row_0(self, d):
        grid = Grid(L=30.0, n_x=400)
        sol = solve_g(M1, d, grid)
        surface = solve_ladder(M1, d, grid, RateLadder(4, M1.c_bar, M1.c_floor))
        assert sol.v.tobytes() == surface.v[0].tobytes()
        assert surface.masks[0].all()
        assert g_slope(sol, M1, d, grid).tobytes() == surface.slopes()[0][0].tobytes()
        assert sol.iterations == surface.iterations[0]
        assert np.float64(sol.final_update_norm).tobytes() == surface.update_norms[0].tobytes()


def direct_banded_g(m, d, grid):
    """Frozen copy of the direct banded g route: one `bordered_banded_solve`
    on the whole band with no contact node, then the monotone projection.
    Returns (v, the projection's sup-norm change)."""
    n = grid.n_x
    kern = get_kernel(d, grid)
    h = h_eval(m, d, grid.nodes)
    a = (m.mu - m.c_bar) / grid.dx
    b = a + m.r + m.lam
    v_L = m.c_bar / m.r
    ab, bands, stride = kern.rung_band(a, b, m.lam)
    raw = bordered_banded_solve(
        ab, bands, stride, np.append(m.c_bar - h[:n], v_L),
        m.lam * kern.tail[:n], np.zeros(n, dtype=bool), np.full(n, v_L),
    )
    v = np.maximum.accumulate(np.minimum(raw, v_L))
    v[n] = v_L
    return v, float(np.max(np.abs(v - raw)))


class TestPolicyStepG:
    """For exponential mixtures g is the single step of `policy_rung` with
    an empty contact set and the obstacle -inf below L; the direct banded
    solve is the oracle, bitwise, with the projection idle (400 nodes) and
    active (2000 nodes, exponential)."""

    @pytest.mark.parametrize("n_x", [400, 2000])
    @pytest.mark.parametrize("d", [D1, H1], ids=["exponential", "hyperexponential"])
    def test_matches_direct_banded_solve(self, d, n_x):
        grid = Grid(L=30.0, n_x=n_x)
        sol = solve_g(M1, d, grid)
        v, update = direct_banded_g(M1, d, grid)
        assert sol.iterations == 1
        assert sol.v.tobytes() == v.tobytes()
        assert sol.final_update_norm == update


def anderson_picard_g(m, d, grid, update_tol, max_iter=10000):
    """Frozen copy of the unprojected g route for densities without a
    recursion: Anderson-mixed frozen-T back-substitutions from c_bar/r.
    Returns (v, map evaluations, final update)."""
    n = grid.n_x
    kern = get_kernel(d, grid)
    h = h_eval(m, d, grid.nodes)
    a = (m.mu - m.c_bar) / grid.dx
    b = a + m.r + m.lam
    v_L = m.c_bar / m.r

    def sweep(v):
        t = kern.jump(v, m.lam)
        return backward_linear_solve((t[:n] - h[:n] + m.c_bar) / b, a / b, v_L)

    return anderson_fixed_point(sweep, np.full(n + 1, v_L), update_tol, max_iter, "g")


class TestPicardRungG:
    """For shifted Pareto claims g is `picard_rung` with the obstacle -inf
    below L, whose sweeps are then plain linear solves; the separate
    Anderson-Picard route is the oracle, bitwise."""

    @pytest.mark.parametrize("n_x", [800, 1600])
    def test_matches_anderson_picard(self, n_x):
        grid = Grid(L=30.0, n_x=n_x)
        sol = solve_g(M1, P1, grid)
        stop = DEFAULT_TOLERANCES["residual"] / (ladder.PICARD_STOP * M1.lam)
        v, iterations, update = anderson_picard_g(M1, P1, grid, stop)
        assert sol.v.tobytes() == v.tobytes()
        assert sol.iterations == iterations
        assert sol.final_update_norm == update


class TestResidualBound:
    """g is accepted against the certificate's own residual bound."""

    @pytest.mark.parametrize("d", [D1, P1], ids=["exponential", "shifted_pareto"])
    def test_g_and_certificate_read_one_bound(self, d, monkeypatch):
        grid = Grid(L=30.0, n_x=200)
        surface = solve_ladder(M1, d, grid, RateLadder(4, M1.c_bar, M1.c_floor))
        g = solve_g(M1, d, grid)
        monkeypatch.setitem(DEFAULT_TOLERANCES, "residual", 1e-20)
        # the Picard stop follows the bound down; scaling PICARD_STOP by the
        # same factor holds it, to an ulp
        monkeypatch.setattr(ladder, "PICARD_STOP", ladder.PICARD_STOP * 1e-12)
        with pytest.raises(NoConvergence) as exc:
            solve_g(M1, d, grid)
        # the residual g is accepted on is the interior sup the certificate reads
        assert exc.value.residual == residual_sup(g, M1, d, grid)
        assert run_invariant_suite(surface).check("boundary_residual").bound == 1e-20
        assert verify.DEFAULT_TOLERANCES is DEFAULT_TOLERANCES
