"""Value of paying dividends at the cap forever (the ladder's bottom rung).

g solves the linear integro-differential boundary problem

    -(mu - c_bar) g' + (r + lam) g - T g + h - c_bar = 0   on (0, L),
    g(L) = c_bar / r,

discretized with the upwind difference and the product-integration jump
operator.  Node 0 needs no special casing: T carries the reflected mass
f(0)(1 - F(x)) and the same difference equation holds there.

Two routes, by claim family:

  * exponential mixtures (exponential, hyperexponential; the kernel has a
    recursion): the scheme is the ladder's rung system with rate c_bar and
    an empty contact set, banded on the augmented unknowns of
    `ConvKernel.rung_band`, so g is one exact `bordered_banded_solve`.
  * other densities (shifted Pareto): the solve freezes T at the previous
    iterate and back-substitutes from the Dirichlet node (Picard); the
    iteration map contracts in sup norm with factor at most
    lam / (r + lam), so the sweeps are Anderson-mixed
    (`_sweep.anderson_fixed_point`) and the last plain sweep is returned.

The exact discrete g is non-decreasing and at most c_bar/r (comparison
principle), but where its slope is below one ulp over dx rounding can
leave one- and two-ulp decreases near the Dirichlet node.  The banded
route therefore ends with a monotone projection: clip at c_bar/r, take the
running maximum and pin g(L) = c_bar/r, so g' >= 0 and g <= c_bar/r hold
bitwise.  Known envelope, used by the checks:

    (c_bar - lam*ell*gamma)/r <= g <= c_bar/r,   0 <= g' <= ell,   g'' <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sweep import anderson_fixed_point, backward_linear_solve, bordered_banded_solve
from .discretization import Grid, equation_slope, get_kernel, scheme_residual, second_diff
from .errors import NoConvergence
from .model import ClaimDistribution, ModelParams, h_eval


@dataclass
class BoundarySolution:
    """Converged bottom-rung value with its upwind derivative, its scheme
    residual at every node (taken with g_prime) and solve stats."""

    g: np.ndarray
    g_prime: np.ndarray
    residual: np.ndarray
    picard_iterations: int
    final_update_norm: float
    residual_sup: float


def solve_g(
    m: ModelParams,
    d: ClaimDistribution,
    grid: Grid,
    update_tol: float = 1e-10,
    residual_tol: float = 1e-8,
    max_iter: int = 10000,
) -> BoundarySolution:
    """Solve the upwind scheme for g by the route of the module docstring.

    Exponential mixtures: one banded solve, then the monotone projection;
    picard_iterations is 1 and final_update_norm is the sup-norm change the
    projection made.  Other densities: Anderson-mixed Picard sweeps from
    the constant c_bar/r (the value of the cap strategy with no claims, an
    upper bound) until the sup-norm update of a plain sweep falls below
    update_tol; picard_iterations counts the sweeps (map evaluations) and
    final_update_norm is the update of the returned sweep.  update_tol and
    max_iter act on the Picard route only.  On both routes the achieved
    scheme residual is then checked against residual_tol.  Raises
    NoConvergence on either failure.
    """
    n = grid.n_x
    dx = grid.dx
    kern = get_kernel(d, grid)
    h = h_eval(m, d, grid.nodes)
    a = (m.mu - m.c_bar) / dx
    b = a + m.r + m.lam
    v_L = m.c_bar / m.r

    if kern.has_recursion():
        ab, bands, stride = kern.rung_band(a, b, m.lam)
        no_contact = np.zeros(n, dtype=bool)
        raw = bordered_banded_solve(
            ab, bands, stride, np.append(m.c_bar - h[:n], v_L),
            m.lam * kern.tail[:n], no_contact, np.full(n, v_L),
        )
        v = np.maximum.accumulate(np.minimum(raw, v_L))
        v[n] = v_L
        iterations, update = 1, float(np.max(np.abs(v - raw)))
    else:
        qt = a / b

        def sweep(v):
            t = kern.jump(v, m.lam)
            return backward_linear_solve((t[:n] - h[:n] + m.c_bar) / b, qt, v_L)

        v, iterations, update = anderson_fixed_point(
            sweep, np.full(n + 1, v_L), update_tol, max_iter, "g solve"
        )
    # forward differences; the Dirichlet node takes the slope the equation implies
    t = kern.jump(v, m.lam)
    g_prime = np.append(np.diff(v) / dx, 0.0)
    g_prime[n] = equation_slope(t[n], v[n], m.c_bar, m, h[n])
    _, res = scheme_residual(v, g_prime, m.c_bar, m, kern, h, t)
    residual_sup = float(np.max(np.abs(res[:n])))
    if residual_sup > residual_tol:
        raise NoConvergence(
            f"g solve: updates converged but the scheme residual {residual_sup:.3e} "
            f"exceeds {residual_tol:.1e}; the grid or tolerances are inconsistent",
            iterations=iterations,
            update_norm=update,
            residual=residual_sup,
        )
    return BoundarySolution(
        g=v,
        g_prime=g_prime,
        residual=res,
        picard_iterations=iterations,
        final_update_norm=update,
        residual_sup=residual_sup,
    )


def boundary_residual_report(
    sol: BoundarySolution, m: ModelParams, d: ClaimDistribution, grid: Grid
) -> dict:
    """Per-node arrays plus the envelope margins, for export and gating."""
    n = grid.n_x
    g = sol.g
    res = sol.residual
    lower = (m.c_bar - m.lam * m.ell * d.gamma) / m.r
    upper = m.c_bar / m.r
    return {
        "x": grid.nodes,
        "g": g,
        "g_prime": sol.g_prime,
        "residual": res,
        "residual_sup_interior": sol.residual_sup,
        "lower_bound": lower,
        "upper_bound": upper,
        "g_min": float(g.min()),
        "g_max": float(g.max()),
        "g_prime_min": float(sol.g_prime.min()),
        "g_prime_max": float(sol.g_prime.max()),
        "second_diff_max": float(second_diff(g).max()),
        "dirichlet_gap": float(abs(g[n - 1] - upper)),
        "iterations": sol.picard_iterations,
        "final_update_norm": sol.final_update_norm,
    }
