"""Cross-validation of a solved surface: structural invariants plus a
Monte Carlo comparison through an independent route.  The Monte Carlo
checks of every point come from one pass on one claim stream, so the
feedback strategy and the constant rates of all points are compared on
common random numbers, within a discretization budget that
`calibrate_eps_disc` prices from the surface and its refinement pair.

Every invariant the solver is supposed to enforce is re-measured here from
the stored arrays (never from solver-internal state) and reported as a
named check with its bound, the observed value, and the margin.  Failures
are data, not exceptions, so a corrupted surface (a rung without contact
included) produces a failing certificate instead of a crash.

The equation checks take `discretization.scheme_residual`.
`complementarity` reads each rung's v only, through its forward difference:
the stored v' of a free node is the slope that zeroes the residual, so a
residual taken with it would hold for any v; its measure is the solvers'
own, `discretization.complementarity_defect`.  Stored rung slopes are
checked by the gradient window and `threshold_collapse` alone.
`boundary_residual` reads the stored g', the forward difference of g.

No check repeats another.  The rate map is the rate runs of the
thresholds, so it lies between each rung's rate and the cap and rises in
x by construction, and `mask_up_closed` counts every mask entry that the
thresholds do not describe.  A rate-direction slope has the sign of its
obstacle gap, which `obstacle_order` checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import simulate as sim
from .discretization import Grid, complementarity_defect, get_kernel, scheme_residual
from .errors import ValidationError
from .ladder import RateLadder, slope_growth_bound, solve_ladder
from .model import ClaimDistribution, h_eval
from .surface import DEFAULT_TOLERANCES, ValueSurface, contact_scan, ratchet_thresholds


@dataclass
class CheckResult:
    """One named invariant check.  passed iff observed <= bound; margin is
    bound - observed (positive = slack)."""

    name: str
    description: str
    bound: float
    observed: float

    @property
    def margin(self) -> float:
        return self.bound - self.observed

    @property
    def passed(self) -> bool:
        return bool(self.observed <= self.bound)


@dataclass
class Certificate:
    """Deterministic pass/fail report over a list of checks."""

    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "description": c.description,
                    "bound": c.bound,
                    "observed": c.observed,
                    "margin": c.margin,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_invariant_suite(surface: ValueSurface, d: ClaimDistribution) -> Certificate:
    """Re-measure every structural invariant of a solved surface, each
    against its bound in DEFAULT_TOLERANCES.

    The checks read only the surface arrays and the claim distribution, so
    corrupted data cannot hide behind stale solver state.
    """
    tol = DEFAULT_TOLERANCES
    m = surface.m
    grid = surface.grid
    ladder = surface.ladder
    dx = grid.dx
    dc = ladder.dc
    v = surface.v
    vp = surface.v_prime
    rates = surface.rates
    kern, h = get_kernel(d, grid), h_eval(m, d, grid.nodes)
    mean_claim = float(d.tail_mean(0.0))
    checks = []

    def add(name, description, bound, observed):
        checks.append(
            CheckResult(
                name=name,
                description=description,
                bound=float(bound),
                observed=float(observed),
            )
        )

    # cap-rate equation residual on interior nodes
    _, res = scheme_residual(v[0], vp[0, :-1], m.c_bar, m, kern, h)
    add(
        "boundary_residual",
        "cap-rate integro-differential equation residual, sup over interior",
        tol["residual"],
        np.max(np.abs(res)),
    )
    add(
        "boundary_dirichlet",
        "far-field pin |v(L) - c_bar/r| at the cap rung",
        tol["dirichlet"],
        abs(v[0, -1] - m.c_bar / m.r),
    )

    # value envelope per rung: (c_i - lam*ell*E[Z])/r <= v_i <= c_bar/r
    lower_env = (rates - m.lam * m.ell * mean_claim) / m.r
    add(
        "value_lower_envelope",
        "each rung stays above its perpetuity minus expected injection load",
        tol["envelope"],
        np.max(lower_env[:, None] - v),
    )
    add(
        "value_upper_envelope",
        "no rung exceeds the cap-rate perpetuity c_bar/r",
        tol["envelope"],
        np.max(v - m.c_bar / m.r),
    )

    # gradient window 0 <= v_x <= ell
    add(
        "gradient_nonnegative",
        "value non-decreasing in surplus",
        tol["gradient"],
        np.max(-vp),
    )
    add(
        "gradient_injection_cap",
        "marginal value of surplus never exceeds the injection cost ell",
        tol["gradient"],
        np.max(vp - m.ell),
    )

    # curvature: lower bound everywhere, concavity up to the truncation
    # layer near the Dirichlet pin (positive part decays like dx^2)
    sd = np.diff(v, 2, axis=1) / dx**2
    add(
        "curvature_lower",
        "discrete second derivative bounded below by -lam*ell/(mu - c_bar)",
        tol["curvature"],
        np.max(-sd - m.lam * m.ell / (m.mu - m.c_bar)),
    )
    add(
        "concavity",
        "discrete second derivative nonpositive up to an O(dx^2) pin layer",
        tol["concavity"] + 0.5 * dx**2,
        np.max(sd) * dx**2,
    )

    # obstacle ordering and slope-increment window
    gaps = v[1:] - v[:-1]
    add(
        "obstacle_order",
        "each rung dominates the next-higher rate's value (projection exact)",
        0.0,
        np.max(-gaps) if gaps.size else -np.inf,
    )
    u = gaps / dc
    add(
        "rate_slope_upper",
        "rate-direction slope at most (ell - 1)/r",
        tol["u_bound"],
        np.max(u - (m.ell - 1.0) / m.r) if u.size else -np.inf,
    )
    growth = u[:-1] - u[1:] - slope_growth_bound(m) * dc
    add(
        "rate_slope_growth",
        "rate-direction slope increments bounded by the drift constant",
        tol["u_growth"],
        np.max(growth) if growth.size else -np.inf,
    )

    # complementarity: on every node either the equation of the forward
    # difference of v holds or the obstacle binds, and the rung is a supersolution
    comp = 0.0
    for i in range(1, ladder.n + 1):
        _, res_i = scheme_residual(v[i], np.diff(v[i]) / dx, rates[i], m, kern, h)
        comp = max(comp, complementarity_defect(res_i, gaps[i - 1]))
    add(
        "complementarity",
        "min(equation residual, obstacle gap) vanishes on interior nodes",
        tol["complementarity"],
        comp,
    )

    # switch masks: once switching is optimal it stays optimal for larger x
    add(
        "mask_up_closed",
        "contact region of each rung is an upper interval in surplus",
        0.0,
        np.sum(contact_scan(surface.masks[1:])[1]),
    )

    # switching thresholds: inside the trusted domain, and zero for lower
    # rates once the gradient at zero drops to 1
    x_star = ratchet_thresholds(surface)
    add(
        "boundary_inside_domain",
        "largest switching threshold within the trusted fraction of L",
        tol["boundary_fraction"],
        np.max(x_star) / grid.L,
    )
    vp0 = vp[:, 0]
    small = np.flatnonzero(vp0 <= 1.0 + 1e-9)
    if small.size:
        i0 = max(int(small.min()), 1)
        prop = float(np.max(x_star[i0 - 1 :]))
    else:
        prop = 0.0
    add(
        "threshold_collapse",
        "gradient at zero at most 1 forces zero thresholds at all lower rates",
        0.0,
        prop,
    )

    return Certificate(checks=checks)


def calibrate_eps_disc(
    surface: ValueSurface, d: ClaimDistribution, update_tol: float = 1e-10
) -> tuple[float, float]:
    """Measure the discretization budget eps = kappa*(dx + dc) of a solved
    surface from one refinement pair (n_x, n) -> (2 n_x, 2 n), whose coarse
    member halves the surface when n_x >= 128 and n >= 2 and is the
    surface's size otherwise.  A member of the surface's size is the
    surface itself, so one ladder is solved (two for an odd n_x or n).

    kappa is three times the observed sup value change per unit of the
    coarse dx + dc, the standard geometric-series headroom of a first-order
    scheme; eps prices the surface's own dx + dc.
    """
    grid, ladder = surface.grid, surface.ladder
    k = 2 if grid.n_x >= 128 and ladder.n >= 2 else 1

    def member(s):
        g = Grid(L=grid.L, n_x=s * (grid.n_x // k))
        lad = RateLadder(n=s * (ladder.n // k), c_bar=ladder.c_bar, c_floor=ladder.c_floor)
        own = (g.n_x, lad.n) == (grid.n_x, ladder.n)
        v = surface.v if own else solve_ladder(surface.m, d, g, lad, update_tol=update_tol).v
        return v, g.dx + lad.dc

    (vc, step), (vf, _) = member(1), member(2)
    kappa = 3.0 * np.max(np.abs(vc - vf[::2, ::2])) / step
    return kappa, kappa * (grid.dx + ladder.dc)


def mc_cross_check(
    surface: ValueSurface,
    d: ClaimDistribution,
    points: list,
    n_paths: int,
    seed: int,
    eps_disc: float,
    horizon: float | None = None,
) -> Certificate:
    """Monte Carlo agreement and dominance checks at the given (x0, c0)
    points.

    Agreement: |MC mean of the feedback strategy - value_at| <= 3 SE +
    eps_disc + tail bound.  Dominance: the constant-rate strategy with rate
    (c0 + c_bar)/2 stays below value_at plus the same budget.  One pass on
    the claim stream of seed runs the feedback strategy and the constant
    rate from every point, so all of them are compared on common random
    numbers, and each point's checks are those of a one-point call at the
    same seed.  A c0 outside [c_floor, c_bar] raises RateOutOfRange before
    any path is stepped.
    """
    if n_paths < 2:
        raise ValidationError("need at least 2 paths")
    if not points:
        return Certificate(checks=[])
    m = surface.m
    # within rung_index's 1e-12 slack above c_bar the midpoint would exceed it
    rates = [min(0.5 * (c0 + m.c_bar), m.c_bar) for _, c0 in points]
    starts = [(x0, c) for (x0, _), c in zip(points, rates)]
    ests, _ = sim.estimate_strategies(
        m, d, n_paths, seed, horizon, ratchet_thresholds(surface), points, starts
    )
    checks = []
    for k, ((x0, c0), c, est, est_c) in enumerate(zip(points, rates, ests, ests[len(points) :])):
        v = surface.value_at(x0, c0)
        checks.append(
            CheckResult(
                name=f"mc_agreement_{k}",
                description=(
                    f"feedback-strategy sample mean matches the surface at "
                    f"(x0={x0}, c0={c0}) within 3 SE + discretization budget"
                ),
                bound=3.0 * est.std_error + eps_disc + est.tail_bound,
                observed=abs(est.mean - v),
            )
        )
        checks.append(
            CheckResult(
                name=f"mc_dominance_{k}_{c}",
                description=(
                    f"constant rate {c} from (x0={x0}, c0={c0}) "
                    f"does not beat the surface value"
                ),
                bound=3.0 * est_c.std_error + eps_disc + est_c.tail_bound,
                observed=est_c.mean - v,
            )
        )
    return Certificate(checks=checks)
