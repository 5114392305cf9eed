"""Solve followed by verify: every surface the solver accepts passes the
structural certificate, across resolutions and claim families.

The README model has an interior free boundary at every size below, so the
certificate is checked on a ladder that actually switches.
"""

import numpy as np
import pytest

from divratchet import (
    Exponential,
    Grid,
    HyperExponential,
    ModelParams,
    ShiftedPareto,
    extract_boundary,
    solve_ladder,
)
from divratchet.ladder import RateLadder
from divratchet.verify import run_invariant_suite

M = ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=0.0)
FAMILIES = {
    "exponential": Exponential(0.6),
    "hyperexponential": HyperExponential((0.7, 0.3), (0.3, 1.3)),
}
CASES = [
    (kind, n_x, n)
    for kind in FAMILIES
    for n_x in (400, 2000)
    for n in (16, 32, 64)
]
# Anderson-mixed Picard path; 1600 x 32 is where the contact mask used to
# admit tiny gaps
PARETO_CASES = [
    ("shifted_pareto", 400, 16),
    ("shifted_pareto", 1600, 32),
    ("shifted_pareto", 2000, 64),
]


def claims(kind):
    return FAMILIES.get(kind) or ShiftedPareto(3.0, 1.2)


@pytest.mark.parametrize("kind, n_x, n", CASES + PARETO_CASES)
def test_solved_surface_passes_invariants(kind, n_x, n):
    d = claims(kind)
    grid = Grid(L=20.0, n_x=n_x)
    ladder = RateLadder(n, M.c_bar, M.c_floor)
    surface = solve_ladder(M, d, grid, ladder)

    x_star = extract_boundary(surface).x_star
    assert 0.0 < x_star.max() < 0.8 * grid.L
    assert surface.masks[1:].mean() < 1.0
    for mask in surface.masks:  # switch regions are upper sets in x
        assert mask[int(np.argmax(mask)):].all()

    cert = run_invariant_suite(surface)
    failed = {c.name: (c.observed, c.bound) for c in cert.checks if not c.passed}
    assert not failed
