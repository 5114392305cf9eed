"""Assembled value surface and the feedback objects read off from it.

The surface is the solved problem: its inputs (model, claims, grid,
ladder) and the (n+1) x (n_x+1) value array over (rate, x), one row per
rung.  This module alone reads the rest off v: the switch masks (rung i is
in contact where v_i == v_{i-1}) and the slopes (g's forward difference,
then each rung's obstacle slope on contact and its equation's elsewhere).
Three consumers:

  * value_at(x, c): bilinear interpolation on the lattice, extended by
    v(0, c) + ell*x for x < 0 (injection linearity) and by c_bar/r for
    x > L (the Dirichlet far field).
  * the switching thresholds x*_i of rungs 1..n, each the first node
    where the rung equals its predecessor, read off the masks in one
    place (ratchet_thresholds) and trusted up to 0.8 L (require_trusted).
    extract_boundary reports them per rung; the switch region of a rung
    must be an upper set, and its holes are counted.
  * the ratchet strategy: the rate runs the thresholds give the running
    maximum from a start rung (frontier_runs), which build_rate_map
    tabulates on the lattice and simulate.FrontierSchedule steps along.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .discretization import ConvKernel, Grid, equation_slope, get_kernel, scheme_residual
from .errors import DomainTooSmall, RateOutOfRange, ValidationError
from .model import ClaimDistribution, ModelParams, h_eval

if TYPE_CHECKING:
    from .ladder import RateLadder

#: a switching threshold is trusted only at or below this fraction of L
TRUSTED_FRACTION = 0.8

#: the bound of each invariant check; every certificate reads this one
#: table, and `ladder.solve_g` accepts g against its "residual" entry
DEFAULT_TOLERANCES = {
    "residual": 1e-8,
    "envelope": 1e-8,
    "gradient": 1e-8,
    "concavity": 1e-8,
    "dirichlet": 1e-12,
    "curvature": 1e-6,
    "u_bound": 1e-6,
    "u_growth": 1e-6,
    "complementarity": 1e-8,
    "boundary_fraction": TRUSTED_FRACTION,
}


def rung_index(rates: np.ndarray, c: float) -> int:
    """Index of the ladder rung enclosing rate c, snapped up to the higher
    rate (ratcheting must not round the floor down).  rates runs from c_bar
    down to c_floor; raises RateOutOfRange outside that window."""
    n = rates.size - 1
    c_bar, c_floor = float(rates[0]), float(rates[-1])
    if c > c_bar + 1e-12 or c < c_floor - 1e-12:
        raise RateOutOfRange(f"rate {c} outside [{c_floor}, {c_bar}]")
    return int(np.clip(np.floor((c_bar - c) / ((c_bar - c_floor) / n) + 1e-9), 0, n))


@dataclass
class FreeBoundaryCurve:
    """Switching thresholds x*(c_i) per rung, with consistency counters.

    Rung 0 has no rung above it to switch to; its entry mirrors rung 1 as
    the cap-rate limit stand-in.  up_closure_violations[i] counts nodes
    right of x*(c_i) that are unexpectedly off-contact (must be 0 for a
    healthy surface).
    """

    rates: np.ndarray
    x_star: np.ndarray
    up_closure_violations: np.ndarray
    gradient_at_zero: np.ndarray


class ValueSurface:
    """The solved problem: its inputs and its value array v, one row per
    rung (rate c_i) and one column per grid node, with one iteration count
    and final update norm per rung.  masks and slopes() are read off v on
    every call, so they follow any change to it.
    """

    def __init__(
        self,
        m: ModelParams,
        claims: ClaimDistribution,
        grid: Grid,
        ladder: RateLadder,
        v: np.ndarray,
        iterations: np.ndarray,
        update_norms: np.ndarray,
        params_hash: str = "",
    ):
        want = [(ladder.n + 1, grid.n_x + 1), (ladder.n + 1,), (ladder.n + 1,)]
        shapes = [v.shape, iterations.shape, update_norms.shape]
        if shapes != want:
            raise ValidationError(f"surface arrays need shapes {want}, got {shapes}")
        self.m = m
        self.claims = claims
        self.grid = grid
        self.ladder = ladder
        self.rates = ladder.rates
        self.v = v
        self.iterations = iterations
        self.update_norms = update_norms
        self.params_hash = params_hash

    @property
    def masks(self) -> np.ndarray:
        """Read-only switch masks: row 0 all True, row i True where v_i ==
        v_{i-1} (for finite floats, the solvers' own gap v_i - v_{i-1} == 0)."""
        out = np.ones(self.v.shape, dtype=bool)
        np.equal(self.v[1:], self.v[:-1], out=out[1:])
        out.flags.writeable = False
        return out

    def slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """(v', residual): v' on every node of every rung, and residual[i]
        the `scheme_residual` of row i's forward difference on nodes
        0..n_x-1; T v is taken once per rung."""
        m, d, grid = self.m, self.claims, self.grid
        kern, h = get_kernel(d, grid), h_eval(m, d, grid.nodes)
        masks = self.masks
        vp = np.empty_like(self.v)
        residual = np.empty((self.v.shape[0], grid.n_x))
        vp[0], residual[0] = cap_slope(self.v[0], m, kern, h)
        for i in range(1, self.v.shape[0]):
            v, c = self.v[i], float(self.rates[i])
            t, residual[i] = scheme_residual(v, np.diff(v) / grid.dx, c, m, kern, h)
            vp[i] = np.where(masks[i], vp[i - 1], equation_slope(t, v, c, m, h))
        return vp, residual

    @classmethod
    def from_solution(cls, *args, **kwargs) -> "ValueSurface":
        """The surface of a ladder solve; solve_ladder builds every surface
        through here.  Takes the constructor's arguments."""
        return cls(*args, **kwargs)

    def _rate_index(self, c: float) -> tuple[int, float]:
        lad = self.ladder
        i = min(rung_index(self.rates, c), lad.n - 1)
        t = float(np.clip((lad.c_bar - c) / lad.dc - i, 0.0, 1.0))
        return i, t

    def row_at_rate(self, c: float) -> np.ndarray:
        """Value row at rate c, linear in c between neighboring rungs."""
        i, t = self._rate_index(c)
        if t == 0.0:
            return self.v[i]
        if t == 1.0:
            return self.v[i + 1]
        return (1.0 - t) * self.v[i] + t * self.v[i + 1]

    def value_at(self, x: float, c: float) -> float:
        """Interpolated value; exact at lattice points.

        x < 0 extends linearly with slope ell (mandatory injection),
        x > L returns the far-field level c_bar/r.
        """
        row = self.row_at_rate(c)
        if x < 0.0:
            return float(row[0] + self.m.ell * x)
        if x >= self.grid.L:
            return float(self.m.c_bar / self.m.r)
        pos = x / self.grid.dx
        j = int(np.floor(pos))
        s = pos - j
        if s == 0.0:
            return float(row[j])
        return float((1.0 - s) * row[j] + s * row[j + 1])


def cap_slope(g: np.ndarray, m: ModelParams, kern: ConvKernel, h: np.ndarray):
    """(g', residual) of a cap-rate row g: g' is the forward difference,
    with the slope that zeroes the equation at L, and residual the
    `scheme_residual` of the forward difference on nodes 0..n_x-1."""
    slope = np.diff(g) / kern.grid.dx
    t, residual = scheme_residual(g, slope, m.c_bar, m, kern, h)
    return np.append(slope, equation_slope(t[-1], g[-1], m.c_bar, m, h[-1])), residual


def contact_scan(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per mask row (the last axis): the first contact node, or the row
    length if the row has none, and the count of free nodes above it."""
    size = masks.shape[-1]
    contacts = masks.sum(axis=-1)  # all at or above the first
    first = np.where(contacts > 0, masks.argmax(axis=-1), size)
    return first, size - first - contacts


def require_trusted(i: int, rate: float, x_star: float, L: float) -> None:
    """The trust rule of a switching threshold: raise DomainTooSmall when
    rung i's threshold x_star lies beyond TRUSTED_FRACTION L, since then
    the free boundary is not resolved inside the domain."""
    cut = TRUSTED_FRACTION * L
    if x_star > cut:
        raise DomainTooSmall(
            f"rung {i} (rate {rate:.6g}): no switch node at or below "
            f"{TRUSTED_FRACTION} L = {cut:.6g}; enlarge the domain"
        )


def ratchet_thresholds(surface: ValueSurface) -> np.ndarray:
    """x*_i = (first contact node) dx of rungs 1..n, (n_x + 1) dx for a rung
    without contact: the threshold vector of the ratchet strategy, and the
    one place x* is read off the masks."""
    return contact_scan(surface.masks[1:])[0] * surface.grid.dx


def extract_boundary(surface: ValueSurface) -> FreeBoundaryCurve:
    """Per-rung switching threshold: the ratchet thresholds, with rung 0
    given rung 1's.  Raises DomainTooSmall at the first rung the trust
    rule rejects."""
    x_star = ratchet_thresholds(surface)
    for i, x in enumerate(x_star.tolist(), 1):
        require_trusted(i, surface.rates[i], x, surface.grid.L)
    return FreeBoundaryCurve(
        rates=surface.rates.copy(),
        x_star=np.concatenate((x_star[:1], x_star)),
        up_closure_violations=contact_scan(surface.masks)[1],
        gradient_at_zero=surface.slopes()[0][:, 0],
    )


def build_rate_map(surface: ValueSurface) -> np.ndarray:
    """Equivalent maximum rate on the lattice, (n+1) x (n_x+1): entry
    [i, j] is the ratchet's rate from rung i while its running maximum
    sits at node j, read off the frontier runs of the thresholds."""
    rates = surface.rates
    x_star = ratchet_thresholds(surface)
    nodes = surface.grid.nodes  # j dx, bitwise the x*_i of contact nodes
    out = np.empty((rates.size, nodes.size))
    for i in range(rates.size):
        left, run_rates = frontier_runs(rates, x_star, i)
        out[i] = run_rates[left[1:].searchsorted(nodes, side="right")]
    return out


def frontier_runs(rates: np.ndarray, x_star: np.ndarray, i: int):
    """The rate runs the running maximum meets from start rung i under the
    thresholds x_star of rungs 1..n: their left edges (the first is 0) and
    rates.

    The rate is c_k for the largest k <= i with maximum < x*_k, and c_0 =
    c_bar past them all: c_k holds on [R_(k+1), R_k), R_k the largest of
    x*_k, ..., x*_i (R_(i+1) = 0), so the maximum enters c_(k-1) where that
    running maximum rises.  Runs of no length are left out; the last, at
    c_bar, has no right edge.
    """
    reach = np.maximum.accumulate(x_star[:i][::-1])  # R_i, ..., R_1
    left = np.concatenate(([0.0], reach))
    keep = left < np.append(reach, np.inf)
    return left[keep], rates[i::-1][keep]

