"""Regime-switching rate ladder: the obstacle chain over decreasing rates.

Rung i carries the value v_i of the problem whose current dividend rate is
c_i = c_bar - i*(c_bar - c_floor)/n, with the option to ratchet the rate
upward.  Rung 0 is g, the value of paying c_bar forever, which solves the
linear integro-differential boundary problem

    -(mu - c_bar) g' + (r + lam) g - T g + h - c_bar = 0   on (0, L),
    g(L) = c_bar / r,

discretized with the upwind difference and the product-integration jump
operator.  Node 0 needs no special casing: T carries the reflected mass
f(0)(1 - F(x)) and the same difference equation holds there.  `solve_g`
takes one of two routes, by claim family:

  * exponential mixtures: the single step of `policy_rung` at rate c_bar
    with an empty contact set and the obstacle -inf below L, i.e. one
    exact bordered banded solve.
  * other densities (shifted Pareto): `picard_rung` at rate c_bar with the
    same obstacle, from the constant c_bar/r; with nothing to project, each
    Anderson-mixed sweep is a frozen-T back-substitution from the Dirichlet
    node, a map that contracts by at most lam / (r + lam) in sup norm.

The exact discrete g is non-decreasing and at most c_bar/r (comparison
principle), but where its slope is below one ulp over dx rounding can
leave one- and two-ulp decreases near the Dirichlet node.  The banded
route therefore ends with a monotone projection: clip at c_bar/r, take the
running maximum and pin g(L) = c_bar/r, so g' >= 0 and g <= c_bar/r hold
bitwise.  Known envelope, used by the checks:

    (c_bar - lam*ell*gamma)/r <= g <= c_bar/r,   0 <= g' <= ell,   g'' <= 0.

Each later rung solves the variational inequality

    min( -(mu - c_i) v' + (r + lam) v - T v + h - c_i ,  v - v_{i-1} ) = 0

with the previous rung as obstacle.  Discretely this is a complementarity
system for the same scheme, solved in one of two ways depending on the
claim family:

  * exponential mixtures (exponential, hyperexponential; the kernel has a
    recursion): policy (Howard) iteration.  Each policy step fixes the
    contact set, solves the linear rung system exactly as one bordered
    banded solve over the nodes up to the last free one (above it v is the
    obstacle), and moves nodes in or out of contact where the obstacle or
    the equation is violated.  The converged contact set fixes v, so the
    start contact set changes the step count, never v.
  * other densities (shifted Pareto): frozen-T Picard iteration, each stage
    solved exactly by the O(n_x) projected backward sweep, which is valid
    because the contact set is an upper interval in x (waiting is optimal
    below the free boundary, switching above it).  A plain sweep contracts
    only by lam/(r + lam), so the sweeps are Anderson-mixed; the rung stops
    on the sup-norm update of a plain sweep and returns that sweep.  Given
    the first node of a start contact set, the sweeps run only up to a cut
    node a margin above it (above it v is the obstacle, and T is causal,
    so the convolution needs only the nodes up to the cut).  The result
    stands if a full-domain sweep of it keeps every node from the cut on
    at the obstacle; otherwise the rung is solved again on the whole
    domain, from the same start.

`solve_ladder` alone chooses each rung's start; the rung solvers take the
obstacle row, a start contact set and, for Picard rungs, start values.
Rungs 1 and 2 start from the contact set of the rung above (for rung 1,
g's: every node).  Every later rung starts from the upper interval whose
first node is extrapolated linearly from the thresholds of the two rungs
above it; the threshold moves almost evenly with the rate, so the start is
within a few nodes of the answer and a policy rung settles in one to four
steps (rungs 1 and 2 take four to eight).  Picard rungs from the third on
also start from the value 2 v_{i-1} - v_{i-2} extrapolated from the two
rungs above, on the obstacle over that interval: 373 sweeps instead of 436
at 1600 x 32, and v moves only within the stop rule's distance of the
fixed point.  (Extrapolated from g, or on nodes where the rung is in
contact, the start lies above the fixed point; there the mixed steps fail,
and a rung can take several times its cold sweeps.)  A Picard rung whose
obstacle has a free node above its own first contact node (a pocket) is
given no start contact set, as no cut holds then, and is solved on the
whole domain at once; so is rung 1.  Rung 2 keeps rung 1's exact contact
set, pockets included: an interval start from rung 1's threshold leaves v
unchanged but takes several times the policy steps on pocketed models.

Both paths end on or above the obstacle bitwise: the projected sweep takes
max(., v_{i-1}) at every node, and policy iteration stops only when no
free node lies below v_{i-1} while contact nodes equal it.  So the
obstacle order holds bitwise, and the contact set is exactly
v_i == v_{i-1}.  A solved rung satisfies, up to solver error:
    v_i >= v_{i-1}                          (bitwise),
    residual >= 0 and residual * (v_i - v_{i-1}) = 0 at every node,
    0 <= (v_i - v_{i-1})/dc <= (ell - 1)/r.
Both paths hand back the `scheme_residual` (forward-difference v') of
their v.  Each rung, g included, is accepted only if its
`complementarity_defect` (gap v_i - v_{i-1}, +inf for g below L) is within
the certificate's bound for it (`accept_rung`).  The verification layer
re-checks the rung equations from v alone, on the same bounds.

`solve_ladder` writes each solved rung straight into its row of the
(n+1) x (n_x+1) value array and returns it as the `ValueSurface`, which
reads the masks and slopes off v; `solve_g` and `solve_rung` return one
rung as a `ValueSlice`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sweep import (
    anderson_fixed_point,
    backward_linear_solve,
    bordered_banded_solve,
    projected_backward_scan,
)
from .discretization import (
    ConvKernel, Grid, complementarity_defect, get_kernel, scheme_residual
)
from .errors import NoConvergence, ValidationError
from .model import ClaimDistribution, ModelParams, h_eval
from .surface import DEFAULT_TOLERANCES, ValueSurface, contact_scan, require_trusted

#: a node leaves the contact set only once its residual is below -POLICY_TOL
#: times the scale b*max|v| of the rung row.  Rounding leaves a few ulps of
#: that scale in the residual of a solved row; without the margin a node
#: whose gap and residual both vanish could flip in and out of contact.
POLICY_TOL = 1e-13
#: a truncated Picard rung keeps j // 4 + PICARD_MARGIN nodes above the first
#: node j of its start contact set (`picard_rung`).  The extrapolated start
#: lies below the true first contact node by the second difference of the
#: thresholds: over 4 models and 2 Pareto laws, at most 4 nodes at
#: 1600 x 32, 13 at 1600 x 16, 48 at 1600 x 8 and 158 at 1600 x 4.  The
#: margin covers every ladder with n >= 8 there (n = 4 rungs may be solved
#: twice); its fixed part covers small j and the rounding at the boundary.
PICARD_MARGIN = 8
#: the most policy steps, or Picard map evaluations, that one solve makes
#: before it raises NoConvergence
MAX_ITER = 10000


@dataclass(frozen=True)
class RateLadder:
    """Uniform rate discretization c_i = c_bar - i*dc, i = 0..n."""

    n: int
    c_bar: float
    c_floor: float

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValidationError("ladder.n must be an integer >= 1")
        if not self.c_floor < self.c_bar:
            raise ValidationError("ladder needs c_floor < c_bar")

    @property
    def dc(self) -> float:
        return (self.c_bar - self.c_floor) / self.n

    @property
    def rates(self) -> np.ndarray:
        # linspace pins both endpoints exactly; c_bar - i*dc can miss the
        # floor by an ulp when the span is not dyadic
        return np.linspace(self.c_bar, self.c_floor, self.n + 1)


@dataclass
class ValueSlice:
    """One rung's values v.  Its contact set is v == psi, psi its obstacle
    (the row above; g has no rung above it and is in contact everywhere).

    iterations counts policy steps on exponential-mixture rungs and
    projected sweeps (map evaluations of the Anderson-mixed Picard
    iteration, over both solves when a truncated rung is solved again)
    otherwise; final_update_norm is the sup-norm change of v in
    the last step (for the first policy step, the change from the obstacle;
    for Picard, the update of the returned sweep).  For g they count the
    one banded solve, whose final_update_norm is the change the monotone
    projection made, or the Picard sweeps.
    """

    v: np.ndarray
    iterations: int = 0
    final_update_norm: float = 0.0


def slope_growth_bound(m: ModelParams) -> float:
    """B = 2 (r + lam)(ell - 1) / (r^2 (mu - c_bar)): rung-to-rung growth
    allowance for the switch gain u_i in the discrete comparison argument."""
    return 2.0 * (m.r + m.lam) * (m.ell - 1.0) / (m.r**2 * (m.mu - m.c_bar))


def accept_rung(residual, gap, bound: str, label: str, iterations: int, update: float):
    """Raise NoConvergence unless the rung's `complementarity_defect` is
    within DEFAULT_TOLERANCES[bound], the bound the certificate reads for it."""
    defect = complementarity_defect(residual, gap)
    tol = DEFAULT_TOLERANCES[bound]
    if not defect <= tol:
        raise NoConvergence(
            f"rung {label}: the solver stopped but its complementarity defect "
            f"{defect:.3e} exceeds {tol:.1e}; tighten solver.update_tol or refine the grid",
            iterations=iterations,
            update_norm=update,
            residual=defect,
        )


def picard_rung(
    psi: np.ndarray,
    c: float,
    m: ModelParams,
    kern: ConvKernel,
    h: np.ndarray,
    update_tol: float,
    label: str,
    first: int = 0,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float, np.ndarray]:
    """Anderson-mixed frozen-T projected sweeps from start (n_x + 1 nodes,
    on or above psi; default the obstacle psi itself) until the sup-norm
    update of a plain sweep is at most update_tol.  If psi is -inf below
    its last node (g), there is nothing to project, and each sweep is the
    linear back-substitution.

    The contact set is an upper interval, so above the free boundary v is
    psi.  Given the first node `first` > 0 of the start contact set that
    `solve_ladder` chose, the sweeps run on nodes 0..top only, top = first
    + first // 4 + PICARD_MARGIN, with v_top = psi_top as the Dirichlet
    value; T is causal (S_0..S_top read only v_0..v_top), so the
    convolution takes the prefix alone.  The result, extended by psi above
    top, is kept if one full-domain sweep of it, from the T v its residual
    takes, leaves every node from top on at psi.  Otherwise the rung is
    solved again on all n_x + 1 nodes from start, as it is at once when
    first is 0 (the whole domain) or top reaches n_x.

    Returns (v, sweeps, final update, residual) as `policy_rung` does, v
    being the last plain sweep and sweeps the map evaluations of every
    solve made (the acceptance sweep not counted); raises NoConvergence
    after MAX_ITER sweeps of one solve.
    """
    n = kern.grid.n_x
    dx = kern.grid.dx
    a = (m.mu - c) / dx
    b = a + m.r + m.lam
    qt = a / b
    unobstructed = bool(np.isneginf(psi[:n]).all())  # g: nothing to project

    def scan(v, t):  # projected sweep on nodes 0..k, v_k = psi_k, given t = T v
        k = v.shape[0] - 1
        alpha = (t[:k] - h[:k] + c) / b
        if unobstructed:
            return backward_linear_solve(alpha, qt, psi[k])
        return projected_backward_scan(alpha, qt, psi[:k], psi[k])

    def sweep(v):
        return scan(v, kern.jump(v, m.lam))

    start = psi if start is None else start

    def solve(top):
        return anderson_fixed_point(sweep, start[: top + 1], update_tol, MAX_ITER, f"rung {label}")

    def residual(v):
        return scheme_residual(v, np.diff(v) / dx, c, m, kern, h)

    top = first + first // 4 + PICARD_MARGIN
    sweeps = 0
    if 0 < first and top < n:
        v, sweeps, update = solve(top)
        v = np.concatenate((v, psi[top + 1 :]))
        t, res = residual(v)
        if np.array_equal(scan(v, t)[top:], psi[top:]):
            return v, sweeps, update, res
    v, more, update = solve(n)
    return v, sweeps + more, update, residual(v)[1]


def policy_rung(
    psi: np.ndarray,
    contact: np.ndarray,
    c: float,
    m: ModelParams,
    kern: ConvKernel,
    h: np.ndarray,
    label: str,
    band: np.ndarray | None = None,
) -> tuple[np.ndarray, int, float, np.ndarray]:
    """Howard iteration on min(A v - rhs, v - psi) = 0 from the contact set
    `contact` (length n_x), for a kernel with an exponential-mixture
    recursion.  band, if given, is a `ConvKernel.rung_band` array of this
    kernel and lam, whose rate diagonals are rewritten for c.

    Each step solves the frozen-policy system exactly, up to the last free
    node (`bordered_banded_solve`), then puts a free node into contact if it
    dips below psi and frees a contact node if its residual is negative.
    Once the contact set repeats, returns (v, policy steps, final update,
    residual), the last being the `scheme_residual` of that step's v with
    its forward difference.
    v >= psi holds bitwise then: no free node lies below psi, and contact
    nodes and v_n equal psi.  Raises NoConvergence after MAX_ITER steps.
    """
    n = kern.grid.n_x
    a = (m.mu - c) / kern.grid.dx
    b = a + m.r + m.lam
    ab, bands, stride = kern.rung_band(a, b, m.lam, band)
    rhs = np.append(c - h[:n], psi[n])
    border = m.lam * kern.tail[:n]
    v_old = psi
    update = np.inf
    for iterations in range(1, MAX_ITER + 1):
        v = bordered_banded_solve(ab, bands, stride, rhs, border, contact, psi[:n])
        update = float(np.max(np.abs(v - v_old)))
        _, res = scheme_residual(v, np.diff(v) / kern.grid.dx, c, m, kern, h)
        tol = POLICY_TOL * b * float(np.max(np.abs(v)))
        new = np.where(contact, res >= -tol, v[:n] < psi[:n])
        if np.array_equal(new, contact):
            return v, iterations, update, res
        contact = new
        v_old = v
    raise NoConvergence(
        f"rung {label}: contact set still changing after {MAX_ITER} policy steps",
        iterations=MAX_ITER,
        update_norm=update,
    )


def solve_g(
    m: ModelParams,
    d: ClaimDistribution,
    grid: Grid,
    update_tol: float = 1e-10,
    band: np.ndarray | None = None,
) -> ValueSlice:
    """Rung 0, the cap-rate value g, by the route of the module docstring:
    the rung solvers at rate c_bar with the obstacle -inf below L and
    c_bar/r at L.

    Exponential mixtures: one banded solve (`policy_rung`, which rewrites
    band in place if one is given), then the monotone projection; the
    step's residual serves below unless the projection moved g.
    Other densities: `picard_rung` from the constant c_bar/r (the value of
    the cap strategy with no claims, an upper bound); update_tol acts on
    this route only.  g is accepted by
    `accept_rung` against DEFAULT_TOLERANCES["residual"], the bound the
    certificate's `boundary_residual` reads; raises NoConvergence
    otherwise.
    """
    n = grid.n_x
    kern = get_kernel(d, grid)
    h = h_eval(m, d, grid.nodes)
    v_L = m.c_bar / m.r
    psi = np.full(n + 1, -np.inf)
    psi[n] = v_L

    if kern.has_recursion():
        raw, iterations, _, residual = policy_rung(
            psi, np.zeros(n, dtype=bool), m.c_bar, m, kern, h, "g", band
        )
        v = np.maximum.accumulate(np.minimum(raw, v_L))
        v[n] = v_L
        update = float(np.max(np.abs(v - raw)))
        if update:  # the projection moved g, so the step's residual no longer holds
            residual = scheme_residual(v, np.diff(v) / grid.dx, m.c_bar, m, kern, h)[1]
    else:
        v, iterations, update, residual = picard_rung(
            psi, m.c_bar, m, kern, h, update_tol, "g", start=np.full(n + 1, v_L)
        )
    accept_rung(residual, v - psi, "residual", "g", iterations, update)
    return ValueSlice(v, iterations, update)


def solve_rung(
    psi: np.ndarray,
    c: float,
    m: ModelParams,
    kern: ConvKernel,
    h: np.ndarray,
    update_tol: float = 1e-10,
    rung_label: str = "",
    contact: np.ndarray | None = None,
    start: np.ndarray | None = None,
    band: np.ndarray | None = None,
) -> ValueSlice:
    """Solve one obstacle problem at rate c, obstacle psi (the row above),
    on the kernel kern of the claims and grid and h = h_eval on its nodes.

    Claims go through `policy_rung` (exponential mixtures, which rewrites
    band in place if one is given) or `picard_rung` (others, cut above the
    first node of contact and swept from start, default psi), both from
    the length-n_x start contact set contact: default every node, g's
    contact set, which makes a Picard rung sweep the whole domain.
    `solve_ladder` chooses contact and start (module docstring).
    update_tol is the Picard stop rule only.  Raises NoConvergence if the
    solver does not settle, or if the rung's complementarity defect exceeds
    DEFAULT_TOLERANCES["complementarity"] (`accept_rung`).
    """
    label = rung_label or str(c)
    if contact is None:
        contact = np.ones(kern.grid.n_x, dtype=bool)
    if kern.has_recursion():
        v, iterations, update, residual = policy_rung(psi, contact, c, m, kern, h, label, band)
    else:
        v, iterations, update, residual = picard_rung(
            psi, c, m, kern, h, update_tol, label, int(contact_scan(contact)[0]), start
        )
    # v >= psi bitwise: both solvers end on or above the obstacle
    accept_rung(residual, v - psi, "complementarity", label, iterations, update)
    return ValueSlice(v, iterations, update)


def solve_ladder(
    m: ModelParams,
    d: ClaimDistribution,
    grid: Grid,
    ladder: RateLadder,
    update_tol: float = 1e-10,
) -> ValueSurface:
    """Solve every rung from the cap rate down to the floor.

    Rung 0 is g (`solve_g`), solved here with the same tolerance.  Each
    later rung has its predecessor as obstacle, starts as the module
    docstring describes (this loop applies that rule, from the contact set
    v_i == v_{i-1} of the rung above and the thresholds of the two rungs
    above), and is written into its row of the (n+1) x (n_x+1) value array
    as soon as it is solved.  Raises DomainTooSmall at the first rung
    whose threshold `require_trusted` rejects.
    """
    if ladder.c_bar != m.c_bar or ladder.c_floor != m.c_floor:
        raise ValidationError("ladder rate range must match the model's")
    kern = get_kernel(d, grid)
    h = h_eval(m, d, grid.nodes)
    # one band per ladder, g's included: each policy rung rewrites only its
    # rate diagonals
    band = kern.rung_band(0.0, 0.0, m.lam)[0] if kern.has_recursion() else None
    g = solve_g(m, d, grid, update_tol=update_tol, band=band)
    v = np.empty((ladder.n + 1, grid.n_x + 1))
    iterations = np.empty(ladder.n + 1, dtype=np.int64)
    update_norms = np.empty(ladder.n + 1)
    v[0], iterations[0], update_norms[0] = g.v, g.iterations, g.final_update_norm
    rates = ladder.rates
    nodes = np.arange(grid.n_x)
    mask = np.ones(grid.n_x + 1, dtype=bool)  # contact set of the rung above: g's is every node
    pocket = False  # a free node above that set's first contact node
    firsts = []  # first contact node of each solved rung
    for i in range(1, ladder.n + 1):
        psi, contact, start = v[i - 1], mask[:-1], None
        if i >= 3:
            j = min(max(2 * firsts[-1] - firsts[-2], 0), grid.n_x)
            contact = nodes >= j
            if band is None:  # Picard rungs
                # 2 v_{i-1} - v_{i-2} >= v_{i-1} bitwise, as the rows are ordered
                start = psi.copy()
                start[:j] = 2.0 * psi[:j] - v[i - 2, :j]
        if band is None and pocket:
            contact = None  # no cut holds below a pocket: sweep the whole domain
        rung = solve_rung(
            psi, float(rates[i]), m, kern, h, update_tol=update_tol,
            rung_label=f"{i}/{ladder.n}", contact=contact, start=start, band=band,
        )
        v[i], iterations[i], update_norms[i] = rung.v, rung.iterations, rung.final_update_norm
        mask = rung.v == psi
        first, free = (int(k) for k in contact_scan(mask))
        pocket = free > 0
        firsts.append(first)
        require_trusted(i, rates[i], first * grid.dx, grid.L)
    return ValueSurface.from_solution(m, d, grid, ladder, v, iterations, update_norms)
