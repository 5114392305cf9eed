"""Linear and obstacle solves for the upwind transport systems.

Two ways to solve g and the rungs of the rate ladder, chosen by the claim
family:

* Picard (densities without an exponential-mixture recursion, i.e. shifted
  Pareto).  Each
  stage freezes the nonlocal term and leaves a bidiagonal system

      b v_j = a v_{j+1} + phi_j   (interior j),    v_{n_x} = v_L,

  with a = (mu - c)/dx and b = a + r + lam, i.e. v_j = alpha_j + qt v_{j+1}
  with alpha = phi/b, qt = a/b in (0, 1).  `backward_linear_solve` solves
  it as a first-order filter.  The obstacle variant replaces the affine
  step by v_j = max(alpha_j + qt v_{j+1}, psi_j), which solves the frozen
  complementarity system exactly whenever the active set is an upper set
  in x (Brennan-Schwartz sweep); `projected_backward_scan` evaluates it in
  O(n) from the unprojected solution and a blocked suffix maximum.  The
  stages contract only by lam/(r + lam), so `anderson_fixed_point` mixes
  the last few of them (Anderson acceleration) and returns the first plain
  stage whose update is below the tolerance (`ladder.picard_rung` derives
  it from the rung's acceptance bound and lam).  n need not be n_x: a ladder
  rung runs its stages only on the nodes up to a cut above its free
  boundary, with the obstacle value there as v_L (`ladder.picard_rung`).

* Policy iteration (exponential-mixture densities).  The whole rung
  operator, nonlocal term included, is banded on the augmented unknowns of
  `ConvKernel.rung_band` except for the reflected-tail column
  border_j * v_0.  `bordered_banded_solve` solves one frozen-policy system
  (contact rows are identity rows v_j = psi_j): with x_r and x_t the
  banded solutions for the right-hand side and for the border column,
  v = x_r + theta x_t and theta = v_0 gives theta = x_r[0] / (1 - x_t[0]).
  Above the last free node v is psi, and the system is block lower
  triangular there, so the band is factored only up to the last free node:
  the cost is linear in that node, not in n_x.  With an empty contact set
  it is the whole g solve.  It calls LAPACK gbsv directly on one
  Fortran-ordered copy of the leading block of the band.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs
from scipy.signal import lfilter

from .errors import NoConvergence

#: secant pairs kept by `anderson_fixed_point`
ANDERSON_DEPTH = 5
#: log of the smallest weight qt^k inside one block of
#: `projected_backward_scan`; far above the subnormal range, so the
#: weighted obstacle terms keep full precision
_LOG_MIN_WEIGHT = np.log(1e-150)
#: LAPACK banded LU solve (the routine scipy.linalg.solve_banded wraps)
_GBSV = get_lapack_funcs("gbsv", dtype=np.float64)
#: LAPACK dense LU solve (the routine np.linalg.solve calls)
_GESV = get_lapack_funcs("gesv", dtype=np.float64)


def backward_linear_solve(alpha: np.ndarray, qt: float, v_L: float) -> np.ndarray:
    """Solve v_j = alpha_j + qt*v_{j+1}, j = n-1..0, with v_n = v_L.

    Returns the full (n+1)-vector.  Runs as a linear filter on the
    reversed coefficients.
    """
    n = alpha.shape[0]
    x = alpha[::-1].copy()
    x[0] += qt * v_L
    w = lfilter([1.0], [1.0, -qt], x)
    out = np.empty(n + 1)
    out[:n] = w[::-1]
    out[n] = v_L
    return out


def projected_backward_scan(
    alpha: np.ndarray, qt: float, psi: np.ndarray, v_L: float
) -> np.ndarray:
    """Solve v_j = max(alpha_j + qt*v_{j+1}, psi_j), v_n = v_L.

    alpha and psi hold the interior coefficients (length n).  Closed form of
    the sequential recursion in O(n): with A the unprojected solution
    (`backward_linear_solve`) and d = psi - A, the lift y = v - A obeys
    y_j = max(qt*y_{j+1}, d_j), y_n = 0, so qt^j*y_j is a suffix maximum of
    qt^k*d_k.  The maximum runs in blocks short enough that the weights
    qt^k stay above exp(_LOG_MIN_WEIGHT), carrying y across block edges.
    A node whose own obstacle term attains the maximum returns psi_j
    bitwise, and every node returns at least psi_j.
    """
    n = alpha.shape[0]
    A = backward_linear_solve(alpha, qt, v_L)
    d = psi - A[:n]
    log_qt = np.log(qt)
    block = n if n * log_qt >= _LOG_MIN_WEIGHT else max(1, int(_LOG_MIN_WEIGHT / log_qt))
    w = qt ** np.arange(block + 1.0)
    out = np.empty(n + 1)
    out[n] = v_L
    y_next = 0.0  # y at the node after the block
    e = n
    while e > 0:
        s = max(0, e - block)
        k = e - s
        z = np.empty(k + 1)
        np.multiply(w[:k], d[s:e], out=z[:k])
        z[k] = w[k] * y_next
        top = np.maximum.accumulate(z[::-1])[::-1]
        v = np.maximum(A[s:e] + top[:k] / w[:k], psi[s:e])
        out[s:e] = np.where(top[:k] == z[:k], psi[s:e], v)
        y_next = top[0]  # w[0] = 1
        e = s
    return out


def bordered_banded_solve(
    ab: np.ndarray,
    bands: tuple[int, int],
    stride: int,
    rhs: np.ndarray,
    border: np.ndarray,
    contact: np.ndarray,
    psi: np.ndarray,
) -> np.ndarray:
    """Solve one frozen-policy rung system; returns v at all n+1 nodes.

    ab, bands and stride come from `ConvKernel.rung_band` (LAPACK gbsv
    layout, Fortran order); ab is not modified.  rhs holds the n+1
    right-hand sides of the v rows, border the n coefficients of v_0 moved
    to the right of the equation rows.  Rows where the length-n mask
    contact holds become v_j = psi_j; those nodes are returned equal to
    psi bitwise, and v_n is returned as rhs_n.

    Only the nodes up to the last free one are solved.  With top the last
    free node plus one (0 if every node is in contact), the system is
    block lower triangular around the unknown v_top: a v row reaches at
    most v_{j+1} and z rows reach only left, and the row of v_top is an
    identity row (a contact row, or the Dirichlet row when top = n).  So
    the leading top*stride + 1 unknowns solve on their own, and above top
    v is psi.  Raises LinAlgError if the system is singular.
    """
    n = contact.shape[0]
    free = np.flatnonzero(~contact)
    top = int(free[-1]) + 1 if free.size else 0
    size = top * stride + 1
    diag = bands[0] + bands[1]
    ab = ab[:, :size].copy(order="F")
    rows = np.flatnonzero(contact[:top]) * stride
    for off in range(stride + 1):  # v_j, z^1_j .. z^K_j, v_{j+1}
        ab[diag - off, rows + off] = 0.0
    ab[diag, rows] = 1.0
    ab[diag, -1] = 1.0  # v_top: the other entries of its row lie right of the block
    v = np.append(psi, rhs[n])
    b2 = np.zeros((size, 2), order="F")
    b2[:-1:stride, 0] = rhs[:top]
    b2[:-1:stride, 1] = border[:top]
    b2[rows, 0] = psi[:top][contact[:top]]
    b2[rows, 1] = 0.0
    b2[-1, 0] = v[top]
    _, _, x, info = _GBSV(*bands, ab, b2, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    theta = x[0, 0] / (1.0 - x[0, 1])
    v[free] = x[free * stride, 0] + theta * x[free * stride, 1]
    return v


def _gram_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gamma with gram @ gamma = rhs by LU; a singular or non-finite solve
    (collinear residual differences) falls back to least squares."""
    _, _, gamma, info = _GESV(gram, rhs)
    if info == 0 and np.isfinite(gamma).all():
        return gamma
    return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def anderson_fixed_point(
    G, v: np.ndarray, update_tol: float, max_iter: int, label: str
) -> tuple[np.ndarray, int, float]:
    """Fixed point of the sup-norm contraction G by Anderson mixing.

    Each step evaluates g = G(v) and the residual f = g - v, and stops once
    |f|_inf <= update_tol, returning (g, map evaluations, |f|_inf): the
    output is a plain image of G, so whatever G guarantees (obstacle order,
    exact contact) holds for it, and with contraction factor rho it lies
    within rho/(1 - rho) * |f|_inf of the fixed point.  Otherwise the next
    iterate is g - dG @ gamma, where gamma fits f by the last
    ANDERSON_DEPTH residual differences dF (Walker & Ni, SIAM J. Numer.
    Anal. 49(4), 2011) through the normal equations dF dF^T gamma = dF f,
    solved by LU (`_gram_solve`).  A mixed iterate whose residual is
    not below that of the last accepted one is dropped with the history,
    and the plain step G of the accepted iterate is taken instead: the
    accepted residuals decrease, by at least rho after each dropped step.
    Raises NoConvergence as soon as an update is not finite, and after
    max_iter evaluations.
    """
    n = v.shape[0]
    dF = np.empty((ANDERSON_DEPTH, n))
    dG = np.empty((ANDERSON_DEPTH, n))
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))  # dF @ dF.T
    stored = slot = 0
    f_acc = g_acc = None  # residual and image of the last accepted iterate
    best = np.inf
    mixed = False
    update = np.inf
    for evaluations in range(1, max_iter + 1):
        g = G(v)
        f = g - v
        update = float(np.max(np.abs(f)))
        if update <= update_tol:
            return g, evaluations, update
        if not math.isfinite(update):
            raise NoConvergence(
                f"{label}: non-finite update after {evaluations} map evaluations",
                iterations=evaluations,
                update_norm=update,
            )
        if mixed and update >= best:
            stored = slot = 0
            v = g_acc
            mixed = False
            continue
        if f_acc is not None:
            np.subtract(f, f_acc, out=dF[slot])
            np.subtract(g, g_acc, out=dG[slot])
            stored = min(stored + 1, ANDERSON_DEPTH)
            gram[slot, :stored] = gram[:stored, slot] = dF[:stored] @ dF[slot]
            slot = (slot + 1) % ANDERSON_DEPTH
        f_acc, g_acc, best = f, g, update
        mixed = stored > 0
        if mixed:
            v = g - _gram_solve(gram[:stored, :stored], dF[:stored] @ f) @ dG[:stored]
        else:
            v = g
    raise NoConvergence(
        f"{label}: sup-norm update {update:.3e} above {update_tol:.1e} "
        f"after {max_iter} map evaluations",
        iterations=max_iter,
        update_norm=update,
    )
