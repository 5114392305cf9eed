"""Linear and obstacle solves for the upwind transport systems.

Two ways to solve a rung of the rate ladder, chosen by the claim family:

* Picard (any claim density; the only path for shifted Pareto).  Each
  stage freezes the nonlocal term and leaves a bidiagonal system

      b v_j = a v_{j+1} + phi_j   (interior j),    v_{n_x} = v_L,

  with a = (mu - c)/dx and b = a + r + lam, i.e. v_j = alpha_j + qt v_{j+1}
  with alpha = phi/b, qt = a/b in (0, 1).  The obstacle variant replaces the
  affine step by v_j = max(alpha_j + qt v_{j+1}, psi_j), which solves the
  frozen complementarity system exactly whenever the active set is an
  upper set in x (Brennan-Schwartz sweep).  `projected_backward_scan`
  evaluates that recursion with O(log n) numpy passes: the map
  v -> max(A + Q v, P) is closed under composition,

      (A1,Q1,P1) o (A2,Q2,P2) = (A1 + Q1 A2, Q1 Q2, max(A1 + Q1 P2, P1)),

  so a Hillis-Steele suffix scan composes all node maps and then applies
  the boundary value once.  `reference_projected_sweep` is the plain loop
  kept as the test oracle.  `backward_linear_solve` is the unprojected
  stage used by the cap-rate solve.

* Policy iteration (exponential-mixture densities).  The whole rung
  operator, nonlocal term included, is banded on the augmented unknowns of
  `ConvKernel.rung_band` except for the reflected-tail column
  border_j * v_0.  `bordered_banded_solve` solves one frozen-policy system
  (contact rows are identity rows v_j = psi_j) in O(n_x): with x_r and x_t
  the banded solutions for the right-hand side and for the border column,
  v = x_r + theta x_t and theta = v_0 gives theta = x_r[0] / (1 - x_t[0]).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded
from scipy.signal import lfilter


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

    alpha and psi hold the interior coefficients (length n).  Exact (up to
    rounding) reformulation of the sequential recursion; every output node
    satisfies v_j >= psi_j by construction.
    """
    n = alpha.shape[0]
    a = alpha.astype(float, copy=True)
    q = np.full(n, qt)
    p = psi.astype(float, copy=True)
    s = 1
    while s < n:
        head = n - s
        a_new = a.copy()
        q_new = q.copy()
        p_new = p.copy()
        a_new[:head] = a[:head] + q[:head] * a[s:]
        p_new[:head] = np.maximum(a[:head] + q[:head] * p[s:], p[:head])
        q_new[:head] = q[:head] * q[s:]
        a, q, p = a_new, q_new, p_new
        s <<= 1
    out = np.empty(n + 1)
    out[:n] = np.maximum(a + q * v_L, p)
    out[n] = v_L
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

    ab, bands and stride come from `ConvKernel.rung_band`.  rhs holds the
    n+1 right-hand sides of the v rows, border the n coefficients of v_0
    moved to the right of the equation rows.  Rows where the length-n mask
    contact holds become v_j = psi_j; those nodes are returned equal to
    psi bitwise.
    """
    n = contact.shape[0]
    u = bands[1]
    ab = ab.copy()
    rows = np.flatnonzero(contact) * stride
    for off in range(stride + 1):  # v_j, z^1_j .. z^K_j, v_{j+1}
        ab[u - off, rows + off] = 0.0
    ab[u, rows] = 1.0
    b2 = np.zeros((ab.shape[1], 2))
    b2[::stride, 0] = rhs
    b2[: n * stride : stride, 1] = border
    b2[rows, 0] = psi[contact]
    b2[rows, 1] = 0.0
    x = solve_banded(bands, ab, b2, overwrite_ab=True, overwrite_b=True, check_finite=False)
    theta = x[0, 0] / (1.0 - x[0, 1])
    v = x[::stride, 0] + theta * x[::stride, 1]
    v[:n][contact] = psi[contact]
    return v


def reference_projected_sweep(
    alpha: np.ndarray, qt: float, psi: np.ndarray, v_L: float
) -> np.ndarray:
    """Sequential form of `projected_backward_scan`; test oracle."""
    n = alpha.shape[0]
    out = np.empty(n + 1)
    out[n] = v_L
    for j in range(n - 1, -1, -1):
        out[j] = max(alpha[j] + qt * out[j + 1], psi[j])
    return out
