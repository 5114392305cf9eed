"""Plain sequential solvers that the package's fast paths are tested against.

* ``reference_projected_sweep`` is the node-by-node Brennan-Schwartz loop
  v_j = max(alpha_j + qt*v_{j+1}, psi_j); with psi = -inf it is the
  unprojected back-substitution.
* ``reference_picard_rung`` and ``reference_picard_g`` iterate the
  frozen-T map with that loop and no acceleration, from the same start
  points as the package (the obstacle, and the constant c_bar/r), and stop
  on the same sup-norm update rule.
"""

from __future__ import annotations

import numpy as np

from divratchet.discretization import get_kernel
from divratchet.model import h_eval


def reference_projected_sweep(alpha, qt, psi, v_L):
    """Solve v_j = max(alpha_j + qt*v_{j+1}, psi_j), v_n = v_L, in order."""
    n = alpha.shape[0]
    out = np.empty(n + 1)
    out[n] = v_L
    for j in range(n - 1, -1, -1):
        out[j] = max(alpha[j] + qt * out[j + 1], psi[j])
    return out


def _plain_picard(v, sweep, update_tol, max_iter):
    for sweeps in range(1, max_iter + 1):
        v_new = sweep(v)
        update = float(np.max(np.abs(v_new - v)))
        v = v_new
        if update <= update_tol:
            return v, sweeps
    raise AssertionError(f"plain Picard did not settle in {max_iter} sweeps")


def reference_picard_rung(psi, c, m, d, grid, update_tol=1e-12, max_iter=20000):
    """Rung with rate c and obstacle psi by plain projected Picard sweeps."""
    n = grid.n_x
    kern = get_kernel(d, grid)
    h = h_eval(m, d, grid.nodes)
    a = (m.mu - c) / grid.dx
    b = a + m.r + m.lam
    qt = a / b

    def sweep(v):
        t = m.lam * (kern.convolve(v) + v[0] * kern.tail)
        return reference_projected_sweep((t[:n] - h[:n] + c) / b, qt, psi[:n], psi[n])

    return _plain_picard(psi, sweep, update_tol, max_iter)


def reference_picard_g(m, d, grid, update_tol=1e-12, max_iter=20000):
    """Cap-rate value g by plain Picard sweeps from the constant c_bar/r."""
    n = grid.n_x
    kern = get_kernel(d, grid)
    h = h_eval(m, d, grid.nodes)
    a = (m.mu - m.c_bar) / grid.dx
    b = a + m.r + m.lam
    qt = a / b
    v_L = m.c_bar / m.r
    free = np.full(n, -np.inf)

    def sweep(v):
        t = m.lam * (kern.convolve(v) + v[0] * kern.tail)
        return reference_projected_sweep((t[:n] - h[:n] + m.c_bar) / b, qt, free, v_L)

    return _plain_picard(np.full(n + 1, v_L), sweep, update_tol, max_iter)
