"""References that the package's ladder is tested against.

``reference_bordered_banded_solve`` factors the banded system over all
n_x + 1 nodes, contact rows included as identity rows v_j = psi_j, and
recovers v_0 from the border column.  `_sweep.bordered_banded_solve`
solves only the nodes up to the last free one and must return the same
bits.

``chained_slopes`` is v' as the rung solves once chained it, from each
rung's own switch mask; `ValueSurface.slopes` reads the same v' off v
alone and must return the same bits.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError

from divratchet._sweep import _GBSV
from divratchet.discretization import equation_slope, get_kernel
from divratchet.model import h_eval


def reference_bordered_banded_solve(ab, bands, stride, rhs, border, contact, psi):
    """Same arguments and result as `_sweep.bordered_banded_solve`."""
    n = contact.shape[0]
    diag = bands[0] + bands[1]
    ab = ab.copy(order="F")
    rows = np.flatnonzero(contact) * stride
    for off in range(stride + 1):  # v_j, z^1_j .. z^K_j, v_{j+1}
        ab[diag - off, rows + off] = 0.0
    ab[diag, rows] = 1.0
    b2 = np.zeros((ab.shape[1], 2), order="F")
    b2[::stride, 0] = rhs
    b2[: n * stride : stride, 1] = border
    b2[rows, 0] = psi[contact]
    b2[rows, 1] = 0.0
    _, _, x, info = _GBSV(*bands, ab, b2, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    theta = x[0, 0] / (1.0 - x[0, 1])
    v = x[::stride, 0] + theta * x[::stride, 1]
    v[:n][contact] = psi[contact]
    return v


def chained_slopes(m, d, grid, rates, slices):
    """v' of the ladder whose rungs, g first, are the `ValueSlice`s slices:
    g's forward difference with the slope that zeroes its equation at L,
    then rung by rung the previous rung's v' on the rung's switch mask and
    the slope that zeroes the rung's equation elsewhere."""
    kern, h = get_kernel(d, grid), h_eval(m, d, grid.nodes)
    n = grid.n_x
    g = slices[0].v
    t = kern.jump(g, m.lam)
    rows = [np.append(np.diff(g) / grid.dx, equation_slope(t[n], g[n], m.c_bar, m, h[n]))]
    for c, rung in zip(rates[1:].tolist(), slices[1:]):
        slope = equation_slope(kern.jump(rung.v, m.lam), rung.v, c, m, h)
        rows.append(np.where(rung.switch_mask, rows[-1], slope))
    return np.array(rows)
