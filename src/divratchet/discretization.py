"""Uniform x-grid and the discrete scheme every solver and check shares.

The nonlocal operator acting on grid functions f over [0, L] is

    (T f)(x) = lam * ( integral_0^x f(x-y) p(y) dy  +  f(0) * (1 - F(x)) )

(`ConvKernel.jump`), and the scheme residual of rate c combines it with a
slope f', which the solvers take as the upwind difference (f_{j+1} - f_j)/dx:

    residual = -(mu - c) f' + (r + lam) f - T f + h - c   (`scheme_residual`).

`equation_slope` is the f' that zeroes it and `complementarity_defect` the
breach of min(residual, v - obstacle) = 0; no other module writes these down.

Quadrature is product integration: the claim density is integrated exactly
over each cell against the piecewise-linear interpolant of f.  This keeps
all weights nonnegative (the discrete comparison principle survives), is
second-order accurate, and reproduces T(const) = lam*const to rounding,
which a sampled-density rule does not; the consistency defect of a sampled
rule shows up as a spurious far-field source and bends the solution near
the Dirichlet node.

Evaluation paths for the convolution part:
  * "recursive" - exact O(n_x) recursion, available when the density is a
                  finite exponential mixture (scipy.signal.lfilter).
  * "fft"       - zero-padded real FFT product against rfft(w), computed
                  once per FFT size and kept by the kernel.
  * "direct"    - O(n_x^2) weight convolution (np.convolve), the reference.
  * "auto"      - the kernel's choice, which every operator uses: recursive
                  when available, else fft.
All paths agree to quadrature-rounding levels and are deterministic.
S_j reads only f_0..f_j, so every path, and T, also takes a prefix
f_0..f_k (k <= n_x) and returns node values 0..k; the truncated Picard
rungs of the ladder rely on this.

The same recursion makes the frozen rung operator banded once its states
are carried as unknowns (`ConvKernel.rung_band`).  Each step of the
ladder's policy iteration factors it only up to the rung's last free
node; g, with no contact node, factors the whole band once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import lfilter

from .errors import ValidationError
from .model import ClaimDistribution, ModelParams


@dataclass(frozen=True)
class Grid:
    """Uniform grid x_j = j*dx on [0, L] with n_x intervals (n_x+1 nodes)."""

    L: float
    n_x: int

    def __post_init__(self):
        if not 0 < self.L < np.inf:
            raise ValidationError("grid.L must be positive and finite")
        if not (isinstance(self.n_x, (int, np.integer)) and self.n_x >= 64):
            raise ValidationError("grid.n_x must be an integer >= 64")

    @property
    def dx(self) -> float:
        return self.L / self.n_x

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_x + 1) * self.dx


class ConvKernel:
    """Precomputed product-integration data for one (distribution, grid).

    Cell m covers [(m-1)dx, m*dx].  With M0_m its density mass and M1_m its
    first moment, the rising/falling hat weights are
        a_m = (M1_m - (m-1)dx*M0_m)/dx,   b_m = (m*dx*M0_m - M1_m)/dx,
    and  S_j = sum_{k<j} [f_k a_{j-k} + f_{k+1} b_{j-k}]
             = (f * w)_j - b_{j+1} f_0,     w_0 = b_1, w_m = a_m + b_{m+1}.
    """

    def __init__(self, dist: ClaimDistribution, grid: Grid):
        self.grid = grid
        n = grid.n_x
        dx = grid.dx
        edges = np.arange(n + 2) * dx
        cdf_e = np.asarray(dist.cdf(edges), float)
        pm_e = np.asarray(dist.partial_moment(edges), float)
        m0 = np.diff(cdf_e)
        m1 = np.diff(pm_e)
        midx = np.arange(1, n + 2)
        a = (m1 - (midx - 1) * dx * m0) / dx
        # derive b from the exact cell mass so a_m + b_m = m0_m holds
        # bitwise; independent formulas leave ~eps*gamma/dx noise per cell
        # that no longer cancels once the weights are clipped nonnegative,
        # biasing T on constants
        a = np.clip(a, 0.0, m0)
        b = m0 - a
        w = np.empty(n + 1)
        w[0] = b[0]
        w[1:] = a[:n] + b[1:n + 1]
        self.w = w
        self._w_hat = {}  # FFT size -> rfft of its half-length prefix of w
        self.b_corr = b  # b_corr[j] = b_{j+1}, the f_0 over-count in (f * w)_j
        self.tail = 1.0 - cdf_e[: n + 1]
        comps = dist.exp_components()
        if comps is None:
            self._rec = None
        else:
            weights, means = comps
            rec = []
            for wk, gk in zip(weights, means):
                q = float(np.exp(-dx / gk))
                one_minus_q = -float(np.expm1(-dx / gk))
                bk = 1.0 - (gk / dx) * one_minus_q
                ak = one_minus_q - bk
                qpow = q ** np.arange(n + 1)
                rec.append((float(wk), q, ak, bk, qpow))
            self._rec = rec

    def has_recursion(self) -> bool:
        return self._rec is not None

    def rung_band(self, a: float, b: float, lam: float, ab: np.ndarray | None = None):
        """Frozen rung operator in banded form on augmented unknowns.

        Needs an exponential-mixture density.  Node j carries the block
        [v_j, z^1_j, ..., z^K_j] (stride K + 1), where z^k is the recursion
        state of component k and S_j = sum_k w_k z^k_j:

            z^k_j - q_k z^k_{j-1} - b_k v_j - a_k v_{j-1} = 0   (j >= 1),
            z^k_0 = 0,
            b v_j - a v_{j+1} - lam sum_k w_k z^k_j             (j < n_x),
            v_{n_x}                                             (Dirichlet).

        The reflected tail lam (1 - F(x_j)) v_0 is the one dense column and
        is left out for the caller to border.  Returns (ab, (l, u), stride)
        with ab in the Fortran-ordered layout of LAPACK gbsv: l spare rows
        for the LU fill-in above the l + u + 1 diagonals, A[i, j] at
        ab[l + u + i - j, j].  Only the b and -a diagonals of the v rows
        depend on the rate: given the ab of an earlier call with the same
        lam, only they are rewritten, in place.
        """
        if self._rec is None:
            raise ValidationError("a banded rung operator needs an exponential-mixture density")
        n = self.grid.n_x
        K = len(self._rec)
        stride = K + 1
        l, u = 2 * K + 1, K + 1
        diag = l + u

        def put(rows, off, val):  # A[row, row + off] = val
            ab[diag - off, rows + off] = val

        v_rows = np.arange(n) * stride
        if ab is None:
            ab = np.zeros((2 * l + u + 1, (n + 1) * stride), order="F")
            ab[diag, n * stride] = 1.0
            for k, (wk, q, ak, bk, _) in enumerate(self._rec, 1):
                put(v_rows, k, -lam * wk)
                ab[diag, k] = 1.0
                z_rows = np.arange(1, n + 1) * stride + k
                put(z_rows, 0, 1.0)
                put(z_rows, -stride, -q)
                put(z_rows, -k, -bk)
                put(z_rows, -k - stride, -ak)
        put(v_rows, 0, b)
        put(v_rows, stride, -a)
        return ab, (l, u), stride

    def convolve(self, f: np.ndarray, method: str = "auto") -> np.ndarray:
        """S_j = integral_0^{x_j} f~(x_j - y) p(y) dy with f~ the linear
        interpolant of f; S_0 = 0, by a path of the module docstring.

        f may be any prefix f_0..f_k of a grid function (k <= n_x); the
        result is then S_0..S_k.
        """
        k = f.shape[0] - 1
        if method == "auto":
            method = "recursive" if self._rec is not None else "fft"
        if method == "recursive":
            if self._rec is None:
                raise ValidationError("recursive convolution needs an exponential-mixture density")
            s = np.zeros(k + 1)
            for wk, q, ak, bk, qpow in self._rec:
                y = lfilter([bk, ak], [1.0, -q], f)
                s += wk * (y - (bk * f[0]) * qpow[: k + 1])
            return s
        if method == "direct":
            full = np.convolve(f, self.w[: k + 1])
        elif method == "fft":
            # k < nfft/2, so f times w_0..w_{nfft/2 - 1} does not wrap
            # around in nfft points, and S_0..S_k read only w_0..w_k.  So
            # one transform per FFT size serves every prefix length that
            # maps to it; at k = n_x it covers all of w.
            nfft = 2 << k.bit_length()
            w_hat = self._w_hat.get(nfft)
            if w_hat is None:
                w_hat = self._w_hat[nfft] = np.fft.rfft(self.w[: nfft // 2], nfft)
            full = np.fft.irfft(np.fft.rfft(f, nfft) * w_hat, nfft)
        else:
            raise ValidationError(f"unknown convolution method {method!r}")
        return full[: k + 1] - self.b_corr[: k + 1] * f[0]

    def jump(self, f: np.ndarray, lam: float) -> np.ndarray:
        """T f with reflection at zero, lam * (S_j + f_0 (1 - F(x_j))), so
        T(const K) = lam*K; on any prefix f_0..f_k, as `convolve`."""
        return lam * (self.convolve(f) + f[0] * self.tail[: f.shape[0]])


@lru_cache(maxsize=64)
def get_kernel(dist: ClaimDistribution, grid: Grid) -> ConvKernel:
    """Cached ConvKernel for (dist, grid)."""
    return ConvKernel(dist, grid)


def scheme_residual(
    v: np.ndarray,
    v_prime: np.ndarray,
    c: float,
    m: ModelParams,
    kern: ConvKernel,
    h: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(T v, residual at nodes 0..k-1) for the k slopes in v_prime, with v
    on all n_x + 1 nodes, h = h_eval on the nodes and c below mu."""
    if np.shape(v) != kern.tail.shape:
        raise ValidationError(f"need {kern.tail.size} node values, got shape {np.shape(v)}")
    if not c < m.mu:
        raise ValidationError("rate must stay below mu")
    t = kern.jump(v, m.lam)
    k = v_prime.shape[0]
    return t, -(m.mu - c) * v_prime + (m.r + m.lam) * v[:k] - t[:k] + h[:k] - c


def equation_slope(t, v, c: float, m: ModelParams, h):
    """The slope that zeroes the scheme residual of rate c, given t = T v;
    on arrays or single nodes."""
    return ((m.r + m.lam) * v - t + h - c) / (m.mu - c)


def complementarity_defect(residual: np.ndarray, gap: np.ndarray) -> float:
    """max |min(residual, gap)| over the residual's nodes: zero exactly when
    residual >= 0, gap >= 0 and one of them vanishes at each node.  gap is
    v minus its obstacle (+inf where there is none, so g reads sup|residual|)."""
    return float(np.max(np.abs(np.minimum(residual, gap[: residual.shape[0]]))))
