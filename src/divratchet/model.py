"""Model parameters and claim-size distributions.

The surplus process earns premium income mu, pays dividends at a ratcheted
rate C_t in [c, c_bar], suffers compound-Poisson claims with intensity lam,
and is kept nonnegative by capital injections priced at ell > 1 per unit.
Everything downstream consumes two objects defined here: ModelParams and a
ClaimDistribution.

Supported claim families are Exponential, HyperExponential and ShiftedPareto.
All three have positive, bounded, non-increasing densities on (0, inf) and a
finite mean, which is the admissibility class the solver relies on; arbitrary
user densities are rejected because that property cannot be checked cheaply.

The tail function

    h(x) = lam * ell * E[(Z - x)^+]

feeds every equation in the solver; it is evaluated in closed form for each
family (h(0) = lam*ell*gamma, h' = -lam*ell*(1 - F)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .errors import NoConvergence, ValidationError

ArrayLike = Union[float, np.ndarray]

#: Newton steps allowed per hyperexponential quantile draw
NEWTON_CAP = 100
#: elements per slice of a hyperexponential quantile transform; bounds the
#: Newton work arrays whatever the size of the block.  At 1 << 14 the five
#: float rows and the index row take 0.75 MB and fit a 2 MiB per-core L2
#: cache; at 1 << 16 the five rows alone take 2.6 MB and spill out of it.
SAMPLE_SLICE = 1 << 14
#: nodes of the tabulated hyperexponential quantile x(E), E = -log1p(-u),
#: uniform on [0, E_MAX]; E_MAX is E at the largest u the transform keeps
TABLE_NODES = 257
E_MAX = -math.log1p(-(1.0 - 1e-16))


@dataclass(frozen=True)
class ModelParams:
    """Economic constants of the control problem, all finite.

    Attributes:
        mu: premium income rate, mu > 0.
        lam: Poisson claim intensity, lam > 0.
        r: discount rate, r > 0.
        ell: cost per unit of injected capital, ell > 1.
        c_bar: maximal dividend rate, 0 < c_bar < mu.
        c_floor: lower end of the computed rate ladder, c_floor < c_bar.
            May be negative; the solution on rates in [0, c_bar] does not
            depend on it.
    """

    mu: float
    lam: float
    r: float
    ell: float
    c_bar: float
    c_floor: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValidationError("mu must be positive and finite")
        if not 0 < self.lam < math.inf:
            raise ValidationError("lam (lambda) must be positive and finite")
        if not 0 < self.r < math.inf:
            raise ValidationError("r must be positive and finite")
        if not 1 < self.ell < math.inf:
            raise ValidationError("ell must exceed 1 and be finite")
        if not 0 < self.c_bar < self.mu:
            raise ValidationError("c_bar must lie strictly between 0 and mu")
        if not -math.inf < self.c_floor < self.c_bar:
            raise ValidationError("c_floor must be finite and lie strictly below c_bar")


class ClaimDistribution:
    """Common interface of the supported claim-size families.

    Subclasses provide vectorized density/cdf/partial-moment evaluation,
    the mean tail integral E[(Z - x)^+], and an exact single-uniform
    sampling transform for the simulator.
    """

    kind: str = ""

    @property
    def gamma(self) -> float:
        """Mean claim size E[Z]."""
        raise NotImplementedError

    def density(self, x: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def cdf(self, x: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def partial_moment(self, x: ArrayLike) -> ArrayLike:
        """integral of t*p(t) over [0, x]; tends to gamma as x -> inf."""
        raise NotImplementedError

    def tail_mean(self, x: ArrayLike) -> ArrayLike:
        """E[(Z - x)^+] = integral of (1 - F) over [x, inf)."""
        raise NotImplementedError

    def sample_from_uniform(self, u: ArrayLike) -> ArrayLike:
        """Map U(0,1) draws to claim sizes; exact, monotone per branch.

        Elementwise: each output depends only on its own u, so transforming
        a whole block in one call gives bitwise the same sizes as one call
        per element.
        """
        raise NotImplementedError

    def exp_components(self):
        """(weights, means) when the density is a finite exponential
        mixture, else None.  Enables the O(n) convolution recursion."""
        return None


@dataclass(frozen=True)
class Exponential(ClaimDistribution):
    """Exponential claims with mean gamma_mean."""

    gamma_mean: float
    kind: str = field(default="exponential", init=False)

    def __post_init__(self):
        if not 0 < self.gamma_mean < np.inf:
            raise ValidationError("exponential mean must be positive and finite")

    @property
    def gamma(self) -> float:
        return self.gamma_mean

    def density(self, x):
        return np.exp(-np.asarray(x, float) / self.gamma_mean) / self.gamma_mean

    def cdf(self, x):
        return -np.expm1(-np.asarray(x, float) / self.gamma_mean)

    def partial_moment(self, x):
        x = np.asarray(x, float)
        g = self.gamma_mean
        return g - (x + g) * np.exp(-x / g)

    def tail_mean(self, x):
        return self.gamma_mean * np.exp(-np.asarray(x, float) / self.gamma_mean)

    def sample_from_uniform(self, u):
        # -gamma * log1p(-u) in one output array; u is left untouched
        u = np.asarray(u, float)
        out = np.negative(u, out=np.empty(u.shape))
        np.log1p(out, out=out)
        return np.multiply(out, -self.gamma_mean, out=out)

    def exp_components(self):
        return np.array([1.0]), np.array([self.gamma_mean])


@dataclass(frozen=True)
class HyperExponential(ClaimDistribution):
    """Finite mixture of exponentials: weights w_k > 0 summing to 1,
    component means gamma_k > 0."""

    weights: tuple
    means: tuple
    kind: str = field(default="hyperexponential", init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, float)
        g = np.asarray(self.means, float)
        if w.ndim != 1 or g.ndim != 1 or w.size != g.size or w.size == 0:
            raise ValidationError("weights and means must be equal-length nonempty sequences")
        if not np.all(w > 0):
            raise ValidationError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError("mixture weights must sum to 1")
        if not np.all((g > 0) & np.isfinite(g)):
            raise ValidationError("mixture means must be positive and finite")
        object.__setattr__(self, "weights", tuple(float(v) for v in w))
        object.__setattr__(self, "means", tuple(float(v) for v in g))

    @property
    def gamma(self) -> float:
        return float(np.dot(self.weights, self.means))

    def _wg(self):
        return np.asarray(self.weights), np.asarray(self.means)

    def density(self, x):
        x = np.asarray(x, float)
        w, g = self._wg()
        return np.sum(w / g * np.exp(-x[..., None] / g), axis=-1)

    def cdf(self, x):
        x = np.asarray(x, float)
        w, g = self._wg()
        return np.sum(-w * np.expm1(-x[..., None] / g), axis=-1)

    def partial_moment(self, x):
        x = np.asarray(x, float)
        w, g = self._wg()
        return np.sum(w * (g - (x[..., None] + g) * np.exp(-x[..., None] / g)), axis=-1)

    def tail_mean(self, x):
        x = np.asarray(x, float)
        w, g = self._wg()
        return np.sum(w * g * np.exp(-x[..., None] / g), axis=-1)

    def sample_from_uniform(self, u):
        # True quantile function, so common random numbers couple
        # monotonically across distributions.  The transform is elementwise,
        # so the flattened input is taken in slices of SAMPLE_SLICE, which
        # share one set of work arrays.
        u = np.asarray(u, float)
        flat = u.ravel()
        x = np.empty(flat.size)
        n = min(flat.size, SAMPLE_SLICE)
        work, idx = np.empty((5, n)), np.empty(n, np.intp)
        for lo in range(0, flat.size, SAMPLE_SLICE):
            self._quantile(flat[lo : lo + SAMPLE_SLICE], x[lo : lo + SAMPLE_SLICE], work, idx)
        return x[0] if u.ndim == 0 else x.reshape(u.shape)

    def _quantile(self, u, x, work, idx):
        # x solves log S(x) = log1p(-u) =: -E for the survival
        # S = sum w_k exp(-x/g_k), by Newton from a lower bound of the root.
        # A finite exponential mixture has a decreasing hazard, so
        # E(x) = -log S(x) is concave and its inverse x(E) is convex: every
        # tangent of x(E) lies below it.  The start is the larger of the
        # tangents at the two table nodes around E (`_tangents`), shrunk by
        # 1e-12 of itself to cover the rounding of the table and of the
        # tangent.
        target = np.clip(u, 0.0, 1.0 - 1e-16, out=work[0, : u.size])
        np.negative(target, out=target)
        np.log1p(target, out=target)
        self._tangent_start(target, x, work[1:3, : u.size], idx[: u.size])
        self._newton(target, x, work[1:])

    def _tangent_start(self, target, x, work, idx):
        # the start of `_quantile` into x, from target = -E
        inter, slope = self._tangents
        e, lo = work
        # node below E; fmin also sends a NaN to the last interval
        np.multiply(target, -(TABLE_NODES - 1) / E_MAX, out=e)
        np.fmin(e, TABLE_NODES - 2, out=e)
        np.copyto(idx, e, casting="unsafe")  # floor, as E >= 0
        # inter_j + slope_j E, written with target = -E
        np.take(slope, idx, out=e)
        e *= target
        np.take(inter, idx, out=lo)
        lo -= e
        idx += 1
        np.take(slope, idx, out=e)
        e *= target
        np.take(inter, idx, out=x)
        x -= e
        np.maximum(x, lo, out=x)
        x *= 1.0 - 1e-12

    @cached_property
    def _tangents(self):
        """(intercept, slope) of the tangents of x(E) at TABLE_NODES
        uniform nodes on [0, E_MAX]; built on first use."""
        # the roots are solved in E, not in u = -expm1(-E), which rounds
        # near u = 1
        e_nodes = np.linspace(0.0, E_MAX, TABLE_NODES)
        w, g = self._wg()
        g_max = g.max()
        # S(x) >= w_top exp(-x/g_max) makes this a lower bound of the root
        x = np.maximum(0.0, g_max * (math.log(w[g == g_max].sum()) + e_nodes))
        self._newton(-e_nodes, x, np.empty((4, x.size)))
        # dx/dE = S / sum (w_k/g_k) exp(-x/g_k), in the scaled terms
        terms = w * np.exp(x[:, None] * (1.0 / g_max - 1.0 / g))
        slope = terms.sum(axis=1) / (terms / g).sum(axis=1)
        return x - slope * e_nodes, slope

    def _newton(self, target, x, work):
        # Newton solves log S(x) = target, with log S evaluated as
        # -x/g_max + log sum w_k exp(-x (1/g_k - 1/g_max)) so that it
        # neither underflows nor cancels in the tail.  log S is convex and
        # decreasing, so from a lower bound of the root the iterates rise
        # monotonically.  Each element leaves the active set on its own
        # stopping test.  A largest-mean component has slope 0, so its term
        # is the constant w_k and needs no exp.  While every element is
        # active the step works on x itself, and every work array is a row
        # of work.
        g_max = max(self.means)
        (w0, g0, slope0), *rest = [
            (wk, gk, 1.0 / g_max - 1.0 / gk) for wk, gk in zip(self.weights, self.means)
        ]
        active = None  # every element
        xa, ta = x, target
        for _ in range(NEWTON_CAP):
            n = xa.size
            e, s, hs, step = work[:, :n]
            if slope0 == 0.0:
                s.fill(w0)
                hs.fill(w0 / g0)
            else:
                np.multiply(xa, slope0, out=e)
                np.exp(e, out=e)
                np.multiply(e, w0, out=s)
                np.divide(s, g0, out=hs)
            for wk, gk, neg_slope in rest:
                if neg_slope == 0.0:
                    s += wk
                    hs += wk / gk
                else:
                    np.multiply(xa, neg_slope, out=e)
                    np.exp(e, out=e)
                    e *= wk
                    s += e
                    e /= gk
                    hs += e
            # step = (log S - target) / hazard, clipped at 0 against rounding
            np.log(s, out=step)
            step -= np.divide(xa, g_max, out=e)
            step -= ta
            step *= s
            step /= hs
            np.maximum(step, 0.0, out=step)
            xa += step
            np.add(xa, 1.0, out=e)
            e *= 1e-14
            more = step > e
            if active is None:
                if more.all():
                    continue
                active = more.nonzero()[0]
            else:
                x[active] = xa
                active = active[more]
            if active.size == 0:
                return
            xa, ta = x[active], target[active]
        raise NoConvergence(
            f"hyperexponential quantile: {xa.size} draws unconverged "
            f"after {NEWTON_CAP} Newton steps",
            iterations=NEWTON_CAP,
        )

    def exp_components(self):
        return np.asarray(self.weights), np.asarray(self.means)


@dataclass(frozen=True)
class ShiftedPareto(ClaimDistribution):
    """Pareto density shifted to the origin: p(x) = alpha*theta^alpha /
    (x + theta)^(alpha + 1), alpha > 1 for a finite mean."""

    alpha: float
    theta: float
    kind: str = field(default="shifted_pareto", init=False)

    def __post_init__(self):
        if not 1 < self.alpha < math.inf:
            raise ValidationError("pareto alpha must be finite and exceed 1 (finite mean)")
        if not 0 < self.theta < math.inf:
            raise ValidationError("pareto theta must be positive and finite")

    @property
    def gamma(self) -> float:
        return self.theta / (self.alpha - 1.0)

    def density(self, x):
        x = np.asarray(x, float)
        return self.alpha * self.theta**self.alpha / (x + self.theta) ** (self.alpha + 1.0)

    def cdf(self, x):
        x = np.asarray(x, float)
        return 1.0 - (self.theta / (x + self.theta)) ** self.alpha

    def partial_moment(self, x):
        x = np.asarray(x, float)
        a, th = self.alpha, self.theta
        u = x + th
        val = a * th**a * (u ** (1.0 - a) / (1.0 - a) + th * u**-a / a)
        return val + th / (a - 1.0)

    def tail_mean(self, x):
        x = np.asarray(x, float)
        a, th = self.alpha, self.theta
        return th**a * (x + th) ** (1.0 - a) / (a - 1.0)

    def sample_from_uniform(self, u):
        u = np.asarray(u, float)
        return self.theta * ((1.0 - u) ** (-1.0 / self.alpha) - 1.0)


def h_eval(m: ModelParams, d: ClaimDistribution, x: ArrayLike) -> ArrayLike:
    """Tail cost h(x) = lam * ell * E[(Z - x)^+].

    h(0) = lam*ell*gamma, h is non-increasing and convex with
    h'(x) = -lam*ell*(1 - F(x)), and 0 <= h <= lam*ell*gamma.
    """
    return m.lam * m.ell * d.tail_mean(x)


def as_number(val, name: str, cast=float):
    """val as cast (float or int), or ValidationError naming it: a bool is
    no number, and int() must not truncate a fractional float."""
    if not isinstance(val, bool) and not (cast is int and isinstance(val, float) and val % 1):
        try:
            return cast(val)
        except (TypeError, ValueError):
            pass
    kind = "an integer" if cast is int else "a number"
    raise ValidationError(f"{name} must be {kind}, got {val!r}")


def make_distribution(kind: str, params: dict) -> ClaimDistribution:
    """Build a ClaimDistribution from config-style (kind, params).

    Kinds: "exponential" {gamma}, "hyperexponential" {weights, means},
    "shifted_pareto" {alpha, theta}.  Each value passes `as_number`; weights
    and means are lists (never a string) of such values.
    """
    kind = str(kind).lower()

    def num(key):
        return as_number(params[key], f"claims.{key}")

    def nums(key):
        val = params[key]
        if not isinstance(val, (list, tuple)):
            raise ValidationError(f"claims.{key} must be a list of numbers, got {val!r}")
        return tuple(as_number(x, f"claims.{key}[{i}]") for i, x in enumerate(val))

    try:
        if kind == "exponential":
            return Exponential(gamma_mean=num("gamma"))
        if kind == "hyperexponential":
            return HyperExponential(weights=nums("weights"), means=nums("means"))
        if kind == "shifted_pareto":
            return ShiftedPareto(alpha=num("alpha"), theta=num("theta"))
    except KeyError as e:
        raise ValidationError(f"claims.params missing key {e.args[0]!r} for kind {kind!r}") from None
    raise ValidationError(
        f"unknown claims.kind {kind!r}; expected exponential, hyperexponential or shifted_pareto"
    )
