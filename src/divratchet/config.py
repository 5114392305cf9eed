"""Run configuration: YAML loading, validation, and canonical hashing.

The params hash covers every numeric input that changes solver output
(model, claims, grid, ladder, solver update tolerance) and
deliberately excludes seed, path count, horizon, and output paths, which
affect only simulation estimates, never the cached surface.  It is salted
with SURFACE_FORMAT, the version of the cache layout, so a cache of
another layout is never looked up.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import yaml

from .discretization import Grid
from .errors import ParseError, ValidationError
from .ladder import RateLadder
from .model import (
    ClaimDistribution,
    Exponential,
    HyperExponential,
    ModelParams,
    ShiftedPareto,
    as_number,
    make_distribution,
)

#: the format of a stored surface: the cache layout version and the salt of
#: the params hash, so a format change also renames every cache file
SURFACE_FORMAT = 2

#: the keys each config section reads; the claims keys follow claims.kind
_KEYS = {
    "model": ("mu", "lam", "r", "ell", "c_bar", "c_floor"),
    "grid": ("L", "n_x"),
    "ladder": ("n",),
    "solver": ("update_tol",),
    "simulate": ("paths", "seed", "horizon"),
    "output": ("dir",),
}


def claims_spec(d: ClaimDistribution) -> tuple[str, dict]:
    """Config-style (kind, params) for a distribution, inverse of
    make_distribution."""
    if isinstance(d, Exponential):
        return "exponential", {"gamma": d.gamma_mean}
    if isinstance(d, HyperExponential):
        return "hyperexponential", {
            "weights": list(d.weights),
            "means": list(d.means),
        }
    if isinstance(d, ShiftedPareto):
        return "shifted_pareto", {"alpha": d.alpha, "theta": d.theta}
    raise ValidationError(f"unknown claim distribution type {type(d).__name__}")


@dataclass
class RunConfig:
    """Validated inputs for one solver/simulation run."""

    model: ModelParams
    claims: ClaimDistribution
    grid: Grid
    ladder: RateLadder
    update_tol: float = 1e-10
    paths: int = 100000
    seed: int = 20240901
    horizon: float | None = None
    out_dir: str = "."

    def __post_init__(self):
        if not 0 < self.update_tol < math.inf:
            raise ValidationError("solver.update_tol must be positive and finite")
        if self.paths < 2:
            raise ValidationError("simulate.paths must be at least 2")
        if self.seed < 0:
            raise ValidationError("simulate.seed must be non-negative")
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            raise ValidationError("simulate.horizon must be finite and positive when set")
        if not isinstance(self.out_dir, str):
            raise ValidationError(f"output.dir must be a string, got {self.out_dir!r}")
        if self.ladder.c_bar != self.model.c_bar or self.ladder.c_floor != self.model.c_floor:
            raise ValidationError("ladder endpoints must match the model's rate window")

    @property
    def params_hash(self) -> str:
        """sha256 over the canonical little-endian packing of all numeric
        fields that determine the solved surface."""
        m = self.model
        buf = bytearray(f"divratchet-surface-v{SURFACE_FORMAT}".encode())
        buf += struct.pack(
            "<6d", m.mu, m.lam, m.r, m.ell, m.c_bar, m.c_floor
        )
        kind, params = claims_spec(self.claims)
        buf += kind.encode()
        for key in sorted(params):
            val = params[key]
            vals = val if isinstance(val, (list, tuple)) else [val]
            buf += key.encode()
            buf += struct.pack(f"<{len(vals)}d", *[float(x) for x in vals])
        buf += struct.pack("<dQQ", self.grid.L, self.grid.n_x, self.ladder.n)
        buf += struct.pack("<d", self.update_tol)
        return hashlib.sha256(bytes(buf)).hexdigest()


def _reject_unknown(sec: dict, known, prefix: str, where: str = "") -> None:
    unknown = [prefix + str(k) for k in sec if k not in known]
    if unknown:
        raise ValidationError(f"unknown config key {', '.join(unknown)}{where}")


def _section(doc: dict, name: str, required: bool = True) -> dict:
    sec = doc.get(name)
    if sec is None:
        if required:
            raise ValidationError(f"missing config section {name!r}")
        return {}
    if not isinstance(sec, dict):
        raise ValidationError(f"config section {name!r} must be a mapping")
    if name in _KEYS:
        _reject_unknown(sec, _KEYS[name], f"{name}.")
    return sec


def _num(sec: dict, section: str, key: str, cast=float, default=None):
    if key not in sec:
        if default is not None:
            return default
        raise ValidationError(f"{section}.{key} is required")
    return as_number(sec[key], f"{section}.{key}", cast)


def read_config_mapping(path: str) -> dict:
    """The top-level mapping of a YAML config file; raises ParseError when
    the file cannot be read or parsed or is not a mapping.  Parses with
    libyaml's safe loader when PyYAML was built with it (several times faster),
    else with the pure-Python safe loader; both build the same mapping."""
    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=loader)
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}") from None
    except yaml.YAMLError as e:
        raise ParseError(f"cannot parse config {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"config {path} must be a YAML mapping")
    return doc


def load_config(path: str) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    return config_from_mapping(read_config_mapping(path))


def config_from_mapping(doc: dict) -> RunConfig:
    """Validate an already-parsed configuration mapping; a key that no
    section or claims kind reads is a ValidationError."""
    _reject_unknown(doc, (*_KEYS, "claims"), "")
    msec = _section(doc, "model")
    model = ModelParams(
        mu=_num(msec, "model", "mu"),
        lam=_num(msec, "model", "lam"),
        r=_num(msec, "model", "r"),
        ell=_num(msec, "model", "ell"),
        c_bar=_num(msec, "model", "c_bar"),
        c_floor=_num(msec, "model", "c_floor", default=0.0),
    )

    csec = _section(doc, "claims")
    if "kind" not in csec:
        raise ValidationError("claims.kind is required")
    params = {k: v for k, v in csec.items() if k != "kind"}
    claims = make_distribution(csec["kind"], params)
    kind, known = claims_spec(claims)
    _reject_unknown(params, known, "claims.", f" for claims.kind {kind!r}")

    gsec = _section(doc, "grid")
    grid = Grid(
        L=_num(gsec, "grid", "L"),
        n_x=_num(gsec, "grid", "n_x", cast=int),
    )

    lsec = _section(doc, "ladder")
    ladder = RateLadder(
        c_bar=model.c_bar,
        c_floor=model.c_floor,
        n=_num(lsec, "ladder", "n", cast=int),
    )

    ssec = _section(doc, "solver", required=False)
    simsec = _section(doc, "simulate", required=False)
    osec = _section(doc, "output", required=False)
    horizon = simsec.get("horizon")
    if horizon is not None:
        horizon = _num(simsec, "simulate", "horizon")

    return RunConfig(
        model=model,
        claims=claims,
        grid=grid,
        ladder=ladder,
        update_tol=_num(ssec, "solver", "update_tol", default=1e-10),
        paths=_num(simsec, "simulate", "paths", cast=int, default=100000),
        seed=_num(simsec, "simulate", "seed", cast=int, default=20240901),
        horizon=horizon,
        out_dir="." if osec.get("dir") is None else osec["dir"],
    )
