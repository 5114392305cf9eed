"""Dividend ratcheting with capital injections: solver and verification toolkit."""

from .errors import (
    CacheError,
    DivRatchetError,
    DomainTooSmall,
    NoConvergence,
    ParseError,
    RateOutOfRange,
    ValidationError,
)
from .model import (
    ClaimDistribution,
    Exponential,
    HyperExponential,
    ModelParams,
    ShiftedPareto,
    h_eval,
    make_distribution,
)
from .discretization import Grid, scheme_residual
from .ladder import (
    RateLadder,
    ValueSlice,
    slope_growth_bound,
    solve_g,
    solve_ladder,
    solve_rung,
)
from .surface import (
    FreeBoundaryCurve,
    ValueSurface,
    build_rate_map,
    extract_boundary,
    ratchet_thresholds,
)
from .simulate import (
    PayoffEstimate,
    default_horizon,
    estimate_constant_payoff,
    estimate_ratchet_payoff,
    estimate_strategies,
)
from .verify import (
    Certificate,
    CheckResult,
    calibrate_eps_disc,
    mc_cross_check,
    run_invariant_suite,
)
from .config import RunConfig, claims_spec, config_from_mapping, load_config
from .cache import read_surface, write_surface

__version__ = "0.1.0"

__all__ = [
    "CacheError",
    "Certificate",
    "CheckResult",
    "ClaimDistribution",
    "DivRatchetError",
    "DomainTooSmall",
    "Exponential",
    "FreeBoundaryCurve",
    "Grid",
    "HyperExponential",
    "ModelParams",
    "NoConvergence",
    "ParseError",
    "PayoffEstimate",
    "RateLadder",
    "RateOutOfRange",
    "RunConfig",
    "ShiftedPareto",
    "ValidationError",
    "ValueSlice",
    "ValueSurface",
    "build_rate_map",
    "calibrate_eps_disc",
    "claims_spec",
    "config_from_mapping",
    "default_horizon",
    "estimate_constant_payoff",
    "estimate_ratchet_payoff",
    "estimate_strategies",
    "extract_boundary",
    "h_eval",
    "load_config",
    "make_distribution",
    "mc_cross_check",
    "ratchet_thresholds",
    "read_surface",
    "run_invariant_suite",
    "scheme_residual",
    "slope_growth_bound",
    "solve_g",
    "solve_ladder",
    "solve_rung",
    "write_surface",
    "__version__",
]
