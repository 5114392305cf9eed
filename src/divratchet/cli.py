"""Command-line front end.

Subcommands: boundary, solve, boundary-curve, rate-map, simulate, verify,
sweep.  Every run starts from a YAML config (--config); results go to
--out or stdout.  CSV floats are written as their repr, which round-trips
exactly, with a fixed "\n" terminator so repeated runs are byte-identical;
the grid tables format that text once per run of bitwise-equal cells along
a row, since a contact region repeats one value across its rungs.  Progress
and cache notices go to stderr only.  verify prices its discretization
budget from the solved surface unless --eps-disc gives it.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .cache import read_surface, write_surface
from .config import RunConfig, _section, config_from_mapping, load_config, read_config_mapping
from .discretization import get_kernel, scheme_residual
from .errors import DivRatchetError, ValidationError
from .ladder import solve_g, solve_ladder
from .model import h_eval
from .surface import (
    ValueSurface,
    build_rate_map,
    cap_slope,
    extract_boundary,
    ratchet_thresholds,
    rung_index,
)
from . import simulate as sim
from .verify import (
    Certificate,
    calibrate_eps_disc,
    mc_cross_check,
    run_invariant_suite,
)


#: rows per block of a float table.  A block's arrays are new memory at the
#: end of a solve, where the process's RSS peaks, so blocks stay small: at
#: 1001 x 66 cells the RSS grew by about 0.6 MB across a write in 64-row
#: blocks and by about 0.15 MB in 16-row blocks
_BLOCK_ROWS = 16


def _float_table_lines(table: np.ndarray):
    """CSV lines of a float64 table, each cell written as its repr.

    A block of rows at a time: a cell whose int64 bit pattern equals its
    left neighbour's repeats that neighbour's text, so repr runs once per
    run of bitwise-equal cells (bits, not ==, so -0.0 beside 0.0 and NaNs
    keep their own text).
    """
    for lo in range(0, table.shape[0], _BLOCK_ROWS):
        part = table[lo:lo + _BLOCK_ROWS]
        bits = part.view(np.int64)
        head = np.ones(part.shape, dtype=bool)
        np.not_equal(bits[:, 1:], bits[:, :-1], out=head[:, 1:])
        text = np.array([repr(v) for v in part[head].tolist()], dtype=object)
        cells = text[np.cumsum(head).reshape(part.shape) - 1]
        yield from (",".join(row) + "\n" for row in cells.tolist())


def _write_rows(out_path: str | None, header: list, rows) -> None:
    """CSV of a header and rows, each value written as its repr, which
    round-trips exactly.

    rows is a contiguous (rows x cols) float64 array (the grid tables,
    formatted once per run of bitwise-equal cells along a row) or an
    iterable of rows of builtin floats and ints.
    """

    def emit(fh):
        csv.writer(fh, lineterminator="\n").writerow(header)
        if isinstance(rows, np.ndarray):
            fh.writelines(_float_table_lines(rows))
        else:
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)

    if out_path is None:
        emit(sys.stdout)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            emit(fh)


def _write_text(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def cache_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.out_dir, f"surface-{cfg.params_hash[:16]}.bin")


def load_or_solve(cfg: RunConfig, force: bool = False):
    """Surface for the config, from the cache when the hash matches."""
    path = cache_path(cfg)
    if not force and os.path.exists(path):
        surface, _ = read_surface(path)
        if surface.params_hash == cfg.params_hash:
            print(f"cache hit: {path}", file=sys.stderr)
            return surface
        print(f"cache stale (hash mismatch), re-solving: {path}", file=sys.stderr)
    surface = solve_ladder(cfg.model, cfg.claims, cfg.grid, cfg.ladder, update_tol=cfg.update_tol)
    surface.params_hash = cfg.params_hash
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
    write_surface(path, surface)
    return surface


def cmd_boundary(args) -> int:
    cfg = load_config(args.config)
    m, d, grid = cfg.model, cfg.claims, cfg.grid
    g = solve_g(m, d, grid, update_tol=cfg.update_tol)
    kern, h = get_kernel(d, grid), h_eval(m, d, grid.nodes)
    g_prime, _ = cap_slope(g.v, m, kern, h)
    _, residual = scheme_residual(g.v, g_prime, m.c_bar, m, kern, h)
    rows = np.column_stack((grid.nodes, g.v, g_prime, residual))
    _write_rows(args.out, ["x", "g", "g_prime", "residual"], rows)
    return 0


def _surface_csv_rows(surface: ValueSurface, values):
    """One row per node: x, then the value at every rung."""
    return np.column_stack((surface.grid.nodes, values.T))


def _rate_header(surface: ValueSurface) -> list:
    return ["x"] + [f"c={float(r)!r}" for r in surface.rates.tolist()]


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    surface = load_or_solve(cfg, force=args.force)
    _write_rows(args.out, _rate_header(surface), _surface_csv_rows(surface, surface.v))
    return 0


def cmd_boundary_curve(args) -> int:
    cfg = load_config(args.config)
    surface = load_or_solve(cfg, force=args.force)
    curve = extract_boundary(surface)
    rows = zip(
        curve.rates.tolist(),
        curve.x_star.tolist(),
        curve.gradient_at_zero.tolist(),
        curve.up_closure_violations.tolist(),
    )
    _write_rows(
        args.out,
        ["rate", "x_star", "gradient_at_zero", "up_closure_violations"],
        rows,
    )
    return 0


def cmd_rate_map(args) -> int:
    cfg = load_config(args.config)
    surface = load_or_solve(cfg, force=args.force)
    rows = _surface_csv_rows(surface, build_rate_map(surface))
    _write_rows(args.out, _rate_header(surface), rows)
    return 0


def _parse_strategy(text: str):
    if text in ("boundary", "ratchet"):
        return text, None
    if text.startswith("constant:"):
        try:
            return "constant", float(text.split(":", 1)[1])
        except ValueError:
            raise ValidationError(
                f"constant strategy needs a numeric rate, got {text!r}"
            ) from None
    raise ValidationError(
        f"unknown strategy {text!r}; expected boundary, ratchet or constant:<rate>"
    )


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    kind, rate = _parse_strategy(args.strategy)
    # the overrides pass RunConfig's checks, and the start point its own,
    # before the ratchet's surface is solved
    over = {k: getattr(args, k) for k in ("paths", "seed", "horizon")}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in over.items() if v is not None})
    x0 = args.x0
    c0 = args.c0 if args.c0 is not None else cfg.model.c_floor
    if not (math.isfinite(x0) and math.isfinite(c0)):
        raise ValidationError("--x0 and --c0 must be finite")
    m, d, seed = cfg.model, cfg.claims, cfg.seed

    if kind == "ratchet":
        rung_index(cfg.ladder.rates, c0)  # RateOutOfRange outside the window
        surface = load_or_solve(cfg, force=args.force)
        est, payoffs = sim.estimate_ratchet_payoff(
            m, d, ratchet_thresholds(surface), x0, c0, cfg.paths, seed, horizon=cfg.horizon
        )
    else:
        c = m.c_bar if kind == "boundary" else rate
        est, payoffs = sim.estimate_constant_payoff(
            m, d, c, x0, cfg.paths, seed, horizon=cfg.horizon
        )

    doc = {
        "strategy": args.strategy,
        "x0": x0,
        "c0": c0,
        "seed": seed,
        "mean": est.mean,
        "std_error": est.std_error,
        "n_paths": est.n_paths,
        "horizon": est.horizon,
        "tail_bound": est.tail_bound,
    }
    _write_text(args.out, json.dumps(doc, indent=2, sort_keys=True))
    if args.per_path:
        _write_rows(args.per_path, ["path", "payoff"], enumerate(payoffs.tolist()))
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if args.eps_disc is not None and not 0.0 <= args.eps_disc < math.inf:
        # an infinite budget would pass every Monte Carlo check, a NaN or
        # negative one fail them all; rejected before the surface is solved
        raise ValidationError(
            f"--eps-disc must be finite and non-negative, got {args.eps_disc!r}"
        )
    surface = load_or_solve(cfg, force=args.force)
    cert = run_invariant_suite(surface)
    if not args.skip_mc:
        eps = args.eps_disc
        if eps is None:
            _, eps = calibrate_eps_disc(surface, cfg.update_tol)
        m = cfg.model
        points = [
            (0.0, m.c_floor),
            (0.1 * cfg.grid.L, 0.5 * (m.c_floor + m.c_bar)),
        ]
        mc = mc_cross_check(surface, points, cfg.paths, cfg.seed, eps, horizon=cfg.horizon)
        cert = Certificate(checks=cert.checks + mc.checks)
    _write_text(args.out, cert.to_json())
    return 0 if cert.passed else 1


_SWEEP_SECTIONS = ("model", "claims", "grid", "ladder", "solver", "simulate")


def cmd_sweep(args) -> int:
    doc = read_config_mapping(args.config)
    sec, _, key = args.param.partition(".")
    if sec not in _SWEEP_SECTIONS or not key:
        raise ValidationError(
            f"sweep parameter must be section.key with section in "
            f"{_SWEEP_SECTIONS}, got {args.param!r}"
        )
    try:
        values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(
            f"sweep values must be a comma-separated number list, got {args.values!r}"
        ) from None
    if not values:
        raise ValidationError("sweep needs at least one value")

    cfgs = []  # every value is checked before the first solve
    for val in values:
        trial = copy.deepcopy(doc)
        # an empty section is {}, any other non-mapping fails as in solve
        trial[sec] = {**_section(trial, sec, required=False), key: val}
        cfgs.append(config_from_mapping(trial))
    rows = []
    for val, cfg in zip(values, cfgs):
        surface = load_or_solve(cfg)
        curve = extract_boundary(surface)
        for r, xs, gz in zip(
            curve.rates.tolist(), curve.x_star.tolist(), curve.gradient_at_zero.tolist()
        ):
            rows.append([val, r, xs, gz])
        print(f"sweep {args.param}={val!r}: done", file=sys.stderr)

    _write_rows(args.out, [args.param, "rate", "x_star", "gradient_at_zero"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="divratchet",
        description=(
            "Solver and verification toolkit for optimal dividend ratcheting "
            "with capital injections"
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, force=True):
        sp.add_argument("--config", required=True, help="YAML run configuration")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        if force:
            sp.add_argument(
                "--force", action="store_true",
                help="re-solve even when a cached surface matches",
            )

    sp = sub.add_parser("boundary", help="cap-rate value g as CSV (x,g,g_prime,residual)")
    common(sp, force=False)
    sp.set_defaults(func=cmd_boundary)

    sp = sub.add_parser("solve", help="solve the rate ladder, cache it, emit value CSV")
    common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("boundary-curve", help="switching threshold per rate as CSV")
    common(sp)
    sp.set_defaults(func=cmd_boundary_curve)

    sp = sub.add_parser("rate-map", help="equivalent maximum rate lattice as CSV")
    common(sp)
    sp.set_defaults(func=cmd_rate_map)

    sp = sub.add_parser("simulate", help="Monte Carlo payoff of a strategy as JSON")
    common(sp)
    sp.add_argument(
        "--strategy", required=True,
        help="boundary | ratchet | constant:<rate>",
    )
    sp.add_argument("--x0", type=float, required=True, help="initial surplus")
    sp.add_argument("--c0", type=float, default=None, help="initial rate (ratchet)")
    sp.add_argument("--paths", type=int, default=None, help="path count override")
    sp.add_argument("--seed", type=int, default=None, help="seed override")
    sp.add_argument(
        "--horizon", type=float, default=None,
        help="horizon override (default: simulate.horizon, else ceil(6 ln 10 / r), "
        "139 at r = 0.1)",
    )
    sp.add_argument("--per-path", default=None, help="also write per-path payoff CSV here")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="invariant suite + MC cross-check certificate")
    common(sp)
    sp.add_argument(
        "--eps-disc", type=float, default=None,
        help="discretization budget override (skips refinement calibration)",
    )
    sp.add_argument(
        "--skip-mc", action="store_true",
        help="structural checks only, no Monte Carlo",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="boundary curves across one parameter axis")
    common(sp, force=False)
    sp.add_argument("--param", required=True, help="section.key, e.g. model.ell")
    sp.add_argument("--values", required=True, help="comma-separated values")
    sp.set_defaults(func=cmd_sweep)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivRatchetError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
