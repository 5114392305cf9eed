"""Acceptance gate: the ten release criteria at the reference parameter set.

Reference set: mu=2, c_bar=1, lam=1, ell=1.2, r=0.1, exponential claims
with mean 0.5, c_floor=0, L=30, n_x=2000, n=256 rungs.  Each criterion
prints one PASS/FAIL line (run pytest with -s to see them live).  The
discretization budget eps_disc is measured from the (n_x, n) -> (2n_x, 2n)
refinement pair, never assumed.
"""

import copy
import json
import time

import numpy as np
import pytest
import yaml

from divratchet import (
    Exponential,
    Grid,
    ModelParams,
    RateLadder,
    estimate_constant_payoff,
    estimate_strategies,
    extract_boundary,
    h_eval,
    ratchet_thresholds,
    run_invariant_suite,
    scheme_residual,
    solve_g,
    solve_ladder,
)
from divratchet.cli import main as cli_main
from divratchet.discretization import get_kernel
from mc_reference import simulate_ratchet

M = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
D = Exponential(gamma_mean=0.5)
GRID = Grid(L=30.0, n_x=2000)
LADDER = RateLadder(c_bar=1.0, c_floor=0.0, n=256)
SEED = 20240901
PATHS = 100000


def report(num, name, ok, detail):
    line = f"CRITERION {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line, flush=True)
    return line


@pytest.fixture(scope="module")
def boundary():
    t0 = time.perf_counter()
    sol = solve_g(M, D, GRID, update_tol=1e-12)
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def solved():
    t0 = time.perf_counter()
    surface = solve_ladder(M, D, GRID, LADDER, update_tol=1e-12)
    return surface, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fine_surface():
    grid = Grid(L=GRID.L, n_x=2 * GRID.n_x)
    ladder = RateLadder(c_bar=M.c_bar, c_floor=M.c_floor, n=2 * LADDER.n)
    return solve_ladder(M, D, grid, ladder, update_tol=1e-12)


@pytest.fixture(scope="module")
def eps_disc(solved, fine_surface):
    surface, _ = solved
    diff = float(np.max(np.abs(surface.v - fine_surface.v[::2, ::2])))
    return 3.0 * diff


@pytest.fixture(scope="module")
def thresholds(solved):
    surface, _ = solved
    return ratchet_thresholds(surface)


def test_criterion_01_boundary_solution(boundary):
    sol, t = boundary
    g, gp = sol.v, sol.v_prime
    kern, h = get_kernel(D, GRID), h_eval(M, D, GRID.nodes)
    _, res_i = scheme_residual(g, gp[:-1], M.c_bar, M, kern, h)
    res = float(np.max(np.abs(res_i)))
    g_min, g_max = float(g.min()), float(g.max())
    gp_min, gp_max = float(gp.min()), float(gp.max())
    second_diff_max = float(np.max(g[2:] - 2.0 * g[1:-1] + g[:-2]))
    lo, hi = 4.0, 10.0
    in_band = lo - 1e-12 <= g_min and g_max <= hi + 1e-12
    grad_ok = gp_min >= 0.0 and gp_max <= M.ell + 1e-8
    concave_ok = second_diff_max <= 1e-8
    far = abs(g[GRID.n_x - 1] - hi)
    ok = (res <= 1e-8 and in_band and grad_ok and concave_ok
          and far <= 1e-3 and t <= 5.0)
    line = report(1, "boundary solution", ok,
                  f"residual {res:.2e}, g in [{g_min:.3f},{g_max:.3f}], "
                  f"g' in [{gp_min:.3f},{gp_max:.3f}], "
                  f"concavity {second_diff_max:.2e}, far-field gap {far:.2e}, "
                  f"{t:.2f}s")
    assert ok, line


def test_criterion_02_ladder_estimates(solved):
    surface, t = solved
    v = surface.v
    rates = surface.rates
    dx, dc = GRID.dx, LADDER.dc
    lower = (rates - M.lam * M.ell * D.gamma) / M.r
    upper = M.c_bar / M.r
    env_lo = float(np.max(lower[:, None] - v))
    env_hi = float(np.max(v - upper))
    # complementarity of each rung's obstacle problem against its
    # predecessor, with the forward difference of v as the slope (the stored
    # v' of a free node is the slope that zeroes the residual), the residual's
    # sign kept: a contact node must be a supersolution
    kern, h = get_kernel(D, GRID), h_eval(M, D, GRID.nodes)
    comp = 0.0
    for i in range(1, LADDER.n + 1):
        _, res = scheme_residual(v[i], np.diff(v[i]) / dx, float(rates[i]), M, kern, h)
        gap = v[i] - v[i - 1]
        comp = max(comp, float(np.max(np.abs(np.minimum(res, gap[:GRID.n_x])))))
    u = np.diff(v, axis=0) / dc
    u_lo = float(np.max(-u)) if u.size else 0.0
    u_hi = float(np.max(u - (M.ell - 1.0) / M.r)) if u.size else 0.0
    B = 2.0 * (M.r + M.lam) * (M.ell - 1.0) / (M.r ** 2 * (M.mu - M.c_bar))
    growth = float(np.max(u[:-1] - u[1:] - B * dc)) if u.shape[0] >= 2 else -np.inf
    curv = float(np.max(-np.diff(v, 2, axis=1) / dx ** 2 - M.lam * M.ell / (M.mu - M.c_bar)))
    ok = (env_lo <= 1e-8 and env_hi <= 1e-8 and comp <= 1e-8
          and u_lo <= 0.0 and u_hi <= 1e-6 and growth <= 1e-6
          and curv <= 1e-6 and t <= 60.0)
    line = report(2, "ladder estimates", ok,
                  f"envelope excess lo {env_lo:.2e} hi {env_hi:.2e}, "
                  f"complementarity {comp:.2e}, u-bound excess lo {u_lo:.2e} "
                  f"hi {u_hi:.2e}, growth excess {growth:.2e}, "
                  f"curvature excess {curv:.2e}, {t:.2f}s")
    assert ok, line


def test_criterion_03_dyadic_monotonicity(solved):
    surface, _ = solved
    half = RateLadder(c_bar=M.c_bar, c_floor=M.c_floor, n=128)
    v128 = solve_ladder(M, D, GRID, half, update_tol=1e-12).v
    excess = float(np.max(v128 - surface.v[::2]))
    ok = excess <= 1e-7
    line = report(3, "dyadic rung monotonicity", ok,
                  f"max(v_128 - v_256) = {excess:.2e} <= 1e-7")
    assert ok, line


def test_criterion_04_floor_independence(solved, eps_disc):
    surface, _ = solved
    m_ext = ModelParams(mu=M.mu, lam=M.lam, r=M.r, ell=M.ell,
                        c_bar=M.c_bar, c_floor=-1.0)
    # doubled rung count keeps the rung spacing identical, so the rates in
    # [0, c_bar] coincide node for node
    lad_ext = RateLadder(c_bar=M.c_bar, c_floor=-1.0, n=512)
    v_ext = solve_ladder(m_ext, D, GRID, lad_ext, update_tol=1e-12).v
    keep = lad_ext.rates >= -1e-12
    assert np.allclose(lad_ext.rates[keep], LADDER.rates, atol=1e-15)
    gap = float(np.max(np.abs(v_ext[keep] - surface.v)))
    budget = 1e-6 + eps_disc
    ok = gap <= budget
    line = report(4, "rate-floor independence", ok,
                  f"sup gap on [0, c_bar] = {gap:.2e} <= 1e-6 + eps_disc "
                  f"= {budget:.2e}")
    assert ok, line


def test_criterion_05_free_boundary(solved, fine_surface):
    surface, _ = solved
    curve = extract_boundary(surface)
    up_viol = int(curve.up_closure_violations.sum())
    vp0 = surface.v_prime[:, 0]
    idx = np.nonzero(vp0 <= 1.0 + 1e-9)[0]
    if idx.size:
        i0 = max(int(idx[0]), 1)
        collapse_ok = bool(np.all(curve.x_star[i0:] == 0.0))
    else:
        i0, collapse_ok = -1, True
    inside = float(curve.x_star.max()) <= 0.8 * GRID.L
    fine_curve = extract_boundary(fine_surface)
    move = float(np.max(np.abs(curve.x_star - fine_curve.x_star[::2])))
    move_ok = move <= 5.0 * GRID.dx + 1e-12
    ok = up_viol == 0 and collapse_ok and inside and move_ok
    line = report(5, "free boundary", ok,
                  f"up-closure violations {up_viol}, zero-propagation from rung "
                  f"{i0} {'holds' if collapse_ok else 'fails'}, max x* "
                  f"{curve.x_star.max():.3f} <= {0.8 * GRID.L:.1f}, refinement "
                  f"move {move:.4f} <= 5 dx = {5 * GRID.dx:.4f}")
    assert ok, line


def test_criterion_06_mc_boundary(solved, eps_disc):
    surface, _ = solved
    t0 = time.perf_counter()
    worst = ("", 0.0, 1.0)
    ok = True
    details = []
    for x0 in (0.0, 1.0, 5.0):
        est, _ = estimate_constant_payoff(M, D, M.c_bar, x0, PATHS, SEED)
        g_x = surface.value_at(x0, M.c_bar)
        diff = abs(est.mean - g_x)
        budget = 3.0 * est.std_error + eps_disc + est.tail_bound
        se_ok = est.std_error <= 0.02 * (M.c_bar / M.r)
        ok = ok and diff <= budget and se_ok
        details.append(f"x0={x0}: |{diff:.4f}| <= {budget:.4f}, SE {est.std_error:.4f}")
    t = time.perf_counter() - t0
    ok = ok and t <= 60.0
    line = report(6, "Monte Carlo boundary check", ok,
                  "; ".join(details) + f"; {t:.1f}s")
    assert ok, line


def test_criterion_07_mc_optimality(solved, thresholds, eps_disc):
    # one pass on the claim stream of SEED: the feedback strategy from each
    # point and two constant rates per point, on common random numbers
    surface, _ = solved
    ok = True
    details = []
    points = [(0.0, 0.0), (1.0, 0.5), (3.0, 0.2)]
    rates = [(0.5 * (c0 + M.c_bar), M.c_bar) for _, c0 in points]
    constants = [(x0, c) for (x0, _), rs in zip(points, rates) for c in rs]
    ests, _ = estimate_strategies(M, D, PATHS, SEED, None, thresholds, points, constants)
    est_cs = iter(ests[len(points):])
    for (x0, c0), est, rs in zip(points, ests, rates):
        v = surface.value_at(x0, c0)
        diff = abs(est.mean - v)
        budget = 3.0 * est.std_error + eps_disc + est.tail_bound
        agree = diff <= budget
        dom = True
        for c_const, est_c in zip(rs, est_cs):
            margin = est_c.mean - v
            dom = dom and margin <= 3.0 * est_c.std_error + eps_disc + est_c.tail_bound
        ok = ok and agree and dom
        details.append(f"({x0},{c0}): |{diff:.4f}| <= {budget:.4f}, "
                       f"dominance {'holds' if dom else 'fails'}")
    line = report(7, "Monte Carlo optimality check", ok, "; ".join(details))
    assert ok, line


def test_criterion_08_negative_extension(solved, thresholds):
    surface, _ = solved
    exact = all(
        surface.value_at(-1.0, float(c)) == surface.value_at(0.0, float(c)) - M.ell
        for c in surface.rates
    )
    worst = 0.0
    for k in range(10):
        a = simulate_ratchet(M, D, thresholds, -1.0, 0.5, SEED, path_index=k)
        b = simulate_ratchet(M, D, thresholds, 0.0, 0.5, SEED, path_index=k)
        worst = max(worst, abs(a.payoff - (b.payoff - M.ell)))
    ok = exact and worst <= 1e-12
    line = report(8, "negative-surplus extension", ok,
                  f"lattice identity {'exact' if exact else 'broken'}, "
                  f"per-path identity gap {worst:.2e} <= 1e-12")
    assert ok, line


def test_criterion_09_constructed_violations(solved):
    surface, _ = solved
    flagged = {}

    bad = copy.deepcopy(surface)
    bad.v[10, 100:160] -= 0.05
    cert = run_invariant_suite(bad, D)
    flagged["obstacle_order"] = (not cert.passed
                                 and not cert.check("obstacle_order").passed)

    bad = copy.deepcopy(surface)
    bad.v[10] += 2.0 * (M.ell - 1.0) / M.r * LADDER.dc
    cert = run_invariant_suite(bad, D)
    flagged["rate_slope_upper"] = (not cert.passed
                                   and not cert.check("rate_slope_upper").passed)

    bad = copy.deepcopy(surface)
    first = int(np.argmax(bad.masks[20]))
    bad.masks[20, first + 5] = False
    cert = run_invariant_suite(bad, D)
    flagged["mask_up_closed"] = (not cert.passed
                                 and not cert.check("mask_up_closed").passed)

    ok = all(flagged.values())
    line = report(9, "constructed violations flagged", ok,
                  ", ".join(f"{k}: {'caught' if v else 'MISSED'}"
                            for k, v in flagged.items()))
    assert ok, line


def test_criterion_10_determinism(tmp_path, eps_disc, capsys):
    out_dir = tmp_path / "out"
    doc = {
        "model": {"mu": 2.0, "lam": 1.0, "r": 0.1, "ell": 1.2,
                  "c_bar": 1.0, "c_floor": 0.0},
        "claims": {"kind": "exponential", "gamma": 0.5},
        "grid": {"L": 30.0, "n_x": 2000},
        "ladder": {"n": 256},
        "simulate": {"paths": 2000, "seed": SEED},
        "output": {"dir": str(out_dir)},
    }
    cfg = tmp_path / "ref.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    eps = repr(float(eps_disc))

    s1, s2 = str(tmp_path / "v1.csv"), str(tmp_path / "v2.csv")
    c1, c2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
    rc = [
        cli_main(["solve", "--config", str(cfg), "--out", s1]),
        cli_main(["verify", "--config", str(cfg), "--eps-disc", eps, "--out", c1]),
        cli_main(["solve", "--config", str(cfg), "--out", s2]),
        cli_main(["verify", "--config", str(cfg), "--eps-disc", eps, "--out", c2]),
    ]
    err = capsys.readouterr().err
    solve_same = open(s1, "rb").read() == open(s2, "rb").read()
    cert_same = open(c1, "rb").read() == open(c2, "rb").read()
    cert = json.loads(open(c1).read())
    ok = (rc == [0, 0, 0, 0] and solve_same and cert_same
          and cert["passed"] is True and "cache hit" in err)
    line = report(10, "solve+verify determinism", ok,
                  f"exit codes {rc}, solve CSV byte-identical: {solve_same}, "
                  f"certificate byte-identical: {cert_same}, second run cache "
                  f"hit: {'cache hit' in err}")
    assert ok, line
