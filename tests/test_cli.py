"""CLI contracts: formats, caching, determinism, exit codes."""

import csv
import io
import json
import os
import struct

import numpy as np
import pytest
import yaml

from divratchet import cache as cache_module
from divratchet.cache import MAGIC, read_surface, write_surface
from divratchet import cli, config, ladder, simulate as sim
from divratchet.cli import _BLOCK_ROWS, _write_rows, main
from divratchet.config import load_config
from divratchet.discretization import get_kernel, scheme_residual
from divratchet.ladder import solve_g, solve_ladder
from divratchet.model import h_eval
from rate_map_reference import chained_rate_map

MODEL = {"mu": 2.0, "lam": 2.0, "r": 0.1, "ell": 2.0, "c_bar": 1.2, "c_floor": 0.0}


def make_cfg(tmp_path, **over):
    doc = {
        "model": dict(MODEL),
        "claims": {"kind": "exponential", "gamma": 0.6},
        "grid": {"L": 20.0, "n_x": 200},
        "ladder": {"n": 8},
        "simulate": {"paths": 300, "seed": 11},
        "output": {"dir": str(tmp_path / "out")},
    }
    for key, val in over.items():
        sec, _, fld = key.partition("__")
        doc.setdefault(sec, {})[fld] = val
    p = tmp_path / "run.yaml"
    p.write_text(yaml.safe_dump(doc))
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_boundary_csv_contract(tmp_path):
    cfg = make_cfg(tmp_path)
    out = str(tmp_path / "g.csv")
    assert main(["boundary", "--config", cfg, "--out", out]) == 0
    rows = read_csv(out)
    assert rows[0] == ["x", "g", "g_prime", "residual"]
    assert len(rows) == 1 + 201
    # full round-trip floats: re-parsing reproduces the exact values
    x0, g0 = float(rows[1][0]), float(rows[1][1])
    assert x0 == 0.0
    assert 0.0 < g0 < MODEL["c_bar"] / MODEL["r"]
    gl = float(rows[-1][1])
    assert abs(gl - MODEL["c_bar"] / MODEL["r"]) < 1e-9
    # the columns are rung 0 of the ladder, its slope as the surface reads
    # it and the scheme residual of the two, bitwise
    run = load_config(cfg)
    m, d, grid = run.model, run.claims, run.grid
    g = solve_g(m, d, grid)
    gp = solve_ladder(m, d, grid, run.ladder).slopes()[0][0]
    _, res = scheme_residual(g.v, gp, m.c_bar, m, get_kernel(d, grid), h_eval(m, d, grid.nodes))
    cols = np.array(rows[1:], dtype=float).T
    for col, ref in zip(cols, (grid.nodes, g.v, gp, res)):
        assert col.tobytes() == ref.tobytes()


def test_boundary_stdout_default(tmp_path, capsys):
    cfg = make_cfg(tmp_path)
    assert main(["boundary", "--config", cfg]) == 0
    cap = capsys.readouterr()
    first = cap.out.splitlines()[0]
    assert first == "x,g,g_prime,residual"


def test_solve_cache_hit_and_byte_identical(tmp_path, capsys):
    cfg = make_cfg(tmp_path)
    out1, out2 = str(tmp_path / "v1.csv"), str(tmp_path / "v2.csv")
    assert main(["solve", "--config", cfg, "--out", out1]) == 0
    err1 = capsys.readouterr().err
    assert "cache hit" not in err1
    cache_files = list((tmp_path / "out").glob("surface-*.bin"))
    assert len(cache_files) == 1

    assert main(["solve", "--config", cfg, "--out", out2]) == 0
    err2 = capsys.readouterr().err
    assert "cache hit" in err2
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2


def test_solve_force_resolves_same_bytes(tmp_path, capsys):
    cfg = make_cfg(tmp_path)
    out1, out2 = str(tmp_path / "v1.csv"), str(tmp_path / "v2.csv")
    assert main(["solve", "--config", cfg, "--out", out1]) == 0
    capsys.readouterr()
    assert main(["solve", "--config", cfg, "--out", out2, "--force"]) == 0
    assert "cache hit" not in capsys.readouterr().err
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_solve_csv_shape(tmp_path):
    cfg = make_cfg(tmp_path)
    out = str(tmp_path / "v.csv")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    rows = read_csv(out)
    assert rows[0][0] == "x"
    assert len(rows[0]) == 1 + 9  # x plus one column per rung
    assert rows[0][1] == "c=1.2"
    assert len(rows) == 1 + 201
    vals = [float(v) for v in rows[1][1:]]
    # rung values grow toward the rate floor (more freedom left)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_boundary_curve_csv(tmp_path):
    cfg = make_cfg(tmp_path)
    out = str(tmp_path / "curve.csv")
    assert main(["boundary-curve", "--config", cfg, "--out", out]) == 0
    rows = read_csv(out)
    assert rows[0] == ["rate", "x_star", "gradient_at_zero", "up_closure_violations"]
    assert len(rows) == 1 + 9
    for row in rows[1:]:
        assert 0.0 <= float(row[1]) <= 0.8 * 20.0
        assert int(row[3]) == 0


def test_rate_map_csv(tmp_path):
    cfg = make_cfg(tmp_path)
    out = str(tmp_path / "rm.csv")
    assert main(["rate-map", "--config", cfg, "--out", out]) == 0
    rows = read_csv(out)
    import numpy as np
    rates = np.linspace(1.2, 0.0, 9).tolist()
    assert rows[0] == ["x"] + [f"c={r!r}" for r in rates]
    body = [[float(v) for v in row[1:]] for row in rows[1:]]
    cap = MODEL["c_bar"]
    for row in body:
        assert all(-1e-12 <= v <= cap + 1e-12 for v in row)
    # far field: every rung has ratcheted to the cap
    assert all(abs(v - cap) < 1e-12 for v in body[-1])


def test_simulate_constant_json(tmp_path):
    cfg = make_cfg(tmp_path)
    out = str(tmp_path / "est.json")
    rc = main([
        "simulate", "--config", cfg, "--strategy", "constant:0.6",
        "--x0", "1.0", "--out", out,
    ])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["strategy"] == "constant:0.6"
    assert doc["x0"] == 1.0
    assert doc["n_paths"] == 300
    assert doc["seed"] == 11
    assert doc["std_error"] > 0
    assert doc["mean"] < MODEL["c_bar"] / MODEL["r"] + 1e-9


def test_simulate_json_records_its_horizon(tmp_path):
    # simulate.horizon sets the horizon and --horizon overrides it; with
    # neither the README model cuts at ceil(6 ln 10 / r) = 139, where the
    # tail bound is max(c_bar, ell lam E[Z]) e^{-rT} / r
    def horizon_doc(cfg, *extra):
        out = str(tmp_path / "est.json")
        argv = ["simulate", "--config", cfg, "--strategy", "boundary", "--x0", "0"]
        assert main(argv + list(extra) + ["--out", out]) == 0
        return json.loads(open(out).read())

    set_in_config = make_cfg(tmp_path, simulate__horizon=50.0)
    assert horizon_doc(set_in_config)["horizon"] == 50.0
    assert horizon_doc(set_in_config, "--horizon", "42")["horizon"] == 42.0
    doc = horizon_doc(make_cfg(tmp_path))
    assert doc["horizon"] == 139.0
    cap = max(MODEL["c_bar"], MODEL["ell"] * MODEL["lam"] * 0.6)
    expect = cap * np.exp(-MODEL["r"] * 139.0) / MODEL["r"]
    assert doc["tail_bound"] == pytest.approx(expect, rel=1e-12)


def test_simulate_boundary_equals_constant_cap(tmp_path):
    cfg = make_cfg(tmp_path)
    o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["simulate", "--config", cfg, "--strategy", "boundary",
                 "--x0", "2.0", "--out", o1]) == 0
    assert main(["simulate", "--config", cfg, "--strategy", "constant:1.2",
                 "--x0", "2.0", "--out", o2]) == 0
    d1, d2 = json.loads(open(o1).read()), json.loads(open(o2).read())
    assert d1["mean"] == d2["mean"]
    assert d1["std_error"] == d2["std_error"]


def test_simulate_ratchet_with_per_path(tmp_path):
    cfg = make_cfg(tmp_path)
    out = str(tmp_path / "est.json")
    pp = str(tmp_path / "paths.csv")
    rc = main([
        "simulate", "--config", cfg, "--strategy", "ratchet",
        "--x0", "0.0", "--c0", "0.0", "--paths", "200",
        "--out", out, "--per-path", pp,
    ])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["n_paths"] == 200
    rows = read_csv(pp)
    assert rows[0] == ["path", "payoff"]
    assert len(rows) == 1 + 200
    import math
    vals = [float(r[1]) for r in rows[1:]]
    assert abs(sum(vals) / len(vals) - doc["mean"]) < 1e-9 * max(1.0, abs(doc["mean"]))


def test_simulate_repeat_byte_identical(tmp_path):
    cfg = make_cfg(tmp_path)
    o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["simulate", "--config", cfg, "--strategy", "constant:0.9", "--x0", "0.5"]
    assert main(argv + ["--out", o1]) == 0
    assert main(argv + ["--out", o2]) == 0
    assert open(o1, "rb").read() == open(o2, "rb").read()


def test_simulate_bad_strategy_exits_nonzero(tmp_path, capsys):
    cfg = make_cfg(tmp_path)
    rc = main(["simulate", "--config", cfg, "--strategy", "martingale",
               "--x0", "0.0"])
    assert rc == 1
    assert "ValidationError" in capsys.readouterr().err


def test_simulate_bad_constant_rate_message(tmp_path, capsys):
    cfg = make_cfg(tmp_path)
    rc = main(["simulate", "--config", cfg, "--strategy", "constant:fast",
               "--x0", "0.0"])
    assert rc == 1
    assert "ValidationError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, over, error",
    [
        (["--strategy", "ratchet", "--x0", "0", "--horizon", "nan"], {}, "ValidationError"),
        (["--strategy", "boundary", "--x0", "0", "--horizon", "inf"], {}, "ValidationError"),
        (["--strategy", "constant:0.6", "--x0", "0", "--horizon", "-5"], {}, "ValidationError"),
        (["--strategy", "constant:0.6", "--x0", "nan"], {}, "ValidationError"),
        (["--strategy", "ratchet", "--x0", "0", "--c0", "nan"], {}, "ValidationError"),
        (["--strategy", "constant:-inf", "--x0", "0"], {}, "ValidationError"),
        (
            ["--strategy", "constant:0.6", "--x0", "0"],
            {"simulate__horizon": float("inf")},
            "ValidationError",
        ),
        (["--strategy", "ratchet", "--x0", "0", "--paths", "1"], {}, "ValidationError"),
        (["--strategy", "ratchet", "--x0", "0", "--c0", "5"], {}, "RateOutOfRange"),
        (["--strategy", "ratchet", "--x0", "0", "--seed", "-1"], {}, "ValidationError"),
        (["--strategy", "ratchet", "--x0", "0"], {"simulate__seed": -1}, "ValidationError"),
    ],
    ids=["horizon-nan", "horizon-inf", "horizon-negative", "x0-nan", "c0-nan",
         "rate-inf", "yaml-horizon-inf", "paths-one", "c0-above-cap", "seed-negative",
         "yaml-seed-negative"],
)
def test_simulate_rejects_non_finite_input(argv, over, error, tmp_path, capsys, monkeypatch):
    # a nan or inf horizon looped forever and the others gave a number:
    # each exits 1 with the typed error before the surface is solved or
    # any path is stepped
    def no_loop(*args, **kwargs):
        raise AssertionError("the Monte Carlo loop was entered")

    def no_solve(*args, **kwargs):
        raise AssertionError("the surface was solved")

    monkeypatch.setattr(sim, "_batch_payoffs", no_loop)
    monkeypatch.setattr(cli, "load_or_solve", no_solve)
    cfg = make_cfg(tmp_path, **over)
    out = tmp_path / "est.json"
    assert main(["simulate", "--config", cfg, *argv, "--out", str(out)]) == 1
    assert f"{error}: " in capsys.readouterr().err
    assert not out.exists()


def test_verify_skip_mc_passes(tmp_path, capsys):
    cfg = make_cfg(tmp_path)
    out = str(tmp_path / "cert.json")
    rc = main(["verify", "--config", cfg, "--skip-mc", "--out", out])
    assert rc == 0
    cert = json.loads(open(out).read())
    assert cert["passed"] is True
    names = {c["name"] for c in cert["checks"]}
    assert "boundary_residual" in names
    assert not any(n.startswith("mc_") for n in names)


def test_verify_with_mc_passes(tmp_path):
    # on the budget verify measures from the surface's refinement pair
    cfg = make_cfg(tmp_path)
    out = str(tmp_path / "cert.json")
    rc = main(["verify", "--config", cfg, "--out", out])
    assert rc == 0
    cert = json.loads(open(out).read())
    assert cert["passed"] is True
    names = {c["name"] for c in cert["checks"]}
    # merged certificate keeps the structural suite alongside the MC checks
    assert "boundary_residual" in names
    assert "obstacle_order" in names
    assert any(n.startswith("mc_agreement") for n in names)
    assert any(n.startswith("mc_dominance") for n in names)


@pytest.mark.parametrize("eps", ["inf", "nan", "-0.1"])
def test_verify_rejects_bad_eps_disc(eps, tmp_path, capsys, monkeypatch):
    # verify always measures its discretization budget: a budget given on the
    # command line (an infinite one would pass every Monte Carlo check, a NaN
    # or negative one fail them all) is refused by the parser before the
    # surface is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("the surface was solved")

    monkeypatch.setattr(cli, "load_or_solve", no_solve)
    cfg = make_cfg(tmp_path)
    out = tmp_path / "cert.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", cfg, "--eps-disc", eps, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eps-disc" in capsys.readouterr().err
    assert not out.exists()


def test_verify_flags_corrupted_cache(tmp_path, capsys):
    cfg = make_cfg(tmp_path)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 0
    cache = list((tmp_path / "out").glob("surface-*.bin"))[0]
    surface, _ = read_surface(str(cache))
    # break the obstacle ordering on one interior stretch of rung 4
    surface.v[4, 60:80] -= 0.05
    write_surface(str(cache), surface)
    out = str(tmp_path / "cert.json")
    rc = main(["verify", "--config", cfg, "--skip-mc", "--out", out])
    assert rc == 1
    cert = json.loads(open(out).read())
    failed = {c["name"] for c in cert["checks"] if not c["passed"]}
    assert "obstacle_order" in failed


@pytest.mark.parametrize(
    "claims,key",
    [
        ({"kind": "exponential", "gamma": "abc"}, "gamma"),
        ({"kind": "exponential", "gamma": [1]}, "gamma"),
        ({"kind": "exponential", "gamma": True}, "gamma"),
        ({"kind": "shifted_pareto", "alpha": None, "theta": 1.2}, "alpha"),
        ({"kind": "hyperexponential", "weights": 0.5, "means": [0.6]}, "weights"),
        ({"kind": "hyperexponential", "weights": [0.5, 0.5], "means": "12"}, "means"),
    ],
    ids=["string", "list", "bool", "null", "scalar-weights", "digit-string-means"],
)
def test_bad_claims_value_rejected_before_solving(claims, key, tmp_path, capsys, monkeypatch):
    # each printed a traceback or loaded a wrong distribution
    def no_solve(*args, **kwargs):
        raise AssertionError("the surface was solved")

    monkeypatch.setattr(cli, "solve_ladder", no_solve)
    doc = yaml.safe_load(open(make_cfg(tmp_path)))
    doc["claims"] = claims
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "v.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"ValidationError: claims.{key} must be ")


def test_failed_cache_write_blocks_no_later_command(tmp_path, monkeypatch):
    # a solve that dies while writing its cache leaves no file behind, so
    # the next command solves again instead of failing on a truncated cache
    cfg = make_cfg(tmp_path)
    calls = []
    real = np.ascontiguousarray

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_module.np, "ascontiguousarray", failing)
    with pytest.raises(KeyboardInterrupt):
        main(["solve", "--config", cfg, "--out", str(tmp_path / "v.csv")])
    monkeypatch.undo()
    assert os.listdir(tmp_path / "out") == []
    for cmd in ("rate-map", "boundary-curve", "solve"):
        assert main([cmd, "--config", cfg, "--out", str(tmp_path / f"{cmd}.csv")]) == 0
    assert len(list((tmp_path / "out").iterdir())) == 1


def test_cache_of_the_previous_format_is_not_read(tmp_path, capsys, monkeypatch):
    # an out_dir filled before the format change holds version-1 files
    # under the version-1 names; the format salts the hash, so they are
    # never looked up and every command runs
    cfg = make_cfg(tmp_path)
    monkeypatch.setattr(config, "SURFACE_FORMAT", 1)
    old = cli.cache_path(load_config(cfg))
    monkeypatch.undo()
    os.makedirs(os.path.dirname(old))
    with open(old, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", 1, 2) + b"{}")
    assert cli.cache_path(load_config(cfg)) != old
    for cmd in ("rate-map", "boundary-curve", "solve"):
        assert main([cmd, "--config", cfg, "--out", str(tmp_path / f"{cmd}.csv")]) == 0
    assert main(["verify", "--config", cfg, "--skip-mc", "--out", str(tmp_path / "c.json")]) == 0
    assert "cache hit" in capsys.readouterr().err
    assert open(old, "rb").read() == MAGIC + struct.pack("<II", 1, 2) + b"{}"


def test_error_names_module_error(tmp_path, capsys):
    rc = main(["boundary", "--config", str(tmp_path / "missing.yaml")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("ParseError:")


def test_validation_error_names_field(tmp_path, capsys):
    cfg = make_cfg(tmp_path, model__ell=0.9)
    rc = main(["boundary", "--config", cfg])
    assert rc == 1
    assert "ValidationError: ell must exceed 1" in capsys.readouterr().err


def test_sweep_combined_csv(tmp_path):
    cfg = make_cfg(tmp_path, ladder__n=4)
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--config", cfg, "--param", "model.ell",
               "--values", "1.5,2.0", "--out", out])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["model.ell", "rate", "x_star", "gradient_at_zero"]
    assert len(rows) == 1 + 2 * 5
    ells = {row[0] for row in rows[1:]}
    assert ells == {"1.5", "2.0"}
    # a costlier injection makes waiting (switching later) less attractive,
    # so thresholds should not explode; sanity: all inside the domain
    assert all(0.0 <= float(r[2]) <= 16.0 for r in rows[1:])


def test_sweep_integer_key(tmp_path):
    # the config casts ladder.n to int; the first column keeps the value given
    cfg = make_cfg(tmp_path)
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--param", "ladder.n",
                 "--values", "4,8", "--out", out]) == 0
    rows = read_csv(out)
    assert len(rows) == 1 + 5 + 9
    assert [row[0] for row in rows[1:]] == ["4.0"] * 5 + ["8.0"] * 9


def test_sweep_fractional_integer_key_rejected_before_solving(tmp_path, capsys, monkeypatch):
    # int() would truncate 4.5 to 4, and the rows would be labelled 4.5
    solves = []
    monkeypatch.setattr(cli, "load_or_solve", lambda cfg: solves.append(cfg))
    cfg = make_cfg(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", cfg, "--param", "ladder.n",
               "--values", "4,4.5", "--out", str(out)])
    assert rc == 1
    assert "ValidationError: ladder.n must be an integer, got 4.5" in capsys.readouterr().err
    assert solves == [] and not out.exists()


@pytest.mark.parametrize(
    "key, val",
    [
        ("grid.L", float("inf")),
        ("model.mu", float("inf")),
        ("model.lam", float("inf")),
        ("model.r", float("inf")),
        ("model.ell", float("inf")),
        ("model.c_floor", float("-inf")),
        ("simulate.horizon", float("inf")),
        ("claims.alpha", float("inf")),
        ("claims.theta", float("inf")),
    ],
)
def test_non_finite_config_value_rejected_before_solving(key, val, tmp_path, capsys, monkeypatch):
    # each loaded, and the solve then failed with NoConvergence or returned
    # NaN values: the typed error names the key instead
    solves = []
    monkeypatch.setattr(cli, "load_or_solve", lambda *a, **k: solves.append(a))
    monkeypatch.setattr(cli, "solve_g", lambda *a, **k: solves.append(a))
    path = make_cfg(tmp_path)
    doc = yaml.safe_load(open(path))
    if key.startswith("claims."):
        doc["claims"] = {"kind": "shifted_pareto", "alpha": 3.0, "theta": 1.2}
    sec, fld = key.split(".")
    doc[sec][fld] = val
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    out = tmp_path / "surface.csv"
    for cmd in ("solve", "boundary"):
        assert main([cmd, "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValidationError: ") and fld in err, err
    assert solves == [] and not out.exists()


def test_loose_picard_stop_is_refused(tmp_path, capsys, monkeypatch):
    # a Picard stop of 1e-8 at lam = 2 leaves rung 1's complementarity
    # defect above the certificate's bound: solve refuses the surface, with
    # the rung named, and caches nothing
    monkeypatch.setattr(ladder, "PICARD_STOP", 0.5)
    path = make_cfg(tmp_path, grid__n_x=800, ladder__n=16)
    doc = yaml.safe_load(open(path))
    doc["claims"] = {"kind": "shifted_pareto", "alpha": 3.0, "theta": 1.2}
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    out = tmp_path / "loose.csv"
    assert main(["solve", "--config", path, "--force", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("NoConvergence: rung 1/16")
    assert not out.exists() and not list((tmp_path / "out").glob("*.bin"))


def test_sweep_bad_param_rejected(tmp_path, capsys):
    cfg = make_cfg(tmp_path)
    rc = main(["sweep", "--config", cfg, "--param", "nonsense",
               "--values", "1.0"])
    assert rc == 1
    assert "ValidationError" in capsys.readouterr().err


def test_sweep_unknown_key_rejected(tmp_path, capsys):
    cfg = make_cfg(tmp_path)
    rc = main(["sweep", "--config", cfg, "--param", "ladder.method",
               "--values", "1.0"])
    assert rc == 1
    assert "ValidationError: unknown config key ladder.method" in capsys.readouterr().err


def test_solver_max_iter_rejected_before_solving(tmp_path, capsys, monkeypatch):
    # every solve is capped at ladder.MAX_ITER steps and stops on a rule
    # derived from the certificate's bounds: the solver section is unknown
    # to solve and to a sweep over it, and neither command solves anything
    solves = []
    monkeypatch.setattr(cli, "load_or_solve", lambda *a, **k: solves.append(a))
    out, swept = tmp_path / "surface.csv", tmp_path / "sweep.csv"
    path = make_cfg(tmp_path, solver__max_iter=50)
    assert main(["solve", "--config", path, "--force", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ValidationError: unknown config key solver\n"
    path = make_cfg(tmp_path)
    rc = main(["sweep", "--config", path, "--param", "solver.max_iter",
               "--values", "50,100", "--out", str(swept)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "ValidationError: sweep parameter must be section.key"
    )
    assert solves == [] and not out.exists() and not swept.exists()


def test_sweep_empty_section_is_a_mapping(tmp_path):
    # `simulate:` left empty loads as None; solve reads it as no keys given
    path = make_cfg(tmp_path, ladder__n=4)
    doc = yaml.safe_load(open(path))
    doc["simulate"] = None
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    out = str(tmp_path / "sweep.csv")
    assert main(["solve", "--config", path, "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["sweep", "--config", path, "--param", "simulate.seed",
                 "--values", "7", "--out", out]) == 0
    rows = read_csv(out)
    assert len(rows) == 1 + 5 and rows[1][0] == "7.0"


def test_sweep_non_mapping_section_rejected_before_solving(tmp_path, capsys, monkeypatch):
    solves = []
    monkeypatch.setattr(cli, "load_or_solve", lambda cfg: solves.append(cfg))
    path = make_cfg(tmp_path)
    doc = yaml.safe_load(open(path))
    doc["ladder"] = 4
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--param", "ladder.n",
                 "--values", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: config section 'ladder' must be a mapping"), err
    assert solves == [] and not out.exists()


def test_verify_certificate_byte_identical(tmp_path):
    cfg = make_cfg(tmp_path)
    o1, o2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
    assert main(["verify", "--config", cfg, "--skip-mc", "--out", o1]) == 0
    assert main(["verify", "--config", cfg, "--skip-mc", "--out", o2]) == 0
    assert open(o1, "rb").read() == open(o2, "rb").read()


def test_output_dir_null_caches_in_the_working_directory(tmp_path, monkeypatch):
    # `dir:` left empty loads as None; solve used to cache into ./None
    path = make_cfg(tmp_path, ladder__n=4)
    doc = yaml.safe_load(open(path))
    doc["output"] = {"dir": None}
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "s.csv")]) == 0
    assert not (tmp_path / "None").exists()
    assert len(list(tmp_path.glob("surface-*.bin"))) == 1


def test_output_dir_non_string_rejected_before_solving(tmp_path, capsys, monkeypatch):
    solves = []
    monkeypatch.setattr(cli, "load_or_solve", lambda *a, **k: solves.append(a))
    monkeypatch.chdir(tmp_path)
    path = make_cfg(tmp_path, output__dir=["x", "y"])
    out = tmp_path / "s.csv"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: output.dir must be a string, got ['x', 'y']"), err
    assert solves == [] and not out.exists()
    assert not (tmp_path / "['x', 'y']").exists()


def _formatted_csv(header, rows):
    # per-value CSV: csv.writer over the repr of every float and the str
    # of every int
    fh = io.StringIO()
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
    return fh.getvalue().encode()


def test_repr_rows_match_formatted_rows(tmp_path):
    # the run-head writer of float tables and the joined reprs of mixed
    # rows give the bytes of the per-value writer on signed zero, NaN,
    # infinities, the smallest subnormal, small and large exponents,
    # integral floats and integer columns, on runs of equal cells along a
    # row, across the writer's row blocks and in one column; so do the
    # grid, per-path and sweep CSVs read back
    nan, inf = float("nan"), float("inf")
    x = np.array([0.0, -0.0, 1e-05, 1e16, 1e+16 + 2.0, 3.0, -2.5, 0.1, 1 / 3, inf, -1e-300,
                  nan, -inf, 5e-324])
    block = np.column_stack([x[::-1], 2.0 * x, np.full(x.size, 7.0)])
    header = ["x", "c=0.0", "c=0.5", "c=1.2"]
    # more rows than one writer block; runs of 1 to 7 cells that shift with
    # the row, whole-row runs on both sides of the first block edge (equal
    # to each other, so a run would cross it were rows not kept apart),
    # -0.0 beside 0.0, and NaNs of two bit patterns side by side
    pool = np.array([0.0, -0.0, 1 / 3, nan, inf, -inf, 5e-324, 1e16, 0.1])
    n_rows, n_cols = 2 * _BLOCK_ROWS + 3, 40
    i, j = np.ogrid[:n_rows, :n_cols]
    wide = pool[(i + j // (1 + i % 7)) % pool.size]
    wide[_BLOCK_ROWS - 1 : _BLOCK_ROWS + 1] = 1 / 3
    wide[0, :] = np.resize([0.0, -0.0, -0.0, 0.0], n_cols)
    wide[1, :] = np.resize([nan, -nan, -nan, nan, 2.5], n_cols)
    cases = (
        (header, np.column_stack((x, block))),
        (["x"] + [f"c={k}" for k in range(1, n_cols)], np.column_stack((wide[:, 0], wide[:, 1:]))),
        (["x"], np.column_stack((x,))),
        (["v", "n"], list(zip(x.tolist(), range(x.size)))),
    )
    bodies = []
    for head, rows in cases:
        path = str(tmp_path / "rows.csv")
        _write_rows(path, head, rows)
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        with open(path, "rb") as fh:
            bodies.append(fh.read().decode())
            assert bodies[-1].encode() == _formatted_csv(head, rows)
    assert "-0.0," in bodies[0] and "1e-05," in bodies[0] and "1e+16," in bodies[0]
    assert "\n3.0," in bodies[3] and "nan," in bodies[0] and "5e-324," in bodies[0]
    assert "\n0.0,-0.0,-0.0,0.0,0.0,-0.0," in bodies[1]
    assert "\nnan,nan,nan,nan,2.5,nan," in bodies[1]
    assert "\n" + ",".join(["0.3333333333333333"] * n_cols) + "\n" in bodies[1]
    assert bodies[2].splitlines()[-1] == "5e-324"

    cfg = make_cfg(tmp_path, ladder__n=4)
    pp, sweep = str(tmp_path / "paths.csv"), str(tmp_path / "sweep.csv")
    grids = {cmd: str(tmp_path / f"{cmd}.csv") for cmd in ("solve", "rate-map", "boundary")}
    for cmd, out in grids.items():
        assert main([cmd, "--config", cfg, "--out", out]) == 0
    (cache,) = (tmp_path / "out").glob("surface-*.bin")
    surface, _ = read_surface(str(cache))
    assert main(["simulate", "--config", cfg, "--strategy", "constant:0.7", "--x0", "-1",
                 "--paths", "50", "--out", str(tmp_path / "est.json"), "--per-path", pp]) == 0
    assert main(["sweep", "--config", cfg, "--param", "model.ell",
                 "--values", "1.5,2", "--out", sweep]) == 0
    tables = {}
    for path, cast in ((pp, (int, float)), (sweep, (float,) * 4),
                       *((out, None) for out in grids.values())):
        head, *rows = read_csv(path)
        rows = [[f(v) for f, v in zip(cast or (float,) * len(row), row)] for row in rows]
        tables[path] = np.array(rows)
        with open(path, "rb") as fh:
            assert fh.read() == _formatted_csv(head, rows)
    # the grid CSVs hold the surface bit for bit, and its switching region
    # gives runs of equal cells along the rows
    v, rm = tables[grids["solve"]][:, 1:], tables[grids["rate-map"]][:, 1:]
    assert np.array_equal(v.view(np.int64), surface.v.T.view(np.int64))
    assert np.array_equal(rm.view(np.int64), chained_rate_map(surface).T.view(np.int64))
    assert (v[:, 1:] == v[:, :-1]).any(axis=1).sum() > 10
