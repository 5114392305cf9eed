"""The traced benchmark (perfbench/tracing.py) wraps package functions at
their import sites.  These tests install and uninstall its tracer and run
one small solve under it, so removing or renaming a patched name fails
here rather than in a benchmark run."""

from pathlib import Path

import pytest
import yaml

import divratchet.cli as cli
import divratchet.discretization as discretization
import divratchet.ladder as ladder
import divratchet.verify as verify
from divratchet.surface import ValueSurface

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MODEL = {"mu": 2.0, "lam": 2.0, "r": 0.1, "ell": 2.0, "c_bar": 1.2, "c_floor": 0.0}


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_names_the_benchmark_imports_exist():
    # perfbench/child.py imports these directly
    from divratchet._sweep import projected_backward_scan  # noqa: F401
    from divratchet.cache import read_surface  # noqa: F401
    from divratchet.cli import main  # noqa: F401
    from divratchet.config import load_config  # noqa: F401
    from divratchet.discretization import get_kernel  # noqa: F401
    from divratchet.surface import extract_boundary  # noqa: F401


def test_install_and_uninstall_restore_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    owners = [
        (cli, "load_config"), (cli, "solve_ladder"), (verify, "solve_ladder"),
        (ladder, "solve_rung"), (ladder, "solve_g"), (ladder, "projected_backward_scan"),
        (discretization.ConvKernel, "convolve"), (ValueSurface, "from_solution"),
        (cli, "run_invariant_suite"), (cli, "calibrate_eps_disc"), (cli, "mc_cross_check"),
        (cli, "write_surface"), (cli, "read_surface"),
    ]
    before = [owner.__dict__[attr] for owner, attr in owners]
    t = Tracer()
    t.install()
    try:
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(owners, before))
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(owners, before))


def test_traced_solve_records_every_layer(tracer, tmp_path):
    doc = {
        "model": dict(MODEL),
        "claims": {"kind": "exponential", "gamma": 0.6},
        "grid": {"L": 20.0, "n_x": 100},
        "ladder": {"n": 4},
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    rc = cli.main(["solve", "--config", str(cfg), "--force", "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    for name in ("config.load", "ladder.solve", "boundary.solve", "surface.build", "cache.write"):
        assert tracer.calls(name) == 1, name
    assert tracer.calls("ladder.rung") == 4
    assert len(tracer.sweeps) == 4 and min(tracer.sweeps) >= 1
    assert tracer.calls("discretization.convolve") > 0
