"""YAML run-config loading, validation messages, and the params hash."""

import re

import pytest
import yaml

from divratchet import config
from divratchet.config import RunConfig, claims_spec, load_config
from divratchet.discretization import Grid
from divratchet.errors import ParseError, ValidationError
from divratchet.ladder import RateLadder
from divratchet.model import (
    Exponential,
    HyperExponential,
    ModelParams,
    ShiftedPareto,
    make_distribution,
)

BASE = {
    "model": {"mu": 2.0, "lam": 1.0, "r": 0.1, "ell": 1.2, "c_bar": 1.0, "c_floor": 0.0},
    "claims": {"kind": "exponential", "gamma": 0.5},
    "grid": {"L": 30.0, "n_x": 2000},
    "ladder": {"n": 256},
}


def write_cfg(tmp_path, doc, name="run.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    return str(p)


def base_doc(**over):
    doc = {k: dict(v) for k, v in BASE.items()}
    for key, val in over.items():
        sec, _, fld = key.partition("__")
        if fld:
            doc.setdefault(sec, {})[fld] = val
        else:
            doc[sec] = val
    return doc


def test_load_minimal_config(tmp_path):
    cfg = load_config(write_cfg(tmp_path, base_doc()))
    assert cfg.model.mu == 2.0
    assert cfg.model.c_bar == 1.0
    assert isinstance(cfg.claims, Exponential)
    assert cfg.claims.gamma_mean == 0.5
    assert cfg.grid.n_x == 2000
    assert cfg.ladder.n == 256
    # defaults fill in the optional sections
    assert cfg.paths == 100000
    assert cfg.horizon is None
    assert cfg.out_dir == "."


def test_optional_sections_respected(tmp_path):
    doc = base_doc()
    doc["simulate"] = {"paths": 5000, "seed": 7, "horizon": 100.0}
    doc["output"] = {"dir": "out"}
    cfg = load_config(write_cfg(tmp_path, doc))
    assert cfg.paths == 5000
    assert cfg.seed == 7
    assert cfg.horizon == 100.0
    assert cfg.out_dir == "out"


def test_output_dir_null_is_the_default(tmp_path):
    # `dir:` left empty loads as None and must not name a directory "None"
    cfg = load_config(write_cfg(tmp_path, base_doc(output={"dir": None})))
    assert cfg.out_dir == "."


@pytest.mark.parametrize("val", [["x", "y"], 5, {"a": "b"}, True])
def test_output_dir_must_be_a_string(tmp_path, val):
    with pytest.raises(ValidationError, match=r"output\.dir must be a string, got "):
        load_config(write_cfg(tmp_path, base_doc(output={"dir": val})))


def test_run_config_rejects_non_string_out_dir():
    m = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
    with pytest.raises(ValidationError, match="output.dir must be a string, got None"):
        RunConfig(
            model=m,
            claims=Exponential(gamma_mean=0.5),
            grid=Grid(L=10.0, n_x=100),
            ladder=RateLadder(c_bar=1.0, c_floor=0.0, n=16),
            out_dir=None,
        )


def test_hash_stable_across_reload(tmp_path):
    path = write_cfg(tmp_path, base_doc())
    h1 = load_config(path).params_hash
    h2 = load_config(path).params_hash
    assert h1 == h2
    assert len(h1) == 64 and set(h1) <= set("0123456789abcdef")


@pytest.mark.parametrize(
    "key,val",
    [
        ("model__mu", 2.1),
        ("model__lam", 1.5),
        ("model__r", 0.2),
        ("model__ell", 1.3),
        ("model__c_bar", 0.9),
        ("claims__gamma", 0.6),
        ("grid__L", 25.0),
        ("grid__n_x", 1000),
        ("ladder__n", 128),
    ],
)
def test_hash_changes_with_surface_inputs(tmp_path, key, val):
    base = load_config(write_cfg(tmp_path, base_doc(), "a.yaml")).params_hash
    other = load_config(write_cfg(tmp_path, base_doc(**{key: val}), "b.yaml")).params_hash
    assert other != base


def test_hash_changes_with_the_surface_format(tmp_path, monkeypatch):
    # the format salts the hash, so a cache of another layout has another
    # file name; salted with format 1 (v, v', masks), the base config's
    # inputs hash to this
    cfg = load_config(write_cfg(tmp_path, base_doc()))
    now = cfg.params_hash
    monkeypatch.setattr(config, "SURFACE_FORMAT", 1)
    old = cfg.params_hash
    assert old == "65320cfd1145a13dde22ebc57306b49735c91c798fc01cd55cc1b7f322a82e1a"
    assert now != old


@pytest.mark.parametrize(
    "key,val",
    [
        ("simulate__paths", 777),
        ("simulate__seed", 99),
        ("simulate__horizon", 50.0),
        ("output__dir", "elsewhere"),
    ],
)
def test_hash_ignores_simulation_only_fields(tmp_path, key, val):
    base = load_config(write_cfg(tmp_path, base_doc(), "a.yaml")).params_hash
    other = load_config(write_cfg(tmp_path, base_doc(**{key: val}), "b.yaml")).params_hash
    assert other == base


def test_hash_distinguishes_claim_families(tmp_path):
    exp = load_config(write_cfg(tmp_path, base_doc(), "a.yaml")).params_hash
    hyper = base_doc()
    hyper["claims"] = {
        "kind": "hyperexponential",
        "weights": [1.0],
        "means": [0.5],
    }
    hh = load_config(write_cfg(tmp_path, hyper, "b.yaml")).params_hash
    # same moments, different family tag: must not collide
    assert hh != exp


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_config(str(tmp_path / "nope.yaml"))


def test_bad_yaml_is_parse_error(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("model: [unclosed\n")
    with pytest.raises(ParseError, match="cannot parse"):
        load_config(str(p))


def test_non_mapping_yaml_is_parse_error(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ParseError, match="mapping"):
        load_config(str(p))


def test_missing_section_names_the_section(tmp_path):
    doc = base_doc()
    del doc["grid"]
    with pytest.raises(ValidationError, match="'grid'"):
        load_config(write_cfg(tmp_path, doc))


def test_missing_field_names_the_field(tmp_path):
    doc = base_doc()
    del doc["model"]["mu"]
    with pytest.raises(ValidationError, match="model.mu is required"):
        load_config(write_cfg(tmp_path, doc))


def test_bad_type_names_the_field(tmp_path):
    with pytest.raises(ValidationError, match="grid.n_x"):
        load_config(write_cfg(tmp_path, base_doc(grid__n_x="lots")))


@pytest.mark.parametrize(
    "key,val",
    [
        ("grid__n_x", 200.9),
        ("ladder__n", 4.5),
        ("simulate__seed", 7.9),
        ("simulate__paths", 100.5),
        ("ladder__n", True),
        ("simulate__seed", False),
        ("simulate__seed", float("inf")),
    ],
)
def test_integer_key_rejects_what_int_would_truncate(tmp_path, key, val):
    name = key.replace("__", ".")
    with pytest.raises(ValidationError, match=f"{name} must be an integer, got {val!r}"):
        load_config(write_cfg(tmp_path, base_doc(**{key: val})))


def test_integer_key_accepts_integral_float_and_string(tmp_path):
    cfg = load_config(write_cfg(tmp_path, base_doc(grid__n_x=2000.0, ladder__n="256")))
    assert type(cfg.grid.n_x) is int and cfg.grid.n_x == 2000
    assert type(cfg.ladder.n) is int and cfg.ladder.n == 256


def test_model_validation_propagates(tmp_path):
    with pytest.raises(ValidationError, match="ell must exceed 1"):
        load_config(write_cfg(tmp_path, base_doc(model__ell=0.9)))


@pytest.mark.parametrize(
    "claims,message",
    [
        ({"kind": "exponential", "gamma": "abc"}, "claims.gamma must be a number, got 'abc'"),
        ({"kind": "exponential", "gamma": [1]}, "claims.gamma must be a number, got [1]"),
        ({"kind": "exponential", "gamma": True}, "claims.gamma must be a number, got True"),
        ({"kind": "shifted_pareto", "alpha": None, "theta": 1.2},
         "claims.alpha must be a number, got None"),
        ({"kind": "hyperexponential", "weights": 0.5, "means": [0.3]},
         "claims.weights must be a list of numbers, got 0.5"),
        ({"kind": "hyperexponential", "weights": [1.0], "means": "abc"},
         "claims.means must be a list of numbers, got 'abc'"),
        ({"kind": "hyperexponential", "weights": [0.5, 0.5], "means": "12"},
         "claims.means must be a list of numbers, got '12'"),
        ({"kind": "hyperexponential", "weights": [0.5, 0.5], "means": [1.0, False]},
         "claims.means[1] must be a number, got False"),
    ],
    ids=["string", "list", "bool", "null", "scalar-weights", "string-means",
         "digit-string-means", "bool-mean"],
)
def test_claims_values_are_checked_like_model_values(tmp_path, claims, message):
    # each was a raw TypeError or ValueError, or loaded silently ("12" as
    # means (1.0, 2.0), True as 1.0)
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_config(write_cfg(tmp_path, base_doc(claims=claims)))


def test_claims_accept_what_model_values_accept(tmp_path):
    doc = base_doc(claims={"kind": "hyperexponential", "weights": [1, "0"], "means": ["0.5", 2]})
    with pytest.raises(ValidationError, match="mixture weights must be positive"):
        load_config(write_cfg(tmp_path, doc))
    doc = base_doc(claims={"kind": "exponential", "gamma": "0.5"})
    assert load_config(write_cfg(tmp_path, doc)).claims == Exponential(0.5)


def test_missing_claims_kind(tmp_path):
    doc = base_doc()
    doc["claims"] = {"gamma": 0.5}
    with pytest.raises(ValidationError, match="claims.kind"):
        load_config(write_cfg(tmp_path, doc))


def test_unknown_method_rejected(tmp_path):
    with pytest.raises(ValidationError, match="unknown config key solver$"):
        load_config(write_cfg(tmp_path, base_doc(solver__method="magic")))


@pytest.mark.parametrize(
    "over,name",
    [
        # the solver has no settings: its stop rules follow from the
        # certificate's bounds and the model
        ({"solver__update_tol": 1e-10}, "solver"),
        ({"ladder__update_tl": 1e-9}, "ladder.update_tl"),
        ({"model__mue": 2.0}, "model.mue"),
        ({"solvr": {"update_tol": 1e-9}}, "solvr"),
        ({"claims__alpha": 3.0}, "claims.alpha for claims.kind 'exponential'"),
        (
            {"claims": {"kind": "shifted_pareto", "alpha": 3.0, "theta": 1.2, "gamma": 0.5}},
            "claims.gamma for claims.kind 'shifted_pareto'",
        ),
        ({"grid__method": "auto"}, "grid.method"),
    ],
)
def test_unknown_key_rejected(tmp_path, over, name):
    with pytest.raises(ValidationError, match=f"unknown config key {name}"):
        load_config(write_cfg(tmp_path, base_doc(**over)))


def test_ladder_endpoints_must_match_model():
    m = ModelParams(mu=2.0, lam=1.0, r=0.1, ell=1.2, c_bar=1.0, c_floor=0.0)
    bad = RateLadder(c_bar=0.8, c_floor=0.0, n=16)
    with pytest.raises(ValidationError, match="ladder endpoints"):
        RunConfig(
            model=m,
            claims=Exponential(gamma_mean=0.5),
            grid=Grid(L=10.0, n_x=100),
            ladder=bad,
        )


@pytest.mark.parametrize(
    "dist",
    [
        Exponential(gamma_mean=0.5),
        HyperExponential(weights=(0.3, 0.7), means=(0.2, 1.5)),
        ShiftedPareto(alpha=2.5, theta=1.0),
    ],
)
def test_claims_spec_round_trip(dist):
    kind, params = claims_spec(dist)
    rebuilt = make_distribution(kind, params)
    assert type(rebuilt) is type(dist)
    assert claims_spec(rebuilt) == (kind, params)


README_CONFIG = """\
model:  {mu: 2.0, lam: 2.0, r: 0.1, ell: 2.0, c_bar: 1.2, c_floor: 0.0}
claims: {kind: exponential, gamma: 0.6}      # or hyperexponential / shifted_pareto
grid:   {L: 20.0, n_x: 800}
ladder: {n: 32}
simulate: {paths: 100000, seed: 20240901}       # optional
output:   {dir: runs}                           # optional, cache location
"""


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_and_python_loaders_agree():
    fast = yaml.load(README_CONFIG, Loader=yaml.CSafeLoader)
    slow = yaml.load(README_CONFIG, Loader=yaml.SafeLoader)
    assert fast == slow
    assert fast["simulate"]["seed"] == 20240901


def test_loads_without_libyaml(tmp_path, monkeypatch):
    p = tmp_path / "run.yaml"
    p.write_text(README_CONFIG)
    with_default = load_config(str(p))
    monkeypatch.setattr(yaml, "__with_libyaml__", False)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_config(str(p)) == with_default
    p.write_text("model: [unclosed\n")
    with pytest.raises(ParseError, match="cannot parse"):
        load_config(str(p))
