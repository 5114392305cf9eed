"""Binary surface cache: bit-exact round trips, corruption detection and
writes that fail part-way."""

import json
import os
import struct

import numpy as np
import pytest

from divratchet import cache
from divratchet.cache import MAGIC, VERSION, read_surface, write_surface
from divratchet.config import SURFACE_FORMAT, claims_spec
from divratchet.discretization import Grid
from divratchet.errors import CacheError
from divratchet.ladder import RateLadder, solve_ladder
from divratchet.model import Exponential, HyperExponential, ModelParams

M = ModelParams(mu=2.0, lam=2.0, r=0.1, ell=2.0, c_bar=1.2, c_floor=0.0)
D = Exponential(gamma_mean=0.6)


@pytest.fixture(scope="module")
def surface():
    grid = Grid(L=20.0, n_x=200)
    ladder = RateLadder(c_bar=M.c_bar, c_floor=M.c_floor, n=8)
    surface = solve_ladder(M, D, grid, ladder)
    surface.params_hash = "ab" * 32
    return surface


def test_round_trip_bit_exact(surface, tmp_path):
    path = str(tmp_path / "s.bin")
    write_surface(path, surface)
    back, d = read_surface(path)
    assert d is back.claims
    assert np.array_equal(back.v, surface.v)
    assert np.array_equal(back.masks, surface.masks)
    for a, b in zip(back.slopes(), surface.slopes()):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(back.rates, surface.rates)
    assert np.array_equal(back.iterations, surface.iterations)
    assert np.array_equal(back.update_norms, surface.update_norms)
    assert back.params_hash == surface.params_hash
    assert back.m == M
    assert back.grid == surface.grid
    assert back.ladder.n == surface.ladder.n
    assert isinstance(d, Exponential) and d.gamma_mean == 0.6


def test_rewrite_is_byte_identical(surface, tmp_path):
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    write_surface(p1, surface)
    back, _ = read_surface(p1)
    write_surface(p2, back)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_values_usable_after_reload(surface, tmp_path):
    path = str(tmp_path / "s.bin")
    write_surface(path, surface)
    back, _ = read_surface(path)
    for x, c in [(0.0, 0.0), (3.0, 0.6), (12.5, 1.2)]:
        assert back.value_at(x, c) == surface.value_at(x, c)


def test_hyperexponential_claims_round_trip(tmp_path):
    d = HyperExponential(weights=(0.25, 0.75), means=(0.2, 1.0))
    grid = Grid(L=30.0, n_x=150)
    ladder = RateLadder(c_bar=M.c_bar, c_floor=M.c_floor, n=4)
    surf = solve_ladder(M, d, grid, ladder)
    path = str(tmp_path / "h.bin")
    write_surface(path, surf)
    back, d2 = read_surface(path)
    assert isinstance(d2, HyperExponential)
    assert claims_spec(d2) == claims_spec(d)
    assert np.array_equal(back.v, surf.v)


def test_missing_file(tmp_path):
    with pytest.raises(CacheError, match="cannot read"):
        read_surface(str(tmp_path / "absent.bin"))


def test_wrong_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CacheError, match="not a surface cache"):
        read_surface(str(p))


def test_wrong_version(surface, tmp_path):
    path = tmp_path / "s.bin"
    write_surface(str(path), surface)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError, match="version 99"):
        read_surface(str(path))


def test_truncated_payload(surface, tmp_path):
    path = tmp_path / "s.bin"
    write_surface(str(path), surface)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(CacheError, match="truncated"):
        read_surface(str(path))


def test_trailing_garbage(surface, tmp_path):
    path = tmp_path / "s.bin"
    write_surface(str(path), surface)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CacheError, match="trailing"):
        read_surface(str(path))


def test_header_corruption(surface, tmp_path):
    path = tmp_path / "s.bin"
    write_surface(str(path), surface)
    raw = bytearray(path.read_bytes())
    # smash one byte inside the JSON header
    raw[20] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError):
        read_surface(str(path))


def test_layout_is_header_rates_values_iterations_norms(surface, tmp_path):
    # the masks and slopes are read off v, so the file holds v alone
    path = tmp_path / "s.bin"
    write_surface(str(path), surface)
    raw = path.read_bytes()
    (hdr_len,) = struct.unpack_from("<I", raw, 8)
    rows, nodes = surface.v.shape
    assert len(raw) == 12 + hdr_len + 8 * (rows + rows * nodes + rows + rows)


def test_version_is_the_surface_format():
    assert VERSION == SURFACE_FORMAT == 2


def test_version_1_file_rejected(surface, tmp_path):
    path = tmp_path / "s.bin"
    write_surface(str(path), surface)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError, match="version 1 unsupported"):
        read_surface(str(path))


def with_header(path, edit):
    """Rewrite the JSON header of the cache at path through edit(header)."""
    raw = path.read_bytes()
    (hdr_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + hdr_len])
    edit(header)
    hdr = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(hdr)) + hdr + raw[12 + hdr_len :])


@pytest.mark.parametrize(
    "params", [{"gamma": True}, {"gamma": "abc"}, {"gamma": [0.6]}, {"gamma": None}],
    ids=["bool", "string", "list", "null"],
)
def test_malformed_claims_header_is_a_cache_error(surface, tmp_path, params):
    path = tmp_path / "s.bin"
    write_surface(str(path), surface)
    with_header(path, lambda h: h["claims"].update(params=params))
    with pytest.raises(CacheError, match="header malformed: claims.gamma must be a number"):
        read_surface(str(path))


def test_failed_write_keeps_earlier_cache(surface, tmp_path, monkeypatch):
    # the write fails after the header and the rates: the cache already at
    # the path stays byte-identical and no temporary file is left behind
    path = tmp_path / "s.bin"
    write_surface(str(path), surface)
    before = path.read_bytes()
    calls = []
    real = np.ascontiguousarray

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk full")
        return real(*args, **kwargs)

    other = read_surface(str(path))[0]
    other.params_hash = "cd" * 32
    monkeypatch.setattr(cache.np, "ascontiguousarray", failing)
    with pytest.raises(OSError, match="disk full"):
        write_surface(str(path), other)
    monkeypatch.undo()
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["s.bin"]


def test_failed_first_write_leaves_no_file(surface, tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cache.np, "ascontiguousarray", failing)
    with pytest.raises(OSError, match="disk full"):
        write_surface(str(tmp_path / "s.bin"), surface)
    assert os.listdir(tmp_path) == []
