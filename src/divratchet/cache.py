"""Binary persistence for solved surfaces.

Layout (all little-endian): magic "DRVS", u32 version, u32 header length,
a canonical JSON header (model, claims, grid, ladder, params hash), then
raw arrays in fixed order: rates, values, derivatives, switch masks,
iteration counts, final update norms.  Floats travel as raw f64 bytes, so
a write/read cycle reproduces every surface array bit-exactly.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .config import claims_spec
from .discretization import Grid
from .errors import CacheError
from .ladder import RateLadder
from .model import ClaimDistribution, ModelParams, make_distribution
from .surface import ValueSurface

MAGIC = b"DRVS"
VERSION = 1


def write_surface(path: str, surface: ValueSurface, d: ClaimDistribution) -> None:
    """Serialize a solved surface (with its claim distribution) to path."""
    m = surface.m
    grid = surface.grid
    ladder = surface.ladder
    kind, params = claims_spec(d)
    header = {
        "model": {
            "mu": m.mu,
            "lam": m.lam,
            "r": m.r,
            "ell": m.ell,
            "c_bar": m.c_bar,
            "c_floor": m.c_floor,
        },
        "claims": {"kind": kind, "params": params},
        "grid": {"L": grid.L, "n_x": grid.n_x},
        "ladder": {"n": ladder.n},
        "params_hash": surface.params_hash,
    }
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(hdr)))
        fh.write(hdr)
        fh.write(np.ascontiguousarray(surface.rates, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(surface.v, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(surface.v_prime, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(surface.masks, dtype=np.uint8).tobytes())
        fh.write(np.ascontiguousarray(surface.iterations, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(surface.update_norms, dtype="<f8").tobytes())


def _take(buf: memoryview, offset: int, count: int, dtype) -> tuple[np.ndarray, int]:
    size = count * np.dtype(dtype).itemsize
    if offset + size > len(buf):
        raise CacheError("cache file truncated")
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    return arr, offset + size


def read_surface(path: str) -> tuple[ValueSurface, ClaimDistribution]:
    """Load a surface written by write_surface; bit-exact round trip."""
    try:
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())  # writable, like the arrays viewing it
    except OSError as e:
        raise CacheError(f"cannot read cache {path}: {e}") from None
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CacheError(f"{path} is not a surface cache file")
    version, hdr_len = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise CacheError(f"cache version {version} unsupported (want {VERSION})")
    if len(raw) < 12 + hdr_len:
        raise CacheError("cache file truncated")
    try:
        header = json.loads(raw[12 : 12 + hdr_len].decode())
        model = ModelParams(**header["model"])
        claims = make_distribution(
            header["claims"]["kind"], header["claims"]["params"]
        )
        grid = Grid(L=header["grid"]["L"], n_x=int(header["grid"]["n_x"]))
        ladder = RateLadder(
            c_bar=model.c_bar, c_floor=model.c_floor, n=int(header["ladder"]["n"])
        )
        params_hash = str(header.get("params_hash", ""))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        raise CacheError(f"cache header malformed: {e}") from None

    n_rows = ladder.n + 1
    n_nodes = grid.n_x + 1
    buf = memoryview(raw)
    off = 12 + hdr_len
    rates, off = _take(buf, off, n_rows, "<f8")
    v, off = _take(buf, off, n_rows * n_nodes, "<f8")
    vp, off = _take(buf, off, n_rows * n_nodes, "<f8")
    masks, off = _take(buf, off, n_rows * n_nodes, np.uint8)
    iters, off = _take(buf, off, n_rows, "<i8")
    norms, off = _take(buf, off, n_rows, "<f8")
    if off != len(raw):
        raise CacheError("cache file has trailing bytes")
    if not np.array_equal(rates, ladder.rates):
        raise CacheError("cache rates disagree with the ladder header")

    shape = (n_rows, n_nodes)
    surface = ValueSurface(
        model, grid, ladder,
        v.reshape(shape), vp.reshape(shape), masks.reshape(shape).astype(bool),
        iters, norms, params_hash=params_hash,
    )
    return surface, claims
