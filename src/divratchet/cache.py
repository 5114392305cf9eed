"""Binary persistence for solved surfaces.

Layout (all little-endian): magic "DRVS", u32 version, u32 header length,
a canonical JSON header (model, claims, grid, ladder, params hash), then
raw arrays in fixed order: rates, values, iteration counts, final update
norms (the surface reads its masks and slopes off the values).  Floats
travel as raw f64 bytes, so a write/read cycle is bit-exact.  A file is
written beside its path and moved into place, so a failed write leaves no
truncated cache.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct

import numpy as np

from .config import SURFACE_FORMAT, claims_spec
from .discretization import Grid
from .errors import CacheError, ValidationError
from .ladder import RateLadder
from .model import ClaimDistribution, ModelParams, make_distribution
from .surface import ValueSurface

MAGIC = b"DRVS"
VERSION = SURFACE_FORMAT


def write_surface(path: str, surface: ValueSurface) -> None:
    """Serialize a solved surface, its claim distribution included, to path."""
    kind, params = claims_spec(surface.claims)
    header = {
        "model": dataclasses.asdict(surface.m),
        "claims": {"kind": kind, "params": params},
        "grid": {"L": surface.grid.L, "n_x": surface.grid.n_x},
        "ladder": {"n": surface.ladder.n},
        "params_hash": surface.params_hash,
    }
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    arrays = ((surface.rates, "<f8"), (surface.v, "<f8"),
              (surface.iterations, "<i8"), (surface.update_norms, "<f8"))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<II", VERSION, len(hdr)) + hdr)
            for arr, dtype in arrays:
                fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _take(buf: memoryview, offset: int, count: int, dtype) -> tuple[np.ndarray, int]:
    size = count * np.dtype(dtype).itemsize
    if offset + size > len(buf):
        raise CacheError("cache file truncated")
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    return arr, offset + size


def read_surface(path: str) -> tuple[ValueSurface, ClaimDistribution]:
    """(surface, its claims) from a file of write_surface; bit-exact."""
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
    except (KeyError, TypeError, ValueError, ValidationError) as e:
        raise CacheError(f"cache header malformed: {e}") from None

    n_rows = ladder.n + 1
    n_nodes = grid.n_x + 1
    buf = memoryview(raw)
    off = 12 + hdr_len
    rates, off = _take(buf, off, n_rows, "<f8")
    v, off = _take(buf, off, n_rows * n_nodes, "<f8")
    iters, off = _take(buf, off, n_rows, "<i8")
    norms, off = _take(buf, off, n_rows, "<f8")
    if off != len(raw):
        raise CacheError("cache file has trailing bytes")
    if not np.array_equal(rates, ladder.rates):
        raise CacheError("cache rates disagree with the ladder header")

    v = v.reshape(n_rows, n_nodes)
    return ValueSurface(model, claims, grid, ladder, v, iters, norms, params_hash), claims
