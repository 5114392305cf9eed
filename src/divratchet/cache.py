"""Binary persistence for solved surfaces.

Layout (all little-endian): magic "DRVS", u32 version, u32 header length,
a header that is `config.surface_spec` of the surface (its model, claims,
grid and ladder config sections, read back by `config_from_mapping`), then
raw arrays in fixed order: values, iteration counts, final update norms
(the surface reads its rates off the ladder and its masks and slopes off
the values).  Floats travel as raw f64 bytes, so a write/read cycle is
bit-exact.  A file is written beside its path and moved into place, so a
failed write leaves no truncated cache.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .config import SURFACE_FORMAT, config_from_mapping, surface_spec
from .errors import CacheError, ValidationError
from .model import ClaimDistribution
from .surface import ValueSurface

MAGIC = b"DRVS"
VERSION = SURFACE_FORMAT


def write_surface(path: str, surface: ValueSurface) -> None:
    """Serialize a solved surface, its claim distribution included, to path."""
    hdr = surface_spec(surface.m, surface.claims, surface.grid, surface.ladder).encode()
    arrays = ((surface.v, "<f8"), (surface.iterations, "<i8"), (surface.update_norms, "<f8"))
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
        if not isinstance(header, dict):
            raise ValidationError("not a JSON object")
        cfg = config_from_mapping(header)
    except (ValueError, ValidationError) as e:
        raise CacheError(f"cache header malformed: {e}") from None

    n_rows = cfg.ladder.n + 1
    n_nodes = cfg.grid.n_x + 1
    buf = memoryview(raw)
    off = 12 + hdr_len
    v, off = _take(buf, off, n_rows * n_nodes, "<f8")
    iters, off = _take(buf, off, n_rows, "<i8")
    norms, off = _take(buf, off, n_rows, "<f8")
    if off != len(raw):
        raise CacheError("cache file has trailing bytes")

    v = v.reshape(n_rows, n_nodes)
    surface = ValueSurface(cfg.model, cfg.claims, cfg.grid, cfg.ladder, v, iters, norms)
    return surface, cfg.claims
