"""Self-describing binary field dumps.

Layout (little-endian throughout): magic "LTFIELD1" (8 bytes), uint32 dim,
uint32 x dim resolutions, float64 x dim periods, then the row-major float64
values.  Roundtrips are bit-identical.
"""

from __future__ import annotations

import struct

import numpy as np

from .grid import ScalarField, build_grid

MAGIC = b"LTFIELD1"


def field_to_bytes(field: ScalarField) -> bytes:
    grid = field.grid
    head = [MAGIC, struct.pack("<I", grid.dim)]
    head.append(struct.pack(f"<{grid.dim}I", *grid.resolutions))
    head.append(struct.pack(f"<{grid.dim}d", *grid.periods))
    body = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    return b"".join(head) + body


def field_from_bytes(data: bytes) -> ScalarField:
    if data[:8] != MAGIC:
        raise ValueError("not a field dump (bad magic)")
    if len(data) < 12:
        raise ValueError("field dump truncated")
    (dim,) = struct.unpack_from("<I", data, 8)
    if dim not in (3, 4, 5):
        raise ValueError(f"field dump dimension out of range: {dim} (must be 3, 4 or 5)")
    off = 12 + 12 * dim
    if len(data) < off:
        raise ValueError("field dump truncated")
    head = struct.unpack_from(f"<{dim}I{dim}d", data, 12)
    grid = build_grid(dim, head[:dim], head[dim:])
    count = grid.npoints
    if len(data) - off < 8 * count:
        raise ValueError("field dump truncated")
    values = np.frombuffer(data, dtype="<f8", count=count, offset=off)
    return ScalarField(grid, values.reshape(grid.resolutions))


def write_field(path, field: ScalarField) -> None:
    with open(path, "wb") as fh:
        fh.write(field_to_bytes(field))


def read_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        return field_from_bytes(fh.read())
