import struct

import numpy as np
import pytest

import lichtorus as lt
from lichtorus.fieldio import field_from_bytes, field_to_bytes, read_field, write_field

from conftest import smooth_random_field


def test_roundtrip_bit_identical(tmp_path, grid8):
    rng = np.random.default_rng(42)
    u = smooth_random_field(grid8, rng, mean=0.3)
    path = tmp_path / "u.field"
    write_field(path, u)
    back = read_field(path)
    assert back.grid == u.grid
    assert np.array_equal(back.values, u.values)
    # byte-level roundtrip too
    assert field_to_bytes(back) == field_to_bytes(u)


def test_header_carries_geometry(tmp_path):
    g = lt.build_grid(4, [6, 8, 10, 12], [1.0, 2.0, 0.5, 3.0])
    u = lt.constant_field(g, 1.5)
    blob = field_to_bytes(u)
    back = field_from_bytes(blob)
    assert back.grid.dim == 4
    assert back.grid.resolutions == (6, 8, 10, 12)
    assert back.grid.periods == (1.0, 2.0, 0.5, 3.0)


def test_bad_magic_rejected(grid8):
    blob = field_to_bytes(lt.constant_field(grid8, 1.0))
    with pytest.raises(ValueError, match="magic"):
        field_from_bytes(b"XX" + blob[2:])


@pytest.mark.parametrize("cut", [8, 10, 12, 20, 24, 40, 47, 2072])
def test_truncated_rejected(grid8, cut):
    # cuts in the 48-byte header (magic, dim, three resolutions, three
    # periods) and one halfway through the dump
    blob = field_to_bytes(lt.constant_field(grid8, 1.0))
    with pytest.raises(ValueError, match="truncated"):
        field_from_bytes(blob[:cut])


def test_header_dimension_out_of_range_rejected(grid8):
    # checked before the per-axis entries, which this dim would put far
    # beyond the end of the dump
    blob = field_to_bytes(lt.constant_field(grid8, 1.0))
    with pytest.raises(ValueError, match="dimension out of range"):
        field_from_bytes(blob[:8] + struct.pack("<I", 2**32 - 1) + blob[12:])
