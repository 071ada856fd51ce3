"""Tests of the benchmark's own references (python3 -m pytest bench)."""

import struct

import numpy as np
import pytest

import oracles


@pytest.mark.parametrize("q, fold", [(6.0, 4.0 / 27.0), (4.0, 27.0 / 256.0)])
def test_fold_1d_constant_a_is_the_scalar_fold(q, fold):
    assert oracles.scalar_fold(q) == pytest.approx(fold, rel=1e-15)
    assert oracles.fold_1d(np.ones(16), q) == pytest.approx(fold, abs=1e-12)


def test_fold_1d_scales_with_constant_a():
    # theta a is what enters the equation, so doubling a halves the fold
    assert oracles.fold_1d(np.full(12, 2.0), 6.0) == pytest.approx(2.0 / 27.0, abs=1e-12)


def test_fold_1d_cosine_a_lies_above_the_mean_fold():
    # a = 1 + 0.3 cos(2 pi x): a varying coefficient moves the fold off 4/27
    x = np.arange(16) / 16
    theta = oracles.fold_1d(1.0 + 0.3 * np.cos(2 * np.pi * x), 6.0)
    assert 4.0 / 27.0 < theta < 0.16


def test_scalar_roots_closed_form_n3():
    # q = 6, x = c^4: x^2 (1 - x) = theta; theta = 1/8 has x = 1/2 and
    # x = (1 + sqrt 5) / 4 as its positive roots
    c1, c2 = oracles.scalar_roots(0.125, 6.0)
    assert c1 == pytest.approx(0.5 ** 0.25, rel=1e-15)
    assert c2 == pytest.approx(((1.0 + 5.0 ** 0.5) / 4.0) ** 0.25, rel=1e-15)


@pytest.mark.parametrize("q", [6.0, 4.0, 10.0 / 3.0, 10.0 / 3.0 - 0.25])
@pytest.mark.parametrize("c", [0.3, 0.6])
def test_scalar_roots_recover_a_chosen_root(q, c):
    # theta := c^(q+2) - c^(2q) puts the smaller root at c for c below the peak
    assert c < oracles.scalar_peak(q)
    theta = c ** (q + 2) - c ** (2 * q)
    lo, hi = oracles.scalar_roots(theta, q)
    assert lo == pytest.approx(c, rel=1e-14)
    assert hi ** (q + 2) - hi ** (2 * q) == pytest.approx(theta, rel=1e-12)


def test_scalar_roots_reject_theta_above_the_fold():
    with pytest.raises(ValueError):
        oracles.scalar_roots(0.2, 6.0)


def test_constant_root_field_has_zero_residual():
    c, _ = oracles.scalar_roots(0.1, 4.0)
    u = np.full((6, 6, 6, 6), c)
    one = np.ones_like(u)
    assert oracles.residual_sup(u, [1.0] * 4, 4.0, 0.1, one, one, one) < 1e-14


def test_energy_of_constant_field():
    c, q, theta = 0.8, 6.0, 0.1
    u = np.full((4, 4, 4), c)
    one = np.ones_like(u)
    expected = 0.5 * c * c - c ** q / q + theta / q * c ** (-q)
    assert oracles.energy(u, [1.0] * 3, q, theta, one, one, one) == pytest.approx(expected)


def test_read_field_layout(tmp_path):
    values = np.arange(4 * 6 * 8, dtype=np.float64).reshape(4, 6, 8) / 7.0
    data = b"LTFIELD1" + struct.pack("<I", 3) + struct.pack("<3I", 4, 6, 8) \
        + struct.pack("<3d", 1.0, 2.0, 0.5) + values.astype("<f8").tobytes()
    path = tmp_path / "u.field"
    path.write_bytes(data)
    got, periods = oracles.read_field(path)
    assert periods == (1.0, 2.0, 0.5)
    assert np.array_equal(got, values)
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        oracles.read_field(path)

