import re
from pathlib import Path

import numpy as np
import pytest

import lichtorus as lt
from lichtorus.grid import (
    GridMismatchError,
    NonCoerciveOperatorError,
    gradient_energy,
    h1h_quadratic_form,
)

from conftest import smooth_random_field


class TestBuildGrid:
    def test_basic(self):
        g = lt.build_grid(3, [16, 16, 16], [1, 1, 1])
        assert g.npoints == 4096
        assert g.cell_volume == pytest.approx(1.0 / 4096)

    def test_dimension_out_of_range(self):
        with pytest.raises(ValueError, match="dimension out of range"):
            lt.build_grid(2, [16, 16], [1, 1])
        with pytest.raises(ValueError, match="dimension out of range"):
            lt.build_grid(6, [8] * 6, [1] * 6)

    def test_5d(self):
        g = lt.build_grid(5, [8] * 5, [1] * 5)
        assert g.npoints == 32768

    def test_odd_or_tiny_resolution(self):
        with pytest.raises(ValueError):
            lt.build_grid(3, [15, 16, 16], [1, 1, 1])
        with pytest.raises(ValueError):
            lt.build_grid(3, [2, 16, 16], [1, 1, 1])

    def test_nonpositive_period(self):
        with pytest.raises(ValueError):
            lt.build_grid(3, [8, 8, 8], [1, 0, 1])


class TestScalarField:
    def test_immutability(self, grid8):
        u = lt.constant_field(grid8, 2.0)
        with pytest.raises(ValueError):
            u.values[0, 0, 0] = 3.0

    def test_grid_mismatch(self, grid8):
        other = lt.build_grid(3, [8, 8, 8], [2.0, 1.0, 1.0])
        with pytest.raises(GridMismatchError):
            lt.constant_field(grid8, 1.0) + lt.constant_field(other, 1.0)

    def test_nonfinite_rejected(self, grid8):
        vals = np.ones(grid8.resolutions)
        vals[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            lt.ScalarField(grid8, vals)

    def test_arithmetic(self, grid8):
        u = lt.constant_field(grid8, 3.0)
        v = lt.constant_field(grid8, 2.0)
        assert (u - v).max() == 1.0
        assert (u * v).min() == 6.0
        assert (u / v).max() == 1.5
        assert (u ** 2).max() == 9.0
        assert (1.0 - v).min() == -1.0


class TestLaplacian:
    def test_annihilates_constants(self, grid8):
        assert lt.laplacian(lt.constant_field(grid8, 4.2)).sup_norm() < 1e-13

    def test_single_mode(self):
        g = lt.build_grid(3, [16, 16, 16], [2.0, 1.0, 1.0])
        u = lt.cosine_field(g, 1.0, [1, 0, 0])
        lap = lt.laplacian(u)
        expected = (2 * np.pi / 2.0) ** 2
        assert np.allclose(lap.values, expected * u.values, atol=1e-12)

    def test_linearity(self, grid8):
        u = lt.cosine_field(grid8, 1.0, [1, 0, 0])
        v = lt.cosine_field(grid8, 0.5, [0, 2, 1], 0.3)
        lhs = lt.laplacian(u + v)
        rhs = lt.laplacian(u) + lt.laplacian(v)
        assert (lhs - rhs).sup_norm() < 1e-12

    def test_symmetry(self, grid8):
        rng = np.random.default_rng(11)
        u = smooth_random_field(grid8, rng)
        v = smooth_random_field(grid8, rng)
        lhs = lt.l2_inner(lt.laplacian(u), v)
        rhs = lt.l2_inner(u, lt.laplacian(v))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_divergence_theorem(self, grid8):
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = smooth_random_field(grid8, rng)
            assert abs(lt.integrate(lt.laplacian(u))) < 1e-12


class TestHelmholtz:
    def test_constants(self, grid8):
        u = lt.helmholtz_solve(1.0, lt.constant_field(grid8, 1.0))
        assert np.allclose(u.values, 1.0, atol=1e-14)

    def test_single_mode(self, grid8):
        rhs = lt.cosine_field(grid8, 1.0, [1, 0, 0])
        u = lt.helmholtz_solve(1.0, rhs)
        assert np.allclose(u.values, rhs.values / (1 + 4 * np.pi**2), atol=1e-13)

    def test_nonpositive_constant(self, grid8):
        with pytest.raises(NonCoerciveOperatorError):
            lt.helmholtz_solve(0.0, lt.constant_field(grid8, 1.0))

    def test_variable_coefficient_residual(self, grid8):
        rng = np.random.default_rng(3)
        c = lt.constant_field(grid8, 1.0) + 0.3 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        rhs = smooth_random_field(grid8, rng)
        u = lt.helmholtz_solve(c, rhs)
        resid = lt.laplacian(u) + c * u - rhs
        assert resid.sup_norm() / rhs.sup_norm() <= 1e-9

    def test_variable_noncoercive_mean(self, grid8):
        c = lt.constant_field(grid8, -1.0)
        with pytest.raises(NonCoerciveOperatorError):
            lt.helmholtz_solve(c, lt.constant_field(grid8, 1.0))

    def test_roundtrip_random(self, grid8):
        rng = np.random.default_rng(17)
        for _ in range(5):
            u = smooth_random_field(grid8, rng)
            c = lt.constant_field(grid8, 2.0) + 0.5 * lt.cosine_field(grid8, 1.0, [0, 1, 0])
            rhs = lt.laplacian(u) + c * u
            back = lt.helmholtz_solve(c, rhs)
            assert (back - u).sup_norm() <= 1e-9 * max(1.0, u.sup_norm())


class TestNormsAndIntegrals:
    def test_integrate_one(self, grid8):
        assert lt.integrate(lt.constant_field(grid8, 1.0)) == pytest.approx(1.0)

    def test_h1h_constant(self, grid8):
        val = lt.h1h_norm(lt.constant_field(grid8, 1.0), lt.constant_field(grid8, 2.0))
        assert val == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_lp_cosine(self, grid8):
        u = lt.cosine_field(grid8, 1.0, [1, 0, 0])
        assert lt.lp_norm(u, 2.0) ** 2 == pytest.approx(0.5, abs=1e-14)

    def test_negative_form_errors(self, grid8):
        h = lt.constant_field(grid8, -1.0)
        with pytest.raises(NonCoerciveOperatorError):
            lt.h1h_norm(lt.constant_field(grid8, 1.0), h)

    def test_integration_by_parts(self, grid8):
        rng = np.random.default_rng(7)
        h = lt.constant_field(grid8, 1.5) + 0.25 * lt.cosine_field(grid8, 1.0, [1, 1, 0])
        for _ in range(3):
            u = smooth_random_field(grid8, rng)
            lhs = h1h_quadratic_form(u, h)
            rhs = lt.l2_inner(lt.laplacian(u), u) + lt.integrate(h * u * u)
            assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_gradient_energy_matches_gradient_fields(self, grid8):
        rng = np.random.default_rng(23)
        u = smooth_random_field(grid8, rng)
        parts = lt.gradient(u)
        direct = sum(lt.l2_inner(p, p) for p in parts)
        assert gradient_energy(u) == pytest.approx(direct, rel=1e-12)


def test_transforms_only_in_grid():
    # grid.py is the one spectral-operator layer: no other module reaches
    # for a transform, and there is one way back from Fourier space
    package = Path(lt.__file__).parent
    sources = {p.name: p.read_text() for p in package.glob("*.py")}
    users = sorted(name for name, text in sources.items()
                   if re.search(r"\b(np|numpy|scipy)\.fft\b", text))
    assert users == ["grid.py"]
    calls = sum(len(re.findall(r"\.irfftn\(", text)) for text in sources.values())
    assert calls == 1
