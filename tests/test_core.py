import warnings

import numpy as np
import pytest

import lichtorus as lt
from lichtorus import core
from lichtorus.core import (
    PositivityError,
    ProblemSpec,
    critical_spec,
    energy,
    energy_gradient,
    linearized_apply,
    linearized_potential,
    regularized_residual,
    residual,
)

from conftest import smooth_random_field


class TestProblemSpec:
    def test_two_star(self, unit_coeffs8):
        assert ProblemSpec(unit_coeffs8, 6.0).two_star == 6.0
        g4 = lt.build_grid(4, [6] * 4, [1] * 4)
        one4 = lt.constant_field(g4, 1.0)
        assert ProblemSpec(lt.Coefficients(one4, one4, one4), 4.0).two_star == 4.0
        g5 = lt.build_grid(5, [6] * 5, [1] * 5)
        one5 = lt.constant_field(g5, 1.0)
        assert ProblemSpec(lt.Coefficients(one5, one5, one5), 2.0).two_star == pytest.approx(10.0 / 3.0)

    def test_q_range(self, unit_coeffs8):
        with pytest.raises(ValueError):
            ProblemSpec(unit_coeffs8, 6.5)
        with pytest.raises(ValueError):
            ProblemSpec(unit_coeffs8, 1.5)

    def test_coefficient_invariants(self, grid8):
        one = lt.constant_field(grid8, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            lt.Coefficients(one, one, lt.constant_field(grid8, -0.1))
        with pytest.raises(ValueError, match="identically zero"):
            lt.Coefficients(one, one, lt.constant_field(grid8, 0.0))
        with pytest.raises(ValueError, match="max f"):
            lt.Coefficients(one, lt.constant_field(grid8, -1.0), one)


class TestResidual:
    def test_fold_constant_root(self, unit_coeffs8, grid8):
        spec = critical_spec(unit_coeffs8, 4.0 / 27.0)
        u = lt.constant_field(grid8, (2.0 / 3.0) ** 0.25)
        assert residual(spec, u).sup_norm() < 1e-13

    def test_trivial_theta0(self, unit_coeffs8, grid8):
        for q in (3.0, 4.5, 6.0):
            spec = ProblemSpec(unit_coeffs8, q, theta=0.0)
            assert residual(spec, lt.constant_field(grid8, 1.0)).sup_norm() < 1e-14

    def test_h2_theta1(self, grid8):
        one = lt.constant_field(grid8, 1.0)
        coeffs = lt.Coefficients(lt.constant_field(grid8, 2.0), one, one)
        for q in (2.5, 6.0):
            spec = ProblemSpec(coeffs, q, theta=1.0)
            assert residual(spec, one).sup_norm() < 1e-14

    def test_nonpositive_u(self, unit_coeffs8, grid8):
        spec = critical_spec(unit_coeffs8, 0.1)
        with pytest.raises(PositivityError):
            residual(spec, lt.constant_field(grid8, 0.0))


class TestEnergy:
    def test_constant_closed_form(self, grid8):
        one = lt.constant_field(grid8, 1.0)
        coeffs = lt.Coefficients(lt.constant_field(grid8, 2.0), one, one)
        spec = critical_spec(coeffs, 1.0)
        assert energy(spec, one) == pytest.approx(1.0, abs=1e-13)

    def test_theta0_reduces_to_quadratic_minus_q_term(self, unit_coeffs8, grid8):
        spec = ProblemSpec(unit_coeffs8, 4.0, theta=0.0)
        u = lt.constant_field(grid8, 1.3)
        expected = 0.5 * 1.3**2 - 1.3**4 / 4.0
        assert energy(spec, u) == pytest.approx(expected, abs=1e-13)

    def test_phi_lower_bound(self, unit_coeffs8, grid8):
        # I_eps(u) >= Phi_q(||u||) with Phi_q(t) = t^2/2 - (max|f|/q) S t^q
        q = 5.0
        s_est = lt.sobolev_constant_estimate(unit_coeffs8.h, q)
        spec = ProblemSpec(unit_coeffs8, q, theta=0.7, epsilon=1e-2)
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = smooth_random_field(grid8, rng, mean=float(rng.uniform(-1, 2)))
            t = lt.h1h_norm(u, unit_coeffs8.h)
            phi = 0.5 * t**2 - s_est / q * t**q
            assert energy(spec, u) >= phi - 1e-9

    def test_eps_monotone_from_below(self, unit_coeffs8, grid8):
        u = lt.constant_field(grid8, 0.7)
        spec0 = critical_spec(unit_coeffs8, 0.3)
        vals = [energy(spec0.at(epsilon=eps), u) for eps in (1e-1, 1e-3, 1e-6)]
        limit = energy(spec0, u)
        assert vals[0] < vals[1] < vals[2] <= limit + 1e-12

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_one_power_matches_two_powers(self, dim):
        # at epsilon = 0 the a-term is a / u^q, from the f-term's power
        grid = lt.build_grid(dim, [4] * dim, [1.0] * dim)
        rng = np.random.default_rng(dim)
        h, f, a = (smooth_random_field(grid, rng, mean=m, amplitude=0.2)
                   for m in (2.0, 1.0, 1.0))
        spec = critical_spec(lt.Coefficients(h, f, a), 0.3)
        values = 10.0 ** rng.uniform(-6.0, 3.0, size=(8, *grid.resolutions))
        q, axes, cellv = spec.q, grid.field_axes, grid.cell_volume
        two_powers = (0.5 * lt.grid.h1h_quadratic_forms(values, h)
                      - np.sum(f.values * values**q, axis=axes) * cellv / q
                      + spec.theta / q * np.sum(a.values * values ** (-q), axis=axes) * cellv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one_power = core.energies(spec, values)
        assert np.all(np.abs(one_power - two_powers) <= 1e-14 * np.abs(two_powers))
        values[5].flat[7] = 0.0
        with pytest.raises(PositivityError):
            core.energies(spec, values)


class TestEnergyGradient:
    def test_requires_eps(self, unit_coeffs8, grid8):
        spec = critical_spec(unit_coeffs8, 0.1)
        with pytest.raises(ValueError):
            energy_gradient(spec, lt.constant_field(grid8, 1.0))

    def test_finite_difference_match(self, unit_coeffs8, grid8):
        spec = ProblemSpec(unit_coeffs8, 5.0, theta=0.3, epsilon=1e-2)
        rng = np.random.default_rng(4)
        s = 1e-5
        for _ in range(5):
            u = smooth_random_field(grid8, rng, mean=1.0, amplitude=0.3)
            v = smooth_random_field(grid8, rng, amplitude=0.5)
            g = energy_gradient(spec, u)
            fd = (energy(spec, u + s * v) - energy(spec, u - s * v)) / (2 * s)
            pairing = lt.l2_inner(g, v)
            assert abs(fd - pairing) <= 1e-6 * max(1.0, abs(pairing))

    def test_vanishes_at_regularized_solution(self, unit_coeffs8, grid8):
        from lichtorus.branch import newton_refine
        from conftest import regularized_constant_root
        eps, q, theta = 1e-2, 5.0, 0.1
        spec = ProblemSpec(unit_coeffs8, q, theta=theta, epsilon=eps)
        c = regularized_constant_root(theta, q, eps)
        u = newton_refine(spec, lt.constant_field(grid8, c))
        assert energy_gradient(spec, u).sup_norm() <= 1e-10

    def test_nonpositive_u_linear(self, unit_coeffs8, grid8):
        spec = ProblemSpec(unit_coeffs8, 5.0, theta=0.4, epsilon=1e-3)
        u = lt.constant_field(grid8, -0.5) + 0.2 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        g = energy_gradient(spec, u)
        expected = lt.laplacian(u) + unit_coeffs8.h * u
        assert (g - expected).sup_norm() < 1e-13

    def test_matches_residual_at_small_eps(self, unit_coeffs8, grid8):
        spec0 = critical_spec(unit_coeffs8, 0.2)
        u = lt.constant_field(grid8, 0.9) + 0.05 * lt.cosine_field(grid8, 1.0, [0, 1, 0])
        r = residual(spec0, u)
        g = regularized_residual(spec0.at(epsilon=1e-14), u)
        assert (r - g).sup_norm() <= 1e-10


class TestLinearized:
    def test_fold_potential_vanishes(self, unit_coeffs8, grid8):
        spec = critical_spec(unit_coeffs8, 4.0 / 27.0)
        u = lt.constant_field(grid8, (2.0 / 3.0) ** 0.25)
        w = linearized_potential(spec, u)
        assert w.sup_norm() < 1e-12
        v = lt.constant_field(grid8, 1.0)
        assert linearized_apply(spec, u, v).sup_norm() < 1e-12

    def test_theta0_potential(self, unit_coeffs8, grid8):
        spec = critical_spec(unit_coeffs8, 0.0)
        u = lt.constant_field(grid8, 1.0)
        w = linearized_potential(spec, u)
        assert np.allclose(w.values, -4.0, atol=1e-13)

    def test_cos_mode_at_fold(self, unit_coeffs8, grid8):
        spec = critical_spec(unit_coeffs8, 4.0 / 27.0)
        u = lt.constant_field(grid8, (2.0 / 3.0) ** 0.25)
        v = lt.cosine_field(grid8, 1.0, [1, 0, 0])
        out = linearized_apply(spec, u, v)
        assert np.allclose(out.values, (2 * np.pi) ** 2 * v.values, atol=1e-10)

    def test_jacobian_of_residual(self, unit_coeffs8, grid8):
        spec = critical_spec(unit_coeffs8, 0.05)
        rng = np.random.default_rng(9)
        for _ in range(3):
            u = smooth_random_field(grid8, rng, mean=1.2, amplitude=0.2)
            v = smooth_random_field(grid8, rng, amplitude=0.5)
            s = 1e-6 * u.sup_norm()
            fd = (residual(spec, u + s * v) - residual(spec, u - s * v)) * (1.0 / (2 * s))
            lin = linearized_apply(spec, u, v)
            denom = max(1.0, lin.sup_norm())
            assert (fd - lin).sup_norm() / denom <= 1e-6


class TestEigen:
    def test_constant_potentials(self, grid8):
        res = lt.smallest_eigenpair(lt.constant_field(grid8, 1.0))
        assert res.lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(res.vector.values, res.vector.values.flat[0])
        res = lt.smallest_eigenpair(lt.constant_field(grid8, -4.0))
        assert res.lam == pytest.approx(-4.0, abs=1e-12)

    def test_perron_positive_and_normalized(self, grid8):
        w = lt.constant_field(grid8, 1.0) + 0.5 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        res = lt.smallest_eigenpair(w)
        assert res.vector.min() > 0
        assert lt.lp_norm(res.vector, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_dense_oracle(self, grid8):
        # brute-force eigendecomposition of the discretized operator at 8^3
        w = lt.constant_field(grid8, 1.0) + 0.5 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        n = grid8.npoints
        dense = np.zeros((n, n))
        basis = np.zeros(grid8.resolutions)
        flat = basis.reshape(-1)
        for j in range(n):
            flat[:] = 0.0
            flat[j] = 1.0
            col = lt.laplacian(lt.ScalarField(grid8, basis)).values + w.values * basis
            dense[:, j] = col.reshape(-1)
        lam_dense = float(np.linalg.eigvalsh(dense)[0])
        res = lt.smallest_eigenpair(w)
        assert abs(res.lam - lam_dense) <= 1e-8

    def test_rayleigh_lower_bound(self, grid8):
        w = lt.constant_field(grid8, 0.5) + 0.3 * lt.cosine_field(grid8, 1.0, [1, 1, 0])
        res = lt.smallest_eigenpair(w)
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = smooth_random_field(grid8, rng, mean=float(rng.uniform(-1, 1)))
            num = lt.l2_inner(lt.laplacian(v) + w * v, v)
            den = lt.l2_inner(v, v)
            assert num / den >= res.lam - 1e-8


class TestCoercivity:
    def test_examples(self, grid8):
        assert lt.coercivity_check(lt.constant_field(grid8, 1.0)) == (True, pytest.approx(1.0, abs=1e-12))
        ok, lam = lt.coercivity_check(lt.constant_field(grid8, 0.0))
        assert not ok and abs(lam) < 1e-12
        ok, lam = lt.coercivity_check(lt.constant_field(grid8, -1.0))
        assert not ok and lam == pytest.approx(-1.0, abs=1e-12)


class TestSobolevEstimate:
    def test_q2_matches_inverse_eigenvalue(self, grid8):
        h = lt.constant_field(grid8, 1.0) + 0.4 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        est = lt.sobolev_constant_estimate(h, 2.0)
        _, lam = lt.coercivity_check(h)
        assert est == pytest.approx(1.0 / lam, rel=1e-4)

    def test_history_nondecreasing(self, grid8, monkeypatch):
        # every accepted ascent step raises the estimate, so a larger step
        # cap never lowers it
        h = lt.constant_field(grid8, 1.0) + 0.4 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        estimates = []
        for cap in (0, 1, 2, 5, 10, 60):
            monkeypatch.setattr(core, "SOBOLEV_MAX_STEPS", cap)
            estimates.append(lt.sobolev_constant_estimate(h, 6.0))
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))
        assert estimates[-1] > estimates[0]

    def test_steps_are_normalized_riesz_steps(self, grid8, monkeypatch):
        # u_0 = project(1), u_{k+1} = d_k / ||d_k||_H1h with d_k the Riesz
        # gradient of int |u|^q: no line search scales the step
        h = lt.constant_field(grid8, 1.0) + 0.4 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        q = 6.0

        def project(x):
            return x * (1.0 / lt.h1h_norm(x, h))

        u = project(lt.constant_field(grid8, 1.0))
        for cap in (1, 2, 3):
            g = lt.ScalarField(grid8, q * np.abs(u.values) ** (q - 2.0) * u.values)
            u = project(lt.helmholtz_solve(h, g))
            reference = float(np.sum(np.abs(u.values) ** q)) * grid8.cell_volume
            monkeypatch.setattr(core, "SOBOLEV_MAX_STEPS", cap)
            assert lt.sobolev_constant_estimate(h, q) == pytest.approx(reference, rel=1e-14)

    def test_pinned_estimate(self):
        # the value of the line-search ascent this iteration replaced; the
        # two agree to roundoff here
        grid = lt.build_grid(3, [12, 12, 12], [1.0, 1.0, 1.0])
        h = (lt.constant_field(grid, 1.0) + lt.cosine_field(grid, 0.5, [0, 0, 1], 0.3)
             + lt.cosine_field(grid, 0.3, [2, 0, 0]))
        assert lt.sobolev_constant_estimate(h, 6.0) == pytest.approx(1.011528756761443, rel=1e-14)

    def test_constant_h_makes_no_line_search(self, grid8, monkeypatch):
        # for constant h the constant start is critical on the unit H1_h
        # sphere: one form projects it and two find its gradient normal
        forms = []
        real = core.h1h_quadratic_form

        def counting(u, h):
            forms.append(u)
            return real(u, h)

        monkeypatch.setattr(core, "h1h_quadratic_form", counting)
        # u = const on the unit H1_h sphere gives V / (h V)^{q/2}
        est = lt.sobolev_constant_estimate(lt.constant_field(grid8, 2.0), 4.0)
        assert len(forms) == 3
        assert est == pytest.approx(2.0 ** (-2.0), abs=1e-13)

    def test_noncoercive_rejected(self, grid8):
        with pytest.raises(Exception):
            lt.sobolev_constant_estimate(lt.constant_field(grid8, -1.0), 4.0)
