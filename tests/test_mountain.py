import re

import numpy as np
import pytest

import lichtorus as lt
from lichtorus import mountain
from lichtorus.branch import NewtonError, build_subsolution, find_theta_star, newton_refine
from lichtorus.core import (
    ProblemSpec,
    critical_spec,
    energy,
    linearized_potential,
    regularized_residual,
    residual,
    smallest_eigenpair,
)
from lichtorus.mountain import (
    DescentStallError,
    GeometryError,
    build_far_endpoint,
    certificate_constant,
    certificate_theta1,
    critical_limit,
    minimize_in_ball,
    mountain_pass_solve,
    sphere_barrier,
)

from conftest import constant_roots, regularized_constant_root, smooth_random_field


class TestMinimizeInBall:
    def test_constant_minimizer_matches_regularized_root(self, unit_coeffs8, grid8):
        eps, q, theta = 1e-2, 5.0, 0.1
        spec = ProblemSpec(unit_coeffs8, q, theta=theta, epsilon=eps)
        sub = build_subsolution(spec.at(epsilon=0.0))
        u = minimize_in_ball(spec, center=sub.field, radius=5.0, start=sub.field)
        oracle = regularized_constant_root(theta, q, eps, branch="stable")
        assert abs(u.values - oracle).max() <= 1e-8

    def test_descent_property(self, unit_coeffs8, grid8):
        eps, q, theta = 1e-2, 5.0, 0.1
        spec = ProblemSpec(unit_coeffs8, q, theta=theta, epsilon=eps)
        center = lt.constant_field(grid8, 0.5)
        u = minimize_in_ball(spec, center=center, radius=5.0)
        assert energy(spec, u) <= energy(spec, center)

    def test_two_start_agreement_for_mostly_nonpositive_f(self, grid8):
        # f <= 0 except a small positive bump: the functional is convex-like
        # in the ball and the minimizer unique
        one = lt.constant_field(grid8, 1.0)
        f = lt.cosine_field(grid8, 1.0, [1, 0, 0]) - 0.999
        coeffs = lt.Coefficients(one, f, one)
        spec = ProblemSpec(coeffs, 5.0, theta=0.3, epsilon=1e-2)
        center = lt.constant_field(grid8, 0.6)
        rng = np.random.default_rng(21)
        s1 = center + 0.2 * smooth_random_field(grid8, rng, amplitude=0.2)
        s2 = center + 0.2 * smooth_random_field(grid8, rng, amplitude=0.2)
        u1 = minimize_in_ball(spec, center=center, radius=5.0, start=s1)
        u2 = minimize_in_ball(spec, center=center, radius=5.0, start=s2)
        assert (u1 - u2).sup_norm() <= 1e-6

    def test_minimizer_on_the_sphere_raises(self, unit_coeffs8, grid8):
        # the regularized root, 0.55, lies outside this ball, so the infimum
        # over the ball sits on its sphere, where no critical point is
        spec = ProblemSpec(unit_coeffs8, 5.0, theta=0.1, epsilon=1e-2)
        with pytest.raises(DescentStallError):
            minimize_in_ball(spec, lt.constant_field(grid8, 0.5), 0.05)

    def test_start_outside_the_ball_is_rejected(self, unit_coeffs8, grid8):
        spec = ProblemSpec(unit_coeffs8, 5.0, theta=0.1, epsilon=1e-2)
        with pytest.raises(GeometryError, match="outside the ball"):
            minimize_in_ball(spec, lt.constant_field(grid8, 0.5), 0.05,
                             start=lt.constant_field(grid8, 0.7))

    def test_rejects_critical_or_unregularized(self, unit_coeffs8, grid8):
        with pytest.raises(ValueError):
            minimize_in_ball(ProblemSpec(unit_coeffs8, 6.0, theta=0.1, epsilon=1e-2),
                             lt.constant_field(grid8, 0.5), 1.0)
        with pytest.raises(ValueError):
            minimize_in_ball(ProblemSpec(unit_coeffs8, 5.0, theta=0.1, epsilon=0.0),
                             lt.constant_field(grid8, 0.5), 1.0)


class TestMountainPass:
    def _stage(self, coeffs, grid, eps=1e-2, q=5.5, theta=0.1):
        spec = ProblemSpec(coeffs, q, theta=theta, epsilon=eps)
        rng = np.random.default_rng(0)
        center = lt.constant_field(grid, 0.0)
        radius = 1.0
        eta, = sphere_barrier([spec], center, radius, rng)
        sub = build_subsolution(spec.at(epsilon=0.0))
        u_low = minimize_in_ball(spec, center, radius, start=sub.field)
        u_high, e_high = build_far_endpoint(spec, eta, radius, center)
        return spec, eta, u_low, u_high, (energy(spec, u_low), e_high)

    def test_constant_saddle(self, unit_coeffs8, grid8):
        spec, eta, u_low, u_high, ends = self._stage(unit_coeffs8, grid8)
        v, c_level = mountain_pass_solve(spec, u_low, u_high, *ends, eta=eta)
        oracle = regularized_constant_root(0.1, 5.5, 1e-2, branch="unstable")
        assert abs(v.values - oracle).max() <= 1e-8
        assert c_level >= eta

    def test_path_refinement_never_raises_level(self, unit_coeffs8, grid8, monkeypatch):
        spec, eta, u_low, u_high, ends = self._stage(unit_coeffs8, grid8)
        monkeypatch.setattr(mountain, "PATH_SIZE", 17)
        v1, c1 = mountain_pass_solve(spec, u_low, u_high, *ends, eta=eta)
        monkeypatch.setattr(mountain, "PATH_SIZE", 34)
        v2, c2 = mountain_pass_solve(spec, u_low, u_high, *ends, eta=eta)
        assert c2 <= c1 + 1e-8

    def test_search_stops_at_first_sweep_without_lowering(self, unit_coeffs8, grid8,
                                                          monkeypatch):
        # a path through a seed far above the pass lowers its maximum for
        # many sweeps; the search hands that maximum to Newton at the first
        # sweep that does not lower it
        spec, eta, u_low, u_high, ends = self._stage(unit_coeffs8, grid8)
        seed = lt.constant_field(grid8, 0.9) + lt.cosine_field(grid8, 0.3, [1, 0, 0])
        maxima = []
        real = mountain._interpolate_path

        def recording(spec, points, end_energies):
            if not maxima:  # the first path runs through the seed
                points = np.stack([points[0], seed.values, points[-1]])
            path = real(spec, points, end_energies)
            maxima.append(max(path.energies))  # the first path, then one per sweep
            return path

        monkeypatch.setattr(mountain, "_interpolate_path", recording)
        v, _ = mountain_pass_solve(spec, u_low, u_high, *ends, eta=eta)

        def lowers(best, level):
            return level < best - 1e-12 * max(1.0, abs(best))

        assert len(maxima) > 2
        assert all(lowers(a, b) for a, b in zip(maxima[:-2], maxima[1:-1]))
        assert not lowers(maxima[-2], maxima[-1])
        oracle = regularized_constant_root(0.1, 5.5, 1e-2, branch="unstable")
        assert abs(v.values - oracle).max() <= 1e-8

    def test_re_equispacing_makes_stacked_calls_only(self, unit_coeffs8, grid8,
                                                      monkeypatch):
        # segment norms and interior energies come from stacked calls of at
        # most BARRIER_CHUNK rows: no per-field norm or energy
        spec, eta, u_low, u_high, ends = self._stage(unit_coeffs8, grid8)
        made = []  # the names each re-equispacing called
        inside = [False]

        def counting(name, real):
            def wrapper(*args, **kwargs):
                if inside[0]:
                    made[-1].append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("energy", "energies", "h1h_norm"):
            monkeypatch.setattr(mountain, name, counting(name, getattr(mountain, name)))
        real = mountain._interpolate_path

        def recording(*args):
            made.append([])
            inside[0] = True
            try:
                return real(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(mountain, "_interpolate_path", recording)
        mountain_pass_solve(spec, u_low, u_high, *ends, eta=eta)
        assert len(made) >= 2
        for names in made:
            assert "energy" not in names and "h1h_norm" not in names
            assert names.count("energies") <= 2

    def test_endpoints_must_be_below_barrier(self, unit_coeffs8, grid8):
        spec, eta, u_low, u_high, ends = self._stage(unit_coeffs8, grid8)
        bad_low = lt.constant_field(grid8, 0.93)  # near the ridge, I > eta
        with pytest.raises(GeometryError):
            mountain_pass_solve(spec, bad_low, u_high, energy(spec, bad_low), ends[1],
                                eta=eta)

    def test_far_endpoint_for_sign_changing_f(self, grid8):
        # f < 0 on a slab: the endpoint's profile is not constant but peaks
        # where f does, and it still leaves the ball below the barrier
        one = lt.constant_field(grid8, 1.0)
        f = 0.6 * one + 1.3 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        spec = ProblemSpec(lt.Coefficients(one, f, one), 5.5, theta=0.1, epsilon=1e-2)
        center = lt.constant_field(grid8, 0.0)
        eta, = sphere_barrier([spec], center, 1.0, np.random.default_rng(0))
        u_high, e_high = build_far_endpoint(spec, eta, 1.0, center)
        assert e_high == energy(spec, u_high) < eta
        assert lt.h1h_norm(u_high - center, one) > 1.0
        assert 0.0 < u_high.min() < u_high.max()
        assert np.argmax(u_high.values) == np.argmax(f.values)

    def test_theta_zero_pass_point_is_solution_above_minimum(self, grid8):
        # no a-term: the pass point solves the regularized equation and its
        # energy dominates the ball minimum's
        one = lt.constant_field(grid8, 1.0)
        coeffs = lt.Coefficients(one, one, one)
        eps, q = 1e-4, 5.0
        spec = ProblemSpec(coeffs, q, theta=0.0, epsilon=eps)
        rng = np.random.default_rng(1)
        center = lt.constant_field(grid8, 0.0)
        eta, = sphere_barrier([spec], center, 1.0, rng)
        u_low = minimize_in_ball(spec, center, 1.0,
                                 start=lt.constant_field(grid8, 0.05))
        u_high, e_high = build_far_endpoint(spec, eta, 1.0, center)
        e_low = energy(spec, u_low)
        v, c_level = mountain_pass_solve(spec, u_low, u_high, e_low, e_high, eta=eta)
        assert regularized_residual(spec, v).sup_norm() <= 1e-10
        assert c_level > e_low


def per_field_path(spec, points, end_energies):
    """The path re-equispaced one ScalarField at a time: the reference for
    the stacked _interpolate_path."""
    h = spec.coefficients.h
    seg = [lt.h1h_norm(b - a, h) for a, b in zip(points, points[1:])]
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, cum[-1], mountain.PATH_SIZE)
    out = [points[0]]
    j = 0
    for t in targets[1:-1]:
        while j < len(seg) - 1 and cum[j + 1] < t:
            j += 1
        frac = (t - cum[j]) / seg[j] if seg[j] > 0 else 0.0
        out.append(points[j] + frac * (points[j + 1] - points[j]))
    out.append(points[-1])
    energies = [end_energies[0], *(energy(spec, p) for p in out[1:-1]), end_energies[1]]
    return out, energies, cum[-1] / (mountain.PATH_SIZE - 1)


class TestStackedPath:
    def _assert_matches_per_field(self, spec, fields, ends):
        path = mountain._interpolate_path(spec, np.stack([p.values for p in fields]), ends)
        points, energies, spacing = per_field_path(spec, fields, ends)
        assert np.array_equal(path.points, np.stack([p.values for p in points]))
        assert np.array_equal(path.energies, energies)
        assert path.spacing == spacing
        return path

    def test_bit_identical_to_one_field_at_a_time(self, grid8):
        one = lt.constant_field(grid8, 1.0)
        h = one + lt.cosine_field(grid8, 0.3, [0, 0, 1])
        spec = ProblemSpec(lt.Coefficients(h, one, one), 5.5, theta=0.1, epsilon=1e-2)
        u_low, u_high = lt.constant_field(grid8, 0.3), lt.constant_field(grid8, 3.0)
        seed = lt.constant_field(grid8, 0.9) + lt.cosine_field(grid8, 0.3, [1, 0, 0])
        ends = (energy(spec, u_low), energy(spec, u_high))
        path = self._assert_matches_per_field(spec, [u_low, seed, u_high], ends)
        # a 33-point path with a moved vertex past the first chunk of 16 rows
        moved = path.points.copy()
        moved[20] += lt.cosine_field(grid8, 0.2, [0, 1, 1]).values
        self._assert_matches_per_field(spec, [lt.ScalarField(grid8, p) for p in moved],
                                       ends)


def cosine_samples(h, center, radius, rng):
    """The sphere samples with one full-grid cosine per random term: the
    reference for _sphere_samples."""
    grid = h.grid
    samples = np.empty((mountain.SPHERE_SAMPLES, *grid.resolutions))
    samples[0] = 1.0
    samples[1] = -1.0
    for axis in range(grid.dim):
        wv = [0] * grid.dim
        wv[axis] = 1
        samples[2 + axis] = 1.0 + lt.cosine_field(grid, 0.5, wv).values
    row = 2 + grid.dim
    while row < mountain.SPHERE_SAMPLES:
        raw = samples[row]
        raw[...] = float(rng.uniform(0.3, 1.0))
        for _ in range(rng.integers(1, 4)):
            wv = [int(k) for k in rng.integers(-2, 3, size=grid.dim)]
            if all(k == 0 for k in wv):
                continue
            amp = float(rng.uniform(-0.5, 0.5))
            phase = float(rng.uniform(0, 2 * np.pi))
            raw += lt.cosine_field(grid, amp, wv, phase).values
        if np.abs(raw).max() > 0:
            row += 1
    for row in samples:
        row *= radius / lt.h1h_norm(lt.ScalarField(grid, row), h)
    return samples + center.values


class TestSphereBarrier:
    def _coeffs(self, grid8):
        one = lt.constant_field(grid8, 1.0)
        f = one + lt.cosine_field(grid8, 0.2, [0, 1, 0])
        a = one + lt.cosine_field(grid8, 0.3, [1, 0, 0])
        return lt.Coefficients(one, f, a)

    def test_stacked_barrier_is_bit_identical_to_one_energy_per_sample(self, grid8):
        coeffs = self._coeffs(grid8)
        center = lt.constant_field(grid8, 0.0)
        specs = [ProblemSpec(coeffs, 5.5, theta=0.1, epsilon=1e-2), critical_spec(coeffs, 0.1)]
        etas = sphere_barrier(specs, center, 1.0, np.random.default_rng(4))
        samples = mountain._sphere_samples(coeffs.h, center, 1.0, np.random.default_rng(4))
        for spec, eta in zip(specs, etas):
            best = min(energy(spec, lt.ScalarField(grid8, s)) for s in samples
                       if spec.epsilon > 0 or s.min() > 1e-10)
            assert eta == best - mountain.ETA_MARGIN * abs(best)

    @pytest.mark.parametrize("dim, n", [(3, 8), (4, 6), (5, 6)])
    def test_samples_match_one_cosine_per_term(self, dim, n):
        grid = lt.build_grid(dim, [n] * dim, [1.0] * dim)
        h = lt.constant_field(grid, 1.0) + lt.cosine_field(grid, 0.3, [1] + [0] * (dim - 1))
        center = lt.constant_field(grid, 0.5)
        rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
        samples = mountain._sphere_samples(h, center, 1.0, rng)
        reference = cosine_samples(h, center, 1.0, reference_rng)
        assert rng.random() == reference_rng.random()
        assert np.array_equal(samples[:dim + 2], reference[:dim + 2])
        assert np.abs(samples - reference).max() <= 1e-14

    def test_no_admissible_sample(self, grid8):
        # at epsilon = 0 every sample around a center of -10 is negative
        spec = critical_spec(self._coeffs(grid8), 0.1)
        with pytest.raises(GeometryError, match="no admissible sphere sample"):
            sphere_barrier([spec], lt.constant_field(grid8, -10.0), 1.0,
                           np.random.default_rng(0))

    def test_critical_limit_draws_the_samples_once(self, unit_coeffs8, monkeypatch):
        draws = []
        real = mountain._sphere_samples

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(mountain, "_sphere_samples", counting)
        pair = critical_limit(unit_coeffs8, 0.1, eps_schedule=[1e-2],
                              q_schedule=[5.5, 6.0 - 2.0 ** -4])
        assert len(pair.pass_history) == 2
        assert len(draws) == 1


class TestContinuation:
    STAGE2 = "eps=0.01, q=5.9375"

    def _two_stages(self, coeffs):
        return critical_limit(coeffs, 0.1, eps_schedule=[1e-2], q_schedule=[5.5, 5.9375])

    def test_one_pass_search_per_run(self, unit_coeffs8, monkeypatch):
        calls = []
        for name in ("mountain_pass_solve", "minimize_in_ball", "build_far_endpoint"):
            def counting(*args, _real=getattr(mountain, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(mountain, name, counting)
        pair = critical_limit(unit_coeffs8, 0.1)
        assert len(pair.pass_history) == 13
        assert sorted(calls) == ["build_far_endpoint", "minimize_in_ball",
                                 "mountain_pass_solve"]

    def test_newton_failure_names_the_stage(self, unit_coeffs8, monkeypatch):
        real = mountain.newton_refine

        def failing(spec, u0):
            if spec.q == 5.9375:
                raise NewtonError("forced failure")
            return real(spec, u0)

        monkeypatch.setattr(mountain, "newton_refine", failing)
        with pytest.raises(NewtonError, match=re.escape(f"({self.STAGE2}): forced failure")):
            self._two_stages(unit_coeffs8)

    def test_stage_point_below_the_barrier_raises(self, unit_coeffs8, grid8, monkeypatch):
        # Newton at stage 2 lands on the lower solution, below the barrier
        real = mountain.newton_refine

        def to_lower(spec, u0):
            if spec.q == 5.9375:
                return real(spec, lt.constant_field(grid8, 0.5))
            return real(spec, u0)

        monkeypatch.setattr(mountain, "newton_refine", to_lower)
        with pytest.raises(GeometryError,
                           match=re.escape(f"at ({self.STAGE2}) fell below the barrier")):
            self._two_stages(unit_coeffs8)


    def test_limit_barrier_is_checked_before_the_continuation(self, unit_coeffs8,
                                                              monkeypatch):
        # a limit barrier below the minimal energy ends the run before any
        # descent, whatever the stages would find
        real = mountain.sphere_barrier

        def low_limit(*args):
            *etas, _ = real(*args)
            return [*etas, -1.0]

        def no_descent(*args, **kwargs):
            raise AssertionError("minimize_in_ball ran")

        monkeypatch.setattr(mountain, "sphere_barrier", low_limit)
        monkeypatch.setattr(mountain, "minimize_in_ball", no_descent)
        with pytest.raises(GeometryError,
                           match=r"is not below the barrier eta=-1\.00000000$"):
            self._two_stages(unit_coeffs8)


@pytest.fixture(scope="module")
def pair8():
    g = lt.build_grid(3, [8, 8, 8], [1.0, 1.0, 1.0])
    one = lt.constant_field(g, 1.0)
    coeffs = lt.Coefficients(one, one, one)
    return coeffs, critical_limit(coeffs, 0.1)


@pytest.fixture(scope="module")
def nonconstant_pair8():
    g = lt.build_grid(3, [8, 8, 8], [1.0, 1.0, 1.0])
    one = lt.constant_field(g, 1.0)
    f = one + lt.cosine_field(g, 0.2, [0, 1, 0])
    a = one + lt.cosine_field(g, 0.3, [1, 0, 0])
    coeffs = lt.Coefficients(one, f, a)
    return coeffs, critical_limit(coeffs, 0.08)


class TestCriticalLimit:
    def test_two_solutions_unit_constants(self, pair8):
        _, pair = pair8
        c1, c2 = constant_roots(0.1, 6.0)
        assert abs(pair.minimal.solution.values - c1).max() <= 1e-6
        assert abs(pair.second.values - c2).max() <= 1e-6
        assert pair.minimal.energy < pair.eta <= pair.second_energy + 1e-9
        assert pair.separation >= 1e-3

    def test_minimality_against_second_solution(self, pair8):
        _, pair = pair8
        phi = pair.minimal.solution
        assert (phi.values <= pair.second.values + 1e-8).all()

    def test_q_phase_differences_decreasing(self, pair8):
        _, pair = pair8
        diffs = pair.sup_differences
        assert len(diffs) >= 2
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_residuals_at_limit(self, pair8):
        coeffs, pair = pair8
        spec = critical_spec(coeffs, 0.1)
        assert residual(spec, pair.minimal.solution).sup_norm() <= 1e-9
        assert residual(spec, pair.second).sup_norm() <= 1e-9

    def test_two_solutions_n4(self):
        g = lt.build_grid(4, [6] * 4, [1.0] * 4)
        one = lt.constant_field(g, 1.0)
        coeffs = lt.Coefficients(one, one, one)
        pair = critical_limit(coeffs, 0.05)
        c1, c2 = constant_roots(0.05, 4.0)
        assert abs(pair.minimal.solution.values - c1).max() <= 1e-6
        assert abs(pair.second.values - c2).max() <= 1e-6
        assert pair.minimal.energy < pair.eta <= pair.second_energy + 1e-9

    def test_two_solutions_nonconstant_coefficients(self, nonconstant_pair8):
        coeffs, pair = nonconstant_pair8
        spec = critical_spec(coeffs, 0.08)
        assert pair.minimal.energy < pair.eta <= pair.second_energy
        assert residual(spec, pair.minimal.solution).sup_norm() <= 1e-10
        assert residual(spec, pair.second).sup_norm() <= 1e-10
        assert pair.separation >= 1e-3
        assert (pair.minimal.solution.values <= pair.second.values).all()

    def test_sup_differences_follow_the_pass_family(self, nonconstant_pair8):
        # successive sup differences of the continued pass points over the
        # q ascent; they halve with 2* - q = 2^-m
        _, pair = nonconstant_pair8
        expected = [2.31e-3, 1.03e-3, 4.87e-4, 2.37e-4, 1.17e-4, 5.81e-5, 2.90e-5]
        assert pair.sup_differences == pytest.approx(expected, rel=1e-2)

    def test_second_solution_is_the_upper_branch(self, nonconstant_pair8):
        # an oracle independent of the mountain pass: start the upper branch
        # at the fold, continue it down to theta = 0.08 by natural-parameter
        # Newton, and arrive at the second solution
        coeffs, pair = nonconstant_pair8
        fold = find_theta_star(coeffs, theta_hint=0.05)
        lower = fold.last_branch_point
        spec = critical_spec(coeffs, lower.theta)
        u, q, a, f = lower.solution.values, spec.q, coeffs.a.values, coeffs.f.values
        phi = smallest_eigenpair(linearized_potential(spec, lower.solution)).vector
        # fold normal form: the two branches at theta* - delta are
        # u* -+ s phi with delta = kappa s^2 and
        # kappa = (1/2) <W'(u*) phi^3> / <F_theta phi>; the lower
        # certificate, within 1e-10 of theta*, stands in for u*
        w_prime = -((q - 1) * (q - 2) * f * u ** (q - 3)
                    + (q + 1) * (q + 2) * lower.theta * a * u ** (-(q + 3)))
        kappa = 0.5 * np.sum(w_prime * phi.values ** 3) / np.sum(
            -a * u ** (-(q + 1)) * phi.values)
        theta = fold.theta_star * (1.0 - 1e-4)
        s = np.sqrt((lower.theta - theta) / kappa)
        v = newton_refine(critical_spec(coeffs, theta), lower.solution + s * phi)
        upper = smallest_eigenpair(linearized_potential(critical_spec(coeffs, theta), v))
        assert upper.lam < 0
        gaps = np.geomspace(fold.theta_star - theta, fold.theta_star - 0.08, 24)
        for theta in np.append(fold.theta_star - gaps[1:-1], 0.08):
            v = newton_refine(critical_spec(coeffs, theta), v)
        assert abs(v.values - pair.second.values).max() <= 1e-8
        assert abs(energy(critical_spec(coeffs, 0.08), v) - pair.second_energy) <= 1e-10


class TestCertificate:
    def test_constants_exact(self):
        assert certificate_constant(3) == 1.0 / 64.0
        assert certificate_constant(4) == 1.0 / 72.0
        assert certificate_constant(5) == 1.0 / 96.0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_constants_match_the_closed_form(self, n):
        closed = (2.0 * (n - 1)) ** (-n / (n - 2.0)) / (n - 2.0)
        assert abs(certificate_constant(n) - closed) <= 1e-15 * closed

    def test_unit_product_instantiation(self, unit_coeffs8):
        # S_h max|f| = 1 gives t0 = 1 and Phi(t0) = 1/n
        cert = certificate_theta1(unit_coeffs8)
        assert cert.s_h_estimate == pytest.approx(1.0, abs=1e-12)
        assert cert.t0 == pytest.approx(1.0, abs=1e-12)
        assert cert.phi_t0 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert cert.heuristic

    def test_t1_ratio_exact(self, unit_coeffs8):
        cert = certificate_theta1(unit_coeffs8)
        assert cert.t1 == (2.0 * (cert.n - 1)) ** (-0.5) * cert.t0

    def test_test_function_normalized(self, unit_coeffs8):
        cert = certificate_theta1(unit_coeffs8)
        assert lt.h1h_norm(cert.test_function, unit_coeffs8.h) == pytest.approx(1.0, abs=1e-12)

    def test_lower_bound_below_fold(self, unit_coeffs8):
        cert = certificate_theta1(unit_coeffs8)
        assert cert.theta1_lower_bound <= 4.0 / 27.0 + 1e-12
