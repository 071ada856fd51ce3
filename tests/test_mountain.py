import itertools
import re
import sys

import numpy as np
import pytest

import lichtorus as lt
from lichtorus import core, mountain
from lichtorus.branch import (
    NewtonError,
    build_subsolution,
    find_theta_star,
    minimal_solution,
    newton_refine,
)
from lichtorus.core import (
    ProblemSpec,
    critical_spec,
    energies,
    energy,
    linearized_potential,
    regularized_residual,
    residual,
    smallest_eigenpair,
)
from lichtorus.mountain import (
    GeometryError,
    build_far_endpoint,
    certificate_constant,
    certificate_theta1,
    critical_limit,
    minimize_in_ball,
    mountain_pass_solve,
    sphere_barrier,
    sphere_modes,
)

from conftest import constant_roots, regularized_constant_root, smooth_random_field


class TestMinimizeInBall:
    def test_constant_minimizer_matches_regularized_root(self, unit_coeffs8, grid8):
        eps, q, theta = 1e-2, 5.0, 0.1
        spec = ProblemSpec(unit_coeffs8, q, theta=theta, epsilon=eps)
        sub = build_subsolution(spec.at(epsilon=0.0))
        u = minimize_in_ball(spec, 5.0, sub.field)
        oracle = regularized_constant_root(theta, q, eps, branch="stable")
        assert abs(u.values - oracle).max() <= 1e-8

    def test_descent_property(self, unit_coeffs8, grid8):
        eps, q, theta = 1e-2, 5.0, 0.1
        spec = ProblemSpec(unit_coeffs8, q, theta=theta, epsilon=eps)
        start = lt.constant_field(grid8, 0.5)
        u = minimize_in_ball(spec, 5.0, start)
        assert energy(spec, u) <= energy(spec, start)

    def test_two_start_agreement_for_mostly_nonpositive_f(self, grid8):
        # f <= 0 except a small positive bump: the functional is convex-like
        # in the ball and the minimizer unique
        one = lt.constant_field(grid8, 1.0)
        f = lt.cosine_field(grid8, 1.0, [1, 0, 0]) - 0.999
        coeffs = lt.Coefficients(one, f, one)
        spec = ProblemSpec(coeffs, 5.0, theta=0.3, epsilon=1e-2)
        base = lt.constant_field(grid8, 0.6)
        rng = np.random.default_rng(21)
        s1 = base + 0.2 * smooth_random_field(grid8, rng, amplitude=0.2)
        s2 = base + 0.2 * smooth_random_field(grid8, rng, amplitude=0.2)
        u1 = minimize_in_ball(spec, 5.0, s1)
        u2 = minimize_in_ball(spec, 5.0, s2)
        assert (u1 - u2).sup_norm() <= 1e-6

    def test_minimizer_on_the_sphere_raises(self, unit_coeffs8, grid8):
        # Newton from 0.45 lands on the regularized root, 0.784, outside this
        # ball, so the infimum over the ball sits on its sphere, where no
        # critical point is
        spec = ProblemSpec(unit_coeffs8, 5.0, theta=0.1, epsilon=1e-2)
        with pytest.raises(GeometryError, match="H1_h norm 7.8437e-01, not inside the ball"):
            minimize_in_ball(spec, 0.5, lt.constant_field(grid8, 0.45))

    def test_start_outside_the_ball_is_rejected(self, unit_coeffs8, grid8):
        spec = ProblemSpec(unit_coeffs8, 5.0, theta=0.1, epsilon=1e-2)
        with pytest.raises(GeometryError, match="outside the ball"):
            minimize_in_ball(spec, 0.5, lt.constant_field(grid8, 0.7))

    def test_ball_minimizer_is_one_newton(self, grid8, monkeypatch):
        # from the critical minimal solution: one Newton, and no Helmholtz
        # solve of a gradient descent
        coeffs = variable_h_coefficients(grid8)
        spec = ProblemSpec(coeffs, 5.5, theta=0.1, epsilon=1e-2)
        start = minimal_solution(critical_spec(coeffs, 0.1)).solution
        radius = certificate_theta1(coeffs).t0
        newtons, solves = [], []

        def counting(calls, real):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mountain, "newton_refine", counting(newtons, newton_refine))
        for name, module in list(sys.modules.items()):
            if name.startswith("lichtorus") and hasattr(module, "helmholtz_solve"):
                monkeypatch.setattr(module, "helmholtz_solve",
                                    counting(solves, module.helmholtz_solve))
        u = minimize_in_ball(spec, radius, start)
        assert (len(newtons), len(solves)) == (1, 0)
        assert regularized_residual(spec, u).sup_norm() <= 1e-10

    def test_rejects_critical_or_unregularized(self, unit_coeffs8, grid8):
        with pytest.raises(ValueError):
            minimize_in_ball(ProblemSpec(unit_coeffs8, 6.0, theta=0.1, epsilon=1e-2),
                             1.0, lt.constant_field(grid8, 0.5))
        with pytest.raises(ValueError):
            minimize_in_ball(ProblemSpec(unit_coeffs8, 5.0, theta=0.1, epsilon=0.0),
                             1.0, lt.constant_field(grid8, 0.5))


class TestMountainPass:
    def _stage(self, coeffs, grid, eps=1e-2, q=5.5, theta=0.1):
        spec = ProblemSpec(coeffs, q, theta=theta, epsilon=eps)
        rng = np.random.default_rng(0)
        radius = 1.0
        eta, = sphere_barrier([spec], radius, sphere_modes(3, rng))
        sub = build_subsolution(spec.at(epsilon=0.0))
        u_low = minimize_in_ball(spec, radius, sub.field)
        u_high, e_high = build_far_endpoint(spec, eta, radius)
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

    def test_newton_starts_from_the_segment_maximum(self, grid8, monkeypatch):
        # h = 1 + 0.3 cos(2 pi x3): Newton starts from the highest of the
        # PATH_SIZE equispaced points of the segment, whose energies are
        # taken one field at a time here
        spec, eta, u_low, u_high, ends = self._stage(variable_h_coefficients(grid8), grid8)
        starts = []
        real = mountain._pass_point

        def recording(spec, start, eta):
            starts.append(start)
            return real(spec, start, eta)

        monkeypatch.setattr(mountain, "_pass_point", recording)
        mountain_pass_solve(spec, u_low, u_high, *ends, eta=eta)
        points, energies = per_field_segment(spec, u_low, u_high, ends)
        assert len(starts) == 1
        assert np.array_equal(starts[0].values, points[int(np.argmax(energies))].values)

    def test_segment_makes_stacked_calls_only(self, grid8, monkeypatch):
        # one segment per search, whose interior energies come from stacked
        # calls of at most BARRIER_CHUNK rows: no per-field norm or energy
        spec, eta, u_low, u_high, ends = self._stage(variable_h_coefficients(grid8), grid8)
        made = []  # the names each segment called
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
        assert len(made) == 1
        names, = made
        assert "energy" not in names and "h1h_norm" not in names
        assert names.count("energies") <= 2

    def test_coincident_endpoints_fall_below_the_barrier(self, unit_coeffs8, grid8):
        # every point of the segment is the ball minimizer, so Newton ends
        # there, below the barrier
        spec, eta, u_low, _, (e_low, _) = self._stage(unit_coeffs8, grid8)
        with pytest.raises(GeometryError, match="fell below the barrier"):
            mountain_pass_solve(spec, u_low, u_low, e_low, e_low, eta=eta)

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
        eta, = sphere_barrier([spec], 1.0, sphere_modes(3, np.random.default_rng(0)))
        u_high, e_high = build_far_endpoint(spec, eta, 1.0)
        assert e_high == energy(spec, u_high) < eta
        assert lt.h1h_norm(u_high, one) > 1.0
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
        eta, = sphere_barrier([spec], 1.0, sphere_modes(3, rng))
        u_low = minimize_in_ball(spec, 1.0, lt.constant_field(grid8, 0.05))
        u_high, e_high = build_far_endpoint(spec, eta, 1.0)
        e_low = energy(spec, u_low)
        v, c_level = mountain_pass_solve(spec, u_low, u_high, e_low, e_high, eta=eta)
        assert regularized_residual(spec, v).sup_norm() <= 1e-10
        assert c_level > e_low


def variable_h_coefficients(grid):
    """h = 1 + 0.3 cos(2 pi x3) and f = a = 1 on grid."""
    one = lt.constant_field(grid, 1.0)
    return lt.Coefficients(one + lt.cosine_field(grid, 0.3, [0, 0, 1]), one, one)


def per_field_segment(spec, u_low, u_high, end_energies):
    """The segment's points and energies one ScalarField at a time: the
    reference for the stacked _interpolate_path."""
    ts = np.linspace(0.0, 1.0, mountain.PATH_SIZE)
    points = [u_low, *(u_low + t * (u_high - u_low) for t in ts[1:-1]), u_high]
    energies = [end_energies[0], *(energy(spec, p) for p in points[1:-1]), end_energies[1]]
    return points, energies


class TestStackedPath:
    def test_bit_identical_to_one_field_at_a_time(self, grid8):
        # 31 interior points: a chunk of 16 rows and one of 15
        spec = ProblemSpec(variable_h_coefficients(grid8), 5.5, theta=0.1, epsilon=1e-2)
        u_low = lt.constant_field(grid8, 0.3) + lt.cosine_field(grid8, 0.05, [0, 1, 1])
        u_high = lt.constant_field(grid8, 3.0) + lt.cosine_field(grid8, 0.3, [1, 0, 0])
        ends = (energy(spec, u_low), energy(spec, u_high))
        path = mountain._interpolate_path(spec, u_low, u_high, ends)
        points, energies = per_field_segment(spec, u_low, u_high, ends)
        assert np.array_equal(path.points, np.stack([p.values for p in points]))
        assert np.array_equal(path.energies, energies)


def cosine_rows(grid, rng):
    """The sphere samples before normalization, with one full-grid cosine
    per random term, drawn in the order of sphere_modes: the reference for
    the evaluation of the modes."""
    samples = np.empty((mountain.SPHERE_SAMPLES, *grid.resolutions))
    samples[0] = 1.0
    samples[1] = -1.0
    for axis in range(grid.dim):
        wv = [0] * grid.dim
        wv[axis] = 1
        samples[2 + axis] = 1.0 + lt.cosine_field(grid, 0.5, wv).values
    random_rows = samples[2 + grid.dim:]
    constants = rng.uniform(0.3, 1.0, len(random_rows))
    counts = rng.integers(1, 4, len(random_rows))
    wavevectors = rng.integers(-2, 3, size=(counts.sum(), grid.dim))
    amps = rng.uniform(-0.5, 0.5, len(wavevectors))
    phases = rng.uniform(0, 2 * np.pi, len(wavevectors))
    terms = iter(zip(wavevectors, amps, phases))
    for raw, constant, count in zip(random_rows, constants, counts):
        raw[...] = constant
        for wv, amp, phase in itertools.islice(terms, count):
            if wv.any():
                raw += lt.cosine_field(grid, float(amp), [int(k) for k in wv],
                                       float(phase)).values
    return samples


class RecordingGenerator:
    """A numpy Generator that records each call as (name, result)."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def recorded(*args, **kwargs):
            self.calls.append((name, method(*args, **kwargs)))
            return self.calls[-1][1]
        return recorded


def cosine_samples(h, radius, rng):
    """cosine_rows on the H1_h sphere of radius around 0: the reference for
    _sphere_samples."""
    samples = cosine_rows(h.grid, rng)
    for row in samples:
        row *= radius / lt.h1h_norm(lt.ScalarField(h.grid, row), h)
    return samples


class TestSphereBarrier:
    def _coeffs(self, grid8):
        one = lt.constant_field(grid8, 1.0)
        f = one + lt.cosine_field(grid8, 0.2, [0, 1, 0])
        a = one + lt.cosine_field(grid8, 0.3, [1, 0, 0])
        return lt.Coefficients(one, f, a)

    def test_stacked_barrier_is_bit_identical_to_one_energy_per_sample(self, grid8):
        # one energy per sample from the sphere's form, radius^2, which is
        # that of the sample's own transform up to rounding
        coeffs = self._coeffs(grid8)
        specs = [ProblemSpec(coeffs, 5.5, theta=0.1, epsilon=1e-2), critical_spec(coeffs, 0.1)]
        modes = sphere_modes(3, np.random.default_rng(4))
        etas = sphere_barrier(specs, 1.0, modes)
        samples = np.concatenate(list(mountain._sphere_samples(coeffs.h, 1.0, modes)))
        for spec, eta in zip(specs, etas):
            levels = [float(energies(spec, s, 1.0))
                      for s in samples if spec.epsilon > 0 or s.min() > 1e-10]
            best = min(levels)
            assert eta == best - mountain.ETA_MARGIN * abs(best)
            direct = min(energy(spec, lt.ScalarField(grid8, s)) for s in samples
                         if spec.epsilon > 0 or s.min() > 1e-10)
            assert abs(direct - best) <= 1e-14 * abs(best)

    @pytest.mark.parametrize("dim, n", [(3, 8), (4, 6), (5, 6)])
    def test_samples_match_one_cosine_per_term(self, dim, n):
        grid = lt.build_grid(dim, [n] * dim, [1.0] * dim)
        h = lt.constant_field(grid, 1.0) + lt.cosine_field(grid, 0.3, [1] + [0] * (dim - 1))
        rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
        samples = np.concatenate(list(mountain._sphere_samples(
            h, 1.0, sphere_modes(dim, rng))))
        reference = cosine_samples(h, 1.0, reference_rng)
        assert rng.random() == reference_rng.random()
        assert np.abs(samples - reference).max() <= 1e-14
        # the fixed rows evaluate to the cosines bit for bit; their forms
        # come from Delta on the modes, not from a transform, so their
        # normalization may differ from h1h_norm's in the last bits
        rows = lt.grid._rotate(grid, sphere_modes(dim, np.random.default_rng(7)),
                               mountain._waves(grid))
        reference_rows = cosine_rows(grid, np.random.default_rng(7))
        assert np.array_equal(rows[:dim + 2], reference_rows[:dim + 2])
        assert np.abs(rows - reference_rows).max() <= 1e-14

    def test_the_draw_is_five_generator_calls(self):
        for dim in (3, 4, 5):
            rng = RecordingGenerator(dim)
            modes = sphere_modes(dim, rng)
            assert len(rng.calls) <= 5
            assert np.array_equal(modes, sphere_modes(dim, np.random.default_rng(dim)))

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_the_draw_keeps_its_distribution(self, dim):
        # the modes in the complex basis e^(2 pi i k.x / L), k in [-2, 2]^dim:
        # per axis, the real basis coefficients times the inverse of _WAVES
        to_complex = np.linalg.inv(mountain._WAVES)
        fixed = np.zeros((dim + 2, *[5] * dim))
        constant = (0,) * dim
        fixed[(0, *constant)], fixed[(1, *constant)] = 1.0, -1.0
        for axis in range(dim):
            fixed[(2 + axis, *constant)] = 1.0
            fixed[(2 + axis, *(int(j == axis) for j in range(dim)))] = 0.5
        for seed in range(10):
            rng = RecordingGenerator(seed)
            modes = sphere_modes(dim, rng)
            constants, counts, wavevectors = (result for _, result in rng.calls[:3])
            assert np.array_equal(modes[:dim + 2], fixed)
            # a term of zero wavevector would add to its row's grid mean
            assert np.array_equal(modes[(slice(dim + 2, None), *constant)], constants)
            assert np.all((0.3 <= constants) & (constants < 1.0))
            assert np.all((1 <= counts) & (counts <= 3))
            assert len(counts) == mountain.SPHERE_SAMPLES - dim - 2
            assert np.abs(wavevectors).max() <= 2
            starts = np.cumsum(counts)[:-1]
            for row, drawn in zip(modes[dim + 2:], np.split(wavevectors, starts)):
                z = row.astype(complex)
                for axis in range(dim):
                    z = np.moveaxis(np.tensordot(z, to_complex, axes=([axis], [0])), -1, axis)
                support = {tuple(int(k) for k in np.array(i) - 2)
                           for i in zip(*np.nonzero(np.abs(z) > 1e-12))}
                kept = {tuple(int(j) for j in sign * k) for k in drawn if k.any()
                        for sign in (1, -1)}
                assert support - {constant} == kept
            # no row is zero: each has a nonzero grid mean
            assert np.all(modes[(slice(None), *constant)] != 0)

    def test_stage_barriers_compute_one_f_term_per_q(self, grid8, monkeypatch):
        # the default schedule's 13 stages have 8 distinct q, as its six
        # epsilon stages share the first; their barriers are those of one
        # energies call per spec
        coeffs = self._coeffs(grid8)
        eps_schedule, q_schedule = mountain._default_schedules(6.0)
        stages = [(e, q_schedule[0]) for e in eps_schedule]
        stages += [(eps_schedule[-1], q) for q in q_schedule[1:]]
        specs = [ProblemSpec(coeffs, q, theta=0.1, epsilon=e) for e, q in stages]
        modes = sphere_modes(3, np.random.default_rng(3))
        computed, real = [], core.f_terms

        def counting(spec, power):
            computed.append(spec.q)
            return real(spec, power)

        monkeypatch.setattr(core, "f_terms", counting)
        monkeypatch.setattr(mountain, "f_terms", counting)
        etas = sphere_barrier(specs, 1.0, modes)
        chunks = mountain.SPHERE_SAMPLES // mountain.BARRIER_CHUNK
        assert (len(specs), len(computed)) == (13, 8 * chunks)
        monkeypatch.undo()
        blocks = list(mountain._sphere_samples(coeffs.h, 1.0, modes))
        for spec, eta in zip(specs, etas):
            best = min(energies(spec, block, 1.0).min() for block in blocks)
            assert abs(eta - (best - mountain.ETA_MARGIN * abs(best))) <= 1e-14 * abs(eta)

    def test_no_admissible_sample(self, grid8):
        # at epsilon = 0, on a sphere this small every sample's minimum,
        # that of the positive constant included, is at most 1e-10
        spec = critical_spec(self._coeffs(grid8), 0.1)
        modes = sphere_modes(3, np.random.default_rng(0))
        for block in mountain._sphere_samples(spec.coefficients.h, 1e-11, modes):
            assert np.all(block.min(axis=grid8.field_axes) <= 1e-10)
        with pytest.raises(GeometryError, match="no admissible sphere sample"):
            sphere_barrier([spec], 1e-11, modes)

    def test_one_form_per_sample(self, grid8):
        # the samples' forms by their own transforms are the sphere's,
        # radius^2, which the barrier gives their energies
        h = self._coeffs(grid8).f  # 1 + 0.2 cos(2 pi x2)
        modes = sphere_modes(3, np.random.default_rng(5))
        for samples in mountain._sphere_samples(h, 0.7, modes):
            direct = lt.grid.h1h_quadratic_forms(samples, h)
            assert np.abs(direct - 0.7 ** 2).max() <= 1e-14 * 0.7 ** 2

    def test_the_barrier_takes_no_transform(self, grid8, monkeypatch):
        # the samples' forms are radius^2: no Laplacian of a centre, and no
        # form of a sample, goes through the spectral transform
        coeffs = self._coeffs(grid8)
        specs = [ProblemSpec(coeffs, 5.5, theta=0.1, epsilon=1e-2), critical_spec(coeffs, 0.1)]
        calls, real = [], lt.grid._to_fourier

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lt.grid, "_to_fourier", counting)
        sphere_barrier(specs, 1.0, sphere_modes(3, np.random.default_rng(4)))
        assert calls == []

    def test_one_draw_gives_the_samples_of_both_grids(self):
        # the modes are functions on the torus: on 12^3 and its 6^3 half grid
        # they give the same fields, so the half-grid samples are the
        # restrictions of the full-grid ones
        grid = lt.build_grid(3, [12] * 3, [1.0] * 3)
        modes = sphere_modes(3, np.random.default_rng(6))
        one, half_one = lt.constant_field(grid, 1.0), lt.constant_field(grid.half, 1.0)
        fine = mountain._sphere_samples(one, 1.0, modes)
        coarse = mountain._sphere_samples(half_one, 1.0, modes)
        for fields, half_fields in zip(fine, coarse, strict=True):
            for u, u_half in zip(fields, half_fields, strict=True):
                down = lt.grid.transfer(lt.ScalarField(grid, u), grid.half)
                assert np.abs(down.values - u_half).max() <= 1e-13

    def test_critical_limit_draws_the_samples_once(self, unit_coeffs8, monkeypatch):
        # one draw, whose modes give the barriers of the limit on the full
        # grid and of the stages on the half grid
        draws, barrier_modes = [], []
        real_draw, real_barrier = mountain.sphere_modes, mountain.sphere_barrier

        def counting(*args):
            draws.append(real_draw(*args))
            return draws[-1]

        def barrier(specs, radius, modes):
            barrier_modes.append((specs[0].grid.resolutions, modes))
            return real_barrier(specs, radius, modes)

        monkeypatch.setattr(mountain, "sphere_modes", counting)
        monkeypatch.setattr(mountain, "sphere_barrier", barrier)
        pair = critical_limit(unit_coeffs8, 0.1, eps_schedule=[1e-2],
                              q_schedule=[5.5, 6.0 - 2.0 ** -4])
        assert len(pair.pass_history) == 2
        assert len(draws) == 1
        assert [res for res, _ in barrier_modes] == [(8, 8, 8), (4, 4, 4)]
        assert all(modes is draws[0] for _, modes in barrier_modes)


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

    def test_stage_point_below_the_barrier_raises(self, unit_coeffs8, monkeypatch):
        # Newton at stage 2 lands on the lower solution, below the barrier,
        # on the half grid and then on the full grid, which raises
        real = mountain.newton_refine

        def to_lower(spec, u0):
            if spec.q == 5.9375:
                return real(spec, lt.constant_field(spec.grid, 0.5))
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


def nonconstant_coefficients(res):
    """f = 1 + 0.2 cos(2 pi x2) and a = 1 + 0.3 cos(2 pi x1) on res^3."""
    g = lt.build_grid(3, [res] * 3, [1.0, 1.0, 1.0])
    one = lt.constant_field(g, 1.0)
    f = one + lt.cosine_field(g, 0.2, [0, 1, 0])
    a = one + lt.cosine_field(g, 0.3, [1, 0, 0])
    return lt.Coefficients(one, f, a)


@pytest.fixture(scope="module")
def nonconstant_pair8():
    coeffs = nonconstant_coefficients(8)
    return coeffs, critical_limit(coeffs, 0.08)


def full_grid_pair(monkeypatch, coeffs, theta, **kwargs):
    """critical_limit with its continuation family forced onto the full grid."""
    with monkeypatch.context() as patch:
        patch.setattr(mountain, "_half_grid_coefficients", lambda _: None)
        return critical_limit(coeffs, theta, **kwargs)


def assert_same_pair(pair, reference):
    assert np.abs(pair.second.values - reference.second.values).max() <= 1e-12
    assert abs(pair.eta - reference.eta) <= 1e-12
    assert abs(pair.second_energy - reference.second_energy) <= 1e-12


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
        assert pair.family_resolutions == (6, 6, 6, 6)  # no half grid
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


    @pytest.mark.parametrize("case", ["mountain13", "variable h"])
    def test_second_solution_is_pinned(self, case):
        # the second solution, pinned within 1e-12; with variable h the pass
        # point lies off the segment that the pass search samples
        coeffs, theta, seed, pinned = {
            "mountain13": (nonconstant_coefficients(12), 0.08, 2,
                           (0.3474402482825246, 0.9792201560155398, 0.9680966068191276)),
            "variable h": (variable_h_coefficients(lt.build_grid(3, [8] * 3, [1.0] * 3)),
                           0.05, 0,
                           (0.34141524945755236, 0.9933659585056762, 0.977019832064164)),
        }[case]
        pair = critical_limit(coeffs, theta, seed=seed)
        read = (pair.second_energy, pair.second.max(), pair.second.min())
        assert read == pytest.approx(pinned, rel=0, abs=1e-12)

    def test_n4_second_solution_and_ball_minimizer_are_pinned(self, monkeypatch):
        # n = 4 on 8^4, f = 1 + 0.2 cos(2 pi x2), a = 1 + 0.3 cos(2 pi x1),
        # theta = 0.05, seed 0: the second solution within 1e-12, and the
        # ball minimizer of the 4^4 half grid within 1e-10
        g = lt.build_grid(4, [8] * 4, [1.0] * 4)
        one = lt.constant_field(g, 1.0)
        coeffs = lt.Coefficients(one, one + lt.cosine_field(g, 0.2, [0, 1, 0, 0]),
                                 one + lt.cosine_field(g, 0.3, [1, 0, 0, 0]))
        balls, real = [], mountain.minimize_in_ball

        def recording(*args):
            balls.append(real(*args))
            return balls[-1]

        monkeypatch.setattr(mountain, "minimize_in_ball", recording)
        pair = critical_limit(coeffs, 0.05, seed=0)
        assert pair.family_resolutions == (4, 4, 4, 4)
        read = (pair.second_energy, pair.second.max(), pair.second.min())
        assert read == pytest.approx(
            (0.2630266423629381, 0.973760868944578, 0.9632616789284826), rel=0, abs=1e-12)
        ball, = balls
        assert ball.grid == g.half
        assert (ball.max(), ball.min()) == pytest.approx(
            (0.558724086265849, 0.5517607382671582), rel=0, abs=1e-10)


class TestHalfGridFamily:
    @pytest.mark.parametrize("case", ["criterion 4", "nonconstant 8^3", "mountain13"])
    def test_same_pair_as_the_full_grid_family(self, case, monkeypatch):
        # the family on the half grid, refined once on the full grid, gives
        # the second solution of the family run on the full grid
        coeffs, theta, seed = {
            "criterion 4": (lt.Coefficients(*[lt.constant_field(
                lt.build_grid(3, [12] * 3, [1.0] * 3), 1.0)] * 3), 0.1, 0),
            "nonconstant 8^3": (nonconstant_coefficients(8), 0.08, 0),
            "mountain13": (nonconstant_coefficients(12), 0.08, 2),
        }[case]
        pair = critical_limit(coeffs, theta, seed=seed)
        full = full_grid_pair(monkeypatch, coeffs, theta, seed=seed)
        assert pair.family_resolutions == coeffs.grid.half.resolutions
        assert full.family_resolutions == coeffs.grid.resolutions
        assert_same_pair(pair, full)
        assert len(pair.sup_differences) == len(full.sup_differences) == 7

    def test_half_grid_failure_falls_back(self, monkeypatch):
        coeffs = nonconstant_coefficients(8)
        real = mountain.mountain_pass_solve

        def failing_on_the_half_grid(spec, *args):
            if spec.grid == coeffs.grid.half:
                raise GeometryError("forced failure on the half grid")
            return real(spec, *args)

        monkeypatch.setattr(mountain, "mountain_pass_solve", failing_on_the_half_grid)
        pair = critical_limit(coeffs, 0.08)
        assert pair.family_resolutions == (8, 8, 8)
        assert_same_pair(pair, full_grid_pair(monkeypatch, coeffs, 0.08))

    def test_failed_full_grid_refinement_falls_back(self, monkeypatch):
        # the Newton from the prolonged pass point fails once; the family
        # then reruns on the full grid, whose refinement succeeds
        coeffs = nonconstant_coefficients(8)
        real, starts = mountain._pass_point, []

        def failing_once(spec, start, eta):
            if spec.epsilon == 0.0:
                starts.append(start)
                if len(starts) == 1:
                    raise NewtonError("forced failure of the refinement")
            return real(spec, start, eta)

        monkeypatch.setattr(mountain, "_pass_point", failing_once)
        pair = critical_limit(coeffs, 0.08)
        assert len(starts) == 2 and all(u.grid == coeffs.grid for u in starts)
        assert pair.family_resolutions == (8, 8, 8)
        assert_same_pair(pair, full_grid_pair(monkeypatch, coeffs, 0.08))


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
