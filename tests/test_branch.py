import numpy as np
import pytest

import lichtorus as lt
from lichtorus import branch
from lichtorus.branch import (
    IterationLimitError,
    NewtonError,
    NoSolutionError,
    SubsolutionError,
    build_subsolution,
    find_theta_star,
    minimal_solution,
    monotone_iterate,
    newton_refine,
    trace_branch,
)
from lichtorus.core import (
    critical_spec,
    energy,
    linearized_potential,
    residual,
    smallest_eigenpair,
)

from conftest import constant_roots, linearized_constant_potential


class TestSubsolution:
    def test_constant_case(self, unit_coeffs8):
        # h=1, a=1, f >= 0: psi_{1/2} = 1/2 solves (Delta+1)psi = 1/2
        sub = build_subsolution(critical_spec(unit_coeffs8, 0.1))
        assert sub.delta == pytest.approx(0.5)
        assert np.allclose(sub.field.values, 0.5 * sub.scale, atol=1e-12)
        assert sub.shift_k == 0.0

    def test_vanishing_a_positivity(self, grid8):
        one = lt.constant_field(grid8, 1.0)
        a = one + lt.cosine_field(grid8, 1.0, [1, 0, 0])  # vanishes on a plane
        coeffs = lt.Coefficients(one, one, a)
        sub = build_subsolution(critical_spec(coeffs, 0.05))
        assert sub.field.min() > 0

    def test_strict_negative_residual(self, grid8):
        one = lt.constant_field(grid8, 1.0)
        h = one + 0.3 * lt.cosine_field(grid8, 1.0, [0, 1, 0])
        f = lt.cosine_field(grid8, 1.0, [1, 0, 0])  # sign-changing f
        a = one + 0.5 * lt.cosine_field(grid8, 1.0, [1, 1, 0])
        coeffs = lt.Coefficients(h, f, a)
        spec = critical_spec(coeffs, 0.08)
        sub = build_subsolution(spec)
        assert residual(spec, sub.field).max() < 0


def brute_force_subsolution(coeffs, theta):
    """build_subsolution at the critical q with the full array pass at every
    scale of the scan: the reference the scalar-bound scan must reproduce."""
    grid = coeffs.grid
    q = critical_spec(coeffs, theta).q
    k0 = max(0.0, 1.0 - coeffs.h.min())
    f_minus = lt.ScalarField(grid, np.maximum(-coeffs.f.values, 0.0))
    delta = 1.0
    for _ in range(branch.MAX_HALVINGS + 1):
        psi = lt.helmholtz_solve(coeffs.h + k0, coeffs.a - delta * f_minus - delta)
        if psi.min() > 0:
            break
        delta *= 0.5
    base = (coeffs.a - delta * f_minus - delta - k0 * psi).values
    fpow = coeffs.f.values * psi.values ** (q - 1.0)
    apow = theta * coeffs.a.values * psi.values ** (-(q + 1.0))
    scales = 2.0 ** (np.arange(-60 * 32, 60 * 32 + 1) / 32)
    floor = 10 * branch.POSITIVITY_FLOOR / psi.min()
    best, below = 1.0, None  # no sign change in the range: the unit scale
    for t in scales:
        if t < floor:
            continue
        r_max = (t * base - t ** (q - 1.0) * fpow - t ** (-(q + 1.0)) * apow).max()
        if not r_max < 0:
            best = below
            break
        below = t
    return best, delta, best * psi


SCAN_CASES = {
    # name: (h, f, a, theta) as (constant, cosine amplitude, cosine mode)
    "unit": ((1.0, 0.0, [1, 0, 0]), (1.0, 0.0, [1, 0, 0]), (1.0, 0.0, [1, 0, 0]), 0.1),
    "cosine a": ((1.0, 0.0, [1, 0, 0]), (1.0, 0.0, [1, 0, 0]), (1.0, 0.3, [1, 0, 0]), 0.1),
    "sign-changing f": ((1.0, 0.3, [0, 1, 0]), (0.0, 1.0, [1, 0, 0]),
                        (1.0, 0.5, [1, 1, 0]), 0.08),
    "stops below 1, a = 3 + cos": ((1.0, 0.0, [1, 0, 0]), (1.0, 0.0, [1, 0, 0]),
                                   (3.0, 0.3, [1, 0, 0]), 1e-6),
    "stops below 1, a = 2 + cos": ((1.0, 0.0, [1, 0, 0]), (1.0, 0.0, [1, 0, 0]),
                                   (2.0, 0.3, [1, 0, 0]), 1e-4),
    "climbs past 1, a = 1.04": ((1.0, 0.0, [1, 0, 0]), (1.0, 0.0, [1, 0, 0]),
                                (1.04, 0.0, [1, 0, 0]), 0.05),
    "no sign change, unit past the fold": ((1.0, 0.0, [1, 0, 0]), (1.0, 0.0, [1, 0, 0]),
                                           (1.0, 0.0, [1, 0, 0]), 0.2),
}


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scale_scan_matches_the_array_pass(grid8, case):
    *fields, theta = SCAN_CASES[case]
    coeffs = lt.Coefficients(*(lt.constant_field(grid8, c) + amp * lt.cosine_field(grid8, 1.0, k)
                               for c, amp, k in fields))
    sub = build_subsolution(critical_spec(coeffs, theta))
    scale, delta, w = brute_force_subsolution(coeffs, theta)
    assert (sub.scale, sub.delta) == (scale, delta)
    assert sub.field.values.tobytes() == w.values.tobytes()
    if case.startswith("stops below 1"):
        assert sub.scale < 1.0
    if case.startswith("climbs past 1"):
        # psi = a - 1 = 0.04; the scan climbs to within a step of the solution
        assert sub.scale > 1.0
        sol = minimal_solution(critical_spec(coeffs, theta)).solution
        assert sub.field.min() >= 0.95 * sol.min()
    if case.startswith("no sign change"):
        assert sub.scale == 1.0


BOUND_CASES = {
    # name: (f as (constant, cosine amplitude), theta, floor, top)
    "f >= 0": ((1.0, 0.4), 0.05, 0.8, 2.6),
    "sign-changing f, f term dominates": ((0.6, 1.3), 0.05, 0.8, 2.6),
    "sign-changing f, a term dominates": ((0.6, 1.3), 0.1, 0.3, 0.4),
    "f >= 0, K = K_MIN": ((10.0, 0.0), 0.05, 0.8, 2.6),
}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_bound_constant_is_the_one_sided_bound(grid8, case):
    # K must dominate -F'(x, t) = h - (q-1) f t^(q-2) + (q+1) theta a t^(-(q+2))
    # over [floor, top], brute-forced on a dense t grid that holds both ends,
    # and stay at least K_MIN > 0
    (f0, famp), theta, floor, top = BOUND_CASES[case]
    one = lt.constant_field(grid8, 1.0)
    coeffs = lt.Coefficients(one + 0.3 * lt.cosine_field(grid8, 1.0, [0, 1, 0]),
                             f0 * one + famp * lt.cosine_field(grid8, 1.0, [1, 0, 0]),
                             one + 0.3 * lt.cosine_field(grid8, 1.0, [0, 0, 1]))
    spec = critical_spec(coeffs, theta)
    q = spec.q
    k = branch._bound_constant(spec, floor, top)
    h, f, a = (c.values[..., None] for c in (coeffs.h, coeffs.f, coeffs.a))

    def worst(t):
        return float((h - (q - 1.0) * f * t ** (q - 2.0)
                      + (q + 1.0) * theta * a * t ** (-(q + 2.0))).max())

    brute = worst(np.geomspace(floor, top, 2001))
    assert k >= brute - 1e-12 * abs(brute)
    assert k >= branch.K_MIN
    if coeffs.f.min() >= 0:
        # every term is worst at floor, so the bound is attained there and
        # holds on all of [floor, inf)
        assert k == pytest.approx(max(brute, branch.K_MIN), rel=1e-12, abs=1e-12)
        assert k >= worst(np.geomspace(floor, 1e3 * top, 2001)) - 1e-12 * abs(brute)
    if case.endswith("K_MIN"):
        assert brute < branch.K_MIN and k == branch.K_MIN


class TestMonotoneIterate:
    def test_converges_to_stable_root(self, unit_coeffs8):
        c1, _ = constant_roots(0.1, 6.0)
        spec = critical_spec(unit_coeffs8, 0.1)
        out = monotone_iterate(spec, build_subsolution(spec))
        assert out.converged
        assert abs(out.solution.values - c1).max() <= 1e-10
        assert out.residual_norm <= 1e-10
        assert out.max_violation <= 1e-12

    def test_diverges_above_fold(self, unit_coeffs8):
        spec = critical_spec(unit_coeffs8, 0.2)
        out = monotone_iterate(spec, build_subsolution(spec))
        assert not out.converged
        assert out.solution is None

    def test_probe_diverges_in_tens_of_iterations(self, unit_coeffs8):
        # a K no larger than monotonicity needs takes a probe past the fold
        # to a verdict in a few steps: f > 0 and theta a > 0 bound the mean
        # of every solution by (max h / min f)^(1/(q-2)) = 1, which an
        # iterate passes before the cap (9 iterations)
        spec = critical_spec(unit_coeffs8, 0.2)
        out = monotone_iterate(spec, build_subsolution(spec))
        assert out.reason == "mean above the bound of every solution"
        assert out.iterations < 9

    def test_converges_in_a_few_steps_from_the_subsolution(self, unit_coeffs8):
        # the scale scan starts within a step of the solution and K = B
        # contracts the mean mode to near 0
        spec = critical_spec(unit_coeffs8, 0.1)
        out = monotone_iterate(spec, build_subsolution(spec))
        assert out.converged
        assert out.iterations <= 8

    def test_iterates_nondecreasing(self, unit_coeffs8):
        spec = critical_spec(unit_coeffs8, 0.12)
        out = monotone_iterate(spec, build_subsolution(spec))
        assert out.converged and out.max_violation <= 1e-12

    def test_warm_start_requires_subsolution(self, unit_coeffs8, grid8):
        # between the two constant roots the residual is positive
        spec = critical_spec(unit_coeffs8, 0.1)
        with pytest.raises(SubsolutionError):
            monotone_iterate(spec, lt.constant_field(grid8, 0.9))

    def test_warm_start_from_smaller_theta(self, unit_coeffs8):
        spec = critical_spec(unit_coeffs8, 0.05)
        out1 = monotone_iterate(spec, build_subsolution(spec))
        out2 = monotone_iterate(critical_spec(unit_coeffs8, 0.1), out1.solution)
        c1, _ = constant_roots(0.1, 6.0)
        assert abs(out2.solution.values - c1).max() <= 1e-10

    def test_iteration_limit_without_a_verdict(self, unit_coeffs8, monkeypatch):
        # two steps neither converge nor show sustained growth
        monkeypatch.setattr(branch, "MAX_PICARD_ITERS", 2)
        spec = critical_spec(unit_coeffs8, 0.1)
        with pytest.raises(IterationLimitError, match="no verdict after 2 iterations"):
            monotone_iterate(spec, build_subsolution(spec))


class TestMinimalSolution:
    def test_hands_over_to_newton_early(self, unit_coeffs8):
        # every minimal solve tries Newton once the Picard step is <= 1e-5
        out = minimal_solution(critical_spec(unit_coeffs8, 0.05))
        assert out.reason == "newton"
        assert out.iterations <= 3

    def test_step_converged_solve_hands_over_to_newton(self, unit_coeffs8):
        # at theta = 0.1 the fourth Picard step is the first <= 1e-5, and
        # already below tol: Newton still gets the iterate
        spec = critical_spec(unit_coeffs8, 0.1)
        out = monotone_iterate(spec, build_subsolution(spec))
        assert out.reason == "newton"
        assert out.iterations == 4

    def test_newton_below_the_iterate_is_declined(self, unit_coeffs8, monkeypatch):
        # a Newton point below the Picard iterate left the minimal branch;
        # the step-converged solve returns the iterate itself
        monkeypatch.setattr(branch, "_newton", lambda spec, v: (v - 1e-6, 0.0))
        spec = critical_spec(unit_coeffs8, 0.1)
        out = monotone_iterate(spec, build_subsolution(spec))
        assert out.reason == "converged"
        assert out.iterations == 4
        assert out.residual_norm <= 1e-6

    def test_warm_start_matches_cold_start(self, unit_coeffs8):
        warm = minimal_solution(critical_spec(unit_coeffs8, 0.05)).solution
        spec = critical_spec(unit_coeffs8, 0.1)
        cold = minimal_solution(spec).solution
        hot = minimal_solution(spec, start=warm).solution
        assert abs(hot.values - cold.values).max() <= 1e-10

    def test_divergence_names_theta_and_q(self, unit_coeffs8):
        with pytest.raises(NoSolutionError, match=r"theta=0\.2, q=6\.0"):
            minimal_solution(critical_spec(unit_coeffs8, 0.2))


class TestNewtonRefine:
    def test_exact_root_accepted_immediately(self, unit_coeffs8, grid8):
        c1, _ = constant_roots(0.1, 6.0)
        spec = critical_spec(unit_coeffs8, 0.1)
        u = newton_refine(spec, lt.constant_field(grid8, c1))
        assert residual(spec, u).sup_norm() <= 1e-10

    def test_converges_from_perturbed_start(self, unit_coeffs8, grid8):
        c1, _ = constant_roots(0.1, 6.0)
        spec = critical_spec(unit_coeffs8, 0.1)
        u = newton_refine(spec, lt.constant_field(grid8, 1.01 * c1))
        assert abs(u.values - c1).max() <= 1e-11

    def test_at_fold_double_root(self, unit_coeffs8, grid8):
        # theta = theta_star: double root; residual-converged point sits
        # within the sqrt-sized plateau of the fold
        spec = critical_spec(unit_coeffs8, 4.0 / 27.0)
        c_fold = (2.0 / 3.0) ** 0.25
        u = newton_refine(spec, lt.constant_field(grid8, 1.02 * c_fold))
        assert residual(spec, u).sup_norm() <= 1e-10
        assert abs(u.values - c_fold).max() <= 1e-4

    def test_fails_above_fold(self, unit_coeffs8, grid8):
        # just past the fold no solution exists: the residual cannot be
        # driven below the gap and the damped step search gives out
        spec = critical_spec(unit_coeffs8, 4.0 / 27.0 + 1e-3)
        c_fold = (2.0 / 3.0) ** 0.25
        with pytest.raises(NewtonError):
            newton_refine(spec, lt.constant_field(grid8, c_fold))


def _fold_case(case):
    """(coefficients, theta_hint) of a fold that the half-grid tests run."""
    if case in ("unit 12^4", "unit 6^5"):
        dim, res = (4, 12) if case == "unit 12^4" else (5, 6)
        one = lt.constant_field(lt.build_grid(dim, [res] * dim, [1.0] * dim), 1.0)
        return lt.Coefficients(one, one, one), 0.1
    res = 32 if case == "readme 32^3" else 16
    g = lt.build_grid(3, [res] * 3, [1.0] * 3)
    one = lt.constant_field(g, 1.0)
    if case == "item 9 16^3":  # ROADMAP item 9's coefficients
        return lt.Coefficients(one, 0.6 * one + lt.cosine_field(g, 2.0, [1, 0, 0]),
                               one + lt.cosine_field(g, 0.3, [0, 1, 0])), 0.05
    amplitude, wavevector = (0.5, [7, 0, 0]) if case == "a with k = 7" else (0.3, [1, 0, 0])
    return lt.Coefficients(one, one, one + lt.cosine_field(g, amplitude, wavevector)), 0.1


def _random_positive_coefficients(seed):
    """h, f and a, each 1 plus two cosines of amplitude below 0.3 with
    random wavevectors in {-2..2}^3 and phases, on 8^3, 12^3 or 16^3."""
    rng = np.random.default_rng(seed)
    res = int(rng.choice([8, 12, 16]))
    g = lt.build_grid(3, [res] * 3, [1.0] * 3)
    one = lt.constant_field(g, 1.0)

    def field():
        out = one
        for _ in range(2):
            k = [int(x) for x in rng.integers(-2, 3, size=3)]
            out = out + lt.cosine_field(g, float(rng.uniform(0, 0.3)), k,
                                        float(rng.uniform(0, 2 * np.pi)))
        return out

    return lt.Coefficients(field(), field(), field())


class TestFoldLocation:
    def test_unit_constants_n3(self, unit_coeffs8):
        fold = find_theta_star(unit_coeffs8, theta_hint=0.1, tol=1e-4)
        assert abs(fold.theta_star - 4.0 / 27.0) <= 5e-4
        lo, hi = fold.bracket
        assert lo < fold.theta_star <= hi
        assert hi - lo <= 1e-4
        assert abs(fold.last_branch_point.lam) <= 1e-3

    def test_doubling_a_halves_theta_star(self, grid8, unit_coeffs8):
        one = lt.constant_field(grid8, 1.0)
        doubled = lt.Coefficients(one, one, lt.constant_field(grid8, 2.0))
        f1 = find_theta_star(unit_coeffs8, theta_hint=0.1, tol=1e-5)
        f2 = find_theta_star(doubled, theta_hint=0.05, tol=5e-6)
        assert f2.theta_star == pytest.approx(0.5 * f1.theta_star, rel=1e-3)

    def test_unit_constants_n5(self):
        g = lt.build_grid(5, [6] * 5, [1.0] * 5)
        one = lt.constant_field(g, 1.0)
        coeffs = lt.Coefficients(one, one, one)
        fold = find_theta_star(coeffs, theta_hint=0.05, tol=1e-4)
        assert abs(fold.theta_star - 256.0 / 3125.0) <= 5e-4

    def test_fully_nonconstant_coefficients(self):
        # above-fold probes concentrate and under-resolve; the existence
        # oracle must still classify them as divergence, not error out
        g = lt.build_grid(3, [16] * 3, [1.0] * 3)
        one = lt.constant_field(g, 1.0)
        h = one + 0.2 * lt.cosine_field(g, 1.0, [0, 1, 0])
        f = one + 0.4 * lt.cosine_field(g, 1.0, [1, 0, 0], 1.3)
        a = one + 0.3 * lt.cosine_field(g, 1.0, [1, 0, 0])
        fold = find_theta_star(lt.Coefficients(h, f, a), theta_hint=0.1, tol=1e-4)
        assert 0.1 < fold.theta_star < 0.2
        assert abs(fold.last_branch_point.lam) <= 1e-3

    @pytest.mark.parametrize("dim, res, hint, exact", [
        (3, 8, 0.1, 4.0 / 27.0),
        (5, 6, 0.05, 256.0 / 3125.0),
    ])
    def test_fold_exact_for_unit_constants(self, dim, res, hint, exact):
        # constant coefficients keep the minimal solutions constant, so the
        # discrete fold is the scalar one
        g = lt.build_grid(dim, [res] * dim, [1.0] * dim)
        one = lt.constant_field(g, 1.0)
        fold = find_theta_star(lt.Coefficients(one, one, one), theta_hint=hint, tol=1e-4)
        assert abs(fold.theta_star - exact) <= 1e-12
        # Newton refines, on the half grid where there is one
        assert fold.coarse_refinement_steps + fold.refinement_steps > 0

    def test_one_probe_past_the_fold(self, unit_coeffs8, monkeypatch):
        # one converged and one diverged doubling probe; convexity certifies
        # the fold from above, and where it does not apply, the one
        # diverging probe past the fold does, with the same verdict
        probes = []
        real = branch._existence_solve

        def counting(coeffs, theta, *args):
            probes.append(theta)
            return real(coeffs, theta, *args)

        monkeypatch.setattr(branch, "_existence_solve", counting)
        fold = find_theta_star(unit_coeffs8, theta_hint=0.1, tol=1e-4)
        assert fold.upper_certificate == "convexity" and fold.bracket[1] not in probes
        assert len(probes) <= 3
        probes.clear()
        monkeypatch.setattr(branch, "_convexity_margin", lambda *args: None)
        probed = find_theta_star(unit_coeffs8, theta_hint=0.1, tol=1e-4)
        assert (probed.upper_certificate, probed.upper_certificate_margin) == ("probe", None)
        assert len(probes) <= 4
        assert probes[-1] == probed.bracket[1] == fold.bracket[1]
        assert probed.theta_star == fold.theta_star

    def test_picard_work_of_a_fold(self, unit_coeffs8, monkeypatch):
        iterations = []
        real = branch.monotone_iterate

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            iterations.append(out.iterations)
            return out

        monkeypatch.setattr(branch, "monotone_iterate", counting)
        fold = find_theta_star(unit_coeffs8, theta_hint=0.1, tol=1e-4)
        assert abs(fold.theta_star - 4.0 / 27.0) <= 1e-12
        assert sum(iterations) <= 100

    def test_sign_changing_f(self, grid8, monkeypatch):
        # where f < 0 the bound takes the f term at the top of the range; no
        # mean bound holds where min f <= 0, so the probes past the fold keep
        # their growth verdict, which 8^3 does not resolve
        reasons = []
        real = branch.monotone_iterate

        def recording(*args):
            out = real(*args)
            if not out.converged:
                reasons.append(out.reason)
            return out

        monkeypatch.setattr(branch, "monotone_iterate", recording)
        one = lt.constant_field(grid8, 1.0)
        f = 0.6 * one + 1.3 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        a = one + 0.3 * lt.cosine_field(grid8, 1.0, [0, 1, 0])
        fold = find_theta_star(lt.Coefficients(one, f, a), 0.05, 1e-4)
        assert reasons == ["monotonicity lost in under-resolved growth"] * 2
        lo, hi = fold.bracket
        assert 0.0 <= fold.last_branch_point.lam <= 1e-4
        assert lo < fold.theta_star <= hi
        assert fold.theta_star == pytest.approx(0.298597, abs=1e-6)

    def test_extended_newton_failure_propagates(self, unit_coeffs8, monkeypatch):
        # the extended Newton is the one way a fold search ends, so its
        # failure ends the search
        def failing(*args):
            raise NewtonError("forced failure of the extended Newton")

        monkeypatch.setattr(branch, "_fold_newton", failing)
        with pytest.raises(NewtonError, match="forced failure"):
            find_theta_star(unit_coeffs8, theta_hint=0.1, tol=1e-4)

    @pytest.mark.parametrize("case", ["readme 16^3", "unit 12^4", "item 9 16^3", "a with k = 7"])
    def test_half_grid_start_keeps_the_single_level_fold(self, case, monkeypatch):
        # the half-grid bracket and fold only move the full-grid Newton's
        # start: the certified theta_star stays that of the single-level
        # search, also where a has a mode (k = 7) that the 8^3 grid truncates
        coeffs, hint = _fold_case(case)
        fold = find_theta_star(coeffs, theta_hint=hint, tol=1e-4)
        assert fold.coarse_theta_star is not None and fold.coarse_refinement_steps > 0
        monkeypatch.setattr(branch, "_half_grid_coefficients", lambda *args: None)
        single = find_theta_star(coeffs, theta_hint=hint, tol=1e-4)
        assert single.coarse_theta_star is None and single.coarse_refinement_steps == 0
        assert abs(fold.theta_star - single.theta_star) <= 1e-10
        assert fold.refinement_steps < single.refinement_steps

    def test_failed_half_grid_fold_falls_back_to_the_bracket_point(self, monkeypatch):
        # the full-grid Newton then starts from the half-grid bracket point,
        # prolonged, and certifies the single-level fold
        coeffs, _ = _fold_case("readme 16^3")
        real, starts = branch._extended_newton, []

        def failing_on_the_half_grid(c, u, theta):
            if c.grid == coeffs.grid.half:
                raise NewtonError("forced failure on the half grid")
            starts.append((u.grid, theta))
            return real(c, u, theta)

        monkeypatch.setattr(branch, "_extended_newton", failing_on_the_half_grid)
        fold = find_theta_star(coeffs, theta_hint=0.1, tol=1e-4)
        assert fold.coarse_theta_star is None and fold.coarse_refinement_steps == 0
        assert starts == [(coeffs.grid, 0.1)]
        monkeypatch.setattr(branch, "_half_grid_coefficients", lambda *args: None)
        single = find_theta_star(coeffs, theta_hint=0.1, tol=1e-4)
        assert abs(single.theta_star - fold.theta_star) <= 1e-12
        assert np.allclose(single.bracket, fold.bracket, rtol=0.0, atol=1e-12)

    def test_no_half_grid_fold_without_admissible_coefficients(self, grid16):
        # a single spike of a restricts to a Dirichlet kernel, negative in its
        # side lobes; 6^5 has no half grid at all
        spike = np.zeros(grid16.resolutions)
        spike[0, 0, 0] = 1.0
        one = lt.constant_field(grid16, 1.0)
        coeffs = lt.Coefficients(one, one, lt.ScalarField(grid16, spike))
        assert branch._half_grid_coefficients(coeffs) is None
        one = lt.constant_field(lt.build_grid(5, [6] * 5, [1.0] * 5), 1.0)
        assert branch._half_grid_coefficients(lt.Coefficients(one, one, one)) is None

    @pytest.mark.parametrize("case", ["readme 16^3", "unit 12^4"])
    def test_one_full_grid_probe(self, case, monkeypatch):
        # the half grid brackets the fold, so the full grid's only possible
        # existence probe is the upper certificate, which convexity replaces
        coeffs, hint = _fold_case(case)
        full_probes = []
        real = branch._existence_solve

        def probing(c, theta, *args):
            if c.grid == coeffs.grid:
                full_probes.append(theta)
            return real(c, theta, *args)

        monkeypatch.setattr(branch, "_existence_solve", probing)
        fold = find_theta_star(coeffs, theta_hint=hint, tol=1e-4)
        assert fold.upper_certificate == "convexity" and full_probes == []
        monkeypatch.setattr(branch, "_convexity_margin", lambda *args: None)
        fold = find_theta_star(coeffs, theta_hint=hint, tol=1e-4)
        assert fold.upper_certificate == "probe" and full_probes == [fold.bracket[1]]

    def test_half_grid_bracket_falls_back_to_the_full_grid(self, monkeypatch):
        # ROADMAP item 9's coefficients: at 8^3 the doubling probe at 0.4
        # loses monotonicity, so the bracket runs on the full grid, and the
        # half-grid Newton starts from its restriction
        coeffs, hint = _fold_case("item 9 16^3")
        brackets = []
        real = branch._bracket

        def recording(c, *args):
            try:
                out = real(c, *args)
            except Exception as exc:
                brackets.append((c.grid, type(exc)))
                raise
            brackets.append((c.grid, None))
            return out

        monkeypatch.setattr(branch, "_bracket", recording)
        fold = find_theta_star(coeffs, theta_hint=hint, tol=1e-4)
        assert brackets == [(coeffs.grid.half, branch.MonotonicityError), (coeffs.grid, None)]
        assert fold.coarse_theta_star is not None
        assert fold.theta_star == pytest.approx(0.2256535232, abs=1e-9)
        # f changes sign, so the convexity argument does not apply
        assert (fold.upper_certificate, fold.upper_certificate_margin) == ("probe", None)

    def test_full_grid_work_of_the_readme_fold(self, monkeypatch):
        # one full-grid Newton step from the half-grid fold: three bordered
        # solves and the one that finds it converged (16 from the bracket point)
        coeffs, _ = _fold_case("readme 16^3")
        solves = []
        real = branch._symmetric_solver

        def counting(w, border=None):
            solve = real(w, border)
            if border is None or w.grid != coeffs.grid:
                return solve
            return lambda rhs: solves.append(1) or solve(rhs)

        monkeypatch.setattr(branch, "_symmetric_solver", counting)
        find_theta_star(coeffs, theta_hint=0.1, tol=1e-4)
        assert 0 < len(solves) <= 4

    @pytest.mark.parametrize("case", ["readme 16^3", "unit 6^5"])
    def test_one_eigen_solve_and_no_repeated_probe(self, case, monkeypatch):
        # the extended Newton borders with its own start, so the lower
        # certificate's eigen solve is a fold's only one; the 6^5 hint lies
        # above the fold (4/5)^4/5, and doubling does not probe it again;
        # convexity, not a probe, certifies the fold from above
        coeffs, hint = _fold_case(case)
        probes, eigen_calls = [], []
        real_probe, real_eigen = branch._existence_solve, branch.smallest_eigenpair

        def probing(c, theta, *args):
            probes.append(theta)
            return real_probe(c, theta, *args)

        monkeypatch.setattr(branch, "_existence_solve", probing)
        monkeypatch.setattr(branch, "smallest_eigenpair",
                            lambda w: eigen_calls.append(1) or real_eigen(w))
        fold = find_theta_star(coeffs, theta_hint=hint, tol=1e-4)
        assert len(eigen_calls) == 1
        assert len(probes) == len(set(probes)) == 2
        assert fold.upper_certificate == "convexity" and fold.bracket[1] not in probes

    @pytest.mark.parametrize("case", ["readme 16^3", "unit 12^4", "unit 6^5"])
    def test_convexity_certifies_the_fold_from_above(self, case, monkeypatch):
        # no full-grid Picard iteration after the lower certificate's eigen
        # solve, which is the one the margin reuses
        coeffs, hint = _fold_case(case)
        events = []
        real_iterate, real_eigen = branch.monotone_iterate, branch.smallest_eigenpair

        def iterating(spec, start):
            events.append(("picard", spec.grid))
            return real_iterate(spec, start)

        monkeypatch.setattr(branch, "monotone_iterate", iterating)
        monkeypatch.setattr(branch, "smallest_eigenpair",
                            lambda w: events.append(("eigen", w.grid)) or real_eigen(w))
        fold = find_theta_star(coeffs, theta_hint=hint, tol=1e-4)
        assert fold.upper_certificate == "convexity" and fold.upper_certificate_margin > 1.0
        eigen = events.index(("eigen", coeffs.grid))
        assert ("picard", coeffs.grid) not in events[eigen:]

    def test_inaccurate_eigenvector_falls_back_to_the_probe(self, monkeypatch):
        # 1e-3 cos 2 pi x1 added to the eigenvector makes its residual rho
        # outweigh the margin, so the certificate refuses and the probe runs
        coeffs, hint = _fold_case("readme 16^3")
        grid = coeffs.grid
        real_eigen, real_margin = branch.smallest_eigenpair, branch._convexity_margin
        margins, probes = [], []

        def perturbed(w):
            eig = real_eigen(w)
            if w.grid == grid:
                eig.vector = eig.vector + lt.cosine_field(grid, 1e-3, [1, 0, 0])
            return eig

        monkeypatch.setattr(branch, "smallest_eigenpair", perturbed)
        monkeypatch.setattr(branch, "_convexity_margin",
                            lambda *args: margins.append(real_margin(*args)) or margins[-1])
        real_probe = branch._existence_solve
        monkeypatch.setattr(branch, "_existence_solve",
                            lambda c, theta, *args: probes.append(theta)
                            or real_probe(c, theta, *args))
        fold = find_theta_star(coeffs, theta_hint=hint, tol=1e-4)
        assert len(margins) == 1 and margins[0] < 1.0
        assert (fold.upper_certificate, fold.upper_certificate_margin) == ("probe", None)
        assert probes[-1] == fold.bracket[1]

    def test_convexity_never_contradicts_the_probe(self):
        # seeded random folds with f, a > 0 at 8^3 to 16^3: wherever the
        # certificate closes, the existence probe at bracket_hi diverges too
        closed = 0
        for seed in range(14):
            coeffs = _random_positive_coefficients(seed)
            fold = find_theta_star(coeffs, theta_hint=0.1, tol=1e-4)
            if fold.upper_certificate == "convexity":
                closed += 1
                with pytest.raises(NoSolutionError):
                    branch._existence_solve(coeffs, fold.bracket[1],
                                            fold.last_branch_point.solution)
        assert closed >= 9

    def test_half_grid_bracket_past_the_full_grid_fold(self):
        # hint 0.1's 4^3 bracket ends at theta_lo = 1.6, past the 8^3 fold
        # at 1.402; the certificates alone pin it, as for the other hints
        g = lt.build_grid(3, [8] * 3, [1.0] * 3)
        one = lt.constant_field(g, 1.0)
        h = (one - lt.cosine_field(g, 0.201509, [2, 0, 0], 5.113338)
             + lt.cosine_field(g, 0.100101, [1, 0, 0], 4.57536))
        f = (0.3 * one - lt.cosine_field(g, 0.800736, [2, 0, 0], 1.726808)
             + lt.cosine_field(g, 0.112078, [0, 1, 0], 0.942391))
        a = (one + lt.cosine_field(g, 0.169297, [0, 2, 0], 2.655088)
             + lt.cosine_field(g, 0.467436, [0, 1, 0], 4.289647))
        folds = [find_theta_star(lt.Coefficients(h, f, a), theta_hint=hint, tol=1e-4)
                 for hint in (0.01, 0.1, 1.0)]
        assert all(fold.upper_certificate == "probe" for fold in folds)
        stars = [fold.theta_star for fold in folds]
        assert max(stars) - min(stars) <= 1e-12
        assert stars[0] == pytest.approx(1.40200952020945, abs=1e-10)

    def test_full_grid_newton_steps_at_32_cubed(self):
        fold = find_theta_star(_fold_case("readme 32^3")[0], theta_hint=0.1, tol=1e-4)
        assert fold.refinement_steps <= 1
        assert abs(fold.theta_star - fold.coarse_theta_star) <= 1e-10

    def test_no_solution_error(self, grid8):
        # f so large that no positive solution exists at any probed theta
        one = lt.constant_field(grid8, 1.0)
        coeffs = lt.Coefficients(one, lt.constant_field(grid8, 1e12), one)
        with pytest.raises(NoSolutionError):
            find_theta_star(coeffs, theta_hint=0.1, tol=1e-3)


class TestTraceBranch:
    def test_constant_lambda_closed_form(self, unit_coeffs8):
        thetas = np.linspace(0.01, 0.13, 8)
        record = trace_branch(unit_coeffs8, thetas)
        for point in record.points:
            c1, _ = constant_roots(point.theta, 6.0)
            w = linearized_constant_potential(c1, point.theta, 6.0)
            assert abs(point.lam - w) <= 1e-8

    def test_pointwise_monotone_in_theta(self, unit_coeffs8):
        record = trace_branch(unit_coeffs8, [0.02, 0.05, 0.08, 0.11])
        assert record.monotonicity_violation <= 1e-10
        for a, b in zip(record.points, record.points[1:]):
            assert (a.solution.values <= b.solution.values + 1e-10).all()

    def test_lambda_positive_below_fold(self, unit_coeffs8):
        record = trace_branch(unit_coeffs8, [0.02, 0.07, 0.12])
        assert all(p.lam > 0 for p in record.points)

    def test_uniform_lower_bound(self, unit_coeffs8):
        sub = build_subsolution(critical_spec(unit_coeffs8, 0.02))
        record = trace_branch(unit_coeffs8, [0.02, 0.06, 0.1])
        floor = sub.field.min()
        assert all(p.solution.min() >= floor for p in record.points)

    def test_existence_monotone_in_theta(self, unit_coeffs8):
        # if the oracle reports existence at theta, it must at every smaller one
        thetas = [0.14, 0.1, 0.05, 0.01]
        results = []
        for th in thetas:
            spec = critical_spec(unit_coeffs8, th)
            out = monotone_iterate(spec, build_subsolution(spec))
            results.append(out.converged)
        assert results == sorted(results) or all(results)

    def test_subcritical_q_point_matches_solve(self, unit_coeffs8):
        # a branch at q < 2* linearizes at its own equation, as solve does
        spec = critical_spec(unit_coeffs8, 0.1).at(q=4.0)
        sol = minimal_solution(spec).solution
        lam = smallest_eigenpair(linearized_potential(spec, sol)).lam
        point = trace_branch(unit_coeffs8, [0.1], q=4.0).points[0]
        assert abs(point.lam - lam) <= 1e-8
        assert abs(point.energy - energy(spec, sol)) <= 1e-8

    def test_requires_ascending_schedule(self, unit_coeffs8):
        with pytest.raises(ValueError):
            trace_branch(unit_coeffs8, [0.1, 0.05])

    def test_vanishing_a_branch(self):
        # warm starts are only nonstrict subsolutions where a vanishes;
        # the iteration must still trace cleanly
        g = lt.build_grid(3, [16] * 3, [1.0] * 3)
        one = lt.constant_field(g, 1.0)
        a = one + lt.cosine_field(g, 1.0, [1, 0, 0])
        coeffs = lt.Coefficients(one, one, a)
        record = trace_branch(coeffs, [0.02, 0.05, 0.08, 0.11])
        assert record.monotonicity_violation <= 1e-10
        assert all(p.lam > 0 for p in record.points)
