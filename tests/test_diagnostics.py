import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lichtorus as lt
from lichtorus import diagnostics
from lichtorus.diagnostics import (
    BubbleSpec,
    StructuralViolationError,
    bubble_profile,
    member_profile,
    rescaled_profile_compare,
    stability_experiment,
    standard_bubble,
)

from conftest import constant_roots


class TestBubbleSpec:
    def test_r0_invariant(self):
        spec = BubbleSpec(n=3, f0=3.0)
        assert spec.r0 ** 2 * spec.f0 == pytest.approx(3.0 * 1.0)
        spec = BubbleSpec(n=5, f0=2.0)
        assert spec.r0 ** 2 * spec.f0 == pytest.approx(15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BubbleSpec(n=6, f0=1.0)
        with pytest.raises(ValueError):
            BubbleSpec(n=3, f0=-1.0)


class TestStandardBubble:
    def test_center_and_r0_values(self):
        spec = BubbleSpec(n=3, f0=3.0)  # R0 = 1
        # the center, and |x| = R0 (squared distances 0 and 1)
        center, at_r0 = bubble_profile(spec, np.array([0.0, 1.0]))
        assert center == pytest.approx(1.0)
        assert at_r0 == pytest.approx(2.0 ** (-0.5), abs=1e-14)

    def test_residual_and_refinement_order(self):
        spec = BubbleSpec(n=3, f0=3.0)
        rep1 = standard_bubble(spec, 0.5, spacing=spec.r0 / 64)
        rep2 = standard_bubble(spec, 0.5, spacing=spec.r0 / 128)
        assert rep1.max_rel_residual <= 1e-4
        ratio = rep1.max_rel_residual / rep2.max_rel_residual
        assert 12.0 <= ratio <= 20.0

    def test_window_too_small(self):
        with pytest.raises(ValueError, match="window too small"):
            standard_bubble(BubbleSpec(n=3, f0=3.0), 0.01, spacing=0.01)


def transplanted_bubble(mu: float):
    """(u, f): a bubble of scale mu at f0 = 3 (R0 = 1) on the unit 96^3 torus."""
    g = lt.build_grid(3, [96, 96, 96], [1.0, 1.0, 1.0])
    mesh = np.meshgrid(*g.axes, indexing="ij")
    r2 = sum(((x - 0.5 + 0.5) % 1.0 - 0.5) ** 2 for x in mesh)
    profile = (1.0 + (r2 / mu**2)) ** (-0.5)
    return lt.ScalarField(g, mu ** (-0.5) * profile), lt.constant_field(g, 3.0)


def test_map_coordinates_imports_scipy_on_first_call():
    # the forwarder loads scipy.ndimage only when the bubble comparison
    # first interpolates, and returns scipy's result bit for bit
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from lichtorus import diagnostics
        before = "scipy.ndimage" in sys.modules
        x = np.arange(24) / 24 - 0.5
        r2 = sum(c**2 for c in np.meshgrid(x, x, x, indexing="ij"))
        bubble = (1.0 + r2 / 0.1**2) ** -0.5
        coords = np.random.default_rng(5).uniform(-4.0, 28.0, size=(3, 500))
        ours = diagnostics.map_coordinates(bubble, coords, order=3, mode="grid-wrap")
        after = "scipy.ndimage" in sys.modules
        from scipy.ndimage import map_coordinates
        ref = map_coordinates(bubble, coords, order=3, mode="grid-wrap")
        print(before, after, ours.tobytes() == ref.tobytes())
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(lt.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True", "True"]


class TestProfileCompare:
    def test_transplanted_bubble(self):
        mu, q = 0.05, 6.0
        u, f = transplanted_bubble(mu)
        rep = rescaled_profile_compare(u, f, q)
        assert rep.deviation <= 2e-2
        assert rep.mu == pytest.approx(mu, rel=1e-12)
        assert rep.concentrated

    def test_constant_not_concentrated(self, grid8):
        u = lt.constant_field(grid8, 0.8)
        rep = rescaled_profile_compare(u, lt.constant_field(grid8, 1.0), 6.0)
        assert rep.mu == pytest.approx(0.8 ** (-2.0))
        assert rep.deviation > 0.1
        assert not rep.concentrated

    def test_mu_homogeneity(self, grid8):
        q = 5.0
        u = lt.constant_field(grid8, 0.7) + 0.1 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        f = lt.constant_field(grid8, 1.0)
        r1 = rescaled_profile_compare(u, f, q)
        r2 = rescaled_profile_compare(2.0 * u, f, q)
        assert r2.mu == pytest.approx(2.0 ** (-(q - 2) / 2) * r1.mu, rel=1e-12)

    def test_interpolates_only_the_ball(self, grid8, monkeypatch):
        # every interpolated point lies in |x| <= window: the lattice ball
        # {j in {-m..m}^3 : |j| <= window * s}, m = window * s
        points = []
        real = diagnostics.map_coordinates

        def counting(values, coords, **kwargs):
            points.append(int(np.prod(coords.shape[1:])))
            return real(values, coords, **kwargs)

        monkeypatch.setattr(diagnostics, "map_coordinates", counting)
        u = lt.constant_field(grid8, 0.7) + 0.1 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        rescaled_profile_compare(u, lt.constant_field(grid8, 1.0), 5.0,
                                 window=5.0, samples_per_unit=4)
        j = np.arange(-20, 21) ** 2
        ball = int((j[:, None, None] + j[None, :, None] + j[None, None, :] <= 400).sum())
        assert points == [ball]

    def test_nonpositive_f_flagged(self, grid8):
        u = lt.constant_field(grid8, 1.0) + 0.5 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        f = lt.constant_field(grid8, -1.0) + 0.5 * lt.cosine_field(grid8, 1.0, [0, 1, 0])
        with pytest.raises(StructuralViolationError):
            rescaled_profile_compare(u, f, 6.0)


class TestMemberProfile:
    def test_concentrated_member_matches_the_comparison(self):
        u, f = transplanted_bubble(0.05)
        peak, deviation = member_profile(u, f, 6.0)
        rep = rescaled_profile_compare(u, f, 6.0)
        assert peak.mu_over_period == pytest.approx(0.05, rel=1e-12)
        assert deviation == rep.deviation
        assert (peak.mu, peak.f0, peak.center_index) == (rep.mu, rep.f0, rep.center_index)

    def test_nonpositive_f_flagged(self, grid8):
        u = lt.constant_field(grid8, 1.0) + 0.5 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        f = lt.constant_field(grid8, -1.0) + 0.5 * lt.cosine_field(grid8, 1.0, [0, 1, 0])
        with pytest.raises(StructuralViolationError):
            member_profile(u, f, 6.0)


def unit_family():
    g = lt.build_grid(3, [8, 8, 8], [1.0, 1.0, 1.0])
    one = lt.constant_field(g, 1.0)
    coeffs = lt.Coefficients(one, one, one)
    qs = [6.0 - 1.0 / k for k in range(1, 7)]
    return coeffs, qs, stability_experiment(coeffs, 0.1, qs)


@pytest.fixture(scope="module")
def experiment():
    return unit_family()


class TestStabilityExperiment:

    def test_verdict_and_oracle(self, experiment):
        coeffs, qs, res = experiment
        assert res.verdict == "CONVERGED"
        for member, q in zip(res.members, qs):
            c1, _ = constant_roots(0.1, q)
            assert abs(member.sup_u - c1) <= 1e-10

    def test_diffs_decreasing_and_floor(self, experiment):
        _, _, res = experiment
        diffs = res.sup_differences
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] <= 1e-3
        assert min(m.min_u for m in res.members) >= res.subsolution_floor - 1e-12

    def test_mu_bounded_away_from_zero(self, experiment):
        _, _, res = experiment
        assert min(m.mu for m in res.members) > 1e-3

    def test_profile_interpolated_only_where_concentrated(self, monkeypatch):
        # every member of the unit family has mu/period >= 1: its bubble
        # comparison would wrap the torus, so none is interpolated
        calls = []
        real = diagnostics.map_coordinates

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "map_coordinates", counting)
        _, _, res = unit_family()
        assert calls == []
        assert all(m.deviation is None for m in res.members)
        assert min(m.mu for m in res.members) >= 1.0

    def test_perturbed_family_converges_to_unperturbed_limit(self):
        # a_k = a (1 + 0.1/k): at large k the perturbed member matches the
        # unperturbed critical minimal solution
        g = lt.build_grid(3, [8, 8, 8], [1.0, 1.0, 1.0])
        one = lt.constant_field(g, 1.0)
        coeffs = lt.Coefficients(one, one, one)
        k = 1000
        q_k = 6.0 - 1.0 / k
        res = stability_experiment(coeffs, 0.1, [q_k], [coeffs.a * (0.1 / k)])
        c1, _ = constant_roots(0.1, 6.0)
        assert abs(res.members[0].sup_u - c1) <= 1e-4

    def test_perturbed_bracketing_by_a_monotonicity(self):
        # phi(a) <= phi(a(1+delta)): the perturbed solution is bracketed by
        # the unperturbed ones at theta and theta(1+delta)
        g = lt.build_grid(3, [8, 8, 8], [1.0, 1.0, 1.0])
        one = lt.constant_field(g, 1.0)
        coeffs = lt.Coefficients(one, one, one)
        delta = 0.1
        res = stability_experiment(coeffs, 0.1, [5.5, 5.5000001],
                                   [coeffs.a * delta, coeffs.a * delta])
        lo, _ = constant_roots(0.1, 5.5)
        hi, _ = constant_roots(0.1 * (1 + delta), 5.5)
        sup = res.members[0].sup_u
        assert lo - 1e-10 <= sup <= hi + 1e-10

    @pytest.mark.parametrize("dim,res,theta,fold", [
        (4, 6, 0.05, 27.0 / 256.0),
        (5, 6, 0.04, 256.0 / 3125.0),
    ])
    def test_higher_dimensions_converge(self, dim, res, theta, fold):
        assert theta <= 0.9 * fold
        g = lt.build_grid(dim, [res] * dim, [1.0] * dim)
        one = lt.constant_field(g, 1.0)
        coeffs = lt.Coefficients(one, one, one)
        ts = 2.0 * dim / (dim - 2.0)
        res_ = stability_experiment(coeffs, theta, [ts - 0.5, ts - 0.25, ts - 0.125])
        assert res_.verdict == "CONVERGED"
        for member, q in zip(res_.members, [ts - 0.5, ts - 0.25, ts - 0.125]):
            c1, _ = constant_roots(theta, q)
            assert abs(member.sup_u - c1) <= 1e-9

    def test_picard_work_of_the_n5_family(self):
        # q_k = 10/3 - 2^-k with a-bumps of 0.04 2^-k: every member starts
        # within a scan step of its solution
        g = lt.build_grid(5, [6] * 5, [1.0] * 5)
        one = lt.constant_field(g, 1.0)
        coeffs = lt.Coefficients(one, one, one)
        qs = [10.0 / 3.0 - 2.0 ** -k for k in range(2, 8)]
        perts = [coeffs.a * (0.04 * 2.0 ** -k) for k in range(6)]
        res = stability_experiment(coeffs, 0.05, qs, perts)
        assert res.verdict == "CONVERGED"
        assert sum(m.iterations for m in res.members) <= 60

    def test_gradient_differences_decrease_for_nonconstant_a(self):
        g = lt.build_grid(3, [8, 8, 8], [1.0, 1.0, 1.0])
        one = lt.constant_field(g, 1.0)
        a = one + 0.3 * lt.cosine_field(g, 1.0, [1, 0, 0])
        coeffs = lt.Coefficients(one, one, a)
        res = stability_experiment(coeffs, 0.08, [5.0, 5.5, 5.75, 5.875])
        assert res.verdict == "CONVERGED"
        gd = res.gradient_differences
        assert all(b < a_ for a_, b in zip(gd, gd[1:]))

    def test_blowup_verdict_on_non_cauchy_family(self):
        # alternating large perturbations destroy the Cauchy decrease
        g = lt.build_grid(3, [8, 8, 8], [1.0, 1.0, 1.0])
        one = lt.constant_field(g, 1.0)
        coeffs = lt.Coefficients(one, one, one)
        qs = [5.0, 5.2, 5.4, 5.6]
        perts = [coeffs.a * amp for amp in (0.0, 0.3, -0.2, 0.25)]
        res = stability_experiment(coeffs, 0.1, qs, perts)
        assert res.verdict == "BLOWUP"
