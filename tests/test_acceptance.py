"""Acceptance suite: every criterion at its stated tolerance.

Constant-coefficient problems on unit tori reduce exactly to scalar root
finding (translation invariance plus minimality), which supplies the
independent oracles; the remaining criteria are property checks at fixed
tolerances.  Each test prints one PASS line with the measured numbers.
"""

import json
import time

import numpy as np
import pytest

import lichtorus as lt
from lichtorus.branch import (
    build_subsolution,
    find_theta_star,
    monotone_iterate,
    trace_branch,
)
from lichtorus.cli import main as cli_main
from lichtorus.core import ProblemSpec, critical_spec, energy, energy_gradient
from lichtorus.diagnostics import BubbleSpec, stability_experiment, standard_bubble
from lichtorus.mountain import certificate_constant, certificate_theta1, critical_limit

from conftest import (
    constant_roots,
    linearized_constant_potential,
    smooth_random_field,
)


def unit_coefficients(dim, res):
    g = lt.build_grid(dim, [res] * dim, [1.0] * dim)
    one = lt.constant_field(g, 1.0)
    return lt.Coefficients(one, one, one)


@pytest.fixture(scope="module")
def fold3():
    coeffs = unit_coefficients(3, 16)
    t0 = time.perf_counter()
    fold = find_theta_star(coeffs, theta_hint=0.1, tol=1e-4)
    return fold, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fold4():
    coeffs = unit_coefficients(4, 12)
    return find_theta_star(coeffs, theta_hint=0.1, tol=1e-4)


@pytest.fixture(scope="module")
def two_solutions12():
    return critical_limit(unit_coefficients(3, 12), 0.1)


@pytest.fixture(scope="module")
def nonconstant_setup():
    g = lt.build_grid(3, [16, 16, 16], [1.0, 1.0, 1.0])
    one = lt.constant_field(g, 1.0)
    a = one + 0.3 * lt.cosine_field(g, 1.0, [1, 0, 0])
    coeffs = lt.Coefficients(one, one, a)
    fold = find_theta_star(coeffs, theta_hint=0.1, tol=1e-4)
    thetas = np.linspace(0.01, 0.9 * fold.theta_star, 12)
    record = trace_branch(coeffs, thetas)
    cert = certificate_theta1(coeffs)
    return coeffs, fold, record, cert


def test_criterion_01_fold_n3(fold3):
    fold, elapsed = fold3
    err = abs(fold.theta_star - 4.0 / 27.0)
    assert err <= 5e-4
    assert elapsed <= 60.0
    print(f"ACCEPTANCE 1 fold n=3 16^3: PASS "
          f"(theta_star={fold.theta_star:.9f}, err={err:.2e}, {elapsed:.1f}s)")


def test_criterion_02_fold_n4(fold4):
    err = abs(fold4.theta_star - 27.0 / 256.0)
    assert err <= 5e-4
    print(f"ACCEPTANCE 2 fold n=4 12^4: PASS "
          f"(theta_star={fold4.theta_star:.9f}, err={err:.2e})")


def test_criterion_03_fold_eigenvalue(fold3):
    fold, _ = fold3
    lam = fold.last_branch_point.lam
    assert abs(lam) <= 1e-3
    print(f"ACCEPTANCE 3 fold eigenvalue: PASS (lambda={lam:.2e})")


def test_criterion_04_two_solutions(two_solutions12):
    pair = two_solutions12
    c1, c2 = constant_roots(0.1, 6.0)
    err_min = abs(pair.minimal.solution.values - c1).max()
    err_sec = abs(pair.second.values - c2).max()
    assert err_min <= 1e-5
    assert err_sec <= 1e-5
    assert pair.minimal.energy < pair.eta <= pair.second_energy + 1e-9
    print(f"ACCEPTANCE 4 two solutions theta=0.1: PASS "
          f"(|u-c1|={err_min:.2e}, |v-c2|={err_sec:.2e}, "
          f"I(u)={pair.minimal.energy:.6f} < eta={pair.eta:.6f} "
          f"<= I(v)={pair.second_energy:.6f})")


def test_criterion_05_lambda_closed_form():
    coeffs = unit_coefficients(3, 8)
    thetas = np.linspace(0.01, 0.13, 10)
    record = trace_branch(coeffs, thetas)
    worst = 0.0
    for point in record.points:
        c1, _ = constant_roots(point.theta, 6.0)
        w = linearized_constant_potential(c1, point.theta, 6.0)
        worst = max(worst, abs(point.lam - w))
    assert worst <= 1e-8
    print(f"ACCEPTANCE 5 lambda closed form (10 points): PASS (max err={worst:.2e})")


def test_criterion_06_gradient_consistency():
    coeffs = unit_coefficients(3, 8)
    spec = ProblemSpec(coeffs, 5.0, theta=0.3, epsilon=1e-2)
    rng = np.random.default_rng(12)
    s = 1e-5
    worst = 0.0
    for _ in range(20):
        u = smooth_random_field(coeffs.grid, rng, mean=1.0, amplitude=0.3)
        v = smooth_random_field(coeffs.grid, rng, amplitude=0.5)
        fd = (energy(spec, u + s * v) - energy(spec, u - s * v)) / (2 * s)
        pairing = lt.l2_inner(energy_gradient(spec, u), v)
        worst = max(worst, abs(fd - pairing) / max(1.0, abs(pairing)))
    assert worst <= 1e-6
    print(f"ACCEPTANCE 6 gradient consistency (20 fields): PASS (max rel err={worst:.2e})")


def test_criterion_07_nonconstant_branch(nonconstant_setup):
    _, fold, record, cert = nonconstant_setup
    assert len(record.points) == 12
    assert record.monotonicity_violation <= 1e-10
    lam_min = min(p.lam for p in record.points)
    assert lam_min >= -1e-8
    assert cert.theta1_lower_bound <= fold.theta_star
    print(f"ACCEPTANCE 7 non-constant a: PASS "
          f"(violation={record.monotonicity_violation:.1e}, lambda_min={lam_min:.3e}, "
          f"theta1_lb={cert.theta1_lower_bound:.5f} <= theta_star={fold.theta_star:.5f})")


def test_criterion_08_stability_experiment():
    coeffs = unit_coefficients(3, 8)
    qs = [6.0 - 1.0 / k for k in range(1, 7)]
    res = stability_experiment(coeffs, 0.1, qs)
    diffs = res.sup_differences
    assert res.verdict == "CONVERGED"
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] <= 1e-3
    assert min(m.min_u for m in res.members) >= res.subsolution_floor - 1e-12
    print(f"ACCEPTANCE 8 stability experiment: PASS "
          f"(final diff={diffs[-1]:.2e}, floor={res.subsolution_floor:.3f})")


def test_criterion_09_bubble_residual():
    spec = BubbleSpec(n=3, f0=3.0)
    rep = standard_bubble(spec, 0.5, spacing=spec.r0 / 64)
    rep_half = standard_bubble(spec, 0.5, spacing=spec.r0 / 128)
    ratio = rep.max_rel_residual / rep_half.max_rel_residual
    assert rep.max_rel_residual <= 1e-4
    assert 12.0 <= ratio <= 20.0
    print(f"ACCEPTANCE 9 bubble residual: PASS "
          f"(residual={rep.max_rel_residual:.2e}, refinement ratio={ratio:.2f})")


def test_criterion_10_operator_roundtrips():
    g = lt.build_grid(3, [8, 8, 8], [1.0, 1.0, 1.0])
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(5):
        u = smooth_random_field(g, rng)
        c = lt.constant_field(g, 2.0) + 0.5 * lt.cosine_field(g, 1.0, [1, 0, 0])
        rhs = lt.laplacian(u) + c * u
        back = lt.helmholtz_solve(c, rhs)
        worst = max(worst, (back - u).sup_norm() / max(1.0, u.sup_norm()))
    assert worst <= 1e-9

    w = lt.constant_field(g, 1.0) + 0.5 * lt.cosine_field(g, 1.0, [1, 0, 0])
    dense = np.zeros((g.npoints, g.npoints))
    basis = np.zeros(g.resolutions)
    flat = basis.reshape(-1)
    for j in range(g.npoints):
        flat[:] = 0.0
        flat[j] = 1.0
        col = lt.laplacian(lt.ScalarField(g, basis)).values + w.values * basis
        dense[:, j] = col.reshape(-1)
    lam_dense = float(np.linalg.eigvalsh(dense)[0])
    eig = lt.smallest_eigenpair(w)
    eig_err = abs(eig.lam - lam_dense)
    assert eig_err <= 1e-8
    print(f"ACCEPTANCE 10 operator roundtrips: PASS "
          f"(helmholtz={worst:.2e}, eigen vs dense={eig_err:.2e})")


def test_criterion_11_monotone_discipline(fold3):
    fold, _ = fold3
    coeffs = unit_coefficients(3, 16)
    worst_violation = 0.0

    spec = critical_spec(coeffs, 0.2)
    out = monotone_iterate(spec, build_subsolution(spec))
    assert not out.converged
    worst_violation = max(worst_violation, out.max_violation)

    for frac in (0.25, 0.5, 0.75, 0.9):
        theta = frac * fold.theta_star
        spec = critical_spec(coeffs, theta)
        out = monotone_iterate(spec, build_subsolution(spec))
        assert out.converged, f"diverged at theta = {frac} * theta_star"
        worst_violation = max(worst_violation, out.max_violation)

    assert worst_violation <= 1e-12
    print(f"ACCEPTANCE 11 monotone discipline: PASS "
          f"(max violation={worst_violation:.2e}, diverged at 0.2, "
          f"converged up to 0.9 theta_star)")


def test_criterion_12_certificate_constants():
    assert certificate_constant(3) == 1.0 / 64.0
    assert certificate_constant(4) == 1.0 / 72.0
    assert certificate_constant(5) == 1.0 / 96.0
    for dim, res in ((3, 8), (4, 6), (5, 6)):
        cert = certificate_theta1(unit_coefficients(dim, res))
        assert cert.t1 == (2.0 * (dim - 1)) ** (-0.5) * cert.t0
    print("ACCEPTANCE 12 certificate constants: PASS "
          "(C(3)=1/64, C(4)=1/72, C(5)=1/96 exact; t1/t0 exact)")


def test_criterion_13_determinism(tmp_path):
    cfg = {
        "mode": "fold",
        "grid": {"dim": 3, "resolutions": [8, 8, 8], "periods": [1.0, 1.0, 1.0]},
        "coefficients": {"h": {"constant": 1.0}, "f": {"constant": 1.0},
                         "a": {"constant": 1.0}},
        "parameters": {"theta_hint": 0.1},
        "output": {"directory": "unused"},
        "seed": 5,
    }
    cfg_path = tmp_path / "fold.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli_main(["fold", "--config", str(cfg_path), "--out", out1]) == 0
    assert cli_main(["fold", "--config", str(cfg_path), "--out", out2]) == 0
    b1 = (tmp_path / "r1" / "branch.csv").read_bytes()
    b2 = (tmp_path / "r2" / "branch.csv").read_bytes()
    assert b1 == b2
    print(f"ACCEPTANCE 13 determinism: PASS (branch.csv byte-identical, {len(b1)} bytes)")
