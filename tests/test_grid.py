import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lichtorus as lt
from lichtorus import branch
from lichtorus import grid as grid_module
from lichtorus.branch import NewtonError
from lichtorus.grid import (
    GridMismatchError,
    KrylovError,
    NonCoerciveOperatorError,
    gradient_energy,
    h1h_quadratic_form,
    h1h_quadratic_forms,
    helmholtz_operator,
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

    def test_public_constructor_copies(self, grid8):
        arr = np.ones(grid8.resolutions)
        u = lt.ScalarField(grid8, arr)
        arr[0, 0, 0] = 5.0
        assert arr.flags.writeable
        assert u.values[0, 0, 0] == 1.0

    def test_arithmetic_results_are_read_only_and_finite(self, grid8):
        u = lt.constant_field(grid8, 2.0)
        for result in (u + 1.0, 1.0 - u, u * u, u / 2.0, u ** 2, -u, lt.laplacian(u)):
            assert not result.values.flags.writeable
        with pytest.raises(ValueError, match="non-finite"):
            u + np.inf

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


@pytest.fixture
def round_trips(monkeypatch):
    """Counts grid.py's forward transforms, one per round trip through
    Fourier space."""
    calls = []
    forward = grid_module._to_fourier
    monkeypatch.setattr(grid_module, "_to_fourier",
                        lambda *a, **k: calls.append(1) or forward(*a, **k))
    return calls


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
        with pytest.raises(NonCoerciveOperatorError, match="mean of variable coefficient"):
            lt.helmholtz_solve(c + 0.5 * lt.cosine_field(grid8, 1.0, [1, 0, 0]),
                               lt.constant_field(grid8, 1.0))

    def test_constant_field_coefficient_is_the_direct_division(self, grid8, round_trips):
        rhs = smooth_random_field(grid8, np.random.default_rng(19))
        expected = lt.helmholtz_solve(1.1, rhs)
        round_trips.clear()
        u = lt.helmholtz_solve(lt.constant_field(grid8, 1.1), rhs)
        assert len(round_trips) == 1
        assert np.array_equal(u.values, expected.values)

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
        assert gradient_energy(grid8, u.values) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("res", [[8] * 3, [12] * 3, [16] * 3, [12] * 4, [6] * 5])
def test_stacked_forms_are_bit_identical_to_one_field_forms(res):
    g = lt.build_grid(len(res), res, [1.0] * len(res))
    rng = np.random.default_rng(31)
    h = lt.constant_field(g, 1.5) + 0.25 * lt.cosine_field(g, 1.0, [1] * len(res))
    fields = [smooth_random_field(g, rng) for _ in range(5)]
    stacked = h1h_quadratic_forms(np.stack([u.values for u in fields]), h)
    assert stacked.tolist() == [h1h_quadratic_form(u, h) for u in fields]


def test_transforms_only_in_grid():
    # grid.py is the one spectral-operator layer: no module calls an FFT,
    # grid.py has one forward and one backward transform, and there is one
    # way back from Fourier space
    package = Path(lt.__file__).parent
    sources = {p.name: p.read_text() for p in package.glob("*.py")}
    assert not [name for name, text in sources.items() if re.search(r"\bfft\b", text)]
    grid_text = sources.pop("grid.py")
    assert re.findall(r"^def (_\w+_fourier)\(", grid_text, re.M) == ["_to_fourier", "_from_fourier"]
    assert not [name for name, text in sources.items() if "_fourier" in text]
    assert len(re.findall(r"\b_from_fourier\(", grid_text)) == 2  # its definition and one call


def _fft_reference(grid, values, shift):
    """Delta u, (Delta + shift)^(-1) u and int |grad u|^2 through numpy's FFT,
    each field alone, by the rfftn formulas the dense basis replaced."""
    omegas = []
    for axis, (n, length) in enumerate(zip(grid.resolutions, grid.periods)):
        fftfreq = np.fft.rfftfreq if axis == grid.dim - 1 else np.fft.fftfreq
        shape = [1] * grid.dim
        shape[axis] = -1
        omegas.append((2.0 * np.pi * fftfreq(n, d=length / n)).reshape(shape))
    mult = sum(omega**2 for omega in omegas)
    weights = np.full(grid.resolutions[-1] // 2 + 1, 2.0)
    weights[[0, -1]] = 1.0
    uhat = np.fft.rfftn(values)
    back = lambda vhat: np.fft.irfftn(vhat, s=grid.resolutions, axes=grid.field_axes)
    energy = np.sum(mult * weights * np.abs(uhat) ** 2) * grid.cell_volume / grid.npoints
    return back(mult * uhat), back(uhat / (mult + shift)), energy


@pytest.mark.parametrize("res, periods", [
    ([16] * 3, [1.0] * 3), ([12] * 4, [1.0] * 4), ([6] * 5, [1.0] * 5),
    ([6, 8, 10, 12], [1.0, 2.0, 0.5, 3.0])], ids=["16^3", "12^4", "6^5", "mixed"])
def test_dense_basis_matches_the_fft(res, periods):
    g = lt.build_grid(len(res), res, periods)
    rng = np.random.default_rng(37)
    values = rng.standard_normal((3, *g.resolutions))  # white noise: every mode, Nyquist too
    _, inverse = helmholtz_operator(g, 0.0, 2.5)
    energies = gradient_energy(g, values)
    for u, energy in zip(values, energies):
        lap, inv, ref_energy = _fft_reference(g, u, 2.5)
        assert np.abs(lt.laplacian(lt.ScalarField(g, u)).values - lap).max() <= 1e-12 * np.abs(lap).max()
        assert np.abs(inverse(u) - inv).max() <= 1e-12 * np.abs(inv).max()
        assert energy == pytest.approx(ref_energy, rel=1e-12)


def test_gradient_is_permutation_equivariant(grid8):
    # the Nyquist mode cos(pi N x) has derivative zero at every grid point,
    # along whichever axis it lies
    u = lt.cosine_field(grid8, 1.0, [4, 0, 1])
    swapped = lt.ScalarField(grid8, np.swapaxes(u.values, 0, 2))
    parts, swapped_parts = lt.gradient(u), lt.gradient(swapped)
    assert parts[0].sup_norm() < 1e-12
    for axis, other in enumerate([2, 1, 0]):
        assert np.allclose(np.swapaxes(swapped_parts[other].values, 0, 2), parts[axis].values,
                           rtol=0.0, atol=1e-12)
    assert parts[2].sup_norm() == pytest.approx(2 * np.pi, rel=1e-12)


@pytest.mark.parametrize("res, periods", [
    ([6] * 5, [1.0] * 5), ([12] * 4, [1.0] * 4), ([6, 8, 10, 12], [1.0, 2.0, 0.5, 3.0])],
    ids=["6^5", "12^4", "mixed"])
def test_gradient_matches_the_per_axis_products(res, periods):
    # the last axis takes one GEMM; every axis applying its D_i as a batch
    # of products along that axis is the reference
    g = lt.build_grid(len(res), res, periods)
    values = np.random.default_rng(41).standard_normal(g.resolutions)
    centred = values - values.mean()
    for axis, (d, part) in enumerate(zip(g._derivatives, lt.gradient(lt.ScalarField(g, values)))):
        block = centred.reshape(int(np.prod(res[:axis])), res[axis], -1)
        assert np.abs(part.values - (d @ block).reshape(res)).max() <= 1e-13


def test_cosine_field_is_bit_identical_to_the_meshgrid_form():
    g = lt.build_grid(4, [6, 8, 4, 10], [1.0, 2.5, 0.7, 3.0])
    wavevector, phase = [1, -2, 0, 3], 0.4
    arg = np.zeros(g.resolutions)
    for k, x, length in zip(wavevector, np.meshgrid(*g.axes, indexing="ij"), g.periods):
        arg += 2.0 * np.pi * k * x / length
    field = lt.cosine_field(g, 1.7, wavevector, phase)
    assert np.array_equal(field.values, 1.7 * np.cos(arg + phase))


class TestHalfGrid:
    SHAPES = [[16] * 3, [12] * 4, [8, 12, 16]]

    def test_half_grid_halves_every_axis(self):
        g = lt.build_grid(3, [8, 12, 16], [1.0, 2.0, 0.5])
        assert g.half == lt.build_grid(3, [4, 6, 8], [1.0, 2.0, 0.5])
        assert g.half is g.half  # one half grid, with one set of cached bases

    @pytest.mark.parametrize("dim, res", [(5, 6), (3, 4), (3, 10)])
    def test_no_half_grid_below_4_or_at_odd_halves(self, dim, res):
        assert lt.build_grid(dim, [res] * dim, [1.0] * dim).half is None

    @pytest.mark.parametrize("res", SHAPES, ids=str)
    def test_restriction_inverts_prolongation(self, res):
        g = lt.build_grid(len(res), res, [1.0, 2.0, 0.5, 1.5][:len(res)])
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = smooth_random_field(g.half, rng, mean=1.0, modes=4)
            back = grid_module.transfer(grid_module.transfer(u, g), g.half)
            assert np.abs(back.values - u.values).max() <= 1e-15 * u.sup_norm()

    @pytest.mark.parametrize("res", SHAPES, ids=str)
    def test_prolongation_reproduces_resolved_cosines(self, res):
        g = lt.build_grid(len(res), res, [1.0, 2.0, 0.5, 1.5][:len(res)])
        top = [n // 4 - 1 for n in res]  # |k| < N_c/2 on every axis
        for wavevector in ([1] + [0] * (g.dim - 1), top, [-k for k in top]):
            fine = grid_module.transfer(lt.cosine_field(g.half, 1.0, wavevector, 0.4), g)
            assert np.abs(fine.values - lt.cosine_field(g, 1.0, wavevector, 0.4).values).max() <= 1e-14

    def test_restriction_truncates_and_keeps_the_cosine_of_the_coarse_nyquist(self, grid16):
        # cos and sin of k = 4 on 16^3: the cosine is the Nyquist mode of 8^3,
        # the sine vanishes on the 8^3 points; k = 5 has no place there
        down = lambda k, phase: grid_module.transfer(
            lt.cosine_field(grid16, 1.0, [k, 0, 0], phase), grid16.half).values
        nyquist = lt.cosine_field(grid16.half, 1.0, [4, 0, 0]).values
        assert np.abs(down(4, 0.0) - nyquist).max() <= 1e-14
        assert np.abs(down(4, -np.pi / 2)).max() <= 1e-14
        assert np.abs(down(5, 0.3)).max() <= 1e-14

    def test_constants_transfer_exactly(self, grid16):
        c = lt.constant_field(grid16.half, 0.7)
        assert np.all(grid_module.transfer(c, grid16).values == 0.7)
        assert np.all(grid_module.transfer(lt.constant_field(grid16, 0.7), grid16.half).values == 0.7)

    def test_transfer_goes_only_between_a_grid_and_its_half(self, grid16):
        # on its own grid a field is itself; it goes nowhere but the half
        # grid or the grid whose half it lives on
        u = lt.constant_field(grid16, 1.0)
        assert grid_module.transfer(u, grid16) is u
        for target in (grid16.half.half, lt.build_grid(3, [8] * 3, [2.0] * 3)):
            with pytest.raises(GridMismatchError):
                grid_module.transfer(u, target)


def test_import_leaves_scipy_out():
    # neither the package nor what a CLI run imports (cli, config) loads any
    # scipy module; only the bubble comparison imports scipy, when it runs
    env = dict(os.environ, PYTHONPATH=str(Path(lt.__file__).parent.parent))
    script = ("import sys, lichtorus\n"
              "from lichtorus import cli, config\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _symmetric_system(w, border=None):
    """(Delta + W) x = rhs, bordered by [[., b], [b^T, 0]] when a border is
    given, on flat arrays: the full operator x -> A x, and the maps
    (x, out) of the preconditioner M = diag((Delta + shift)^-1, 1) and of
    the rest A - M^-1."""
    grid = w.grid
    shape, n = grid.resolutions, grid.npoints
    shift = max(1.0, abs(float(w.values.mean())))
    apply, precondition = helmholtz_operator(grid, w.values, shift)
    b = np.zeros((0, n)) if border is None else border.values.reshape(1, n)

    def full(x):
        return np.concatenate([apply(x[:n].reshape(shape)).ravel() + x[n:] @ b, b @ x[:n]])

    def pre(x, out):
        out[:n] = precondition(x[:n].reshape(shape)).ravel()
        out[n:] = x[n:]
        return out

    def rest(x, out):
        out[:] = np.concatenate([(w.values.ravel() - shift) * x[:n] + x[n:] @ b,
                                 b @ x[:n] - x[n:]])
        return out

    return full, pre, rest, n + len(b)


def _krylov_problem(grid, bordered):
    """A test system on any grid, (w, border, rhs): SPD Delta + W, or a W
    with one negative eigenvalue and a regular border; and a smooth right
    side."""
    one = lt.constant_field(grid, 1.0)
    axis = [lt.cosine_field(grid, 1.0, np.eye(grid.dim, dtype=int)[i]) for i in range(2)]
    if bordered:
        w, border = -30.0 * one + 5.0 * axis[0], one + 0.3 * axis[1]
    else:
        w, border = 10.0 * one + 9.5 * axis[0], None
    return w, border, smooth_random_field(grid, np.random.default_rng(5))


def _flat(rhs, size):
    """rhs as a flat right side of the given size, zero in the border entry."""
    return np.concatenate([rhs.values.ravel(), np.zeros(size - rhs.values.size)])


def _allocating(fn):
    """The one-argument form x -> fn(x, fresh out) of an (x, out) map."""
    return lambda x: fn(x, np.empty_like(x))


def _reference_minres(rest, apply_m, b, rtol, maxiter, callback):
    """MINRES as grid.minres computed it before it worked in place: every
    vector a fresh array, maps of one argument."""
    eps = np.finfo(np.float64).eps
    x = np.zeros_like(b)
    r1 = r2 = b
    y = apply_m(r1)
    beta1 = float(np.inner(r1, y))
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0:
        return x, 0
    beta1 = np.sqrt(beta1)
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin = 0.0, 0.0, np.finfo(np.float64).max
    cs, sn = -1.0, 0.0
    w = w2 = np.zeros_like(b)
    for itn in range(1, maxiter + 1):
        s = 1.0 / beta
        v = s * y
        y = s * r2 + rest(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(np.inner(v, y))
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = apply_m(r2)
        oldb, beta = beta, float(np.inner(r2, y))
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = np.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        exhausted = itn == 1 and beta / beta1 <= 10 * eps
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.linalg.norm([gbar, dbar])
        gamma = max(np.linalg.norm([gbar, beta]), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm = np.sqrt(tnorm2)
        ynorm = np.linalg.norm(x)
        test1 = phibar / (anorm * ynorm) if ynorm > 0 else np.inf
        test2 = root / anorm
        callback(x)
        if (exhausted or test1 <= rtol or test2 <= rtol or 1 + test1 <= 1 or 1 + test2 <= 1
                or anorm * ynorm * eps >= beta1 or gmax / gmin >= 0.1 / eps):
            return x, 0
    return x, maxiter


def _peak_fields(grid, call) -> float:
    """The peak of the memory that call() allocates, traced after one
    warm-up call (which makes the grid's scratch), in fields of the grid."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8.0 * grid.npoints)


@pytest.fixture
def grid12_4():
    return lt.build_grid(4, [12] * 4, [1.0] * 4)


def test_diagonal_apply_allocates_only_its_result(grid12_4):
    x = smooth_random_field(grid12_4, np.random.default_rng(3)).values
    peak = _peak_fields(grid12_4, lambda: grid_module._diagonal_apply(
        grid12_4, x, grid12_4._eigenvalues))
    assert peak <= 1.1


def test_bordered_solve_allocates_no_vector_per_iteration(grid12_4, monkeypatch):
    one = lt.constant_field(grid12_4, 1.0)
    w = 3.0 * one + lt.cosine_field(grid12_4, 1.0, [1, 0, 0, 0])
    rhs = smooth_random_field(grid12_4, np.random.default_rng(7))
    solver = branch.minres
    peaks = {}
    for maxiter in (5, 50):
        monkeypatch.setattr(branch, "minres", lambda *a, maxiter=maxiter, **k: solver(
            *a, **dict(k, maxiter=maxiter)))

        def solve():
            try:
                branch._symmetric_solver(w, one)(rhs)
            except NewtonError:  # the cap ended the solve before convergence
                pass
        peaks[maxiter] = _peak_fields(grid12_4, solve)
    assert peaks[50] <= peaks[5] <= 8.0


class TestKrylov:
    @pytest.mark.parametrize("bordered", [False, True], ids=["plain SPD", "bordered indefinite"])
    @pytest.mark.parametrize("res", [[8] * 3, [12] * 4], ids=["8^3", "12^4"])
    def test_minres_in_place_is_bit_identical(self, res, bordered):
        grid = lt.build_grid(len(res), res, [1.0] * len(res))
        w, border, rhs_field = _krylov_problem(grid, bordered)
        _, pre, rest, size = _symmetric_system(w, border)
        rhs = _flat(rhs_field, size)
        counts = {"ref": 0, "own": 0}

        def counter(key):
            return lambda xk: counts.__setitem__(key, counts[key] + 1)

        ref, ref_info = _reference_minres(_allocating(rest), _allocating(pre), rhs, 1e-12, 3000,
                                          counter("ref"))
        x, info = grid_module.minres(rest, pre, rhs, rtol=1e-12, maxiter=3000,
                                     work=[np.empty_like(rhs) for _ in range(7)],
                                     callback=counter("own"))
        assert info == ref_info == 0
        assert counts["own"] == counts["ref"] > 5
        assert np.array_equal(x, ref)
        # the solver's own bordered maps, in the grid's scratch, give the same bits
        field, border_value = branch._symmetric_solver(w, border)(rhs_field)
        assert np.array_equal(field.values.ravel(), ref[:grid.npoints])
        assert border_value == ref[grid.npoints:].sum()

    @pytest.mark.parametrize("bordered", [False, True], ids=["unbordered SPD", "bordered indefinite"])
    def test_minres_matches_scipy(self, grid8, bordered):
        from scipy.sparse.linalg import LinearOperator
        from scipy.sparse.linalg import minres as scipy_minres

        w, border, rhs_field = _krylov_problem(grid8, bordered)
        full, pre, rest, size = _symmetric_system(w, border)
        rhs = _flat(rhs_field, size)
        counts = {"scipy": 0, "own": 0}

        def counter(key):
            return lambda xk: counts.__setitem__(key, counts[key] + 1)

        ref, ref_info = scipy_minres(
            LinearOperator((size, size), matvec=full, dtype=np.float64), rhs, rtol=1e-12,
            maxiter=3000, M=LinearOperator((size, size), matvec=_allocating(pre),
                                           dtype=np.float64),
            callback=counter("scipy"))
        x, info = grid_module.minres(rest, pre, rhs, rtol=1e-12, maxiter=3000,
                                     work=[np.empty_like(rhs) for _ in range(7)],
                                     callback=counter("own"))
        assert ref_info == 0 and info == 0
        assert counts["own"] == counts["scipy"] > 5
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.linalg.norm(full(x) - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_pcg_tests_the_residual_of_its_last_iteration(self, grid8):
        # this solve converges after 4 updates: a cap of 4 accepts it, and a
        # cap of 3 reports the residual after the third update, which is the
        # residual of the solve stopped there by tolerance
        one = lt.constant_field(grid8, 1.0)
        c = one + 0.5 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        rhs = one + lt.cosine_field(grid8, 1.0, [0, 1, 1])
        capped = lt.helmholtz_solve(c, rhs, tol=1e-10, max_iter=4)
        assert np.array_equal(capped.values, lt.helmholtz_solve(c, rhs, tol=1e-10).values)
        third = lt.helmholtz_solve(c, rhs, tol=1e-7)
        rel = np.linalg.norm((lt.laplacian(third) + c * third - rhs).values) \
            / np.linalg.norm(rhs.values)
        with pytest.raises(KrylovError, match="after 3 iterations") as err:
            lt.helmholtz_solve(c, rhs, tol=1e-10, max_iter=3)
        reported = float(re.search(r"residual (\S+) after", str(err.value)).group(1))
        assert reported == pytest.approx(rel, rel=1e-3)

    def test_pcg_makes_one_round_trip_per_iteration(self, grid8, monkeypatch, round_trips):
        iterations = []
        pcg = grid_module._pcg

        def counted(*args, **kwargs):
            x, it = pcg(*args, **kwargs)
            iterations.append(it)
            return x, it
        monkeypatch.setattr(grid_module, "_pcg", counted)
        c = lt.constant_field(grid8, 10.0) + 9.5 * lt.cosine_field(grid8, 1.0, [1, 1, 0])
        rhs = smooth_random_field(grid8, np.random.default_rng(11))
        round_trips.clear()
        lt.helmholtz_solve(c, rhs)
        (k,) = iterations
        assert k > 5
        assert len(round_trips) <= k + 3

    @pytest.mark.parametrize("bordered", [False, True], ids=["plain", "bordered"])
    def test_minres_makes_one_round_trip_per_iteration(self, grid8, monkeypatch,
                                                       round_trips, bordered):
        iterations = []
        solver = branch.minres

        def counted(*args, callback=None, **kwargs):
            return solver(*args, callback=lambda xk: iterations.append(1), **kwargs)
        monkeypatch.setattr(branch, "minres", counted)
        one = lt.constant_field(grid8, 1.0)
        w = -30.0 * one + 5.0 * lt.cosine_field(grid8, 1.0, [1, 0, 0])
        rhs = smooth_random_field(grid8, np.random.default_rng(13))
        round_trips.clear()
        branch._symmetric_solver(w, one if bordered else None)(rhs)
        k = len(iterations)
        assert k > 5
        assert len(round_trips) <= k + 3
