"""Flat torus grids, scalar fields on them, and exact spectral operators.

The domain is T^n = prod_i (R / L_i Z) with the flat metric, discretized by a
uniform collocation grid of N_i points per axis.  All differential operators
are exact for bandlimited (trigonometric polynomial) fields.  Sign convention
throughout: the Laplacian is the geometer's Delta = -div grad, with
nonnegative spectrum |2 pi k / L|^2.

The spectral operators act in a dense real orthonormal Fourier basis, one
N_i x N_i matrix Q_i per axis (Boyd 2001; Trefethen 2000, ch. 3), where Delta
is diagonal.  A transform is one GEMM per axis, N^(n+1) multiply-adds per
axis on an N^n grid: faster than numpy's FFT up to about 64 points per axis,
slower beyond (0.6 times its speed at 128^3).

A grid whose N_i are multiples of 4, at least 8, has a half grid with N_i/2
points per axis, and transfer moves a field between the two exactly in
spectral terms: truncation going down, zero padding going up, one matrix per
axis built from the two grids' bases.

Each grid owns its scratch buffers: a pair of fields that the GEMMs of a
transform ping-pong through, and a pool of flat vectors in which the Krylov
solvers update their vectors and the residual and Picard step compute their
terms.  The operators of one grid therefore must not run in two threads at
once (distinct grids may).  minres updates its iterate x in place, so its
callback must not keep x.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import SolverFailure


class GridMismatchError(ValueError):
    """Raised when fields on different grids are combined."""


class NonCoerciveOperatorError(SolverFailure):
    """Raised when a Helmholtz solve is requested for a non-positive operator."""


class KrylovError(SolverFailure):
    """Raised when the preconditioned CG iteration does not converge."""


class NonFiniteFieldError(SolverFailure, ValueError):
    """Raised when a field the package computed overflowed to inf or nan."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform collocation grid on a flat torus of dimension 3, 4 or 5.

    resolutions are the per-axis point counts (even, >= 4); periods are the
    per-axis lengths L_i > 0.  Quadrature is the uniform grid sum times the
    cell volume, spectrally exact for trigonometric polynomials.
    """

    dim: int
    resolutions: tuple[int, ...]
    periods: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (3, 4, 5):
            raise ValueError(f"dimension out of range: {self.dim} (must be 3, 4 or 5)")
        if len(self.resolutions) != self.dim or len(self.periods) != self.dim:
            raise ValueError("resolutions and periods must have length dim")
        for n in self.resolutions:
            if n < 4 or n % 2 != 0:
                raise ValueError(f"resolution {n} must be even and >= 4")
        for length in self.periods:
            if not (length > 0):
                raise ValueError(f"period {length} must be positive")

    @functools.cached_property
    def _sizes(self) -> tuple[float, int, float]:
        """(volume, npoints, cell_volume), computed once per grid."""
        volume = float(np.prod(self.periods))
        npoints = int(np.prod(self.resolutions))
        return volume, npoints, volume / npoints

    @property
    def volume(self) -> float:
        return self._sizes[0]

    @property
    def field_axes(self) -> tuple[int, ...]:
        """The trailing axes of a stack of fields: values of shape
        (*batch, *resolutions) hold one field per batch index."""
        return tuple(range(-self.dim, 0))

    @property
    def npoints(self) -> int:
        return self._sizes[1]

    @property
    def cell_volume(self) -> float:
        return self._sizes[2]

    @functools.cached_property
    def axes(self) -> tuple[NDArray, ...]:
        """Per-axis coordinate arrays x_i = j * L_i / N_i."""
        return tuple(
            np.arange(n) * (length / n)
            for n, length in zip(self.resolutions, self.periods)
        )

    @functools.cached_property
    def _bases(self) -> tuple[NDArray, ...]:
        """Per-axis real orthonormal Fourier bases Q_i (N_i x N_i).

        Row r of Q_i samples the mode of frequency _mode_numbers(N_i)[r]:
        the constant, then cos and sin of each 0 < k < N_i/2, then the
        Nyquist mode (-1)^j, each scaled to unit grid norm, so that
        Q_i Q_i^T = I.
        """
        out = []
        for n in self.resolutions:
            k = _mode_numbers(n)
            angle = (2.0 * np.pi / n) * (np.outer(k, np.arange(n)) % n)
            sine = (np.arange(n) % 2 == 0) & (k > 0)
            q = np.where(sine[:, None], np.sin(angle), np.cos(angle))
            q *= np.where((k == 0) | (k == n // 2), 1.0, np.sqrt(2.0))[:, None] / np.sqrt(n)
            out.append(q)
        return tuple(out)

    @functools.cached_property
    def _eigenvalues(self) -> NDArray:
        """|2 pi k / L|^2, the eigenvalue of Delta on each tensor product of
        the rows of the Q_i, in the coefficient layout of _to_fourier."""
        return functools.reduce(np.add.outer, [
            ((2.0 * np.pi / length) * _mode_numbers(n)) ** 2
            for n, length in zip(self.resolutions, self.periods)])

    @functools.cached_property
    def _derivatives(self) -> tuple[NDArray, ...]:
        """Per-axis differentiation matrices D_i = Q_i^T B_i Q_i.  B_i maps
        the (cos, sin) coefficients (a, b) of frequency omega to
        (omega b, -omega a) and zeroes the constant and the Nyquist mode,
        whose derivative vanishes at every grid point."""
        out = []
        for q, length in zip(self._bases, self.periods):
            n = len(q)
            cos_rows = np.arange(1, n - 1, 2)
            omega = (2.0 * np.pi / length) * _mode_numbers(n)[cos_rows]
            b = np.zeros((n, n))
            b[cos_rows, cos_rows + 1] = omega
            b[cos_rows + 1, cos_rows] = -omega
            out.append(q.T @ b @ q)
        return tuple(out)

    @functools.cached_property
    def half(self) -> TorusGrid | None:
        """The grid with N_i/2 points on every axis, or None when some N_i/2
        is odd or below 4."""
        if any(n % 4 or n < 8 for n in self.resolutions):
            return None
        return TorusGrid(self.dim, tuple(n // 2 for n in self.resolutions), self.periods)

    @functools.cached_property
    def _transfers(self) -> tuple[tuple[NDArray, ...], tuple[NDArray, ...]]:
        """Per-axis restriction (N_i/2 x N_i) and prolongation (N_i x N_i/2)
        matrices between this grid and its half grid.  The first N_i/2 rows
        of the two bases sample the same modes, up to scale: the coarse
        Nyquist row samples the fine cos(k = N_i/4) row, whose sine
        partner vanishes on the coarse points and is dropped.  Restriction
        keeps those coefficients and drops the rest; prolongation pads the
        rest with zeros.  Restriction is the left inverse of prolongation,
        and solving it against their product takes the bases' rounding out
        of that identity."""
        down, up = [], []
        for fine, coarse in zip(self._bases, self.half._bases):
            nc = len(coarse)
            scale = np.full((nc, 1), np.sqrt(nc / len(fine)))  # regular modes, going down
            scale[-1] = np.sqrt(2.0 * nc / len(fine))  # fine cos(k = nc/2) to the Nyquist row
            restrict = coarse.T @ (scale * fine[:nc])
            up.append(fine[:nc].T @ (coarse / scale))
            down.append(np.linalg.solve(restrict @ up[-1], restrict))
        return tuple(down), tuple(up)

    @functools.cached_property
    def _spectral_pair(self) -> tuple[NDArray, NDArray]:
        """Two fields of scratch that the GEMMs of a one-field transform
        ping-pong through (see _rotate)."""
        return np.empty(self.resolutions), np.empty(self.resolutions)

    @functools.cached_property
    def _scratch_pool(self) -> list[NDArray]:
        return []

    def _scratch(self, count: int, border: int = 0) -> list[NDArray]:
        """count flat scratch vectors of a field and border <= 1 more
        entries, views of buffers made on first use.  The Krylov solves, the
        residual and the Picard step on this grid share them, so they hold
        nothing from one call to the next."""
        pool, size = self._scratch_pool, self._sizes[1]
        while len(pool) < count:
            pool.append(np.empty(size + 1))
        return [v[:size + border] for v in pool[:count]]


def _mode_numbers(n: int) -> NDArray:
    """The frequency of each row of an n-point axis basis: 0, 1, 1, 2, 2,
    ..., n/2 - 1, n/2 - 1, n/2."""
    return (np.arange(n) + 1) // 2


def build_grid(dim, resolutions, periods) -> TorusGrid:
    """Validated grid constructor."""
    return TorusGrid(int(dim), tuple(int(n) for n in resolutions),
                     tuple(float(p) for p in periods))


class ScalarField:
    """A real function sampled on a TorusGrid, immutable once built.

    Arithmetic combines fields only when they share a grid; scalars broadcast.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: TorusGrid, values):
        self._adopt(grid, np.array(values, dtype=np.float64, order="C"), ValueError)

    @classmethod
    def _own(cls, grid: TorusGrid, values: NDArray) -> "ScalarField":
        """The field of values, an array that the package has just computed
        and that nothing else refers to: the checks of __init__ without its
        copy; non-finite values are a NonFiniteFieldError."""
        field = cls.__new__(cls)
        field._adopt(grid, np.ascontiguousarray(values, dtype=np.float64),
                     NonFiniteFieldError)
        return field

    def _adopt(self, grid: TorusGrid, arr: NDArray, non_finite: type[ValueError]):
        if arr.shape != grid.resolutions:
            raise ValueError(
                f"field shape {arr.shape} does not match grid {grid.resolutions}"
            )
        if not np.isfinite(arr).all():
            raise non_finite("field contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if self.grid != other.grid:
                raise GridMismatchError("fields live on different grids")
            return other.values
        return other

    def __add__(self, other):
        return ScalarField._own(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ScalarField._own(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return ScalarField._own(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return ScalarField._own(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ScalarField._own(self.grid, self.values / self._coerce(other))

    def __rtruediv__(self, other):
        return ScalarField._own(self.grid, self._coerce(other) / self.values)

    def __pow__(self, exponent):
        return ScalarField._own(self.grid, np.power(self.values, exponent))

    def __neg__(self):
        return ScalarField._own(self.grid, -self.values)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def __repr__(self):
        return (f"ScalarField(grid={self.grid.resolutions}, "
                f"min={self.min():.6g}, max={self.max():.6g})")


def constant_field(grid: TorusGrid, value: float) -> ScalarField:
    return ScalarField._own(grid, np.full(grid.resolutions, float(value)))


def cosine_field(grid: TorusGrid, amplitude: float, wavevector, phase: float = 0.0) -> ScalarField:
    """amplitude * cos(2 pi sum_i k_i x_i / L_i + phase) with integer k."""
    if len(wavevector) != grid.dim:
        raise ValueError("wavevector length must equal grid dim")
    arg = np.zeros(grid.resolutions)
    for axis, (k, x, length) in enumerate(zip(wavevector, grid.axes, grid.periods)):
        shape = [1] * grid.dim
        shape[axis] = x.size
        arg += (2.0 * np.pi * int(k) * x / length).reshape(shape)
    return ScalarField._own(grid, amplitude * np.cos(arg + phase))


def _check_same_grid(*fields: ScalarField) -> TorusGrid:
    grid = fields[0].grid
    for f in fields[1:]:
        if grid != f.grid:
            raise GridMismatchError("fields live on different grids")
    return grid


def _rotate(grid: TorusGrid, values: NDArray, matrices, out: NDArray | None = None) -> NDArray:
    """Contract the leading field axis of each field in the stack values
    with matrices[0] (x -> x @ m), then the next with matrices[1], and so
    on: each GEMM moves the axis it contracts to the end, so after one GEMM
    per axis the axes are back in order, with no copy in between.  A stack
    may contract with rectangular matrices: its field axis i then goes from
    matrices[i].shape[0] to matrices[i].shape[1] entries.

    One field ping-pongs its GEMMs through the grid's scratch pair, starting
    with the buffer that values is not, and writes the last into out, a
    C-contiguous array of the grid's shape that the GEMM before it must not
    have used (fresh when None).  A stack allocates every GEMM.
    """
    if values.shape != grid.resolutions:
        batch = values.shape[:values.ndim - len(matrices)]
        res = values
        for m in matrices:
            res = res.reshape(*batch, len(m), -1).swapaxes(-1, -2) @ m
        return res.reshape(*batch, *(m.shape[1] for m in matrices))
    if out is None:
        out = np.empty(grid.resolutions)
    pair = grid._spectral_pair
    if values is pair[0]:
        pair = pair[::-1]
    src, last = values, len(matrices) - 1
    for i, m in enumerate(matrices):
        n = len(m)
        dst = out if i == last else pair[i % 2]
        np.matmul(src.reshape(n, -1).T, m, out=dst.reshape(-1, n))
        src = dst
    return out


def _to_fourier(grid: TorusGrid, values: NDArray, out: NDArray | None = None) -> NDArray:
    """The coefficients of each field of the stack values in the tensor
    basis of the grid's Q_i (Parseval: the grid sum of u^2 is their sum of
    squares); out as in _rotate."""
    return _rotate(grid, values, [q.T for q in grid._bases], out)


def _from_fourier(grid: TorusGrid, coeffs: NDArray, out: NDArray | None = None) -> NDArray:
    """The fields whose coefficients are coeffs: the inverse of _to_fourier;
    out as in _rotate."""
    return _rotate(grid, coeffs, grid._bases, out)


def _diagonal_apply(grid: TorusGrid, values: NDArray, symbol: NDArray,
                    divide: bool = False, out: NDArray | None = None) -> NDArray:
    """The operator with eigenvalues symbol on the grid's basis, applied to
    the field values, or its inverse when divide is set; the image goes into
    out (fresh when None), and everything else stays in the scratch pair.

    The mean, the constant mode, is taken out before the transform and
    mapped by the constant mode's eigenvalue alone: the transform's
    roundoff then scales with the field's variation, so a constant field
    has an exactly constant image (Delta c = 0).  Dividing by the symbol,
    rather than multiplying by its reciprocal, saves a rounding per mode.
    """
    mean = values.sum() / values.size  # values.mean(), without its wrapper
    pair = grid._spectral_pair
    centred = np.subtract(values, mean, out=pair[0])
    # the forward GEMMs alternate from pair[1]; the last lands in the buffer
    # that the one before it left free
    coeffs = _to_fourier(grid, centred, out=pair[grid.dim % 2])
    if divide:
        coeffs /= symbol
        mean /= symbol.flat[0]
    else:
        coeffs *= symbol
        mean *= symbol.flat[0]
    out = _from_fourier(grid, coeffs, out)
    out += mean
    return out


def laplacian(u: ScalarField) -> ScalarField:
    """Delta u = -div grad u, exact for bandlimited fields."""
    return ScalarField._own(u.grid, _diagonal_apply(u.grid, u.values, u.grid._eigenvalues))


def gradient(u: ScalarField) -> list[ScalarField]:
    """Spectral partial derivatives along each axis, one differentiation
    matrix per axis; the Nyquist mode has derivative zero along every axis."""
    grid, res = u.grid, u.grid.resolutions
    values = u.values - u.values.mean()  # as in _diagonal_apply: constants map to 0
    out = []
    for axis, d in enumerate(grid._derivatives[:-1]):
        block = values.reshape(int(np.prod(res[:axis])), res[axis], -1)
        out.append(ScalarField._own(grid, (d @ block).reshape(res)))
    # the last axis is contiguous: one GEMM, not a batch of one-column products
    last = values.reshape(-1, res[-1]) @ grid._derivatives[-1].T
    out.append(ScalarField._own(grid, last.reshape(res)))
    return out


def transfer(u: ScalarField, grid: TorusGrid) -> ScalarField:
    """u on grid, which is u's grid, its half grid or the grid whose half u
    lives on: on its own grid, u itself; going down, its trigonometric
    interpolant with the modes that the half grid cannot hold truncated;
    going up, that interpolant itself.  One matrix per axis, applied as
    gradient applies its D_i: the last, contiguous axis as one GEMM over all
    its lines.  The mean goes around the matrices, as in _diagonal_apply: a
    constant stays exact."""
    if grid == u.grid:
        return u
    if grid == u.grid.half:
        matrices = u.grid._transfers[0]
    elif u.grid == grid.half:
        matrices = grid._transfers[1]
    else:
        raise GridMismatchError("transfer goes between a grid and its half grid")
    res = grid.resolutions
    mean = u.values.sum() / u.values.size
    values = u.values - mean
    for axis, m in enumerate(matrices[:-1]):
        values = m @ values.reshape(int(np.prod(res[:axis])), m.shape[1], -1)
    values = (values.reshape(-1, matrices[-1].shape[1]) @ matrices[-1].T).reshape(res)
    values += mean
    return ScalarField._own(grid, values)


def integrate(u: ScalarField) -> float:
    return float(u.values.sum()) * u.grid.cell_volume


def l2_inner(u: ScalarField, v: ScalarField) -> float:
    _check_same_grid(u, v)
    return float(np.vdot(u.values, v.values)) * u.grid.cell_volume


def lp_norm(u: ScalarField, p: float) -> float:
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.sum(np.abs(u.values) ** p) * u.grid.cell_volume) ** (1.0 / p)


def gradient_energy(grid: TorusGrid, values: NDArray) -> NDArray:
    """int |grad u|^2 of each field u in the stack values, computed in
    spectral space from one transform (nonnegative by construction)."""
    coeffs = _to_fourier(grid, values)
    return np.sum(grid._eigenvalues * coeffs**2, axis=grid.field_axes) * grid.cell_volume


def h1h_quadratic_forms(values: NDArray, h: ScalarField) -> NDArray:
    """The (possibly signed) form int(|grad u|^2 + h u^2) of each field u in
    the stack values, whose trailing axes are h's grid."""
    grid = h.grid
    if values.shape[values.ndim - grid.dim:] != grid.resolutions:
        raise GridMismatchError("fields live on different grids")
    potential = np.sum(h.values * values**2, axis=grid.field_axes)
    return gradient_energy(grid, values) + potential * grid.cell_volume


def h1h_quadratic_form(u: ScalarField, h: ScalarField) -> float:
    """The (possibly signed) form int(|grad u|^2 + h u^2)."""
    _check_same_grid(u, h)
    return float(h1h_quadratic_forms(u.values, h))


def h1h_norm(u: ScalarField, h: ScalarField) -> float:
    """sqrt of the quadratic form; errors if the form is negative on this input."""
    q = h1h_quadratic_form(u, h)
    if q < 0:
        raise NonCoerciveOperatorError(f"H1_h quadratic form is negative ({q:.3e}) on this input")
    return float(np.sqrt(q))


def _pcg(rest, apply_m, b: NDArray, tol: float, max_iter: int,
         work) -> tuple[NDArray, int]:
    """Preconditioned conjugate gradients on raw arrays for A = M^(-1) + rest,
    with M = apply_m symmetric positive definite and rest a cheap symmetric
    map: one application of M per iteration and none of M^(-1).  Both maps
    take (x, out), write their image of x into out and return it.

    Each direction p carries q = M^(-1) p by the recurrence q <- r + beta q,
    since z = M r gives M^(-1) z = r, so A p = q + rest(p).  The start
    x0 = M b has the residual b - A x0 = -rest(x0).  x is the one fresh
    array; the other vectors are updated in place in work, six arrays of b's
    shape.
    """
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    r, z, p, q, ap, tmp = work
    x = apply_m(b, np.empty_like(b))
    np.negative(rest(x, r), out=r)
    p.fill(0.0)
    q.fill(0.0)
    rz = np.inf  # the first direction is z itself
    for it in range(max_iter + 1):
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol * bnorm:
            return x, it
        if it == max_iter:
            break
        apply_m(r, z)
        rz_new = float(np.vdot(r, z))
        beta = rz_new / rz
        np.add(z, np.multiply(p, beta, out=tmp), out=p)  # p = z + beta p
        np.add(r, np.multiply(q, beta, out=tmp), out=q)  # q = r + beta q
        rz = rz_new
        np.add(q, rest(p, ap), out=ap)
        alpha = rz / float(np.vdot(p, ap))
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(ap, alpha, out=tmp)
    raise KrylovError(f"PCG stalled at relative residual {rnorm / bnorm:.3e} "
                      f"after {max_iter} iterations")


def minres(rest, apply_m, b: NDArray, rtol: float, maxiter: int, work,
           callback=None) -> tuple[NDArray, int]:
    """Preconditioned MINRES (Paige & Saunders 1975) on flat arrays for the
    symmetric, possibly indefinite A = M^(-1) + rest, with M = apply_m
    symmetric positive definite: one application of M per iteration.  Both
    maps take (x, out), write their image of x into out and return it.

    The recurrences and stopping tests are those of
    scipy.sparse.linalg.minres from x0 = 0, except that A v costs no
    application of M^(-1): the Lanczos vector is v = y / beta with y = M r2,
    so A v = r2 / beta + rest(v).  x is the one fresh array; the other
    vectors are updated in place in work, seven arrays of b's shape.
    callback(x) runs once per iteration and must not keep x, which the next
    iteration updates.  Returns (x, info), info = maxiter when the iteration
    limit ended the solve and 0 otherwise.
    """
    eps = np.finfo(np.float64).eps
    v, tmp, w, w2, *free = work
    x = np.zeros_like(b)
    r1 = r2 = b
    y = apply_m(r1, free.pop())
    beta1 = float(np.inner(r1, y))
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0:
        return x, 0
    beta1 = np.sqrt(beta1)

    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin = 0.0, 0.0, np.finfo(np.float64).max
    cs, sn = -1.0, 0.0
    w.fill(0.0)
    w2.fill(0.0)
    for itn in range(1, maxiter + 1):
        s = 1.0 / beta
        np.multiply(y, s, out=v)
        np.add(np.multiply(r2, s, out=tmp), rest(v, y), out=y)  # y = s r2 + rest(v)
        if itn >= 2:
            y -= np.multiply(r1, beta / oldb, out=tmp)
        alfa = float(np.inner(v, y))
        y -= np.multiply(r2, alfa / beta, out=tmp)
        if r1 is not b:
            free.append(r1)
        r1, r2 = r2, y
        y = apply_m(r2, free.pop())
        oldb, beta = beta, float(np.inner(r2, y))
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = np.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        exhausted = itn == 1 and beta / beta1 <= 10 * eps  # b spans an invariant subspace

        # apply the previous rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.linalg.norm([gbar, dbar])
        gamma = max(np.linalg.norm([gbar, beta]), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar

        # w = (v - oldeps w1 - delta w2) / gamma, written over w1
        w1, w2 = w2, w
        np.subtract(v, np.multiply(w1, oldeps, out=tmp), out=w1)
        w1 -= np.multiply(w2, delta, out=tmp)
        w1 *= 1.0 / gamma
        w = w1
        x += np.multiply(w, phi, out=tmp)

        # anorm >= beta1 > 0; test1 is ||r|| / (||A|| ||x||), test2 ||A r|| / (||A|| ||r||)
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm = np.sqrt(tnorm2)
        ynorm = np.linalg.norm(x)
        test1 = phibar / (anorm * ynorm) if ynorm > 0 else np.inf
        test2 = root / anorm
        if callback is not None:
            callback(x)
        if (exhausted or test1 <= rtol or test2 <= rtol or 1 + test1 <= 1 or 1 + test2 <= 1
                or anorm * ynorm * eps >= beta1 or gmax / gmin >= 0.1 / eps):
            return x, 0
    return x, maxiter


def helmholtz_operator(grid: TorusGrid, c, shift: float = 1.0):
    """The maps x -> (Delta + c) x and x -> (Delta + shift)^(-1) x on raw
    arrays of the grid's shape.

    c is a number or an array of the grid's shape; shift > 0.  The second
    map inverts the first exactly when c is the constant shift, and is the
    spectral preconditioner of Delta + c otherwise.  Both maps take an
    optional out, a C-contiguous array of the grid's shape that receives the
    image (fresh when None).
    """
    lam = grid._eigenvalues
    denom = lam + shift

    def apply(x: NDArray, out: NDArray | None = None) -> NDArray:
        out = _diagonal_apply(grid, x, lam, out=out)
        # the scratch pair is free again once _diagonal_apply returns
        out += np.multiply(c, x, out=grid._spectral_pair[0])
        return out

    def inverse(x: NDArray, out: NDArray | None = None) -> NDArray:
        return _diagonal_apply(grid, x, denom, divide=True, out=out)

    return apply, inverse


def helmholtz_solve(c, rhs: ScalarField, tol: float = 1e-10,
                    max_iter: int = 500) -> ScalarField:
    """Solve (Delta + c) u = rhs for constant c > 0 or a variable field c.

    Constant c, a number or a field with one value: direct spectral
    division, exact to roundoff.  Variable c: CG preconditioned by the
    constant-mean-c spectral inverse; the operator must be positive definite
    (mean c > 0 is a necessary condition, checked; genuine non-coercivity
    surfaces as CG failure).
    """
    grid = rhs.grid
    if isinstance(c, ScalarField):
        _check_same_grid(c, rhs)
        if c.min() == c.max():
            c = c.min()
    if isinstance(c, (int, float)):
        cval = float(c)
        if cval <= 0:
            raise NonCoerciveOperatorError(f"constant coefficient {cval} is not positive")
        _, inverse = helmholtz_operator(grid, cval, cval)
        return ScalarField._own(grid, inverse(rhs.values))

    cbar = float(c.values.mean())
    if cbar <= 0:
        raise NonCoerciveOperatorError(
            f"mean of variable coefficient is {cbar:.3e} <= 0; operator cannot be coercive"
        )
    _, precondition = helmholtz_operator(grid, c.values, cbar)
    dc = c.values - cbar
    work = [v.reshape(grid.resolutions) for v in grid._scratch(6)]
    x, _ = _pcg(lambda y, out: np.multiply(dc, y, out=out), precondition, rhs.values,
                tol, max_iter, work)
    return ScalarField._own(grid, x)
