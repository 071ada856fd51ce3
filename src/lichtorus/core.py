"""Problem definition, residuals, energy functionals and spectral eigensolvers.

The equation under study is

    Delta u + h u = f u^(q-1) + theta a u^(-(q+1)),   2 <= q <= 2* = 2n/(n-2),

on a flat torus, with coercive Delta + h, a >= 0 nonzero, max f > 0.  The
epsilon-regularized energy replaces the singular a-term by
a (eps + (u+)^2)^(-q/2), which is defined for sign-changing u.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import SolverFailure
from .grid import (
    NonCoerciveOperatorError,
    ScalarField,
    TorusGrid,
    _check_same_grid,
    constant_field,
    h1h_quadratic_form,
    h1h_quadratic_forms,
    helmholtz_operator,
    helmholtz_solve,
    integrate,
    l2_inner,
    laplacian,
    lp_norm,
    transfer,
)

log = logging.getLogger(__name__)

# Negative powers are evaluated only on fields bounded away from zero;
# below this floor we refuse rather than clamp.
POSITIVITY_FLOOR = 1e-12

# The Sobolev ascent stops at a point where the tangential part of the
# gradient has at most this share of its H1_h form: no line search there
# can raise the estimate beyond roundoff.
STATIONARY_RATIO = 1e-24
SOBOLEV_MAX_STEPS = 200     # ascent steps; the stationary test ends it sooner

EIGEN_TOL = 1e-10           # relative Rayleigh-quotient change that ends the inverse
EIGEN_MAX_ITERS = 5000      # iteration, and its step limit
COERCIVITY_TOL = 1e-12      # smallest eigenvalue of Delta + h read as positive


class PositivityError(SolverFailure):
    """A field that must be strictly positive was not."""


class EigenSolverError(SolverFailure):
    """Inverse iteration failed to converge within its cap, or its first
    eigenpair contradicts the theory (a non-positive eigenfunction, or a
    negative first eigenvalue at a minimal solution)."""


def critical_exponent(dim: int) -> float:
    """2* = 2n/(n-2): 6 (n=3), 4 (n=4), 10/3 (n=5)."""
    return 2.0 * dim / (dim - 2.0)


@dataclass(frozen=True)
class Coefficients:
    """The coefficient triple (h, f, a) on a shared grid.

    Requires a >= 0 with max a > 0, and max f > 0.  Coercivity of Delta + h
    is checked separately by coercivity_check.
    """

    h: ScalarField
    f: ScalarField
    a: ScalarField

    def __post_init__(self):
        if not (self.h.grid == self.f.grid == self.a.grid):
            raise ValueError("h, f, a must share a grid")
        if self.a.min() < 0:
            raise ValueError(f"a must be nonnegative (min a = {self.a.min():.3e})")
        if self.a.max() <= 0:
            raise ValueError("a must not be identically zero")
        if self.f.max() <= 0:
            raise ValueError(f"max f must be positive (max f = {self.f.max():.3e})")

    @property
    def grid(self) -> TorusGrid:
        return self.h.grid


def _half_grid_coefficients(coeffs: Coefficients) -> Coefficients | None:
    """coeffs restricted to the half grid, or None when the grid has no half
    grid or the restricted coefficients are not admissible."""
    half = coeffs.grid.half
    if half is None:
        return None
    try:
        return Coefficients(*(transfer(c, half) for c in (coeffs.h, coeffs.f, coeffs.a)))
    except ValueError as exc:  # e.g. a Gibbs dip of the restricted a below 0
        log.debug("no half-grid coefficients: %s", exc)
        return None


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the equation: coefficients + (q, theta, epsilon).

    epsilon = 0 selects the unregularized functional (positive u only);
    epsilon > 0 selects the regularized one, defined for all u.
    """

    coefficients: Coefficients
    q: float
    theta: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        ts = self.two_star
        if not (2.0 <= self.q <= ts + 1e-12):
            raise ValueError(f"q = {self.q} outside [2, 2*] = [2, {ts}]")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

    @property
    def grid(self) -> TorusGrid:
        return self.coefficients.grid

    @property
    def two_star(self) -> float:
        return critical_exponent(self.coefficients.grid.dim)

    def at(self, *, q: float | None = None, theta: float | None = None,
           epsilon: float | None = None) -> "ProblemSpec":
        """Copy with selected parameters replaced."""
        return ProblemSpec(
            self.coefficients,
            self.q if q is None else q,
            self.theta if theta is None else theta,
            self.epsilon if epsilon is None else epsilon,
        )


def critical_spec(coefficients: Coefficients, theta: float) -> ProblemSpec:
    return ProblemSpec(coefficients, critical_exponent(coefficients.grid.dim),
                       theta=theta, epsilon=0.0)


def _require_positive(u: ScalarField | NDArray, what: str = "u"):
    m = float(u.min())
    if m <= POSITIVITY_FLOOR:
        raise PositivityError(f"{what} must be strictly positive (min = {m:.3e})")


def residual(spec: ProblemSpec, u: ScalarField, a_power: NDArray | None = None) -> ScalarField:
    """Delta u + h u - f u^(q-1) - theta a u^(-(q+1)); zero iff u solves.
    a_power, when given, is u^(-(q+1)), computed by a caller that needs it too."""
    _require_positive(u)
    c = spec.coefficients
    uv = u.values
    nl, term, lhs = (x.reshape(uv.shape) for x in u.grid._scratch(3))
    np.power(uv, spec.q - 1.0, out=nl)
    nl *= c.f.values
    np.multiply(spec.theta, c.a.values, out=term)
    term *= np.power(uv, -(spec.q + 1.0), out=lhs) if a_power is None else a_power
    nl += term
    np.add(laplacian(u).values, np.multiply(c.h.values, uv, out=term), out=lhs)
    return ScalarField._own(u.grid, np.subtract(lhs, nl))


def regularized_residual(spec: ProblemSpec, u: ScalarField) -> ScalarField:
    """Euler-Lagrange residual of the eps-regularized energy (any u, eps > 0)."""
    if spec.epsilon <= 0:
        raise ValueError("regularized residual requires epsilon > 0")
    c = spec.coefficients
    up = np.maximum(u.values, 0.0)
    denom = (spec.epsilon + up**2) ** (spec.q / 2.0 + 1.0)
    nl = c.f.values * up ** (spec.q - 1.0) + spec.theta * c.a.values * up / denom
    return ScalarField._own(u.grid, laplacian(u).values + c.h.values * u.values - nl)


# The gradient of the regularized energy coincides with its EL residual.
energy_gradient = regularized_residual


def f_terms(spec: ProblemSpec, power: NDArray) -> NDArray:
    """1/q int f (u+)^q of each field u of a stack, from power = (u+)^q."""
    total = np.sum(spec.coefficients.f.values * power, axis=spec.grid.field_axes)
    return total * spec.grid.cell_volume / spec.q


def energies(spec: ProblemSpec, values: NDArray, forms: NDArray | None = None,
             fterms: NDArray | None = None) -> NDArray:
    """The energy functional, regularized or not depending on spec.epsilon,
    of each field u in the stack values, whose trailing axes are the grid.

    I(u) = 1/2 int(|grad u|^2 + h u^2) - 1/q int f (u+)^q
           + theta/q int a * [ (u+)^(-q)  or  (eps + (u+)^2)^(-q/2) ].

    forms, when given, are h1h_quadratic_forms(values, h), and fterms the
    f_terms of values: they depend on h, and on f and q, alone, so specs
    that share those can share them.  At epsilon = 0 one power u^q gives
    both nonlinear terms.
    """
    c = spec.coefficients
    axes = spec.grid.field_axes
    cellv = spec.grid.cell_volume
    quad = 0.5 * (h1h_quadratic_forms(values, c.h) if forms is None else forms)
    if spec.epsilon > 0:
        up = np.maximum(values, 0.0)
        aterm = np.sum(c.a.values * (spec.epsilon + up**2) ** (-spec.q / 2.0), axis=axes)
        aterm = aterm * cellv * (spec.theta / spec.q)
        if fterms is None:
            fterms = f_terms(spec, up ** spec.q)
    else:
        _require_positive(values)
        power = values ** spec.q
        aterm = spec.theta / spec.q * np.sum(c.a.values / power, axis=axes) * cellv
        if fterms is None:
            fterms = f_terms(spec, power)
    return quad - fterms + aterm


def energy(spec: ProblemSpec, u: ScalarField) -> float:
    """The energy functional of the one field u; see energies."""
    _check_same_grid(u, spec.coefficients.h)
    return float(energies(spec, u.values))


def linearized_potential(spec: ProblemSpec, u: ScalarField,
                         a_power: NDArray | None = None) -> ScalarField:
    """W = h - (q-1) f u^(q-2) + (q+1) theta a u^(-(q+2)) at a positive u.
    a_power, when given, is u^(-(q+2)), computed by a caller that needs it too."""
    _require_positive(u)
    c = spec.coefficients
    uv = u.values
    if a_power is None:
        a_power = uv ** (-(spec.q + 2.0))
    w = (c.h.values
         - (spec.q - 1.0) * c.f.values * uv ** (spec.q - 2.0)
         + (spec.q + 1.0) * spec.theta * c.a.values * a_power)
    return ScalarField._own(u.grid, w)


def regularized_potential(spec: ProblemSpec, u: ScalarField) -> ScalarField:
    """Jacobian potential of the regularized residual (any u, eps > 0)."""
    if spec.epsilon <= 0:
        raise ValueError("regularized potential requires epsilon > 0")
    c = spec.coefficients
    up = np.maximum(u.values, 0.0)
    pos = (u.values > 0).astype(np.float64)
    base = spec.epsilon + up**2
    da = pos * base ** (-spec.q / 2.0 - 2.0) * (spec.epsilon - (spec.q + 1.0) * up**2)
    w = (c.h.values
         - (spec.q - 1.0) * c.f.values * pos * up ** (spec.q - 2.0)
         - spec.theta * c.a.values * da)
    return ScalarField._own(u.grid, w)


def linearized_apply(spec: ProblemSpec, u: ScalarField, v: ScalarField) -> ScalarField:
    """Apply the linearization Delta v + W(u) v of the residual at u."""
    apply, _ = helmholtz_operator(v.grid, linearized_potential(spec, u).values)
    return ScalarField._own(v.grid, apply(v.values))


@dataclass
class EigenResult:
    """First eigenpair of Delta + W: lam smallest eigenvalue, vector the
    positive L2-normalized eigenfunction."""

    lam: float
    vector: ScalarField
    iterations: int


def smallest_eigenpair(w: ScalarField) -> EigenResult:
    """First eigenpair of Delta + W by inverse iteration.

    Shift sigma = min W - 1 makes Delta + W - sigma positive definite
    (Delta >= 0, multiplier >= 1); each inverse is a helmholtz_solve.
    Stops when the Rayleigh quotient changes by <= EIGEN_TOL relatively.
    """
    grid = w.grid
    sigma = w.min() - 1.0
    shifted = w - sigma
    v = constant_field(grid, 1.0 / np.sqrt(grid.volume))
    lam_old = None
    for it in range(1, EIGEN_MAX_ITERS + 1):
        y = helmholtz_solve(shifted, v, tol=1e-12, max_iter=2000)
        # (Delta + W - sigma) y = v, so <y, (Delta + W) y> = sigma <y, y> + <y, v>
        lam = sigma + l2_inner(y, v) / l2_inner(y, y)
        v = y * (1.0 / lp_norm(y, 2.0))
        if lam_old is not None and abs(lam - lam_old) <= EIGEN_TOL * max(1.0, abs(lam)):
            break
        lam_old = lam
    else:
        raise EigenSolverError(
            f"inverse iteration did not converge in {EIGEN_MAX_ITERS} steps")

    if integrate(v) < 0:
        v = -v
    if v.min() <= 0:
        raise EigenSolverError(
            f"first eigenfunction is not positive (min = {v.min():.3e}); "
            "inverse iteration converged to a wrong vector"
        )
    v = v * (1.0 / lp_norm(v, 2.0))
    return EigenResult(lam=float(lam), vector=v, iterations=it)


def coercivity_check(h: ScalarField) -> tuple[bool, float]:
    """Delta + h is coercive iff its smallest eigenvalue is positive."""
    res = smallest_eigenpair(h)
    return (res.lam > COERCIVITY_TOL, res.lam)


def sobolev_constant_estimate(h: ScalarField, q: float) -> float:
    """Lower estimate of the embedding constant S_{h,q} defined by
    ||u||_Lq <= S^(1/q) ||u||_{H1_h}.

    Projected gradient ascent of int |u|^q on the unit H1_h sphere from the
    constant start; the estimate sequence is nondecreasing by backtracking.
    The ascent ends where the gradient is normal to the sphere, as it is at
    the constant start for constant h.  The result is a heuristic lower
    bound (ascent may stop short of the sup).
    """
    grid = h.grid
    ts = critical_exponent(grid.dim)
    if not (2.0 <= q <= ts + 1e-12):
        raise ValueError(f"q = {q} outside [2, 2*]")
    coercive, lam = coercivity_check(h)
    if not coercive:
        raise NonCoerciveOperatorError(f"Delta + h not coercive (lambda_min = {lam:.3e})")

    hm = integrate(h)
    u = constant_field(grid, 1.0 / np.sqrt(hm))  # unit H1_h norm for constant h-mean

    def functional(x: ScalarField) -> float:
        return float(np.sum(np.abs(x.values) ** q)) * grid.cell_volume

    def project(x: ScalarField) -> ScalarField:
        return x * (1.0 / np.sqrt(h1h_quadratic_form(x, h)))

    u = project(u)
    estimate = functional(u)
    step = 1.0
    for _ in range(SOBOLEV_MAX_STEPS):
        g = ScalarField._own(grid, q * np.abs(u.values) ** (q - 1.0) * np.sign(u.values))
        d = helmholtz_solve(h, g)  # H1_h Riesz representative of the L2 gradient
        # on the unit sphere the normal part of d is <d, u>_H1h u = (int g u) u
        tangent = d - l2_inner(g, u) * u
        if h1h_quadratic_form(tangent, h) <= STATIONARY_RATIO * h1h_quadratic_form(d, h):
            break
        s = step
        for _ in range(40):
            cand = project(u + s * d)
            val = functional(cand)
            if val > estimate:
                u, estimate = cand, val
                step = min(s * 1.5, 1e3)
                break
            s *= 0.5
        else:
            break
    return estimate
