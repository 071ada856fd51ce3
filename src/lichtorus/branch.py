"""Minimal solutions by monotone iteration, fold location, branch tracing.

The minimal solution is constructed by the sub/supersolution scheme: starting
from a strict subsolution w, iterate v <- (Delta + K)^(-1)(F(., v) + K v) with
F(x, u) = f u^(q-1) + theta a u^(-(q+1)) - h u and K large enough that
F + K id is nondecreasing on the comparison range (Sattinger 1972).  Two
things suffice: K >= B, a one-sided bound on -F' over the range, for that
monotonicity, and K > 0, so that (Delta + K)^(-1) exists and preserves
order.  Then each iterate is a subsolution above the last, so iterates are
pointwise nondecreasing and stay above w > 0; F + K id need not be
nonnegative, and K needs no headroom above B, which would only slow the
contraction.  They converge to the smallest positive solution or grow
without bound when none exists; where f > 0 an iterate whose mean exceeds
a bound that every solution obeys ends the iteration earlier.  The fold
theta_star is bracketed and located by Newton on the extended system,
bordered by its own positive start, on the half grid (nested iteration:
Allgower, Boehmer, Potra & Rheinboldt 1986), then refined from the
prolonged half-grid fold and certified on the full grid: from below by a
solution, from above by convexity (Crandall & Rabinowitz 1975) where
f, a > 0, else by a diverging probe.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .core import (
    Coefficients,
    EigenResult,
    EigenSolverError,
    POSITIVITY_FLOOR,
    PositivityError,
    ProblemSpec,
    critical_spec,
    energy,
    energy_gradient,
    linearized_potential,
    regularized_potential,
    residual,
    smallest_eigenpair,
    _half_grid_coefficients,
)
from .errors import SolverFailure
from .grid import (ScalarField, helmholtz_operator, helmholtz_solve, laplacian,
                   minres, transfer)

log = logging.getLogger(__name__)

GROWTH_WINDOW = 50          # iterations of strict sup growth that read as divergence
MONOTONICITY_TOL = 1e-12    # allowed iterate decrease, relative to the sup
NEWTON_RES_TOL = 1e-10      # sup-norm residual at which Newton stops
NEWTON_MAX_STEPS = 40
MAX_HALVINGS = 60           # delta halvings tried for a positive psi_delta
NEWTON_TRIGGER = 1e-5       # Picard step at or below which Newton is first tried
K_MIN = 0.1                 # smallest Picard shift; bounds (Delta + K)^(-1) by 1/K_MIN
PICARD_TOL = 1e-8           # sup-norm Picard step that declares convergence
MAX_PICARD_ITERS = 200_000
CAP_FACTOR = 1e6            # a sup beyond CAP_FACTOR x the starting sup is divergence
LAMBDA_TOL = 1e-4           # first eigenvalue allowed at the lower fold certificate


class SubsolutionError(SolverFailure):
    """Failed to construct a strict subsolution."""


class MonotonicityError(SolverFailure):
    """An iterate decreased beyond tolerance: bug or insufficient K."""


class IterationLimitError(SolverFailure):
    """Iteration cap reached without a convergence or divergence verdict."""


class NewtonError(SolverFailure):
    """Newton refinement failed (singular Jacobian or no acceptable step)."""


class NoSolutionError(SolverFailure):
    """No solution exists even at the smallest probed theta."""


class BracketError(SolverFailure):
    """Could not bracket the fold within the expansion cap."""


@dataclass(frozen=True)
class Subsolution:
    """A strict subsolution w = t * psi_delta with its construction data.

    shift_k is the K0 >= 0 used so that h + K0 >= 1 in the linear solve.
    """

    field: ScalarField
    delta: float
    scale: float
    shift_k: float


@dataclass
class MonotoneResult:
    converged: bool
    solution: ScalarField | None
    iterations: int
    max_violation: float
    residual_norm: float | None
    reason: str


@dataclass
class BranchPoint:
    theta: float
    solution: ScalarField
    lam: float
    energy: float
    iterations: int


@dataclass
class BranchRecord:
    points: list[BranchPoint] = field(default_factory=list)
    monotonicity_violation: float = 0.0


@dataclass
class FoldResult:
    theta_star: float
    bracket: tuple[float, float]
    last_branch_point: BranchPoint
    refinement_steps: int
    coarse_theta_star: float | None
    coarse_refinement_steps: int
    upper_certificate: str                  # "convexity" or "probe"
    upper_certificate_margin: float | None  # the convexity margin; None for "probe"


@np.errstate(over="ignore", invalid="ignore")  # _own rejects overflowed fields
def build_subsolution(spec: ProblemSpec) -> Subsolution:
    """Strict subsolution w = t * psi_delta at spec's (theta, q).

    psi_delta solves (Delta + H) psi = a - delta f^- - delta with
    H = h + K0 >= 1; delta halves from 1 until psi is positive.  The scale t
    then ascends the log grid 2^(i/32) over [2^-60, 2^60] and stops below the
    first scale whose residual is not strictly negative, so every smaller
    scale is a strict subsolution too, which places w under every positive
    solution and as high along the ray t psi as one 2% step allows.  Where
    every scale of the range is a strict subsolution, as past the fold,
    t = 1.
    """
    coeffs, theta = spec.coefficients, spec.theta
    grid = coeffs.grid
    if coeffs.a.max() <= 0:
        raise SubsolutionError("a vanishes identically; no positive subsolution")

    k0 = max(0.0, 1.0 - coeffs.h.min())
    bigh = coeffs.h + k0
    f_minus = ScalarField._own(grid, np.maximum(-coeffs.f.values, 0.0))

    delta = 1.0
    psi = None
    for _ in range(MAX_HALVINGS + 1):
        rhs = coeffs.a - delta * f_minus - delta
        cand = helmholtz_solve(bigh, rhs)
        if cand.min() > 0:
            psi = cand
            break
        delta *= 0.5
    if psi is None:
        raise SubsolutionError(
            f"psi_delta not positive after {MAX_HALVINGS} delta halvings"
        )

    # w must lie under EVERY solution, which the touching-point argument
    # guarantees only when t' * psi is a strict subsolution for all t' <= t.
    # The scaled residual is, pointwise,
    #   r(t') = t' * (a - delta f^- - delta - K0 psi)
    #           - f (t' psi)^(q-1) - theta a (t' psi)^(-(q+1)),
    # so we scan a log grid of scales and take the largest one whose whole
    # tail is strictly negative (solution pairs narrower than the 2% scan
    # step can only hide very near the fold, where callers warm-start).
    base = (coeffs.a - delta * f_minus - delta - k0 * psi).values
    fpow = ScalarField._own(grid, coeffs.f.values * psi.values ** (spec.q - 1.0)).values
    apow = ScalarField._own(grid, theta * coeffs.a.values * psi.values ** -(spec.q + 1.0)).values
    # All three powers of t are positive, so
    #   t max(base) - t^(q-1) min(fpow) - t^(-(q+1)) min(apow)
    # bounds r(t) at every point.  Where it is negative by more than 1e-9 of
    # the largest sizes of its three terms, far beyond the few ulps the array
    # pass rounds by, every point's computed r(t) is negative too; only the
    # other scales take the array pass, and the scan's outcome is the same,
    # bit for bit.
    per_octave = 32
    scales = 2.0 ** (np.arange(-60 * per_octave, 60 * per_octave + 1) / per_octave)
    floor = 10 * POSITIVITY_FLOOR / psi.min()
    scales = scales[scales >= floor]
    tf, ta = scales ** (spec.q - 1.0), scales ** (-(spec.q + 1.0))
    bound = scales * base.max() - tf * fpow.min() - ta * apow.min()
    margin = 1e-9 * (scales * np.abs(base).max() + tf * np.abs(fpow).max()
                     + ta * np.abs(apow).max())
    best = 1.0 if floor <= 1.0 else None  # no sign change in the range
    for i in np.flatnonzero(~(bound < -margin)):  # ascend from the smallest scale
        t = scales[i]
        r = t * base - t ** (spec.q - 1.0) * fpow - t ** (-(spec.q + 1.0)) * apow
        if not r.max() < 0:
            best = scales[i - 1] if i > 0 else None
            break
    if best is None:
        raise SubsolutionError(
            f"no strict subsolution found at theta={theta} within the scale scan"
        )
    w = best * psi
    res = residual(spec, w)
    if res.max() >= 0:
        raise SubsolutionError(
            f"scaled candidate lost strict negativity (max residual {res.max():.3e})"
        )
    return Subsolution(field=w, delta=delta, scale=float(best), shift_k=k0)


def _symmetric_solver(w: ScalarField, border: ScalarField | None = None):
    """The map rhs -> (x, s) that solves (Delta + W) x = rhs for symmetric,
    possibly indefinite W via MINRES, with the operator set up once.

    With a border b it solves [[Delta + W, b], [b^T, 0]] [x; s] = [rhs; 0],
    symmetric too and regular at a simple fold, instead; s = 0 without a
    border.  The preconditioner is M = diag((Delta + shift)^-1, 1), and
    MINRES sees the operator as M^-1 plus the pointwise-and-border
    E = [[W - shift, b], [b^T, -1]], so each iteration costs one transform
    round trip; the true-residual check after the solve is the one full
    application of the operator.  The bordered vectors live in the grid's
    scratch, so a solve allocates only x.
    """
    grid = w.grid
    shape, n = grid.resolutions, grid.npoints
    shift = max(1.0, abs(float(w.values.mean())))
    apply, precondition = helmholtz_operator(grid, w.values, shift)
    b = np.zeros((0, n)) if border is None else border.values.reshape(1, n)
    dw = (w.values - shift).ravel()

    def solve(rhs: ScalarField) -> tuple[ScalarField, float]:
        *work, rhs_vec, column = grid._scratch(9, len(b))
        column = column[:n]

        def add_column(x, head):
            # head += x[n:] @ b; the matmul itself runs a slow loop
            if border is not None:
                head += np.multiply(b[0], x[n], out=column)

        def rest(x, out):
            np.multiply(dw, x[:n], out=out[:n])
            add_column(x, out[:n])
            np.subtract(np.matmul(b, x[:n], out=out[n:]), x[n:], out=out[n:])
            return out

        def pre(x, out):
            precondition(x[:n].reshape(shape), out[:n].reshape(shape))
            out[n:] = x[n:]
            return out

        rhs_vec[:n] = rhs.values.ravel()
        rhs_vec[n:] = 0.0
        x, info = minres(rest, pre, rhs_vec, rtol=1e-12, maxiter=3000, work=work)
        check = work[0]  # A x - rhs, in a vector the solve has released
        apply(x[:n].reshape(shape), check[:n].reshape(shape))
        add_column(x, check[:n])
        np.matmul(b, x[:n], out=check[n:])
        check -= rhs_vec
        resid = np.linalg.norm(check)
        bn = np.linalg.norm(rhs_vec)
        if info != 0 or (bn > 0 and resid > 1e-6 * bn):
            raise NewtonError(
                f"linearized solve failed (minres info={info}, "
                f"rel residual={resid / max(bn, 1e-300):.3e}); Jacobian singular or nearly so"
            )
        return ScalarField._own(grid, x[:n].reshape(shape)), float(x[n:].sum())

    return solve


def newton_refine(spec: ProblemSpec, u0: ScalarField) -> ScalarField:
    """Damped Newton on the residual, Jacobian = Delta + W(u).

    Handles both the unregularized equation (epsilon = 0, positivity enforced
    by step halving) and the regularized one (epsilon > 0, any sign).
    """
    return _newton(spec, u0)[0]


def _newton(spec: ProblemSpec, u0: ScalarField) -> tuple[ScalarField, float]:
    """newton_refine's point and the sup norm of its residual."""
    if spec.epsilon > 0:
        res_fn, pot_fn = energy_gradient, regularized_potential
        positivity = False
    else:
        res_fn, pot_fn = residual, linearized_potential
        positivity = True

    u = u0
    r = res_fn(spec, u)
    rn = r.sup_norm()
    for _ in range(NEWTON_MAX_STEPS):
        if rn <= NEWTON_RES_TOL:
            return u, rn
        w = pot_fn(spec, u)
        step, _ = _symmetric_solver(w)(-r)
        alpha = 1.0
        while alpha >= 1e-8:
            cand = u + alpha * step
            if positivity and cand.min() <= 10 * POSITIVITY_FLOOR:
                alpha *= 0.5
                continue
            cand_r = res_fn(spec, cand)
            if cand_r.sup_norm() <= (1.0 - 0.25 * alpha) * rn:
                u, r, rn = cand, cand_r, cand_r.sup_norm()
                break
            alpha *= 0.5
        else:
            raise NewtonError(f"no acceptable Newton step (residual {rn:.3e})")
    if rn <= NEWTON_RES_TOL:
        return u, rn
    raise NewtonError(f"Newton did not reach residual tolerance (final {rn:.3e})")


def _bound_constant(spec: ProblemSpec, floor: float, sup: float) -> float:
    """K = max(B, K_MIN) such that F + K id is nondecreasing in u on [floor, sup].

    That needs K >= B, the max over x and over t in the range of
    -F'(x, t) = h - (q-1) f t^(q-2) + (q+1) theta a t^(-(q+2)).  Each term is
    monotone in t (q >= 2, a >= 0), so its worst case sits at an end: floor
    for the a term, and for the f term floor where f >= 0 and sup where
    f < 0.  Where f >= 0 the bound therefore holds on all of [floor, inf);
    only points with f < 0 depend on sup covering the next iterate, and the
    caller's monotonicity check catches a miss.

    K > 0 makes Delta + K invertible with an order-preserving inverse, and
    K_MIN keeps that inverse bounded where B <= 0.  Nothing needs K >= 1:
    near the solution B tends to the first eigenvalue of the linearization,
    and headroom above B only holds the mean-mode contraction at 1 - B/K
    instead of near 0.
    """
    c = spec.coefficients
    q = spec.q
    f = c.f.values
    bound, term = (v.reshape(f.shape) for v in spec.grid._scratch(2))
    # the f term at its worst end: floor where f >= 0, sup where f < 0
    np.minimum(np.multiply(f, floor ** (q - 2.0), out=bound),
               np.multiply(f, sup ** (q - 2.0), out=term), out=bound)
    bound *= q - 1.0
    np.subtract(c.h.values, bound, out=bound)
    np.multiply((q + 1.0) * spec.theta, c.a.values, out=term)
    term *= floor ** (-(q + 2.0))
    bound += term
    return max(float(bound.max()), K_MIN)


def _mean_bound(spec: ProblemSpec) -> float:
    """M = (max h / min f)^(1/(q-2)), above the mean of every positive
    solution at spec where f > 0 everywhere and theta a is not 0; inf
    elsewhere.

    Delta has zero grid sum, so a solution has sum h u = sum f u^(q-1) +
    theta sum a u^(-(q+1)) > min f sum u^(q-1), and Jensen gives mean(u) <
    (max h / min f)^(1/(q-2)).
    """
    c = spec.coefficients
    if spec.q > 2.0 and c.f.min() > 0 and spec.theta * c.a.max() > 0:
        return (max(c.h.max(), 0.0) / c.f.min()) ** (1.0 / (spec.q - 2.0))
    return np.inf


def monotone_iterate(spec: ProblemSpec, start: Subsolution | ScalarField) -> MonotoneResult:
    """Monotone sub/supersolution iteration from a (strict) subsolution.

    Accepts either a constructed Subsolution or a warm-start field that is a
    subsolution at spec's theta (e.g. a minimal solution at a smaller theta).
    Newton is tried once a step is at most NEWTON_TRIGGER and kept when it
    dominates the iterate ("newton"); if it declines at a step of at most
    PICARD_TOL, the iterate is returned ("converged").

    Diverged when an iterate's mean exceeds _mean_bound(spec), which every
    positive solution obeys; the iterates stay below the minimal solution,
    so one above the bound proves there is none.  Diverged too
    when the iterates blow past CAP_FACTOR x the starting sup, the verdict
    where min f <= 0, or keep growing at the iteration limit.
    """
    if isinstance(start, Subsolution):
        v = start.field
    else:
        v = start
        r = residual(spec, v)
        if r.max() > 1e-9:
            raise SubsolutionError(
                f"warm start is not a subsolution at theta={spec.theta} "
                f"(max residual {r.max():.3e})"
            )
    if v.min() <= POSITIVITY_FLOOR:
        raise PositivityError("subsolution must be strictly positive")

    c = spec.coefficients
    q = spec.q
    sup0 = v.max()
    cap = CAP_FACTOR * sup0
    mean_bound = _mean_bound(spec)
    # the growth verdicts read only the last GROWTH_WINDOW steps
    sup_history = deque([sup0], maxlen=GROWTH_WINDOW + 1)
    max_violation = 0.0
    trigger = NEWTON_TRIGGER
    step = np.inf

    theta_a = spec.theta * c.a.values
    for it in range(1, MAX_PICARD_ITERS + 1):
        # iterates are nondecreasing, so the current min floors this step's
        # comparison range; the 1.3x sup headroom matters only where f < 0
        k = _bound_constant(spec, v.min(), 1.3 * v.max())
        vv = v.values
        # F(v) + K v = f v^(q-1) + theta a v^(-(q+1)) - h v + K v, in scratch
        f_of_v, term = (x.reshape(vv.shape) for x in v.grid._scratch(2))
        np.power(vv, q - 1.0, out=f_of_v)
        f_of_v *= c.f.values
        np.power(vv, -(q + 1.0), out=term)
        term *= theta_a
        f_of_v += term
        f_of_v -= np.multiply(c.h.values, vv, out=term)
        rhs = ScalarField._own(v.grid, f_of_v + np.multiply(k, vv, out=term))
        v_new = helmholtz_solve(k, rhs)

        # spectral roundoff is global, so the comparison noise floor scales
        # with the field sup; normalize before checking the 1e-12 discipline
        drop = np.subtract(v.values, v_new.values, out=term)
        violation = float(drop.max()) / max(1.0, v.max())
        if violation > MONOTONICITY_TOL:
            # blow-up concentrates the iterate beyond what the grid resolves,
            # and spectral ringing then breaks pointwise monotonicity; under
            # clear sustained growth that IS the divergence verdict
            growing = (len(sup_history) > 1
                       and v.max() >= 4.0 * sup0
                       and all(b > a for a, b in pairwise(sup_history)))
            if growing:
                return MonotoneResult(False, None, it, max_violation, None,
                                      "monotonicity lost in under-resolved growth")
            raise MonotonicityError(
                f"iterate decreased by {violation:.3e} (relative to sup) "
                f"at step {it} (K = {k:.3e})"
            )
        max_violation = max(max_violation, violation)
        step = float(np.abs(drop, out=drop).max())  # |v_new - v|, exactly
        v = v_new
        sup = v.max()
        sup_history.append(sup)

        if v.values.sum() / v.values.size > mean_bound:
            return MonotoneResult(False, None, it, max_violation, None,
                                  "mean above the bound of every solution")
        if sup > cap:
            return MonotoneResult(False, None, it, max_violation, None, "cap exceeded")

        if step <= trigger or step <= PICARD_TOL:
            try:
                u, rn = _newton(spec, v)
            except NewtonError as exc:
                log.debug("newton declined: %s", exc)
            else:
                # the minimal solution dominates every iterate; a refined point
                # below v means Newton strayed off the minimal branch
                if float((v.values - u.values).max()) <= 1e-8:
                    return MonotoneResult(True, u, it, max_violation, rn, "newton")
            if step <= PICARD_TOL:
                rn = residual(spec, v).sup_norm()
                # a genuinely step-converged iterate has residual of order K * step;
                # anything much larger means the step criterion fired prematurely
                if rn > 10.0 * k * PICARD_TOL + 1e-8:
                    raise IterationLimitError(
                        f"step size converged but the residual is {rn:.3e} "
                        f"(K = {k:.3e}); the iteration stalled without a solution"
                    )
                return MonotoneResult(True, v, it, max_violation, rn, "converged")
            trigger *= 0.25  # retry later, closer to the solution

    if len(sup_history) > GROWTH_WINDOW and all(b > a for a, b in pairwise(sup_history)):
        return MonotoneResult(False, None, MAX_PICARD_ITERS, max_violation, None,
                              "sustained growth at iteration limit")
    raise IterationLimitError(
        f"no verdict after {MAX_PICARD_ITERS} iterations (last step {step:.3e})"
    )


def minimal_solution(spec: ProblemSpec,
                     start: Subsolution | ScalarField | None = None) -> MonotoneResult:
    """Minimal solution at spec's (theta, q) by monotone iteration from start,
    a subsolution there (build_subsolution(spec) when None); raises
    NoSolutionError when the iterates diverge."""
    out = monotone_iterate(spec, build_subsolution(spec) if start is None else start)
    if not out.converged:
        raise NoSolutionError(
            f"no solution at theta={spec.theta}, q={spec.q} ({out.reason})")
    return out


def _branch_point(spec: ProblemSpec, sol: ScalarField, iterations: int,
                  eig: EigenResult | None = None) -> BranchPoint:
    """First eigenvalue and energy of sol, a solution of spec's equation;
    eig, when given, is the first eigenpair of its linearization."""
    if eig is None:
        eig = smallest_eigenpair(linearized_potential(spec, sol))
    if eig.lam < -1e-8:
        raise EigenSolverError(
            f"minimal solution at theta={spec.theta} has negative first eigenvalue "
            f"{eig.lam:.3e}; stability violated"
        )
    return BranchPoint(theta=spec.theta, solution=sol, lam=eig.lam,
                       energy=energy(spec, sol), iterations=iterations)


def trace_branch(coeffs: Coefficients, theta_schedule,
                 q: float | None = None) -> BranchRecord:
    """Minimal solutions along an ascending theta schedule, warm-started.

    The previous minimal solution is a strict subsolution at the next theta
    (the right side increases with theta), so it seeds the next iteration.
    """
    thetas = [float(t) for t in theta_schedule]
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("theta schedule must be strictly increasing")

    record = BranchRecord()
    prev: ScalarField | None = None
    for theta in thetas:
        spec = critical_spec(coeffs, theta).at(q=q)
        out = minimal_solution(spec, prev)
        if prev is not None:
            drop = float((prev.values - out.solution.values).max())
            record.monotonicity_violation = max(record.monotonicity_violation, drop)
        record.points.append(_branch_point(spec, out.solution, out.iterations))
        prev = out.solution
    return record


def _existence_solve(coeffs, theta, warm: ScalarField | None) -> MonotoneResult:
    """Existence probe at one theta: the minimal solution, or NoSolutionError."""
    return minimal_solution(critical_spec(coeffs, theta), warm)


def _extended_newton(coeffs: Coefficients, u: ScalarField, theta: float
                     ) -> tuple[ScalarField, float, ScalarField, ScalarField, float, int]:
    """Newton on the minimally extended system (Griewank & Reddien 1984) from
    (u, theta) on coeffs' grid: (u*, theta*, null vector v, F_theta, j22,
    Newton steps), or NewtonError.

    The equations are F = 0 and g = 0, where [[F_u, phi0], [phi0^T, 0]]
    [v; g] = [0; 1] and phi0 is the start u normalized: positive, so not
    orthogonal to the null vector, which is positive at a fold of the
    minimal branch.  F_u is symmetric, so g_u = -v^2 W'(u) and g_theta =
    -sum v^2 dW/dtheta; a step is three bordered solves (v - phi0, -F,
    -F_theta) and a 2x2 solve for (dtheta, mu) in du = z1 + dtheta z2 + mu v.
    """
    q, f, a = critical_spec(coeffs, theta).q, coeffs.f.values, coeffs.a.values
    phi0 = u * (1.0 / np.linalg.norm(u.values))
    lap_phi0 = laplacian(phi0)
    for steps in range(NEWTON_MAX_STEPS + 1):
        spec, uv = critical_spec(coeffs, theta), u.values
        # u^(-(q+1)) serves F and F_theta, u^(-(q+2)) serves W and g_theta
        power1, power2 = uv ** (-(q + 1.0)), uv ** (-(q + 2.0))
        w = linearized_potential(spec, u, power2)
        solve = _symmetric_solver(w, phi0)
        y, g = solve(-(lap_phi0 + w * phi0))
        v, r = phi0 + y, residual(spec, u, power1)
        f_theta = ScalarField._own(u.grid, -a * power1)
        # g_u = v^2 ((q-1)(q-2) f u^(q-3) + (q+1)(q+2) theta a u^(-(q+3))),
        # built in place: a step's peak memory falls here
        g_u, term = uv ** (q - 3.0), uv ** (-(q + 3.0))
        g_u *= (q - 1.0) * (q - 2.0) * f
        term *= (q + 1.0) * (q + 2.0) * theta * a
        g_u += term
        g_u *= v.values ** 2
        j22 = float(np.sum(g_u * v.values))
        if r.sup_norm() <= NEWTON_RES_TOL and abs(g) <= NEWTON_RES_TOL:
            return u, float(theta), v, f_theta, j22, steps
        if steps == NEWTON_MAX_STEPS:
            raise NewtonError(f"extended Newton did not converge in {steps} steps")
        z1, s1 = solve(-r)
        z2, s2 = solve(-f_theta)
        g_theta = -(q + 1.0) * float(np.sum(v.values ** 2 * a * power2))
        jac = [[s2, g], [float(np.sum(g_u * z2.values)) + g_theta, j22]]
        dtheta, mu = np.linalg.solve(jac, [-s1, -g - float(np.sum(g_u * z1.values))])
        du = z1 + dtheta * z2 + mu * v
        alpha = 1.0
        while (u + alpha * du).min() <= 10 * POSITIVITY_FLOOR or theta + alpha * dtheta <= 0:
            alpha *= 0.5
            if alpha < 1e-8:
                raise NewtonError("extended Newton: no positive step")
        u, theta = u + alpha * du, float(theta + alpha * dtheta)


@np.errstate(all="ignore")  # an overflowed or undefined margin is not above 1
def _convexity_margin(spec_lo: ProblemSpec, u_lo: ScalarField, w_lo: ScalarField,
                      eig: EigenResult, theta_hi: float) -> float | None:
    """m = 2 (dtheta T - R) / (S lam^2), dtheta = theta_hi - theta_lo; m > 1
    proves that no positive grid function solves the equation at theta_hi.
    None where the hypotheses fail: f > 0 and a > 0 everywhere, q >= 3.

    u_lo solves spec_lo's equation up to r_lo, |r_lo| <= NEWTON_RES_TOL,
    (lam, phi > 0) is eig, the first eigenpair of Delta + W, W = w_lo, and
    rho = (Delta + W) phi - lam phi.  With G(s) = f s^(q-1) + theta_lo a
    s^(-(q+1)), W = h - G'(u_lo) and G'' >= c = min((q-1)(q-2) f
    u_lo^(q-3), (q+1)(q+2) theta_lo a u_lo^(-(q+3))) on both sides of u_lo
    (q >= 3).  Let u > 0 solve at theta_hi and e = u - u_lo; subtracting
    the equations and Taylor's bound G(u) >= G(u_lo) + G'(u_lo) e + c e^2 / 2
    give (Delta + W) e >= c e^2 / 2 + dtheta a u^(-(q+1)) - r_lo.  Pair
    with phi, Delta being symmetric: with E = sum phi e,
      lam E + sum rho e >= sum phi c e^2 / 2 + dtheta sum phi a u^(-(q+1))
                           - sum phi r_lo.
    Sum u < N M, M = _mean_bound(spec_lo), bounds |sum rho e| <= |rho|_inf
    (N M + sum u_lo) and, with the last term, makes R.  Jensen with the
    weights phi a gives sum phi a u^(-(q+1)) >= T = sum phi a (N M
    max(phi a) / sum phi a)^(-(q+1)), and Cauchy-Schwarz sum phi c e^2 >=
    E^2 / S, S = sum phi / c.  So lam E + R >= dtheta T + E^2 / (2 S), a
    quadratic in E with no real root when m > 1: there is no such u.  No
    comparison principle enters, and nothing requires u >= u_lo.
    """
    c = spec_lo.coefficients
    q, theta_lo, lam = spec_lo.q, spec_lo.theta, eig.lam
    if not (q >= 3.0 and c.f.min() > 0 and c.a.min() > 0):
        return None
    grid, f, a = u_lo.grid, c.f.values, c.a.values
    u, phi = u_lo.values, eig.vector.values
    apply, _ = helmholtz_operator(grid, w_lo.values)
    one, two = (x.reshape(u.shape) for x in grid._scratch(2))
    apply(phi, out=one)
    one -= np.multiply(lam, phi, out=two)  # rho
    rho_sup = np.abs(one, out=one).max()
    np.power(u, q - 3.0, out=one)
    one *= (q - 1.0) * (q - 2.0) * f
    np.power(u, -(q + 3.0), out=two)
    two *= (q + 1.0) * (q + 2.0) * theta_lo * a
    s = np.divide(phi, np.minimum(one, two, out=one), out=one).sum()
    phi_a = np.multiply(phi, a, out=one)
    sum_phi_a = phi_a.sum()
    total = grid.npoints * _mean_bound(spec_lo)  # above sum u
    t = sum_phi_a * np.power(total * phi_a.max() / sum_phi_a, -(q + 1.0))
    r = rho_sup * (total + u.sum()) + NEWTON_RES_TOL * phi.sum()
    return float(2.0 * ((theta_hi - theta_lo) * t - r) / (s * lam * lam))


def _fold_newton(coeffs: Coefficients, coarse: Coefficients | None,
                 sol: ScalarField, theta: float, tol: float) -> FoldResult:
    """The certified fold from the minimal solution sol at theta, on the
    full grid of coeffs or on the half grid of coarse, or NewtonError.

    The extended Newton first runs on the half grid when coarse is given,
    and the full-grid one starts from its prolonged fold, or from sol and
    theta without one.  Both certificates are on the full grid, and the
    lower one's eigen solve is the fold's only one.  The upper one is
    _convexity_margin's proof from the lower one's solution and eigenpair
    where it holds, and a diverging existence probe elsewhere.
    """
    fine = transfer(sol, coeffs.grid)  # the lower certificate lies above it
    start, coarse_theta, coarse_steps = (fine, theta), None, 0
    if coarse is not None:
        try:
            u_c, coarse_theta, *_, coarse_steps = _extended_newton(
                coarse, transfer(sol, coarse.grid), theta)
        except SolverFailure as exc:
            log.debug("no half-grid fold: %s", exc)
        else:
            start = (transfer(u_c, coeffs.grid), coarse_theta)
    u, theta, v, f_theta, j22, steps = _extended_newton(coeffs, *start)

    # Certify from below.  At a quadratic fold the minimal solution at
    # theta* - delta is u* - s v + O(s^2), delta = s^2 j22 / (2 s2) with
    # s2 = -v.F_theta, and its first eigenvalue is s j22 / |v|^2 + O(s^2);
    # delta aims that eigenvalue at LAMBDA_TOL / 2.
    s2 = -float(np.sum(v.values * f_theta.values))
    if not (j22 > 0 and s2 > 0):
        raise NewtonError(f"not a quadratic fold (j22 = {j22:.3e}, s2 = {s2:.3e})")
    delta = (LAMBDA_TOL * float(np.sum(v.values ** 2))) ** 2 / (8.0 * j22 * s2)
    delta = max(min(delta, 0.5 * tol), 4.0 * np.spacing(theta))
    spec_lo = critical_spec(coeffs, theta - delta)
    u_lo = newton_refine(spec_lo, u - float(np.sqrt(2.0 * s2 * delta / j22)) * v)
    if float((fine.values - u_lo.values).max()) > 1e-8:
        raise NewtonError("the lower fold certificate lies below the warm start")
    w_lo = linearized_potential(spec_lo, u_lo)
    eig = smallest_eigenpair(w_lo)
    point = _branch_point(spec_lo, u_lo, steps, eig)
    if not 0.0 <= point.lam <= LAMBDA_TOL:
        raise NewtonError(f"the lower fold certificate has lambda = {point.lam:.3e}")

    # Certify from above: by convexity where it proves that no solution
    # exists just past the fold, else by an existence probe that diverges.
    theta_hi = point.theta + 0.99 * tol
    found = (theta, (point.theta, theta_hi), point, steps, coarse_theta, coarse_steps)
    margin = _convexity_margin(spec_lo, u_lo, w_lo, eig, theta_hi)
    if margin is not None and margin > 1.0:
        return FoldResult(*found, "convexity", margin)
    try:
        _existence_solve(coeffs, theta_hi, u_lo)
    except NoSolutionError:
        return FoldResult(*found, "probe", None)
    raise NewtonError(f"a minimal solution exists at {theta_hi}, past the fold")


def _bracket(coeffs: Coefficients, theta_hint: float, tol: float
             ) -> tuple[ScalarField, float]:
    """(sol, theta_lo) on coeffs' grid: halving from theta_hint, then
    doubling if theta_hint had a solution, with no theta probed twice, ends
    at theta_lo, whose minimal solution is sol and whose double diverged."""
    # Phase A: a theta where a solution exists.
    theta_lo = theta_hint
    while theta_lo >= tol:
        try:
            out = _existence_solve(coeffs, theta_lo, None)
        except NoSolutionError:
            theta_lo *= 0.5
        else:
            break
    else:
        raise NoSolutionError(f"no solution even at theta = {tol}")
    sol = out.solution

    # Phase B: double up to the fold, unless Phase A saw 2 theta_lo diverge.
    if theta_lo == theta_hint:
        for _ in range(60):
            try:
                out = _existence_solve(coeffs, 2.0 * theta_lo, sol)
            except NoSolutionError:
                break
            theta_lo, sol = 2.0 * theta_lo, out.solution
        else:
            raise BracketError("no fold found within the doubling cap; is f <= 0 somewhere?")
    return sol, theta_lo


def find_theta_star(coeffs: Coefficients, theta_hint: float = 0.1,
                    tol: float = 1e-4) -> FoldResult:
    """Locate the fold: largest theta admitting a minimal solution.

    _bracket runs on the half grid, and on the full grid only where the
    grid has no half grid, the restricted coefficients are not admissible
    or the half grid cannot bracket (any SolverFailure).  Newton on the
    extended system then locates the fold on the half grid from the
    bracket point and refines it on the full grid, which certifies it by a
    solution below it and, above it, by convexity or a diverging probe
    (_fold_newton); every full-grid probe is a certificate when the half
    grid brackets.  Failures raise their SolverFailure.
    """
    if theta_hint <= 0:
        raise ValueError("theta_hint must be positive")

    coarse, bracket = _half_grid_coefficients(coeffs), None
    if coarse is not None:
        try:
            bracket = _bracket(coarse, theta_hint, tol)
        except SolverFailure as exc:
            log.debug("no half-grid bracket: %s", exc)
    sol, theta_lo = bracket or _bracket(coeffs, theta_hint, tol)

    fold = _fold_newton(coeffs, coarse, sol, theta_lo, tol)
    log.info("fold: theta_star=%.12f bracket=(%.12f, %.12f) lambda=%.3e",
             fold.theta_star, *fold.bracket, fold.last_branch_point.lam)
    return fold
