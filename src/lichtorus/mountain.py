"""Second solutions: ball minimization, discrete mountain pass, continuation.

The second solution is produced at subcritical exponent q < 2* on the
regularized functional (epsilon > 0), then continued along epsilon -> 0 and
q -> 2* by Newton from stage to stage, and finally Newton-refined on the
true critical equation.  The first stage's pass point is found by the
classical discrete minimax scheme: steepest-descent on the highest-energy
point of a path joining the ball minimizer to a low-energy far point, with
arclength re-equispacing.  The ball, its sphere and the far point's
distance are taken around 0 in H1_h, with the radius ball_radius (default:
the certificate's t0).  That family runs on the half grid when there is
one (nested iteration), and the full grid refines only its last point.
Every barrier comes from one draw of sphere samples, held as coefficients
of trigonometric polynomials, so the draw serves both grids; each sample's
H1_h form is radius^2 exactly, so the barrier takes no transform.

The explicit two-solution certificate evaluates the closed-form constants
C(n), t0, t1, Phi(t0) and a lower bound on the first multiplicity threshold
from the embedding-constant estimate.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .branch import (
    BranchPoint,
    NewtonError,
    minimal_solution,
    newton_refine,
    _branch_point,
)
from .core import (
    Coefficients,
    ProblemSpec,
    critical_exponent,
    critical_spec,
    energies,
    energy,
    energy_gradient,
    f_terms,
    sobolev_constant_estimate,
    _half_grid_coefficients,
)
from .errors import Blowup, SolverFailure
from .grid import (
    NonCoerciveOperatorError,
    NonFiniteFieldError,
    ScalarField,
    TorusGrid,
    _mode_numbers,
    _rotate,
    constant_field,
    h1h_norm,
    h1h_norms,
    helmholtz_solve,
    transfer,
)

log = logging.getLogger(__name__)

PASS_GRAD_TOL = 1e-6        # H1_h Riesz-gradient norm that ends the pass search
MAX_SWEEPS = 20_000
DESCENT_GRAD_TOL = 1e-8     # ball descent: Riesz gradient norm that ends it
DESCENT_MAX_ITERS = 5000
NEWTON_TRIGGER = 1e-3       # ball descent hands over to Newton below this norm
PATH_SIZE = 33              # points of the discrete mountain-pass path
SPHERE_SAMPLES = 64
BARRIER_CHUNK = 16          # fields per stacked transform: sphere samples, path points
ETA_MARGIN = 0.01           # relative safety margin of the sampled barrier
BLOWUP_FACTOR = 100.0       # family sup over max(1, minimal sup) read as blow-up


class GeometryError(SolverFailure):
    """Mountain-pass geometry violated (endpoints not below the barrier)."""


class PathCollapseError(SolverFailure):
    """The path's maximum-energy point reached an endpoint."""


class DescentStallError(SolverFailure):
    """Descent stalled above the gradient tolerance."""


class BlowupDetectedError(Blowup):
    """The continuation family's sup norm grew without bound."""


@dataclass
class PathState:
    """Ordered fields from u_low to u_high, the rows of one stack, with their
    energies; spacing is the H1_h arclength per segment of the path they
    were re-equispaced from."""

    points: NDArray
    energies: NDArray
    spacing: float

    @property
    def max_index(self) -> int:
        return int(np.argmax(self.energies))


@dataclass
class TwoSolutions:
    minimal: BranchPoint
    second: ScalarField
    second_energy: float
    eta: float
    separation: float
    family_resolutions: tuple[int, ...]  # the grid of the continuation family
    sup_differences: list[float] = field(default_factory=list)  # q-ascent pass points
    pass_history: list[float] = field(default_factory=list)


@dataclass
class Certificate:
    n: int
    c_n: float
    s_h_estimate: float
    heuristic: bool
    t0: float
    t1: float
    phi_t0: float
    theta1_lower_bound: float
    test_function: ScalarField


def certificate_constant(n: int) -> float:
    """C(n) = (2(n-1))^(-2*/2) / (n-2) = (2(n-1))^(-n/(n-2)) / (n-2), exactly
    1/64, 1/72 and 1/96 for n = 3, 4, 5."""
    if n not in (3, 4, 5):
        raise ValueError("n must be 3, 4 or 5")
    return {3: 1.0 / 64.0, 4: 1.0 / 72.0, 5: 1.0 / 96.0}[n]


def certificate_theta1(coeffs: Coefficients) -> Certificate:
    """Explicit lower bound on the two-solution threshold theta_1, with the
    constant test function normalized in H1_h.

    Uses the heuristic embedding-constant estimate; an underestimate of S
    inflates the bound, hence the heuristic flag.
    """
    grid = coeffs.grid
    n = grid.dim
    ts = critical_exponent(n)
    s_est = sobolev_constant_estimate(coeffs.h, ts)
    max_f = float(np.abs(coeffs.f.values).max())

    c_n = certificate_constant(n)
    t0 = (s_est * max_f) ** (-1.0 / (ts - 2.0))
    t1 = (2.0 * (n - 1)) ** (-0.5) * t0
    phi_t0 = (s_est * max_f) ** (-(n - 2.0) / 2.0) / n

    phi = constant_field(grid, 1.0)
    phi = phi * (1.0 / h1h_norm(phi, coeffs.h))

    denom = float(np.sum(coeffs.a.values * phi.values ** (-ts))) * grid.cell_volume
    theta1_lb = c_n * (s_est * max_f) ** (1.0 - n) / denom
    return Certificate(n=n, c_n=c_n, s_h_estimate=s_est, heuristic=True,
                       t0=t0, t1=t1, phi_t0=phi_t0,
                       theta1_lower_bound=theta1_lb, test_function=phi)


def minimize_in_ball(spec: ProblemSpec, radius: float, start: ScalarField) -> ScalarField:
    """Minimize the regularized energy on the closed H1_h-ball of radius
    around 0.

    Descent along the Riesz direction -(Delta + h)^(-1) grad I from start,
    which must lie in the ball.  A trial point outside the ball is rejected
    like one failing the Armijo test, unevaluated.  No projection is needed:
    accepted iterates have I <= I(start), and when I(start) < inf I on the
    sphere (the mountain-pass geometry) the Armijo test rejects every sphere
    point anyway.  Positive iterates go to Newton on the regularized
    Euler-Lagrange equation, whose result must lie inside the ball.  A
    minimizer on the sphere means the geometry failed: the descent stalls
    and raises DescentStallError.
    """
    if spec.epsilon <= 0 or spec.q >= spec.two_star:
        raise ValueError("ball minimization requires epsilon > 0 and q < 2*")
    h = spec.coefficients.h
    start_norm = h1h_norm(start, h)
    if start_norm > radius:
        raise GeometryError(f"ball descent start of H1_h norm {start_norm:.4e} "
                            f"lies outside the ball of radius {radius:.4e}")
    u, e_u = start, energy(spec, start)
    step = 1.0
    # moves are capped at a small fraction of the ball so descent cannot
    # leap a ridge to lower ground outside the minimizer's basin
    max_move = 0.05 * radius
    for _ in range(DESCENT_MAX_ITERS):
        d = -1.0 * helmholtz_solve(h, energy_gradient(spec, u))
        gn = h1h_norm(d, h)
        if gn <= NEWTON_TRIGGER and u.min() > 0:
            try:
                cand = newton_refine(spec, u)
            except NewtonError:
                pass
            else:
                if h1h_norm(cand, h) < radius * (1.0 - 1e-10):
                    return cand
        if gn <= DESCENT_GRAD_TOL:
            return u
        s = min(step, max_move / gn)
        for _ in range(50):
            cand = u + s * d
            if h1h_norm(cand, h) <= radius:
                e_cand = energy(spec, cand)
                if e_cand < e_u - 1e-4 * s * gn**2:
                    u, e_u = cand, e_cand
                    step = min(s * 2.0, 1e3)
                    break
            s *= 0.5
        else:
            raise DescentStallError(f"ball descent stalled at gradient norm {gn:.3e}")
    raise DescentStallError(
        f"ball descent hit the iteration cap at gradient norm {gn:.3e}")


# e^(2 pi i k x / L) for k = -2..2 (row k + 2) in the real basis 1,
# cos(2 pi x / L), sin(2 pi x / L), cos(4 pi x / L), sin(4 pi x / L) of one
# axis: the first five modes of a grid basis, of frequencies _mode_numbers(5)
_WAVES = np.array([[0, 0, 0, 1, -1j], [0, 1, -1j, 0, 0], [1, 0, 0, 0, 0],
                   [0, 1, 1j, 0, 0], [0, 0, 0, 1, 1j]])


def sphere_modes(dim: int, rng: np.random.Generator) -> NDArray:
    """SPHERE_SAMPLES positive-biased directions, before normalization, as
    coefficients in the tensor products of the per-axis bases of _WAVES:
    shape (SPHERE_SAMPLES, 5, ..., 5).  They are functions on the torus,
    not on a grid, so one draw gives the samples of every grid.

    A random term amp * cos(2 pi k.x / L + phase) is the real part of
    amp e^(i phase) times the outer product of the rows k_j + 2 of _WAVES.
    The random rows' constants, their term counts (1 to 3), and the terms'
    wavevectors, amplitudes and phases are one generator call each; terms
    drawn with k = 0 are dropped.  Each kept term has k != 0 with
    |k_j| <= 2 < N_j, so it sums to zero over any grid, and a random row has
    grid mean at least 0.3: no row is zero, and none is drawn again.
    """
    modes = np.zeros((SPHERE_SAMPLES, *[5] * dim))
    constant = (0,) * dim
    modes[(0, *constant)] = 1.0
    modes[(1, *constant)] = -1.0
    for axis in range(dim):
        modes[(2 + axis, *constant)] = 1.0
        modes[(2 + axis, *(int(j == axis) for j in range(dim)))] = 0.5
    first = 2 + dim
    modes[(slice(first, None), *constant)] = rng.uniform(0.3, 1.0, SPHERE_SAMPLES - first)
    counts = rng.integers(1, 4, SPHERE_SAMPLES - first)
    wavevectors = rng.integers(-2, 3, size=(counts.sum(), dim))
    amps = rng.uniform(-0.5, 0.5, len(wavevectors))
    phases = rng.uniform(0, 2 * np.pi, len(wavevectors))
    kept = wavevectors.any(axis=1)
    rows = np.repeat(np.arange(first, SPHERE_SAMPLES), counts)[kept]
    terms = amps[kept] * np.exp(1j * phases[kept])
    for axis, k in enumerate(wavevectors[kept].T):
        terms = terms[..., np.newaxis] * _WAVES[k + 2].reshape(len(k), *[1] * axis, 5)
    filled, starts = np.unique(rows, return_index=True)
    modes[filled] += np.add.reduceat(terms.real, starts)
    return modes


def _waves(grid: TorusGrid) -> list[NDArray]:
    """Per axis, the basis functions of _WAVES on the grid's points, 5 x N_i:
    _rotate(grid, modes, _waves(grid)) evaluates the stack modes, whose
    coefficients are as in sphere_modes, on grid."""
    return [np.stack([np.ones_like(x), *(f(2.0 * np.pi * k * x / length)
                                        for k in (1, 2) for f in (np.cos, np.sin))])
            for x, length in zip(grid.axes, grid.periods)]


def _sphere_samples(h: ScalarField, radius: float, modes: NDArray):
    """The samples of modes on h's grid, scaled onto the H1_h sphere of
    radius around 0: per chunk of BARRIER_CHUNK rows, a stack of fields.

    A chunk evaluates its raw rows s and Delta s, with one small contraction
    per axis; Delta is diagonal on the modes and exact on every grid (the
    cos of k = 2 is the Nyquist mode of a 4-point axis, whose sin vanishes
    there).  They give the forms Q(s) = <s, (Delta + h) s> without a
    transform, and the sample t s, t = radius / sqrt(Q(s)), has the form
    radius^2.
    """
    grid = h.grid
    waves = _waves(grid)
    eigenvalues = functools.reduce(np.add.outer, [
        ((2.0 * np.pi / length) * _mode_numbers(5)) ** 2 for length in grid.periods])
    for block in _chunks(modes):
        samples, image = _rotate(grid, np.stack([block, block * eigenvalues]), waves)
        image += h.values * samples
        image *= samples
        raw_forms = image.sum(axis=grid.field_axes)
        if (raw_forms <= 0).any():
            raise NonCoerciveOperatorError(f"H1_h quadratic form is not positive "
                                           f"({raw_forms.min():.3e}) on a sphere sample")
        scale = radius / np.sqrt(raw_forms * grid.cell_volume)
        samples *= scale.reshape(-1, *[1] * grid.dim)
        yield samples


def _chunks(stack: NDArray) -> list[NDArray]:
    """Views of BARRIER_CHUNK fields each, which bound the temporaries of
    stacked transforms and energies."""
    return [stack[i:i + BARRIER_CHUNK] for i in range(0, len(stack), BARRIER_CHUNK)]


@np.errstate(over="ignore", invalid="ignore")  # non-finite energies are a NonFiniteFieldError
def sphere_barrier(specs: list[ProblemSpec], radius: float, modes: NDArray) -> list[float]:
    """Sampled inf of the energy on the H1_h sphere of radius around 0,
    minus the safety margin, for each of specs, which share their
    coefficients: the samples of modes (sphere_modes) serve them all, and
    each sample's H1_h form is radius^2; the f-term of the samples is
    computed once per distinct q of the regularized specs.

    For epsilon = 0 only strictly positive samples are admissible; the rest
    have infinite energy and are skipped.  An admissible sample's energy is
    finite, so a non-finite one overflowed, as on a huge sphere.
    """
    h = specs[0].coefficients.h
    form = radius * radius
    best = np.full(len(specs), np.inf)
    for block in _sphere_samples(h, radius, modes):
        admissible = block.min(axis=h.grid.field_axes) > 1e-10
        fterms = {}
        for i, spec in enumerate(specs):
            if spec.epsilon > 0:
                if spec.q not in fterms:
                    fterms[spec.q] = f_terms(spec, np.maximum(block, 0.0) ** spec.q)
                values = energies(spec, block, form, fterms[spec.q])
            elif admissible.all():
                values = energies(spec, block, form)
            elif admissible.any():
                values = energies(spec, block[admissible], form)
            else:
                continue
            if not np.isfinite(values).all():
                raise NonFiniteFieldError(f"sphere sample energies overflow on the sphere "
                                          f"of radius {radius:.3e}")
            best[i] = min(best[i], values.min())
    if not np.isfinite(best).all():
        raise GeometryError("no admissible sphere sample; cannot estimate the barrier")
    return [float(b - ETA_MARGIN * abs(b)) for b in best]


def _interpolate_path(spec: ProblemSpec, points: NDArray,
                      end_energies: tuple[float, float]) -> PathState:
    """Re-equispace the polygonal path through the rows of the stack points
    in H1_h arclength into PATH_SIZE points; the endpoints stay fixed and
    keep their energies end_energies.  Segment norms and interior energies
    are stacked calls over BARRIER_CHUNK rows at a time."""
    h = spec.coefficients.h
    seg = np.concatenate([h1h_norms(np.diff(points[i:i + BARRIER_CHUNK + 1], axis=0), h)
                          for i in range(0, len(points) - 1, BARRIER_CHUNK)])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total == 0:
        raise PathCollapseError("path endpoints coincide")
    targets = np.linspace(0.0, total, PATH_SIZE)
    out = np.empty((PATH_SIZE, *points.shape[1:]))
    out[0], out[-1] = points[0], points[-1]
    j = 0
    for row, t in enumerate(targets[1:-1], start=1):
        while j < len(seg) - 1 and cum[j + 1] < t:
            j += 1
        frac = (t - cum[j]) / seg[j] if seg[j] > 0 else 0.0
        out[row] = points[j] + (points[j + 1] - points[j]) * frac
    interior = [energies(spec, block) for block in _chunks(out[1:-1])]
    return PathState(points=out,
                     energies=np.concatenate([[end_energies[0]], *interior, [end_energies[1]]]),
                     spacing=total / (PATH_SIZE - 1))


def mountain_pass_solve(spec: ProblemSpec, u_low: ScalarField, u_high: ScalarField,
                        e_low: float, e_high: float, eta: float):
    """Discrete mountain-pass between u_low and u_high, whose energies are
    e_low and e_high, on a path of PATH_SIZE points.

    Returns (v, c_level): the Newton-refined pass point and its energy.
    Requires both endpoint energies below the sphere barrier eta.
    """
    h = spec.coefficients.h

    if not (e_low < eta and e_high < eta):
        raise GeometryError(
            f"endpoints not below the barrier: I(low)={e_low:.6f}, "
            f"I(high)={e_high:.6f}, eta={eta:.6f}"
        )

    ends = (e_low, e_high)
    path = _interpolate_path(spec, np.stack([u_low.values, u_high.values]), ends)

    # The max point's move is capped at one segment arclength per sweep so
    # the polygon never tears; re-equispacing keeps the discretization
    # uniform, pinning the maximum at the ridge.  The first sweep that does
    # not lower the path maximum marks the lattice-resolution plateau, and
    # Newton takes that maximum to the saddle.
    best_max = path.energies.max()
    for _ in range(MAX_SWEEPS):
        i = path.max_index
        if i == 0 or i == PATH_SIZE - 1:
            raise PathCollapseError("maximum-energy point reached an endpoint")
        u = ScalarField(spec.grid, path.points[i])
        g = energy_gradient(spec, u)
        d = -1.0 * helmholtz_solve(h, g)
        gn = h1h_norm(d, h)
        if gn <= PASS_GRAD_TOL:
            break
        e_u = path.energies[i]
        s = path.spacing / gn
        for _ in range(60):
            cand = u + s * d
            e_cand = energy(spec, cand)
            if e_cand < e_u - 1e-4 * s * gn**2:
                path.points[i], path.energies[i] = cand.values, e_cand
                break
            s *= 0.5
        else:
            raise DescentStallError(
                f"pass-point descent stalled at gradient norm {gn:.3e}")
        path = _interpolate_path(spec, path.points, ends)
        cur_max = path.energies.max()
        if cur_max >= best_max - 1e-12 * max(1.0, abs(best_max)):
            break
        best_max = cur_max
    else:
        raise DescentStallError(f"no pass point within {MAX_SWEEPS} sweeps")

    return _pass_point(spec, ScalarField(spec.grid, path.points[path.max_index]), eta)


def _pass_point(spec: ProblemSpec, start: ScalarField, eta: float):
    """Newton from start to a critical point v of spec's energy, accepted as
    a pass point only when I(v) >= eta; returns (v, I(v))."""
    stage = f"(eps={spec.epsilon}, q={spec.q})"
    try:
        v = newton_refine(spec, start)
    except NewtonError as err:
        raise NewtonError(f"pass point at {stage}: {err}") from err
    c_level = energy(spec, v)
    if c_level < eta - 1e-9 * max(1.0, abs(eta)):
        raise GeometryError(f"pass level {c_level:.8f} at {stage} fell below "
                            f"the barrier eta={eta:.8f}")
    return v, c_level


def _default_schedules(two_star: float):
    eps = [10.0 ** (-j) for j in range(1, 7)]
    qs = [two_star - 2.0 ** (-m) for m in range(1, 9)]
    return eps, qs


def build_far_endpoint(spec: ProblemSpec, eta: float,
                       radius: float) -> tuple[ScalarField, float]:
    """T * psi with int f psi^(2*) > 0, T doubled until the energy drops
    below eta and the point leaves the ball of radius around 0; returns it
    with its energy."""
    coeffs = spec.coefficients
    grid = spec.grid
    ts = spec.two_star
    if coeffs.f.min() > 0:
        psi = constant_field(grid, 1.0)
    else:
        fv = coeffs.f.values
        span = fv.max() - fv.min()
        psi = ScalarField._own(grid, (fv - fv.min()) / span + 0.1)
    weight = float(np.sum(coeffs.f.values * psi.values**ts)) * grid.cell_volume
    if weight <= 0:
        raise GeometryError("could not build psi with int f psi^(2*) > 0")
    t = 1.0
    h = coeffs.h
    for _ in range(80):
        cand = t * psi
        e_cand = energy(spec, cand)
        if e_cand < eta and h1h_norm(cand, h) > radius:
            return cand, e_cand
        t *= 2.0
    raise GeometryError("far endpoint: energy did not drop below eta")


def _pass_family(coeffs: Coefficients, theta: float, stages: list[tuple[float, float]],
                 q_ascent: int, radius: float, modes: NDArray, start: ScalarField,
                 sup_cap: float):
    """The pass points of stages, (epsilon, q) pairs, on coeffs' grid:
    descent in the H1_h ball of radius around 0 from start and the pass
    search at the first stage, Newton continuation after it, each stage's
    point kept only at or above its barrier on the ball's sphere, drawn
    from modes.  Returns (v, sup_differences, pass_history):
    the last stage's point, sup|v_k - v_(k-1)| from stage q_ascent on, and
    every stage's pass level."""
    grid = coeffs.grid
    specs = [ProblemSpec(coeffs, q, theta=theta, epsilon=eps) for eps, q in stages]
    etas = sphere_barrier(specs, radius, modes)
    u_low = minimize_in_ball(specs[0], radius, transfer(start, grid))
    u_high, e_high = build_far_endpoint(specs[0], etas[0], radius)
    pass_diffs, pass_history = [], []
    for stage_idx, (spec, eta) in enumerate(zip(specs, etas)):
        if stage_idx == 0:
            v, c_level = mountain_pass_solve(spec, u_low, u_high, energy(spec, u_low),
                                             e_high, eta)
        else:
            prev = v
            v, c_level = _pass_point(spec, prev, eta)
            if stage_idx >= q_ascent:
                pass_diffs.append(float(np.abs(v.values - prev.values).max()))
        pass_history.append(c_level)
        if v.max() > sup_cap:
            raise BlowupDetectedError(
                f"family sup norm exploded at (eps={spec.epsilon}, q={spec.q})")
        log.debug("stage eps=%.1e q=%.6f on %s: c=%.8f", spec.epsilon, spec.q,
                  grid.resolutions, c_level)
    return v, pass_diffs, pass_history


def critical_limit(coeffs: Coefficients, theta: float,
                   eps_schedule=None, q_schedule=None, seed: int = 0,
                   ball_radius: float | None = None) -> TwoSolutions:
    """Two solutions of the critical equation at the given theta.

    Runs ball minimization + mountain pass at the first stage, continues
    the pass point by Newton through the epsilon schedule at the first
    subcritical q and up the q schedule at the final epsilon, keeping each
    stage's point only at or above its barrier, and Newton-refines it on the
    true critical equation (epsilon = 0, q = 2*).  The family starts from,
    and the pair reports, the minimal solution of the critical equation by
    monotone iteration.  seed drives the one draw of SPHERE_SAMPLES sphere
    samples per run, which gives the barrier of every stage and of the
    limit.  The ball, its sphere and the far endpoint's distance are taken
    around 0 in H1_h, with radius ball_radius, by default the certificate's
    t0; every sample's H1_h form is radius^2 exactly, so the barriers take
    no transform.

    The family runs on the half grid when the grid has one and the
    restricted coefficients are admissible (nested iteration); the full
    grid keeps the minimal solution, the limit's barrier and the final
    Newton, from the prolonged pass point.  Any SolverFailure or Blowup of
    that path reruns the family on the full grid, whose failures raise.
    """
    grid = coeffs.grid
    ts = critical_exponent(grid.dim)
    eps_default, qs_default = _default_schedules(ts)
    eps_schedule = list(eps_schedule) if eps_schedule is not None else eps_default
    q_schedule = list(q_schedule) if q_schedule is not None else qs_default
    if any(e2 >= e1 for e1, e2 in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("epsilon schedule must be strictly decreasing")
    if any(b <= a for a, b in zip(q_schedule, q_schedule[1:])) or q_schedule[-1] > ts:
        raise ValueError("q schedule must be strictly increasing and <= 2*")

    # Minimal solution at the critical equation: the reference branch point.
    crit = critical_spec(coeffs, theta)
    out = minimal_solution(crit)
    minimal_bp = _branch_point(crit, out.solution, out.iterations)

    # Ball geometry from the certificate constants.
    radius = certificate_theta1(coeffs).t0 if ball_radius is None else ball_radius
    phi_norm = h1h_norm(minimal_bp.solution, coeffs.h)
    if phi_norm >= radius:
        raise GeometryError(
            f"minimal solution (H1_h norm {phi_norm:.4f}) lies outside the "
            f"ball of radius {radius:.4f}; override ball_radius"
        )

    modes = sphere_modes(grid.dim, np.random.default_rng(seed))
    eta_crit, = sphere_barrier([crit], radius, modes)
    if not minimal_bp.energy < eta_crit:
        raise GeometryError(f"minimal energy {minimal_bp.energy:.8f} is not below "
                            f"the barrier eta={eta_crit:.8f}")

    stages = [(e, q_schedule[0]) for e in eps_schedule]
    stages += [(eps_schedule[-1], q) for q in q_schedule[1:]]
    sup_cap = BLOWUP_FACTOR * max(1.0, minimal_bp.solution.max())

    def family_on(family_coeffs: Coefficients):
        v, diffs, history = _pass_family(family_coeffs, theta, stages, len(eps_schedule),
                                         radius, modes, minimal_bp.solution, sup_cap)
        # Final refinement of the pass point on the true critical equation.
        return (*_pass_point(crit, transfer(v, grid), eta_crit), diffs, history,
                family_coeffs.grid.resolutions)

    coarse, result = _half_grid_coefficients(coeffs), None
    if coarse is not None:
        try:
            result = family_on(coarse)
        except (SolverFailure, Blowup) as exc:
            log.debug("no half-grid pass family: %s", exc)
    v_star, e_second, pass_diffs, pass_history, family_grid = result or family_on(coeffs)
    separation = float(np.abs(minimal_bp.solution.values - v_star.values).max())
    return TwoSolutions(minimal=minimal_bp, second=v_star,
                        second_energy=e_second, eta=eta_crit, separation=separation,
                        family_resolutions=family_grid,
                        sup_differences=pass_diffs, pass_history=pass_history)
