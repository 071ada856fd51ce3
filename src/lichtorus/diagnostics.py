"""Blow-up forensics: standard bubbles, rescaled profiles, stability runs.

Concentrating solution families look, after rescaling by the blow-up scale
mu = (sup u)^(-(q-2)/2), like the radial profile

    U(x) = (1 + f0 |x|^2 / (n(n-2)))^(-(n-2)/2),

which solves Delta U = f0 U^(2*-1) on R^n.  The comparison means something
only while mu is well below the torus periods (mu/period <= 0.1,
CONCENTRATION_RATIO).  The stability experiment solves the subcritical family,
locates every member's peak and mu, compares with the bubble only the members
that concentrate, and issues CONVERGED when no concentration is seen, keeping
BLOWUP as a first-class outcome with the profile evidence attached.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .branch import build_subsolution, minimal_solution
from .core import Coefficients, ProblemSpec, critical_exponent
from .errors import SolverFailure
from .grid import ScalarField, gradient

log = logging.getLogger(__name__)

# mu / min(period) at or below which the rescaled window stays well inside one
# period, so that the bubble comparison means something
CONCENTRATION_RATIO = 0.1


def map_coordinates(*args, **kwargs):
    """scipy.ndimage.map_coordinates, imported on first call: only the bubble
    comparison interpolates, so `import lichtorus` leaves scipy unloaded."""
    from scipy.ndimage import map_coordinates as interpolate
    return interpolate(*args, **kwargs)


class StructuralViolationError(SolverFailure):
    """Blow-up forensics found f <= 0 at the concentration point."""


@dataclass(frozen=True)
class BubbleSpec:
    """Parameters of a standard bubble: dimension and f0 = f(x0) > 0."""

    n: int
    f0: float

    def __post_init__(self):
        if self.n not in (3, 4, 5):
            raise ValueError("n must be 3, 4 or 5")
        if self.f0 <= 0:
            raise ValueError("f0 must be positive")

    @property
    def r0(self) -> float:
        return float(np.sqrt(self.n * (self.n - 2) / self.f0))


@dataclass
class BubbleResidualReport:
    max_rel_residual: float
    spacing: float


@dataclass(frozen=True)
class Peak:
    """Where u peaks, f0 = f there, and the blow-up scale mu of that peak."""

    center_index: tuple[int, ...]
    value: float
    f0: float
    mu: float
    mu_over_period: float


@dataclass
class ProfileReport:
    mu: float
    center_index: tuple[int, ...]
    f0: float
    deviation: float
    mu_over_period: float
    concentrated: bool


@dataclass
class StabilityMember:
    q: float
    sup_u: float
    min_u: float
    mu: float
    deviation: float | None  # None unless mu/period <= CONCENTRATION_RATIO
    iterations: int


@dataclass
class StabilityResult:
    members: list[StabilityMember]
    verdict: str                      # CONVERGED or BLOWUP
    sup_differences: list[float]
    gradient_differences: list[float]  # C^1 content, checked at sup-norm level
    subsolution_floor: float


def bubble_profile(spec: BubbleSpec, radii_sq: np.ndarray) -> np.ndarray:
    """U at squared distances |x|^2 from the center."""
    return (1.0 + radii_sq / spec.r0**2) ** (-(spec.n - 2) / 2.0)


# bubble-check's window half-width (r0 = 1 there) and standard_bubble's
# default spacing r0 / BUBBLE_DIVISIONS[n]: at half that spacing the window
# holds 129^3, 33^4 and 17^5 points, all within config.MAX_POINTS
BUBBLE_WINDOW = 0.5
BUBBLE_DIVISIONS = {3: 64, 4: 16, 5: 8}


def standard_bubble(spec: BubbleSpec, window_half_width: float,
                    spacing: float | None = None) -> BubbleResidualReport:
    """Sample the bubble on a local fine grid and report its PDE residual.

    The residual max |Delta_fd U - f0 U^(2*-1)| / max U^(2*-1) over interior
    points uses 4th-order central differences, so it measures pure
    discretization error, O(h^4) under refinement.  The spacing defaults to
    r0 / BUBBLE_DIVISIONS[n].
    """
    h = spacing if spacing is not None else spec.r0 / BUBBLE_DIVISIONS[spec.n]
    m = int(round(window_half_width / h))
    if m < 3:
        raise ValueError("window too small relative to the 4th-order stencil")
    axis = np.arange(-m, m + 1) * h
    mesh = np.meshgrid(*([axis] * spec.n), indexing="ij")
    r2 = sum(x**2 for x in mesh)
    u = bubble_profile(spec, r2)

    # geometer's sign: Delta = -sum d^2/dx_i^2
    lap = np.zeros_like(u)
    for ax in range(spec.n):
        for shift, w in ((-2, -1.0 / 12), (-1, 16.0 / 12), (0, -30.0 / 12),
                         (1, 16.0 / 12), (2, -1.0 / 12)):
            lap += w * np.roll(u, shift, axis=ax)
    lap = -lap / h**2

    ts = critical_exponent(spec.n)
    rhs = spec.f0 * u ** (ts - 1.0)
    interior = tuple(slice(2, -2) for _ in range(spec.n))
    resid = np.abs(lap[interior] - rhs[interior])
    rel = float(resid.max() / rhs.max())
    return BubbleResidualReport(max_rel_residual=rel, spacing=h)


def locate_peak(u: ScalarField, f: ScalarField, q: float) -> Peak:
    """The peak of u and its blow-up scale mu = (sup u)^(-(q-2)/2).

    Raises StructuralViolationError when f <= 0 at the peak, where blow-up
    is structurally impossible.
    """
    grid = u.grid
    center_index = np.unravel_index(int(np.argmax(u.values)), grid.resolutions)
    peak = float(u.values[center_index])
    if peak <= 0:
        raise ValueError("u must have a positive maximum")
    f0 = float(f.values[center_index])
    if f0 <= 0:
        raise StructuralViolationError(
            f"f = {f0:.3e} <= 0 at the concentration point; blow-up there is "
            "structurally impossible"
        )
    mu = peak ** (-(q - 2.0) / 2.0)
    return Peak(center_index=tuple(int(i) for i in center_index), value=peak,
                f0=f0, mu=mu, mu_over_period=mu / min(grid.periods))


def rescaled_profile_compare(u: ScalarField, f: ScalarField, q: float,
                             window: float = 5.0,
                             samples_per_unit: int | None = None) -> ProfileReport:
    """Deviation of the rescaled solution from the standard bubble.

    Finds the peak, rescales by mu = (sup u)^(-(q-2)/2), interpolates u on
    the window |x| <= window (in mu units) and compares with the bubble at
    f0 = f(x_peak).  Only meaningful when mu is well below the torus periods;
    the mu/period ratio is reported alongside.
    """
    grid = u.grid
    n = grid.dim
    if samples_per_unit is None:
        # the window lattice has (2 * window * s + 1)^n points; keep it flat
        samples_per_unit = {3: 4, 4: 2, 5: 1}[n]
    peak = locate_peak(u, f, q)

    spec = BubbleSpec(n=n, f0=peak.f0)
    m = int(window * samples_per_unit)
    axis = np.arange(-m, m + 1) / samples_per_unit
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    r2 = sum(x**2 for x in mesh)
    ball = r2 <= window**2
    target = bubble_profile(spec, r2[ball])

    # fractional grid coordinates of the ball points, torus-wrapped
    coords = []
    for ax in range(n):
        spacing = grid.periods[ax] / grid.resolutions[ax]
        coords.append(peak.center_index[ax] + mesh[ax][ball] * peak.mu / spacing)
    sampled = map_coordinates(u.values, np.stack(coords), order=3, mode="grid-wrap")
    rescaled = sampled / peak.value  # mu^(2/(q-2)) u with mu = peak^(-(q-2)/2)
    deviation = float(np.abs(rescaled - target).max())

    ratio = peak.mu_over_period
    return ProfileReport(mu=peak.mu, center_index=peak.center_index,
                         f0=peak.f0, deviation=deviation, mu_over_period=ratio,
                         concentrated=bool(ratio <= CONCENTRATION_RATIO
                                           and deviation <= 0.1))


def member_profile(u: ScalarField, f: ScalarField, q: float) -> tuple[Peak, float | None]:
    """The peak of u and, only where mu/period <= CONCENTRATION_RATIO, the
    deviation of rescaled_profile_compare; None where the comparison would
    wrap the torus and mean nothing."""
    peak = locate_peak(u, f, q)
    if peak.mu_over_period > CONCENTRATION_RATIO:
        return peak, None
    return peak, rescaled_profile_compare(u, f, q).deviation


def stability_experiment(coeffs: Coefficients, theta: float, q_schedule,
                         a_perturbations=None) -> StabilityResult:
    """Solve the subcritical family (EL_{q_k}) with perturbed a and classify.

    a_perturbations: optional list of fields added to a (same length as the
    q schedule).  Every member records its peak, mu and minimum; the bubble
    deviation is computed only for members with mu/period <=
    CONCENTRATION_RATIO and is None for the rest.  The result also carries the
    successive sup-norm and gradient sup-norm differences (the C^0 and C^1
    content of the stability theorem).  Verdict CONVERGED when successive
    sup-norm differences decrease and no concentration indicators fire;
    BLOWUP otherwise, with the per-member mu and profile evidence in the
    record.
    """
    qs = [float(q) for q in q_schedule]
    ts = critical_exponent(coeffs.grid.dim)
    if any(q < 2.0 or q > ts + 1e-12 for q in qs):
        raise ValueError("q schedule entries must lie in [2, 2*]")
    if a_perturbations is not None and len(a_perturbations) != len(qs):
        raise ValueError("one perturbation per schedule entry required")

    members, sols = [], []
    floor = np.inf
    for k, q in enumerate(qs):
        a_k = coeffs.a if a_perturbations is None else coeffs.a + a_perturbations[k]
        coeffs_k = Coefficients(coeffs.h, coeffs.f, a_k)
        spec = ProblemSpec(coeffs_k, q, theta=theta, epsilon=0.0)
        sub = build_subsolution(spec)
        floor = min(floor, sub.field.min())
        out = minimal_solution(spec, sub)
        sol = out.solution
        peak, deviation = member_profile(sol, coeffs.f, q)
        members.append(StabilityMember(q=q, sup_u=sol.max(), min_u=sol.min(),
                                       mu=peak.mu, deviation=deviation,
                                       iterations=out.iterations))
        sols.append(sol)

    diffs = [float(np.abs(b.values - a.values).max())
             for a, b in zip(sols, sols[1:])]
    grad_diffs = [max(p.sup_norm() for p in gradient(b - a))
                  for a, b in zip(sols, sols[1:])]
    decreasing = all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    floors_ok = all(m.min_u >= floor - 1e-12 for m in members)
    mus_ok = min(m.mu for m in members) > 1e-3
    sups_ok = max(m.sup_u for m in members) < 1e6
    verdict = "CONVERGED" if (decreasing and floors_ok and mus_ok and sups_ok) \
        else "BLOWUP"
    log.info("stability experiment: %s (final diff %.3e)", verdict,
             diffs[-1] if diffs else float("nan"))
    return StabilityResult(members=members, verdict=verdict,
                           sup_differences=diffs,
                           gradient_differences=grad_diffs,
                           subsolution_floor=float(floor))
