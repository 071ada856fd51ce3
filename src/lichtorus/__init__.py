"""Numerical laboratory for Lichnerowicz-type critical elliptic equations
on flat tori: minimal solutions, fold location, mountain-pass second
solutions, and subcritical stability experiments."""

from .branch import (
    BranchPoint,
    BranchRecord,
    FoldResult,
    Subsolution,
    build_subsolution,
    find_theta_star,
    monotone_iterate,
    newton_refine,
    trace_branch,
)
from .core import (
    Coefficients,
    EigenResult,
    ProblemSpec,
    coercivity_check,
    critical_exponent,
    critical_spec,
    energy,
    energy_gradient,
    linearized_apply,
    linearized_potential,
    residual,
    smallest_eigenpair,
    sobolev_constant_estimate,
)
from .diagnostics import (
    BubbleSpec,
    rescaled_profile_compare,
    stability_experiment,
    standard_bubble,
)
from .errors import Blowup, LichtorusError, SolverFailure
from .grid import (
    ScalarField,
    TorusGrid,
    build_grid,
    constant_field,
    cosine_field,
    gradient,
    h1h_norm,
    helmholtz_solve,
    integrate,
    l2_inner,
    laplacian,
    lp_norm,
)
from .mountain import (
    Certificate,
    TwoSolutions,
    certificate_theta1,
    critical_limit,
    minimize_in_ball,
    mountain_pass_solve,
)

__version__ = "0.1.0"
