"""Run configuration: strict JSON parsing and construction of problem objects.

Configs are JSON with the blocks documented in the README: mode, grid,
coefficients (constant plus truncated cosine series), parameters, solver and
output.  Validation is strict: unknown keys are errors, and so are
parameters and solver keys that the mode does not read (MODE_KEYS); every
violation is reported with its key path.  KEYS states each of those keys'
kind and default once.  A RunConfig keeps the validated JSON blocks, the
mode's keys with their defaults filled in, and echoes them as they are, so
a run is reproducible from the report alone.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

from .core import Coefficients, critical_exponent
from .errors import LichtorusError
from .grid import ScalarField, TorusGrid, build_grid, constant_field, cosine_field

# The parameters and solver keys that each mode's runner reads; a mode
# refuses every other key of those two blocks.  True marks a required key.
MODE_KEYS = {
    "solve": {"parameters": {"theta": True, "q": False}},
    "branch": {"parameters": {"theta_schedule": True, "q": False}},
    "fold": {"parameters": {"theta_hint": False}, "solver": {"fold_tol": False}},
    "mountain-pass": {"parameters": {"theta": True, "q_schedule": False,
                                     "epsilon_schedule": False},
                      "solver": {"ball_radius": False}},
    "certificate": {},
    "stability-test": {"parameters": {"theta": True, "q_schedule": True,
                                      "a_perturbations": False}},
    "bubble-check": {},
}
MODES = tuple(MODE_KEYS)
# Each parameters and solver key's kind and default.  A kind is a number
# type, or for a schedule the order its entries must have.
KEYS = {
    "theta": (float, None),
    "theta_hint": (float, 0.1),
    "theta_schedule": ("increasing", None),
    "q": (float, None),                      # None: the critical exponent 2*
    "q_schedule": ("increasing", None),      # None: critical_limit's default
    "epsilon_schedule": ("decreasing", None),  # None: critical_limit's default
    "a_perturbations": ("unordered", None),
    "fold_tol": (float, 1e-4),
    "ball_radius": (float, None),            # None: the certificate's t0
}
MAX_POINTS = 2**22   # points of a solver grid


class ConfigError(LichtorusError):
    """Invalid configuration, with the offending key path in the message."""

    exit_code = 2


@dataclass
class RunConfig:
    mode: str
    dim: int
    resolutions: list[int]
    periods: list[float]
    h: dict
    f: dict
    a: dict
    parameters: dict
    solver: dict
    out_dir: str
    formats: list[str]
    seed: int

    def grid(self) -> TorusGrid:
        return build_grid(self.dim, self.resolutions, self.periods)

    def coefficients(self) -> Coefficients:
        grid = self.grid()

        def build(block: dict) -> ScalarField:
            out = constant_field(grid, block["constant"])
            for term in block["cosines"]:
                out = out + cosine_field(grid, **term)
            return out
        try:
            return Coefficients(build(self.h), build(self.f), build(self.a))
        except ValueError as exc:
            raise ConfigError(f"coefficients: {exc}") from exc

    def normalized(self) -> dict:
        """Echo of the mode's keys with defaults materialized (JSON-serializable)."""
        return {
            "mode": self.mode,
            "grid": {"dim": self.dim, "resolutions": self.resolutions,
                     "periods": self.periods},
            "coefficients": {"h": self.h, "f": self.f, "a": self.a},
            "parameters": self.parameters,
            "solver": self.solver,
            "output": {"directory": self.out_dir, "formats": self.formats},
            "seed": self.seed,
        }


def _require_keys(obj: dict, allowed: set[str], path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _mode_block(raw: dict, block: str, mode: str) -> dict:
    """raw's parameters or solver block, refused unless it holds only keys
    the mode reads and every key it requires; returns each key the mode
    reads, of its KEYS kind, or its default when left out."""
    obj = raw.get(block) or {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{block}: expected an object")
    _require_keys(obj, {k for keys in MODE_KEYS.values() for k in keys.get(block, {})},
                  block)
    reads = MODE_KEYS[mode].get(block, {})
    for key in obj:
        if key not in reads:
            raise ConfigError(f"{block}.{key}: not read in mode {mode!r}")
    for key, required in reads.items():
        if required and obj.get(key) is None:
            raise ConfigError(f"{block}.{key}: required for mode {mode!r}")
    return {key: _get(obj, block, key, *KEYS[key]) for key in reads}


def _get(obj: dict, path: str, key: str, kind, default=None, required=False):
    if key not in obj or obj[key] is None:
        if required:
            raise ConfigError(f"{path}.{key}: required key missing")
        return default
    val = obj[key]
    if isinstance(kind, str):
        return _check_schedule(val, f"{path}.{key}", kind)
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if isinstance(val, bool) or not isinstance(val, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _parse_coefficient(obj, dim: int, path: str) -> dict:
    """obj as {"constant", "cosines": [{"amplitude", "wavevector", "phase"}]},
    numbers as floats and the phase 0.0 when left out."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _require_keys(obj, {"constant", "cosines"}, path)
    constant = _get(obj, path, "constant", float, required=True)
    cosines = []
    for i, term in enumerate(obj.get("cosines") or []):
        tpath = f"{path}.cosines[{i}]"
        if not isinstance(term, dict):
            raise ConfigError(f"{tpath}: expected an object")
        _require_keys(term, {"amplitude", "wavevector", "phase"}, tpath)
        amp = _get(term, tpath, "amplitude", float, required=True)
        wv = term.get("wavevector")
        if (not isinstance(wv, list) or len(wv) != dim
                or not all(isinstance(k, int) and not isinstance(k, bool) for k in wv)):
            raise ConfigError(f"{tpath}.wavevector: expected {dim} integers")
        phase = _get(term, tpath, "phase", float, default=0.0)
        cosines.append({"amplitude": amp, "wavevector": wv, "phase": phase})
    return {"constant": constant, "cosines": cosines}


def _check_schedule(seq, path: str, order: str):
    """seq as a nonempty list of floats, strictly increasing or decreasing
    as order says, unless it is "unordered"."""
    if not isinstance(seq, list) or not seq:
        raise ConfigError(f"{path}: expected a nonempty list")
    vals = []
    for i, v in enumerate(seq):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{path}[{i}]: expected a number")
        vals.append(float(v))
    if order != "unordered" and any(b <= a if order == "increasing" else b >= a
                                    for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{path}: schedule must be strictly {order}")
    return vals


def _finite_number(text: str, kind=float):
    """json hook for every number literal: NaN, Infinity and literals beyond
    the float range are refused rather than handed to the solvers."""
    try:
        val = kind(text)
        finite = math.isfinite(val)
    except (OverflowError, ValueError):
        finite = False
    if not finite:
        shown = text if len(text) <= 24 else text[:20] + "..."
        raise ConfigError(f"config number {shown}: not a finite number")
    return val


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; raises ConfigError on any problem."""
    try:
        raw = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number,
                         parse_int=functools.partial(_finite_number, kind=int))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config syntax error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    _require_keys(raw, {"mode", "grid", "coefficients", "parameters",
                        "solver", "output", "seed"}, "top level")

    mode = _get(raw, "top level", "mode", str, required=True)
    if mode not in MODES:
        raise ConfigError(f"mode: unknown mode {mode!r} (choose from {', '.join(MODES)})")

    grid_obj = raw.get("grid")
    if not isinstance(grid_obj, dict):
        raise ConfigError("grid: required block missing")
    _require_keys(grid_obj, {"dim", "resolutions", "periods"}, "grid")
    dim = _get(grid_obj, "grid", "dim", int, required=True)
    if dim not in (3, 4, 5):
        raise ConfigError(f"grid.dim: dimension out of range: {dim}")
    resolutions = grid_obj.get("resolutions")
    if not isinstance(resolutions, list) or len(resolutions) != dim:
        raise ConfigError(f"grid.resolutions: expected {dim} entries")
    for i, n in enumerate(resolutions):
        if not isinstance(n, int) or isinstance(n, bool) or n < 4 or n % 2:
            raise ConfigError(f"grid.resolutions[{i}]: must be an even integer >= 4")
    npoints = math.prod(resolutions)
    if npoints > MAX_POINTS:
        raise ConfigError(f"grid.resolutions: the grid has {npoints} points, "
                          f"more than {MAX_POINTS}")
    periods = grid_obj.get("periods")
    if not isinstance(periods, list) or len(periods) != dim:
        raise ConfigError(f"grid.periods: expected {dim} entries")
    pvals = []
    for i, p in enumerate(periods):
        if isinstance(p, bool) or not isinstance(p, (int, float)) or p <= 0:
            raise ConfigError(f"grid.periods[{i}]: must be a positive number")
        pvals.append(float(p))
    # the grid volume, the cell volume and the largest Laplacian symbol
    # sum (pi N_i / L_i)^2 must be finite positive floats, or the run's
    # quadratures and transforms turn non-finite
    volume = math.prod(pvals)
    top_symbol = sum((math.pi * n / p) * (math.pi * n / p)
                     for n, p in zip(resolutions, pvals))
    if not all(0 < x < math.inf for x in (volume, volume / npoints, top_symbol)):
        raise ConfigError("grid.periods: the grid volume, cell volume or largest "
                          "Laplacian symbol is not a finite positive number")

    coeff_obj = raw.get("coefficients")
    if not isinstance(coeff_obj, dict):
        raise ConfigError("coefficients: required block missing")
    _require_keys(coeff_obj, {"h", "f", "a"}, "coefficients")
    for name in ("h", "f", "a"):
        if name not in coeff_obj:
            raise ConfigError(f"coefficients.{name}: required key missing")
    h = _parse_coefficient(coeff_obj["h"], dim, "coefficients.h")
    f = _parse_coefficient(coeff_obj["f"], dim, "coefficients.f")
    a = _parse_coefficient(coeff_obj["a"], dim, "coefficients.a")

    par = _mode_block(raw, "parameters", mode)
    theta, theta_hint = par.get("theta"), par.get("theta_hint")
    if theta is not None and theta < 0:
        raise ConfigError("parameters.theta: must be >= 0")
    if theta_hint is not None and theta_hint <= 0:
        raise ConfigError("parameters.theta_hint: must be positive")
    if par.get("theta_schedule") and par["theta_schedule"][0] < 0:
        raise ConfigError("parameters.theta_schedule: entries must be >= 0")
    q, q_schedule = par.get("q"), par.get("q_schedule")
    ts = critical_exponent(dim)
    if q is not None and not (2.0 <= q <= ts + 1e-12):
        raise ConfigError(f"parameters.q: must lie in [2, {ts}]")
    if q_schedule and not (2.0 <= q_schedule[0] and q_schedule[-1] <= ts + 1e-12):
        raise ConfigError(f"parameters.q_schedule: entries must lie in [2, 2* = {ts}]")
    if mode == "mountain-pass" and q_schedule and q_schedule[-1] >= ts:
        raise ConfigError(f"parameters.q_schedule: mountain-pass entries must be "
                          f"below 2* = {ts}")
    if par.get("epsilon_schedule") and par["epsilon_schedule"][-1] <= 0:
        raise ConfigError("parameters.epsilon_schedule: entries must be positive")
    a_perturbations = par.get("a_perturbations")
    for i, v in enumerate(a_perturbations or []):
        if v <= -1.0:
            raise ConfigError(f"parameters.a_perturbations[{i}]: relative bump must "
                              "be > -1 (a stays nonnegative)")
    if a_perturbations and len(a_perturbations) != len(q_schedule):
        raise ConfigError("parameters.a_perturbations: length must match q_schedule")

    sol = _mode_block(raw, "solver", mode)
    fold_tol, ball_radius = sol.get("fold_tol"), sol.get("ball_radius")
    if fold_tol is not None and fold_tol <= 0:
        raise ConfigError("solver.fold_tol: tolerance must be positive")
    if ball_radius is not None and ball_radius <= 0:
        raise ConfigError("solver.ball_radius: must be positive")

    out = raw.get("output") or {}
    if not isinstance(out, dict):
        raise ConfigError("output: expected an object")
    _require_keys(out, {"directory", "formats"}, "output")
    out_dir = _get(out, "output", "directory", str, default="out")
    formats = out.get("formats", ["csv", "field"])
    if (not isinstance(formats, list)
            or any(fmt not in ("csv", "field") for fmt in formats)):
        raise ConfigError("output.formats: entries must be 'csv' or 'field'")

    seed = _get(raw, "top level", "seed", int, default=0)
    if seed < 0:
        raise ConfigError("seed: must be a nonnegative integer")

    return RunConfig(mode=mode, dim=dim, resolutions=list(resolutions),
                     periods=pvals, h=h, f=f, a=a, parameters=par, solver=sol,
                     out_dir=out_dir, formats=list(formats), seed=seed)
