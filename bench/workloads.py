"""The benchmark's workloads: the configs a user would write, and the checks
of every output against the references in oracles.py.

Each workload is a list of configs that one round runs through cli.run, one
after the other.  The --seed of a run becomes every config's `seed`; the
problems themselves are fixed, so the work of a round does not depend on it.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

UNIT = {"constant": 1.0, "cosines": []}
# the README example: a = 1 + 0.3 cos(2 pi x1)
COSINE_A = {"constant": 1.0, "cosines": [
    {"amplitude": 0.3, "wavevector": [1, 0, 0], "phase": 0.0}]}

FOLD_TOL = 5e-4          # theta_star against the reference fold
LAMBDA_TOL = 1e-3        # first eigenvalue at the last accepted branch point
RESIDUAL_TOL = 1e-8      # spectral residual of the written fold solution
PAIR_TOL = 1e-5          # mountain-pass pair against the scalar roots
MEMBER_TOL = 1e-8        # stability members against the scalar roots
ENERGY_SLACK = 1e-9      # eta <= I(v) up to this, as the program checks it


def _config(mode, dim, res, a, parameters, seed, solver=None) -> dict:
    return {
        "mode": mode,
        "grid": {"dim": dim, "resolutions": [res] * dim, "periods": [1.0] * dim},
        "coefficients": {"h": UNIT, "f": UNIT, "a": a},
        "parameters": parameters,
        "solver": solver or {},
        "output": {"formats": ["csv", "field"]},
        "seed": seed,
    }


def _report(out_dir) -> dict:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _problem_data(config: dict):
    """(q, h, f, a, periods) on the config's grid, built by the benchmark."""
    grid = config["grid"]
    dim, res, periods = grid["dim"], grid["resolutions"], grid["periods"]
    q = 2.0 * dim / (dim - 2.0)
    coeffs = config["coefficients"]
    h, f, a = (oracles.coefficient_values(coeffs[k], res, periods) for k in "hfa")
    return q, h, f, a, periods


# -- fold -------------------------------------------------------------------

def fold_configs(seed: int) -> list[dict]:
    params, solver = {"theta_hint": 0.1}, {"fold_tol": 1e-4}
    return [_config("fold", 3, 16, COSINE_A, params, seed, solver),
            _config("fold", 4, 12, UNIT, params, seed, solver)]


def reference_fold(config: dict) -> float:
    """Constant a: the scalar fold.  a varying along x1 only: the minimal
    solutions and the null vector depend on x1 alone, so the n-D discrete
    fold is the fold of the 1-D periodic problem on the x1 grid."""
    q, h, f, a, periods = _problem_data(config)
    if not (np.all(h == 1.0) and np.all(f == 1.0)):
        raise ValueError("fold reference needs h = f = 1")
    if np.all(a == a.flat[0]):
        return oracles.scalar_fold(q, float(a.flat[0]))
    line = a[(slice(None),) + (0,) * (a.ndim - 1)]
    if not np.all(a == line.reshape((-1,) + (1,) * (a.ndim - 1))):
        raise ValueError("fold reference needs a to depend on x1 only")
    return oracles.fold_1d(line, q, period=periods[0])


def check_fold(config: dict, out_dir) -> list[str]:
    qn = _report(out_dir)["quantities"]
    tag = f"fold n={config['grid']['dim']}"
    problems = []
    ref = reference_fold(config)
    if not abs(qn["theta_star"] - ref) <= FOLD_TOL:
        problems.append(f"{tag}: theta_star {qn['theta_star']!r} vs reference {ref!r}")
    if not abs(qn["lambda_last"]) <= LAMBDA_TOL:
        problems.append(f"{tag}: |lambda_last| = {abs(qn['lambda_last']):.3e}")
    if not qn["bracket_lo"] < qn["theta_star"] <= qn["bracket_hi"]:
        problems.append(f"{tag}: theta_star outside (bracket_lo, bracket_hi]")
    q, h, f, a, periods = _problem_data(config)
    u, field_periods = oracles.read_field(os.path.join(out_dir, "solution.field"))
    if u.shape != tuple(config["grid"]["resolutions"]) or \
            tuple(field_periods) != tuple(periods):
        problems.append(f"{tag}: solution.field grid {u.shape} does not match the config")
        return problems
    # the written field is the last accepted branch point, at bracket_lo
    res = oracles.residual_sup(u, periods, q, qn["bracket_lo"], h, f, a)
    if not res <= RESIDUAL_TOL:
        problems.append(f"{tag}: residual of solution.field is {res:.3e}")
    return problems


# -- mountain ---------------------------------------------------------------

# One continuation stage, epsilon 1e-6 at q = 6 - 2^-8.  The default
# schedule has 13 stages and takes about 10 s, so a run would hold one or
# two of them; this stage does the same kinds of work in under a second,
# and a run takes the median of about a dozen.
MOUNTAIN_EPS = [1e-6]
MOUNTAIN_QS = [6.0 - 2.0 ** -8]


def mountain_configs(seed: int) -> list[dict]:
    params = {"theta": 0.1, "epsilon_schedule": MOUNTAIN_EPS, "q_schedule": MOUNTAIN_QS}
    return [_config("mountain-pass", 3, 12, UNIT, params, seed)]


def check_mountain(config: dict, out_dir) -> list[str]:
    report = _report(out_dir)
    theta = config["parameters"]["theta"]
    q, h, f, a, periods = _problem_data(config)
    c1, c2 = oracles.scalar_roots(theta, q)
    u, _ = oracles.read_field(os.path.join(out_dir, "minimal.field"))
    v, _ = oracles.read_field(os.path.join(out_dir, "second.field"))
    problems = []
    if not np.abs(u - c1).max() <= PAIR_TOL:
        problems.append(f"mountain: minimal solution off the root {c1!r} by "
                        f"{np.abs(u - c1).max():.3e}")
    if not np.abs(v - c2).max() <= PAIR_TOL:
        problems.append(f"mountain: second solution off the root {c2!r} by "
                        f"{np.abs(v - c2).max():.3e}")
    if not np.all(u <= v):
        problems.append("mountain: minimal solution exceeds the second somewhere")
    eta = report["quantities"]["eta"]
    e_u = oracles.energy(u, periods, q, theta, h, f, a)
    e_v = oracles.energy(v, periods, q, theta, h, f, a)
    if not e_u < eta <= e_v + ENERGY_SLACK:
        problems.append(f"mountain: energy ordering I(u)={e_u!r} < eta={eta!r} "
                        f"<= I(v)={e_v!r} fails")
    return problems


# -- stability --------------------------------------------------------------

STABILITY_QS = [10.0 / 3.0 - 2.0 ** -k for k in range(2, 8)]
STABILITY_BUMPS = [0.04 * 2.0 ** -k for k in range(6)]


def stability_configs(seed: int) -> list[dict]:
    params = {"theta": 0.05, "q_schedule": STABILITY_QS,
              "a_perturbations": STABILITY_BUMPS}
    return [_config("stability-test", 5, 6, UNIT, params, seed)]


def check_stability(config: dict, out_dir) -> list[str]:
    report = _report(out_dir)
    params = config["parameters"]
    problems = []
    if report["quantities"]["verdict"] != "CONVERGED":
        problems.append(f"stability: verdict {report['quantities']['verdict']}")
    with open(os.path.join(out_dir, "stability.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(params["q_schedule"]):
        problems.append(f"stability: {len(rows)} members for "
                        f"{len(params['q_schedule'])} schedule entries")
    for row, q, bump in zip(rows, params["q_schedule"], params["a_perturbations"]):
        c, _ = oracles.scalar_roots(params["theta"], q, a=1.0 + bump)
        err = max(abs(float(row["sup_u"]) - c), abs(float(row["min_u"]) - c))
        if float(row["q"]) != q or not err <= MEMBER_TOL or row["verdict"] != "CONVERGED":
            problems.append(f"stability: member q={row['q']} off the root {c!r} "
                            f"by {err:.3e} (verdict {row['verdict']})")
    return problems


@dataclass(frozen=True)
class Workload:
    configs: Callable[[int], list[dict]]
    check: Callable[[dict, str], list[str]]
    gauge: str  # the kind of work of gauge.py that the workload's time goes to


WORKLOADS = {
    "fold": Workload(fold_configs, check_fold, "fft"),
    "mountain": Workload(mountain_configs, check_mountain, "fft"),
    "stability": Workload(stability_configs, check_stability, "interp"),
}
