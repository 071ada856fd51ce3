"""Command-line harness: experiment orchestration and persistent outputs.

Usage: lichtorus <mode> --config <path> [--out <dir>] [--seed <u64>] [--verbose]

Exit codes: 0 success, 2 config error, 3 solver failure, 4 BLOWUP verdict,
5 I/O error.  A failure's exit code is its LichtorusError class's
`exit_code`; any other exception is a bug and propagates.  Artifacts are
written through a ".partial" rename so partial outputs are never listed in
the report manifest; failed runs write report.json too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time

from . import branch as branch_mod
from . import diagnostics as diag_mod
from . import mountain as mountain_mod
from .config import ConfigError, MODES, RunConfig, parse_config
from .core import critical_spec
from .diagnostics import BubbleSpec
from .errors import LichtorusError
from .fieldio import field_to_bytes

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_BLOWUP = 4
EXIT_IO = 5

# what a failed run's stderr line calls its failure, by exit code
FAILURE_LINES = {2: "config error", 3: "solver failure", 4: "blow-up detected"}


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_atomic(path: str, data: bytes):
    """Write data to path through a ".partial" file and a rename."""
    with open(path + ".partial", "wb") as fh:
        fh.write(data)
    os.replace(path + ".partial", path)


class OutputWriter:
    """Atomic artifact writer with a hash manifest; write_csv and write_field
    skip artifacts whose format the run did not ask for."""

    def __init__(self, directory: str, formats: list[str]):
        self.directory = directory
        self.formats = formats
        self.manifest: list[dict] = []
        os.makedirs(directory, exist_ok=True)

    def write_bytes(self, name: str, data: bytes):
        _write_atomic(os.path.join(self.directory, name), data)
        self.manifest.append({
            "name": name,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })

    def write_csv(self, name: str, header: list[str], rows: list[list]):
        if "csv" in self.formats:
            lines = [",".join(header)]
            lines += [",".join(_fmt(cell) for cell in row) for row in rows]
            self.write_bytes(name, ("\n".join(lines) + "\n").encode())

    def write_field(self, name: str, u):
        if "field" in self.formats:
            self.write_bytes(name, field_to_bytes(u))


def _branch_rows(points) -> list[list]:
    return [[p.theta, p.lam, p.solution.min(), p.solution.max(), p.energy,
             p.iterations] for p in points]

BRANCH_HEADER = ["theta", "lambda", "min_u", "max_u", "energy", "iterations"]
STABILITY_HEADER = ["q", "sup_u", "min_u", "mu", "deviation", "sup_diff",
                    "grad_diff", "verdict"]


def _run_solve(cfg: RunConfig, writer: OutputWriter, quantities: dict):
    par = cfg.parameters
    spec = critical_spec(cfg.coefficients(), par["theta"]).at(q=par["q"])
    out = branch_mod.minimal_solution(spec)
    point = branch_mod._branch_point(spec, out.solution, out.iterations)
    sol = point.solution
    quantities.update({
        "theta": par["theta"], "iterations": out.iterations,
        "residual_norm": out.residual_norm,
        "min_u": sol.min(), "max_u": sol.max(),
        "energy": point.energy, "lambda": point.lam,
    })
    writer.write_field("solution.field", sol)
    writer.write_csv("branch.csv", BRANCH_HEADER, _branch_rows([point]))
    return EXIT_OK


def _run_branch(cfg: RunConfig, writer: OutputWriter, quantities: dict):
    record = branch_mod.trace_branch(cfg.coefficients(), cfg.parameters["theta_schedule"],
                                     q=cfg.parameters["q"])
    quantities.update({
        "n_points": len(record.points),
        "theta_first": record.points[0].theta,
        "theta_last": record.points[-1].theta,
        "lambda_min": min(p.lam for p in record.points),
        "monotonicity_violation": record.monotonicity_violation,
    })
    writer.write_csv("branch.csv", BRANCH_HEADER, _branch_rows(record.points))
    writer.write_field("solution.field", record.points[-1].solution)
    return EXIT_OK


def _run_fold(cfg: RunConfig, writer: OutputWriter, quantities: dict):
    fold = branch_mod.find_theta_star(cfg.coefficients(),
                                      theta_hint=cfg.parameters["theta_hint"],
                                      tol=cfg.solver["fold_tol"])
    quantities.update({
        "theta_star": fold.theta_star,
        "bracket_lo": fold.bracket[0], "bracket_hi": fold.bracket[1],
        "lambda_last": fold.last_branch_point.lam,
        "refinement_steps": fold.refinement_steps,
        "coarse_theta_star": fold.coarse_theta_star,
        "coarse_refinement_steps": fold.coarse_refinement_steps,
        "upper_certificate": fold.upper_certificate,
        "upper_certificate_margin": fold.upper_certificate_margin,
    })
    writer.write_csv("branch.csv", BRANCH_HEADER, _branch_rows([fold.last_branch_point]))
    writer.write_field("solution.field", fold.last_branch_point.solution)
    return EXIT_OK


def _run_mountain_pass(cfg: RunConfig, writer: OutputWriter, quantities: dict):
    par = cfg.parameters
    pair = mountain_mod.critical_limit(cfg.coefficients(), par["theta"],
                                       eps_schedule=par["epsilon_schedule"],
                                       q_schedule=par["q_schedule"], seed=cfg.seed,
                                       ball_radius=cfg.solver["ball_radius"])
    quantities.update({
        "theta": par["theta"],
        "energy_minimal": pair.minimal.energy,
        "lambda_minimal": pair.minimal.lam,
        "eta": pair.eta,
        "second_energy": pair.second_energy,
        "separation": pair.separation,
        "distinct": pair.separation >= 1e-3,
        "sup_differences": pair.sup_differences,
        "family_resolutions": list(pair.family_resolutions),
    })
    writer.write_field("minimal.field", pair.minimal.solution)
    writer.write_field("second.field", pair.second)
    writer.write_csv("pass_levels.csv", ["stage", "pass_level"],
                     [[i, lvl] for i, lvl in enumerate(pair.pass_history)])
    return EXIT_OK


def _run_certificate(cfg: RunConfig, writer: OutputWriter, quantities: dict):
    cert = mountain_mod.certificate_theta1(cfg.coefficients())
    quantities.update({
        "n": cert.n, "C_n": cert.c_n,
        "S_h_estimate": cert.s_h_estimate, "heuristic": cert.heuristic,
        "t0": cert.t0, "t1": cert.t1, "phi_t0": cert.phi_t0,
        "theta1_lower_bound": cert.theta1_lower_bound,
    })
    writer.write_field("test_function.field", cert.test_function)
    return EXIT_OK


def _run_stability(cfg: RunConfig, writer: OutputWriter, quantities: dict):
    par, coeffs = cfg.parameters, cfg.coefficients()
    bumps = par["a_perturbations"]
    perturbations = None if bumps is None else [coeffs.a * amp for amp in bumps]
    result = diag_mod.stability_experiment(coeffs, par["theta"], par["q_schedule"],
                                           perturbations)
    quantities.update({
        "verdict": result.verdict,
        "n_members": len(result.members),
        "subsolution_floor": result.subsolution_floor,
        "final_diff": result.sup_differences[-1] if result.sup_differences else None,
    })
    # a member's differences are to the member before it; the first has none
    diffs = [None] + result.sup_differences
    grad_diffs = [None] + result.gradient_differences
    rows = [[m.q, m.sup_u, m.min_u, m.mu, m.deviation, d, g, result.verdict]
            for m, d, g in zip(result.members, diffs, grad_diffs)]
    writer.write_csv("stability.csv", STABILITY_HEADER, rows)
    return EXIT_BLOWUP if result.verdict == "BLOWUP" else EXIT_OK


def _run_bubble(cfg: RunConfig, writer: OutputWriter, quantities: dict):
    # f0 = n(n-2), so r0 = 1, at standard_bubble's spacing for n and at half of it
    spec = BubbleSpec(n=cfg.dim, f0=float(cfg.dim * (cfg.dim - 2)))
    rep1 = diag_mod.standard_bubble(spec, diag_mod.BUBBLE_WINDOW)
    rep2 = diag_mod.standard_bubble(spec, diag_mod.BUBBLE_WINDOW, spacing=rep1.spacing / 2)
    ratio = rep1.max_rel_residual / rep2.max_rel_residual
    quantities.update({
        "f0": spec.f0, "r0": spec.r0, "spacing": rep1.spacing,
        "residual": rep1.max_rel_residual,
        "residual_half_spacing": rep2.max_rel_residual,
        "refinement_ratio": ratio,
    })
    writer.write_csv("bubble.csv", ["spacing", "max_rel_residual"],
                     [[rep1.spacing, rep1.max_rel_residual],
                      [rep2.spacing, rep2.max_rel_residual]])
    return EXIT_OK


RUNNERS = {
    "solve": _run_solve,
    "branch": _run_branch,
    "fold": _run_fold,
    "mountain-pass": _run_mountain_pass,
    "certificate": _run_certificate,
    "stability-test": _run_stability,
    "bubble-check": _run_bubble,
}


def verify_manifest(out_dir: str) -> list[str]:
    """Check every manifest entry of a run report; returns mismatch messages."""
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    for entry in report.get("files", []):
        path = os.path.join(out_dir, entry["name"])
        if not os.path.exists(path):
            problems.append(f"{entry['name']}: missing")
            continue
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest != entry["sha256"]:
            problems.append(f"{entry['name']}: sha256 mismatch")
    return problems


def run(cfg: RunConfig, out_dir: str | None = None,
        seed: int | None = None) -> tuple[dict, int]:
    """Execute one configured run; returns (report, exit_code) and writes
    the artifacts plus report.json into the output directory.  A failed run
    still writes report.json, with the error and an empty manifest."""
    if seed is not None:
        cfg.seed = seed
    if out_dir is not None:
        cfg.out_dir = out_dir

    report = {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "config": cfg.normalized(),
        "quantities": {},
        "timings": {},
        "files": [],
    }
    writer = OutputWriter(cfg.out_dir, cfg.formats)
    t0 = time.perf_counter()
    try:
        code = RUNNERS[cfg.mode](cfg, writer, report["quantities"])
        report["files"] = writer.manifest
    except LichtorusError as exc:
        code = exc.exit_code
        report["error_class"] = type(exc).__name__
        report["error"] = str(exc)
    report["timings"]["total_seconds"] = time.perf_counter() - t0
    report["exit_code"] = code
    report["status"] = {EXIT_OK: "ok", EXIT_BLOWUP: "blowup"}.get(code, "failed")
    _write_atomic(os.path.join(cfg.out_dir, "report.json"),
                  json.dumps(report, indent=2, sort_keys=True, default=str).encode())
    return report, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lichtorus",
        description="Numerical laboratory for Lichnerowicz-type critical "
                    "elliptic equations on flat tori.")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be a nonnegative integer")
        cfg = parse_config(text)
        if cfg.mode != args.mode:
            raise ConfigError(f"mode: config says {cfg.mode!r} but the command "
                              f"line says {args.mode!r}")
    except ConfigError as exc:
        print(f"{FAILURE_LINES[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code

    try:
        report, code = run(cfg, out_dir=args.out, seed=args.seed)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    if "error" in report:
        print(f"{FAILURE_LINES[code]}: {report['error']}", file=sys.stderr)
        return code

    for key, val in sorted(report["quantities"].items()):
        print(f"{key} = {val}")
    print(f"report: {os.path.join(cfg.out_dir, 'report.json')}")
    return code


if __name__ == "__main__":
    sys.exit(main())
