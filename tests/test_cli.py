import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lichtorus
from lichtorus import branch, cli, mountain
from lichtorus.cli import main, verify_manifest


def write_config(tmp_path, body, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def base_config(mode, out, **params):
    return {
        "mode": mode,
        "grid": {"dim": 3, "resolutions": [8, 8, 8], "periods": [1.0, 1.0, 1.0]},
        "coefficients": {
            "h": {"constant": 1.0},
            "f": {"constant": 1.0},
            "a": {"constant": 1.0},
        },
        "parameters": params,
        "output": {"directory": out},
        "seed": 3,
    }


def test_solve_mode(tmp_path):
    out = str(tmp_path / "out")
    cfgp = write_config(tmp_path, base_config("solve", out, theta=0.1))
    assert main(["solve", "--config", cfgp]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["quantities"]["residual_norm"] <= 1e-10
    assert abs(report["quantities"]["max_u"] - 0.8014635435028197) <= 1e-9
    assert verify_manifest(out) == []
    # the echo holds solve's keys only, and each value is stated once
    assert report["config"]["parameters"] == {"theta": 0.1, "q": None}
    assert report["config"]["solver"] == {}
    assert set(report["timings"]) == {"total_seconds"}


def test_fold_mode_report_and_csv(tmp_path):
    out = str(tmp_path / "out")
    cfg = base_config("fold", out, theta_hint=0.1)
    cfg["solver"] = {"fold_tol": 1e-4}
    cfgp = write_config(tmp_path, cfg)
    assert main(["fold", "--config", cfgp]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert abs(report["quantities"]["theta_star"] - 0.148148148148) <= 5e-4
    csv = (tmp_path / "out" / "branch.csv").read_text().splitlines()
    assert csv[0] == "theta,lambda,min_u,max_u,energy,iterations"
    assert len(csv) >= 2


def test_fold_determinism(tmp_path):
    cfg = base_config("fold", "ignored", theta_hint=0.1)
    cfgp = write_config(tmp_path, cfg)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["fold", "--config", cfgp, "--out", out1, "--seed", "11"]) == 0
    assert main(["fold", "--config", cfgp, "--out", out2, "--seed", "11"]) == 0
    b1 = (tmp_path / "a" / "branch.csv").read_bytes()
    b2 = (tmp_path / "b" / "branch.csv").read_bytes()
    assert b1 == b2


def test_fold_runs_share_no_state_through_the_workspace(tmp_path):
    # each grid owns scratch buffers that outlive a run: a 16^3 fold run
    # after a 12^4 one writes the same bytes as the 16^3 run before it
    cosine_a = {"constant": 1.0, "cosines": [
        {"amplitude": 0.3, "wavevector": [1, 0, 0], "phase": 0.0}]}
    configs = []
    for dim, res, a in [(3, 16, cosine_a), (4, 12, {"constant": 1.0})]:
        cfg = base_config("fold", "ignored", theta_hint=0.1)
        cfg["grid"] = {"dim": dim, "resolutions": [res] * dim, "periods": [1.0] * dim}
        cfg["coefficients"]["a"] = a
        cfg["solver"] = {"fold_tol": 1e-4}
        configs.append(write_config(tmp_path, cfg, f"fold{dim}.json"))
    for i, cfgp in enumerate([configs[0], configs[1], configs[0]]):
        assert main(["fold", "--config", cfgp, "--out", str(tmp_path / f"run{i}")]) == 0
    for name in ("solution.field", "branch.csv"):
        assert (tmp_path / "run0" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()


def test_branch_mode_csv_rows(tmp_path):
    out = str(tmp_path / "out")
    thetas = [round(0.01 + 0.012 * i, 6) for i in range(10)]
    cfgp = write_config(tmp_path, base_config("branch", out,
                                              theta_schedule=thetas))
    assert main(["branch", "--config", cfgp]) == 0
    rows = (tmp_path / "out" / "branch.csv").read_text().splitlines()
    assert len(rows) == 11  # header + 10 points
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["quantities"]["n_points"] == 10
    assert report["quantities"]["lambda_min"] > 0


def test_certificate_mode(tmp_path):
    out = str(tmp_path / "out")
    cfgp = write_config(tmp_path, base_config("certificate", out))
    assert main(["certificate", "--config", cfgp]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["quantities"]["C_n"] == 0.015625


def test_stability_mode_csv_rows(tmp_path):
    out = str(tmp_path / "out")
    qs = [6.0 - 1.0 / k for k in range(1, 7)]
    cfgp = write_config(tmp_path, base_config("stability-test", out,
                                              theta=0.1, q_schedule=qs))
    assert main(["stability-test", "--config", cfgp]) == 0
    rows = (tmp_path / "out" / "stability.csv").read_text().splitlines()
    assert len(rows) == 7  # header + 6 members
    assert rows[0] == "q,sup_u,min_u,mu,deviation,sup_diff,grad_diff,verdict"
    cells = [dict(zip(rows[0].split(","), row.split(","))) for row in rows[1:]]
    assert all(c["verdict"] == "CONVERGED" for c in cells)
    # every member has mu/period >= 1, so none is compared with the bubble
    assert all(c["deviation"] == "" for c in cells)
    assert cells[0]["sup_diff"] == cells[0]["grad_diff"] == ""
    assert all(float(c["grad_diff"]) >= 0 for c in cells[1:])


def test_stability_blowup_exit_code(tmp_path):
    out = str(tmp_path / "out")
    cfgp = write_config(tmp_path, base_config(
        "stability-test", out, theta=0.1,
        q_schedule=[5.0, 5.2, 5.4, 5.6],
        a_perturbations=[0.0, 0.3, -0.2, 0.25]))
    assert main(["stability-test", "--config", cfgp]) == 4


def test_stability_member_without_solution_exit_code(tmp_path):
    # at q = 7/3 the scalar fold is 0.0273, below theta: the first member
    # has no solution, which is a solver failure
    out = str(tmp_path / "out")
    cfg = base_config("stability-test", out, theta=0.05,
                      q_schedule=[10.0 / 3.0 - 1.0 / k for k in range(1, 7)])
    cfg["grid"] = {"dim": 5, "resolutions": [6] * 5, "periods": [1.0] * 5}
    cfgp = write_config(tmp_path, cfg)
    assert main(["stability-test", "--config", cfgp]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["error_class"] == "NoSolutionError"
    assert report["exit_code"] == 3
    assert report["files"] == []
    assert "q=" in report["error"]


def test_bubble_mode(tmp_path):
    # every default at each dimension, with f0 = n(n-2) so that r0 = 1; at
    # n = 3 the spacing is r0/64
    for dim in (3, 4, 5):
        out = tmp_path / f"out{dim}"
        cfg = base_config("bubble-check", str(out))
        cfg["grid"] = {"dim": dim, "resolutions": [8] * dim, "periods": [1.0] * dim}
        cfgp = write_config(tmp_path, cfg)
        assert main(["bubble-check", "--config", cfgp]) == 0
        q = json.loads((out / "report.json").read_text())["quantities"]
        assert (q["f0"], q["r0"], q["spacing"]) == (dim * (dim - 2), 1.0,
                                                    1.0 / {3: 64, 4: 16, 5: 8}[dim])
        assert q["residual"] <= {3: 1e-6, 4: 1e-4, 5: 2e-3}[dim]
        assert 12.0 <= q["refinement_ratio"] <= 20.0
    assert json.loads((tmp_path / "out3" / "report.json").read_text())["quantities"] == \
        pytest.approx({"f0": 3.0, "r0": 1.0, "spacing": 1.0 / 64,
                       "residual": 1.4885298090424234e-07,
                       "residual_half_spacing": 9.310345679599171e-09,
                       "refinement_ratio": 15.987911300695202}, rel=1e-9)


def test_bubble_check_builds_no_coefficients(tmp_path):
    # the check never reads the coefficients, so an f no other mode admits
    # changes nothing: at n = 3 its report and bubble.csv are those of f = 1
    outputs = {}
    for dim, f in ((4, -1.0), (3, -1.0), (3, 1.0)):
        out = tmp_path / f"out{dim}{f}"
        cfg = base_config("bubble-check", str(out))
        cfg["grid"] = {"dim": dim, "resolutions": [8] * dim, "periods": [1.0] * dim}
        cfg["coefficients"]["f"] = {"constant": f}
        assert main(["bubble-check", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads((out / "report.json").read_text())
        outputs[dim, f] = report["quantities"], (out / "bubble.csv").read_bytes()
    assert outputs[3, -1.0] == outputs[3, 1.0]


def test_mountain_pass_mode(tmp_path):
    out = str(tmp_path / "out")
    cfgp = write_config(tmp_path, base_config(
        "mountain-pass", out, theta=0.1,
        epsilon_schedule=[1e-2, 1e-4, 1e-6],
        q_schedule=[5.5, 5.75, 5.875]))
    assert main(["mountain-pass", "--config", cfgp]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    q = report["quantities"]
    assert q["energy_minimal"] < q["eta"] <= q["second_energy"] + 1e-9
    assert q["distinct"]
    assert abs(q["second_energy"] - 0.3516613758116537) <= 1e-6
    assert os.path.exists(tmp_path / "out" / "second.field")


def test_mountain_pass_variable_h_minimal_field(tmp_path, monkeypatch):
    # h = 1 + 0.3 cos(2 pi x3): the default ball radius is the certificate's
    # t0, and minimal.field holds the monotone-iteration minimal solution
    from lichtorus import mountain
    from lichtorus.config import parse_config
    from lichtorus.fieldio import field_to_bytes
    out = str(tmp_path / "out")
    cfg = base_config("mountain-pass", out, theta=0.05)
    cfg["coefficients"]["h"]["cosines"] = [
        {"amplitude": 0.3, "wavevector": [0, 0, 1], "phase": 0.0}]
    cfgp = write_config(tmp_path, cfg)
    radii, pairs = [], []
    real_barrier, real_limit = mountain.sphere_barrier, mountain.critical_limit

    def barrier(specs, radius, modes):
        radii.append(radius)
        return real_barrier(specs, radius, modes)

    def limit(*args, **kwargs):
        pairs.append(real_limit(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(mountain, "sphere_barrier", barrier)
    monkeypatch.setattr(mountain, "critical_limit", limit)
    assert main(["mountain-pass", "--config", cfgp]) == 0
    coeffs = parse_config(json.dumps(cfg)).coefficients()
    # the limit's barrier on the 8^3 grid, the stages' on its 4^3 half grid
    assert radii == [mountain.certificate_theta1(coeffs).t0] * 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["quantities"]["family_resolutions"] == [4, 4, 4]
    written = (tmp_path / "out" / "minimal.field").read_bytes()
    assert written == field_to_bytes(pairs[0].minimal.solution)


def test_fold_without_solution_exit_code(tmp_path, capsys):
    # f so large that Phase A halves theta below fold_tol without a solution
    out = str(tmp_path / "out")
    cfg = base_config("fold", out, theta_hint=0.1)
    cfg["coefficients"]["f"] = {"constant": 1e12}
    cfg["solver"] = {"fold_tol": 1e-3}
    cfgp = write_config(tmp_path, cfg)
    assert main(["fold", "--config", cfgp]) == 3
    assert "solver failure: no solution even at theta = 0.001" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["error_class"] == "NoSolutionError"
    assert report["exit_code"] == 3
    assert report["files"] == []
    assert not os.path.exists(os.path.join(out, "solution.field"))
    assert not os.path.exists(os.path.join(out, "branch.csv"))


def test_fold_newton_failure_exit_code(tmp_path, monkeypatch):
    # a failed extended Newton ends the fold run; no other answer is written
    def failing(*args):
        raise branch.NewtonError("forced failure of the extended Newton")

    monkeypatch.setattr(branch, "_fold_newton", failing)
    out = str(tmp_path / "out")
    cfgp = write_config(tmp_path, base_config("fold", out, theta_hint=0.1))
    assert main(["fold", "--config", cfgp]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["error_class"] == "NewtonError"
    assert report["exit_code"] == 3
    assert report["files"] == []


def test_config_error_exit_code(tmp_path):
    cfg = base_config("fold", str(tmp_path / "out"))
    cfg["metrics"] = "yes"
    cfgp = write_config(tmp_path, cfg)
    assert main(["fold", "--config", cfgp]) == 2


def test_key_the_mode_does_not_read_exit_code(tmp_path, capsys):
    # a fold config with the keys of other modes: the fold is that of
    # q = 2*, so the config's q would be echoed but not solved for
    out = str(tmp_path / "out")
    cfg = base_config("fold", out, q=4.0, theta=0.3, epsilon_schedule=[0.5])
    cfg["solver"] = {"ball_radius": 2.0}
    cfgp = write_config(tmp_path, cfg)
    assert main(["fold", "--config", cfgp]) == 2
    assert capsys.readouterr().err == \
        "config error: parameters.q: not read in mode 'fold'\n"
    assert not os.path.exists(out)


def test_mode_mismatch_exit_code(tmp_path):
    cfgp = write_config(tmp_path, base_config("fold", str(tmp_path / "out")))
    assert main(["certificate", "--config", cfgp]) == 2


def test_missing_config_io_exit_code(tmp_path):
    assert main(["fold", "--config", str(tmp_path / "nope.json")]) == 5


def test_solver_failure_exit_code(tmp_path):
    # theta above the fold: no solution anywhere near the hint
    out = str(tmp_path / "out")
    cfgp = write_config(tmp_path, base_config("solve", out, theta=0.2))
    assert main(["solve", "--config", cfgp]) == 3


def test_mountain_pass_above_fold_is_solver_failure(tmp_path):
    # no minimal solution above the fold 4/27: a solver failure, not a blow-up
    out = str(tmp_path / "out")
    cfgp = write_config(tmp_path, base_config(
        "mountain-pass", out, theta=0.2, epsilon_schedule=[1e-2], q_schedule=[5.5]))
    assert main(["mountain-pass", "--config", cfgp]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error_class"] == "NoSolutionError"


def test_mountain_pass_below_the_barrier_on_both_grids(tmp_path, caplog):
    # h = 1 + 0.9 cos(2 pi x3): Newton from the segment's highest point
    # lands below the barrier at the first stage, on the 4^3 half grid and
    # then on the 8^3 grid; nothing but the report is written
    caplog.set_level("DEBUG", logger="lichtorus.mountain")
    out = tmp_path / "out"
    cfg = base_config("mountain-pass", str(out), theta=0.05)
    cfg["coefficients"]["h"]["cosines"] = [
        {"amplitude": 0.9, "wavevector": [0, 0, 1], "phase": 0.0}]
    assert main(["mountain-pass", "--config", write_config(tmp_path, cfg)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["error_class"] == "GeometryError"
    assert report["exit_code"] == 3 and report["files"] == []
    assert "at (eps=0.1, q=5.5) fell below the barrier" in report["error"]
    assert "no half-grid pass family: pass level" in caplog.text
    assert sorted(os.listdir(out)) == ["report.json"]


CONFIG_GAPS = {
    "stability q below 2": ("stability-test", dict(q_schedule=[1.5, 3.0, 5.0]),
                            None, "parameters.q_schedule"),
    "mountain-pass q below 2": ("mountain-pass", dict(q_schedule=[1.5, 5.5]),
                                None, "parameters.q_schedule"),
    "mountain-pass q at 2*": ("mountain-pass", dict(q_schedule=[5.5, 6.0]),
                              None, "parameters.q_schedule"),
    # bubble-check works out its lattice from the dimension and reads no key
    "bubble key is unknown": ("bubble-check", {}, {"bubble_window": 0.01},
                              "solver.bubble_window: unknown key"),
    "mountain-pass ball radius not positive": ("mountain-pass", {},
                                               {"ball_radius": -1.0},
                                               "solver.ball_radius"),
    "branch theta below zero": ("branch", dict(theta_schedule=[-0.1, 0.05]),
                                None, "parameters.theta_schedule"),
    "boolean for an integer": ("solve", {}, None, "grid.dim: expected int, got bool",
                               {"dim": True}),
    # the cap is a constant of the solver, not a key; a cap of -1 would end
    # the solve in a wrong "no solution" (exit 3)
    "negative Picard cap": ("solve", {}, {"cap": -1}, "solver.cap"),
    "NaN for a parameter": ("solve", dict(q=float("nan")), None, "config number NaN"),
    "grid beyond the point bound": ("solve", {}, None, "grid.resolutions",
                                    {"resolutions": [1_000_000] * 3}),
    "periods overflow the volume": ("solve", {}, None, "grid.periods",
                                    {"periods": [1e200] * 3}),
    "periods overflow the Laplacian": ("solve", {}, None, "grid.periods",
                                       {"periods": [1e-200] * 3}),
}


@pytest.mark.parametrize("case", sorted(CONFIG_GAPS))
def test_config_gaps_exit_code(tmp_path, capsys, case):
    mode, params, solver, key, *grid = CONFIG_GAPS[case]
    if mode in ("solve", "mountain-pass", "stability-test"):
        params = dict(params, theta=0.1)
    cfg = base_config(mode, str(tmp_path / "out"), **params)
    if solver:
        cfg["solver"] = solver
    if grid:
        cfg["grid"].update(grid[0])
    cfgp = write_config(tmp_path, cfg)
    assert main([mode, "--config", cfgp]) == 2
    assert f"config error: {key}" in capsys.readouterr().err


def test_bug_in_a_runner_propagates(tmp_path, monkeypatch):
    # a ValueError is a programming error, not a solver failure
    def broken(*args):
        raise ValueError("broken runner")

    monkeypatch.setitem(cli.RUNNERS, "solve", broken)
    cfgp = write_config(tmp_path, base_config("solve", str(tmp_path / "out"),
                                              theta=0.1))
    with pytest.raises(ValueError, match="broken runner"):
        main(["solve", "--config", cfgp])


def test_failure_through_the_interpreter(tmp_path):
    out = str(tmp_path / "out")
    cfgp = write_config(tmp_path, base_config("solve", out, theta=0.2))
    env = dict(os.environ,
               PYTHONPATH=str(Path(lichtorus.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "lichtorus.cli", "solve",
                           "--config", cfgp], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 3
    assert "solver failure: no solution at theta=0.2" in done.stderr
    assert "Traceback" not in done.stderr


def test_out_naming_a_file_is_io_error(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    cfgp = write_config(tmp_path, base_config("solve", "ignored", theta=0.1))
    env = dict(os.environ,
               PYTHONPATH=str(Path(lichtorus.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "lichtorus.cli", "solve",
                           "--config", cfgp, "--out", str(blocker)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 5
    assert done.stderr.startswith("I/O error: ")
    assert "Traceback" not in done.stderr
    assert blocker.read_text() == "not a directory"


def test_manifest_tamper_detected(tmp_path):
    out = str(tmp_path / "out")
    cfgp = write_config(tmp_path, base_config("solve", out, theta=0.1))
    assert main(["solve", "--config", cfgp]) == 0
    target = tmp_path / "out" / "solution.field"
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF
    target.write_bytes(bytes(blob))
    problems = verify_manifest(out)
    assert problems and "mismatch" in problems[0]


def test_field_dump_roundtrip_through_cli(tmp_path):
    from lichtorus.fieldio import read_field
    out = str(tmp_path / "out")
    cfgp = write_config(tmp_path, base_config("solve", out, theta=0.1))
    assert main(["solve", "--config", cfgp]) == 0
    sol = read_field(tmp_path / "out" / "solution.field")
    assert abs(sol.values - 0.8014635435028197).max() <= 1e-9


def test_readme_fold_example_prints_its_documented_output(tmp_path, capsys):
    # the README's fold config and the block it documents as printed:
    # integers and words match exactly, floats to 1e-9 relative (roundoff
    # differs across numpy builds), and the convexity margin, which divides
    # by lambda_last^2, to 1e-6; the report path depends on --out
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = text.index("```json\n") + len("```json\n")
    cfgp = write_config(tmp_path, json.loads(text[start:text.index("```", start)]))
    start = text.index("$ lichtorus fold --config fold.json\n")
    documented = text[start:text.index("```", start)].splitlines()[1:]
    assert main(["fold", "--config", cfgp, "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out.splitlines()

    def pairs(lines):
        return [line.split(" = ") for line in lines if not line.startswith("report:")]

    expected, got = pairs(documented), pairs(printed)
    assert [key for key, _ in got] == [key for key, _ in expected]
    for (key, want), (_, have) in zip(expected, got):
        if want.lstrip("-").isdigit() or want.isalpha():
            assert have == want, key
        else:
            rel = 1e-6 if key == "upper_certificate_margin" else 1e-9
            assert float(have) == pytest.approx(float(want), rel=rel), key


def _run_through_the_interpreter(cfgp, mode, *options):
    env = dict(os.environ,
               PYTHONPATH=str(Path(lichtorus.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, *options, "-m", "lichtorus.cli", mode,
                           "--config", cfgp], capture_output=True, text=True,
                          env=env, timeout=300)


OVERFLOW_RUNS = [
    ("solve", {"theta": 0.1}),
    ("fold", {}),
    ("stability-test", {"theta": 0.1, "q_schedule": [5.0, 5.5]}),
    ("mountain-pass", {"theta": 0.1}),
]


def _check_overflow_run(tmp_path, mode, params, *options):
    # a = 1e300 is a finite config number, but the run's fields overflow:
    # a solver failure whose report names it, not a traceback
    out = tmp_path / "out"
    cfg = base_config(mode, str(out), **params)
    cfg["coefficients"]["a"] = {"constant": 1e300}
    done = _run_through_the_interpreter(write_config(tmp_path, cfg), mode, *options)
    assert done.returncode == 3
    assert "solver failure: field contains non-finite values" in done.stderr
    assert "Traceback" not in done.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["error_class"] == "NonFiniteFieldError"
    assert (report["exit_code"], report["status"], report["files"]) == (3, "failed", [])


@pytest.mark.parametrize("mode, params", OVERFLOW_RUNS)
def test_overflow_is_a_solver_failure(tmp_path, mode, params):
    _check_overflow_run(tmp_path, mode, params)


@pytest.mark.parametrize("mode, params", OVERFLOW_RUNS)
def test_overflow_under_warnings_as_errors(tmp_path, mode, params):
    # numpy does not warn of the overflow, so -W error changes nothing
    _check_overflow_run(tmp_path, mode, params, "-W", "error")


def _check_huge_ball_run(tmp_path, *options):
    # a sphere of radius 1e200 overflows the samples' energies: a solver
    # failure that names the overflow, not "no admissible sphere sample"
    out = tmp_path / "out"
    cfg = base_config("mountain-pass", str(out), theta=0.1, epsilon_schedule=[1e-2],
                      q_schedule=[5.5])
    cfg["solver"] = {"ball_radius": 1e200}
    done = _run_through_the_interpreter(write_config(tmp_path, cfg), "mountain-pass", *options)
    assert done.returncode == 3
    assert "solver failure: sphere sample energies overflow" in done.stderr
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["error_class"] == "NonFiniteFieldError"
    assert (report["exit_code"], report["status"], report["files"]) == (3, "failed", [])


def test_huge_ball_radius_is_a_solver_failure(tmp_path):
    _check_huge_ball_run(tmp_path)


def test_huge_ball_radius_under_warnings_as_errors(tmp_path):
    _check_huge_ball_run(tmp_path, "-W", "error")


def test_fold_report_names_its_upper_certificate(tmp_path):
    # unit coefficients: f, a > 0, so convexity certifies above the fold;
    # a sign-changing f leaves it to the probe, and the margin is null
    for f, want in ((1.0, "convexity"), (None, "probe")):
        out = tmp_path / want
        cfg = base_config("fold", str(out), theta_hint=0.1)
        if f is None:
            cfg["coefficients"]["f"] = {"constant": 0.6, "cosines": [
                {"amplitude": 1.3, "wavevector": [1, 0, 0], "phase": 0.0}]}
            cfg["parameters"]["theta_hint"] = 0.05
        assert main(["fold", "--config", write_config(tmp_path, cfg, f"{want}.json")]) == 0
        qn = json.loads((out / "report.json").read_text())["quantities"]
        assert qn["upper_certificate"] == want
        margin = qn["upper_certificate_margin"]
        assert margin > 1.0 if want == "convexity" else margin is None


def test_mountain_pass_blowup_exit_code(tmp_path, monkeypatch):
    # a sup cap below the minimal solution's sup: the first stage's pass
    # point reads as a family that blows up
    monkeypatch.setattr(mountain, "BLOWUP_FACTOR", 1e-6)
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, base_config("mountain-pass", str(out), theta=0.1,
                                              epsilon_schedule=[1e-2], q_schedule=[5.5]))
    assert main(["mountain-pass", "--config", cfgp]) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["error_class"] == "BlowupDetectedError"
    assert (report["exit_code"], report["status"], report["files"]) == (4, "blowup", [])


def test_negative_seed_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, base_config("solve", str(out), theta=0.1))
    assert main(["solve", "--config", cfgp, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: --seed must be a nonnegative integer\n"
    assert not out.exists()


# a quick run of each mode; bubble-check takes every default
MODE_RUNS = {
    "solve": {"theta": 0.1},
    "branch": {"theta_schedule": [0.05, 0.1]},
    "fold": {},
    "mountain-pass": {"theta": 0.1, "epsilon_schedule": [1e-2], "q_schedule": [5.5, 5.75]},
    "certificate": {},
    "stability-test": {"theta": 0.1, "q_schedule": [5.0, 5.5]},
    "bubble-check": {},
}


@pytest.mark.parametrize("mode", sorted(MODE_RUNS))
def test_report_config_reruns_the_run(tmp_path, mode):
    # report.json's config, defaults filled in, is the whole run: rerun into
    # another directory, it writes the same files and quantities
    first, second = tmp_path / "first", tmp_path / "second"
    cfgp = write_config(tmp_path, base_config(mode, str(first), **MODE_RUNS[mode]))
    assert main([mode, "--config", cfgp]) == 0
    report = json.loads((first / "report.json").read_text())
    echo = write_config(tmp_path, report["config"], name="echo.json")
    assert main([mode, "--config", echo, "--out", str(second)]) == 0
    rerun = json.loads((second / "report.json").read_text())
    assert report["files"] and rerun["files"] == report["files"]
    assert rerun["quantities"] == report["quantities"]
    report["config"]["output"]["directory"] = str(second)
    assert rerun["config"] == report["config"]
