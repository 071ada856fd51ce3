import json
import re
from pathlib import Path

import pytest

from lichtorus.config import KEYS, MAX_POINTS, MODE_KEYS, ConfigError, parse_config
from lichtorus.diagnostics import BUBBLE_DIVISIONS, BUBBLE_WINDOW


def minimal(mode="fold", **overrides):
    cfg = {
        "mode": mode,
        "grid": {"dim": 3, "resolutions": [8, 8, 8], "periods": [1.0, 1.0, 1.0]},
        "coefficients": {
            "h": {"constant": 1.0},
            "f": {"constant": 1.0},
            "a": {"constant": 1.0},
        },
    }
    cfg.update(overrides)
    return json.dumps(cfg)


def test_minimal_fold_config_normalizes_defaults():
    cfg = parse_config(minimal())
    echo = cfg.normalized()
    assert echo["mode"] == "fold"
    assert echo["solver"] == {"fold_tol": 1e-4}
    assert echo["parameters"] == {"theta_hint": 0.1}
    assert echo["output"]["directory"] == "out"
    assert echo["seed"] == 0


# a sample value for every parameters and solver key that some mode reads
SAMPLES = {
    "parameters": {"theta": 0.1, "theta_hint": 0.1, "theta_schedule": [0.05, 0.1],
                   "q": 4.0, "q_schedule": [5.0, 5.5], "epsilon_schedule": [0.5],
                   "a_perturbations": [0.0, 0.1]},
    "solver": {"fold_tol": 1e-4, "ball_radius": 2.0},
}
# the keys each mode reads, as (parameters, solver)
READS = {
    "solve": ({"theta", "q"}, set()),
    "branch": ({"theta_schedule", "q"}, set()),
    "fold": ({"theta_hint"}, {"fold_tol"}),
    "mountain-pass": ({"theta", "q_schedule", "epsilon_schedule"}, {"ball_radius"}),
    "certificate": (set(), set()),
    "stability-test": ({"theta", "q_schedule", "a_perturbations"}, set()),
    "bubble-check": (set(), set()),
}
# the parameters each mode requires
REQUIRED = {"solve": {"theta"}, "branch": {"theta_schedule"},
            "mountain-pass": {"theta"}, "stability-test": {"theta", "q_schedule"}}


def required_parameters(mode):
    return {k: SAMPLES["parameters"][k] for k in REQUIRED.get(mode, ())}


@pytest.mark.parametrize("mode", sorted(READS))
def test_echo_holds_the_mode_keys_only(mode):
    echo = parse_config(minimal(mode, parameters=required_parameters(mode))).normalized()
    assert (set(echo["parameters"]), set(echo["solver"])) == READS[mode]
    # every key the mode reads is accepted and echoed as given
    full = {block: {k: SAMPLES[block][k] for k in keys}
            for block, keys in zip(("parameters", "solver"), READS[mode])}
    echo = parse_config(minimal(mode, **full)).normalized()
    assert {block: echo[block] for block in full} == full


@pytest.mark.parametrize("mode", sorted(READS))
def test_key_another_mode_reads_is_refused(mode):
    for block, reads in zip(("parameters", "solver"), READS[mode]):
        for key in sorted(set(SAMPLES[block]) - reads):
            cfg = json.loads(minimal(mode, parameters=required_parameters(mode)))
            cfg.setdefault(block, {})[key] = SAMPLES[block][key]
            with pytest.raises(ConfigError,
                               match=f"^{block}.{key}: not read in mode '{mode}'$"):
                parse_config(json.dumps(cfg))


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="metrics"):
        parse_config(minimal(metrics="yes"))


def test_unknown_nested_key():
    bad = json.loads(minimal())
    bad["solver"] = {"warp_speed": 9}
    with pytest.raises(ConfigError, match="solver.warp_speed"):
        parse_config(json.dumps(bad))


@pytest.mark.parametrize("key", ["tol", "max_iters", "cap", "lambda_tol", "path_size",
                                 "bubble_f0", "bubble_window", "bubble_spacing_denominator"])
def test_fixed_solver_settings_are_not_keys(key):
    # the Picard tolerance, iteration limit and cap, the fold certificate's
    # eigenvalue bound, the path size and bubble-check's f0, window and
    # spacing are constants of the solvers
    bad = json.loads(minimal())
    bad["solver"] = {key: 1}
    with pytest.raises(ConfigError, match=f"solver.{key}: unknown key"):
        parse_config(json.dumps(bad))


def test_non_monotone_schedule():
    bad = json.loads(minimal(mode="stability-test"))
    bad["parameters"] = {"theta": 0.1, "q_schedule": [5.0, 4.5]}
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(json.dumps(bad))


def test_epsilon_schedule_must_decrease():
    bad = json.loads(minimal(mode="mountain-pass"))
    bad["parameters"] = {"theta": 0.1, "epsilon_schedule": [1e-3, 1e-2]}
    with pytest.raises(ConfigError, match="strictly decreasing"):
        parse_config(json.dumps(bad))


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config('{\n  "mode": "fold",\n  oops\n}')


def test_mode_requirements():
    for mode, required in REQUIRED.items():
        for key in required:
            params = required_parameters(mode)
            del params[key]
            with pytest.raises(ConfigError,
                               match=f"parameters.{key}: required for mode '{mode}'"):
                parse_config(minimal(mode=mode, parameters=params))


def test_wavevector_validation():
    bad = json.loads(minimal())
    bad["coefficients"]["a"] = {
        "constant": 1.0,
        "cosines": [{"amplitude": 0.3, "wavevector": [1, 0]}],
    }
    with pytest.raises(ConfigError, match="wavevector"):
        parse_config(json.dumps(bad))


def test_cosine_coefficients_built_on_grid():
    cfg = parse_config(minimal())
    coeffs = cfg.coefficients()
    assert coeffs.a.max() == pytest.approx(1.0)
    rich = json.loads(minimal())
    rich["coefficients"]["a"] = {
        "constant": 1.0,
        "cosines": [{"amplitude": 0.3, "wavevector": [1, 0, 0], "phase": 0.0}],
    }
    coeffs = parse_config(json.dumps(rich)).coefficients()
    assert coeffs.a.max() == pytest.approx(1.3)
    assert coeffs.a.min() == pytest.approx(0.7)


def test_tolerances_positive():
    bad = json.loads(minimal())
    bad["solver"] = {"fold_tol": 0.0}
    with pytest.raises(ConfigError, match="tolerance must be positive"):
        parse_config(json.dumps(bad))


def test_unknown_mode():
    with pytest.raises(ConfigError, match="unknown mode"):
        parse_config(minimal(mode="warp"))


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError, match="seed: expected int, got bool"):
        parse_config(minimal(seed=True))
    bad = json.loads(minimal())
    bad["solver"] = {"fold_tol": False}
    with pytest.raises(ConfigError, match="solver.fold_tol: expected float, got bool"):
        parse_config(json.dumps(bad))


def test_grid_point_bound():
    # 160^3 points fit under 2**22; 162^3 and 10^6 a side do not, and are
    # refused before any array is allocated
    cfg = json.loads(minimal())
    cfg["grid"]["resolutions"] = [160] * 3
    assert parse_config(json.dumps(cfg)).resolutions == [160] * 3
    for side in (162, 1_000_000):
        cfg["grid"]["resolutions"] = [side] * 3
        with pytest.raises(ConfigError, match="grid.resolutions: .* more than 4194304"):
            parse_config(json.dumps(cfg))


@pytest.mark.parametrize("periods", [
    [1e200] * 3,                 # the volume overflows
    [1e-200] * 3,                # the volume underflows to 0
    [1e-108, 1e-108, 1e-107],    # only the cell volume underflows to 0
    [1e-154, 1e100, 1e100],      # only the largest Laplacian symbol overflows
])
def test_periods_beyond_the_float_range(periods):
    cfg = json.loads(minimal())
    cfg["grid"]["periods"] = periods
    with pytest.raises(ConfigError, match="grid.periods: .* not a finite positive"):
        parse_config(json.dumps(cfg))


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_bubble_lattice_bound(dim):
    # bubble-check reads no keys: its config parses at every dimension, and
    # its lattice at half the spacing r0 / BUBBLE_DIVISIONS[n], r0 = 1, has
    # (2 round(2 window / spacing) + 1)^n points, 129^3, 33^4 and 17^5, within
    # the solver grids' point bound
    cfg = json.loads(minimal(mode="bubble-check"))
    cfg["grid"] = {"dim": dim, "resolutions": [8] * dim, "periods": [1.0] * dim}
    assert parse_config(json.dumps(cfg)).dim == dim
    side = 2 * round(2 * BUBBLE_WINDOW * BUBBLE_DIVISIONS[dim]) + 1
    assert side == {3: 129, 4: 33, 5: 17}[dim]
    assert side**dim <= MAX_POINTS


def test_non_finite_numbers_are_refused():
    # json.loads accepts NaN and Infinity unless told otherwise
    with pytest.raises(ConfigError, match="config number NaN: not a finite number"):
        parse_config(minimal(parameters={"theta_hint": float("nan")}))
    bad = json.loads(minimal())
    bad["solver"] = {"fold_tol": float("inf")}
    with pytest.raises(ConfigError, match="config number Infinity: not a finite number"):
        parse_config(json.dumps(bad))


@pytest.mark.parametrize("literal", ["-Infinity", "1e400", "9" * 400])
def test_numbers_beyond_the_float_range_are_refused(literal):
    text = minimal(parameters={"theta_hint": "X"}).replace('"X"', literal)
    with pytest.raises(ConfigError, match=f"config number {literal[:20]}"):
        parse_config(text)


GONE = object()  # a REFUSALS value that leaves the key out

# a config that parse_config refuses for each of its checks that the tests
# above leave unreached: the mode, the key path to change in the minimal
# config holding the mode's required parameters, the value put there (the
# whole config for the empty path), and the message the refusal starts with
REFUSALS = {
    "top level not an object": ("fold", (), [1], "top level: expected an object"),
    "parameters not an object": ("fold", ("parameters",), [0.1],
                                 "parameters: expected an object"),
    "output not an object": ("fold", ("output",), "out", "output: expected an object"),
    "coefficient not an object": ("fold", ("coefficients", "h"), 1.0,
                                  "coefficients.h: expected an object"),
    "cosine term not an object": ("fold", ("coefficients", "a", "cosines"), [0.3],
                                  "coefficients.a.cosines[0]: expected an object"),
    "no grid": ("fold", ("grid",), GONE, "grid: required block missing"),
    "no coefficients": ("fold", ("coefficients",), GONE,
                        "coefficients: required block missing"),
    "no h": ("fold", ("coefficients", "h"), GONE, "coefficients.h: required key missing"),
    "no f": ("fold", ("coefficients", "f"), GONE, "coefficients.f: required key missing"),
    "no a": ("fold", ("coefficients", "a"), GONE, "coefficients.a: required key missing"),
    "coefficient without constant": ("fold", ("coefficients", "f"), {"cosines": []},
                                      "coefficients.f.constant: required key missing"),
    "dimension 6": ("fold", ("grid", "dim"), 6, "grid.dim: dimension out of range: 6"),
    "two resolutions": ("fold", ("grid", "resolutions"), [8, 8],
                        "grid.resolutions: expected 3 entries"),
    "odd resolution": ("fold", ("grid", "resolutions"), [8, 9, 8],
                       "grid.resolutions[1]: must be an even integer >= 4"),
    "two periods": ("fold", ("grid", "periods"), [1.0, 1.0],
                    "grid.periods: expected 3 entries"),
    "zero period": ("fold", ("grid", "periods"), [1.0, 0.0, 1.0],
                    "grid.periods[1]: must be a positive number"),
    "empty schedule": ("branch", ("parameters", "theta_schedule"), [],
                       "parameters.theta_schedule: expected a nonempty list"),
    "schedule entry not a number": ("branch", ("parameters", "theta_schedule"),
                                    [0.05, "0.1"],
                                    "parameters.theta_schedule[1]: expected a number"),
    "negative theta": ("solve", ("parameters", "theta"), -0.1,
                       "parameters.theta: must be >= 0"),
    "zero theta_hint": ("fold", ("parameters", "theta_hint"), 0.0,
                        "parameters.theta_hint: must be positive"),
    "q below 2": ("solve", ("parameters", "q"), 1.5, "parameters.q: must lie in [2, 6.0]"),
    "q above 2*": ("solve", ("parameters", "q"), 6.5, "parameters.q: must lie in [2, 6.0]"),
    "epsilon not positive": ("mountain-pass", ("parameters", "epsilon_schedule"), [0.1, 0.0],
                             "parameters.epsilon_schedule: entries must be positive"),
    "a bump of -1": ("stability-test", ("parameters", "a_perturbations"), [0.0, -1.0],
                     "parameters.a_perturbations[1]: relative bump must be > -1"),
    "one bump for two q": ("stability-test", ("parameters", "a_perturbations"), [0.1],
                           "parameters.a_perturbations: length must match q_schedule"),
    "unknown format": ("fold", ("output",), {"formats": ["csv", "png"]},
                       "output.formats: entries must be 'csv' or 'field'"),
    "negative seed": ("fold", ("seed",), -1, "seed: must be a nonnegative integer"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_parse_refusal(case):
    mode, path, value, message = REFUSALS[case]
    cfg = json.loads(minimal(mode, parameters=required_parameters(mode)))
    if not path:
        cfg = value
    else:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if value is GONE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        parse_config(json.dumps(cfg))


def test_coefficients_the_problem_refuses():
    # f = -1 parses, and the problem built from it refuses it as a config error
    bad = json.loads(minimal())
    bad["coefficients"]["f"] = {"constant": -1.0}
    cfg = parse_config(json.dumps(bad))
    with pytest.raises(ConfigError, match=r"^coefficients: max f must be positive"):
        cfg.coefficients()


def test_keys_state_every_mode_key_once():
    assert set(KEYS) == {key for blocks in MODE_KEYS.values()
                         for keys in blocks.values() for key in keys}


def test_readme_mode_table_lists_the_mode_keys():
    # the README's table of each mode's keys is MODE_KEYS, * marking the
    # required ones
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = text.index("| mode | `parameters` | `solver` |")
    table = {}
    for row in text[start:].split("\n\n")[0].splitlines()[2:]:
        mode, *cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        table[mode.strip("`")] = {
            block: {entry.strip().rstrip("*").strip("`"): entry.strip().endswith("*")
                    for entry in cell.split(",")}
            for block, cell in zip(("parameters", "solver"), cells) if cell}
    assert table == MODE_KEYS
