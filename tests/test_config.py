import json
from pathlib import Path

import pytest

from lichtorus.config import KEYS, MODE_KEYS, ConfigError, parse_config


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
    "solver": {"fold_tol": 1e-4, "ball_radius": 2.0, "bubble_f0": 3.0,
               "bubble_window": 0.5, "bubble_spacing_denominator": 64},
}
# the keys each mode reads, as (parameters, solver)
READS = {
    "solve": ({"theta", "q"}, set()),
    "branch": ({"theta_schedule", "q"}, set()),
    "fold": ({"theta_hint"}, {"fold_tol"}),
    "mountain-pass": ({"theta", "q_schedule", "epsilon_schedule"}, {"ball_radius"}),
    "certificate": (set(), set()),
    "stability-test": ({"theta", "q_schedule", "a_perturbations"}, set()),
    "bubble-check": (set(), {"bubble_f0", "bubble_window", "bubble_spacing_denominator"}),
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


@pytest.mark.parametrize("key", ["tol", "max_iters", "cap", "lambda_tol", "path_size"])
def test_fixed_solver_settings_are_not_keys(key):
    # the Picard tolerance, iteration limit and cap, the fold certificate's
    # eigenvalue bound and the path size are constants of the solvers
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


@pytest.mark.parametrize("dim", [4, 5])
def test_bubble_lattice_bound(dim):
    # the default half-spacing lattice has 129^n points: 129^3 passes, while
    # 129^4 and 129^5 exceed 2**22 and are refused before anything is built
    cfg = json.loads(minimal(mode="bubble-check"))
    assert parse_config(json.dumps(cfg)).mode == "bubble-check"
    cfg["grid"] = {"dim": dim, "resolutions": [8] * dim, "periods": [1.0] * dim}
    with pytest.raises(ConfigError, match="solver.bubble_spacing_denominator"):
        parse_config(json.dumps(cfg))
    # the bound is bubble-check's own: no other mode reads the bubble keys
    cfg["mode"] = "fold"
    assert parse_config(json.dumps(cfg)).dim == dim


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


def test_bubble_window_beyond_the_float_range():
    # bubble_window / spacing overflows: a config error, not an OverflowError
    bad = json.loads(minimal(mode="bubble-check"))
    bad["solver"] = {"bubble_window": 1e308}
    with pytest.raises(ConfigError, match="solver.bubble_window: .* beyond the float range"):
        parse_config(json.dumps(bad))


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
