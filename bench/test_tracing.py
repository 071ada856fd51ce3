"""Tests of the benchmark's per-layer tracing (python3 -m pytest bench)."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lichtorus import diagnostics  # noqa: E402
from lichtorus.grid import ScalarField, TorusGrid  # noqa: E402
from tracing import Tracer, lattice_ball_count  # noqa: E402


def peaked_fields(dim: int, res: int):
    grid = TorusGrid(dim, (res,) * dim, (1.0,) * dim)
    x = np.meshgrid(*([np.arange(res) / res] * dim), indexing="ij")
    u = 1.0 + 0.5 * np.prod([np.cos(2 * np.pi * xi) for xi in x], axis=0)
    return ScalarField(grid, u), ScalarField(grid, np.ones((res,) * dim))


def test_lattice_ball_count():
    assert lattice_ball_count(1, 5, 5.0) == 11
    assert lattice_ball_count(2, 1, 1.0) == 5
    assert lattice_ball_count(3, 2, 1.5) == 1 + 6 + 12
    # the n=5 profile window: 161051 points of which about 10.5% lie in the ball
    inside = lattice_ball_count(5, 5, 5.0)
    assert 0.10 < inside / 11 ** 5 < 0.11


def test_profile_yield_of_the_window_cube():
    u, f = peaked_fields(3, 8)
    with Tracer() as tracer:
        diagnostics.rescaled_profile_compare(u, f, 5.0)
    counts, _ = tracer.snapshot()
    # n=3 samples 4 points per unit: the window is {-20..20}^3 / 4
    assert counts["diagnostics.profile_calls"] == 1
    assert counts["diagnostics.profile_points"] == 41 ** 3
    assert counts["diagnostics.profile_yield"] == lattice_ball_count(3, 20, 20.0) / 41 ** 3


def test_profile_yield_of_flat_ball_coordinates(monkeypatch):
    # a comparison that interpolates only the ball passes a flat (n, K) array
    def ball_only(u, f, q, window=5.0, samples_per_unit=None):
        m = int(window * (samples_per_unit or 1))
        j = np.stack(np.meshgrid(*([np.arange(-m, m + 1)] * u.grid.dim), indexing="ij"))
        flat = j.reshape(u.grid.dim, -1)
        inside = flat[:, (flat ** 2).sum(axis=0) <= m * m]
        return diagnostics.map_coordinates(u.values, inside, order=1, mode="grid-wrap")

    monkeypatch.setattr(diagnostics, "rescaled_profile_compare", ball_only)
    u, f = peaked_fields(5, 6)
    with Tracer() as tracer:
        diagnostics.rescaled_profile_compare(u, f, 3.0)
    counts, _ = tracer.snapshot()
    assert counts["diagnostics.profile_points"] == lattice_ball_count(5, 5, 5.0)
    assert counts["diagnostics.profile_yield"] == 1.0
    assert diagnostics.rescaled_profile_compare is ball_only
