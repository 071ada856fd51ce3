"""Per-layer tracing of lichtorus from outside the package.

Tracer wraps the public functions of each module, and the few private ones
that carry a layer's work counts, while it is entered, and restores the
originals when it exits.  A function imported by name into another module
(`from .grid import helmholtz_solve`) is bound in that module too, so every
lichtorus module attribute that is the original object is replaced.

Timed wrappers form a span stack: a span's self time is its duration minus
the durations of the spans it encloses.  Counters carry no span, which keeps
the per-call cost of the hottest hooks (field constructions, geometry
reads) to a dictionary increment.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

# the program's default samples_per_unit of rescaled_profile_compare, by dimension
PROFILE_SAMPLES = {3: 4, 4: 2, 5: 1}


def lattice_ball_count(dim: int, m: int, radius: float) -> int:
    """Number of integer vectors j in {-m..m}^dim with |j|^2 <= radius^2.

    Counts by the distribution of |j|^2, so memory grows with dim * m^2
    rather than with the (2m+1)^dim lattice."""
    one = np.zeros(m * m + 1, dtype=np.int64)
    np.add.at(one, np.arange(-m, m + 1) ** 2, 1)
    ways = np.ones(1, dtype=np.int64)
    for _ in range(dim):
        ways = np.convolve(ways, one)  # ways[k]: vectors with |j|^2 = k
    return int(ways[:int(radius * radius) + 1].sum())


class Tracer:
    """Counts and self times of one lichtorus process, by layer metric."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.converged_probes = 0
        self.sweeps_lowered = 0
        self.profile_inside = 0
        self._stack: list[float] = []
        self._stage: list[dict] = []
        self._undo: list = []

    def reset(self):
        self.counts.clear()
        self.seconds.clear()
        self.converged_probes = 0
        self.sweeps_lowered = 0
        self.profile_inside = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, time_metric, calls_metric=None, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls_metric:
                self.counts[calls_metric] += 1
            state = before(args, kwargs) if before else None
            self._stack.append(0.0)
            start = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                if time_metric:
                    self.seconds[time_metric] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed
                if after:
                    after(state, result, exc)
        return wrapper

    def _counter(self, fn, metric, weight=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[metric] += 1 if weight is None else weight(args, kwargs, result)
            return result
        return wrapper

    # -- patching ---------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Rebind every lichtorus module attribute that is `original`."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "lichtorus" or name.startswith("lichtorus.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _replace_attr(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        import lichtorus.branch as branch
        import lichtorus.cli as cli
        import lichtorus.config as config
        import lichtorus.core as core
        import lichtorus.diagnostics as diagnostics
        import lichtorus.grid as grid
        import lichtorus.mountain as mountain

        wrap = self._replace_everywhere

        # grid: transforms, Helmholtz solves, PCG, fields and geometry reads
        for name in ("rfftn", "irfftn"):
            orig = getattr(np.fft, name)
            self._replace_attr(np.fft, name, self._fft_wrapper(orig, name))
        wrap(grid.helmholtz_solve,
             self._span(grid.helmholtz_solve, "grid.helmholtz_s", "grid.helmholtz_calls"))
        wrap(grid._pcg, self._counter(grid._pcg, "grid.pcg_iters",
                                      weight=lambda a, k, r: r[1]))
        self._replace_attr(grid.ScalarField, "__init__",
                           self._counter(grid.ScalarField.__init__, "grid.field_inits"))
        for prop in ("volume", "npoints", "cell_volume"):
            orig = grid.TorusGrid.__dict__[prop]
            self._replace_attr(grid.TorusGrid, prop,
                               property(self._counter(orig.fget, "grid.geometry_calls")))

        # core: energies, residuals, eigen solves
        wrap(core.energy, self._span(core.energy, "core.energy_s", "core.energy_calls"))
        for fn in (core.residual, core.regularized_residual):
            wrap(fn, self._span(fn, "core.residual_s", "core.residual_calls"))
        wrap(core.smallest_eigenpair, self._span(
            core.smallest_eigenpair, "core.eigen_s", "core.eigen_calls",
            after=lambda st, res, exc: res is not None and self.counts.update(
                {"core.eigen_iters": res.iterations})))

        # branch: Picard loop, existence probes, Newton, subsolution
        wrap(branch.monotone_iterate, self._span(
            branch.monotone_iterate, "branch.monotone_s", "branch.monotone_calls"))
        # _bound_constant runs exactly once per Picard iteration
        wrap(branch._bound_constant,
             self._counter(branch._bound_constant, "branch.picard_iters"))
        wrap(branch._existence_solve, self._span(
            branch._existence_solve, None, "branch.probes",
            before=lambda a, k: self.counts["branch.picard_iters"],
            after=self._probe_done))
        wrap(branch.newton_refine, self._span(
            branch.newton_refine, "branch.newton_s", "branch.newton_calls"))
        wrap(branch.minres, self._minres_wrapper(branch.minres))
        wrap(branch.build_subsolution,
             self._span(branch.build_subsolution, "branch.subsolution_s"))

        # mountain: pass search, path re-equispacing, ball, barrier, Sobolev
        wrap(mountain.mountain_pass_solve, self._span(
            mountain.mountain_pass_solve, "mountain.pass_s", "mountain.stages",
            before=lambda a, k: self._stage.append({"best": None}),
            after=lambda st, res, exc: self._stage.pop()))
        wrap(mountain._interpolate_path, self._span(
            mountain._interpolate_path, "mountain.pass_s", after=self._path_done))
        wrap(mountain.minimize_in_ball,
             self._span(mountain.minimize_in_ball, "mountain.ball_s"))
        wrap(mountain.sphere_barrier,
             self._span(mountain.sphere_barrier, "mountain.barrier_s"))
        wrap(core.sobolev_constant_estimate,
             self._span(core.sobolev_constant_estimate, "mountain.sobolev_s"))

        # diagnostics: profile interpolation
        profile_signature = inspect.signature(diagnostics.rescaled_profile_compare)

        def enter_profile(args, kwargs):
            # the points the comparison needs: the lattice {-m..m}^n / s
            # inside the ball |x| <= window, m = int(window * s)
            call = profile_signature.bind(*args, **kwargs)
            call.apply_defaults()
            dim = call.arguments["u"].grid.dim
            window = call.arguments["window"]
            samples = call.arguments["samples_per_unit"] or PROFILE_SAMPLES[dim]
            self.profile_inside += lattice_ball_count(dim, int(window * samples),
                                                      window * samples)
        wrap(diagnostics.rescaled_profile_compare, self._span(
            diagnostics.rescaled_profile_compare, "diagnostics.profile_s",
            "diagnostics.profile_calls", before=enter_profile))
        wrap(diagnostics.map_coordinates, self._counter(
            diagnostics.map_coordinates, "diagnostics.profile_points",
            weight=lambda a, k, r: int(np.prod(np.shape(a[1])[1:]))))

        # cli, config, fieldio: parsing and artifact writing
        wrap(config.parse_config, self._span(config.parse_config, "cli.parse_s"))
        wrap(cli.field_to_bytes, self._span(cli.field_to_bytes, "cli.write_s"))
        self._replace_attr(cli.OutputWriter, "write_bytes", self._span(
            cli.OutputWriter.write_bytes, "cli.write_s",
            before=lambda a, k: self.counts.update(
                {"cli.bytes_written": len(a[2] if len(a) > 2 else k["data"])})))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    # -- hooks ------------------------------------------------------------

    def _fft_wrapper(self, fn, name):
        span = self._span(fn, "grid.fft_s", "grid.fft_calls")

        @functools.wraps(fn)
        def wrapper(a, s=None, axes=None, *args, **kwargs):
            # points transformed: the real-space array, input or output
            points = int(np.prod(s)) if (name == "irfftn" and s is not None) \
                else int(np.asarray(a).size)
            self.counts["grid.fft_points"] += points
            return span(a, s, axes, *args, **kwargs)
        return wrapper

    def _minres_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, callback=None, **kwargs):
            def count(xk):
                self.counts["branch.minres_iters"] += 1
                if callback is not None:
                    callback(xk)
            return fn(*args, callback=count, **kwargs)
        return wrapper

    def _probe_done(self, picard_before, result, exc):
        if exc is None and result.converged:
            self.converged_probes += 1
        else:
            self.counts["branch.diverged_probe_iters"] += \
                self.counts["branch.picard_iters"] - picard_before

    def _path_done(self, state, path, exc):
        """The first path of a stage sets its starting maximum; every later
        re-equispacing ends a sweep, which counts as lowering the maximum
        when it beats the best so far by the program's relative 1e-12."""
        if path is None or not self._stage:
            return
        stage = self._stage[-1]
        cur = max(path.energies)
        if stage["best"] is None:
            stage["best"] = cur
            return
        self.counts["mountain.sweeps"] += 1
        best = stage["best"]
        if cur < best - 1e-12 * max(1.0, abs(best)):
            stage["best"] = cur
            self.sweeps_lowered += 1

    # -- report -----------------------------------------------------------

    def snapshot(self) -> tuple[Counter, Counter]:
        """(counts, seconds) of everything traced since the last reset;
        a metric that was never hit reads 0."""
        counts = Counter(self.counts)
        counts["branch.probe_yield"] = _ratio(self.converged_probes,
                                              counts["branch.probes"])
        counts["mountain.sweep_yield"] = _ratio(self.sweeps_lowered,
                                                counts["mountain.sweeps"])
        counts["diagnostics.profile_yield"] = _ratio(
            self.profile_inside, counts["diagnostics.profile_points"])
        return counts, Counter(self.seconds)


def _ratio(num: int, den: int) -> float:
    """num/den, read as 0 when nothing was attempted."""
    return num / den if den else 0.0
