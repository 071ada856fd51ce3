"""Benchmark of lichtorus: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload {fold,mountain,stability} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; lichtorus is imported from its src/.
A run runs whole rounds of the workload's configs through lichtorus.cli.run
for about S seconds, times set-up in fresh interpreters before and after
them, checks every output of every round against oracles.py, and prints as
its last line one JSON object with keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics: solve_s, the sum over a round's
cli.run calls of each one's median CPU time; setup_s, the median CPU time
of set-up; and peak_rss_mb, the peak resident set size of this process.
Both times are scaled to a reference CPU speed by a speed gauge that shares
the CPU with what it times (gauge.py).
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced rounds together with the tracing overhead, traced
solve_s minus untraced solve_s.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; the set-up probes inherit
# it.  The solvers are FFT and interpolation bound and use no BLAS threads,
# while an idle default-sized OpenBLAS pool costs CPU at every import.
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from gauge import Gauge  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 8


def setup_samples(gauge: Gauge, config_paths, count: int) -> list[float]:
    """CPU time of a fresh interpreter from its start until ready.py has
    imported lichtorus and built every config's coefficients, at the
    gauge's reference speed."""
    samples = []
    for _ in range(count):
        with gauge.window() as speed:
            done = subprocess.run([sys.executable, str(HERE / "ready.py"), *config_paths],
                                  cwd=ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(speed.scaled(int(done.stdout.split()[-1]) / 1e9))
    return samples


class Round:
    """One pass over a workload's configs through lichtorus.cli.run."""

    def __init__(self, workload, configs, texts, out_dir):
        from lichtorus import cli, config
        self.cli, self.config = cli, config
        self.workload = workload
        self.configs = configs
        self.texts = texts
        self.out_dir = out_dir
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def __call__(self, gauge: Gauge | None = None) -> list[float]:
        """Run every config once; returns each cli.run call's CPU time at the
        gauge's reference speed, or its wall time when there is no gauge."""
        times = []
        for i, (cfg_dict, text) in enumerate(zip(self.configs, self.texts)):
            op_dir = self.out_dir / f"op{i}"
            cfg = self.config.parse_config(text)
            self.attempted += 1
            with gauge.window() if gauge else nullcontext() as speed:
                wall, cpu = time.perf_counter(), time.process_time()
                try:
                    _, code = self.cli.run(cfg, out_dir=str(op_dir))
                except Exception:  # a failed operation is counted, not fatal
                    traceback.print_exc()
                    code = None
                wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            times.append(speed.scaled(cpu) if gauge else wall)
            if code != 0:
                self.failed += 1
                print(f"{cfg_dict['mode']} (op{i}) failed with exit code {code}",
                      file=sys.stderr)
                continue
            self.problems += self.workload.check(cfg_dict, op_dir)
        return times


def median_ops(rounds: list[list[float]]) -> float:
    """Sum over a round's operations of each one's median time."""
    return sum(statistics.median(times) for times in zip(*rounds))


def fastest_ops(rounds: list[list[float]]) -> float:
    """Sum over a round's operations of each one's fastest time."""
    return sum(min(times) for times in zip(*rounds))


def run_rounds(seconds: float, one_round) -> list:
    """One whole round, then more while the next one, at the median pace,
    still fits in `seconds`."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_round())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return results


def untraced_metrics(rnd: Round, seconds: float, config_paths) -> dict:
    # Half the set-up samples come before the rounds and half after them.
    with Gauge(rnd.workload.gauge) as gauge:
        setup = setup_samples(gauge, config_paths, SETUP_PROBES // 2)
        rounds = run_rounds(seconds, lambda: rnd(gauge))
        setup += setup_samples(gauge, config_paths, SETUP_PROBES - SETUP_PROBES // 2)
    print("operation solve times by round: " + " | ".join(
        " ".join(f"{t:.3f}" for t in times) for times in rounds), file=sys.stderr)
    print("set-up samples: " + " ".join(f"{t:.3f}" for t in setup), file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"solve_s": median_ops(rounds), "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb}


def traced_metrics(rnd: Round, seconds: float, per_layer) -> dict:
    from tracing import Tracer
    tracer = Tracer()
    plain, traced, snapshots = [], [], []

    def pair():
        plain.append(rnd())
        tracer.reset()
        with tracer:
            traced.append(rnd())
        snapshots.append(tracer.snapshot())

    run_rounds(seconds, pair)
    counts = snapshots[0][0]
    if any(other != counts for other, _ in snapshots[1:]):
        print("warning: per-layer counts differ between traced rounds", file=sys.stderr)
    # self times from the fastest traced round
    totals = [sum(times) for times in traced]
    times = snapshots[totals.index(min(totals))][1]
    metrics = {m["name"]: (times if m["unit"] == "s" else counts)[m["name"]]
               for m in per_layer}
    metrics["trace.overhead_s"] = fastest_ops(traced) - fastest_ops(plain)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lichtorus" / "__init__.py").is_file():
        print(f"error: no lichtorus sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    # one CPU for this process, the gauge and the set-up probes, so that the
    # gauge sees the speed of the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = json.loads(BENCH.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workload = WORKLOADS[args.workload]
    configs = workload.configs(args.seed)
    out_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        texts = [json.dumps(cfg) for cfg in configs]
        paths = [str(out_dir / f"config{i}.json") for i in range(len(texts))]
        for path, text in zip(paths, texts):
            Path(path).write_text(text, encoding="utf-8")
        rnd = Round(workload, configs, texts, out_dir)
        if args.trace:
            metrics = traced_metrics(rnd, args.seconds, bench["per_layer"])
        else:
            metrics = untraced_metrics(rnd, args.seconds, paths)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for problem in rnd.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    # no operation of these workloads is expected to fail
    correct = not rnd.problems and rnd.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
