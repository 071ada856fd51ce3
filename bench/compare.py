"""Do two sets of benchmark runs of the same code agree within the bounds?

    python3 bench/compare.py
    python3 bench/compare.py --traced

Reads BENCHMARK.json at the checkout root.  The default mode makes two sets
of 10 untraced runs (seeds 1..10, then 101..110) of every workload and prints,
for each end-to-end metric and workload, each set's median and spread (the
distance between the first and third quartile as a share of the median) and
the second median's change against the first.  A pair agrees when the change
in the worse direction and both spreads stay within the metric's bound, and
the two sets fail the same share of operations.  --traced makes two traced
runs per workload with seed 1 instead and checks that every per-layer count
repeats exactly.  Exit status 0 when all agree.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed}: " + " ".join(
        f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        if not trace or k == "trace.overhead_s"), file=sys.stderr, flush=True)
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed their checks")
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def compare_sets(bench: dict, workloads) -> bool:
    seconds = bench["run_seconds"]
    sets = []
    for first_seed in (1, 101):
        results = {w: [bench_run(w, first_seed + i, seconds, 0) for i in range(RUNS)]
                   for w in workloads}
        sets.append(results)
    ok = True
    print(f"{'workload':10} {'metric':12} {'median A':>10} {'spread A':>9} "
          f"{'median B':>10} {'spread B':>9} {'change':>8} {'bound':>6}  verdict")
    for w in workloads:
        fail_shares = [[r["failed"] / r["attempted"] for r in s[w]] for s in sets]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][name]["value"] for r in s[w]] for s in sets]
            med = [statistics.median(v) for v in vals]
            spr = [spread(v) for v in vals]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (med[1] - med[0]) / med[0]
            agree = change <= bound and max(spr) <= bound
            ok &= agree
            print(f"{w:10} {name:12} {med[0]:10.4f} {spr[0]:9.3f} {med[1]:10.4f} "
                  f"{spr[1]:9.3f} {change:+8.3f} {bound:6.2f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
        same_failures = len(set(fail_shares[0] + fail_shares[1])) == 1
        ok &= same_failures
        print(f"{w:10} failed share {fail_shares[0][0]:.4f} in every run: "
              f"{'yes' if same_failures else 'NO'}")
        for s, label in zip(sets, "AB"):
            for metric in bench["end_to_end"]:
                name = metric["name"]
                print(f"  {label} {w} {name}: "
                      + " ".join(f"{r['metrics'][name]['value']:.4f}" for r in s[w]))
    return ok


def compare_traced(bench: dict, workloads) -> bool:
    ok = True
    for w in workloads:
        a, b = (bench_run(w, 1, bench["run_seconds"], 1)["metrics"] for _ in range(2))
        counts = [m["name"] for m in bench["per_layer"] if m["unit"] != "s"]
        differing = [n for n in counts if a[n]["value"] != b[n]["value"]]
        ok &= not differing
        print(f"{w}: counts repeat exactly: {'yes' if not differing else 'NO ' + str(differing)};"
              f" tracing overhead {a['trace.overhead_s']['value']:.3f} s and "
              f"{b['trace.overhead_s']['value']:.3f} s")
        for m in bench["per_layer"]:
            print(f"  {m['name']:32} {a[m['name']]['value']:>16.6g} "
                  f"{b[m['name']]['value']:>16.6g} {m['unit']}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true",
                        help="compare the counts of two traced runs instead")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    ok = compare_traced(bench, workloads) if args.traced \
        else compare_sets(bench, workloads)
    print("all agree" if ok else "some pairs disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
