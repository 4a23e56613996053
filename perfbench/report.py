"""Stability report: run a workload several times and summarise each metric.

Run from the repository root:

    python3 perfbench/report.py --workload incidence --runs 10 --sets 2

Each run is `perfbench/run.py` in its own process with seed first-seed + k.
For every end-to-end metric of BENCHMARK.json the report prints the median,
the quartiles (statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median,
next to the metric's bound.  With --sets 2 the same seeds run twice and the
second median is compared with the first: it may be worse by at most the
bound.  --traced adds one --trace 1 run on the first seed and prints each
layer's share of self time.  --out adds the results, with the Python version
and the number of usable CPUs, to a trajectory file (one entry per workload).
The exit code is 1 when a run fails, a spread exceeds its bound, or a second
median is worse than the first by more than the bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(root, spec, workload, seed, seconds, trace=0):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report_set(spec, results):
    """Print medians, quartiles and spreads; return (medians, ok)."""
    ok = True
    medians = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med, q1, q3 = summary(values)
        spread = (q3 - q1) / med
        medians[m["name"]] = med
        flag = "" if spread <= m["bound"] else "  SPREAD > BOUND"
        ok = ok and not flag
        print(f"  {m['name']:15s} median {med:12.6g} {m['unit']:4s} "
              f"Q1 {q1:12.6g} Q3 {q3:12.6g} spread {spread:7.4f} "
              f"(bound {m['bound']}, a third {m['bound'] / 3:.4f}){flag}")
    return medians, ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--traced", action="store_true", help="add one traced run")
    p.add_argument("--out", help="trajectory file to add the results to")
    args = p.parse_args(argv)
    root = os.getcwd()
    spec = load_spec(root)
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    sets = []
    for s in range(args.sets):
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            rc, result, err = run_once(root, spec, args.workload, seed, seconds)
            if rc != 0 or result is None or not result["correct"]:
                ok = False
                sys.stderr.write(f"run with seed {seed} failed (exit {rc}):\n{err}\n")
                continue
            results.append(result)
            values = " ".join(f"{n}={v['value']:.6g}" for n, v in result["metrics"].items())
            print(f"set {s + 1} seed {seed}: {values}", flush=True)
        if len(results) < 2:
            return 1
        print(f"{args.workload}, set {s + 1}, {len(results)} runs of {seconds} s:")
        medians, set_ok = report_set(spec, results)
        ok = ok and set_ok
        sets.append({"seeds": [args.first_seed + k for k in range(args.runs)],
                     "results": results, "medians": medians})
    if len(sets) == 2:
        print("second set against the first:")
        for m in spec["end_to_end"]:
            w = worse_by(sets[0]["medians"][m["name"]], sets[1]["medians"][m["name"]], m["better"])
            flag = "" if w <= m["bound"] else "  WORSE THAN BOUND"
            ok = ok and not flag
            print(f"  {m['name']:15s} worse by {w:+.4f} (bound {m['bound']}){flag}")
    traced = None
    if args.traced:
        rc, traced, err = run_once(root, spec, args.workload, args.first_seed, seconds, trace=1)
        if rc != 0 or traced is None or not traced["correct"]:
            sys.stderr.write(f"traced run failed (exit {rc}):\n{err}\n")
            return 1
        shares = {n[: -len(".self_share")]: v["value"] for n, v in traced["metrics"].items()
                  if n.endswith(".self_share") and n.count(".") == 1}
        print("self-time shares of the traced run: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc.update({"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                    "run_seconds": seconds})
        doc.setdefault("workloads", {})[args.workload] = {"sets": sets, "traced": traced}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
