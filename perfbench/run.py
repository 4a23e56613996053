"""Benchmark of the `cox` command: one seeded query stream per workload.

Run from the repository root:

    python3 perfbench/run.py --workload path-matrix --seed 1 --seconds 40 --trace 0

The stream (workloads.py) is generated before timing starts.  The load is a
closed loop with one client: each query is one in-process
`coxcartan.cli.run(argv, out=StringIO())` call that builds its presentation
afresh, as a `cox` invocation does.  One pass runs the package alone; then
the loop cycles through the stream until --seconds (counted from that pass)
have passed and at least one more whole pass is done.  In the loop each query
also runs, right beside it, on frozen/coxcartan_frozen, a copy of the package
as it was when the benchmark was written: the machine is shared and its
speed drifts by tens of percent within seconds and over minutes, and streams
of different seeds differ in their amount of work; the frozen copy measures
both in the same run.  The correctness checks (checks.py) run after the
loop.  A query fails if it raises, exits nonzero, prints something else on a
later pass, or fails its check.

The last line of stdout is one JSON object with the keys `correct`,
`attempted` and `failed` (distinct queries of the stream) and `metrics`.
With --trace 0 the metrics are the end-to-end ones:

  query_p50_ms, query_p90_ms  median and 90th percentile over the stream's
                              queries of each query's latency, the fastest
                              of its executions; a failed query counts as +inf
  queries_per_s               successful queries per second of the summed
                              latencies of all queries
  setup_s                     set-up time: importing coxcartan afresh,
                              generating the stream and writing the --file
                              inputs, as before the first query
  peak_rss_mb                 ru_maxrss of this process after one pass of
                              the package alone, before the frozen copy is
                              imported

The times are given at reference speed: the package's value times nominal /
(the frozen copy's value in the same run), with the nominal values of
reference.json.  For setup_s that is the median, over SETUPS rounds that set
up both the package and the frozen copy, of the ratio of their set-up times.
stderr shows the raw values of both.

With --trace 1 the loop runs one wrapped pass, then rounds of a plain and a
sampled pass (layertrace.py); the metrics are those of layers.json, and the
spans of the wrapped pass go to .perfbench/.  The exit code is 0 when every
check passed, 1 when one failed or a traced function of layertrace.TARGETS is
missing from the package, 2 on a usage error or when src/coxcartan is
missing.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from layertrace import Sampler, Tracer  # noqa: E402

SETUPS = 15
END_TO_END_UNITS = {
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as _fh:
    LAYER_METRICS = json.load(_fh)["metrics"]
with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    NOMINAL = json.load(_fh)["nominal"]

# A frozen copy of coxcartan as it was when the benchmark was written, timed
# side by side with the package under test as a yardstick for machine speed.
FROZEN_PACKAGE = "coxcartan_frozen"
FROZEN_SRC = os.path.join(HERE, "frozen")


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark of the cox command.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package(name, src):
    """Import package `name` afresh from the directory `src`, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(src, name, "cli.py")):
        sys.stderr.write(f"perfbench: no {name} in {src}; run from the repository root\n")
        raise SystemExit(2)
    for mod in [n for n in sys.modules if n == name or n.startswith(name + ".")]:
        del sys.modules[mod]
    if src not in sys.path:
        sys.path.insert(0, src)
    pkg = importlib.import_module(name)
    importlib.import_module(f"{name}.cli")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        sys.stderr.write(f"perfbench: imported {name} from {pkg.__file__}, not {src}\n")
        raise SystemExit(2)
    return pkg


def set_up(root, workload, seed, name="coxcartan", src=None):
    """Import the package, generate the stream and write its --file inputs."""
    pkg = import_package(name, src or os.path.join(root, "src"))
    stream = workloads.make_stream(workload, seed)
    inputs = os.path.join(root, ".perfbench", f"{workload}-{seed}")
    os.makedirs(inputs, exist_ok=True)
    for file_name, text in stream.files.items():
        with open(os.path.join(inputs, file_name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return pkg, stream, inputs


def time_setups(root, workload, seed):
    """SETUPS rounds that each set up the package and the frozen copy, the
    order alternating: the median ratio of their set-up times, and the median
    time of each."""
    clock = time.perf_counter
    sides = [("coxcartan", os.path.join(root, "src")), (FROZEN_PACKAGE, FROZEN_SRC)]
    # The package imports some modules when a function runs, so the modules
    # the loop runs must stay in sys.modules: put them back afterwards.
    loaded = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "coxcartan"}
    rounds = []
    for k in range(SETUPS):
        took = {}
        for name, src in sides[k % 2:] + sides[:k % 2]:
            t0 = clock()
            set_up(root, workload, seed, name, src)
            took[name] = clock() - t0
        rounds.append((took["coxcartan"] / took[FROZEN_PACKAGE],
                       took["coxcartan"], took[FROZEN_PACKAGE]))
    for n in [n for n in sys.modules if n.split(".")[0] == "coxcartan"]:
        del sys.modules[n]
    sys.modules.update(loaded)
    return [statistics.median(column) for column in zip(*rounds)]


def execute(cli, argv):
    out = io.StringIO()
    try:
        rc = cli.run(argv, out=out)
    except Exception as exc:  # a crash (RecursionError, ...) is a failed query
        rc = type(exc).__name__
    return rc, out.getvalue()


class Record:
    """Latencies and outputs of every query of a stream over all passes."""

    def __init__(self, queries):
        self.queries = queries
        self.samples = [[] for _ in queries]
        self.digests = [None] * len(queries)
        self.first = [None] * len(queries)  # (rc, stdout if the query is checked)
        self.unstable = set()

    def add(self, i, seconds, rc, out):
        self.samples[i].append(seconds)
        digest = checks.output_digest(rc, out)
        if self.digests[i] is None:
            self.digests[i] = digest
            self.first[i] = (rc, out if self.queries[i].check else None)
        elif digest != self.digests[i]:
            self.unstable.add(i)


def run_loop(sides, seconds, tracer=None):
    """Cycle through the stream until `seconds` are over and at least one
    whole pass is done; return the loop's wall time.  `sides` are (cli
    module, Record) pairs over the same stream: each query runs on every side
    in turn, the order rotating from pass to pass."""
    queries = sides[0][1].queries
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    k = 0
    with redirect_stderr(io.StringIO()):
        while k < len(queries) or clock() < deadline:
            i = k % len(queries)
            turn = k // len(queries) % len(sides)
            for cli, rec in sides[turn:] + sides[:turn]:
                if tracer is not None:
                    tracer.query = i
                t0 = clock()
                rc, out = execute(cli, queries[i].argv)
                rec.add(i, clock() - t0, rc, out)
            k += 1
    return clock() - start


def check_outputs(pkg, rec):
    """Indices of the queries that failed (run, stability or check)."""
    failed = set(rec.unstable)
    for i, (query, (rc, out)) in enumerate(zip(rec.queries, rec.first)):
        if rc != 0:
            failed.add(i)
        elif query.check:
            try:
                ok = checks.check_query(pkg, query, out)
            except Exception:  # an unparsable output fails its check
                ok = False
            if not ok:
                failed.add(i)
    return failed


def latencies(rec, failed):
    """p50, p90 and rate of a stream.  Each query's latency is the fastest of
    its executions; a failed query counts as +inf, and its time still counts
    towards the rate, so fixing it never lowers the rate."""
    n = len(rec.queries)
    fastest = [min(s) for s in rec.samples]
    lat = sorted(math.inf if i in failed else t for i, t in enumerate(fastest))
    return {
        "query_p50_ms": 1000 * statistics.median(lat),
        "query_p90_ms": 1000 * lat[math.ceil(0.9 * n) - 1],
        "queries_per_s": (n - len(failed)) / sum(fastest),
    }


def end_to_end(rec, frozen_rec, failed, nominal, setups, rss_kb):
    """End-to-end metrics; the times at the reference speed: each is scaled by
    nominal / (the frozen copy's value in this run).  Also the raw values of
    the package and of the frozen copy."""
    raw = latencies(rec, failed)
    frozen = latencies(frozen_rec, set())
    values = {name: raw[name] * nominal[name] / frozen[name] for name in raw}
    ratio, raw["setup_s"], frozen["setup_s"] = setups
    values["setup_s"] = ratio * nominal["setup_s"]
    values["peak_rss_mb"] = rss_kb / 1024
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return metrics, raw, frozen


def layer_metrics(tracer, samples, plain, sampled, wrapped_s):
    """Per-layer metrics: counts from the wrapped pass, self-time shares from
    the samples of all sampled passes, pass times as medians."""
    total = sum(samples.values())
    plain_s = statistics.median(plain)
    attempts = tracer.calls["artranslate.transpose"]
    special = {
        "trace.query_s": plain_s,
        "trace.overhead_ratio": wrapped_s / plain_s - 1,
        "trace.sampling_overhead_ratio": statistics.median(sampled) / plain_s - 1,
        "artranslate.transpose.attempts": attempts,
        "artranslate.transpose.useful_ratio":
            tracer.counters["artranslate.transpose.successes"] / attempts if attempts else 1.0,
    }
    out = {}
    for m in LAYER_METRICS:
        name = m["name"]
        key, what = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif what == "self_share":
            hits = sum(n for k, n in samples.items()
                       if k == key or ("." not in key and k.split(".")[0] == key))
            value = hits / total if total else 0.0
        elif what == "calls":
            value = tracer.calls[key]
        elif what == "errors":
            value = tracer.errors[key]
        else:
            value = tracer.counters[name]
        out[name] = (value, m["unit"])
    return out


def timed_run(root, workload, seed, cli, rec, seconds):
    """One pass of the package alone, for its peak memory (its times are
    dropped, so both sides count the same number of executions); then the
    set-up rounds; then passes of the package and the frozen copy side by
    side until `seconds` from the start are over.  Returns the frozen copy's
    Record, the time_setups figures and the peak memory in kB."""
    start = time.perf_counter()
    run_loop([(cli, rec)], 0)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec.samples = [[] for _ in rec.queries]
    setups = time_setups(root, workload, seed)
    frozen_cli = importlib.import_module(f"{FROZEN_PACKAGE}.cli")
    frozen_rec = Record(rec.queries)
    run_loop([(cli, rec), (frozen_cli, frozen_rec)], seconds - (time.perf_counter() - start))
    return frozen_rec, setups, rss_kb


def traced_run(cli, rec, seconds, tracer):
    """One pass under the wrappers (counts and spans), then rounds of a plain
    and a sampled pass (self time) until `seconds` are over."""
    sampler = Sampler(tracer.targets)
    start = time.perf_counter()
    tracer.install()
    try:
        wrapped_s = run_loop([(cli, rec)], 0, tracer)
    finally:
        tracer.remove()
    plain, sampled = [], []
    while not plain or time.perf_counter() - start < seconds:
        plain.append(run_loop([(cli, rec)], 0))
        with sampler:
            sampled.append(run_loop([(cli, rec)], 0))
    return layer_metrics(tracer, sampler.samples, plain, sampled, wrapped_s)


def finite(x):
    return x if math.isfinite(x) else None


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    pkg, stream, inputs = set_up(root, args.workload, args.seed)
    first_setup_s = time.perf_counter() - STARTED
    rec = Record(stream.queries)
    tracer = Tracer() if args.trace else None
    os.chdir(inputs)
    try:
        if tracer:
            metrics = traced_run(pkg.cli, rec, args.seconds, tracer)
        else:
            frozen_rec, setups, rss_kb = timed_run(root, args.workload, args.seed,
                                                  pkg.cli, rec, args.seconds)
    finally:
        os.chdir(root)
    failed = check_outputs(pkg, rec)
    if not tracer:
        metrics, raw, frozen = end_to_end(rec, frozen_rec, failed, NOMINAL[args.workload],
                                          setups, rss_kb)
        sys.stderr.write(f"first set-up {first_setup_s:.4f} s\n")
        for name in raw:
            sys.stderr.write(f"raw {name} {raw[name]:.6g}, frozen copy {frozen[name]:.6g}\n")
    digest = checks.stream_digest(rec.digests)
    expected = checks.recorded_digest(args.workload, args.seed)
    digest_ok = expected is None or expected == digest
    n_failed = len(failed) + (0 if digest_ok else 1)
    if tracer and tracer.missing:
        sys.stderr.write(f"traced functions missing from the package: {tracer.missing}\n")
        n_failed += len(tracer.missing)
    if tracer:
        tracer.write_spans(os.path.join(root, ".perfbench",
                                        f"spans-{args.workload}-{args.seed}.json"))
    passes = sum(len(s) for s in rec.samples) / len(rec.queries)
    err = sys.stderr
    err.write(f"{args.workload} seed {args.seed}: {len(rec.queries)} queries, "
              f"{passes:.2f} passes, {len(failed)} failed, "
              f"failed_ratio {len(failed) / len(rec.queries):.4f}\n")
    err.write(f"digest {digest} "
              f"({'no recorded digest' if expected is None else 'matches' if digest_ok else 'MISMATCH'})\n")
    for i in sorted(failed):
        err.write(f"failed: {' '.join(rec.queries[i].argv)} -> {rec.first[i][0]}\n")
    for name, (value, unit) in metrics.items():
        err.write(f"  {name:45s} {value:14.6g} {unit}\n")
    result = {
        "correct": n_failed == 0,
        "attempted": len(rec.queries),
        "failed": n_failed,
        "metrics": {name: {"value": finite(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
