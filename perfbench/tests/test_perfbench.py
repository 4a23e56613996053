"""Self-test of the benchmark at a tiny size.

Each run goes through `run.main` in its own process (the benchmark re-imports
coxcartan, which must not disturb the test process) with the workload stream
replaced by seven small queries.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

QUIVER = (4, [(0, 1), (0, 1), (1, 3), (2, 3)])
TINY = f"""
import sys
sys.path.insert(0, {BENCH!r})
import checks, layertrace, run, workloads
Q = workloads.Query
n, arrows = {QUIVER!r}

def tiny(workload, seed):
    return workloads.Stream([
        Q(["inverse", "--family=a-infinity", "--window=3..12"], ("path-inverse", None)),
        Q(["inverse", "--file=q.txt", "--window=0..3"], ("path-inverse", (n, arrows))),
        Q(["verify", "--family=d-infinity", "--window=-1..6", "--suite=inverse"], ("ok",)),
        Q(["inverse", "--family=garland:1", "--window=0..1"], ("mobius",)),
        Q(["tau", "--family=a-infinity", "--interval=1,3", "--direction=tau"]),
        Q(["mesh", "--family=a-infinity", "--interval=2,4", "--direction=starting-from"]),
        Q(["resolve", "--family=garland-seq:1,2", "--vertex=j2", "--side=left"]),
    ], {{"q.txt": workloads.quiver_text(n, arrows)}})

workloads.make_stream = tiny
if sys.argv[1] == "corrupt":
    checks.recorded_digest = lambda workload, seed: "0" * 64
if sys.argv[1] == "rename":  # a traced function the package no longer has
    layertrace.TARGETS.append(("linalg", "rref_renamed", "linalg.rref", True))
sys.exit(run.main(sys.argv[2:]))
"""


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tiny_run(trace, change="keep"):
    argv = ["--workload=path-matrix", "--seed=999999", "--seconds=0", f"--trace={trace}"]
    proc = subprocess.run(
        [sys.executable, "-c", TINY, change] + argv,
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result, expected):
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_every_end_to_end_metric_is_printed():
    rc, result = tiny_run(trace=0)
    assert rc == 0
    assert result["correct"] and result["attempted"] == 7 and result["failed"] == 0
    assert_metrics(result, spec()["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_is_printed():
    rc, result = tiny_run(trace=1)
    assert rc == 0 and result["correct"]
    assert_metrics(result, spec()["per_layer"])
    assert result["metrics"]["resolutions.ext_alternating_sum.calls"]["value"] > 0


def test_corrupted_recorded_digest_fails_the_run():
    rc, result = tiny_run(trace=0, change="corrupt")
    assert rc == 1
    assert not result["correct"] and result["failed"] == 1


def test_missing_trace_target_fails_the_traced_run():
    rc, result = tiny_run(trace=1, change="rename")
    assert rc == 1
    assert not result["correct"] and result["failed"] == 1


def test_per_layer_spec_matches_layer_map():
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["metrics"]
    assert spec()["per_layer"] == [
        {"name": m["name"], "unit": m["unit"], "better": m["better"]} for m in layers
    ]


def test_streams_are_seeded_and_long_enough_for_p90():
    for workload in workloads.WORKLOADS:
        a = workloads.make_stream(workload, 5)
        b = workloads.make_stream(workload, 5)
        c = workloads.make_stream(workload, 6)
        assert [q.argv for q in a.queries] == [q.argv for q in b.queries]
        assert a.files == b.files
        assert [q.argv for q in a.queries] != [q.argv for q in c.queries]
        assert len(a.queries) >= 100
        for q in a.queries:
            assert all(arg.startswith("--") and "=" in arg for arg in q.argv[1:])
