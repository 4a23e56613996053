"""Record each workload's output digest for a range of seeds.

Run from the repository root:

    python3 perfbench/record_digests.py --first-seed 0 --last-seed 31

For every workload and seed it runs one untimed pass of the stream, refuses
to record a stream that has a failing query, and writes the digest of every
query's stdout and exit code to perfbench/digests.json.  A run of the
benchmark with a recorded seed then fails if any output differs.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def stream_digest(root, workload, seed):
    pkg, stream, inputs = run.set_up(root, workload, seed)
    rec = run.Record(stream.queries)
    os.chdir(inputs)
    try:
        run.run_loop([(pkg.cli, rec)], 0)
    finally:
        os.chdir(root)
    failed = run.check_outputs(pkg, rec)
    if failed:
        bad = "\n".join(" ".join(stream.queries[i].argv) for i in sorted(failed))
        raise SystemExit(f"{workload} seed {seed}: failing queries, not recorded:\n{bad}")
    return checks.stream_digest(rec.digests)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--last-seed", type=int, default=31)
    args = p.parse_args(argv)
    root = os.getcwd()
    with open(checks.DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    for workload in workloads.WORKLOADS:
        table = digests.setdefault(workload, {})
        for seed in range(args.first_seed, args.last_seed + 1):
            table[str(seed)] = stream_digest(root, workload, seed)
            print(workload, seed, table[str(seed)], flush=True)
    with open(checks.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
