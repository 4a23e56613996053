"""Seeded query streams for the three benchmark workloads.

A stream is a list of `Query` objects, each one `cox` invocation written with
`--flag=value` flags (argparse rejects `--vector -1@3` and `--interval -5,5`
otherwise), plus the text of every `--file` input it names.  The same seed
always gives the same stream.  Sizes are stratified: a kind of query that
appears n times per stream takes one size near the middle of each of n equal
slices of its size range, and choices that change the cost (directions,
suites, sides) are split evenly, so two seeds differ in detail (offsets,
vertices, vectors, random quivers, order) but hardly in the amount of work.

No query is chosen by its outcome.  Inputs the package refuses by design
(knitting past the end of its seed, intervals across the fork of d-infinity,
meshes starting at an injective) are excluded by rules on the input alone.
"""

import random
from dataclasses import dataclass

WORKLOADS = ("path-matrix", "incidence", "translate")

# Families whose windows `lo..hi` are convex, so a Cartan window holds every
# path between its vertices and its dense inverse is the window of c^-1.
PATH_FAMILIES = ("a-infinity", "z-a-infinity", "d-infinity")


@dataclass
class Query:
    argv: list
    # Independent check run outside the timed loop: None, ("ok",) for a
    # verify suite, ("path-inverse", None or (n, arrows) of a --file quiver)
    # or ("mobius",) for `inverse`.
    check: tuple = None


@dataclass
class Stream:
    queries: list
    files: dict  # file name (relative to the input directory) -> text


def strata(rng, n, lo, hi):
    """n integers spread over lo..hi, one near the middle of each of n equal
    slices (moved by up to a tenth of a slice), shuffled."""
    width = (hi - lo + 1) / n
    vals = [lo + int(width * (i + 0.5 + 0.1 * (2 * rng.random() - 1))) for i in range(n)]
    rng.shuffle(vals)
    return vals


def dealt(rng, kinds, per_kind, lo, hi):
    """Sizes for several kinds of query: one fine stratified grid over lo..hi,
    dealt out in turn after sorting, so that each kind gets sizes spread over
    the whole range and the kinds together cover it evenly (a percentile of
    the stream's latencies then falls among many similar queries)."""
    sizes = sorted(strata(rng, len(kinds) * per_kind, lo, hi))
    order = rng.sample(kinds, len(kinds))
    out = {kind: [] for kind in kinds}
    for i, n in enumerate(sizes):
        out[order[i % len(kinds)]].append(n)
    for kind in kinds:
        rng.shuffle(out[kind])
    return out


# where windows of each path family start: -1 and 0 both sit below 1 in
# d-infinity, and z-a-infinity windows sit around 0
OFFSETS = {"a-infinity": (0, 40), "z-a-infinity": (-40, 40), "d-infinity": (-1, 20)}


def family_windows(rng, family, sizes):
    """(lo, hi) windows of the given sizes on a path family."""
    lo_min, lo_max = OFFSETS[family]
    shift = (lambda n: n // 2) if family == "z-a-infinity" else (lambda n: 0)
    return [(lo - shift(n), lo - shift(n) + n - 1)
            for n, lo in zip(sizes, strata(rng, len(sizes), lo_min, lo_max))]


def random_quiver(rng, n):
    """Arrows of a random acyclic quiver on 0..n-1 (every arrow goes up, each
    vertex has one or two arrows in from the six below it; some arrows are
    doubled)."""
    arrows = []
    for v in range(1, n):
        for _ in range(rng.choice((1, 1, 2))):
            u = rng.randrange(max(0, v - 6), v)
            arrows.extend([(u, v)] * rng.choice((1, 1, 1, 2)))
    return arrows


def quiver_text(n, arrows):
    lines = ["kind quiver"] + [f"vertex {v}" for v in range(n)]
    lines += [f"arrow {u} {v}" for u, v in arrows]
    return "\n".join(lines) + "\n"


def vector_literal(rng, vertices, terms):
    picks = rng.sample(vertices, terms)
    return ",".join(f"{rng.choice((-2, -1, 1, 1, 2, 3))}@{v}" for v in picks)


def sub_window(rng, n):
    """A window of 8..30 consecutive vertices of 0..n-1."""
    size = rng.randint(8, min(30, n))
    lo = rng.randint(0, n - size)
    return lo, lo + size - 1


MATRIX_COMMANDS = (
    ["cartan"], ["inverse"],
    ["coxeter", "--direction=forward"], ["coxeter", "--direction=inverse"],
)


def path_matrix(rng):
    """cartan/inverse/coxeter on 10..160-vertex windows of the path families
    and on 20..200-vertex random quivers read with --file, apply with 1..5-term
    vectors, and verify inverse|coxeter on 8..30-vertex windows."""
    queries = []
    files = {}
    heavy = [(fam, k) for fam in PATH_FAMILIES for k in (0, 2, 3)]  # all but inverse
    sizes = dealt(rng, heavy, 3, 10, 160)
    for fam in PATH_FAMILIES:
        src = f"--family={fam}"
        sizes[fam, 1] = strata(rng, 5, 10, 160)
        for k, cmd in enumerate(MATRIX_COMMANDS):
            check = ("path-inverse", None) if cmd == ["inverse"] else None
            for lo, hi in family_windows(rng, fam, sizes[fam, k]):
                queries.append(Query(cmd[:1] + [src, f"--window={lo}..{hi}"] + cmd[1:], check))
        for suite in ("inverse", "coxeter"):
            for lo, hi in family_windows(rng, fam, strata(rng, 5, 8, 30)):
                queries.append(Query(
                    ["verify", src, f"--window={lo}..{hi}", f"--suite={suite}"], ("ok",)))
        for direction in ("forward", "inverse"):
            windows = family_windows(rng, fam, strata(rng, 4, 10, 60))
            for terms, (lo, hi) in zip(strata(rng, 4, 1, 5), windows):
                vec = vector_literal(rng, list(range(lo, hi + 1)), terms)
                queries.append(Query([
                    "apply", src, f"--vector={vec}", f"--direction={direction}",
                    f"--eval={lo}..{hi}",
                ]))
    for k, n in enumerate(strata(rng, 3, 20, 200)):
        arrows = random_quiver(rng, n)
        name = f"quiver{k}.txt"
        files[name] = quiver_text(n, arrows)
        src = f"--file={name}"
        for cmd in MATRIX_COMMANDS:
            check = ("path-inverse", (n, arrows)) if cmd == ["inverse"] else None
            queries.append(Query(cmd[:1] + [src, f"--window=0..{n - 1}"] + cmd[1:], check))
        # only the inverse suite: the coxeter suite's round trip truncates
        # Phi(e_a) to two steps around the window, which is wrong on these
        # quivers
        lo, hi = sub_window(rng, n)
        queries.append(Query(
            ["verify", src, f"--window={lo}..{hi}", "--suite=inverse"], ("ok",)))
        vec = vector_literal(rng, list(range(n)), rng.randint(1, 5))
        queries.append(Query([
            "apply", src, f"--vector={vec}", f"--direction={('forward', 'inverse')[k % 2]}",
            f"--eval=0..{n - 1}",
        ]))
    return queries, files


def garland_seq(rng, blocks):
    return [rng.randint(1, 3) for _ in range(blocks)]


def garland_levels(lengths):
    """Vertex names of garland-seq:<lengths> grouped by level, bottom up."""
    levels = [["j0"]]
    for b, length in enumerate(lengths, start=1):
        for lev in range(1, length + 1):
            levels.append([f"g{b}.{lev}t", f"g{b}.{lev}b"])
        levels.append([f"j{b}"])
    return levels


def seq_flag(lengths):
    return "--family=garland-seq:" + ",".join(map(str, lengths))


def incidence(rng):
    """inverse/coxeter on 1..4-block windows of garland:1..3, resolve and ext
    on garland-seq with 2..4 blocks of lengths 1..3, verify euler|mobius on
    garland-seq windows.

    Caps keep the slowest query near 1 s: garland:3 windows stop at three
    blocks, and a mobius window spans at most six levels (seven take about
    4 s: the order complex of the open interval grows fast)."""
    queries = []
    blocks = [(length, b) for length in (1, 2, 3) for b in range(1, 5)
              if not (length == 3 and b == 4)]
    for k, (length, b) in enumerate(blocks):
        fam = f"--family=garland:{length}"
        lo = rng.randint(-3, 3)
        queries.append(Query(["inverse", fam, f"--window={lo}..{lo + b}"], ("mobius",)))
        lo = rng.randint(-3, 3)
        queries.append(Query(["coxeter", fam, f"--window={lo}..{lo + b}",
                              f"--direction={('forward', 'inverse')[k % 2]}"]))
    for k in range(30):
        lengths = garland_seq(rng, 2 + k % 3)
        levels = garland_levels(lengths)
        names = [v for level in levels for v in level]
        queries.append(Query([
            "resolve", seq_flag(lengths), f"--vertex={rng.choice(names)}",
            f"--side={('left', 'right')[k % 2]}",
        ]))
        lo = rng.randrange(len(levels) - 1)
        hi = rng.randrange(lo + 1, len(levels))
        queries.append(Query([
            "ext", seq_flag(lengths), f"--from={rng.choice(levels[lo])}",
            f"--to={rng.choice(levels[hi])}", "--max-degree=8",
        ]))
    for suite, span in (("euler", 8), ("mobius", 6)):
        for k, d in enumerate(strata(rng, 10, 2, span)):
            lengths = garland_seq(rng, 2 + k % 3)
            while sum(lengths) + len(lengths) < d:
                lengths.append(rng.randint(1, 3))
            levels = garland_levels(lengths)
            lo = rng.randrange(len(levels) - d)
            win = [rng.choice(levels[lo]), rng.choice(levels[lo + d])]
            if d > 2 and k % 2:
                win.insert(1, rng.choice(levels[lo + rng.randint(1, d - 1)]))
            queries.append(Query(
                ["verify", seq_flag(lengths), "--window=" + ",".join(win), f"--suite={suite}"],
                ("ok",),
            ))
    return queries, {}


# where translated intervals start: d-infinity intervals must not cross the
# fork below 1, and I[0,*] on a-infinity is injective (queried on its own)
INTERVAL_STARTS = {"a-infinity": (1, 10), "z-a-infinity": (-20, 20), "d-infinity": (1, 10)}


def translate(rng):
    """tau on interval modules of length 1..40 and mesh on the path families,
    knit from injective sections and from seed columns (10..80 steps), and
    verify tau on 5..8-vertex windows."""
    queries = []
    kinds = [(fam, d) for fam in PATH_FAMILIES for d in ("tau", "tau-minus")]
    lengths = dealt(rng, kinds, 5, 1, 40)
    for fam in PATH_FAMILIES:
        for direction in ("tau", "tau-minus"):
            starts = strata(rng, 5, *INTERVAL_STARTS[fam])
            for lo, length in zip(starts, lengths[fam, direction]):
                queries.append(Query([
                    "tau", f"--family={fam}", f"--interval={lo},{lo + length - 1}",
                    f"--direction={direction}",
                ]))
        for n in strata(rng, 4, 5, 8):
            # a d-infinity section starts at the fork
            lo = {"a-infinity": rng.randint(0, 10), "z-a-infinity": rng.randint(-10, 10),
                  "d-infinity": -1}[fam]
            queries.append(Query(
                ["verify", f"--family={fam}", f"--window={lo}..{lo + n - 1}", "--suite=tau"],
                ("ok",),
            ))
    for length in strata(rng, 2, 1, 40):  # tau-minus of an injective is zero
        queries.append(Query([
            "tau", "--family=a-infinity", f"--interval=0,{length - 1}", "--direction=tau-minus",
        ]))
    for fam in ("a-infinity", "z-a-infinity"):
        for direction in ("ending-at", "starting-from"):
            starts = strata(rng, 11, *INTERVAL_STARTS[fam])
            for lo, length in zip(starts, strata(rng, 11, 1, 40)):
                queries.append(Query([
                    "mesh", f"--family={fam}", f"--interval={lo},{lo + length - 1}",
                    f"--direction={direction}",
                ]))
    # Knitting stops when it runs out of seed: `steps` must not exceed the top
    # vertex of an injective section from the source, or hi - lo of a column.
    steps_of = dealt(rng, ["a-infinity", "d-infinity", "a-col", "z-col"], 3, 10, 80)
    for fam, base in (("a-infinity", 0), ("d-infinity", -1)):
        for steps in steps_of[fam]:
            top = steps + rng.randint(0, 3)
            queries.append(Query([
                "knit", f"--family={fam}", f"--section={base}..{top}", f"--steps={steps}",
            ]))
    for fam in ("a-infinity", "z-a-infinity"):
        for steps in steps_of[fam[0] + "-col"]:
            lo = rng.randint(0, 10) if fam == "a-infinity" else rng.randint(-10, 10)
            hi = lo + steps + rng.randint(0, 3)
            queries.append(Query([
                "knit", f"--family={fam}", f"--seed-column={lo}..{hi}", f"--steps={steps}",
            ]))
    return queries, {}


GENERATORS = {"path-matrix": path_matrix, "incidence": incidence, "translate": translate}


def make_stream(workload, seed):
    """The stream of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    queries, files = GENERATORS[workload](rng)
    rng.shuffle(queries)
    return Stream(queries, files)
