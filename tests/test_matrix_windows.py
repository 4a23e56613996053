"""Matrix windows: printed bytes, cost, and the bulk reads they are built from."""

import contextlib
import hashlib
import io
import json
import random
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from coxcartan import FinitePoset, FiniteQuiver, cartan_inverse, make_family
from coxcartan.cli import run
from coxcartan.lazymatrix import MatrixWindow


def invoke(argv):
    out = io.StringIO()
    return run(argv, out=out), out.getvalue()


def seeded_quiver_text(n, seed):
    """A `--file` quiver on 0..n-1: each vertex has one or two arrows in from
    the six below it, some of them doubled.  Only `random()` is drawn, whose
    sequence is fixed for a seed across Python versions."""
    rng = random.Random(seed)
    lines = ["kind quiver"] + [f"vertex {v}" for v in range(n)]
    for v in range(1, n):
        for _ in range(1 + int(rng.random() * 2)):
            u = max(0, v - 6) + int(rng.random() * min(6, v))
            lines += [f"arrow {u} {v}"] * (2 if rng.random() < 0.3 else 1)
    return "\n".join(lines) + "\n"


def ladder_text(n, m):
    """The chain 0 -> 1 -> ... -> n with every arrow m-fold: m**n paths 0 -> n."""
    lines = ["kind quiver"] + [f"arrow {v} {v + 1}" for v in range(n) for _ in range(m)]
    return "\n".join(lines) + "\n"


# a poset whose Mobius function reaches 2 (three elements between 0 and 4)
POSET_TEXT = "kind poset\n" + "".join(
    f"cover {u} {v}\n" for u, v in [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5),
                                     (4, 6), (5, 7), (6, 7), (7, 8), (2, 9), (9, 8)])

MATRIX_COMMANDS = [
    ["cartan"], ["inverse"], ["coxeter", "--direction=forward"], ["coxeter", "--direction=inverse"],
]

WINDOWS = [
    ("--file=seeded.txt", ["0..39", "5..20", "30,3,17,9", "38..39", "7", "0..41", "3,x"]),
    ("--file=ladder.txt", ["0..60", "55..60", "0,30,60"]),
    ("--file=poset.txt", ["0..9", "4..8", "8,0,4"]),
    ("--family=a-infinity", ["0..12", "7..30", "1000..1003", "3..1", "-2..0"]),
    ("--family=z-a-infinity", ["-8..8", "-500..-490", "4,-4,0"]),
    ("--family=d-infinity", ["-1..10", "0..0", "2..9", "1,-1,0", "-3..-2"]),
    ("--family=garland:2", ["0..2", "-1..0", "j1,g1.1t,g1.2b,j2", "g0.3t"]),
]


def window_corpus():
    for command in MATRIX_COMMANDS:
        for fmt in ("tsv", "json-lines"):
            for source, windows in WINDOWS:
                for window in windows:
                    yield [command[0], source, f"--window={window}", f"--format={fmt}",
                           *command[1:]]


def corpus_digests(tmp_path):
    """sha256 over argv, exit code, stdout and stderr of the window corpus,
    one per (command, format)."""
    (tmp_path / "seeded.txt").write_text(seeded_quiver_text(40, 20230))
    (tmp_path / "ladder.txt").write_text(ladder_text(60, 2))
    (tmp_path / "poset.txt").write_text(POSET_TEXT)
    digests = {}
    for argv in window_corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([a.replace("--file=", f"--file={tmp_path}/") for a in argv], out=out)
        key = " ".join(argv[:1] + argv[3:])
        digests.setdefault(key, hashlib.sha256()).update(
            json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
    return {key: h.hexdigest() for key, h in digests.items()}


def test_window_output_is_unchanged(tmp_path):
    # recorded before windows were built and printed from their nonzeros
    assert corpus_digests(tmp_path) == {
        "cartan --format=tsv":
            "8de0a8a320a38677162371875af518aef6b73a41e425646db9c5895925ac266e",
        "cartan --format=json-lines":
            "e24dcdcfcc6c1e643c5659585ada501d6fa2c2a5597ca6d2ba97b4d8f80ed38f",
        "inverse --format=tsv":
            "c07edeb29080d4458ac4d76b77cb5d2b56abfc296848b63ca06c2c6b9ca0246e",
        "inverse --format=json-lines":
            "7bd93d521550fe38092b6278381dec204cba1d634ccb8d75602c66c1e929cd03",
        "coxeter --format=tsv --direction=forward":
            "32d0b7a34fa552a06d356177980a67215f39555968726f6a6b139f66266c01d8",
        "coxeter --format=json-lines --direction=forward":
            "0ae2ecf26482fc8bdc18b9c9079036360dc8446e243d48ee5ef3361e5a3e4abd",
        "coxeter --format=tsv --direction=inverse":
            "1f5ad10b93954a73c8976aad47c3eee73e3d521f14c51eb04bb85c4917e9a104",
        "coxeter --format=json-lines --direction=inverse":
            "32fb44710ff432aaa7b8e66857c4850b81a24bf8ddc0f9fbffab81de53b2c077",
    }


def chain_text(n):
    lines = ["kind quiver"] + [f"arrow {v} {v + 1}" for v in range(n - 1)]
    return "\n".join(lines) + "\n"


def test_file_quiver_windows_build_only_the_columns_they_read(tmp_path):
    # a window far up a 1501-vertex chain keeps the columns of its own
    # vertices, about 1400 counts each, and not those of their ancestors
    path = tmp_path / "chain.txt"
    path.write_text(chain_text(1501))
    src = f"--file={path}"
    argvs = [
        ["cartan", src, "--window=1400..1405"],
        ["coxeter", src, "--window=1400..1405", "--direction=inverse"],
        ["tau", src, "--interval=1400,1405"],
    ]
    for argv in argvs:
        tracemalloc.start()
        try:
            code, out = invoke(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out, argv
        assert peak < 8 * 2**20, (argv, peak)


def test_file_quiver_coxeter_window_calls_no_path_count(tmp_path):
    # the rows of c^tr are read off the kept columns, not one count per cell
    path = tmp_path / "q.txt"
    path.write_text(seeded_quiver_text(172, 4))
    with mock.patch.object(FiniteQuiver, "path_count", autospec=True,
                           side_effect=FiniteQuiver.path_count) as count:
        code, out = invoke(["coxeter", f"--file={path}", "--window=0..171",
                            "--direction=inverse"])
    assert code == 0 and len(out.splitlines()) == 173
    assert count.call_count == 0


def paths_by_enumeration(n, arrows, u, v):
    """The directed paths u -> v, trivial one included, walked one by one:
    each parallel arrow is a path of its own."""
    found, todo = 0, [u]
    while todo:
        x = todo.pop()
        found += x == v
        todo.extend(t for s, t in arrows if s == x)
    return found


@st.composite
def quiver_reads(draw):
    """A finite quiver on n <= 7 vertices whose arrows go up a hidden order
    (so display and Kahn order differ), some of them parallel, and a run of
    reads, each a vertex and a list of vertices in any order, with repeats,
    so that columns are built both from scratch and from kept ones."""
    n = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(1, 3)), max_size=12))
    arrows = [(perm[min(a, b)], perm[max(a, b)]) for a, b, m in pairs if a != b for _ in range(m)]
    vertex = st.integers(0, n - 1)
    reads = draw(st.lists(st.tuples(
        st.sampled_from(["counts_into", "counts_from", "paths_into", "paths_from"]),
        st.booleans(), vertex, st.lists(vertex, max_size=8)), min_size=1, max_size=8))
    return n, arrows, reads


@settings(max_examples=150, deadline=None)
@given(quiver_reads())
def test_finite_quiver_counts_match_path_enumeration(case):
    n, arrows, reads = case
    q = FiniteQuiver(range(n), arrows)
    reverse = [(t, s) for s, t in arrows]
    for name, opposite, x, others in reads:
        pres, arcs = (q.opposite(), reverse) if opposite else (q, arrows)

        def count(u, v):
            return paths_by_enumeration(n, arcs, u, v)

        got = getattr(pres, name)(x, others) if name.startswith("counts") else \
            getattr(pres, name)(x)
        if name == "counts_into":
            assert got == [count(u, x) for u in others]
        elif name == "counts_from":
            assert got == [count(x, v) for v in others]
        elif name == "paths_into":
            assert got == {u: count(u, x) for u in range(n) if count(u, x)}
        else:
            assert got == {v: count(x, v) for v in range(n) if count(x, v)}


def test_ladder_counts_reach_two_to_the_sixtieth():
    # 0 -> 1 -> ... -> 60 with every arrow doubled: 2**(v-u) paths u -> v
    q = FiniteQuiver(range(61), [(v, v + 1) for v in range(60) for _ in range(2)])
    vertices = list(range(61))
    for v in (30, 60, 59, 0):
        assert q.counts_into(v, vertices) == [2 ** (v - u) if u <= v else 0 for u in vertices]
    assert q.counts_from(0, vertices) == [2 ** v for v in vertices]
    assert q.counts_from(17, vertices[::-1]) == [2 ** (v - 17) if v >= 17 else 0
                                                 for v in vertices[::-1]]
    assert q.paths_into(60)[0] == q.paths_from(0)[60] == q.path_count(0, 60) == 2 ** 60
    op = q.opposite()
    assert op.counts_from(60, [0, 60, 1]) == [2 ** 60, 1, 2 ** 59]
    assert op.paths_from(60) == {u: 2 ** (60 - u) for u in vertices}


CELLS = st.one_of(st.sampled_from([0, 0, 0, 1, -1, 10, -12, 345, 2 ** 60, -(2 ** 60)]),
                  st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda w: st.tuples(
    st.just(w), st.integers(-3, 3),
    st.lists(st.lists(CELLS, min_size=w, max_size=w), min_size=1, max_size=6))))
@example((1, 0, [[0]]))
@example((1, 2, [[-(2 ** 60)]]))
@example((3, -1, [[0, 0, 0], [2 ** 60, 0, -7], [0, 0, 0]]))
def test_tsv_prints_every_cell_as_str(case):
    # rows of any sign, width and length, all-zero rows and 1x1 windows
    width, lo, grid = case
    pres = make_family("z-a-infinity")
    rows = pres.window(f"{lo}..{lo + len(grid) - 1}")
    cols = pres.window(f"{-lo}..{-lo + width - 1}")
    expect = "\t" + "\t".join(map(str, cols)) + "\n" + "".join(
        f"{v}\t" + "\t".join(map(str, row)) + "\n" for v, row in zip(rows, grid))
    assert MatrixWindow(rows, cols, grid).to_tsv() == expect


@st.composite
def inverse_row_reads(draw):
    """c^-1 of a path family, a garland, a random --file quiver or poset, or
    the opposite of one, a vertex j and a column list in any order that may
    omit j and repeat vertices."""
    source = draw(st.sampled_from(["family", "garland", "quiver", "poset"]))
    if source == "family":
        pres = make_family(draw(st.sampled_from(["a-infinity", "z-a-infinity", "d-infinity"])))
        lo = draw(st.integers(0, 6))
        pool = [v for v in range(lo - 2, lo + 8) if pres.has_vertex(v)]
    elif source == "garland":
        pres = make_family("garland", draw(st.integers(1, 3)))
        pool = pres.window(f"{draw(st.integers(-2, 2))}..{draw(st.integers(3, 4))}").vertices
    else:
        n = draw(st.integers(1, 7))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=10))
        cls = FiniteQuiver if source == "quiver" else FinitePoset
        pres = cls(range(n), [(min(u, v), max(u, v)) for u, v in pairs if u != v])
        pool = pres.vertices()
    if draw(st.booleans()):
        pres = pres.opposite()
    j = draw(st.sampled_from(pool))
    cols = draw(st.lists(st.sampled_from(pool), max_size=10))
    return pres, j, cols


@settings(max_examples=150, deadline=None)
@given(inverse_row_reads())
@example((make_family("a-infinity"), 3, [5, 2, 0, 2, 4]))
@example((make_family("garland", 2), ("j", 1), [("g", 0, 2, 1), ("j", 0), ("g", 0, 1, 0)]))
def test_inverse_row_read_matches_its_entries(case):
    pres, j, cols = case
    assert cartan_inverse(pres).row_on(j, cols) == [cartan_inverse(pres).entry(j, p) for p in cols]
