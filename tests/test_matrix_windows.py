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
    return digests_by_command(window_corpus(), tmp_path,
                              lambda argv: " ".join(argv[:1] + argv[3:]))


def digests_by_command(corpus, tmp_path, key):
    """sha256 over argv, exit code, stdout and stderr of each command of
    `corpus`, one per key(argv), with --file= read from tmp_path."""
    digests = {}
    for argv in corpus:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([a.replace("--file=", f"--file={tmp_path}/") for a in argv], out=out)
        digests.setdefault(key(argv), hashlib.sha256()).update(
            json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
    return {k: h.hexdigest() for k, h in digests.items()}


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


def garland_names(lengths, first, shown):
    """Displayed vertex names of garland blocks of `lengths` glued in a row
    from junction `first`, grouped by level, bottom up; the block above
    junction m is displayed as m + shown."""
    levels = [[f"j{first}"]]
    for m, length in enumerate(lengths, start=first):
        levels += [[f"g{m + shown}.{i}t", f"g{m + shown}.{i}b"] for i in range(1, length + 1)]
        levels.append([f"j{m + 1}"])
    return levels


def incidence_corpus():
    """Every command on garland:1..3 and on garland-seq rows of random block
    lengths, named by their displayed spellings, with the refusals among
    them: integer ranges on garland-seq, unknown and out-of-range vertices,
    and a --file naming garland-seq.  Only `random()` is drawn."""
    rng = random.Random(30)
    sources = [(f"--family=garland:{n}", garland_names([n] * 2, -1, 0)) for n in (1, 2, 3)]
    for k in range(5):
        lengths = [1 + int(rng.random() * 3) for _ in range(1 + k % 3)]
        sources.append(("--family=garland-seq:" + ",".join(map(str, lengths)),
                        garland_names(lengths, 0, 1)))
    sources.append(("--file=seq.txt", garland_names([12], 0, 1)))
    for source, levels in sources:
        names = [v for level in levels for v in level]
        for v in names:
            for side in ("left", "right"):
                yield ["resolve", source, f"--vertex={v}", f"--side={side}"]
        for _ in range(12):
            u, v = names[int(rng.random() * len(names))], names[int(rng.random() * len(names))]
            yield ["ext", source, f"--from={u}", f"--to={v}", "--max-degree=5"]
        top = min(len(levels) - 1, 7)
        spans = [names[:sum(map(len, levels[:top + 1]))],
                 [levels[1][-1], levels[0][0], levels[top][0], levels[2][0]]]
        windows = [",".join(span) for span in spans]
        if source.startswith("--family=garland:"):
            windows += ["0..1", "-1..0"]
        for window in windows:
            for command in MATRIX_COMMANDS:
                for fmt in ("tsv", "json-lines"):
                    yield [command[0], source, f"--window={window}", f"--format={fmt}",
                           *command[1:]]
            yield ["classify", source, f"--window={window}"]
            for suite in ("inverse", "coxeter", "tau", "euler"):
                yield ["verify", source, f"--window={window}", f"--suite={suite}"]
        for lo in range(min(len(levels) - 2, 5)):
            window = ",".join(levels[lo] + levels[lo + 2])
            yield ["verify", source, f"--window={window}", "--suite=mobius"]
        for direction in ("forward", "inverse"):
            vector = f"1@{names[1]},-2@{names[-2]},3@{names[len(names) // 2]}"
            yield ["apply", source, f"--vector={vector}", f"--direction={direction}",
                   f"--eval={windows[0]}"]
        for bad in ("j-1", "g0.1t", f"j{len(levels)}", "g1.9b", "x", "0"):
            yield ["resolve", source, f"--vertex={bad}"]
            yield ["ext", source, f"--from={names[0]}", f"--to={bad}"]
            yield ["inverse", source, f"--window={names[0]},{bad}"]
            yield ["apply", source, f"--vector=1@{bad}", f"--eval={names[0]}"]
        for window in ("0..2", "1..0", "-1..3"):
            yield ["cartan", source, f"--window={window}"]
            yield ["verify", source, f"--window={window}", "--suite=euler"]
        yield ["tau", source, f"--interval={names[0]},{names[-1]}"]
        yield ["knit", source, f"--section={windows[0]}", "--steps=2"]


def test_incidence_output_is_unchanged(tmp_path):
    # recorded while garland-seq was still built as a generic finite poset;
    # the file's family line reads as garland-seq:12
    (tmp_path / "seq.txt").write_text("family garland-seq 1 2\n")
    digests = digests_by_command(incidence_corpus(), tmp_path,
                                 lambda argv: f"{argv[0]} {argv[1].split(':')[0]}")
    assert digests == {
        "resolve --family=garland":
            "4904f7a9bc1b690d65ed9cc0ba0ddd476362f152685a1294c6dd25956f475e9c",
        "ext --family=garland":
            "0c211d54202fc5c2c5589762db5b31dd4b8a0089ec7ef9e996c52f8d1d0e7f29",
        "cartan --family=garland":
            "ba92ff96b9eac52153605109571e0b3532e57e7b923d6314e01b0ac59605dc9a",
        "inverse --family=garland":
            "98a084ce366448da6686a6b3427cadc0c4c2b054a212e05954b62540fc04554e",
        "coxeter --family=garland":
            "1ee0b2dc717a7c5311c044c1a4279561c19ab53674e6cec3d7e31d2b0402f2da",
        "classify --family=garland":
            "46dfe9dcb671efe704685a974a49d6867edbdeccc56cbbd04d41fea82c272400",
        "verify --family=garland":
            "d5d3c46edd4bb357e8356ef937a278fae6233374e2ef998cd8705b15b9fe7630",
        "apply --family=garland":
            "15b559b7afa727438c1f0d71cd6b9646871d11f76ccca14c24c52d2dd688784b",
        "tau --family=garland":
            "a5f409a15d0f9ae5f9d5e061478a940ea10d89186a9c94334485044ebfaa0201",
        "knit --family=garland":
            "5883e4d72a3503d90e35ddc620365b1973e5fe7898e76b602801663a7dc74cf9",
        "resolve --family=garland-seq":
            "67cfc31f738d31dcf3a77f87d9008b1310c37dffc88ee3da62eb733c7ec25ea8",
        "ext --family=garland-seq":
            "1b72fd42509062a39686cef21d23dba1f6b977ca193f449d9c4c99e08e80d383",
        "cartan --family=garland-seq":
            "98dfeaf8095422877d4ad5d9ed5f741ad9c5f7b6053ac8a811ebd1ce170386ab",
        "inverse --family=garland-seq":
            "675c9214e0814c504eafca361e86727a77d91da15132aa8f8d7261f0c675b36f",
        "coxeter --family=garland-seq":
            "b1aaab82a2b4df3e92a0a490d636a6037ac37aae546f9affcbf90c0fe2abc3a3",
        "classify --family=garland-seq":
            "6ff9e64807406a84906cf9b64dd7ceb23bf2237504c3541768b08168131d32e2",
        "verify --family=garland-seq":
            "e937a81f396d48fb267cd28eb6d8496c7a356e5e2f3d0c39659d04ccf0047145",
        "apply --family=garland-seq":
            "354c2d7384886c4462a64ebe965277d4c81d82bca79976e9a0e118d365a5b055",
        "tau --family=garland-seq":
            "f6e68988fc68a648e017320d1539a86a16e252a36405d4c44d8ce45a0062d4cd",
        "knit --family=garland-seq":
            "bafb7e0551b4745ae0fc75d59f0d8522c0221105805dc2c6fb65837b267be45b",
        "resolve --file=seq.txt":
            "ffccd3b53220241860ef8ef614de19b50ab444976d169800f43075a23655c195",
        "ext --file=seq.txt":
            "6f7683f299ee7494842012084f031e6fc81e67ac304846d535c712246b3bce20",
        "cartan --file=seq.txt":
            "9b3119254697458ed8a1fe2b074c0c9ad9e9cb8c58b70be0062537cc65c63dc7",
        "inverse --file=seq.txt":
            "c1121c31f01f1e3f6ffac154080d10f64a6113400f8dc56f185aa6f13a41b2c5",
        "coxeter --file=seq.txt":
            "3b49464173a883f17292cdc16739f4921dfdaa24adc988e9e4d2a50be95b8d49",
        "classify --file=seq.txt":
            "3de458974f9a769947785bc39668de2da021eceeb49fe70711164711fbe104f3",
        "verify --file=seq.txt":
            "36adbe5384d3eb5feb27ab63a15c574c3e1ee0d26440bf7145b9e8062a2fd883",
        "apply --file=seq.txt":
            "74ae6e8c295e0eca7ce9f6a836e39a68bced7d1637264cac3232f240217352ca",
        "tau --file=seq.txt":
            "d7e97aff7703617407e0f8468e0fc8cde3f8b16d87ff5cf4dba7657148e52bf7",
        "knit --file=seq.txt":
            "35ba2756127c762fd95582708b98131beb93ae24d0a61e4bcf4df51b852470ca",
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
