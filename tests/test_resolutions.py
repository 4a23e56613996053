import io
import tracemalloc
from unittest import mock

import pytest

from coxcartan import (
    GarlandFamily,
    IntervalFinitenessViolated,
    cartan_inverse,
    check_sharp_euler,
    comodules,
    ext_alternating_sum,
    ext_dim,
    inj_dim_simple,
    linalg,
    make_family,
    minimal_injective_resolution,
    mobius,
    parse_presentation,
    presentations,
    resolutions,
)
from coxcartan.cli import run

DIAMOND = "kind poset\ncover a b\ncover a c\ncover b d\ncover c d\n"


def test_resolution_a_infinity_simple():
    a = make_family("a-infinity")
    summary = minimal_injective_resolution(a, 1, "left")
    assert summary.terms == [{1: 1}, {0: 1}]


def test_resolution_d_infinity_injective_simple():
    d = make_family("d-infinity")
    summary = minimal_injective_resolution(d, 1, "left")
    assert summary.terms == [{1: 1}]


def test_resolution_right_side_uses_opposite():
    a = make_family("a-infinity")
    summary = minimal_injective_resolution(a, 0, "right")
    assert summary.terms == [{0: 1}, {1: 1}]


def test_resolution_chain_poset():
    p = parse_presentation("kind poset\ncover a b\ncover b c\n")
    summary = minimal_injective_resolution(p, "c", "left")
    assert summary.terms == [{"c": 1}, {"b": 1}]


def test_resolution_diamond_reaches_degree_two():
    p = parse_presentation(DIAMOND)
    summary = minimal_injective_resolution(p, "d", "left")
    assert summary.terms == [{"d": 1}, {"b": 1, "c": 1}, {"a": 1}]


def test_ext_quiver_cases():
    a = make_family("a-infinity")
    assert ext_dim(a, 0, 1, 1) == 1
    assert ext_dim(a, 0, 0, 0) == 1
    assert ext_dim(a, 0, 2, 1) == 0
    assert ext_dim(a, 0, 1, 2) == 0
    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    assert ext_dim(k, 0, 1, 1) == 2


def test_ext_poset_matches_order_complex():
    p = parse_presentation(DIAMOND)
    for m in range(5):
        assert ext_dim(p, "a", "d", m) == ext_dim(p, "a", "d", m, method="complex")
    assert ext_dim(p, "a", "d", 2) == 1


def test_ext_degree_one_equals_cover_count():
    p = parse_presentation(DIAMOND)
    assert ext_dim(p, "a", "b", 1) == 1
    assert ext_dim(p, "a", "d", 1) == 0
    assert ext_dim(p, "b", "c", 1) == 0  # incomparable


def test_mobius_small_cases():
    two = parse_presentation("kind poset\ncover a b\n")
    assert mobius(two, "a", "b") == -1
    diamond = parse_presentation(DIAMOND)
    assert mobius(diamond, "a", "d") == 1
    assert mobius(diamond, "b", "c") == 0


def chain_poset(n, reverse=False):
    order = range(n - 1, -1, -1) if reverse else range(n)
    return parse_presentation(
        "kind poset\n"
        + "".join(f"vertex {i}\n" for i in order)
        + "".join(f"cover {i} {i + 1}\n" for i in range(n - 1))
    )


def test_mobius_on_a_long_reversed_chain_needs_no_recursion():
    # display order 1499, ..., 0 sent the recursive mu 1400 calls deep
    p = chain_poset(1500, reverse=True)
    assert mobius(p, 0, 1400) == 0
    assert mobius(p, 1399, 1400) == -1


def test_chains_are_listed_depth_first_within_the_budget(monkeypatch):
    p = chain_poset(3)
    assert resolutions._chains_of([0, 1, 2], p.leq) == [
        (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,),
    ]
    monkeypatch.setenv("COX_NODE_BUDGET", "7")
    assert len(resolutions._chains_of([0, 1, 2], p.leq)) == 7
    monkeypatch.setenv("COX_NODE_BUDGET", "6")
    with pytest.raises(IntervalFinitenessViolated, match="COX_NODE_BUDGET 6"):
        resolutions._chains_of([0, 1, 2], p.leq)


def test_mobius_diamond_hand_recursion():
    # mu(a,d) = -(mu(a,a) + mu(a,b) + mu(a,c)) = -(1 - 1 - 1) = 1
    diamond = parse_presentation(DIAMOND)
    assert mobius(diamond, "a", "b") == -1
    assert mobius(diamond, "a", "c") == -1
    assert mobius(diamond, "a", "d") == -(1 - 1 - 1)


def test_alternating_sum_equals_mobius_on_garlands():
    for lengths in ([1], [2], [1, 2]):
        g = make_family("garland-seq", lengths)
        for p in g.vertices():
            for j in g.vertices():
                assert ext_alternating_sum(g, p, j) == mobius(g, p, j)


def test_cartan_inverse_poset_equals_mobius():
    g = make_family("garland-seq", [1, 2])
    cinv = cartan_inverse(g)
    for p in g.vertices():
        for j in g.vertices():
            assert cinv.entry(j, p) == mobius(g, p, j)


def test_inj_dim_garland_blocks():
    g = make_family("garland-seq", [1, 2])
    assert inj_dim_simple(g, ("j", 1)) == 2
    assert inj_dim_simple(g, ("j", 2)) == 3


def test_inj_dim_infinite_garland():
    g1 = make_family("garland", 1)
    g2 = make_family("garland", 2)
    assert inj_dim_simple(g1, ("j", 0)) == 2
    assert inj_dim_simple(g2, ("j", 5)) == 3


def test_inj_dim_quiver_cases():
    a = make_family("a-infinity")
    assert inj_dim_simple(a, 0) == 0
    assert inj_dim_simple(a, 5) == 1
    d = make_family("d-infinity")
    assert inj_dim_simple(d, 1) == 0


def test_sharp_euler_families():
    a = make_family("a-infinity")
    assert check_sharp_euler(a, list(a.window("0..5"))) == []
    d = make_family("d-infinity")
    assert check_sharp_euler(d, list(d.window("-1..4"))) == []


def test_sharp_euler_random_tree():
    # a small tree quiver is locally finite, hence both-sided sharp
    tree = parse_presentation(
        "kind quiver\narrow 0 1\narrow 0 2\narrow 1 3\narrow 1 4\narrow 2 5\n"
    )
    assert check_sharp_euler(tree, tree.vertices()) == []


def test_sharp_euler_garland():
    g = make_family("garland", 1)
    assert check_sharp_euler(g, list(g.window("0..1"))) == []


def test_sharp_euler_lists_one_line_per_failure():
    # right-side Ext read one too high: every compared degree is a failure,
    # and the euler suite prints the first three and exits 1
    g = make_family("garland", 1)
    sample = list(g.window("0..1"))
    real = resolutions.ext_dim

    def skewed(pres, src, tgt, m, method="resolution"):
        right = isinstance(pres, presentations.OppositePresentation)
        return real(pres, src, tgt, m, method) + right

    with mock.patch.object(resolutions, "ext_dim", skewed):
        failures = check_sharp_euler(g, sample)
        out = io.StringIO()
        code = run(["verify", "--suite=euler", "--family=garland:1", "--window=0..1"], out=out)
    compared = [(i, j, m) for i in sample for j in sample
                for m in resolutions.ext_degrees(g, i, j)]
    assert len(failures) == len(compared) > 3
    assert failures[0] == "ext symmetry fails at (j0,j0,m=0): 1 vs 2"
    assert (code, out.getvalue()) == (1, "FAIL: " + "; ".join(failures[:3]) + "\n")


def test_ext_symmetry_garland_seq():
    g = make_family("garland-seq", [1, 2])
    op = g.opposite()
    for i in g.vertices():
        for j in g.vertices():
            for m in range(6):
                assert ext_dim(g, i, j, m) == ext_dim(op, j, i, m)


def test_hereditary_vanishing_above_degree_one():
    d = make_family("d-infinity")
    for m in range(2, 6):
        assert ext_dim(d, 1, 2, m) == 0


def test_garland_interval_ext_profile():
    # across one garland block of length 2: the open interval is a 4-cycle,
    # so the only higher Ext sits in degree 3
    g = make_family("garland", 2)
    lo, hi = ("j", 0), ("j", 1)
    dims = [ext_dim(g, lo, hi, m) for m in range(5)]
    assert dims == [0, 0, 0, 1, 0]
    cx = [ext_dim(g, lo, hi, m, method="complex") for m in range(5)]
    assert cx == dims


def test_longer_garland_block_top_ext_degree():
    # block of length 3: the open junction interval is a triple join of
    # two-point fibres, so the top Ext sits in degree 4
    g = make_family("garland", 3)
    lo, hi = ("j", 0), ("j", 1)
    dims = [ext_dim(g, lo, hi, m) for m in range(6)]
    assert dims == [0, 0, 0, 0, 1, 0]
    assert [ext_dim(g, lo, hi, m, method="complex") for m in range(6)] == dims
    assert inj_dim_simple(g, hi) == 4


def test_random_poset_ext_symmetry():
    import random

    rng = random.Random(314)
    for _ in range(12):
        n = rng.randint(2, 7)
        rels = []
        for _ in range(rng.randint(0, 10)):
            u = rng.randint(0, n - 2)
            v = rng.randint(u + 1, n - 1)
            rels.append(f"cover {u} {v}")
        text = "kind poset\n" + "\n".join([f"vertex {i}" for i in range(n)] + rels)
        p = parse_presentation(text)
        op = p.opposite()
        for i in p.vertices():
            for j in p.vertices():
                for m in range(5):
                    assert ext_dim(p, i, j, m) == ext_dim(op, j, i, m), (text, i, j, m)


def test_hasse_view_is_an_honest_quiver_presentation():
    # the cover quiver of the diamond is a different coalgebra from the
    # incidence one: it counts the two parallel length-two paths
    from coxcartan import cartan_pair, verify_identity_on_window

    diamond = parse_presentation(DIAMOND)
    q = parse_presentation("kind quiver\narrow a b\narrow a c\narrow b d\narrow c d\n")
    pair = cartan_pair(q)
    w = q.window(["a", "b", "c", "d"])
    assert pair.cartan.entry("d", "a") == 2
    assert cartan_inverse(diamond).entry("d", "a") == 1  # Mobius, not path count
    assert verify_identity_on_window(pair.inverse, pair.cartan, w)[0]
    assert verify_identity_on_window(pair.cartan, pair.inverse, w)[0]


def test_junction_cut_kills_long_ext():
    # intervals across a junction are cones, so all Ext vanish
    g = make_family("garland", 1)
    lo, hi = ("j", 0), ("j", 2)
    for m in range(1, 7):
        assert ext_dim(g, lo, hi, m) == 0
        assert ext_dim(g, lo, hi, m, method="complex") == 0
    assert ext_alternating_sum(g, lo, hi) == 0 == mobius(g, lo, hi)


def test_inverse_entries_cut_by_a_junction_are_zero():
    # p < j with a junction strictly between them: [p, j] is a cone, so the
    # entry is 0.  On a garland and on garland-seq these are exactly the
    # p <= j outside local_downset(j), which no resolution of the row reaches
    garland = make_family("garland", 2)
    seq = make_family("garland-seq", [1, 2, 1])
    cases = [
        (garland, list(garland.window("-1..2"))),
        (garland.opposite(), list(garland.window("-1..2"))),
        (seq, seq.vertices()),
        (seq.opposite(), seq.vertices()),
    ]
    for pres, verts in cases:
        junctions = [v for v in verts if pres.display(v).startswith("j")]
        cinv = cartan_inverse(pres)
        cut_pairs = 0
        for j in verts:
            for p in verts:
                if p == j or not pres.leq(p, j):
                    continue
                cut = any(
                    z not in (p, j) and pres.leq(p, z) and pres.leq(z, j) for z in junctions
                )
                assert (p not in pres.local_downset(j)) == cut, (p, j)
                if cut:
                    cut_pairs += 1
                    assert cinv.entry(j, p) == 0 == mobius(pres, p, j), (p, j)
        assert cut_pairs > 0


def test_a_resolution_that_outlasts_its_region_is_a_defect(capsys):
    # no resolution over a region of n elements reaches degree n, so a
    # cokernel that never vanishes can only come from a broken engine: this
    # one keeps a one-dimensional cokernel at the top of the region
    def stuck(g, region, ann):
        return {region[-1]: [{0: 1}]}

    with mock.patch.object(resolutions, "label_annihilators", stuck):
        code = run(["resolve", "--family=garland-seq:1", "--vertex=j1"], out=io.StringIO())
    assert code == 3
    assert capsys.readouterr().err == (
        "internal error: AssertionError: resolution of simple at j1 still nonzero "
        "at degree 4 over a region of 4 elements\n"
    )


def test_a_cokernel_that_does_not_embed_is_a_defect(capsys):
    # the envelope of the first cokernel of S(j1) on garland-seq:1 is
    # E(g1.1t) + E(g1.1b); a zero functional for E(g1.1t) leaves the
    # cokernel's line at g1.1t with no image, which the rank check catches
    real = resolutions.label_socle

    def corrupted(inj, region, ann):
        socle = real(inj, region, ann)
        return [(socle[0][0], {})] + socle[1:]

    with mock.patch.object(resolutions, "label_socle", corrupted):
        code = run(["resolve", "--family=garland-seq:1", "--vertex=j1"], out=io.StringIO())
    assert code == 3
    assert capsys.readouterr().err == (
        "internal error: AssertionError: envelope embedding not injective at g1.1t\n"
    )


POSET_COMMANDS = [
    (["resolve", "--family=garland-seq:1,2", "--vertex=j2"],
     "degree\tvertex\tmultiplicity\n0\tj2\t1\n1\tg2.2t\t1\n1\tg2.2b\t1\n"
     "2\tg2.1t\t1\n2\tg2.1b\t1\n3\tj1\t1\n"),
    (["resolve", "--family=garland:3", "--vertex=g1.2b", "--side=right"],
     "degree\tvertex\tmultiplicity\n0\tg1.2b\t1\n1\tg1.3t\t1\n1\tg1.3b\t1\n2\tj2\t1\n"),
    (["ext", "--family=garland-seq:1,2", "--from=j1", "--to=j2", "--max-degree=4"],
     "m\tdim\n0\t0\n1\t0\n2\t0\n3\t1\n4\t0\n"),
    (["ext", "--family=garland:3", "--from=g0.1t", "--to=j1"],
     "m\tdim\n0\t0\n1\t0\n2\t0\n3\t1\n4\t0\n5\t0\n6\t0\n"),
    (["inverse", "--family=garland-seq:1,2", "--window=j0,g2.1t,j2"],
     "\tj0\tg2.1t\tj2\nj0\t1\t0\t0\ng2.1t\t0\t1\t0\nj2\t0\t1\t1\n"),
    (["inverse", "--family=garland:3", "--window=j0,g0.2t,j1"],
     "\tj0\tg0.2t\tj1\nj0\t1\t0\t0\ng0.2t\t1\t1\t0\nj1\t1\t1\t1\n"),
    (["verify", "--suite=euler", "--family=garland-seq:1,2", "--window=j0,j2"],
     "OK: sampled simples have finite socle-finite resolutions, Ext symmetric\n"),
    (["verify", "--suite=euler", "--family=garland:3", "--window=0..1"],
     "OK: sampled simples have finite socle-finite resolutions, Ext symmetric\n"),
]


@pytest.mark.parametrize(
    "argv, expected", POSET_COMMANDS,
    ids=[f"{argv[0]}{i}" for i, (argv, _) in enumerate(POSET_COMMANDS)],
)
def test_poset_resolutions_build_no_injective(argv, expected):
    # a poset's resolutions keep its injectives as labels: they never
    # materialise one, nor embed a comodule in its envelope
    with mock.patch.object(
        comodules.MaterializedInjective, "__init__", side_effect=AssertionError("materialized")
    ), mock.patch.object(comodules, "label_envelope", side_effect=AssertionError("envelope")):
        out = io.StringIO()
        code = run(argv, out=out)
    assert (code, out.getvalue()) == (0, expected)


def test_garland_inverse_window_resolves_each_row_once():
    resolved = []
    real = resolutions._resolve_in_region

    def counted(pres, region, j):
        resolved.append(j)
        return real(pres, region, j)

    with mock.patch.object(resolutions, "_resolve_in_region", counted):
        code = run(["inverse", "--family=garland:2", "--window=0..8"], out=io.StringIO())
    assert code == 0
    # one resolution per orbit of the 41 rows, j0, g0.1t and g0.2t: the rest
    # are moved there by block shifts and top-bottom swaps; resolving one row
    # per vertex took 41, one interval per entry 804
    assert len(resolved) <= 3
    assert len(set(resolved)) == len(resolved)


def test_euler_suite_resolves_each_simple_once_per_side():
    # Ext, the symmetry check and both sides' resolution tables read one
    # resolution per orbit and side, L + 1 orbits on garland:L; one per
    # simple and side took 74, one per interval 1374
    g = make_family("garland", 4)
    with mock.patch.object(
        resolutions, "_resolve_in_region", wraps=resolutions._resolve_in_region
    ) as engine:
        out = io.StringIO()
        code = run(["verify", "--suite=euler", "--family=garland:4", "--window=0..4"], out=out)
    assert (code, out.getvalue()) == (
        0, "OK: sampled simples have finite socle-finite resolutions, Ext symmetric\n"
    )
    resolved = [(type(call.args[0]).__name__, call.args[2]) for call in engine.call_args_list]
    assert len(set(resolved)) == len(resolved) == 2 * (g.lengths[0] + 1)


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_moved_resolutions_match_the_engine(length):
    # every row read off its orbit's representative equals the engine run
    # on the row's own cut region, on both sides, in blocks -3..3
    g = make_family("garland", length)
    for pres in (g, g.opposite()):
        for j in g.window("-3..4"):
            region = sorted(pres.local_downset(j), key=pres.sort_key)
            assert resolutions._row_terms(pres, j) == resolutions._resolve_in_region(
                pres, region, j
            ), (pres, j)


def test_mobius_suite_checks_moved_rows_on_negative_blocks():
    # the Mobius and order-complex oracles never move a value along an
    # orbit, so they check each moved row of the inverse independently
    g = make_family("garland", 3)
    verts = list(g.window("-2..-1"))
    with mock.patch.object(GarlandFamily, "orbit", side_effect=AssertionError):
        for p in verts:
            for j in verts:
                mobius(g, p, j)
                for m in resolutions.ext_degrees(g, p, j):
                    ext_dim(g, p, j, m, method="complex")
    for window in ("-2..-1", "-1..0", "g-2.3b,j-1,g-1.1t,g-1.2b,g-1.3t,j0,g0.1b"):
        out = io.StringIO()
        code = run(["verify", "--suite=mobius", "--family=garland:3", f"--window={window}"],
                   out=out)
        assert (code, out.getvalue()) == (
            0, "OK: resolution, Mobius and order-complex oracles agree on window\n"
        ), window


def test_opposite_view_is_shared_so_each_simple_resolves_once():
    # each call builds its own opposite view; their row memos live on the
    # base, so the right simple is resolved once
    g = make_family("garland", 2)
    j1 = g.parse_token("j1")
    with mock.patch.object(
        resolutions, "_resolve_in_region", wraps=resolutions._resolve_in_region
    ) as engine:
        tables = [minimal_injective_resolution(g, j1, side).terms
                  for side in ("left", "left", "right", "right")]
    assert engine.call_count == 2
    assert tables[0] == tables[1] and tables[2] == tables[3]


def test_garland_seq_rows_resolve_the_last_block_only():
    g = make_family("garland-seq", "3,3,3,1")
    j4 = g.parse_token("j4")
    assert {g.display(v) for v in g.local_downset(j4)} == {"j3", "g4.1t", "g4.1b", "j4"}
    assert len(g.ancestors(j4)) == 25
    regions = []
    real = resolutions._resolve_in_region

    def counted(pres, region, j):
        regions.append(len(region))
        return real(pres, region, j)

    with mock.patch.object(resolutions, "_resolve_in_region", counted):
        argv = ["inverse", "--family=garland-seq:3,3,3,1", "--window=g4.1t,j4"]
        code = run(argv, out=io.StringIO())
    assert code == 0
    assert regions == [4]


GARLAND_SEQ_COMMANDS = [
    ["resolve", "--family=garland-seq:2,1,3", "--vertex=g3.2b", "--side=right"],
    ["resolve", "--family=garland-seq:2,1,3", "--vertex=j2"],
    ["ext", "--family=garland-seq:2,1,3", "--from=g1.1t", "--to=j1", "--max-degree=4"],
    ["inverse", "--family=garland-seq:2,1,3", "--window=j0,g1.2b,j1,g3.1t,j3"],
    ["verify", "--suite=euler", "--family=garland-seq:2,1,3", "--window=j0,g2.1t,j2"],
    ["verify", "--suite=mobius", "--family=garland-seq:2,1,3", "--window=j2,g3.2t,j3"],
]


def test_garland_seq_builds_no_finite_poset():
    # garland-seq reads its order off levels: no query builds the bitmask
    # closure of a finite presentation, and every answer stays as it was
    expected = []
    for argv in GARLAND_SEQ_COMMANDS:
        out = io.StringIO()
        expected.append((run(argv, out=out), out.getvalue()))
    assert all(code == 0 and text for code, text in expected)
    with mock.patch.object(presentations._FinitePresentation, "__init__",
                           side_effect=AssertionError("finite presentation built")):
        for argv, want in zip(GARLAND_SEQ_COMMANDS, expected):
            out = io.StringIO()
            assert (run(argv, out=out), out.getvalue()) == want, argv


def test_a_long_garland_seq_costs_what_its_window_reads():
    # a row of 3,000 blocks is read off its levels, not built as a closure
    # (74 MB traced when it was), so a window of three vertices stays small
    lengths = ",".join(["2"] * 3000)
    argv = ["inverse", f"--family=garland-seq:{lengths}", "--window=j1500,g1501.1t,j1501"]
    tracemalloc.start()
    try:
        out = io.StringIO()
        code = run(argv, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out.getvalue()) == (
        0, "\tj1500\tg1501.1t\tj1501\nj1500\t1\t0\t0\ng1501.1t\t-1\t1\t0\nj1501\t-1\t1\t1\n"
    )
    assert peak < 4 * 2**20, peak


def test_inverse_row_of_a_long_resolution():
    # on garland:16, Ext^17 between the simples at j0 and j1 is nonzero: the
    # resolution of row j1 runs to degree 17, one below the 35 elements of
    # its region [j0, j1], and ends there
    g = make_family("garland", 16)
    j0, j1, p = ("j", 0), ("j", 1), ("g", 0, 1, 0)
    summary = minimal_injective_resolution(g, j1)
    assert summary.length() == 17
    assert summary.terms[17] == {j0: 1}
    assert ext_alternating_sum(g, p, j1) == mobius(g, p, j1) == 1
    assert ext_alternating_sum(g, j0, j1) == mobius(g, j0, j1) == -1


def test_order_complex_ranks_each_boundary_once():
    # open interval (j0, j1) of garland-seq:3: three levels of two, so chains
    # of dimension 0..2 and three boundary maps, augmentation included
    g = make_family("garland-seq", [3])
    real = resolutions.linalg.sparse_rank
    with mock.patch.object(resolutions.linalg, "sparse_rank", wraps=real) as rank:
        dims = [ext_dim(g, ("j", 0), ("j", 1), m, method="complex") for m in range(8)]
    assert dims == [0, 0, 0, 0, 1, 0, 0, 0]
    assert rank.call_count == 3


def test_order_complex_of_a_long_garland_interval():
    # open interval (j0, j3) of garland-seq:2,2,2: 14 elements, 2915 chains
    g = make_family("garland-seq", [2, 2, 2])
    open_part = g.interval(("j", 0), ("j", 3))[1:-1]
    by_dim, _ = resolutions._order_complex(g, open_part)
    assert [len(by_dim[k]) for k in range(8)] == [14, 85, 292, 620, 832, 688, 320, 64]
    ranks = [linalg.sparse_rank(resolutions._boundary_columns(by_dim, k)) for k in range(8)]
    assert ranks == [1, 13, 72, 220, 400, 432, 256, 64]


def test_mobius_sums_only_nonzero_terms():
    # on a chain only mu(lo, lo) and mu(lo, its cover) are nonzero, so each
    # element is tested against two; the full running sum made 980k tests
    n = 1500
    p = parse_presentation(
        "kind poset\n"
        + "".join(f"vertex {i}\n" for i in range(n - 1, -1, -1))
        + "".join(f"cover {i} {i + 1}\n" for i in range(n - 1))
    )
    with mock.patch.object(p, "leq", wraps=p.leq) as leq:
        assert mobius(p, 0, 1400) == 0
    assert leq.call_count < 3 * n
    assert mobius(p, 0, 1) == -1 and mobius(p, 0, 2) == 0
