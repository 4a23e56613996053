import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from coxcartan import (
    DimensionVector,
    apply_vector,
    cartan_inverse,
    cartan_matrix,
    cartan_pair,
    classify_finiteness,
    evaluate_window,
    make_family,
    parse_family_flag,
    parse_presentation,
    path_count,
    verify_identity_on_window,
)
from coxcartan import linalg
from coxcartan.comodules import enumerate_paths


def grid(pres, matrix, spec):
    w = pres.window(spec)
    return evaluate_window(matrix, w, w).grid()


def test_path_counts():
    a = make_family("a-infinity")
    assert path_count(a, 0, 3) == 1
    assert path_count(a, 3, 3) == 1
    assert path_count(a, 3, 0) == 0
    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    assert path_count(k, 0, 1) == 2


def test_path_count_multiplicities_compose():
    # two parallel arrows into a chain: 2 paths 0->1, hence 2 paths 0->2
    q = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\narrow 1 2\n")
    assert path_count(q, 0, 2) == 2


def test_path_count_budget(monkeypatch):
    # a path count is a fact of the presentation: COX_NODE_BUDGET, which
    # bounds walks, does not bound it
    monkeypatch.setenv("COX_NODE_BUDGET", "10")
    a = make_family("a-infinity")
    assert path_count(a, 0, 5000) == 1
    assert path_count(a.opposite(), 5000, 0) == 1


def test_path_count_charges_each_vertex_once_without_recursion(monkeypatch):
    # one Kahn-order column per target, however many paths run through it
    # and however long the quiver is
    def ladder(n, mult):
        arrows = "".join(f"arrow {i} {i + 1}\n" * mult for i in range(n))
        return parse_presentation("kind quiver\n" + arrows)

    monkeypatch.setenv("COX_NODE_BUDGET", "1")
    assert path_count(ladder(60, 2), 0, 60) == 2**60
    assert path_count(ladder(3000, 1), 0, 3000) == 1


def test_path_count_memo_hit_spends_no_budget(monkeypatch):
    a = make_family("a-infinity")
    assert path_count(a, 0, 40) == 1
    monkeypatch.setenv("COX_NODE_BUDGET", "1")
    assert path_count(a, 0, 40) == 1
    assert path_count(a, 0, 41) == 1


def test_path_counts_on_a_family_keep_no_memory():
    a = make_family("a-infinity")
    path_count(a, 0, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(1, 101):
            assert path_count(a, 0, 30 * k) == 1
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


def test_path_count_of_a_vertex_to_itself_is_one_even_unknown():
    q = parse_presentation("kind quiver\narrow 0 1\n")
    for pres in (q, q.opposite(), make_family("d-infinity")):
        assert path_count(pres, "x", "x") == 1


def test_cartan_a_infinity_golden():
    a = make_family("a-infinity")
    assert grid(a, cartan_matrix(a), "0..7") == [
        [1 if j <= i else 0 for j in range(8)] for i in range(8)
    ]


def test_cartan_d_infinity_rows():
    d = make_family("d-infinity")
    g = grid(d, cartan_matrix(d), "-1..4")
    assert g[0] == [1, 0, 1, 0, 0, 0]          # vertex -1
    assert g[3] == [0, 0, 1, 1, 0, 0]          # vertex 2
    assert g[2] == [0, 0, 1, 0, 0, 0]          # vertex 1: simple injective


CHAIN_LEQ = {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")}


def chain_zeta_transpose():
    # independent oracle: composition series of each injective over the
    #   3-chain listed by hand from the order relation
    order = ["a", "b", "c"]
    return [[1 if (q, p) in CHAIN_LEQ else 0 for q in order] for p in order]


def chain_mobius():
    # independent oracle: Mobius recursion written out by hand over CHAIN_LEQ
    order = ["a", "b", "c"]
    memo = {}

    def mu(x, y):
        if x == y:
            return 1
        if (x, y) not in CHAIN_LEQ:
            return 0
        if (x, y) not in memo:
            memo[(x, y)] = -sum(
                mu(x, z) for z in order if (x, z) in CHAIN_LEQ and (z, y) in CHAIN_LEQ and z != y
            )
        return memo[(x, y)]

    return [[mu(q, p) for q in order] for p in order]


def test_cartan_chain_poset_matches_composition_oracle():
    p = parse_presentation("kind poset\ncover a b\ncover b c\n")
    assert grid(p, cartan_matrix(p), "a,b,c") == chain_zeta_transpose()
    assert chain_zeta_transpose() == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]


def test_inverse_chain_poset_matches_mobius_oracle():
    p = parse_presentation("kind poset\ncover a b\ncover b c\n")
    assert grid(p, cartan_inverse(p), "a,b,c") == chain_mobius()
    assert chain_mobius() == [[1, 0, 0], [-1, 1, 0], [0, -1, 1]]


def test_inverse_a_infinity_golden():
    a = make_family("a-infinity")
    g = grid(a, cartan_inverse(a), "0..7")
    expect = [
        [1 if i == j else (-1 if j == i - 1 else 0) for j in range(8)] for i in range(8)
    ]
    assert g == expect


def test_inverse_d_infinity_rows():
    d = make_family("d-infinity")
    g = grid(d, cartan_inverse(d), "-1..4")
    assert g[0] == [1, 0, -1, 0, 0, 0]
    assert g[2] == [0, 0, 1, 0, 0, 0]


def test_kronecker_cartan_and_inverse():
    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    assert grid(k, cartan_matrix(k), "0..1") == [[1, 0], [2, 1]]
    assert grid(k, cartan_inverse(k), "0..1") == [[1, 0], [-2, 1]]


def test_classify_families():
    a = make_family("a-infinity")
    rep = classify_finiteness(a, list(a.window("0..3")))
    assert rep["row_finite"] is True and rep["col_finite"] is False
    assert rep["right_semiperfect"] is True and rep["left_semiperfect"] is False

    z = make_family("z-a-infinity")
    rep = classify_finiteness(z, list(z.window("-1..1")))
    assert rep["row_finite"] is False and rep["col_finite"] is False

    q = parse_presentation("kind quiver\narrow 0 1\n")
    rep = classify_finiteness(q, q.vertices())
    assert rep["row_finite"] is True and rep["col_finite"] is True


def test_classify_garland_neither():
    g = make_family("garland", 1)
    rep = classify_finiteness(g, [("j", 0)])
    assert rep["row_finite"] is False and rep["col_finite"] is False


def test_opposite_cartan_is_transpose():
    for text in (
        "kind quiver\narrow 0 1\narrow 1 2\narrow 0 2\n",
        "kind quiver\narrow 0 1\narrow 0 1\narrow 1 2\n",
    ):
        p = parse_presentation(text)
        c = cartan_matrix(p)
        cop = cartan_matrix(p.opposite())
        for i in p.vertices():
            for j in p.vertices():
                assert cop.entry(i, j) == c.entry(j, i)


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=12,
        )
    )
    return n, edges


@settings(max_examples=40, deadline=None)
@given(random_dags())
def test_random_quiver_inverse_identities(data):
    n, edges = data
    lines = ["kind quiver"] + [f"vertex {i}" for i in range(n)]
    lines += [f"arrow {u} {v}" for u, v in edges]
    p = parse_presentation("\n".join(lines))
    pair = cartan_pair(p)
    w = p.window(p.vertices())
    assert verify_identity_on_window(pair.inverse, pair.cartan, w)[0]
    assert verify_identity_on_window(pair.cartan, pair.inverse, w)[0]


@settings(max_examples=40, deadline=None)
@given(random_dags())
def test_opposite_cartan_is_transpose_random(data):
    n, edges = data
    lines = ["kind quiver"] + [f"vertex {i}" for i in range(n)]
    lines += [f"arrow {u} {v}" for u, v in edges]
    p = parse_presentation("\n".join(lines))
    c = cartan_matrix(p)
    cop = cartan_matrix(p.opposite())
    for i in p.vertices():
        for j in p.vertices():
            assert cop.entry(i, j) == c.entry(j, i)


def test_garland_inverse_identities_two_sided():
    g = make_family("garland", 2)
    pair = cartan_pair(g)
    w = g.window("0..1")
    assert verify_identity_on_window(pair.inverse, pair.cartan, w)[0]
    assert verify_identity_on_window(pair.cartan, pair.inverse, w)[0]


def test_cartan_row_against_dim_injective():
    rng = random.Random(7)
    d = make_family("d-infinity")
    c = cartan_matrix(d)
    for _ in range(5):
        a = rng.randint(-1, 6)
        vec = apply_vector(DimensionVector.unit(a), c)
        for j in range(-1, 8):
            assert vec.entry(j) == c.entry(a, j)


def walk_count(pres, u, v, verts):
    """Independent oracle: paths u -> v by a plain depth-first walk over the
    arcs of `pres` that stay inside the finite vertex set `verts`."""
    if u == v:
        return 1
    return sum(m * walk_count(pres, w, v, verts) for w, m in pres.out_arcs(u) if w in verts)


@st.composite
def family_windows(draw):
    # integer windows of the path families are convex: every path between
    # two of their vertices stays inside
    name = draw(st.sampled_from(["a-infinity", "z-a-infinity", "d-infinity"]))
    pres = parse_family_flag(name)
    lo = draw(st.integers({"a-infinity": 0, "d-infinity": -1}.get(name, -5), 5))
    hi = lo + draw(st.integers(0, 8))
    if draw(st.booleans()):
        pres = pres.opposite()
    return pres, list(pres.window(f"{lo}..{hi}"))


@st.composite
def shuffled_quivers(draw):
    # a random acyclic quiver with parallel arrows, its vertices renamed and
    # their `vertex` lines listed in a shuffled order
    n = draw(st.integers(1, 7))
    arrows = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=10,
        )
    )
    names = draw(st.permutations(range(n)))
    lines = ["kind quiver"] + [f"vertex {names[i]}" for i in draw(st.permutations(range(n)))]
    lines += [f"arrow {names[s]} {names[t]}" for s, t, mult in arrows for _ in range(mult)]
    pres = parse_presentation("\n".join(lines))
    return pres.opposite() if draw(st.booleans()) else pres


@settings(max_examples=80, deadline=None)
@given(st.one_of(family_windows(), shuffled_quivers().map(lambda q: (q, q.vertices()))), st.data())
def test_path_count_matches_walked_and_listed_paths(case, data):
    pres, verts = case
    u = data.draw(st.sampled_from(verts))
    v = data.draw(st.sampled_from(verts))
    expect = walk_count(pres, u, v, set(verts))
    assert path_count(pres, u, v) == expect == len(enumerate_paths(pres, u, v))


@settings(max_examples=40, deadline=None)
@given(shuffled_quivers())
def test_lazy_inverse_matches_dense_inverse_of_walked_cartan(pres):
    verts = pres.vertices()
    dense = [[walk_count(pres, j, i, set(verts)) for j in verts] for i in verts]
    inv = linalg.invert(dense)
    c, cinv = cartan_matrix(pres), cartan_inverse(pres)
    for r, i in enumerate(verts):
        for k, j in enumerate(verts):
            assert c.entry(i, j) == dense[r][k]
            assert cinv.entry(i, j) == inv[r][k]


def closed_form_inverse_row(pres, j):
    """Oracle: row j of the inverse Cartan matrix of a path presentation in
    closed form, delta(j, p) - #arrows(p -> j) (hereditary: the resolution
    of the simple at j stops after the injectives at the arrows' tails)."""
    row = {j: 1}
    for p, mult in pres.in_arcs(j):
        row[p] = row.get(p, 0) - mult
    return row


@settings(max_examples=80, deadline=None)
@given(st.one_of(family_windows(), shuffled_quivers().map(lambda q: (q, q.vertices()))))
def test_inverse_lines_match_the_hereditary_closed_form(case):
    pres, verts = case
    cinv = cartan_inverse(pres)
    for j in verts:
        row = closed_form_inverse_row(pres, j)
        assert cinv.row(j) == row
        assert all(cinv.entry(j, p) == row.get(p, 0) for p in verts)
    for p in verts:
        expect = {j: -m for j, m in pres.out_arcs(p)}
        expect[p] = 1
        assert cinv.col(p) == expect
        assert cinv.col(p).keys() <= pres.local_upset(p)


@settings(max_examples=40, deadline=None)
@given(shuffled_quivers())
def test_cartan_lines_are_the_walked_path_counts(pres):
    verts = pres.vertices()
    c = cartan_matrix(pres)
    for v in verts:
        into = {u: walk_count(pres, u, v, set(verts)) for u in verts}
        out = {w: walk_count(pres, v, w, set(verts)) for w in verts}
        assert c.row(v) == {u: n for u, n in into.items() if n}
        assert c.col(v) == {w: n for w, n in out.items() if n}


@st.composite
def resolved_presentations(draw):
    # the three path families and garland:L on windows, garland-seq and
    # random --file quivers and posets whole, each maybe as its opposite
    kind = draw(st.sampled_from(["path", "garland", "garland-seq", "quiver", "poset"]))
    if kind == "path":
        name = draw(st.sampled_from(["a-infinity", "z-a-infinity", "d-infinity"]))
        pres = parse_family_flag(name)
        lo = draw(st.integers({"a-infinity": 0, "d-infinity": -1}.get(name, -5), 5))
        verts = list(pres.window(f"{lo}..{lo + draw(st.integers(0, 6))}"))
    elif kind == "garland":
        pres = parse_family_flag(f"garland:{draw(st.integers(1, 3))}")
        lo = draw(st.integers(-2, 2))
        verts = list(pres.window(f"{lo}..{lo + draw(st.integers(0, 1))}"))
    elif kind == "garland-seq":
        lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        pres = parse_family_flag("garland-seq:" + ",".join(map(str, lengths)))
        verts = pres.vertices()
    else:
        n = draw(st.integers(1, 7))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
        word = "arrow" if kind == "quiver" else "cover"
        lines = [f"kind {kind}"] + [f"vertex {i}" for i in range(n)]
        lines += [f"{word} {min(u, v)} {max(u, v)}" for u, v in pairs if u != v]
        pres = parse_presentation("\n".join(lines) + "\n")
        verts = pres.vertices()
    if draw(st.booleans()):
        pres = pres.opposite()
    return pres, verts


@settings(max_examples=60, deadline=None)
@given(resolved_presentations())
def test_inverse_rows_are_the_alternating_resolution_terms(case):
    # row j is read off the one resolution of the simple at j; entry by
    # entry it is the alternating Ext sum, on a poset the Mobius function
    # and on a quiver delta(j, p) - #arrows(p -> j), all over local_downset(j)
    from coxcartan import resolutions

    pres, verts = case
    cinv = cartan_inverse(pres)
    for j in verts:
        down = pres.local_downset(j)
        sums = {p: resolutions.ext_alternating_sum(pres, p, j) for p in down}
        row = cinv.row(j)
        assert row == {p: v for p, v in sums.items() if v}
        assert row.keys() <= down
        if pres.kind == "poset":
            assert all(resolutions.mobius(pres, p, j) == v for p, v in sums.items())
        else:
            assert row == closed_form_inverse_row(pres, j)
