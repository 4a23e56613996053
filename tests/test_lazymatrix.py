import io
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from coxcartan import (
    CoxeterOperator,
    DimensionVector,
    EmptyWindow,
    LazyIntMatrix,
    LazyVector,
    UndefinedProduct,
    apply_vector,
    cartan_matrix,
    cartan_pair,
    evaluate_window,
    make_family,
    multiply,
    negate,
    parse_presentation,
    parse_vector_literal,
    transpose,
    verify_identity_on_window,
)
from coxcartan.cli import run
from coxcartan.lazymatrix import RunLine, spread


def identity_matrix():
    """The identity as a lazy matrix with certified unit lines."""
    return LazyIntMatrix(
        lambda i, j: 1 if i == j else 0,
        row_rule=lambda i: {i: 1},
        col_rule=lambda j: {j: 1},
        name="E",
    )


def dense_matrix(entries, finite=True):
    """Lazy matrix from a dict (i, j) -> value supported on finitely many keys;
    with finite=True its rows and columns are certified sparse lines."""
    rows = {}
    cols = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v
    return LazyIntMatrix(
        lambda i, j: entries.get((i, j), 0),
        (lambda i: rows.get(i, {})) if finite else None,
        (lambda j: cols.get(j, {})) if finite else None,
    )


def test_identity_window():
    a = make_family("a-infinity")
    w = a.window("2..5")
    grid = evaluate_window(identity_matrix(), w, w).grid()
    assert grid == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_cartan_window_a_infinity():
    a = make_family("a-infinity")
    w = a.window("0..4")
    grid = evaluate_window(cartan_matrix(a), w, w).grid()
    assert grid == [[1 if j <= i else 0 for j in range(5)] for i in range(5)]


def test_entry_independent_of_window():
    a = make_family("a-infinity")
    c = cartan_matrix(a)
    w1 = a.window("0..3")
    w2 = a.window("2..6")
    m1 = evaluate_window(c, w1, w1)
    m2 = evaluate_window(c, w2, w2)
    assert m1[(1, 0)] == c.entry(3, 2) == m2[(1, 0)]


def test_multiply_requires_certificate():
    z = make_family("z-a-infinity")
    c = cartan_matrix(z)
    prod = multiply(c, c)
    with pytest.raises(UndefinedProduct):
        prod.entry(0, 0)


def test_multiply_with_identity():
    a = make_family("a-infinity")
    c = cartan_matrix(a)
    prod = multiply(c, identity_matrix())
    w = a.window("0..5")
    assert evaluate_window(prod, w, w).grid() == evaluate_window(c, w, w).grid()


def test_inverse_identities_on_window():
    for fam, win in (("a-infinity", "0..7"), ("d-infinity", "-1..5")):
        p = make_family(fam)
        pair = cartan_pair(p)
        w = p.window(win)
        ok, ce = verify_identity_on_window(pair.inverse, pair.cartan, w)
        assert ok, ce
        ok, ce = verify_identity_on_window(pair.cartan, pair.inverse, w)
        assert ok, ce


def test_verify_identity_reports_counterexample():
    a = make_family("a-infinity")
    c = cartan_matrix(a)
    ok, ce = verify_identity_on_window(c, identity_matrix(), a.window("0..3"))
    assert not ok
    assert ce == (1, 0, 1)


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-5, 5),
        max_size=12,
    )
)
def test_transpose_involution(entries):
    m = dense_matrix(entries)
    tt = transpose(transpose(m))
    for i in range(5):
        for j in range(5):
            assert tt.entry(i, j) == m.entry(i, j)
    assert tt.row(2).keys() == m.row(2).keys()


def test_negate_and_supports():
    m = dense_matrix({(0, 1): 2, (1, 1): -1})
    n = negate(m)
    assert n.entry(0, 1) == -2
    assert n.row(0).keys() == {1}


def test_product_supports_compose():
    m = dense_matrix({(0, 1): 1, (1, 2): 3})
    p = multiply(m, m)
    assert p.entry(0, 2) == 3
    assert p.row(0).keys() == {2}
    # an empty row is certified empty; a factor without a rule certifies nothing
    assert p.row(5).keys() == set() and p.col(0).keys() == set()
    q = multiply(m, dense_matrix({(1, 2): 3}, finite=False))
    assert q.row(0) is None and q.col(2) is None
    assert q.row(5).keys() == set()


def test_apply_vector_with_finite_support():
    a = make_family("a-infinity")
    c = cartan_matrix(a)
    e0 = DimensionVector.unit(0)
    out = apply_vector(e0, c)
    # row 0 of the Cartan matrix is the unit vector at 0
    assert out.entry(0) == 1 and out.entry(1) == 0
    assert out.support == frozenset({0})


def test_entries_are_read_back_without_truncation():
    # an entry is the rule's own value: int() would read 1/2 as 0
    half = Fraction(1, 2)
    assert LazyIntMatrix(lambda i, j: half).entry(0, 0) == half
    assert LazyVector(lambda v: half).entry(0) == half


def test_apply_vector_needs_a_certified_support():
    c = cartan_matrix(make_family("a-infinity"))
    with pytest.raises(UndefinedProduct):
        apply_vector(LazyVector(lambda v: 1), c)
    out = apply_vector(LazyVector(lambda v: 2, support={0, 1}), c)
    assert [out.entry(j) for j in range(3)] == [4, 2, 0]


def test_apply_vector_zero():
    a = make_family("a-infinity")
    out = apply_vector(DimensionVector(), cartan_matrix(a))
    assert out.support == frozenset()
    assert out.entry(3) == 0


def test_vector_literals():
    z = make_family("z-a-infinity")
    v = parse_vector_literal(z, "1@0,2@3")
    assert v[0] == 1 and v[3] == 2
    assert v.sparse_str(z) == "1@0,2@3"
    assert parse_vector_literal(z, "0").is_zero()
    # order-insensitive input, canonically ordered output
    assert parse_vector_literal(z, "2@3,1@0").sparse_str(z) == "1@0,2@3"


def test_dimension_vector_arithmetic():
    x = DimensionVector({1: 2, 2: 1})
    y = DimensionVector({2: 1})
    assert (x - y) == DimensionVector({1: 2})
    assert (x + (-x)).is_zero()
    assert DimensionVector({v: 3 * c for v, c in x.items()})[1] == 6


def test_dimension_vectors_refuse_to_truncate():
    # int() would read 1/2 as 0 and 2.7 as 2, leaving a zero vector with a
    # nonempty support
    for bad in ({0: Fraction(1, 2), 1: 2.7}, {0: 2.7}, {0: Fraction(-1, 3)}):
        with pytest.raises(ValueError, match="non-integral"):
            DimensionVector(bad)
    x = DimensionVector({0: Fraction(4, 2), 1: 3.0, 2: Fraction(0), 3: -1})
    assert list(x.items()) == [(0, 2), (1, 3), (3, -1)]
    assert all(type(c) is int for _, c in x.items())
    assert x.support == frozenset({0, 1, 3}) and not x.is_zero()
    assert DimensionVector({0: Fraction(0), 1: 0.0}).is_zero()


def test_concurrent_readers_see_pure_cache():
    from concurrent.futures import ThreadPoolExecutor

    d = make_family("d-infinity")
    pair = cartan_pair(d)
    coords = [(i, j) for i in range(-1, 8) for j in range(-1, 8)]

    def read(matrix):
        return [matrix.entry(i, j) for i, j in coords]

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: read(pair.inverse), range(4)))
    assert all(r == results[0] for r in results)
    serial = [pair.inverse.entry(i, j) for i, j in coords]
    assert results[0] == serial


def test_matrix_window_tsv():
    a = make_family("a-infinity")
    w = a.window("0..1")
    tsv = evaluate_window(cartan_matrix(a), w, w).to_tsv()
    assert tsv == "\t0\t1\n0\t1\t0\n1\t1\t1\n"


def test_knit_reads_each_inverse_support_once():
    # on a --file quiver the Coxeter check asks for the same lines of the
    # inverse at every mesh; each line is computed once per index and kept
    # (the chain families multiply runs instead, and read no line)
    from collections import Counter
    from unittest import mock

    from coxcartan import cartan, knit_component

    calls = Counter()
    inverse = cartan.cartan_inverse

    def counted(side, rule):
        def wrapped(index):
            calls[side, index] += 1
            return rule(index)
        return wrapped

    def counted_inverse(pres):
        m = inverse(pres)
        m._row_rule = counted("row", m._row_rule)
        m._col_rule = counted("col", m._col_rule)
        return m

    chain = parse_presentation("kind quiver\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(30)))
    kronecker = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    for pres, steps in ((chain, 30), (kronecker, 40)):
        calls.clear()
        with mock.patch.object(cartan, "cartan_inverse", counted_inverse):
            frag = knit_component(pres, ("injectives", pres.vertices()), steps)
        assert len(frag.meshes) == steps
        assert calls and max(calls.values()) == 1


def per_entry_grid(m, rows, cols):
    return [[m.entry(i, j) for j in cols] for i in rows]


def draw_file_presentation(draw, source):
    """A random --file quiver or poset (`source`) on vertices 0..n-1, n <= 7."""
    n = draw(st.integers(1, 7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    word = "arrow" if source == "quiver" else "cover"
    lines = [f"kind {source}"] + [f"vertex {i}" for i in range(n)]
    lines += [f"{word} {min(u, v)} {max(u, v)}" for u, v in pairs if u != v]
    return parse_presentation("\n".join(lines) + "\n")


@st.composite
def coxeter_windows(draw):
    """(presentation, window, direction): a random --file quiver or poset of
    at most 7 vertices with a random sub-window, or a path-family window."""
    source = draw(st.sampled_from(["quiver", "poset", "family"]))
    if source == "family":
        pres = make_family(draw(st.sampled_from(["a-infinity", "z-a-infinity", "d-infinity"])))
        lo = draw(st.integers(0, 8))    # vertex 0 on: every family has it
        spec = f"{lo}..{lo + draw(st.integers(0, 9))}"
    else:
        pres = draw_file_presentation(draw, source)
        n = len(pres.vertices())
        spec = ",".join(str(v) for v in draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
    return pres, pres.window(spec), draw(st.sampled_from(["forward", "inverse"]))


def dense_coxeter(pres, direction):
    """The Coxeter matrix of a finite presentation as a dense product of the
    dense c^-1 and c over all vertices, indexed by vertex."""
    verts = list(pres.vertices())
    pair = cartan_pair(pres)
    c = {(i, j): pair.cartan.entry(i, j) for i in verts for j in verts}
    ci = {(i, j): pair.inverse.entry(i, j) for i in verts for j in verts}
    if direction == "forward":   # -(c^-1)^tr . c
        return lambda i, j: -sum(ci[k, i] * c[k, j] for k in verts)
    return lambda i, j: -sum(ci[i, k] * c[j, k] for k in verts)   # -c^-1 . c^tr


@settings(max_examples=60, deadline=None)
@given(coxeter_windows())
def test_product_window_rows_match_entries_and_the_dense_product(case):
    pres, w, direction = case
    grid = evaluate_window(CoxeterOperator(cartan_pair(pres)).matrix(direction), w, w).grid()
    fresh = CoxeterOperator(cartan_pair(pres)).matrix(direction)
    assert grid == per_entry_grid(fresh, w, w)
    if pres.is_finite:
        dense = dense_coxeter(pres, direction)
        assert grid == [[dense(i, j) for j in w] for i in w]


@st.composite
def line_cases(draw):
    """(presentation, rows, cols): a path family, a garland or a random
    --file quiver or poset, or the opposite of one, with two lists of at
    most six of its vertices in any order."""
    source = draw(st.sampled_from(["family", "garland", "quiver", "poset"]))
    if source == "family":
        pres = make_family(draw(st.sampled_from(["a-infinity", "z-a-infinity", "d-infinity"])))
        lo = draw(st.integers(0, 6))
        pool = [v for v in range(lo - 2, lo + 8) if pres.has_vertex(v)]
    elif source == "garland":
        pres = make_family("garland", draw(st.integers(1, 3)))
        lo = draw(st.integers(-2, 2))
        pool = pres.window(f"{lo}..{lo + 1}").vertices
    else:
        pres = draw_file_presentation(draw, source)
        pool = pres.vertices()
    if draw(st.booleans()):
        pres = pres.opposite()
    lines = st.lists(st.sampled_from(pool), max_size=6, unique=True)
    return pres, draw(lines), draw(lines)


def whole_family_line(name, lo, opposite):
    """Eight consecutive vertices of a path family from lo, as rows and in
    reverse as columns: every cell where the reachability rule changes."""
    pres = make_family(name)
    vertices = list(range(lo, lo + 8))
    return pres.opposite() if opposite else pres, vertices, vertices[::-1]


@settings(max_examples=80, deadline=None)
@given(line_cases())
@example(whole_family_line("a-infinity", 0, False))
@example(whole_family_line("a-infinity", 0, True))
@example(whole_family_line("z-a-infinity", -3, False))
@example(whole_family_line("z-a-infinity", -3, True))
@example(whole_family_line("d-infinity", -1, False))
@example(whole_family_line("d-infinity", -1, True))
def test_window_line_reads_match_the_entry_rule(case):
    # c, c^-1, their transposes and negations and both Coxeter products:
    # a bulk read of a line on some indices is the entries read one by one
    pres, rows, cols = case
    pair = cartan_pair(pres)
    op = CoxeterOperator(pair)
    base = [pair.cartan, pair.inverse]
    matrices = [*base, *map(transpose, base), *map(negate, base),
                op.matrix("forward"), op.matrix("inverse")]
    for m in matrices:
        grid = per_entry_grid(m, rows, cols)
        assert [m.row_on(i, cols) for i in rows] == grid
        assert [m.col_on(j, rows) for j in cols] == [[m.entry(i, j) for i in rows] for j in cols]
        assert evaluate_window(m, rows, cols).grid() == grid


def test_product_window_without_row_rule_reads_column_certificates():
    # the left factor certifies no line, so every entry is a column sum
    b = dense_matrix({(0, 0): 2, (1, 0): 1, (1, 2): -3, (2, 1): 4})
    a = LazyIntMatrix(lambda i, j: i + 2 * j - 1)
    prod = multiply(a, b)
    rows, cols = [0, 1, 2, 3], [0, 1, 2]
    expect = [[sum(a.entry(i, k) * b.entry(k, j) for k in range(3)) for j in cols] for i in rows]
    assert evaluate_window(prod, rows, cols).grid() == expect
    assert per_entry_grid(multiply(a, b), rows, cols) == expect
    # with neither certificate the window refuses, as the entry does
    with pytest.raises(UndefinedProduct):
        evaluate_window(multiply(a, dense_matrix({(0, 0): 1}, finite=False)), rows, cols)


def raising_factor(entries, bad):
    """dense_matrix(entries) whose entry rule raises at the positions in bad."""
    m = dense_matrix(entries)
    rule = m._entry

    def entry(k, j):
        if (k, j) in bad:
            raise ValueError(f"bad entry {(k, j)}")
        return rule(k, j)

    m._entry = entry
    return m


def first_outcome(f):
    try:
        return f()
    except ValueError as exc:
        return "raised", str(exc)


def entrywise_verify(prod, win):
    """verify_identity_on_window's answer read entry by entry in row-major
    order, as its definition states it."""
    for i in win:
        for j in win:
            if prod.entry(i, j) != (1 if i == j else 0):
                return False, (i, j, prod.entry(i, j))
    return True, None


square = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-2, 2), max_size=10
)


@settings(max_examples=150, deadline=None)
@given(square, square, st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=2))
def test_product_window_raises_the_error_the_entry_order_meets_first(left, right, bad):
    # every row of the left factor is certified; a row holds its nonzero
    # entries only, so a zero a[i,k] reads row k of the right factor in
    # neither order
    win = [0, 1, 2, 3]

    def factors():
        return dense_matrix(left), raising_factor(right, bad)

    assert first_outcome(lambda: evaluate_window(multiply(*factors()), win, win).grid()) == (
        first_outcome(lambda: per_entry_grid(multiply(*factors()), win, win))
    )
    assert first_outcome(lambda: verify_identity_on_window(*factors(), win)) == first_outcome(
        lambda: entrywise_verify(multiply(*factors()), win)
    )
    # read through the transpose, the counterexample is still a.b's first
    # in row-major order
    a, b = dense_matrix(left), dense_matrix(right)
    assert verify_identity_on_window(a, b, win, transposed=True) == entrywise_verify(
        multiply(a, b), win
    )


def test_certified_product_window_leaves_the_entry_memo_empty():
    # each row of the forward Coxeter window is spread over rows of c read
    # once per window: the product keeps no line, and no matrix keeps
    # entries, only the lines of the left factor's chain
    a = make_family("a-infinity")
    m = CoxeterOperator(cartan_pair(a)).matrix("forward")
    w = a.window("0..159")
    grid = evaluate_window(m, w, w).grid()
    assert m._rows == m._cols == {}
    left, right = m.factors
    assert right._rows == right._cols == {}
    assert len(left._rows) == 160 and left._cols == {}
    assert not any(hasattr(x, "_memo") for x in (m, left, right))
    assert grid[5][4:7] == [0, 0, 1] and grid[159][0] == 0


@st.composite
def chain_windows(draw):
    """(presentation, opposite?, rows, cols, spec): a chain family or its
    opposite, two windows of it and the window spec that cols were read
    from.  A window is lo..hi from near 0, the d-infinity fork or 10**6,
    possibly empty or reversed, or a comma list of its vertices in any
    order."""
    name = draw(st.sampled_from(["a-infinity", "z-a-infinity", "d-infinity"]))
    pres = make_family(name)
    opposite = draw(st.booleans())

    def window():
        lo = draw(st.sampled_from([-2, 0, 1, 10**6])) + draw(st.integers(-1, 4))
        hi = lo + draw(st.integers(-2, 9))
        verts = [v for v in range(lo, hi + 1) if pres.has_vertex(v)]
        shape = draw(st.sampled_from(["run", "reversed", "comma"]))
        if shape == "comma":
            verts = draw(st.permutations(verts))
            return verts, ",".join(map(str, verts))
        if shape == "reversed":
            return verts[::-1], f"{hi}..{lo}"
        return verts, f"{lo}..{hi}"

    (rows, _), (cols, spec) = window(), window()
    return (pres.opposite() if opposite else pres), opposite, rows, cols, spec


@settings(max_examples=150, deadline=None)
@given(chain_windows())
@example((make_family("d-infinity"), False, [-1, 0, 1, 2], [-1, 0, 1, 2], "-1..2"))
@example((make_family("d-infinity").opposite(), True, [1, 0, -1], [-1, 0, 1], "-1..1"))
@example((make_family("a-infinity"), False, [10**6 + 3, 2], list(range(10**6, 10**6 + 6)),
          f"{10**6}..{10**6 + 5}"))
def test_chain_family_runs_match_the_per_cell_rule(case):
    # window reads that come back as runs, product windows summed at run
    # end points, product rows spread as runs and the inverse and coxeter
    # suites, each against entries read one by one
    pres, opposite, rows, cols, spec = case
    pair = cartan_pair(pres)
    op = CoxeterOperator(pair)
    identities = [(pair.inverse, pair.cartan),
                  (transpose(pair.inverse), transpose(pair.cartan))]
    matrices = [pair.cartan, transpose(pair.cartan), op.matrix("forward"),
                op.matrix("inverse"), *(multiply(a, b) for a, b in identities)]
    for m in matrices:
        assert evaluate_window(m, rows, cols).grid() == per_entry_grid(m, rows, cols)
    fwd = op.matrix("forward")
    for a in cols:
        row = fwd.row(a)
        if row is not None:
            near = [v for v in range(a - 3, a + 4) if pres.has_vertex(v)]
            assert set(row) <= set(near)
            assert dict(row) == {j: x for j in near if (x := fwd.entry(a, j))}
    hold = [entrywise_verify(multiply(a, b), cols)[0] for a, b in identities]
    assert op.verify_generator_identities(cols)[0] == all(hold)
    assert verify_identity_on_window(pair.inverse, pair.cartan, cols) == \
        entrywise_verify(multiply(pair.inverse, pair.cartan), cols)
    # c.c^-1 entry by entry over the columns of c^-1: a far Cartan row of
    # a-infinity holds a million entries
    assert verify_identity_on_window(pair.cartan, pair.inverse, cols, transposed=True) == \
        entrywise_verify(multiply(LazyIntMatrix(pair.cartan.entry), pair.inverse), cols)
    if not opposite:
        try:
            win = list(pres.window(spec))
        except EmptyWindow:
            win = None
        for suite in ("inverse", "coxeter"):
            code = run(["verify", f"--family={pres.family}", f"--window={spec}",
                        f"--suite={suite}"], out=io.StringIO())
            expect = 2 if win is None else 0 if all(
                entrywise_verify(multiply(a, b), win)[0] for a, b in identities) else 1
            assert code == expect, (suite, spec)


runs_strategy = st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 4),
                                   st.integers(-3, 3).filter(bool)), max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=5),
       st.lists(st.one_of(runs_strategy,
                          st.dictionaries(st.integers(-6, 9), st.integers(-3, 3).filter(bool),
                                          max_size=3)), min_size=5, max_size=5))
def test_spread_sums_runs_at_their_end_points(coeffs, lines):
    # a line of disjoint runs (start, length, value), or a dict of points;
    # the spread's points are the sums of the points written out
    def as_line(k):
        ln = lines[k]
        if isinstance(ln, dict):
            return ln
        runs, end = [], -10
        for s, n, v in sorted(ln):
            s = max(s, end)
            runs.append((s, s + n, v))
            end = s + n
        return RunLine(runs)

    expect = {}
    for k, c in coeffs.items():
        for j, v in as_line(k).items():
            expect[j] = expect.get(j, 0) + c * v
    got = spread(coeffs, as_line)
    assert dict(got) == {j: v for j, v in expect.items() if v}
    if isinstance(got, RunLine):
        assert all(v for _, _, v in got.runs)
        assert all(e0 <= s1 for (_, e0, _), (s1, _, _) in zip(got.runs, got.runs[1:]))
