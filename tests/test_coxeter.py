import io
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coxcartan import (
    CoxeterOperator,
    DimensionVector,
    GeneratorCombination,
    LazyIntMatrix,
    cartan_pair,
    evaluate_window,
    make_family,
    parse_presentation,
)


def operator(pres):
    return CoxeterOperator(cartan_pair(pres))


def grid(pres, matrix, spec):
    w = pres.window(spec)
    return evaluate_window(matrix, w, w).grid()


def test_coxeter_a_infinity_golden():
    a = make_family("a-infinity")
    op = operator(a)
    fw = grid(a, op.matrix("forward"), "0..7")
    assert fw == [[1 if j == i + 1 else 0 for j in range(8)] for i in range(8)]
    inv = grid(a, op.matrix("inverse"), "0..7")
    expect = [[-1] * 8] + [
        [1 if j == i - 1 else 0 for j in range(8)] for i in range(1, 8)
    ]
    assert inv == expect


def test_coxeter_d_infinity_row():
    d = make_family("d-infinity")
    op = operator(d)
    w = d.window("-1..4")
    fw = evaluate_window(op.matrix("forward"), w, w).grid()
    assert fw[2] == [1, 1, 2, 1, 0, 0]  # row of vertex 1


def test_kronecker_coxeter_matches_hand_arithmetic():
    # 2x2 oracle computed inline: c = [[1,0],[2,1]], cinv = [[1,0],[-2,1]],
    # phi = -(cinv^tr) c
    c = [[1, 0], [2, 1]]
    cinv = [[1, 0], [-2, 1]]
    cinv_tr = [[cinv[j][i] for j in range(2)] for i in range(2)]
    phi_oracle = [
        [-sum(cinv_tr[i][k] * c[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert phi_oracle == [[3, 2], [-2, -1]]

    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    assert grid(k, operator(k).matrix("forward"), "0..1") == phi_oracle


def test_apply_shift_interval_a_infinity():
    a = make_family("a-infinity")
    op = operator(a)
    x = DimensionVector({1: 1, 2: 1})
    fx = op.apply(x, "forward")
    assert [fx.entry(v) for v in range(5)] == [0, 0, 1, 1, 0]


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(-8, 8), st.integers(-4, 4), min_size=1, max_size=6)
)
def test_shift_law_z_a_infinity(coeffs):
    z = make_family("z-a-infinity")
    op = operator(z)
    x = DimensionVector(coeffs)
    fx = op.apply(x, "forward")
    bx = op.apply(x, "inverse")
    for n in range(-10, 11):
        assert fx.entry(n) == x[n - 1]
        assert bx.entry(n) == x[n + 1]


def test_apply_zero():
    a = make_family("a-infinity")
    out = operator(a).apply(DimensionVector(), "forward")
    assert all(out.entry(v) == 0 for v in range(5))


def test_matrix_transformation_coherence():
    d = make_family("d-infinity")
    op = operator(d)
    m = op.matrix("forward")
    for a in (-1, 0, 1, 2, 3):
        x = DimensionVector.unit(a)
        fx = op.apply(x, "forward")
        for j in range(-1, 6):
            assert fx.entry(j) == m.entry(a, j)


def sample(pres, lazy, lo, hi):
    return DimensionVector(
        {v: lazy.entry(v) for v in range(lo, hi + 1) if pres.has_vertex(v)}
    )


def test_round_trip():
    for fam, verts in (("a-infinity", range(0, 6)), ("z-a-infinity", range(-3, 4))):
        p = make_family(fam)
        op = operator(p)
        for v in verts:
            x = DimensionVector({v: 2, v + 1: -1})
            there = sample(p, op.apply(x, "forward"), -12, 12)
            back = op.apply(there, "inverse")
            for j in range(-5, 9):
                if p.has_vertex(j):
                    assert back.entry(j) == x[j]


def test_generator_identities():
    for fam, spec in (("a-infinity", "0..10"), ("d-infinity", "-1..6"), ("z-a-infinity", "-5..5")):
        p = make_family(fam)
        assert operator(p).verify_generator_identities(p.window(spec)) == (True, None)


def first_failing_generator(op, win):
    """The identities read one generator and one coordinate at a time: for
    each a in window order, coordinate j of (dim of op-injective at a) .
    c^{-tr} is summed over the certified row j of c^{-1}, and coordinate j
    of (dim E(a)) . c^{-1} over its certified column j, each term a Cartan
    entry."""
    c, cinv = op.c, op.cinv
    for a in win:
        for j in win:
            if sum(v * c.entry(i, a) for i, v in cinv.row(j).items()) != (1 if j == a else 0):
                return a
        for j in win:
            if sum(c.entry(a, i) * v for i, v in cinv.col(j).items()) != (1 if j == a else 0):
                return a
    return None


def with_wrong_cell(m, i0, j0, delta):
    """m with delta added to entry (i0, j0), in its entry rule and in its
    certified row and column alike."""

    def bumped(line, k):
        out = dict(line)
        out[k] = out.get(k, 0) + delta
        return {key: v for key, v in out.items() if v}

    return LazyIntMatrix(
        lambda i, j: m.entry(i, j) + (delta if (i, j) == (i0, j0) else 0),
        row_rule=lambda i: bumped(m.row(i), j0) if i == i0 else m.row(i),
        col_rule=lambda j: bumped(m.col(j), i0) if j == j0 else m.col(j),
        name=m.name,
    )


@st.composite
def generator_windows(draw):
    """(presentation, window, wrong cell or None): a path family or its
    opposite on a window of up to 10 vertices, or a random --file quiver of
    at most 7 vertices on a random sub-window."""
    if draw(st.booleans()):
        pres = make_family(draw(st.sampled_from(["a-infinity", "z-a-infinity", "d-infinity"])))
        if draw(st.booleans()):
            pres = pres.opposite()
        lo = draw(st.integers(0, 8))
        win = list(pres.window(f"{lo}..{lo + draw(st.integers(0, 9))}"))
    else:
        n = draw(st.integers(1, 7))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
        lines = ["kind quiver"] + [f"vertex {i}" for i in range(n)]
        lines += [f"arrow {min(u, v)} {max(u, v)}" for u, v in pairs if u != v]
        pres = parse_presentation("\n".join(lines) + "\n")
        win = draw(st.lists(st.sampled_from(list(pres.vertices())), min_size=1, unique=True))
    cell = None
    if draw(st.booleans()):
        cell = (draw(st.sampled_from(win)), draw(st.sampled_from(win)),
                draw(st.sampled_from([-2, -1, 1, 2])))
    return pres, win, cell


@settings(max_examples=80, deadline=None)
@given(generator_windows())
def test_window_generator_identities_match_the_coordinate_reading(case):
    pres, win, cell = case
    pair = cartan_pair(pres)
    if cell is not None:
        pair.inverse = with_wrong_cell(pair.inverse, *cell)
    found = CoxeterOperator(pair).verify_generator_identities(win)
    expected = first_failing_generator(CoxeterOperator(pair), win)
    assert found == (expected is None, expected)
    # a wrong cell inside the window breaks column j0 of c^-1.c at row i0
    assert (cell is None) == (expected is None)


def test_generator_identity_failure_names_the_first_generator():
    # on the opposite chain a wrong inverse cell (1, 4) breaks row 0 of
    # c.c^-1 before column 4 of c^-1.c: the right identity names generator 0
    pres = make_family("a-infinity").opposite()
    pair = cartan_pair(pres)
    pair.inverse = with_wrong_cell(pair.inverse, 1, 4, 1)
    win = list(pres.window("0..5"))
    assert CoxeterOperator(pair).verify_generator_identities(win) == (False, 0)
    assert first_failing_generator(CoxeterOperator(pair), win) == 0


@pytest.mark.parametrize("family, window, cell, coxeter_line, inverse_line", [
    ("d-infinity", "-1..5", (2, 4, -1),
     "FAIL: generator identity at 1\n", "FAIL: left inverse identity at (2, 1, -1)\n"),
    ("z-a-infinity", "-3..3", (0, 1, 1),
     "FAIL: generator identity at -3\n", "FAIL: left inverse identity at (0, -3, 1)\n"),
])
def test_verify_failure_lines_with_a_wrong_inverse_cell(
    family, window, cell, coxeter_line, inverse_line
):
    from coxcartan import cartan, cli

    inverse = cartan.cartan_inverse
    wrong = lambda pres: with_wrong_cell(inverse(pres), *cell)   # noqa: E731
    for suite, line in (("coxeter", coxeter_line), ("inverse", inverse_line)):
        buf = io.StringIO()
        with mock.patch.object(cartan, "cartan_inverse", wrong):
            code = cli.run(["verify", f"--family={family}", f"--window={window}",
                            f"--suite={suite}"], out=buf)
        assert (code, buf.getvalue()) == (1, line)


@pytest.mark.parametrize("family, window, cells, line", [
    # one wrong cell below the diagonal, then one above, in a row of the window
    ("a-infinity", "0..5", [(4, 2, 1)], "left inverse identity at (4, 0, 1)"),
    ("a-infinity", "0..5", [(1, 4, 1)], "left inverse identity at (1, 0, 1)"),
    ("z-a-infinity", "-3..3", [(2, -1, -1)], "left inverse identity at (2, -3, -1)"),
    ("z-a-infinity", "-3..3", [(-2, 1, 2)], "left inverse identity at (-2, -3, 2)"),
    # in a row outside the window, where only c.c^-1 sees it
    ("a-infinity", "0,1,4", [(3, 1, 1)], "right inverse identity at (4, 1, 1)"),
    ("a-infinity", "2,5", [(0, 5, -1)], "right inverse identity at (2, 5, -1)"),
    ("d-infinity", "-1,0,3,4,5", [(2, 0, 1)], "right inverse identity at (3, 0, 1)"),
    # c.c^-1 fails at (-1, 5) and at (3, 3): row-major order names (-1, 5)
    ("d-infinity", "-1,0,3,4,5", [(1, 5, 1), (2, 3, 1)],
     "right inverse identity at (-1, 5, 1)"),
    ("garland:1", "g0.1t,j1", [(("g", 0, 1, 1), ("g", 0, 1, 0), 1)],
     "right inverse identity at (('j', 1), ('g', 0, 1, 0), 1)"),
])
def test_inverse_suite_names_the_first_failing_cell(family, window, cells, line):
    from coxcartan import cartan, cli

    inverse = cartan.cartan_inverse

    def wrong(pres):
        m = inverse(pres)
        for cell in cells:
            m = with_wrong_cell(m, *cell)
        return m

    buf = io.StringIO()
    with mock.patch.object(cartan, "cartan_inverse", wrong):
        code = cli.run(["verify", f"--family={family}", f"--window={window}",
                        "--suite=inverse"], out=buf)
    assert (code, buf.getvalue()) == (1, f"FAIL: {line}\n")


def test_generator_combination_forward():
    a = make_family("a-infinity")
    op = operator(a)
    image = op.apply(GeneratorCombination("op-injectives", {0: 1}), "forward")
    # minus the injective row at 0, which is the unit vector at 0
    assert [image.entry(v) for v in range(4)] == [-1, 0, 0, 0]


def test_generator_combination_same_side_realizes_numerically():
    # a combination of injective rows pushed forward: realized first (rows
    # are finite over the one-way family), then transformed
    a = make_family("a-infinity")
    op = operator(a)
    image = op.apply(GeneratorCombination("injectives", {2: 1}), "forward")
    assert [image.entry(v) for v in range(5)] == [0, 1, 1, 1, 0]


def test_opposite_family_cartan_transpose():
    from coxcartan import cartan_matrix

    for fam, rng_ in (("a-infinity", range(0, 7)), ("d-infinity", range(-1, 6)),
                      ("z-a-infinity", range(-3, 4))):
        p = make_family(fam)
        c = cartan_matrix(p)
        cop = cartan_matrix(p.opposite())
        for i in rng_:
            for j in rng_:
                assert cop.entry(i, j) == c.entry(j, i)


def test_apply_rejects_unsupported_lazy_vector():
    from coxcartan import LazyVector, NotInDomain

    a = make_family("a-infinity")
    op = operator(a)
    with pytest.raises(NotInDomain):
        op.apply(LazyVector(lambda v: 1), "forward")


def test_apply_without_row_certificate_raises():
    # right entries but no support rules: the inner product has no finite
    # certificate, so it is refused rather than summed over a guess
    from coxcartan import LazyIntMatrix, UndefinedProduct

    k = parse_presentation("kind quiver\narrow 0 1\n")
    pair = cartan_pair(k)
    pair.inverse = LazyIntMatrix(pair.inverse.entry, name="c^-1")
    op = CoxeterOperator(pair)
    for direction in ("forward", "inverse"):
        with pytest.raises(UndefinedProduct):
            op.apply(DimensionVector.unit(0), direction)
    # nor does the exact Phi-image check read the missing line as empty
    assert not op.sends(DimensionVector.unit(0), DimensionVector())


@st.composite
def phi_images(draw):
    # a finitely supported x on a random acyclic --file quiver with parallel
    # arrows, on a-infinity or on d-infinity, where Phi(x) has a certified
    # support, so apply reads it whole
    kind = draw(st.sampled_from(["quiver", "a-infinity", "d-infinity"]))
    if kind == "quiver":
        n = draw(st.integers(1, 7))
        arrows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] < e[1]), max_size=12))
        pres = parse_presentation("kind quiver\n" + "".join(f"vertex {v}\n" for v in range(n))
                                  + "".join(f"arrow {u} {v}\n" for u, v in arrows))
        verts = pres.vertices()
        if draw(st.booleans()):
            pres = pres.opposite()
    else:
        pres = make_family(kind)
        verts = list(range(-1 if kind == "d-infinity" else 0, 9))
    x = DimensionVector(draw(st.dictionaries(st.sampled_from(verts), st.integers(-3, 3),
                                             max_size=4)))
    return pres, verts, x, draw(st.sampled_from(verts)), draw(st.sampled_from([-1, 1]))


@settings(max_examples=80, deadline=None)
@given(phi_images())
def test_sends_is_the_phi_image_on_every_vertex(case):
    # sends reads only lines of c^-1; apply forms Phi(x) through c, so the
    # two are independent reads of the same transformation
    pres, verts, x, v, delta = case
    op = operator(pres)
    phi = op.apply(x, "forward").to_dimension_vector()
    assert op.sends(x, phi)
    assert not op.sends(x, phi + DimensionVector({v: delta}))
