import pytest
from hypothesis import given, settings, strategies as st

from coxcartan import (
    CoxeterOperator,
    DimensionVector,
    GeneratorCombination,
    NotInSubgroup,
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
    a = make_family("a-infinity")
    assert operator(a).verify_generator_identities(0, a.window("0..10"))
    assert operator(a).verify_generator_identities(3, a.window("0..10"))
    d = make_family("d-infinity")
    assert operator(d).verify_generator_identities(1, d.window("-1..6"))
    z = make_family("z-a-infinity")
    assert operator(z).verify_generator_identities(0, z.window("-5..5"))


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


def test_decompose_unit_vector():
    a = make_family("a-infinity")
    op = operator(a)
    coeffs = op.decompose_in_generators(DimensionVector.unit(3), "injectives")
    assert coeffs == {3: 1, 2: -1}


def test_decompose_injective_row_and_linearity():
    a = make_family("a-infinity")
    op = operator(a)
    row5 = DimensionVector({v: 1 for v in range(6)})
    assert op.decompose_in_generators(row5, "injectives") == {5: 1}
    row2 = DimensionVector({v: 1 for v in range(3)})
    row7 = DimensionVector({v: 1 for v in range(8)})
    mix = row2 + row7.scale(2)
    assert op.decompose_in_generators(mix, "injectives") == {2: 1, 7: 2}


def test_decompose_op_injectives_side():
    # over a finite quiver both sides decompose; column vectors are the
    # op-injective dimension vectors
    q = parse_presentation("kind quiver\narrow 0 1\narrow 1 2\n")
    op = operator(q)
    col0 = DimensionVector({0: 1, 1: 1, 2: 1})
    assert op.decompose_in_generators(col0, "op-injectives") == {0: 1}


def test_decompose_kronecker_unimodular():
    # the Kronecker Cartan matrix is unimodular, so unit vectors decompose on
    # both sides with integer coefficients
    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    op = operator(k)
    assert op.decompose_in_generators(DimensionVector.unit(0), "op-injectives") == {
        0: 1,
        1: -2,
    }
    assert op.decompose_in_generators(DimensionVector.unit(1), "injectives") == {
        1: 1,
        0: -2,
    }


def test_apply_rejects_unsupported_lazy_vector():
    from coxcartan import LazyVector, NotInDomain

    a = make_family("a-infinity")
    op = operator(a)
    with pytest.raises(NotInDomain):
        op.apply(LazyVector(lambda v: 1), "forward")


def test_decompose_residual_guard():
    # doctor the pair with a wrong inverse: the residual check must refuse
    k = parse_presentation("kind quiver\narrow 0 1\n")
    pair = cartan_pair(k)
    pair.inverse = pair.cartan
    op = CoxeterOperator(pair)
    with pytest.raises(NotInSubgroup):
        op.decompose_in_generators(DimensionVector.unit(1), "injectives")


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
    with pytest.raises(NotInSubgroup):
        op.decompose_in_generators(DimensionVector.unit(0), "injectives")
