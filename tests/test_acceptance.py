"""Acceptance criteria, one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import io
import random
from unittest import mock

from coxcartan import (
    CoxeterOperator,
    DimensionVector,
    cartan_inverse,
    cartan_pair,
    evaluate_window,
    ext_dim,
    find_isomorphism,
    inj_dim_simple,
    interval_comodule,
    knit_component,
    make_family,
    mobius,
    parse_presentation,
    tau,
    verify_identity_on_window,
    verify_translate_formula,
)
from coxcartan import comodules, linalg, resolutions
from coxcartan.cli import run


def grids(pres, spec):
    pair = cartan_pair(pres)
    op = CoxeterOperator(pair)
    w = pres.window(spec)
    return {
        "c": evaluate_window(pair.cartan, w, w).grid(),
        "cinv": evaluate_window(pair.inverse, w, w).grid(),
        "phi": evaluate_window(op.matrix("forward"), w, w).grid(),
        "phi_inv": evaluate_window(op.matrix("inverse"), w, w).grid(),
    }


def test_criterion_01_a_infinity_golden_matrices():
    g = grids(make_family("a-infinity"), "0..7")
    n = 8
    assert g["c"] == [[1 if j <= i else 0 for j in range(n)] for i in range(n)]
    assert g["cinv"] == [
        [1 if j == i else (-1 if j == i - 1 else 0) for j in range(n)] for i in range(n)
    ]
    assert g["phi"] == [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    assert g["phi_inv"] == [[-1] * n] + [
        [1 if j == i - 1 else 0 for j in range(n)] for i in range(1, n)
    ]
    print("PASS criterion 1: one-way infinite family matches all four printed matrices")


D_C = [
    [1, 0, 1, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 0],
    [0, 0, 1, 1, 1, 0, 0, 0],
    [0, 0, 1, 1, 1, 1, 0, 0],
    [0, 0, 1, 1, 1, 1, 1, 0],
    [0, 0, 1, 1, 1, 1, 1, 1],
]
D_CINV = [
    [1, 0, -1, 0, 0, 0, 0, 0],
    [0, 1, -1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, -1, 1, 0, 0, 0, 0],
    [0, 0, 0, -1, 1, 0, 0, 0],
    [0, 0, 0, 0, -1, 1, 0, 0],
    [0, 0, 0, 0, 0, -1, 1, 0],
    [0, 0, 0, 0, 0, 0, -1, 1],
]
D_PHI = [
    [-1, 0, -1, 0, 0, 0, 0, 0],
    [0, -1, -1, 0, 0, 0, 0, 0],
    [1, 1, 2, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0],
]
D_PHI_INV = [
    [0, 1, 1, 1, 1, 1, 1, 1],
    [1, 0, 1, 1, 1, 1, 1, 1],
    [-1, -1, -1, -1, -1, -1, -1, -1],
    [1, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
]


def test_criterion_02_d_infinity_golden_matrices():
    g = grids(make_family("d-infinity"), "-1..6")
    assert g["c"] == D_C
    assert g["cinv"] == D_CINV
    assert g["phi"] == D_PHI
    assert g["phi_inv"] == D_PHI_INV
    print("PASS criterion 2: forked infinite family matches all four printed matrices")


def test_criterion_03_z_a_infinity_bands_and_shift_law():
    z = make_family("z-a-infinity")
    g = grids(z, "-4..3")
    n = 8
    assert g["c"] == [[1 if j <= i else 0 for j in range(n)] for i in range(n)]
    assert g["cinv"] == [
        [1 if j == i else (-1 if j == i - 1 else 0) for j in range(n)] for i in range(n)
    ]
    assert g["phi"] == [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    assert g["phi_inv"] == [[1 if j == i - 1 else 0 for j in range(n)] for i in range(n)]
    op = CoxeterOperator(cartan_pair(z))
    rng = random.Random(20260808)
    for _ in range(100):
        support = rng.sample(range(-12, 13), rng.randint(1, 6))
        x = DimensionVector({v: rng.randint(-5, 5) for v in support})
        fx = op.apply(x, "forward")
        bx = op.apply(x, "inverse")
        for nco in range(-14, 15):
            assert fx.entry(nco) == x[nco - 1]
            assert bx.entry(nco) == x[nco + 1]
    print("PASS criterion 3: two-way family banded windows and shift law (100 vectors)")


def random_quivers(count, seed=40408):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 10)
        arrows = []
        for _ in range(rng.randint(0, 15)):
            u = rng.randint(0, n - 2)
            v = rng.randint(u + 1, n - 1)
            arrows.append((u, v))
        lines = ["kind quiver"] + [f"vertex {i}" for i in range(n)]
        lines += [f"arrow {u} {v}" for u, v in arrows]
        out.append(parse_presentation("\n".join(lines)))
    return out


def both_inverse_identities(pres, win):
    pair = cartan_pair(pres)
    ok_l, ce = verify_identity_on_window(pair.inverse, pair.cartan, win)
    assert ok_l, (pres.family, ce)
    ok_r, ce = verify_identity_on_window(pair.cartan, pair.inverse, win)
    assert ok_r, (pres.family, ce)
    assert CoxeterOperator(pair).verify_generator_identities(win) == (True, None), pres.family


def test_criterion_04_inverse_identities():
    a = make_family("a-infinity")
    for k in range(12):
        both_inverse_identities(a, a.window(f"0..{k}"))
    z = make_family("z-a-infinity")
    for k in range(6):
        both_inverse_identities(z, z.window(f"{-k}..{k}"))
    both_inverse_identities(z, z.window("-6..5"))
    d = make_family("d-infinity")
    for k in range(-1, 11):
        both_inverse_identities(d, d.window(f"-1..{k}"))
    for q in random_quivers(20):
        both_inverse_identities(q, q.window(q.vertices()))
    for lengths in ([1], [2]):
        g = make_family("garland-seq", lengths)
        both_inverse_identities(g, g.window(g.vertices()))
    for m0, span in ((1, "0..3"), (2, "0..2")):
        gf = make_family("garland", m0)
        both_inverse_identities(gf, gf.window(span))
    print("PASS criterion 4: two-sided inverse identities on families, 20 random "
          "quivers and garlands, with row/column unit identities")


def random_posets(count, seed=50505):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 8)
        rels = []
        for _ in range(rng.randint(0, 12)):
            u = rng.randint(0, n - 2)
            v = rng.randint(u + 1, n - 1)
            rels.append((u, v))
        lines = ["kind poset"] + [f"vertex {i}" for i in range(n)]
        lines += [f"cover {u} {v}" for u, v in rels]
        out.append(parse_presentation("\n".join(lines)))
    return out


def test_criterion_05_mobius_cross_oracle():
    posets = [make_family("garland-seq", lengths) for lengths in ([1], [2], [1, 2])]
    posets += random_posets(20)
    for p in posets:
        cinv = cartan_inverse(p)
        for x in p.vertices():
            for y in p.vertices():
                by_resolution = cinv.entry(y, x)
                by_mobius = mobius(p, x, y)
                by_complex = sum(
                    (-1) ** m * ext_dim(p, x, y, m, method="complex")
                    for m in range(11)
                )
                assert by_resolution == by_mobius == by_complex, (x, y)
    print("PASS criterion 5: resolution, Mobius and order-complex values agree "
          "on garlands and 20 random posets")


def test_criterion_06_ext_symmetry():
    samples = [
        (make_family("a-infinity"), list(range(0, 6))),
        (make_family("z-a-infinity"), list(range(-3, 4))),
        (make_family("d-infinity"), list(range(-1, 6))),
        (make_family("garland-seq", [1]), None),
        (make_family("garland-seq", [2]), None),
    ]
    for pres, verts in samples:
        if verts is None:
            verts = pres.vertices()
        op = pres.opposite()
        for i in verts:
            for j in verts:
                for m in range(7):
                    assert ext_dim(pres, i, j, m) == ext_dim(op, j, i, m), (i, j, m)
    print("PASS criterion 6: two-sided Ext symmetry sampled to degree 6")


def test_criterion_07_garland_injective_dimensions():
    g = make_family("garland-seq", [1, 2])
    assert inj_dim_simple(g, ("j", 1)) == 2
    assert inj_dim_simple(g, ("j", 2)) == 3
    assert inj_dim_simple(make_family("garland", 1), ("j", 0)) == 2
    assert inj_dim_simple(make_family("garland", 2), ("j", 0)) == 3
    print("PASS criterion 7: garland junction simples have injective dimension 2 and 3")


def test_criterion_08_translates_and_meshes():
    from coxcartan import almost_split_mesh

    a = make_family("a-infinity")
    for n in range(1, 9):
        for m in range(n, 9):
            module = interval_comodule(a, n, m)
            shifted = tau(module, "tau-minus")
            expected = interval_comodule(a, n - 1, m - 1)
            assert find_isomorphism(shifted, expected) is not None, (n, m)
            mesh = almost_split_mesh(expected, "ending-at")
            assert mesh.left.dim_vector() == module.dim_vector()
            want_middle = {
                tuple(sorted(interval_comodule(a, n - 1, m).dim_vector().items()))
            }
            if n <= m - 1:
                want_middle.add(
                    tuple(sorted(interval_comodule(a, n, m - 1).dim_vector().items()))
                )
            got_middle = {tuple(sorted(x.dim_vector().items())) for x in mesh.middle}
            assert got_middle == want_middle, (n, m)
            assert mesh.additivity_holds()
    print("PASS criterion 8: 36 interval translates match the shifted intervals "
          "with the printed meshes, additively exact")


def test_criterion_09_translate_formula_independent_routes():
    cases = []
    a = make_family("a-infinity")
    for n in range(1, 6):
        for m in range(n, n + 5):
            cases.append(interval_comodule(a, n, m))
    z = make_family("z-a-infinity")
    for n in range(-3, 2):
        for m in range(n, n + 5):
            cases.append(interval_comodule(z, n, m))
    assert len(cases) == 50
    for module in cases:
        result = verify_translate_formula(module)
        assert result["holds"], module
    d = make_family("d-infinity")
    frag = knit_component(d, ("injectives", list(d.window("-1..6"))), 4)
    op = CoxeterOperator(cartan_pair(d))
    assert len(frag.tau_links) == 4
    for end_id, mids, t_id in frag.meshes:
        end = frag.node(end_id).dim
        translate = frag.node(t_id).dim
        middle = DimensionVector()
        for mid in mids:
            middle = middle + frag.node(mid).dim
        assert middle - end == translate
        phi = op.apply(end, "forward")
        for v in range(-1, 10):
            assert phi.entry(v) == translate[v]
    print("PASS criterion 9: translate formula via independent routes on 50 "
          "intervals and 4 knitted meshes")


def test_criterion_10_kronecker_sanity():
    # oracle recomputed right here by 2x2 integer arithmetic
    c = [[1, 0], [2, 1]]
    det = c[0][0] * c[1][1] - c[0][1] * c[1][0]
    assert det == 1
    cinv = [[c[1][1], -c[0][1]], [-c[1][0], c[0][0]]]
    cinv_tr = [[cinv[j][i] for j in range(2)] for i in range(2)]
    phi = [
        [-sum(cinv_tr[i][k] * c[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert cinv == [[1, 0], [-2, 1]]
    assert phi == [[3, 2], [-2, -1]]

    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    g = grids(k, "0..1")
    assert g["c"] == c
    assert g["cinv"] == cinv
    assert g["phi"] == phi
    print("PASS criterion 10: double-arrow quiver matches the hand 2x2 arithmetic")


EXPECTED_FIGURE_NODES = [
    ("E(0)", {0: 1}),
    ("E(1)", {0: 1, 1: 1}),
    ("E(2)", {0: 1, 1: 1, 2: 1}),
    ("E(3)", {v: 1 for v in range(4)}),
    ("E(4)", {v: 1 for v in range(5)}),
    ("E(5)", {v: 1 for v in range(6)}),
    ("E(6)", {v: 1 for v in range(7)}),
    ("I[1,1]", {1: 1}),
    ("I[1,2]", {1: 1, 2: 1}),
    ("I[1,3]", {v: 1 for v in range(1, 4)}),
    ("I[1,4]", {v: 1 for v in range(1, 5)}),
    ("I[1,5]", {v: 1 for v in range(1, 6)}),
    ("I[1,6]", {v: 1 for v in range(1, 7)}),
]

EXPECTED_FIGURE_ARROWS = (
    [(f"E({m})", f"E({m - 1})") for m in range(1, 7)]
    + [("I[1,1]", "E(1)")]
    + [p for m in range(2, 7) for p in ((f"I[1,{m}]", f"E({m})"), (f"I[1,{m}]", f"I[1,{m - 1}]"))]
)

EXPECTED_FIGURE_TAU = [(f"E({m})", f"I[1,{m + 1}]") for m in range(6)]


def test_criterion_11_figure_fragment_and_determinism():
    a = make_family("a-infinity")
    frag = knit_component(a, ("injectives", list(a.window("0..6"))), 6)
    got_nodes = [(n.label, dict(n.dim.items())) for n in frag.nodes]
    assert got_nodes == EXPECTED_FIGURE_NODES
    by_id = {n.node_id: n.label for n in frag.nodes}
    got_arrows = sorted((by_id[s], by_id[t]) for s, t, _ in frag.arrows)
    assert got_arrows == sorted(EXPECTED_FIGURE_ARROWS)
    got_tau = [(by_id[s], by_id[t]) for s, t in frag.tau_links]
    assert got_tau == EXPECTED_FIGURE_TAU
    again = knit_component(a, ("injectives", list(a.window("0..6"))), 6)
    assert frag.to_text() == again.to_text()
    assert frag.to_dot() == again.to_dot()
    print("PASS criterion 11: 6-step fragment reproduces the expected upper-right "
          "region, byte-identical across runs")


def test_criterion_12_order_complex_oracle_on_a_long_garland_interval():
    argv = ["verify", "--suite=mobius", "--family=garland-seq:2,2,2", "--window=j0,j3"]
    out = io.StringIO()
    assert run(argv, out=out) == 0
    assert out.getvalue().startswith("OK:")
    # the oracle stays independent: no envelope, no resolution, and no dense
    # Fraction elimination on the fresh presentation
    g = make_family("garland-seq", [2, 2, 2])
    j0, j3 = ("j", 0), ("j", 3)
    degrees = range(len(g.interval(j0, j3)))
    with mock.patch.object(comodules, "label_envelope",
                           wraps=comodules.label_envelope) as envelope, \
            mock.patch.object(resolutions, "_resolve_in_region",
                              wraps=resolutions._resolve_in_region) as engine, \
            mock.patch.object(linalg, "rref", side_effect=AssertionError("dense rref")):
        by_complex = [ext_dim(g, j0, j3, m, method="complex") for m in degrees]
    assert envelope.call_count == 0 and engine.call_count == 0
    assert by_complex == [ext_dim(g, j0, j3, m) for m in degrees]
    assert sum((-1) ** m * d for m, d in enumerate(by_complex)) == mobius(g, j0, j3)
    print("PASS criterion 12: the order-complex oracle of (j0, j3) on garland-seq:2,2,2 "
          "ranks 2915 chains without the engine and agrees with the resolution")
