import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coxcartan import (
    Comodule,
    DimensionVector,
    HomCNotZero,
    HypothesisViolated,
    NotInKnittedRegion,
    almost_split_mesh,
    certify_no_inj_hom,
    direct_sum,
    find_isomorphism,
    hom_basis,
    interval_column_seed,
    interval_comodule,
    knit_component,
    linalg,
    make_family,
    min_inj_copresentation,
    parse_presentation,
    tau,
    transpose_tr,
    verify_translate_formula,
    zero_comodule,
)
from coxcartan.comodules import arrows_from
from coxcartan.lazymatrix import RunLine, spread
from dense_maps import sparse_maps, to_dense

A2 = "kind quiver\narrow 0 1\n"
A3 = "kind quiver\narrow 0 1\narrow 1 2\n"


def test_dim_vector_examples():
    a = make_family("a-infinity")
    assert interval_comodule(a, 1, 2).dim_vector() == DimensionVector({1: 1, 2: 1})
    assert zero_comodule(a).dim_vector().is_zero()
    assert interval_comodule(a, 0, 3).dim_vector() == DimensionVector(
        {0: 1, 1: 1, 2: 1, 3: 1}
    )


def test_socle_of_intervals():
    a = make_family("a-infinity")
    for n, m in ((0, 4), (2, 5), (3, 3)):
        soc, _ = interval_comodule(a, n, m).socle()
        assert soc == DimensionVector({m: 1})


def test_socle_of_direct_sum():
    a = make_family("a-infinity")
    s, _ = direct_sum([interval_comodule(a, 0, 1), interval_comodule(a, 1, 2)]).socle()
    assert s == DimensionVector({1: 1, 2: 1})


def test_socle_idempotent():
    a = make_family("a-infinity")
    m = direct_sum([interval_comodule(a, 0, 2), Comodule(a, {1: 1})])
    soc, bases = m.socle()
    # build the semisimple module on the socle and take its socle again
    semis = Comodule(m.pres, dict(soc.items()))
    again, _ = semis.socle()
    assert again == soc


def non_thin_sums():
    """Direct sums with 2- and 3-dimensional vertices: two overlapping
    intervals of a-infinity, in both orders, and two Kronecker modules, of
    dimension (2, 2) and (2, 1), each plus a simple.  At the source of the
    second, each arrow alone has a kernel, and the two kernels meet in 0."""
    a = make_family("a-infinity")
    lo, hi = interval_comodule(a, 0, 2), interval_comodule(a, 1, 3)
    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    kron = Comodule(k, {0: 2, 1: 2}, sparse_maps({
        (0, 1, 0): [[1, 0], [0, 1]], (0, 1, 1): [[0, 1], [0, 0]],
    }))
    split = Comodule(k, {0: 2, 1: 1}, sparse_maps({(0, 1, 0): [[1, 0]], (0, 1, 1): [[0, 1]]}))
    return [direct_sum([lo, hi]), direct_sum([hi, lo]), direct_sum([kron, Comodule(k, {1: 1})]),
            direct_sum([split, Comodule(k, {0: 1})])]


def dense_hom_basis(x, y):
    """The hom space x -> y as `hom_basis` lays it out, solved from dense
    maps: one dense equation per entry of psi_w x_a = y_a psi_u."""
    verts = sorted(set(x.dims) | set(y.dims), key=x.pres.sort_key)
    offset, nvars = {}, 0
    for v in verts:
        offset[v], nvars = nvars, nvars + x.dim(v) * y.dim(v)
    rows = []
    for u in verts:
        for arrow in arrows_from(x.pres, u):
            w = arrow[1]
            xa, ya = to_dense(x.arrow_map(arrow), x.dim(u)), to_dense(y.arrow_map(arrow), y.dim(u))
            for r in range(y.dim(w)):
                for c in range(x.dim(u)):
                    row = [0] * nvars
                    for t in range(x.dim(w)):
                        row[offset[w] + r * x.dim(w) + t] += xa[t][c]
                    for t in range(y.dim(u)):
                        row[offset[u] + t * x.dim(u) + c] -= ya[r][t]
                    rows.append(row)
    kernel = linalg.nullspace(rows) if rows else linalg.identity(nvars)
    return [
        {v: [[vec[offset[v] + r * x.dim(v) + c] for c in range(x.dim(v))] for r in range(y.dim(v))]
         for v in verts if x.dim(v) and y.dim(v)}
        for vec in kernel
    ]


def test_non_thin_socle_intersects_sparse_kernels():
    # a vertex of dimension 2 or more meets the kernels of its out-maps,
    # against the nullspace of the dense maps stacked
    for m in non_thin_sums():
        with mock.patch.object(linalg, "intersect_kernels", wraps=linalg.intersect_kernels) as meet:
            soc, bases = m.socle()
        wide = [v for v in m.support if m.dim(v) > 1]
        assert meet.call_count == len(wide) > 0
        for v in m.support:
            out = [to_dense(m.arrow_map(a), m.dim(v)) for a in arrows_from(m.pres, v)]
            stacked = [row for mat in out for row in mat]
            expect = linalg.nullspace(stacked) if stacked else linalg.identity(m.dim(v))
            assert bases.get(v, []) == expect, v
            assert soc[v] == len(expect), v
    assert non_thin_sums()[0].socle() == (DimensionVector({2: 1, 3: 1}), {2: [[1, 0]], 3: [[1]]})
    assert non_thin_sums()[2].socle()[0] == DimensionVector({1: 3})
    assert non_thin_sums()[3].socle() == (DimensionVector({0: 1, 1: 1}), {0: [[0, 0, 1]], 1: [[1]]})


def test_non_thin_double_dual_gives_back_the_maps():
    for m in non_thin_sums():
        back = m.dual().dual()
        assert back.pres == m.pres and back.dims == m.dims
        assert back.maps == m.maps
        # the dual map of u -> w is the transpose, read densely
        for (w, u, k), rows in m.dual().maps.items():
            want = to_dense(m.maps[u, w, k], m.dim(u))
            assert to_dense(rows, m.dim(w)) == [list(col) for col in zip(*want)], (u, w, k)


def test_non_thin_hom_and_isomorphism_match_the_dense_reference():
    sums = non_thin_sums()
    for x in sums:
        for y in sums:
            if x.pres is y.pres:
                assert hom_basis(x, y) == dense_hom_basis(x, y)
                assert hom_basis(x.dual(), y.dual()) == dense_hom_basis(x.dual(), y.dual())
    # Kronecker modules of dimension (2, 2) with maps (I, J), (J, I) and
    # (I, J^tr), J a nilpotent Jordan block: the first and last are
    # isomorphic, the first two lie in different tubes
    k = sums[2].pres
    kron = [
        Comodule(k, {0: 2, 1: 2}, sparse_maps({(0, 1, 0): a0, (0, 1, 1): a1}))
        for a0, a1 in (([[1, 0], [0, 1]], [[0, 1], [0, 0]]), ([[0, 1], [0, 0]], [[1, 0], [0, 1]]),
                       ([[1, 0], [0, 1]], [[0, 0], [1, 0]]))
    ]
    assert find_isomorphism(kron[0], kron[1]) is None
    for x, y in ((sums[0], sums[1]), (kron[0], kron[2])):
        assert hom_basis(x, y) == dense_hom_basis(x, y)
        iso = find_isomorphism(x, y)
        # a dense check of the answer: invertible at each vertex, and it
        # commutes with every arrow map
        for v, d in x.dims.items():
            assert linalg.rank(iso[v]) == d, v
            for arrow in arrows_from(x.pres, v):
                w = arrow[1]
                if w in x.dims:
                    lhs = linalg.mat_mul(iso[w], to_dense(x.arrow_map(arrow), d))
                    rhs = linalg.mat_mul(to_dense(y.arrow_map(arrow), d), iso[v])
                    assert lhs == rhs, arrow


def test_comodule_refuses_a_map_of_the_wrong_shape():
    a = make_family("a-infinity")
    dims = {0: 1, 1: 2}
    assert Comodule(a, dims, {(0, 1, 0): [{0: 1}, {}]}).maps
    for rows in ([{0: 1}], [{0: 1}, {}, {}], [{1: 1}, {}]):
        with pytest.raises(AssertionError):
            Comodule(a, dims, {(0, 1, 0): rows})


def test_copresentation_interval():
    a = make_family("a-infinity")
    cop = min_inj_copresentation(interval_comodule(a, 1, 2))
    assert cop.e0.multiplicities() == {2: 1}
    assert cop.e1.multiplicities() == {0: 1}
    assert cop.exact_at_e1


def test_copresentation_simple():
    a = make_family("a-infinity")
    cop = min_inj_copresentation(Comodule(a, {1: 1}))
    assert cop.e0.multiplicities() == {1: 1}
    assert cop.e1.multiplicities() == {0: 1}


def test_copresentation_injective_stops():
    a = make_family("a-infinity")
    cop = min_inj_copresentation(interval_comodule(a, 0, 2))
    assert cop.e0.multiplicities() == {2: 1}
    assert cop.e1.is_zero()


def test_copresentation_minimality_socle_match():
    d = make_family("d-infinity")
    m = Comodule(
        d,
        {-1: 1, 1: 1},
        sparse_maps({(1, -1, 0): [[1]]}),
    )
    cop = min_inj_copresentation(m)
    soc, _ = m.socle()
    e0soc = DimensionVector(cop.e0.multiplicities())
    assert e0soc == soc


def test_copresentation_exact_at_e0():
    # ker(g) must equal the image of the embedding M -> E0 pointwise, inside
    # the window and beyond it; the embedding is injective, so that image has
    # the dims of M.  E0 at v is its keys there (the matrix columns)
    from coxcartan.artranslate import grow_window

    a = make_family("a-infinity")
    module = interval_comodule(a, 2, 4)
    cop = min_inj_copresentation(module)
    window = grow_window(a, module.support, 3)
    assert window == list(range(8))
    for v in window:
        rank, _ = linalg.left_kernel(list(cop.map.materialize(v).values()))
        assert len(cop.e0.keys(v)) - rank == module.dim(v), v


def test_random_quiver_simple_translates_match_coxeter():
    import random

    from coxcartan import CoxeterOperator, HypothesisViolated, cartan_pair

    rng = random.Random(91)
    checked = 0
    for _ in range(10):
        n = rng.randint(2, 7)
        arrows = []
        for _ in range(rng.randint(1, 10)):
            u = rng.randint(0, n - 2)
            v = rng.randint(u + 1, n - 1)
            arrows.append(f"arrow {u} {v}")
        text = "kind quiver\n" + "\n".join(
            [f"vertex {i}" for i in range(n)] + arrows
        )
        q = parse_presentation(text)
        op = CoxeterOperator(cartan_pair(q))
        for j in q.vertices():
            if not q.out_arcs(j):
                continue  # projective simple
            try:
                result = verify_translate_formula(Comodule(q, {j: 1}), op)
            except HypothesisViolated:
                continue
            assert result["holds"], (text, j)
            checked += 1
    assert checked >= 10


def test_hom_between_duals_built_on_separate_views():
    # each dual() builds its own opposite view; equal views are one
    # presentation, and Hom(DM, DN) is Hom(N, M) reversed
    a = make_family("a-infinity")
    m, n = interval_comodule(a, 1, 3), interval_comodule(a, 2, 4)
    assert m.dual().pres is not n.dual().pres
    basis = hom_basis(m.dual(), n.dual())
    assert basis == [{2: [[1]], 3: [[1]]}]
    assert len(basis) == len(hom_basis(n, m))


def test_certify_no_inj_hom():
    a = make_family("a-infinity")
    assert certify_no_inj_hom(interval_comodule(a, 1, 2))
    assert not certify_no_inj_hom(interval_comodule(a, 0, 2))  # injective itself
    a2 = parse_presentation(A2)
    # the injective at 1 surjects onto the simple at 0
    assert not certify_no_inj_hom(Comodule(a2, {0: 1}))
    assert certify_no_inj_hom(Comodule(a2, {1: 1}))


def test_transpose_interval():
    a = make_family("a-infinity")
    lazy, kernel = transpose_tr(interval_comodule(a, 1, 2))
    op = a.opposite()
    # the transpose lives over the opposite and has dims e0 + e1 there
    assert kernel.dim_vector() == DimensionVector({0: 1, 1: 1})
    for v in range(6):
        assert lazy.entry(v) == kernel.dim(v)


def test_transpose_of_injective_vanishes():
    a = make_family("a-infinity")
    _, kernel = transpose_tr(interval_comodule(a, 0, 3))
    assert kernel.is_zero()


def test_transpose_simple_over_a2():
    a2 = parse_presentation(A2)
    _, kernel = transpose_tr(Comodule(a2, {1: 1}))
    assert kernel.dim_vector() == DimensionVector({0: 1})
    assert kernel.pres.kind == "quiver"


def test_transpose_kronecker_parallel_arrows():
    # two parallel arrows force multi-path symbolic blocks; the transpose
    # dimensions must match the inverse-Coxeter image of the simple
    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    lazy, kernel = transpose_tr(Comodule(k, {1: 1}))
    assert kernel.dim_vector() == DimensionVector({0: 2, 1: 3})
    from coxcartan import CoxeterOperator, cartan_pair

    op = CoxeterOperator(cartan_pair(k))
    phi_inv = op.apply(DimensionVector.unit(1), "inverse")
    assert [phi_inv.entry(0), phi_inv.entry(1)] == [2, 3]


def test_transpose_explicit_small_margin():
    a = make_family("a-infinity")
    module = interval_comodule(a, 5, 6)
    _, kernel = transpose_tr(module)  # one exact window, no margin
    assert kernel.dim_vector() == DimensionVector({4: 1, 5: 1})


def test_find_isomorphism_zero_modules():
    a = make_family("a-infinity")
    assert find_isomorphism(zero_comodule(a), zero_comodule(a)) == {}


def test_tau_minus_shifts_intervals():
    a = make_family("a-infinity")
    for n, m in ((1, 2), (2, 2), (3, 7)):
        t = tau(interval_comodule(a, n, m), "tau-minus")
        expected = interval_comodule(a, n - 1, m - 1)
        assert find_isomorphism(t, expected) is not None


def test_tau_shifts_intervals_up():
    a = make_family("a-infinity")
    t = tau(interval_comodule(a, 0, 1), "tau")
    assert find_isomorphism(t, interval_comodule(a, 1, 2)) is not None


def test_tau_of_injective_and_projective():
    a = make_family("a-infinity")
    assert tau(interval_comodule(a, 0, 5), "tau-minus").is_zero()
    z = make_family("z-a-infinity")
    # no projectives over the two-way family: tau never vanishes
    assert not tau(interval_comodule(z, 0, 0), "tau").is_zero()


def test_tau_round_trip():
    a = make_family("a-infinity")
    for n, m in ((1, 1), (1, 3), (2, 5)):
        module = interval_comodule(a, n, m)
        round_trip = tau(tau(module, "tau-minus"), "tau")
        assert find_isomorphism(round_trip, module) is not None


def test_tau_z_a_infinity():
    z = make_family("z-a-infinity")
    t = tau(interval_comodule(z, -2, 1), "tau")
    assert find_isomorphism(t, interval_comodule(z, -1, 2)) is not None
    tm = tau(interval_comodule(z, -2, 1), "tau-minus")
    assert find_isomorphism(tm, interval_comodule(z, -3, 0)) is not None


def test_mesh_interval():
    a = make_family("a-infinity")
    mesh = almost_split_mesh(interval_comodule(a, 0, 1), "ending-at")
    assert mesh.left.dim_vector() == DimensionVector({1: 1, 2: 1})
    dims = sorted(m.dim_vector().sparse_str(a) for m in mesh.middle)
    assert dims == ["1@0,1@1,1@2", "1@1"]
    assert mesh.additivity_holds()


def test_mesh_at_simple_drops_degenerate_summand():
    a = make_family("a-infinity")
    mesh = almost_split_mesh(interval_comodule(a, 0, 0), "ending-at")
    assert len(mesh.middle) == 1
    assert mesh.middle[0].dim_vector() == DimensionVector({0: 1, 1: 1})
    assert mesh.left.dim_vector() == DimensionVector({1: 1})
    assert mesh.additivity_holds()


def test_mesh_starting_from():
    a = make_family("a-infinity")
    mesh = almost_split_mesh(interval_comodule(a, 1, 2), "starting-from")
    assert mesh.right.dim_vector() == DimensionVector({0: 1, 1: 1})
    assert mesh.additivity_holds()


def test_mesh_refuses_injective_start():
    a = make_family("a-infinity")
    with pytest.raises(HypothesisViolated):
        almost_split_mesh(interval_comodule(a, 0, 1), "starting-from")


def test_mesh_not_interval():
    d = make_family("d-infinity")
    with pytest.raises(NotInKnittedRegion):
        almost_split_mesh(Comodule(d, {1: 1}), "ending-at")


def test_translate_formula_intervals():
    a = make_family("a-infinity")
    for n, m in ((1, 2), (2, 4), (1, 8)):
        result = verify_translate_formula(interval_comodule(a, n, m))
        assert result["holds"]
        assert result["lhs"] == DimensionVector({v: 1 for v in range(n + 1, m + 2)})


def test_translate_formula_rejects_projective():
    a2 = parse_presentation(A2)
    # the simple at 1 is projective over A2: its dual is injective, so the
    # Hom(C, DN) = 0 certificate fails before any copresentation is made
    with pytest.raises(HomCNotZero):
        verify_translate_formula(Comodule(a2, {1: 1}))


def test_knit_a_infinity_figure_fragment():
    a = make_family("a-infinity")
    frag = knit_component(a, ("injectives", list(a.window("0..6"))), 6)
    labels = [n.label for n in frag.nodes]
    assert labels[:7] == [f"E({m})" for m in range(7)]
    assert labels[7:] == [f"I[1,{m}]" for m in range(1, 7)]
    # every mesh is additive and tau-linked
    for end_id, mids, t_id in frag.meshes:
        total = frag.node(end_id).dim + frag.node(t_id).dim
        mid = DimensionVector()
        for m in mids:
            mid = mid + frag.node(m).dim
        assert total == mid


def test_knit_deterministic():
    a = make_family("a-infinity")
    runs = [
        knit_component(a, ("injectives", list(a.window("0..6"))), 6).to_text()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_knit_d_infinity_first_meshes():
    d = make_family("d-infinity")
    frag = knit_component(d, ("injectives", list(d.window("-1..6"))), 4)
    translates = [frag.node(t).dim for _, t in frag.tau_links]
    assert translates[0] == DimensionVector({-1: 1, 0: 1, 1: 2, 2: 1})
    assert translates[1] == DimensionVector({0: 1, 1: 1, 2: 1})
    assert translates[2] == DimensionVector({-1: 1, 1: 1, 2: 1})
    assert translates[3] == DimensionVector({-1: 1, 0: 1, 1: 2, 2: 1, 3: 1})


def test_knit_z_a_infinity_column_seed():
    from coxcartan import interval_column_seed

    z = make_family("z-a-infinity")
    nodes, arrows = interval_column_seed(z, 0, list(range(0, 5)))
    frag = knit_component(z, ("explicit", nodes, arrows), 4)
    new = [n for n in frag.nodes[5:]]
    assert [n.label for n in new] == ["I[1,1]", "I[1,2]", "I[1,3]", "I[1,4]"]


def test_knit_z_a_infinity_injective_section_rejected():
    z = make_family("z-a-infinity")
    from coxcartan import KnittingStuck

    with pytest.raises(KnittingStuck):
        knit_component(z, ("injectives", list(z.window("0..3"))), 2)


@pytest.mark.parametrize("family, lo", [("a-infinity", 0), ("d-infinity", -1)])
@pytest.mark.parametrize("steps", [80, 160])
def test_knit_cost_is_linear_in_its_output(family, lo, steps):
    # a count, not a timing: each mesh evaluates Phi only on entries its row
    # certificates allow, so matrix entries stay within a small multiple of
    # the nonzeros the fragment prints
    from coxcartan.lazymatrix import LazyIntMatrix

    pres = make_family(family)
    calls = 0
    entry = LazyIntMatrix.entry

    def counted(self, i, j):
        nonlocal calls
        calls += 1
        return entry(self, i, j)

    with mock.patch.object(LazyIntMatrix, "entry", counted):
        frag = knit_component(pres, ("injectives", list(pres.window(f"{lo}..{steps + 2}"))), steps)
    assert len(frag.meshes) == steps
    assert calls <= 4 * sum(len(n.dim.support) for n in frag.nodes)


def test_knit_a_infinity_160_steps_output_is_stable():
    a = make_family("a-infinity")
    text = knit_component(a, ("injectives", list(a.window("0..162"))), 160).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0b85b88c466638cc71e8f39df8a0b1fcf6b66d9f5a6868eeaae5289f245e78c9"
    )


def test_copresentation_computes_each_socle_once():
    # one socle for M's envelope and one label socle step for the cokernel's
    from coxcartan import artranslate

    a = make_family("a-infinity")
    module = interval_comodule(a, 3, 5)
    with mock.patch.object(Comodule, "socle", autospec=True, side_effect=Comodule.socle) as soc, \
            mock.patch.object(artranslate, "label_socle", wraps=artranslate.label_socle) as step:
        copres = min_inj_copresentation(module)
    assert soc.call_count == 1
    assert step.call_count == 1
    assert copres.e0.summands == [5] and copres.e1.summands == [2]


def test_knit_dot_output():
    a = make_family("a-infinity")
    frag = knit_component(a, ("injectives", list(a.window("0..3"))), 2)
    dot = frag.to_dot()
    assert dot.startswith("digraph")
    assert "style=dashed" in dot


def test_tau_minus_d_infinity_simple():
    # independent cross-check: the inverse Coxeter row at 2 of the forked
    # family is (1,1,1,0,...), and the comodule route must land on it
    d = make_family("d-infinity")
    t = tau(Comodule(d, {2: 1}), "tau-minus")
    assert t.dim_vector() == DimensionVector({-1: 1, 0: 1, 1: 1})


def test_knit_kronecker_multiplicity_two():
    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    frag = knit_component(k, ("injectives", [0, 1]), 2)
    dims = [dict(n.dim.items()) for n in frag.nodes]
    assert dims == [{0: 1}, {0: 2, 1: 1}, {0: 3, 1: 2}, {0: 4, 1: 3}]
    assert all(mult == 2 for _, _, mult in frag.arrows)


def test_translate_formula_kronecker_regular():
    from fractions import Fraction

    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    reg = Comodule(
        k, {0: 1, 1: 1}, sparse_maps({(0, 1, 0): [[Fraction(1)]], (0, 1, 1): [[Fraction(0)]]})
    )
    result = verify_translate_formula(reg)
    assert result["holds"]
    assert result["lhs"] == DimensionVector({0: 1, 1: 1})


def test_tau_of_projective_simple_kronecker():
    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    assert tau(Comodule(k, {1: 1}), "tau").is_zero()


def test_comodule_engine_walks_a_long_chain_without_recursion():
    # every path on a 1500-arrow chain is deeper than the recursion limit;
    # the doubled arrow 0 -> 1 gives two of them from 0 to 1500, so every
    # pullback from 1500 to 0 runs arrow by arrow through coordinates
    from coxcartan.comodules import enumerate_paths, label_envelope
    from coxcartan.resolutions import _resolve_in_region

    n = 1500
    assert sys.getrecursionlimit() < n
    arrows = "".join(f"arrow {i} {i + 1}\n" for i in range(n))
    q = parse_presentation("kind quiver\narrow 0 1\n" + arrows)
    paths = enumerate_paths(q, 0, n)
    assert [[a[1:] for a in p] for p in paths] == [[(1, k)] + [(i, 0) for i in range(2, n + 1)]
                                                   for k in (0, 1)]
    maps = {(i, i + 1, 0): [[1]] for i in range(n)} | {(0, 1, 1): [[1]]}
    module = Comodule(q, dict.fromkeys(range(n + 1), 1), sparse_maps(maps))
    e0, ann = label_envelope(module, range(n + 1))
    assert e0.summands == [n] and e0.keys(0) == [0, 1]
    assert ann == {0: [{0: -1, 1: 1}]}
    cop = min_inj_copresentation(module)
    assert cop.e1.summands == [0] and cop.exact_at_e1
    # the flipped map read first at the far end walks 1500 vertices deep
    assert cop.map.nabla().materialize(n) == {0: {0: -1, 1: 1}}
    assert tau(module, "tau").dim_vector() == DimensionVector({0: 1, 1: 1})
    far = tau(module, "tau-minus").dim_vector()
    assert far == DimensionVector({0: 1, **dict.fromkeys(range(1, n), 2), n: 1})
    p = parse_presentation("kind poset\n" + arrows.replace("arrow", "cover"))
    assert _resolve_in_region(p, p.vertices(), n) == [{n: 1}, {n - 1: 1}]


def test_transpose_kernel_walk_charges_one_budget_unit_per_vertex():
    # tau-minus I[0,7] over z-a-infinity is I[-1,6]: the walk visits -1..6,
    # where the kernel lives, and stops at 7, where it is zero
    from coxcartan import IntervalFinitenessViolated, artranslate

    z = make_family("z-a-infinity")
    module = interval_comodule(z, 0, 7)
    with mock.patch.object(artranslate, "node_budget", return_value=9):
        assert tau(module, "tau-minus").dim_vector() == DimensionVector(
            {v: 1 for v in range(-1, 7)}
        )
    with mock.patch.object(artranslate, "node_budget", return_value=8):
        with pytest.raises(IntervalFinitenessViolated, match="COX_NODE_BUDGET 8"):
            tau(module, "tau-minus")


def _quiver40():
    """A seeded random acyclic quiver on 0..39: each vertex has one or two
    arrows in from the six below it."""
    rng = random.Random(40)
    arrows = [
        (rng.randrange(max(0, v - 6), v), v)
        for v in range(1, 40) for _ in range(rng.choice((1, 1, 2)))
    ]
    return "kind quiver\n" + "".join(f"vertex {v}\n" for v in range(40)) + "".join(
        f"arrow {u} {v}\n" for u, v in arrows
    )


KNIT_FILES = {"kronecker.txt": "kind quiver\narrow 0 1\narrow 0 1\n", "quiver40.txt": _quiver40()}


def knit_corpus():
    """knit in both formats from injective sections and seed columns on the
    three path families, the Kronecker quiver and a 40-vertex --file quiver,
    and verify tau on d-infinity windows: knittings that complete, that reach
    the edge of their section (exit 2), whose seed column makes additivity
    and Coxeter disagree, or that meet a projective end."""
    sections = {"a-infinity": (0, 2), "z-a-infinity": (-3,), "d-infinity": (-1, 0, 1)}
    for fmt in ("tsv", "dot"):
        for fam, bases in sections.items():
            for base in bases:
                tops = (3, 8, 25, 45) if base == bases[0] else (8,)
                for top in tops:
                    for steps in (1, 4, 9, 20, 40):
                        yield ["knit", f"--family={fam}", f"--section={base}..{base + top}",
                               f"--steps={steps}", f"--format={fmt}"]
            for lo in (-1, 0, 2):
                for n in (0, 3, 15):
                    for steps in (2, 7, 15):
                        yield ["knit", f"--family={fam}", f"--seed-column={lo}..{lo + n}",
                               f"--steps={steps}", f"--format={fmt}"]
        for steps in (1, 4, 12, 30):
            yield ["knit", "--file=kronecker.txt", "--section=0..1", f"--steps={steps}",
                   f"--format={fmt}"]
        for section, steps in (("0..39", 10), ("0..39", 40), ("5..39", 6), ("0..20", 15)):
            yield ["knit", "--file=quiver40.txt", f"--section={section}", f"--steps={steps}",
                   f"--format={fmt}"]
        yield ["knit", "--file=quiver40.txt", "--seed-column=0..6", "--steps=4", f"--format={fmt}"]
    for lo in (-1, 0, 1, 3):
        for n in (2, 4, 6, 9):
            yield ["verify", "--family=d-infinity", f"--window={lo}..{lo + n - 1}", "--suite=tau"]
    yield ["knit", "--family=a-infinity", "--steps=3"]
    yield ["knit", "--family=garland:1", "--section=0..1", "--steps=2"]


def test_knit_corpus_output_is_unchanged(tmp_path, monkeypatch):
    # one digest over argv, exit code, stdout and stderr of every command,
    # recorded while each mesh still compared Phi on a window of its supports;
    # re-recorded when verify's edge-of-section line came to name --window
    from coxcartan.cli import run

    monkeypatch.chdir(tmp_path)
    for name, text in KNIT_FILES.items():
        (tmp_path / name).write_text(text)
    digest = hashlib.sha256()
    count = 0
    for argv in knit_corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv, out=out)
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
        count += 1
    assert count == 348
    assert digest.hexdigest() == (
        "fd8d53d941300af7ba2e16067b24da471c9d920a8f9cdeb358face0c6b3d34b4"
    )


def _file_quiver(seed):
    """A seeded random acyclic quiver on 0..n-1: the chain i -> i+1, some of
    its arrows doubled, and skips u -> v (v > u + 1), some of them doubled,
    so that many paths join two vertices."""
    rng = random.Random(seed)
    n = rng.randint(5, 10)
    arrows = [(i, i + 1) for i in range(n - 1)]
    arrows += [(i, i + 1) for i in rng.sample(range(n - 1), rng.randint(0, 2))]
    for _ in range(rng.randint(1, n)):
        u = rng.randrange(n - 2)
        v = rng.randint(u + 2, min(n - 1, u + 4))
        arrows += [(u, v)] * rng.choice((1, 1, 2))
    rng.shuffle(arrows)
    return n, "kind quiver\n" + "".join(f"vertex {v}\n" for v in range(n)) + "".join(
        f"arrow {u} {v}\n" for u, v in arrows
    )


FILE_QUIVERS = {f"q{seed}.txt": _file_quiver(seed) for seed in range(12)}


def file_translate_corpus():
    """tau both ways on the intervals of twelve random --file quivers with
    parallel arrows, verify tau and knit on their windows: translates, and
    the refusals among them (an interval across a doubled arrow, a knitting
    that reaches the edge of its section)."""
    for name, (n, _) in FILE_QUIVERS.items():
        src = f"--file={name}"
        for direction in ("tau", "tau-minus"):
            for lo in range(n):
                for hi in (lo, lo + 1, lo + 3, n - 1):
                    if hi < n:
                        yield ["tau", src, f"--interval={lo},{hi}", f"--direction={direction}"]
        for lo, hi in ((0, n - 1), (0, 3), (2, n - 1), (1, 4)):
            yield ["verify", src, f"--window={lo}..{hi}", "--suite=tau"]
        for section in (f"0..{n - 1}", f"2..{n - 1}", "0..3"):
            for steps in (1, 5, 12):
                yield ["knit", src, f"--section={section}", f"--steps={steps}"]


def test_file_translate_corpus_output_is_unchanged(tmp_path, monkeypatch):
    # one digest over argv, exit code, stdout and stderr of every command,
    # recorded while --file quivers still ran the path-tuple model;
    # re-recorded when verify's edge-of-section line came to name --window
    from coxcartan.cli import run

    monkeypatch.chdir(tmp_path)
    for name, (_, text) in FILE_QUIVERS.items():
        (tmp_path / name).write_text(text)
    digest = hashlib.sha256()
    count = 0
    for argv in file_translate_corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv, out=out)
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
        count += 1
    assert count == 756
    assert digest.hexdigest() == (
        "c32f3e15c63c4f46a0456e1074479c5a8cf1c572fc3153b3bf86d6d72b746982"
    )


def test_many_paths_cost_what_the_translate_holds(tmp_path, monkeypatch):
    # on 0..60 with arrows i -> i+1 and i -> i+2 up to 1597 paths join two
    # vertices, and tau I[10,12] is 1508-dimensional at 0: no path is listed,
    # no dense product or system is formed, and the traced peak stays under
    # half of the 219 MB that path-basis injectives took
    from coxcartan import comodules, linalg
    from coxcartan.cli import run

    (tmp_path / "skip2.txt").write_text("kind quiver\n" + "".join(
        f"arrow {i} {j}\n" for i in range(61) for j in (i + 1, i + 2) if j < 61
    ))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with mock.patch.object(comodules, "enumerate_paths", wraps=comodules.enumerate_paths) as paths, \
            mock.patch.object(linalg, "solve_matrix", wraps=linalg.solve_matrix) as solve, \
            mock.patch.object(linalg, "mat_mul", wraps=linalg.mat_mul) as mul:
        tracemalloc.start()
        try:
            code = run(["tau", "--file=skip2.txt", "--interval=10,12", "--direction=tau"], out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (code, out.getvalue()) == (
        0, "1508@0,932@1,576@2,356@3,220@4,136@5,84@6,52@7,32@8,20@9,12@10,8@11,5@12,3@13,1@14\n"
    )
    assert paths.call_count == solve.call_count == mul.call_count == 0
    assert peak < 219 * 2**20 // 2, peak


def test_kernel_maps_cost_their_nonzeros(tmp_path, monkeypatch):
    # tau I[10,16] is 13064-dimensional at 0 and 8074 at 1: the arrow map
    # 0 -> 1 of the kernel has one nonzero per basis vector it keeps, so
    # the traced peak stays far below the 2.1 GB its dense matrices took
    from coxcartan.cli import run

    (tmp_path / "skip2.txt").write_text("kind quiver\n" + "".join(
        f"arrow {i} {j}\n" for i in range(61) for j in (i + 1, i + 2) if j < 61
    ))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    tracemalloc.start()
    try:
        code = run(["tau", "--file=skip2.txt", "--interval=10,16", "--direction=tau"], out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out.getvalue()) == (0, (
        "13064@0,8074@1,4990@2,3084@3,1906@4,1178@5,728@6,450@7,278@8,172@9,"
        "106@10,66@11,41@12,25@13,15@14,9@15,5@16,3@17,1@18\n"
    ))
    assert peak <= 64 * 2**20, peak


def _knit_until_stuck(pres, seed, steps):
    """(fragment of the meshes completed, the KnittingStuck message or None)."""
    from coxcartan import KnittingStuck

    try:
        return knit_component(pres, seed, steps), None
    except KnittingStuck as exc:
        done = 0
        while True:     # the meshes before the failing one complete
            try:
                knit_component(pres, seed, done + 1)
            except KnittingStuck:
                return knit_component(pres, seed, done), str(exc)
            done += 1


@st.composite
def perturbed_columns(draw):
    # a column of intervals [lo, m] on a path family with one node moved by
    # +-1 at one vertex of its support or next to it, or left as it is
    name = draw(st.sampled_from(["a-infinity", "z-a-infinity", "d-infinity"]))
    pres = make_family(name)
    lo = draw(st.integers({"a-infinity": 0, "d-infinity": -1}.get(name, -4), 4))
    hi = lo + draw(st.integers(1, 7))
    nodes, arrows = interval_column_seed(pres, lo, list(range(lo, hi + 1)))
    if draw(st.integers(0, 3)):
        k = draw(st.integers(0, len(nodes) - 1))
        label, dim = nodes[k]
        v = draw(st.integers(lo - 1, lo + k + 1))
        if pres.has_vertex(v):
            nodes[k] = (label, dim + DimensionVector({v: draw(st.sampled_from([-1, 1]))}))
    return pres, ("explicit", nodes, arrows), draw(st.integers(1, 2 * (hi - lo)))


@settings(max_examples=60, deadline=None)
@given(perturbed_columns())
def test_knit_check_agrees_with_the_coxeter_transformation(case):
    # every completed mesh has Phi(end), read through CoxeterOperator.apply,
    # equal to its translate on their supports grown by three arcs, and a
    # disagreement names a vertex where the two differ, with both values
    from coxcartan import CoxeterOperator, cartan_pair
    from coxcartan.artranslate import grow_window

    pres, seed, steps = case
    op = CoxeterOperator(cartan_pair(pres))
    frag, message = _knit_until_stuck(pres, seed, steps)
    for end_id, _, tid in frag.meshes:
        end, translate = frag.node(end_id).dim, frag.node(tid).dim
        phi = op.apply(end, "forward")
        for v in grow_window(pres, end.support | translate.support, 3):
            assert phi.entry(v) == translate[v], (end_id, v)
    if message is None or "disagree" not in message:
        return
    found = re.fullmatch(r"mesh at (n\d+): additivity and Coxeter disagree at (\S+) "
                         r"\((-?\d+) vs (-?\d+)\)", message)
    assert found, message
    end = frag.node(found[1]).dim
    tdim = -end
    for src, dst, mult in frag.arrows:
        if dst == found[1]:
            tdim = tdim + DimensionVector({v: mult * c for v, c in frag.node(src).dim.items()})
    v = pres.parse_token(found[2])
    assert (tdim[v], op.apply(end, "forward").entry(v)) == (int(found[3]), int(found[4]))
    assert found[3] != found[4]


@st.composite
def knit_seeds(draw):
    # an injective section from the start of a-infinity or the fork of
    # d-infinity, or a seed column on a path family near its start or at
    # 10**6, with at most a few steps more than it holds
    name = draw(st.sampled_from(["a-infinity", "z-a-infinity", "d-infinity"]))
    pres = make_family(name)
    first = {"a-infinity": 0, "d-infinity": -1}.get(name, -4)
    if name != "z-a-infinity" and draw(st.booleans()):
        top = draw(st.integers(first + 1, 16))
        return pres, ("injectives", list(range(first, top + 1))), draw(st.integers(1, top + 4))
    lo = draw(st.sampled_from([first, first + 3, 10**6]))
    hi = lo + draw(st.integers(0, 12))
    nodes, arrows = interval_column_seed(pres, lo, list(range(lo, hi + 1)))
    if draw(st.booleans()):
        # one node moved by +-1 at a vertex of its support or next to it,
        # still held as runs
        k = draw(st.integers(0, len(nodes) - 1))
        label, dim = nodes[k]
        v = draw(st.integers(max(lo - 1, first), lo + k + 1))
        moved = spread({0: 1, 1: draw(st.sampled_from([-1, 1]))}, [dim.line, {v: 1}].__getitem__)
        nodes[k] = (label, DimensionVector(moved))
    return pres, ("explicit", nodes, arrows), draw(st.integers(1, hi - lo + 4))


@settings(max_examples=80, deadline=None)
@given(knit_seeds())
def test_run_held_knitting_prints_what_the_pointwise_one_prints(case):
    # every node of a chain-family knitting is held as runs; the knitting
    # with dict vectors and the pointwise check prints the same text and dot
    # output, or stops with the same message
    from pointwise import knit_text, pointwise_knit

    pres, seed, steps = case
    text = knit_text(pres, seed, steps)
    assert text == pointwise_knit(pres, seed, steps)
    if not text.startswith("mesh at"):
        frag = knit_component(pres, seed, steps)
        assert all(isinstance(n.dim.line, RunLine) for n in frag.nodes)


@pytest.mark.parametrize("family, lo", [("a-infinity", 0), ("d-infinity", -1)])
def test_knit_evaluates_no_coxeter_image(family, lo):
    # each mesh checks tau.c^-1 = -end.c^-tr, two spreads of certified
    # lines: Phi is never applied and no window is grown
    from coxcartan import CoxeterOperator, artranslate

    pres = make_family(family)
    with mock.patch.object(CoxeterOperator, "apply", autospec=True,
                           side_effect=CoxeterOperator.apply) as apply, \
            mock.patch.object(artranslate, "grow_window", wraps=artranslate.grow_window) as grow:
        frag = knit_component(pres, ("injectives", list(pres.window(f"{lo}..162"))), 160)
    assert len(frag.meshes) == 160
    assert apply.call_count == 0 and grow.call_count == 0


def test_knit_disagreement_with_no_vertex_in_the_grown_window():
    # the identity is exact, so a mesh can fail it with no differing vertex
    # on the supports grown by one arc; it is refused with its own message
    from coxcartan import KnittingStuck, artranslate

    d = make_family("d-infinity")
    seed = ("explicit", *interval_column_seed(d, 0, [0, 1, 2, 3]))
    with pytest.raises(KnittingStuck, match=r"^mesh at n0: additivity and Coxeter disagree at 0 "):
        knit_component(d, seed, 2)
    with mock.patch.object(artranslate, "grow_window", return_value=[]):
        with pytest.raises(KnittingStuck) as stuck:
            knit_component(d, seed, 2)
    assert str(stuck.value) == (
        "mesh at n0: additivity and Coxeter disagree beyond the supports of "
        "its end and translate grown by one arc"
    )


def test_knit_at_the_edge_of_its_section_builds_no_disagreement():
    # at a seed injective with an arc leaving the section the message is
    # the edge's, so the disagreement text, which reads Phi(end) on a grown
    # window, is never built
    from coxcartan import KnittingStuck, artranslate

    for family, window in (("d-infinity", "20000..20005"), ("a-infinity", "3..8")):
        pres = make_family(family)
        with mock.patch.object(artranslate, "_disagreement", side_effect=AssertionError):
            with pytest.raises(KnittingStuck) as stuck:
                knit_component(pres, ("injectives", list(pres.window(window))), 4)
        lo = window.split("..")[0]
        assert str(stuck.value) == (
            f"mesh at n0: knitting reached the edge of its seed section at E({lo}), "
            f"whose arc {int(lo) - 1} -> {lo} leaves it; widen --section"
        )


def test_translate_formula_sees_a_discrepancy_far_from_both_supports():
    # column 5 of c^-1 gains +1 at -40, so Phi(dim I[3,7]) moves only at the
    # vertices up to -40, far from the supports of I[3,7] and its translate;
    # the exact identity still reads it
    from coxcartan import CoxeterOperator, LazyIntMatrix, cartan_pair
    from coxcartan.artranslate import grow_window

    z = make_family("z-a-infinity")
    module = interval_comodule(z, 3, 7)
    pair = cartan_pair(z)
    inverse = pair.inverse

    def col(p):
        line = dict(inverse.col(p))
        if p == 5:
            line[-40] = line.get(-40, 0) + 1
        return line

    assert verify_translate_formula(module, CoxeterOperator(pair))["holds"]
    pair.inverse = LazyIntMatrix(inverse.entry, row_rule=inverse.row, col_rule=col,
                                 name="c^-1", row_on=inverse.row_on)
    op = CoxeterOperator(pair)
    result = verify_translate_formula(module, op)
    assert not result["holds"]
    lhs, phi = result["lhs"], op.apply(module.dim_vector(), "forward")
    near = grow_window(z, lhs.support | module.dim_vector().support, 2)
    assert all(phi.entry(v) == lhs[v] for v in near)
    assert phi.entry(-40) != lhs[-40]


def test_passing_tau_suite_evaluates_no_coxeter_image():
    # each interval is checked by CoxeterOperator.sends: Phi is never
    # applied and no window is grown
    from coxcartan import CoxeterOperator, artranslate
    from coxcartan.cli import run

    with mock.patch.object(CoxeterOperator, "apply", autospec=True,
                           side_effect=CoxeterOperator.apply) as apply, \
            mock.patch.object(artranslate, "grow_window", wraps=artranslate.grow_window) as grow:
        for argv, checked in ((["--family=a-infinity", "--window=0..12"], 78),
                              (["--family=z-a-infinity", "--window=-6..6"], 91)):
            out = io.StringIO()
            assert run(["verify", *argv, "--suite=tau"], out=out) == 0
            assert out.getvalue() == f"OK: translate formula holds for {checked} interval modules\n"
    assert apply.call_count == 0 and grow.call_count == 0


def test_wide_tau_suite_intersects_no_kernels():
    # every socle the suite reads sits on lines, each read off its out-maps
    from coxcartan.cli import run

    out = io.StringIO()
    with mock.patch.object(linalg, "intersect_kernels", wraps=linalg.intersect_kernels) as meet:
        assert run(["verify", "--family=a-infinity", "--window=0..60", "--suite=tau"], out=out) == 0
    assert out.getvalue() == "OK: translate formula holds for 1830 interval modules\n"
    assert meet.call_count == 0


def tau_suite_corpus():
    """verify --suite=tau on windows of the three path families: near, far
    and comma windows of the linear ones, d-infinity windows that knit or
    reach the edge of their section, and windows that are input errors."""
    windows = {
        "a-infinity": [f"{lo}..{lo + n}" for lo in (0, 1, 4, 50, 1000) for n in (0, 1, 2, 4, 7, 12)]
        + ["0..20", "0,2,5", "3,1", "-1..3", "5..3"],
        "z-a-infinity": [f"{lo}..{lo + n}" for lo in (-20, -3, 0, 7, 500) for n in (0, 1, 2, 4, 7, 12)]
        + ["-10..10", "-4,0,4", "2..2", "5..3", "x..2"],
        "d-infinity": [f"{lo}..{lo + n}" for lo in (-1, 0, 1, 2, 5) for n in (1, 2, 3, 5, 8)]
        + ["-1..12", "-1,0,1,2", "-2..3", "3..1"],
    }
    for fam, wins in windows.items():
        for win in wins:
            yield ["verify", f"--family={fam}", f"--window={win}", "--suite=tau"]


def test_tau_suite_corpus_output_is_unchanged():
    # one digest over argv, exit code, stdout and stderr of every command,
    # recorded while the suite still compared Phi on the supports grown by
    # two arcs; re-recorded when its edge-of-section line came to name
    # --window
    from coxcartan.cli import run

    digest = hashlib.sha256()
    count = 0
    for argv in tau_suite_corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv, out=out)
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
        count += 1
    assert count == 99
    assert digest.hexdigest() == (
        "ff056f57b7d083f542dde0581b76478ae4e024c1e3f86a73c276feedf013caa1"
    )
