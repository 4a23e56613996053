"""Property tests on random finite posets and quivers against oracles that do
not share the code under test: the resolution engines (labels on posets,
socle -> envelope -> cokernel on quivers), and the lazy Coxeter action
against dense inversion of the whole Cartan matrix."""

from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from coxcartan import (
    Comodule,
    CoxeterOperator,
    DimensionVector,
    FormalInjective,
    cartan_pair,
    cartan_inverse,
    cartan_matrix,
    ext_dim,
    make_family,
    min_inj_copresentation,
    mobius,
    parse_presentation,
    path_count,
)
from coxcartan import linalg, resolutions
from coxcartan.comodules import MaterializedInjective


@st.composite
def finite_presentations(draw, kind):
    """A random finite poset (covers) or acyclic quiver (arrows, repeats giving
    parallel arrows) on up to 8 vertices; every relation goes up."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    word = "cover" if kind == "poset" else "arrow"
    lines = [f"kind {kind}"] + [f"vertex {i}" for i in range(n)]
    lines += [f"{word} {min(u, v)} {max(u, v)}" for u, v in pairs if u != v]
    return parse_presentation("\n".join(lines) + "\n")


@settings(max_examples=30, deadline=None)
@given(finite_presentations("poset"))
@example(parse_presentation(  # Ext^2 = 2 between 0 and 4: a socle of dimension 2
    "kind poset\n" + "".join(f"cover 0 {a}\ncover {a} 4\n" for a in (1, 2, 3))
))
def test_poset_resolutions_match_independent_oracles(p):
    for pres in (p, p.opposite()):
        verts = pres.vertices()
        degrees = range(len(verts) + 1)
        c = cartan_matrix(pres)
        dense = linalg.invert([[c.entry(i, j) for j in verts] for i in verts])
        # the Mobius and order-complex oracles must not run the engine
        with mock.patch.object(
            resolutions, "_resolve_in_region", side_effect=AssertionError("engine used")
        ):
            mu = {(i, j): mobius(pres, i, j) for i in verts for j in verts}
            cx = {
                (i, j): [ext_dim(pres, i, j, m, method="complex") for m in degrees]
                for i in verts
                for j in verts
            }
        cinv = cartan_inverse(pres)
        for a, i in enumerate(verts):
            for b, j in enumerate(verts):
                assert [ext_dim(pres, i, j, m) for m in degrees] == cx[i, j], (i, j)
                euler = sum((-1) ** m * d for m, d in enumerate(cx[i, j]))
                assert cinv.entry(j, i) == mu[i, j] == euler == dense[b][a], (i, j)


@settings(max_examples=30, deadline=None)
@given(finite_presentations("poset"))
def test_sparse_boundary_ranks_match_dense_rank(pres):
    # every boundary map of the order complex of the whole poset, ranked by
    # the sparse integer kernel and densely over Fraction; consecutive maps
    # compose to zero
    by_dim, _ = resolutions._order_complex(pres, pres.vertices())
    prev = [[Fraction(1)] * len(by_dim[0])]
    for k in sorted(by_dim):
        columns = resolutions._boundary_columns(by_dim, k)
        dense = [[Fraction(col.get(r, 0)) for col in columns] for r in range(len(prev[0]))]
        assert linalg.sparse_rank(columns) == linalg.rank(dense), k
        if k:
            assert not any(map(any, linalg.mat_mul(prev, dense))), k
        prev = dense


def full_sum_mobius_memo(pres, pairs):
    """The memo of the Mobius pass that sums every mu(lo, y) passed so far."""
    memo = {}
    for lo, hi in pairs:
        if lo != hi and pres.leq(lo, hi) and (lo, hi) not in memo:
            mu = {}
            for z in pres.linear_extension(pres.interval(lo, hi)):
                if z != lo and (lo, z) not in memo:
                    memo[lo, z] = -sum(m for y, m in mu.items() if pres.leq(y, z))
                mu[z] = memo.get((lo, z), 1)
    return memo


@settings(max_examples=40, deadline=None)
@given(finite_presentations("poset"), st.data())
def test_mobius_memo_matches_the_full_running_sum(p, data):
    for pres in (p, p.opposite()):
        verts = pres.vertices()
        pairs = data.draw(st.permutations([(i, j) for i in verts for j in verts]))
        for i, j in pairs:
            mobius(pres, i, j)
        assert pres.memo("mobius") == full_sum_mobius_memo(pres, pairs)


@settings(max_examples=30, deadline=None)
@given(finite_presentations("quiver"))
def test_quiver_copresentations_of_simples_and_injectives(q):
    # hereditary: 0 -> M -> E0 -> E1 -> 0 is exact, so dimensions subtract
    verts = q.vertices()
    for a in verts:
        injective = MaterializedInjective(FormalInjective(q, [(a, 1)]), verts).comodule
        for module in (Comodule(q, {a: 1}), injective):
            cop = min_inj_copresentation(module)
            for v in verts:
                e0 = sum(path_count(q, v, s) for s in cop.e0.summands)
                e1 = sum(path_count(q, v, s) for s in cop.e1.summands)
                assert module.dim(v) == e0 - e1, (a, v)


@settings(max_examples=30, deadline=None)
@given(finite_presentations("poset"))
@example(parse_presentation("kind poset\ncover 0 1\ncover 1 2\n"))
def test_inverse_rows_match_per_interval_resolutions(p):
    # Ext and the inverse rows read one resolution of the simple at j over
    # local_downset(j); resolving each interval [i, j] on its own is the
    # reference in every degree, for the i cut off that region too
    for pres in (p, p.opposite()):
        verts = pres.vertices()
        for j in verts:
            for i in verts:
                if i == j or not pres.leq(i, j):
                    continue
                terms = resolutions._resolve_in_region(pres, pres.interval(i, j), j)
                degrees = resolutions.ext_degrees(pres, i, j)
                reference = [t.get(i, 0) for t in terms]
                reference += [0] * (len(degrees) - len(reference))
                assert [ext_dim(pres, i, j, m) for m in degrees] == reference, (i, j)
                if i not in pres.local_downset(j):
                    assert not any(reference), (i, j)
                euler = sum((-1) ** m * d for m, d in enumerate(reference))
                assert resolutions.ext_alternating_sum(pres, i, j) == euler, (i, j)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_garland_seq_resolutions_match_independent_oracles(lengths):
    # a block of four levels gives a resolution of length 5 with two
    # summands in most degrees, longer and wider than on the random posets
    # above; the order complex is asked only inside local_downset(j), one
    # block, where the open intervals stay small
    p = make_family("garland-seq", lengths)
    for pres in (p, p.opposite()):
        verts = pres.vertices()
        degrees = range(len(verts) + 1)
        pairs = [(i, j) for j in verts for i in verts if pres.leq(i, j)]
        with mock.patch.object(
            resolutions, "_resolve_in_region", side_effect=AssertionError("engine used")
        ):
            mu = {(i, j): mobius(pres, i, j) for i, j in pairs}
            cx = {
                (i, j): [ext_dim(pres, i, j, m, method="complex") for m in degrees]
                for i, j in pairs
                if i in pres.local_downset(j)
            }
        for j in verts:
            terms = resolutions._row_terms(pres, j)
            assert set().union(*terms) <= pres.local_downset(j), j
            for i in verts:
                if (i, j) not in mu:
                    continue
                row = [t.get(i, 0) for t in terms]
                if (i, j) in cx:
                    assert row + [0] * (len(degrees) - len(row)) == cx[i, j], (i, j)
                euler = sum((-1) ** m * d for m, d in enumerate(row))
                assert euler == mu[i, j], (i, j)


@settings(max_examples=40, deadline=None)
@given(finite_presentations("poset"))
def test_elements_cut_off_the_local_downset_have_no_ext(p):
    # below the nearest cut point c < j every open interval (p, j) is a cone
    # on c, so the row's resolution may leave those p out
    for pres in (p, p.opposite()):
        verts = pres.vertices()
        for j in verts:
            region = pres.local_downset(j)
            assert j in region and region <= pres.ancestors(j)
            for a in region:
                assert set(pres.interval(a, j)) <= region
            for q in pres.ancestors(j) - region:
                assert mobius(pres, q, j) == 0, (q, j)
                for m in range(len(verts) + 1):
                    assert ext_dim(pres, q, j, m, method="complex") == 0, (q, j, m)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["poset", "quiver"]).flatmap(finite_presentations), st.data())
def test_coxeter_action_matches_dense_inverse(p, data):
    # Phi x = -x.C^-tr.C and Phi^-1 x = -x.C^-1.C^tr, with C^-1 the dense
    # inverse of a Cartan matrix built here from path counts
    for pres in (p, p.opposite()):
        verts = pres.vertices()
        dense = [[path_count(pres, j, i) for j in verts] for i in verts]
        inv = linalg.invert(dense)
        x = data.draw(st.lists(st.integers(-3, 3), min_size=len(verts), max_size=len(verts)))
        op = CoxeterOperator(cartan_pair(pres))
        factors = {
            "forward": (linalg.transpose(inv), dense),
            "inverse": (inv, linalg.transpose(dense)),
        }
        for direction, (a, b) in factors.items():
            expect = [-e for e in linalg.mat_mul(linalg.mat_mul([x], a), b)[0]]
            got = op.apply(DimensionVector(dict(zip(verts, x))), direction)
            assert [got.entry(v) for v in verts] == expect, direction
            if got.support is not None:
                assert {v for v, e in zip(verts, expect) if e} <= got.support
