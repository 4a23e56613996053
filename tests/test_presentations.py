import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coxcartan import (
    AInfinityQuiver,
    EmptyWindow,
    FinitePoset,
    FiniteQuiver,
    GarlandFamily,
    PresentationError,
    UnknownVertex,
    check_local_boundedness,
    make_family,
    parse_family_flag,
    parse_presentation,
)

DIAMOND = "kind poset\ncover a b\ncover a c\ncover b d\ncover c d\n"


def test_parse_finite_quiver_a3():
    p = parse_presentation("kind quiver\narrow 0 1\narrow 1 2\n")
    assert p.kind == "quiver"
    assert p.vertices() == [0, 1, 2]
    assert p.out_arcs(0) == [(1, 1)]
    assert p.out_arcs(2) == []


def test_parse_family_line():
    p = parse_presentation("family a-infinity\n")
    assert p.family == "a-infinity"
    assert p.out_arcs(0) == [(1, 1)]


def test_parse_cycle_rejected():
    with pytest.raises(PresentationError, match="cycle"):
        parse_presentation("kind quiver\narrow 0 1\narrow 1 0\n")


def test_parse_poset_cycle_rejected():
    with pytest.raises(PresentationError):
        parse_presentation("kind poset\ncover a b\ncover b a\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PresentationError, match="line 2"):
        parse_presentation("kind quiver\narrow 0\n")


def test_integer_spellings_name_distinct_vertices():
    # only "1" spells the int 1: "01", "+1" and "1_0" are names of their own
    q = parse_presentation("kind quiver\nvertex 01\nvertex 1\narrow 01 1\narrow +1 1_0\n")
    assert q.vertices() == ["01", 1, "+1", "1_0"]
    assert q.out_arcs("01") == [(1, 1)] and q.out_arcs("+1") == [("1_0", 1)]
    assert parse_presentation("kind poset\ncover -3 0\n").vertices() == [-3, 0]


def test_comments_and_blank_lines():
    p = parse_presentation("# a comment\nkind quiver\n\narrow 0 1  # trailing\n")
    assert p.vertices() == [0, 1]


def test_neighbors_d_infinity():
    d = make_family("d-infinity")
    assert d.out_arcs(1) == [(-1, 1), (0, 1), (2, 1)]
    assert d.in_arcs(1) == []


def test_neighbors_a_infinity_source():
    a = make_family("a-infinity")
    assert a.in_arcs(0) == []


def test_neighbors_kronecker_multiplicity():
    k = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    assert k.in_arcs(1) == [(0, 2)]


def hasse_arrows(poset):
    """The arcs of a finite poset, its covers lo -> hi: its Hasse diagram."""
    return [(u, w) for u in poset.vertices() for w, _ in poset.out_arcs(u)]


def test_hasse_chain():
    p = parse_presentation("kind poset\ncover a b\ncover b c\n")
    assert hasse_arrows(p) == [("a", "b"), ("b", "c")]


def test_hasse_diamond():
    p = parse_presentation("kind poset\ncover a b\ncover a c\ncover b d\ncover c d\n")
    assert sorted(hasse_arrows(p)) == [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]


def test_hasse_drops_redundant_relation():
    # a<b<c declared together with the implied a<c: covers are recomputed
    p = parse_presentation("kind poset\ncover a b\ncover b c\ncover a c\n")
    assert sorted(hasse_arrows(p)) == [("a", "b"), ("b", "c")]


def test_hasse_of_garland_family_is_lazy():
    # the covers of an infinite garland are read off its levels
    g = make_family("garland", 1)
    j0 = ("j", 0)
    assert g.out_arcs(j0) == [(("g", 0, 1, 0), 1), (("g", 0, 1, 1), 1)]


def test_windows():
    a = make_family("a-infinity")
    assert list(a.window("0..7")) == list(range(8))
    d = make_family("d-infinity")
    assert list(d.window("-1..3")) == [-1, 0, 1, 2, 3]
    z = make_family("z-a-infinity")
    assert list(z.window("-2..2")) == [-2, -1, 0, 1, 2]


def test_window_errors():
    a = make_family("a-infinity")
    with pytest.raises(UnknownVertex):
        a.window([0, 1, -5])
    with pytest.raises(EmptyWindow):
        a.window([])


def test_window_sorted_and_deduplicated():
    z = make_family("z-a-infinity")
    assert list(z.window([3, -1, 3, 0])) == [-1, 0, 3]


def test_garland_window_range_is_junction_to_junction():
    g = make_family("garland", 2)
    w = list(g.window("0..1"))
    assert [g.display(v) for v in w] == ["j0", "g0.1t", "g0.1b", "g0.2t", "g0.2b", "j1"]


def test_local_boundedness_families():
    for fam, win in (("a-infinity", "0..5"), ("d-infinity", "-1..4")):
        p = make_family(fam)
        rep = check_local_boundedness(p, p.window(win))
        assert rep["certified"]


def test_local_boundedness_witnesses():
    d = make_family("d-infinity")
    rep = check_local_boundedness(d, d.window("-1..2"))
    assert rep["witnesses"][1] == (0, 3)
    assert rep["witnesses"][-1] == (1, 0)


@given(st.integers(min_value=1, max_value=8))
def test_hasse_chain_arrow_count(n):
    lines = ["kind poset"] + [f"cover v{i} v{i+1}" for i in range(n - 1)]
    if n == 1:
        lines.append("vertex v0")
    p = parse_presentation("\n".join(lines))
    assert len(hasse_arrows(p)) == n - 1


def test_opposite_flips_arcs_and_order():
    d = make_family("d-infinity")
    op = d.opposite()
    assert op.in_arcs(1) == [(-1, 1), (0, 1), (2, 1)]
    assert op.out_arcs(1) == []
    assert op.opposite() is d


def test_views_are_values_that_keep_their_memos_on_the_base():
    g = make_family("garland", 2)
    op, again = g.opposite(), g.opposite()
    assert op is not again and op == again and hash(op) == hash(again)
    assert op.window("0..1") == again.window("0..1")
    op.memo("rows")["j1"] = [{"j1": 1}]
    assert again.memo("rows") is op.memo("rows")
    assert g.memo("rows") == {}


def test_garland_order_and_intervals():
    g = make_family("garland", 1)
    j0, j1 = ("j", 0), ("j", 1)
    t, b = ("g", 0, 1, 0), ("g", 0, 1, 1)
    assert g.leq(j0, j1)
    assert not g.leq(t, b) and not g.leq(b, t)
    assert g.interval(j0, j1) == [j0, t, b, j1]
    assert g.interval(j1, j0) == []


def garland_block_poset(lengths):
    """The bitmask reference for garland-seq: its blocks glued in a row as a
    `FinitePoset` on the displayed names, its order the closure of the
    relations from each level to the next, its covers recomputed from that.

    Junctions are named j0..jk; block i (1-based, length lengths[i-1]) lies
    between j(i-1) and j(i), with interior vertices named g<i>.<level><t|b>.
    """
    elements = ["j0"]
    relations = []
    for bi, L in enumerate(lengths, start=1):
        prev = [f"j{bi - 1}"]
        for lev in range(1, L + 1):
            cur = [f"g{bi}.{lev}t", f"g{bi}.{lev}b"]
            elements.extend(cur)
            relations.extend((p, c) for p in prev for c in cur)
            prev = cur
        elements.append(f"j{bi}")
        relations.extend((p, f"j{bi}") for p in prev)
    return FinitePoset(elements, relations)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.booleans(), st.data())
def test_garland_family_matches_the_finite_block_poset(lengths, periodic, data):
    # a glued row of random blocks, or blocks 0..3 of garland:L, against the
    # bitmask closure of the same blocks, which names a vertex as the glued
    # row displays it; on garland:L the arcs and cut regions are compared
    # where they stay inside those blocks
    if periodic:
        g, lengths = GarlandFamily(lengths[:1], periodic=True), lengths[:1] * 4
        verts = g.window(f"0..{len(lengths)}").vertices
        ends = [verts[0], verts[-1]]
    else:
        g = GarlandFamily(lengths)
        verts, ends = g.vertices(), []
    f, row = garland_block_poset(lengths), GarlandFamily(lengths)
    name = {v: row.display(v) for v in verts}
    assert list(name.values()) == f.vertices()
    assert [g.parse_token(g.display(v)) for v in verts] == verts
    for u in verts:
        nu = name[u]
        for v in verts:
            assert g.leq(u, v) == f.leq(nu, name[v])
            assert [name[z] for z in g.interval(u, v)] == f.interval(nu, name[v])
        if u not in ends[1:]:
            assert [(name[w], k) for w, k in g.out_arcs(u)] == f.out_arcs(nu)
            assert {name[z] for z in g.local_upset(u)} == f._cut(nu, f._up, f._down)
        if u not in ends[:1]:
            assert [(name[w], k) for w, k in g.in_arcs(u)] == f.in_arcs(nu)
            assert {name[z] for z in g.local_downset(u)} == f._cut(nu, f._down, f._up)
        if periodic:
            assert g.ancestors(u) is g.descendants(u) is None
        else:
            assert {name[z] for z in g.ancestors(u)} == f.ancestors(nu)
            assert {name[z] for z in g.descendants(u)} == f.descendants(nu)
    elements = data.draw(st.lists(st.sampled_from(verts), unique=True))
    assert [name[z] for z in g.linear_extension(elements)] == f.linear_extension(
        [name[z] for z in elements]
    )


def test_garland_order_facts_are_level_ranges():
    # intervals and cut regions are read off levels, never by comparing
    g = make_family("garland", 2)
    verts = list(g.window("-1..1"))
    with mock.patch.object(GarlandFamily, "leq") as leq:
        for u in verts:
            g.local_downset(u)
            g.local_upset(u)
            for v in verts:
                g.interval(u, v)
        g._range_vertices(-1, 2)
    leq.assert_not_called()


def test_linear_chains_at_and_below_their_start():
    a, z = make_family("a-infinity"), make_family("z-a-infinity")
    assert isinstance(z, AInfinityQuiver) and (a.start, z.start) == (0, None)
    assert (a.cartan_finiteness, z.cartan_finiteness) == ((True, False), (False, False))
    assert [a.has_vertex(v) for v in (-1, 0, 1)] == [False, True, True]
    assert all(z.has_vertex(v) for v in (-7, -1, 0, 1))
    assert (a.in_arcs(0), a.in_arcs(1), a.out_arcs(0)) == ([], [(0, 1)], [(1, 1)])
    assert (z.in_arcs(0), z.in_arcs(-6), z.out_arcs(-1)) == ([(-1, 1)], [(-7, 1)], [(0, 1)])
    assert a.ancestors(0) == {0} and a.ancestors(3) == {0, 1, 2, 3}
    assert z.ancestors(0) is None and z.paths_into(0) is None
    assert a.descendants(0) is None and z.descendants(-3) is None
    assert a.local_downset(0) == {0} and z.local_downset(0) == {-1, 0}
    assert a.opposite().local_upset(0) == {0} and z.opposite().local_upset(0) == {-1, 0}
    assert list(a.window("-3..1")) == [0, 1] and list(z.window("-2..0")) == [-2, -1, 0]
    assert z.could_reach(-5, -2) and not a.could_reach(2, 1)
    with pytest.raises(UnknownVertex):
        a.parse_token("-1")
    with pytest.raises(EmptyWindow):
        a.window("-3..-1")


@pytest.mark.parametrize("family", ["a-infinity", "z-a-infinity", "d-infinity"])
def test_chain_families_take_exact_ints_only(family):
    # True == 1 and 1.0 == 1, but neither names a vertex
    p = make_family(family)
    assert p.has_vertex(1) and p.has_vertex(2)
    assert not any(p.has_vertex(v) for v in (True, False, 1.0, 2.0, "1", None))
    with pytest.raises(UnknownVertex):
        p.window([True, 2])
    assert list(p.window([2, 1])) == [1, 2]


def test_garland_degrees_match_block_picture():
    g = make_family("garland", 2)
    rep = check_local_boundedness(g, g.window("0..1"))
    # junctions fan out to the two chain heads; interior levels cross fully
    assert rep["witnesses"][("j", 0)] == (2, 2)
    assert rep["witnesses"][("g", 0, 1, 0)] == (1, 2)
    assert rep["witnesses"][("g", 0, 2, 1)] == (2, 1)


GARLAND_TOKENS = [
    ("garland:2", {"j-3": ("j", -3), "j0": ("j", 0), "g2.1b": ("g", 2, 1, 1),
                   "g-1.2t": ("g", -1, 2, 0)},
     ["g2.9t", "g0.0t", "j01", "j-0", "j+1", "g1.01t", "g01.1t", "g-0.1t", " j1", "j1 ",
      "g1.1", "J1", "1", "x"]),
    ("garland-seq:2,1", {"j0": ("j", 0), "j2": ("j", 2), "g1.2b": ("g", 0, 2, 1),
                         "g2.1t": ("g", 1, 1, 0)},
     ["g0.1t", "g2.2t", "g3.1t", "j-1", "j3", "j01", "j-0", "g1.01t", "g01.1t", " j1", "j1 ",
      "1", "x"]),
]


def test_garland_parse_tokens():
    # a token names the vertex it is the display of, verbatim, and only it
    for family, good, bad in GARLAND_TOKENS:
        g = parse_family_flag(family)
        for tok, v in good.items():
            assert g.parse_token(tok) == v and g.display(v) == tok
        for tok in bad:
            with pytest.raises(UnknownVertex, match=f"^unknown vertex {re.escape(tok)}$"):
                g.parse_token(tok)


def test_garland_vertices_are_exactly_those_on_some_level():
    # a vertex id is well formed, with exact int block, level and side, and
    # on a glued row inside it, or it is no vertex; every vertex is listed
    # on its level
    g, row = make_family("garland", 2), make_family("garland-seq", "2,1")
    good = [("j", 0), ("j", 2), ("g", 0, 1, 0), ("g", 1, 1, 1)]
    bad = [(), ("j",), ("g",), ("g", 0, 1), ("j", 1, 2), ("j", True), ("j", 1.0),
           ("g", 0, 1.5, 0), ("g", 0, True, 0), ("g", True, 1, 0), ("g", 0, 1, True),
           ("g", 0, 3, 0), ("g", 0, 1, 2), ("x", 1), "j0", 0]
    outside = [("j", -1), ("j", 3), ("g", -1, 1, 0), ("g", 2, 1, 0), ("g", 1, 2, 0)]
    assert all(g.has_vertex(v) for v in good + outside[:3] + [("g", 2, 1, 0)])
    for pres, cases in ((g, bad), (row, bad + outside)):
        assert all(pres.has_vertex(v) for v in good)
        assert not any(pres.has_vertex(v) for v in cases)
        for v in good:
            assert v in pres._at(pres._level(v))
        for v in cases:
            with pytest.raises(UnknownVertex):
                pres.window([v])
    assert row._levels(-2, 9) == row.vertices() and len(row.vertices()) == 9


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_garland_orbit_moves_are_automorphisms_of_the_cut_regions(length):
    # the representative is the top vertex on v's level, in block 0 of
    # garland:L and in v's own block on a glued row, whose only move swaps
    # top and bottom; the move carries both cut regions of r onto those of
    # v, one to one, keeping the order and the arcs, and the opposite view
    # agrees
    for g in (GarlandFamily([length], periodic=True), GarlandFamily([length, 1, 3])):
        verts = g.vertices() if g.is_finite else list(g.window("-3..4"))
        for v in verts:
            r, move = g.orbit(v)
            op_r, op_move = g.opposite().orbit(v)
            assert op_r == r and (op_move is None) == (move is None)
            assert r[1] == (v[1] if g.is_finite else 0) and (r[0] == "j" or r[3] == 0)
            assert g._level(r) % g._span == g._level(v) % g._span
            assert g.orbit(r) == (r, None)
            if move is None:
                assert r == v
                continue
            assert move(r) == v
            if g.is_finite:
                assert sorted(map(move, verts), key=g.sort_key) == verts
            for cut in (g.local_downset, g.local_upset):
                region = list(cut(r))
                moved = [move(p) for p in region]
                assert len(set(moved)) == len(region) and set(moved) == cut(v)
                assert [op_move(p) for p in region] == moved
                for p in region:
                    for q in region:
                        assert g.leq(p, q) == g.leq(move(p), move(q))
                    for arcs in (g.out_arcs, g.in_arcs):
                        assert sorted((move(w), k) for w, k in arcs(p)) == sorted(arcs(move(p)))


def test_only_garlands_know_automorphisms():
    pres = [make_family(f) for f in ("a-infinity", "z-a-infinity", "d-infinity")]
    pres += [garland_block_poset([1, 1]), parse_presentation(DIAMOND)]
    for p in pres:
        for v in (p.vertices() if p.is_finite else range(3)):
            assert p.orbit(v) == p.opposite().orbit(v) == (v, None)


def test_finite_presentations_build_on_a_long_chain():
    # the closure is built in topological order, not by recursion
    n = 1000
    chain = [(i, i + 1) for i in range(n - 1)]
    poset = FinitePoset(range(n), chain)
    for pres in (FiniteQuiver(range(n), chain), poset):
        assert pres.could_reach(0, n - 1)
        assert not pres.could_reach(n - 1, 0)
        assert len(pres.descendants(0)) == n
        assert len(pres.ancestors(n - 1)) == n
    assert len(hasse_arrows(poset)) == n - 1


def _reach_by_search(n, pairs):
    """reach[u]: the vertices reached from u by a directed path, u included."""
    reach = {}
    for u in range(n):
        seen, todo = {u}, [u]
        while todo:
            x = todo.pop()
            for s, t in pairs:
                if s == x and t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach[u] = seen
    return reach


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14
        ).map(lambda pairs: (n, pairs))
    )
)
def test_finite_closure_matches_a_search(data):
    n, pairs = data
    reach = _reach_by_search(n, pairs)
    if any(s in reach[t] for s, t in pairs):
        for cls in (FiniteQuiver, FinitePoset):
            with pytest.raises(PresentationError, match="cycle") as err:
                cls(range(n), pairs)
            # the message names an arc that lies on a cycle
            s, t = map(int, re.search(r"(-?\d+)(?: -> | )(-?\d+)", str(err.value)).groups())
            assert (s, t) in pairs and s in reach[t]
        return
    q, p = FiniteQuiver(range(n), pairs), FinitePoset(range(n), pairs)
    for u in range(n):
        above = frozenset(reach[u])
        below = frozenset(x for x in range(n) if u in reach[x])
        assert q.descendants(u) == p.descendants(u) == above
        assert q.ancestors(u) == p.ancestors(u) == below
        covers = sorted(
            w for w in above - {u} if not any(w in reach[z] for z in above - {u, w})
        )
        assert p.out_arcs(u) == [(w, 1) for w in covers]
        for w in covers:
            assert (u, 1) in p.in_arcs(w)
        for v in range(n):
            assert q.could_reach(u, v) == p.could_reach(u, v) == p.leq(u, v) == (v in above)
            assert p.interval(u, v) == [z for z in range(n) if z in above and v in reach[z]]
    assert sum(len(p.in_arcs(v)) for v in range(n)) == sum(len(p.out_arcs(v)) for v in range(n))


def _assert_linear_extension(pres, elements, listed):
    assert sorted(listed, key=pres.sort_key) == sorted(elements, key=pres.sort_key)
    for i, u in enumerate(listed):
        assert not any(pres.leq(v, u) for v in listed[i + 1:])


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14),
            st.sets(st.integers(0, n - 1)),
        )
    )
)
def test_linear_extensions_need_no_comparisons(data):
    # relations go up a hidden order, so display order need not extend it
    perm, pairs, elements = data
    relations = [(perm[min(u, v)], perm[max(u, v)]) for u, v in pairs if u != v]
    poset = FinitePoset(range(len(perm)), relations)
    for pres in (poset, poset.opposite()):
        with mock.patch.object(FinitePoset, "leq") as leq:
            listed = pres.linear_extension(elements)
        leq.assert_not_called()
        _assert_linear_extension(pres, elements, listed)


def test_garland_linear_extension_is_display_order():
    g = make_family("garland", 2)
    elements = list(g.window("-1..1"))[::-1]
    for pres in (g, g.opposite()):
        with mock.patch.object(type(g), "leq") as leq:
            listed = pres.linear_extension(elements)
        leq.assert_not_called()
        _assert_linear_extension(pres, elements, listed)


def test_parse_token_on_integer_labelled_presentations():
    tokens = ["3", " 4 ", "-3", "abc", "1.5"]
    finite = [(3, 4), (4, "abc")]
    table = [
        (make_family("a-infinity"), [3, 4, None, None, None]),
        (make_family("z-a-infinity"), [3, 4, -3, None, None]),
        (make_family("d-infinity"), [3, 4, None, None, None]),
        (FiniteQuiver([3, 4, "abc"], finite), [3, 4, None, "abc", None]),
        (FinitePoset([3, 4, "abc"], finite), [3, 4, None, "abc", None]),
    ]
    for pres, expected in table:
        for tok, want in zip(tokens, expected):
            if want is None:
                with pytest.raises(UnknownVertex, match=f"^unknown vertex {re.escape(tok)}$"):
                    pres.parse_token(tok)
            else:
                assert pres.parse_token(tok) == want, (pres, tok)


def test_thin_is_a_fact_of_the_class_and_its_opposite():
    # at most one path joins two vertices of a poset or a tree family, on
    # either side, so every injective there is flat: its keys are its
    # summands; the Kronecker quiver has two paths 0 -> 1
    from coxcartan.comodules import FormalInjective

    thin = [(make_family(name), lo) for name, lo in
            (("a-infinity", 0), ("z-a-infinity", -3), ("d-infinity", -1))]
    thin += [(make_family("garland", 2), 0), (make_family("garland-seq", [1, 2]), None)]
    kronecker = parse_presentation("kind quiver\narrow 0 1\narrow 0 1\n")
    for base, lo in [*thin, (kronecker, None)]:
        verts = base.vertices() if lo is None else list(base.window(f"{lo}..{lo + 4}"))
        for pres in (base, base.opposite()):
            inj = FormalInjective(pres, [(v, 1) for v in verts])
            flat = [inj.flat(u) and max(pres.counts_from(u, verts)) <= 1 for u in verts]
            assert all(flat) == (base is not kronecker), (pres.family, flat)
