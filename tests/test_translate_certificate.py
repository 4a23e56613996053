"""The Hom(C, M) = 0 certificate at the socle against the check it replaced:
every injective E(j) with j within one arrow of supp M, cut down to the
window two arrows around supp M.  On that window the hom space from the cut
injective into M is the whole Hom(E(j), M), so the reference is exact for
its candidates; the socle certificate must agree with it everywhere."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from coxcartan import (
    Comodule,
    FormalInjective,
    certify_no_inj_hom,
    direct_sum,
    interval_comodule,
    make_family,
    parse_presentation,
    simple_comodule,
)
from coxcartan.artranslate import grow_window
from coxcartan.comodules import MaterializedInjective, arrows_from, hom_basis


def windowed_reference(module, margin=1):
    pres = module.pres
    if module.is_zero():
        return True
    candidates = grow_window(pres, module.support, margin)
    window = grow_window(pres, module.support, margin + 1)
    for j in candidates:
        inj = MaterializedInjective(FormalInjective(pres, [(j, 1)]), window)
        if hom_basis(inj.comodule, module):
            return False
    return True


@st.composite
def acyclic_quivers(draw):
    """A random acyclic quiver on up to 6 vertices; repeated pairs give
    parallel arrows."""
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=9))
    lines = ["kind quiver"] + [f"vertex {i}" for i in range(n)]
    lines += [f"arrow {min(u, v)} {max(u, v)}" for u, v in pairs if u != v]
    return parse_presentation("\n".join(lines) + "\n")


@st.composite
def representations(draw):
    """A random representation of a random acyclic quiver: dimensions 0-2,
    arrow matrices with entries in -2..2."""
    q = draw(acyclic_quivers())
    dims = {v: draw(st.integers(0, 2)) for v in q.vertices()}
    maps = {}
    for u in q.vertices():
        for arrow in arrows_from(q, u):
            rows, cols = dims[arrow[1]], dims[u]
            if rows and cols:
                entries = st.lists(st.integers(-2, 2), min_size=rows * cols, max_size=rows * cols)
                flat = draw(entries)
                maps[arrow] = [
                    [Fraction(flat[r * cols + c]) for c in range(cols)] for r in range(rows)
                ]
    return Comodule(q, dims, maps)


@settings(max_examples=150, deadline=None)
@given(representations())
def test_socle_certificate_matches_windowed_reference(module):
    for m in (module, module.dual()):
        assert certify_no_inj_hom(m) == windowed_reference(m), m


@settings(max_examples=40, deadline=None)
@given(acyclic_quivers())
def test_modules_with_an_injective_summand_are_never_certified(q):
    # the summand's socle vertex need not come first among the socle's
    for pres in (q, q.opposite()):
        verts = pres.vertices()
        for a in verts:
            injective = MaterializedInjective(FormalInjective(pres, [(a, 1)]), verts).comodule
            assert not certify_no_inj_hom(injective), a
            assert not windowed_reference(injective), a
            for b in verts:
                module = direct_sum([simple_comodule(pres, b), injective])
                assert not certify_no_inj_hom(module), (a, b)


def family_modules():
    """Intervals on the three path families, the two legs of d-infinity
    included, as (name, module)."""
    a = make_family("a-infinity")
    for lo in range(0, 7):
        for hi in range(lo, 9):
            yield f"a[{lo},{hi}]", interval_comodule(a, lo, hi)
    z = make_family("z-a-infinity")
    for lo in range(-4, 3):
        for hi in range(lo, 5):
            yield f"z[{lo},{hi}]", interval_comodule(z, lo, hi)
    d = make_family("d-infinity")
    for v in (-1, 0):
        yield f"d[{v}]", interval_comodule(d, v, v)
    for lo in range(1, 5):
        for hi in range(lo, 7):
            yield f"d[{lo},{hi}]", interval_comodule(d, lo, hi)
    for leg in (-1, 0):
        for hi in range(1, 6):
            dims = {leg: 1, **{v: 1 for v in range(1, hi + 1)}}
            maps = {(1, leg, 0): [[Fraction(1)]]}
            maps.update({(v, v + 1, 0): [[Fraction(1)]] for v in range(1, hi)})
            yield f"d{leg}+[1,{hi}]", Comodule(d, dims, maps)
    one, zero = Fraction(1), Fraction(0)
    maps = {(1, -1, 0): [[one, zero]], (1, 0, 0): [[zero, one]]}
    yield "d{-1,0}+2@1", Comodule(d, {-1: 1, 0: 1, 1: 2}, maps)


def test_socle_certificate_matches_reference_on_family_intervals():
    seen = {True: 0, False: 0}
    for name, module in family_modules():
        for m in (module, module.dual()):
            got = certify_no_inj_hom(m)
            assert got == windowed_reference(m), name
            seen[got] += 1
    # both verdicts occur, so neither side can pass by being constant
    assert seen[True] and seen[False]
