"""Minimal injective resolutions of simples, Ext dimensions, Mobius oracle.

One simple per orbit of the presentation's automorphisms is resolved
(`_row_terms`), and Ext, the resolution tables and the rows of the inverse
Cartan matrix (`alternating_row`) all read that one resolution, moved onto
every other simple of the orbit by the automorphism that `Presentation.orbit`
names (on a garland, swap top and bottom, and shift the blocks of garland:L;
elsewhere each orbit is one simple): the multiplicity of the injective at p
in degree m of the resolution of the simple at j is dim Ext^m between the
simples at p and j.
Path presentations are hereditary, so their resolutions have length at most
one and are written down in closed form.  On incidence presentations that
Ext localizes to the finite closed interval [p, j] (Cibils, J. Pure Appl.
Algebra 56, 1989), and the simple at j is resolved over local_downset(j), a
finite convex region holding [p, j] for every p whose Ext can be nonzero,
until the cokernel is zero: there is no degree cap, since Ext^m between
simples vanishes above the length of the longest chain between them (see
`_resolve_in_region`).

The incidence engine never builds a comodule.  Every injective E(b) of a
poset is thin on the down-set of b and Hom(M, E(b)) is M(b)*, so a term of
the resolution is the list of its summands' labels and the rest is kept as
functionals: for each v of the region, a basis A_v of the dual of the
current cokernel Q at v, as sparse rows over the summands above v.  The
socle of Q is the kernel of its maps to the covers, so its dual at v is
A_v modulo the functionals of the covers read at v (the top of the dual
representation); each row of A_v outside that span gives one summand E(v)
of the next term, and is the map into it.  The next cokernel's dual at u is
the left kernel of those maps restricted to the summands above u, and their
rank there must equal len(A_u): the envelope of Q is injective, else the
engine is at fault.  All of it is sparse exact elimination (`linalg`),
done by the label steps of module `comodules` (`label_socle`,
`label_annihilators`), which the copresentations of every path
presentation share; on a poset every key is its summand.

Two independent cross-oracles are provided for incidence presentations:
  * the classical Mobius recursion, whose values must match the alternating
    sums of resolution multiplicities entrywise,
  * reduced simplicial cohomology of the order complex of the open interval,
    which must match Ext in degrees >= 2 (degree 1 is the cover count,
    hard-coded to keep conventions from drifting).  Each boundary map is
    built straight from the chains as sparse +-1 columns and ranked by the
    fraction-free integer kernel `linalg.sparse_rank`; chains and ranks are
    kept per open interval, so asking for every degree ranks each boundary
    once.  The oracle calls neither the engine nor the Mobius recursion.

Memos live on the presentation (`Presentation.memo`): the rows of the
resolutions under "rows" and their alternating sums under "alternating", the
order complexes with their ranks under "complex", the Mobius values under
"mobius".  An opposite view keeps its memos on its base, so each orbit is resolved once per side however many
views are built, and every memo is freed with its presentation.  The two
cross-oracles keep their own memos and never move a value along an orbit.
"""

from collections import Counter

from . import linalg
from .comodules import (
    FormalInjective,
    InjectiveMorphism,
    label_annihilators,
    label_socle,
    node_budget,
)
from .errors import IntervalFinitenessViolated, UnknownVertex


def _resolve_in_region(pres, region, j):
    """Multiplicity dicts (element -> int) of the minimal injective resolution
    of the simple at j over `region`, a finite convex set of elements listed
    in display order, each dict keyed in region order.

    ann[v] holds the functionals on the current term at v, sparse rows
    {summand index: coefficient} (its keys, see module `comodules`), that
    vanish on the previous term's image:
    the dual of the cokernel at v (see the module docstring).  E^0 = E(j)
    has ann[v] = [e_0] for v < j.  Convexity makes the covers between
    region elements global covers, so the region's functor category is that
    of comodules supported on it.

    The resolution ends before degree len(region): its degree-m term at p is
    dim Ext^m between the simples at p and j, the reduced cohomology of the
    order complex of the open interval (p, j) in degree m - 2 (Cibils,
    J. Pure Appl. Algebra 56, 1989), which vanishes unless a chain
    p < ... < j of m + 1 elements lies in the region.  A cokernel still
    nonzero after len(region) steps is therefore a defect."""
    term, terms = FormalInjective(pres, [(j, 1)]), [{j: 1}]
    ann = {v: [{0: 1}] for v in region if v != j and term.counts(v)[0]}
    for _ in range(len(region)):
        if not ann:
            return terms
        socle = label_socle(term, region, ann)
        terms.append(dict(Counter(b for b, _ in socle)))
        step = InjectiveMorphism(term, FormalInjective(pres, [(b, 1) for b, _ in socle]),
                                 [row for _, row in socle])
        ann, term = label_annihilators(step, region, ann), step.target
    raise AssertionError(
        f"resolution of simple at {pres.display(j)} still nonzero at degree "
        f"{len(region)} over a region of {len(region)} elements"
    )


# ---------------------------------------------------------------------------
# public surface

def _row_terms(pres, j):
    """Multiplicity dicts (vertex -> int) of the minimal injective resolution
    of the simple at j, the only resolution of that simple; kept in
    `pres.memo("rows")`, which every copy of a view shares.  Its degree-m
    term at p is dim Ext^m between the simples at p and j.  A quiver is
    hereditary, so the resolution is S_j -> E(j) -> the injectives at the
    tails of the arrows into j.  A poset's simple is resolved by the engine
    over local_downset(j): that region is convex and holds [p, j] for every p
    whose Ext can be nonzero, and for p below its cut point the open interval
    (p, j) is a cone, so every Ext there is 0.  Only the representative r of
    j's orbit (`pres.orbit`) is resolved: an automorphism moving r to j moves
    the resolution at r onto the one at j, term by term."""
    memo = pres.memo("rows")
    if j not in memo:
        if pres.kind == "quiver":
            arrows_in = dict(pres.in_arcs(j))
            memo[j] = [{j: 1}, arrows_in] if arrows_in else [{j: 1}]
        else:
            r, move = pres.orbit(j)
            if move is None:
                region = sorted(pres.local_downset(j), key=pres.sort_key)
                memo[j] = _resolve_in_region(pres, region, j)
            else:
                memo[j] = [{move(p): m for p, m in t.items()} for t in _row_terms(pres, r)]
    return memo[j]


def _interval_terms(pres, src, tgt):
    """[dim Ext^m between the simples at src and tgt for m = 0, 1, ...], read
    off the one resolution of the simple at tgt (`_row_terms`).  That Ext
    localizes to [src, tgt], so src == tgt gives [1] and a src that cannot
    reach tgt gives [] without resolving anything."""
    if src == tgt:
        return [1]
    if not pres.could_reach(src, tgt):
        return []
    return [t.get(src, 0) for t in _row_terms(pres, tgt)]


class ResolutionSummary:
    """The per-degree multiplicity dicts `terms` of the minimal injective
    resolution of the simple at `simple` on `side`."""

    def __init__(self, simple, side, terms):
        self.simple, self.side, self.terms = simple, side, terms

    def length(self):
        return len(self.terms) - 1


def minimal_injective_resolution(pres, j, side="left"):
    """Per-degree multiplicity tables of the minimal injective resolution of
    the simple at j.  side "right" resolves over the opposite presentation."""
    if not pres.has_vertex(j):
        raise UnknownVertex(f"unknown vertex {j!r}")
    p = pres if side.lower() == "left" else pres.opposite()
    return ResolutionSummary(j, side.lower(), [dict(t) for t in _row_terms(p, j)])


def ext_dim(pres, src, tgt, m, method="resolution"):
    """dim Ext^m between the simples at src and tgt.

    method "resolution" reads degree m of the resolution of the simple at tgt
    (`_interval_terms`); method "complex" is the independent simplicial oracle
    on a poset (degree 0: delta, degree 1: cover count, degree >= 2: reduced
    cohomology of the order complex of the open interval), which never runs
    the engine.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if method != "complex":
        terms = _interval_terms(pres, src, tgt)
        return terms[m] if m < len(terms) else 0
    if m == 0 or src == tgt or not pres.leq(src, tgt):
        return int(m == 0 and src == tgt)
    interval = pres.interval(src, tgt)
    if m == 1:
        return 1 if len(interval) == 2 else 0
    open_part = [z for z in interval if z != src and z != tgt]
    return _reduced_cohomology_dim(pres, open_part, m - 2)


def alternating_row(pres, j):
    """{p: sum over m of (-1)^m dim Ext^m(simple at p, simple at j)}, zeros
    dropped: the alternating sum of the terms of the one resolution of the
    simple at j (`_row_terms`), row j of the inverse Cartan matrix, kept in
    `pres.memo("alternating")` and so read only.  Its keys lie in
    local_downset(j), where that resolution lives."""
    memo = pres.memo("alternating")
    if j not in memo:
        row = {}
        for m, term in enumerate(_row_terms(pres, j)):
            sign = -1 if m % 2 else 1
            for p, d in term.items():
                row[p] = row.get(p, 0) + sign * d
        memo[j] = {p: v for p, v in row.items() if v}
    return memo[j]


def ext_alternating_sum(pres, p, j):
    """Sum over m of (-1)^m dim Ext^m(simple at p, simple at j): the (j, p)
    entry of the inverse Cartan matrix, read off `alternating_row`; p == j
    gives 1 and a p that cannot reach j gives 0 without resolving anything.
    An entry with p <= j outside local_downset(j) is the zero that the row's
    support certificate promises.
    """
    if p == j or not pres.could_reach(p, j):
        return int(p == j)
    return alternating_row(pres, j).get(p, 0)


def _chains_of(elements, leq):
    """All nonempty chains (as tuples in increasing order), depth first.

    `elements` must be listed in some linear extension of the order.  Each
    chain costs one COX_NODE_BUDGET unit, charged by counting them first.
    """
    elems, ending, budget = list(elements), [], node_budget()
    for z in elems:
        ending.append(1 + sum(n for y, n in zip(elems, ending) if leq(y, z)))
        if sum(ending) > budget:
            raise IntervalFinitenessViolated(
                f"chains of an order complex on {len(elems)} elements "
                f"exceeded COX_NODE_BUDGET {budget}"
            )
    chains = []
    stack = [[(), 0]]       # chain, index of the next element to try on it
    while stack:
        frame = stack[-1]
        chain, start = frame
        for i in range(start, len(elems)):
            z = elems[i]
            if not chain or leq(chain[-1], z):
                frame[1] = i + 1
                chains.append(chain + (z,))
                stack.append([chains[-1], i + 1])
                break
        else:
            stack.pop()
    return chains


def _order_complex(pres, elements):
    """(chains by dimension, boundary ranks found so far) of the order complex
    of `elements`; kept in `pres.memo("complex")` by element set, so each
    boundary rank is computed once however many degrees are asked for.
    Chains keep the order of `_chains_of`: a rank does not depend on it."""
    memo = pres.memo("complex")
    key = frozenset(elements)
    if key not in memo:
        by_dim = {}
        for ch in _chains_of(pres.linear_extension(key), pres.leq):
            by_dim.setdefault(len(ch) - 1, []).append(ch)
        memo[key] = (by_dim, {})
    return memo[key]


def _boundary_columns(by_dim, k):
    """The boundary C_k -> C_{k-1} as sparse columns {row: +-1}, one per
    k-chain; k = 0 maps to the empty simplex (augmentation)."""
    if k == 0:
        return [{0: 1}] * len(by_dim[0])
    idx = {s: i for i, s in enumerate(by_dim[k - 1])}
    return [{idx[ch[:d] + ch[d + 1:]]: (-1) ** d for d in range(len(ch))} for ch in by_dim[k]]


def _reduced_cohomology_dim(pres, elements, degree):
    """dim of reduced degree-`degree` cohomology of the order complex of
    `elements` over the rationals (dimensions agree with homology): the
    number of `degree`-chains minus the ranks of the boundaries into and out
    of them, each ranked once by `linalg.sparse_rank` on its +-1 columns."""
    if degree < 0:
        return 0
    if not elements:
        return 0
    by_dim, ranks = _order_complex(pres, elements)
    if degree > max(by_dim):
        return 0

    def boundary_rank(k):
        if k not in ranks:
            ranks[k] = linalg.sparse_rank(_boundary_columns(by_dim, k)) if k in by_dim else 0
        return ranks[k]

    return len(by_dim.get(degree, [])) - boundary_rank(degree) - boundary_rank(degree + 1)


def ext_degrees(pres, src, tgt):
    """The degrees m where Ext^m between the simples at src and tgt can be
    nonzero on either side: 0 and 1 on a quiver, which is hereditary, and
    below the length of [src, tgt] on a poset (see `_resolve_in_region`)."""
    return range(2) if pres.kind == "quiver" else range(len(pres.interval(src, tgt)))


def mobius(pres, lo, hi):
    """Classical Mobius recursion on an incidence presentation, run as one
    pass over [lo, hi] in a linear extension: mu(lo, z) is minus the sum of
    mu(lo, y) over the y < z passed before z, so only the nonzero ones are
    kept to be summed (on a chain, two).  Every mu(lo, z) met on the way is
    kept in `pres.memo("mobius")`."""
    if pres.kind != "poset":
        raise ValueError("mobius needs an incidence presentation")
    if lo == hi or not pres.leq(lo, hi):
        return int(lo == hi)
    memo = pres.memo("mobius")
    if (lo, hi) not in memo:
        mu = {}     # the nonzero mu(lo, y) passed so far
        for z in pres.linear_extension(pres.interval(lo, hi)):
            if z != lo and (lo, z) not in memo:
                memo[lo, z] = -sum(m for y, m in mu.items() if pres.leq(y, z))
            m = memo.get((lo, z), 1)
            if m:
                mu[z] = m
    return memo[lo, hi]


def inj_dim_simple(pres, j):
    """Length of the minimal injective resolution of the simple at j."""
    return minimal_injective_resolution(pres, j).length()


def check_sharp_euler(pres, sample):
    """Sample-based certification, as the list of its failure messages
    (empty when it holds): finite socle-finite resolutions of simples on
    both sides, plus the two-sided Ext symmetry on sampled pairs."""
    from .cartan import cartan_matrix  # local import to avoid a cycle

    failures = []
    c = cartan_matrix(pres)
    for v in sample:
        for w in sample:
            try:
                c.entry(v, w)
            except IntervalFinitenessViolated as exc:
                failures.append(f"entry ({pres.display(v)},{pres.display(w)}): {exc}")

    for p, side_name in ((pres, "left"), (pres.opposite(), "right")):
        for j in sample:
            try:
                summary = minimal_injective_resolution(p, j)
            except IntervalFinitenessViolated as exc:
                failures.append(f"{side_name} resolution at {pres.display(j)}: {exc}")
                continue
            if any(len(t) == 0 for t in summary.terms):
                failures.append(f"{side_name} resolution at {pres.display(j)}: empty term")

    for i in sample:
        for j in sample:
            for m in ext_degrees(pres, i, j):
                a = ext_dim(pres, i, j, m)
                b = ext_dim(pres.opposite(), j, i, m)
                if a != b:
                    failures.append(
                        f"ext symmetry fails at ({pres.display(i)},{pres.display(j)},m={m}): {a} vs {b}"
                    )
    return failures
