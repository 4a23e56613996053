"""Cartan matrices of path and incidence presentations, and their inverses.

Orientation convention, fixed once for the whole package: entry (i, j) of the
Cartan matrix counts directed paths j -> i (for posets: 1 when j <= i), so row
i is the dimension vector of the indecomposable injective at i and column j is
the dimension vector of the opposite-side injective at j.  Each count is a
fact of the presentation's class (`Presentation.path_count`), so no walk,
memo or budget lives here.

The inverse is the canonical one built from minimal injective resolutions of
the simples.  For a hereditary path presentation that resolution has length at
most one, giving the closed form delta(j,p) - #arrows(p -> j); for incidence
presentations the entries are alternating sums of resolution multiplicities
(module `resolutions`), cross-checkable against the Mobius function.  Row j
is read off one resolution of the simple at j over local_downset(j), the
finite convex region that also certifies the row's support.
"""

from .errors import IntervalFinitenessViolated
from .lazymatrix import LazyIntMatrix, LazyVector


def path_count(pres, frm, to):
    """Number of directed paths frm -> to, the trivial path included (for
    posets: 1 when frm <= to); a fact of the presentation's class."""
    return pres.path_count(frm, to)


def cartan_matrix(pres):
    return LazyIntMatrix(
        lambda i, j: pres.path_count(j, i),
        row_support=pres.ancestors,
        col_support=pres.descendants,
        name="c",
    )


def cartan_inverse(pres):
    if pres.kind == "quiver":
        def entry(j, p):
            val = 1 if j == p else 0
            for src, mult in pres.in_arcs(j):
                if src == p:
                    val -= mult
            return val

        def row_rule(j):
            return {j} | {src for src, _ in pres.in_arcs(j)}

        def col_rule(p):
            return {p} | {tgt for tgt, _ in pres.out_arcs(p)}

        return LazyIntMatrix(entry, row_support=row_rule, col_support=col_rule, name="c^-1")

    from . import resolutions

    def entry(j, p):
        return resolutions.ext_alternating_sum(pres, p, j)

    def row_rule(j):
        s = pres.local_downset(j)
        if s is None:
            raise IntervalFinitenessViolated(
                f"no finite support certificate for inverse row {pres.display(j)}"
            )
        return s

    def col_rule(p):
        s = pres.local_upset(p)
        if s is None:
            raise IntervalFinitenessViolated(
                f"no finite support certificate for inverse column {pres.display(p)}"
            )
        return s

    return LazyIntMatrix(entry, row_support=row_rule, col_support=col_rule, name="c^-1")


class CartanPair:
    """A presentation together with its Cartan matrix and canonical inverse."""

    def __init__(self, pres):
        self.presentation = pres
        self.cartan = cartan_matrix(pres)
        self.inverse = cartan_inverse(pres)


def cartan_pair(pres):
    return CartanPair(pres)


def dim_injective(pres, a, side="left"):
    """dim E(a) (side "left": row a of the Cartan matrix) or dim of the
    opposite-side injective (side "right": column a)."""
    c = cartan_matrix(pres)
    side = side.lower()
    if side == "left":
        return LazyVector(lambda j: c.entry(a, j), support=c.row_support(a))
    if side == "right":
        return LazyVector(lambda i: c.entry(i, a), support=c.col_support(a))
    raise ValueError("side must be 'left' or 'right'")


def classify_finiteness(pres, sample):
    """Row/column finiteness of the Cartan matrix on sampled vertices, plus
    the semiperfectness reading (row-finite = right semiperfect, column-finite
    = left semiperfect).  Unknown is reported as None, never guessed."""
    row_fin, col_fin = pres.cartan_finiteness
    per_vertex = {}
    for v in sample:
        anc = pres.ancestors(v)
        desc = pres.descendants(v)
        per_vertex[v] = {
            "row_finite": anc is not None,
            "col_finite": desc is not None,
        }
    return {
        "row_finite": row_fin,
        "col_finite": col_fin,
        "right_semiperfect": row_fin,
        "left_semiperfect": col_fin,
        "per_vertex": per_vertex,
    }
