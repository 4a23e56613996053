"""Cartan matrices of path and incidence presentations, and their inverses.

Orientation convention, fixed once for the whole package: entry (i, j) of the
Cartan matrix counts directed paths j -> i (for posets: 1 when j <= i), so row
i is the dimension vector of the indecomposable injective at i and column j is
the dimension vector of the opposite-side injective at j.  Each count is a
fact of the presentation's class (`Presentation.path_count`), and so are the
certified rows and columns (`paths_into`, `paths_from`) and the bulk counts
that a window reads a line of (`counts_into`, `counts_from`) and the runs
that it may read instead (`runs_into`, `runs_from`), so no walk, memo or
budget lives here.  A window row of the inverse is its certified
line, at most in-degree + 1 entries on a path presentation, scattered into
a row of zeros at the positions that it holds.

The inverse is the canonical one built from minimal injective resolutions of
the simples, with one rule for both kinds of presentation: row j is the
alternating sum of the terms of the one resolution of the simple at j
(`resolutions.alternating_row`), read whole, not entry by entry, and its keys
lie in local_downset(j), the finite region that certifies the row.  An entry
is the same sum at one p (`resolutions.ext_alternating_sum`).  On a
hereditary path presentation that resolution has length at most one, so the
row is delta(j,p) - #arrows(p -> j) on j and its arrow neighbours: the
inverse is 1 - A with A[j,p] = #arrows(p -> j).  Where the class keeps its
arrows as runs (`arc_runs`), the inverse multiplies a vector held as runs
at their end points through that form (`LazyIntMatrix.spread_rows`,
`spread_cols`).  On an incidence presentation the entries are
cross-checkable against the Mobius function.
"""

from functools import partial
from itertools import compress, count

from .lazymatrix import LazyIntMatrix, RunLine, summed


def path_count(pres, frm, to):
    """Number of directed paths frm -> to, the trivial path included (for
    posets: 1 when frm <= to); a fact of the presentation's class."""
    return pres.path_count(frm, to)


def cartan_matrix(pres):
    return LazyIntMatrix(
        lambda i, j: pres.path_count(j, i),
        row_rule=pres.paths_into,
        col_rule=pres.paths_from,
        name="c",
        row_on=pres.counts_into,
        col_on=pres.counts_from,
        row_runs=pres.runs_into,
        col_runs=pres.runs_from,
    )


def cartan_inverse(pres):
    """Row j is {p: alternating Ext sum} over local_downset(j), zeros dropped,
    read off the one resolution of the simple at j
    (`resolutions.alternating_row`), and column p gathers the entries over
    local_upset(p).  Entry (j, p) is `resolutions.ext_alternating_sum`: 1 on
    the diagonal and 0 where p cannot reach j, with nothing resolved, and
    otherwise read off row j.  A window of row j reads row j once, and only
    when some p != j in it can reach j.  On a class with `arc_runs` the run
    products are those of 1 - A (see the module docstring)."""
    from . import resolutions

    def col(p):
        terms = {j: entry(j, p) for j in pres.local_upset(p)}
        return {j: v for j, v in terms.items() if v}

    def entry(j, p):
        return resolutions.ext_alternating_sum(pres, p, j)

    def row_on(j, cols):
        # row j lives on local_downset(j), whose elements all reach j; its
        # line is scattered onto the positions of cols that it holds
        reached = any(p != j and pres.could_reach(p, j) for p in cols)
        line = {**inverse.row(j), j: 1} if reached else {j: 1}
        out = [0] * len(cols)
        for n in compress(count(), map(line.__contains__, cols)):
            out[n] = line[cols[n]]
        return out

    row = partial(resolutions.alternating_row, pres)
    inverse = LazyIntMatrix(entry, row_rule=row, col_rule=col, name="c^-1", row_on=row_on)
    arcs = pres.arc_runs()
    if arcs is not None:
        # a sum of columns is x less x moved along the arrows, a sum of rows
        # y less y moved back along them
        inverse.spread_cols = partial(_less_moved, arcs)
        inverse.spread_rows = partial(_less_moved, [
            (None if a is None else a + step, None if b is None else b + step, -step)
            for a, b, step in arcs
        ])
    return inverse


def _less_moved(arcs, runs):
    """x - x.M as a RunLine, for x held as bounded runs and M moving each
    integer k with start <= k < stop to k + step, for the items (start,
    stop, step) of `arcs`."""
    terms = [(1, RunLine(runs))]
    for s, e, v in runs:
        for a, b, step in arcs:
            lo = s if a is None or a < s else a
            hi = e if b is None or b > e else b
            if lo < hi:
                terms.append((-v, RunLine([(lo + step, hi + step, 1)])))
    return summed(terms)


class CartanPair:
    """A presentation together with its Cartan matrix and canonical inverse."""

    def __init__(self, pres):
        self.presentation = pres
        self.cartan = cartan_matrix(pres)
        self.inverse = cartan_inverse(pres)


def cartan_pair(pres):
    return CartanPair(pres)


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
