"""Point-by-point references for the run-held Coxeter check and knitting.

`CoxeterOperator.sends` multiplies a vector held as runs at its run end
points when c^-1 has run products, as on the chain families.  The rule here
reads every point of both vectors against its own certified line of c^-1,
and `pointwise_knit` knits with every vector a dict and that rule as its
check, so its output is the reference for a knitting held as runs."""

from unittest import mock

from coxcartan import CoxeterOperator, DimensionVector, KnittingStuck, artranslate, knit_component


def pointwise_sends(op, x, y):
    """True exactly when y.c^-1 = -(x.c^-tr): each point of x times its
    column of c^-1 and each point of y times its row, added into one dict
    that must vanish; False when one of those lines is not certified."""
    acc = {}
    for vec, line in ((x, op.cinv.col), (y, op.cinv.row)):
        for k, c in vec.items():
            ln = line(k)
            if ln is None:
                return False
            for j, v in ln.items():
                acc[j] = acc.get(j, 0) + c * v
    return not any(acc.values())


def as_points(dim):
    """`dim` as a vector that holds a dict."""
    return DimensionVector(dict(dim.items()))


def knit_text(pres, seed, steps):
    """The text and dot output of the knitting, or its KnittingStuck message."""
    try:
        frag = knit_component(pres, seed, steps)
    except KnittingStuck as exc:
        return str(exc)
    return frag.to_text() + frag.to_dot()


def pointwise_knit(pres, seed, steps):
    """`knit_text` with every seed vector a dict and `pointwise_sends` as the
    Coxeter check, so every mesh is summed and checked point by point."""
    if seed[0] == "explicit":
        seed = ("explicit", [(label, as_points(dim)) for label, dim in seed[1]], seed[2])
    section_seed = artranslate.injective_section_seed

    def pointwise_seed(pres, window):
        nodes, arrows = section_seed(pres, window)
        return [(label, as_points(dim)) for label, dim in nodes], arrows

    with mock.patch.object(artranslate, "injective_section_seed", pointwise_seed), \
            mock.patch.object(CoxeterOperator, "sends", pointwise_sends):
        return knit_text(pres, seed, steps)
