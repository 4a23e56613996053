"""Coxeter matrices and transformations.

The forward matrix is -(inverse Cartan, transposed) . Cartan, the inverse one
is -(inverse Cartan) . (Cartan transposed); the vector actions keep exactly
that parenthesisation.  Since the inverse Cartan matrix is row- and
column-finite, the inner product x . c^{-tr} of a finitely supported x is
again finitely supported, which is what makes the outer product a finite sum
even when the Cartan matrix itself has infinite columns.

The inner product is computed eagerly as a scatter: the sparse sum of the
certified rows of the inverse factor over x, which are exactly the lines
that make the product finite, so the cost is linear in the size of the
result.  The outer product stays lazy and is evaluated only on the
coordinates a caller asks for.  Whether Phi sends x to a given finitely
supported y is decided without forming Phi(x), exactly and on every vertex,
from the lines of c^{-1} alone (`sends`).  The transposes of both Cartan
matrices are built once per operator, so their line memos survive from one
vector to the next.

Vectors with infinite support (dimension vectors of opposite-side injectives,
say) enter as formal generator combinations and are transformed by linearity.
The identities at the generators are checked a window at a time, as the
identity cells of the two products of c^{-1} with c (see
`verify_generator_identities`), not one coordinate at a time.
"""

from .errors import NotInDomain, UndefinedProduct
from .lazymatrix import (
    DimensionVector,
    LazyVector,
    apply_vector,
    evaluate_window,
    multiply,
    negate,
    spread,
    transpose,
)


class GeneratorCombination:
    """Finite integer combination of injective dimension vectors.

    side "injectives": sum of rows of the Cartan matrix (dim E(a));
    side "op-injectives": sum of columns (dim of the opposite injectives).
    """

    def __init__(self, side, coeffs):
        side = side.lower()
        if side not in ("injectives", "op-injectives"):
            raise ValueError("side must be 'injectives' or 'op-injectives'")
        self.side = side
        self.coeffs = {a: int(c) for a, c in dict(coeffs).items() if c != 0}


def _scatter(x, m):
    """x . m for a finitely supported x: the sparse sum of the certified rows
    of m over x, so it is exact and reads nothing else."""
    line = spread(x, m.row)
    if line is None:
        raise UndefinedProduct("vector support not certified finite")
    return DimensionVector(line)


class CoxeterOperator:
    def __init__(self, pair):
        self.pair = pair
        self.presentation = pair.presentation
        self.c, self.cinv = pair.cartan, pair.inverse
        self.c_tr, self.cinv_tr = transpose(self.c), transpose(self.cinv)
        self._matrices = {}

    def matrix(self, direction="forward"):
        d = direction.lower()
        if d not in self._matrices:
            if d == "forward":
                self._matrices[d] = multiply(negate(self.cinv_tr), self.c)
            elif d == "inverse":
                self._matrices[d] = multiply(negate(self.cinv), self.c_tr)
            else:
                raise ValueError("direction must be 'forward' or 'inverse'")
        return self._matrices[d]

    def apply(self, x, direction="forward"):
        """Apply the transformation to x.

        x may be a finitely supported DimensionVector (always accepted: the
        defining sums are finite for it) or a GeneratorCombination.
        """
        d = direction.lower()
        if d not in ("forward", "inverse"):
            raise ValueError("direction must be 'forward' or 'inverse'")
        if isinstance(x, GeneratorCombination):
            return self._apply_generators(x, d)
        if isinstance(x, LazyVector):
            if x.support is None:
                raise NotInDomain(
                    "lazy vector without finite support; pass a generator combination"
                )
            x = x.to_dimension_vector()
        if not isinstance(x, DimensionVector):
            raise NotInDomain(f"cannot transform {x!r}")
        # the sign goes on the finite inner product: -(x.A).B = (-(x.A)).B
        if d == "forward":
            return apply_vector(-_scatter(x, self.cinv_tr), self.c)
        return apply_vector(-_scatter(x, self.cinv), self.c_tr)

    def _apply_generators(self, combo, direction):
        # a combination of injective rows is x . c, of columns x . c^tr
        x = DimensionVector(combo.coeffs)
        if direction == "forward" and combo.side == "op-injectives":
            # op-injective generators map to negated injective rows
            return apply_vector(-x, self.c)
        if direction == "inverse" and combo.side == "injectives":
            return apply_vector(-x, self.c_tr)
        # other side: realize first (needs finite support), then transform
        realized = apply_vector(x, self.c if combo.side == "injectives" else self.c_tr)
        if realized.support is None:
            raise NotInDomain(
                f"generator combination on side {combo.side!r} has uncertified "
                f"support; cannot apply direction {direction!r} numerically"
            )
        return self.apply(realized.to_dimension_vector(), direction)

    def sends(self, x, y):
        """True exactly when Phi(x) = y on every vertex, for finitely
        supported x and y; False also when a line of c^{-1} it reads is not
        certified.

        It checks y.c^{-1} = -(x.c^{-tr}): the spread of x over the columns
        of c^{-1} and of y over its rows, added into one short certified
        vector that must vanish, with Phi(x) itself never formed.  Write u for
        x.c^{-tr}, so Phi(x) = -u.c.  Both c.c^{-1} and c^{-1}.c are the
        identity, and every sum below is finite, since x, y and u are
        finitely supported and every row and column of c^{-1} is finite.
        If Phi(x) = y, coordinate j of y.c^{-1} is the sum over k in column
        j of c^{-1} and over i in supp u of -u_i c_ik c^{-1}_kj; exchanging
        the two finite sums gives -(u.(c.c^{-1}))_j = -u_j.  If y.c^{-1} =
        -u, coordinate i of Phi(x) = (y.c^{-1}).c is the sum over j in supp
        y and over k in row j of c^{-1} of y_j c^{-1}_jk c_ki, which is
        (y.(c^{-1}.c))_i = y_i.  So the identity holds exactly when Phi(x)
        and y agree at every vertex, however far from their supports.
        """
        acc = {}
        get = acc.get
        for vec, line in ((x, self.cinv.col), (y, self.cinv.row)):
            for k, c in vec.items():
                ln = line(k)
                if ln is None:
                    return False
                for j, v in ln.items():
                    acc[j] = get(j, 0) + c * v
        return not any(acc.values())

    def verify_generator_identities(self, eval_window):
        """Check the two defining identities at every generator of a window.

        Forward must send the op-injective dimension vector at a to minus the
        injective one, inverse the other way round.  Both reduce to the inner
        products (dim of op-injective at a) . c^{-tr} = e_a, column a of
        c^{-1}.c, and (dim E(a)) . c^{-1} = e_a, row a of c.c^{-1} and so
        column a of c^{-tr}.c^tr; with those pinned to e_a the outer products
        are minus the Cartan row or column at a by construction.  Over the
        window the identities are the cells of c^{-1}.c and c^{-tr}.c^tr on
        win x win, each product evaluated once, row by row: the rows of the
        left factors are the certified rows and columns of c^{-1}, so every
        cell is an exact finite sum, never truncated, and no Cartan line is
        built.  Returns (ok, a) with a the first generator in window order at
        which either identity fails, or (True, None).
        """
        win = list(eval_window)
        columns = [
            zip(*evaluate_window(multiply(inv, car), win, win).data)
            for inv, car in ((self.cinv, self.c), (self.cinv_tr, self.c_tr))
        ]
        for a, left, right in zip(win, *columns):
            unit = tuple(1 if j == a else 0 for j in win)
            if left != unit or right != unit:
                return False, a
        return True, None
