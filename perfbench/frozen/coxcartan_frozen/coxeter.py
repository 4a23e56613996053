"""Coxeter matrices and transformations.

The forward matrix is -(inverse Cartan, transposed) . Cartan, the inverse one
is -(inverse Cartan) . (Cartan transposed); the vector actions keep exactly
that parenthesisation.  Since the inverse Cartan matrix is row- and
column-finite, the inner product x . c^{-tr} of a finitely supported x is
again finitely supported, which is what makes the outer product a finite sum
even when the Cartan matrix itself has infinite columns.

Vectors with infinite support (dimension vectors of opposite-side injectives,
say) enter as formal generator combinations and are transformed by linearity.
"""

from .errors import NotInDomain, NotInSubgroup
from .lazymatrix import (
    DimensionVector,
    LazyVector,
    apply_vector,
    multiply,
    negate,
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

    def realize(self, cartan):
        """Evaluate to a LazyVector using the Cartan matrix rows/columns."""
        coeffs = self.coeffs
        if self.side == "injectives":
            entry = lambda j: sum(c * cartan.entry(a, j) for a, c in coeffs.items())
            sup = set()
            for a in coeffs:
                s = cartan.row_support(a)
                if s is None:
                    sup = None
                    break
                sup |= s
        else:
            entry = lambda j: sum(c * cartan.entry(j, a) for a, c in coeffs.items())
            sup = set()
            for a in coeffs:
                s = cartan.col_support(a)
                if s is None:
                    sup = None
                    break
                sup |= s
        return LazyVector(entry, support=sup)


class CoxeterOperator:
    def __init__(self, pair):
        self.pair = pair
        self.presentation = pair.presentation
        self._matrices = {}

    def matrix(self, direction="forward"):
        d = direction.lower()
        if d not in self._matrices:
            c, cinv = self.pair.cartan, self.pair.inverse
            if d == "forward":
                self._matrices[d] = multiply(negate(transpose(cinv)), c)
            elif d == "inverse":
                self._matrices[d] = multiply(negate(cinv), transpose(c))
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
        c, cinv = self.pair.cartan, self.pair.inverse
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
        if d == "forward":
            inner = apply_vector(x, transpose(cinv)).to_dimension_vector()
            outer = apply_vector(inner, c)
        else:
            inner = apply_vector(x, cinv).to_dimension_vector()
            outer = apply_vector(inner, transpose(c))
        return LazyVector(lambda j: -outer.entry(j), support=outer.support)

    def _apply_generators(self, combo, direction):
        c = self.pair.cartan
        coeffs = combo.coeffs
        if direction == "forward" and combo.side == "op-injectives":
            # op-injective generators map to negated injective rows
            image = GeneratorCombination("injectives", {a: -v for a, v in coeffs.items()})
            return image.realize(c)
        if direction == "inverse" and combo.side == "injectives":
            image = GeneratorCombination("op-injectives", {a: -v for a, v in coeffs.items()})
            return image.realize(c)
        # other side: realize first (needs finite support), then transform
        realized = combo.realize(c)
        if realized.support is None:
            raise NotInDomain(
                f"generator combination on side {combo.side!r} has uncertified "
                f"support; cannot apply direction {direction!r} numerically"
            )
        return self.apply(realized.to_dimension_vector(), direction)

    def verify_generator_identities(self, a, eval_window):
        """Check the two defining identities at the generator a on a window.

        Forward must send the op-injective dimension vector at a to minus the
        injective one, inverse the other way round.  Both reduce to the inner
        products (dim of op-injective at a) . c^{-tr} = e_a and
        (dim E(a)) . c^{-1} = e_a, whose coordinates are finite sums thanks to
        the row/column certificates of the inverse; those sums are evaluated
        exactly (never truncated), coordinate by coordinate on the window.
        """
        c, cinv = self.pair.cartan, self.pair.inverse
        win = list(eval_window)
        op_inj = LazyVector(lambda i: c.entry(i, a))          # column a of c
        inner_fwd = apply_vector(op_inj, transpose(cinv))
        for j in win:
            if inner_fwd.entry(j) != (1 if j == a else 0):
                return False
        inj = LazyVector(lambda i: c.entry(a, i))             # row a of c
        inner_inv = apply_vector(inj, cinv)
        for j in win:
            if inner_inv.entry(j) != (1 if j == a else 0):
                return False
        # with the inner products pinned to e_a, the outer products are minus
        # the Cartan row/column at a by construction; spot-check them
        fwd = self._apply_generators(
            GeneratorCombination("op-injectives", {a: 1}), "forward"
        )
        for j in win:
            if fwd.entry(j) != -c.entry(a, j):
                return False
        return True

    def decompose_in_generators(self, x, side="injectives"):
        """Write the finitely supported x over the injective generators.

        side "injectives": coefficients lambda with x = sum lambda_a dim E(a);
        side "op-injectives": over the opposite-side injective dimensions.
        Accepts iff the candidate coefficient vector is finitely supported and
        reproduces x exactly on every certified coordinate.
        """
        if not isinstance(x, DimensionVector):
            raise NotInDomain("decompose expects a finitely supported vector")
        c, cinv = self.pair.cartan, self.pair.inverse
        side = side.lower()
        if side == "injectives":
            lam = apply_vector(x, cinv)
            back_mat = c
        elif side == "op-injectives":
            lam = apply_vector(x, transpose(cinv))
            back_mat = transpose(c)
        else:
            raise ValueError("side must be 'injectives' or 'op-injectives'")
        if lam.support is None:
            raise NotInSubgroup("coefficient support not certified finite")
        coeffs = lam.to_dimension_vector()
        back = apply_vector(coeffs, back_mat)
        check = set(x.support)
        if back.support is not None:
            check |= set(back.support)
        for j in sorted(check, key=self.presentation.sort_key):
            if back.entry(j) != x[j]:
                raise NotInSubgroup(
                    f"residual at {self.presentation.display(j)}: "
                    f"{back.entry(j)} != {x[j]}"
                )
        return dict(coeffs.items())
