"""Exact linear algebra over the rationals, never in floats.

Kernels, solves, ranks, independence tests and the quotient blocks [B | I]
eliminate sparse rows {col: value} fraction-free in stdlib ints (`echelon`),
dividing once per entry read.  Other matrices are dense lists of rows.  An
integral value is an int and a Fraction appears only where a denominator
does: zeros and identities are ints, and a read-off quotient is `a // b`
when b divides a (`_quotient`).  Dense `rref`, whose pivot inverse is the
one true division, is left to `rank`, `invert` and `column_space_basis`, the
oracles the sparse kernel is tested against.  Pivots are deterministic:
first column, units first.
"""

from fractions import Fraction
from math import gcd, lcm

F1 = Fraction(1)


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def copy(a):
    return [row[:] for row in a]


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def transpose(a):
    r, c = shape(a)
    return [[a[i][j] for i in range(r)] for j in range(c)]


def mat_mul(a, b):
    if not a:
        return []
    ra, ca = shape(a)
    rb, cb = shape(b)
    assert ca == rb, (ca, rb)
    out = zeros(ra, cb)
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            x = arow[k]
            if x == 0:
                continue
            brow = b[k]
            for j in range(cb):
                if brow[j] != 0:
                    orow[j] += x * brow[j]
    return out


def mat_add(a, b):
    r, c = shape(a)
    return [[a[i][j] + b[i][j] for j in range(c)] for i in range(r)]


def mat_eq(a, b):
    return a == b


def hstack(mats):
    mats = [m for m in mats if shape(m)[1] > 0]
    if not mats:
        return []
    r = len(mats[0])
    return [sum((m[i] for m in mats), []) for i in range(r)]


def vstack(mats):
    return [row[:] for m in mats for row in m]


def rref(a):
    """Row-reduce in place a copy of `a`; return (reduced matrix, pivot column list)."""
    m = copy(a)
    rows, cols = shape(m)
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = F1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [m[i][j] - f * m[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a):
    return len(rref(a)[1])


def _integer_row(row):
    """`row` without its zeros, times the lcm of its entries' denominators;
    a row of ints only loses its zeros."""
    if all(type(x) is int for x in row.values()):
        return {c: x for c, x in row.items() if x}
    den = lcm(*[x.denominator for x in row.values()])
    return {c: x.numerator * (den // x.denominator) for c, x in row.items() if x}


def _forward(rows, lead_of=min):
    """{lead column: row} of a fraction-free echelon form (Bareiss, Math. Comp.
    22, 1968) of sparse integer rows without zeros, led by their first column
    (or last, `max`).  A unit-led row displaces a pivot whose lead is not a
    unit (unit pivots first, Dumas-Saunders-Villard, J. Symb. Comput. 32,
    2001).  Rows are reduced in place; kept ones are primitive, lead > 0."""
    pivots = {}
    for row in rows:
        _insert(pivots, row, lead_of)
    return pivots


def _insert(pivots, row, lead_of=min):
    """Reduce `row` into the echelon form `pivots` as `_forward` does; True
    when it adds a pivot, that is when `row` is not in their span."""
    while row:
        lead = lead_of(row)
        piv = pivots.get(lead)
        if piv is None or (piv[lead] != 1 and abs(row[lead]) == 1):
            pivots[lead] = _primitive(row, row[lead] < 0)
            if piv is None:
                return True
            row = piv
        else:
            row = _reduce(row, piv, lead)
    return False


def _primitive(row, negate=False):
    """`row` divided by the gcd of its entries, negated too if `negate`."""
    g = -gcd(*row.values()) if negate else gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _reduce(row, piv, col):
    """a*row - b*piv, zero at `col`: a/b is piv[col]/row[col] in lowest terms, a > 0."""
    a, b = piv[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    for c, v in piv.items():
        w = row.get(c, 0) - b * v
        if w:
            row[c] = w
        else:
            del row[c]
    return row


def _quotient(a, b):
    """a / b exactly: an int when b divides a, else a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def sparse_rank(columns):
    """Rank over Q of the integer matrix with columns {row: int}, eliminated
    as rows from the last row up: +-1 boundary maps fill in far less so."""
    return len(_forward(({r: v for r, v in col.items() if v} for col in columns), max))


def echelon(rows):
    """(pivot columns, {pivot p: row}) of sparse rows {col: int or Fraction},
    row / row[p] being exactly `rref`'s reduced row at p: back-substitution
    stays in integers and leaves the one division per entry to the reader."""
    pivots = _forward(map(_integer_row, rows))
    order = sorted(pivots)
    for p in reversed(order):
        row = pivots[p]
        if len(row) > 1:
            for q in [c for c in row if c > p and c in pivots]:
                row = _reduce(row, pivots[q], q)
            pivots[p] = _primitive(row)
    return order, pivots


def independent_rows(span, rows):
    """The sparse rows of `rows` (in order) that lie outside the span of the
    sparse rows `span` and of the rows before them."""
    pivots = _forward(map(_integer_row, span))
    return [row for row in rows if _insert(pivots, _integer_row(row))]


def sparse_kernel(rows, cols):
    """The kernel of sparse rows over the columns `cols`, in reduced echelon
    form: {f: the sparse vector that is 1 at f and 0 at every other free
    column}, one per free column f, in the order of `cols`."""
    order, reduced = echelon(rows)
    basis = {f: {f: 1} for f in cols if f not in reduced}
    for p in order:
        for c, v in reduced[p].items():
            if c != p:
                basis[c][p] = _quotient(-v, reduced[p][p])
    return basis


def kernel_basis(rows, ncols):
    """Kernel in Q^ncols of sparse rows: a column per free column f, 1 at f, 0 at the others."""
    return [[vec.get(i, 0) for i in range(ncols)] for vec in sparse_kernel(rows, range(ncols)).values()]


def left_kernel(rows):
    """(rank, basis) of the sparse rows {col: value}: the basis spans the
    combinations of them that vanish, as sparse rows {row index: value}."""
    cols = {}
    for t, row in enumerate(rows):
        for c, x in row.items():
            cols.setdefault(c, {})[t] = x
    kernel = sparse_kernel(cols.values(), range(len(rows)))
    return len(rows) - len(kernel), list(kernel.values())


def nullspace(a):
    """Basis of the right kernel {x : a x = 0}, returned as a list of columns."""
    return kernel_basis([dict(enumerate(row)) for row in a], shape(a)[1])


def columns_matrix(cols, nrows):
    """Pack a list of column vectors into an nrows x len(cols) matrix."""
    return [[col[i] for col in cols] for i in range(nrows)]


def matrix_columns(a):
    r, c = shape(a)
    return [[a[i][j] for i in range(r)] for j in range(c)]


def solve_matrix(a, b):
    """Solve a X = b for X, None when inconsistent; free coordinates are 0
    (a always has full column rank in our uses)."""
    assert len(a) == len(b)
    ca, cb = shape(a)[1], shape(b)[1]
    order, reduced = echelon([dict(enumerate(ra + rb)) for ra, rb in zip(a, b)])
    if order and order[-1] >= ca:
        return None
    x = zeros(ca, cb)
    for p in order:
        x[p] = [_quotient(reduced[p].get(ca + j, 0), reduced[p][p]) for j in range(cb)]
    return x


def invert(a):
    n, m = shape(a)
    assert n == m
    red, pivots = rref(hstack([a, identity(n)]))
    if len(pivots) != n:
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]


def column_space_basis(a):
    """Indices of a maximal independent subset of columns, chosen greedily."""
    _, pivots = rref(a)
    return pivots


def _complete_with_standard(cols, n):
    """One sparse elimination (`echelon`) of [B | I], B the n x k matrix with
    columns `cols`.

    Returns (r, std, cinv): the rank r of B, the standard basis vectors (by
    index) that complete B's pivot columns, a greedily chosen maximal
    independent subset, to a basis of Q^n, and the inverse of that basis
    matrix C = [pivot columns | standard vectors].  The pivots come in that
    order, so the reduced matrix is [C^-1 B | C^-1].
    """
    k = len(cols)
    rows = [{c: col[i] for c, col in enumerate(cols)} | {k + i: 1} for i in range(n)]
    order, reduced = echelon(rows)
    std = [p - k for p in order if p >= k]
    cinv = [[_quotient(reduced[p].get(k + i, 0), reduced[p][p]) for i in range(n)] for p in order]
    return n - len(std), std, cinv


def _unit_columns(indices, n):
    return [[1 if i == s else 0 for i in range(n)] for s in indices]


def complement_projection(basis_cols, n):
    """Given columns spanning a subspace U of Q^n, build the quotient data.

    Returns (proj, section): proj is a q x n matrix with kernel exactly U,
    section is an n x q matrix with proj * section = identity.
    Deterministic: the complement is greedily drawn from standard basis vectors.
    """
    if not basis_cols:
        return identity(n), identity(n)
    r, std, cinv = _complete_with_standard(basis_cols, n)
    return cinv[r:], columns_matrix(_unit_columns(std, n), n)


def extend_to_basis(cols, n):
    """Complete independent columns to a basis of Q^n using standard vectors.

    Returns (C, Cinv) with C the basis matrix (given columns first).
    """
    if not cols:
        return identity(n), identity(n)
    r, std, cinv = _complete_with_standard(cols, n)
    if r != len(cols):
        raise ValueError("columns not independent")
    return columns_matrix(cols + _unit_columns(std, n), n), cinv


def intersect_kernels(mats, n):
    """Basis (list of columns) of the meet of the kernels of maps from Q^n, as sparse rows."""
    return kernel_basis([row for m in mats for row in m], n)
