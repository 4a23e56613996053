"""Exact linear algebra over the rationals.

Matrices are lists of row lists with Fraction entries, except in
`sparse_rank`, which ranks integer matrices given as sparse columns in
stdlib ints.  Everything here is deterministic: no pivoting heuristics
beyond first-nonzero (lowest row in `sparse_rank`), no floats.
"""

from fractions import Fraction
from math import gcd

F0 = Fraction(0)
F1 = Fraction(1)


def zeros(rows, cols):
    return [[F0] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = F1
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
    return shape(a) == shape(b) and all(
        a[i][j] == b[i][j] for i in range(len(a)) for j in range(len(a[0]))
    )


def hstack(mats):
    mats = [m for m in mats if shape(m)[1] > 0]
    if not mats:
        return []
    r = len(mats[0])
    return [sum((m[i] for m in mats), []) for i in range(r)]


def vstack(mats):
    out = []
    for m in mats:
        out.extend(copy(m))
    return out


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
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def sparse_rank(columns):
    """Rank over Q of the integer matrix whose columns are dicts {row: int}.

    Column reduction by lowest row, fraction-free (Bareiss, Math. Comp. 22,
    1968): a column whose lowest row is the lowest row of a kept pivot
    column p becomes a*col - b*p, with a and b the entries of p and of the
    column in that row divided by their gcd, so a unit pivot (a = 1) never
    scales the column.  A column reduced to zero is dependent; any other
    is kept, divided by the gcd of its entries, as the pivot of its lowest
    row.  The kept columns have distinct lowest rows, so they are
    independent and their number is the rank.
    """
    pivots = {}
    for col in columns:
        col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                g = gcd(*col.values())
                pivots[low] = {r: v // g for r, v in col.items()}
                break
            a, b = piv[low], col[low]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                col = {r: a * v for r, v in col.items()}
            for r, v in piv.items():
                w = col.get(r, 0) - b * v
                if w:
                    col[r] = w
                else:
                    del col[r]
    return len(pivots)


def nullspace(a):
    """Basis of the right kernel {x : a x = 0}, returned as a list of columns."""
    rows, cols = shape(a)
    if cols == 0:
        return []
    if rows == 0:
        return [[F1 if i == j else F0 for i in range(cols)] for j in range(cols)]
    red, pivots = rref(a)
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    basis = []
    for fc in free:
        v = [F0] * cols
        v[fc] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def columns_matrix(cols, nrows):
    """Pack a list of column vectors into an nrows x len(cols) matrix."""
    if not cols:
        return [[] for _ in range(nrows)]
    return [[col[i] for col in cols] for i in range(nrows)]


def matrix_columns(a):
    r, c = shape(a)
    return [[a[i][j] for i in range(r)] for j in range(c)]


def solve_matrix(a, b):
    """Solve a X = b for X; return None when inconsistent.

    When the solution is not unique the free coordinates are set to zero,
    which is fine for our uses (a always has full column rank there).
    """
    ra, ca = shape(a)
    rb, cb = shape(b)
    assert ra == rb
    aug = hstack([a, b]) if cb else copy(a)
    red, pivots = rref(aug)
    for r in range(len(red)):
        if all(red[r][c] == 0 for c in range(ca)) and any(
            red[r][c] != 0 for c in range(ca, ca + cb)
        ):
            return None
    x = zeros(ca, cb)
    for r, pc in enumerate(pivots):
        if pc >= ca:
            return None
        for j in range(cb):
            x[pc][j] = red[r][ca + j]
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
    """One elimination of [B | I], B the n x k matrix with columns `cols`.

    Returns (r, std, cinv): the rank r of B, the standard basis vectors (by
    index) that complete B's pivot columns, a greedily chosen maximal
    independent subset, to a basis of Q^n, and the inverse of that basis
    matrix C = [pivot columns | standard vectors].  The pivots come in that
    order, so the reduced matrix is [C^-1 B | C^-1].
    """
    k = len(cols)
    red, pivots = rref(hstack([columns_matrix(cols, n), identity(n)]))
    std = [p - k for p in pivots if p >= k]
    return n - len(std), std, [row[k:] for row in red]


def _unit_columns(indices, n):
    return [[F1 if i == s else F0 for i in range(n)] for s in indices]


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
    """Basis (list of columns) of the intersection of kernels of maps from Q^n."""
    stacked = vstack([m for m in mats if len(m) > 0])
    if not stacked:
        return [[F1 if i == j else F0 for i in range(n)] for j in range(n)]
    return nullspace(stacked)
