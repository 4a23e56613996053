"""The quotient helpers of `linalg` against the three-elimination formula they
replace: independent columns by one elimination, the standard complement by a
second, and the inverse of the completed basis by a third.  The sparse
integer rank against the dense Fraction rank, and the sparse echelon form,
kernel basis and independence test against dense `rref`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxcartan import linalg
from dense_maps import to_sparse

F0, F1 = Fraction(0), Fraction(1)


def unit(s, n):
    return [F1 if i == s else F0 for i in range(n)]


def reference_complement_projection(basis_cols, n):
    b = linalg.columns_matrix(basis_cols, n)
    pivots_b = linalg.column_space_basis(b) if basis_cols else []
    kept = [basis_cols[j] for j in pivots_b]
    aug = linalg.columns_matrix(kept, n)
    full = linalg.hstack([aug, linalg.identity(n)]) if kept else linalg.identity(n)
    pivots = linalg.column_space_basis(full)
    r = len(kept)
    std = [p - r for p in pivots if p >= r]
    cmat = linalg.columns_matrix(kept + [unit(s, n) for s in std], n)
    return linalg.invert(cmat)[r:], linalg.columns_matrix([unit(s, n) for s in std], n)


def reference_extend_to_basis(cols, n):
    if not cols:
        return linalg.identity(n), linalg.identity(n)
    full = linalg.hstack([linalg.columns_matrix(cols, n), linalg.identity(n)])
    k = len(cols)
    std = [p - k for p in linalg.column_space_basis(full) if p >= k]
    cmat = linalg.columns_matrix(cols + [unit(s, n) for s in std], n)
    return cmat, linalg.invert(cmat)


def check_quotient(cols, n):
    proj, section = linalg.complement_projection(cols, n)
    assert (proj, section) == reference_complement_projection(cols, n)
    b = linalg.columns_matrix(cols, n)
    r = linalg.rank(b) if cols else 0
    assert len(proj) == n - r
    # proj kills every column and has rank n - r, so its kernel is the span
    if proj and cols:
        assert all(x == 0 for row in linalg.mat_mul(proj, b) for x in row)
    if proj:
        assert linalg.rank(proj) == n - r
        assert linalg.mat_eq(linalg.mat_mul(proj, section), linalg.identity(n - r))


def check_basis(cols, n):
    c, cinv = linalg.extend_to_basis(cols, n)
    assert (c, cinv) == reference_extend_to_basis(cols, n)
    assert linalg.matrix_columns(c)[: len(cols)] == [list(col) for col in cols]
    assert linalg.mat_eq(linalg.mat_mul(c, cinv), linalg.identity(n))
    assert linalg.mat_eq(linalg.mat_mul(cinv, c), linalg.identity(n))


def cols_of(rows):
    return [[Fraction(x) for x in col] for col in rows]


CASES = {
    "no columns": ([], 3),
    "zero columns": (cols_of([[0, 0, 0], [0, 0, 0]]), 3),
    "dependent columns": (cols_of([[1, 2, 0], [2, 4, 0], [0, 1, 1], [1, 3, 1]]), 3),
    "full rank": (cols_of([[0, 1, 0], [1, 1, 0], [3, 0, 2]]), 3),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_complement_projection_cases(name):
    cols, n = CASES[name]
    check_quotient(cols, n)


def test_complement_projection_ends():
    proj, section = linalg.complement_projection([], 3)
    assert proj == section == linalg.identity(3)
    proj, section = linalg.complement_projection(CASES["full rank"][0], 3)
    assert proj == [] and section == [[], [], []]


@pytest.mark.parametrize("name", ["no columns", "full rank"])
def test_extend_to_basis_cases(name):
    cols, n = CASES[name]
    check_basis(cols, n)
    check_basis(cols[:2], n)


@pytest.mark.parametrize("name", ["zero columns", "dependent columns"])
def test_extend_to_basis_rejects_dependent_columns(name):
    cols, n = CASES[name]
    with pytest.raises(ValueError):
        linalg.extend_to_basis(cols, n)


@st.composite
def column_lists(draw):
    n = draw(st.integers(1, 5))
    col = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return cols_of(draw(st.lists(col, max_size=6))), n


@settings(max_examples=200, deadline=None)
@given(column_lists())
def test_quotient_helpers_match_three_eliminations(data):
    cols, n = data
    check_quotient(cols, n)
    if cols:
        independent = linalg.column_space_basis(linalg.columns_matrix(cols, n))
        check_basis([cols[j] for j in independent], n)


@st.composite
def sparse_int_matrices(draw):
    """(rows, cols, grid) of an integer matrix, entries -2..2, with some rows
    and columns zeroed."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    grid = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    grid = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(grid)]
    return rows, cols, grid


@settings(max_examples=300, deadline=None)
@given(sparse_int_matrices())
def test_sparse_rank_matches_dense_rank(data):
    rows, cols, grid = data
    # explicit zero entries in a column are allowed and ignored
    columns = [{i: grid[i][j] for i in range(rows) if grid[i][j] or i % 2} for j in range(cols)]
    dense = [[Fraction(x) for x in row] for row in grid]
    assert linalg.sparse_rank(columns) == linalg.rank(dense)


def test_sparse_rank_needs_a_non_unit_pivot():
    # the second column's lowest entry 3 is not a multiple of the pivot's 2;
    # a pivot column is kept divided by its gcd, (2, 4) as (1, 2), so (3, 6)
    # reduces to zero in one unit step
    assert linalg.sparse_rank([{0: 1, 1: 2}, {0: 1, 1: 3}]) == 2
    assert linalg.sparse_rank([{0: 2, 1: 4}, {0: 3, 1: 6}, {}]) == 1


@st.composite
def fraction_matrices(draw):
    """(rows, cols, grid) of a Fraction matrix with small numerators and
    denominators, some rows and columns zeroed, and sometimes a row that is
    a combination of two others; 0 x n and n x 0 shapes included."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    grid = [[F0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(grid)]
    if rows >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)))
        grid.append([a * x + b * y for x, y in zip(grid[0], grid[1])])
        rows += 1
    return rows, cols, grid


def reference_kernel(grid, cols):
    """The kernel basis read off dense `rref`: one column per free column."""
    red, pivots = linalg.rref(grid)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [F0] * cols
        v[f] = F1
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def reference_solve(a, b, cols):
    """a X = b by dense rref of [a | b], free coordinates 0; None when a
    pivot falls in the b block."""
    red, pivots = linalg.rref([ra + rb for ra, rb in zip(a, b)])
    if any(p >= cols for p in pivots):
        return None
    x = linalg.zeros(cols, len(b[0]) if b else 0)
    for r, p in enumerate(pivots):
        x[p] = red[r][cols:]
    return x


@settings(max_examples=300, deadline=None)
@given(fraction_matrices())
def test_sparse_echelon_matches_dense_rref(data):
    rows, cols, grid = data
    # explicit zero entries in a sparse row are allowed and ignored
    sparse = [{j: x for j, x in enumerate(row) if x or j % 3 == 0} for row in grid]
    red, pivots = linalg.rref(grid)
    order, rows_at = linalg.echelon(sparse)
    assert order == pivots and sorted(rows_at) == pivots
    assert all(isinstance(v, int) for row in rows_at.values() for v in row.values())
    # each integer row over its pivot entry is the dense reduced row
    assert [{c: Fraction(v, rows_at[p][p]) for c, v in rows_at[p].items()} for p in order] == [
        {j: x for j, x in enumerate(row) if x} for row in red[: len(pivots)]
    ]
    kernel = linalg.kernel_basis(sparse, cols)
    assert kernel == reference_kernel(grid, cols)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in grid for v in kernel)
    if rows:
        assert linalg.nullspace(grid) == kernel
        # solve against the first two columns: consistent, a solution with
        # zero free coordinates, the one dense rref of [a | b] gives
        b = [row[:2] for row in grid]
        x = linalg.solve_matrix(grid, b)
        assert x == reference_solve(grid, b, cols)
        if cols:
            assert linalg.mat_eq(linalg.mat_mul(grid, x), b)
        assert linalg.solve_matrix(grid, [[F1] for _ in grid]) == reference_solve(
            grid, [[F1] for _ in grid], cols)
    # past the first two rows, a row is independent of those and of the
    # rows before it when it raises the dense rank
    kept = [sparse[i] for i in range(2, rows)
            if linalg.rank(grid[:i + 1]) > linalg.rank(grid[:i])]
    assert linalg.independent_rows(sparse[:2], sparse[2:]) == kept


def int_where_integral(rows):
    """No float, and each entry an int exactly when it is integral."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for row in rows for x in row)


@settings(max_examples=300, deadline=None)
@given(fraction_matrices())
def test_results_are_ints_exactly_where_integral(data):
    # the input keeps the contract too: ints where integral, else Fractions
    rows, cols, grid = data
    grid = [[x.numerator if x.denominator == 1 else x for x in row] for row in grid]
    assert int_where_integral(grid)
    kernel = linalg.kernel_basis([dict(enumerate(row)) for row in grid], cols)
    assert kernel == reference_kernel(grid, cols)
    assert linalg.intersect_kernels([to_sparse(grid)], cols) == kernel
    results = [kernel, linalg.intersect_kernels([], cols)]
    if rows:
        assert linalg.nullspace(grid) == kernel
        b = [row[:2] + [1] for row in grid]
        x = linalg.solve_matrix(grid, b)
        assert x == reference_solve(grid, b, cols)
        results += [x or []]
    # the columns of grid span a subspace of Q^rows; its pivot columns are
    # independent
    columns = linalg.matrix_columns(grid)
    quotient = linalg.complement_projection(columns, rows)
    assert quotient == reference_complement_projection(columns, rows)
    kept = [columns[p] for p in linalg.column_space_basis(grid)] if columns else []
    basis = linalg.extend_to_basis(kept, rows)
    assert basis == reference_extend_to_basis(kept, rows)
    assert all(int_where_integral(out) for out in [*results, *quotient, *basis])


def test_integer_rows_reduce_as_their_fractions_do():
    # an all-int row only loses its zeros; written as Fractions it scales
    # to the same integer row
    rows = [{0: 2, 1: 0, 2: -4, 3: 6}, {1: 3, 3: 9}, {0: 1, 1: 3, 2: -2, 3: 12, 4: 0}]
    as_fractions = [{c: Fraction(x) for c, x in row.items()} for row in rows]
    assert linalg._integer_row(rows[0]) == {0: 2, 2: -4, 3: 6}
    assert linalg.echelon(rows) == linalg.echelon(as_fractions) == (
        [0, 1], {0: {0: 1, 2: -2, 3: 3}, 1: {1: 1, 3: 3}})
    assert all(type(v) is int for row in linalg.echelon(rows)[1].values() for v in row.values())


def test_sparse_echelon_of_empty_shapes():
    assert linalg.echelon([]) == ([], {})
    assert linalg.echelon([{}, {2: Fraction(-2, 3)}]) == ([2], {2: {2: 1}})
    assert linalg.kernel_basis([], 3) == linalg.identity(3)
    assert linalg.kernel_basis([{}, {}], 0) == []
    assert linalg.nullspace([[], []]) == []
