"""Comodule arrow maps as dense matrices, for the tests that write or read
them that way.

A Comodule keeps each arrow map as sparse rows, one {source column: nonzero
value} per basis vector of the arrow's target.  `to_sparse` turns a dense
matrix (a list of rows) into that form, dropping its zeros, and `to_dense`
turns it back, given the number of columns."""


def to_sparse(mat):
    """The sparse rows of the dense matrix `mat`: each row's nonzeros by column."""
    return [{c: x for c, x in enumerate(row) if x} for row in mat]


def to_dense(rows, ncols):
    """The dense matrix, ncols wide, of the sparse rows `rows`."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def sparse_maps(maps):
    """{arrow: to_sparse(matrix)} of {arrow: dense matrix}."""
    return {arrow: to_sparse(mat) for arrow, mat in maps.items()}
