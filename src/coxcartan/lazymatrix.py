"""Lazy integer matrices and vectors over a possibly infinite vertex set.

A LazyIntMatrix is an entry rule plus optional line rules and window-line
reads.  A row (column) rule returns a certified sparse line: a dict {index:
value} of the row's nonzero entries, whose keys certify that the row
vanishes everywhere else; None means that line is not certified finite,
never "empty".  Each line is computed once per index and kept; entries are
not kept.  Each requested entry of a product must have at least one
certified line making its defining sum finite, otherwise UndefinedProduct
is raised; nothing is ever silently truncated.

A window-line read `row_on(i, cols)` (`col_on(j, rows)`) returns the
entries of row i (column j) on the given indices as a list, in order, in
one call; it reads no certified line that the entry rule would not read,
so its cost stays bounded by the window.  Without one it reads the entry
rule cell by cell.  A window of a matrix that is not a product is read one
row at a time through `row_on`, and so is each row of the right factor of
a product window.

A line of a product a.b is the sparse sum of the factors' lines (row i is
the sum over row i of `a` of a[i,k] times row k of `b`), and it is None
when any of those lines is.  A window of a.b is evaluated row by row: row i
of `a`, when certified, is spread over the rows of `b` on the window's
columns, each read once per window and shared by every output row that
meets it; the output row starts as its first factor row, times a[i,k], and
each further one is added to it in one elementwise pass.  A row of `a`
that is not certified is evaluated entry by entry, lazily, and so is any
row whose bulk read raises, so the first error and the first
counterexample are those that the entry order meets first.

A window prints as TSV from a row of "0" cells per row, with str called
only at the row's nonzero positions.

Multiplication in this setting is not associative, so the API is strictly
binary: chain products only with explicit grouping.
"""

from functools import cached_property, partial
from itertools import compress, count, repeat
from operator import add, mul, neg

from .errors import UndefinedProduct


class LazyIntMatrix:
    """entry_rule(i, j) -> int plus optional row and column rules, each
    returning a certified sparse line or None, and optional window-line
    reads row_on(i, cols) and col_on(j, rows) (see the module docstring)."""

    def __init__(self, entry_rule, row_rule=None, col_rule=None, name="",
                 row_on=None, col_on=None):
        self._entry = entry_rule
        self._row_rule = row_rule
        self._col_rule = col_rule
        self._row_on = row_on
        self._col_on = col_on
        self.name = name
        self.factors = None
        self._rows = {}
        self._cols = {}

    def entry(self, i, j):
        return self._entry(i, j)

    def row_on(self, i, cols):
        """[entry(i, j) for j in cols] in one read."""
        if self._row_on is not None:
            return self._row_on(i, cols)
        return [self._entry(i, j) for j in cols]

    def col_on(self, j, rows):
        """[entry(i, j) for i in rows] in one read."""
        if self._col_on is not None:
            return self._col_on(j, rows)
        return [self._entry(i, j) for i in rows]

    def row(self, i):
        """Row i as {j: nonzero value}, or None; shared, so read only."""
        try:
            return self._rows[i]
        except KeyError:
            if self._row_rule is None:
                return None
            line = self._rows[i] = self._row_rule(i)
            return line

    def col(self, j):
        try:
            return self._cols[j]
        except KeyError:
            if self._col_rule is None:
                return None
            line = self._cols[j] = self._col_rule(j)
            return line

    def row_support(self, i):
        row = self.row(i)
        return None if row is None else row.keys()

    def col_support(self, j):
        col = self.col(j)
        return None if col is None else col.keys()

    def __repr__(self):
        return f"LazyIntMatrix({self.name or 'anon'})"


def spread(coeffs, line):
    """The sum of c * line(k) over the items (k, c) of `coeffs`, a certified
    sparse line, as one with the zero sums dropped; None when `coeffs` or any
    line(k) is None."""
    if coeffs is None:
        return None
    acc = {}
    get = acc.get
    for k, c in coeffs.items():
        ln = line(k)
        if ln is None:
            return None
        for j, v in ln.items():
            acc[j] = get(j, 0) + c * v
    return {j: v for j, v in acc.items() if v}


def _negated(line):
    return None if line is None else {k: -v for k, v in line.items()}


def _negated_on(read):
    return lambda index, on: [-v for v in read(index, on)]


def transpose(m):
    return LazyIntMatrix(
        lambda i, j: m.entry(j, i),
        row_rule=m.col,
        col_rule=m.row,
        name=f"{m.name}^tr" if m.name else "",
        row_on=m.col_on,
        col_on=m.row_on,
    )


def negate(m):
    return LazyIntMatrix(
        lambda i, j: -m.entry(i, j),
        row_rule=lambda i: _negated(m.row(i)),
        col_rule=lambda j: _negated(m.col(j)),
        name=f"-{m.name}" if m.name else "",
        row_on=_negated_on(m.row_on),
        col_on=_negated_on(m.col_on),
    )


def multiply(a, b):
    """The product a.b with entries (i,j) -> sum_k a[i,k] b[k,j].

    An entry is summed over row i of `a` when that row is certified, else
    over column j of `b`.  Row i of the result is the sparse sum of the rows
    of `b` over row i of `a`, and column j that of the columns of `a` over
    column j of `b`.  The result keeps (a, b) as `factors`, so a window of it
    is read row by row (see `evaluate_window`).
    """

    def entry(i, j):
        ra = a.row(i)
        if ra is not None:
            return sum(v * b.entry(k, j) for k, v in ra.items())
        cb = b.col(j)
        if cb is not None:
            return sum(a.entry(i, k) * v for k, v in cb.items())
        raise UndefinedProduct(
            f"entry ({i!r},{j!r}) of {a!r}.{b!r}: neither row nor column support is finite"
        )

    prod = LazyIntMatrix(
        entry,
        row_rule=lambda i: spread(a.row(i), b.row),
        col_rule=lambda j: spread(b.col(j), a.col),
        name=f"({a.name}.{b.name})" if a.name and b.name else "",
    )
    prod.factors = (a, b)
    return prod


class MatrixWindow:
    """Dense evaluation of a lazy matrix on a rows x cols window."""

    def __init__(self, rows, cols, data):
        self.rows = rows
        self.cols = cols
        self.data = data

    def __getitem__(self, pair):
        i, j = pair
        return self.data[i][j]

    def __eq__(self, other):
        if isinstance(other, MatrixWindow):
            return (
                self.rows.vertices == other.rows.vertices
                and self.cols.vertices == other.cols.vertices
                and self.data == other.data
            )
        return NotImplemented

    def grid(self):
        return [row[:] for row in self.data]

    def to_tsv(self):
        """Tab-separated, with a header row and a label column; each row is
        a copy of a row of "0" cells with str written at its nonzeros only."""
        display = self.rows.presentation.display
        zeros = ["0"] * len(self.cols)
        lines = ["\t" + "\t".join(map(display, self.cols))]
        for v, row in zip(self.rows, self.data):
            cells = zeros[:]
            for n in compress(count(), row):
                cells[n] = str(row[n])
            lines.append(display(v) + "\t" + "\t".join(cells))
        return "\n".join(lines) + "\n"


def _window_rows(m, rows, cols):
    """Row i of m on cols for each i of rows in turn: a list, or an iterator
    that reads the row entry by entry.

    A matrix that is not a product is read through `m.row_on`.  For a
    product a.b (`m.factors`) whose row i of `a` is certified, the row is
    the sum over that row's items (k, a[i,k]) of a[i,k] times row k of `b`
    on cols, read as `b.row_on(k, cols)` once per call.  The row of `a`
    holds nonzero entries only, so the factor rows read up to each row are
    those the entry rule reads.  If reading the row raises, the row is read
    entry by entry instead, so the first error is the one that order meets
    first.
    """
    cols = list(cols)
    a, b = m.factors if m.factors and cols else (None, None)
    factor_rows = {}

    def product_row(ra):
        out = None
        for k, aik in ra.items():
            row = factor_rows.get(k)
            if row is None:
                row = factor_rows[k] = b.row_on(k, cols)
            if aik != 1:
                row = map(neg, row) if aik == -1 else map(mul, repeat(aik), row)
            out = list(row if out is None else map(add, out, row))
        return [0] * len(cols) if out is None else out

    for i in rows:
        ra = None if a is None else a.row(i)
        if a is None or ra is not None:
            try:
                out = m.row_on(i, cols) if a is None else product_row(ra)
            except Exception:
                pass    # read entry by entry below: the error that order meets
            else:
                yield out
                continue
        yield map(partial(m.entry, i), cols)


def evaluate_window(m, rows, cols):
    """m on rows x cols.  A product is read row by row when its left factor
    certifies the row (`_window_rows`), otherwise entry by entry through
    m's entry rule, which reads the right factor's certified column or
    raises UndefinedProduct.  Any other matrix is read one row at a time
    through its window-line read, so the cost is bounded by the window, not
    by the lines it crosses."""
    return MatrixWindow(rows, cols, [list(row) for row in _window_rows(m, rows, cols)])


def verify_identity_on_window(a, b, win, transposed=False):
    """Check that (a.b) agrees with the identity on win x win.

    Entries of the product are full lazy sums over the whole index set, not
    truncated to the window, so a True answer is exact.  `transposed` reads
    a.b as the window of its transpose b^tr.a^tr, whose left factor's rows
    are the columns of b, whole before any cell is compared.  Returns (ok,
    counterexample) where the counterexample is the first (i, j, value) of
    a.b in row-major order, or None.
    """
    win = list(win)
    if transposed:
        rows = zip(*_window_rows(multiply(transpose(b), transpose(a)), win, win))
    else:
        rows = _window_rows(multiply(a, b), win, win)
    for i, row in zip(win, rows):
        for j, val in zip(win, row):
            if val != (1 if i == j else 0):
                return False, (i, j, val)
    return True, None


class DimensionVector:
    """Finitely supported integer vector indexed by vertices.  Integral
    entries of any numeric type are kept as ints; a non-integral one raises
    ValueError rather than being truncated."""

    def __init__(self, entries=None):
        self._d = {}
        if entries:
            for v, c in dict(entries).items():
                if type(c) is int:
                    if c:
                        self._d[v] = c
                elif c != 0:
                    n = int(c)
                    if n != c:
                        raise ValueError(f"non-integral entry {c!r} at {v!r}")
                    self._d[v] = n

    @classmethod
    def unit(cls, v):
        return cls({v: 1})

    def __getitem__(self, v):
        return self._d.get(v, 0)

    @property
    def support(self):
        return frozenset(self._d)

    def items(self):
        return self._d.items()

    def is_zero(self):
        return not self._d

    def total(self):
        return sum(self._d.values())

    def __add__(self, other):
        out = dict(self._d)
        for v, c in other.items():
            out[v] = out.get(v, 0) + c
        return DimensionVector(out)

    def __sub__(self, other):
        out = dict(self._d)
        for v, c in other.items():
            out[v] = out.get(v, 0) - c
        return DimensionVector(out)

    def __neg__(self):
        return DimensionVector({v: -c for v, c in self._d.items()})

    def scale(self, k):
        return DimensionVector({v: k * c for v, c in self._d.items()})

    def __eq__(self, other):
        if isinstance(other, DimensionVector):
            return self._d == other._d
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._d.items()))

    def sparse_str(self, pres):
        if not self._d:
            return "0"
        d, display = self._d, pres.display
        return ",".join(f"{d[v]}@{display(v)}" for v in sorted(d, key=pres.sort_key))

    def __repr__(self):
        return "DimensionVector(%r)" % (self._d,)


def parse_vector_literal(pres, text):
    """Parse the sparse "coeff@vertex,coeff@vertex" form."""
    text = text.strip()
    if not text or text == "0":
        return DimensionVector()
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff, sep, vtok = chunk.partition("@")
        if not sep:
            raise ValueError(f"bad vector component {chunk!r}, expected coeff@vertex")
        v = pres.parse_token(vtok.strip())
        out[v] = out.get(v, 0) + int(coeff.strip())
    return DimensionVector(out)


class LazyVector:
    """Integer vector given by an entry rule, with an optional finite support:
    a set, None (not certified), or a rule returning one of those, called
    on the first read of `support`.  Entries are not kept: each read runs
    the rule."""

    def __init__(self, entry_rule, support=None):
        self._entry = entry_rule
        self._support = support

    @cached_property
    def support(self):
        s = self._support() if callable(self._support) else self._support
        return None if s is None else frozenset(s)

    def entry(self, v):
        return self._entry(v)

    def to_dimension_vector(self):
        if self.support is None:
            raise UndefinedProduct("vector support not certified finite")
        return DimensionVector({v: self.entry(v) for v in self.support})


def apply_vector(x, m):
    """Row-vector times matrix: (x.m)_j = sum_i x_i m_ij.

    `x` is a DimensionVector, or a LazyVector whose certified support makes
    every coordinate a finite sum; it is read once, here, and one without
    that certificate raises UndefinedProduct.  Coordinate j is one
    `m.col_on(j, support)` against x's values; the support of x.m, read
    when first asked for, is the union of the rows of m over x's support
    (None when one of them is not certified).
    """
    if isinstance(x, LazyVector):
        x = x.to_dimension_vector()
    rows = list(x.support)
    values = [x[i] for i in rows]

    def support():
        lines = [m.row(i) for i in rows]
        return None if None in lines else set().union(*lines)

    return LazyVector(lambda j: sum(map(mul, values, m.col_on(j, rows))), support)
