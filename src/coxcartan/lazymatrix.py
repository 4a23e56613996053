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
rule cell by cell.  A line may also be read as runs (`row_runs(i)`,
`col_runs(j)`): (start, stop, value) triples, sorted and disjoint, with
value at every integer index start <= k < stop and either end None where
the line is unbounded; a certified line may be a RunLine, a mapping held
as such runs.  A window that is one consecutive run of integers (a
`lo..hi` window) reads a line that has runs as those runs clipped to it,
so its cost is the runs', not the window's.  A window of a matrix that is
not a product is read one row at a time, through its runs or `row_on`,
and so is each row of the right factor of a product window.

A line of a product a.b is the sparse sum of the factors' lines (row i is
the sum over row i of `a` of a[i,k] times row k of `b`), and it is None
when any of those lines is; runs are summed at their end points, so rows
[0, a] and [0, a-1] cancel to one point without writing either out.  A
window of a.b is evaluated row by row: row i of `a`, when certified, is
spread over the rows of `b` on the window's columns, each read once per
window and shared by every output row that meets it; a factor row read as
runs is added, times a[i,k], into a list of changes at its end points,
which one running sum turns into cells, and a dense factor row is added
elementwise in the same pass.  A row of `a` that is not certified is
evaluated entry by entry, lazily, and so is any row whose bulk read
raises, so the first error and the first counterexample are those that the
entry order meets first.

A matrix may also multiply bounded runs at their end points
(`spread_rows(runs)`, `spread_cols(runs)`), which `row_terms` uses for a
RunLine.  A DimensionVector built from a RunLine holds it as its `line`:
its sums, products, zero test and (where integer vertices print in their
own order) printed text read the runs, and its points are written out only
when one of them is read.

A window prints as TSV from a row of "0" cells per row, with str called
only at the row's nonzero positions.

Multiplication in this setting is not associative, so the API is strictly
binary: chain products only with explicit grouping.
"""

from collections.abc import Mapping
from functools import cached_property, partial
from itertools import accumulate, compress, count, repeat
from operator import add, mul, neg

from .errors import UndefinedProduct


class LazyIntMatrix:
    """entry_rule(i, j) -> int plus optional row and column rules, each
    returning a certified sparse line or None, optional window-line reads
    row_on(i, cols) and col_on(j, rows), optional run reads row_runs(i) and
    col_runs(j), each returning runs or None, and optional run products
    spread_rows(runs) and spread_cols(runs), the sums of the rows (columns)
    over bounded runs as a RunLine (see the module docstring)."""

    def __init__(self, entry_rule, row_rule=None, col_rule=None, name="",
                 row_on=None, col_on=None, row_runs=None, col_runs=None,
                 spread_rows=None, spread_cols=None):
        self._entry = entry_rule
        self._row_rule = row_rule
        self._col_rule = col_rule
        self._row_on = row_on
        self._col_on = col_on
        self._row_runs = row_runs
        self._col_runs = col_runs
        self.spread_rows = spread_rows
        self.spread_cols = spread_cols
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

    def row_runs(self, i):
        """Row i as runs, or None when the matrix reads it no such way."""
        return None if self._row_runs is None else self._row_runs(i)

    def col_runs(self, j):
        return None if self._col_runs is None else self._col_runs(j)

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

    def __repr__(self):
        return f"LazyIntMatrix({self.name or 'anon'})"


class RunLine(Mapping):
    """A certified sparse line held as runs (see the module docstring), with
    nonzero values.  As a mapping it is {index: value}, its points written
    out on the first read and kept; `summed` and `row_terms` take the runs
    themselves, and so does its truth value."""

    def __init__(self, runs):
        self.runs = runs

    @cached_property
    def points(self):
        return {k: v for s, e, v in self.runs for k in range(s, e)}

    def __getitem__(self, k):
        return self.points[k]

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __bool__(self):
        return bool(self.runs)

    def __repr__(self):
        return f"RunLine({self.runs!r})"


def spread(coeffs, line):
    """The sum of c * line(k) over the items (k, c) of `coeffs`, a certified
    sparse line, as one (`summed`); None when `coeffs` or any line(k) is
    None."""
    if coeffs is None:
        return None
    return summed((c, line(k)) for k, c in coeffs.items())


def summed(terms):
    """The sum of c * line over the pairs (c, line) of `terms`, certified
    sparse lines, as one with the zero sums dropped; None as soon as a line
    is None.  The runs of RunLines are added at their end points, so when
    there are any the sum is a RunLine whose cost is that of the ends;
    points met beside them are runs of one."""
    acc, ends = {}, {}
    get, end = acc.get, ends.get
    for c, ln in terms:
        if ln is None:
            return None
        if type(ln) is RunLine:     # not isinstance: an ABC's check is slow
            for s, e, v in ln.runs:
                ends[s] = end(s, 0) + c * v
                ends[e] = end(e, 0) - c * v
        else:
            for j, v in ln.items():
                acc[j] = get(j, 0) + c * v
    if not ends:
        return {j: v for j, v in acc.items() if v}
    for j, v in acc.items():
        ends[j] = end(j, 0) + v
        ends[j + 1] = end(j + 1, 0) - v
    runs, total = [], 0
    for k in sorted(k for k, d in ends.items() if d):
        if total:
            runs.append((start, k, total))
        total += ends[k]
        start = k
    return RunLine(runs)


def row_terms(line, m):
    """Pairs (c, line) whose `summed` sum is line.m, for a certified sparse
    line `line`: one, (1, m.spread_rows(runs)), for a RunLine when m has run
    products, so that its cost is that of its runs; otherwise (c, row k of
    m) for each item (k, c) of `line`, read as they are summed."""
    if m.spread_rows is not None and type(line) is RunLine:
        yield 1, m.spread_rows(line.runs)
    else:
        for k, c in line.items():
            yield c, m.row(k)


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
        row_runs=m.col_runs,
        col_runs=m.row_runs,
        spread_rows=m.spread_cols,
        spread_cols=m.spread_rows,
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

    A matrix that is not a product is read through its row's runs clipped
    to cols, when cols are consecutive integers and the row has runs, else
    through `m.row_on`.  For a product a.b (`m.factors`) whose row i of `a`
    is certified, the row is the sum over that row's items (k, a[i,k]) of
    a[i,k] times row k of `b` on cols, read the same way once per call: runs
    are added at their end points, dense rows elementwise.  The row of `a`
    holds nonzero entries only, so the factor rows read up to each row are
    those the entry rule reads.  If reading the row raises, the row is read
    entry by entry instead, so the first error is the one that order meets
    first.
    """
    cols = list(cols)
    n = len(cols)
    a, b = m.factors if m.factors and cols else (None, None)
    lo = cols[0] if cols else None
    if type(lo) is not int or cols != list(range(lo, lo + n)):
        lo = None       # not one run of integers: no line is read as runs
    factor_rows = {}

    def line(mat, k):
        # row k of mat on cols: a tuple of runs of positions, or a list
        runs = None if lo is None else mat.row_runs(k)
        if runs is None:
            return mat.row_on(k, cols)
        clipped = []
        for s, e, v in runs:
            s = 0 if s is None or s < lo else s - lo
            e = n if e is None or e > lo + n else e - lo
            if s < e:
                clipped.append((s, e, v))
        return tuple(clipped)

    def factor_row(k):
        row = factor_rows.get(k)
        if row is None:
            row = factor_rows[k] = line(b, k)
        return row

    def summed(terms):
        # the sum of c times row over the pairs (c, row) of terms
        out, ends = None, None
        for c, row in terms:
            if type(row) is tuple:
                if ends is None:
                    ends = [0] * n
                for s, e, v in row:
                    ends[s] += c * v
                    if e < n:
                        ends[e] -= c * v
                continue
            if c != 1:
                row = map(neg, row) if c == -1 else map(mul, repeat(c), row)
            out = list(row if out is None else map(add, out, row))
        if ends is not None:
            out = list(accumulate(ends) if out is None else map(add, out, accumulate(ends)))
        return [0] * n if out is None else out

    for i in rows:
        ra = None if a is None else a.row(i)
        if a is None or ra is not None:
            try:
                out = summed([(1, line(m, i))] if a is None else
                             ((aik, factor_row(k)) for k, aik in ra.items()))
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
    ValueError rather than being truncated.  A vector built from a RunLine
    is held as its runs: `line` and `is_zero` read them, and its points are
    written out on the first read of one."""

    def __init__(self, entries=None):
        if type(entries) is RunLine:
            self.line = entries
            return
        self.line = self._d = {}
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

    # `line` is the vector as a certified sparse line, shared, so read only:
    # the RunLine it holds, whose points are `_d` once one is read, or `_d`
    @cached_property
    def _d(self):
        return self.line.points

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
        return not self.line

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

    def __eq__(self, other):
        if isinstance(other, DimensionVector):
            return self._d == other._d
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._d.items()))

    def sparse_str(self, pres):
        line = self.line
        if not line:
            return "0"
        if type(line) is RunLine and pres.int_order:
            # run by run, in order, with no point written out but as text
            return ",".join(f"{c}@" + f",{c}@".join(map(str, range(s, e)))
                            for s, e, c in line.runs)
        d, display = self._d, pres.display
        return ",".join(f"{d[v]}@{display(v)}" for v in sorted(d, key=pres.sort_key))

    def __repr__(self):
        return "DimensionVector(%r)" % (self.line,)


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
