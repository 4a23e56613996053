"""Lazy integer matrices and vectors over a possibly infinite vertex set.

A LazyIntMatrix is an entry rule plus optional finiteness certificates: a row
(column) support rule returns, for each index, a finite set outside of which
the row (column) vanishes.  A missing rule means "not certified", never
"empty".  Each requested entry of a product must have at least one
certificate making its defining sum finite, otherwise UndefinedProduct is
raised; nothing is ever silently truncated.

A window of a product a.b is evaluated row by row: when row i of `a` is
certified finite, row i of the window is the sum over k in a.row_support(i)
of a[i,k] times row k of `b` on the window's columns, and each such row of
`b` is read once per window and shared by every output row that meets it.
That is the same exact sum, under the same certificate, as the entry rule's
first choice; a row without it is evaluated entry by entry.

Multiplication in this setting is not associative, so the API is strictly
binary: chain products only with explicit grouping.
"""

from functools import partial

from .errors import UndefinedProduct


class LazyIntMatrix:
    """entry_rule(i, j) -> int plus optional support rules.

    A support rule may return None for an individual index (that row/column is
    not certified finite).
    """

    def __init__(
        self,
        entry_rule,
        row_support=None,
        col_support=None,
        name="",
    ):
        self._entry = entry_rule
        self._row_support_rule = row_support
        self._col_support_rule = col_support
        self.name = name
        self.factors = None
        self._memo = {}
        self._supports = {}

    def entry(self, i, j):
        val = self._memo.get((i, j))
        if val is None:
            val = self._memo[i, j] = int(self._entry(i, j))
        return val

    def row_support(self, i):
        return self._certificate(self._row_support_rule, ("row", i))

    def col_support(self, j):
        return self._certificate(self._col_support_rule, ("col", j))

    def _certificate(self, rule, key):
        # an immutable frozenset, computed once per index and shared
        if rule is not None and key not in self._supports:
            s = rule(key[1])
            self._supports[key] = None if s is None else frozenset(s)
        return self._supports.get(key)

    def __repr__(self):
        return f"LazyIntMatrix({self.name or 'anon'})"


def _support_union(indices, support):
    """The union of support(k) over a certified finite set `indices`: None
    (not certified) when `indices` or any support(k) is None, an empty set
    when `indices` is empty."""
    if indices is None:
        return None
    out = set()
    for k in indices:
        s = support(k)
        if s is None:
            return None
        out |= s
    return out


def identity_matrix():
    return LazyIntMatrix(
        lambda i, j: 1 if i == j else 0,
        row_support=lambda i: {i},
        col_support=lambda j: {j},
        name="E",
    )


def transpose(m):
    return LazyIntMatrix(
        lambda i, j: m.entry(j, i),
        row_support=m.col_support,
        col_support=m.row_support,
        name=f"{m.name}^tr" if m.name else "",
    )


def negate(m):
    return LazyIntMatrix(
        lambda i, j: -m.entry(i, j),
        row_support=m.row_support,
        col_support=m.col_support,
        name=f"-{m.name}" if m.name else "",
    )


def multiply(a, b):
    """The product a.b with entries (i,j) -> sum_k a[i,k] b[k,j].

    Each entry needs a finite row of `a` or a finite column of `b`; row i of
    the result is certified when row i of `a` and the rows of `b` it meets
    are, and likewise for columns.  The result keeps (a, b) as `factors`, so
    a window of it is read row by row: sum over k in a.row_support(i) of
    a[i,k] times row k of `b` (see `evaluate_window`).
    """

    def entry(i, j):
        ra = a.row_support(i)
        if ra is not None:
            return sum(a.entry(i, k) * b.entry(k, j) for k in ra)
        cb = b.col_support(j)
        if cb is not None:
            return sum(a.entry(i, k) * b.entry(k, j) for k in cb)
        raise UndefinedProduct(
            f"entry ({i!r},{j!r}) of {a!r}.{b!r}: neither row nor column support is finite"
        )

    prod = LazyIntMatrix(
        entry,
        row_support=lambda i: _support_union(a.row_support(i), b.row_support),
        col_support=lambda j: _support_union(b.col_support(j), a.col_support),
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
        pres = self.rows.presentation
        lines = ["\t" + "\t".join(pres.display(c) for c in self.cols)]
        for v, row in zip(self.rows, self.data):
            lines.append(pres.display(v) + "\t" + "\t".join(map(str, row)))
        return "\n".join(lines) + "\n"


def _window_rows(m, rows, cols):
    """Row i of m on cols for each i of rows in turn: a list, or an iterator
    that reads the row entry by entry.

    For a product a.b (`m.factors`) whose row i of `a` is certified, the row
    is the sum over k in a.row_support(i) of a[i,k] times row k of `b` on
    cols; row k of `b` is read on every column, even where a[i,k] = 0, and
    once per call.  So the factor entries read up to each row are those the
    entry rule reads.  If reading the row raises, the row is read entry by
    entry instead, so the first error is the one that order meets first.
    """
    cols = list(cols)
    a, b = m.factors if m.factors and cols else (None, None)
    factor_rows = {}
    for i in rows:
        ra = None if a is None else a.row_support(i)
        if ra is not None:
            try:
                out = [0] * len(cols)
                for k in ra:
                    aik = a.entry(i, k)
                    row = factor_rows.get(k)
                    if row is None:
                        row = factor_rows[k] = [b.entry(k, j) for j in cols]
                    if aik:
                        out = [x + aik * y for x, y in zip(out, row)]
            except Exception:
                pass    # read entry by entry below: the error that order meets
            else:
                yield out
                continue
        yield map(partial(m.entry, i), cols)


def evaluate_window(m, rows, cols):
    """m on rows x cols.  A product is read row by row when its left factor
    certifies the row (`_window_rows`), otherwise entry by entry through
    m's entry rule, which uses the right factor's column certificate or
    raises UndefinedProduct."""
    return MatrixWindow(rows, cols, [list(row) for row in _window_rows(m, rows, cols)])


def verify_identity_on_window(a, b, win):
    """Check that (a.b) agrees with the identity on win x win.

    Entries of the product are full lazy sums over the whole index set, not
    truncated to the window, so a True answer is exact.  Returns
    (ok, counterexample) where the counterexample is the first (i, j, value)
    in row-major order, or None.
    """
    win = list(win)
    for i, row in zip(win, _window_rows(multiply(a, b), win, win)):
        for j, val in zip(win, row):
            if val != (1 if i == j else 0):
                return False, (i, j, val)
    return True, None


class DimensionVector:
    """Finitely supported integer vector indexed by vertices."""

    def __init__(self, entries=None):
        self._d = {}
        if entries:
            for v, c in dict(entries).items():
                if c != 0:
                    self._d[v] = int(c)

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
        items = sorted(self._d.items(), key=lambda p: pres.sort_key(p[0]))
        return ",".join(f"{c}@{pres.display(v)}" for v, c in items)

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
    """Integer vector given by an entry rule, with an optional finite support."""

    def __init__(self, entry_rule, support=None):
        self._entry = entry_rule
        self.support = frozenset(support) if support is not None else None
        self._memo = {}

    @classmethod
    def from_dimension_vector(cls, x):
        return cls(lambda v: x[v], support=x.support)

    def entry(self, v):
        if v not in self._memo:
            self._memo[v] = int(self._entry(v))
        return self._memo[v]

    def to_dimension_vector(self):
        if self.support is None:
            raise UndefinedProduct("vector support not certified finite")
        return DimensionVector({v: self.entry(v) for v in self.support})


def apply_vector(x, m):
    """Row-vector times matrix: (x.m)_j = sum_i x_i m_ij.

    `x` may be a DimensionVector or a LazyVector with certified support;
    a lazy x without support needs every requested column of m finite.
    """
    if isinstance(x, DimensionVector):
        x = LazyVector.from_dimension_vector(x)

    def entry(j):
        if x.support is not None:
            return sum(x.entry(i) * m.entry(i, j) for i in x.support)
        cs = m.col_support(j)
        if cs is not None:
            return sum(x.entry(i) * m.entry(i, j) for i in cs)
        raise UndefinedProduct(
            f"coordinate {j!r} of vector-matrix product: no finite certificate"
        )

    return LazyVector(entry, support=_support_union(x.support, m.row_support))
