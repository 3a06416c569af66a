"""Exact linear algebra over Q and Q(t): rank, kernel and image bases.

Vectors are sparse: a dict index -> entry that never stores a zero.  Over Q
an entry is a plain rational, an int when integral and a Fraction otherwise;
over Q(t) it is a Scalar when it depends on t and a plain rational when
not.  All elimination is one forward pass, `_pivot_rows`, which serves both
fields: it tests zero by truthiness and scales each row to the int 1, so its
echelon rows have unit pivots, each at the row's smallest index.  `rank`
counts the pivots of the pass that a matrix keeps.  Only `echelon` reduces
a pass, its own, once, to the reduced row echelon form: zeros on every
other row's pivot.  That form is unique, so kernel and image bases depend
only on the span, not on the order of elimination.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .scalars import ZERO, Scalar, as_scalar, quotient

FIELD_Q = "QQ"
FIELD_QT = "QQ(t)"


class ExactMatrix:
    """The rows x len(columns) matrix stored as the given sparse columns,
    taken as they are and never written: columns[j] is the dict row -> entry
    of column j, a plain rational or, where t appears, a Scalar.  Its field
    is read off the entries; `data` returns Scalars on either field."""

    __slots__ = ("rows", "cols", "columns", "_pass")

    def __init__(self, rows, columns):
        if rows < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = len(columns)
        self.columns = columns
        self._pass = None

    @property
    def pivot_rows(self):
        """`_pivot_rows` of the columns, run on first use and kept in a
        plain slot; nothing writes to the matrix, so a caller that adds
        rows copies it."""
        rows = self._pass
        if rows is None:
            rows = self._pass = _pivot_rows(self.columns)
        return rows

    @property
    def field(self):
        """QQ(t) when some entry is a Scalar, else QQ."""
        if any(isinstance(v, Scalar)
               for col in self.columns for v in col.values()):
            return FIELD_QT
        return FIELD_Q

    @property
    def data(self):
        """Dense rows of Scalars (a fresh copy; the sparse columns are the
        storage)."""
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                out[i][j] = as_scalar(v)
        return out

    def transpose(self):
        columns = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                columns[i][j] = v
        return ExactMatrix(self.cols, columns)

    def product_columns(self, other):
        """The columns of self . other, one fresh sparse dict at a time."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        for col in other.columns:
            acc = {}
            for k, c in col.items():
                _add_multiple(acc, c, self.columns[k])
            yield acc


def _add_multiple(v, f, row):
    """v += f * row in place, dropping entries that cancel."""
    for i, x in row.items():
        y = v.get(i)
        y = f * x if y is None else y + f * x
        if y:
            v[i] = y
        else:
            del v[i]


def accumulate(v, i, c):
    """v[i] += c in place, dropping the entry when it cancels."""
    y = v.get(i)
    y = c if y is None else y + c
    if y:
        v[i] = y
    else:
        v.pop(i, None)


def residue(vector, rows):
    """The vector minus the combination of the echelon rows {pivot: row}
    that clears it on every pivot, every integral rational an int.  That
    result is unique, so the rows may be reduced or not."""
    v = dict(vector)
    todo = [p for p in v if p in rows]
    heapify(todo)
    # subtracting row p adds entries only above p, so clearing the pivots
    # in ascending order never refills one already cleared
    while todo:
        p = heappop(todo)
        f = v.get(p)
        if f is None:  # queued twice, or cancelled by an earlier row
            continue
        row = rows[p]
        for i in row:
            if i not in v and i in rows:  # a pivot this row fills in
                heappush(todo, i)
        _add_multiple(v, -f, row)
    _integral_as_int(v)
    return v


def _pivot_rows(vectors):
    """Echelon rows of the span of sparse vectors, as {pivot: row}: row[pivot]
    is the int 1 and pivot = min(row); rows may have entries on each other's
    pivots.  A vector that touches no pivot is its own residue, so it goes
    to `insert` as it is, which copies it."""
    rows = {}
    for vector in vectors:
        if not vector:
            continue
        v = vector if rows.keys().isdisjoint(vector) else residue(vector, rows)
        if v:
            insert(rows, v)
    return rows


def insert(rows, v):
    """Add a nonzero residue v (zero on every pivot) to the echelon rows
    {pivot: row} in place, as a new row scaled to a unit pivot at min(v);
    v itself is never stored, and the other rows are not reduced against
    it.  When v holds every integral rational as an int, so does the row."""
    p = min(v)
    x = v[p]
    if len(v) == 1:
        row = {p: 1}
    elif type(x) is int and x == 1:
        row = dict(v)
    else:
        row = {i: quotient(y, x) for i, y in v.items()}
        row[p] = 1
    rows[p] = row


def _integral_as_int(v):
    """Store each integral Fraction entry of v as its int, in place; sums
    of Fractions can be integral."""
    for i, y in v.items():
        if type(y) is Fraction and y.denominator == 1:
            v[i] = y.numerator


def echelon(vectors):
    """Reduced row echelon form of the span of sparse vectors, as
    {pivot: row}: row[pivot] is the int 1, pivot = min(row), and no row has
    an entry on another row's pivot."""
    rows = _pivot_rows(vectors)
    # a row's entries lie at or above its pivot, so once every higher row
    # is reduced, subtracting those rows puts nothing on a pivot
    for p in sorted(rows, reverse=True):
        row = rows[p]
        reduce_by = [q for q in row if q != p and q in rows]
        for q in reduce_by:
            _add_multiple(row, -row[q], rows[q])
        if reduce_by:
            _integral_as_int(row)
    return rows


def rank(m):
    return len(m.pivot_rows)


def rank_kernel(m):
    """Rank and the reduced-echelon kernel basis: one vector per free
    column c, with 1 at c and zero on the other free columns."""
    rows = echelon(m.transpose().columns)
    kernel = {c: {c: 1} for c in range(m.cols) if c not in rows}
    for p, row in rows.items():
        for c, x in row.items():
            if c != p:  # rows vanish on other pivots, so c is free
                kernel[c][p] = -x
    return len(rows), list(kernel.values())


def image_basis(m):
    """Reduced echelon basis of the column space (size = rank)."""
    return echelon_span(m.columns)


def echelon_span(vectors):
    """Reduced echelon basis of the span of sparse vectors, by pivot."""
    rows = echelon(vectors)
    return [rows[p] for p in sorted(rows)]
