"""Exact linear algebra over Q and Q(t): rank, kernel and image bases.

Vectors are sparse: a dict index -> Scalar that never stores a zero.  All
elimination goes through one routine, `echelon`, which returns the reduced
row echelon form of a span: unit pivots, each at its row's smallest index,
and zeros on every other row's pivot.  That form is unique, so kernel and
image bases depend only on the span, not on the order of elimination.
"""

from __future__ import annotations

from .scalars import ONE, Scalar, ZERO

FIELD_Q = "QQ"
FIELD_QT = "QQ(t)"


class MixedScalarKindError(ValueError):
    pass


class ExactMatrix:
    """Matrix of Scalars with a declared scalar field (QQ or QQ(t)), stored
    as sparse columns: columns[j] is the dict row -> entry of column j."""

    def __init__(self, rows, cols, field=FIELD_Q):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self.field = field
        self.columns = [{} for _ in range(cols)]

    def __getitem__(self, ij):
        return self.columns[ij[1]].get(ij[0], ZERO)

    def __setitem__(self, ij, v):
        if not isinstance(v, Scalar):
            v = Scalar.from_fraction(v)
        if self.field == FIELD_Q and v.depends_on_param():
            raise MixedScalarKindError(
                "parameter-dependent entry %s in a rational matrix" % v)
        i, j = ij
        if v.is_zero():
            self.columns[j].pop(i, None)
        else:
            self.columns[j][i] = v

    @property
    def data(self):
        """Dense rows (a fresh copy; the sparse columns are the storage)."""
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                out[i][j] = v
        return out

    def transpose(self):
        m = ExactMatrix(self.cols, self.rows, field=self.field)
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                m.columns[i][j] = v
        return m

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        field = FIELD_QT if FIELD_QT in (self.field, other.field) else FIELD_Q
        out = ExactMatrix(self.rows, other.cols, field=field)
        for col, acc in zip(other.columns, out.columns):
            for k, c in col.items():
                _add_multiple(acc, c, self.columns[k])
        return out

    def is_zero(self):
        return not any(self.columns)


def _add_multiple(v, f, row):
    """v += f * row in place, dropping entries that cancel."""
    for i, x in row.items():
        y = v.get(i)
        y = f * x if y is None else y + f * x
        if y.is_zero():
            del v[i]
        else:
            v[i] = y


def residue(vector, rows):
    """The vector minus its components along the reduced echelon rows
    {pivot: row}; the result is zero on every pivot."""
    v = dict(vector)
    for p in [p for p in v if p in rows]:
        # rows vanish on each other's pivots, so v[p] is still the original
        _add_multiple(v, -v[p], rows[p])
    return v


def echelon(vectors):
    """Reduced row echelon form of the span of sparse vectors, as
    {pivot: row}: row[pivot] = ONE, pivot = min(row), and no row has an
    entry on another row's pivot."""
    rows = {}
    for vector in vectors:
        v = residue(vector, rows)
        if v:
            insert(rows, v)
    return rows


def insert(rows, v):
    """Add a nonzero residue v (zero on every pivot) to the reduced echelon
    rows {pivot: row} in place, keeping them reduced."""
    p = min(v)
    inv = ONE / v[p]
    if inv != ONE:
        v = {i: x * inv for i, x in v.items()}
    # a row with an entry at p has its pivot below p, and every entry of
    # v lies at or above p, so that pivot stays the row's smallest index
    for row in rows.values():
        f = row.get(p)
        if f is not None:
            _add_multiple(row, -f, v)
    rows[p] = v


def rank(m):
    return len(echelon(m.columns))


def rank_kernel(m):
    """Rank and the reduced-echelon kernel basis: one vector per free
    column c, with entry ONE at c and zero on the other free columns."""
    rows = echelon(m.transpose().columns)
    kernel = {c: {c: ONE} for c in range(m.cols) if c not in rows}
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
