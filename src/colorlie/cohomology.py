"""Cohomology of the Koszul-dual DGA: Betti numbers and representative
cocycles."""

from __future__ import annotations

from .differential import differential_from_brackets
from .dual import DgaElement, SignAlgebra
from .linalg import insert, rank, rank_kernel, residue
# unused here, but perfbench/traced.py wraps these names in this module
from .linalg import echelon_span, image_basis  # noqa: F401
monomial_basis = SignAlgebra.monomial_basis


class BettiTable:
    def __init__(self, h):
        self.h = list(h)

    def __eq__(self, other):
        if isinstance(other, (list, tuple)):
            return self.h == list(other)
        return isinstance(other, BettiTable) and self.h == other.h

    def __repr__(self):
        return "BettiTable(%s)" % self.h


class CohomologyClass:
    def __init__(self, degree, representative):
        self.degree = degree
        self.representative = representative

    def __repr__(self):
        return "CohomologyClass(%d, %s)" % (self.degree, self.representative)


def betti(g, nmax):
    """h_n = nullity(d_n) - rank(d_{n-1}) for n <= nmax, exact integers."""
    return betti_from_differential(differential_from_brackets(g), nmax)


def betti_from_differential(d, nmax):
    """h_n = nullity(d_n) - rank(d_{n-1}) for n <= nmax, from the matrices
    of d through the algebra's top degree; h_n = 0 past it, where every
    space is zero, so no matrix past it is built.  A zero differential has
    h_n = the dimension of degree n, which the closed-form Hilbert series
    gives without enumerating a basis; the tests count monomial_basis as
    the second route."""
    if d.is_zero():
        return BettiTable(d.algebra.hilbert_series().expand(nmax))
    top = min(nmax, d.algebra.top_degree)
    h = []
    prev_rank = 0
    for n in range(top + 1):
        dn = d.matrix(n)
        rk = rank(dn.matrix) if dn.matrix.cols else 0
        nullity = dn.matrix.cols - rk
        h.append(nullity - prev_rank)
        prev_rank = rk
    return BettiTable(h + [0] * (nmax - top))


def _element(algebra, vec, basis):
    """The element with coefficient c on basis[i] for each entry i -> c of
    vec, a residue or kernel vector: its entries are nonzero and canonical,
    so the new dict is handed to the element as it is."""
    return DgaElement(algebra, {basis[i]: c for i, c in vec.items()},
                      _canonical=True)


def _boundaries(d, n):
    """The degree-n monomial basis, the echelon rows of B^n over it and
    d.matrix(n - 1), which both are read off (None at n = 0, where B^0 =
    0): its row basis is d.matrix(n)'s column basis, the list that kernel
    vectors index, and the rows, which callers only read, are its kept
    forward pass, unreduced, as `residue` allows."""
    if n == 0:
        return d.matrix(0).col_basis, {}, None
    dm = d.matrix(n - 1)
    return dm.row_basis, dm.matrix.pivot_rows, dm


def representatives(g, n):
    """Deterministic complement basis of B^n inside Z^n: earliest echelon
    complement in the lexicographic monomial order."""
    d = differential_from_brackets(g)
    return representatives_from_differential(d, n)


def representatives_from_differential(d, n):
    """The classes of degree n: each vector of the reduced-echelon kernel
    basis of d_n = d.matrix(n), in order, reduced by the echelon rows of
    B^n and of the classes before it; a nonzero residue is a class.  Empty
    past the top degree.

    Steps are skipped where their result is known, so the classes are the
    same.  Where d_n has no nonzero column, as d_0 never has, its kernel
    is the whole space, and the reduced-echelon basis of that is the unit
    vectors in column order, which `rank_kernel` would return.  A kernel
    vector that has no entry on a pivot of the rows is its own residue
    (`residue` subtracts no row and copies it), and its entries are
    already canonical, so it is used as it is; `insert` and the class copy
    it.

    Where d_n d_(n-1) = 0, as at n = 0, B^n lies in Z^n: d keeps that
    verdict per degree (`Differential.square_is_zero`), and finds it here
    if no `check_d_squared` has.  There the loop finds exactly h_n = dim
    Z^n - dim B^n classes, cols - rank(d_n) - the number of rows, with
    rank(d_n) read off the forward pass d_n keeps: the rows and the
    classes found span B^n plus the classes, each class adds one
    dimension, and the kernel vectors span Z^n, which contains B^n.  So
    once h_n classes are found every later residue is 0, and the loop
    stops; where h_n = 0 it returns [] before any kernel is formed.  Where
    d^2 != 0 the loop runs to the end, and may find more than h_n."""
    if n > d.algebra.top_degree:
        return []
    basis, rows, below = _boundaries(d, n)
    if not basis:
        return []
    dn = d.matrix(n)
    m = dn.matrix
    # h_n where B^n lies in Z^n, else no cap
    h = None
    if below is None or d.square_is_zero(n - 1, below, dn):
        h = m.cols - len(m.pivot_rows) - len(rows)
        if not h:
            return []
    if any(m.columns):
        kernel = rank_kernel(m)[1]
    else:
        kernel = [{c: 1} for c in range(m.cols)]
    rows = dict(rows)
    out = []
    for kv in kernel:
        r = kv if rows.keys().isdisjoint(kv) else residue(kv, rows)
        if r:
            out.append(CohomologyClass(n, _element(d.algebra, r, basis)))
            if len(out) == h:
                break
            insert(rows, r)
    return out
