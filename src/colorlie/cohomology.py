"""Cohomology of the Koszul-dual DGA: Betti numbers, representative cocycles
and cup products."""

from __future__ import annotations

from .differential import differential_from_brackets
from .dual import DgaElement, SignAlgebra, multiply
from .linalg import _pivot_rows, insert, rank, rank_kernel, residue
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

    def is_zero(self):
        return self.representative.is_zero()

    def __repr__(self):
        return "CohomologyClass(%d, %s)" % (self.degree, self.representative)


def betti(g, nmax):
    """h_n = nullity(d_n) - rank(d_{n-1}) for n <= nmax, exact integers."""
    return betti_from_differential(differential_from_brackets(g), nmax)


def betti_from_differential(d, nmax):
    """h_n = nullity(d_n) - rank(d_{n-1}) for n <= nmax, from the matrices
    of d.  A zero differential has h_n = the dimension of degree n, which
    the closed-form Hilbert series gives without enumerating a basis; the
    tests count monomial_basis as the second route."""
    if d.is_zero():
        return BettiTable(d.algebra.hilbert_series().expand(nmax))
    h = []
    prev_rank = 0
    for n in range(nmax + 1):
        dn = d.matrix(n)
        rk = rank(dn.matrix) if dn.matrix.cols else 0
        nullity = dn.matrix.cols - rk
        h.append(nullity - prev_rank)
        prev_rank = rk
    return BettiTable(h)


def _element(algebra, vec, basis):
    return DgaElement(algebra, {basis[i]: c for i, c in vec.items()})


def _boundaries(d, n):
    """The degree-n monomial basis and the echelon rows of B^n over it, both
    read off d.matrix(n - 1): its row basis is d.matrix(n)'s column basis,
    the list that kernel vectors index.  The rows are not reduced: `residue`
    does not need them to be."""
    if n == 0:
        return d.matrix(0).col_basis, {}
    dm = d.matrix(n - 1)
    return dm.row_basis, _pivot_rows(dm.matrix.columns)


def representatives(g, n):
    """Deterministic complement basis of B^n inside Z^n: earliest echelon
    complement in the lexicographic monomial order."""
    d = differential_from_brackets(g)
    return representatives_from_differential(d, n)


def representatives_from_differential(d, n):
    # echelon rows of B^n, then of B^n plus each class chosen so far
    basis, rows = _boundaries(d, n)
    if not basis:
        return []
    _, kernel = rank_kernel(d.matrix(n).matrix)
    out = []
    for kv in kernel:
        r = residue(kv, rows)
        if r:
            out.append(CohomologyClass(n, _element(d.algebra, r, basis)))
            insert(rows, r)
    return out


def cup_product(d, c1, c2):
    """Product of representatives reduced modulo coboundaries."""
    prod = multiply(c1.representative, c2.representative)
    n = c1.degree + c2.degree
    if prod.is_zero():
        return CohomologyClass(n, DgaElement(d.algebra))
    basis, rows = _boundaries(d, n)
    index = {m: i for i, m in enumerate(basis)}
    vec = {index[mono]: c for mono, c in prod.coeffs.items()}
    return CohomologyClass(n, _element(d.algebra, residue(vec, rows), basis))
