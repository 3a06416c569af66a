"""Cohomology of the Koszul-dual DGA: Betti numbers, representative cocycles
and cup products."""

from __future__ import annotations

from .differential import differential_from_brackets
from .dual import DgaElement, monomial_basis, multiply
from .linalg import echelon, insert, rank, rank_kernel, residue
# unused here, but perfbench/traced.py wraps these names in this module
from .linalg import echelon_span, image_basis  # noqa: F401


class BettiTable:
    def __init__(self, label, parameter, h):
        self.label = label
        self.parameter = parameter
        self.h = list(h)
        self.max_degree = len(self.h) - 1

    def __eq__(self, other):
        if isinstance(other, (list, tuple)):
            return self.h == list(other)
        return isinstance(other, BettiTable) and self.h == other.h

    def __repr__(self):
        return "BettiTable(%r, %s)" % (self.label, self.h)


class CohomologyClass:
    def __init__(self, degree, representative):
        self.degree = degree
        self.representative = representative

    def is_zero(self):
        return self.representative.is_zero()

    def __repr__(self):
        return "CohomologyClass(%d, %s)" % (self.degree, self.representative)


def betti(g, nmax, label=None, parameter=None):
    """h_n = nullity(d_n) - rank(d_{n-1}) for n <= nmax, exact integers."""
    d = differential_from_brackets(g)
    return betti_from_differential(d, nmax, label=label, parameter=parameter)


def betti_from_differential(d, nmax, label=None, parameter=None):
    if all(el.is_zero() for el in d.on_generators):
        # zero differential: h_n is the component dimension
        h = [len(monomial_basis(d.algebra, n)) for n in range(nmax + 1)]
        return BettiTable(label, parameter, h)
    h = []
    prev_rank = 0
    for n in range(nmax + 1):
        dn = d.matrix(n)
        rk = rank(dn.matrix) if dn.matrix.cols else 0
        nullity = dn.matrix.cols - rk
        h.append(nullity - prev_rank)
        prev_rank = rk
    return BettiTable(label, parameter, h)


def h1_dimension_check(g):
    """h_1 = n - dim [g, g]."""
    table = betti(g, 1)
    return table.h[1] == g.n - g.derived_dimension()[0]


def _vector(element, basis_index):
    return {basis_index[mono]: c for mono, c in element.coeffs.items()}


def _element(algebra, vec, basis):
    return DgaElement(algebra, {basis[i]: c for i, c in vec.items()})


def representatives(g, n):
    """Deterministic complement basis of B^n inside Z^n: earliest echelon
    complement in the lexicographic monomial order."""
    d = differential_from_brackets(g)
    return representatives_from_differential(d, n)


def representatives_from_differential(d, n):
    basis = monomial_basis(d.algebra, n)
    if not basis:
        return []
    dn = d.matrix(n)
    _, kernel = rank_kernel(dn.matrix)
    # reduced echelon rows of B^n, then of B^n plus each class chosen so far
    rows = echelon(d.matrix(n - 1).matrix.columns) if n else {}
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
    basis = monomial_basis(d.algebra, n)
    if prod.is_zero() or not basis:
        return CohomologyClass(n, DgaElement(d.algebra))
    index = {m: i for i, m in enumerate(basis)}
    vec = _vector(prod, index)
    rows = echelon(d.matrix(n - 1).matrix.columns) if n else {}
    return CohomologyClass(n, _element(d.algebra, residue(vec, rows), basis))
