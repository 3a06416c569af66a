"""Sign algebras A_{J,Q}, their quadratic duals, monomial bases and Hilbert
series.

A sign algebra has generators f_1..f_n, relations f_i^2 = 0 for i in J,
commuting pairs Q and anticommuting pairs P - Q.  Monomials are exponent
vectors in ascending generator order; sorting signs are a pure function of
the exponent vectors.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf

from .scalars import exact
from .series import abelian_closed_form

# Bits per exponent in a packed monomial key sum(a_i << (KEY_BITS * i)):
# a degree below 1 << KEY_BITS keeps every exponent in its own field.
KEY_BITS = 16

# One degree of a sign algebra: its monomial basis in lexicographic order,
# the parity bitmask sum((a_i & 1) << i) and the packed key of each basis
# monomial a, and the index key -> position in the basis.
DegreeRecord = namedtuple("DegreeRecord", "basis odds keys index")


class SignAlgebra:
    def __init__(self, n, square_zero, commuting):
        self.n = n
        self.square_zero = frozenset(square_zero)
        self.commuting = frozenset(tuple(sorted(p)) for p in commuting)
        for i in self.square_zero:
            if not 0 <= i < n:
                raise ValueError("square_zero index out of range")
        for (i, j) in self.commuting:
            if not (0 <= i < j < n):
                raise ValueError("commuting pair out of range")
        # the largest degree with a monomial: n when every generator is
        # square-zero (an exterior algebra), else unbounded
        self.top_degree = n if len(self.square_zero) == n else inf
        # degree -> DegreeRecord, filled by degree_record
        self._degrees = {}

    def __eq__(self, other):
        return (isinstance(other, SignAlgebra) and self.n == other.n
                and self.square_zero == other.square_zero
                and self.commuting == other.commuting)

    def __hash__(self):
        return hash((self.n, self.square_zero, self.commuting))

    def __repr__(self):
        return "SignAlgebra(n=%d, J=%s, Q=%s)" % (
            self.n, sorted(self.square_zero), sorted(self.commuting))

    def degree_record(self, degree):
        """The DegreeRecord of one degree: built on first use by one
        enumeration and kept, so every caller on this algebra object,
        every differential built on it included, reads the same lists and
        index; read-only.

        The basis lists all exponent vectors of the given degree respecting
        the square caps, in lexicographic order.  It is built one position
        at a time: each level extends every prefix, in order, by each
        exponent that its remaining degree allows, so the levels stay
        lexicographic, and carries the prefix's parity bitmask and packed
        key along.  The last two positions are filled together, the last
        one with whatever degree is left.  Past top_degree the record is
        empty and nothing is enumerated.  ValueError for a degree of
        1 << KEY_BITS or more, whose exponents would overflow their key
        fields, checked first."""
        record = self._degrees.get(degree)
        if record is not None:
            return record
        if degree >= 1 << KEY_BITS:
            raise ValueError("degree %d is past the largest packed degree %d"
                             % (degree, (1 << KEY_BITS) - 1))
        n = self.n
        caps = [1 if i in self.square_zero else degree for i in range(n)]
        if degree > self.top_degree:
            basis, odds, keys = [], [], []
        elif n < 2:
            fits = 0 <= degree <= caps[0] if n else degree == 0
            basis = [(degree,) * n] if fits else []
            odds = [degree & 1] * len(basis)
            keys = [degree] * len(basis)
        else:
            level = [((), degree, 0, 0)]
            for i, cap in enumerate(caps[:-2]):
                at = KEY_BITS * i
                level = [(prefix + (a,), left - a, odd | ((a & 1) << i),
                          key | (a << at))
                         for prefix, left, odd, key in level
                         for a in range(min(cap, left) + 1)]
            cap, last = caps[-2:]
            at = KEY_BITS * (n - 2)
            at_last = at + KEY_BITS
            basis, odds, keys = [], [], []
            for prefix, left, odd, key in level:
                for a in range(max(0, left - last), min(cap, left) + 1):
                    b = left - a
                    basis.append(prefix + (a, b))
                    odds.append(odd | (a & 1) << (n - 2) | (b & 1) << (n - 1))
                    keys.append(key | a << at | b << at_last)
        record = self._degrees[degree] = DegreeRecord(
            basis, odds, keys, {key: i for i, key in enumerate(keys)})
        return record

    def monomial_basis(self, degree):
        """All exponent vectors of the given degree respecting the square
        caps, in lexicographic order: the basis of degree_record(degree),
        shared and read-only."""
        return self.degree_record(degree).basis

    def hilbert_series(self):
        """Closed form (1+z)^|J| / (1-z)^(n-|J|).

        The exponent roles are fixed by the enumeration oracle: capped
        generators contribute (1+z), free ones 1/(1-z); the degree-d
        coefficient equals len(monomial_basis(d)).  This closed form gives
        the Betti numbers of a zero differential (`betti_from_differential`);
        enumerating the bases is the tests' second route to them.
        """
        return abelian_closed_form(self.n, self.n - len(self.square_zero))


def quadratic_dual(a):
    """A_{J,Q}^! = A_{[n]-J, P-Q}; an involution."""
    allpairs = {(i, j) for i in range(a.n) for j in range(i + 1, a.n)}
    return SignAlgebra(a.n, set(range(a.n)) - a.square_zero,
                       allpairs - a.commuting)


def dual_of(g):
    """The quadratic dual of U(g_Ab), read straight off the sign matrix:
    f_k is square-zero unless eps(e_k, e_k) = -1, and f_i, f_j (i < j)
    commute unless eps(e_i, e_j) = +1.  So quadratic_dual(dual_of(g)) is
    U(g_Ab) itself: J = {k : eps(e_k, e_k) = -1}, Q = {(i, j) : eps(e_i,
    e_j) = +1}."""
    n, s = g.n, g.cm.s
    return SignAlgebra(n, [k for k in range(n) if s[k][k] != -1],
                       [(i, j) for i in range(n) for j in range(i + 1, n)
                        if s[i][j] != 1])


class DgaElement:
    """Exact linear combination of monomials of a sign algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = {}
        for mono, c in coeffs.items():
            if c:
                self.coeffs[tuple(mono)] = exact(c)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, DgaElement) and self.algebra == other.algebra
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.coeffs.items()))))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            c = self.coeffs[m]
            name = monomial_str(m)
            if c == 1:
                parts.append(name)
            elif c == -1 and name != "1":
                parts.append("-" + name)
            else:
                cs = str(c)
                if any(op in cs[1:] for op in "+-"):
                    cs = "(%s)" % cs
                parts.append(cs if name == "1" else "%s*%s" % (cs, name))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    __repr__ = __str__


def monomial_str(m):
    if not any(m):
        return "1"
    parts = []
    for i, a in enumerate(m):
        if a == 1:
            parts.append("f%d" % (i + 1))
        elif a > 1:
            parts.append("f%d^%d" % (i + 1, a))
    return "*".join(parts)
