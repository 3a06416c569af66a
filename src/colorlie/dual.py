"""Sign algebras A_{J,Q}, their quadratic duals, monomial bases and Hilbert
series.

A sign algebra has generators f_1..f_n, relations f_i^2 = 0 for i in J,
commuting pairs Q and anticommuting pairs P - Q.  Monomials are exponent
vectors in ascending generator order; sorting signs are a pure function of
the exponent vectors.
"""

from __future__ import annotations

from .linalg import accumulate
from .scalars import exact
from .series import RationalSeries


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
        # per generator j: the generators i > j that anticommute with it
        self._flips = [tuple(i for i in range(j + 1, n)
                             if (j, i) not in self.commuting)
                       for j in range(n)]

    def __eq__(self, other):
        return (isinstance(other, SignAlgebra) and self.n == other.n
                and self.square_zero == other.square_zero
                and self.commuting == other.commuting)

    def __hash__(self):
        return hash((self.n, self.square_zero, self.commuting))

    def __repr__(self):
        return "SignAlgebra(n=%d, J=%s, Q=%s)" % (
            self.n, sorted(self.square_zero), sorted(self.commuting))

    def anticommute_sign(self, i, j):
        """Sign picked up by one transposition of f_i past f_j (i != j)."""
        return 1 if tuple(sorted((i, j))) in self.commuting else -1

    def monomial_basis(self, degree):
        """All exponent vectors of the given degree respecting the square
        caps, in lexicographic order.

        Built one position at a time: each level extends every prefix, in
        order, by each exponent that its remaining degree allows, so the
        levels stay lexicographic.  The last two positions are filled
        together, the last one with whatever degree is left.  Each call
        enumerates afresh."""
        if not self.n:
            return [()] if degree == 0 else []
        caps = [1 if i in self.square_zero else degree for i in range(self.n)]
        if self.n == 1:
            return [(degree,)] if 0 <= degree <= caps[0] else []
        level = [((), degree)]
        for cap in caps[:-2]:
            level = [(prefix + (a,), left - a) for prefix, left in level
                     for a in range(min(cap, left) + 1)]
        cap, last = caps[-2:]
        return [prefix + (a, left - a) for prefix, left in level
                for a in range(max(0, left - last), min(cap, left) + 1)]

    def multiply_monomials(self, a, b):
        """(sign, exponent vector) of the product, sign 0 when capped."""
        sign = 1
        # each letter f_j of b passes the letters f_i of a with i > j; the
        # sign flips once per anticommuting pair with b[j] and a[i] both odd
        for j, flips in enumerate(self._flips):
            if b[j] % 2:
                for i in flips:
                    if a[i] % 2:
                        sign = -sign
        total = tuple(x + y for x, y in zip(a, b))
        for i in self.square_zero:
            if total[i] > 1:
                return 0, total
        return sign, total

    def hilbert_series(self):
        """Closed form (1+z)^|J| / (1-z)^(n-|J|).

        The exponent roles are fixed by the enumeration oracle: capped
        generators contribute (1+z), free ones 1/(1-z); the degree-d
        coefficient equals len(monomial_basis(d)).  This closed form gives
        the Betti numbers of a zero differential (`betti_from_differential`);
        enumerating the bases is the tests' second route to them.
        """
        j = len(self.square_zero)
        num = RationalSeries.poly_power([1, 1], j)
        den = RationalSeries.poly_power([1, -1], self.n - j)
        return RationalSeries(num, den)


def quadratic_dual(a):
    """A_{J,Q}^! = A_{[n]-J, P-Q}; an involution."""
    allpairs = {(i, j) for i in range(a.n) for j in range(i + 1, a.n)}
    return SignAlgebra(a.n, set(range(a.n)) - a.square_zero,
                       allpairs - a.commuting)


def enveloping_sign_algebra(g):
    """U(g_Ab) as a sign algebra: J = squares, Q = commuting generator pairs."""
    return SignAlgebra(g.n, g.cm.square_zero_set(), g.cm.commuting_pairs())


def dual_of(g):
    """The quadratic dual of U(g_Ab)."""
    return quadratic_dual(enveloping_sign_algebra(g))


class DgaElement:
    """Exact linear combination of monomials of a sign algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs=None):
        self.algebra = algebra
        self.coeffs = {}
        if coeffs:
            for mono, c in coeffs.items():
                if c:
                    self.coeffs[tuple(mono)] = exact(c)

    @classmethod
    def unit(cls, algebra):
        return cls(algebra, {(0,) * algebra.n: 1})

    @classmethod
    def generator(cls, algebra, i):
        mono = tuple(1 if k == i else 0 for k in range(algebra.n))
        return cls(algebra, {mono: 1})

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Homological degree of a homogeneous element (None for 0)."""
        degs = {sum(m) for m in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            accumulate(out, m, c)
        return DgaElement(self.algebra, out)

    def __neg__(self):
        return DgaElement(self.algebra, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return DgaElement(self.algebra)
        return DgaElement(self.algebra, {m: c * x for m, x in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, DgaElement) and self.algebra == other.algebra
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.coeffs.items()))))

    def _check(self, other):
        if self.algebra != other.algebra:
            raise ValueError("elements live in different sign algebras")

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


def multiply(x, y):
    """Product in the sign algebra: concatenate and sort exponent vectors,
    one -1 per transposition of an anticommuting pair; capped squares kill."""
    x._check(y)
    out = DgaElement(x.algebra)
    acc = {}
    for ma, ca in x.coeffs.items():
        for mb, cb in y.coeffs.items():
            sign, total = x.algebra.multiply_monomials(ma, mb)
            if sign == 0:
                continue
            accumulate(acc, total, ca * cb if sign == 1 else -(ca * cb))
    out.coeffs = acc
    return out


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
