"""Rational generating functions: recognition of Betti sequences and the
abelian closed form.

Canonical form of a series num/den: denominator with constant term 1,
gcd(num, den) = 1.  Recognition runs Berlekamp-Massey over Q and only
accepts a recurrence of order r that held, untouched, on at least 2r+5
trailing terms; otherwise the outcome is None ("inconclusive"), never a
guess.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import F0, F1, pdivmod, pgcd, pmul, pstr, ptrim


class RationalSeries:
    """num(z)/den(z) as a formal power series, den(0) = 1."""

    def __init__(self, num, den=(1,)):
        num = ptrim([Fraction(c) for c in num])
        den = ptrim([Fraction(c) for c in den])
        if not den or den[0] == 0:
            raise ValueError("series denominator must have nonzero constant term")
        g = pgcd(num, den)
        if len(g) > 1:
            num = pdivmod(num, g)[0]
            den = pdivmod(den, g)[0]
        c0 = den[0]
        if c0 != 1:
            num = tuple(x / c0 for x in num)
            den = tuple(x / c0 for x in den)
        self.num = num
        self.den = den

    @staticmethod
    def poly_power(base, e):
        out = (F1,)
        base = ptrim([Fraction(c) for c in base])
        for _ in range(e):
            out = pmul(out, base)
        return out

    @staticmethod
    def polynomial(coeffs):
        return RationalSeries(coeffs, (1,))

    def __eq__(self, other):
        return (isinstance(other, RationalSeries)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def expand(self, nterms):
        """First nterms+1 Taylor coefficients, exact."""
        out = []
        num = list(self.num) + [F0] * (nterms + 1)
        den = self.den
        for k in range(nterms + 1):
            c = num[k]
            out.append(c)
            if c != 0:
                for i in range(1, len(den)):
                    if k + i <= nterms:
                        num[k + i] -= c * den[i]
        return [int(c) if c.denominator == 1 else c for c in out]

    def is_polynomial(self):
        return self.den == (F1,)

    def __str__(self):
        ns = pstr(self.num, var="z")
        if self.is_polynomial():
            return ns
        ds = pstr(self.den, var="z")
        return "(%s)/(%s)" % (ns, ds)

    __repr__ = __str__


def abelian_closed_form(n, q):
    """Poincare series (1+z)^(n-q) / (1-z)^q of an abelian color Lie algebra
    with q square relations among n generators."""
    if not 0 <= q <= n:
        raise ValueError("need 0 <= q <= n")
    return RationalSeries(RationalSeries.poly_power([1, 1], n - q),
                          RationalSeries.poly_power([1, -1], q))


def _berlekamp_massey(seq):
    """Minimal LFSR over Q: returns (connection poly C, C(0)=1, last index
    with a nonzero discrepancy)."""
    c = [F1]
    b = [F1]
    L = 0
    m = 1
    bden = F1
    last_fit = -1
    for n, sn in enumerate(seq):
        delta = Fraction(sn)
        for i in range(1, L + 1):
            if i < len(c):
                delta += c[i] * Fraction(seq[n - i])
        if delta == 0:
            m += 1
            continue
        last_fit = n
        factor = delta / bden
        t = c[:]
        shift = [F0] * m + [x * factor for x in b]
        width = max(len(c), len(shift))
        c = [(c[i] if i < len(c) else F0) - (shift[i] if i < len(shift) else F0)
             for i in range(width)]
        if 2 * L <= n:
            L = n + 1 - L
            b = t
            bden = delta
            m = 1
        else:
            m += 1
    return ptrim(c) or (F1,), L, last_fit


def recognize(seq, validation_margin=5):
    """Minimal rational generating function of an integer sequence, or None.

    Fits a minimal linear recurrence (Berlekamp-Massey) and demands that it
    validated on at least 2r+5 trailing terms beyond the last one used to
    fit, where r is the order of the reduced recurrence.
    """
    if len(seq) < 12:
        raise ValueError("recognition needs at least 12 terms")
    c, L, last_fit = _berlekamp_massey(seq)
    nmax = len(seq) - 1
    # numerator: (C * S) truncated below the LFSR length
    s = ptrim([Fraction(x) for x in seq])
    prod = pmul(c, s)
    # a recurrence of order 0 means the sequence itself is the polynomial
    num = ptrim(prod[:L]) if L else s
    rs = RationalSeries(num, c)
    r = len(rs.den) - 1
    if nmax - last_fit < 2 * r + validation_margin:
        return None
    if [Fraction(a) for a in rs.expand(nmax)] != [Fraction(x) for x in seq]:
        return None
    return rs
