"""Rational generating functions: recognition of Betti sequences and the
abelian closed form.

Canonical form of a series num/den: denominator with constant term 1,
gcd(num, den) = 1, every coefficient a plain rational (an int when it is
integral, else a Fraction).  Recognition runs a fraction-free
Berlekamp-Massey over Z and only accepts a recurrence of order r that held,
untouched, on at least 2r+5 trailing terms; otherwise the outcome is None
("inconclusive"), never a guess.
"""

from __future__ import annotations

from math import gcd

from .scalars import (exact, inverse, pdivmod, pgcd, plain_rational, pmul,
                      pstr, ptrim)


class RationalSeries:
    """num(z)/den(z) as a formal power series, den(0) = 1."""

    def __init__(self, num, den=(1,), _coprime=False):
        """_coprime=True promises gcd(num, den) = 1 and skips the gcd."""
        num = ptrim([exact(c) for c in num])
        den = ptrim([exact(c) for c in den])
        if not den or den[0] == 0:
            raise ValueError("series denominator must have nonzero constant term")
        if not _coprime:
            g = pgcd(num, den)
            if len(g) > 1:
                num = pdivmod(num, g)[0]
                den = pdivmod(den, g)[0]
        c0 = den[0]
        if c0 != 1:
            inv = (inverse(c0),)
            num = pmul(num, inv)
            den = pmul(den, inv)
        self.num = num
        self.den = den

    @staticmethod
    def poly_power(base, e):
        out = (1,)
        base = ptrim([exact(c) for c in base])
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
        num = list(self.num) + [0] * (nterms + 1)
        den = self.den
        for k in range(nterms + 1):
            c = num[k]
            out.append(c)
            if c != 0:
                for i in range(1, len(den)):
                    if k + i <= nterms:
                        num[k + i] -= c * den[i]
        return [plain_rational(c) for c in out]

    def is_polynomial(self):
        return self.den == (1,)

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
    """Minimal LFSR of an integer sequence, fraction-free (Massey, IEEE
    Trans. Inf. Theory 15 (1969)): returns (connection polynomial C with
    integer coefficients and C(0) != 0, its length L, the last index with a
    nonzero discrepancy).

    One loop on ints.  The discrepancy at n is c[0] s_n plus the sum of
    c[i] s_(n-i) over i = 1..L; C always has at least L + 1 coefficients,
    since an update to length L' = n + 1 - L extends it to m + len(B) =
    L' + 1.  Each update C <- b C - delta x^m B, made in place, keeps C
    integral, where b is the discrepancy B had when it was C; C is then
    divided by the gcd of its coefficients.  Every C is a nonzero multiple
    of the one over Q with C(0) = 1, so L and the discrepancies' zeros are
    the same."""
    c = [1]
    b = [1]
    L = 0
    m = 1
    bden = 1
    last_fit = -1
    for n, sn in enumerate(seq):
        delta = c[0] * sn
        for i in range(1, L + 1):
            delta += c[i] * seq[n - i]
        if delta == 0:
            m += 1
            continue
        last_fit = n
        old = c[:] if 2 * L <= n else None
        if bden != 1:
            for i in range(len(c)):
                c[i] *= bden
        grow = m + len(b) - len(c)
        if grow > 0:
            c += [0] * grow
        for i, x in enumerate(b, m):
            c[i] -= delta * x
        g = gcd(*c)
        if g != 1:
            for i in range(len(c)):
                c[i] //= g
        if old is not None:
            L = n + 1 - L
            b = old
            bden = delta
            m = 1
        else:
            m += 1
    return ptrim(c), L, last_fit


# trailing terms beyond 2r that a recurrence of order r must hold on
VALIDATION_MARGIN = 5


def recognize(seq):
    """Minimal rational generating function of an integer sequence, or None.

    Fits a minimal linear recurrence (Berlekamp-Massey) and demands that it
    validated on at least 2r+VALIDATION_MARGIN trailing terms beyond the
    last one used to fit, where r is the order of the reduced recurrence.

    A sequence whose last nonzero term s_m is followed by zeros through
    s_N, N + 1 >= 2m + 2 + VALIDATION_MARGIN terms in all (m = -1 when
    every term is 0), returns the polynomial s_0 + ... + s_m z^m without
    Berlekamp-Massey, which would give the same series.  C = 1 is an LFSR
    of length m + 1, and none is shorter: if C(0) = 1 and C S = P mod
    z^(N+1) with deg P < L, then either deg C + m <= N, so C S = P and
    L > deg(C S) >= m, or L >= deg C > N - m >= m + 1.  Two LFSRs of
    length L that generate N + 1 >= 2L terms are equal (Massey 1969), so
    C = 1 is the minimal one, and the fit has length m + 1 and order 0.  A
    nonzero discrepancy at n >= 2m + 2 would lengthen the LFSR to at least
    n + 1 - (m + 1) > m + 1, so the last one is at most 2m + 1, and the
    fit held on N - 2m - 1 >= VALIDATION_MARGIN trailing terms, all that
    order r = 0 asks.
    """
    if len(seq) < 12:
        raise ValueError("recognition needs at least 12 terms")
    m = len(seq) - 1
    while m >= 0 and not seq[m]:
        m -= 1
    if len(seq) >= 2 * m + 2 + VALIDATION_MARGIN:
        return RationalSeries(seq[:m + 1], _coprime=True)
    c, L, last_fit = _berlekamp_massey(seq)
    nmax = len(seq) - 1
    # r >= 0, so a fit this late cannot validate at any order
    if nmax - last_fit < VALIDATION_MARGIN:
        return None
    # numerator: (C * S) truncated below the LFSR length, whose coefficient
    # k < L reads only s_0..s_k, so S is cut to L terms first
    s = ptrim(seq)
    # a recurrence of order 0 means the sequence itself is the polynomial
    num = ptrim(pmul(c, s[:L])[:L]) if L else s
    # C S = num mod z^(N+1), so num and C are coprime: dividing both by a
    # common factor g (g(0) != 0, as C(0) != 0) would give a shorter LFSR
    rs = RationalSeries(num, c, _coprime=True)
    r = len(rs.den) - 1
    if nmax - last_fit < 2 * r + VALIDATION_MARGIN:
        return None
    if rs.expand(nmax) != list(seq):
        return None
    return rs
