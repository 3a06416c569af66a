"""Berlekamp-Massey over Q in Fraction arithmetic (Massey, IEEE Trans. Inf.
Theory 15 (1969) 122-127): the oracle for the tests, independent of the
engine's fraction-free version over Z.

`oracle_recognize` is recognition as the engine states it, on the oracle's
connection polynomial C with C(0) = 1: the numerator is C * S below the
LFSR length, and the fit must have held on 2r+5 trailing terms and
reproduce every term.
"""

from fractions import Fraction

from colorlie.series import RationalSeries


def berlekamp_massey(seq):
    """(C as a list of Fractions with C(0) = 1 and no trailing zero, the
    LFSR length L, the last index with a nonzero discrepancy)."""
    c = [Fraction(1)]
    b = [Fraction(1)]
    L = 0
    m = 1
    bden = Fraction(1)
    last_fit = -1
    for n, sn in enumerate(seq):
        delta = Fraction(sn)
        for i in range(1, min(L, len(c) - 1) + 1):
            delta += c[i] * seq[n - i]
        if delta == 0:
            m += 1
            continue
        last_fit = n
        factor = delta / bden
        old = c[:]
        c = c + [Fraction(0)] * (m + len(b) - len(c))
        for i, x in enumerate(b):
            c[m + i] -= factor * x
        if 2 * L <= n:
            L = n + 1 - L
            b = old
            bden = delta
            m = 1
        else:
            m += 1
    while c[-1] == 0:
        c.pop()
    return c, L, last_fit


def oracle_recognize(seq, validation_margin=5):
    """The series the engine's `recognize` must return for seq, or None."""
    c, L, last_fit = berlekamp_massey(seq)
    nmax = len(seq) - 1
    num = [sum(c[i] * seq[k - i] for i in range(min(k, len(c) - 1) + 1))
           for k in range(L)] if L else list(seq)
    rs = RationalSeries(num, c)
    r = len(rs.den) - 1
    if nmax - last_fit < 2 * r + validation_margin:
        return None
    if rs.expand(nmax) != list(seq):
        return None
    return rs
