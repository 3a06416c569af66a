"""Fraction-free rank (Bareiss, Math. Comp. 22 (1968) 565-578): the rank
oracle for the tests, independent of the engine's sparse elimination.

Each row of Scalars is multiplied by the product of its denominators, so the
entries become polynomials in t with rational coefficients, and every
division the elimination performs is exact.
"""

from colorlie.scalars import PONE, PZERO, pdivmod, pmul, psub


def _clear_row(row):
    """Scale a row of Scalars to polynomial (denominator-free) tuples."""
    den = PONE
    for s in row:
        den = pmul(den, s.den)
    out = []
    for s in row:
        q, r = pdivmod(den, s.den)
        assert not r
        out.append(pmul(s.num, q))
    return out


def bareiss_rank(rows):
    """Rank of a dense matrix given as a list of rows of Scalars."""
    return len(bareiss_pivots(rows))


def bareiss_pivots(rows):
    """The columns that are not in the span of the columns before them, in
    order (the pivot columns of the elimination, which runs column by
    column)."""
    a = [_clear_row(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    prev = PONE
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        piv = a[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                num = psub(pmul(piv, a[i][j]), pmul(a[i][c], a[r][j]))
                if not num:
                    a[i][j] = PZERO
                    continue
                q, rem = pdivmod(num, prev)
                assert not rem, "Bareiss division must be exact"
                a[i][j] = q
            a[i][c] = PZERO
        prev = piv
        pivots.append(c)
    return pivots
