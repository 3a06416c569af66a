"""Generalized Jacobi cyclic sums by dense loops over every index, each
bracket read straight from the stored upper triangle: the oracle for the
tests, independent of the engine's bracket table and its walk over nonzero
entries.  Rational coefficients are taken as Fractions; a coefficient that
depends on t stays a Scalar."""

import itertools
from fractions import Fraction

from colorlie.scalars import Scalar


def _value(c):
    return c if isinstance(c, Scalar) else Fraction(c)


def jacobi_oracle(g):
    """Dense cyclic sums, in jacobi_defect's order and shape."""
    n, s = g.n, g.cm.s

    def br(i, j):
        sgn, key = (1, (i, j)) if i <= j else (-s[i][j], (j, i))
        vec = g.brackets.get(key, (0,) * n)
        return [sgn * _value(c) for c in vec]

    out = []
    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        total = [Fraction(0)] * n
        for sgn, a, b, c in ((s[k][i], i, j, k), (s[j][k], k, i, j),
                             (s[i][j], j, k, i)):
            inner = br(b, c)
            for l in range(n):
                outer = br(a, l)
                for m in range(n):
                    total[m] += sgn * inner[l] * outer[m]
        if any(total):
            out.append((i, j, k, tuple(total)))
    return out


def defect_values(g):
    """g.jacobi_defect() with its rational sums as Fractions."""
    return [(i, j, k, tuple(_value(x) for x in total))
            for i, j, k, total in g.jacobi_defect()]
