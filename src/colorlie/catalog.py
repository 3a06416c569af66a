"""Embedded classification data: the 15 non-abelian three-dimensional color
Lie algebras with injective commutation factor, plus the abelian family.

Parameterized entries (1, 6, 10) store the parameter as the symbol t in the
structure constants; load(id, mu) substitutes an engine-side value.  The
classification normal form and the engine use reciprocal parameter
conventions: expected_series takes the classification-side value, and the
engine structure constant matching it is its reciprocal (engine_parameter;
the table report records the direction).

The expected series of entry 9 is kept as classified, although the computed
cohomology of its relations is 1+2z+z^2; the table command surfaces the
mismatch rather than patching either side (see README, known discrepancy).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import ColorLieAlgebra, CommutationMatrix
from .files import GENERIC
from .scalars import T
from .series import RationalSeries

_P = 1
_M = -1

# sign matrices shared by blocks of catalog rows
_SIGNS_A = ((_P, _P, _P), (_P, _P, _M), (_P, _M, _P))          # rows 1, 2
_SIGNS_B = ((_P, _M, _M), (_M, _P, _M), (_M, _M, _P))          # rows 3, 4, 5
_SIGNS_C = ((_P, _P, _P), (_P, _P, _M), (_P, _M, _M))          # rows 6, 7, 8, 9
_SIGNS_D = ((_P, _P, _P), (_P, _M, _P), (_P, _P, _M))          # rows 10, 11, 12
_SIGNS_E = ((_P, _M, _M), (_M, _M, _P), (_M, _P, _M))          # rows 13, 14, 15


def _vec(**kw):
    out = [0, 0, 0]
    for key, val in kw.items():
        out[int(key[1:]) - 1] = val
    return tuple(out)


class CatalogEntry:
    def __init__(self, table1_id, classification_id, signs, brackets,
                 parameterized=False):
        self.table1_id = table1_id
        self.classification_id = classification_id
        self.signs = signs
        self.brackets = brackets
        self.parameterized = parameterized


_ENTRIES = {
    1: CatalogEntry(1, 16, _SIGNS_A, {(0, 1): _vec(e2=T), (0, 2): _vec(e3=1)},
                    parameterized=True),
    2: CatalogEntry(2, 17, _SIGNS_A, {(0, 1): _vec(e2=1)}),
    3: CatalogEntry(3, 1, _SIGNS_B,
                    {(0, 1): _vec(e3=1), (0, 2): _vec(e2=1), (1, 2): _vec(e1=1)}),
    4: CatalogEntry(4, 2, _SIGNS_B, {(0, 1): _vec(e3=1), (0, 2): _vec(e2=1)}),
    5: CatalogEntry(5, 3, _SIGNS_B, {(0, 1): _vec(e3=1)}),
    6: CatalogEntry(6, 19, _SIGNS_C, {(0, 1): _vec(e2=T), (0, 2): _vec(e3=1)},
                    parameterized=True),
    7: CatalogEntry(7, 20, _SIGNS_C, {(2, 2): _vec(e1=1)}),
    8: CatalogEntry(8, 21, _SIGNS_C, {(0, 1): _vec(e2=1)}),
    9: CatalogEntry(9, 22, _SIGNS_C, {(0, 2): _vec(e3=1)}),
    10: CatalogEntry(10, 24, _SIGNS_D, {(0, 1): _vec(e2=T), (0, 2): _vec(e3=1)},
                     parameterized=True),
    11: CatalogEntry(11, 25, _SIGNS_D, {(2, 2): _vec(e1=1)}),
    12: CatalogEntry(12, 26, _SIGNS_D, {(0, 1): _vec(e2=1)}),
    13: CatalogEntry(13, 5, _SIGNS_E, {(0, 1): _vec(e3=1), (0, 2): _vec(e2=1)}),
    14: CatalogEntry(14, 6, _SIGNS_E, {(1, 2): _vec(e1=1)}),
    15: CatalogEntry(15, 7, _SIGNS_E, {(0, 1): _vec(e3=1)}),
}

ALL_IDS = tuple(sorted(_ENTRIES))


def entry(table1_id):
    return _ENTRIES[table1_id]


def load(table1_id, mu=None):
    """The validated algebra; mu is the engine-side structure constant.

    Parameterized entries keep the symbol t when mu is None (generic mode).
    """
    e = _ENTRIES[table1_id]
    if not e.parameterized and mu is not None:
        raise ValueError("entry %d takes no parameter" % table1_id)
    g = ColorLieAlgebra(CommutationMatrix(e.signs), dict(e.brackets))
    if e.parameterized and mu is not None and mu != GENERIC:
        mu = Fraction(mu)
        if mu == 0:
            raise ValueError("parameter of entry %d must be nonzero" % table1_id)
        g = g.substitute(mu)
    report = g.validate()
    if not report.ok:
        raise AssertionError("catalog entry %d failed validation: %s"
                             % (table1_id, report))
    return g


_ABELIAN_PATTERNS = [
    # (diagonal, off-diagonal (s12, s13, s23)) representatives
    ((_P, _P, _P), (_M, _M, _M)),   # q=0, color Heisenberg sign matrix
    ((_P, _P, _M), (_P, _P, _M)),   # q=1, abelianization of rows 6-9
    ((_P, _M, _P), (_P, _P, _M)),
    ((_M, _P, _P), (_M, _P, _P)),
    ((_P, _M, _M), (_P, _P, _P)),   # q=2, abelianization of rows 10-12
    ((_M, _P, _M), (_P, _P, _P)),
    ((_M, _M, _P), (_P, _P, _P)),
    ((_M, _M, _M), (_P, _P, _P)),   # q=3
]


def abelian_family():
    """Abelian algebras covering all 8 diagonal sign patterns, as (g, q)
    with q = number of -1 diagonal entries.  They are not validated: with
    no brackets only the sign matrix could fail, and each is symmetric by
    construction."""
    out = []
    for diag, (s12, s13, s23) in _ABELIAN_PATTERNS:
        signs = (
            (diag[0], s12, s13),
            (s12, diag[1], s23),
            (s13, s23, diag[2]),
        )
        q = sum(1 for d in diag if d == -1)
        out.append((ColorLieAlgebra(CommutationMatrix(signs), {}), q))
    return out


def _series_1pz():
    return RationalSeries([1, 1])


def expected_series(table1_id, mu=None):
    """Classified Poincare series of a row; mu is the classification-side
    parameter (Fraction, or 'generic'/None for parameterized rows)."""
    i = table1_id
    if i in (2, 7):
        return RationalSeries.polynomial([1, 2, 1])
    if i == 3:
        return RationalSeries.polynomial([1, 0, 0, 1])
    if i == 4:
        return RationalSeries.polynomial([1, 1, 1, 1])
    if i in (5, 9):
        return RationalSeries.polynomial([1, 2, 2, 1])
    if i in (8, 11, 12, 14, 15):
        return RationalSeries([1, 1], [1, -1])
    if i == 13:
        return RationalSeries([1], [1, -1])
    if i == 1:
        if _is_value(mu) and Fraction(mu) == -1:
            return RationalSeries.polynomial([1, 1, 1, 1])
        return _series_1pz()
    if i == 6:
        if _is_value(mu):
            mu = Fraction(mu)
            if mu.numerator == -1:
                k = mu.denominator
                coeffs = [0] * (k + 3)
                coeffs[0] = coeffs[1] = coeffs[k + 1] = coeffs[k + 2] = 1
                return RationalSeries.polynomial(coeffs)
        return _series_1pz()
    if i == 10:
        if not _is_value(mu):
            return _series_1pz()
        mu = Fraction(mu)
        p, q = mu.numerator, mu.denominator
        r = abs(p) + q
        if p > 0 and p % 2 == 0:
            return _series_1pz()
        if p < 0 and p % 2 == 0:
            return RationalSeries([1, 1], _one_minus_z_pow(r))
        if p < 0:
            return RationalSeries([1, 1], _one_minus_z_pow(2 * r))
        # p positive odd: 1 + z + z^r (1+z)/(1-z^(2r))
        den = _one_minus_z_pow(2 * r)
        num = [0] * (2 * r + 2)
        for k, c in enumerate(RationalSeries.poly_power([1, 1], 1)):
            num[k] += c
            num[k + r] += c
            num[k + 2 * r] -= c
        return RationalSeries(num, den)
    raise KeyError(table1_id)


def _one_minus_z_pow(r):
    den = [0] * (r + 1)
    den[0] = 1
    den[r] = -1
    return den


def _is_value(mu):
    return mu is not None and mu != GENERIC


def parameter_samples(table1_id):
    """Classification-side parameter samples exercised by the test suite."""
    if table1_id == 1:
        return [Fraction(-1), Fraction(2)]
    if table1_id == 6:
        return [Fraction(-1), Fraction(-1, 2), Fraction(-1, 3), GENERIC]
    if table1_id == 10:
        return [Fraction(2), Fraction(-2), Fraction(3), Fraction(-3),
                Fraction(1, 2), GENERIC]
    return [None]


def engine_parameter(table_mu):
    """Engine-side structure constant matching a classification-side
    parameter: the reciprocal (the one reconciliation direction, applied
    uniformly)."""
    if not _is_value(table_mu):
        return None
    return 1 / Fraction(table_mu)
