"""Color Lie algebras: commutation factor, brackets, and structural checks.

The commutation factor is carried as a symmetric n x n matrix of signs on the
generators; an explicit Z_2^m grading assignment is optional metadata that is
validated against the sign matrix when present.  Indices are 0-based
throughout the Python API (the file format is 1-based).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .linalg import echelon_span
from .scalars import (Scalar, common_denominator, exact, quotient,
                      times_denominator)


class CommutationMatrix:
    """Symmetric matrix of signs +-1 encoding the commutation factor."""

    def __init__(self, signs):
        self.n = len(signs)
        self.s = tuple(tuple(int(x) for x in row) for row in signs)
        for row in self.s:
            if len(row) != self.n:
                raise ValueError("sign matrix must be square")

    def validate(self):
        """Return a list of violating (i, j) pairs; empty means valid."""
        bad = []
        for i in range(self.n):
            for j in range(self.n):
                if self.s[i][j] not in (1, -1):
                    bad.append((i, j))
                elif j > i and self.s[i][j] * self.s[j][i] != 1:
                    bad.append((i, j))
        return bad

    def is_injective(self):
        """No two equal rows."""
        return len({self.s[i] for i in range(self.n)}) == self.n

    def __eq__(self, other):
        return isinstance(other, CommutationMatrix) and self.s == other.s

    def __hash__(self):
        return hash(self.s)

    def __repr__(self):
        return "CommutationMatrix(%r)" % (self.s,)


def _gf2_echelon(rows):
    """Reduced row echelon form over GF(2) of int bitmask rows, as
    {pivot bit: row}: each pivot is its row's lowest set bit, and no row
    has another row's pivot bit set.  That form is unique, so it depends
    only on the span, not on the order of the rows."""
    echelon = {}
    for v in rows:
        # rows vanish on each other's pivots, so one pass clears them all
        for p, row in echelon.items():
            if v >> p & 1:
                v ^= row
        if not v:
            continue
        p = (v & -v).bit_length() - 1
        # a row with bit p set has its pivot below p, where v is zero
        for q, row in echelon.items():
            if row >> p & 1:
                echelon[q] = row ^ v
        echelon[p] = v
    return echelon


class GradingAssignment:
    """Z_2^m degrees for the generators, with a certifying bilinear form."""

    def __init__(self, degrees):
        self.degrees = tuple(tuple(d) for d in degrees)
        self.m = len(self.degrees[0]) if self.degrees else 0
        for d in self.degrees:
            if len(d) != self.m:
                raise ValueError("grading bit-vectors must share one length")
            if any(b not in (0, 1) for b in d):
                raise ValueError("grading bits must be 0 or 1: %r" % (d,))

    def find_form(self, cm):
        """A bilinear form B with s[i][j] = (-1)^(d_i B d_j), or None.

        The unknown B[p][q] is bit p*m + q and bit m*m holds the right-hand
        side; the system is inconsistent exactly when m*m is a pivot."""
        m = self.m
        rhs = m * m
        masks = [sum(b << q for q, b in enumerate(d)) for d in self.degrees]
        echelon = _gf2_echelon(
            sum(dj << p * m for p in range(m) if di >> p & 1)
            | (cm.s[i][j] == -1) << rhs
            for i, di in enumerate(masks) for j, dj in enumerate(masks))
        if rhs in echelon:
            return None
        # free unknowns are 0, so each pivot unknown is its row's rhs bit
        return tuple(tuple(echelon.get(p * m + q, 0) >> rhs & 1
                           for q in range(m)) for p in range(m))

    def is_compatible(self, cm):
        return self.find_form(cm) is not None

    def degree_sum(self, i, j):
        return tuple(a ^ b for a, b in zip(self.degrees[i], self.degrees[j]))


def find_grading(cm, brackets=None):
    """A Z_2^m grading realizing the sign matrix and, when structure
    constants are given, the additivity deg_k = deg_i + deg_j on every
    occupied slot.  Degrees live in F_2^n modulo the additivity relations:
    each pivot generator is expressed through the free ones.  Returns None
    when no certifying bilinear form exists."""
    echelon = _gf2_echelon(1 << i ^ 1 << j ^ 1 << k
                           for (i, j), vec in (brackets or {}).items()
                           for k, c in enumerate(vec) if c)
    free = [i for i in range(cm.n) if i not in echelon]
    ga = GradingAssignment(
        tuple(echelon[i] >> f & 1 if i in echelon else int(i == f) for f in free)
        for i in range(cm.n))
    if ga.find_form(cm) is None:
        return None
    return ga


class ValidationReport:
    def __init__(self, errors):
        self.errors = errors

    @property
    def ok(self):
        return not self.errors

    def __str__(self):
        return "OK" if self.ok else "; ".join(self.errors)


class ColorLieAlgebra:
    """Structure constants of a color Lie algebra over Q or Q(t).

    brackets maps (i, j) with i <= j to the coefficient vector of <e_i, e_j>.
    """

    def __init__(self, cm, brackets, grading=None):
        self.cm = cm
        self.n = cm.n
        self.brackets = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i <= j < self.n):
                raise IndexError("bracket index out of range: (%d, %d)" % (i, j))
            vec = tuple(map(exact, coeffs))
            if len(vec) != self.n:
                raise ValueError("bracket coefficient vector must have length n")
            if any(vec):
                self.brackets[(i, j)] = vec
        self.grading = grading
        # the defects of the first jacobi_defect walk, kept as a tuple
        self._defects = None
        self._denominator = common_denominator(
            c for vec in self.brackets.values() for c in vec)
        # <e_i, e_j> for every index pair, with <e_j, e_i> = -eps(j, i)
        # <e_i, e_j> filled in below the diagonal
        zero = (0,) * self.n
        self._table = [[zero] * self.n for _ in range(self.n)]
        for (i, j), vec in self.brackets.items():
            self._table[i][j] = vec
            if i < j:
                self._table[j][i] = (vec if cm.s[j][i] == -1
                                     else tuple(-c for c in vec))

    # -- structure queries ----------------------------------------------

    def full_bracket(self, i, j):
        """<e_i, e_j> as a coefficient vector, for any index order: a lookup
        in the table that the constructor builds once."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError("generator index out of range")
        return self._table[i][j]

    def jacobi_defect(self):
        """All basis triples i <= j <= k where the generalized Jacobi cyclic
        sum eps(k,i)<e_i,<e_j,e_k>> + eps(j,k)<e_k,<e_i,e_j>> +
        eps(i,j)<e_j,<e_k,e_i>> is nonzero, as (i, j, k, sum), in
        combinations_with_replacement order, as a fresh list on each call.

        The first call walks every sum and keeps the defects; later calls,
        `validate`'s included, copy the kept ones, since nothing writes to
        a built algebra's brackets.  The walk visits only the nonzero
        entries of the bracket table in ascending index order, so every
        coefficient is accumulated in the same order as a dense walk would.
        It reads D times the table, D the common denominator of the
        brackets: a cyclic sum is quadratic in the brackets, so each sum of
        the rescaled algebra is D^2 times the matching sum, and over Q every
        product and sum is one of ints.  Each nonzero sum is divided by D^2
        back into its canonical value."""
        if self._defects is not None:
            return list(self._defects)
        s = self.cm.s
        den = self._denominator
        nonzero = [[[(l, times_denominator(x, den))
                     for l, x in enumerate(vec) if x] for vec in row]
                   for row in self._table]
        bad = []
        for i, j, k in combinations_with_replacement(range(self.n), 3):
            total = [0] * self.n
            for sgn, a, b, c in (
                (s[k][i], i, j, k),
                (s[j][k], k, i, j),
                (s[i][j], j, k, i),
            ):
                outer = nonzero[a]
                for l, x in nonzero[b][c]:
                    if sgn == -1:
                        x = -x
                    for m, y in outer[l]:
                        total[m] = total[m] + x * y
            if any(total):
                bad.append((i, j, k, tuple(quotient(x, den * den)
                                           for x in total)))
        self._defects = tuple(bad)
        return bad

    def structure_errors(self):
        """Messages for every violation of the sign matrix, of the diagonal
        slots and of the grading; the Jacobi identity is not checked."""
        errors = ["sign matrix violation at (%d, %d)" % (i + 1, j + 1)
                  for (i, j) in self.cm.validate()]
        if errors:
            return errors
        s = self.cm.s
        for (i, j), vec in self.brackets.items():
            if i == j and s[i][i] != -1:
                errors.append("diagonal bracket ({0}, {0}) requires"
                              " s[{0}][{0}] = -1".format(i + 1))
            for k, c in enumerate(vec):
                if not c:
                    continue
                for l in range(self.n):
                    if s[k][l] != s[i][l] * s[j][l]:
                        errors.append(
                            "grading violation: c[{i},{j}]^{k} with s[{k}][{l}]"
                            " != s[{i}][{l}]*s[{j}][{l}]".format(
                                i=i + 1, j=j + 1, k=k + 1, l=l + 1))
                        break
        if self.grading is not None:
            if not self.grading.is_compatible(self.cm):
                errors.append("grading assignment incompatible with sign matrix")
            for (i, j), vec in self.brackets.items():
                target = self.grading.degree_sum(i, j)
                for k, c in enumerate(vec):
                    if c and self.grading.degrees[k] != target:
                        errors.append("bracket (%d, %d) leaves its degree"
                                      " component" % (i + 1, j + 1))
                        break
        return errors

    def validate(self):
        """The structure errors, then (when there are none) one error per
        Jacobi defect, read from the one kept `jacobi_defect` walk."""
        errors = self.structure_errors()
        if not errors:
            errors = ["Jacobi defect at (%d, %d, %d)" % (i + 1, j + 1, k + 1)
                      for (i, j, k, _) in self.jacobi_defect()]
        return ValidationReport(errors)

    def derived_dimension(self):
        """Dimension and echelon basis of [g, g]."""
        basis = echelon_span({k: c for k, c in enumerate(self.full_bracket(i, j))
                              if c} for (i, j) in self.brackets)
        return len(basis), basis

    def has_parameter(self):
        return any(isinstance(c, Scalar)
                   for vec in self.brackets.values() for c in vec)

    def substitute(self, value):
        """Specialize the parameter t to a rational value."""
        value = Fraction(value)
        brackets = {
            ij: tuple(c.substitute(value) if isinstance(c, Scalar) else c
                      for c in vec)
            for ij, vec in self.brackets.items()
        }
        return ColorLieAlgebra(self.cm, brackets, grading=self.grading)
