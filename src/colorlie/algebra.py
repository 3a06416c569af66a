"""Color Lie algebras: commutation factor, brackets, and structural checks.

The commutation factor is carried as a symmetric n x n matrix of signs on the
generators; an explicit Z_2^m grading assignment is optional metadata that is
validated against the sign matrix when present.  Indices are 0-based
throughout the Python API (the file format is 1-based).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .linalg import ExactMatrix, FIELD_Q, FIELD_QT
from .scalars import Scalar, ZERO, scalar_simplify


class CommutationMatrix:
    """Symmetric matrix of signs +-1 encoding the commutation factor."""

    def __init__(self, signs):
        self.n = len(signs)
        self.s = tuple(tuple(int(x) for x in row) for row in signs)
        for row in self.s:
            if len(row) != self.n:
                raise ValueError("sign matrix must be square")

    def sign(self, i, j):
        return self.s[i][j]

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

    def square_zero_set(self):
        return frozenset(i for i in range(self.n) if self.s[i][i] == -1)

    def commuting_pairs(self):
        return frozenset((i, j) for i in range(self.n) for j in range(i + 1, self.n)
                         if self.s[i][j] == 1)

    def __eq__(self, other):
        return isinstance(other, CommutationMatrix) and self.s == other.s

    def __hash__(self):
        return hash(self.s)

    def __repr__(self):
        return "CommutationMatrix(%r)" % (self.s,)


def _solve_gf2(equations, nvars):
    """Solve a linear system over GF(2); equations are (coeff_row, rhs)."""
    rows = [(list(c), r) for c, r in equations]
    pivot_for = {}
    for crow, rhs in rows:
        crow = crow[:]
        for col, prow in pivot_for.items():
            if crow[col]:
                pc, pr = prow
                crow = [(a ^ b) for a, b in zip(crow, pc)]
                rhs ^= pr
        lead = next((k for k, a in enumerate(crow) if a), None)
        if lead is None:
            if rhs:
                return None
            continue
        pivot_for[lead] = (crow, rhs)
    sol = [0] * nvars
    for col in sorted(pivot_for, reverse=True):
        crow, rhs = pivot_for[col]
        acc = rhs
        for k in range(col + 1, nvars):
            if crow[k]:
                acc ^= sol[k]
        sol[col] = acc
    return sol


class GradingAssignment:
    """Z_2^m degrees for the generators, with a certifying bilinear form."""

    def __init__(self, degrees):
        self.degrees = tuple(tuple(int(b) & 1 for b in d) for d in degrees)
        self.m = len(self.degrees[0]) if self.degrees else 0
        for d in self.degrees:
            if len(d) != self.m:
                raise ValueError("grading bit-vectors must share one length")

    def find_form(self, cm):
        """A bilinear form B with s[i][j] = (-1)^(d_i B d_j), or None."""
        m = self.m
        eqs = []
        for i in range(cm.n):
            for j in range(cm.n):
                coeffs = [0] * (m * m)
                di, dj = self.degrees[i], self.degrees[j]
                for p in range(m):
                    if not di[p]:
                        continue
                    for q in range(m):
                        if dj[q]:
                            coeffs[p * m + q] ^= 1
                rhs = 0 if cm.s[i][j] == 1 else 1
                eqs.append((coeffs, rhs))
        sol = _solve_gf2(eqs, m * m)
        if sol is None:
            return None
        return tuple(tuple(sol[p * m + q] for q in range(m)) for p in range(m))

    def is_compatible(self, cm):
        return self.find_form(cm) is not None

    def degree_sum(self, i, j):
        return tuple(a ^ b for a, b in zip(self.degrees[i], self.degrees[j]))


def find_grading(cm, brackets=None):
    """A Z_2^m grading realizing the sign matrix and, when structure
    constants are given, the additivity deg_k = deg_i + deg_j on every
    occupied slot.  Degrees live in F_2^n modulo the additivity relations;
    returns None when no certifying bilinear form exists."""
    n = cm.n
    relations = []
    if brackets:
        for (i, j), vec in brackets.items():
            for k, c in enumerate(vec):
                if c.is_zero():
                    continue
                rel = [0] * n
                rel[i] ^= 1
                rel[j] ^= 1
                rel[k] ^= 1
                relations.append(rel)
    # F_2 row reduction of the relations; pivot generators are expressed
    # through the free ones.
    reduced = []
    pivots = []
    for rel in relations:
        rel = rel[:]
        for row, p in zip(reduced, pivots):
            if rel[p]:
                rel = [a ^ b for a, b in zip(rel, row)]
        lead = next((k for k, a in enumerate(rel) if a), None)
        if lead is not None:
            reduced.append(rel)
            pivots.append(lead)
    for a in range(len(reduced) - 1, -1, -1):
        for b in range(a):
            if reduced[b][pivots[a]]:
                reduced[b] = [x ^ y for x, y in zip(reduced[b], reduced[a])]
    free = [i for i in range(n) if i not in pivots]
    coord = {f: k for k, f in enumerate(free)}
    degrees = []
    for i in range(n):
        d = [0] * len(free)
        if i in coord:
            d[coord[i]] = 1
        else:
            row = reduced[pivots.index(i)]
            for f in free:
                if row[f]:
                    d[coord[f]] ^= 1
        degrees.append(tuple(d))
    ga = GradingAssignment(degrees)
    if ga.find_form(cm) is None:
        return None
    return ga


class ValidationReport:
    def __init__(self):
        self.errors = []

    @property
    def ok(self):
        return not self.errors

    def add(self, msg):
        self.errors.append(msg)

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
            vec = tuple(scalar_simplify(c) for c in coeffs)
            if len(vec) != self.n:
                raise ValueError("bracket coefficient vector must have length n")
            if any(not c.is_zero() for c in vec):
                self.brackets[(i, j)] = vec
        self.grading = grading

    # -- structure queries ----------------------------------------------

    def full_bracket(self, i, j):
        """<e_i, e_j> as a coefficient vector, for any index order."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError("generator index out of range")
        if i <= j:
            return self.brackets.get((i, j), (ZERO,) * self.n)
        stored = self.brackets.get((j, i))
        if stored is None:
            return (ZERO,) * self.n
        sgn = Scalar.from_fraction(-self.cm.s[i][j])
        return tuple(sgn * c for c in stored)

    def bracket_of_vector(self, i, vec):
        """<e_i, v> for a coefficient vector v."""
        out = [ZERO] * self.n
        for m, c in enumerate(vec):
            if c.is_zero():
                continue
            bm = self.full_bracket(i, m)
            for k in range(self.n):
                if not bm[k].is_zero():
                    out[k] = out[k] + c * bm[k]
        return tuple(out)

    def jacobi_defect(self):
        """All basis triples i <= j <= k where the generalized Jacobi cyclic
        sum eps(k,i)<e_i,<e_j,e_k>> + eps(j,k)<e_k,<e_i,e_j>> +
        eps(i,j)<e_j,<e_k,e_i>> is nonzero."""
        s = self.cm.s
        bad = []
        for i, j, k in combinations_with_replacement(range(self.n), 3):
            total = [ZERO] * self.n
            for sgn, a, b, c in (
                (s[k][i], i, j, k),
                (s[j][k], k, i, j),
                (s[i][j], j, k, i),
            ):
                inner = self.full_bracket(b, c)
                outer = self.bracket_of_vector(a, inner)
                for m in range(self.n):
                    if not outer[m].is_zero():
                        total[m] = total[m] + Scalar.from_fraction(sgn) * outer[m]
            if any(not x.is_zero() for x in total):
                bad.append((i, j, k, tuple(total)))
        return bad

    def validate(self):
        report = ValidationReport()
        for (i, j) in self.cm.validate():
            report.add("sign matrix violation at (%d, %d)" % (i, j))
        if not report.ok:
            return report
        s = self.cm.s
        for (i, j), vec in self.brackets.items():
            if i == j and s[i][i] != -1:
                report.add("diagonal bracket (%d, %d) requires s[%d][%d] = -1"
                           % (i, i, i, i))
            for k, c in enumerate(vec):
                if c.is_zero():
                    continue
                for l in range(self.n):
                    if s[k][l] != s[i][l] * s[j][l]:
                        report.add("grading violation: c[%d,%d]^%d with s[%d][%d]"
                                   " != s[%d][%d]*s[%d][%d]"
                                   % (i, j, k, k, l, i, l, j, l))
                        break
        if self.grading is not None:
            if not self.grading.is_compatible(self.cm):
                report.add("grading assignment incompatible with sign matrix")
            for (i, j), vec in self.brackets.items():
                target = self.grading.degree_sum(i, j)
                for k, c in enumerate(vec):
                    if not c.is_zero() and self.grading.degrees[k] != target:
                        report.add("bracket (%d, %d) leaves its degree component"
                                   % (i, j))
                        break
        if report.ok:
            for (i, j, k, _) in self.jacobi_defect():
                report.add("Jacobi defect at (%d, %d, %d)" % (i, j, k))
        return report

    def derived_dimension(self):
        """Dimension and echelon basis of [g, g]."""
        vecs = [self.full_bracket(i, j) for (i, j) in self.brackets]
        if not vecs:
            return 0, []
        field = FIELD_QT if self.has_parameter() else FIELD_Q
        m = ExactMatrix.from_rows(vecs, field=field)
        from .linalg import echelon_span
        basis = echelon_span(m.data, self.n)
        return len(basis), basis

    def associated_abelian(self):
        return ColorLieAlgebra(self.cm, {}, grading=self.grading)

    def is_abelian(self):
        return not self.brackets

    def has_parameter(self):
        return any(c.depends_on_param()
                   for vec in self.brackets.values() for c in vec)

    def substitute(self, value):
        """Specialize the parameter t to a rational value."""
        value = Fraction(value)
        brackets = {
            ij: tuple(c.substitute(value) for c in vec)
            for ij, vec in self.brackets.items()
        }
        return ColorLieAlgebra(self.cm, brackets, grading=self.grading)

    def rescaled(self, factors):
        """Rescale e_i -> lambda_i e_i; Betti numbers are invariant."""
        factors = [scalar_simplify(f) for f in factors]
        brackets = {}
        for (i, j), vec in self.brackets.items():
            brackets[(i, j)] = tuple(factors[i] * factors[j] * c / factors[k]
                                     for k, c in enumerate(vec))
        return ColorLieAlgebra(self.cm, brackets, grading=self.grading)

    def two_component_reduction(self):
        """Classification of algebras with at most two nonzero homogeneous
        components: abelian, an ordinary Lie algebra, or a Lie superalgebra;
        not_applicable with three or more components."""
        if self.grading is None:
            raise ValueError("two_component_reduction requires a grading assignment")
        comps = {}
        for i in range(self.n):
            comps.setdefault(self.grading.degrees[i], []).append(i)
        if len(comps) > 2:
            return "not_applicable"
        if self.is_abelian():
            return "abelian"
        zero = (0,) * self.grading.m
        if zero in comps:
            # 0-component present: eps(0, .) = 1, so the sign of eps(j, j)
            # on the other component decides Lie vs super.
            for d, gens in comps.items():
                if d != zero:
                    if self.cm.s[gens[0]][gens[0]] == -1:
                        return "lie_superalgebra"
            return "lie_algebra"
        # Two nonzero components: <g_i, g_j> lands in components that are
        # zero, so nonzero brackets cannot be grading-compatible; validation
        # rejects them, and a valid algebra here is abelian.
        return "abelian"

    def restricted(self, indices):
        """Subalgebra data on a generator subset (brackets truncated)."""
        indices = list(indices)
        pos = {g: a for a, g in enumerate(indices)}
        cm = CommutationMatrix([[self.cm.s[i][j] for j in indices] for i in indices])
        brackets = {}
        for (i, j), vec in self.brackets.items():
            if i in pos and j in pos:
                newvec = [ZERO] * len(indices)
                keep = True
                for k, c in enumerate(vec):
                    if c.is_zero():
                        continue
                    if k in pos:
                        newvec[pos[k]] = c
                    else:
                        keep = False
                if keep and any(not c.is_zero() for c in newvec):
                    brackets[(pos[i], pos[j])] = tuple(newvec)
        grading = None
        if self.grading is not None:
            grading = GradingAssignment([self.grading.degrees[i] for i in indices])
        return ColorLieAlgebra(cm, brackets, grading=grading)

