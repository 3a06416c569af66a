"""Shared helpers: random grading-compatible structure constants, the Z_2^m
grading that a sign matrix and brackets force (the data files' grading
lines), span comparisons, d on elements, cup products and the algebra file
writer."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import inf

import pytest
from letterwise import multiply

from colorlie import catalog
from colorlie.algebra import (ColorLieAlgebra, CommutationMatrix,
                              GradingAssignment, _gf2_echelon)
from colorlie.cohomology import (CohomologyClass, betti_from_differential,
                                 representatives_from_differential)
from colorlie.differential import (Differential, check_d_squared,
                                   differential_from_brackets)
from colorlie.dual import DgaElement, SignAlgebra
from colorlie.linalg import (FIELD_Q, FIELD_QT, accumulate, echelon,
                             echelon_span, residue)
from colorlie.pbw import uea_relations
from colorlie.scalars import Scalar

COEFF_POOL = [Fraction(c) for c in (-2, -1, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(0), Fraction(0)]


def admissible_slots(cm):
    """(i, j, k) triples where a structure constant c_ij^k respects the
    grading: row_k = row_i * row_j, with diagonal slots only at s_ii = -1."""
    rows = cm.s
    slots = []
    for i in range(cm.n):
        for j in range(i, cm.n):
            if i == j and rows[i][i] != -1:
                continue
            prod = tuple(rows[i][l] * rows[j][l] for l in range(cm.n))
            for k in range(cm.n):
                if rows[k] == prod:
                    slots.append((i, j, k))
    return slots


def find_grading(cm, brackets):
    """A Z_2^m grading realizing the sign matrix and the additivity
    deg_k = deg_i + deg_j on every occupied slot of the structure
    constants.  Degrees live in F_2^n modulo the additivity relations:
    each pivot generator is expressed through the free ones.  Returns None
    when no certifying bilinear form exists."""
    echelon = _gf2_echelon(1 << i ^ 1 << j ^ 1 << k
                           for (i, j), vec in brackets.items()
                           for k, c in enumerate(vec) if c)
    free = [i for i in range(cm.n) if i not in echelon]
    ga = GradingAssignment(
        tuple(echelon[i] >> f & 1 if i in echelon else int(i == f) for f in free)
        for i in range(cm.n))
    if ga.find_form(cm) is None:
        return None
    return ga


def random_compatible_algebra(cm, rng):
    """Random sign-compatible structure constants (may violate Jacobi)."""
    brackets = {}
    for (i, j, k) in admissible_slots(cm):
        c = rng.choice(COEFF_POOL)
        if c == 0:
            continue
        vec = list(brackets.get((i, j), (0,) * cm.n))
        vec[k] = c
        brackets[(i, j)] = tuple(vec)
    return ColorLieAlgebra(cm, brackets, grading=find_grading(cm, brackets))


def all_sign_matrices():
    """The 64 symmetric 3x3 sign matrices."""
    out = []
    for diag in itertools.product((1, -1), repeat=3):
        for off in itertools.product((1, -1), repeat=3):
            s12, s13, s23 = off
            out.append(CommutationMatrix((
                (diag[0], s12, s13),
                (s12, diag[1], s23),
                (s13, s23, diag[2]))))
    return out


def abelian_enveloping(cm):
    """U(g_Ab) as a sign algebra, read off the signs: e_k square-zero where
    s_kk = -1, and e_i, e_j commuting where s_ij = +1."""
    n = cm.n
    return SignAlgebra(n, {k for k in range(n) if cm.s[k][k] == -1},
                       {(i, j) for i in range(n) for j in range(i + 1, n)
                        if cm.s[i][j] == 1})


def perturbation_suite(entries, per_matrix, seed=20240817):
    rng = random.Random(seed)
    out = []
    for cm in entries:
        for _ in range(per_matrix):
            out.append(random_compatible_algebra(cm, rng))
    return out


@pytest.fixture(scope="session")
def perturbations():
    """120 random sign-compatible bracket assignments, 8 per catalog sign
    matrix; some satisfy Jacobi, some do not."""
    matrices = [CommutationMatrix(catalog.entry(i).signs)
                for i in catalog.ALL_IDS]
    return perturbation_suite(matrices, per_matrix=8)


def coeff_vectors(classes, basis):
    """Sparse coordinate vectors {basis index: coefficient}."""
    index = {m: i for i, m in enumerate(basis)}
    return [{index[mono]: c for mono, c in el.coeffs.items()} for el in classes]


def spans_equal(vecs_a, vecs_b):
    ea = echelon_span(vecs_a)
    eb = echelon_span(vecs_b)
    if len(ea) != len(eb):
        return False
    both = echelon_span(list(vecs_a) + list(vecs_b))
    return len(both) == len(ea)


def serialize_algebra(g, param=None):
    """The algebra file of g, the inverse of `files.parse_algebra_text`."""
    out = ["dim %d" % g.n, "signs"]
    for row in g.cm.s:
        out.append(" ".join("%+d" % x for x in row))
    for (i, j) in sorted(g.brackets):
        vec = g.brackets[(i, j)]
        out.append("bracket %d %d : %s" % (i + 1, j + 1,
                                           " ".join(str(c) for c in vec)))
    if param is not None:
        out.append("param %s" % param)
    if g.grading is not None:
        for i, d in enumerate(g.grading.degrees):
            out.append("grading %d : %s" % (i + 1, " ".join(str(b) for b in d)))
    return "\n".join(out) + "\n"


def apply(d, x):
    """d of an element: the sum of c d(m) over its terms c m."""
    acc = {}
    for mono, c in x.coeffs.items():
        for m, e in d.apply_monomial(mono).coeffs.items():
            accumulate(acc, m, c * e)
    return DgaElement(d.algebra, acc)


def on_generators(d):
    """[d f_1, ..., d f_n], each read off a column of d.matrix(1)."""
    n = d.algebra.n
    return [d.apply_monomial(tuple(int(l == k) for l in range(n)))
            for k in range(n)]


def cup_product(d, c1, c2):
    """The class of c1 c2: the product of the representatives, reduced by
    the echelon rows of B^n that d.matrix(n - 1) keeps, over its row
    basis."""
    n = c1.degree + c2.degree
    if n:
        dm = d.matrix(n - 1)
        basis, rows = dm.row_basis, dm.matrix.pivot_rows
    else:
        basis, rows = d.matrix(0).col_basis, {}
    index = {m: i for i, m in enumerate(basis)}
    prod = multiply(c1.representative, c2.representative)
    r = residue({index[m]: c for m, c in prod.coeffs.items()}, rows)
    return CohomologyClass(n, DgaElement(d.algebra,
                                         {basis[i]: c for i, c in r.items()}))


def assert_exact(values, field=FIELD_QT):
    """Each value has its one representation: an int or a Fraction when it
    is rational, a Scalar only when it depends on t (so never a float, and
    never a constant Scalar), and over QQ never a Scalar at all."""
    for x in values:
        if type(x) is Scalar:
            assert field == FIELD_QT and x.depends_on_param(), (field, x)
        else:
            assert type(x) in (int, Fraction), (field, x)


def assert_canonical(values, field=FIELD_QT):
    """assert_exact, and every integral rational an int: never a Fraction
    with denominator 1."""
    values = list(values)
    assert_exact(values, field)
    for x in values:
        assert not (type(x) is Fraction and x.denominator == 1), (field, x)


def assert_field_types(vectors, field):
    """Every entry of the sparse vectors has the type the engine computes
    with on the field (see assert_exact)."""
    for v in vectors:
        assert_exact(v.values(), field)


def assert_field_pivots(rows, field):
    """Echelon rows {pivot: row} over the field: every entry of the field's
    type, and every pivot the int 1."""
    assert_field_types(rows.values(), field)
    for p, row in rows.items():
        assert type(row[p]) is int and row[p] == 1, (field, row)


def assert_engine_values_exact(g, nmax):
    """Every value the engine makes from g has its one representation
    (assert_exact): the bracket coefficients, the rewriting rules of the
    U(g) relations, d on each basis monomial (the generators among them),
    the columns and echelon rows of every matrix through degree nmax (over
    QQ no Scalar, and every pivot the int 1), the representatives and their
    cup products.  The rules, the matrix columns and d on each basis monomial
    hold every integral rational as an int (assert_canonical)."""
    field = FIELD_QT if g.has_parameter() else FIELD_Q
    assert_exact((c for vec in g.brackets.values() for c in vec), field)
    try:
        rels = uea_relations(g)
    except ValueError:  # a diagonal bracket at s_ii = +1
        rels = []
    for r in rels:
        assert_canonical(r.rhs.values(), field)
    d = differential_from_brackets(g)
    classes = []
    for n in range(nmax + 1):
        dm = d.matrix(n)
        assert dm.matrix.field in (FIELD_Q, field)
        for col in dm.matrix.columns:
            assert_canonical(col.values(), field)
        assert_field_pivots(echelon(dm.matrix.columns), field)
        assert_field_pivots(echelon(dm.matrix.transpose().columns), field)
        for mono in dm.col_basis:
            assert_canonical(d.apply_monomial(mono).coeffs.values(), field)
        classes += representatives_from_differential(d, n)
    for c in classes:
        assert_exact(c.representative.coeffs.values(), field)
        for c2 in classes:
            if c.degree + c2.degree <= nmax:
                product = cup_product(d, c, c2).representative
                assert_exact(product.coeffs.values(), field)


def exterior_results(g):
    """(d^2 = 0 through degree 12, h_0..h_40, the representatives of
    degrees 0..12 as text) for an algebra whose generators are all even,
    so that its dual is exterior with top degree n.

    Asserts, with SignAlgebra.degree_record and Differential.matrix
    patched to record their degrees, that no matrix past degree n is built
    and that every degree record read past it is empty, and that a walk of
    every degree, on a second dual algebra whose top degree is lifted,
    gives the same results: a private UnboundedSignAlgebra, since the
    dual that dual_of returns is shared by every later caller."""
    def results(d):
        return (check_d_squared(d, 12), betti_from_differential(d, 40).h,
                [[str(c.representative) for c in
                  representatives_from_differential(d, k)]
                 for k in range(13)])

    n = g.n
    d = differential_from_brackets(g)
    assert d.algebra.top_degree == n
    records, built = [], []
    degree_record, matrix = SignAlgebra.degree_record, Differential.matrix

    def recorded_degree_record(algebra, degree):
        record = degree_record(algebra, degree)
        records.append((degree, len(record.basis)))
        return record

    def recorded_matrix(d, degree):
        built.append(degree)
        return matrix(d, degree)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SignAlgebra, "degree_record", recorded_degree_record)
        mp.setattr(Differential, "matrix", recorded_matrix)
        out = results(d)
    assert all(k <= n for k in built), built
    assert all(size == 0 for k, size in records if k > n), records
    alg = d.algebra
    walk = Differential(UnboundedSignAlgebra(n, alg.square_zero,
                                             alg.commuting), g.brackets)
    assert results(walk) == out
    return out


class UnboundedSignAlgebra(SignAlgebra):
    """A private sign algebra whose top degree is lifted, so that every
    degree loop runs to its end: the shared duals of dual_of stay as they
    are."""

    top_degree = inf
