"""Shared helpers: random grading-compatible structure constants and span
comparisons."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from colorlie import catalog
from colorlie.algebra import ColorLieAlgebra, CommutationMatrix, find_grading
from colorlie.cohomology import cup_product, representatives_from_differential
from colorlie.differential import differential_from_brackets
from colorlie.linalg import FIELD_Q, FIELD_QT, echelon, echelon_span
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
    U(g) relations, d on the generators and on each basis monomial, the
    columns and echelon rows of every matrix through degree nmax (over QQ no
    Scalar, and every pivot the int 1), the representatives and their cup
    products."""
    field = FIELD_QT if g.has_parameter() else FIELD_Q
    assert_exact((c for vec in g.brackets.values() for c in vec), field)
    try:
        rels = uea_relations(g)
    except ValueError:  # a diagonal bracket at s_ii = +1
        rels = []
    for r in rels:
        assert_canonical(r.rhs.values(), field)
    d = differential_from_brackets(g)
    for el in d.on_generators:
        assert_exact(el.coeffs.values(), field)
    classes = []
    for n in range(nmax + 1):
        dm = d.matrix(n)
        assert dm.matrix.field in (FIELD_Q, field)
        assert_field_types(dm.matrix.columns, field)
        assert_field_pivots(echelon(dm.matrix.columns), field)
        assert_field_pivots(echelon(dm.matrix.transpose().columns), field)
        for mono in dm.col_basis:
            assert_exact(d.apply_monomial(mono).coeffs.values(), field)
        classes += representatives_from_differential(d, n)
    for c in classes:
        assert_exact(c.representative.coeffs.values(), field)
        for c2 in classes:
            if c.degree + c2.degree <= nmax:
                product = cup_product(d, c, c2).representative
                assert_exact(product.coeffs.values(), field)
