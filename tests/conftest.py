"""Shared helpers: random grading-compatible structure constants and span
comparisons."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from colorlie import catalog
from colorlie.algebra import ColorLieAlgebra, CommutationMatrix, find_grading
from colorlie.linalg import echelon_span
from colorlie.scalars import Scalar, ZERO

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
        vec = list(brackets.get((i, j), (ZERO,) * cm.n))
        vec[k] = Scalar.from_fraction(c)
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
