"""Byte-identity of what the library computes on generated algebras.

`tests/test_output_identity.py` pins what the CLI prints on the data files;
this pins the library path that the benchmark's `small` workload drives,
on seeded `conftest.random_compatible_algebra` samples over every one of
the 64 symmetric 3x3 sign matrices: coefficients from its pool of integers
and halves, and on a few samples each coefficient times 1, t or 1 - t, so
that the Q(t) path runs too.  For each sample one text line records the
validate errors, the Jacobi defects, the failing Diamond-Lemma overlaps in
the order `groebner_check` reports them, the d^2 verdict through degree 8,
the Betti numbers through degree 12, the recognized series and the
representatives of degrees 0 to 8, whether or not Jacobi holds.  The test
keeps one SHA-256 of all the lines.

A refactor keeps the digest.  An intended change of a result updates it,
and CHANGES.md says which result moved and why.
"""

import hashlib
import random

from conftest import all_sign_matrices, random_compatible_algebra

from colorlie.algebra import ColorLieAlgebra
from colorlie.cohomology import (betti_from_differential,
                                 representatives_from_differential)
from colorlie.differential import check_d_squared, differential_from_brackets
from colorlie.pbw import groebner_check, uea_relations
from colorlie.scalars import T
from colorlie.series import recognize

SEED = 30
PER_MATRIX = 5
# every QT_EVERY-th sign matrix also gets one sample over Q(t)
QT_EVERY = 4
QT_FACTORS = (1, T, 1 - T)


def samples():
    """The seeded algebras, in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for index, cm in enumerate(all_sign_matrices()):
        out += [random_compatible_algebra(cm, rng) for _ in range(PER_MATRIX)]
        if index % QT_EVERY == 0:
            g = random_compatible_algebra(cm, rng)
            out.append(ColorLieAlgebra(cm, {
                ij: tuple(c * rng.choice(QT_FACTORS) for c in vec)
                for ij, vec in g.brackets.items()}, grading=g.grading))
    return out


def results(g):
    """One line of text with everything the library path computes for g."""
    _, failures = groebner_check(uea_relations(g))
    d = differential_from_brackets(g)
    h = betti_from_differential(d, 12).h
    reps = [[str(c.representative)
             for c in representatives_from_differential(d, n)]
            for n in range(9)]
    return repr((g.validate().errors, g.jacobi_defect(), failures,
                 check_d_squared(d, 8), h, str(recognize(h)), reps))


def digest():
    lines = "\n".join(results(g) for g in samples())
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


DIGEST = "ecac26e06f20222cd4b77f01432caa001be9fa818839095386864d0bf0396a5c"


def test_library_results_are_byte_identical():
    assert digest() == DIGEST
