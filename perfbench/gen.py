"""Seeded generator of random grading-compatible algebra documents.

Each document is a three-dimensional color Lie algebra over Q in the
`colorlie` file format.  Its sign matrix is one of the 15 catalog rows' sign
matrices; its structure constants sit only on slots (i, j, k) that respect
the grading (row k of the sign matrix is the product of rows i and j, and a
diagonal slot needs s_ii = -1).

The mix is stratified so that every seed gives a workload of the same shape:
document a takes sign matrix a mod 15 and a slot density from a fixed cycle,
and half of the documents of each sign matrix satisfy the generalized Jacobi
identity (all of them where the sign matrix admits no violation).  Only the
coefficients are random.  The Jacobi label is computed here, independently
of the engine, and returned with each document so that the benchmark can
check the engine's answer against it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

# Coefficients in units of 1/2, so the Jacobi check runs on integers: the
# cyclic sum is homogeneous quadratic, so scaling does not change its zeros.
HALVES = (-4, -2, 2, 4, 6, 1, -1)
DENSITIES = (0.2, 0.4, 0.6, 0.8)
MAX_DRAWS = 1000


def admissible_slots(signs):
    n = len(signs)
    slots = []
    for i in range(n):
        for j in range(i, n):
            if i == j and signs[i][i] != -1:
                continue
            prod = tuple(signs[i][l] * signs[j][l] for l in range(n))
            for k in range(n):
                if tuple(signs[k]) == prod:
                    slots.append((i, j, k))
    return slots


def satisfies_jacobi(signs, brackets):
    """Generalized Jacobi identity: for all i <= j <= k,
    s_ki <e_i,<e_j,e_k>> + s_jk <e_k,<e_i,e_j>> + s_ij <e_j,<e_k,e_i>> = 0."""
    n = len(signs)
    zero = [0] * n

    def br(i, j):
        if i <= j:
            return brackets.get((i, j), zero)
        return [-signs[i][j] * c for c in brackets.get((j, i), zero)]

    def br_vec(i, vec):
        out = [0] * n
        for m, c in enumerate(vec):
            if c:
                for k, b in enumerate(br(i, m)):
                    out[k] += c * b
        return out

    for i, j, k in combinations_with_replacement(range(n), 3):
        total = [0] * n
        for sgn, a, b, c in ((signs[k][i], i, j, k), (signs[j][k], k, i, j),
                             (signs[i][j], j, k, i)):
            for m, x in enumerate(br_vec(a, br(b, c))):
                total[m] += sgn * x
        if any(total):
            return False
    return True


def document(signs, brackets):
    """Algebra text for a sign matrix and {(i, j): [c_k in halves]}."""
    lines = ["dim %d" % len(signs), "signs"]
    lines += [" ".join("%+d" % s for s in row) for row in signs]
    for (i, j) in sorted(brackets):
        lines.append("bracket %d %d : %s" % (
            i + 1, j + 1, " ".join(str(Fraction(c, 2)) for c in brackets[(i, j)])))
    return "\n".join(lines) + "\n"


def _draw(rng, n, slots, density):
    brackets = {}
    for (i, j, k) in slots:
        if rng.random() < density:
            brackets.setdefault((i, j), [0] * n)[k] = rng.choice(HALVES)
    return brackets


def _admits_violation(signs, slots):
    """Whether fully occupied random brackets ever break Jacobi (fixed
    probe, independent of the workload seed)."""
    rng = random.Random(0)
    return any(not satisfies_jacobi(signs, _draw(rng, len(signs), slots, 1.0))
               for _ in range(64))


def generate(sign_matrices, count, seed):
    """`count` pairs (document text, satisfies Jacobi), cycling through
    `sign_matrices`."""
    rng = random.Random(seed)
    slots = [admissible_slots(s) for s in sign_matrices]
    breakable = [_admits_violation(s, sl) for s, sl in zip(sign_matrices, slots)]
    out = []
    for a in range(count):
        m, rnd = a % len(sign_matrices), a // len(sign_matrices)
        signs = sign_matrices[m]
        density = DENSITIES[rnd % len(DENSITIES)]
        want = not breakable[m] or (rnd // len(DENSITIES)) % 2 == 0
        for _ in range(MAX_DRAWS):
            brackets = _draw(rng, len(signs), slots[m], density)
            valid = satisfies_jacobi(signs, brackets)
            if valid == want:
                break
        out.append((document(signs, brackets), valid))
    return out
