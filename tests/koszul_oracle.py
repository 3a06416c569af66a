"""The Koszul pairing: the dual sign algebra A^! and d on its generators,
read off the rewriting rules of U(g) alone (test use only).

U(g) = T(V)/(R), V = span(v_1..v_n).  `uea_relations` writes R as one rule
per pair i < j and one per generator with s_ii = -1:

    v_i v_j -> s_ij v_j v_i + sum_k c_ij^k v_k,
    v_i v_i -> sum_k (c_ii^k / 2) v_k,

the second being the eps-commutator relation v_i v_i - s_ii v_i v_i =
[e_i, e_i], which reads 2 v_i^2 = [e_i, e_i], made monic.  Their quadratic
parts span R_0 in V (x) V, and the quadratic dual is A^! = T(V*)/(R_0^perp)
under <f_a f_b, v_c v_d> = [a = c][b = d].

Signs.  For i < j let s = rhs[(j, i)] of the rule (i, j).  Then f_i f_j +
s f_j f_i pairs to 1 - s^2 = 0 with v_i v_j - s v_j v_i and to 0 with every
other quadratic part, so f_j f_i = -s f_i f_j in A^!: f_i and f_j
anticommute iff s = +1.  f_i f_i pairs to 0 with every quadratic part
unless there is a diagonal rule (i, i), which contributes v_i v_i; so f_i
is free iff that rule exists, and square-zero otherwise.  These relations
number n^2 - dim R_0, so they span R_0^perp, and A^! is the sign algebra
with exactly these commuting pairs and square-zero generators.

Differential.  A^!_2 = (V* (x) V*)/R_0^perp is dual to R_0, and d on the
generators is the transpose of the linear part of R.  Take the ascending
monomial f_i f_j (i <= j) to be the basis of A^!_2 dual to the
eps-commutators v_i v_j - s_ij v_j v_i, the monomials e_i e_j of the
eps-exterior square (the chain basis of `ce_oracle`).  The linear part of
that commutator is the bracket [e_i, e_j], so d f_k has coefficient c_ij^k
on f_i f_j.  For i < j the commutator is the rule's lead minus its
quadratic term, so c_ij^k is the rule's linear coefficient on v_k.  For
i = j the commutator is 2 v_i^2, twice the monic rule, so the coefficient
is twice the rule's.  (The plain pairing above, taken on the monic rules,
would halve the diagonal instead; only the diagonal depends on this
normalization.)

A diagonal bracket at s_ii = +1 has no rule: `uea_relations` raises on it,
so the pairing covers only algebras without one.
"""

from __future__ import annotations

from colorlie.dual import DgaElement, SignAlgebra
from colorlie.pbw import uea_relations


def koszul_dual(g):
    """(A^!, [d f_1, ..., d f_n]) from the rules of U(g)."""
    rules = {r.lead: r.rhs for r in uea_relations(g)}
    n = g.n
    # f_i and f_j anticommute iff s_ij = rhs[(j, i)] is +1
    commuting = {(i, j) for (i, j), rhs in rules.items()
                 if i < j and rhs[(j, i)] == -1}
    square_zero = {i for i in range(n) if (i, i) not in rules}
    algebra = SignAlgebra(n, square_zero, commuting)
    images = [{} for _ in range(n)]
    for (i, j), rhs in rules.items():
        mono = tuple((l == i) + (l == j) for l in range(n))
        for w, c in rhs.items():
            if len(w) == 1:
                images[w[0]][mono] = 2 * c if i == j else c
    return algebra, [DgaElement(algebra, c) for c in images]
