"""Reference action of the Koszul-dual differential, letter by letter.

The engine's `Differential.matrix` evaluates d on exponent vectors in closed
form, and `apply_monomial` reads one column of it back.  This module keeps
the definition it regroups: expand f^a into its ascending word x_1...x_d
and sum

    sign(p) x_1...x_{p-1} (d x_p) x_{p+1}...x_d

over the positions p, with sign(p) = prod_{r<p} eps(x_r, x_p), normalizing
each product through the dual sign algebra.  eps comes from the sign
matrix of the color algebra, which the caller passes in; the engine reads
every sign off the dual algebra instead, so the two are separate routes to
one sign.  Tests compare them coefficient for coefficient.
"""

from __future__ import annotations


def word(mono):
    """The ascending word of an exponent vector, as generator indices."""
    out = []
    for i, a in enumerate(mono):
        out.extend([i] * a)
    return out


def letterwise_apply(d, mono, cm):
    """Coefficient dict of d(f^mono), one summand per letter of the word,
    with eps from the commutation matrix cm."""
    alg = d.algebra
    w = word(mono)
    acc = {}
    prefix = [0] * alg.n
    for p, letter in enumerate(w):
        sign = 1
        for r in range(p):
            sign *= cm.s[w[r]][letter]
        suffix = [0] * alg.n
        for r in range(p + 1, len(w)):
            suffix[w[r]] += 1
        for dmono, c in d.on_generators[letter].coeffs.items():
            s1, m1 = alg.multiply_monomials(tuple(prefix), dmono)
            if s1 == 0:
                continue
            s2, m2 = alg.multiply_monomials(m1, tuple(suffix))
            if s2 == 0:
                continue
            total = acc.get(m2)
            coef = c if sign * s1 * s2 == 1 else -c
            total = coef if total is None else total + coef
            if not total:
                acc.pop(m2)
            else:
                acc[m2] = total
        prefix[letter] += 1
    return acc
