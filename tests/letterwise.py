"""Reference action of the Koszul-dual differential, letter by letter, and
the product of the dual algebra it uses.

The dual algebra A^! of a color Lie algebra g is the epsilon-exterior
algebra of g*: the same algebra in which `ce_oracle.CEComplex.normal_form`
sorts words.  So the tests multiply in A^! with that normal form, and the
engine, which builds d from a term table and multiplies no monomials,
keeps no product of its own.

The engine's `Differential.matrix` evaluates d on exponent vectors in closed
form, and `apply_monomial` reads one column of it back.  This module keeps
the definition it regroups: expand f^a into its ascending word x_1...x_d
and sum

    sign(p) x_1...x_{p-1} (d x_p) x_{p+1}...x_d

over the positions p, with sign(p) = prod_{r<p} eps(x_r, x_p), normalizing
each product by the normal form.  d on the generators and eps come from
the bracket table and the sign matrix of the color algebra, which the caller
passes in; the engine reads every sign off the dual algebra and d off its
own term table instead, so the two are separate routes to one d.  Tests
compare them coefficient for coefficient.
"""

from __future__ import annotations

from ce_oracle import CEComplex

from colorlie.dual import DgaElement
from colorlie.linalg import accumulate


def word(mono):
    """The ascending word of an exponent vector, as generator indices."""
    out = []
    for i, a in enumerate(mono):
        out.extend([i] * a)
    return out


def signs_of(algebra):
    """A sign matrix s whose epsilon-exterior algebra is the sign algebra
    A_{J,Q}: s_kk = +1 iff k is in J, s_ij = -1 iff (i, j) is in Q.  On the
    dual algebra of g it is g's own sign matrix."""
    n = algebra.n
    return [[(1 if i in algebra.square_zero else -1) if i == j else
             -1 if (min(i, j), max(i, j)) in algebra.commuting else 1
             for j in range(n)] for i in range(n)]


def product(signs, a, b):
    """(sign, monomial) of f^a f^b in the epsilon-exterior algebra of the
    sign matrix; (0, None) when a square-zero letter repeats."""
    return CEComplex(signs, {}).normal_form(word(a) + word(b))


def multiply(x, y):
    """The product x y of two elements of one sign algebra."""
    signs = signs_of(x.algebra)
    acc = {}
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            sign, mono = product(signs, a, b)
            if sign:
                accumulate(acc, mono, ca * cb if sign == 1 else -(ca * cb))
    return DgaElement(x.algebra, acc)


def generator_images(g):
    """d f_k = sum_{i<=j} c_ij^k f_i f_j as one coefficient dict per k, read
    off g's bracket table; f_i^2 is 0 where s_ii = +1, so f_i is
    square-zero in the dual."""
    images = [{} for _ in range(g.n)]
    for (i, j), vec in g.brackets.items():
        if i == j and g.cm.s[i][i] == 1:
            continue
        mono = tuple((l == i) + (l == j) for l in range(g.n))
        for k, c in enumerate(vec):
            if c:
                images[k][mono] = c
    return images


def letterwise_apply(g, mono):
    """Coefficient dict of d(f^mono), one summand per letter of the word,
    with d on the generators and eps read off g."""
    ext = CEComplex(g.cm.s, {})
    images = generator_images(g)
    w = word(mono)
    acc = {}
    for p, letter in enumerate(w):
        sign = 1
        for r in range(p):
            sign *= g.cm.s[w[r]][letter]
        for dmono, c in images[letter].items():
            s, target = ext.normal_form(w[:p] + word(dmono) + w[p + 1:])
            if s:
                accumulate(acc, target, c if sign * s == 1 else -c)
    return acc
