"""Independent Chevalley-Eilenberg oracle for the Betti numbers of a
three-dimensional color Lie algebra (test use only).

The complex is built straight from the definition of Scheunert (J. Math.
Phys. 20 (1979) 712) and Scheunert-Zhang (J. Math. Phys. 39 (1998) 5024),
from the sign matrix and the structure constants alone.  It shares nothing
with the engine's Koszul-dual route: no sign algebra, no calibrated sign, no
elimination code from colorlie.

Chains live in the epsilon-exterior algebra of g, where
x^y = -eps(x, y) y^x.  A generator e_i with eps(e_i, e_i) = +1 squares to
zero; one with eps(e_i, e_i) = -1 is free.  The basis is the ascending
monomials e_1^a e_2^b e_3^c, stored as exponent tuples.  The same sign
rules make the epsilon-exterior algebra of g*, which is the engine's dual
algebra A^!, so `normal_form` is also the tests' product in A^!
(`letterwise.product`); this module still imports nothing from colorlie.  The boundary is the
eps-coderivation that extends the bracket:

    del(x_1 ... x_n) = sum_{p<q} (-1)^(p+q) E_pq <x_p, x_q> x_1..^p..^q..x_n,

where E_pq = prod_{k<p} eps(x_k, x_p) * prod_{k<q, k!=p} eps(x_k, x_q) is
the commutation factor of moving x_p and x_q to the front.  The cochain
complex is the dual of this one, so h^n = dim C_n - rank del_n -
rank del_{n+1}, where del_n maps C_n to C_{n-1}.
"""

from __future__ import annotations

from fractions import Fraction


def oracle_brackets(entry, mu=None):
    """The catalog entry's brackets as Fraction vectors; a parameterized
    entry stores t (in the coefficients that have `substitute`), which is
    replaced by the engine-side value mu."""
    out = {}
    for (i, j), vec in entry.brackets.items():
        vec = [c.substitute(Fraction(mu)) if hasattr(c, "substitute") else c
               for c in vec]
        out[(i, j)] = tuple(Fraction(c) for c in vec)
    return out


class CEComplex:
    def __init__(self, signs, brackets):
        self.s = signs
        self.n = len(signs)
        self.bracket = {}
        for (i, j), vec in brackets.items():
            vec = tuple(Fraction(c) for c in vec)
            self.bracket[(i, j)] = vec
            if i != j:
                # eps-antisymmetry: <e_j, e_i> = -eps(e_j, e_i) <e_i, e_j>
                self.bracket[(j, i)] = tuple(-signs[j][i] * c for c in vec)

    def basis(self, degree):
        """Ascending monomials of the given degree; exponents of generators
        with eps(e_i, e_i) = +1 are at most 1."""
        out = []

        def grow(i, left, mono):
            if i == self.n:
                if left == 0:
                    out.append(tuple(mono))
                return
            top = left if self.s[i][i] == -1 else min(left, 1)
            for a in range(top + 1):
                grow(i + 1, left - a, mono + [a])

        grow(0, degree, [])
        return out

    def normal_form(self, word):
        """(coefficient, monomial) of a word of generator indices, sorted by
        x^y = -eps(x, y) y^x; (0, None) if a square-zero letter repeats.
        Each letter y moves left past the earlier letters x > y, a factor
        -eps(x, y) each, so the sign flips once per such x with eps(x, y) =
        +1 and an odd count so far."""
        sign = 1
        mono = [0] * self.n
        for y in word:
            for x in range(y + 1, self.n):
                if mono[x] % 2 and self.s[x][y] == 1:
                    sign = -sign
            mono[y] += 1
        if any(a > 1 and self.s[i][i] == 1 for i, a in enumerate(mono)):
            return 0, None
        return sign, tuple(mono)

    def boundary(self, mono):
        """del of one basis monomial as a dict monomial -> Fraction."""
        word = [i for i, a in enumerate(mono) for _ in range(a)]
        out = {}
        for q in range(len(word)):
            for p in range(q):
                vec = self.bracket.get((word[p], word[q]))
                if vec is None:
                    continue
                factor = (-1) ** (p + q)
                for k in range(p):
                    factor *= self.s[word[k]][word[p]]
                for k in range(q):
                    if k != p:
                        factor *= self.s[word[k]][word[q]]
                rest = [x for k, x in enumerate(word) if k not in (p, q)]
                for m, c in enumerate(vec):
                    if c == 0:
                        continue
                    sign, target = self.normal_form([m] + rest)
                    if sign == 0:
                        continue
                    out[target] = out.get(target, 0) + factor * sign * c
        return {m: c for m, c in out.items() if c != 0}

    def betti(self, nmax):
        """h^0..h^nmax of the cochain complex."""
        ranks = [0] + [sparse_rank([self.boundary(m) for m in self.basis(n)])
                       for n in range(1, nmax + 2)]
        return [len(self.basis(n)) - ranks[n] - ranks[n + 1]
                for n in range(nmax + 1)]


def sparse_rank(columns):
    """Rank of a list of sparse vectors (dicts key -> Fraction) by Gaussian
    elimination on pivot keys."""
    pivots = {}
    for col in columns:
        v = dict(col)
        while v:
            key = min(v)
            if key not in pivots:
                pivots[key] = v
                break
            piv = pivots[key]
            factor = v[key] / piv[key]
            for k, c in piv.items():
                x = v.get(k, 0) - factor * c
                if x == 0:
                    v.pop(k, None)
                else:
                    v[k] = x
    return len(pivots)
