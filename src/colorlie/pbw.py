"""Quadratic-linear relations of U(g), Diamond-Lemma certification and
normal words.

Monomial order: degree-lexicographic with v_0 > v_1 > ... > v_{n-1}, so the
leading monomial of v_i v_j - s_ij v_j v_i - sum_k c_ij^k v_k (i < j) is
v_i v_j, and normal words are the non-increasing index sequences.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .linalg import accumulate
from .scalars import inverse

Word = tuple  # tuple of generator indices


def deglex_key(w):
    """Sort key for degree-lex with smaller index = bigger letter."""
    return (len(w), tuple(-i for i in w))


class QuadLinRelation:
    """A relation lead + (lower quadratic terms) + (linear part) = 0 with the
    leading coefficient normalized to 1, held as its rewriting rule
    lead -> rhs, where rhs is minus the other quadratic terms and the linear
    part (a linear term v_k is the one-letter word (k,))."""

    def __init__(self, quadratic, linear):
        # a zero int, Fraction or Scalar is falsy
        quad = {w: c for w, c in quadratic.items() if c}
        if not quad:
            raise ValueError("relation must have a quadratic part")
        for w in quad:
            if len(w) != 2:
                raise ValueError("only quadratic-linear relations are accepted")
        lead = max(quad, key=deglex_key)
        inv = -inverse(quad[lead])
        self.lead = lead
        self.rhs = {w: c * inv for w, c in quad.items() if w != lead}
        self.rhs.update(((k,), c * inv) for k, c in linear.items() if c)

    def __repr__(self):
        return "QuadLinRelation(lead=%r)" % (self.lead,)


def uea_relations(g):
    """Defining relations of U(g): v_i v_j - s_ij v_j v_i - <e_i, e_j> for
    i < j, and v_i^2 - (1/2)<e_i, e_i> where s_ii = -1.  A bracket <e_i, e_i>
    with s_ii = +1 raises ValueError."""
    rels = []
    n = g.n
    half = Fraction(1, 2)
    for i in range(n):
        for j in range(i, n):
            if i < j:
                linear = {k: -c for k, c in enumerate(g.full_bracket(i, j))}
                rels.append(QuadLinRelation({(i, j): 1, (j, i): -g.cm.s[i][j]},
                                            linear))
            elif g.cm.s[i][i] == -1:
                vec = g.brackets.get((i, i), ())
                linear = {k: -half * c for k, c in enumerate(vec)}
                rels.append(QuadLinRelation({(i, i): 1}, linear))
            elif (i, i) in g.brackets:
                raise ValueError(
                    "diagonal bracket at {0} with s[{0}][{0}] = +1".format(i + 1))
    return rels


def _find_lead(word, leads):
    for p in range(len(word) - 1):
        if word[p:p + 2] in leads:
            return p
    return None


def reduce_word(element, rels):
    """Normal form of a word or linear combination w.r.t. the relations.

    The pending words sit in a heap keyed by (-length, word), so the next
    one popped is the deg-lex largest.  Each step replaces a leading-monomial
    factor by strictly smaller terms in the degree-lex order, so the loop
    terminates, words are processed largest first, and a processed word
    never comes back.  A popped word that is no longer pending (it
    cancelled, or was pushed twice) is skipped.  The normal form lists its
    words in descending deg-lex order.
    """
    rules = {r.lead: r.rhs for r in rels}
    if len(rules) != len(rels):
        raise ValueError("relations must have distinct leading monomials")
    if isinstance(element, tuple):
        element = {element: 1}
    todo = {w: c for w, c in element.items() if c}
    heap = [(-len(w), w) for w in todo]
    heapify(heap)
    normal = {}
    while heap:
        w = heappop(heap)[1]
        c = todo.pop(w, None)
        if c is None:
            continue
        p = _find_lead(w, rules)
        if p is None:
            normal[w] = c
            continue
        for piece, pc in rules[w[p:p + 2]].items():
            v = w[:p] + piece + w[p + 2:]
            accumulate(todo, v, c * pc)
            heappush(heap, (-len(v), v))
    return normal


def groebner_check(rels):
    """Diamond Lemma: reduce every s-polynomial of a length-3 overlap of
    leading monomials; returns (all_zero, failing overlap words).

    Leads have coefficient 1, so for leads (a, b) -> rhs1 and (b, c) -> rhs2
    the two reductions of the word abc differ by a*rhs2 - rhs1*c."""
    by_lead = {r.lead: r for r in rels}
    failures = []
    for (a, b), r1 in by_lead.items():
        for (b2, c), r2 in by_lead.items():
            if b2 != b:
                continue
            s = {(a,) + w: coef for w, coef in r2.rhs.items()}
            for w, coef in r1.rhs.items():
                accumulate(s, w + (c,), -coef)
            if reduce_word(s, rels):
                failures.append((a, b, c))
    return not failures, failures


def normal_words(rels, degree, n):
    """All degree-d words in n letters with no leading monomial as a factor,
    in index-lex order."""
    leads = {r.lead for r in rels}
    if degree == 0:
        return [()]
    words = [(i,) for i in range(n)]
    for _ in range(degree - 1):
        words = [w + (i,) for w in words for i in range(n)
                 if (w[-1], i) not in leads]
    return words


def word_str(w):
    """Render a word in grouped-exponent notation, e.g. v3^2*v1."""
    if not w:
        return "1"
    parts = []
    run, count = w[0], 0
    for i in w:
        if i == run:
            count += 1
        else:
            parts.append((run, count))
            run, count = i, 1
    parts.append((run, count))
    return "*".join("v%d" % (i + 1) if c == 1 else "v%d^%d" % (i + 1, c)
                    for i, c in parts)
