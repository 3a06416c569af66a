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
from .scalars import exact


class QuadLinRelation:
    """A relation of U(g) held as its rewriting rule lead -> rhs: lead is a
    two-letter word, and rhs maps words of at most two letters (a linear
    term v_k is the one-letter word (k,)) to their coefficients."""

    def __init__(self, lead, rhs):
        if len(lead) != 2 or any(len(w) > 2 for w in rhs):
            raise ValueError("only quadratic-linear relations are accepted")
        self.lead = lead
        self.rhs = rhs

    def __repr__(self):
        return "QuadLinRelation(lead=%r)" % (self.lead,)


def uea_relations(g):
    """Rewriting rules of U(g), written from the brackets: v_i v_j ->
    s_ij v_j v_i + <e_i, e_j> for i < j, and v_i^2 -> (1/2)<e_i, e_i> where
    s_ii = -1.  A bracket <e_i, e_i> with s_ii = +1 raises ValueError."""
    rels = []
    s = g.cm.s
    half = Fraction(1, 2)
    for i in range(g.n):
        for j in range(i, g.n):
            vec = g.brackets.get((i, j), ())
            if i < j:
                rhs = {(j, i): s[i][j]}
                rhs.update(((k,), c) for k, c in enumerate(vec) if c)
            elif s[i][i] == -1:
                rhs = {(k,): exact(half * c) for k, c in enumerate(vec) if c}
            elif vec:
                raise ValueError(
                    "diagonal bracket at {0} with s[{0}][{0}] = +1".format(i + 1))
            else:
                continue
            rels.append(QuadLinRelation((i, j), rhs))
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
