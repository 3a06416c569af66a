"""Quadratic-linear relations of U(g) and their Diamond-Lemma
certification.

Monomial order: degree-lexicographic with v_0 > v_1 > ... > v_{n-1}, so the
leading monomial of v_i v_j - s_ij v_j v_i - sum_k c_ij^k v_k (i < j) is
v_i v_j, and normal words are the non-increasing index sequences.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .linalg import accumulate
from .scalars import common_denominator, exact, times_denominator


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


def reduce_word(element, rules):
    """Normal form of a linear combination {word: coefficient} w.r.t. the
    rewriting rules, a mapping lead -> rhs as `QuadLinRelation` holds them,
    one rule per lead; `groebner_check` builds it once for all its overlaps.

    The pending words sit in a dict word -> coefficient and in a heap keyed
    by (-length, word), so the next one popped is the deg-lex largest.  Each
    step rewrites the leftmost lead of the popped word by its rhs, which
    gives strictly smaller words in the degree-lex order, so the loop
    terminates, words are processed largest first, and a processed word
    never comes back.  A word enters the heap when it enters the dict; one
    that cancels stays in the heap and is skipped when popped, and if it
    comes back it is pushed again.  A word without a lead is normal, so the
    normal form lists its words in descending deg-lex order.
    """
    todo = {w: c for w, c in element.items() if c}
    heap = [(-len(w), w) for w in todo]
    heapify(heap)
    normal = {}
    pop = todo.pop
    rhs_of = rules.get
    while heap:
        w = heappop(heap)[1]
        c = pop(w, None)
        if c is None:
            continue
        for p in range(len(w) - 1):
            rhs = rhs_of(w[p:p + 2])
            if rhs is not None:
                break
        else:
            normal[w] = c
            continue
        head, tail = w[:p], w[p + 2:]
        for piece, pc in rhs.items():
            v = head + piece + tail
            y = todo.get(v)
            if y is None:
                y = c * pc
                if y:
                    todo[v] = y
                    heappush(heap, (-len(v), v))
            else:
                y += c * pc
                if y:
                    todo[v] = y
                else:
                    del todo[v]
    return normal


def groebner_check(rels):
    """Diamond Lemma: reduce every s-polynomial of a length-3 overlap of
    leading monomials; returns (all_zero, failing overlap words).  The
    rules lead -> rhs are indexed once, for every overlap, and by their
    first letter, so that the rules (b, c) overlapping a lead (a, b) are
    found without a scan of every pair; the overlaps are taken in the
    order of the pairs of rules, so the failures keep that order.
    ValueError when two relations share a lead.

    Leads have coefficient 1, so for leads (a, b) -> rhs1 and (b, c) -> rhs2
    the two reductions of the word abc differ by a*rhs2 - rhs1*c.

    The overlaps are reduced with the rules of U(g_D), g_D the rescaling
    e_i -> D e_i of g, D the common denominator of the rules' coefficients:
    each rule's coefficient of a right-hand word w is multiplied by
    D^(2 - |w|), which over Q leaves only ints.  v_i -> D v_i maps U(g_D)
    onto U(g), and each overlap's s-polynomial to D^3 times the image of
    g's s-polynomial, so exactly the same overlaps fail."""
    rules = {r.lead: r.rhs for r in rels}
    if len(rules) != len(rels):
        raise ValueError("relations must have distinct leading monomials")
    den = common_denominator(c for rhs in rules.values() for c in rhs.values())
    if den != 1:
        rules = {lead: {
            w: c if len(w) == 2 else times_denominator(c, den ** (2 - len(w)))
            for w, c in rhs.items()} for lead, rhs in rules.items()}
    by_first = {}
    for (b, c), rhs in rules.items():
        by_first.setdefault(b, []).append((c, rhs))
    failures = []
    for (a, b), rhs1 in rules.items():
        for c, rhs2 in by_first.get(b, ()):
            s = {(a,) + w: coef for w, coef in rhs2.items()}
            for w, coef in rhs1.items():
                accumulate(s, w + (c,), -coef)
            if reduce_word(s, rules):
                failures.append((a, b, c))
    return not failures, failures


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
