"""Reduction to normal form in U(g) that scans every pending word for the
deg-lex largest at each step, and the Diamond-Lemma overlap check on top of
it: the oracle for the tests, independent of the engine's heap.  It keeps
its own deg-lex key and imports nothing from colorlie.pbw."""

from colorlie.linalg import accumulate


def deglex_key(w):
    """Sort key of the degree-lex order, a smaller index being a bigger
    letter: v_0 > v_1 > ... > v_{n-1}."""
    return (len(w), tuple(-i for i in w))


def _find_lead(word, leads):
    for p in range(len(word) - 1):
        if word[p:p + 2] in leads:
            return p
    return None


def reduce_word(element, rels):
    """Normal form of a linear combination {word: coefficient}, as a dict
    in the order its words were reached."""
    rules = {r.lead: r.rhs for r in rels}
    todo = {w: c for w, c in element.items() if c}
    normal = {}
    while todo:
        w = max(todo, key=deglex_key)
        c = todo.pop(w)
        p = _find_lead(w, rules)
        if p is None:
            accumulate(normal, w, c)
            continue
        for piece, pc in rules[w[p:p + 2]].items():
            accumulate(todo, w[:p] + piece + w[p + 2:], c * pc)
    return normal


def groebner_check(rels):
    """(all overlaps resolve, failing overlap words (a, b, c)), in the
    engine's order of leads."""
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
