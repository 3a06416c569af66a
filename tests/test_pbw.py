from fractions import Fraction

import pytest

from colorlie import catalog
from colorlie.algebra import ColorLieAlgebra, CommutationMatrix
from colorlie.dual import enveloping_sign_algebra
from colorlie.pbw import (QuadLinRelation, deglex_key, groebner_check,
                          normal_words, reduce_word, uea_relations, word_str)
from colorlie.scalars import ONE, Scalar, ZERO

HALF = Scalar.from_fraction(Fraction(1, 2))


def by_lead(rels):
    return {r.lead: r for r in rels}


def test_uea_relations_heisenberg():
    rels = by_lead(uea_relations(catalog.load(5).associated_abelian()))
    # anticommutators only: v_i v_j + v_j v_i
    assert set(rels) == {(0, 1), (0, 2), (1, 2)}
    for (i, j), r in rels.items():
        assert r.quadratic == {(i, j): ONE, (j, i): ONE}
        assert r.linear == {}


def test_uea_relations_heisenberg_bracket():
    rels = by_lead(uea_relations(catalog.load(5)))
    r = rels[(0, 1)]
    # v1 v2 + v2 v1 - v3
    assert r.quadratic == {(0, 1): ONE, (1, 0): ONE}
    assert r.linear == {2: -ONE}


def test_uea_relations_case7_diagonal():
    rels = by_lead(uea_relations(catalog.load(7)))
    r = rels[(2, 2)]
    assert r.quadratic == {(2, 2): ONE}
    assert r.linear == {0: -HALF}


def test_uea_relations_commutative_abelian():
    cm = CommutationMatrix(((1, 1), (1, 1)))
    rels = uea_relations(ColorLieAlgebra(cm, {}))
    assert len(rels) == 1
    r = rels[0]
    assert r.quadratic == {(0, 1): ONE, (1, 0): -ONE}
    assert r.linear == {}


def test_deglex_order():
    assert deglex_key((0, 1)) > deglex_key((1, 0))
    assert deglex_key((2, 0, 1)) > deglex_key((1,))


def test_reduce_single_step():
    rels = uea_relations(catalog.load(5))
    # v1 v2 -> -v2 v1 + v3
    nf = reduce_word((0, 1), rels)
    assert nf == {(1, 0): -ONE, (2,): ONE}


def test_reduce_no_relations():
    assert reduce_word((0, 1), []) == {(0, 1): ONE}


def test_reduce_case7_square():
    rels = uea_relations(catalog.load(7))
    assert reduce_word((2, 2), rels) == {(0,): HALF}


def test_reduce_idempotent():
    rels = uea_relations(catalog.load(3))
    for word in [(0, 1, 2), (2, 1, 0), (1, 1, 2, 0), (0, 0, 1)]:
        once = reduce_word(word, rels)
        assert reduce_word(once, rels) == once


def test_groebner_catalog_passes():
    for i in catalog.ALL_IDS:
        mu = Fraction(3) if catalog.entry(i).parameterized else None
        ok, failures = groebner_check(uea_relations(catalog.load(i, mu)))
        assert ok, (i, failures)


def test_groebner_empty():
    assert groebner_check([]) == (True, [])


def test_groebner_fails_on_jacobi_mutant():
    g = catalog.load(3)
    brackets = dict(g.brackets)
    brackets[(1, 2)] = (ZERO, ONE, ZERO)
    mutant = ColorLieAlgebra(g.cm, brackets)
    ok, failures = groebner_check(uea_relations(mutant))
    assert not ok
    assert (0, 1, 2) in failures


def test_normal_words_degree_zero():
    rels = uea_relations(catalog.load(3))
    assert normal_words(rels, 0) == [()]


def test_normal_words_heisenberg_abelianization():
    g = catalog.load(5).associated_abelian()
    rels = uea_relations(g)
    words = normal_words(rels, 2, n=3)
    # six normal words: non-increasing index pairs
    assert len(words) == 6
    assert all(w[0] >= w[1] for w in words)


def test_normal_words_case10_abelianization():
    g = catalog.load(10, Fraction(2)).associated_abelian()
    rels = uea_relations(g)
    words = normal_words(rels, 2, n=3)
    counts = enveloping_sign_algebra(g).hilbert_series().expand(2)
    assert len(words) == counts[2] == 4


def test_normal_word_counts_match_hilbert_all_diagonals():
    for g, q in catalog.abelian_family():
        rels = uea_relations(g)
        series = enveloping_sign_algebra(g).hilbert_series().expand(10)
        for d in range(11):
            assert len(normal_words(rels, d, n=3)) == series[d], (q, d)


def test_groebner_iff_jacobi_on_perturbations(perturbations):
    for g in perturbations:
        ok, _ = groebner_check(uea_relations(g))
        assert ok == (g.jacobi_defect() == []), g.brackets


def test_cubic_relations_rejected():
    with pytest.raises(ValueError):
        QuadLinRelation({(0, 1, 2): ONE}, {})


def test_word_str():
    assert word_str(()) == "1"
    assert word_str((2, 2, 0)) == "v3^2*v1"
