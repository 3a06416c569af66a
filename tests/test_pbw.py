import random
from fractions import Fraction

import pytest
from conftest import (abelian_enveloping, all_sign_matrices,
                      assert_canonical, on_generators,
                      random_compatible_algebra, serialize_algebra)
from koszul_oracle import koszul_dual
from pbw_oracle import deglex_key

from colorlie import catalog, cli
from colorlie.algebra import ColorLieAlgebra, CommutationMatrix
from colorlie.differential import check_d_squared, differential_from_brackets
from colorlie.dual import dual_of
from colorlie.linalg import FIELD_Q, FIELD_QT
from colorlie.pbw import (QuadLinRelation, groebner_check, reduce_word,
                          uea_relations, word_str)
from colorlie.scalars import ONE, Scalar, ZERO

HALF = Scalar.from_fraction(Fraction(1, 2))


def by_lead(rels):
    return {r.lead: r for r in rels}


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


def test_uea_relations_heisenberg():
    g = catalog.load(5)
    rels = by_lead(uea_relations(ColorLieAlgebra(g.cm, {}, grading=g.grading)))
    # anticommutators only: v_i v_j + v_j v_i
    assert set(rels) == {(0, 1), (0, 2), (1, 2)}
    for (i, j), r in rels.items():
        assert r.rhs == {(j, i): -ONE}


def test_uea_relations_heisenberg_bracket():
    rels = by_lead(uea_relations(catalog.load(5)))
    r = rels[(0, 1)]
    # v1 v2 + v2 v1 - v3: v1 v2 -> -v2 v1 + v3
    assert r.rhs == {(1, 0): -ONE, (2,): ONE}


def test_uea_relations_case7_diagonal():
    g = catalog.load(7)
    assert by_lead(uea_relations(g))[(2, 2)].rhs == {(0,): HALF}
    # with [e3, e3] = 2 e1, half the bracket is the int 1
    brackets = dict(g.brackets)
    brackets[(2, 2)] = (2, 0, 0)
    r = by_lead(uea_relations(ColorLieAlgebra(g.cm, brackets)))[(2, 2)]
    assert r.rhs == {(0,): 1}
    assert_canonical(r.rhs.values(), FIELD_Q)


def test_uea_relations_commutative_abelian():
    cm = CommutationMatrix(((1, 1), (1, 1)))
    rels = uea_relations(ColorLieAlgebra(cm, {}))
    assert len(rels) == 1
    r = rels[0]
    assert r.rhs == {(1, 0): ONE}


def test_deglex_order():
    assert deglex_key((0, 1)) > deglex_key((1, 0))
    assert deglex_key((2, 0, 1)) > deglex_key((1,))


def rules_of(rels):
    """The mapping lead -> rhs that reduce_word takes."""
    return {r.lead: r.rhs for r in rels}


def test_reduce_single_step():
    rules = rules_of(uea_relations(catalog.load(5)))
    # v1 v2 -> -v2 v1 + v3
    nf = reduce_word((0, 1), rules)
    assert nf == {(1, 0): -ONE, (2,): ONE}


def test_reduce_no_relations():
    assert reduce_word((0, 1), {}) == {(0, 1): ONE}
    assert reduce_word({(2, 0): 3, (1,): -1}, {}) == {(2, 0): 3, (1,): -1}


def test_reduce_case7_square():
    rules = rules_of(uea_relations(catalog.load(7)))
    assert reduce_word((2, 2), rules) == {(0,): HALF}


def test_reduce_idempotent():
    rules = rules_of(uea_relations(catalog.load(3)))
    for word in [(0, 1, 2), (2, 1, 0), (1, 1, 2, 0), (0, 0, 1)]:
        once = reduce_word(word, rules)
        assert reduce_word(once, rules) == once


def test_groebner_catalog_passes():
    for i in catalog.ALL_IDS:
        mu = Fraction(3) if catalog.entry(i).parameterized else None
        ok, failures = groebner_check(uea_relations(catalog.load(i, mu)))
        assert ok, (i, failures)


def test_groebner_empty():
    assert groebner_check([]) == (True, [])


@pytest.mark.parametrize("leads", [
    [(0, 1), (1, 2), (0, 1)],
    [(0, 1), (0, 1)],
], ids=["with-overlap", "without-overlap"])
def test_groebner_rejects_a_duplicated_lead(leads):
    """Two rules for one lead are refused with the distinct-leads
    ValueError, whether or not an overlap would reach the duplicate."""
    rels = [QuadLinRelation(lead, {(lead[1], lead[0]): -1}) for lead in leads]
    with pytest.raises(ValueError,
                       match="relations must have distinct leading monomials"):
        groebner_check(rels)


def test_groebner_fails_on_jacobi_mutant():
    g = catalog.load(3)
    brackets = dict(g.brackets)
    brackets[(1, 2)] = (ZERO, ONE, ZERO)
    mutant = ColorLieAlgebra(g.cm, brackets)
    ok, failures = groebner_check(uea_relations(mutant))
    assert not ok
    assert (0, 1, 2) in failures


@pytest.mark.parametrize("row, vec, failures, report", [
    (3, (ZERO, ONE, ZERO), [(0, 1, 2)],
     "pbw: FAIL at overlaps v1*v2*v3\n"),
    (13, (ONE, ZERO, ZERO), [(0, 1, 1), (0, 2, 2), (1, 1, 2), (1, 2, 2)],
     "pbw: FAIL at overlaps v1*v2^2, v1*v3^2, v2^2*v3, v2*v3^2\n"),
], ids=["row3", "row13"])
def test_groebner_failures_in_order(tmp_path, capsys, row, vec, failures,
                                    report):
    g = catalog.load(row)
    brackets = dict(g.brackets)
    brackets[(1, 2)] = vec
    mutant = ColorLieAlgebra(g.cm, brackets)
    assert groebner_check(uea_relations(mutant)) == (False, failures)
    path = tmp_path / "mutant.txt"
    path.write_text(serialize_algebra(mutant), encoding="utf-8")
    assert cli.main(["pbw", str(path)]) == 1
    assert capsys.readouterr().out == report


@pytest.mark.parametrize("row", catalog.ALL_IDS)
def test_rules_are_the_relations_with_exact_coefficients(row):
    """At every sample of the row: lead - rhs is the relation
    v_i v_j - s_ij v_j v_i - <e_i, e_j> (i < j) or v_i^2 - (1/2)<e_i, e_i>,
    read off the full bracket table, and every coefficient has its one
    representation.  The Koszul pairing of `koszul_oracle`, read off these
    rules, gives the engine's dual algebra and d on the generators."""
    for mu in catalog.parameter_samples(row):
        g = catalog.load(row, catalog.engine_parameter(mu))
        field = FIELD_QT if g.has_parameter() else FIELD_Q
        algebra, images = koszul_dual(g)
        assert algebra == dual_of(g), mu
        assert images == on_generators(differential_from_brackets(g)), mu
        for r in uea_relations(g):
            i, j = r.lead
            assert_canonical(r.rhs.values(), field)
            quadratic = {w: c for w, c in r.rhs.items() if len(w) == 2}
            linear = [r.rhs.get((k,), 0) for k in range(g.n)]
            if i < j:
                assert quadratic == {(j, i): g.cm.s[i][j]}
                assert linear == list(g.full_bracket(i, j))
            else:
                assert quadratic == {} and g.cm.s[i][i] == -1
                assert [2 * c for c in linear] == list(g.full_bracket(i, i))


def test_normal_words_degree_zero():
    rels = uea_relations(catalog.load(3))
    assert normal_words(rels, 0, n=3) == [()]


def test_normal_words_without_relations():
    # a generator in no relation still counts: one letter, s = +1, no bracket
    assert normal_words([], 2, 1) == [(0, 0)]


def test_normal_words_heisenberg_abelianization():
    g = catalog.load(5)
    rels = uea_relations(ColorLieAlgebra(g.cm, {}, grading=g.grading))
    words = normal_words(rels, 2, n=3)
    # six normal words: non-increasing index pairs
    assert len(words) == 6
    assert all(w[0] >= w[1] for w in words)


def test_normal_words_case10_abelianization():
    g = catalog.load(10, Fraction(2))
    g = ColorLieAlgebra(g.cm, {}, grading=g.grading)
    rels = uea_relations(g)
    words = normal_words(rels, 2, n=3)
    counts = abelian_enveloping(g.cm).hilbert_series().expand(2)
    assert len(words) == counts[2] == 4


def test_normal_word_counts_match_hilbert_all_diagonals():
    for g, q in catalog.abelian_family():
        rels = uea_relations(g)
        series = abelian_enveloping(g.cm).hilbert_series().expand(10)
        for d in range(11):
            assert len(normal_words(rels, d, n=3)) == series[d], (q, d)


def test_groebner_iff_jacobi_on_perturbations(perturbations):
    for g in perturbations:
        ok, _ = groebner_check(uea_relations(g))
        assert ok == (g.jacobi_defect() == []), g.brackets


def test_groebner_iff_jacobi_on_every_sign_matrix():
    """Jacobi <=> the Diamond Lemma on 5 random sign-compatible algebras
    for each of the 64 symmetric sign matrices, and Jacobi <=> d^2 = 0
    through degree 4 on the 44 injective ones.  d^2 is not compared on the
    others: there the calibrated sign can give d^2 != 0 on a Jacobi algebra
    (the strict xfails in test_differential.py)."""
    rng = random.Random(5)
    pbw_outcomes, d2_outcomes = set(), set()
    injective = 0
    for cm in all_sign_matrices():
        injective += cm.is_injective()
        for _ in range(5):
            g = random_compatible_algebra(cm, rng)
            jacobi = g.jacobi_defect() == []
            assert groebner_check(uea_relations(g))[0] == jacobi, \
                (cm, g.brackets)
            pbw_outcomes.add(jacobi)
            if cm.is_injective():
                d = differential_from_brackets(g)
                assert check_d_squared(d, 4) == jacobi, (cm, g.brackets)
                d2_outcomes.add(jacobi)
    assert injective == 44
    assert pbw_outcomes == d2_outcomes == {True, False}


def test_cubic_relations_rejected():
    for lead, rhs in [((0, 1, 2), {}), ((0,), {}), ((0, 1), {(2, 1, 0): ONE})]:
        with pytest.raises(ValueError):
            QuadLinRelation(lead, rhs)


def test_word_str():
    assert word_str(()) == "1"
    assert word_str((2, 2, 0)) == "v3^2*v1"
