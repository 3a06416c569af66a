import itertools
import random
from fractions import Fraction

import pytest

from conftest import find_grading
from jacobi_oracle import defect_values, jacobi_oracle

from colorlie import catalog
from colorlie.algebra import (ColorLieAlgebra, CommutationMatrix,
                              GradingAssignment)
from colorlie.scalars import ONE, Scalar, ZERO

HEISENBERG_SIGNS = ((1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def test_validate_commutation_heisenberg():
    cm = CommutationMatrix(HEISENBERG_SIGNS)
    assert cm.validate() == []


def test_validate_commutation_asymmetric():
    cm = CommutationMatrix(((1, 1), (-1, 1)))
    assert (0, 1) in cm.validate()


def test_validate_commutation_single():
    assert CommutationMatrix(((1,),)).validate() == []


def test_injectivity():
    assert CommutationMatrix(HEISENBERG_SIGNS).is_injective()
    assert not CommutationMatrix(((1, 1, 1),) * 3).is_injective()
    assert CommutationMatrix(((1, 1), (1, -1))).is_injective()


def test_full_bracket_skew_extension():
    g = catalog.load(3)
    # <e2, e1> = -s21 <e1, e2> = +e3
    assert g.full_bracket(1, 0) == (ZERO, ZERO, ONE)
    assert g.full_bracket(0, 1) == (ZERO, ZERO, ONE)


def test_full_bracket_unstored_and_range():
    g5 = catalog.load(5)
    g = ColorLieAlgebra(g5.cm, {}, grading=g5.grading)
    assert g.full_bracket(0, 2) == (ZERO, ZERO, ZERO)
    with pytest.raises(IndexError):
        g.full_bracket(0, 3)


def test_full_bracket_diagonal_case7():
    g = catalog.load(7)
    assert g.full_bracket(2, 2) == (ONE, ZERO, ZERO)


def test_jacobi_defect_catalog_and_abelian():
    assert catalog.load(3).jacobi_defect() == []
    g3 = catalog.load(3)
    assert ColorLieAlgebra(g3.cm, {}, grading=g3.grading).jacobi_defect() == []


def test_jacobi_defect_mutant():
    # redirecting <e2,e3> to e2 breaks the cyclic identity (and the grading)
    g = catalog.load(3)
    brackets = dict(g.brackets)
    brackets[(1, 2)] = (ZERO, ONE, ZERO)
    mutant = ColorLieAlgebra(g.cm, brackets)
    assert mutant.jacobi_defect() != []
    assert defect_values(mutant) == jacobi_oracle(mutant)
    assert not mutant.validate().ok


def test_jacobi_defect_keeps_one_walk_and_hands_out_fresh_lists():
    """The defects of the first walk are kept: each call returns an equal
    but distinct list, a caller's write to one reaches no later call, and
    validate() names every defect from the same walk, on a grading-valid
    algebra with three defects.  On the Jacobi mutant, whose validate()
    stops at its grading errors, the kept sums still agree with the dense
    oracle."""
    cm = CommutationMatrix(((1, 1, 1), (1, -1, -1), (1, -1, 1)))
    brackets = {(0, 1): (0, 1, 0), (0, 2): (0, 0, 3),
                (1, 1): (Fraction(-1, 2), 0, 0)}
    g = ColorLieAlgebra(cm, brackets)
    first = g.jacobi_defect()
    second = g.jacobi_defect()
    assert first == second and first is not second
    assert [t[:3] for t in first] == [(0, 1, 1), (1, 1, 1), (1, 1, 2)]
    expected = list(first)
    first.clear()
    second.append(second[0])
    assert g.jacobi_defect() == expected
    assert g.validate().errors == ["Jacobi defect at (1, 2, 2)",
                                   "Jacobi defect at (2, 2, 2)",
                                   "Jacobi defect at (2, 2, 3)"]
    assert g.jacobi_defect() == expected
    assert defect_values(g) == jacobi_oracle(g)

    row3 = catalog.load(3)
    brackets = dict(row3.brackets)
    brackets[(1, 2)] = (ZERO, ONE, ZERO)
    mutant = ColorLieAlgebra(row3.cm, brackets)
    assert not mutant.validate().ok
    assert mutant.jacobi_defect() != []
    assert defect_values(mutant) == jacobi_oracle(mutant)


def test_jacobi_defect_sums_match_fraction_oracle():
    # dense brackets that ignore the grading, over every catalog sign matrix
    rng = random.Random(20261018)
    pool = [Fraction(c) for c in (-3, -1, 1, 2)] + [Fraction(1, 2), Fraction(0)]
    defective = 0
    for a in catalog.ALL_IDS:
        cm = CommutationMatrix(catalog.entry(a).signs)
        for _ in range(4):
            brackets = {(i, j): tuple(Scalar.from_fraction(rng.choice(pool))
                                      for _ in range(3))
                        for i in range(3) for j in range(i, 3)}
            random_g = ColorLieAlgebra(cm, brackets)
            expected = jacobi_oracle(random_g)
            assert defect_values(random_g) == expected
            defective += bool(expected)
    assert defective > 30


def test_case3_rescaled_coefficient_stays_valid():
    # every grading-compatible bracket set on the case-3 sign matrix
    # satisfies the generalized Jacobi identity
    g = catalog.load(3)
    brackets = dict(g.brackets)
    brackets[(0, 1)] = (ZERO, ZERO, ONE + ONE)
    scaled = ColorLieAlgebra(g.cm, brackets,
                             grading=find_grading(g.cm, brackets))
    assert scaled.grading is not None
    assert scaled.jacobi_defect() == []
    assert scaled.validate().ok


def test_derived_dimension():
    assert catalog.load(3).derived_dimension()[0] == 3
    g3 = catalog.load(3)
    abelian = ColorLieAlgebra(g3.cm, {}, grading=g3.grading)
    assert abelian.derived_dimension()[0] == 0
    assert catalog.load(2).derived_dimension()[0] == 1


def test_grading_assignment_heisenberg():
    degrees = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    ga = GradingAssignment(degrees)
    cm = CommutationMatrix(HEISENBERG_SIGNS)
    form = ga.find_form(cm)
    assert form is not None
    # identity form certifies the displayed sign matrix
    for i in range(3):
        for j in range(3):
            dot = sum(a * b for a, b in zip(degrees[i], degrees[j])) % 2
            assert cm.s[i][j] == (-1) ** dot


def test_grading_assignment_incompatible():
    ga = GradingAssignment([(0,), (0,)])
    cm = CommutationMatrix(((1, -1), (-1, 1)))
    assert not ga.is_compatible(cm)


@pytest.mark.parametrize("degrees", [[(3, 1), (2, 0)], [(1, 0), (0, -1)],
                                     [("1", "0"), ("0", "1")]])
def test_grading_assignment_rejects_bits_other_than_0_and_1(degrees):
    with pytest.raises(ValueError):
        GradingAssignment(degrees)


def test_find_form_matches_exhaustive_search():
    rng = random.Random(20261018)
    sign_matrices = [
        ((d[0], s12, s13), (s12, d[1], s23), (s13, s23, d[2]))
        for d in itertools.product((1, -1), repeat=3)
        for s12, s13, s23 in itertools.product((1, -1), repeat=3)]
    found = 0
    for m in range(4):
        for _ in range(6):
            degrees = [tuple(rng.randint(0, 1) for _ in range(m))
                       for _ in range(3)]

            def signs_of(form):
                return tuple(tuple(
                    (-1) ** sum(di[p] * form[p][q] * dj[q]
                                for p in range(m) for q in range(m))
                    for dj in degrees) for di in degrees)

            # every form B, with B[p][q] = bits[p * m + q]
            realizable = {signs_of([bits[p * m:(p + 1) * m] for p in range(m)])
                          for bits in itertools.product((0, 1), repeat=m * m)}
            ga = GradingAssignment(degrees)
            for signs in sign_matrices:
                form = ga.find_form(CommutationMatrix(signs))
                assert (form is not None) == (signs in realizable)
                if form is not None:
                    assert signs_of(form) == signs
                    found += 1
    assert found > 24


def test_find_grading_matches_all_catalog_matrices():
    """Every catalog row, at each parameter sample and generic, and every
    abelian family member carries no grading, yet has a Z_2^m grading that
    its sign matrix and its brackets force, and the algebra carrying that
    grading has no structure error."""
    algebras = [g for g, _ in catalog.abelian_family()]
    for i in catalog.ALL_IDS:
        mus = catalog.parameter_samples(i)
        if catalog.entry(i).parameterized:
            mus = list(dict.fromkeys(mus + [catalog.GENERIC]))
        algebras += [catalog.load(i, catalog.engine_parameter(mu))
                     for mu in mus]
    for g in algebras:
        assert g.grading is None
        grading = find_grading(g.cm, g.brackets)
        assert grading is not None, g.cm
        graded = ColorLieAlgebra(g.cm, g.brackets, grading=grading)
        assert graded.structure_errors() == [], g.cm


def test_grading_check_invariant_under_permutation():
    g = catalog.load(13)
    for perm in itertools.permutations(range(3)):
        signs = [[g.cm.s[perm[a]][perm[b]] for b in range(3)] for a in range(3)]
        cm = CommutationMatrix(signs)
        inv = {perm[a]: a for a in range(3)}
        brackets = {}
        for (i, j), vec in g.brackets.items():
            a, b = inv[i], inv[j]
            sgn = ONE
            if a > b:
                a, b = b, a
                sgn = Scalar.from_fraction(-g.cm.s[i][j])
            newvec = [ZERO] * 3
            for k, c in enumerate(vec):
                newvec[inv[k]] = sgn * c
            brackets[(a, b)] = tuple(newvec)
        permuted = ColorLieAlgebra(cm, brackets,
                                   grading=find_grading(cm, brackets))
        assert permuted.validate().ok


def test_full_bracket_skew_for_all_catalog_entries():
    for i in catalog.ALL_IDS:
        mu = Fraction(-2) if catalog.entry(i).parameterized else None
        g = catalog.load(i, mu)
        for a in range(3):
            for b in range(3):
                lhs = g.full_bracket(a, b)
                rhs = g.full_bracket(b, a)
                sgn = Scalar.from_fraction(-g.cm.s[a][b])
                assert lhs == tuple(sgn * c for c in rhs)
