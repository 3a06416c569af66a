import itertools
import random
from fractions import Fraction

import pytest

from colorlie import catalog
from colorlie.algebra import (ColorLieAlgebra, CommutationMatrix,
                              GradingAssignment, find_grading)
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
    g = catalog.load(5).associated_abelian()
    assert g.full_bracket(0, 2) == (ZERO, ZERO, ZERO)
    with pytest.raises(IndexError):
        g.full_bracket(0, 3)


def test_full_bracket_diagonal_case7():
    g = catalog.load(7)
    assert g.full_bracket(2, 2) == (ONE, ZERO, ZERO)


def test_jacobi_defect_catalog_and_abelian():
    assert catalog.load(3).jacobi_defect() == []
    assert catalog.load(3).associated_abelian().jacobi_defect() == []


def jacobi_oracle(g):
    """Dense Fraction cyclic sums, in jacobi_defect's order and shape."""
    n, s = g.n, g.cm.s

    def br(i, j):
        sgn, key = (1, (i, j)) if i <= j else (-s[i][j], (j, i))
        vec = g.brackets.get(key, (ZERO,) * n)
        return [sgn * c.as_fraction() for c in vec]

    out = []
    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        total = [Fraction(0)] * n
        for sgn, a, b, c in ((s[k][i], i, j, k), (s[j][k], k, i, j),
                             (s[i][j], j, k, i)):
            inner = br(b, c)
            for l in range(n):
                outer = br(a, l)
                for m in range(n):
                    total[m] += sgn * inner[l] * outer[m]
        if any(total):
            out.append((i, j, k, tuple(total)))
    return out


def defect_fractions(g):
    return [(i, j, k, tuple(x.as_fraction() for x in total))
            for i, j, k, total in g.jacobi_defect()]


def test_jacobi_defect_mutant():
    # redirecting <e2,e3> to e2 breaks the cyclic identity (and the grading)
    g = catalog.load(3)
    brackets = dict(g.brackets)
    brackets[(1, 2)] = (ZERO, ONE, ZERO)
    mutant = ColorLieAlgebra(g.cm, brackets)
    assert mutant.jacobi_defect() != []
    assert defect_fractions(mutant) == jacobi_oracle(mutant)
    assert not mutant.validate().ok


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
            assert defect_fractions(random_g) == expected
            defective += bool(expected)
    assert defective > 30


def test_case3_rescaled_coefficient_stays_valid():
    # every grading-compatible bracket set on the case-3 sign matrix
    # satisfies the generalized Jacobi identity
    g = catalog.load(3)
    brackets = dict(g.brackets)
    brackets[(0, 1)] = (ZERO, ZERO, ONE + ONE)
    scaled = ColorLieAlgebra(g.cm, brackets, grading=g.grading)
    assert scaled.jacobi_defect() == []
    assert scaled.validate().ok


def test_derived_dimension():
    assert catalog.load(3).derived_dimension()[0] == 3
    assert catalog.load(3).associated_abelian().derived_dimension()[0] == 0
    assert catalog.load(2).derived_dimension()[0] == 1


def test_associated_abelian():
    g5 = catalog.load(5)
    ab = g5.associated_abelian()
    assert ab.cm == g5.cm
    assert ab.is_abelian()
    assert ab.associated_abelian().brackets == ab.brackets
    g10 = catalog.load(10, Fraction(1, 2)).associated_abelian()
    assert g10.cm.s[1][1] == -1 and g10.cm.s[2][2] == -1
    assert g10.cm.s[0][1] == 1


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
    for i in catalog.ALL_IDS:
        cm = CommutationMatrix(catalog.entry(i).signs)
        assert find_grading(cm).is_compatible(cm)


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


def test_two_component_reduction_degree_zero():
    cm = CommutationMatrix(((1, 1, 1),) * 3)
    grading = GradingAssignment([(0,), (0,), (0,)])
    g = ColorLieAlgebra(cm, {(0, 1): (ZERO, ZERO, ONE)}, grading=grading)
    assert g.validate().ok
    assert g.two_component_reduction() == "lie_algebra"


def test_two_component_reduction_superalgebra():
    cm = CommutationMatrix(((1, 1), (1, -1)))
    grading = GradingAssignment([(0,), (1,)])
    g = ColorLieAlgebra(cm, {(0, 1): (ZERO, ONE)}, grading=grading)
    assert g.validate().ok
    assert g.two_component_reduction() == "lie_superalgebra"


def test_two_component_reduction_forced_abelian():
    # two nonzero components: any bracket would land in a zero component
    cm = CommutationMatrix(((1, 1), (1, 1)))
    grading = GradingAssignment([(1, 0), (0, 1)])
    g = ColorLieAlgebra(cm, {}, grading=grading)
    assert g.two_component_reduction() == "abelian"
    bad = ColorLieAlgebra(cm, {(0, 1): (ONE, ZERO)}, grading=grading)
    assert not bad.validate().ok


def test_two_component_reduction_not_applicable():
    g = catalog.load(5)
    assert g.two_component_reduction() == "not_applicable"


def test_two_component_reduction_requires_grading():
    g = ColorLieAlgebra(CommutationMatrix(((1,),)), {})
    with pytest.raises(ValueError):
        g.two_component_reduction()


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
