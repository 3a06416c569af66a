import random
from fractions import Fraction

from conftest import COEFF_POOL
from letterwise import letterwise_apply, word

from colorlie import catalog
from colorlie.algebra import ColorLieAlgebra, CommutationMatrix
from colorlie.differential import (Differential, check_d_squared,
                                   differential_from_brackets)
from colorlie.dual import DgaElement, monomial_basis, multiply
from colorlie.linalg import rank
from colorlie.scalars import ONE, T, ZERO, Scalar


def mono(alg, *exps):
    return DgaElement(alg, {tuple(exps): ONE})


def test_generator_images_case3():
    d = differential_from_brackets(catalog.load(3))
    assert d.on_generators[0] == mono(d.algebra, 0, 1, 1)   # f2 f3
    assert d.on_generators[1] == mono(d.algebra, 1, 0, 1)   # f1 f3
    assert d.on_generators[2] == mono(d.algebra, 1, 1, 0)   # f1 f2


def test_generator_images_case7():
    d = differential_from_brackets(catalog.load(7))
    assert d.on_generators[0] == mono(d.algebra, 0, 0, 2)   # f3^2
    assert d.on_generators[1].is_zero()
    assert d.on_generators[2].is_zero()


def test_abelian_differential_is_zero():
    d = differential_from_brackets(catalog.load(5).associated_abelian())
    assert all(el.is_zero() for el in d.on_generators)
    for n in range(4):
        assert d.matrix(n).matrix.is_zero()


def test_apply_case1_detects_special_value():
    # d(f2 f3) = (mu + 1) f1 f2 f3 in the engine parameterization
    d = differential_from_brackets(catalog.load(1))
    image = d.apply(mono(d.algebra, 0, 1, 1))
    assert image == mono(d.algebra, 1, 1, 1).scale(T + ONE)
    d1 = differential_from_brackets(catalog.load(1, Fraction(-1)))
    assert d1.apply(mono(d1.algebra, 0, 1, 1)).is_zero()


def test_apply_top_degree_case3():
    d = differential_from_brackets(catalog.load(3))
    assert d.apply(mono(d.algebra, 1, 1, 1)).is_zero()


def test_apply_unit_is_zero():
    d = differential_from_brackets(catalog.load(3))
    assert d.apply(DgaElement.unit(d.algebra)).is_zero()


def test_matrix_case3_rank3():
    d = differential_from_brackets(catalog.load(3))
    dm = d.matrix(1)
    assert dm.matrix.rows == 3 and dm.matrix.cols == 3
    assert rank(dm.matrix) == 3


def test_matrix_case8_degree2_rank1():
    d = differential_from_brackets(catalog.load(8))
    assert rank(d.matrix(2).matrix) == 1


def test_image_case5_is_f1f2_line():
    from colorlie.linalg import image_basis
    d = differential_from_brackets(catalog.load(5))
    dm = d.matrix(1)
    basis = image_basis(dm.matrix)
    assert len(basis) == 1
    support = [dm.row_basis[i] for i in basis[0]]
    assert support == [(1, 1, 0)]  # the f1 f2 coordinate


def test_check_d_squared_catalog():
    for i in catalog.ALL_IDS:
        mu = Fraction(1, 2) if catalog.entry(i).parameterized else None
        d = differential_from_brackets(catalog.load(i, mu))
        assert check_d_squared(d, 8), i


def test_check_d_squared_generic_parameter():
    d = differential_from_brackets(catalog.load(10))
    assert d.has_parameter()
    assert check_d_squared(d, 6)


def test_check_d_squared_fails_on_mutant_at_degree_one():
    g = catalog.load(3)
    brackets = dict(g.brackets)
    brackets[(1, 2)] = (ZERO, ONE, ZERO)
    mutant = ColorLieAlgebra(g.cm, brackets)
    d = differential_from_brackets(mutant)
    assert not d.matrix(2).matrix.mul(d.matrix(1).matrix).is_zero()
    assert not check_d_squared(d, 8)


def test_d_squared_iff_jacobi_on_perturbations(perturbations):
    for g in perturbations:
        d = differential_from_brackets(g)
        assert check_d_squared(d, 8) == (g.jacobi_defect() == []), g.brackets


def _assert_closed_form_matches_letterwise(d, nmax, label):
    for deg in range(nmax + 1):
        for m in monomial_basis(d.algebra, deg):
            assert d.apply_monomial(m).coeffs == letterwise_apply(d, m), \
                (label, m)


def test_closed_form_matches_letterwise_catalog():
    for i in catalog.ALL_IDS:
        for mu in catalog.parameter_samples(i):
            g = catalog.load(i, catalog.engine_parameter(mu))
            d = differential_from_brackets(g)
            _assert_closed_form_matches_letterwise(d, 16, (i, mu))


def test_closed_form_matches_letterwise_abelian_family():
    for g, _ in catalog.abelian_family():
        d = differential_from_brackets(g)
        _assert_closed_form_matches_letterwise(d, 16, g.cm)


def test_closed_form_matches_letterwise_on_perturbations(perturbations):
    for g in perturbations:
        d = differential_from_brackets(g)
        _assert_closed_form_matches_letterwise(d, 10, g.brackets)


def test_closed_form_matches_letterwise_off_grading():
    """Brackets on every slot, grading or not.  Grading-compatible brackets
    give rho = +1 whenever a_k >= 2, so only these reach [a]_{-1} = a mod 2."""
    rng = random.Random(5)
    for i in catalog.ALL_IDS:
        cm = CommutationMatrix(catalog.entry(i).signs)
        for _ in range(3):
            brackets = {
                (a, b): tuple(Scalar.from_fraction(rng.choice(COEFF_POOL))
                              for _ in range(cm.n))
                for a in range(cm.n) for b in range(a, cm.n)}
            d = differential_from_brackets(ColorLieAlgebra(cm, brackets))
            _assert_closed_form_matches_letterwise(d, 10, (i, brackets))


def test_leibniz_contract_on_word_splits():
    """d(x*y) = d(x)*y + sum_k eps(x, f_k) x*partial_k(y) whenever the
    concatenation of x and y is already in ascending order; partial_k is the
    differential whose only nonzero generator image is d f_k."""
    rng = random.Random(31)
    for i in catalog.ALL_IDS:
        mu = Fraction(-3) if catalog.entry(i).parameterized else None
        g = catalog.load(i, mu)
        d = differential_from_brackets(g)
        alg = d.algebra
        partials = [
            Differential(alg, g.cm, [el if j == k else DgaElement(alg)
                                     for j, el in enumerate(d.on_generators)])
            for k in range(alg.n)]
        monos = [m for deg in range(1, 6) for m in monomial_basis(alg, deg)]
        for _ in range(35):
            m = rng.choice(monos)
            w = word(m)
            cut = rng.randrange(len(w) + 1)
            x = [0] * alg.n
            for l in w[:cut]:
                x[l] += 1
            y = [0] * alg.n
            for l in w[cut:]:
                y[l] += 1
            x, y = tuple(x), tuple(y)
            xe, ye = DgaElement(alg, {x: ONE}), DgaElement(alg, {y: ONE})
            lhs = d.apply_monomial(m)
            rhs = multiply(d.apply(xe), ye)
            for k in range(alg.n):
                sign = 1
                for l in range(alg.n):
                    if x[l] % 2 and g.cm.s[l][k] == -1:
                        sign = -sign
                part = multiply(xe, partials[k].apply(ye))
                rhs = rhs + (part if sign == 1 else -part)
            assert lhs == rhs, (i, m, cut)


def test_gamma_degree_preserved():
    """Every monomial of d(m) has the sign-character of m (row products)."""
    rng = random.Random(13)
    for i in (1, 6, 9, 10, 13):
        mu = Fraction(2) if catalog.entry(i).parameterized else None
        g = catalog.load(i, mu)
        d = differential_from_brackets(g)
        monos = [m for deg in range(1, 6)
                 for m in monomial_basis(d.algebra, deg)]
        for _ in range(25):
            m = rng.choice(monos)
            char = _character(g, m)
            for mm in d.apply_monomial(m).coeffs:
                assert _character(g, mm) == char


def _character(g, mono):
    out = []
    for l in range(g.n):
        sgn = 1
        for i, a in enumerate(mono):
            if a % 2:
                sgn *= g.cm.s[i][l]
        out.append(sgn)
    return tuple(out)
