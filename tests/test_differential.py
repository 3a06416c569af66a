import random
from fractions import Fraction

import pytest
from conftest import (COEFF_POOL, all_sign_matrices, apply, assert_canonical,
                      assert_field_pivots, on_generators)
from letterwise import letterwise_apply, multiply, product, word

from colorlie import catalog
from colorlie.algebra import ColorLieAlgebra, CommutationMatrix
from colorlie.cohomology import betti
from colorlie.differential import (Differential, check_d_squared,
                                   differential_from_brackets)
from colorlie.dual import DgaElement, dual_of
from colorlie.linalg import FIELD_Q, FIELD_QT, accumulate, echelon, rank
from colorlie.pbw import groebner_check, uea_relations
from colorlie.scalars import ONE, T, ZERO, Scalar


def mono(alg, *exps):
    return DgaElement(alg, {tuple(exps): ONE})


def test_generator_images_case3():
    d = differential_from_brackets(catalog.load(3))
    assert on_generators(d) == [mono(d.algebra, 0, 1, 1),   # f2 f3
                                mono(d.algebra, 1, 0, 1),   # f1 f3
                                mono(d.algebra, 1, 1, 0)]   # f1 f2


def test_generator_images_case7():
    d = differential_from_brackets(catalog.load(7))
    d1, d2, d3 = on_generators(d)
    assert d1 == mono(d.algebra, 0, 0, 2)   # f3^2
    assert d2.is_zero()
    assert d3.is_zero()


def test_generator_images_off_grading():
    """d f_k = sum_{i<=j} c_ij^k f_i f_j in the dual, with a bracket on every
    slot, grading or not: the diagonal brackets at generators that are
    square-zero in the dual drop out, and every other term keeps its sign."""
    rng = random.Random(17)
    capped_squares = 0
    for i in catalog.ALL_IDS:
        cm = CommutationMatrix(catalog.entry(i).signs)
        brackets = {
            (a, b): tuple(Scalar.from_fraction(rng.choice((-2, -1, 1, 2, 3)))
                          for _ in range(cm.n))
            for a in range(cm.n) for b in range(a, cm.n)}
        d = differential_from_brackets(ColorLieAlgebra(cm, brackets))
        alg = d.algebra
        gens = [tuple(int(a == b) for b in range(alg.n)) for a in range(alg.n)]
        capped_squares += len(alg.square_zero)
        for k, el in enumerate(on_generators(d)):
            expected = {}
            for (a, b), vec in brackets.items():
                sign, m = product(cm.s, gens[a], gens[b])
                if sign:
                    accumulate(expected, m, sign * vec[k])
            assert el == DgaElement(alg, expected), (i, k)
            assert all(m[a] <= 1 for m in el.coeffs for a in alg.square_zero)
    assert capped_squares


def test_abelian_differential_is_zero():
    g = catalog.load(5)
    d = differential_from_brackets(ColorLieAlgebra(g.cm, {}, grading=g.grading))
    assert d.is_zero()
    assert all(el.is_zero() for el in on_generators(d))
    for n in range(4):
        assert not any(d.matrix(n).matrix.columns)


def test_a_square_drops_only_at_a_square_zero_generator():
    """Differential(alg, {(i, i): vec}) gives d f_k = c^k f_i^2 at a free
    f_i, read off matrix(1) and divided by its common denominator, and is
    zero at a square-zero f_i, where f_i^2 = 0: on every sign matrix whose
    dual has both kinds of generator."""
    vec = (2, Fraction(-1, 3), 5)
    mixed = 0
    for cm in all_sign_matrices():
        alg = dual_of(ColorLieAlgebra(cm, {}))
        if len(alg.square_zero) in (0, alg.n):
            continue
        mixed += 1
        for i in range(alg.n):
            d = Differential(alg, {(i, i): vec})
            if i in alg.square_zero:
                assert d.is_zero(), (cm, i)
            else:
                square = tuple(2 * (l == i) for l in range(alg.n))
                assert on_generators(d) == [DgaElement(alg, {square: c})
                                            for c in vec], (cm, i)
    assert mixed == 48


def test_apply_case1_detects_special_value():
    # d(f2 f3) = (mu + 1) f1 f2 f3 in the engine parameterization
    d = differential_from_brackets(catalog.load(1))
    image = d.apply_monomial((0, 1, 1))
    assert image == DgaElement(d.algebra, {(1, 1, 1): T + ONE})
    d1 = differential_from_brackets(catalog.load(1, Fraction(-1)))
    assert d1.apply_monomial((0, 1, 1)).is_zero()


def test_apply_top_degree_case3():
    d = differential_from_brackets(catalog.load(3))
    assert d.apply_monomial((1, 1, 1)).is_zero()


def test_apply_unit_is_zero():
    d = differential_from_brackets(catalog.load(3))
    assert d.apply_monomial((0, 0, 0)).is_zero()


def test_matrix_case3_rank3():
    d = differential_from_brackets(catalog.load(3))
    dm = d.matrix(1)
    assert dm.matrix.rows == 3 and dm.matrix.cols == 3
    assert rank(dm.matrix) == 3


def test_matrix_case8_degree2_rank1():
    d = differential_from_brackets(catalog.load(8))
    assert rank(d.matrix(2).matrix) == 1


def test_matrices_share_one_basis_per_degree():
    # built upwards (as betti does) and downwards (as representatives does)
    for degrees in (range(7), range(6, -1, -1)):
        d = differential_from_brackets(catalog.load(13))
        for n in degrees:
            d.matrix(n)
        for n in range(6):
            assert d.matrix(n).row_basis is d.matrix(n + 1).col_basis
            assert d.matrix(n).col_basis == d.algebra.monomial_basis(n)


def test_matrix_past_one_byte_matches_letterwise():
    """On a free dual algebra, columns of d.matrix(299) whose exponents and
    targets pass 255, read through the row basis, are the letterwise sum:
    the packed keys carry each exponent in its own field."""
    cm = CommutationMatrix(((-1, -1, 1), (-1, -1, 1), (1, 1, -1)))
    g = ColorLieAlgebra(cm, {(0, 0): (0, 2, 0), (0, 1): (0, 0, 3),
                             (1, 2): (-1, 0, 0), (2, 2): (1, 1, 0)})
    d = differential_from_brackets(g)
    assert not d.algebra.square_zero
    dm = d.matrix(299)
    index = {m: j for j, m in enumerate(dm.col_basis)}
    for mono in [(299, 0, 0), (0, 299, 0), (0, 0, 299), (100, 100, 99),
                 (255, 1, 43), (1, 256, 42), (256, 0, 43)]:
        col = dm.matrix.columns[index[mono]]
        assert col, mono
        assert {dm.row_basis[i]: c for i, c in col.items()} == \
            letterwise_apply(g, mono), mono


def test_differentials_on_one_algebra_share_its_degree_records():
    """Row 10 at two parameters has one dual algebra: built on one shared
    object, both differentials read the same record of each degree, and
    their matrices the same basis lists; built apart, they read records
    that are equal but not the same."""
    g, h = (catalog.load(10, mu) for mu in (Fraction(1, 2), Fraction(3)))
    shared = dual_of(g)
    d, e = (Differential(shared, x.brackets) for x in (g, h))
    apart = differential_from_brackets(h)
    for n in range(7):
        assert d.algebra.degree_record(n) is e.algebra.degree_record(n)
        assert d.matrix(n).col_basis is e.matrix(n).col_basis
        assert d.matrix(n).row_basis is e.matrix(n).row_basis
        assert apart.matrix(n).col_basis == d.matrix(n).col_basis
        assert apart.matrix(n).col_basis is not d.matrix(n).col_basis
        assert apart.matrix(n).matrix.columns == e.matrix(n).matrix.columns


def test_image_case5_is_f1f2_line():
    from colorlie.linalg import image_basis
    d = differential_from_brackets(catalog.load(5))
    dm = d.matrix(1)
    basis = image_basis(dm.matrix)
    assert len(basis) == 1
    support = [dm.row_basis[i] for i in basis[0]]
    assert support == [(1, 1, 0)]  # the f1 f2 coordinate


@pytest.mark.parametrize("row", catalog.ALL_IDS)
def test_matrix_entries_have_the_field_type(row):
    """The matrix is that of D d, D the lcm of the denominators of d's
    Fraction coefficients, so over QQ every entry is an int (on row 10 at
    mu = +-2 and +-3 too, where d has Fraction coefficients); over QQ(t) it
    is a Scalar where it depends on t and an int or Fraction where not, an
    integral rational always an int.  Elimination keeps the field's types
    and sets each pivot to the int 1.  A matrix reads QQ(t) when one of
    its entries depends on t."""
    mus = catalog.parameter_samples(row)
    if catalog.entry(row).parameterized:
        mus = list(dict.fromkeys(mus + [catalog.GENERIC]))
    for mu in mus:
        g = catalog.load(row, catalog.engine_parameter(mu))
        field = FIELD_QT if g.has_parameter() else FIELD_Q
        assert field == (FIELD_QT if mu == catalog.GENERIC else FIELD_Q)
        d = differential_from_brackets(g)
        fields = set()
        for n in range(9):
            m = d.matrix(n).matrix
            fields.add(m.field)
            for col in m.columns:
                assert_canonical(col.values(), field)
                if field == FIELD_Q:
                    assert all(type(x) is int for x in col.values()), (mu, n)
            assert_field_pivots(echelon(m.columns), field)
            assert_field_pivots(echelon(m.transpose().columns), field)
        assert field in fields and fields <= {FIELD_Q, field}


def test_check_d_squared_catalog():
    for i in catalog.ALL_IDS:
        mu = Fraction(1, 2) if catalog.entry(i).parameterized else None
        d = differential_from_brackets(catalog.load(i, mu))
        assert check_d_squared(d, 8), i


def test_check_d_squared_generic_parameter():
    d = differential_from_brackets(catalog.load(10))
    assert d.matrix(1).matrix.field == FIELD_QT
    assert check_d_squared(d, 6)


def test_check_d_squared_fails_on_mutant_at_degree_one():
    g = catalog.load(3)
    brackets = dict(g.brackets)
    brackets[(1, 2)] = (ZERO, ONE, ZERO)
    mutant = ColorLieAlgebra(g.cm, brackets)
    d = differential_from_brackets(mutant)
    assert any(d.matrix(2).matrix.product_columns(d.matrix(1).matrix))
    assert not check_d_squared(d, 8)


def test_d_squared_iff_jacobi_on_perturbations(perturbations):
    for g in perturbations:
        d = differential_from_brackets(g)
        assert check_d_squared(d, 8) == (g.jacobi_defect() == []), g.brackets


def _assert_closed_form_matches_letterwise(g, nmax, label):
    d = differential_from_brackets(g)
    for deg in range(nmax + 1):
        for m in d.algebra.monomial_basis(deg):
            assert d.apply_monomial(m).coeffs == \
                letterwise_apply(g, m), (label, m)


def test_closed_form_matches_letterwise_catalog():
    for i in catalog.ALL_IDS:
        for mu in catalog.parameter_samples(i):
            g = catalog.load(i, catalog.engine_parameter(mu))
            _assert_closed_form_matches_letterwise(g, 16, (i, mu))


def test_closed_form_matches_letterwise_abelian_family():
    for g, _ in catalog.abelian_family():
        _assert_closed_form_matches_letterwise(g, 16, g.cm)


def test_closed_form_matches_letterwise_on_perturbations(perturbations):
    for g in perturbations:
        _assert_closed_form_matches_letterwise(g, 10, g.brackets)


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
            _assert_closed_form_matches_letterwise(
                ColorLieAlgebra(cm, brackets), 10, (i, brackets))


def test_apply_monomial_rejects_a_monomial_outside_the_basis():
    """apply_monomial reads a column of matrix(|a|), so it only takes the
    basis monomials that index those columns."""
    d = differential_from_brackets(catalog.load(3))  # f1..f3 square-zero
    for m in [(2, 0, 0), (0, 1, 3)]:
        with pytest.raises(ValueError):
            d.apply_monomial(m)


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
            Differential(alg, {ij: tuple(c if l == k else 0
                                         for l, c in enumerate(vec))
                               for ij, vec in g.brackets.items()})
            for k in range(alg.n)]
        monos = [m for deg in range(1, 6) for m in alg.monomial_basis(deg)]
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
            rhs = dict(multiply(apply(d, xe), ye).coeffs)
            for k in range(alg.n):
                sign = 1
                for l in range(alg.n):
                    if x[l] % 2 and g.cm.s[l][k] == -1:
                        sign = -sign
                part = multiply(xe, apply(partials[k], ye))
                for t, c in part.coeffs.items():
                    accumulate(rhs, t, c if sign == 1 else -c)
            assert lhs.coeffs == rhs, (i, m, cut)


CALIBRATED_SIGN = pytest.mark.xfail(
    strict=True, reason="calibrated sign, ROADMAP item 1")


@CALIBRATED_SIGN
def test_classical_sl2_has_the_whitehead_cohomology():
    """sl_2 with every sign +1, [h, e] = 2e, [h, f] = -2f, [e, f] = h:
    H = 1 + z^3 (Whitehead), and d^2 = 0.  The calibrated sign gives
    d^2 != 0 from degree 1 on and Betti numbers 1 0 -1 0 0 0 0."""
    g = ColorLieAlgebra(CommutationMatrix(((1, 1, 1),) * 3), {
        (0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)})
    assert check_d_squared(differential_from_brackets(g), 3)
    assert betti(g, 6).h == [1, 0, 0, 1, 0, 0, 0]


@CALIBRATED_SIGN
def test_d_squared_on_a_jacobi_superalgebra_with_one_odd_generator():
    """Signs diag(+1, +1, -1), every off-diagonal sign +1, and [e3, e3] =
    -e1 - e2: Jacobi and PBW hold, so d^2 = 0; the calibrated sign gives
    d^2 != 0 by degree 2."""
    g = ColorLieAlgebra(CommutationMatrix(((1, 1, 1), (1, 1, 1), (1, 1, -1))),
                        {(2, 2): (-1, -1, 0)})
    assert g.jacobi_defect() == []
    assert groebner_check(uea_relations(g))[0]
    assert check_d_squared(differential_from_brackets(g), 2)


@pytest.mark.parametrize("row", [
    pytest.param(i, marks=CALIBRATED_SIGN) if i in (10, 13, 15) else i
    for i in catalog.ALL_IDS])
def test_leibniz_rule_on_basis_monomials(row):
    """d(x*y) = d(x)*y + (-1)^|x| x*d(y) for all basis monomials x, y with
    |x| <= 3 and |x| + |y| <= 4, at every parameter sample of the row."""
    failures = []
    for mu in catalog.parameter_samples(row):
        d = differential_from_brackets(
            catalog.load(row, catalog.engine_parameter(mu)))
        basis = [[DgaElement(d.algebra, {m: ONE})
                  for m in d.algebra.monomial_basis(n)] for n in range(5)]
        for a in range(4):
            for b in range(5 - a):
                for x in basis[a]:
                    for y in basis[b]:
                        rhs = dict(multiply(apply(d, x), y).coeffs)
                        for t, c in multiply(x, apply(d, y)).coeffs.items():
                            accumulate(rhs, t, -c if a % 2 else c)
                        if apply(d, multiply(x, y)).coeffs != rhs:
                            failures.append((mu, x, y))
    assert not failures


def test_gamma_degree_preserved():
    """Every monomial of d(m) has the sign-character of m (row products)."""
    rng = random.Random(13)
    for i in (1, 6, 9, 10, 13):
        mu = Fraction(2) if catalog.entry(i).parameterized else None
        g = catalog.load(i, mu)
        d = differential_from_brackets(g)
        monos = [m for deg in range(1, 6)
                 for m in d.algebra.monomial_basis(deg)]
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
