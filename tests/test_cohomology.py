import random
from fractions import Fraction
from math import comb

import pytest
from ce_oracle import CEComplex, oracle_brackets
from conftest import (apply, coeff_vectors, cup_product, exterior_results,
                      spans_equal)
from letterwise import multiply

from colorlie import catalog
from colorlie.algebra import ColorLieAlgebra, CommutationMatrix
from colorlie.cohomology import (betti, betti_from_differential,
                                 representatives,
                                 representatives_from_differential)
from colorlie.differential import differential_from_brackets
from colorlie.dual import DgaElement, SignAlgebra
from colorlie.linalg import _pivot_rows
from colorlie.scalars import ONE
from colorlie.series import abelian_closed_form


def test_betti_case3():
    assert betti(catalog.load(3), 5).h == [1, 0, 0, 1, 0, 0]


def test_betti_case5():
    assert betti(catalog.load(5), 4).h == [1, 2, 2, 1, 0]


def test_betti_case8():
    assert betti(catalog.load(8), 5).h == [1, 2, 2, 2, 2, 2]


def test_betti_case9_computed_value():
    # the four d-matrix families give Z^n = {f1f2f3^(n-2), f1f3^(n-1)} and
    # B^n = d(degree n-1) of dimension 1 at n=2, 2 at n>=3
    assert betti(catalog.load(9), 6).h == [1, 2, 1, 0, 0, 0, 0]


def test_betti_generic_parameter_case10():
    assert betti(catalog.load(10), 6).h == [1, 1, 0, 0, 0, 0, 0]


def test_h0_is_one_everywhere():
    for i in catalog.ALL_IDS:
        mu = Fraction(5) if catalog.entry(i).parameterized else None
        assert betti(catalog.load(i, mu), 0).h[0] == 1


def test_h1_examples():
    assert betti(catalog.load(2), 1).h[1] == 2
    assert betti(catalog.load(3), 1).h[1] == 0
    ab = ColorLieAlgebra(catalog.load(3).cm, {})
    assert betti(ab, 1).h[1] == 3


def test_abelian_betti_matches_closed_form():
    for g, q in catalog.abelian_family():
        assert betti(g, 10).h == abelian_closed_form(3, q).expand(10)


def test_betti_invariant_under_rescaling():
    rng = random.Random(3)
    pool = [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-5, 2)]
    for row in (1, 3, 7, 10, 13):
        mu = Fraction(-2) if catalog.entry(row).parameterized else None
        g = catalog.load(row, mu)
        lam = [rng.choice(pool) for _ in range(3)]
        # e_i -> lam_i e_i turns c_ij^k into c_ij^k lam_i lam_j / lam_k
        brackets = {(i, j): tuple(c * (lam[i] * lam[j] / lam[k])
                                  for k, c in enumerate(vec))
                    for (i, j), vec in g.brackets.items()}
        rescaled = ColorLieAlgebra(g.cm, brackets, grading=g.grading)
        assert betti(rescaled, 6).h == betti(g, 6).h, (row, lam)


def test_euler_characteristic_finite_duals():
    # all-capped duals (rows 1-5) are finite dimensional
    for i in (1, 2, 3, 4, 5):
        mu = Fraction(-1) if catalog.entry(i).parameterized else None
        g = catalog.load(i, mu)
        d = differential_from_brackets(g)
        dims = [len(d.algebra.monomial_basis(n)) for n in range(4)]
        assert sum(len(d.algebra.monomial_basis(n)) for n in (4, 5)) == 0
        h = betti(g, 3).h
        chi_space = sum((-1) ** n * dims[n] for n in range(4))
        chi_h = sum((-1) ** n * h[n] for n in range(4))
        assert chi_space == chi_h


def test_representatives_case4():
    g = catalog.load(4)
    reps1 = representatives(g, 1)
    assert len(reps1) == 1
    assert str(reps1[0].representative) == "f1"
    reps2 = representatives(g, 2)
    assert [str(c.representative) for c in reps2] == ["f2*f3"]


def test_representatives_degree0():
    reps = representatives(catalog.load(3), 0)
    assert len(reps) == 1
    assert str(reps[0].representative) == "1"


def test_representatives_are_cocycles_off_boundaries():
    for i in (3, 4, 5, 7, 13):
        g = catalog.load(i)
        d = differential_from_brackets(g)
        table = betti(g, 4)
        for n in range(5):
            reps = representatives_from_differential(d, n)
            assert len(reps) == table.h[n]
            for c in reps:
                assert not apply(d, c.representative).coeffs


def test_representatives_case13_degree2():
    g = catalog.load(13)
    reps = representatives(g, 2)
    assert len(reps) == 1
    d = differential_from_brackets(g)
    alg = d.algebra
    target = DgaElement(alg, {(0, 2, 0): ONE, (0, 0, 2): ONE})  # f2^2 + f3^2
    basis = alg.monomial_basis(2)
    assert spans_equal(coeff_vectors([reps[0].representative], basis),
                       coeff_vectors([target], basis))


def test_cup_product_case13_powers():
    g = catalog.load(13)
    d = differential_from_brackets(g)
    base = representatives_from_differential(d, 2)[0]
    c = base
    for t in range(2, 5):
        c = cup_product(d, c, base)
        assert c.degree == 2 * t
        assert c.representative.coeffs
        # the class of (f2^2 + f3^2)^t
        alg = d.algebra
        power = DgaElement(alg, {(0, 0, 0): ONE})
        sq = DgaElement(alg, {(0, 2, 0): ONE, (0, 0, 2): ONE})
        for _ in range(t):
            power = multiply(power, sq)
        basis = alg.monomial_basis(2 * t)
        assert spans_equal(coeff_vectors([c.representative], basis),
                           coeff_vectors([power], basis))


def test_cup_product_top_degree_case3():
    g = catalog.load(3)
    d = differential_from_brackets(g)
    top = representatives_from_differential(d, 3)[0]
    one = representatives_from_differential(d, 0)[0]
    assert cup_product(d, top, one).representative.coeffs
    for c in representatives_from_differential(d, 3):
        prod = cup_product(d, top, c)
        # degree 6 of an 8-dimensional dual
        assert not prod.representative.coeffs


def test_cup_product_case5_degree_one_classes():
    g = catalog.load(5)
    d = differential_from_brackets(g)
    ones = representatives_from_differential(d, 1)
    assert len(ones) == 2
    assert len(representatives_from_differential(d, 2)) == 2
    prods = [cup_product(d, a, b) for a in ones for b in ones]
    for p in prods:
        assert p.degree == 2
        # f1*f2 is a coboundary, squares vanish: all products are zero classes
        assert not p.representative.coeffs


def test_cup_product_association_order_finite_duals():
    # exhaustive over the rows whose dual algebra is finite dimensional;
    # for the infinite duals the commutation-factor differential is only a
    # one-sided derivation and class products of mixed families need not
    # associate (the documented class families, tested above, do)
    for i in (2, 3, 4, 5):
        g = catalog.load(i)
        d = differential_from_brackets(g)
        classes = []
        for n in range(1, 4):
            classes.extend(representatives_from_differential(d, n))
        for a in classes:
            for b in classes:
                for c in classes:
                    left = cup_product(d, cup_product(d, a, b), c)
                    right = cup_product(d, a, cup_product(d, b, c))
                    n = a.degree + b.degree + c.degree
                    basis = d.algebra.monomial_basis(n)
                    if not basis:
                        assert not left.representative.coeffs
                        assert not right.representative.coeffs
                        continue
                    assert spans_equal(
                        coeff_vectors([left.representative], basis),
                        coeff_vectors([right.representative], basis))


def test_cup_product_powers_associate_case13():
    g = catalog.load(13)
    d = differential_from_brackets(g)
    sigma = representatives_from_differential(d, 2)[0]
    left = cup_product(d, cup_product(d, sigma, sigma), sigma)
    right = cup_product(d, sigma, cup_product(d, sigma, sigma))
    basis = d.algebra.monomial_basis(6)
    assert spans_equal(coeff_vectors([left.representative], basis),
                       coeff_vectors([right.representative], basis))
    assert left.representative.coeffs


def test_betti_table_equality_against_lists():
    t = betti(catalog.load(3), 3)
    assert t == [1, 0, 0, 1]


@pytest.mark.parametrize("row", [5, 10, 13])
def test_representatives_and_cup_products_read_the_basis_off_the_matrix(
        row, monkeypatch):
    """Neither function reads the algebra's degree records once the
    matrices are built: each reads degree n's basis off d.matrix(n - 1)
    (row 10 is generic, over QQ(t)).  Products reach degree 8, and d on
    one reads matrix(8)."""
    def enumerate_basis(algebra, n):
        raise AssertionError("degree_record(%d) called" % n)

    g = catalog.load(row)
    h = betti(g, 4).h
    d = differential_from_brackets(g)
    for n in range(9):
        d.matrix(n)
    monkeypatch.setattr(SignAlgebra, "degree_record", enumerate_basis)
    classes = [c for n in range(5) for c in representatives_from_differential(d, n)]
    assert [sum(c.degree == n for c in classes) for n in range(5)] == h
    for c in classes:
        assert {sum(m) for m in c.representative.coeffs} == {c.degree}
        for c2 in classes:
            product = cup_product(d, c, c2)
            assert product.degree == c.degree + c2.degree
            if product.representative.coeffs:
                assert not apply(d, product.representative).coeffs


@pytest.mark.parametrize("row", [5, 10, 13])
def test_representatives_and_cup_products_leave_the_kept_pass_alone(row):
    """Both read B^n off the forward pass that d.matrix(n - 1) keeps;
    afterwards every kept pass still equals a fresh one over the columns,
    and betti reads the same ranks (row 10 is generic, over QQ(t))."""
    g = catalog.load(row)
    d = differential_from_brackets(g)
    h = betti_from_differential(d, 8).h
    classes = [c for n in range(5) for c in representatives_from_differential(d, n)]
    for c in classes:
        for c2 in classes:
            cup_product(d, c, c2)
    for n in range(9):
        m = d.matrix(n).matrix
        assert m.pivot_rows == _pivot_rows(m.columns)
    assert betti_from_differential(d, 8).h == h == betti(g, 8).h


@pytest.mark.parametrize("row", [1, 2, 3, 4, 5])
def test_exterior_rows_stop_at_the_top_degree(row):
    """Rows 1-5 have every generator even, so the dual is exterior with top
    degree 3: nothing past degree 3 is built or enumerated
    (conftest.exterior_results), d^2 = 0 as Jacobi holds, h_0..h_40 is the
    cochain oracle's, and each degree has h_n representatives."""
    e = catalog.entry(row)
    for mu in catalog.parameter_samples(row):
        value = catalog.engine_parameter(mu)
        g = catalog.load(row, value)
        d2_ok, h, reps = exterior_results(g)
        assert d2_ok and g.jacobi_defect() == []
        assert h == CEComplex(e.signs, oracle_brackets(e, value)).betti(40)
        assert [len(r) for r in reps] == h[:13]


def test_zero_differential_betti_numbers_enumerate_no_basis(monkeypatch):
    """A zero differential's h_n comes from the Hilbert series: 20 even
    generators give the exterior algebra on 20 generators as dual, so
    h_n = C(20, n), and no degree's basis (2^20 monomials in all) is
    enumerated."""
    def enumerate_basis(algebra, n):
        raise AssertionError("degree_record(%d) called" % n)

    monkeypatch.setattr(SignAlgebra, "degree_record", enumerate_basis)
    g = ColorLieAlgebra(CommutationMatrix([[1] * 20] * 20), {})
    assert betti(g, 22).h == [comb(20, n) for n in range(23)]
