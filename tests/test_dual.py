import itertools
import random
from fractions import Fraction
from math import inf

import pytest
from basis_oracle import unpack_key
from conftest import (abelian_enveloping, all_sign_matrices,
                      random_compatible_algebra)
from hypothesis import given, settings, strategies as st
from letterwise import multiply, product, signs_of

from colorlie import catalog, dual
from colorlie.algebra import ColorLieAlgebra, CommutationMatrix
from colorlie.dual import (KEY_BITS, DgaElement, SignAlgebra, dual_of,
                           monomial_str, quadratic_dual)
from colorlie.scalars import ONE, Scalar, T

ALL_PAIRS = frozenset({(0, 1), (0, 2), (1, 2)})


def gen(algebra, i):
    mono = tuple(int(k == i) for k in range(algebra.n))
    return DgaElement(algebra, {mono: 1})


def test_quadratic_dual_heisenberg_abelianization():
    a = SignAlgebra(3, set(), set())
    d = quadratic_dual(a)
    assert d.square_zero == frozenset({0, 1, 2})
    assert d.commuting == ALL_PAIRS


def test_quadratic_dual_case10():
    a = SignAlgebra(3, {1, 2}, ALL_PAIRS)
    d = quadratic_dual(a)
    assert d.square_zero == frozenset({0})
    assert d.commuting == frozenset()


def test_quadratic_dual_involution_all_64():
    for cm in all_sign_matrices():
        a = abelian_enveloping(cm)
        assert quadratic_dual(quadratic_dual(a)) == a


def test_dual_of_reads_the_quadratic_dual_off_the_signs_all_64():
    """dual_of builds the dual straight from the sign matrix; it is the
    quadratic dual of U(g_Ab), so its quadratic dual, which `hilbert`
    reads, is U(g_Ab); its top degree is 3 exactly when every generator is
    even (an exterior dual), else unbounded."""
    for cm in all_sign_matrices():
        d = dual_of(ColorLieAlgebra(cm, {}))
        uab = abelian_enveloping(cm)
        assert d == quadratic_dual(uab)
        assert quadratic_dual(d) == uab
        even = all(cm.s[i][i] == 1 for i in range(3))
        assert d.top_degree == (3 if even else inf)
        odd = all(cm.s[i][i] == -1 for i in range(3))
        assert uab.top_degree == (3 if odd else inf)


def test_dual_of_keeps_one_object_per_sign_matrix():
    """dual_of returns the one object the process keeps for each sign
    matrix, whatever the brackets: on every one of the 64, 64 objects, each
    the dual of an abelian and of a random bracket table alike, and one for
    row 10 at two mu over Q and generic over Q(t).  SignAlgebra(n, J, Q)
    builds a private object each time, equal to the shared one, which stays
    the one dual_of returns.  The shared object's top degree is derived
    from J and cannot be set."""
    rng = random.Random(28)
    shared = []
    for cm in all_sign_matrices():
        d = dual_of(ColorLieAlgebra(cm, {}))
        assert dual_of(random_compatible_algebra(cm, rng)) is d
        private = SignAlgebra(d.n, d.square_zero, d.commuting)
        assert private == d and private is not d
        assert SignAlgebra(d.n, d.square_zero, d.commuting) is not private
        assert dual_of(ColorLieAlgebra(cm, {})) is d
        with pytest.raises(AttributeError):
            d.top_degree = inf
        shared.append(d)
    assert len({id(d) for d in shared}) == 64
    row10 = [catalog.load(10, mu) for mu in (Fraction(1, 2), Fraction(3),
                                             None)]
    assert row10[2].has_parameter() and not row10[0].has_parameter()
    assert dual_of(row10[0]) is dual_of(row10[1]) is dual_of(row10[2])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from((-2, -1, 0, 1, 2)), min_size=3,
                         max_size=3), min_size=3, max_size=3))
def test_dual_of_keeps_its_bound_on_unvalidated_sign_matrices(signs):
    """The constructor takes entries such as 0 or 2 and asymmetric
    matrices, which only validate() rejects.  On each, dual_of still reads
    J = {k : s_kk != -1} and Q = {(i, j) : i < j, s_ij != +1}, and returns
    the shared object of the symmetric sign matrix with that dual, so the
    table keeps at most 64 duals on three generators and the 64 shared
    objects stay the same ones."""
    shared = {cm: dual_of(ColorLieAlgebra(cm, {}))
              for cm in all_sign_matrices()}
    cm = CommutationMatrix(signs)
    d = dual_of(ColorLieAlgebra(cm, {}))
    s = cm.s
    assert d == SignAlgebra(3, [k for k in range(3) if s[k][k] != -1],
                            [(i, j) for i in range(3)
                             for j in range(i + 1, 3) if s[i][j] != 1])
    # the diagonal -1 where s_kk = -1, the off-diagonal +1 where the upper
    # entry s_ij = +1, every other entry the other sign
    like = [[(-1 if s[i][i] == -1 else 1) if i == j else
             (1 if s[min(i, j)][max(i, j)] == 1 else -1)
             for j in range(3)] for i in range(3)]
    assert d is shared[CommutationMatrix(like)]
    assert dual_of(ColorLieAlgebra(cm, {})) is d
    assert all(dual_of(ColorLieAlgebra(c, {})) is shared[c] for c in shared)
    assert sum(1 for alg in dual._DUALS.values() if alg.n == 3) <= 64


def test_degree_record_is_empty_past_the_top_degree():
    """Past the top degree the record is empty and kept like any other;
    the key-width bound is checked first."""
    alg = SignAlgebra(3, {0, 1, 2}, set())
    assert alg.degree_record(3).basis == [(1, 1, 1)]
    for degree in (4, 12, (1 << KEY_BITS) - 1):
        record = alg.degree_record(degree)
        assert record == ([], [], [], {})
        assert alg.degree_record(degree) is record
    with pytest.raises(ValueError):
        alg.degree_record(1 << KEY_BITS)


def test_dual_of_case6():
    d = dual_of(catalog.load(6, Fraction(-1)))
    assert d.square_zero == frozenset({0, 1})
    assert d.commuting == frozenset({(1, 2)})


def test_dual_of_case3():
    d = dual_of(catalog.load(3))
    assert d.square_zero == frozenset({0, 1, 2})
    assert d.commuting == ALL_PAIRS


def test_dual_of_ordinary_abelian_is_exterior():
    cm = CommutationMatrix(((1, 1, 1),) * 3)
    d = dual_of(ColorLieAlgebra(cm, {}))
    assert d.square_zero == frozenset({0, 1, 2})
    assert d.commuting == frozenset()


def test_monomial_basis_case10_dual_degree3():
    d = dual_of(catalog.load(10, Fraction(2)))
    basis = d.monomial_basis(3)
    assert len(basis) == 7
    expected = {(0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
                (1, 2, 0), (1, 1, 1), (1, 0, 2)}
    assert set(basis) == expected
    assert basis == sorted(basis)


def test_monomial_basis_degree0():
    d = dual_of(catalog.load(3))
    assert d.monomial_basis(0) == [(0, 0, 0)]


def test_monomial_basis_case6_dual_has_four_monomials():
    d = dual_of(catalog.load(6, Fraction(-2)))
    for n in range(2, 8):
        assert len(d.monomial_basis(n)) == 4


def test_multiply_case6_anticommuting():
    d = dual_of(catalog.load(6, Fraction(-2)))
    f1, f3 = gen(d, 0), gen(d, 2)
    assert multiply(f3, f1).coeffs == {
        m: -c for m, c in multiply(f1, f3).coeffs.items()}
    assert str(multiply(f3, f1)) == "-f1*f3"


def test_multiply_case6_commuting():
    d = dual_of(catalog.load(6, Fraction(-2)))
    f2, f3 = gen(d, 1), gen(d, 2)
    assert multiply(f2, f3) == multiply(f3, f2)
    assert str(multiply(f2, f3)) == "f2*f3"


def test_multiply_capped_square():
    # in the abelianized enveloping algebra of case 10, e2^2 = 0
    a = abelian_enveloping(catalog.load(10, Fraction(2)).cm)
    f2 = gen(a, 1)
    assert not multiply(f2, f2).coeffs
    # in its dual the square is free
    f2d = gen(quadratic_dual(a), 1)
    assert multiply(f2d, f2d).coeffs


def test_multiply_associative_on_random_monomials():
    rng = random.Random(99)
    for i in catalog.ALL_IDS:
        mu = Fraction(1, 3) if catalog.entry(i).parameterized else None
        alg = dual_of(catalog.load(i, mu))
        monos = alg.monomial_basis(1) + alg.monomial_basis(2) + \
            alg.monomial_basis(3)
        for _ in range(40):
            x, y, z = (DgaElement(alg, {rng.choice(monos): ONE})
                       for _ in range(3))
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_multiply_sign_commutation_on_monomials():
    rng = random.Random(7)
    for i in (3, 6, 10, 13):
        mu = Fraction(2) if catalog.entry(i).parameterized else None
        alg = dual_of(catalog.load(i, mu))
        signs = signs_of(alg)
        monos = alg.monomial_basis(1) + alg.monomial_basis(2)
        for _ in range(30):
            a, b = rng.choice(monos), rng.choice(monos)
            s1, m1 = product(signs, a, b)
            s2, m2 = product(signs, b, a)
            assert m1 == m2
            if s1 and s2:
                # commutation sign is a pure function of exponent parities
                flips = sum(a[p] * b[q] + a[q] * b[p]
                            for p in range(3) for q in range(p + 1, 3)
                            if (p, q) not in alg.commuting)
                assert s1 * s2 == 1 if flips % 2 == 0 else s1 * s2 == -1
            else:
                assert s1 == s2 == 0


def sign_algebras(max_n=4):
    """Every sign algebra on 1..max_n generators: each square-zero set J
    with each commuting set Q."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for j_bits in itertools.product((0, 1), repeat=n):
            square_zero = {i for i, bit in enumerate(j_bits) if bit}
            for q_bits in itertools.product((0, 1), repeat=len(pairs)):
                yield SignAlgebra(n, square_zero, {p for p, bit in
                                                   zip(pairs, q_bits) if bit})


def test_degree_record_keys_hold_exponents_past_one_byte():
    """Degree 300 on a free algebra: every exponent, up to 300, unpacks
    from its own field of the key, and the index inverts the keys."""
    alg = SignAlgebra(3, set(), {(0, 1)})
    basis, _, keys, index = alg.degree_record(300)
    assert len(basis) == 301 * 302 // 2
    assert [unpack_key(key, 3) for key in keys] == basis
    assert index == {key: i for i, key in enumerate(keys)}


def test_degree_record_rejects_a_degree_past_the_key_width():
    """The largest degree whose exponents fit is (1 << KEY_BITS) - 1; the
    next one raises before enumerating anything, even where its basis would
    have billions of monomials."""
    top = (1 << KEY_BITS) - 1
    line = SignAlgebra(1, set(), set())
    assert line.degree_record(top).keys == [top]
    for alg in (line, SignAlgebra(3, set(), set())):
        with pytest.raises(ValueError, match="past the largest"):
            alg.degree_record(top + 1)


def test_monomial_basis_matches_brute_force():
    for n in range(1, 5):
        for j_bits in itertools.product((0, 1), repeat=n):
            square_zero = {i for i, bit in enumerate(j_bits) if bit}
            alg = SignAlgebra(n, square_zero, set())
            for degree in range(9):
                # itertools.product runs in lexicographic order
                expected = [m for m in itertools.product(range(degree + 1),
                                                         repeat=n)
                            if sum(m) == degree
                            and all(m[i] <= 1 for i in square_zero)]
                assert alg.monomial_basis(degree) == expected


def bubble_sort_product(alg, a, b):
    """(sign, exponents) of f^a f^b by sorting its letters with adjacent
    transpositions, each of two distinct letters giving their sign; (0,
    None) when a square-zero letter repeats."""
    word = [i for m in (a, b) for i, e in enumerate(m) for _ in range(e)]
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for p in range(end):
            x, y = word[p], word[p + 1]
            if x > y:
                word[p], word[p + 1] = y, x
                if (y, x) not in alg.commuting:
                    sign = -sign
    total = tuple(word.count(i) for i in range(alg.n))
    if any(total[i] > 1 for i in alg.square_zero):
        return 0, None
    return sign, total


def test_multiply_monomials_matches_bubble_sort():
    """The tests' product of monomials, the normal form in the
    epsilon-exterior algebra of signs_of(alg), sorts as adjacent
    transpositions do in the sign algebra, on every sign algebra with at
    most 4 generators."""
    rng = random.Random(11)
    for alg in sign_algebras():
        signs = signs_of(alg)
        for _ in range(12):
            a, b = (tuple(rng.randrange(4) for _ in range(alg.n))
                    for _ in range(2))
            assert product(signs, a, b) == bubble_sort_product(alg, a, b)


def test_hilbert_series_closed_forms():
    full = SignAlgebra(3, {0, 1, 2}, ALL_PAIRS)
    assert full.hilbert_series().expand(4) == [1, 3, 3, 1, 0]
    free = SignAlgebra(3, set(), set())
    assert free.hilbert_series().expand(3) == [1, 3, 6, 10]


def test_hilbert_series_case6_dual_coefficient():
    d = dual_of(catalog.load(6, Fraction(-2)))
    assert d.hilbert_series().expand(4)[4] == len(d.monomial_basis(4)) == 4


def test_hilbert_matches_enumeration_all_64():
    for cm in all_sign_matrices():
        a = abelian_enveloping(cm)
        coeffs = a.hilbert_series().expand(10)
        for deg in range(11):
            assert coeffs[deg] == len(a.monomial_basis(deg))


def test_hilbert_duality_product_is_one():
    for cm in all_sign_matrices():
        a = abelian_enveloping(cm)
        sa = a.hilbert_series()
        sd = quadratic_dual(a).hilbert_series()
        ca = sa.expand(10)
        cd = sd.expand(10)
        # product sa(z) * sd(-z) = 1 up to degree 10
        for n in range(11):
            acc = sum(ca[k] * cd[n - k] * (-1) ** (n - k) for k in range(n + 1))
            assert acc == (1 if n == 0 else 0)


def test_monomial_str():
    assert monomial_str((0, 0, 0)) == "1"
    assert monomial_str((1, 0, 2)) == "f1*f3^2"


def test_element_coefficients_are_exact():
    """A coefficient is held as the engine holds every value: a constant
    Scalar becomes its plain rational, t stays a Scalar, and a float or a
    string is rejected."""
    alg = dual_of(catalog.load(3))
    el = DgaElement(alg, {(1, 0, 0): ONE, (0, 1, 0): Scalar.from_fraction(
        Fraction(1, 2)), (0, 0, 1): T, (1, 1, 0): 0})
    assert el.coeffs == {(1, 0, 0): 1, (0, 1, 0): Fraction(1, 2), (0, 0, 1): T}
    assert [type(c) for c in el.coeffs.values()] == [int, Fraction, Scalar]
    for bad in (1.5, "1"):
        with pytest.raises(TypeError):
            DgaElement(alg, {(1, 0, 0): bad})
