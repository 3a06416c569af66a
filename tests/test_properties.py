"""Property tests: the algebra file format round-trips generated algebras,
Scalar satisfies the field axioms on generated rational functions in t, and
its arithmetic on rationals agrees with Fraction and returns plain
rationals; every polynomial coefficient of a Scalar or a RationalSeries is a
plain rational; the fraction-free Berlekamp-Massey agrees with the Fraction
oracle, on exterior-shaped sequences too, and recognition's coprime series
equals the reduced one; the representatives equal those of the loop that
skips no kernel or residue step; monomial
bases and their degree records, PBW normal forms and overlap checks, Jacobi
sums, the columns of the differential matrices and the Koszul pairing
agree with their test-only oracles, every matrix entry is canonical,
elimination never writes to a matrix's columns, each U(g) rule rewrites
its lead to deg-lex smaller words, a zero differential's Betti numbers
count the monomial bases, plain literals parse as the grammar parses them,
on all-even algebras nothing past the exterior dual's top degree is built,
a shared dual that another algebra has warmed gives what a private one
gives, and rescaling the brackets by a nonzero rational moves no Jacobi triple,
overlap verdict, d^2 verdict, Betti number or representative."""

import copy
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import basis_oracle  # noqa: E402
import bm_oracle  # noqa: E402
import pbw_oracle  # noqa: E402
import representatives_oracle  # noqa: E402
from ce_oracle import CEComplex  # noqa: E402
from conftest import (admissible_slots, assert_canonical,  # noqa: E402
                      assert_engine_values_exact, assert_exact,
                      exterior_results, find_grading, on_generators,
                      serialize_algebra)
from jacobi_oracle import defect_values, jacobi_oracle  # noqa: E402
from koszul_oracle import koszul_dual  # noqa: E402
from letterwise import generator_images, letterwise_apply  # noqa: E402

from colorlie.algebra import ColorLieAlgebra, CommutationMatrix  # noqa: E402
from colorlie import catalog  # noqa: E402
from colorlie.catalog import GENERIC  # noqa: E402
from colorlie.cohomology import (betti_from_differential,  # noqa: E402
                                 representatives_from_differential)
from colorlie.differential import (Differential,  # noqa: E402
                                   check_d_squared,
                                   differential_from_brackets)
from colorlie.dual import SignAlgebra, dual_of  # noqa: E402
from colorlie.files import parse_algebra_text  # noqa: E402
from colorlie.linalg import (FIELD_Q, FIELD_QT, echelon, rank,  # noqa: E402
                             rank_kernel)
from colorlie.pbw import groebner_check, reduce_word, uea_relations  # noqa: E402
from colorlie.scalars import (PONE, T, Scalar, inverse,  # noqa: E402
                              parse_scalar, pgcd, plain_rational, pmul,
                              ptrim)
from colorlie.series import (RationalSeries, _berlekamp_massey,  # noqa: E402
                             recognize)

RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def _poly(coeffs):
    """sum_i coeffs[i] t^i, by Horner's rule in Scalar arithmetic: a Scalar
    when it depends on t, else a plain rational."""
    out = 0
    for c in reversed(coeffs):
        out = out * T + c
    return out


POLYS = st.lists(RATIONALS, max_size=4).map(_poly)
RATIONAL_FUNCTIONS = st.builds(
    lambda num, den: num * inverse(den), POLYS, POLYS.filter(bool))
CONSTANTS = RATIONALS.map(Scalar.from_fraction)


def _sign_matrix(draw, n, diagonal=(1, -1)):
    signs = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            signs[i][j] = signs[j][i] = draw(
                st.sampled_from(diagonal if i == j else (1, -1)))
    return CommutationMatrix(signs)


@st.composite
def algebras(draw, coefficients, sizes=st.integers(1, 3), diagonal=(1, -1)):
    """A grading-compatible algebra: structure constants only on the slots
    that respect the sign rows (Jacobi may fail); each diagonal sign is
    drawn from `diagonal`."""
    cm = _sign_matrix(draw, draw(sizes), diagonal)
    brackets = {}
    for (i, j, k) in admissible_slots(cm):
        c = draw(coefficients)
        if c:
            vec = list(brackets.get((i, j), (0,) * cm.n))
            vec[k] = c
            brackets[(i, j)] = tuple(vec)
    return ColorLieAlgebra(cm, brackets, grading=find_grading(cm, brackets))


PARAMS = st.none() | st.just(GENERIC) | RATIONALS


def _assert_round_trip(g, param):
    parsed, parsed_param = parse_algebra_text(serialize_algebra(g, param))
    assert parsed.cm == g.cm
    assert parsed.brackets == g.brackets
    if g.grading is None:
        assert parsed.grading is None
    else:
        assert parsed.grading.degrees == g.grading.degrees
    assert parsed_param == param


@settings(deadline=None)
@given(algebras(CONSTANTS), PARAMS)
def test_serialize_parse_round_trip_over_q(g, param):
    _assert_round_trip(g, param)


@settings(deadline=None)
@given(algebras(RATIONAL_FUNCTIONS), PARAMS)
def test_serialize_parse_round_trip_over_qt(g, param):
    _assert_round_trip(g, param)


@settings(max_examples=40, deadline=None)
@given(algebras(RATIONALS | CONSTANTS | RATIONAL_FUNCTIONS))
def test_engine_values_have_one_representation(g):
    """Whatever mix of ints, Fractions and Scalars (constant or not) an
    algebra is built from, the engine holds each rational as an int or a
    Fraction and makes a Scalar only where t appears."""
    parsed, _ = parse_algebra_text(serialize_algebra(g))
    assert parsed.brackets == g.brackets
    assert_exact(c for vec in parsed.brackets.values() for c in vec)
    assert_engine_values_exact(g, 4)


@settings(deadline=None)
@given(RATIONAL_FUNCTIONS, RATIONAL_FUNCTIONS, RATIONAL_FUNCTIONS)
def test_scalar_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + 0 == x
    assert x + (-x) == 0
    assert x - y == x + (-y)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * 1 == x
    assert x * (y + z) == x * y + x * z
    for s in (x + y, x - y, x * y):
        _assert_canonical(s)
    if x:
        assert x * inverse(x) == 1
        assert (y * inverse(x)) * x == y
        _assert_canonical(y * inverse(x))
        _assert_canonical(inverse(x))


def _assert_canonical(s):
    """A constant is a plain int or Fraction, never a Scalar; a Scalar
    depends on t and has num/den coprime, den monic, no trailing zero, and
    plain rational coefficients."""
    if not isinstance(s, Scalar):
        assert type(s) in (int, Fraction)
        return
    assert s.depends_on_param()
    assert s.den and s.den[-1] == 1
    assert s.num[-1] != 0
    assert pgcd(s.num, s.den) == PONE
    _assert_plain(s.num)
    _assert_plain(s.den)


def _assert_plain(coeffs):
    """Each coefficient is an int, or a Fraction that is not integral: never
    a float, never a Fraction with denominator 1."""
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction
                                  and c.denominator != 1), coeffs


@settings(deadline=None)
@given(st.booleans(), st.integers(0, 3), st.integers(0, 10 ** 30),
       st.none() | st.integers(1, 10 ** 30))
def test_plain_literals_read_as_the_grammar_reads_them(negative, zeros, p, q):
    """A plain literal -?INT or -?INT/INT, leading zeros allowed, has the
    value and type the grammar gives it: parenthesized, the same text
    always goes through the grammar."""
    text = "-" * negative + "0" * zeros + str(p)
    if q is not None:
        text += "/%d" % q
    plain, grammar = parse_scalar(text), parse_scalar("(" + text + ")")
    assert plain == grammar and type(plain) is type(grammar)


@settings(deadline=None)
@given(RATIONALS, RATIONALS)
def test_rational_arithmetic_matches_fraction(p, q):
    """Constant Scalars (which the engine never makes) still combine, and
    the result is the plain rational, an int when it is integral."""
    x, y = Scalar.from_fraction(p), Scalar.from_fraction(q)
    # each operation once more through the Q(t) path, on x t and y t
    cases = [(x + y, p + q, (x * T + y * T) / T),
             (x - y, p - q, (x * T - y * T) / T),
             (x * y, p * q, (x * T) * (y * T) / (T * T))]
    if q:
        cases.append((x / y, p / q, (x * T) / (y * T)))
    for s, value, slow in cases:
        assert s == value and type(s) is type(plain_rational(value))
        assert s == slow and type(s) is type(slow) and hash(s) == hash(slow)


POINTS = (Fraction(2), Fraction(-3), Fraction(1, 5))


@settings(deadline=None)
@given(RATIONALS, RATIONAL_FUNCTIONS)
def test_rational_and_rational_function_mix(q, f):
    """q as a constant Scalar, and as the int or Fraction the engine holds,
    combined with f either way round."""
    for x in (Scalar.from_fraction(q), plain_rational(q)):
        _check_mix(q, x, f)


def _check_mix(q, x, f):
    if not isinstance(x, Scalar) and not isinstance(f, Scalar):
        return  # Python's arithmetic, where int / int is a float
    cases = [(x + f, lambda v: q + v), (f + x, lambda v: v + q),
             (x - f, lambda v: q - v), (f - x, lambda v: v - q),
             (x * f, lambda v: q * v), (f * x, lambda v: v * q)]
    if q:
        cases.append((f / x, lambda v: v / q))
    if f:
        cases.append((x / f, lambda v: q / v))
    assert x + f == f + x and hash(x + f) == hash(f + x)
    assert x * f == f * x and hash(x * f) == hash(f * x)
    for s, value in cases:
        _assert_canonical(s)
        for c in POINTS:
            try:
                expected = value(_at(f, c))
            except ZeroDivisionError:  # a pole of f, or a zero of f in q / f
                continue
            assert _at(s, c) == expected


def _at(s, c):
    """The value of s at t = c."""
    return s.substitute(c) if isinstance(s, Scalar) else s


SERIES = st.builds(
    RationalSeries, st.lists(RATIONALS, max_size=4),
    st.builds(lambda c0, rest: [c0] + rest, RATIONALS.filter(bool),
              st.lists(RATIONALS, max_size=3)))


@settings(deadline=None)
@given(SERIES)
def test_series_coefficients_are_plain_rationals(rs):
    assert rs.den[0] == 1 and type(rs.den[0]) is int
    _assert_plain(rs.num)
    _assert_plain(rs.den)
    _assert_plain(rs.expand(8))


SMALL_INTS = st.integers(-3, 3)
# expansions of series with integer num and den(0) = 1, so every term is an
# integer
RATIONAL_SEQUENCES = st.builds(
    lambda num, den, n: RationalSeries(num, [1] + den).expand(n),
    st.lists(SMALL_INTS, max_size=5), st.lists(SMALL_INTS, max_size=5),
    st.integers(11, 40))
# the Betti shape of an exterior dual, which most small algebras have: a
# polynomial of degree 3 or less, then zeros
EXTERIOR_SEQUENCES = st.builds(
    lambda head, n: head + [0] * (n - len(head)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4), st.integers(12, 41))
# and integer sequences that are mostly not rational of low order
INTEGER_SEQUENCES = st.one_of(
    RATIONAL_SEQUENCES,
    EXTERIOR_SEQUENCES,
    st.lists(st.integers(-9, 9), min_size=12, max_size=41),
    st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=12, max_size=41))


@settings(deadline=None)
@given(INTEGER_SEQUENCES)
def test_berlekamp_massey_matches_the_fraction_oracle(seq):
    """The same L and last fit as Berlekamp-Massey over Q, and an integer C
    with C(0) != 0 proportional to the oracle's."""
    c, L, last_fit = _berlekamp_massey(seq)
    oc, oL, olast = bm_oracle.berlekamp_massey(seq)
    assert (L, last_fit) == (oL, olast)
    assert all(type(x) is int for x in c) and c[0] != 0
    assert list(c) == [c[0] * x for x in oc]


@settings(deadline=None)
@given(RATIONAL_SEQUENCES | EXTERIOR_SEQUENCES)
def test_recognize_matches_the_fraction_oracle(seq):
    """The oracle reduces its fit over Q whether or not it can validate;
    on noise of 41 terms that takes seconds, so only rational inputs."""
    rs = recognize(seq)
    assert rs == bm_oracle.oracle_recognize(seq)
    if rs is not None:
        _assert_plain(rs.num)
        _assert_plain(rs.den)


@settings(deadline=None)
@given(RATIONAL_SEQUENCES)
def test_recognition_series_is_already_reduced(seq):
    """Berlekamp-Massey's numerator and C are coprime, so the series that
    recognize builds without a gcd equals the one the reducing constructor
    builds."""
    c, L, _ = _berlekamp_massey(seq)
    s = ptrim(seq)
    num = ptrim(pmul(c, s)[:L]) if L else s
    assert RationalSeries(num, c, _coprime=True) == RationalSeries(num, c)


@st.composite
def sign_algebras(draw):
    n = draw(st.integers(0, 5))
    square_zero = draw(st.sets(st.integers(0, n - 1))) if n else set()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    commuting = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return SignAlgebra(n, square_zero, commuting)


@settings(deadline=None)
@given(sign_algebras(), st.integers(0, 15))
def test_monomial_basis_matches_the_recursive_oracle(alg, degree):
    """The same monomials in the same lexicographic order, as many as the
    Hilbert series' coefficient; each monomial's parity bitmask, packed
    keys that unpack to the basis, and an index that inverts the keys.
    The record is built once: a second request and monomial_basis read the
    same objects."""
    record = alg.degree_record(degree)
    basis, odds, keys, index = record
    assert basis == basis_oracle.monomial_basis(alg, degree)
    assert len(basis) == alg.hilbert_series().expand(degree)[degree]
    assert odds == [sum((a & 1) << i for i, a in enumerate(m)) for m in basis]
    assert [basis_oracle.unpack_key(key, alg.n) for key in keys] == basis
    assert index == {key: i for i, key in enumerate(keys)}
    assert alg.degree_record(degree) is record
    assert alg.monomial_basis(degree) is basis


@settings(max_examples=60, deadline=None)
@given(algebras(RATIONALS, diagonal=(1,)))
def test_exterior_duals_stop_at_the_top_degree(g):
    """Every generator even, Jacobi-failing algebras included (the all +1
    sign matrices admit them): nothing past degree n is built or
    enumerated, and a walk of every degree agrees
    (conftest.exterior_results).  On an injective sign matrix d^2 = 0 iff
    Jacobi holds, and h_0..h_40 is the cochain oracle's; on the others the
    calibrated sign of the differential is known to break both."""
    d2_ok, h, reps = exterior_results(g)
    if len(set(g.cm.s)) == g.n:
        assert d2_ok == (g.jacobi_defect() == [])
        if d2_ok:
            assert h == CEComplex(g.cm.s, g.brackets).betti(40)
    if d2_ok:
        assert [len(r) for r in reps] == h[:13]


def _abelian_with_dual(alg):
    """The abelian algebra whose Koszul dual is the sign algebra alg: f_i
    is square-zero in the dual exactly when e_i is even (s_ii = +1), and
    f_i, f_j commute exactly when e_i, e_j anticommute."""
    def sign(i, j):
        if i == j:
            return 1 if i in alg.square_zero else -1
        return -1 if (min(i, j), max(i, j)) in alg.commuting else 1
    signs = [[sign(i, j) for j in range(alg.n)] for i in range(alg.n)]
    return ColorLieAlgebra(CommutationMatrix(signs), {})


@settings(deadline=None)
@given(sign_algebras())
def test_zero_differential_betti_numbers_count_the_basis(alg):
    """The Hilbert series' coefficients equal the enumerated dimensions."""
    d = differential_from_brackets(_abelian_with_dual(alg))
    assert d.algebra == alg
    assert d.is_zero()
    assert betti_from_differential(d, 15).h == [
        len(alg.monomial_basis(n)) for n in range(16)]


@st.composite
def same_sign_pairs(draw):
    """(g, h) on one sign matrix: g grading-compatible or with brackets on
    every slot, h with brackets on every slot."""
    g = draw(algebras(RATIONALS | CONSTANTS) | dense_algebras(RATIONALS))
    n = g.n
    h = ColorLieAlgebra(g.cm, {(i, j): tuple(draw(RATIONALS)
                                             for _ in range(n))
                               for i in range(n) for j in range(i, n)})
    return g, h


@settings(max_examples=30, deadline=None)
@given(same_sign_pairs())
def test_a_warmed_shared_dual_gives_what_a_private_one_gives(pair):
    """g's differential on the shared dual, after h on the same sign matrix
    has built its degree records and term shapes to degree 15, gives the
    same d^2 verdict, Betti numbers and representatives as on a private
    dual algebra that no one else has touched."""
    g, h = pair
    warm = differential_from_brackets(h)
    for n in range(15):
        warm.matrix(n)
    d = differential_from_brackets(g)
    assert d.algebra is warm.algebra
    alg = d.algebra
    private = Differential(SignAlgebra(alg.n, alg.square_zero, alg.commuting),
                           g.brackets)

    def results(e):
        return (check_d_squared(e, 8), betti_from_differential(e, 12).h,
                [[str(c.representative) for c in
                  representatives_from_differential(e, n)]
                 for n in range(9)])

    assert results(d) == results(private)


WORDS = st.lists(st.integers(0, 2), max_size=5).map(tuple)
# the catalog's rows at the parameters the suite samples, t kept where
# GENERIC: random admissible brackets rarely satisfy Jacobi
CATALOG_ALGEBRAS = st.sampled_from(
    [(i, mu) for i in catalog.ALL_IDS
     for mu in catalog.parameter_samples(i)]).map(
        lambda row: catalog.load(row[0], catalog.engine_parameter(row[1])))


@settings(max_examples=60, deadline=None)
@given(algebras(RATIONALS | RATIONAL_FUNCTIONS, sizes=st.just(3))
       | CATALOG_ALGEBRAS,
       st.lists(WORDS.map(lambda w: {w: 1})
                | st.dictionaries(WORDS, RATIONALS, max_size=4), max_size=4))
def test_pbw_reduction_matches_the_scanning_oracle(g, elements):
    """On 3-generator algebras, PBW and Jacobi-failing ones alike: the same
    normal forms, words in the same order, and the same failing overlaps."""
    rels = uea_relations(g)
    assert groebner_check(rels) == pbw_oracle.groebner_check(rels)
    rules = {r.lead: r.rhs for r in rels}
    for element in elements:
        normal = reduce_word(element, rules)
        assert list(normal.items()) == list(
            pbw_oracle.reduce_word(element, rels).items())


@settings(max_examples=60, deadline=None)
@given(algebras(RATIONALS | RATIONAL_FUNCTIONS) | CATALOG_ALGEBRAS)
def test_each_rule_rewrites_its_lead_to_smaller_words(g):
    """Every rule's lead is deg-lex larger, under the oracle's own key, than
    each two-letter word of its rhs, and every rhs coefficient has its one
    representation."""
    field = FIELD_QT if g.has_parameter() else FIELD_Q
    for r in uea_relations(g):
        assert_canonical(r.rhs.values(), field)
        for w in r.rhs:
            assert len(w) == 1 or (
                pbw_oracle.deglex_key(r.lead) > pbw_oracle.deglex_key(w))


@st.composite
def dense_algebras(draw, coefficients):
    """Structure constants drawn on every slot i <= j, so the grading and
    the diagonal rule may both fail."""
    n = draw(st.integers(1, 3))
    cm = _sign_matrix(draw, n)
    brackets = {(i, j): tuple(draw(coefficients) for _ in range(n))
                for i in range(n) for j in range(i, n)}
    return ColorLieAlgebra(cm, brackets)


def _assert_jacobi_and_antisymmetry(g):
    assert defect_values(g) == jacobi_oracle(g)
    s = g.cm.s
    for a in range(g.n):
        assert g.full_bracket(a, a) == g.brackets.get((a, a), (0,) * g.n)
        for b in range(g.n):
            if a != b or s[a][a] == -1:
                assert g.full_bracket(a, b) == tuple(
                    -s[a][b] * c for c in g.full_bracket(b, a))
    for i, j in ((g.n, 0), (0, g.n), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            g.full_bracket(i, j)


@settings(deadline=None)
@given(dense_algebras(RATIONALS))
def test_jacobi_defect_matches_the_dense_oracle_over_q(g):
    _assert_jacobi_and_antisymmetry(g)


@settings(max_examples=15, deadline=None)
@given(dense_algebras(RATIONALS | RATIONAL_FUNCTIONS))
def test_jacobi_defect_matches_the_dense_oracle_over_qt(g):
    _assert_jacobi_and_antisymmetry(g)


@settings(max_examples=40, deadline=None)
@given(algebras(RATIONALS | CONSTANTS | RATIONAL_FUNCTIONS)
       | dense_algebras(RATIONALS | RATIONAL_FUNCTIONS))
def test_matrix_entries_are_canonical(g):
    """Every entry of d.matrix(n), n <= 8, has its one representation, an
    integral rational as an int, whichever ints, Fractions and Scalars the
    coefficients are and however they sum."""
    field = FIELD_QT if g.has_parameter() else FIELD_Q
    d = differential_from_brackets(g)
    for n in range(9):
        for col in d.matrix(n).matrix.columns:
            assert_canonical(col.values(), field)


@settings(max_examples=100, deadline=None)
@given(algebras(SMALL_INTS | RATIONALS | RATIONAL_FUNCTIONS)
       | dense_algebras(SMALL_INTS | RATIONALS) | CATALOG_ALGEBRAS)
def test_elimination_leaves_the_matrix_columns_as_built(g):
    """rank, echelon, rank_kernel and the representatives never write to a
    matrix's columns through degree 4: a column that becomes a row as it is
    goes in as a copy, which echelon may then reduce in place.  No row of
    either pass is a column, and the columns are checked after each step,
    since later steps read the kept forward pass of earlier matrices.  Small
    integer brackets and the catalog rows bring the unit pivots that let a
    column become a row unscaled.  Dense brackets stay over Q: eliminating
    their columns over Q(t) can swell without bound."""
    d = differential_from_brackets(g)
    matrices = [d.matrix(n).matrix for n in range(5)]
    built = copy.deepcopy([m.columns for m in matrices])
    for n, m in enumerate(matrices):
        rank(m)
        columns = {id(col) for col in m.columns}
        assert not columns & {id(row) for row in m.pivot_rows.values()}, n
        rows = echelon(m.columns)
        assert not columns & {id(row) for row in rows.values()}, n
        assert [c.columns for c in matrices] == built, n
        rank_kernel(m)
        representatives_from_differential(d, n)
        assert [c.columns for c in matrices] == built, n


# mostly zero coefficients, so that whole degrees of d vanish
SPARSE = st.sampled_from((0, 0, 0, 1, -1, Fraction(1, 2)))


@settings(max_examples=60, deadline=None)
@given(algebras(SPARSE) | algebras(SPARSE | RATIONAL_FUNCTIONS)
       | CATALOG_ALGEBRAS)
def test_representatives_match_the_unskipped_loop(g):
    """Through degree 6 the same classes, coefficient by coefficient and in
    the same order, as the loop that always takes the kernel from
    rank_kernel and always reduces by residue: on algebras with zero
    differential degrees (d_0 always, every degree of an abelian one) and
    over Q(t), there through degree 4, since eliminating deeper degrees
    over Q(t) can swell."""
    d = differential_from_brackets(g)
    for n in range(5 if g.has_parameter() else 7):
        got = representatives_from_differential(d, n)
        want = representatives_oracle.representatives(d, n)
        assert [(c.degree, list(c.representative.coeffs.items()))
                for c in got] == \
            [(c.degree, list(c.representative.coeffs.items()))
             for c in want], n


def _assert_columns_match_letterwise(g):
    """d.matrix is the matrix of D d, D the lcm of the denominators of the
    Fractions among d's coefficients on the generators; over Q every entry
    is an int."""
    d = differential_from_brackets(g)
    den = lcm(*(c.denominator for image in generator_images(g)
                for c in image.values() if type(c) is Fraction))
    for n in range(7):
        dm = d.matrix(n)
        for mono, col in zip(dm.col_basis, dm.matrix.columns):
            assert all(col.values()), (n, mono)
            if not g.has_parameter():
                assert all(type(c) is int for c in col.values()), (n, mono)
            assert {dm.row_basis[i]: c for i, c in col.items()} == {
                m: den * c for m, c in letterwise_apply(g, mono).items()
            }, (n, mono)


@settings(deadline=None)
@given(algebras(RATIONALS) | dense_algebras(RATIONALS))
def test_matrix_columns_match_letterwise_over_q(g):
    """Each column of d.matrix(n), n <= 6, read through the row basis, is D
    times the letter-by-letter sum, holds only ints and stores no zero: on
    grading-compatible algebras and on brackets that break the grading and
    the diagonal rule, with every square-zero pattern the sign matrices
    allow."""
    _assert_columns_match_letterwise(g)


@settings(max_examples=25, deadline=None)
@given(algebras(RATIONALS | RATIONAL_FUNCTIONS)
       | dense_algebras(RATIONALS | RATIONAL_FUNCTIONS))
def test_matrix_columns_match_letterwise_over_qt(g):
    _assert_columns_match_letterwise(g)


@settings(deadline=None)
@given(algebras(RATIONALS), RATIONALS.filter(bool))
def test_rescaled_algebra_has_the_same_invariants(g, lam):
    """lam g, the brackets times a nonzero rational lam, is g under the
    rescaling e_i -> lam e_i: the same Jacobi triples with every sum times
    lam^2, the same overlap verdicts, the same d^2 verdict, Betti numbers
    and representatives.  lam g is built as an algebra of its own, so this
    checks the premise of the engine's clearing of denominators without
    going through it."""
    scaled = ColorLieAlgebra(g.cm, {ij: tuple(lam * c for c in vec)
                                    for ij, vec in g.brackets.items()})
    assert scaled.jacobi_defect() == [
        (i, j, k, tuple(lam * lam * x for x in total))
        for i, j, k, total in g.jacobi_defect()]
    assert groebner_check(uea_relations(scaled)) == \
        groebner_check(uea_relations(g))
    d = differential_from_brackets(g)
    e = differential_from_brackets(scaled)
    assert check_d_squared(e, 4) == check_d_squared(d, 4)
    assert betti_from_differential(e, 8).h == betti_from_differential(d, 8).h
    for n in range(7):
        assert [str(c.representative)
                for c in representatives_from_differential(e, n)] == \
            [str(c.representative)
             for c in representatives_from_differential(d, n)], n


@settings(deadline=None)
@given(algebras(RATIONALS | CONSTANTS | RATIONAL_FUNCTIONS))
def test_koszul_pairing_matches_the_engine(g):
    """The dual algebra and d on the generators, read off U(g)'s rules,
    equal the engine's, read off the sign matrix and the brackets.  Only
    grading-compatible algebras: a dense one may carry a diagonal bracket
    at s_ii = +1, which has no rule of U(g) and which the engine drops."""
    algebra, images = koszul_dual(g)
    assert algebra == dual_of(g)
    assert images == on_generators(differential_from_brackets(g))
