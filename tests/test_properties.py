"""Property tests: the algebra file format round-trips generated algebras,
Scalar satisfies the field axioms on generated rational functions in t, and
its arithmetic on rationals agrees with Fraction and returns plain
rationals."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import (admissible_slots, assert_engine_values_exact,  # noqa: E402
                      assert_exact)

from colorlie.algebra import (ColorLieAlgebra, CommutationMatrix,  # noqa: E402
                              find_grading)
from colorlie.catalog import GENERIC  # noqa: E402
from colorlie.files import parse_algebra_text, serialize_algebra  # noqa: E402
from colorlie.scalars import (PONE, T, Scalar, inverse,  # noqa: E402
                              pgcd, plain_rational)

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


@st.composite
def algebras(draw, coefficients):
    """A grading-compatible algebra: structure constants only on the slots
    that respect the sign rows (Jacobi may fail)."""
    n = draw(st.integers(1, 3))
    signs = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            signs[i][j] = signs[j][i] = draw(st.sampled_from((1, -1)))
    cm = CommutationMatrix(signs)
    brackets = {}
    for (i, j, k) in admissible_slots(cm):
        c = draw(coefficients)
        if c:
            vec = list(brackets.get((i, j), (0,) * n))
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
    depends on t and has num/den coprime, den monic, no trailing zero."""
    if not isinstance(s, Scalar):
        assert type(s) in (int, Fraction)
        return
    assert s.depends_on_param()
    assert s.den and s.den[-1] == 1
    assert s.num[-1] != 0
    assert pgcd(s.num, s.den) == PONE


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
