"""Property tests: the algebra file format round-trips generated algebras,
Scalar satisfies the field axioms on generated rational functions in t, and
its arithmetic on rationals agrees with Fraction in canonical form."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import admissible_slots  # noqa: E402

from colorlie.algebra import (ColorLieAlgebra, CommutationMatrix,  # noqa: E402
                              find_grading)
from colorlie.catalog import GENERIC  # noqa: E402
from colorlie.files import parse_algebra_text, serialize_algebra  # noqa: E402
from colorlie.scalars import (ONE, PONE, T, ZERO, Scalar,  # noqa: E402
                              pgcd)

RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def _poly(coeffs):
    """sum_i coeffs[i] t^i, by Horner's rule in Scalar arithmetic."""
    out = ZERO
    for c in reversed(coeffs):
        out = out * T + Scalar.from_fraction(c)
    return out


POLYS = st.lists(RATIONALS, max_size=4).map(_poly)
RATIONAL_FUNCTIONS = st.builds(
    lambda num, den: num / den, POLYS, POLYS.filter(lambda p: not p.is_zero()))
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
        if not c.is_zero():
            vec = list(brackets.get((i, j), (ZERO,) * n))
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


@settings(deadline=None)
@given(RATIONAL_FUNCTIONS, RATIONAL_FUNCTIONS, RATIONAL_FUNCTIONS)
def test_scalar_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + ZERO == x
    assert x + (-x) == ZERO
    assert x - y == x + (-y)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * ONE == x
    assert x * (y + z) == x * y + x * z
    for s in (x + y, x - y, x * y):
        _assert_canonical(s)
    if not x.is_zero():
        assert x * (ONE / x) == ONE
        assert (y / x) * x == y
        _assert_canonical(y / x)
        _assert_canonical(ONE / x)


def _assert_canonical(s):
    """num/den coprime, den monic, no trailing zero, zero exactly as ZERO."""
    assert s.den and s.den[-1] == 1
    assert not s.num or s.num[-1] != 0
    assert pgcd(s.num, s.den) == PONE if s.num else s.den == PONE
    assert (s.num == ()) == (s == ZERO)


@settings(deadline=None)
@given(RATIONALS, RATIONALS)
def test_rational_arithmetic_matches_fraction(p, q):
    x, y = Scalar.from_fraction(p), Scalar.from_fraction(q)
    # each operation once more through the Q(t) path, on x t and y t
    cases = [(x + y, p + q, (x * T + y * T) / T),
             (x - y, p - q, (x * T - y * T) / T),
             (x * y, p * q, (x * T) * (y * T) / (T * T))]
    if q:
        cases.append((x / y, p / q, (x * T) / (y * T)))
    for s, value, slow in cases:
        _assert_canonical(s)
        assert s.den == PONE
        assert s.num == ((value,) if value else ())
        assert s == slow and hash(s) == hash(slow)


POINTS = (Fraction(2), Fraction(-3), Fraction(1, 5))


@settings(deadline=None)
@given(RATIONALS, RATIONAL_FUNCTIONS)
def test_rational_and_rational_function_mix(q, f):
    x = Scalar.from_fraction(q)
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
                expected = value(f.substitute(c).as_fraction())
            except ZeroDivisionError:  # a pole of f, or a zero of f in q / f
                continue
            assert s.substitute(c) == Scalar.from_fraction(expected)
