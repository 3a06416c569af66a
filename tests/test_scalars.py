from fractions import Fraction
from time import perf_counter

import pytest

from colorlie.scalars import (MAX_POWER, ONE, Scalar, ScalarParseError, T,
                              ZERO, as_scalar, exact, inverse, parse_scalar,
                              plain_rational)


def frac(a, b=1):
    return Scalar.from_fraction(Fraction(a, b))


def test_gcd_reduction():
    assert frac(2, 4) == frac(1, 2)


def test_sign_normalization():
    assert frac(-3, -6) == frac(1, 2)
    assert str(frac(1, -2)) == "-1/2"


def test_polynomial_gcd_cancellation():
    s = (T * T - ONE) / (T - ONE)
    assert s == T + ONE
    assert str(s) == "1+t"


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_simplify_idempotent():
    # a Scalar is canonical from construction, so coercion returns it as is
    s = (frac(6) * T) / frac(4)
    assert as_scalar(s) is s
    assert s == frac(3, 2) * T
    assert as_scalar(3) == frac(3)
    assert as_scalar(Fraction(-1, 2)) == frac(-1, 2)
    for bad in (1.5, "1"):
        with pytest.raises(TypeError):
            as_scalar(bad)


def test_arithmetic_rejects_operands_that_are_not_exact():
    for bad in (1.5, "1", None):
        for op in (lambda: T + bad, lambda: bad + T, lambda: T - bad,
                   lambda: T * bad, lambda: bad * T, lambda: T / bad,
                   lambda: bad / T):
            with pytest.raises(TypeError):
                op()


def test_substitute_and_pole():
    s = (T + ONE) / (T - frac(2))
    assert s.substitute(3) == frac(4)
    with pytest.raises(ZeroDivisionError):
        s.substitute(2)


def test_depends_on_param():
    assert T.depends_on_param()
    assert not frac(5).depends_on_param()
    # a constant result of Scalar arithmetic is a plain rational
    assert T - T == 0 and type(T - T) is int
    assert type(T / (2 * T)) is Fraction and type(T / T) is int


def test_parse_grammar():
    assert parse_scalar("-1/3") == frac(-1, 3)
    assert parse_scalar("2*t") == frac(2) * T
    assert parse_scalar("t^2-1") == T * T - ONE
    assert parse_scalar("(t+1)*(t-1)") == T * T - ONE
    assert parse_scalar("0") == ZERO


def test_parse_rejects_garbage():
    for bad in ("x", "1++2", "(1", "t^"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_parse_rejects_deep_nesting_and_non_ascii_digits():
    # the parser recurses once per parenthesis and per unary minus; "\u00b2"
    # (superscript two) passes str.isdigit but not int()
    for bad in ("(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1",
                "\u00b2", "2\u00b3", "t^\u00b2"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)
    assert parse_scalar("(" * 40 + "t" + ")" * 40) == T
    assert parse_scalar("-" * 41 + "1/2") == frac(-1, 2)


def test_parse_bounds_powers():
    """A power is computed by repeated squaring, up to exponent MAX_POWER and
    degree MAX_POWER in t; beyond the bounds it is rejected at once."""
    assert parse_scalar("t^%d" % MAX_POWER) == parse_scalar(
        "*".join(["t"] * MAX_POWER))
    assert parse_scalar("(t^2)^128") == parse_scalar("t^256")
    assert parse_scalar("(t+1)^5") == parse_scalar("(t+1)*(t+1)^2*(t+1)^2")
    assert parse_scalar("(1/t)^256") == ONE / parse_scalar("t^256")
    assert parse_scalar("(-2/3)^3") == frac(-8, 27)
    assert parse_scalar("t^-2") == ONE / (T * T)
    assert parse_scalar("0^0") == ONE
    for bad in ("t^100000", "t^257", "2^257", "(t^2)^129", "(t^256)^256",
                "(t^256)^2", "(2^256)^256", "((2^256)^256)^256"):
        start = perf_counter()
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)
        assert perf_counter() - start < 0.5, bad


def test_plain_rational():
    for x in (Fraction(6, 3), 2):
        assert plain_rational(x) == 2 and type(plain_rational(x)) is int
    assert type(plain_rational(Fraction(-1, 3))) is Fraction
    assert plain_rational(Fraction(-1, 3)) == Fraction(-1, 3)


def test_exact_is_the_one_coercion():
    """A constant Scalar, an int or a Fraction becomes a plain rational, an
    int when integral; a Scalar that depends on t stays as it is; nothing
    else is a value."""
    for x in (frac(4, 2), Fraction(6, 3), 2):
        assert exact(x) == 2 and type(exact(x)) is int
    assert exact(frac(-1, 3)) == Fraction(-1, 3)
    assert type(exact(frac(-1, 3))) is Fraction
    assert exact(ZERO) == 0 and type(exact(ZERO)) is int
    assert exact(T) is T
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            exact(bad)


def test_inverse_keeps_the_representation():
    # 1 / 3 would be the float 0.333...
    assert inverse(3) == Fraction(1, 3) and type(inverse(3)) is Fraction
    assert inverse(Fraction(1, 2)) == 2 and type(inverse(Fraction(1, 2))) is int
    assert inverse(T) * T == 1
    with pytest.raises(ZeroDivisionError):
        inverse(0)
    with pytest.raises(ZeroDivisionError):
        inverse(Fraction(0))


def test_inverse_rejects_values_that_are_not_exact():
    # Fraction(1, None) is 1, so None must be refused before it gets there
    for bad in (None, 1.5, 2.0, "2", Scalar):
        with pytest.raises(TypeError):
            inverse(bad)


def test_parse_gives_plain_rationals():
    for text, value in (("3", 3), ("4/2", 2), ("1/2+1/2", 1), ("t-t", 0),
                        ("(t^2-t)/t-t", -1)):
        assert parse_scalar(text) == value and type(parse_scalar(text)) is int
    assert type(parse_scalar("-1/3")) is Fraction
    assert type(parse_scalar("2^-1")) is Fraction
    assert parse_scalar("t/2") == T * Fraction(1, 2)


def test_constant_scalar_hashes_as_its_rational():
    """A constant Scalar equals its rational, so it hashes the same way and
    finds the same dict entries."""
    assert {frac(2): 1}.get(2) == 1
    assert {2: 1}.get(frac(2)) == 1
    assert {Fraction(1, 2): 1}.get(frac(1, 2)) == 1
    assert hash(ZERO) == hash(0) and hash(ONE) == hash(1)
    assert T + 1 == parse_scalar("t+1") and hash(T + 1) == hash(parse_scalar("t+1"))


def test_parse_round_trip():
    for s in (frac(-7, 3), T, frac(2) * T + frac(1, 2), T * T - frac(3)):
        assert parse_scalar(str(s)) == s


def test_arithmetic_identities():
    xs = [frac(3, 4), T, T + frac(1, 2), (T + ONE) / (T - ONE), frac(-2)]
    for a in xs:
        for b in xs:
            assert a * b == b * a
            assert a + b == b + a
            if not b.is_zero():
                assert (a / b) * b == a
