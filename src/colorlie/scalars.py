"""Exact scalars: rational numbers and rational functions in one parameter t.

All arithmetic is exact, and every value has one representation.  A
rational is a plain int when it is integral and a Fraction otherwise; a
value that depends on t is a Scalar, a pair (num, den) of polynomials in the
parameter symbol ``t`` whose coefficients are plain rationals too, kept in
canonical form: num/den coprime, den monic.  Equality of canonical forms is
decidable by structural comparison.  Scalar arithmetic takes plain operands
and returns a plain rational whenever its result is constant, so the engine
holds a Scalar only where t appears.  `exact` is the one coercion into that
representation; `as_scalar` turns a value back into a Scalar for code that
reads every value as one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

PARAM = "t"

# Polynomials are tuples of plain rationals (an int when integral, else a
# Fraction), ascending degree, no trailing zeros.  Every division goes
# through `inverse`, since / on two ints is a float.
PZERO: tuple = ()
PONE = (1,)


def ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return ptrim([plain_rational(x + y) for x, y in zip(a, b)]
                 + list(a[len(b):]))


def pneg(a):
    return tuple(-x for x in a)


def pmul(a, b):
    if not a or not b:
        return PZERO
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:  # a nonzero constant scales each coefficient
        return _scaled(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim([plain_rational(x) for x in out])


def pdivmod(a, b):
    """Polynomial division over the rationals; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("division by zero")
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    inv = 1 if b[-1] == 1 else inverse(b[-1])
    while len(r) >= len(b):
        c = plain_rational(r[-1] * inv)
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[d + i] = plain_rational(r[d + i] - c * y)
        while r and r[-1] == 0:
            r.pop()
    return ptrim(q), ptrim(r)


def pmonic(a):
    return a if not a or a[-1] == 1 else _scaled(a, inverse(a[-1]))


def pgcd(a, b):
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def peval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def pstr(a, var=PARAM):
    """Render ascending-coefficient polynomial, e.g. ``t^2-1``."""
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            v = var if i == 1 else "%s^%d" % (var, i)
            if c == 1:
                term = v
            elif c == -1:
                term = "-" + v
            else:
                term = "%s*%s" % (c, v)
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += term if term.startswith("-") else "+" + term
    return out


class Scalar:
    """A rational function of the parameter t.  The engine makes a Scalar only
    for a value that depends on t: arithmetic takes ints and Fractions as
    operands, and every result that is constant comes back as one."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=PONE, _canonical=False):
        if _canonical:
            self.num = num
            self.den = den
            return
        if not den:
            raise ZeroDivisionError("division by zero")
        if not num:
            self.num = PZERO
            self.den = PONE
            return
        if den == PONE:
            self.num = num
            self.den = PONE
            return
        g = pgcd(num, den)
        if len(g) > 1:
            num = pdivmod(num, g)[0]
            den = pdivmod(den, g)[0]
        lc = den[-1]
        if lc != 1:
            inv = inverse(lc)
            num = _scaled(num, inv)
            den = _scaled(den, inv)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(q):
        """A constant Scalar, for code that reads values as Scalars."""
        q = plain_rational(Fraction(q))
        return Scalar((q,) if q else PZERO, PONE, _canonical=True)

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.num

    def depends_on_param(self):
        return len(self.num) > 1 or len(self.den) > 1

    def as_fraction(self):
        if self.depends_on_param():
            raise ValueError("scalar %s is not a rational number" % self)
        return Fraction(self.num[0] if self.num else 0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            # num/den + q = (num + q den)/den: still coprime, den still monic
            return exact(Scalar(padd(self.num, _scaled(self.den, other)),
                                self.den, _canonical=True))
        a, ad = self.num, self.den
        b, bd = other.num, other.den
        if ad == PONE and bd == PONE:
            return exact(Scalar(padd(a, b)))
        return exact(Scalar(padd(pmul(a, bd), pmul(b, ad)), pmul(ad, bd)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            # q num/den: still coprime, den still monic
            num = _scaled(self.num, other)
            return exact(Scalar(num, self.den, _canonical=True)) if num else 0
        if not other.num:
            return 0
        return exact(Scalar(pmul(self.num, other.num),
                            pmul(self.den, other.den)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return self * inverse(other)
        return exact(Scalar(pmul(self.num, other.den),
                            pmul(self.den, other.num)))

    def __rtruediv__(self, other):
        if not self.num:
            raise ZeroDivisionError("division by zero")
        # q den/num, both divided by num's leading coefficient: still
        # coprime, and the new den is monic
        num = _scaled(self.den, other * inverse(self.num[-1]))
        if not num:
            return 0
        return exact(Scalar(num, pmonic(self.num), _canonical=True))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.depends_on_param() and self.as_fraction() == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes as the rational it equals
        if not self.depends_on_param():
            return hash(self.as_fraction())
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def substitute(self, value):
        """Evaluate at t = value (a Fraction) as a plain rational; error at
        a pole."""
        value = Fraction(value)
        d = peval(self.den, value)
        if d == 0:
            raise ZeroDivisionError("pole of %s at t=%s" % (self, value))
        return plain_rational(peval(self.num, value) / d)

    def __str__(self):
        if not self.depends_on_param():
            return str(self.as_fraction())
        ns = pstr(self.num)
        if self.den == PONE:
            return ns
        ds = pstr(self.den)
        if len([c for c in self.num if c != 0]) > 1:
            ns = "(%s)" % ns
        return "%s/(%s)" % (ns, ds)

    def __repr__(self):
        return "Scalar(%s)" % self


def _rational(q):
    """q when it is an int or Fraction; TypeError otherwise."""
    if not isinstance(q, (int, Fraction)):
        raise TypeError("cannot use %r as a scalar" % (q,))
    return q


def _scaled(a, q):
    """The polynomial a times an int or Fraction q."""
    if not _rational(q):
        return PZERO
    if a == PONE:
        return (plain_rational(q),)
    return a if q == 1 else tuple(plain_rational(x * q) for x in a)


def plain_rational(q):
    """An int or Fraction q as an int when it is integral, else as a
    Fraction."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


def exact(x):
    """x as the engine holds it (the one coercion): a Scalar when x depends
    on t, else an int when integral and a Fraction otherwise; TypeError for
    anything but an int, Fraction or Scalar.  An int, the common case,
    returns before the type tests."""
    if type(x) is int:
        return x
    if isinstance(x, Scalar):
        if x.depends_on_param():
            return x
        return x.num[0] if x.num else 0
    if isinstance(x, (int, Fraction)):
        return plain_rational(x)
    raise TypeError("cannot coerce %r to an exact scalar" % (x,))


def as_scalar(x):
    """x as a Scalar, for code that reads every value as one (the engine
    does not); TypeError as for `exact`."""
    x = exact(x)
    return x if isinstance(x, Scalar) else Scalar.from_fraction(x)


def inverse(x):
    """1/x in the representation x has: over Q an int or Fraction (1 / x
    would be a float on ints), over Q(t) a Scalar; TypeError for anything
    else, ZeroDivisionError for 0."""
    if isinstance(x, Scalar):
        return 1 / x
    return plain_rational(Fraction(1, _rational(x)))


def quotient(y, x):
    """y / x for a nonzero x, an int whenever it is integral: an int over
    an int by divmod, anything else by the operands' own division."""
    if type(y) is int and type(x) is int:
        q, r = divmod(y, x)
        return Fraction(y, x) if r else q
    z = y / x
    return z.numerator if type(z) is Fraction and z.denominator == 1 else z


def common_denominator(values):
    """D for a collection of engine values: the lcm of the denominators of
    its Fractions, 1 when there are none; ints and Scalars do not
    contribute.  The rescaling e_i -> D e_i of a color Lie algebra whose
    coefficients these are gives an isomorphic algebra whose rational
    coefficients are ints, so the engine runs its Q hot loops on D c
    (`times_denominator`).  This is the one place that decides D."""
    return lcm(*(c.denominator for c in values if type(c) is Fraction))


def times_denominator(c, den):
    """c den for an engine value c and an int den that c's denominator
    divides: an int for a rational c, with no Fraction product, and a
    Scalar for a Scalar."""
    if type(c) is Fraction:
        return c.numerator * (den // c.denominator)
    return c * den


ZERO = Scalar(PZERO, PONE, _canonical=True)
ONE = Scalar(PONE, PONE, _canonical=True)
T = Scalar((0, 1), PONE, _canonical=True)  # the parameter symbol t


# -- text grammar -----------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := '-' factor | atom ('^' INT)?
# atom   := INT | 't' | '(' expr ')'


class ScalarParseError(ValueError):
    pass


# Bounds on a power x^INT: the exponent, the degree in t of the result, and
# (roughly) the bit length of its coefficients.  Within them a power takes
# milliseconds; without them one line of input could take unbounded time and
# memory.
MAX_POWER = 256
MAX_POWER_BITS = 1 << 16


def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif "0" <= c <= "9":  # str.isdigit also takes digits int() rejects
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            toks.append(("int", text[i:j]))
            i = j
        elif c in "+-*/^()":
            toks.append((c, c))
            i += 1
        elif c == PARAM:
            toks.append(("t", c))
            i += 1
        else:
            raise ScalarParseError("unexpected character %r in scalar %r" % (c, text))
    return toks


def parse_scalar(text):
    """Parse the scalar grammar: INT, INT/INT, t, t^INT, sums/products, parens.

    A plain literal, -?INT or -?INT/INT in ASCII digits (every rational that
    data/algebras/ and perfbench/gen.py write), is read straight into an int
    or a Fraction, with the grammar's value, type and errors; any other
    text, a zero denominator included, goes to the grammar."""
    negative = text[:1] == "-"
    num, slash, den = (text[1:] if negative else text).partition("/")
    if num.isdigit() and num.isascii() and (
            not slash or den.isdigit() and den.isascii()):
        p = -int(num) if negative else int(num)
        if not slash:
            return p
        q = int(den)
        if q:
            return plain_rational(Fraction(p, q))
    toks = _tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]][0] if pos[0] < len(toks) else None

    def take(kind=None):
        if pos[0] >= len(toks):
            raise ScalarParseError("unexpected end of scalar %r" % text)
        k, v = toks[pos[0]]
        if kind is not None and k != kind:
            raise ScalarParseError("expected %s at %r in %r" % (kind, v, text))
        pos[0] += 1
        return v

    def atom():
        k = peek()
        if k == "int":
            return int(take())
        if k == "t":
            take()
            return T
        if k == "(":
            take()
            v = expr()
            take(")")
            return v
        raise ScalarParseError("malformed scalar %r" % text)

    def factor():
        if peek() == "-":
            take()
            return -factor()
        v = atom()
        if peek() == "^":
            take()
            neg = False
            if peek() == "-":
                take()
                neg = True
            e = int(take("int"))
            # v^e has degree e * degree(v) and coefficients of about
            # e * bits(v) bits; bound both before computing it
            s = as_scalar(v)
            degree = max(len(s.num), len(s.den)) - 1
            bits = max(max(abs(c.numerator).bit_length(),
                           c.denominator.bit_length()) for c in s.num + s.den)
            if (e > MAX_POWER or e * degree > MAX_POWER
                    or e * bits > MAX_POWER_BITS):
                raise ScalarParseError(
                    "power too large in scalar %r: exponent and degree in t"
                    " are at most %d, coefficients at most %d bits"
                    % (text, MAX_POWER, MAX_POWER_BITS))
            out = 1
            while e:  # by repeated squaring
                if e & 1:
                    out = out * v
                e >>= 1
                if e:
                    v = v * v
            v = inverse(out) if neg else out
        return v

    def term():
        v = factor()
        while peek() in ("*", "/"):
            op = take()
            w = factor()
            v = v * w if op == "*" else v * inverse(w)
        return v

    def expr():
        v = term()
        while peek() in ("+", "-"):
            op = take()
            w = term()
            v = v + w if op == "+" else v - w
        return v

    try:
        out = expr()
    except RecursionError:
        # nested parentheses and unary minus recurse once per level
        raise ScalarParseError("scalar nests too deeply") from None
    if pos[0] != len(toks):
        raise ScalarParseError("trailing input in scalar %r" % text)
    return exact(out)
