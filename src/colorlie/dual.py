"""Sign algebras A_{J,Q}, their quadratic duals, monomial bases and Hilbert
series.

A sign algebra has generators f_1..f_n, relations f_i^2 = 0 for i in J,
commuting pairs Q and anticommuting pairs P - Q.  Monomials are exponent
vectors in ascending generator order; sorting signs are a pure function of
the exponent vectors.

`dual_of` returns one SignAlgebra object per sign algebra for the whole
process, so everything the algebra builds on first use and keeps, its
degree records and the sign data of each Koszul term, is built once for
every algebra g with that sign matrix and every request on it.  It finds
that object by a key read off the sign matrix, n and one bit per diagonal
and upper entry, without building a SignAlgebra, so the table holds at most
2^(n(n+1)/2) entries on n generators, 64 for n = 3, whatever the entries
of an unvalidated matrix are.  A SignAlgebra(n, J, Q) built directly is a
private object with its own records.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf

from .scalars import exact
from .series import abelian_closed_form

# Bits per exponent in a packed monomial key sum(a_i << (KEY_BITS * i)):
# a degree below 1 << KEY_BITS keeps every exponent in its own field.
KEY_BITS = 16

# One degree of a sign algebra: its monomial basis in lexicographic order,
# the parity bitmask sum((a_i & 1) << i) and the packed key of each basis
# monomial a, and the index key -> position in the basis.
DegreeRecord = namedtuple("DegreeRecord", "basis odds keys index")


class SignAlgebra:
    def __init__(self, n, square_zero, commuting):
        self.n = n
        self.square_zero = frozenset(square_zero)
        self.commuting = frozenset(tuple(sorted(p)) for p in commuting)
        for i in self.square_zero:
            if not 0 <= i < n:
                raise ValueError("square_zero index out of range")
        for (i, j) in self.commuting:
            if not (0 <= i < j < n):
                raise ValueError("commuting pair out of range")
        # degree -> DegreeRecord, filled by degree_record
        self._degrees = {}
        # (i, j, k) -> the term shape of c f_i f_j in d f_k, filled by
        # term_shape
        self._shapes = {}

    @property
    def top_degree(self):
        """The largest degree with a monomial: n when every generator is
        square-zero (an exterior algebra), else unbounded."""
        return self.n if len(self.square_zero) == self.n else inf

    def __eq__(self, other):
        return (isinstance(other, SignAlgebra) and self.n == other.n
                and self.square_zero == other.square_zero
                and self.commuting == other.commuting)

    def __hash__(self):
        return hash((self.n, self.square_zero, self.commuting))

    def __repr__(self):
        return "SignAlgebra(n=%d, J=%s, Q=%s)" % (
            self.n, sorted(self.square_zero), sorted(self.commuting))

    def degree_record(self, degree):
        """The DegreeRecord of one degree: built on first use by one
        enumeration and kept, so every caller on this algebra object,
        every differential built on it included, reads the same lists and
        index; read-only.

        The basis lists all exponent vectors of the given degree respecting
        the square caps, in lexicographic order.  It is built one position
        at a time: each level extends every prefix, in order, by each
        exponent that its remaining degree allows, so the levels stay
        lexicographic, and carries the prefix's parity bitmask and packed
        key along.  The last two positions are filled together, the last
        one with whatever degree is left.  Past top_degree the record is
        empty and nothing is enumerated.  ValueError for a degree of
        1 << KEY_BITS or more, whose exponents would overflow their key
        fields, checked first."""
        record = self._degrees.get(degree)
        if record is not None:
            return record
        if degree >= 1 << KEY_BITS:
            raise ValueError("degree %d is past the largest packed degree %d"
                             % (degree, (1 << KEY_BITS) - 1))
        n = self.n
        caps = [1 if i in self.square_zero else degree for i in range(n)]
        if degree > self.top_degree:
            basis, odds, keys = [], [], []
        elif n < 2:
            fits = 0 <= degree <= caps[0] if n else degree == 0
            basis = [(degree,) * n] if fits else []
            odds = [degree & 1] * len(basis)
            keys = [degree] * len(basis)
        else:
            level = [((), degree, 0, 0)]
            for i, cap in enumerate(caps[:-2]):
                at = KEY_BITS * i
                level = [(prefix + (a,), left - a, odd | ((a & 1) << i),
                          key | (a << at))
                         for prefix, left, odd, key in level
                         for a in range(min(cap, left) + 1)]
            cap, last = caps[-2:]
            at = KEY_BITS * (n - 2)
            at_last = at + KEY_BITS
            basis, odds, keys = [], [], []
            for prefix, left, odd, key in level:
                for a in range(max(0, left - last), min(cap, left) + 1):
                    b = left - a
                    basis.append(prefix + (a, b))
                    odds.append(odd | (a & 1) << (n - 2) | (b & 1) << (n - 1))
                    keys.append(key | a << at | b << at_last)
        record = self._degrees[degree] = DegreeRecord(
            basis, odds, keys, {key: i for i, key in enumerate(keys)})
        return record

    def term_shape(self, i, j, k):
        """The sign data (KEY_BITS k, qmask, shift, w, u, cap) of a term
        c f_i f_j, i <= j, of d f_k on this algebra as A^!, in the notation
        of the `differential` module's docstring: shift is m - e_k as a
        packed key, qmask reads q = [a_k]_rho off a key, w and cap are
        bitmasks.  () where f_i^2 = 0, i == j square-zero: no term.  It
        does not depend on c, so it is built on first use and kept, like
        the degree records, for every differential on this object;
        read-only."""
        shape = self._shapes.get((i, j, k))
        if shape is not None:
            return shape
        n, capped = self.n, self.square_zero
        if i == j and i in capped:
            shape = ()
        else:
            # flip(x, y) = 1 when f_x and f_y anticommute
            flip = [[x < y and (x, y) not in self.commuting
                     for y in range(n)] for x in range(n)]
            left = [flip[i][x] + flip[j][x] for x in range(n)]
            right = [flip[x][i] + flip[x][j] for x in range(n)]
            w = 0
            for x in range(n):
                bit = left[x] + 1 + flip[x][k] if x < k else right[x]
                w |= bit % 2 << x
            # rho = -(-1)^(left_k + right_k): +1 reads a_k, -1 its parity
            qmask = (1 << KEY_BITS) - 1 if (left[k] + right[k]) % 2 else 1
            shift = ((1 << KEY_BITS * i) + (1 << KEY_BITS * j)
                     - (1 << KEY_BITS * k))
            cap = sum(1 << x for x in {i, j} - {k} if x in capped)
            shape = (KEY_BITS * k, qmask, shift, w, right[k] % 2, cap)
        self._shapes[(i, j, k)] = shape
        return shape

    def monomial_basis(self, degree):
        """All exponent vectors of the given degree respecting the square
        caps, in lexicographic order: the basis of degree_record(degree),
        shared and read-only."""
        return self.degree_record(degree).basis

    def hilbert_series(self):
        """Closed form (1+z)^|J| / (1-z)^(n-|J|).

        The exponent roles are fixed by the enumeration oracle: capped
        generators contribute (1+z), free ones 1/(1-z); the degree-d
        coefficient equals len(monomial_basis(d)).  This closed form gives
        the Betti numbers of a zero differential (`betti_from_differential`);
        enumerating the bases is the tests' second route to them.
        """
        return abelian_closed_form(self.n, self.n - len(self.square_zero))


def quadratic_dual(a):
    """A_{J,Q}^! = A_{[n]-J, P-Q}; an involution."""
    allpairs = {(i, j) for i in range(a.n) for j in range(i + 1, a.n)}
    return SignAlgebra(a.n, set(range(a.n)) - a.square_zero,
                       allpairs - a.commuting)


# (n, bitmask) -> the one object dual_of returns for that sign algebra in
# the process (module docstring)
_DUALS = {}


def dual_of(g):
    """The quadratic dual of U(g_Ab), read straight off the sign matrix:
    f_k is square-zero unless eps(e_k, e_k) = -1, and f_i, f_j (i < j)
    commute unless eps(e_i, e_j) = +1.  So quadratic_dual(dual_of(g)) is
    U(g_Ab) itself: J = {k : eps(e_k, e_k) = -1}, Q = {(i, j) : eps(e_i,
    e_j) = +1}.

    Every call with the same dual returns the same object for the whole
    process, with the degree records and term shapes that earlier callers
    built on it, so it is read-only.  The object is looked up by the key
    (n, mask), mask holding one bit per entry s_ij, i <= j, in row order:
    set where s_kk != -1 (f_k square-zero) or s_ij != +1 (f_i, f_j
    commute), the two tests that build the dual.  Equal keys give equal
    duals and distinct keys distinct ones, so at most 2^(n(n+1)/2) objects
    are kept on n generators, whatever the entries, each with its records
    up to the highest degree any caller asked of it.  A SignAlgebra is
    built only for a key not seen before."""
    n, s = g.n, g.cm.s
    mask = 0
    for i, row in enumerate(s):
        mask = mask << 1 | (row[i] != -1)
        for x in row[i + 1:]:
            mask = mask << 1 | (x != 1)
    alg = _DUALS.get((n, mask))
    if alg is None:
        alg = _DUALS[n, mask] = SignAlgebra(
            n, [k for k in range(n) if s[k][k] != -1],
            [(i, j) for i in range(n) for j in range(i + 1, n)
             if s[i][j] != 1])
    return alg


class DgaElement:
    """Exact linear combination of monomials of a sign algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = {}
        for mono, c in coeffs.items():
            if c:
                self.coeffs[tuple(mono)] = exact(c)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, DgaElement) and self.algebra == other.algebra
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.coeffs.items()))))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            c = self.coeffs[m]
            name = monomial_str(m)
            if c == 1:
                parts.append(name)
            elif c == -1 and name != "1":
                parts.append("-" + name)
            else:
                cs = str(c)
                if any(op in cs[1:] for op in "+-"):
                    cs = "(%s)" % cs
                parts.append(cs if name == "1" else "%s*%s" % (cs, name))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    __repr__ = __str__


def monomial_str(m):
    if not any(m):
        return "1"
    parts = []
    for i, a in enumerate(m):
        if a == 1:
            parts.append("f%d" % (i + 1))
        elif a > 1:
            parts.append("f%d^%d" % (i + 1, a))
    return "*".join(parts)
