"""Monomial bases of a sign algebra by recursion over the exponent
positions, one call per node of the enumeration tree: the oracle for the
tests, independent of the engine's level-by-level enumeration.  Packed
monomial keys are unpacked field by field, by division rather than by the
engine's shifts."""

from colorlie.dual import KEY_BITS


def monomial_basis(algebra, degree):
    """All exponent vectors of the given degree respecting the square caps,
    in lexicographic order."""
    if not algebra.n:
        return [()] if degree == 0 else []
    caps = [1 if i in algebra.square_zero else degree
            for i in range(algebra.n)]
    last = algebra.n - 1
    out = []

    def rec(prefix, remaining):
        pos = len(prefix)
        if pos == last:
            # the last exponent is whatever degree is left
            if 0 <= remaining <= caps[last]:
                out.append(prefix + (remaining,))
            return
        for a in range(min(caps[pos], remaining) + 1):
            rec(prefix + (a,), remaining - a)

    rec((), degree)
    return out


def unpack_key(key, n):
    """The exponent vector of a packed key: its n base-2^KEY_BITS digits,
    least significant first."""
    out = []
    for _ in range(n):
        key, a = divmod(key, 2 ** KEY_BITS)
        out.append(a)
    assert key == 0, "key has digits past position %d" % n
    return tuple(out)
