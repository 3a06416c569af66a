"""Reference probe: a fixed piece of pure-Python work that measures how fast
the host runs Python at the moment.

On a shared virtual machine the speed of a core can drift by a third within
minutes (seen on a 2-core VM), and wall times drift with it.  The benchmark
runs this probe between requests and multiplies each request's wall time by
REF_PROBE_S / (the probe's time around it), so that its times read as
milliseconds at the reference speed: the speed at which the probe takes
REF_PROBE_S.  The probe's work is the same in every run and
imports nothing from the engine, so a change to the engine does not change
it.  It mixes the engine's kinds of work: exact elimination over Fraction,
small objects, and dictionaries keyed by exponent tuples.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from time import perf_counter

REF_PROBE_S = 0.2

_N = 38
_rng = random.Random(20261018)
_MATRIX = tuple(tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 4))
                      for _ in range(_N)) for _ in range(_N))
_EXPONENTS = tuple(combinations_with_replacement(range(9), 6))


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _eliminate():
    m = [list(row) for row in _MATRIX]
    r = 0
    for c in range(_N):
        p = next((i for i in range(r, _N) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        for i in range(r + 1, _N):
            f = m[i][c] * inv
            if f:
                mi, mr = m[i], m[r]
                for j in range(c, _N):
                    mi[j] -= f * mr[j]
        r += 1
    return r


def _index():
    index = {}
    for k, mono in enumerate(_EXPONENTS):
        key = tuple(sorted(mono))
        cells = index.setdefault(key, [])
        cells.append(_Cell(k))
    return sum(len(v) for v in index.values())


def _work():
    rank = _eliminate()
    total = 0
    for _ in range(25):
        total += _index()
    return rank, total


EXPECTED = _work()


def probe():
    """Wall time of one pass of the reference work, in seconds."""
    start = perf_counter()
    result = _work()
    elapsed = perf_counter() - start
    if result != EXPECTED:
        raise AssertionError("reference probe computed %s, not %s"
                             % (result, EXPECTED))
    return elapsed


def scale(wall, before, after):
    """A wall time at the reference speed, given the probes around it."""
    return wall * 2 * REF_PROBE_S / (before + after)
