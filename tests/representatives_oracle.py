"""Reference loop for the representative cocycles of one degree, with no
step skipped.

The engine's `representatives_from_differential` skips steps where their
result is known: it takes the unit vectors as the kernel of a d_n with no
nonzero column, a kernel vector that touches no pivot of the coboundary
rows as its own residue, and, where d_n d_(n-1) = 0, stops once it has
h_n classes.  This module keeps the loop those skips shortcut: the kernel
always from `rank_kernel`, every kernel vector always through `residue`,
and no stop before the last kernel vector, so comparing the two also
checks that the full loop finds no class past the h_n-th where d^2 = 0.
Tests compare them class by class, coefficient by coefficient and in the
same order.
"""

from __future__ import annotations

from colorlie.cohomology import CohomologyClass
from colorlie.dual import DgaElement
from colorlie.linalg import insert, rank_kernel, residue


def representatives(d, n):
    """The classes of degree n: each reduced-echelon kernel vector of
    d.matrix(n), reduced by the echelon rows of B^n (read off the kept
    forward pass of d.matrix(n - 1)) and of the classes before it."""
    if n > d.algebra.top_degree:
        return []
    if n == 0:
        basis, rows = d.matrix(0).col_basis, {}
    else:
        dm = d.matrix(n - 1)
        basis, rows = dm.row_basis, dm.matrix.pivot_rows
    if not basis:
        return []
    rows = dict(rows)
    _, kernel = rank_kernel(d.matrix(n).matrix)
    out = []
    for kv in kernel:
        r = residue(kv, rows)
        if r:
            out.append(CohomologyClass(n, DgaElement(
                d.algebra, {basis[i]: c for i, c in r.items()})))
            insert(rows, r)
    return out
