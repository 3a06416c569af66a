import random
from fractions import Fraction

import pytest
from bareiss import bareiss_pivots, bareiss_rank
from hypothesis import given, settings, strategies as st

from colorlie.linalg import (ExactMatrix, FIELD_Q, FIELD_QT,
                             MixedScalarKindError, echelon_span, image_basis,
                             rank, rank_kernel)
from colorlie.scalars import ONE, Scalar, T, ZERO


def M(rows, field=None):
    """ExactMatrix from dense rows of ints, Fractions or Scalars; the field is
    QQ(t) when an entry depends on t, unless given."""
    rows = [[x if isinstance(x, Scalar) else Scalar.from_fraction(Fraction(x))
             for x in row] for row in rows]
    if field is None:
        field = FIELD_QT if any(x.depends_on_param()
                                for row in rows for x in row) else FIELD_Q
    m = ExactMatrix(len(rows), len(rows[0]) if rows else 0, field=field)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            m[i, j] = x
    return m


def dense(vectors, length):
    return [[v.get(i, ZERO) for i in range(length)] for v in vectors]


def times(m, v):
    """M v as a dense column."""
    out = []
    for i in range(m.rows):
        acc = ZERO
        for j, x in v.items():
            acc = acc + m[i, j] * x
        out.append(acc)
    return out


def assert_reduced_echelon(rows):
    pivots = [min(row) for row in rows]
    assert pivots == sorted(set(pivots))
    for row in rows:
        assert row[min(row)] == ONE
        assert all(not x.is_zero() for x in row.values())  # zeros never stored
        assert all(p not in row for p in pivots if p != min(row))


def assert_basis_of_span(basis, vectors, length, rk):
    """basis is the reduced echelon form of span(vectors), of rank rk."""
    assert_reduced_echelon(basis)  # so its rows are independent
    assert len(basis) == rk
    assert bareiss_rank(dense(vectors, length) + dense(basis, length)) == rk


def assert_kernel_contract(m, pivots):
    """Each kernel vector belongs to one free column c (a column in the span
    of the columns before it): entry ONE at c, zero on the other free
    columns, and M v = 0."""
    rk, kernel = rank_kernel(m)
    free = [c for c in range(m.cols) if c not in pivots]
    assert rk == len(pivots)
    assert len(kernel) == len(free)
    for c, v in zip(free, kernel):
        assert all(x.is_zero() for x in times(m, v))
        assert v[c] == ONE
        assert all(f not in v for f in free if f != c)
        assert all(not x.is_zero() for x in v.values())


def test_zero_matrix_kernel_is_identity():
    m = M([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    rk, kernel = rank_kernel(m)
    assert rk == 0
    assert kernel == [{0: ONE}, {1: ONE}, {2: ONE}]


def test_proportional_rows():
    m = M([[1, 2], [2, 4]])
    rk, kernel = rank_kernel(m)
    assert rk == 1
    # kernel spanned by (-2, 1)
    assert kernel == [{0: Scalar.from_fraction(-2), 1: ONE}]


def test_rank_plus_nullity():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = M([[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)])
        assert_kernel_contract(m, bareiss_pivots(m.data))


def test_image_basis_identity_and_zero():
    basis = image_basis(M([[1, 0], [0, 1]]))
    assert basis == [{0: ONE}, {1: ONE}]
    assert image_basis(M([[0, 0], [0, 0]])) == []


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for _ in range(50):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = M([[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) == rank(m.transpose())


def test_bareiss_agrees_with_naive_on_200_random_matrices():
    rng = random.Random(2024)
    for _ in range(200):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = M([[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)])
        assert bareiss_rank(m.data) == rank(m)


def test_parametric_rank_matches_random_substitutions():
    rng = random.Random(5)
    entries = [
        [T, ONE, T + ONE],
        [T * T, T, ZERO],
        [ONE, ONE, T],
    ]
    m = M(entries, field=FIELD_QT)
    generic = rank(m)
    agree = 0
    for _ in range(100):
        x = Fraction(rng.randrange(-30, 31), rng.randrange(1, 7))
        sub = M([[e.substitute(x) for e in row] for row in entries])
        if rank(sub) == generic:
            agree += 1
    assert agree >= 95


def test_mixed_kind_rejected():
    with pytest.raises(MixedScalarKindError):
        M([[T, ONE]], field=FIELD_Q)


def test_bareiss_on_polynomial_entries():
    m = M([[T, ONE], [T * T, T]], field=FIELD_QT)
    assert bareiss_rank(m.data) == 1
    assert rank(m) == 1


def test_zeros_are_not_stored():
    m = M([[1, 0], [0, 2]])
    m[0, 0] = 0
    assert m.columns == [{}, {1: Scalar.from_fraction(2)}]
    assert m.data == [[ZERO, ZERO], [ZERO, Scalar.from_fraction(2)]]


def test_product_and_zero_test():
    a = M([[1, 2], [0, 1]])
    b = M([[2, -2], [-1, 1]])
    assert a.mul(b).data == M([[0, 0], [-1, 1]]).data
    assert M([[0, 0]]).is_zero() and not a.is_zero()


# -- properties against the Bareiss oracle ------------------------------

RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
    lambda q: q != 0).map(Scalar.from_fraction)
RATIONAL_FUNCTIONS = st.builds(
    lambda a, b, c: (a * T + b) / (T + c), RATIONALS, RATIONALS, RATIONALS)


@st.composite
def sparse_matrices(draw, entries, max_dim=40):
    """Matrices up to max_dim x max_dim with a few nonzero entries (down to
    about 1 % on the large shapes), plus rows that copy a combination of
    two other rows so that the rank drops."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        entries, max_size=min(rows * cols, 3 * max_dim)))
    data = [[ZERO] * cols for _ in range(rows)]
    for (i, j), x in cells.items():
        data[i][j] = x
    for target, a, b, c in draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, rows - 1),
            st.integers(0, rows - 1), entries), max_size=3)):
        data[target] = [x + c * y for x, y in zip(data[a], data[b])]
    return M(data)


def _check_against_oracle(m):
    pivots = bareiss_pivots(m.data)
    assert rank(m) == len(pivots)
    assert_kernel_contract(m, pivots)
    assert_basis_of_span(image_basis(m), m.columns, m.rows, len(pivots))
    rows = m.transpose().columns
    assert_basis_of_span(echelon_span(rows), rows, m.cols, len(pivots))


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(RATIONALS))
def test_sparse_elimination_matches_bareiss_over_q(m):
    _check_against_oracle(m)


@settings(max_examples=30, deadline=None)
@given(sparse_matrices(RATIONAL_FUNCTIONS, max_dim=24))
def test_sparse_elimination_matches_bareiss_over_qt(m):
    _check_against_oracle(m)
