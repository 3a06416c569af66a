import random
from fractions import Fraction

import pytest
from bareiss import bareiss_pivots, bareiss_rank
from conftest import assert_canonical, assert_field_pivots, assert_field_types
from hypothesis import given, settings, strategies as st

from colorlie import linalg
from colorlie.linalg import (ExactMatrix, FIELD_Q, FIELD_QT, _pivot_rows,
                             echelon, echelon_span, image_basis, rank,
                             rank_kernel, residue)
from colorlie.scalars import ONE, Scalar, T, ZERO, as_scalar, exact


def M(rows):
    """ExactMatrix from dense rows of ints, Fractions or Scalars, each entry
    stored as `exact` gives it and zeros left out."""
    columns = [{} for _ in (rows[0] if rows else ())]
    for i, row in enumerate(rows):
        for col, x in zip(columns, row):
            x = exact(x)
            if x:
                col[i] = x
    return ExactMatrix(len(rows), columns)


def dense(vectors, length):
    """Dense rows of Scalars, the type the Bareiss oracle reads."""
    return [[as_scalar(v.get(i, ZERO)) for i in range(length)]
            for v in vectors]


def times(m, v):
    """M v as a dense column."""
    out = []
    for i in range(m.rows):
        acc = 0
        for j, x in v.items():
            acc = acc + m.columns[j].get(i, 0) * x
        out.append(acc)
    return out


def assert_reduced_echelon(rows):
    pivots = [min(row) for row in rows]
    assert pivots == sorted(set(pivots))
    for row in rows:
        assert type(row[min(row)]) is int and row[min(row)] == 1
        assert all(row.values())  # zeros never stored
        assert all(p not in row for p in pivots if p != min(row))


def assert_basis_of_span(basis, vectors, length, rk):
    """basis is the reduced echelon form of span(vectors), of rank rk."""
    assert_reduced_echelon(basis)  # so its rows are independent
    assert len(basis) == rk
    assert bareiss_rank(dense(vectors, length) + dense(basis, length)) == rk


def assert_kernel_contract(m, pivots):
    """Each kernel vector belongs to one free column c (a column in the span
    of the columns before it): the int 1 at c, zero on the other free
    columns, and M v = 0."""
    rk, kernel = rank_kernel(m)
    free = [c for c in range(m.cols) if c not in pivots]
    assert rk == len(pivots)
    assert len(kernel) == len(free)
    assert_field_types(kernel, m.field)
    for c, v in zip(free, kernel):
        assert not any(times(m, v))
        assert type(v[c]) is int and v[c] == 1
        assert all(f not in v for f in free if f != c)
        assert all(v.values())


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
    m = M(entries)
    generic = rank(m)
    agree = 0
    for _ in range(100):
        x = Fraction(rng.randrange(-30, 31), rng.randrange(1, 7))
        sub = M([[e.substitute(x) for e in row] for row in entries])
        if rank(sub) == generic:
            agree += 1
    assert agree >= 95


def test_field_follows_the_entries():
    assert M([[0, 0], [0, 0]]).field == FIELD_Q
    assert M([[0, Fraction(1, 2)], [0, 0]]).field == FIELD_Q
    m = M([[0, Fraction(1, 2)], [T, 0]])
    assert m.field == FIELD_QT
    assert m.transpose().field == FIELD_QT
    for b, field in (([[1, 0], [0, 0]], FIELD_QT), ([[0, 0], [0, 1]], FIELD_Q)):
        product = ExactMatrix(2, list(m.product_columns(M(b))))
        assert product.field == field
    m = M([[0, Fraction(1, 2)], [0, T / T]])  # a constant Scalar is the int 1
    assert type(m.columns[1].get(1, 0)) is int and m.field == FIELD_Q


def test_bareiss_on_polynomial_entries():
    m = M([[T, ONE], [T * T, T]])
    assert bareiss_rank(m.data) == 1
    assert rank(m) == 1


def test_zeros_are_not_stored():
    """The columns are the storage, taken as given: an absent entry reads
    as ZERO in `data`."""
    columns = [{}, {1: 2}]
    m = ExactMatrix(2, columns)
    assert m.columns is columns and m.cols == 2
    assert m.data == [[ZERO, ZERO], [ZERO, Scalar.from_fraction(2)]]
    assert M([[1, 0], [0, 2]]).transpose().columns == [{0: 1}, {1: 2}]
    with pytest.raises(ValueError):
        ExactMatrix(-1, [])


def test_rational_matrix_stores_plain_rationals_and_reads_scalars():
    """Over QQ an entry is stored as an int, or as a Fraction when it is
    not integral, and a zero is not stored; `data` gives Scalars."""
    m = M([[Scalar.from_fraction(3), Scalar.from_fraction(Fraction(-1, 2))],
           [Fraction(4, 2), 0]])
    assert m.columns == [{0: 3, 1: 2}, {0: Fraction(-1, 2)}]
    assert [type(x) for x in m.columns[0].values()] == [int, int]
    assert type(m.columns[1][0]) is Fraction
    assert all(type(x) is Scalar for row in m.data for x in row)
    assert m.data == [[Scalar.from_fraction(3), Scalar.from_fraction(
        Fraction(-1, 2))], [Scalar.from_fraction(2), ZERO]]


# -- the pivot is set to the int 1, not computed -------------------------

@pytest.mark.parametrize("x", [3, T / (T + ONE)], ids=["x0", "x1"])
def test_single_entry_pivot_is_canonical_one(x):
    rows = echelon([{2: x}])
    assert rows == {2: {2: 1}}
    assert type(rows[2][2]) is int


def test_integer_pivot_is_scaled_by_an_exact_inverse():
    """Over QQ a pivot 3 is inverted as the Fraction 1/3 (1 / 3 would be a
    float), and the pivot becomes the int 1."""
    m = M([[3, 0], [1, 3], [6, 3]])
    rows = echelon(m.columns)
    assert rows == {0: {0: 1, 2: Fraction(5, 3)}, 1: {1: 1, 2: 1}}
    assert_field_pivots(rows, FIELD_Q)
    rk, kernel = rank_kernel(M([[3, 1]]))
    assert (rk, kernel) == (1, [{0: Fraction(-1, 3), 1: 1}])
    assert_field_types(kernel, FIELD_Q)


def test_integral_fraction_pivot_becomes_the_int_one():
    """Arithmetic on Fractions can leave an integral Fraction; as a pivot it
    is replaced by the int 1 all the same."""
    rows = echelon([{0: Fraction(3, 3), 1: Fraction(1, 2)}, {0: 2, 2: 3}])
    assert rows == {0: {0: 1, 2: Fraction(3, 2)}, 1: {1: 1, 2: -3}}
    assert_field_pivots(rows, FIELD_Q)


def test_two_entry_row_is_scaled_by_its_pivot():
    x, y = T / (T + ONE), T * T - ONE
    rows = echelon([{1: x, 4: y}])
    assert rows == {1: {1: 1, 4: y / x}}
    assert type(rows[1][1]) is int
    assert rows[1][4] == (T + ONE) * (T * T - ONE) / T


def test_rank_kernel_of_diagonal_qt_matrix_with_zero_column():
    m = M([[T, 0, 0], [0, 0, 0], [0, 0, ONE / (T - ONE)]])
    rk, kernel = rank_kernel(m)
    assert rk == 2
    assert kernel == [{1: ONE}]
    assert echelon(m.columns) == {0: {0: ONE}, 2: {2: ONE}}


def test_residue_clears_a_pivot_reached_only_through_fill():
    """{0: 1} meets pivot 1 only after row 0, unreduced, is subtracted."""
    rows = _pivot_rows([{0: 1, 1: 1}, {1: 1, 2: 1}])
    assert rows == {0: {0: 1, 1: 1}, 1: {1: 1, 2: 1}}
    assert residue({0: 1}, rows) == {2: 1}
    assert residue({0: 1}, echelon(rows.values())) == {2: 1}


def test_scaled_rows_hold_integral_entries_as_ints():
    """Scaling by the pivot 2 divides ints by an int: 4 / 2 is the int 2,
    3 / 2 the Fraction.  A residue with the pivot 1 keeps its entries, but
    1/2 - (-1/2) is stored as the int 1.  A column that touches no pivot is
    stored as a copy, so reducing the rows leaves it as it was."""
    rows = _pivot_rows([{0: 2, 1: 4, 2: 3}])
    assert rows == {0: {0: 1, 1: 2, 2: Fraction(3, 2)}}
    assert type(rows[0][1]) is int
    rows = _pivot_rows([{0: 1, 2: Fraction(-1, 2)},
                        {0: 1, 1: 1, 2: Fraction(1, 2)}])
    assert rows[1] == {1: 1, 2: 1} and type(rows[1][2]) is int
    columns = [{0: 1, 1: 1}, {1: 1}]
    assert echelon(columns) == {0: {0: 1}, 1: {1: 1}}
    assert columns == [{0: 1, 1: 1}, {1: 1}]


def test_rank_does_not_reduce_earlier_rows(monkeypatch):
    """rank is one forward pass.  On the columns e_j + e_(j+1) (j < n) and
    e_0, whose residue runs through every pivot, it makes about one row
    update per column; reducing each new pivot out of the earlier rows
    would make n (n - 1) / 2."""
    calls = []
    add_multiple = linalg._add_multiple

    def counted(*args):
        calls.append(args)
        return add_multiple(*args)

    monkeypatch.setattr(linalg, "_add_multiple", counted)
    for n in (100, 200):
        m = ExactMatrix(n + 1, [{j: 1, j + 1: 1} for j in range(n)] + [{0: 1}])
        calls.clear()
        assert rank(m) == n + 1
        assert len(calls) <= 2 * n


def test_matrix_keeps_its_forward_pass(monkeypatch):
    """The pass over the columns runs once, on first use, and rank reads
    the kept one."""
    calls = []
    pivot_rows = linalg._pivot_rows

    def counted(vectors):
        calls.append(1)
        return pivot_rows(vectors)

    monkeypatch.setattr(linalg, "_pivot_rows", counted)
    m = M([[1, 2], [2, 4]])
    assert calls == []
    assert rank(m) == rank(m) == 1
    assert m.pivot_rows is m.pivot_rows == {0: {0: 1, 1: 2}}
    assert len(calls) == 1


def test_product_and_zero_test():
    a = M([[1, 2], [0, 1]])
    b = M([[2, -2], [-1, 1]])
    assert list(a.product_columns(b)) == M([[0, 0], [-1, 1]]).columns
    assert not any(M([[0, 0]]).columns) and any(a.columns)


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
    assert_field_pivots(echelon(m.columns), m.field)
    assert_basis_of_span(image_basis(m), m.columns, m.rows, len(pivots))
    rows = m.transpose().columns
    assert_basis_of_span(echelon_span(rows), rows, m.cols, len(pivots))


def _check_forward_pass(m):
    """rank counts the pivots of the matrix's kept forward pass, which are
    echelon's; residues against the unreduced rows equal those against the
    reduced ones (each unit vector reaches the later pivots of its row only
    through fill)."""
    rows = _pivot_rows(m.columns)
    reduced = echelon(m.columns)
    assert rank(m) == len(rows)
    assert m.pivot_rows == rows
    assert sorted(rows) == sorted(reduced)
    assert all(min(row) == p for p, row in rows.items())
    assert_field_pivots(rows, m.field)
    for i in range(m.rows):
        r = residue({i: 1}, rows)
        assert r == residue({i: 1}, reduced)
        assert not any(p in r for p in rows)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(RATIONALS))
def test_sparse_elimination_matches_bareiss_over_q(m):
    _check_against_oracle(m)
    _check_forward_pass(m)


@settings(max_examples=30, deadline=None)
@given(sparse_matrices(RATIONAL_FUNCTIONS, max_dim=24))
def test_sparse_elimination_matches_bareiss_over_qt(m):
    _check_against_oracle(m)
    _check_forward_pass(m)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(RATIONALS))
def test_echelon_rows_are_canonical_over_q(m):
    """Every entry of the forward pass's rows and of the reduced rows, of
    the columns and of the rows of m, is an int when it is integral: so
    are quotients by the pivot and sums of Fractions."""
    for vectors in (m.columns, m.transpose().columns):
        for rows in (_pivot_rows(vectors), echelon(vectors)):
            for row in rows.values():
                assert_canonical(row.values(), FIELD_Q)
