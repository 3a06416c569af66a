import random

import pytest

from colorlie import series
from colorlie.series import RationalSeries, abelian_closed_form, recognize


def test_recognize_one_plus_z_over_one_minus_z():
    rs = recognize([1] + [2] * 40)
    assert rs == RationalSeries([1, 1], [1, -1])


def test_recognize_polynomial_1_plus_z():
    rs = recognize([1, 1] + [0] * 20)
    assert rs == RationalSeries.polynomial([1, 1])
    assert rs.is_polynomial()


def test_recognize_cube():
    rs = recognize([1, 3, 3, 1] + [0] * 20)
    assert rs == RationalSeries.polynomial([1, 3, 3, 1])


def test_recognize_period_three():
    seq = RationalSeries([1, 1], [1, 0, 0, -1]).expand(40)
    assert recognize(seq) == RationalSeries([1, 1], [1, 0, 0, -1])


def test_recognize_requires_12_terms():
    with pytest.raises(ValueError):
        recognize([1, 2, 3])


def test_recognize_inconclusive_without_validation_window():
    # an order-6 pattern shown for barely one period: refuse to guess
    seq = [1, 1, 0, 1, 1, 0, 2, 1, 0, 1, 1, 1]
    assert recognize(seq) is None


def test_recognize_gives_up_on_noise_before_building_a_series(monkeypatch):
    # the fit of 81 random digits lasts to the last term, so no recurrence
    # can have held on 5 trailing terms; reducing its order-41 fraction over
    # Q once took more than a minute
    rng = random.Random(5)
    seq = [rng.randint(0, 9) for _ in range(81)]

    def refuse(*args):
        raise AssertionError("built a series that cannot validate")

    monkeypatch.setattr(series, "RationalSeries", refuse)
    assert recognize(seq) is None


def test_recognize_accepts_a_fit_on_exactly_five_trailing_terms():
    # 1 + z^3: the last nonzero discrepancy is at index 6 and nmax = 11, so
    # the reduced recurrence (order 0) held on 2*0 + 5 trailing terms, the
    # least the window accepts
    seq = [1, 0, 0, 1] + [0] * 8
    assert recognize(seq) == RationalSeries.polynomial([1, 0, 0, 1])
    assert recognize(seq + [0]) == RationalSeries.polynomial([1, 0, 0, 1])


def test_recognize_never_guesses_wrong_tail():
    seq = [1] * 12 + [7]
    rs = recognize(seq)
    assert rs is None or rs.expand(12) == seq


def test_abelian_closed_form_values():
    assert abelian_closed_form(3, 0).expand(4) == [1, 3, 3, 1, 0]
    assert abelian_closed_form(3, 3).expand(3) == [1, 3, 6, 10]
    assert abelian_closed_form(3, 1).expand(3) == [1, 3, 4, 4]
    with pytest.raises(ValueError):
        abelian_closed_form(2, 3)


def test_expand_examples():
    assert RationalSeries([1, 1], [1, -1]).expand(4) == [1, 2, 2, 2, 2]
    assert RationalSeries([1, 1], [1, 0, 0, -1]).expand(7) == \
        [1, 1, 0, 1, 1, 0, 1, 1]
    assert RationalSeries.polynomial([1, 0, 0, 1]).expand(4) == [1, 0, 0, 1, 0]


def test_expand_recognize_round_trip():
    series = [
        RationalSeries([1, 1], [1, -1]),
        RationalSeries([1], [1, -1]),
        RationalSeries([1, 1], [1, 0, 0, -1]),
        RationalSeries.polynomial([1, 2, 2, 1]),
        RationalSeries([1, 1], [1, 0, 0, 0, 0, 0, 0, 0, -1]),
    ]
    for rs in series:
        assert recognize(rs.expand(40)) == rs


def test_recognize_expand_round_trip_on_accepted_sequences():
    seqs = [
        [1, 2, 1] + [0] * 12,
        [1] * 20,
        [1, 1, 0, 0, 1, 1] + [0] * 12,
    ]
    for seq in seqs:
        rs = recognize(seq)
        assert rs is not None
        assert rs.expand(len(seq) - 1) == seq


def test_finite_sequences_recognize_to_polynomials():
    for seq in ([1] + [0] * 15, [1, 1, 1, 1] + [0] * 15, [2, 0, 5] + [0] * 12):
        rs = recognize(seq)
        assert rs is not None and rs.is_polynomial()


def test_canonical_form_constant_term_and_reduction():
    rs = RationalSeries([2, 2], [2, -2])
    assert rs.den[0] == 1
    assert rs == RationalSeries([1, 1], [1, -1])
    # common factors are removed: (1+z)/(1-z^2) = 1/(1-z)
    assert RationalSeries([1, 1], [1, 0, -1]) == RationalSeries([1], [1, -1])


def test_series_str():
    assert str(RationalSeries.polynomial([1, 0, 0, 1])) == "1+z^3"
    assert str(RationalSeries([1, 1], [1, -1])) == "(1+z)/(1-z)"
