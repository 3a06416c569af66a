from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (assert_engine_values_exact, assert_exact,
                      serialize_algebra)

from colorlie import catalog
from colorlie.algebra import CommutationMatrix
from colorlie.differential import check_d_squared, differential_from_brackets
from colorlie.files import parse_algebra_file, parse_algebra_text
from colorlie.pbw import groebner_check, uea_relations
from colorlie.scalars import ONE, Scalar, ZERO

ANTI = Scalar.from_fraction(-1)


def test_load_case5_is_color_heisenberg():
    g = catalog.load(5)
    assert g.cm.s == ((1, -1, -1), (-1, 1, -1), (-1, -1, 1))
    assert g.brackets == {(0, 1): (ZERO, ZERO, ONE)}


def test_load_case7():
    g = catalog.load(7)
    assert g.brackets == {(2, 2): (ONE, ZERO, ZERO)}
    assert g.cm.s[2][2] == -1


def test_load_case1_with_value():
    g = catalog.load(1, Fraction(-1))
    assert g.brackets[(0, 1)] == (ZERO, ANTI, ZERO)
    assert g.brackets[(0, 2)] == (ZERO, ZERO, ONE)
    assert g.cm.s[1][2] == -1


def test_load_rejects_zero_parameter():
    with pytest.raises(ValueError):
        catalog.load(10, 0)


def test_load_rejects_parameter_for_plain_entry():
    with pytest.raises(ValueError):
        catalog.load(4, Fraction(2))


def test_every_entry_passes_the_whole_stack():
    for i in catalog.ALL_IDS:
        mu = Fraction(-1, 3) if catalog.entry(i).parameterized else None
        g = catalog.load(i, mu)
        assert g.validate().ok
        ok, _ = groebner_check(uea_relations(g))
        assert ok
        assert check_d_squared(differential_from_brackets(g), 8)


def test_every_sign_matrix_is_injective():
    for i in catalog.ALL_IDS:
        assert CommutationMatrix(catalog.entry(i).signs).is_injective(), i


def test_classification_ids():
    mapping = {1: 16, 2: 17, 3: 1, 4: 2, 5: 3, 6: 19, 7: 20, 8: 21, 9: 22,
               10: 24, 11: 25, 12: 26, 13: 5, 14: 6, 15: 7}
    for i, c in mapping.items():
        assert catalog.entry(i).classification_id == c


def test_abelian_family_patterns():
    fam = catalog.abelian_family()
    assert len(fam) == 8
    assert sorted(q for _, q in fam) == [0, 1, 1, 1, 2, 2, 2, 3]
    diags = {tuple(g.cm.s[i][i] for i in range(3)) for g, _ in fam}
    assert len(diags) == 8
    # q = 0 representative carries the all-anticommuting sign matrix
    g0 = next(g for g, q in fam if q == 0)
    assert g0.cm.s == ((1, -1, -1), (-1, 1, -1), (-1, -1, 1))
    for g, _ in fam:
        assert not g.brackets and g.validate().ok


def test_expected_betti_case9_keeps_classified_value():
    assert catalog.expected_series(9, None).expand(3) == [1, 2, 2, 1]


def test_expected_betti_case10_splits():
    assert catalog.expected_series(10, Fraction(-2)).expand(9) == \
        [1, 1, 0, 1, 1, 0, 1, 1, 0, 1]
    assert catalog.expected_series(10, Fraction(2)).expand(5) == \
        [1, 1, 0, 0, 0, 0]
    assert catalog.expected_series(10, Fraction(3)).expand(12) == \
        [1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1]
    assert catalog.expected_series(10, Fraction(-3)).expand(8) == \
        [1, 1, 0, 0, 0, 0, 0, 0, 1]
    assert catalog.expected_series(10, catalog.GENERIC).expand(4) == \
        [1, 1, 0, 0, 0]


def test_expected_betti_case6():
    assert catalog.expected_series(6, Fraction(-1, 3)).expand(6) == \
        [1, 1, 0, 0, 1, 1, 0]
    assert catalog.expected_series(6, Fraction(5)).expand(4) == \
        [1, 1, 0, 0, 0]


def test_expected_betti_case1():
    assert catalog.expected_series(1, Fraction(-1)).expand(4) == \
        [1, 1, 1, 1, 0]
    assert catalog.expected_series(1, Fraction(7)).expand(4) == \
        [1, 1, 0, 0, 0]


def test_engine_parameter_is_reciprocal():
    assert catalog.engine_parameter(Fraction(-2)) == Fraction(-1, 2)
    assert catalog.engine_parameter(Fraction(1, 2)) == Fraction(2)
    assert catalog.engine_parameter(catalog.GENERIC) is None


def test_round_trip_through_files():
    for i in catalog.ALL_IDS:
        mu = Fraction(-2) if catalog.entry(i).parameterized else None
        g = catalog.load(i, mu)
        text = serialize_algebra(g)
        back, _ = parse_algebra_text(text)
        assert back.cm == g.cm
        assert back.brackets == g.brackets
        assert back.validate().ok
        assert serialize_algebra(back) == text


def test_round_trip_generic_parameter():
    g = catalog.load(6)
    back, _ = parse_algebra_text(serialize_algebra(g))
    assert back.brackets == g.brackets
    assert back.has_parameter()


def test_shipped_data_files_match_catalog():
    """data/algebras/ holds exactly the 15 catalog entries and the 8
    abelian family members, each parsing back to its algebra and byte for
    byte its serialized form (parameterized entries keep the symbol t)."""
    root = Path(__file__).resolve().parent.parent / "data" / "algebras"
    expected = {"case%02d.txt" % i: catalog.load(i) for i in catalog.ALL_IDS}
    for k, (g, q) in enumerate(catalog.abelian_family(), start=1):
        expected["abelian_q%d_%d.txt" % (q, k)] = g
    assert len(expected) == 23
    assert sorted(expected) == sorted(p.name for p in root.iterdir())
    for name, ref in expected.items():
        g, _ = parse_algebra_file(str(root / name))
        assert g.cm == ref.cm and g.brackets == ref.brackets, name
        assert (root / name).read_bytes() == \
            serialize_algebra(ref).encode("utf-8"), name


@pytest.mark.parametrize("row", catalog.ALL_IDS)
def test_engine_values_have_one_representation(row):
    """At every parameter sample of the row, and generic: a rational is an
    int or a Fraction and a Scalar depends on t, in the parsed and the
    substituted coefficients and in every value computed from them."""
    mus = catalog.parameter_samples(row)
    if catalog.entry(row).parameterized:
        mus = list(dict.fromkeys(mus + [catalog.GENERIC]))
    parsed, _ = parse_algebra_text(serialize_algebra(catalog.load(row)))
    for mu in mus:
        value = catalog.engine_parameter(mu)
        g = catalog.load(row, value)
        assert_engine_values_exact(g, 6)
        if value is not None:
            assert_exact(c.substitute(value) for vec in parsed.brackets.values()
                         for c in vec if isinstance(c, Scalar))
            parsed_g = parsed.substitute(value)
            assert parsed_g.brackets == g.brackets
            assert_exact(c for vec in parsed_g.brackets.values() for c in vec)
