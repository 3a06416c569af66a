"""Acceptance suite: one criterion per test, exact integer matching, one
PASS/FAIL line printed each.

Expected Betti vectors are frozen literals.  All but one are expansions of
the classified Poincare series.  Row 9 holds the derived value 1 + 2z + z^2
instead: the classified 1 + 2z + 2z^2 + z^3 is impossible for the row's
relations, and the independent cochain oracle (tests/test_ce_oracle.py)
gives the derived value.  The classified row-9 value is still pinned by
test_catalog.py::test_expected_betti_case9_keeps_classified_value, by
test_cli.py::test_table_text (row 9 FAIL, passed 31/32) and by the
benchmark's known_discrepancy check.

Parameterized rows are checked under the single reconciliation direction
used everywhere: the engine-side structure constant is the reciprocal of the
classification-side parameter.
"""

from fractions import Fraction

from conftest import coeff_vectors, spans_equal

from colorlie import catalog
from colorlie.cohomology import betti, representatives_from_differential
from colorlie.differential import check_d_squared, differential_from_brackets
from colorlie.dual import DgaElement, SignAlgebra
from colorlie.pbw import groebner_check, uea_relations
from colorlie.algebra import ColorLieAlgebra, CommutationMatrix
from colorlie.scalars import ONE, ZERO
from colorlie.series import RationalSeries, recognize
from colorlie import cli

GENERIC = catalog.GENERIC


def _report(name, failures):
    print("ACCEPTANCE %s: %s" % (name, "FAIL " + "; ".join(failures)
                                 if failures else "PASS"))
    assert not failures, "%s: %s" % (name, failures)


# 1. Parameter-free catalog rows, h0..h12 exactly.
CRIT1 = {
    2: [1, 2, 1] + [0] * 10,
    3: [1, 0, 0, 1] + [0] * 9,
    4: [1, 1, 1, 1] + [0] * 9,
    5: [1, 2, 2, 1] + [0] * 9,
    7: [1, 2, 1] + [0] * 10,
    8: [1] + [2] * 12,
    # Derived, not classified: eps(e1, .) = +1 and e1 acts with weights
    # 0, 0, 1, so the Cartan homotopy L_e1 = d i_e1 + i_e1 d leaves only the
    # weight-0 cochains Lambda(f1, f2), where d = 0: 1 + 2z + z^2.
    9: [1, 2, 1] + [0] * 10,
    11: [1] + [2] * 12,
    12: [1] + [2] * 12,
    13: [1] * 13,
    14: [1] + [2] * 12,
    15: [1] + [2] * 12,
}


def test_criterion_1_parameter_free_rows():
    failures = []
    for i, expected in sorted(CRIT1.items()):
        h = betti(catalog.load(i), 12).h
        if h != expected:
            failures.append("case %d computed %s expected %s" % (i, h, expected))
    _report("1 (parameter-free rows)", failures)


# 2. Parameterized rows at reconciled parameter values.
CRIT2 = [
    (1, Fraction(-1), [1, 1, 1, 1] + [0] * 9),
    (1, Fraction(2), [1, 1] + [0] * 11),
    (6, Fraction(-1), [1, 1, 1, 1] + [0] * 9),
    (6, Fraction(-1, 2), [1, 1, 0, 1, 1] + [0] * 8),
    (6, Fraction(-1, 3), [1, 1, 0, 0, 1, 1] + [0] * 7),
    (6, GENERIC, [1, 1] + [0] * 11),
    (10, Fraction(2), [1, 1] + [0] * 11),
    (10, Fraction(-2), [1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1]),
    (10, Fraction(3), [1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1]),
    (10, Fraction(-3), [1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0]),
    (10, Fraction(1, 2), [1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0]),
    (10, GENERIC, [1, 1] + [0] * 11),
]


def test_criterion_2_parameterized_rows_and_direction_record():
    failures = []
    for i, table_mu, expected in CRIT2:
        g = catalog.load(i, catalog.engine_parameter(table_mu))
        h = betti(g, 12).h
        if h != expected:
            failures.append("case %d at table parameter %s computed %s"
                            % (i, table_mu, h))
    # the chosen direction is recorded in the table report
    import io
    buf = io.StringIO()
    cli.cmd_table(_TableArgs(), buf)
    if cli.RECONCILIATION_NOTE not in buf.getvalue():
        failures.append("reconciliation direction missing from report")
    _report("2 (parameterized rows, reciprocal direction)", failures)


class _TableArgs:
    max_degree = 12
    format = "text"
    out = None


# 3. Abelian family: (1+z)^(3-q)/(1-z)^q through h10.
CRIT3 = {
    0: [1, 3, 3, 1, 0, 0, 0, 0, 0, 0, 0],
    1: [1, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4],
    2: [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21],
    3: [1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66],
}


def test_criterion_3_abelian_family():
    failures = []
    family = catalog.abelian_family()
    if sorted(q for _, q in family) != [0, 1, 1, 1, 2, 2, 2, 3]:
        failures.append("family does not cover the 8 diagonal patterns")
    for g, q in family:
        h = betti(g, 10).h
        if h != CRIT3[q]:
            failures.append("q=%d computed %s" % (q, h))
    _report("3 (abelian closed forms)", failures)


def test_criterion_4_classical_cross_checks():
    failures = []
    # classical cohomology of the 3-dimensional simple Lie algebra: 1 + z^3
    if betti(catalog.load(3), 3).h != [1, 0, 0, 1]:
        failures.append("case 3 does not match the classical answer")
    # classical Heisenberg Lie algebra: 1 + 2z + 2z^2 + z^3
    if betti(catalog.load(5), 3).h != [1, 2, 2, 1]:
        failures.append("case 5 does not match the classical answer")
    _report("4 (classical cross-checks)", failures)


def test_criterion_5_d_squared_iff_jacobi(perturbations):
    failures = []
    samples = list(perturbations)
    for i in catalog.ALL_IDS:
        mu = Fraction(-2) if catalog.entry(i).parameterized else None
        samples.append(catalog.load(i, mu))
    assert len(samples) >= 115
    seen_false = 0
    for k, g in enumerate(samples):
        jacobi_ok = g.jacobi_defect() == []
        d2_ok = check_d_squared(differential_from_brackets(g), 8)
        if jacobi_ok != d2_ok:
            failures.append("sample %d: jacobi %s but d^2 %s"
                            % (k, jacobi_ok, d2_ok))
        if not jacobi_ok:
            seen_false += 1
    if seen_false == 0:
        failures.append("no Jacobi-violating samples exercised")
    _report("5 (d^2 = 0 iff Jacobi, %d samples)" % len(samples), failures)


def test_criterion_6_h0_h1_invariants():
    failures = []
    for i in catalog.ALL_IDS:
        mus = [None]
        if catalog.entry(i).parameterized:
            mus = [Fraction(-1), Fraction(2), Fraction(-1, 2), None]
        for mu in mus:
            g = catalog.load(i, mu)
            h = betti(g, 1).h
            expected_h1 = 3 - g.derived_dimension()[0]
            if h[0] != 1:
                failures.append("case %s h0 = %s" % (i, h[0]))
            if h[1] != expected_h1:
                failures.append("case %s (mu=%s) h1 = %s expected %s"
                                % (i, mu, h[1], expected_h1))
    _report("6 (h0 = 1 and h1 = 3 - dim[g,g])", failures)


def test_criterion_7_pbw_suite():
    failures = []
    for i in catalog.ALL_IDS:
        mu = Fraction(1, 3) if catalog.entry(i).parameterized else None
        ok, overlaps = groebner_check(uea_relations(catalog.load(i, mu)))
        if not ok:
            failures.append("case %d fails overlaps %s" % (i, overlaps))
    # documented Jacobi-violating mutant of case 3: <e2,e3> redirected to e2
    g = catalog.load(3)
    brackets = dict(g.brackets)
    brackets[(1, 2)] = (ZERO, ONE, ZERO)
    mutant = ColorLieAlgebra(g.cm, brackets)
    if mutant.jacobi_defect() == []:
        failures.append("mutant unexpectedly satisfies Jacobi")
    ok, _ = groebner_check(uea_relations(mutant))
    if ok:
        failures.append("mutant unexpectedly passes the overlap check")
    _report("7 (PBW certification)", failures)


def test_criterion_8_hilbert_enumeration_64_matrices():
    import itertools
    failures = []
    count = 0
    for diag in itertools.product((1, -1), repeat=3):
        for off in itertools.product((1, -1), repeat=3):
            s12, s13, s23 = off
            cm = CommutationMatrix(((diag[0], s12, s13),
                                    (s12, diag[1], s23),
                                    (s13, s23, diag[2])))
            a = SignAlgebra(3, cm.square_zero_set(), cm.commuting_pairs())
            coeffs = a.hilbert_series().expand(10)
            for deg in range(11):
                if coeffs[deg] != len(a.monomial_basis(deg)):
                    failures.append("matrix %s degree %d" % (cm.s, deg))
            count += 1
    assert count == 64
    _report("8 (Hilbert vs enumeration, 64 matrices)", failures)


CRIT9_SERIES = [
    RationalSeries([1, 1], [1, -1]),
    RationalSeries([1], [1, -1]),
    RationalSeries([1, 1], [1, 0, 0, -1]),
    RationalSeries([1, 1], [1, 0, 0, 0, 0, 0, 0, 0, -1]),
    # 1 + z + z^3 (1+z)/(1-z^6)
    RationalSeries([1, 1, 0, 1, 1, 0, -1, -1], [1, 0, 0, 0, 0, 0, -1]),
]


def test_criterion_9_series_recognizer():
    failures = []
    for rs in CRIT9_SERIES:
        rec = recognize(rs.expand(40))
        if rec is None:
            failures.append("inconclusive on %s" % rs)
        elif rec != rs:
            failures.append("recognized %s as %s" % (rs, rec))
    # no inconclusive outcome on catalog data at the acceptance samples
    for i in catalog.ALL_IDS:
        for mu in catalog.parameter_samples(i):
            seq = catalog.expected_series(i, mu).expand(40)
            rec = recognize(seq)
            if rec is None:
                failures.append("inconclusive on catalog row %s (mu=%s)"
                                % (i, mu))
            elif rec != catalog.expected_series(i, mu):
                failures.append("row %s (mu=%s) recognized as %s" % (i, mu, rec))
    _report("9 (series recognition from 41 terms)", failures)


# 10. Representative spans vs the reference cocycles (cases 3, 4, 5, 7).
# Case 7 degree 1: the only degree-1 cocycles are f2 and f3 (d f1 = f3^2).
CRIT10 = {
    3: {3: [(1, 1, 1)]},
    4: {1: [(1, 0, 0)], 2: [(0, 1, 1)], 3: [(1, 1, 1)]},
    5: {1: [(1, 0, 0), (0, 1, 0)], 2: [(1, 0, 1), (0, 1, 1)], 3: [(1, 1, 1)]},
    7: {1: [(0, 1, 0), (0, 0, 1)], 2: [(0, 1, 1)]},
}


def test_criterion_10_representative_spans():
    failures = []
    for i, degrees in sorted(CRIT10.items()):
        g = catalog.load(i)
        d = differential_from_brackets(g)
        table = betti(g, 4)
        for n in range(5):
            reps = representatives_from_differential(d, n)
            expected = degrees.get(n, []) if n > 0 else [(0, 0, 0)]
            if len(reps) != table.h[n]:
                failures.append("case %d degree %d: %d representatives, h=%d"
                                % (i, n, len(reps), table.h[n]))
                continue
            if n == 0:
                continue
            basis = d.algebra.monomial_basis(n)
            reference = [DgaElement(d.algebra, {m: ONE}) for m in expected]
            ours = [c.representative for c in reps]
            if not spans_equal(coeff_vectors(ours, basis),
                               coeff_vectors(reference, basis)):
                failures.append("case %d degree %d span mismatch" % (i, n))
    _report("10 (representative spans)", failures)
