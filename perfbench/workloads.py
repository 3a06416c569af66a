"""Workload inputs, untraced requests and output checks.

Every request drives the engine from outside.  `table` and the `deep_*`
workloads start the command-line program as a fresh process per request
(the CLI memoizes catalog rows within a process, so a second in-process run
would time dictionary lookups).  `small` calls the library's public
functions in this process on generated algebra text.

Run as a script (`python3 perfbench/workloads.py WORKLOAD SEED`) it does the
workload's set-up and nothing else; the benchmark times that to report
set-up cost.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "colorlie" / "__init__.py").is_file():
    raise SystemExit("perfbench: no colorlie sources under %s" % SRC)
sys.path.insert(0, str(SRC))

import gen  # noqa: E402
from colorlie import catalog  # noqa: E402
from colorlie.cohomology import (betti_from_differential,  # noqa: E402
                                 representatives_from_differential)
from colorlie.differential import (check_d_squared,  # noqa: E402
                                   differential_from_brackets)
from colorlie.files import parse_algebra_text  # noqa: E402
from colorlie.pbw import groebner_check, uea_relations  # noqa: E402
from colorlie.series import (RationalSeries, abelian_closed_form,  # noqa: E402
                             recognize)

TABLE_DEGREE = 12
DEEP_DEGREE = 56
SERIES_TERMS = 40  # the CLI recognizes every series from h_0..h_40
# The p98 of `small` is taken over distinct algebras, so it depends on how
# many heavy ones a seed draws; with 600 it moved by a quarter between seeds.
SMALL_COUNT = 1200
SMALL_BETTI_DEGREE = 12
SMALL_D2_DEGREE = 8
SMALL_REPS_DEGREE = 8
CHILD_TIMEOUT_S = 150

# Row 9: the engine computes 1+2z+z^2 where the classification reads
# 1+2z+2z^2+z^3 (README, "Known discrepancy").  The benchmark checks the
# computed value and reports the row by name; it is never silently passed.
KNOWN_DISCREPANCY_ID = "9"
ROW9_COMPUTED = RationalSeries.polynomial([1, 2, 1])

# workload -> (data file, --param value, catalog row, classification parameter)
DEEP = {
    "deep_q": ("case13.txt", None, 13, None),
    "deep_qt": ("case10.txt", catalog.GENERIC, 10, catalog.GENERIC),
}


class RequestFailed(Exception):
    pass


def param_str(mu):
    if mu is None:
        return "-"
    if mu == catalog.GENERIC:
        return "generic"
    return str(mu)


def series_str(rec):
    return str(rec) if rec is not None else "inconclusive"


def cli_command(*args):
    return [sys.executable, "-m", "colorlie.cli", *args]


def run_child(cmd):
    """Run a command from the checkout root with the checkout's sources
    first on the path; returns (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RequestFailed("%s timed out" % " ".join(cmd[1:])) from exc
    return proc.returncode, proc.stdout, proc.stderr


def table_summary(rows):
    return tuple((r[0], r[1], tuple(r[2]), r[3], r[4]) for r in rows)


class CliWorkload:
    """A workload of one command-line request, run in a fresh process; a
    subclass sets `cli_args` and turns exit code and output into the raw
    result in `parse`."""

    cli_args = ()

    def request(self, item):
        return self.parse(*run_child(cli_command(*self.cli_args)))


class Table(CliWorkload):
    """`colorlie table --max-degree 12 --format json`: 32 catalog rows,
    41-term Betti sequences each."""

    name = "table"
    cli_args = ("table", "--max-degree", str(TABLE_DEGREE), "--format", "json")

    def __init__(self, seed):
        self.items = [None]  # the input is the embedded catalog
        self.expected = self._expected_rows()

    @staticmethod
    def _expected_rows():
        rows = []
        for table1_id in catalog.ALL_IDS:
            for mu in catalog.parameter_samples(table1_id):
                classified = catalog.expected_series(table1_id, mu)
                if str(table1_id) == KNOWN_DISCREPANCY_ID:
                    computed, verdict = ROW9_COMPUTED, "FAIL"
                else:
                    computed, verdict = classified, "PASS"
                rows.append((str(table1_id), param_str(mu),
                             computed.expand(TABLE_DEGREE), str(computed), verdict))
        for k, (_, q) in enumerate(catalog.abelian_family(), start=1):
            closed = abelian_closed_form(3, q)
            rows.append(("A%d" % k, "-", closed.expand(TABLE_DEGREE), str(closed),
                         "PASS"))
        return table_summary(rows)

    def parse(self, code, out, err):
        # exit 1 is the documented outcome while row 9 fails
        if code not in (0, 1):
            raise RequestFailed("table exited %d: %s" % (code, err.strip()))
        return code, json.loads(out)

    def summarize(self, raw):
        code, payload = raw
        rows = [(r["id"], r["param"], r["h"], r["series"], r["verdict"])
                for r in payload["rows"]]
        return code, table_summary(rows)

    def check(self, item, summary):
        code, rows = summary
        problems = []
        if code != 1:
            problems.append("table exited %d, expected 1 (row 9 fails)" % code)
        if len(rows) != len(self.expected):
            return problems + ["table printed %d rows, expected %d"
                               % (len(rows), len(self.expected))]
        for got, want in zip(rows, self.expected):
            if got != want:
                problems.append("table row %s %s: got %s, expected %s"
                                % (want[0], want[1], got[2:], want[2:]))
        return problems

    def notes(self):
        classified = catalog.expected_series(int(KNOWN_DISCREPANCY_ID))
        return ["known_discrepancy row %s: computed %s, classified %s (checked"
                " against the computed value)"
                % (KNOWN_DISCREPANCY_ID, ROW9_COMPUTED, classified)]


class Deep(CliWorkload):
    """One high-degree `colorlie cohomology` request on a data file."""

    def __init__(self, name):
        self.name = name
        filename, param, row, mu = DEEP[name]
        path = ROOT / "data" / "algebras" / filename
        path.read_text(encoding="utf-8")  # fail in set-up if missing
        expected = catalog.expected_series(row, mu)
        self.expected = (0, tuple(expected.expand(DEEP_DEGREE)), str(expected))
        self.items = [None]
        self.cli_args = ("cohomology", str(path.relative_to(ROOT)),
                         "--max-degree", str(DEEP_DEGREE))
        if param is not None:
            self.cli_args += ("--param", param)

    def parse(self, code, out, err):
        if code != 0:
            raise RequestFailed("cohomology exited %d: %s" % (code, err.strip()))
        return code, out

    def summarize(self, raw):
        code, out = raw
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        betti = tuple(int(x) for x in fields.get("betti", "").split())
        return code, betti, fields.get("series")

    def check(self, item, summary):
        if summary != self.expected:
            return ["%s: got %s, expected %s" % (self.name, summary[1:],
                                                 self.expected[1:])]
        return []

    def notes(self):
        return []


def small_request(doc):
    """The library path for one generated algebra; returns the raw results
    (validate ok, Jacobi ok, PBW ok, d^2 = 0, Betti, series, classes)."""
    g, _ = parse_algebra_text(doc)
    report = g.validate()
    defects = g.jacobi_defect()
    pbw_ok, _ = groebner_check(uea_relations(g))
    d = differential_from_brackets(g)
    d2_ok = check_d_squared(d, SMALL_D2_DEGREE)
    if defects:
        return report.ok, False, pbw_ok, d2_ok, None, None, None
    h = betti_from_differential(d, SMALL_BETTI_DEGREE).h
    rec = recognize(h)
    reps = [representatives_from_differential(d, n)
            for n in range(SMALL_REPS_DEGREE + 1)]
    return report.ok, True, pbw_ok, d2_ok, h, rec, reps


def small_summary(raw):
    report_ok, jacobi_ok, pbw_ok, d2_ok, h, rec, reps = raw
    if h is None:
        return report_ok, jacobi_ok, pbw_ok, d2_ok, None, None, None
    return (report_ok, jacobi_ok, pbw_ok, d2_ok, tuple(h), series_str(rec),
            tuple(tuple(str(c.representative) for c in cs) for cs in reps))


class Small:
    """1200 generated algebras through parse, validation, PBW, d^2 and
    (when Jacobi holds) Betti numbers, series and representatives."""

    name = "small"

    def __init__(self, seed):
        signs = [catalog.entry(i).signs for i in catalog.ALL_IDS]
        self.items = gen.generate(signs, SMALL_COUNT, seed)

    def request(self, item):
        return small_request(item[0])

    def summarize(self, raw):
        return small_summary(raw)

    def check(self, item, summary):
        doc, jacobi_label = item
        report_ok, jacobi_ok, pbw_ok, d2_ok, h, _, reps = summary
        problems = []
        if not jacobi_ok == d2_ok == pbw_ok == report_ok == jacobi_label:
            problems.append("Jacobi %s (generator: %s), d^2 = 0 %s, PBW %s,"
                            " validate %s" % (jacobi_ok, jacobi_label, d2_ok,
                                              pbw_ok, report_ok))
        if jacobi_ok and h is not None:
            derived = parse_algebra_text(doc)[0].derived_dimension()[0]
            if h[0] != 1 or h[1] != 3 - derived:
                problems.append("h0 = %d, h1 = %d, dim[g,g] = %d"
                                % (h[0], h[1], derived))
            counts = [len(cs) for cs in reps]
            if counts != list(h[:SMALL_REPS_DEGREE + 1]):
                problems.append("classes per degree %s but Betti %s"
                                % (counts, list(h)))
        return ["small algebra:\n%s%s" % (doc, p) for p in problems]

    def notes(self):
        return []


WORKLOADS = ("table", "deep_q", "deep_qt", "small")


def make(name, seed):
    if name == "table":
        return Table(seed)
    if name == "small":
        return Small(seed)
    return Deep(name)


if __name__ == "__main__":
    make(sys.argv[1], int(sys.argv[2]))
