"""Command-line front end.

Commands: check, cohomology, series, dual, hilbert, pbw, table.
Exit codes: 0 success, 1 mathematical failure, 2 input error.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction
from itertools import accumulate

from .cohomology import betti_from_differential, representatives_from_differential
from .differential import differential_from_brackets
from .dual import KEY_BITS, dual_of, quadratic_dual
from .files import GENERIC, AlgebraFileError, parse_algebra_file
from .pbw import groebner_check, uea_relations, word_str
from .series import abelian_closed_form, recognize

SERIES_TERMS = 40  # recognition window; Betti display defaults to 12

RECONCILIATION_NOTE = (
    "parameter reconciliation: engine value = 1/mu for a printed table"
    " parameter mu (reciprocal direction, applied uniformly)")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_attach_param_values(argv))
    # argparse hands "--opt=--" over unconverted, as [] before Python 3.13
    # and as "--" from 3.13 on; every option takes one value, and series'
    # terms take at least one
    for name, value in vars(args).items():
        if value == [] or (value == "--" and name != "path"):
            parser.error("argument --%s: expected one argument"
                         % name.replace("_", "-"))
    # --out is written only once the command returns, so a failed run leaves
    # an existing file as it was; a missing folder, or a directory as the
    # target, fails before the run
    out = io.StringIO() if getattr(args, "out", None) else sys.stdout
    try:
        if out is not sys.stdout:
            folder = os.path.dirname(args.out) or os.curdir
            if not os.path.isdir(folder):
                raise ValueError("--out %s: no directory %s"
                                 % (args.out, folder))
            if os.path.isdir(args.out):
                raise ValueError("--out %s: is a directory" % args.out)
        code = args.func(args, out)
        if out is not sys.stdout:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(out.getvalue())
        return code
    except (AlgebraFileError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except ZeroDivisionError as exc:
        print("evaluation error: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


def _attach_param_values(argv):
    """argv (sys.argv[1:] when None) with "--param -V", or a prefix of
    --param, joined into "--param=-V" when V starts with a digit: argparse
    reads only -N and -N.N as numbers, so it takes -1/2 for a flag."""
    out = []
    for arg in sys.argv[1:] if argv is None else argv:
        if (out and len(out[-1]) > 2 and "--param".startswith(out[-1])
                and arg[:1] == "-" and arg[1:2].isdigit()):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="colorlie",
        description="Exact cohomology engine for 3-dimensional color Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, path=True):
        p = sub.add_parser(name)
        if path:
            p.add_argument("path")
            p.add_argument("--param", default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    add("check", cmd_check)
    p = add("cohomology", cmd_cohomology)
    p.add_argument("--max-degree", type=int, default=12, dest="max_degree")
    p.add_argument("--representatives", action="store_true")
    add("dual", cmd_dual)
    add("hilbert", cmd_hilbert)
    add("pbw", cmd_pbw)
    p = add("table", cmd_table, path=False)
    p.add_argument("--max-degree", type=int, default=12, dest="max_degree")
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text", dest="format")
    p = add("series", cmd_series, path=False)
    p.add_argument("terms", nargs="+")
    return parser


def _load(args):
    g, param = parse_algebra_file(args.path)
    if args.param is not None:
        param = args.param
    if param is None:
        return g, None
    if not g.has_parameter():
        raise ValueError("parameter %s given, but the algebra has no parameter"
                         % param)
    if param != GENERIC:
        try:
            param = Fraction(param)
        except ZeroDivisionError:
            raise ValueError("--param %s has a zero denominator"
                             % param) from None
        g = g.substitute(param)
    return g, param


def _max_degree(args):
    """--max-degree, checked before any work: the matrix of d in degree n
    reads the degree n + 1 basis, whose exponents must fit a packed key."""
    top = (1 << KEY_BITS) - 2
    if not 0 <= args.max_degree <= top:
        raise ValueError("--max-degree must be between 0 and %d, got %d"
                         % (top, args.max_degree))
    return args.max_degree


def cmd_check(args, out):
    g, _ = _load(args)
    failed = False
    bad = g.cm.validate()
    if bad:
        print("commutation: FAIL at %s" % ", ".join("(%d,%d)" % (i + 1, j + 1)
                                                    for i, j in bad), file=out)
        return 1
    print("commutation: OK", file=out)
    inj = g.cm.is_injective()
    print("injective: %s" % ("yes" if inj else "no"), file=out)
    failed = failed or not inj
    errors = g.structure_errors()
    defects = g.jacobi_defect()
    if errors:
        for e in errors:
            print("structure: FAIL %s" % e, file=out)
        failed = True
    else:
        print("structure: OK", file=out)
    if defects:
        print("jacobi: FAIL at triples %s"
              % ", ".join("(%d,%d,%d)" % (i + 1, j + 1, k + 1)
                          for i, j, k, _ in defects), file=out)
        failed = True
    else:
        print("jacobi: OK", file=out)
    failed = not _pbw_report(g, out) or failed
    return 1 if failed else 0


def _pbw_report(g, out):
    """Print the PBW verdict for U(g); returns whether it passed."""
    try:
        rels = uea_relations(g)
    except ValueError as exc:
        print("pbw: FAIL %s" % exc, file=out)
        return False
    ok, overlaps = groebner_check(rels)
    if ok:
        print("pbw: PASS", file=out)
    else:
        print("pbw: FAIL at overlaps %s"
              % ", ".join(word_str((a, b, c)) for a, b, c in overlaps), file=out)
    return ok


def _betti_and_series(d, nmax):
    """The Betti numbers h_0..h_m of d, m >= nmax, and the series
    recognized from h_0..h_SERIES_TERMS."""
    if d.is_zero():
        # the Poincare series is the Hilbert series, exactly; fit nothing
        return betti_from_differential(d, nmax).h, d.algebra.hilbert_series()
    h = betti_from_differential(d, max(nmax, SERIES_TERMS)).h
    return h, recognize(h[:SERIES_TERMS + 1])


def cmd_cohomology(args, out):
    nmax = _max_degree(args)
    g, param = _load(args)
    report = g.validate()
    if not report.ok:
        print("invalid algebra: %s" % report, file=out)
        return 1
    d = differential_from_brackets(g)
    h, rec = _betti_and_series(d, nmax)
    print("parameter: %s" % ("none" if param is None else param), file=out)
    # h_n = nullity(d_n) - rank(d_{n-1}) < 0 only when the image of d_{n-1}
    # leaves the kernel of d_n
    for n, x in enumerate(h):
        if x < 0:
            print("betti: FAIL h_%d = %d is negative, so d^2 != 0"
                  % (n, x), file=out)
            return 1
    print("betti: %s" % " ".join(str(x) for x in h[:nmax + 1]), file=out)
    print("series: %s" % (rec if rec is not None else "inconclusive"), file=out)
    if args.representatives:
        for n in range(nmax + 1):
            reps = representatives_from_differential(d, n)
            if reps:
                print("H^%d: %s" % (n, "; ".join(str(c.representative)
                                                 for c in reps)), file=out)
    return 0


def cmd_series(args, out):
    toks = []
    for chunk in args.terms:
        toks.extend(t for t in chunk.replace(",", " ").split() if t)
    seq = [int(t) for t in toks]
    rec = recognize(seq)
    print(rec if rec is not None else "inconclusive", file=out)
    return 0 if rec is not None else 1


def cmd_dual(args, out):
    g, _ = _load(args)
    a = dual_of(g)
    print("dual generators: %d" % a.n, file=out)
    print("square-zero: %s" % (" ".join("f%d" % (i + 1)
                                        for i in sorted(a.square_zero)) or "none"),
          file=out)
    allp = {(i, j) for i in range(a.n) for j in range(i + 1, a.n)}
    comm = " ".join("(f%d,f%d)" % (i + 1, j + 1) for i, j in sorted(a.commuting))
    anti = " ".join("(f%d,f%d)" % (i + 1, j + 1)
                    for i, j in sorted(allp - a.commuting))
    print("commuting pairs: %s" % (comm or "none"), file=out)
    print("anticommuting pairs: %s" % (anti or "none"), file=out)
    return 0


def cmd_hilbert(args, out):
    g, _ = _load(args)
    a = quadratic_dual(dual_of(g))
    hs = a.hilbert_series()
    coeffs = hs.expand(10)
    counts = _monomial_counts(a, 10)
    print("hilbert: %s" % hs, file=out)
    print("coefficients: %s" % " ".join(str(c) for c in coeffs), file=out)
    if coeffs != counts:
        print("enumeration mismatch: %s" % " ".join(str(c) for c in counts),
              file=out)
        return 1
    print("enumeration check: OK", file=out)
    return 0


def _monomial_counts(a, dmax):
    """The number of monomials of a of each degree d <= dmax, counted
    without listing them: the product over the generators of 1 + z for a
    square-zero one and 1/(1 - z) for a free one, truncated after z^dmax and
    multiplied out one generator at a time."""
    counts = [1] + [0] * dmax
    for i in range(a.n):
        if i in a.square_zero:
            counts = [c + p for c, p in zip(counts, [0] + counts)]
        else:
            counts = list(accumulate(counts))
    return counts


def cmd_pbw(args, out):
    g, _ = _load(args)
    return 0 if _pbw_report(g, out) else 1


def _table_entries():
    """(id, parameter, algebra, expected series) for every table row: each
    catalog row at each parameter sample, then the abelian family."""
    from . import catalog
    for table1_id in catalog.ALL_IDS:
        for mu in catalog.parameter_samples(table1_id):
            yield (str(table1_id), _param_str(mu),
                   catalog.load(table1_id, catalog.engine_parameter(mu)),
                   catalog.expected_series(table1_id, mu))
    for k, (g, q) in enumerate(catalog.abelian_family(), start=1):
        yield "A%d" % k, "-", g, abelian_closed_form(3, q)


def _table_rows(nmax):
    """One row per table entry.  Rows with equal dual algebras build their
    differentials on the one object dual_of keeps for it, which enumerates
    each degree's basis once for all of them."""
    rows = []
    for row_id, param, g, expected in _table_entries():
        d = differential_from_brackets(g)
        h, rec = _betti_and_series(d, nmax)
        h = h[:nmax + 1]
        rows.append({
            "id": row_id,
            "param": param,
            "h": h,
            "series": str(rec) if rec is not None else "inconclusive",
            "expected": str(expected),
            "verdict": "PASS" if h == expected.expand(nmax) else "FAIL",
        })
    return rows


def _param_str(mu):
    return "-" if mu is None else str(mu)


def cmd_table(args, out):
    nmax = _max_degree(args)
    rows = _table_rows(nmax)
    passed = sum(1 for r in rows if r["verdict"] == "PASS")
    if args.format == "json":
        import json
        payload = {
            "note": RECONCILIATION_NOTE,
            "max_degree": nmax,
            "rows": rows,
            "passed": passed,
            "total": len(rows),
        }
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    elif args.format == "csv":
        import csv
        writer = csv.writer(out)
        writer.writerow(["id", "param"] + ["h%d" % i for i in range(nmax + 1)]
                        + ["series", "expected", "verdict"])
        for r in rows:
            writer.writerow([r["id"], r["param"]] + [str(x) for x in r["h"]]
                            + [r["series"], r["expected"], r["verdict"]])
        out.write("# %s\n" % RECONCILIATION_NOTE)
        out.write("# passed %d/%d\n" % (passed, len(rows)))
    else:
        print(RECONCILIATION_NOTE, file=out)
        for r in rows:
            print("%-4s %-8s betti %-28s series %-34s expected %-34s %s"
                  % (r["id"], r["param"], " ".join(str(x) for x in r["h"]),
                     r["series"], r["expected"], r["verdict"]), file=out)
        print("passed %d/%d" % (passed, len(rows)), file=out)
    return 0 if passed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
