"""Per-layer tracing of the engine's own public calls.

`installed(tracer)` replaces the public functions that the command-line
program and the benchmark's library path call, under the names through
which their callers look them up, with wrappers that record a span around
each call and make the layer's counts; on leaving it puts the originals
back.  The engine itself runs unchanged: `colorlie.cli.main` for the
command-line workloads and `workloads.small_request` for `small`, so the
spans follow whatever code path the engine takes.

A span is [name, start, end, parent index, request id]; its layer is the
part of the name before the first dot.  Spans stay in memory until the run
ends.  Counts are made in `trace.count` spans, which are excluded from every
layer's self time and from the total of every timed span around them.

Run as a script (`python3 perfbench/traced.py CLI-ARGUMENTS...`) it runs
`colorlie.cli.main` on the arguments in this process under the tracer and
prints its spans, counts, exit code and standard output as one JSON object.
"""

from __future__ import annotations

import io
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, redirect_stdout
from time import perf_counter

import workloads
from colorlie import catalog, cli, cohomology
from colorlie.algebra import ColorLieAlgebra
from colorlie.differential import Differential
from colorlie.linalg import FIELD_QT

LAYERS = ("files", "algebra", "pbw", "dual", "differential", "linalg",
          "cohomology", "series", "catalog", "cli")

# span name -> per-layer metric holding its total (inclusive) time
TIMED_SPANS = {
    "files.parse": "files.parse_s",
    "algebra.validate": "algebra.validate_s",
    "pbw.certify": "pbw.certify_s",
    "dual.basis": "dual.basis_s",
    "differential.build": "differential.build_s",
    "differential.d2_check": "differential.d2_check_s",
    "linalg.rank.QQ": "linalg.rank_s.QQ",
    "linalg.rank.QQt": "linalg.rank_s.QQt",
    "linalg.kernel_image": "linalg.kernel_image_s",
    "cohomology.representatives": "cohomology.representatives_s",
    "series.recognize": "series.recognize_s",
}

COUNTS = ("files.parse_calls", "pbw.overlaps_checked", "pbw.overlaps_failed",
          "dual.monomials", "differential.build_calls", "differential.cells",
          "differential.nnz", "linalg.rank_total", "cohomology.classes",
          "series.inconclusive")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter({name: 0 for name in COUNTS})
        self.request = None
        self._open = []
        self._open_names = Counter()

    def span(self, name):
        return _Span(self, name)

    def is_open(self, name):
        return self._open_names[name] > 0


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append([self.name, perf_counter(), None,
                         tr._open[-1] if tr._open else None, tr.request])
        tr._open.append(self.index)
        tr._open_names[self.name] += 1

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = perf_counter()
        tr._open.pop()
        tr._open_names[self.name] -= 1
        return False


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass: total time per timed span,
    self time per layer, counts and the density of the built matrices."""
    children = defaultdict(float)  # time of a span's direct children
    counting = defaultdict(float)  # time of the trace.count spans below it
    # a child's index is larger than its parent's
    for index in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _ = spans[index]
        if parent is not None:
            children[parent] += end - start
            counting[parent] += counting[index] + (
                end - start if name == "trace.count" else 0.0)
    out = {metric: 0.0 for metric in TIMED_SPANS.values()}
    out.update({"%s.self_s" % layer: 0.0 for layer in LAYERS})
    for index, (name, start, end, _, _) in enumerate(spans):
        if name in TIMED_SPANS:
            out[TIMED_SPANS[name]] += end - start - counting[index]
        key = "%s.self_s" % name.split(".", 1)[0]
        if key in out:
            out[key] += end - start - children[index]
    out.update(counts)
    cells = counts["differential.cells"]
    out["differential.density"] = counts["differential.nnz"] / cells if cells else 0.0
    return out


def unit(metric):
    if metric in COUNTS:
        return "count"
    return "ratio" if metric == "differential.density" else "s"


def _count_matrix(counts, args, dn):
    m = dn.matrix
    counts["differential.build_calls"] += 1
    counts["differential.cells"] += m.rows * m.cols
    counts["differential.nnz"] += sum(1 for row in m.data for e in row
                                      if not e.is_zero())


def _count_overlaps(counts, args, result):
    # the overlaps groebner_check reduces: pairs of leads (a, b), (b, c)
    leads = {r.lead for r in args[0]}
    counts["pbw.overlaps_checked"] += sum(1 for (_, b) in leads
                                          for (b2, _) in leads if b == b2)
    counts["pbw.overlaps_failed"] += len(result[1])


def _count(metric, amount):
    def count(counts, args, result):
        counts[metric] += amount(result)
    return count


def _count_call(metric):
    return _count(metric, lambda result: 1)


def _rank_span(m):
    return "linalg.rank.QQt" if m.field == FIELD_QT else "linalg.rank.QQ"


# (owner, attribute, span name or function of the call's arguments, count)
ENGINE_CALLS = (
    (Differential, "matrix", "differential.build", _count_matrix),
    # validate calls jacobi_defect; a call inside an open span of the same
    # name is not spanned again
    (ColorLieAlgebra, "validate", "algebra.validate", None),
    (ColorLieAlgebra, "jacobi_defect", "algebra.validate", None),
    (cohomology, "rank", _rank_span, _count("linalg.rank_total", int)),
    (cohomology, "rank_kernel", "linalg.kernel_image", None),
    (cohomology, "image_basis", "linalg.kernel_image", None),
    (cohomology, "echelon_span", "linalg.kernel_image", None),
    (cohomology, "monomial_basis", "dual.basis", _count("dual.monomials", len)),
    (catalog, "load", "catalog.load", None),
    (catalog, "abelian_family", "catalog.load", None),
    (cli, "main", "cli.main", None),
)

# (function name, span name, count), wrapped in each caller module that
# holds the name: the CLI and the benchmark's library path
CALLER_CALLS = (
    ("parse_algebra_file", "files.parse", _count_call("files.parse_calls")),
    ("parse_algebra_text", "files.parse", _count_call("files.parse_calls")),
    ("uea_relations", "pbw.certify", None),
    ("groebner_check", "pbw.certify", _count_overlaps),
    ("differential_from_brackets", "differential.from_brackets", None),
    ("check_d_squared", "differential.d2_check", None),
    ("betti_from_differential", "cohomology.betti", None),
    ("representatives_from_differential", "cohomology.representatives",
     _count("cohomology.classes", len)),
    ("recognize", "series.recognize",
     _count("series.inconclusive", lambda rec: rec is None)),
)


def _targets():
    yield from ENGINE_CALLS
    for caller in (cli, workloads):
        for attr, span, count in CALLER_CALLS:
            if attr in vars(caller):
                yield caller, attr, span, count


def _wrap(tr, fn, span, count):
    def traced_call(*args, **kwargs):
        name = span(*args) if callable(span) else span
        if tr.is_open(name):
            return fn(*args, **kwargs)
        with tr.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            with tr.span("trace.count"):
                count(tr.counts, args, result)
        return result
    return traced_call


@contextmanager
def installed(tr):
    """Trace the engine's public calls into tr while the block runs."""
    saved = []
    try:
        for owner, attr, span, count in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tr, original, span, count))
        yield tr
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_request(tr, request_id, call, *args):
    """call(*args) in a span named `request`; tr must be installed."""
    tr.request = request_id
    with tr.span("request"):
        return call(*args)


def main(argv):
    tr = Tracer()
    tr.request = 0
    out = io.StringIO()
    with installed(tr), redirect_stdout(out):
        code = cli.main(argv)
    json.dump({"spans": tr.spans, "counts": tr.counts, "code": code,
               "stdout": out.getvalue()}, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
