"""Benchmark of the colorlie engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are closed loops with one client: one request at a time, from this
process, with at most one child process at a time.

    table    `colorlie table --max-degree 12 --format json`, a fresh process
             per request
    deep_q   `colorlie cohomology data/algebras/case13.txt --max-degree 56`
             (over Q, rank-dominated)
    deep_qt  `colorlie cohomology data/algebras/case10.txt --param generic
             --max-degree 56` (over Q(t), build-dominated)
    small    1200 algebras generated from --seed, each sent as text through
             the library path in this process
    all      each workload above in turn, with one combined report (its
             peak_rss_mb figures are peaks over everything run so far)

The run repeats passes over the workload's requests until --seconds have
gone by (after the first pass it stops between any two requests) and checks
every output.  With --trace 0 it reports end-to-end metrics from untraced
requests.  Their times are at the reference speed: a fixed pure-Python probe (perfbench/reference.py) runs
whenever SEGMENT_S of requests have gone by, and each wall time is scaled by
how long the probes just before and just after it took, so that the host's
drift in speed over minutes does not show as a change of the engine.  The
readable report gives the unscaled wall times beside them.  With --trace 1 it
alternates untraced and traced passes and reports per-layer metrics from
the traced ones, plus the tracing overhead.  The spans of a traced run are
written to .perfbench-out/ at the end.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import reference
import traced
import workloads

SETUP_SAMPLES = 11
SEGMENT_S = 1.0
OUT_DIR = workloads.ROOT / ".perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p98_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class Outcome:
    """Attempts, failures and output problems of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def attempt(self, wl, k, call):
        """Run call(); count it, and record any failure with its traceback."""
        self.attempted += 1
        try:
            return call()
        except workloads.RequestFailed as exc:
            self.problems.append("%s request %d failed: %s" % (wl.name, k, exc))
        except Exception:  # an engine error fails the request, not the run
            self.problems.append("%s request %d failed:\n%s"
                                 % (wl.name, k, traceback.format_exc()))
        self.failed += 1
        return None

    def compare(self, wl, k, summary, reference, what):
        if summary != reference:
            self.problems.append("%s request %d: %s differs from the first"
                                 " untraced result" % (wl.name, k, what))


def untraced_pass(wl, outcome, summaries, timed, deadline=None):
    """One pass over the workload's requests, cut short at the deadline;
    checks each output the first time and compares later passes against it.
    timed(k, wall) receives each completed request's wall time."""
    for k, item in enumerate(wl.items):
        if deadline is not None and perf_counter() >= deadline:
            return
        start = perf_counter()
        raw = outcome.attempt(wl, k, lambda: wl.request(item))
        if raw is None:
            continue
        timed(k, perf_counter() - start)
        summary = wl.summarize(raw)
        if summaries[k] is None:
            summaries[k] = summary
            outcome.problems.extend(wl.check(item, summary))
        else:
            outcome.compare(wl, k, summary, summaries[k], "a repeated result")


class Scaled:
    """Wall times of requests, and the same times at the reference speed.

    A probe runs at the start and whenever SEGMENT_S of requests have gone
    by since the last one; the requests in between are scaled by the two
    probes around them.  close() scales the last segment."""

    def __init__(self, n):
        self.wall = [[] for _ in range(n)]
        self.scaled = [[] for _ in range(n)]
        self.probes = [reference.probe()]
        self.segment = []

    def __call__(self, k, wall):
        self.wall[k].append(wall)
        self.segment.append((k, wall))
        if sum(w for _, w in self.segment) >= SEGMENT_S:
            self.close()

    def close(self):
        if not self.segment:
            return
        before = self.probes[-1]
        self.probes.append(reference.probe())
        for k, wall in self.segment:
            self.scaled[k].append(reference.scale(wall, before, self.probes[-1]))
        self.segment = []


def measure_setup(name, seed):
    """Median time, at the reference speed, of a fresh process that imports
    the engine and builds the workload's inputs; and the unscaled median."""
    walls, scaled = [], []
    before = reference.probe()
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        code, _, err = workloads.run_child(
            [sys.executable, str(workloads.ROOT / "perfbench" / "workloads.py"),
             name, str(seed)])
        walls.append(perf_counter() - start)
        if code != 0:
            raise workloads.RequestFailed("set-up exited %d: %s" % (code, err))
        after = reference.probe()
        scaled.append(reference.scale(walls[-1], before, after))
        before = after
    return statistics.median(scaled), statistics.median(walls)


def latency_metrics(latencies):
    """p50, p98 and throughput of per-request lists of times in seconds."""
    samples = [x for lat in latencies for x in lat]
    # The tail is taken over distinct requests, each at its median over the
    # passes, so that it reflects the inputs rather than scheduler noise.
    per_request = [statistics.median(lat) for lat in latencies if lat]
    return {
        "latency_p50_ms": 1000 * statistics.median(samples),
        "latency_p98_ms": 1000 * percentile(per_request, 98),
        "ops_per_s": len(samples) / sum(samples),
    }, len(samples), len(per_request)


def run_untraced(wl, seconds, outcome):
    """End-to-end metrics and a note on the samples behind each."""
    summaries = [None] * len(wl.items)
    times = Scaled(len(wl.items))
    deadline = None
    start = perf_counter()
    while True:
        untraced_pass(wl, outcome, summaries, times, deadline)
        deadline = start + seconds
        if perf_counter() >= deadline or outcome.failed:
            break
    times.close()
    who = resource.RUSAGE_SELF if wl.name == "small" else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux
    probes = ("%d probes, median %.4f s (reference %.4f s)"
              % (len(times.probes), statistics.median(times.probes),
                 reference.REF_PROBE_S))
    if not any(times.scaled):
        return {}, {"reference": probes}
    metrics, nsamples, ndistinct = latency_metrics(times.scaled)
    wall, _, _ = latency_metrics(times.wall)
    notes = {
        "latency_p50_ms": "%d requests; wall %.3f" % (nsamples, wall["latency_p50_ms"]),
        "latency_p98_ms": "%d distinct requests; wall %.3f"
                          % (ndistinct, wall["latency_p98_ms"]),
        "ops_per_s": "%d requests; wall %.6f" % (nsamples, wall["ops_per_s"]),
    }
    metrics["peak_rss_mb"] = peak_rss_mb
    notes["peak_rss_mb"] = "1 peak"
    notes["reference"] = probes
    return metrics, notes


def traced_pass(wl, outcome):
    """One traced pass; returns (wall seconds, spans, counts, summaries)."""
    if wl.name == "small":
        tr = traced.Tracer()
        summaries = []
        with traced.installed(tr):
            for k, item in enumerate(wl.items):
                raw = outcome.attempt(wl, k, lambda: traced.traced_request(
                    tr, k, workloads.small_request, item[0]))
                summaries.append(None if raw is None else wl.summarize(raw))
        wall = sum(end - start for name, start, end, _, _ in tr.spans
                   if name == "request")
        return wall, tr.spans, tr.counts, summaries
    start = perf_counter()
    result = outcome.attempt(wl, 0, lambda: traced_child(wl))
    wall = perf_counter() - start
    if result is None:
        return wall, [], {}, [None]
    data, raw = result
    return wall, data["spans"], data["counts"], [wl.summarize(raw)]


def traced_child(wl):
    """The workload's command line, run by `colorlie.cli.main` under the
    tracer in a fresh process; returns (trace data, raw result)."""
    code, out, err = workloads.run_child(
        [sys.executable, str(workloads.ROOT / "perfbench" / "traced.py"),
         *wl.cli_args])
    if code != 0:
        raise workloads.RequestFailed("traced %s exited %d: %s"
                                      % (wl.name, code, err.strip()))
    data = json.loads(out)
    return data, wl.parse(data["code"], data["stdout"], err)


def run_traced(wl, seconds, outcome, seed):
    """Per-layer metrics of alternating untraced and traced passes, and the
    number of traced passes."""
    summaries = [None] * len(wl.items)
    walls = []
    untraced_walls, traced_walls, passes, all_spans = [], [], [], []
    start = perf_counter()
    while True:
        before = sum(walls)
        untraced_pass(wl, outcome, summaries, lambda k, wall: walls.append(wall))
        untraced_walls.append(sum(walls) - before)
        wall, spans, counts, traced_summaries = traced_pass(wl, outcome)
        if outcome.failed:
            break
        traced_walls.append(wall)
        for k, summary in enumerate(traced_summaries):
            outcome.compare(wl, k, summary, summaries[k], "the traced result")
        if passes and counts != passes[0][1]:
            outcome.problems.append("%s: counts of traced pass %d differ from"
                                    " pass 1" % (wl.name, len(passes) + 1))
        passes.append((traced.layer_metrics(spans, counts), counts))
        all_spans.append(spans)
        if perf_counter() - start >= seconds:
            break
    if not passes:
        return {}, 0
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / ("trace-%s-seed%d.json" % (wl.name, seed)), "w",
              encoding="utf-8") as fh:
        json.dump({"span_fields": ["name", "start", "end", "parent", "request"],
                   "passes": all_spans}, fh)
    # counts repeat exactly (checked above), so their median is their value
    metrics = {key: statistics.median(p[0][key] for p in passes)
               for key in passes[0][0]}
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    return metrics, len(passes)


def environment():
    commit = "unknown (not a git checkout)"
    if (workloads.ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "python=%s nproc=%d commit=%s" % (platform.python_version(),
                                             len(os.sched_getaffinity(0)), commit)


def run_workload(name, seed, seconds, trace):
    """Returns (outcome, metrics as (value, unit, note), notes)."""
    outcome = Outcome()
    wl = workloads.make(name, seed)
    extra = []
    if trace:
        values, npasses = run_traced(wl, seconds, outcome, seed)
        metrics = {k: (v, traced.unit(k), "%d traced passes" % npasses)
                   for k, v in values.items()}
    else:
        values, notes = run_untraced(wl, seconds, outcome)
        # set-up is timed after the requests, so that its child processes do
        # not count towards the requests' peak memory
        values["setup_s"], setup_wall = measure_setup(name, seed)
        notes["setup_s"] = "%d fresh processes; wall %.6f" % (SETUP_SAMPLES,
                                                              setup_wall)
        metrics = {k: (values[k], END_TO_END[k], notes[k])
                   for k in END_TO_END if k in values}
        extra.append("reference probe: " + notes["reference"])
    return outcome, metrics, extra + wl.notes()


def report(name, seed, seconds, trace, outcome, metrics, notes):
    print("perfbench workload=%s seed=%d seconds=%s trace=%d %s"
          % (name, seed, seconds, trace, environment()))
    for key, (value, unit, note) in metrics.items():
        print("  %-32s %14.6f %-6s (%s)" % (key, value, unit, note))
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print("  %-32s %14.6f %-6s (%d failed / %d attempted)"
          % ("ops_failed_share", share, "ratio", outcome.failed, outcome.attempted))
    for note in notes:
        print("  " + note)
    for problem in outcome.problems:
        print("PROBLEM: " + problem)


# Per-workload names of end-to-end figures, printed by the combined report.
ALIASES = (
    ("table_s", "table", "latency_p50_ms", 1e-3, "s"),
    ("deep_q_s", "deep_q", "latency_p50_ms", 1e-3, "s"),
    ("deep_qt_s", "deep_qt", "latency_p50_ms", 1e-3, "s"),
    ("small_ops_per_s", "small", "ops_per_s", 1, "1/s"),
    ("small_p50_ms", "small", "latency_p50_ms", 1, "ms"),
    ("small_p98_ms", "small", "latency_p98_ms", 1, "ms"),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    attempted = failed = 0
    combined = {}
    for name in names:
        outcome, metrics, notes = run_workload(name, args.seed, args.seconds,
                                               args.trace)
        report(name, args.seed, args.seconds, args.trace, outcome, metrics, notes)
        correct = correct and not outcome.problems
        attempted += outcome.attempted
        failed += outcome.failed
        for key, (value, unit, _) in metrics.items():
            label = key if len(names) == 1 else "%s.%s" % (name, key)
            combined[label] = {"value": value, "unit": unit}
    if len(names) > 1 and not args.trace:
        for alias, name, key, scale, unit in ALIASES:
            value = combined.get("%s.%s" % (name, key), {}).get("value")
            if value is not None:
                print("%-16s %14.6f %s" % (alias, value * scale, unit))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
