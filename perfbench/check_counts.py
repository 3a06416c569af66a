"""Two traced passes give identical counts, on every workload.

Later changes cite these counts (cells, nnz, rank total, overlaps,
monomials, classes) as exact figures, so they must not depend on timing or
on state left by an earlier pass.  Run with

    python3 -m pytest perfbench/check_counts.py
"""

from __future__ import annotations

import pytest

import run
import workloads


def _counts(name, seed):
    outcome = run.Outcome()
    _, _, counts, _ = run.traced_pass(workloads.make(name, seed), outcome)
    assert not outcome.problems
    return dict(counts)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat(name):
    first = _counts(name, seed=3)
    assert first == _counts(name, seed=3)
    assert first["differential.build_calls"] > 0
    assert first["differential.nnz"] <= first["differential.cells"]


def test_small_counts_follow_the_seed():
    assert _counts("small", seed=3) != _counts("small", seed=4)


def test_tracing_is_removed_afterwards():
    from colorlie import cli
    from colorlie.differential import Differential
    before = (Differential.matrix, cli.main, workloads.groebner_check)
    _counts("small", seed=3)
    assert (Differential.matrix, cli.main, workloads.groebner_check) == before
