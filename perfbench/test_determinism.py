"""Determinism self-check for the benchmark's counts.

    python3 -m pytest perfbench/test_determinism.py

Two traced passes of the same code and seed must give exactly the same
LP solve and pivot counts, weight-adjustment passes and outcome classes,
because later count-based claims rest on them.
"""

import os
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

COUNTS = (
    [f"lp.solves.{c}" for c in ("eta", "face", "weighted")]
    + [f"lp.pivots.{c}" for c in ("eta", "face", "weighted")]
    + ["certify.passes"]
)
# `mis` starts one process per graph; its first six graphs (the cycles
# and G12) keep the test short.
LIMITS = {"ladder": None, "mis": 6, "small": None}


@pytest.fixture
def workdir():
    path = run.ROOT / ".perfbench_work" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(LIMITS))
def test_counts_and_outcomes_repeat(workload, workdir):
    src = run.use_checkout_source()
    import spans
    import workloads

    cases = workloads.build(workload, 1)
    runner = run.make_runner(workload, cases, workdir, src)
    snapshots = []
    for _ in range(2):
        _, attempts, trace_spans, root = run.traced_pass(runner, LIMITS[workload])
        assert run.classify(workload, cases, attempts)
        layer = spans.pass_metrics(trace_spans, root)
        counts = {name: layer[name] for name in COUNTS}
        snapshots.append((counts, [a.outcome for a in attempts]))
    assert snapshots[0] == snapshots[1]
    assert snapshots[0][0]["certify.passes"] > 0
