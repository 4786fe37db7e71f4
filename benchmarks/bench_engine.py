"""Engine acceptance benchmark: all-targets evaluation vs the per-target loop.

Measures :func:`repro.engine.simulate_all_targets` against the seed-era
evaluation loop (one ``run_search`` + fresh ``ExactOracle`` per target) on a
balanced tree of ~10,000 nodes, checks per-target parity on the sampled loop
targets, and emits a JSON report.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine.py

or as part of the benchmark suite (``pytest benchmarks/bench_engine.py``),
where the speedup floor of 10x is asserted.  Both entry points also write
``BENCH_engine.json`` at the repo root in the common machine-readable
schema (see :mod:`bench_json`).  Environment knobs:

``REPRO_BENCH_ENGINE_N``
    Approximate node count of the balanced tree (default 10000).
``REPRO_BENCH_ENGINE_LOOP_TARGETS``
    Loop sample size; the loop's full-run time is extrapolated from the
    per-target average (default 400).  Set to 0 to run the loop over *all*
    targets (slow: minutes at the default size).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401  (already importable: installed or pythonpath)
except ImportError:  # standalone `python benchmarks/bench_engine.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from bench_json import write_bench_json
from bench_neutral import neutral_defaults
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.oracle import ExactOracle
from repro.core.session import run_search
from repro.engine import simulate_all_targets
from repro.policies import GreedyTreePolicy


def _balanced_tree_exact(branching: int, n: int) -> Hierarchy:
    """A complete ``branching``-ary tree with exactly ``n`` nodes.

    Node ``i``'s parent is ``(i - 1) // branching``; the last level may be
    partially filled, so the ``REPRO_BENCH_ENGINE_N`` knob scales the run
    continuously instead of jumping between full-tree sizes.
    """
    edges = [(f"b{(i - 1) // branching}", f"b{i}") for i in range(1, n)]
    return Hierarchy(edges, nodes=["b0"])


def run_benchmark(
    n_target: int = 10_000,
    branching: int = 10,
    loop_targets: int = 400,
    seed: int = 0,
) -> dict:
    """Time the engine pass and the per-target loop; return a JSON-able dict."""
    # Installed cache/pool defaults would turn the timed engine pass into
    # a disk load or a pooled walk; clear them for the timed region only.
    with neutral_defaults():
        return _timed_benchmark(n_target, branching, loop_targets, seed)


def _timed_benchmark(
    n_target: int, branching: int, loop_targets: int, seed: int
) -> dict:
    hierarchy = _balanced_tree_exact(branching, n_target)
    distribution = TargetDistribution.equal(hierarchy)
    policy = GreedyTreePolicy()

    start = time.perf_counter()
    engine = simulate_all_targets(policy, hierarchy, distribution)
    engine_seconds = time.perf_counter() - start

    rng = np.random.default_rng(seed)
    if loop_targets and loop_targets < hierarchy.n:
        picks = rng.choice(hierarchy.n, size=loop_targets, replace=False)
        sample = [hierarchy.nodes[int(i)] for i in picks]
    else:
        sample = list(hierarchy.nodes)
    start = time.perf_counter()
    parity_ok = True
    for target in sample:
        result = run_search(
            policy, ExactOracle(hierarchy, target), hierarchy, distribution
        )
        parity_ok = parity_ok and (
            result.num_queries == engine.query_count(target)
        )
    loop_seconds = time.perf_counter() - start
    loop_per_target = loop_seconds / len(sample)
    loop_full_estimate = loop_per_target * hierarchy.n

    write_bench_json(
        "engine",
        n_nodes=hierarchy.n,
        wall_s=engine_seconds,
        speedup=loop_full_estimate / engine_seconds,
        policy=policy.name,
        method=engine.method,
        parity_ok=parity_ok,
    )
    return {
        "benchmark": "bench_engine",
        "policy": policy.name,
        "n": hierarchy.n,
        "branching": branching,
        "height": hierarchy.height,
        "engine_method": engine.method,
        "engine_decision_nodes": engine.decision_nodes,
        "engine_seconds": round(engine_seconds, 6),
        "engine_ms_per_target": round(1000.0 * engine_seconds / hierarchy.n, 6),
        "loop_targets_measured": len(sample),
        "loop_seconds": round(loop_seconds, 6),
        "loop_ms_per_target": round(1000.0 * loop_per_target, 6),
        "loop_seconds_all_targets_estimated": round(loop_full_estimate, 3),
        "speedup_all_targets": round(loop_full_estimate / engine_seconds, 2),
        "parity_checked_targets": len(sample),
        "parity_ok": parity_ok,
        "expected_queries_equal_dist": round(
            engine.expected_queries(distribution), 4
        ),
    }


def test_engine_beats_loop_10x(report):
    """Acceptance: >= 10x over the per-target loop on a ~10k balanced tree."""
    n = int(os.environ.get("REPRO_BENCH_ENGINE_N", "10000"))
    loop_targets = int(os.environ.get("REPRO_BENCH_ENGINE_LOOP_TARGETS", "200"))
    payload = run_benchmark(n_target=n, loop_targets=loop_targets)
    report("bench_engine", json.dumps(payload, indent=2))
    assert payload["parity_ok"]
    assert payload["engine_method"] == "plan"
    assert payload["speedup_all_targets"] >= 10.0


if __name__ == "__main__":
    n = int(os.environ.get("REPRO_BENCH_ENGINE_N", "10000"))
    loop_targets = int(os.environ.get("REPRO_BENCH_ENGINE_LOOP_TARGETS", "400"))
    print(json.dumps(run_benchmark(n_target=n, loop_targets=loop_targets), indent=2))
