"""Noise-study acceptance benchmark: the batched belief engine vs the
per-session oracle stack.

The vectorized-noise PR's production claim: Monte-Carlo evaluation of a
policy under crowd noise (``repro.engine.belief.simulate_noisy`` — all
targets x replications through one compiled plan with batched flip
draws) must beat the path the noise study ran before this engine — one
``run_search(policy, oracle_stack, ...)`` per session, the greedy
policy's split selection recomputed step by step for every noisy walk —
by >= 25x at benchmark scale.  Correctness is pinned separately against
the *plan-based* per-session reference
(:func:`~repro.engine.belief.reference_noisy`, the stack
``CountingOracle(MajorityVote(CountingOracle(Noisy(Exact))))`` walking
the same compiled plan with the same seed spawns), which the engine must
match *bit-identically* session for session — inline, on a fresh
evaluation pool, and ``batch_size=`` alike.  Both baselines are timed on a slice and
extrapolated per session (they are the slow side by construction); the
benchmark also re-checks the study's accuracy ordering and emits
``BENCH_noise.json`` in the common machine-readable schema (see
:mod:`bench_json`).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_noise.py            # full size
    PYTHONPATH=src python benchmarks/bench_noise.py --smoke    # CI gate

or as part of the benchmark suite (``pytest benchmarks/bench_noise.py``),
where the 25x speedup floor is asserted.  Environment knobs:

``REPRO_BENCH_NOISE_N``
    Approximate catalog node count (default 2000).
``REPRO_BENCH_NOISE_TARGETS``
    Sampled targets per sweep (default 200).
``REPRO_BENCH_NOISE_REPLICATIONS``
    Noisy replications per target in the timed sweep (default 5).
``REPRO_BENCH_NOISE_REF_TARGETS``
    Targets in the per-session baseline slices (default 40).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401  (already importable: installed or pythonpath)
except ImportError:  # standalone `python benchmarks/bench_noise.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from bench_json import write_bench_json
from repro.core import ErrorRateModel
from repro.core.oracle import CountingOracle, MajorityVoteOracle
from repro.core.session import run_search
from repro.engine import EvaluationPool
from repro.engine.belief import reference_noisy, simulate_noisy
from repro.exceptions import SearchError
from repro.experiments import noise
from repro.plan import compile_policy
from repro.policies import GreedyTreePolicy
from repro.taxonomy import amazon_catalog, amazon_like

RESULTS = Path(__file__).resolve().parent.parent / "results"

SPEEDUP_FLOOR = 25.0


def _on_fresh_pool(*args, **kwargs):
    """One sweep on a new two-worker evaluation pool, closed afterwards."""
    with EvaluationPool(workers=2) as pool:
        return simulate_noisy(*args, pool=pool, **kwargs)


def _equal(a, b) -> bool:
    return (
        np.array_equal(a.labels, b.labels)
        and np.array_equal(a.queries, b.queries)
        and np.array_equal(a.vote_queries, b.vote_queries)
        and np.array_equal(a.prices, b.prices)
        and np.array_equal(a.run_outcomes, b.run_outcomes)
    )


def run_benchmark(
    n_target: int = 2_000,
    num_targets: int = 200,
    replications: int = 5,
    ref_targets: int = 40,
    seed: int = 0,
) -> dict:
    """Time the batched belief engine against the per-session stack."""
    hierarchy = amazon_like(n_target, seed=seed)
    distribution = amazon_catalog(
        hierarchy, num_objects=50_000, seed=seed
    ).to_distribution()
    rng = np.random.default_rng([seed, 81])
    targets = distribution.sample(rng, size=num_targets)
    budget = 4 * hierarchy.n
    model = ErrorRateModel(0.15)

    start = time.perf_counter()
    plan = compile_policy(
        GreedyTreePolicy(), hierarchy, distribution, max_depth=budget
    )
    compile_seconds = time.perf_counter() - start

    common = dict(error_model=model, seed=seed, votes=3, max_queries=budget)

    # Warm the engine (reach-row kernels, numpy dispatch) outside the
    # timed window; the one-time plan compile is reported separately.
    simulate_noisy(
        plan, hierarchy, targets=list(targets[:8]), replications=1, **common
    )

    # The headline sweep: every (target, replication) session batched
    # through the one plan.
    start = time.perf_counter()
    batched = simulate_noisy(
        plan, hierarchy, targets=targets,
        replications=replications, **common,
    )
    batched_seconds = time.perf_counter() - start
    sessions = batched.labels.size

    # The legacy baseline: what the noise study ran before this engine —
    # run_search on the *policy* per session, greedy split selection
    # recomputed step by step.  Timed on a slice and extrapolated.
    slice_targets = list(targets[:ref_targets])
    policy = GreedyTreePolicy()
    rng = np.random.default_rng([seed, 82])
    start = time.perf_counter()
    for target in slice_targets:
        noisy = model.make_oracle(hierarchy, target, rng)
        stack = CountingOracle(
            MajorityVoteOracle(CountingOracle(noisy), votes=3)
        )
        try:
            run_search(
                policy, stack, hierarchy, distribution, max_queries=budget
            )
        except SearchError:
            pass
    legacy_seconds = time.perf_counter() - start
    legacy_per_session = legacy_seconds / len(slice_targets)
    speedup = legacy_per_session * sessions / batched_seconds

    # The plan-based per-session reference pins bit-parity on the same
    # slice: identical (targets, seed) mean identical per-session spawns.
    start = time.perf_counter()
    ref_slice = reference_noisy(
        plan, hierarchy, targets=slice_targets, replications=1, **common,
    )
    ref_seconds = time.perf_counter() - start
    ref_per_session = ref_seconds / len(slice_targets)

    batched_slice = simulate_noisy(
        plan, hierarchy, targets=slice_targets, replications=1, **common,
    )
    parity_ok = (
        _equal(batched_slice, ref_slice)
        and _equal(batched_slice, _on_fresh_pool(
            plan, hierarchy, targets=slice_targets, replications=1, **common,
        ))
        and _equal(
            batched_slice,
            simulate_noisy(
                plan, hierarchy, targets=slice_targets, replications=1,
                batch_size=7, **common,
            ),
        )
    )

    # The study's qualitative findings must survive the rewrite: a clean
    # oracle is perfect, noise hurts, majority voting recovers.
    clean = simulate_noisy(
        plan, hierarchy, targets=targets, replications=1,
        error_model=ErrorRateModel(0.0), seed=seed, max_queries=budget,
    )
    noisy_1vote = simulate_noisy(
        plan, hierarchy, targets=targets, replications=replications,
        error_model=model, seed=seed, max_queries=budget,
    )
    accuracy_ordering_ok = (
        clean.accuracy() == 1.0
        and noisy_1vote.accuracy() < 1.0
        and batched.accuracy() > noisy_1vote.accuracy()
    )

    write_bench_json(
        "noise",
        n_nodes=hierarchy.n,
        wall_s=batched_seconds,
        speedup=speedup,
        policy="GreedyTree",
        sessions=sessions,
        error_rate=model.rate,
        votes=3,
        parity_ok=parity_ok,
        accuracy_ordering_ok=accuracy_ordering_ok,
    )
    return {
        "benchmark": "bench_noise",
        "n": hierarchy.n,
        "targets": num_targets,
        "replications": replications,
        "sessions": sessions,
        "error_rate": model.rate,
        "votes": 3,
        "compile_seconds": round(compile_seconds, 6),
        "batched_seconds": round(batched_seconds, 6),
        "batched_sessions_per_second": round(sessions / batched_seconds, 1),
        "legacy_sessions_per_second": round(1.0 / legacy_per_session, 1),
        "plan_reference_sessions_per_second": round(1.0 / ref_per_session, 1),
        "baseline_slice_sessions": len(slice_targets),
        "speedup_batched": round(speedup, 2),
        "speedup_vs_plan_reference": round(
            ref_per_session * sessions / batched_seconds, 2
        ),
        "parity_ok": parity_ok,
        "accuracy_clean": round(clean.accuracy(), 4),
        "accuracy_noisy": round(noisy_1vote.accuracy(), 4),
        "accuracy_majority3": round(batched.accuracy(), 4),
        "accuracy_ordering_ok": accuracy_ordering_ok,
    }


def test_noise(benchmark, scale, seed, report):
    table = benchmark.pedantic(
        noise.run, args=(scale, seed), rounds=1, iterations=1
    )
    rows = {row["Strategy"]: row for row in table.rows}

    def accuracy(name):
        return float(rows[name]["Accuracy"].rstrip("%")) / 100

    assert accuracy("clean oracle") == 1.0
    # Noise hurts; majority voting recovers transient noise.
    assert accuracy("transient noise") < 1.0
    assert accuracy("transient + 5-vote majority") > accuracy("transient noise")
    report("noise", table.render())


def test_batched_engine_beats_reference_25x(report):
    """Acceptance: the belief engine is >= 25x the per-session stack,
    bit-identical to it, and preserves the study's accuracy ordering."""
    payload = run_benchmark(
        n_target=int(os.environ.get("REPRO_BENCH_NOISE_N", "2000")),
        num_targets=int(os.environ.get("REPRO_BENCH_NOISE_TARGETS", "200")),
        replications=int(
            os.environ.get("REPRO_BENCH_NOISE_REPLICATIONS", "5")
        ),
        ref_targets=int(os.environ.get("REPRO_BENCH_NOISE_REF_TARGETS", "40")),
    )
    report("bench_noise", json.dumps(payload, indent=2))
    assert payload["parity_ok"]
    assert payload["accuracy_ordering_ok"]
    assert payload["speedup_batched"] >= SPEEDUP_FLOOR


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="assert the 25x floor and exit nonzero when it breaks "
        "(the run is seconds either way; the flag is the CI gate)",
    )
    args = parser.parse_args()
    payload = run_benchmark(
        n_target=int(os.environ.get("REPRO_BENCH_NOISE_N", "2000")),
        num_targets=int(os.environ.get("REPRO_BENCH_NOISE_TARGETS", "200")),
        replications=int(
            os.environ.get("REPRO_BENCH_NOISE_REPLICATIONS", "5")
        ),
        ref_targets=int(os.environ.get("REPRO_BENCH_NOISE_REF_TARGETS", "40")),
    )
    text = json.dumps(payload, indent=2)
    print(text)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "bench_noise.txt").write_text(text + "\n")
    if args.smoke:
        if not payload["parity_ok"]:
            print(
                "FAIL: batched noise engine diverged from the per-session "
                "reference",
                file=sys.stderr,
            )
            return 1
        if not payload["accuracy_ordering_ok"]:
            print(
                "FAIL: accuracy ordering broke (clean/noisy/majority)",
                file=sys.stderr,
            )
            return 1
        if payload["speedup_batched"] < SPEEDUP_FLOOR:
            print(
                f"FAIL: batched speedup {payload['speedup_batched']}x is "
                f"below the {SPEEDUP_FLOOR}x floor",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
