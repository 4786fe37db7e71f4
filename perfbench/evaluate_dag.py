"""The ``evaluate-dag`` workload process (batch, closed loop).

Set-up builds the ImageNet-like DAG and its catalog distribution, starts a
warm :class:`EvaluationPool` and builds the reachability index.  The run then
compiles :class:`GreedyDagPolicy` cold, walks every target through the pool
again and again, runs a seeded in-process ``simulate_noisy`` phase, and
replays single sessions question by question on the plan cursor.

Protocol with ``run.py``: one JSON line once set-up is done, one JSON line
with the outcome at the end.  ``--probe`` stops after set-up.

Run directly (from the checkout root)::

    python perfbench/evaluate_dag.py --seed 0 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from common import BenchError, Tracer, emit_line  # noqa: E402

#: Noisy sweeps: targets per call and replications per target.
NOISY_TARGETS = 2000
NOISY_REPLICATIONS = 2
#: Plan-cursor sessions replayed per round.
REPLAY_CHUNK = 512


def _timed_loop(budget_s: float, fn, min_reps: int = 3) -> list[float]:
    """Call ``fn()`` until ``budget_s`` is spent; per-call wall seconds."""
    times: list[float] = []
    stop = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < stop:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def setup(scale: str, tracer: Tracer) -> dict:
    """Dataset, distribution, warm pool and reachability index."""
    from repro import Hierarchy
    from repro.engine import EvaluationPool, simulate_all_targets
    from repro.plan import compile_policy
    from repro.policies import GreedyTreePolicy

    common.assert_no_defaults()
    root = tracer.begin("setup")
    span = tracer.begin("hierarchy.build", root)
    start = time.perf_counter()
    hierarchy, distribution = common.load_dataset(scale, "imagenet")
    build_s = time.perf_counter() - start
    tracer.end(span)

    span = tracer.begin("pool.start", root)
    pool = EvaluationPool(os.cpu_count() or 1)
    # A three-node walk starts every worker through the public API.
    tiny = Hierarchy([("r", "a"), ("r", "b")])
    simulate_all_targets(compile_policy(GreedyTreePolicy(), tiny), pool=pool,
                         result_cache=False)
    tracer.end(span)

    span = tracer.begin("hierarchy.index", root)
    start = time.perf_counter()
    bits = hierarchy.reachability_bits(allow_large=True)
    index_s = time.perf_counter() - start
    tracer.end(span)
    tracer.end(root)
    return {
        "hierarchy": hierarchy,
        "distribution": distribution,
        "pool": pool,
        "hierarchy.build_s": build_s,
        "hierarchy.index_s": index_s,
        "hierarchy.index_mb": bits.nbytes / 2**20,
    }


def _check_same(reference, result, what: str) -> None:
    if not (
        np.array_equal(reference.queries, result.queries)
        and np.array_equal(reference.prices, result.prices, equal_nan=True)
        and reference.decision_nodes == result.decision_nodes
    ):
        raise BenchError(f"{what} differs from the sequential walk")


def _same_noisy(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("labels", "queries", "prices", "run_outcomes")
    )


def run(scale: str, seed: int, seconds: float, trace: bool, ctx: dict) -> dict:
    """Compile, walk, noisy and replay phases; returns metrics and counts."""
    from repro.core.oracle import ExactOracle
    from repro.engine import simulate_all_targets, simulate_noisy
    from repro.plan import compile_policy
    from repro.policies import GreedyDagPolicy

    tracer = ctx["tracer"]
    hierarchy, distribution, pool = ctx["hierarchy"], ctx["distribution"], ctx["pool"]
    rng = np.random.default_rng(seed)

    hwm_before = common.peak_rss_mb()
    # CPU seconds: single-threaded work is timed on the process clock, which
    # leaves out the time a shared host steals from this VM.
    span = tracer.begin("plan.compile")
    start = time.process_time()
    plan = compile_policy(GreedyDagPolicy(), hierarchy, distribution)
    compile_s = time.process_time() - start
    tracer.end(span)
    compile_rss_mb = common.peak_rss_mb() - hwm_before

    # Warm-up doubling as the correctness reference: the sequential walk
    # checks every leaf, and the pooled walk must reproduce it exactly.
    span = tracer.begin("engine.walk")
    start = time.perf_counter()
    reference = simulate_all_targets(plan, hierarchy, pool=False,
                                     result_cache=False, check_correctness=True)
    seq_walk_s = time.perf_counter() - start
    tracer.end(span)
    pooled = simulate_all_targets(plan, hierarchy, pool=pool,
                                  result_cache=False, check_correctness=True)
    _check_same(reference, pooled, "the pooled walk")
    expected = reference.expected_queries(distribution)
    if not np.isclose(expected, plan.expected_cost(distribution),
                      rtol=1e-12, atol=0.0):
        raise BenchError(
            f"expected queries {expected!r} disagree with the plan's "
            f"leaf depths {plan.expected_cost(distribution)!r}"
        )
    targets_per_walk = int(reference.target_ix.size)

    def pooled_walk() -> None:
        span = tracer.begin("pool.walk")
        result = simulate_all_targets(plan, hierarchy, pool=pool,
                                      result_cache=False, check_correctness=True)
        tracer.end(span)
        _check_same(reference, result, "a pooled walk")

    noisy_targets = common.draw_targets(hierarchy, distribution, rng, NOISY_TARGETS)
    noisy_ref = simulate_noisy(plan, hierarchy, distribution,
                               error_model=common.NOISE_RATE,
                               targets=noisy_targets,
                               replications=NOISY_REPLICATIONS,
                               seed=seed, pool=False)

    def noisy() -> None:
        span = tracer.begin("belief.simulate")
        result = simulate_noisy(plan, hierarchy, distribution,
                                error_model=common.NOISE_RATE,
                                targets=noisy_targets,
                                replications=NOISY_REPLICATIONS,
                                seed=seed, pool=False)
        tracer.end(span)
        if not _same_noisy(noisy_ref, result):
            raise BenchError("a repeated noisy sweep gave different sessions")

    replay_targets = common.draw_targets(hierarchy, distribution, rng, 4096)
    # The paper's objective on the seeded session sample; every replayed
    # session is checked against these walk depths.
    mean_queries = float(np.mean(
        reference.queries[[hierarchy.index(t) for t in replay_targets]]
    ))
    oracles = {t: ExactOracle(hierarchy, t) for t in set(replay_targets)}
    session_ms: list[float] = []
    question_ms: list[float] = []

    def replay(start: int) -> None:
        # One plan-cursor session per target, timed question by question.
        perf = time.perf_counter_ns
        for k in range(start, start + REPLAY_CHUNK):
            target = replay_targets[k % len(replay_targets)]
            oracle = oracles[target]
            s0 = perf()
            sid = tracer.begin("replay.session", session=k)
            cursor = plan.start()
            while not cursor.done():
                q0 = perf()
                cursor.observe(oracle.answer(cursor.propose()))
                question_ms.append((perf() - q0) / 1e6)
            returned = cursor.result()
            tracer.end(sid)
            session_ms.append((perf() - s0) / 1e6)
            ix = hierarchy.index(target)
            if returned != target or cursor.num_queries != reference.queries[ix]:
                raise BenchError(
                    f"plan cursor returned {returned!r} after "
                    f"{cursor.num_queries} questions for target {target!r}; "
                    f"the walk says {int(reference.queries[ix])}"
                )

    worker_pids = [w.pid for w in pool.health()]

    def workers_cpu() -> float:
        return sum(common.proc_cpu_s(pid) for pid in worker_pids)

    out: dict = {}
    # With tracing on, the rounds run half the budget untraced and half
    # traced; the difference is the tracing overhead.
    passes = (False, True) if trace else (False,)
    for traced in passes:
        tracer.enabled = traced
        tag = "traced" if traced else "plain"
        walk_times: list[float] = []
        noisy_times: list[float] = []
        rounds: dict[str, list] = {}
        replayed = 0
        cpu = wcpu = 0.0
        # Rounds interleave the three kinds of work, so a slow stretch of
        # the shared host lands on all of them instead of on one phase, and
        # the replay figures are medians over rounds.
        stop = time.perf_counter() + seconds / len(passes)
        while len(walk_times) < 3 or time.perf_counter() < stop:
            cpu0, wcpu0 = time.process_time(), workers_cpu()
            start = time.perf_counter()
            pooled_walk()
            walk_times.append(time.perf_counter() - start)
            cpu += time.process_time() - cpu0
            wcpu += workers_cpu() - wcpu0
            start = time.process_time()
            noisy()
            noisy_times.append(time.process_time() - start)
            session_ms.clear()
            question_ms.clear()
            replay(replayed)
            replayed += len(session_ms)
            for name, value in (
                ("session_p50_ms", common.median(session_ms)),
                ("question_p50_ms", common.median(question_ms)),
                ("question_p99_ms", common.percentile(question_ms, 99.0)),
            ):
                rounds.setdefault(name, []).append(value)
        walked = len(walk_times) * targets_per_walk
        out[tag] = {
            "walk_times": walk_times,
            "noisy_times": noisy_times,
            "walked": walked,
            "noisy_sessions": len(noisy_times) * noisy_ref.num_sessions,
            "replayed": replayed,
            "eval_targets_per_s": targets_per_walk / common.median(walk_times),
            "noisy_sessions_per_s": noisy_ref.num_sessions / common.median(noisy_times),
            "server_cpu_us_per_session": wcpu / walked * 1e6,
            "client_cpu_us_per_session": cpu / walked * 1e6,
            **{name: common.median(values) for name, values in rounds.items()},
        }
    tracer.enabled = trace

    seq_times = [seq_walk_s]
    if trace:
        def sequential_walk() -> None:
            span = tracer.begin("engine.walk")
            simulate_all_targets(plan, hierarchy, pool=False, result_cache=False,
                                 check_correctness=True)
            tracer.end(span)

        seq_times += _timed_loop(seconds * 0.1, sequential_walk)
    restarts = pool.respawns
    worker_errors = sum(w.errors for w in pool.health())
    peak = common.tree_peak_rss_mb()
    pool.close()
    if restarts or worker_errors:
        raise BenchError(
            f"the pool restarted {restarts} time(s) with {worker_errors} "
            "worker error(s)"
        )

    plain = out["plain"]
    metrics = {
        "compile_s": compile_s,
        "eval_targets_per_s": plain["eval_targets_per_s"],
        "noisy_sessions_per_s": plain["noisy_sessions_per_s"],
        "mean_queries": mean_queries,
        "peak_rss_mb": peak,
        "server_cpu_us_per_session": plain["server_cpu_us_per_session"],
        "client_cpu_us_per_session": plain["client_cpu_us_per_session"],
        "session_p50_ms": plain["session_p50_ms"],
        "question_p50_ms": plain["question_p50_ms"],
    }
    pool_walk_s = common.median(plain["walk_times"])
    seq_walk = common.median(seq_times)
    layers = {
        "hierarchy.build_s": ctx["hierarchy.build_s"],
        "hierarchy.index_s": ctx["hierarchy.index_s"],
        "hierarchy.index_mb": ctx["hierarchy.index_mb"],
        "plan.compile_s": compile_s,
        "plan.decision_nodes": plan.num_questions,
        "plan.compile_rss_mb": compile_rss_mb,
        "engine.walk_s": seq_walk,
        "engine.targets": targets_per_walk,
        "pool.walk_s": pool_walk_s,
        "pool.overhead_s": pool_walk_s - seq_walk / len(worker_pids),
        "pool.restarts": restarts,
        "belief.simulate_s": common.median(plain["noisy_times"]),
        "belief.questions": int(noisy_ref.queries.sum()),
        "belief.accuracy": noisy_ref.accuracy(),
    }
    if trace:
        traced = out["traced"]
        layers["trace.overhead_pct"] = 100.0 * (
            plain["eval_targets_per_s"] / traced["eval_targets_per_s"] - 1.0
        )
    attempted = sum(p["walked"] + p["noisy_sessions"] + p["replayed"]
                    for p in out.values())
    return {"metrics": metrics, "layers": layers, "attempted": attempted,
            "failed": 0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="paper")
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up (set-up time probe)")
    args = parser.parse_args(argv)
    common.make_hermetic()
    tracer = Tracer(bool(args.trace))
    ctx = setup(args.scale, tracer)
    common.freeze_heap()
    ctx["tracer"] = tracer
    emit_line({"ready": True})
    if args.probe:
        ctx["pool"].close()
        return 0
    try:
        outcome = run(args.scale, args.seed, args.seconds, bool(args.trace), ctx)
    except BenchError as exc:
        emit_line({"error": str(exc), "correct": False})
        return 1
    finally:
        ctx["pool"].close()
    outcome["spans"] = tracer.summary()
    tracer.write(f"evaluate-dag-seed{args.seed}")
    emit_line(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
