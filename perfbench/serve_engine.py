"""The engine figures of the ``serve-*`` workloads, in a process of their own.

Compiles the served ``GreedyTreePolicy`` plan, walks every target and runs
noisy sweeps on it, in interleaved rounds for ``--seconds``, and prints one
JSON line holding each figure as the fewest CPU seconds any round took.
The benchmark runs two at once, one pinned to each end of the CPU range,
and keeps the faster: a shared host only ever adds time, and it often
slows one vCPU for a whole run while the other runs clean.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from common import BenchError, emit_line  # noqa: E402

#: Noisy sweeps: targets per call and replications per target.
NOISY_TARGETS = 2000
NOISY_REPLICATIONS = 2


def engine_rounds(scale: str, seed: int, seconds: float) -> dict:
    from repro.engine import simulate_all_targets, simulate_noisy
    from repro.plan import compile_policy
    from repro.policies import GreedyTreePolicy

    common.assert_no_defaults()
    hierarchy, distribution = common.load_dataset(scale, "amazon")
    reference = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
    targets = common.draw_targets(hierarchy, distribution,
                                  np.random.default_rng(seed), NOISY_TARGETS)
    common.freeze_heap()
    cpu: dict[str, list] = {"compile": [], "walk": [], "noisy": []}
    first = None
    stop = time.perf_counter() + seconds
    while len(cpu["walk"]) < 2 or time.perf_counter() < stop:
        start = time.process_time()
        plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
        cpu["compile"].append(time.process_time() - start)
        if plan.config_key != reference.config_key:
            raise BenchError("a repeated compile gave a different plan")
        start = time.process_time()
        walk = simulate_all_targets(reference, pool=False, result_cache=False,
                                    check_correctness=True)
        cpu["walk"].append(time.process_time() - start)
        start = time.process_time()
        noisy = simulate_noisy(reference, error_model=common.NOISE_RATE,
                               targets=targets, replications=NOISY_REPLICATIONS,
                               seed=seed, pool=False)
        cpu["noisy"].append(time.process_time() - start)
        if first is None:
            first = noisy
        elif not np.array_equal(first.labels, noisy.labels):
            raise BenchError("a repeated noisy sweep gave different labels")
    fastest = {name: min(times) for name, times in cpu.items()}
    return {
        "compile_s": fastest["compile"],
        "eval_targets_per_s": walk.target_ix.size / fastest["walk"],
        "noisy_sessions_per_s": first.num_sessions / fastest["noisy"],
        "engine.walk_s": fastest["walk"],
        "engine.targets": int(walk.target_ix.size),
        "belief.simulate_s": fastest["noisy"],
        "belief.questions": int(first.queries.sum()),
        "belief.accuracy": first.accuracy(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default="paper")
    parser.add_argument("--pin", choices=("client", "server"), default="client",
                        help="the CPU to run on: the client's or the server's")
    args = parser.parse_args(argv)
    common.make_hermetic()
    common.pin(args.pin)
    try:
        emit_line(engine_rounds(args.scale, args.seed, args.seconds))
    except BenchError as exc:
        emit_line({"error": str(exc)})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
