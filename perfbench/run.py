"""Repo benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-target --seed 0 --seconds 16 --trace 0

Workloads: ``evaluate-dag`` (compile, pooled all-target walks, noisy sweeps
on the ImageNet-like DAG), ``serve-target`` and ``serve-interactive``
(open-loop sessions against a server process on the Amazon-like tree).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the layer
table and the per-layer metrics.  The last line of standard output is the
result object; the exit code is non-zero when a correctness check or a
run limit fails.  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import sys

import common
from common import BenchError

#: Workloads, metric names and units, as ``BENCHMARK.json`` at the
#: checkout root declares them.
_DECLARED = json.loads((common.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

#: Launches of the evaluate-dag process; the median time to the end of
#: set-up is ``setup_s`` and the last launch does the run.
DAG_LAUNCHES = 3


def run_evaluate_dag(scale: str, seed: int, seconds: float, trace: bool) -> dict:
    args = ("--seed", str(seed), "--seconds", str(seconds), "--trace",
            str(int(trace)), "--scale", scale)
    setup_runs = []
    child = None
    try:
        for launch in range(DAG_LAUNCHES):
            probe = launch < DAG_LAUNCHES - 1
            child, seconds_to_ready, _ = common.time_to_ready(
                "evaluate_dag.py", *args, *(("--probe",) if probe else ())
            )
            setup_runs.append(seconds_to_ready)
            if probe:
                if child.wait(60.0) != 0:
                    raise BenchError("an evaluate-dag set-up probe failed")
        outcome = child.read(seconds * 3 + 120.0)
        if child.wait(60.0) != 0 and "error" not in outcome:
            raise BenchError("the evaluate-dag process failed")
    finally:
        if child is not None:
            child.kill()
    if "error" in outcome:
        raise BenchError(outcome["error"])
    outcome["problems"] = []
    outcome["setup_runs"] = setup_runs
    return outcome


def _complete(values: dict, names: dict) -> dict:
    """Every metric of ``names`` with its unit; layers a workload does not
    exercise read 0."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="paper",
                        help="dataset scale preset (tiny for the self-tests)")
    args = parser.parse_args(argv)
    try:
        common.make_hermetic()
        if args.workload == "evaluate-dag":
            outcome = run_evaluate_dag(args.scale, args.seed, args.seconds,
                                       bool(args.trace))
        else:
            from serve_client import run_serve

            outcome = run_serve(args.workload, args.scale, args.seed,
                                args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # Every correctness check raises BenchError, so a printed result is a
    # correct one.
    outcome["metrics"]["setup_s"] = common.median(outcome["setup_runs"])
    units = {**END_TO_END, **PER_LAYER}
    if args.trace:
        # The ungated latency figures are end-to-end measurements too.
        layers = {**outcome["metrics"], **outcome["layers"]}
        print(common.layer_table(outcome["spans"], layers))
        metrics = _complete(layers, PER_LAYER)
    else:
        for name, value in outcome["metrics"].items():
            print(f"{name:<28}{value:>16.6g} {units[name]}")
        metrics = _complete(outcome["metrics"], END_TO_END)
    print(f"attempted {outcome['attempted']}  failed {outcome['failed']}")
    for name, values in outcome.get("slices", {}).items():
        print(f"slices {name}: " + " ".join(f"{v:.4g}" for v in values))
    if "sessions" in outcome:
        print("sessions " + "  ".join(f"{k} {v}" for k, v in outcome["sessions"].items()))
    for problem in outcome["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 1 if outcome["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
