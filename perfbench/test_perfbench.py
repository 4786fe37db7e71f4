"""Self-tests of the benchmark on the tiny dataset scale.

Run from the checkout root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import run  # noqa: E402
import serve_client  # noqa: E402


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if not trace:
        assert all(v["value"] >= 0 for v in result["metrics"].values())
        assert result["metrics"]["mean_queries"]["value"] > 0
    else:
        assert "self_s" in done.stdout


def test_same_seed_same_mean_queries():
    values = []
    for _ in range(2):
        done = _bench("--workload", "serve-target", "--seed", "5", "--seconds",
                      "1", "--trace", "0", "--scale", "tiny")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        values.append(result["metrics"]["mean_queries"]["value"])
    assert values[0] == values[1]


def test_corrupted_served_result_fails_the_run(monkeypatch):
    from repro.serve import ServeClient

    original = ServeClient.serve_target

    async def corrupted(self, session_id, target, **kwargs):
        result = await original(self, session_id, target, **kwargs)
        if session_id == 7:
            result = dataclasses.replace(result, num_queries=result.num_queries + 1)
        return result

    monkeypatch.setattr(ServeClient, "serve_target", corrupted)
    common.make_hermetic()
    with pytest.raises(common.BenchError, match="session 7"):
        serve_client.run_serve("serve-target", "tiny", 1, 1.0, False)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _bench("--workload", "evaluate-dag", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_children():
    tracer = common.Tracer(True)
    root = tracer.record("session", 0, 100)
    tracer.record("call", 10, 40, root)
    tracer.record("call", 30, 60, root)  # overlaps the first child
    summary = tracer.summary()
    assert summary["session"]["self_s"] == pytest.approx(50e-9)
    assert summary["call"]["count"] == 2


def test_failed_sessions_miss_every_latency_limit():
    inf = float("inf")
    assert common.percentile([1.0, 2.0, 3.0, inf], 99.0) == inf
    assert common.median([1.0, 2.0, inf]) == 2.0
