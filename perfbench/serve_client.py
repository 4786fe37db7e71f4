"""The load generator of the ``serve-target`` and ``serve-interactive``
workloads, run inside the benchmark process.

Open loop: sessions are due on a seeded Poisson schedule whether or not
earlier ones finished, and each is timed from its due time, so a stall
shows up as latency of every session behind it.  The server runs in its
own process (``serve_server.py``); this process plays the users over at
most ``nproc`` connections and verifies every result against ``run_search``
on the same plan.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import Counter

import numpy as np

import common
from common import BenchError, Child, Tracer

#: Offered rates (sessions/s) and the generator's lateness limit.
RATES = {"serve-target": 500.0, "serve-interactive": 150.0}
LAG_P99_LIMIT_MS = 50.0
#: Seconds of load before the measured phase.
WARMUP_S = 1.0
#: The measured phase is cut into slices of this many seconds; latency and
#: CPU-per-session metrics are the median over slices, so a few seconds in
#: which the shared host stole this VM's CPU do not move them.
SLICE_S = 2.0
#: Launches of the server per run; the median launch-to-listening time is
#: ``setup_s`` and the last launch serves the run.
LAUNCHES = 3
#: Seconds of rounds of each of the two ``serve_engine.py`` processes.
ENGINE_SECONDS = 4.0


class _TimedOracle:
    """Wraps an :class:`ExactOracle` for ``ServeClient.run_target_session``.

    The gap between one ``answer`` returning (the answer is then sent) and
    the next call (the next question arrived) is one question's round trip.
    """

    __slots__ = ("inner", "sent", "gaps_ns", "oracle_ns", "tracer", "parent",
                 "session")

    def __init__(self, inner, tracer: Tracer, parent: int, session) -> None:
        self.inner = inner
        self.sent = 0
        self.gaps_ns: list[int] = []
        self.oracle_ns = 0
        self.tracer = tracer
        self.parent = parent
        self.session = session

    def answer(self, query) -> bool:
        now = time.perf_counter_ns()
        if self.sent:
            self.gaps_ns.append(now - self.sent)
            self.tracer.record("client.answer", self.sent, now, self.parent,
                               self.session)
        value = self.inner.answer(query)
        self.sent = time.perf_counter_ns()
        self.oracle_ns += self.sent - now
        self.tracer.record("client.oracle", now, self.sent, self.parent,
                           self.session)
        return value


class Reference:
    """Expected results on the client's own copy of the served plan."""

    def __init__(self, scale: str) -> None:
        from repro.engine import simulate_all_targets
        from repro.plan import compile_policy
        from repro.policies import GreedyTreePolicy

        self.hierarchy, self.distribution = common.load_dataset(scale, "amazon")
        self.plan = compile_policy(GreedyTreePolicy(), self.hierarchy,
                                   self.distribution)
        self.walk = simulate_all_targets(self.plan, pool=False, result_cache=False,
                                         check_correctness=True)
        self._results: dict = {}

    def result(self, target):
        from repro.core.oracle import ExactOracle
        from repro.core.session import run_search

        found = self._results.get(target)
        if found is None:
            found = self._results[target] = run_search(
                self.plan, ExactOracle(self.hierarchy, target)
            )
        return found

    def check(self, session_id, target, result) -> None:
        expected = self.result(target)
        for field in ("returned", "num_queries", "total_price", "transcript"):
            if getattr(result, field) != getattr(expected, field):
                raise BenchError(
                    f"session {session_id} (target {target!r}): served "
                    f"{field} {getattr(result, field)!r:.200} != run_search's "
                    f"{getattr(expected, field)!r:.200}"
                )


def make_schedule(rng, rate: float, horizon_s: float) -> np.ndarray:
    """Poisson arrival offsets (seconds) in ``[0, horizon_s)``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * horizon_s * 1.2) + 64)
    offsets = np.cumsum(gaps)
    return offsets[offsets < horizon_s]


class Load:
    """One open-loop run against a listening server."""

    def __init__(self, workload: str, server: Child, address: tuple, ref: Reference,
                 offsets: np.ndarray, targets: list, boundaries: list,
                 slices: list, tracer: Tracer, connections: int) -> None:
        self.workload = workload
        self.server = server
        self.address = address
        self.ref = ref
        self.offsets = offsets
        self.targets = targets
        #: Session indices at which a measured window starts.
        self.boundaries = boundaries
        #: Session indices at which a slice starts; ``marks`` holds the
        #: server's and this process's CPU seconds when each slice began.
        self.slices = slices
        self.marks: dict[int, tuple] = {}
        self.tracer = tracer
        self.connections = connections
        self.latency_ms: dict[int, float] = {}
        #: Session index -> wall time of each client call (one
        #: ``serve_target``, or one answer round trip per question).
        self.call_us: dict[int, list] = {}
        self.oracle_ns = 0
        self.oracle_calls = 0
        self.lag_ms: list[float] = []
        self.refused = 0
        self.errors: Counter = Counter()
        self.results: dict = {}
        self.snapshots: list[dict] = []

    def _cpu(self) -> tuple:
        return common.proc_cpu_s(self.server.pid), common.proc_cpu_s()

    def _snapshot(self) -> dict:
        server_cpu, client_cpu = self._cpu()
        return {"server_cpu_s": server_cpu, "client_cpu_s": client_cpu,
                **self.server.ask("snap")}

    async def _target(self, client, index: int, due: float, target) -> None:
        tracer = self.tracer
        started = time.perf_counter_ns()
        root = tracer.record("session", int(due * 1e9), 0, session=index)
        tracer.record("generator.lag", int(due * 1e9), started, root, index)
        call = tracer.begin("client.call", root, index)
        try:
            result = await client.serve_target(index, target)
        finally:
            tracer.end(call)
            tracer.end(root)
        done = time.perf_counter_ns()
        self.call_us[index] = [(done - started) / 1e3]
        self.latency_ms[index] = (done / 1e9 - due) * 1e3
        self.results[index] = result

    async def _interactive(self, client, index: int, due: float, target) -> None:
        from repro.core.oracle import ExactOracle

        tracer = self.tracer
        started = time.perf_counter_ns()
        root = tracer.record("session", int(due * 1e9), 0, session=index)
        tracer.record("generator.lag", int(due * 1e9), started, root, index)
        oracle = _TimedOracle(ExactOracle(self.ref.hierarchy, target), tracer,
                              root, index)
        try:
            result = await client.run_target_session(index, oracle)
        finally:
            tracer.end(root)
        done = time.perf_counter_ns()
        oracle.gaps_ns.append(done - oracle.sent)
        tracer.record("client.answer", oracle.sent, done, root, index)
        self.call_us[index] = [g / 1e3 for g in oracle.gaps_ns]
        self.oracle_ns += oracle.oracle_ns
        self.oracle_calls += len(oracle.gaps_ns)
        self.latency_ms[index] = (done / 1e9 - due) * 1e3
        self.results[index] = result

    async def _session(self, client, index: int, due: float, target) -> None:
        from repro.exceptions import AdmissionError

        run = self._target if self.workload == "serve-target" else self._interactive
        try:
            await run(client, index, due, target)
        except AdmissionError:
            self.refused += 1
        except Exception as exc:  # every failure is counted by type
            self.errors[type(exc).__name__] += 1

    async def run(self) -> None:
        from repro.faults.resilience import RetryPolicy
        from repro.serve import ServeClient

        loop = asyncio.get_running_loop()
        clients = [
            await ServeClient.connect(*self.address, retry=RetryPolicy(attempts=1))
            for _ in range(self.connections)
        ]
        tasks: list[asyncio.Task] = []
        try:
            start = time.perf_counter() + 0.05
            boundaries = set(self.boundaries)
            slices = set(self.slices)
            for index, offset in enumerate(self.offsets):
                due = start + float(offset)
                if index in boundaries:
                    await self._boundary(loop, due)
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                if index in slices:
                    self.marks[index] = self._cpu()
                self.lag_ms.append((time.perf_counter() - due) * 1e3)
                tasks.append(asyncio.create_task(self._session(
                    clients[index % len(clients)], index, due,
                    self.targets[index],
                )))
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=60.0)
            self.marks[len(self.offsets)] = self._cpu()
            self.snapshots.append(
                await loop.run_in_executor(None, self._snapshot)
            )
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for client in clients:
                await client.close()

    async def _boundary(self, loop, due: float) -> None:
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        # The second window of a traced run is the traced one.
        if len(self.snapshots) == 1:
            self.tracer.enabled = True
            await loop.run_in_executor(None, self.server.ask, "trace 1")
        self.snapshots.append(await loop.run_in_executor(None, self._snapshot))


def _window(load: Load, a: dict, b: dict, lo: int, hi: int) -> dict:
    """Per-session figures of the window between snapshots ``a`` and ``b``."""
    completed = sum(1 for i in range(lo, hi) if i in load.results)
    if not completed:
        raise BenchError("no session completed in a measured window")
    per = 1e6 / completed
    server_cpu = (b["server_cpu_s"] - a["server_cpu_s"]) * per
    step_cpu = (b["step_cpu_s"] - a["step_cpu_s"]) * per
    loop_cpu = (b["loop_cpu_s"] - a["loop_cpu_s"]) * per
    steps = b["steps"] - a["steps"]
    return {
        "server_cpu_us_per_session": server_cpu,
        "client_cpu_us_per_session": (b["client_cpu_s"] - a["client_cpu_s"]) * per,
        "server.step_cpu_us_per_session": step_cpu,
        "server.step_wall_us_per_session": (b["step_wall_s"] - a["step_wall_s"]) * per,
        "server.steps_per_session": steps / completed,
        "server.sessions_per_step": (
            (b["step_batch"] - a["step_batch"]) / steps if steps else 0.0
        ),
        "transport.frames_per_session": (
            (b["frames_in"] + b["frames_out"] - a["frames_in"] - a["frames_out"])
            / completed
        ),
        "transport.remainder_cpu_us_per_session": server_cpu - step_cpu,
        "transport.loop_cpu_us_per_session": loop_cpu,
        "trace.unexplained_cpu_us_per_session": server_cpu - step_cpu - loop_cpu,
    }


def _slice_figures(load: Load, workload: str) -> dict:
    """Latency and CPU-per-session figures of every slice of the measured
    phase.  A session that failed counts as missing every latency limit."""
    inf = float("inf")
    figures: dict[str, list] = {}
    for lo, hi in zip(load.slices, load.slices[1:]):
        sessions = range(lo, hi)
        done = [i for i in sessions if i in load.results]
        if not done:
            raise BenchError(f"no session completed in slice {lo}-{hi}")
        if workload == "serve-interactive":
            questions = [us / 1e3 for i in done for us in load.call_us[i]]
        else:
            # A target session's questions are its micro-batch ticks.
            questions = [load.latency_ms[i] / load.results[i].num_queries
                         for i in done]
        questions += [inf] * (len(sessions) - len(done))
        (s0, c0), (s1, c1) = load.marks[lo], load.marks[hi]
        row = {
            "server_cpu_us_per_session": (s1 - s0) / len(done) * 1e6,
            "client_cpu_us_per_session": (c1 - c0) / len(done) * 1e6,
            "session_p50_ms": common.median(
                [load.latency_ms.get(i, inf) for i in sessions]
            ),
            "question_p50_ms": common.median(questions),
            "question_p99_ms": common.percentile(questions, 99.0),
        }
        for name, value in row.items():
            figures.setdefault(name, []).append(value)
    return figures


def inproc_figures(ref: Reference, targets: list) -> dict:
    """Traced run only: the transport-free ceilings on the same targets."""
    from repro.core.oracle import ExactOracle
    from repro.serve import Server, SessionRequest, SessionRuntime

    server = Server(ref.plan)
    start = time.perf_counter()
    outcomes = list(server.serve(
        SessionRequest(session_id=i, target=t) for i, t in enumerate(targets)
    ))
    elapsed = time.perf_counter() - start
    server.close()
    for outcome in outcomes:
        if not outcome.ok:
            raise BenchError(f"in-process session failed: {outcome.error!r}")
        ref.check(outcome.session_id, targets[outcome.session_id], outcome.result)
    questions = 0
    start = time.perf_counter()
    for target in targets:
        oracle = ExactOracle(ref.hierarchy, target)
        runtime = SessionRuntime(ref.plan)
        while not runtime.done():
            runtime.observe(oracle.answer(runtime.propose()))
        questions += runtime.num_queries
    runtime_s = time.perf_counter() - start
    return {
        "server.inproc_sessions_per_s": len(targets) / elapsed,
        "runtime.question_us": runtime_s / questions * 1e6,
    }


def engine_figures(scale: str, seed: int, seconds: float) -> dict:
    """Run ``serve_engine.py`` on both CPUs at once; keep the faster figures."""
    children = [
        Child("serve_engine.py", "--seed", str(seed), "--seconds",
              str(min(ENGINE_SECONDS, seconds)), "--scale", scale, "--pin", role)
        for role in ("client", "server")
    ]
    try:
        runs = [child.read(ENGINE_SECONDS + 120.0) for child in children]
        for child, figures in zip(children, runs):
            if child.wait(30.0) != 0 or "error" in figures:
                raise BenchError(f"the engine rounds failed: {figures.get('error')}")
    finally:
        for child in children:
            child.kill()
    best = {name: max(run[name] for run in runs) for name in runs[0]}
    for name in ("compile_s", "engine.walk_s", "belief.simulate_s"):
        best[name] = min(run[name] for run in runs)
    return best


def run_serve(workload: str, scale: str, seed: int, seconds: float,
              trace: bool) -> dict:
    """One ``serve-*`` run; returns metrics, layer figures and counts."""
    common.assert_no_defaults()
    rng = np.random.default_rng(seed)
    ref = Reference(scale)
    common.freeze_heap()
    offsets = make_schedule(rng, RATES[workload], WARMUP_S + seconds)
    targets = common.draw_targets(ref.hierarchy, ref.distribution, rng, len(offsets))
    first = int(np.searchsorted(offsets, WARMUP_S))
    middle = int(np.searchsorted(offsets, WARMUP_S + seconds / 2))
    if not 0 < first < middle < len(offsets):
        raise BenchError("the schedule has no session in a measured window")

    launches = []
    server = None
    engine = engine_figures(scale, seed, seconds)
    try:
        for launch in range(LAUNCHES):
            if server is not None:
                server.kill()
            probe = ("--probe",) if launch < LAUNCHES - 1 else ()
            server, seconds_to_ready, ready = common.time_to_ready(
                "serve_server.py", "--scale", scale, *probe
            )
            if probe:
                server.wait(30.0)
            launches.append((seconds_to_ready, ready))
        ready = launches[-1][1]
        if ready["config_key"] != ref.plan.config_key:
            raise BenchError("the server compiled a different plan than the client")
        boundaries = [first, middle] if trace else [first]
        stop = middle if trace else len(offsets)
        starts = np.arange(WARMUP_S, WARMUP_S + (seconds / 2 if trace else seconds),
                           SLICE_S)
        slices = sorted({int(np.searchsorted(offsets, t)) for t in starts} | {stop})
        load = Load(workload, server, (ready["host"], ready["port"]), ref,
                    offsets, targets, boundaries, slices, Tracer(False),
                    os.cpu_count() or 1)
        common.pin("client")
        asyncio.run(load.run())
        peak_rss = common.peak_rss_mb(server.pid)
        spans = server.ask("quit")["spans"]
        if server.wait(30.0) != 0:
            raise BenchError("the server exited with an error")
    finally:
        if server is not None:
            server.kill()

    for index, result in load.results.items():
        ref.check(index, targets[index], result)
    end = len(offsets)
    if trace:
        plain = _window(load, load.snapshots[0], load.snapshots[1], first, middle)
        traced = _window(load, load.snapshots[1], load.snapshots[2], middle, end)
    else:
        plain = _window(load, load.snapshots[0], load.snapshots[1], first, end)
    measured = range(first, middle if trace else end)
    latency = [load.latency_ms.get(i, float("inf")) for i in measured]
    done = [i for i in measured if i in load.results]
    mean_queries = float(np.mean([load.results[i].num_queries for i in done]))
    expected = float(np.mean([
        ref.walk.queries[ref.hierarchy.index(targets[i])] for i in done
    ]))
    if mean_queries != expected:
        raise BenchError(
            f"mean questions {mean_queries!r} != the walk's {expected!r}"
        )
    calls = [us for i in done for us in load.call_us[i]]
    by_slice = _slice_figures(load, workload)
    failed = load.refused + sum(load.errors.values())
    lag_p99 = common.percentile(load.lag_ms, 99.0)
    metrics = {
        "compile_s": engine["compile_s"],
        "eval_targets_per_s": engine["eval_targets_per_s"],
        "noisy_sessions_per_s": engine["noisy_sessions_per_s"],
        "mean_queries": mean_queries,
        "peak_rss_mb": peak_rss,
        **{name: common.median(values) for name, values in by_slice.items()},
    }
    last = load.snapshots[-1]
    layers = {
        **{k: v for k, v in ready.items() if "." in k},
        **{k: engine[k] for k in engine if "." in k},
        **{k: v for k, v in plain.items() if "." in k},
        "server.cpu_us_per_session": plain["server_cpu_us_per_session"],
        "server.peak_in_flight": last["peak_in_flight"],
        "server.rejected": last["rejected"],
        "server.errored": last["errored"],
        "transport.rejected": last["transport_rejected"],
        "transport.protocol_errors": last["protocol_errors"],
        "transport.orphaned": last["orphaned"],
        "client.call_us": float(np.mean(calls)),
        "client.oracle_us": (
            load.oracle_ns / load.oracle_calls / 1e3 if load.oracle_calls else 0.0
        ),
        "client.session_p99_ms": common.percentile(latency, 99.0),
        "generator.lag_p99_ms": lag_p99,
        "generator.sent": len(offsets),
        "generator.completed": len(load.results),
        "generator.refused": load.refused,
        "generator.errored": sum(load.errors.values()),
    }
    if trace:
        layers.update(inproc_figures(ref, targets[first:middle]))
        layers["trace.overhead_pct"] = 100.0 * (
            (traced["server_cpu_us_per_session"] + traced["client_cpu_us_per_session"])
            / (plain["server_cpu_us_per_session"] + plain["client_cpu_us_per_session"])
            - 1.0
        )
        load.tracer.write(f"{workload}-seed{seed}")
    problems = []
    if load.errors:
        problems.append(f"errored sessions by type: {dict(load.errors)}")
    if lag_p99 > LAG_P99_LIMIT_MS:
        problems.append(
            f"generator lag p99 {lag_p99:.1f} ms exceeds {LAG_P99_LIMIT_MS} ms"
        )
    if not all(np.isfinite(v) for v in metrics.values()):
        problems.append("a latency figure is infinite: sessions failed")
    return {
        "metrics": metrics,
        "layers": layers,
        "setup_runs": [s for s, _ in launches],
        "spans": common.merge_summaries(load.tracer.summary(), spans),
        "slices": by_slice,
        "attempted": len(offsets),
        "failed": failed,
        "sessions": {"attempted": len(offsets), "completed": len(load.results),
                     "refused": load.refused, "errored": dict(load.errors)},
        "problems": problems,
    }
