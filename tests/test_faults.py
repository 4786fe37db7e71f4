"""Tests for deterministic fault injection and the resilience layer.

Four contracts:

1. **Injection mechanics** — the ``REPRO_FAULTS=1`` gate, scripted and
   seeded-random :class:`~repro.faults.FaultPlan` determinism, trace
   replay, and the typed-exception registry (``FAULT_SITES``).

2. **Resilience primitives** — :class:`~repro.faults.RetryPolicy`
   (deterministic jittered backoff) and
   :class:`~repro.faults.CircuitBreaker` (tick-counted trip ->
   cooldown -> probe -> restore).

3. **Stack behaviour under faults** — pool deadlines raise typed
   :class:`~repro.exceptions.PoolTimeoutError` instead of hanging,
   injected worker kills recover bit-identically, server drains and
   flaky oracles fail typed, and crash-atomic cache writes never leave
   torn files.

4. **Mini chaos soak** — seeded random fault schedules over a live
   server: termination, typed errors only, completed sessions
   bit-identical to fault-free serving (the full-size soak is
   ``benchmarks/bench_faults.py``).

Every test arms its own environment (``monkeypatch.setenv``), so the
suite passes in a tier-1 run without ``REPRO_FAULTS`` set.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.analysis import schedule as _schedule
from repro.core.costs import UnitCost
from repro.core.oracle import ExactOracle
from repro.core.session import default_budget, run_search
from repro.engine import EvaluationPool, simulate_all_targets
from repro.engine.cache import EngineResultCache, result_key
from repro.exceptions import (
    AdmissionError,
    FaultError,
    FaultInjectedError,
    OracleError,
    PoolError,
    PoolTimeoutError,
    ReproError,
    ServeError,
    ServeTimeoutError,
    TransportError,
)
from repro.faults import (
    FAULT_SITES,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    FlakyOracle,
    RetryPolicy,
    maybe_inject,
    site_exception,
)
from repro.faults import inject as _inject
from repro.plan import CompiledPlan, compile_policy
from repro.plan.cache import PlanCache
from repro.policies import GreedyTreePolicy
from repro.serve import Server, ServeClient, ServeTransport, SessionRequest
from repro.testing import make_random_tree, random_distribution


@pytest.fixture
def faults_on(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "1")


def _config(n=40, seed=7):
    hierarchy = make_random_tree(n, seed=seed)
    distribution = random_distribution(hierarchy, seed)
    plan = compile_policy(GreedyTreePolicy(), hierarchy, distribution)
    return plan, hierarchy, distribution


def _reference_outcomes(plan, hierarchy, targets):
    return {
        t: run_search(plan, ExactOracle(hierarchy, t), hierarchy)
        for t in targets
    }


# ----------------------------------------------------------------------
# 1. Injection mechanics
# ----------------------------------------------------------------------
class TestGate:
    def test_arming_requires_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert not _inject.enabled()
        plan = FaultPlan([FaultSpec("crash", at="serve.step")])
        with pytest.raises(FaultError, match="REPRO_FAULTS=1"):
            with plan.armed():
                pass

    def test_one_plan_at_a_time(self, faults_on):
        with FaultPlan().armed():
            with pytest.raises(FaultError, match="already armed"):
                with FaultPlan().armed():
                    pass

    def test_hook_cleared_even_on_error(self, faults_on):
        plan = FaultPlan([FaultSpec("crash", at="serve.step")])
        with pytest.raises(ServeError):
            with plan.armed():
                maybe_inject("serve.step")
        assert _schedule._FAULT_HOOK is None

    def test_spec_validation(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec("meteor", at="serve.step")
        with pytest.raises(FaultError, match="1-based"):
            FaultSpec("crash", at="serve.step", nth=0)
        with pytest.raises(FaultError, match="rate"):
            FaultPlan.random(seed=1, rate=1.5)

    def test_disarmed_hook_costs_nothing(self):
        # With no plan armed, schedule_point is two global loads.
        assert _schedule._FAULT_HOOK is None
        maybe_inject("serve.step")  # no-op, no error


class TestTypedSites:
    def test_registry_covers_all_stack_boundaries(self):
        # Spot-check the contract the resilience layer leans on.
        assert FAULT_SITES["pool.collect"] is PoolTimeoutError
        assert FAULT_SITES["serve.submit"] is AdmissionError
        assert site_exception("serve.submit") is AdmissionError

    def test_unregistered_label_falls_back_typed(self):
        exc = site_exception("totally.adhoc")
        assert exc is FaultInjectedError
        assert issubclass(exc, ReproError)

    def test_scripted_crash_raises_site_type(self, faults_on):
        plan = FaultPlan([FaultSpec("crash", at="serve.submit")])
        with plan.armed():
            with pytest.raises(AdmissionError, match="injected fault"):
                maybe_inject("serve.submit")
        assert plan.trace == [("serve.submit", 1, "crash")]

    def test_nth_occurrence_counts(self, faults_on):
        plan = FaultPlan([FaultSpec("crash", at="oracle.answer", nth=3)])
        with plan.armed():
            maybe_inject("oracle.answer")
            maybe_inject("oracle.answer")
            with pytest.raises(OracleError):
                maybe_inject("oracle.answer")
        assert plan.counts["oracle.answer"] == 3


class TestDeterminism:
    def _drive(self, plan, crossings=300):
        with plan.armed():
            for _ in range(crossings):
                try:
                    maybe_inject("serve.step")
                except ReproError:
                    pass
        return list(plan.trace)

    def test_same_seed_same_trace(self, faults_on):
        make = lambda: FaultPlan.random(seed=42, rate=0.1, kinds=("crash",))
        assert self._drive(make()) == self._drive(make())
        assert self._drive(make())  # and some faults actually fired

    def test_different_seed_different_trace(self, faults_on):
        a = self._drive(FaultPlan.random(seed=1, rate=0.1, kinds=("crash",)))
        b = self._drive(FaultPlan.random(seed=2, rate=0.1, kinds=("crash",)))
        assert a != b

    def test_trace_replay(self, faults_on):
        recorded = self._drive(
            FaultPlan.random(seed=9, rate=0.08, kinds=("crash", "slow"))
        )
        assert recorded
        replay = FaultPlan.from_trace(recorded)
        assert self._drive(replay) == recorded

    def test_max_faults_caps_injections(self, faults_on):
        plan = FaultPlan.random(
            seed=3, rate=1.0, kinds=("crash",), max_faults=2
        )
        assert len(self._drive(plan, crossings=50)) == 2

    def test_excluded_sites_never_fire(self, faults_on):
        plan = FaultPlan.random(
            seed=3, rate=1.0, kinds=("crash",), exclude=("serve.step",)
        )
        assert self._drive(plan, crossings=50) == []

    def test_pool_kinds_skipped_without_pool(self, faults_on):
        plan = FaultPlan.random(
            seed=3, rate=1.0, kinds=("kill_worker", "stall")
        )
        assert self._drive(plan, crossings=50) == []


# ----------------------------------------------------------------------
# 2. Resilience primitives
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_deterministic_and_bounded(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=0.4, jitter=0.5, seed=11
        )
        delays = policy.delays()
        assert delays == policy.delays()
        assert len(delays) == 4
        for i, pause in enumerate(delays):
            raw = min(0.4, 0.1 * 2**i)
            assert 0.5 * raw <= pause <= raw

    def test_seed_desynchronizes(self):
        a = RetryPolicy(attempts=4, seed=1).delays()
        b = RetryPolicy(attempts=4, seed=2).delays()
        assert a != b

    def test_call_retries_then_succeeds(self):
        calls = {"n": 0}
        retried = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ValueError("transient")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay=0.0, jitter=0.0)
        result = policy.call(
            flaky,
            retry_on=(ValueError,),
            on_retry=lambda attempt, exc: retried.append(attempt),
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert retried == [0, 1]

    def test_call_exhausts_and_reraises(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0)

        def always():
            raise ValueError("permanent")

        with pytest.raises(ValueError, match="permanent"):
            policy.call(always, retry_on=(ValueError,))

    def test_foreign_exception_propagates_immediately(self):
        policy = RetryPolicy(attempts=5, base_delay=0.0)
        calls = {"n": 0}

        def wrong_type():
            calls["n"] += 1
            raise KeyError("not retried")

        with pytest.raises(KeyError):
            policy.call(wrong_type, retry_on=(ValueError,))
        assert calls["n"] == 1

    def test_validation(self):
        with pytest.raises(FaultError):
            RetryPolicy(attempts=0)
        with pytest.raises(FaultError):
            RetryPolicy(jitter=1.0)


class TestCircuitBreaker:
    def test_trip_cooldown_probe_restore(self):
        breaker = CircuitBreaker(cooldown=2)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert (breaker.trips, breaker.restores) == (1, 0)
        breaker.tick()
        assert breaker.state == CircuitBreaker.OPEN
        breaker.tick()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert (breaker.trips, breaker.restores) == (1, 0)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert (breaker.trips, breaker.restores) == (1, 1)
        breaker.record_success()  # already closed: not another restore
        assert breaker.restores == 1

    def test_failed_probe_retrips_fresh_cooldown(self):
        breaker = CircuitBreaker(cooldown=3)
        breaker.record_failure()
        for _ in range(3):
            breaker.tick()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()  # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert (breaker.trips, breaker.restores) == (2, 0)
        breaker.tick()
        breaker.tick()
        assert breaker.state == CircuitBreaker.OPEN  # full cooldown again
        breaker.tick()
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_threshold_counts_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert (breaker.trips, breaker.restores) == (1, 0)

    def test_failures_while_open_ignored(self):
        breaker = CircuitBreaker(cooldown=2)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_failure()
        assert (breaker.trips, breaker.restores) == (1, 0)
        breaker.tick()
        assert breaker.state == CircuitBreaker.OPEN
        breaker.tick()
        assert breaker.state == CircuitBreaker.HALF_OPEN  # cooldown not extended

    def test_validation(self):
        with pytest.raises(FaultError):
            CircuitBreaker(cooldown=0)
        with pytest.raises(FaultError):
            CircuitBreaker(failure_threshold=0)


# ----------------------------------------------------------------------
# 3. Stack behaviour under faults
# ----------------------------------------------------------------------
class TestPoolDeadlines:
    def test_wedged_worker_raises_typed_timeout(self):
        plan, hierarchy, _ = _config(seed=21)
        with EvaluationPool(workers=1) as pool:
            simulate_all_targets(plan, result_cache=False, pool=pool)  # warm
            # Tighten only after the warm run: under spawn, worker boot
            # itself takes longer than 0.3s of "no progress".  The
            # attribute is read per collect call, so this is the same
            # deadline the constructor argument installs.
            pool.deadline = 0.3
            pool._inject_sleep(60.0)  # the lone worker is now busy
            with pytest.raises(PoolTimeoutError) as exc_info:
                simulate_all_targets(plan, result_cache=False, pool=pool)
        message = str(exc_info.value)
        assert "no progress" in message
        assert "pid" in message and "task" in message

    def test_per_call_deadline_overrides_pool_default(self):
        plan, hierarchy, _ = _config(seed=22)
        n = hierarchy.n
        with EvaluationPool(workers=1) as pool:  # no pool-wide deadline
            # Boot + attach before the deadlined walk: spawn workers take
            # longer than 0.3s to come up.
            simulate_all_targets(plan, result_cache=False, pool=pool)
            pool._inject_sleep(60.0)
            with pytest.raises(PoolTimeoutError, match="no progress"):
                pool.run_walk(
                    plan, hierarchy, UnitCost(),
                    np.arange(n, dtype=np.int64),
                    np.full(n, -1, dtype=np.int64),
                    np.full(n, np.nan),
                    default_budget(hierarchy), True,
                    deadline=0.3,
                )

    def test_close_after_timeout_skips_join_budget(self):
        """Workers busy when a call timed out are terminated at close
        instead of being waited on for the 5 s join budget."""
        plan, hierarchy, _ = _config(seed=24)
        pool = EvaluationPool(workers=2)
        try:
            simulate_all_targets(plan, result_cache=False, pool=pool)  # warm
            pool.deadline = 0.3
            pool._inject_sleep(60.0)
            pool._inject_sleep(60.0)  # both workers are now wedged
            with pytest.raises(PoolTimeoutError):
                simulate_all_targets(plan, result_cache=False, pool=pool)
            procs = list(pool._procs)
            assert pool._wedged == {proc.pid for proc in procs}
        finally:
            start = time.monotonic()
            pool.close()
            elapsed = time.monotonic() - start
        assert elapsed < 1.0
        assert not any(proc.is_alive() for proc in procs)

    def test_deadline_validation(self):
        with pytest.raises(PoolError, match="deadline"):
            EvaluationPool(workers=1, deadline=-1.0)

    def test_health_tracks_worker_results(self):
        plan, hierarchy, _ = _config(seed=23)
        with EvaluationPool(workers=2) as pool:
            simulate_all_targets(plan, result_cache=False, pool=pool)
            health = pool.health()
            assert health  # at least one worker reported a result
            assert all(h.alive for h in health)
            assert sum(h.completed for h in health) > 0


class TestInjectedPoolFaults:
    def test_kill_worker_recovers_bit_identical(self, faults_on):
        plan, hierarchy, _ = _config(seed=25)
        reference = simulate_all_targets(
            plan, result_cache=False, pool=False
        )
        fault = FaultPlan([FaultSpec("kill_worker", at="pool.collect", nth=1)])
        with EvaluationPool(workers=1) as pool:
            simulate_all_targets(plan, result_cache=False, pool=pool)  # warm
            pool._inject_sleep(60.0)  # the worker is busy: the kill
            # deterministically lands before it can produce a result
            with fault.armed(pool=pool):
                result = simulate_all_targets(
                    plan, result_cache=False, pool=pool
                )
            assert fault.fired == 1
            assert pool.respawns >= 1
        assert np.array_equal(reference.queries, result.queries)
        assert np.allclose(
            reference.prices[reference.target_ix],
            result.prices[result.target_ix],
        )

    def test_segment_attack_ends_typed_not_hung(self, faults_on):
        """Vanish the plan's segment, then kill the attached worker: the
        respawned worker cannot re-attach, and the failure must surface
        as a typed PoolError within the retry budget — never a hang."""
        plan, hierarchy, _ = _config(seed=26)
        fault = FaultPlan(
            [
                FaultSpec("vanish_segment", at="pool.acquire_for_walk", nth=1),
                FaultSpec("kill_worker", at="pool.collect", nth=1),
            ]
        )
        with EvaluationPool(workers=1, deadline=30.0) as pool:
            # Warm: the worker attaches to the plan's segment.
            simulate_all_targets(plan, result_cache=False, pool=pool)
            pool._inject_sleep(60.0)  # wedge it so the kill lands first
            with fault.armed(pool=pool):
                with pytest.raises(PoolError):
                    simulate_all_targets(plan, result_cache=False, pool=pool)
        assert {kind for _, _, kind in fault.trace} == {
            "vanish_segment", "kill_worker",
        }


class TestServerUnderFaults:
    def test_drain_timeout_raises_typed_under_stall(self):
        plan, hierarchy, _ = _config(seed=34)
        depths = plan.leaf_depths()
        target = max(depths, key=depths.get)
        assert depths[target] >= 4
        exact = ExactOracle(hierarchy, target)

        class StalledOracle:
            """A crowd worker taking 0.2s per answer."""

            def answer(self, query):
                time.sleep(0.2)
                return exact.answer(query)

        with Server(plan) as server:
            server.submit(SessionRequest("warm", target=hierarchy.root))
            server.drain(timeout=30.0)
            server.submit(SessionRequest("stalled", oracle=StalledOracle()))
            with pytest.raises(ServeTimeoutError) as exc_info:
                server.drain(timeout=0.5)
            message = str(exc_info.value)
            assert "deadline" in message and "outstanding" in message

    def test_drain_timeout_validation(self):
        plan, hierarchy, _ = _config(seed=35)
        with Server(plan) as server:
            with pytest.raises(ServeError, match="positive"):
                server.drain(timeout=0.0)

    def test_flaky_oracle_errors_one_session_typed(self, faults_on):
        plan, hierarchy, _ = _config(seed=36)
        fault = FaultPlan([FaultSpec("crash", at="oracle.answer", nth=1)])
        targets = list(hierarchy.nodes)[:3]
        with Server(plan) as server:
            server.submit(
                SessionRequest(
                    "flaky",
                    oracle=FlakyOracle(ExactOracle(hierarchy, targets[0])),
                )
            )
            for t in targets:
                server.submit(SessionRequest(t, target=t))
            with fault.armed():
                outcomes = {
                    o.session_id: o for o in server.drain(timeout=30.0)
                }
        assert isinstance(outcomes["flaky"].error, OracleError)
        for t in targets:  # co-served sessions are untouched
            assert outcomes[t].ok


class TestCrashAtomicWrites:
    def _result(self, plan, hierarchy):
        return simulate_all_targets(
            plan, result_cache=False, pool=False
        )

    def test_result_cache_put_crash_preserves_old_entry(
        self, faults_on, tmp_path
    ):
        plan, hierarchy, _ = _config(seed=41)
        result = self._result(plan, hierarchy)
        cache = EngineResultCache(tmp_path)
        key = result_key(
            "cfg", result.target_ix, 99,
            np.ones(hierarchy.n),
        )
        cache.put(result, key)
        before = cache.path_for(key).read_bytes()
        fault = FaultPlan([FaultSpec("crash", at="cache.result_put")])
        with fault.armed():
            with pytest.raises(FaultInjectedError):
                cache.put(result, key, checked=True)
        assert cache.path_for(key).read_bytes() == before  # old entry intact
        assert not list(tmp_path.glob("*.tmp"))  # no torn temporaries
        assert cache.get(key, hierarchy) is not None

    def test_plan_save_crash_preserves_old_file(self, faults_on, tmp_path):
        plan, hierarchy, _ = _config(seed=42)
        path = tmp_path / "plan.bin"
        plan.save(path)
        before = path.read_bytes()
        fault = FaultPlan([FaultSpec("crash", at="plan.save")])
        with fault.armed():
            with pytest.raises(FaultInjectedError):
                plan.save(path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp*"))
        loaded = CompiledPlan.load(path)
        assert loaded.config_key == plan.config_key

    def test_plan_cache_corrupt_entry_still_degrades_to_miss(self, tmp_path):
        plan, hierarchy, _ = _config(seed=43)
        cache = PlanCache(tmp_path)
        path = cache.put(plan)
        path.write_bytes(b"scribble" * 100)
        with pytest.warns(UserWarning, match="unreadable"):
            assert cache.probe(plan.config_key) is None
        assert not path.exists()  # corrupt entry dropped

    def test_result_cache_corrupt_entry_still_degrades_to_miss(
        self, tmp_path
    ):
        plan, hierarchy, _ = _config(seed=44)
        result = self._result(plan, hierarchy)
        cache = EngineResultCache(tmp_path)
        key = result_key("cfg", result.target_ix, 99, np.ones(hierarchy.n))
        path = cache.put(result, key)
        path.write_bytes(b"scribble" * 100)
        with pytest.warns(UserWarning, match="unreadable"):
            assert cache.get(key, hierarchy) is None
        assert cache.errors == 1


# ----------------------------------------------------------------------
# 4. Mini chaos soak (the full-size one is benchmarks/bench_faults.py)
# ----------------------------------------------------------------------
class TestMiniSoak:
    def test_seeded_schedules_terminate_typed_and_bit_identical(
        self, faults_on
    ):
        plan, hierarchy, _ = _config(n=30, seed=51)
        targets = list(hierarchy.nodes)[:10]
        reference = _reference_outcomes(plan, hierarchy, targets)
        # Target sessions beside oracle sessions whose answers cross the
        # oracle.answer site.
        feed = [SessionRequest(t, target=t) for t in targets] + [
            SessionRequest(
                ("oracle", t), oracle=FlakyOracle(ExactOracle(hierarchy, t))
            )
            for t in targets[:4]
        ]
        for seed in range(12):
            fault = FaultPlan.random(
                seed, rate=0.03, kinds=("crash", "slow"), max_faults=3
            )
            outcomes = {}
            with Server(plan, max_sessions=8) as server:
                with fault.armed():
                    try:
                        for o in server.serve(iter(feed)):
                            outcomes[o.session_id] = o
                    except ReproError:
                        # An injected crash escaped through the serve
                        # loop itself: typed, so the schedule is a
                        # pass — sessions it cut short are unserved.
                        pass
            for sid, outcome in outcomes.items():
                target = sid[1] if isinstance(sid, tuple) else sid
                if outcome.ok:
                    assert outcome.result == reference[target], (
                        f"seed {seed} trace {fault.trace}"
                    )
                else:
                    assert isinstance(outcome.error, ReproError), (
                        f"seed {seed} trace {fault.trace}"
                    )


# ----------------------------------------------------------------------
# 8. The network edge: transport.* fault sites
# ----------------------------------------------------------------------
class TestTransportFaults:
    def test_registry_has_transport_sites(self):
        assert FAULT_SITES["transport.request"] is TransportError
        assert FAULT_SITES["transport.open"] is AdmissionError
        assert FAULT_SITES["transport.drain"] is ServeTimeoutError
        assert site_exception("transport.connect") is TransportError

    def test_connect_fault_absorbed_by_retry(self, faults_on):
        """An injected dial failure is retried away by the RetryPolicy."""
        plan, hierarchy, _ = _config(n=30)
        target = list(hierarchy.nodes)[3]
        reference = run_search(
            plan, ExactOracle(hierarchy, target), hierarchy
        )
        fault = FaultPlan([FaultSpec("crash", at="transport.connect")])

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    with fault.armed():
                        client = await ServeClient.connect(
                            host,
                            port,
                            retry=RetryPolicy(attempts=2, base_delay=0.001),
                        )
                        try:
                            return await client.serve_target("s", target)
                        finally:
                            await client.close()

        result = asyncio.run(main())
        assert result == reference
        assert fault.trace == [("transport.connect", 1, "crash")]

    def test_open_fault_is_typed_and_retried(self, faults_on):
        """A crash at transport.open surfaces as AdmissionError on the
        wire, which the client's retry policy absorbs."""
        plan, hierarchy, _ = _config(n=30)
        target = list(hierarchy.nodes)[5]
        reference = run_search(
            plan, ExactOracle(hierarchy, target), hierarchy
        )
        fault = FaultPlan([FaultSpec("crash", at="transport.open")])

        async def main():
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    client = await ServeClient.connect(
                        host,
                        port,
                        retry=RetryPolicy(attempts=3, base_delay=0.001),
                    )
                    try:
                        with fault.armed():
                            return await client.serve_target("s", target)
                    finally:
                        await client.close()

        result = asyncio.run(main())
        assert result == reference
        assert ("transport.open", 1, "crash") in fault.trace

    def test_request_fault_trips_the_breaker(self, faults_on):
        """A transport-level failure trips the per-backend breaker:
        requests fail fast during the cooldown, then one probe restores."""
        plan, hierarchy, _ = _config(n=30)
        targets = list(hierarchy.nodes)[:4]
        fault = FaultPlan([FaultSpec("crash", at="transport.request")])
        breaker = CircuitBreaker(cooldown=3)

        async def main():
            failures = []
            with Server(plan) as server:
                async with ServeTransport(server) as transport:
                    host, port = transport.address
                    client = await ServeClient.connect(
                        host, port, breaker=breaker
                    )
                    try:
                        with fault.armed():
                            for i, t in enumerate(targets):
                                try:
                                    await client.serve_target(f"s-{i}", t)
                                except TransportError as exc:
                                    failures.append(str(exc))
                    finally:
                        await client.close()
            return failures

        failures = asyncio.run(main())
        # Request 1: injected crash (trip).  Requests 2-3: refused fast
        # while cooling down.  Request 4: half-open probe succeeds.
        assert len(failures) == 3
        assert "injected fault" in failures[0]
        assert all("circuit breaker open" in f for f in failures[1:])
        assert breaker.trips == 1
        assert breaker.restores == 1

    def test_drain_fault_is_typed(self, faults_on):
        """An injected fault in the drain window surfaces as the
        registered ServeTimeoutError, never untyped."""
        plan, _, _ = _config(n=30)
        fault = FaultPlan([FaultSpec("crash", at="transport.drain")])

        async def main():
            with Server(plan) as server:
                transport = ServeTransport(server)
                await transport.start()
                with fault.armed():
                    with pytest.raises(ServeTimeoutError, match="injected"):
                        await transport.shutdown(timeout=5.0)
                # The typed failure aborted the drain before the feed
                # closed; a clean retry finishes the shutdown.
                await transport.shutdown(timeout=5.0)

        asyncio.run(main())
