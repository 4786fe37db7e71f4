"""Property-based bit-identity across every execution mode of the engine.

The engine's core contract since the sharded-walk PR: for any hierarchy,
policy, and configuration, the per-target ``queries``/``prices`` arrays
and ``decision_nodes`` are *bit-identical* whichever way the walk executes
— sequentially, on a fresh :class:`~repro.engine.EvaluationPool` (first
publish and worker attach), on a warm persistent pool, or overlapped with
other policies in one :func:`~repro.engine.simulate_policies` batch.  The
fixed-case tests in ``test_parallel.py`` / ``test_pool.py`` locate
failures precisely; this suite *searches* for violations over random
tree/DAG hierarchies × every registry policy × all four modes, with
hypothesis shrinking any counterexample to a minimal seed.

Examples are generated from integer seeds (the repo's deterministic
``repro.testing`` builders), so a failing case reproduces from its printed
seed alone; ``derandomize=True`` keeps CI stable run to run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.costs import TableCost
from repro.engine import EvaluationPool, simulate_all_targets, simulate_policies
from repro.policies import available_policies, make_policy
from repro.testing import make_random_dag, make_random_tree, random_distribution

#: Policies that only define behaviour on trees (mirrors test_plan.py).
TREE_ONLY = {"greedy-tree"}

#: Modest example counts: every example starts a fresh pool, so the
#: suite trades exhaustiveness per run for a tolerable wall-clock; CI runs
#: it on every push, which is where the coverage accumulates.
_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

_POOL: EvaluationPool | None = None


@pytest.fixture(autouse=True, scope="module")
def _module_pool():
    """One warm pool for the whole module (hypothesis examples must not
    pay a pool spin-up each, and function-scoped fixtures do not mix with
    ``@given``)."""
    global _POOL
    _POOL = EvaluationPool(workers=2)
    try:
        yield
    finally:
        _POOL.close()
        _POOL = None


def _hierarchy(kind: str, n: int, seed: int):
    if kind == "tree":
        return make_random_tree(n, seed=seed)
    return make_random_dag(n, seed=seed)


def _policies_for(kind: str) -> tuple[str, ...]:
    names = available_policies()
    if kind == "tree":
        return names
    return tuple(n for n in names if n not in TREE_ONLY)


def _assert_same(a, b, context: str) -> None:
    assert a.policy == b.policy, context
    assert a.decision_nodes == b.decision_nodes, context
    assert np.array_equal(a.target_ix, b.target_ix), context
    assert np.array_equal(a.queries, b.queries), context
    assert np.array_equal(a.prices, b.prices, equal_nan=True), context


def _on_fresh_pool(*args, **kwargs):
    """One evaluation on a new two-worker pool, closed afterwards."""
    with EvaluationPool(workers=2) as pool:
        return simulate_all_targets(*args, pool=pool, **kwargs)


def _all_mode_results(policy_name, hierarchy, distribution, costs=None):
    """The same evaluation through all four execution modes."""
    common = dict(result_cache=False)
    return {
        "sequential": simulate_all_targets(
            make_policy(policy_name), hierarchy, distribution, costs,
            pool=False, **common,
        ),
        "fresh pool": _on_fresh_pool(
            make_policy(policy_name), hierarchy, distribution, costs,
            **common,
        ),
        "warm pool": simulate_all_targets(
            make_policy(policy_name), hierarchy, distribution, costs,
            pool=_POOL, **common,
        ),
        "overlapped": simulate_policies(
            [make_policy(policy_name)], hierarchy, distribution, costs,
            pool=_POOL, **common,
        )[0],
    }


class TestEveryModeBitIdentical:
    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        policy_index=st.integers(min_value=0, max_value=63),
        n=st.integers(min_value=8, max_value=48),
    )
    def test_full_evaluation(self, seed, kind, policy_index, n):
        hierarchy = _hierarchy(kind, n, seed)
        distribution = random_distribution(hierarchy, seed)
        names = _policies_for(kind)
        name = names[policy_index % len(names)]
        results = _all_mode_results(name, hierarchy, distribution)
        reference = results.pop("sequential")
        for mode, result in results.items():
            _assert_same(
                reference, result,
                f"{mode} diverged: kind={kind} n={n} seed={seed} policy={name}",
            )

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        n=st.integers(min_value=10, max_value=40),
    )
    def test_heterogeneous_prices(self, seed, kind, n):
        hierarchy = _hierarchy(kind, n, seed)
        distribution = random_distribution(hierarchy, seed)
        rng = np.random.default_rng(seed)
        costs = TableCost(
            {
                node: float(price)
                for node, price in zip(
                    hierarchy.nodes,
                    rng.uniform(0.5, 4.0, size=hierarchy.n).round(2),
                )
            }
        )
        name = "greedy-tree" if kind == "tree" else "greedy-dag"
        results = _all_mode_results(name, hierarchy, distribution, costs)
        reference = results.pop("sequential")
        for mode, result in results.items():
            _assert_same(
                reference, result,
                f"{mode} diverged: kind={kind} n={n} seed={seed} priced",
            )

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["tree", "dag"]),
        n=st.integers(min_value=12, max_value=40),
        num_policies=st.integers(min_value=2, max_value=3),
    )
    def test_overlapped_compare_matches_policy_serial(
        self, seed, kind, n, num_policies
    ):
        """compare-style batches: k policies overlapped on the pool produce
        exactly the per-policy sequential arrays, pairwise."""
        hierarchy = _hierarchy(kind, n, seed)
        distribution = random_distribution(hierarchy, seed)
        names = _policies_for(kind)
        chosen = [names[(seed + i) % len(names)] for i in range(num_policies)]
        serial = [
            simulate_all_targets(
                make_policy(name), hierarchy, distribution,
                pool=False, result_cache=False,
            )
            for name in chosen
        ]
        overlapped = simulate_policies(
            [make_policy(name) for name in chosen],
            hierarchy, distribution,
            pool=_POOL, result_cache=False,
        )
        for name, a, b in zip(chosen, serial, overlapped):
            _assert_same(
                a, b,
                f"overlap diverged: kind={kind} n={n} seed={seed} "
                f"policy={name} of {chosen}",
            )

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=12, max_value=40),
        stride=st.integers(min_value=2, max_value=4),
    )
    def test_restricted_target_sets(self, seed, n, stride):
        """Sampled target sets stay bit-identical across modes too (the
        pool serves the same pruned frames the sequential walk settles)."""
        hierarchy = _hierarchy("tree", n, seed)
        distribution = random_distribution(hierarchy, seed)
        sample = list(hierarchy.nodes[::stride])
        # A compiled plan pins the plan-walk path for every mode (a small
        # sample would otherwise take the sequential fused pruned walk).
        from repro.plan import compile_policy

        plan = compile_policy(
            make_policy("greedy-tree"), hierarchy, distribution
        )
        kwargs = dict(targets=sample, result_cache=False)
        reference = simulate_all_targets(plan, pool=False, **kwargs)
        for mode, result in {
            "fresh pool": _on_fresh_pool(plan, **kwargs),
            "warm pool": simulate_all_targets(plan, pool=_POOL, **kwargs),
        }.items():
            _assert_same(
                reference, result,
                f"{mode} diverged: n={n} seed={seed} stride={stride}",
            )
