"""The multi-session simulation driver: all targets of a hierarchy, one pass.

The paper's evaluation protocol (Eq. 2 and the Fig. 4–6 / Table 2–5 drivers)
scores a deterministic policy by the cost of one interactive search per
target.  The seed implementation literally ran ``run_search`` once per
target, resetting the policy and rebuilding an oracle every time — an
``O(n)``-per-target loop and the dominant cost of every experiment.

:func:`simulate_all_targets` replaces that loop, and since the compile/
execute split it runs entirely on :class:`~repro.plan.CompiledPlan` arrays:

1. the policy is compiled once — the compiler proposes at each decision
   point exactly once, backtracking with exact answer reversal
   (:meth:`~repro.core.policy.Policy.undo`) — or the caller passes an
   already-compiled (possibly cache-loaded) plan;
2. the walk descends the plan's flat child arrays, splitting the current
   target vector (a flat numpy index array) into the yes/no halves with the
   hierarchy's reachability kernel (:func:`repro.engine.vector.make_splitter`)
   and pruning empty halves;
3. at a leaf, the depth and accumulated price land in per-target arrays.

The per-target bookkeeping is pure numpy, and the policy work — zero for a
shared/cached plan — is proportional to the number of *distinct* questions
(≤ 2n − 1), not the sum of all per-target search depths.  Two special
cases: a small sampled (Monte-Carlo) target set takes a fused
target-pruned walk instead (unless a compiled plan is already on disk), so
a handful of sampled targets never pays for the full compile; and policies
without exact undo (the seeded random baseline) fall back to a
transcript-replay adapter (one ``run_search`` per target) — compiling them
by prefix replay would cost the same as that loop with nothing amortised.
Every registry policy, and any third-party
:class:`~repro.core.policy.Policy`, produces identical numbers through the
same API.

Two further levers make the walk paper-scale (see ``pool`` and
``result_cache`` on :func:`simulate_all_targets`): the plan walk shards
over a persistent :class:`~repro.engine.pool.EvaluationPool` with
bit-identical output for every worker count, and finished per-target cost
arrays persist on disk keyed by configuration content hash, so repeating
an unchanged evaluation skips the walk entirely
(:mod:`repro.engine.cache`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from repro.core.costs import QueryCostModel, UnitCost
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.oracle import ExactOracle
from repro.core.policy import Policy
from repro.core.session import default_budget, run_search
from repro.engine.pool import resolve_pool
from repro.engine.vector import is_vector_policy, make_splitter
from repro.exceptions import BudgetExceededError, SearchError
from repro.plan import (
    ROOT,
    CompiledPlan,
    as_plan_cache,
    compile_policy,
    get_default_cache,
)
from repro.plan.compile import check_leaf, plan_key


@dataclass(frozen=True)
class EngineResult:
    """Per-target costs of one policy over one hierarchy, as flat arrays.

    ``queries``/``prices`` are aligned to node indices (length ``n``);
    entries for targets outside the evaluated set hold ``-1`` / ``nan``.
    Aggregates are computed on demand, so evaluating all ``n`` targets never
    materialises ``n`` transcripts.
    """

    policy: str
    hierarchy: Hierarchy = field(repr=False)
    #: Evaluated target node indices (unique, ascending).
    target_ix: np.ndarray = field(repr=False)
    #: Query count per node index; ``-1`` where not evaluated.
    queries: np.ndarray = field(repr=False)
    #: Total price per node index; ``nan`` where not evaluated.
    prices: np.ndarray = field(repr=False)
    #: ``"plan"`` (compiled-plan walk), ``"vector"`` (target-pruned fused
    #: walk for uncached sampled evaluation), or ``"replay"`` (per-target
    #: adapter).
    method: str = "plan"
    #: Decision points visited (plan/vector) or queries simulated (replay).
    decision_nodes: int = 0
    #: Memoized :meth:`per_target` mapping (built on first request).
    _per_target: Mapping[Hashable, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def expected_queries(self, distribution: TargetDistribution) -> float:
        """Equation (2): ``sum_z p(z) * cost(z)`` over the evaluated targets."""
        probs = distribution.as_array(self.hierarchy)[self.target_ix]
        return float(probs @ self.queries[self.target_ix])

    def expected_price(self, distribution: TargetDistribution) -> float:
        """Equation (4): probability-weighted total price."""
        probs = distribution.as_array(self.hierarchy)[self.target_ix]
        return float(probs @ self.prices[self.target_ix])

    def mean_queries(self) -> float:
        """Unweighted average query count over the evaluated targets."""
        return float(self.queries[self.target_ix].mean())

    def mean_price(self) -> float:
        """Unweighted average price over the evaluated targets."""
        return float(self.prices[self.target_ix].mean())

    def worst_case(self) -> int:
        """Maximum query count over the evaluated targets."""
        return int(self.queries[self.target_ix].max())

    def query_count(self, target: Hashable) -> int:
        """Query count of one evaluated target."""
        count = int(self.queries[self.hierarchy.index(target)])
        if count < 0:
            raise SearchError(f"target {target!r} was not simulated")
        return count

    def total_price(self, target: Hashable) -> float:
        """Total price of one evaluated target."""
        self.query_count(target)  # raises on unevaluated targets
        return float(self.prices[self.hierarchy.index(target)])

    def per_target(self) -> Mapping[Hashable, int]:
        """``{target label: query count}`` for the evaluated targets.

        Built once and memoized (index-to-label translation over ``n``
        targets is not free), so repeated aggregate queries share one
        mapping; the returned view is read-only.
        """
        if self._per_target is None:
            label = self.hierarchy.label
            mapping = {
                label(int(ix)): int(self.queries[ix]) for ix in self.target_ix
            }
            object.__setattr__(self, "_per_target", MappingProxyType(mapping))
        return self._per_target

    def __getstate__(self):
        # The memoized proxy is not picklable (and cheap to rebuild);
        # results must stay shippable to workers / disk after inspection.
        state = self.__dict__.copy()
        state["_per_target"] = None
        return state

    @property
    def num_targets(self) -> int:
        return int(len(self.target_ix))


@dataclass
class _PreparedRun:
    """One evaluation, resolved up to (but excluding) the walk itself.

    :func:`_prepare_run` turns a ``(policy, configuration)`` pair into
    either a terminal cached result, a compiled plan awaiting a walk, or a
    sequential fallback closure — so :func:`simulate_all_targets` and the
    multi-policy :func:`simulate_policies` share one resolution path and
    only differ in how they *execute* the plan walks (inline, or
    overlapped on a persistent :class:`~repro.engine.pool.EvaluationPool`).
    """

    policy_label: str
    hierarchy: Hierarchy
    model: QueryCostModel
    target_ix: np.ndarray
    budget: int
    check: bool
    queries: np.ndarray
    prices: np.ndarray
    rcache: object | None
    rkey: str
    #: Terminal: the result cache already held the answer.
    cached: EngineResult | None = None
    #: Plan-walk mode: walk these arrays (inline or on a pool).
    plan: CompiledPlan | None = None
    #: Sequential fallback (fused pruned walk / transcript replay); returns
    #: ``(method, decision_nodes)`` and scatters into queries/prices.
    fallback: object | None = None


def _prepare_run(
    policy: Policy | CompiledPlan,
    hierarchy: Hierarchy | None,
    distribution: TargetDistribution | None,
    cost_model: QueryCostModel | None,
    *,
    targets: Iterable[Hashable] | None,
    check_correctness: bool,
    max_queries: int | None,
    plan_cache,
    result_cache,
) -> _PreparedRun:
    """Resolve configuration, probe caches, compile; never walks a plan."""
    from repro.engine.cache import resolve_result_cache, result_key

    plan: CompiledPlan | None = None
    if isinstance(policy, CompiledPlan):
        plan = policy
        if hierarchy is None:
            hierarchy = plan.hierarchy
        elif (
            hierarchy is not plan.hierarchy
            and hierarchy.fingerprint() != plan.hierarchy.fingerprint()
        ):
            raise SearchError(
                "the given hierarchy does not match the plan's node "
                "indexing and edges"
            )
    elif hierarchy is None:
        raise SearchError("simulate_all_targets needs a hierarchy for a policy")

    model = cost_model or UnitCost()
    n = hierarchy.n
    if targets is None:
        target_ix = np.arange(n, dtype=np.int64)
    else:
        target_ix = np.unique(
            np.fromiter(
                (hierarchy.index(t) for t in targets), dtype=np.int64
            )
        )
        if target_ix.size == 0:
            raise SearchError("no targets to simulate")
    budget = default_budget(hierarchy, max_queries)

    # The configuration content hash (shared with the plan cache) keys the
    # persisted result; policies that cannot be fingerprinted reliably
    # (plan_cacheable false) are never cached.  Computed only when a cache
    # will actually consult it — it hashes the distribution/price arrays.
    _ckey: list[str | None] = [None]

    def config_key() -> str:
        if _ckey[0] is None:
            if plan is not None:
                _ckey[0] = plan.config_key
            elif not getattr(policy, "plan_cacheable", True):
                _ckey[0] = ""
            else:
                try:
                    _ckey[0] = plan_key(policy, hierarchy, distribution, model)
                except AttributeError:  # duck-typed, no fingerprint()
                    _ckey[0] = ""
        return _ckey[0]

    rcache = resolve_result_cache(result_cache)
    rkey = ""
    if rcache is not None and config_key():
        rkey = result_key(
            config_key(), target_ix, budget, model.as_array(hierarchy)
        )
        cached = rcache.get(
            rkey, hierarchy, require_checked=check_correctness
        )
        if cached is not None:
            return _PreparedRun(
                policy_label=cached.policy,
                hierarchy=hierarchy,
                model=model,
                target_ix=target_ix,
                budget=budget,
                check=check_correctness,
                queries=cached.queries,
                prices=cached.prices,
                rcache=rcache,
                rkey=rkey,
                cached=cached,
            )

    queries = np.full(n, -1, dtype=np.int64)
    prices = np.full(n, np.nan, dtype=float)

    prepared = _PreparedRun(
        policy_label="",
        hierarchy=hierarchy,
        model=model,
        target_ix=target_ix,
        budget=budget,
        check=check_correctness,
        queries=queries,
        prices=prices,
        rcache=rcache,
        rkey=rkey,
    )

    if plan is None and is_vector_policy(policy):
        cache = as_plan_cache(plan_cache) or get_default_cache()
        if target_ix.size < n:
            # Sampled (Monte-Carlo) evaluation.  Compiling would visit all
            # <= 2n - 1 decision points; the fused pruned walk only
            # proposes along branches the requested targets can reach
            # (~ |targets| * height decision points).  So: reuse a plan
            # already on disk (a load is cheaper than any walk), otherwise
            # compile through the cache only when the sample is large
            # enough that the walk would retrace most of the plan anyway —
            # a one-shot sampled run on a huge DAG never pays for a full
            # compile.
            if cache is not None and config_key():
                plan = cache.probe(config_key())
            if (
                plan is None
                and target_ix.size * max(hierarchy.height, 1) < n
            ):
                prepared.policy_label = policy.name

                def pruned() -> tuple[str, int]:
                    return "vector", _pruned_walk(
                        policy, hierarchy, distribution, model, target_ix,
                        queries, prices, budget, check_correctness,
                    )

                prepared.fallback = pruned
                return prepared
        if plan is None:
            if cache is not None:
                plan = cache.get_or_compile(
                    policy,
                    hierarchy,
                    distribution,
                    model,
                    max_depth=budget,
                    validate=check_correctness,
                )
            else:
                plan = compile_policy(
                    policy,
                    hierarchy,
                    distribution,
                    model,
                    max_depth=budget,
                    validate=check_correctness,
                )

    if plan is not None:
        prepared.policy_label = plan.policy_name
        prepared.plan = plan
        return prepared

    prepared.policy_label = policy.name

    def replay() -> tuple[str, int]:
        return "replay", _replay_targets(
            policy, hierarchy, distribution, model, target_ix,
            queries, prices, budget, check_correctness,
        )

    prepared.fallback = replay
    return prepared


def _execute_plan_walk(prep: _PreparedRun, pool) -> int:
    """Walk a prepared plan: on ``pool`` (already resolved), else inline."""
    if pool is not None and prep.target_ix.size > 1:
        return pool.run_walk(
            prep.plan, prep.hierarchy, prep.model, prep.target_ix,
            prep.queries, prep.prices, prep.budget, prep.check,
        )
    return _plan_walk(
        prep.plan, prep.hierarchy, prep.model, prep.target_ix,
        prep.queries, prep.prices, prep.budget, prep.check,
    )


def _finalize(prep: _PreparedRun, method: str, nodes: int) -> EngineResult:
    result = EngineResult(
        policy=prep.policy_label,
        hierarchy=prep.hierarchy,
        target_ix=prep.target_ix,
        queries=prep.queries,
        prices=prep.prices,
        method=method,
        decision_nodes=nodes,
    )
    if prep.rcache is not None and prep.rkey:
        prep.rcache.put(result, prep.rkey, checked=prep.check)
    return result


def simulate_all_targets(
    policy: Policy | CompiledPlan,
    hierarchy: Hierarchy | None = None,
    distribution: TargetDistribution | None = None,
    cost_model: QueryCostModel | None = None,
    *,
    targets: Iterable[Hashable] | None = None,
    check_correctness: bool = True,
    max_queries: int | None = None,
    plan_cache=None,
    result_cache=None,
    pool=None,
) -> EngineResult:
    """Simulate a policy or compiled plan against every target in one pass.

    Produces, for each target, exactly the query count and total price that
    ``run_search`` with an :class:`ExactOracle` would produce — the parity
    tests assert equality, not approximation.

    Parameters
    ----------
    policy:
        A policy (compiled on the fly when it supports exact undo) or an
        already-compiled :class:`~repro.plan.CompiledPlan`.
    hierarchy:
        Required for policies; optional for plans (defaults to the plan's
        own hierarchy, and must have the same node indexing if given).
    targets:
        Restrict the evaluation to these labels (duplicates collapse; the
        walk prunes branches no requested target can reach, and — unless a
        full plan is already compiled or cached on disk — a small sample
        skips plan compilation entirely in favour of a fused pruned walk).
        Default: all ``n`` nodes.
    check_correctness:
        Verify the policy identifies every simulated target.
    max_queries:
        Per-search budget, defaulting to ``2 n + 10`` as in ``run_search``.
    plan_cache:
        A :class:`~repro.plan.PlanCache` or directory path; compiled plans
        are loaded from / stored into it by configuration content hash.
        ``None`` falls back to :func:`repro.plan.get_default_cache`.
    result_cache:
        An :class:`~repro.engine.cache.EngineResultCache` or directory
        path persisting the per-target cost arrays by configuration +
        target-set content hash: a repeated run with unchanged policy/
        hierarchy/distribution/prices skips compile *and* walk.  ``None``
        falls back to
        :func:`~repro.engine.cache.get_default_result_cache`; ``False``
        disables result caching outright, *ignoring* the process default
        — callers that time the walk use this so an installed cache
        cannot turn their measurement into a disk load.
    pool:
        A persistent :class:`~repro.engine.pool.EvaluationPool`: the plan
        walk is sharded over its long-lived workers (plans travel through
        shared memory once, not per call), with per-target arrays and
        ``decision_nodes`` bit-identical to the inline walk.  ``None``
        falls back to :func:`~repro.engine.pool.get_default_pool` (the
        CLI's ``--pool`` / ``REPRO_POOL_WORKERS``); ``False`` walks
        inline, like ``result_cache=False``.  Replay policies and the fused
        pruned walk always run sequentially.
    """
    prep = _prepare_run(
        policy, hierarchy, distribution, cost_model,
        targets=targets, check_correctness=check_correctness,
        max_queries=max_queries, plan_cache=plan_cache,
        result_cache=result_cache,
    )
    if prep.cached is not None:
        return prep.cached
    if prep.plan is not None:
        return _finalize(
            prep, "plan", _execute_plan_walk(prep, resolve_pool(pool))
        )
    method, nodes = prep.fallback()
    return _finalize(prep, method, nodes)


def simulate_policies(
    policies: Iterable[Policy | CompiledPlan],
    hierarchy: Hierarchy | None = None,
    distribution: TargetDistribution | None = None,
    cost_model: QueryCostModel | None = None,
    *,
    targets: Iterable[Hashable] | None = None,
    check_correctness: bool = True,
    max_queries: int | None = None,
    plan_cache=None,
    result_cache=None,
    pool=None,
) -> list[EngineResult]:
    """Simulate several policies under one configuration, overlapping walks.

    Semantically ``[simulate_all_targets(p, ...) for p in policies]`` —
    the per-policy results are bit-identical to the one-policy path — but
    with a persistent pool every plan-walkable policy's shard frames are
    submitted into the pool's one task queue *before* any results are
    collected (:meth:`~repro.engine.pool.EvaluationPool.run_batch`), so k
    policies' walks finish in one overlapped makespan instead of k
    sequential sharded walks.  Policies that cannot take the plan walk
    (transcript replay, the fused pruned sampled walk) and result-cache
    hits run exactly as they would standalone.
    """
    if targets is not None:
        targets = list(targets)
    preps = [
        _prepare_run(
            policy, hierarchy, distribution, cost_model,
            targets=targets, check_correctness=check_correctness,
            max_queries=max_queries, plan_cache=plan_cache,
            result_cache=result_cache,
        )
        for policy in policies
    ]

    active_pool = resolve_pool(pool)
    overlapped: dict[int, int] = {}
    if active_pool is not None:
        batch = [
            i
            for i, prep in enumerate(preps)
            if prep.cached is None
            and prep.plan is not None
            and prep.target_ix.size > 1
        ]
        if batch:
            totals = active_pool.run_batch(
                [
                    (
                        preps[i].plan, preps[i].hierarchy, preps[i].model,
                        preps[i].target_ix, preps[i].queries, preps[i].prices,
                        preps[i].budget, preps[i].check,
                    )
                    for i in batch
                ]
            )
            overlapped = dict(zip(batch, totals))

    results: list[EngineResult] = []
    for i, prep in enumerate(preps):
        if prep.cached is not None:
            results.append(prep.cached)
        elif i in overlapped:
            results.append(_finalize(prep, "plan", overlapped[i]))
        elif prep.plan is not None:
            results.append(
                _finalize(prep, "plan", _execute_plan_walk(prep, active_pool))
            )
        else:
            method, nodes = prep.fallback()
            results.append(_finalize(prep, method, nodes))
    return results


# ----------------------------------------------------------------------
# The one-pass walk over compiled-plan arrays
# ----------------------------------------------------------------------
def _make_stepper(
    plan: CompiledPlan,
    hierarchy: Hierarchy,
    model: QueryCostModel,
    queries: np.ndarray,
    prices: np.ndarray,
    budget: int,
    check: bool,
    split,
):
    """One plan-node transition, shared by every walk order.

    Returns ``step(node, subset, depth, price, emit) -> visited`` — settle
    a leaf (0) or split a decision node (1), handing each viable child
    frame to ``emit``.  The sequential walk drives it off a stack and the
    pool's sharding off a size-ordered frontier heap
    (:func:`repro.engine.pool.expand_frontier`); keeping the node semantics
    in one place is what guarantees their outputs stay bit-identical.
    """
    price_vec = model.as_array(hierarchy)
    plan_query = plan.query_ix
    plan_yes = plan.yes_child
    plan_no = plan.no_child
    plan_target = plan.target_ix

    def step(node: int, subset: np.ndarray, depth: int, price: float, emit) -> int:
        leaf_target = int(plan_target[node])
        if leaf_target >= 0:
            if check:
                check_leaf(plan.policy_name, hierarchy, subset, leaf_target)
            queries[subset] = depth
            prices[subset] = price
            return 0
        if depth >= budget:
            raise BudgetExceededError(
                f"{plan.policy_name} exceeded the query budget of {budget} "
                f"questions after {depth} questions in the plan walk"
            )
        qix = int(plan_query[node])
        yes, no = split(qix, subset)
        child_price = price + float(price_vec[qix])
        for branch, child, sub in (
            ("yes", int(plan_yes[node]), yes),
            ("no", int(plan_no[node]), no),
        ):
            if not sub.size:
                continue
            if child < 0:
                raise SearchError(
                    f"plan of {plan.policy_name!r} has no {branch}-branch "
                    f"for question {hierarchy.label(qix)!r} but "
                    f"{sub.size} requested target(s) need it; was the plan "
                    "compiled on a different hierarchy?"
                )
            emit(child, sub, depth + 1, child_price)
        return 1

    return step


def _plan_walk(
    plan: CompiledPlan,
    hierarchy: Hierarchy,
    model: QueryCostModel,
    target_ix: np.ndarray,
    queries: np.ndarray,
    prices: np.ndarray,
    budget: int,
    check: bool,
    *,
    split=None,
    frames=None,
) -> int:
    """Descend the plan, carrying target subsets; no policy code runs.

    ``split`` forces a pre-chosen splitter kernel and ``frames`` replaces
    the root frame with mid-plan ``(node, subset, depth, price)`` starting
    points — pool workers use both so every shard resumes the identical
    walk (:mod:`repro.engine.pool`).
    """
    if split is None:
        split = make_splitter(hierarchy, len(target_ix))
    step = _make_stepper(
        plan, hierarchy, model, queries, prices, budget, check, split
    )
    visited = 0

    # [plan node, target subset, depth, accumulated price]
    stack: list[tuple[int, np.ndarray, int, float]] = (
        list(frames) if frames is not None else [(ROOT, target_ix, 0, 0.0)]
    )

    def emit(child: int, sub: np.ndarray, depth: int, price: float) -> None:
        stack.append((child, sub, depth, price))

    while stack:
        node, subset, depth, price = stack.pop()
        visited += step(node, subset, depth, price, emit)
    return visited


# ----------------------------------------------------------------------
# Target-pruned fused walk (uncached sampled evaluation)
# ----------------------------------------------------------------------
def _pruned_walk(
    policy: Policy,
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None,
    model: QueryCostModel,
    target_ix: np.ndarray,
    queries: np.ndarray,
    prices: np.ndarray,
    budget: int,
    check: bool,
) -> int:
    """Walk the decision structure directly, pruned to the given targets.

    The compile walk and the plan walk fused into one pass: the policy is
    driven with exact answer reversal, but branches none of the requested
    targets can reach are never explored — the policy only works along the
    sampled decision paths.  Used when compiling the full plan would be
    wasted (restricted targets, no cache to make the plan reusable).
    """
    split = make_splitter(hierarchy, len(target_ix))
    price_vec = model.as_array(hierarchy)
    decision_nodes = 0

    def settle(current: np.ndarray, depth: int, price: float) -> None:
        """Record a leaf of the decision structure."""
        if check:
            rix = hierarchy.index(policy.result())
            check_leaf(policy.name, hierarchy, current, rix)
        queries[current] = depth
        prices[current] = price

    def open_frame(current: np.ndarray, depth: int, price: float):
        """Propose at a decision point; None when the search settled."""
        nonlocal decision_nodes
        if policy.done():
            settle(current, depth, price)
            return None
        if depth >= budget:
            raise BudgetExceededError(
                f"{policy.name} ({type(policy).__name__}) exceeded the "
                f"query budget of {budget} questions after {depth} "
                "questions in the engine walk"
            )
        query = policy.propose()
        qix = hierarchy.index(query)
        decision_nodes += 1
        yes, no = split(qix, current)
        branches = [
            (answer, subset)
            for answer, subset in ((True, yes), (False, no))
            if subset.size
        ]
        # [branches, cursor, child depth, accumulated child price]
        return [branches, 0, depth + 1, price + float(price_vec[qix])]

    policy.enable_undo(True)
    try:
        policy.reset(hierarchy, distribution, model)
        root = open_frame(target_ix, 0, 0.0)
        stack = [root] if root is not None else []
        while stack:
            frame = stack[-1]
            branches, cursor, depth, price = frame
            if cursor < len(branches):
                frame[1] += 1
                answer, subset = branches[cursor]
                policy.observe(answer)
                child = open_frame(subset, depth, price)
                if child is None:
                    policy.undo()
                else:
                    stack.append(child)
            else:
                stack.pop()
                if stack:
                    policy.undo()
    finally:
        policy.enable_undo(False)
    return decision_nodes


# ----------------------------------------------------------------------
# Transcript-replay adapter (policies the compiler cannot walk)
# ----------------------------------------------------------------------
def _replay_targets(
    policy: Policy,
    hierarchy: Hierarchy,
    distribution: TargetDistribution | None,
    model: QueryCostModel,
    target_ix: np.ndarray,
    queries: np.ndarray,
    prices: np.ndarray,
    budget: int,
    check: bool,
) -> int:
    total_steps = 0
    for ix in target_ix:
        target = hierarchy.label(int(ix))
        result = run_search(
            policy,
            ExactOracle(hierarchy, target),
            hierarchy,
            distribution,
            model,
            max_queries=budget,
        )
        if check and result.returned != target:
            raise SearchError(
                f"{policy.name} returned {result.returned!r} "
                f"for target {target!r}"
            )
        queries[ix] = result.num_queries
        prices[ix] = result.total_price
        total_steps += result.num_queries
    return total_steps
