"""Online labelling simulation — the Fig. 4 experiment engine.

A stream of objects (true categories) arrives in random order.  Each object
is categorised interactively by the policy using the *learned-so-far*
distribution; the revealed category then updates the learner.  The per-block
average cost traces out the paper's convergence curves: the online curve
starts near the uniform-prior cost and converges to the offline
(true-distribution) cost.

Objects are served from the policy's *current plan* — a memoizing
:class:`~repro.plan.LazyPlan` rebuilt only when the learned distribution is
re-snapshot (``refresh_every``).  Between refreshes, every object whose
answer path was seen before is a pure pointer walk with zero policy work;
only genuinely new paths advance the policy.  The recorded costs are
bit-identical to driving the policy directly (the plan replays its exact
decisions); only the serving time changes.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from repro.core.hierarchy import Hierarchy
from repro.core.oracle import ExactOracle
from repro.core.policy import Policy
from repro.exceptions import SearchError
from repro.online.learner import EmpiricalLearner
from repro.plan import LazyPlan
from repro.serve.runtime import SessionRuntime


@dataclass(frozen=True)
class OnlineRunResult:
    """Per-block average costs of one labelling trace."""

    policy: str
    block_size: int
    #: Average number of queries within each consecutive block.
    block_costs: tuple[float, ...]
    total_objects: int

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """Actual object count behind each block average.

        Every block holds ``block_size`` objects except a trailing partial
        block with the remainder of the stream.
        """
        full, remainder = divmod(self.total_objects, self.block_size)
        sizes = [self.block_size] * full
        if remainder:
            sizes.append(remainder)
        return tuple(sizes)

    @property
    def overall_cost(self) -> float:
        """Average queries per object over the whole trace.

        Blocks are weighted by their actual object counts: an unweighted
        mean of block averages would over-weight a final partial block
        (e.g. 7 objects streamed with ``block_size=5`` would count the
        2-object tail as much as the 5-object head).
        """
        sizes = self.block_sizes
        if len(sizes) != len(self.block_costs):
            # Defensive: a hand-built result with inconsistent fields.
            return sum(self.block_costs) / len(self.block_costs)
        total = sum(s * c for s, c in zip(sizes, self.block_costs))
        return total / sum(sizes)


def simulate_online_labeling(
    policy: Policy,
    hierarchy: Hierarchy,
    stream: Sequence[Hashable],
    *,
    block_size: int,
    smoothing: float = 1.0,
    refresh_every: int = 1,
) -> OnlineRunResult:
    """Label ``stream`` with an on-the-fly learned distribution.

    Parameters
    ----------
    block_size:
        Objects per reported block (the paper uses 10,000).
    refresh_every:
        Re-snapshot the learned distribution every this many objects.  The
        paper's protocol is 1 (every object); a small batch refresh changes
        nothing observable on the reported curves but keeps DAG policies
        (whose reset recomputes reachable-set weights) affordable.
    """
    if block_size <= 0:
        raise SearchError("block_size must be positive")
    if refresh_every <= 0:
        raise SearchError("refresh_every must be positive")
    learner = EmpiricalLearner(hierarchy, smoothing=smoothing)
    plan: LazyPlan | None = None
    block_costs: list[float] = []
    block_total = 0
    in_block = 0
    try:
        for position, category in enumerate(stream):
            if plan is None or position % refresh_every == 0:
                # Distribution refresh: the old plan's decisions are stale,
                # so recompile — lazily, paying only for the served paths.
                plan = LazyPlan(policy, hierarchy, learner.snapshot())
            oracle = ExactOracle(hierarchy, category)
            # One shared session loop (repro.serve.runtime) serves each
            # object — the same runtime behind run_search, the console,
            # and the session server.
            result = SessionRuntime(plan, hierarchy).run(oracle)
            if result.returned != category:
                raise SearchError(
                    f"online search returned {result.returned!r} "
                    f"for object of category {category!r}"
                )
            learner.observe(category)
            block_total += result.num_queries
            in_block += 1
            if in_block == block_size:
                block_costs.append(block_total / in_block)
                block_total = 0
                in_block = 0
    finally:
        # The LazyPlans dedicated the caller's policy to themselves
        # (journaling on for undo-capable policies); hand it back clean.
        if policy.supports_undo:
            policy.enable_undo(False)
    if in_block:
        block_costs.append(block_total / in_block)
    return OnlineRunResult(
        policy=policy.name,
        block_size=block_size,
        block_costs=tuple(block_costs),
        total_objects=len(stream),
    )


def average_runs(runs: Sequence[OnlineRunResult]) -> tuple[float, ...]:
    """Average block curves over several traces (the paper averages 20)."""
    if not runs:
        raise SearchError("no runs to average")
    length = min(len(r.block_costs) for r in runs)
    return tuple(
        sum(r.block_costs[i] for r in runs) / len(runs) for i in range(length)
    )
