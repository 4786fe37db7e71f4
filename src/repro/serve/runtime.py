"""The one session loop — every interactive surface drives this runtime.

Before this module existed the repo had three divergent copies of the
propose/observe loop over plans and policies: ``core.session.run_search``
(simulation), ``online.simulate.simulate_online_labeling`` (learned-
distribution serving), and the interactive console.  Each re-implemented
budget enforcement, transcript recording, and price accounting — and each
drifted slightly.  :class:`SessionRuntime` is the single extraction: one
stateful object holding *exactly* the per-session state (executor,
transcript, accumulated price, budget), exposing the interactive protocol
step by step so that

* batch drivers call :meth:`run` with an oracle and get a finished
  :class:`~repro.core.session.SearchResult`;
* interactive drivers (the console, a web frontend) call
  :meth:`propose`/:meth:`observe` one question at a time and may
  :meth:`undo` freely;
* the session server (:mod:`repro.serve.server`) holds one runtime per
  oracle-driven session and finishes each with the same :meth:`result`
  everybody else uses.

The runtime accepts anything :func:`repro.core.session.start_session`
accepts: a :class:`~repro.core.policy.Policy` (reset for a fresh search) or
a plan-like object (:class:`~repro.plan.CompiledPlan` /
:class:`~repro.plan.LazyPlan`), from which a per-session
:class:`~repro.plan.SearchCursor` is started.  Costs, budget defaults, and
error messages are byte-for-byte those of the pre-refactor loops — the
parity suite in ``tests/test_serve.py`` drives both and compares
transcripts verbatim.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.core.costs import QueryCostModel, UnitCost
from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import Hierarchy
from repro.core.oracle import Oracle
from repro.core.session import SearchResult, default_budget, start_session
from repro.exceptions import BudgetExceededError, PolicyError

__all__ = ["SessionRuntime"]


class SessionRuntime:
    """Drive one interactive search, one protocol step at a time.

    Parameters
    ----------
    policy:
        A :class:`~repro.core.policy.Policy` or a plan-like object with
        ``start()`` (compiled or lazy plan) — normalised through
        :func:`repro.core.session.start_session`.
    hierarchy, distribution, cost_model:
        The search configuration, with the same defaulting rules as
        ``run_search``: plans carry their own hierarchy, policies need an
        explicit one; ``cost_model`` prices the transcript either way.
    max_queries:
        Query budget; defaults to ``2 * n + 10``.  Exceeding it raises
        :class:`~repro.exceptions.BudgetExceededError` from
        :meth:`propose`.
    reset:
        Pass ``False`` when the caller already reset the policy.  Ignored
        for plans (cursors always start fresh).
    """

    __slots__ = (
        "hierarchy",
        "executor",
        "model",
        "budget",
        "_source",
        "_transcript",
        "_total_price",
    )

    def __init__(
        self,
        policy,
        hierarchy: Hierarchy | None = None,
        distribution: TargetDistribution | None = None,
        cost_model: QueryCostModel | None = None,
        *,
        max_queries: int | None = None,
        reset: bool = True,
    ) -> None:
        self.model = cost_model or UnitCost()
        self.executor, self.hierarchy = start_session(
            policy, hierarchy, distribution, self.model, reset=reset
        )
        self.budget = default_budget(self.hierarchy, max_queries)
        self._source = policy  # for budget diagnostics only
        self._transcript: list[tuple[Hashable, bool]] = []
        self._total_price = 0.0

    # ------------------------------------------------------------------
    # The interactive protocol, with session bookkeeping
    # ------------------------------------------------------------------
    def done(self) -> bool:
        """True once the executor identified the target."""
        return self.executor.done()

    def propose(self) -> Hashable:
        """The next query (idempotent until :meth:`observe`).

        Raises :class:`~repro.exceptions.BudgetExceededError` once the
        budget is spent — the guard against non-terminating policies that
        every pre-refactor loop duplicated.
        """
        if len(self._transcript) >= self.budget:
            source = self._source
            raise BudgetExceededError(
                f"policy {getattr(source, 'name', '?')!r} "
                f"({type(source).__name__}) exceeded the query budget of "
                f"{self.budget} questions after asking "
                f"{len(self._transcript)} questions without identifying "
                "the target"
            )
        return self.executor.propose()

    def observe(self, answer: bool) -> None:
        """Record the answer for the pending query and advance."""
        query = self.executor.propose()  # idempotent: the pending query
        answer = bool(answer)
        self._total_price += self.model.cost(query)
        self._transcript.append((query, answer))
        self.executor.observe(answer)

    def undo(self) -> None:
        """Take back the most recent answer and refund its price.

        Exact and free on plan cursors; on policies it requires undo
        journaling (:meth:`~repro.core.policy.Policy.enable_undo`), which
        interactive surfaces that want undo turn on — or they wrap the
        policy in a :class:`~repro.plan.LazyPlan`, whose cursors always
        backtrack exactly.
        """
        if not self._transcript:
            raise PolicyError("undo() with no answers observed")
        self.executor.undo()
        query, _ = self._transcript.pop()
        self._total_price -= self.model.cost(query)

    # ------------------------------------------------------------------
    # Session state
    # ------------------------------------------------------------------
    @property
    def num_queries(self) -> int:
        """Answers observed (and not undone) so far."""
        return len(self._transcript)

    @property
    def total_price(self) -> float:
        """Accumulated price of the current transcript."""
        return self._total_price

    def transcript(self) -> tuple[tuple[Hashable, bool], ...]:
        """The ``(query, answer)`` sequence observed so far."""
        return tuple(self._transcript)

    def result(self) -> SearchResult:
        """The finished session as a :class:`SearchResult`.

        Valid once :meth:`done`; raises
        :class:`~repro.exceptions.PolicyError` otherwise (mirroring the
        executor protocol).
        """
        return SearchResult(
            returned=self.executor.result(),
            num_queries=len(self._transcript),
            total_price=self._total_price,
            transcript=tuple(self._transcript),
        )

    # ------------------------------------------------------------------
    # Batch driving
    # ------------------------------------------------------------------
    def run(self, oracle: Oracle) -> SearchResult:
        """Drive the session against ``oracle`` until done.

        This *is* the paper's Algorithm 1 — the loop formerly inlined in
        ``run_search``, the online simulator, and the console.
        """
        while not self.executor.done():
            query = self.propose()
            answer = bool(oracle.answer(query))
            self.observe(answer)
        return self.result()

    def __repr__(self) -> str:
        state = "done" if self.done() else "open"
        return (
            f"SessionRuntime({getattr(self._source, 'name', '?')!r}, "
            f"{len(self._transcript)} answers, {state})"
        )
