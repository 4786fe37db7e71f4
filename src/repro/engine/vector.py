"""The index-level vector protocol and target-splitting kernels.

The plan compiler (:func:`repro.plan.compile_policy`) walks a policy's
decision structure once, and the engine then carries the set of
still-consistent targets through the compiled plan as a flat array of node
indices.  Two ingredients make that possible:

* :class:`VectorPolicy` — the protocol a policy must satisfy for the
  one-pass compile walk: the usual interactive protocol plus exact answer
  reversal (:meth:`undo`).  ``GreedyTree``, ``GreedyDAG``, ``TopDown``,
  ``MIGS``, ``WIGS``, ``StaticTree``, ``GreedyNaive``, and ``CostGreedy``
  implement it natively (``supports_undo``); any other deterministic policy
  is handled by the engine's transcript-replay adapter instead.

* :func:`make_splitter` — a per-hierarchy kernel splitting a target-index
  array on a query node into (yes, no) halves, because the exact oracle's
  answer for target ``z`` on query ``q`` is ``reaches(q, z)``.  Four kernels
  exist, picked automatically by hierarchy shape and walk size (or forced
  with ``kind``):

  ========  ==========================================================
  kind      mechanism
  ========  ==========================================================
  tree      two numpy comparisons against cached Euler-tour intervals
  matrix    boolean row of the dense reachability matrix (small DAGs)
  bitset    bit-tests against the packed reachability block — the
            memory-lean DAG index above ``_MATRIX_NODE_LIMIT``
            (:meth:`repro.core.hierarchy.Hierarchy.reachability_bits`)
  sets      cached-descendant-``frozenset`` membership scan (cheap
            fallback for a handful of Monte-Carlo targets, where
            building any n^2-shaped index would dominate)
  ========  ==========================================================
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core import hierarchy as _hierarchy_mod
from repro.core.hierarchy import Hierarchy
from repro.exceptions import HierarchyError

#: A splitter takes ``(query_ix, targets)`` and returns ``(yes, no)`` —
#: the targets reachable / not reachable from the query node.  The chosen
#: kernel is exposed on the returned callable as ``.kind``.
Splitter = Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]]

#: Valid ``kind`` arguments of :func:`make_splitter`.
SPLITTER_KINDS = ("tree", "matrix", "bitset", "sets")


@runtime_checkable
class VectorPolicy(Protocol):
    """An interactive policy compilable in one pass (one reset, no replay).

    Beyond the base interactive protocol this requires *exact answer
    reversal*: after ``observe(a)`` — with undo journaling enabled —
    ``undo()`` must restore the policy to the state it had right after the
    corresponding ``propose()``, bit-exact, so the plan compiler can explore
    the sibling answer.  :class:`repro.core.policy.Policy` subclasses
    advertise this with ``supports_undo = True``.
    """

    supports_undo: bool

    def reset(self, hierarchy, distribution=None, cost_model=None) -> None: ...

    def done(self) -> bool: ...

    def propose(self) -> Hashable: ...

    def observe(self, answer: bool) -> None: ...

    def undo(self) -> None: ...

    def enable_undo(self, enabled: bool = True) -> None: ...

    def result(self) -> Hashable: ...


def is_vector_policy(policy: object) -> bool:
    """True when ``policy`` compiles through the one-pass undo walk."""
    return bool(getattr(policy, "supports_undo", False)) and callable(
        getattr(policy, "undo", None)
    )


def _tagged(split: Splitter, kind: str) -> Splitter:
    split.kind = kind  # type: ignore[attr-defined]
    return split


def make_splitter(
    hierarchy: Hierarchy, num_targets: int, *, kind: str | None = None
) -> Splitter:
    """Choose the cheapest exact reachability split for this hierarchy.

    ``num_targets`` steers the DAG trade-off: materialising an n^2-shaped
    reachability index (dense matrix below ``_MATRIX_NODE_LIMIT`` nodes,
    packed bitset block above it) only pays off when the walk will split
    large target vectors many times; for a handful of Monte-Carlo targets
    the cached per-node descendant sets are cheaper than the build.

    ``kind`` forces a specific kernel (one of :data:`SPLITTER_KINDS`),
    bypassing the heuristics — the evaluation pool uses this so every worker
    shard takes the kernel chosen once for the *full* target set, and the
    parity tests use it to compare kernels on one hierarchy.  The chosen
    kind is exposed as ``.kind`` on the returned callable.
    """
    if kind is not None and kind not in SPLITTER_KINDS:
        raise HierarchyError(
            f"unknown splitter kind {kind!r}; expected one of {SPLITTER_KINDS}"
        )
    if kind is None:
        kind = _choose_kind(hierarchy, num_targets)

    if kind == "tree":
        tin, tout = hierarchy.tree_intervals()

        def split_tree(qix: int, targets: np.ndarray):
            times = tin[targets]
            mask = (times >= tin[qix]) & (times < tout[qix])
            return targets[mask], targets[~mask]

        return _tagged(split_tree, "tree")

    if kind == "matrix":
        matrix = hierarchy.reachability_matrix(allow_large=True)

        def split_matrix(qix: int, targets: np.ndarray):
            mask = matrix[qix][targets]
            return targets[mask], targets[~mask]

        return _tagged(split_matrix, "matrix")

    if kind == "bitset":
        bits = hierarchy.reachability_bits(allow_large=True)

        def split_bits(qix: int, targets: np.ndarray):
            row = bits[qix]
            mask = (row[targets >> 3] >> (7 - (targets & 7))) & 1
            mask = mask.astype(bool)
            return targets[mask], targets[~mask]

        return _tagged(split_bits, "bitset")

    def split_sets(qix: int, targets: np.ndarray):
        desc = hierarchy.descendants_ix(qix)
        mask = np.fromiter(
            (int(z) in desc for z in targets), dtype=bool, count=len(targets)
        )
        return targets[mask], targets[~mask]

    return _tagged(split_sets, "sets")


#: An answerer takes aligned ``(query_ix, target_ix)`` arrays — one entry
#: per live session — and returns the boolean exact-oracle answers
#: ``reaches(query, target)`` for all of them in one vectorized pass.
Answerer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def make_answerer(
    hierarchy: Hierarchy, num_sessions: int, *, kind: str | None = None
) -> Answerer:
    """A batched exact-oracle kernel: answers for many sessions at once.

    Where :func:`make_splitter` splits *one* target vector on *one* query
    (the plan-walk shape), an answerer evaluates ``reaches(q_i, z_i)``
    element-wise over aligned query/target arrays — the batch shape of
    the noisy belief engine (:mod:`repro.engine.belief`), where each
    concurrent session sits at its *own* plan node.  Kernel choice and semantics
    mirror :func:`make_splitter` exactly (same ``kind`` values, same
    heuristics via ``num_sessions``); the chosen kind is exposed as
    ``.kind``.
    """
    if kind is not None and kind not in SPLITTER_KINDS:
        raise HierarchyError(
            f"unknown splitter kind {kind!r}; expected one of {SPLITTER_KINDS}"
        )
    if kind is None:
        kind = _choose_kind(hierarchy, num_sessions)

    if kind == "tree":
        tin, tout = hierarchy.tree_intervals()

        def answer_tree(queries: np.ndarray, targets: np.ndarray):
            times = tin[targets]
            return (times >= tin[queries]) & (times < tout[queries])

        return _tagged(answer_tree, "tree")

    if kind == "matrix":
        matrix = hierarchy.reachability_matrix(allow_large=True)

        def answer_matrix(queries: np.ndarray, targets: np.ndarray):
            return matrix[queries, targets]

        return _tagged(answer_matrix, "matrix")

    if kind == "bitset":
        bits = hierarchy.reachability_bits(allow_large=True)

        def answer_bits(queries: np.ndarray, targets: np.ndarray):
            bytes_ = bits[queries, targets >> 3]
            return ((bytes_ >> (7 - (targets & 7))) & 1).astype(bool)

        return _tagged(answer_bits, "bitset")

    def answer_sets(queries: np.ndarray, targets: np.ndarray):
        descendants = hierarchy.descendants_ix
        return np.fromiter(
            (int(z) in descendants(int(q)) for q, z in zip(queries, targets)),
            dtype=bool,
            count=len(queries),
        )

    return _tagged(answer_sets, "sets")


def _choose_kind(hierarchy: Hierarchy, num_targets: int) -> str:
    """The heuristic kernel choice (see :func:`make_splitter`)."""
    if hierarchy.is_tree:
        return "tree"
    # An already-built index is free — reuse it no matter the walk size.
    if hierarchy._reach_matrix is not None:
        return "matrix"
    if hierarchy._reach_bits is not None:
        return "bitset"
    # Otherwise an n^2-shaped index only pays off once the walk's total
    # split work (~ num_targets * height memberships) rivals the build.
    if num_targets * max(hierarchy.height, 1) < hierarchy.n:
        return "sets"
    if hierarchy.n <= _hierarchy_mod._MATRIX_NODE_LIMIT:
        return "matrix"
    if hierarchy.reachability_bits() is not None:
        return "bitset"
    return "sets"
