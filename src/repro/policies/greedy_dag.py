"""``GreedyDAG`` — the efficient rounded greedy on DAGs (Algorithms 6 and 7).

The DAG instantiation of the greedy policy with the Equation-(1) rounded
weights (Theorem 1's ``2(1 + 3 ln n)`` guarantee).  Two ideas make it
``O(n m)`` instead of the naive ``O(n^2 m)``:

* **Pruned top-down selection** (Alg. 6, Lines 4–11): starting a BFS at the
  current root, a node ``v`` whose reachable-set weight satisfies
  ``2 w̃(v) <= w̃(r)`` dominates all of its descendants — their objective
  ``|2 w̃(y) − w̃(r)|`` cannot beat ``v``'s — so the BFS never expands below
  it.
* **Incremental weight maintenance** (Alg. 7, ``AdjustWeight``): on a *no*
  answer, each node ``x`` of the removed subgraph ``G_q`` contributes
  ``w(x)`` to exactly the ancestors that can still reach it, so one reverse
  BFS per removed node keeps every ``w̃`` exact.

The initial ``w̃(v) = w(G_v)`` vector comes from
:meth:`repro.core.hierarchy.Hierarchy.reach_weight_vector` (the dense
matrix on small DAGs, the packed reachability bitset otherwise), and is
cached across resets on the same ``(hierarchy, distribution)`` pair so that
all-targets evaluation does not recompute it ``n`` times.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

from repro.core.policy import Policy
from repro.exceptions import PolicyError


class GreedyDagPolicy(Policy):
    """Rounded greedy with pruned selection and reverse-BFS maintenance."""

    name = "GreedyDAG"
    uses_distribution = True
    supports_undo = True

    def __init__(self, *, rounded: bool = True) -> None:
        super().__init__()
        self.rounded = rounded
        if not rounded:
            self.name = "GreedyDAG(raw)"
        self._static_cache: tuple | None = None

    # ------------------------------------------------------------------
    # Initialisation (Alg. 6, Lines 1-2)
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        h, dist = self.hierarchy, self.distribution
        cache = self._static_cache
        if cache is not None and cache[0] is h and cache[1] is dist:
            weights, tilde0 = cache[2], cache[3]
        else:
            if self.rounded:
                weights = dist.rounded_weights(h).astype(float)
            else:
                weights = dist.as_array(h)
            tilde0 = h.reach_weight_vector(weights)
            self._static_cache = (h, dist, weights, tilde0)
        self._w = weights
        self._tilde = tilde0.astype(float).copy()
        self._alive = bytearray([1] * h.n)
        self._root = h.root_ix

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def done(self) -> bool:
        self._require_reset()
        children = self.hierarchy.children_ix
        return not any(self._alive[c] for c in children(self._root))

    def result(self) -> Hashable:
        if not self.done():
            raise PolicyError("GreedyDAG has not identified the target yet")
        return self.hierarchy.label(self._root)

    # ------------------------------------------------------------------
    # Alg. 6, Lines 4-11: pruned BFS for the middle point
    # ------------------------------------------------------------------
    def _select_query(self) -> Hashable:
        h = self.hierarchy
        alive = self._alive
        tilde = self._tilde
        total = tilde[self._root]
        best = None
        best_val = float("inf")
        visited = {self._root}
        queue = deque([self._root])
        while queue:
            u = queue.popleft()
            for v in h.children_ix(u):
                if not alive[v] or v in visited:
                    continue
                visited.add(v)
                value = abs(2.0 * tilde[v] - total)
                if value < best_val:
                    best_val = value
                    best = v
                if 2.0 * tilde[v] > total:
                    queue.append(v)
        if best is None:
            raise PolicyError("select_query called on a settled search")
        return h.label(best)

    # ------------------------------------------------------------------
    # Alg. 6 Lines 12-15 and Alg. 7: state update
    # ------------------------------------------------------------------
    def _apply_answer(self, query: Hashable, answer: bool) -> None:
        q = self.hierarchy.index(query)
        if answer:
            if self._undo_enabled:
                self._undo_log.append((query, True, self._root))
            self._root = q
            return
        removed = self._alive_reachable(q)
        if self._undo_enabled:
            journal: dict[int, float] = {}
            for x in removed:
                self._adjust_weight(x, journal)
            self._undo_log.append((query, False, (removed, journal)))
        else:
            for x in removed:
                self._adjust_weight(x)
        for x in removed:
            self._alive[x] = 0

    def _revert_answer(self, query: Hashable, answer: bool, payload) -> None:
        if answer:
            self._root = payload
            return
        removed, journal = payload
        for x in removed:
            self._alive[x] = 1
        tilde = self._tilde
        for node, value in journal.items():
            tilde[node] = value

    def _alive_reachable(self, start: int) -> list[int]:
        """Alive nodes reachable from ``start`` (the candidate ``G_start``)."""
        h, alive = self.hierarchy, self._alive
        seen = {start}
        order = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in h.children_ix(u):
                if alive[v] and v not in seen:
                    seen.add(v)
                    order.append(v)
                    queue.append(v)
        return order

    def _adjust_weight(self, x: int, journal: dict[int, float] | None = None) -> None:
        """Algorithm 7: subtract ``w(x)`` from every alive ancestor of ``x``.

        Runs before the removal flags flip, so the reverse BFS may pass
        through other soon-to-be-removed nodes (their weights are dead values
        anyway), exactly as in the paper's pseudo-code.  ``journal`` records
        each touched node's first-seen weight so :meth:`_revert_answer` can
        restore bit-exact values (re-adding the subtraction would drift).
        """
        h, alive, tilde = self.hierarchy, self._alive, self._tilde
        wx = self._w[x]
        if wx == 0:
            return
        seen = {x}
        queue = deque([x])
        while queue:
            u = queue.popleft()
            for p in h.parents_ix(u):
                if alive[p] and p not in seen:
                    seen.add(p)
                    if journal is not None and p not in journal:
                        journal[p] = float(tilde[p])
                    tilde[p] -= wx
                    queue.append(p)

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------
    def maintained_weight(self, label: Hashable) -> float:
        """Current maintained ``w̃`` of a node."""
        return float(self._tilde[self.hierarchy.index(label)])

    def recomputed_weight(self, label: Hashable) -> float:
        """``w(G_v)`` recomputed from scratch over the alive subgraph."""
        ix = self.hierarchy.index(label)
        return float(sum(self._w[v] for v in self._alive_reachable(ix)))

    def is_candidate(self, label: Hashable) -> bool:
        return bool(self._alive[self.hierarchy.index(label)])
