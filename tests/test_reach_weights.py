"""Parity of ``Hierarchy.reach_weight_vector`` across its reachability sources.

``w(G_v)`` (GreedyDAG's initial weights, Alg. 6 lines 1-2) comes from a
bottom-up pass on trees, row blocks of the dense matrix on small DAGs, the
packed bitset above ``_MATRIX_NODE_LIMIT``, and packed column slabs above
``_BITSET_BYTE_LIMIT``.  The limits are patched so small random DAGs take
each path.  Every source must match the brute-force sum over
``descendants_ix`` — exactly for integer weights, to rounding for float
weights — and the compiled GreedyDAG plan must not depend on the source.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.core.hierarchy as hierarchy_mod
from repro.core.hierarchy import Hierarchy
from repro.plan import compile_policy
from repro.policies import GreedyDagPolicy
from repro.testing import make_random_dag, make_random_tree, random_distribution

SOURCES = ("matrix", "bitset", "slabs")


def _brute(h: Hierarchy, weights: np.ndarray) -> np.ndarray:
    return np.array(
        [sum(weights[d] for d in sorted(h.descendants_ix(v))) for v in range(h.n)]
    )


def _on_source(monkeypatch, h: Hierarchy, source: str, width: int = 2) -> Hierarchy:
    """An index-identical fresh copy of ``h`` whose weights come from ``source``.

    ``slabs`` sweeps ``width``-byte column slabs (needs ``n > 8 * width``).
    """
    if source != "matrix":
        monkeypatch.setattr(hierarchy_mod, "_MATRIX_NODE_LIMIT", 0)
    if source == "slabs":
        assert (h.n + 7) // 8 > width
        monkeypatch.setattr(hierarchy_mod, "_BITSET_BYTE_LIMIT", 8 * h.n * width)
    return Hierarchy(h.edges(), nodes=h.nodes)


#: Which indexes each source leaves cached: (dense matrix, packed bitset).
_BUILT = {"matrix": (True, False), "bitset": (False, True), "slabs": (False, False)}


def _assert_source(h: Hierarchy, source: str) -> None:
    assert (h._reach_matrix is not None, h._reach_bits is not None) == _BUILT[source]


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("seed", [1, 2])
def test_integer_weights_exact(monkeypatch, source, seed):
    h = make_random_dag(150, seed=seed)
    weights = np.random.default_rng(seed).integers(0, h.n**2, h.n).astype(float)
    expected = _brute(h, weights)
    fresh = _on_source(monkeypatch, h, source)
    assert np.array_equal(fresh.reach_weight_vector(weights), expected)
    _assert_source(fresh, source)


@pytest.mark.parametrize("source", SOURCES)
def test_float_weights_close(monkeypatch, source):
    h = make_random_dag(150, seed=3)
    weights = np.random.default_rng(3).uniform(0.0, 2.0, h.n)
    expected = _brute(h, weights)
    fresh = _on_source(monkeypatch, h, source)
    assert np.allclose(fresh.reach_weight_vector(weights), expected, rtol=1e-12, atol=0)
    _assert_source(fresh, source)


@pytest.mark.parametrize("source", SOURCES)
def test_unit_weights_are_subtree_sizes(monkeypatch, source):
    h = make_random_dag(150, seed=4)
    expected = [len(h.descendants_ix(v)) for v in range(h.n)]
    fresh = _on_source(monkeypatch, h, source)
    assert fresh.subtree_sizes_ix() == expected
    _assert_source(fresh, source)


def test_tree_source():
    h = make_random_tree(150, seed=5)
    ints = np.random.default_rng(5).integers(0, 1000, h.n).astype(float)
    floats = np.random.default_rng(6).uniform(0.0, 2.0, h.n)
    assert np.array_equal(h.reach_weight_vector(ints), _brute(h, ints))
    assert np.allclose(h.reach_weight_vector(floats), _brute(h, floats), rtol=1e-12, atol=0)
    assert h.subtree_sizes_ix() == [len(h.descendants_ix(v)) for v in range(h.n)]
    assert h._reach_matrix is None and h._reach_bits is None


def test_matrix_row_blocks_equal_unblocked_product():
    """The dense path reduces whole 256-row blocks; on float weights that
    must equal the unblocked ``matrix @ weights`` bit for bit."""
    for n in (600, 1001):
        h = make_random_dag(n, seed=n)
        weights = np.random.default_rng(n).uniform(0.0, 2.0, h.n)
        blocked = h.reach_weight_vector(weights)
        assert np.array_equal(blocked, h.reachability_matrix() @ weights)


@pytest.mark.parametrize("source", ["bitset", "slabs"])
def test_greedy_dag_plan_independent_of_source(monkeypatch, source):
    h = make_random_dag(150, seed=7)
    reference = compile_policy(GreedyDagPolicy(), h, random_distribution(h, 7))
    fresh = _on_source(monkeypatch, h, source)
    plan = compile_policy(GreedyDagPolicy(), fresh, random_distribution(fresh, 7))
    assert plan.config_key == reference.config_key
    for name, array in reference.payload_arrays().items():
        assert np.array_equal(plan.payload_arrays()[name], array), name


@pytest.mark.parametrize("source", SOURCES)
def test_peak_memory_below_dense_matrix(monkeypatch, source):
    """No step holds a float64 (or even a boolean) n x n copy: the traced
    peak stays below the dense boolean matrix's n^2 bytes.  The matrix
    source reduces an already-cached matrix, so its own n^2 is not counted."""
    h = make_random_dag(4000, seed=8)
    fresh = _on_source(monkeypatch, h, source, width=32)
    if source == "matrix":
        fresh.reachability_matrix()
    weights = np.ones(fresh.n)
    tracemalloc.start()
    try:
        fresh.reach_weight_vector(weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_source(fresh, source)
    assert peak < fresh.n**2
