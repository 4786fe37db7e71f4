"""Smoke tests at larger scales (fast paths that must not regress)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distribution import TargetDistribution
from repro.core.hierarchy import _packed_row_sums
from repro.core.session import search_for_target
from repro.policies import GreedyDagPolicy, GreedyTreePolicy, WigsPolicy
from repro.taxonomy import amazon_catalog, amazon_like, imagenet_like

from repro.testing import make_random_dag


class TestBlockedReachWeights:
    """The packed column-slab kernel ``reach_weight_vector`` sweeps above
    the bitset limit, over slab widths of ``block`` target columns."""

    @pytest.mark.parametrize("block", [16, 128, 4096])
    def test_matches_dense_matrix(self, block):
        h = make_random_dag(200, seed=6)
        weights = np.random.default_rng(1).uniform(0.0, 2.0, h.n)
        dense = h.reachability_matrix() @ weights
        width = block // 8
        starts = range(0, (h.n + 7) // 8, width)
        slabs = [h._packed_reach_slab(lo, lo + width) for lo in starts]
        assert np.array_equal(np.hstack(slabs), h.reachability_bits())
        blocked = sum(
            _packed_row_sums(slab, weights[8 * lo : 8 * (lo + width)])
            for lo, slab in zip(starts, slabs)
        )
        assert np.allclose(dense, blocked)


class TestMediumScale:
    """A few thousand nodes: the efficient policies must stay fast."""

    def test_greedy_tree_5k(self):
        h = amazon_like(5_000, seed=7)
        dist = amazon_catalog(h, num_objects=100_000).to_distribution()
        policy = GreedyTreePolicy()
        rng = np.random.default_rng(2)
        for target in dist.sample(rng, size=25):
            result = search_for_target(policy, h, target, dist)
            assert result.returned == target
            assert result.num_queries < 200

    def test_greedy_dag_3k(self):
        h = imagenet_like(3_000, seed=11)
        dist = TargetDistribution.equal(h)
        policy = GreedyDagPolicy()
        rng = np.random.default_rng(3)
        nodes = list(h.nodes)
        for pick in rng.integers(0, h.n, size=10):
            target = nodes[int(pick)]
            result = search_for_target(policy, h, target, dist)
            assert result.returned == target

    def test_wigs_5k_worst_case_logarithmic(self):
        h = amazon_like(5_000, seed=7)
        policy = WigsPolicy()
        rng = np.random.default_rng(4)
        nodes = list(h.nodes)
        worst = 0
        for pick in rng.integers(0, h.n, size=25):
            result = search_for_target(policy, h, nodes[int(pick)])
            worst = max(worst, result.num_queries)
        assert worst < 70  # ~ a few heavy-path segments of log2(5000) each


class TestPaperScaleConstruction:
    """Table II-size hierarchies must construct quickly."""

    def test_amazon_paper_size(self):
        h = amazon_like(29_240, seed=7)
        assert h.n == 29_240
        assert h.is_tree
        assert h.height == 10
        assert h.max_out_degree > 60

    def test_imagenet_paper_size(self):
        h = imagenet_like(27_714, seed=11)
        assert h.n == 27_714
        assert not h.is_tree
        assert h.m > h.n - 1
