import hashlib

import numpy as np
import pytest
from oracles import (
    build_subgraph_dict,
    canonical_undirected_scatter,
    edge_weights_dict,
    inverse_cdf_search,
    kruskal_forests,
    lexsort_rows_two_argsorts,
    sample_frontier_loop,
    walk_edges_loop,
)

import ags.graph as G
import ags.ranking as R
import ags.sampling as SA


def star_graph(d):
    return G.from_edges(d + 1, [0] * d, list(range(1, d + 1)), directed=False)


def star_table(d, kind="uniform", **kw):
    g = star_graph(d)
    x = np.random.default_rng(0).normal(size=(d + 1, 3))
    rt = R.rank_by_similarity(g, x, pmf=R.PmfSpec(kind=kind, **kw))
    return g, rt


class TestRngFor:
    def test_reproducible(self):
        a = SA.rng_for(7, 1, 2).random(5)
        b = SA.rng_for(7, 1, 2).random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = SA.rng_for(7, 0).random(5)
        b = SA.rng_for(7, 1).random(5)
        assert not np.array_equal(a, b)


class TestRngsFor:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**200]

    @pytest.mark.parametrize("stream", [(), (9,), (21, 3)])
    @pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2^32-1", "2^32", "2^63-1", "2^200"])
    def test_states_equal_rng_for(self, seed, stream):
        count = 5000
        got = SA.rngs_for(seed, *stream, count=count)
        for i, r in enumerate(got):
            assert r.bit_generator.state == SA.rng_for(seed, *stream, i).bit_generator.state, i
        assert i == count - 1

    def test_draws_equal_rng_for(self):
        for i, r in enumerate(SA.rngs_for(3, 9, count=50)):
            want = SA.rng_for(3, 9, i)
            assert r.random(3).tobytes() == want.random(3).tobytes()
            assert r.choice(40, size=7, replace=False).tobytes() == want.choice(
                40, size=7, replace=False
            ).tobytes()

    def test_empty(self):
        assert list(SA.rngs_for(5, 1, count=0)) == []

    @pytest.mark.parametrize("seed, stream", [(-1, ()), (3, (-2,))])
    def test_negative_rejected(self, seed, stream):
        with pytest.raises(ValueError, match="non-negative"):
            SA.rng_for(seed, *stream, 0)
        with pytest.raises(ValueError, match="non-negative"):
            SA.rngs_for(seed, *stream, count=4)

    def test_other_hash_raises(self, monkeypatch):
        monkeypatch.setattr(SA, "_MULT_A", SA._MULT_A ^ 2)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            SA.rngs_for(1, 9, count=3)


class TestSampleNeighbors:
    def test_degree_one(self):
        g, rt = star_table(1)
        rng = SA.rng_for(1)
        for replace in (True, False):
            out = SA.sample_neighbors(rt, 0, 1, replace, rng)
            assert out.tolist() == [1]

    def test_zero_k_and_isolated(self):
        g = G.from_edges(3, [0], [1], directed=False)
        x = np.ones((3, 2))
        rt = R.rank_by_similarity(g, x)
        rng = SA.rng_for(2)
        assert SA.sample_neighbors(rt, 0, 0, True, rng).size == 0
        assert SA.sample_neighbors(rt, 2, 5, True, rng).size == 0

    def test_negative_k(self):
        _, rt = star_table(2)
        with pytest.raises(ValueError, match="nonnegative"):
            SA.sample_neighbors(rt, 0, -1, True, SA.rng_for(0))

    def test_uniform_frequencies(self):
        _, rt = star_table(4)
        draws = SA.sample_neighbors(rt, 0, 100_000, True, SA.rng_for(3))
        for leaf in range(1, 5):
            freq = np.mean(draws == leaf)
            assert abs(freq - 0.25) < 0.01

    def test_step_tier_frequencies(self):
        _, rt = star_table(10, kind="step")
        ids, probs = rt.row(0)
        draws = SA.sample_neighbors(rt, 0, 100_000, True, SA.rng_for(4))
        # two tier-1 entries at mass 4/18 each
        for rank in (0, 1):
            freq = np.mean(draws == ids[rank])
            assert probs[rank] == pytest.approx(4 / 18)
            assert abs(freq - 4 / 18) < 0.01

    def test_total_variation_bound(self):
        for kind in ("step", "linear", "exponential", "uniform"):
            _, rt = star_table(6, kind=kind)
            ids, probs = rt.row(0)
            draws = SA.sample_neighbors(
                rt, 0, 100_000, True, SA.rng_for(hash7(kind))
            )
            emp = np.array([np.mean(draws == v) for v in ids])
            tv = 0.5 * np.abs(emp - probs).sum()
            assert tv < 3.0 * np.sqrt(6 / 100_000)

    def test_without_replacement_full_degree_is_permutation(self):
        g, rt = star_table(8, kind="step")
        rng = SA.rng_for(5)
        for _ in range(20):
            out = SA.sample_neighbors(rt, 0, 8, False, rng)
            assert sorted(out.tolist()) == list(range(1, 9))

    def test_without_replacement_distinct_and_weighted(self):
        _, rt = star_table(10, kind="exponential")
        ids, _ = rt.row(0)
        top, bottom = ids[0], ids[-1]
        rng = SA.rng_for(6)
        hits_top = hits_bottom = 0
        for _ in range(4000):
            out = SA.sample_neighbors(rt, 0, 3, False, rng)
            assert len(set(out.tolist())) == 3
            hits_top += top in out
            hits_bottom += bottom in out
        assert hits_top > hits_bottom * 2


class TestSampleFrontier:
    """The frontier-wide core against per-row PMFs and the per-vertex oracle."""

    @staticmethod
    def mixed_table():
        # row 0 isolated, row 1 degree 1, row 3 has a self-loop, row 6 (the
        # last row, n - 1) has degree 3
        g = G.from_edges(
            7, [1, 3, 3, 3, 6, 6, 6], [2, 3, 4, 5, 4, 5, 2], directed=False
        )
        x = np.random.default_rng(8).normal(size=(7, 3))
        rt = R.rank_by_similarity(g, x, pmf=R.PmfSpec(kind="exponential"))
        return g, rt

    def test_with_replacement_row_frequencies(self):
        g, rt = self.mixed_table()
        assert g.degree(0) == 0 and g.degree(1) == 1
        assert g.has_edge(3, 3) and g.degree(6) == 3
        frontier = np.array([0, 1, 3, 6])
        draws = 100_000
        which, picks = SA.sample_frontier(rt, frontier, draws, True, SA.rng_for(9))
        assert np.array_equal(which, np.repeat([1, 2, 3], draws))
        for i, u in enumerate(frontier.tolist()):
            got = picks[which == i]
            ids, probs = rt.row(u)
            assert np.all(np.isin(got, ids))
            for v, p in zip(ids.tolist(), probs):
                assert abs(np.mean(got == v) - p) < 0.01, (u, v)

    def test_largest_uniform_stays_in_row(self):
        # U just below 1 picks each row's last entry, even for rows whose
        # mass falls short of 1, and never spills into the next row
        class TopRng:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        g, base = self.mixed_table()
        rt = G.make_rank_table(
            base.mode, base.pmf_kind, base.pmf_params, base.offsets,
            base.ranked_ids, base.probs * (1.0 - 1e-9),
        )
        frontier = np.arange(g.n)
        which, picks = SA.sample_frontier(rt, frontier, 3, True, TopRng())
        for i, v in zip(which.tolist(), picks.tolist()):
            assert v == rt.row(int(frontier[i]))[0][-1]

    def test_without_replacement_takes_min_k_d_distinct(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, n=30, m=90)
        x = rng.normal(size=(g.n, 3))
        rt = R.rank_by_similarity(g, x, pmf=R.PmfSpec(kind="step"))
        frontier = np.concatenate([np.arange(g.n), [4, 4, 0]])  # repeats
        for k in (0, 1, 3, 8, 50):
            which, picks = SA.sample_frontier(rt, frontier, k, False, SA.rng_for(k))
            assert np.all(np.diff(which) >= 0)
            for i, u in enumerate(frontier.tolist()):
                got = picks[which == i]
                assert got.size == min(k, g.degree(u))
                assert np.unique(got).size == got.size
                assert np.all(np.isin(got, g.neighbors(u)))

    def test_without_replacement_inclusion_matches_oracle(self):
        _, rt = star_table(10, kind="exponential")
        reps, k = 20_000, 3
        frontier = np.zeros(reps, dtype=np.int64)  # one row, repeated
        which, picks = SA.sample_frontier(rt, frontier, k, False, SA.rng_for(11))
        assert np.array_equal(np.bincount(which), np.full(reps, k))
        o_which, o_picks = sample_frontier_loop(rt, frontier, k, False, SA.rng_for(12))
        assert np.array_equal(o_which, which)
        got = np.bincount(picks, minlength=11) / reps
        want = np.bincount(o_picks, minlength=11) / reps
        # each inclusion frequency has a standard deviation below 0.0036
        assert np.max(np.abs(got - want)) < 0.02
        ids, _ = rt.row(0)
        assert got[ids[0]] > got[ids[-1]]

    def test_with_replacement_matches_oracle(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, n=12, m=30)
        x = rng.normal(size=(g.n, 3))
        rt = R.rank_by_similarity(g, x, pmf=R.PmfSpec(kind="linear"))
        frontier = np.arange(g.n)
        which, picks = SA.sample_frontier(rt, frontier, 20_000, True, SA.rng_for(14))
        o_which, o_picks = sample_frontier_loop(
            rt, frontier, 20_000, True, SA.rng_for(15)
        )
        assert np.array_equal(which, o_which)
        for i in range(g.n):
            a = np.bincount(picks[which == i], minlength=g.n) / 20_000
            b = np.bincount(o_picks[o_which == i], minlength=g.n) / 20_000
            assert np.max(np.abs(a - b)) < 0.02

    def test_same_draws_as_per_vertex_loop(self):
        # the generator is read vertex by vertex, as the loop reads it
        rng = np.random.default_rng(19)
        g = random_graph(rng, n=40, m=150)
        rt = R.rank_by_similarity(g, rng.normal(size=(g.n, 3)))
        frontier = np.concatenate([np.arange(g.n), [7, 7, 3]])
        for replace in (True, False):
            for k in (1, 4, 9):
                got = SA.sample_frontier(rt, frontier, k, replace, SA.rng_for(k))
                want = sample_frontier_loop(rt, frontier, k, replace, SA.rng_for(k))
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])

    def test_deterministic(self):
        g, rt = self.mixed_table()
        for replace in (True, False):
            a = SA.sample_frontier(rt, [6, 3, 1, 0], 2, replace, SA.rng_for(16))
            b = SA.sample_frontier(rt, [6, 3, 1, 0], 2, replace, SA.rng_for(16))
            assert all(np.array_equal(p, q) for p, q in zip(a, b))


def hash7(s):
    import zlib

    return zlib.crc32(s.encode())


def random_graph(rng, n=15, m=35):
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return G.from_edges(n, src, dst, directed=False)


class TestNodeSampleKhop:
    def test_empty_seeds(self):
        g, rt = star_table(3)
        with pytest.raises(ValueError, match="empty seed"):
            SA.node_sample_khop(g, rt, [], [2], SA.rng_for(0))

    def test_seed_out_of_range(self):
        g, rt = star_table(3)
        with pytest.raises(ValueError, match="range"):
            SA.node_sample_khop(g, rt, [9], [2], SA.rng_for(0))

    @pytest.mark.parametrize("fanouts", [[0, 2], [2, 0], [-1], []])
    def test_nonpositive_fanout_rejected(self, fanouts):
        g, rt = star_table(3)
        with pytest.raises(ValueError, match="fanouts must be positive"):
            SA.node_sample_khop(g, rt, [0], fanouts, SA.rng_for(0))

    def test_full_fanout_gives_two_hop_egonet(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng)
        x = rng.normal(size=(g.n, 3))
        rt = R.rank_by_similarity(g, x)
        dmax = int(g.degrees().max())
        sub = SA.node_sample_khop(g, rt, [0], [dmax, dmax], SA.rng_for(1))
        # oracle: breadth-first 2-hop ball around the seed
        ball = {0}
        frontier = {0}
        for _ in range(2):
            frontier = {
                int(v) for u in frontier for v in g.neighbors(u)
            }
            ball |= frontier
        assert set(sub.parent_ids.tolist()) == ball

    def test_single_seed_single_fanout(self):
        g, rt = star_table(5)
        sub = SA.node_sample_khop(g, rt, [1], [1], SA.rng_for(2))
        assert sub.n <= 2

    def test_edges_exist_in_parent(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        x = rng.normal(size=(g.n, 3))
        rt = R.rank_by_similarity(g, x)
        sub = SA.node_sample_khop(g, rt, [0, 3, 5], [3, 2], SA.rng_for(3))
        for a, b in sub.graph.edge_array():
            u, v = int(sub.parent_ids[a]), int(sub.parent_ids[b])
            assert g.has_edge(u, v)

    def test_layers_recorded(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng)
        x = rng.normal(size=(g.n, 3))
        rt = R.rank_by_similarity(g, x)
        sub = SA.node_sample_khop(g, rt, [2], [3, 2], SA.rng_for(4))
        assert sub.layers is not None and len(sub.layers) == 2
        for layer in sub.layers:
            assert layer.shape[1] == 2
            assert np.all(layer < sub.n)

    @pytest.mark.parametrize("replace", [False, True])
    def test_matches_dict_remap_oracle(self, replace):
        # the draws come from a per-vertex loop, the subgraph fields from a dict remap
        rng = np.random.default_rng(21)
        for trial in range(30):
            g = random_graph(rng, n=int(rng.integers(2, 40)), m=int(rng.integers(0, 80)))
            x = rng.normal(size=(g.n, 3))
            tables = [R.rank_by_similarity(g, x)]
            if trial % 2:
                tables.append(R.rank_by_diversity(g, x))
            seeds = rng.integers(0, g.n, size=int(rng.integers(1, 8)))
            fanouts = rng.integers(1, 5, size=int(rng.integers(1, 4))).tolist()
            got = SA.node_sample_khop(
                g, tables if trial % 2 else tables[0], seeds, fanouts, SA.rng_for(trial), replace
            )
            draw_rng = SA.rng_for(trial)
            for sub, rt in zip(got if trial % 2 else [got], tables):
                frontier, layers = np.unique(seeds), []
                for k in fanouts:
                    which, picks = sample_frontier_loop(rt, frontier, k, replace, draw_rng)
                    layers.append(np.stack([frontier[which], picks], axis=1))
                    frontier = np.unique(picks)
                ids, local, mask, local_layers = build_subgraph_dict(
                    g, seeds, np.concatenate(layers), layers
                )
                assert np.array_equal(sub.parent_ids, ids)
                assert np.array_equal(sub.graph.offsets, local.offsets)
                assert np.array_equal(sub.graph.targets, local.targets)
                assert sub.graph.n == local.n and sub.graph.directed
                assert np.array_equal(sub.seed_mask, mask)
                assert len(sub.layers) == len(local_layers)
                for a, b in zip(sub.layers, local_layers):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert np.array_equal(a, b)

    def test_dual_channel_same_seeds(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng)
        x = rng.normal(size=(g.n, 3))
        sim = R.rank_by_similarity(g, x)
        div = R.rank_by_diversity(g, x)
        subs = SA.node_sample_khop(g, [sim, div], [1, 4], [2, 2], SA.rng_for(5))
        assert len(subs) == 2
        for sub in subs:
            assert {1, 4} <= set(sub.parent_ids[sub.seeds_local()].tolist())

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng)
        x = rng.normal(size=(g.n, 3))
        rt = R.rank_by_similarity(g, x)
        a = SA.node_sample_khop(g, rt, [0, 1], [3, 3], SA.rng_for(6))
        b = SA.node_sample_khop(g, rt, [0, 1], [3, 3], SA.rng_for(6))
        assert np.array_equal(a.parent_ids, b.parent_ids)
        assert np.array_equal(a.graph.targets, b.graph.targets)


def graphs_a_and_b():
    rng = np.random.default_rng(19)
    a, b = random_graph(rng, n=200, m=600), random_graph(rng, n=200, m=600)
    return a, b, R.rank_by_similarity(a, rng.normal(size=(200, 4)))


class TestTableOfAnotherGraph:
    def test_node_sample_rejects(self):
        a, b, rt_a = graphs_a_and_b()
        SA.node_sample_khop(a, rt_a, range(10), [4], SA.rng_for(0))
        with pytest.raises(ValueError, match="do not match"):
            SA.node_sample_khop(b, rt_a, range(10), [4], SA.rng_for(0))
        with pytest.raises(ValueError, match="do not match"):
            SA.node_sample_khop(a, [rt_a, R.rank_uniform(b)], range(10), [4], SA.rng_for(0))

    def test_walk_rejects(self):
        a, b, rt_a = graphs_a_and_b()
        SA.weighted_random_walk(a, rt_a, range(10), 3, SA.rng_for(0))
        with pytest.raises(ValueError, match="do not match"):
            SA.weighted_random_walk(b, rt_a, range(10), 3, SA.rng_for(0))

    def test_table_with_fewer_rows_rejected(self):
        a, _, rt_a = graphs_a_and_b()
        bigger = G.from_edges(201, [0], [200], directed=False)
        with pytest.raises(ValueError, match="do not match"):
            SA.node_sample_khop(bigger, rt_a, [0], [4], SA.rng_for(0))


class TestWeightedRandomWalk:
    def test_path_end_single_step(self):
        g = G.from_edges(3, [0, 1], [1, 2], directed=False)
        x = np.ones((3, 2))
        rt = R.rank_by_similarity(g, x)
        sub = SA.weighted_random_walk(g, rt, [0], 1, SA.rng_for(0))
        assert set(sub.parent_ids.tolist()) == {0, 1}
        assert sub.graph.m >= 1

    def test_zero_steps(self):
        g, rt = star_table(3)
        sub = SA.weighted_random_walk(g, rt, [0, 2], 0, SA.rng_for(1))
        assert set(sub.parent_ids.tolist()) == {0, 2}
        assert sub.graph.m == 0

    def test_dead_end_truncates(self):
        g = G.from_edges(3, [0], [1], directed=False)
        x = np.ones((3, 2))
        rt = R.rank_by_similarity(g, x)
        sub = SA.weighted_random_walk(g, rt, [2], 5, SA.rng_for(2))
        assert sub.parent_ids.tolist() == [2]
        assert sub.graph.m == 0

    def test_negative_steps(self):
        g, rt = star_table(2)
        with pytest.raises(ValueError, match="nonnegative"):
            SA.weighted_random_walk(g, rt, [0], -1, SA.rng_for(3))

    def test_repeated_seeds_walk_independently(self):
        g, rt = star_table(6)
        sub = SA.weighted_random_walk(g, rt, [0, 0, 0, 0], 1, SA.rng_for(5))
        assert sub.seeds_local().tolist() == [0]
        assert 1 <= sub.graph.m <= 4

    def test_walks_stay_on_edges(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, n=25, m=40)
        rt = R.rank_by_similarity(g, rng.normal(size=(g.n, 3)))
        seeds = rng.integers(0, g.n, size=30)
        sub = SA.weighted_random_walk(g, rt, seeds, 6, SA.rng_for(8))
        walkers = int(np.count_nonzero(g.degrees()[seeds]))
        assert sub.graph.m <= 6 * walkers
        for a, b in sub.graph.edge_array():
            assert g.has_edge(int(sub.parent_ids[a]), int(sub.parent_ids[b]))

    def test_same_walks_as_per_walk_loop(self):
        # isolated seeds draw nothing; every other walk owns `steps` uniforms.
        # Directed, 9 of the 32 nodes have no out-edges, so walks also end midway
        rng = np.random.default_rng(9)
        src, dst = rng.integers(0, 30, size=(2, 40))
        for directed in (False, True):
            g = G.from_edges(32, src, dst, directed=directed)  # 30 and 31 isolated
            rt = R.rank_by_similarity(g, rng.normal(size=(g.n, 3)))
            seeds = np.concatenate([rng.integers(0, g.n, size=25), [31, 4, 30, 4]])
            for steps in (0, 1, 5, 20):
                sub = SA.weighted_random_walk(g, rt, seeds, steps, SA.rng_for(steps))
                edges = walk_edges_loop(rt, seeds, steps, SA.rng_for(steps))
                ids, local, mask, _ = build_subgraph_dict(g, seeds, edges)
                assert np.array_equal(sub.parent_ids, ids)
                assert np.array_equal(sub.graph.offsets, local.offsets)
                assert np.array_equal(sub.graph.targets, local.targets)
                assert sub.graph.n == local.n and sub.graph.directed
                assert np.array_equal(sub.seed_mask, mask)
                assert sub.layers is None

    def test_star_leaf_frequencies(self):
        _, rt = star_table(5, kind="step")
        g = star_graph(5)
        ids, probs = rt.row(0)
        rng = SA.rng_for(4)
        counts = dict.fromkeys(ids.tolist(), 0)
        trials = 100_000
        for _ in range(trials):
            sub = SA.weighted_random_walk(g, rt, [0], 1, rng)
            leaf = [p for p in sub.parent_ids.tolist() if p != 0]
            counts[leaf[0]] += 1
        for v, p in zip(ids.tolist(), probs):
            assert abs(counts[v] / trials - p) < 0.01


class TestDisjointDecompose:
    def test_tree_single_forest(self):
        g = G.from_edges(5, [0, 0, 1, 1], [1, 2, 3, 4], directed=False)
        w = np.ones(g.m)
        col = SA.disjoint_decompose(g, w, 1)
        assert col.forest_count == 1
        assert col.part_edges(0).shape[0] == 4
        assert col.part_edges(1).shape[0] == 0  # residual empty
        assert col.flags == []
        assert col.parts[-1][1] == 0.0

    def test_part_edges_read_only(self):
        g = G.from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], directed=False)
        col = SA.disjoint_decompose(g, np.ones(g.m), 1)
        for i in range(len(col.parts)):
            with pytest.raises(ValueError, match="read-only"):
                col.part_edges(i).sort(axis=1)

    def test_k4_first_forest_is_max_spanning_tree(self):
        # complete graph on 4 vertices with distinct weights
        rng = np.random.default_rng(5)
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        weights = rng.permutation([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        wmap = {e: w for e, w in zip(edges, weights)}
        src = [e[0] for e in edges]
        dst = [e[1] for e in edges]
        g = G.from_edges(4, src, dst, directed=False)
        w_dir = np.zeros(g.m)
        pairs = g.edge_array()
        for i, (a, b) in enumerate(pairs):
            key = (min(int(a), int(b)), max(int(a), int(b)))
            w_dir[i] = wmap[key]
        col = SA.disjoint_decompose(g, w_dir, 2)

        # oracle: enumerate all 16 spanning trees of K4
        import itertools

        best_w, best_tree = -1.0, None
        for tree in itertools.combinations(edges, 3):
            uf = {v: v for v in range(4)}

            def find(a):
                while uf[a] != a:
                    a = uf[a]
                return a

            ok = True
            for a, b in tree:
                ra, rb = find(a), find(b)
                if ra == rb:
                    ok = False
                    break
                uf[rb] = ra
            if ok:
                tw = sum(wmap[e] for e in tree)
                if tw > best_w:
                    best_w, best_tree = tw, set(tree)
        got = {tuple(e) for e in col.part_edges(0).tolist()}
        assert got == best_tree
        assert col.parts[0][1] == pytest.approx(best_w)

    def test_partition_property(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(3, 15))
            m = int(rng.integers(2, 30))
            g = G.from_edges(
                n, rng.integers(0, n, size=m), rng.integers(0, n, size=m),
                directed=False,
            )
            w = rng.uniform(0.1, 2.0, size=g.m)
            k = int(rng.integers(1, 4))
            col = SA.disjoint_decompose(g, w, k)
            pairs = g.edge_array()
            orig = {
                (min(int(a), int(b)), max(int(a), int(b))) for a, b in pairs
            }
            seen = set()
            for i in range(len(col.parts)):
                part = {tuple(e) for e in col.part_edges(i).tolist()}
                assert not (part & seen)  # pairwise disjoint
                seen |= part
            assert seen == orig

    def test_exhaustion_flag(self):
        g = G.from_edges(3, [0], [1], directed=False)
        col = SA.disjoint_decompose(g, np.ones(g.m), 3)
        assert col.forest_count == 1
        assert any(f.startswith("exhausted_after=1") for f in col.flags)

    def test_self_loops_go_to_residual(self):
        g = G.from_edges(3, [0, 1, 2], [1, 2, 2], directed=False)
        col = SA.disjoint_decompose(g, np.ones(g.m), 1)
        res = {tuple(e) for e in col.part_edges(1).tolist()}
        assert (2, 2) in res

    def test_weight_floor(self):
        g = G.from_edges(2, [0], [1], directed=False)
        col = SA.disjoint_decompose(g, np.full(g.m, 1e-9), 2)
        assert col.parts[0][1] == pytest.approx(2e-3)

    def test_weight_validation(self):
        g = G.from_edges(2, [0], [1], directed=False)
        with pytest.raises(ValueError, match="one weight"):
            SA.disjoint_decompose(g, np.ones(g.m + 1), 1)
        with pytest.raises(ValueError, match="nonnegative"):
            SA.disjoint_decompose(g, -np.ones(g.m), 1)


class TestDisjointKruskalOracle:
    """Every part and forest weight equals the Kruskal loop's, byte for byte."""

    def assert_matches(self, g, w, k):
        col = SA.disjoint_decompose(g, w, k)
        forests, weights, residual, flags = kruskal_forests(g, w, k)
        assert col.flags == flags
        assert col.forest_count == len(forests)
        for i, (edges, weight) in enumerate(zip(forests, weights)):
            assert col.part_edges(i).tobytes() == edges.tobytes()
            assert np.float64(col.parts[i][1]).tobytes() == np.float64(weight).tobytes()
        assert col.part_edges(len(forests)).tobytes() == residual.tobytes()
        assert col.parts[-1][1] == 0.0
        return col

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_random_graphs_with_tied_weights(self, levels):
        # random endpoints give self-loops, several components and, with
        # n above the largest id drawn, isolated nodes
        rng = np.random.default_rng(10 + levels)
        for _ in range(150):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(0, 60))
            g = G.from_edges(
                n + int(rng.integers(0, 3)),
                rng.integers(0, n, size=m), rng.integers(0, n, size=m),
                directed=False,
            )
            w = 0.25 + rng.integers(0, levels, size=g.m) / levels
            self.assert_matches(g, w, int(rng.integers(1, 5)))

    def test_all_equal_weights_several_components(self):
        # a 5-clique, a 4-cycle, a path, self-loops and isolated nodes 15-16
        clique = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        cycle = [(5, 6), (6, 7), (7, 8), (5, 8)]
        path = [(9, 10), (10, 11), (11, 12)]
        loops = [(0, 0), (7, 7), (13, 13), (14, 14)]
        src, dst = zip(*(clique + cycle + path + loops))
        g = G.from_edges(17, src, dst, directed=False)
        for k in (1, 2, 3, 4):
            col = self.assert_matches(g, np.full(g.m, 0.5), k)
        assert col.forest_count == 4
        assert (13, 13) in {tuple(e) for e in col.part_edges(4).tolist()}

    def test_long_hook_chains(self):
        # weights rising along a path make every node hook onto its right
        # neighbour, one chain as long as the path, and the lighter chords
        # (i, i + 2) wait for the second forest. A denser random graph
        # with two weight levels takes several rounds per forest.
        n = 200
        src = np.concatenate([np.arange(n - 1), np.arange(n - 2)])
        dst = np.concatenate([np.arange(1, n), np.arange(2, n)])
        g = G.from_edges(n, src, dst, directed=False)
        pairs = g.edge_array()
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        w = np.where(hi - lo == 1, 1.0 + lo, 0.5)
        col = self.assert_matches(g, w, 3)
        assert col.part_edges(0).tolist() == [[i, i + 1] for i in range(n - 1)]
        rng = np.random.default_rng(3)
        g = G.from_edges(
            300, rng.integers(0, 300, size=1500), rng.integers(0, 300, size=1500),
            directed=False,
        )
        self.assert_matches(g, rng.integers(1, 3, size=g.m) / 2.0, 4)

    def test_exhausted_after_flag(self):
        # a triangle and a separate edge: two forests take all four edges
        g = G.from_edges(6, [0, 1, 0, 3, 5], [1, 2, 2, 4, 5], directed=False)
        col = self.assert_matches(g, np.ones(g.m), 4)
        assert col.flags == ["exhausted_after=2"]
        assert col.forest_count == 2
        assert {tuple(e) for e in col.part_edges(2).tolist()} == {(5, 5)}

    def test_weight_floor(self):
        g = G.from_edges(4, [0, 1, 2, 0], [1, 2, 3, 2], directed=False)
        for k in (1, 3):
            col = self.assert_matches(g, np.full(g.m, 1e-9), k)
            assert col.parts[0][1] == k * 1e-3


class TestDisjointSample:
    def manual_collection(self):
        g = G.from_edges(
            6, [0, 2, 4], [1, 3, 5], directed=False
        )  # three disjoint edges
        col = SA.disjoint_decompose(g, np.array([3.0, 3.0, 1.0, 1.0, 2.0, 2.0]), 3)
        return g, col

    def test_full_reunion(self):
        g, col = self.manual_collection()
        sub = SA.disjoint_subgraph_sample(
            col, col.forest_count, 1.0, SA.rng_for(0)
        )
        pairs = g.edge_array()
        orig = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in pairs}
        got = {
            tuple(sorted(sub.parent_ids[list(e)].tolist()))
            for e in sub.graph.edge_array()
        }
        assert got == orig

    def test_single_forest_no_residual(self):
        g = G.from_edges(3, [0, 1], [1, 2], directed=False)
        col = SA.disjoint_decompose(g, np.ones(g.m), 1)
        sub = SA.disjoint_subgraph_sample(col, 1, 0.0, SA.rng_for(1))
        assert {
            tuple(sorted(sub.parent_ids[list(e)].tolist()))
            for e in sub.graph.edge_array()
        } == {(0, 1), (1, 2)}

    def test_weight_proportional_frequency(self):
        # triangle splits into a weight-3 forest and a weight-1 forest
        g = G.from_edges(3, [0, 0, 1], [1, 2, 2], directed=False)
        w = np.zeros(g.m)
        pairs = g.edge_array()
        for i, (a, b) in enumerate(pairs):
            key = (min(int(a), int(b)), max(int(a), int(b)))
            w[i] = {(0, 1): 2.0, (0, 2): 1.0, (1, 2): 1.0}[key]
        col = SA.disjoint_decompose(g, w, 2)
        assert [w for _, w in col.parts[:-1]] == [3.0, 1.0]
        heavy = {tuple(e) for e in col.part_edges(0).tolist()}
        rng = SA.rng_for(2)
        trials = 100_000
        hits = 0
        for _ in range(trials):
            sub = SA.disjoint_subgraph_sample(col, 1, 0.0, rng)
            got = {
                tuple(sorted(sub.parent_ids[list(e)].tolist()))
                for e in sub.graph.edge_array()
            }
            hits += got == heavy
        assert abs(hits / trials - 0.75) < 0.01

    def test_invalid_fraction(self):
        _, col = self.manual_collection()
        with pytest.raises(ValueError, match="fraction"):
            SA.disjoint_subgraph_sample(col, 1, 1.5, SA.rng_for(3))

    def test_k_exceeds_forests(self):
        _, col = self.manual_collection()
        with pytest.raises(ValueError, match="exceeds"):
            SA.disjoint_subgraph_sample(col, 9, 0.0, SA.rng_for(4))

    @pytest.mark.parametrize("k", [-1, -5])
    def test_negative_k_rejected(self, k):
        _, col = self.manual_collection()
        with pytest.raises(ValueError, match=f"k={k} is negative"):
            SA.disjoint_subgraph_sample(col, k, 0.0, SA.rng_for(4))


class TestEdgeWeightsFromTable:
    def test_masses_align(self):
        g, rt = star_table(4, kind="step")
        w = SA.edge_weights_from_table(g, rt)
        assert w.shape == (g.m,)
        # center row masses are the pmf values in neighbor order
        ids, probs = rt.row(0)
        lookup = {int(v): float(p) for v, p in zip(ids, probs)}
        for i, v in enumerate(g.neighbors(0)):
            assert w[int(g.offsets[0]) + i] == lookup[int(v)]

    def test_bit_identical_to_dict_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_graph(rng, n=40, m=120)
            x = rng.normal(size=(g.n, 4))
            for rt in (R.rank_by_similarity(g, x), R.rank_by_diversity(g, x)):
                w = SA.edge_weights_from_table(g, rt)
                assert w.tobytes() == edge_weights_dict(g, rt).tobytes()

    def test_table_of_another_graph_rejected(self):
        rng = np.random.default_rng(18)
        g = random_graph(rng, n=20, m=50)
        other = random_graph(rng, n=20, m=50)
        rt = R.rank_uniform(other)
        with pytest.raises(ValueError, match="do not match"):
            SA.edge_weights_from_table(g, rt)
        # same row sizes, different neighbours
        g2 = G.from_edges(4, [0, 2], [1, 3], directed=False)
        rt2 = R.rank_uniform(G.from_edges(4, [0, 2], [3, 1], directed=False))
        assert np.array_equal(rt2.offsets, g2.offsets)
        with pytest.raises(ValueError, match="do not match"):
            SA.edge_weights_from_table(g2, rt2)


class TestLexsortRows:
    """One argsort and one sort give the order of the two-argsort version."""

    def test_byte_equal_fuzz(self):
        rng = np.random.default_rng(21)
        empty, one = np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        cases = [(np.zeros(0), empty), (np.ones(1), one)]
        for _ in range(80):
            size = int(rng.integers(1, 200))
            rows = np.sort(rng.integers(0, int(rng.integers(1, 20)), size=size))
            # few distinct values: many tied keys, within and across rows
            keys = rng.integers(0, int(rng.integers(1, 6)), size=size) / 4.0
            if rng.random() < 0.5:
                keys = -np.log(rng.random(size))
            cases.append((keys, rows))
        for keys, rows in cases:
            got = SA._lexsort_rows(keys, rows)
            assert got.tobytes() == lexsort_rows_two_argsorts(keys, rows).tobytes()
            assert np.array_equal(np.sort(got), np.arange(keys.size))
            assert np.all(np.diff(rows[got]) >= 0)


def row_runs(labels, sizes):
    """Entries of ascending rows ``labels`` of ``sizes`` entries each, and
    every entry's offset in its row."""
    rows = np.repeat(labels, sizes)
    offset = np.arange(rows.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return rows, offset


class TestPackedDrawOrder:
    """``_draw_order`` gives ``_lexsort_rows``'s order byte for byte, and
    reaches it only when the packed sort cannot decide."""

    @staticmethod
    def key_cases(rng, size):
        base = float(rng.uniform(0.1, 5.0))
        yield -np.log(rng.random(size))  # distinct: the packed path
        # equal in the kept bits but not as floats
        yield base * (1 + rng.integers(0, 4 * size + 1, size=size) * 2.0**-45)
        yield rng.integers(1, 4, size=size) / 4.0  # exact ties
        with_inf = -np.log(rng.random(size))
        with_inf[rng.random(size) < 0.2] = np.inf
        yield with_inf
        one_inf = -np.log(rng.random(size))
        one_inf[int(rng.integers(size))] = np.inf
        yield one_inf
        yield -np.log(rng.random(size)) - 1.0  # not all positive: the exact path

    def test_byte_equal_fuzz(self):
        rng = np.random.default_rng(23)
        for trial in range(150):
            n_rows = int(rng.integers(1, 40))
            sizes = rng.integers(1, [2, 5, 30, 401][trial % 4], size=n_rows)
            # row labels up to 2**44 leave the key field a few bits:
            # neighbouring keys then share them
            top = 2 ** int(rng.choice([6, 20, 36, 44]))
            labels = np.sort(rng.choice(top, size=n_rows, replace=False))
            rows, offset = row_runs(labels, sizes)
            for keys in self.key_cases(rng, rows.size):
                got = SA._draw_order(keys, rows, offset)
                want = SA._lexsort_rows(keys, rows)
                assert got.tobytes() == want.tobytes()
                assert got.tobytes() == lexsort_rows_two_argsorts(keys, rows).tobytes()

    def test_empty_and_single_entry(self):
        empty = np.zeros(0, dtype=np.int64)
        assert SA._draw_order(np.zeros(0), empty, empty).size == 0
        one = np.zeros(1, dtype=np.int64)
        assert SA._draw_order(np.ones(1), one, one).tolist() == [0]

    def test_exact_path_runs_only_on_ties(self, monkeypatch):
        exact = []
        lexsort = SA._lexsort_rows

        def counted(keys, rows):
            exact.append(keys.size)
            return lexsort(keys, rows)

        monkeypatch.setattr(SA, "_lexsort_rows", counted)
        rng = np.random.default_rng(24)
        sizes = rng.integers(10, 60, size=50)
        rows, offset = row_runs(np.arange(50), sizes)
        SA._draw_order(-np.log(rng.random(rows.size)), rows, offset)
        assert exact == []
        # equal keys in different rows do not tie
        keys = np.concatenate([rng.permutation(s) for s in sizes]) + 1.0
        SA._draw_order(keys, rows, offset)
        assert exact == []
        # one pair in one row equal in the kept bits, distinct as floats
        keys = -np.log(rng.random(rows.size))
        keys[5] = keys[6] * (1 + 2.0**-50)
        SA._draw_order(keys, rows, offset)
        assert exact == [rows.size]

    def test_exact_path_through_sample_frontier(self, monkeypatch):
        class ConstantRng:
            def random(self, size):
                return np.full(size, 0.5)

        exact = []
        lexsort = SA._lexsort_rows
        monkeypatch.setattr(
            SA, "_lexsort_rows", lambda keys, rows: exact.append(1) or lexsort(keys, rows)
        )
        _, rt = star_table(12)  # uniform masses: a constant U ties every key
        SA.sample_frontier(rt, [0, 1, 0], 5, False, SA.rng_for(1))
        assert exact == []
        which, picks = SA.sample_frontier(rt, [0, 1, 0], 5, False, ConstantRng())
        assert exact == [1]
        assert which.tolist() == [0] * 5 + [1] + [2] * 5
        assert picks[5] == 0 and np.all(np.isin(picks, rt.row(0)[0]) | (which == 1))

    def test_sample_frontier_matches_lexsort_draws(self, monkeypatch):
        """Frontiers that repeat vertices, and one long enough that the
        row field takes 17 bits, draw what the lexsort order draws."""
        g, x = chung_lu_with_hubs()
        rt = R.rank_by_similarity(g, x, pmf=R.PmfSpec(kind="exponential", rate=0.7))
        rng = np.random.default_rng(25)
        hubs = np.argsort(-g.degrees())[:5]
        padded = np.full(2**17, int(np.flatnonzero(g.degrees() == 0)[0]))
        padded[-40:] = rng.choice(g.n, size=40)
        frontiers = [
            np.sort(rng.choice(g.n, size=200)),
            np.concatenate([hubs, hubs, rng.choice(g.n, size=30), hubs]),
            padded,
        ]
        for frontier in frontiers:
            for k in (1, 5, 400):
                got = SA.sample_frontier(rt, frontier, k, False, SA.rng_for(k, frontier.size))
                with monkeypatch.context() as m:
                    m.setattr(SA, "_draw_order", lambda keys, rows, _: SA._lexsort_rows(keys, rows))
                    want = SA.sample_frontier(rt, frontier, k, False, SA.rng_for(k, frontier.size))
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()


class TestCanonicalUndirected:
    def test_matches_scatter_max(self):
        rng = np.random.default_rng(22)
        for directed in (False, True):
            for _ in range(20):
                n = int(rng.integers(1, 30))
                src, dst = rng.integers(0, n, size=(2, 3 * n))
                g = G.from_edges(n, src, dst, directed=directed)
                w = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], size=g.m)
                us, vs, ws = SA._canonical_undirected(g, w)
                want_u, want_v, want_w = canonical_undirected_scatter(g, w)
                assert us.tobytes() == want_u.tobytes() and vs.tobytes() == want_v.tobytes()
                # equal values; a zero may differ in sign, which the
                # decomposition never shows (forest weights are floored)
                assert ws.dtype == want_w.dtype and np.array_equal(ws, want_w)
                a = SA.disjoint_decompose(g, w, 2)
                b = SA.disjoint_decompose(g, np.abs(w), 2)
                assert np.array([x for _, x in a.parts]).tobytes() == np.array(
                    [x for _, x in b.parts]
                ).tobytes()
                for i in range(len(a.parts)):
                    assert np.array_equal(a.part_edges(i), b.part_edges(i))

    def test_packed_sort_equals_argsort(self, monkeypatch):
        # self-loops and both edge directions; the packed sort and the
        # argsort it falls back to give the argsort's edges and weights
        rng = np.random.default_rng(26)
        for trial in range(60):
            n = int(rng.integers(1, 80))
            src, dst = rng.integers(0, n, size=(2, int(rng.integers(0, 6 * n))))
            loops = rng.integers(0, n, size=int(rng.integers(0, 4)))
            src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
            g = G.from_edges(n, src, dst, directed=trial % 2 == 0)
            w = rng.random(g.m)
            pairs = g.edge_array()
            key = pairs.min(axis=1) * g.n + pairs.max(axis=1)
            order = np.argsort(key)
            first = np.flatnonzero(np.diff(key[order], prepend=-1))
            want_u, want_v = np.divmod(key[order][first], g.n)
            want_w = np.maximum.reduceat(w[order], first) if first.size else np.zeros(0)
            for packed in (True, False):
                with monkeypatch.context() as m:
                    if not packed:
                        m.setattr(SA, "_packed_sort", lambda major, minor, bits: None)
                    us, vs, ws = SA._canonical_undirected(g, w)
                assert us.tobytes() == want_u.tobytes() and vs.tobytes() == want_v.tobytes()
                assert ws.tobytes() == want_w.tobytes()

    def test_edgeless_graph(self):
        g = G.from_edges(3, [], [], directed=False)
        col = SA.disjoint_decompose(g, np.zeros(0), 2)
        assert col.flags == ["exhausted_after=0"]
        assert len(col.parts) == 1 and col.part_edges(0).shape == (0, 2)


def chung_lu_with_hubs(n=600, m=3000, seed=11):
    """Endpoints drawn with weight (i + 1) ** -0.7: a few hub vertices."""
    rng = np.random.default_rng(seed)
    w = np.arange(1, n + 1) ** -0.7
    p = w / w.sum()
    src = rng.choice(n, size=m, p=p)
    dst = rng.choice(n, size=m, p=p)
    return G.from_edges(n, src, dst, directed=False), rng.normal(size=(n, 4))


class TestPinnedSamplerDigest:
    """Every sampler's output on a seeded hub graph, pinned to the bytes
    the samplers gave before walks sorted their keys and the graph merge
    dropped its stable argsort."""

    DIGEST = "ce9457954dd14ab18515501cd8677f944b8e7bc493504109169e09c0e98d479f"

    def test_digest(self):
        g, x = chung_lu_with_hubs()
        assert g.degrees().max() > 150
        rt = R.rank_by_similarity(g, x, pmf=R.PmfSpec(kind="exponential", rate=0.7))
        h = hashlib.sha256()

        def put(*arrs):
            for a in arrs:
                h.update(np.ascontiguousarray(a).tobytes())

        def put_sub(sub):
            put(sub.parent_ids, sub.graph.offsets, sub.graph.targets, sub.seed_mask)
            for layer in sub.layers or ():
                put(layer)

        put(g.offsets, g.targets)
        seeds = np.arange(0, g.n, 7)
        for replace in (False, True):
            put_sub(SA.node_sample_khop(
                g, rt, seeds, [10, 5], SA.rng_for(3, int(replace)), replace=replace
            ))
        walk_seeds = np.concatenate([seeds, seeds[:20]])
        put_sub(SA.weighted_random_walk(g, rt, walk_seeds, 12, SA.rng_for(4)))
        col = SA.disjoint_decompose(g, SA.edge_weights_from_table(g, rt), 3)
        for edges, weight in col.parts:
            put_sub(G.build_subgraph(g, [], edges))
            put(np.float64(weight))
        put_sub(SA.disjoint_subgraph_sample(col, 2, 0.3, SA.rng_for(5)))
        assert h.hexdigest() == self.DIGEST


def rows_of_every_degree(max_degree=400, seed=12):
    """Node i < max_degree has out-degree i + 1, a self-loop when i % 3 == 0;
    the last node has no neighbours."""
    rng = np.random.default_rng(seed)
    n = max_degree + 1
    src, dst = [], []
    for i in range(max_degree):
        others = np.delete(np.arange(n), i)
        loop = i % 3 == 0
        picks = rng.choice(others, size=i + 1 - loop, replace=False).tolist()
        src += [i] * (i + 1)
        dst += picks + [i] * loop
    g = G.from_edges(n, src, dst, directed=True)
    return g, rng.normal(size=(n, 4))


GUIDE_PMFS = {
    "step": R.PmfSpec(kind="step"),
    "step-extreme": R.PmfSpec(kind="step", k1=0.15, k2=0.45, lambdas=(1e300, 1e150, 1.0)),
    "linear": R.PmfSpec(kind="linear"),
    "linear-no-floor": R.PmfSpec(kind="linear", eps=0.0),
    "exponential": R.PmfSpec(kind="exponential"),
    "exponential-0.5": R.PmfSpec(kind="exponential", rate=0.5, eps=0.0),
    "exponential-0.9": R.PmfSpec(kind="exponential", rate=0.9, eps=0.0),
    "uniform": R.PmfSpec(kind="uniform"),
}


class TestGuidedInverseCdf:
    """``_inverse_cdf`` starts at the guide and must land where one
    ``searchsorted`` over the whole CDF lands (``inverse_cdf_search``)."""

    @staticmethod
    def boundary_uniforms(rt, r):
        """0, the largest uniform below 1, every slot edge j / d and every
        entry's mass in row r, each with its float neighbours."""
        lo, hi = rt.offsets[r], rt.offsets[r + 1]
        d = hi - lo
        edges = np.concatenate([np.arange(d) / d, rt.cdf[lo:hi] - r])
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)], edges,
            np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        ])
        return u[(u >= 0.0) & (u < 1.0)]

    @pytest.mark.parametrize("pmf", sorted(GUIDE_PMFS))
    def test_matches_search_on_rows_of_degree_1_to_400(self, pmf):
        g, x = rows_of_every_degree()
        rt = R.rank_by_similarity(g, x, pmf=GUIDE_PMFS[pmf])
        rt.validate(g)
        rng = np.random.default_rng(13)
        src, u = [], []
        for r in range(g.n - 1):
            ur = np.concatenate([self.boundary_uniforms(rt, r), rng.random(16)])
            src.append(np.full(ur.size, r))
            u.append(ur)
        src, u = np.concatenate(src), np.concatenate(u)
        # a sum that rounds up to src + 1 must stay in the row
        assert np.any(u + src == src + 1)
        got = SA._inverse_cdf(rt, src, u)
        assert np.array_equal(got, inverse_cdf_search(rt, src, u))

    def test_geometric_tail_is_searched_not_stepped(self, monkeypatch):
        # at rate 0.5 and d = 400, hundreds of entries share the row's
        # last slot: a draw deep in it is searched for, not stepped to
        g, rt = star_table(400, kind="exponential", rate=0.5, eps=0.0)
        d = 400
        assert d - 1 - rt.guide[d - 1] > 300
        u = np.concatenate([np.random.default_rng(14).random(4000), 1.0 - 2.0 ** -np.arange(10, 50)])
        src = np.zeros(u.size, dtype=np.int64)
        expect = inverse_cdf_search(rt, src, u)
        entry = np.empty(g.n, dtype=np.int64)
        entry[rt.ranked_ids[:d]] = np.arange(d)
        start = rt.guide[np.minimum((u * d).astype(np.int64), d - 1)]
        steps = entry[expect] - start
        assert steps.min() >= 0
        far = int(np.sum(steps > SA.GUIDE_STEPS))
        assert far >= 30

        searched = []
        search = np.searchsorted

        def spy(a, v, *args, **kwargs):
            searched.append(np.size(v))
            return search(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", spy)
        got = SA._inverse_cdf(rt, src, u)
        monkeypatch.undo()
        assert np.array_equal(got, expect)
        assert searched == [far]


class TestPinnedDrawDigests:
    """sha256 of the draws with replacement and of the walk subgraph on
    one hub graph under each PMF kind, recorded at commit f660d84, when
    every draw searched the whole CDF."""

    DIGESTS = {
        "step": (
            "32188cd96483de786e1cd0993381dd7105a54e15b151632addf20083b9e97106",
            "6a9094679e8cfeab038f96bd7fb2ed8255131ea58897996ae4a70233811817a4",
        ),
        "linear": (
            "8575052ef79f394ed4427f0513c5b89e1bd256214a7c772f2e4561c35b659182",
            "1287fb862f9745c8ed1629d68c8061c40b49c053d9f8afaede5291289a4c895b",
        ),
        "exponential": (
            "975bad3281e0da5acc414778ec54e3603defe2fd8cfe63036d1de26f56490451",
            "04a08c0c93575afa20826dec07f1b1c10e8c3c55ea4c1040cabbf774352a0d27",
        ),
        "uniform": (
            "110eeaba7fdbddc625f2a6342b38e2cd6cc032e91a6e4d12573e8e884fc73525",
            "8224adb41440eb94e9c74b6939140f58d413d8e569694c0a29cb673d2d40e5b7",
        ),
    }
    PMFS = {
        "step": R.PmfSpec(kind="step", lambdas=(1e6, 1e3, 1.0)),
        "linear": R.PmfSpec(kind="linear"),
        "exponential": R.PmfSpec(kind="exponential", rate=0.5, eps=0.0),
        "uniform": R.PmfSpec(kind="uniform"),
    }

    def test_every_pmf_kind_is_pinned(self):
        assert sorted(self.DIGESTS) == sorted(R.PMF_KINDS)

    @pytest.mark.parametrize("kind", sorted(DIGESTS))
    def test_digest(self, kind):
        g, x = chung_lu_with_hubs()
        rt = R.rank_by_similarity(g, x, pmf=self.PMFS[kind])
        seeds = np.arange(0, g.n, 3)
        sub = SA.node_sample_khop(g, rt, seeds, [10, 5], SA.rng_for(6), replace=True)
        layers = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in sub.layers))
        walk = SA.weighted_random_walk(
            g, rt, np.concatenate([seeds, seeds[:50]]), 12, SA.rng_for(7)
        )
        h = hashlib.sha256()
        for a in (walk.parent_ids, walk.graph.offsets, walk.graph.targets, walk.seed_mask):
            h.update(np.ascontiguousarray(a).tobytes())
        assert (layers.hexdigest(), h.hexdigest()) == self.DIGESTS[kind]
