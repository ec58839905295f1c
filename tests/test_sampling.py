import numpy as np
import pytest
from oracles import (
    build_subgraph_dict,
    edge_weights_dict,
    kruskal_forests,
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
        # isolated seeds draw nothing; every other walk owns `steps` uniforms
        rng = np.random.default_rng(9)
        src, dst = rng.integers(0, 30, size=(2, 40))
        g = G.from_edges(32, src, dst, directed=False)  # 30 and 31 isolated
        rt = R.rank_by_similarity(g, rng.normal(size=(g.n, 3)))
        seeds = np.concatenate([rng.integers(0, g.n, size=25), [31, 4, 30, 4]])
        for steps in (0, 1, 5):
            sub = SA.weighted_random_walk(g, rt, seeds, steps, SA.rng_for(steps))
            edges = walk_edges_loop(rt, seeds, steps, SA.rng_for(steps))
            ids, local, _, _ = build_subgraph_dict(g, seeds, edges)
            assert np.array_equal(sub.parent_ids, ids)
            assert np.array_equal(sub.graph.offsets, local.offsets)
            assert np.array_equal(sub.graph.targets, local.targets)

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
