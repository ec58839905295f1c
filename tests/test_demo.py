import hashlib

import numpy as np
import pytest
from oracles import (
    backward_channel_whole as oracle_backward,
    central_difference_grads,
    forward_channel_whole as oracle_forward,
    gather_sum_bincount,
    max_relative_error,
    mean_aggregate_add_at,
    mean_aggregate_grad_add_at,
)

import ags.demo as D
import ags.graph as G
import ags.nn as NN
import ags.ranking as R
import ags.sampling as SA


def random_graph(seed, n=20, m=50):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return G.from_edges(n, src, dst, directed=False)


def full_channel(g, seeds, hops=2):
    """Exhaustive k-hop blocks: fanouts cover the max degree."""
    rt = R.rank_uniform(g)
    dmax = max(int(g.degrees().max()), 1)
    return D.sample_blocks(g, rt, seeds, [dmax] * hops, SA.rng_for(0))[0]


def edge_graph(n, edges):
    """The directed graph of hand-written (u, v) edges over n parent ids."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return G.from_edges(n, e[:, 0], e[:, 1], directed=True)


def hand_channel(n, seeds, edges, n_layers=1):
    """(input ids, blocks) of hand-written sampled edges, as sample_blocks
    builds them from its draws: one merged edge graph, expanded from the
    sorted seeds."""
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    return D.receptive_blocks(edge_graph(n, edges), seeds, n_layers)


def identity_layers(dim, n_layers=1):
    return [
        D.SageLayer(
            w_self=np.eye(dim), w_neigh=np.eye(dim), b=np.zeros(dim)
        )
        for _ in range(n_layers)
    ]


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = D.TrainConfig()
        assert cfg.fanouts == (8, 4)

    def test_bad_values(self):
        with pytest.raises(ValueError, match="hidden"):
            D.TrainConfig(hidden=0)
        with pytest.raises(ValueError, match="fanouts"):
            D.TrainConfig(fanouts=())
        with pytest.raises(ValueError, match="1..250"):
            D.TrainConfig(epochs=300)
        with pytest.raises(ValueError, match="combiner"):
            D.TrainConfig(combiner="mean")
        with pytest.raises(ValueError, match="window"):
            D.TrainConfig(window=1)

    @pytest.mark.parametrize("field", ["lr", "threshold"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_lr_and_threshold_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match="must be positive and finite"):
            D.TrainConfig(**{field: value})


class TestForwardChannel:
    def test_isolated_node_identity_weights(self):
        x = np.array([[-1.0, 2.0]])
        out = D.forward_channel(identity_layers(2), hand_channel(1, [0], []), x)
        assert np.array_equal(out, [[0.0, 2.0]])  # relu(x + aggregate of nothing)

    def test_empty_neighborhood_aggregates_zero(self):
        # node 0 samples node 1; node 1 samples nothing
        x = np.array([[1.0, 0.0], [0.0, 3.0]])
        out = D.forward_channel(identity_layers(2), hand_channel(2, [0, 1], [(0, 1)]), x)
        assert np.array_equal(out[1], [0.0, 3.0])  # own features only
        assert np.array_equal(out[0], [1.0, 3.0])  # x0 + mean({x1})

    def test_neighbor_order_invariance(self):
        g = random_graph(1)
        edges = [(0, int(v)) for v in g.neighbors(0)]
        x = np.random.default_rng(2).normal(size=(g.n, 3))
        layers = [
            D.SageLayer(
                w_self=np.random.default_rng(3).normal(size=(4, 3)),
                w_neigh=np.random.default_rng(4).normal(size=(4, 3)),
                b=np.zeros(4),
            )
        ]
        a = D.forward_channel(layers, hand_channel(g.n, [0], edges), x)
        b = D.forward_channel(layers, hand_channel(g.n, [0], edges[::-1]), x)
        assert np.array_equal(a, b)

    def test_mean_not_sum(self):
        # two identical neighbors must aggregate to one copy, not two
        x = np.array([[0.0, 0.0], [2.0, 4.0], [2.0, 4.0]])
        out = D.forward_channel(identity_layers(2), hand_channel(3, [0], [(0, 1), (0, 2)]), x)
        assert np.array_equal(out, [[2.0, 4.0]])

    def test_width_mismatch(self):
        channel = hand_channel(2, [0], [(0, 1)])
        with pytest.raises(ValueError, match="width"):
            D.forward_channel(identity_layers(3), channel, np.ones((2, 2)))

    def test_block_count_mismatch(self):
        channel = hand_channel(2, [0], [(0, 1)], n_layers=2)
        with pytest.raises(ValueError, match="2 blocks, 1 layers"):
            D.forward_channel(identity_layers(2, 1), channel, np.ones((2, 2)))


def draws_graph(g, tables, seeds, fanouts, rng, replace=False):
    """Per table, the graph of every edge khop_draws samples, in parent ids."""
    _, draws = SA.khop_draws(g, tables, seeds, fanouts, rng, replace)
    return [
        G.from_edges(
            g.n,
            np.concatenate([s for s, _ in hops]),
            np.concatenate([t for _, t in hops]),
            directed=True,
        )
        for hops in draws
    ]


def sampled_channel(seed, replace):
    """(graph, seeds, union of the sampled edges, the builder's channel)."""
    rng = np.random.default_rng(seed)
    g = random_graph(seed, n=60, m=240)
    rt = R.rank_by_similarity(g, rng.normal(size=(g.n, 3)))
    seeds = np.sort(rng.choice(g.n, size=12, replace=False))
    union = draws_graph(g, rt, seeds, [4, 3], SA.rng_for(seed), replace)[0]
    channel = D.sample_blocks(g, rt, seeds, [4, 3], SA.rng_for(seed), replace)[0]
    return g, seeds, union, channel


def random_layers(rng, dims):
    return [
        D.SageLayer(
            w_self=rng.normal(size=(dims[i + 1], dims[i])),
            w_neigh=rng.normal(size=(dims[i + 1], dims[i])),
            b=rng.normal(size=dims[i + 1]),
        )
        for i in range(len(dims) - 1)
    ]


def embed(ids, rows, n):
    """(n, w) array holding ``rows`` at ids ``ids`` and zeros elsewhere."""
    out = np.zeros((n, rows.shape[1]))
    out[ids] = rows
    return out


class TestAggregationOracle:
    """Segment-sum aggregation against an np.add.at scatter, to 1e-12.

    Each layer computes only its block's rows, so the cached inputs and
    gradients are placed back into arrays over every parent id and
    compared with the oracle's scatter over the graph of sampled edges.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_forward_and_backward_match_add_at(self, seed):
        g, seeds, union, channel = sampled_channel(seed, replace=seed % 2 == 0)
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(g.n, 5))
        layers = random_layers(rng, [5, 7, 6])
        out, cache = D.forward_channel(layers, channel, x, return_cache=True)
        in_ids = [channel[0]] + [blk.rows for blk, *_ in cache[:-1]]
        for ids, (blk, h_in, agg, _) in zip(in_ids, cache):
            want = mean_aggregate_add_at(union, embed(ids, h_in, g.n))
            assert np.allclose(agg, want[blk.rows], rtol=1e-12, atol=1e-12)

        d_seeds = rng.normal(size=out.shape)
        grads = D.backward_channel(layers, cache, d_seeds)
        # the same chain rule over every node, with the oracle scatter
        d_h = embed(seeds, d_seeds, g.n)
        for i in range(len(layers) - 1, -1, -1):
            blk, h_in, agg, z = cache[i]
            dz = np.zeros((g.n, z.shape[1]))
            dz[blk.rows] = d_h[blk.rows] * (z > 0.0)
            h_full = embed(in_ids[i], h_in, g.n)
            want = (dz.T @ h_full, dz.T @ embed(blk.rows, agg, g.n), dz.sum(axis=0))
            for a, b in zip(grads[i], want):
                assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
            d_h = dz @ layers[i].w_self + mean_aggregate_grad_add_at(
                union, dz @ layers[i].w_neigh
            )

    @pytest.mark.parametrize("width", [1, 16, 37, 64])
    def test_segment_sum_bytes_match_bincount(self, width):
        # both layouts: rows gathering their out-edges (forward) and
        # rows gathering the edges that point at them (backward)
        g = sampled_channel(1, replace=True)[2]
        h = np.random.default_rng(width).normal(size=(g.n, width))
        src = np.repeat(np.arange(g.n), g.degrees())
        fwd = D._segment_sum(h, g.targets, g.degrees())
        assert fwd.tobytes() == gather_sum_bincount(h, g.targets, src, g.n).tobytes()
        by_target = np.argsort(g.targets, kind="stable")
        bwd = D._segment_sum(h, src[by_target], np.bincount(g.targets, minlength=g.n))
        assert bwd.tobytes() == gather_sum_bincount(h, src, g.targets, g.n).tobytes()
        mean = fwd / np.maximum(g.degrees(), 1)[:, None]
        assert np.allclose(mean, mean_aggregate_add_at(g, h), rtol=1e-12, atol=1e-12)

    def test_segment_sum_star_hub(self):
        # one row gathers 2,048 entries, so the lockstep loop runs 2,048
        # steps over a single live row; signed zeros start from 0.0
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2048, 8))
        x[:, 0] = -0.0
        lens = np.zeros(2049, dtype=np.int64)
        lens[7] = 2048
        got = D._segment_sum(x, np.arange(2048), lens)
        want = gather_sum_bincount(x, np.arange(2048), np.full(2048, 7), 2049)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[:, 0]).any()

    @pytest.mark.parametrize("width", [1, 8, 64])
    def test_segment_sum_long_row_beside_short_ones(self, width):
        # node 0 sends to and hears from 299 others and node 7 from 40,
        # among rows of 0 to 4 entries, so in both layouts the lockstep
        # hands its last live rows to the bincount tail; signed zeros
        # included
        rng = np.random.default_rng(width)
        n = 400
        spokes = np.arange(1, 300)
        src = np.concatenate([np.zeros(299, dtype=np.int64), spokes,
                              np.full(40, 7), rng.integers(1, n, size=300)])
        dst = np.concatenate([spokes, np.zeros(299, dtype=np.int64),
                              np.arange(100, 140), rng.integers(1, n, size=300)])
        g = G.from_edges(n, src, dst, directed=True)
        rows = np.repeat(np.arange(g.n), g.degrees())
        lens = np.bincount(g.targets, minlength=g.n)
        for ln in (g.degrees(), lens):
            assert np.sort(ln)[-1] >= 299 and np.sort(ln)[-3] <= 10
        h = rng.normal(size=(n, width))
        h[rng.random(h.shape) < 0.2] = -0.0
        fwd = D._segment_sum(h, g.targets, g.degrees())
        assert fwd.tobytes() == gather_sum_bincount(h, g.targets, rows, g.n).tobytes()
        # backward: each row sums the entries that point at it
        by_target = np.argsort(g.targets, kind="stable")
        bwd = D._segment_sum(h, rows[by_target], lens)
        assert bwd.tobytes() == gather_sum_bincount(h, rows, g.targets, g.n).tobytes()

    def test_isolated_rows_and_empty_graph(self):
        # rows 1, 2 and 4 aggregate nothing; row 3 aggregates its self-loop
        edges = [(0, 1), (0, 2), (3, 3)]
        channel = hand_channel(5, [0, 3, 4], edges)
        x = np.random.default_rng(1).normal(size=(5, 3))
        layers = [D.SageLayer(np.eye(3), np.eye(3), np.zeros(3))]
        _, cache = D.forward_channel(layers, channel, x, return_cache=True)
        blk, h_in, agg, _ = cache[0]
        want = mean_aggregate_add_at(edge_graph(5, edges), embed(channel[0], h_in, 5))
        assert np.allclose(agg, want[blk.rows], rtol=1e-12, atol=1e-12)
        empty = hand_channel(5, [4], [])
        out = D.forward_channel(layers, empty, np.ones((5, 3)))
        assert np.array_equal(out, np.ones((1, 3)))


def hop_closure(graph, seeds, hops):
    """Sorted ids within ``hops`` out-hops of the seeds, by BFS."""
    reach = {int(u) for u in seeds}
    frontier = set(reach)
    for _ in range(hops):
        frontier = {int(v) for u in frontier for v in graph.neighbors(u)} - reach
        reach |= frontier
    return np.array(sorted(reach), dtype=np.int64)


def case_channel(case, n_layers):
    """(graph, sampled-edge graph, sorted seeds, channel) for one named
    oracle case, with its property checked. Sampled cases run the
    builder; hand-written ones expand their edges as it does."""
    if case in ("sampled_replace", "sampled_distinct", "single_seed"):
        if case == "single_seed":
            g = random_graph(3, n=30, m=80)
            rt, seeds, fanouts = R.rank_uniform(g), np.array([7]), [3, 3, 3]
            replace, stream = False, 3
        else:
            rng = np.random.default_rng(n_layers)
            g = random_graph(n_layers, n=60, m=240)
            rt = R.rank_by_similarity(g, rng.normal(size=(g.n, 3)))
            seeds = np.sort(rng.choice(g.n, size=12, replace=False))
            fanouts, replace, stream = [4, 3, 2], case == "sampled_replace", n_layers
        fanouts = fanouts[:n_layers]
        union = draws_graph(g, rt, seeds, fanouts, SA.rng_for(stream), replace)[0]
        channel = D.sample_blocks(g, rt, seeds, fanouts, SA.rng_for(stream), replace)[0]
        return g, union, seeds, channel
    if case == "seed_is_hop_target":
        # seeds 0 and 1 draw each other; 2 draws seed 0 at the second hop
        n, seeds, edges = 5, [0, 1], [(0, 1), (1, 0), (1, 2), (2, 0), (3, 4)]
        assert {0, 1} & {v for _, v in edges}
    elif case == "lonely_seed":
        # seed 3 drew no neighbours
        n, seeds, edges = 5, [0, 3], [(0, 1), (1, 2), (2, 4)]
    elif case == "self_loops":
        n, seeds, edges = 4, [0, 2], [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)]
    elif case == "no_edges":
        n, seeds, edges = 6, [1, 4, 5], []
    else:
        raise AssertionError(case)
    g = edge_graph(n, edges)
    seeds = np.array(seeds)
    return g, g, seeds, hand_channel(n, seeds, edges, n_layers)


ORACLE_CASES = (
    "sampled_replace",
    "sampled_distinct",
    "seed_is_hop_target",
    "lonely_seed",
    "self_loops",
    "single_seed",
    "no_edges",
)


class TestReceptiveFieldOracle:
    """Pruned layers against every layer computed on every node."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_seed_outputs_and_grads_match_whole_subgraph(self, case, n_layers):
        g, union, seeds, channel = case_channel(case, n_layers)
        rng = np.random.default_rng(len(case) + 10 * n_layers)
        x = rng.normal(size=(g.n, 4))
        layers = random_layers(rng, [4] + [5] * n_layers)
        out, cache = D.forward_channel(layers, channel, x, return_cache=True)
        want, whole = oracle_forward(layers, union, seeds, x)
        assert out.shape == want.shape == (seeds.size, 5)
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)

        d_seeds = rng.normal(size=out.shape)
        grads = D.backward_channel(layers, cache, d_seeds)
        expected = oracle_backward(layers, union, seeds, whole, d_seeds)
        assert len(grads) == n_layers
        for got, exp in zip(grads, expected):
            for a, b in zip(got, exp):
                assert a.shape == b.shape
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestReceptiveBlocks:
    """Each layer computes exactly the rows the layer above reads."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_rows_are_seed_hop_closures(self, case, n_layers):
        g, union, seeds, channel = case_channel(case, n_layers)
        x = np.ones((g.n, 2))
        layers = identity_layers(2, n_layers)
        _, cache = D.forward_channel(layers, channel, x, return_cache=True)
        assert cache[-1][3].shape[0] == seeds.size  # one z row per seed
        for i, (blk, h_in, agg, z) in enumerate(cache):
            rows = hop_closure(union, seeds, n_layers - 1 - i)
            assert np.array_equal(blk.rows, rows)
            assert z.shape[0] == agg.shape[0] == rows.size
            assert h_in.shape[0] == hop_closure(union, seeds, n_layers - i).size

    def test_top_layer_skips_non_seed_rows(self):
        _, seeds, _, channel = sampled_channel(0, replace=False)
        _, cache = D.forward_channel(identity_layers(2, 2), channel, np.ones((60, 2)), True)
        assert cache[-1][3].shape[0] == seeds.size < channel[0].size


def self_loop_graph():
    """Self-loops on 0, 3 and 5; node 6 isolated; seeds 0-5 adjacent."""
    src = [0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 5, 7, 8, 9]
    dst = [0, 1, 2, 3, 3, 4, 3, 5, 5, 5, 7, 8, 9, 7]
    return G.from_edges(10, src, dst, directed=False)


class TestBlocksFromDraws:
    """sample_blocks equals receptive_blocks on node_sample_khop's
    subgraph, mapped through its parent ids, array for array."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("replace", [False, True])
    @pytest.mark.parametrize("n_tables", [1, 2])
    @pytest.mark.parametrize("graph", ["self_loops", "random"])
    def test_blocks_equal_subgraph_blocks(self, graph, n_tables, replace, n_layers):
        if graph == "self_loops":
            # fanout 5 exceeds every degree, so draws with replacement repeat
            g = self_loop_graph()
            seeds, fanouts = [6, 0, 2, 3, 5, 6], [5, 5, 5]
        else:
            g = random_graph(40 + n_layers, n=50, m=120)
            seeds = np.random.default_rng(n_layers).choice(g.n, size=15, replace=False)
            fanouts = [4, 3, 2]
        x = np.random.default_rng(7).normal(size=(g.n, 3))
        tables = [R.rank_by_similarity(g, x), R.rank_by_diversity(g, x)][:n_tables]
        fanouts = fanouts[:n_layers]
        subs = SA.node_sample_khop(g, tables, seeds, fanouts, SA.rng_for(9), replace)
        channels = D.sample_blocks(g, tables, seeds, fanouts, SA.rng_for(9), replace)
        assert len(channels) == len(subs) == n_tables
        for sub, (inputs, blocks) in zip(subs, channels):
            want_inputs, want_blocks = D.receptive_blocks(sub.graph, sub.seeds_local(), n_layers)
            assert np.array_equal(inputs, sub.parent_ids[want_inputs])
            assert len(blocks) == n_layers
            for got, want in zip(blocks, want_blocks):
                assert np.array_equal(got.rows, sub.parent_ids[want.rows])
                for name in ("self_at", "take", "seg", "lens", "denom"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert np.array_equal(blocks[-1].rows, np.unique(seeds))

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_self_loop_draws_cover_the_cases(self, n_layers):
        # the equality test's draws on the self-loop graph, with
        # replacement, hold self-loops, a seed drawn by a seed, a seed
        # that draws nothing, and repeated draws of one edge
        g = self_loop_graph()
        x = np.random.default_rng(7).normal(size=(g.n, 3))
        tables = [R.rank_by_similarity(g, x), R.rank_by_diversity(g, x)]
        seeds, fanouts = [6, 0, 2, 3, 5, 6], [5, 5, 5][:n_layers]
        _, draws = SA.khop_draws(g, tables, seeds, fanouts, SA.rng_for(9), True)
        for hops in draws:
            src = np.concatenate([s for s, _ in hops])
            dst = np.concatenate([t for _, t in hops])
            assert np.any(src == dst)
            assert np.isin(dst, seeds).any()
            assert 6 not in src
            pairs = src * g.n + dst
            assert np.unique(pairs).size < pairs.size


class TestForwardDual:
    def build(self, seed, hidden=4, n_classes=3, channels=2, combiner="concat_mlp"):
        g = random_graph(seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(g.n, 3))
        model = D.new_model(3, hidden, n_classes, channels, 2, combiner, rng)
        return g, x, model, full_channel(g, [0, 3, 5])

    def test_identical_channels_block_identity_doubles(self):
        g, x, model, channel = self.build(5, hidden=3, n_classes=3)
        single = D.DemoModel(
            channels=[model.channels[0]],
            combiner="concat_mlp",
            skip=None,
            head=(np.eye(3), np.zeros(3)),
        )
        dual = D.DemoModel(
            channels=[model.channels[0], model.channels[0]],
            combiner="concat_mlp",
            skip=None,
            head=(np.hstack([np.eye(3), np.eye(3)]), np.zeros(3)),
        )
        lone = D.forward_dual(single, [channel], x)
        both = D.forward_dual(dual, [channel, channel], x)
        assert np.array_equal(both, 2.0 * lone)

    def test_tied_weights_reduce_to_single_channel(self):
        # identical channel inputs and tied towers: padding the head with a
        # zero block is float-exact; halving both blocks matches to rounding
        g, x, model, channel = self.build(6, hidden=4, n_classes=3)
        tower = model.channels[0]
        w = np.random.default_rng(7).normal(size=(3, 4))
        single = D.DemoModel([tower], "concat_mlp", None, (w, np.zeros(3)))
        padded = D.DemoModel(
            [tower, tower],
            "concat_mlp",
            None,
            (np.hstack([w, np.zeros_like(w)]), np.zeros(3)),
        )
        halved = D.DemoModel(
            [tower, tower],
            "concat_mlp",
            None,
            (np.hstack([w / 2.0, w / 2.0]), np.zeros(3)),
        )
        lone = D.forward_dual(single, [channel], x)
        h_a = D.forward_channel(tower, channel, x)
        h_b = D.forward_channel(tower, channel, x)
        assert np.array_equal(h_a, h_b)  # identical channels, bitwise
        assert np.array_equal(D.forward_dual(padded, [channel, channel], x), lone)
        np.testing.assert_allclose(
            D.forward_dual(halved, [channel, channel], x), lone, rtol=1e-12, atol=1e-12
        )

    def test_zero_second_channel_is_inert(self):
        g, x, model, channel = self.build(8)
        for layer in model.channels[1]:
            layer.w_self[:] = 0.0
            layer.w_neigh[:] = 0.0
            layer.b[:] = 0.0
        base = D.forward_dual(model, [channel, channel], x)
        # swap what the dead channel sees: nothing may change
        drawn = D.sample_blocks(g, R.rank_uniform(g), [0, 3, 5], [1, 1], SA.rng_for(1))[0]
        for other in (hand_channel(g.n, [0, 3, 5], [], 2), drawn):
            assert np.array_equal(base, D.forward_dual(model, [channel, other], x))

    def test_channel_count_mismatch(self):
        g, x, model, channel = self.build(9)
        with pytest.raises(ValueError, match="per channel"):
            D.forward_dual(model, [channel], x)

    def test_head_width_mismatch(self):
        g, x, model, channel = self.build(10, channels=1)
        bad = D.DemoModel(
            model.channels, "concat_mlp", None, (np.ones((3, 9)), np.zeros(3))
        )
        with pytest.raises(ValueError, match="head width"):
            D.forward_dual(bad, [channel], x)


def relu_margin(cache_pack, skip_cache):
    margins = []
    for layer_cache in cache_pack:
        for *_, z in layer_cache:
            margins.append(float(np.abs(z).min()) if z.size else 1.0)
    if skip_cache is not None:
        margins.append(float(np.abs(skip_cache[1]).min()))
    return min(margins)


def grad_toy(seed, channels, combiner):
    """Small dual/single model + sampled blocks with relu margins clear of kinks."""
    for attempt in range(60):
        s = seed + 1000 * attempt
        rng = np.random.default_rng(s)
        g = random_graph(s, n=9, m=16)
        x = rng.normal(size=(g.n, 3))
        y = rng.integers(0, 3, size=g.n)
        model = D.new_model(3, 4, 3, channels, 2, combiner, rng)
        rt = R.rank_uniform(g)
        seeds = [0, 2, 4]
        sampled = D.sample_blocks(g, [rt] * channels, seeds, (2, 2), SA.rng_for(s))
        logits, cache = D.forward_dual(model, sampled, x, return_cache=True)
        if relu_margin(cache[0], cache[3]) > 1e-4:
            return model, sampled, x, y[seeds]
    raise AssertionError("no kink-free toy found")


class TestGradients:
    @pytest.mark.parametrize(
        "channels,combiner",
        [(1, "concat_mlp"), (2, "concat_mlp"), (2, "skip")],
    )
    def test_matches_finite_differences(self, channels, combiner):
        model, channels, x, labels = grad_toy(11, channels, combiner)
        params = model.parameters()

        def loss_fn():
            logits = D.forward_dual(model, channels, x)
            return NN.softmax_cross_entropy(logits, labels)[0]

        logits, cache = D.forward_dual(model, channels, x, return_cache=True)
        loss, dlogits = NN.softmax_cross_entropy(logits, labels)
        analytic = D.backward_dual(model, channels, cache, dlogits)
        numeric = central_difference_grads(loss_fn, params)
        err = max(
            max_relative_error(a, n) for a, n in zip(analytic, numeric)
        )
        assert err < 1e-4


class TestMakeSplit:
    def test_sizes_and_cover(self):
        tr, va, te = D.make_split(100, np.random.default_rng(0))
        assert (tr.size, va.size, te.size) == (60, 20, 20)
        joined = np.concatenate([tr, va, te])
        assert np.array_equal(np.sort(joined), np.arange(100))
        assert np.array_equal(tr, np.sort(tr))

    def test_bad_fractions(self):
        with pytest.raises(ValueError, match="summing to 1"):
            D.make_split(10, np.random.default_rng(0), (0.5, 0.2, 0.2))


class TestEvaluate:
    def perfect_setup(self, seed=12):
        g = random_graph(seed, n=30, m=70)
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, size=g.n)
        x = np.eye(3)[y].astype(float)
        layers = [
            D.SageLayer(np.eye(3), np.zeros((3, 3)), np.zeros(3))
            for _ in range(2)
        ]
        model = D.DemoModel([layers], "concat_mlp", None, (10.0 * np.eye(3), np.zeros(3)))
        rt = R.rank_uniform(g)
        return g, x, y, model, rt

    def test_perfect_model_scores_one(self):
        g, x, y, model, rt = self.perfect_setup()
        f1 = D.evaluate(model, g, x, y, rt, np.arange(g.n), fanouts=(2, 2),
                        rng=SA.rng_for(1))
        assert f1 == 1.0

    def test_constant_model_balanced_half(self):
        g = random_graph(13, n=30, m=60)
        y = np.array([0, 1] * 15)
        x = np.random.default_rng(13).normal(size=(g.n, 3))
        layers = [D.SageLayer(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3))
                  for _ in range(2)]
        model = D.DemoModel([layers], "concat_mlp", None,
                            (np.zeros((2, 3)), np.array([5.0, 0.0])))
        rt = R.rank_uniform(g)
        f1 = D.evaluate(model, g, x, y, rt, np.arange(g.n), fanouts=(2, 2),
                        rng=SA.rng_for(2))
        assert f1 == 0.5

    def test_empty_split_errors(self):
        g, x, y, model, rt = self.perfect_setup()
        with pytest.raises(ValueError, match="empty node set"):
            D.evaluate(model, g, x, y, rt, [], fanouts=(2, 2), rng=SA.rng_for(3))

    def test_repeatable_with_same_rng_seed(self):
        g, x, y, model, rt = self.perfect_setup(14)
        a = D.evaluate(model, g, x, y, rt, np.arange(g.n), fanouts=(2, 2),
                       rng=SA.rng_for(4))
        b = D.evaluate(model, g, x, y, rt, np.arange(g.n), fanouts=(2, 2),
                       rng=SA.rng_for(4))
        assert a == b


class TestConvergenceRule:
    def test_detector(self):
        assert D._converged([0.5] * 5, 5, 1e-4)
        assert not D._converged([0.5] * 4, 5, 1e-4)
        assert not D._converged([0.5, 0.6, 0.5, 0.6, 0.5], 5, 1e-4)

    def test_flat_training_converges_at_window(self):
        # negligible lr + exhaustive fanouts: every epoch repeats exactly
        g = random_graph(15, n=40, m=90)
        rng = np.random.default_rng(15)
        y = rng.integers(0, 3, size=g.n)
        x = np.eye(3)[y].astype(float)
        rt = R.rank_uniform(g)
        dmax = int(g.degrees().max())
        cfg = D.TrainConfig(hidden=4, fanouts=(dmax, dmax), batch_size=1000,
                            epochs=30, lr=1e-30, seed=16)
        model, hist = D.train(g, x, y, rt, cfg)
        assert hist["stopped"] == "converged"
        assert len(hist["loss"]) == cfg.window


class TestTrain:
    def small_setup(self, seed, n=60):
        g = random_graph(seed, n=n, m=3 * n)
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, size=g.n)
        x = np.eye(3)[y] + 0.05 * rng.normal(size=(g.n, 3))
        return g, x, y, R.rank_uniform(g)

    def test_deterministic_history(self):
        g, x, y, rt = self.small_setup(17)
        cfg = D.TrainConfig(hidden=6, fanouts=(3, 2), batch_size=32,
                            epochs=5, seed=18)
        m1, h1 = D.train(g, x, y, rt, cfg)
        m2, h2 = D.train(g, x, y, rt, cfg)
        assert h1["loss"] == h2["loss"]
        assert h1["val_f1"] == h2["val_f1"]
        for p, q in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(p, q)

    def test_best_epoch_is_argmax_val(self):
        g, x, y, rt = self.small_setup(19)
        cfg = D.TrainConfig(hidden=6, fanouts=(3, 2), batch_size=32,
                            epochs=8, seed=20)
        _, hist = D.train(g, x, y, rt, cfg)
        assert hist["best_epoch"] == int(np.argmax(hist["val_f1"]))

    def test_separable_toy_fits(self):
        g = random_graph(21, n=90, m=200)
        rng = np.random.default_rng(21)
        y = rng.integers(0, 3, size=g.n)
        x = np.eye(3)[y].astype(float)
        rt = R.rank_uniform(g)
        dmax = int(g.degrees().max())
        cfg = D.TrainConfig(hidden=16, fanouts=(dmax, dmax), batch_size=64,
                            epochs=50, lr=1e-2, seed=22)
        split = D.make_split(g.n, SA.rng_for(23))
        model, hist = D.train(g, x, y, rt, cfg, split=split)
        f1 = D.evaluate(model, g, x, y, rt, split[0], fanouts=cfg.fanouts,
                        rng=SA.rng_for(24))
        assert f1 > 0.95

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_aborts_with_checkpoint(self):
        # one huge-lr step inflates every parameter to ~1e100; the next
        # three-layer forward overflows the logits into inf/nan
        g, x, y, rt = self.small_setup(25)
        cfg = D.TrainConfig(hidden=4, fanouts=(2, 2, 2), batch_size=16,
                            epochs=5, lr=1e100, seed=26)
        model, hist = D.train(g, x, y, rt, cfg)
        assert hist["stopped"] == "non_finite"
        for p in model.parameters():
            assert np.all(np.isfinite(p))

    def test_dual_channel_runs(self):
        g, x, y, _ = self.small_setup(27)
        sim = R.rank_by_similarity(g, x)
        div = R.rank_by_diversity(g, x)
        cfg = D.TrainConfig(hidden=6, fanouts=(3, 2), batch_size=32,
                            epochs=4, seed=28, combiner="skip")
        model, hist = D.train(g, x, y, [sim, div], cfg)
        assert len(model.channels) == 2
        assert model.skip is not None
        assert len(hist["loss"]) == 4

    def test_shape_validation(self):
        g, x, y, rt = self.small_setup(29)
        with pytest.raises(ValueError, match="match the graph"):
            D.train(g, x[:-1], y, rt, D.TrainConfig(epochs=1))

    @pytest.mark.parametrize(
        "replace,digest",
        [
            (False, "b1b6e7c873bd4fde9027820e294d95c5b084deafb0a354297ff6b328555ff8eb"),
            (True, "05092116ee66189e9cd6efb0c8e6f8811f1a638c5efa84dae57c2c3683dd3cc8"),
        ],
    )
    def test_pinned_two_channel_run(self, replace, digest):
        # sha256 of the trained parameters and the loss history of a
        # small two-channel run: any change to training's bits fails here
        g = random_graph(31, n=60, m=180)
        rng = np.random.default_rng(31)
        y = rng.integers(0, 3, size=g.n)
        x = np.eye(3)[y] + 0.3 * rng.normal(size=(g.n, 3))
        tables = [R.rank_by_similarity(g, x), R.rank_by_diversity(g, x)]
        cfg = D.TrainConfig(hidden=6, fanouts=(4, 3), batch_size=16, epochs=4, lr=1e-2,
                            seed=32, combiner="skip", replace=replace)
        model, hist = D.train(g, x, y, tables, cfg)
        h = hashlib.sha256()
        for p in model.parameters():
            h.update(p.tobytes())
        h.update(np.asarray(hist["loss"]).tobytes())
        assert h.hexdigest() == digest
