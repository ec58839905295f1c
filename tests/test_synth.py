import numpy as np
import pytest

import ags.graph as G
import ags.metrics as M
import ags.ranking as R
import ags.similarity as S
import ags.synth as SY
from oracles import lemma_gain_masses


def labels(n, c, seed):
    return np.random.default_rng(seed).integers(0, c, size=n)


def onehot_noise(y, c, seed, noise=0.1):
    rng = np.random.default_rng(seed)
    return np.eye(c)[y] + noise * rng.normal(size=(len(y), c))


class TestSynthSpec:
    def test_scalar_normalized(self):
        spec = SY.SynthSpec(0.3, 10.0)
        assert spec.bounds() == (0.3, 0.3)

    def test_range_normalized(self):
        spec = SY.SynthSpec([0.1, 0.4], 8.0)
        assert spec.bounds() == (0.1, 0.4)

    def test_bad_range_order(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            SY.SynthSpec((0.5, 0.2), 8.0)

    def test_out_of_unit_interval(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            SY.SynthSpec(1.5, 8.0)

    def test_degree_floor(self):
        with pytest.raises(ValueError, match="at least 2"):
            SY.SynthSpec(0.5, 1.5)

    def test_wrong_range_arity(self):
        with pytest.raises(ValueError, match="lo, hi"):
            SY.SynthSpec((0.1, 0.2, 0.3), 8.0)


class TestStochasticRound:
    def test_integer_is_exact(self):
        rng = np.random.default_rng(0)
        assert all(SY.stochastic_round(3.0, rng) == 3 for _ in range(50))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SY.stochastic_round(-0.5, np.random.default_rng(0))

    def test_unbiased(self):
        rng = np.random.default_rng(1)
        draws = [SY.stochastic_round(2.3, rng) for _ in range(20000)]
        assert set(draws) <= {2, 3}
        assert abs(np.mean(draws) - 2.3) < 0.01


class TestGenerateSynthetic:
    def test_target_one_all_same_label(self):
        y = labels(300, 4, 0)
        g = SY.generate_synthetic(None, y, SY.SynthSpec(1.0, 8.0, seed=1))
        assert M.edge_homophily(g, y) == 1.0
        assert M.node_homophily(g, y) == 1.0

    def test_target_zero_no_same_label(self):
        y = labels(300, 4, 0)
        g = SY.generate_synthetic(None, y, SY.SynthSpec(0.0, 8.0, seed=1))
        assert M.edge_homophily(g, y) == 0.0

    def test_achieved_homophily_near_target(self):
        y = labels(2000, 7, 2)
        g = SY.generate_synthetic(None, y, SY.SynthSpec(0.25, 42.0, seed=3))
        assert abs(M.node_homophily(g, y) - 0.25) < 0.02

    def test_mean_degree_near_spec(self):
        y = labels(1500, 5, 3)
        g = SY.generate_synthetic(None, y, SY.SynthSpec(0.4, 20.0, seed=4))
        assert abs(g.m / g.n - 20.0) < 1.0  # m counts both directions

    def test_simple_undirected(self):
        y = labels(200, 3, 4)
        g = SY.generate_synthetic(None, y, SY.SynthSpec(0.5, 10.0, seed=5))
        assert not g.directed
        pairs = g.edge_array()
        assert np.all(pairs[:, 0] != pairs[:, 1])  # no self loops
        # no duplicate directed entries
        key = pairs[:, 0] * g.n + pairs[:, 1]
        assert np.unique(key).size == key.size

    def test_singleton_class_flagged(self):
        y = np.array([0, 0, 0, 0, 1])  # class 1 cannot host same-label edges
        with pytest.warns(SY.SynthWarning, match="skipped_same"):
            g = SY.generate_synthetic(None, y, SY.SynthSpec(1.0, 4.0, seed=6))
        # the singleton contributes no edges of its own
        assert g.degree(4) == 0

    def test_single_class_cross_flagged(self):
        y = np.zeros(30, dtype=int)
        with pytest.warns(SY.SynthWarning, match="skipped_cross"):
            SY.generate_synthetic(None, y, SY.SynthSpec(0.0, 6.0, seed=7))

    def test_deterministic_by_seed(self):
        y = labels(150, 3, 8)
        a = SY.generate_synthetic(None, y, SY.SynthSpec(0.3, 8.0, seed=9))
        b = SY.generate_synthetic(None, y, SY.SynthSpec(0.3, 8.0, seed=9))
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.targets, b.targets)

    def test_feature_row_mismatch(self):
        y = labels(10, 2, 9)
        with pytest.raises(ValueError, match="node count"):
            SY.generate_synthetic(np.ones((9, 3)), y, SY.SynthSpec(0.5, 4.0))

    def test_rng_overrides_seed(self):
        y = labels(120, 3, 10)
        spec = SY.SynthSpec(0.3, 6.0, seed=0)
        a = SY.generate_synthetic(None, y, spec, rng=np.random.default_rng(1))
        b = SY.generate_synthetic(None, y, spec, rng=np.random.default_rng(2))
        assert not np.array_equal(a.targets, b.targets)


class TestGenerateMixed:
    def test_point_range_matches_scalar(self):
        y = labels(400, 4, 11)
        a = SY.generate_mixed(None, y, (0.3, 0.3), 10.0, seed=12)
        b = SY.generate_synthetic(None, y, SY.SynthSpec(0.3, 10.0, seed=12))
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.targets, b.targets)

    def test_mean_near_midpoint(self):
        y = labels(2000, 7, 13)
        g = SY.generate_mixed(None, y, (0.05, 0.50), 42.0, seed=14)
        loc = M.local_homophily_values(g, y)
        loc = loc[~np.isnan(loc)]
        assert 0.22 <= loc.mean() <= 0.33

    def test_targets_drive_local_values(self):
        # reconstruct each node's drawn target from its stream and check the
        # achieved local fractions track it; symmetrization halves the slope
        # (partner-side edges arrive at the population mean), so correlation
        # is the honest statistic
        y = labels(2000, 7, 15)
        d = 30.0
        seed = 16
        g = SY.generate_mixed(None, y, (0.0, 1.0), d, seed=seed)
        targets = np.array(
            [SY.rng_for(seed, SY._NODE_STREAM, u).random() for u in range(g.n)]
        )
        loc = M.local_homophily_values(g, y)
        ok = ~np.isnan(loc)
        r = M.pearson(targets[ok], loc[ok])
        assert r > 0.7
        assert abs(loc[ok].mean() - 0.5) < 0.02


class TestVerifyLemmas:
    def test_onehot_features_pass_everywhere(self):
        y = labels(300, 4, 20)
        x = np.eye(4)[y].astype(float)
        g = SY.generate_synthetic(x, y, SY.SynthSpec(0.3, 10.0, seed=21))
        rep = SY.verify_lemmas(g, x, y)
        assert bool(rep.assumption1.all())
        assert bool(rep.assumption2.all())
        assert np.all(rep.p_similar >= rep.p_uniform - 1e-12)
        assert np.all(rep.p_diverse <= rep.p_uniform + 1e-12)
        assert rep.lemma1_violations == 0
        assert rep.lemma2_violations == 0

    def test_label_free_features_track_uniform(self):
        rng = np.random.default_rng(22)
        y = labels(1000, 5, 22)
        x = rng.normal(size=(1000, 16))
        g = SY.generate_synthetic(x, y, SY.SynthSpec(0.25, 42.0, seed=23))
        rep = SY.verify_lemmas(g, x, y)
        assert np.abs(rep.p_similar - rep.p_uniform).mean() < 0.02

    def test_correlated_features_order_the_means(self):
        y = labels(800, 7, 24)
        x = onehot_noise(y, 7, 24)
        g = SY.generate_synthetic(x, y, SY.SynthSpec(0.25, 42.0, seed=25))
        rep = SY.verify_lemmas(g, x, y)
        assert rep.mean_similar > rep.mean_uniform > rep.mean_diverse
        assert rep.lemma1_violations == 0
        assert rep.lemma2_violations == 0

    def test_probabilities_in_unit_interval(self):
        y = labels(200, 3, 26)
        x = onehot_noise(y, 3, 26)
        g = SY.generate_synthetic(x, y, SY.SynthSpec(0.4, 8.0, seed=27))
        rep = SY.verify_lemmas(g, x, y)
        for p in (rep.p_uniform, rep.p_similar, rep.p_diverse):
            assert np.all((0.0 <= p) & (p <= 1.0))

    def test_isolated_nodes_excluded(self):
        import ags.graph as G

        g = G.from_edges(4, [0], [1], directed=False)
        x = np.eye(4, 3)
        y = np.array([0, 0, 1, 1])
        rep = SY.verify_lemmas(g, x, y)
        assert rep.excluded == 2
        assert any(f.startswith("isolated=2") for f in rep.flags)

    def test_zero_similarity_mass_excluded(self):
        import ags.graph as G

        # degree-1 egos under the distance kernel: the single neighbor sits
        # at the row maximum, so its shifted similarity is exactly zero
        g = G.from_edges(2, [0], [1], directed=False)
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        y = np.array([0, 0])
        rep = SY.verify_lemmas(g, x, y, sim="neg_euclidean")
        assert rep.node_ids.size == 0
        assert rep.excluded == 2
        assert any("zero_similarity_mass=2" in f for f in rep.flags)

    def test_zero_gain_mass_excluded(self):
        import ags.graph as G

        # identical features: cosine mass is positive but every facility
        # gain against the ego is zero
        g = G.from_edges(3, [0, 1, 2], [1, 2, 0], directed=False)
        x = np.ones((3, 2))
        y = np.array([0, 1, 0])
        rep = SY.verify_lemmas(g, x, y)
        assert rep.node_ids.size == 0
        assert any("zero_gain_mass=3" in f for f in rep.flags)

    def test_bad_kind_errors(self):
        import ags.graph as G

        g = G.from_edges(2, [0], [1], directed=False)
        x = np.ones((2, 2))
        y = np.array([0, 1])
        with pytest.raises(ValueError, match="similarity kind"):
            SY.verify_lemmas(g, x, y, sim="nope")
        with pytest.raises(ValueError, match="submodular kind"):
            SY.verify_lemmas(g, x, y, fn="nope")

    def test_shape_mismatch(self):
        import ags.graph as G

        g = G.from_edges(3, [0], [1], directed=False)
        with pytest.raises(ValueError, match="match the graph"):
            SY.verify_lemmas(g, np.ones((2, 2)), np.array([0, 1, 0]))

    def test_summary_keys(self):
        y = labels(100, 3, 28)
        x = onehot_noise(y, 3, 28)
        g = SY.generate_synthetic(x, y, SY.SynthSpec(0.3, 6.0, seed=29))
        s = SY.verify_lemmas(g, x, y).summary()
        assert {
            "nodes",
            "excluded",
            "mean_uniform",
            "mean_similar",
            "mean_diverse",
            "assumption1_pass",
            "assumption2_pass",
            "lemma1_violations",
            "lemma2_violations",
            "flags",
        } <= set(s)

    def test_other_submodular_kinds_run(self):
        y = labels(60, 3, 30)
        x = np.abs(onehot_noise(y, 3, 30))  # coverage/sqrt need nonneg
        g = SY.generate_synthetic(x, y, SY.SynthSpec(0.4, 6.0, seed=31))
        for fn in ("max_coverage", "feature_based", "graph_cut"):
            rep = SY.verify_lemmas(g, x, y, fn=fn)
            assert np.all((0.0 <= rep.p_diverse) & (rep.p_diverse <= 1.0))


def hub_graph_with_loops(n=90, seed=34):
    """Random graph plus self-loops on nodes 1, 2, 3 and a 60-neighbour hub 0."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=3 * n)
    dst = rng.integers(0, n, size=3 * n)
    hub = rng.choice(np.arange(1, n), size=60, replace=False)
    src = np.concatenate([src, np.zeros(60, dtype=np.int64), [1, 2, 3]])
    dst = np.concatenate([dst, hub, [1, 2, 3]])
    return G.from_edges(n, src, dst, directed=False)


class TestLemmaGainsOracle:
    @pytest.mark.parametrize("sim", ["cosine", "neg_euclidean", "learned"])
    @pytest.mark.parametrize("fn", R.SUBMODULAR_KINDS)
    def test_gain_masses_match_free_functions(self, fn, sim):
        g = hub_graph_with_loops()
        assert g.degree(0) >= 60 and all(u in g.neighbors(u) for u in (1, 2, 3))
        y = labels(g.n, 3, 35)
        x = np.abs(onehot_noise(y, 3, 35, noise=0.3))
        model = None
        if sim == "learned":
            model = S.new_siamese(3, 8, 8, np.random.default_rng(36))
        rep = SY.verify_lemmas(g, x, y, sim=sim, fn=fn, model=model)
        assert rep.node_ids.size > g.n // 2 and 0 in rep.node_ids
        same, total = lemma_gain_masses(g, x, y, rep.node_ids, sim, fn, model)
        assert rep.gain_same.tobytes() == same.tobytes()
        assert rep.gain_total.tobytes() == total.tobytes()

    @pytest.mark.parametrize("fn", ["max_coverage", "feature_based"])
    def test_negative_features_rejected(self, fn):
        g = G.from_edges(3, [0, 1], [1, 2], directed=False)
        x = np.array([[1.0, 0.5], [0.2, -0.1], [0.3, 0.3]])
        y = np.array([0, 1, 0])
        with pytest.raises(ValueError, match=f"{fn} requires nonnegative"):
            SY.verify_lemmas(g, x, y, fn=fn)


class TestRankedSelectionShiftsHomophily:
    def test_similar_raises_diverse_lowers(self):
        # keep the top quarter of each ego's ranked list and compare the
        # same-label fraction of what survives against the original graph
        y = labels(600, 5, 32)
        x = onehot_noise(y, 5, 32)
        g = SY.generate_synthetic(x, y, SY.SynthSpec(0.25, 16.0, seed=33))
        sim_t = R.rank_by_similarity(g, x)
        div_t = R.rank_by_diversity(g, x)

        def kept(table):
            fr = []
            for u in range(g.n):
                ids, _ = table.row(u)
                k = int(np.floor(0.25 * len(ids)))
                if k:
                    fr.append(float(np.mean(y[ids[:k]] == y[u])))
            return float(np.mean(fr))

        h_orig = M.node_homophily(g, y)
        assert kept(sim_t) > h_orig + 0.05
        assert kept(div_t) < h_orig - 0.05
