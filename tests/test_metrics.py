"""Homophily metrics against an independent brute-force oracle.

The oracle below recomputes every metric with plain Python loops over an
adjacency-set representation, sharing no code with the library paths.
"""

import json
import math
import warnings

import numpy as np
import oracles as O
import pytest

from ags import graph as G
from ags import metrics as M


# ---------------------------------------------------------------- oracle

def adj_sets(g):
    return [set(map(int, g.neighbors(u))) for u in range(g.n)]


def oracle_local(adj, y, u):
    nbrs = adj[u]
    return sum(1 for v in nbrs if y[v] == y[u]) / len(nbrs)


def oracle_node_homophily(adj, y):
    vals = [oracle_local(adj, y, u) for u in range(len(adj)) if adj[u]]
    return sum(vals) / len(vals)


def oracle_edge_homophily(adj, y):
    same = total = 0
    for u in range(len(adj)):
        for v in adj[u]:
            if u <= v:
                total += 1
                same += y[u] == y[v]
    return same / total


def oracle_adjusted(adj, y):
    h_e = oracle_edge_homophily(adj, y)
    c = max(y) + 1
    total_deg = sum(len(adj[u]) for u in range(len(adj)))
    d_k = [0.0] * c
    for u in range(len(adj)):
        d_k[y[u]] += len(adj[u])
    chance = sum(d * d for d in d_k) / total_deg**2
    if 1.0 - chance < 1e-15:
        return 1.0
    return (h_e - chance) / (1.0 - chance)


def oracle_class_insensitive(adj, y):
    c = max(y) + 1
    n = len(adj)
    acc = 0.0
    for k in range(c):
        members = [u for u in range(n) if y[u] == k]
        same = incident = 0
        for u in members:
            for v in adj[u]:
                incident += 1
                same += y[v] == k
        h_k = same / incident if incident else 0.0
        acc += max(0.0, h_k - len(members) / n)
    return acc / (c - 1)


def oracle_entropy(adj, y):
    c = max(y) + 1
    if c == 1:
        return 0.0
    acc = 0.0
    for u in range(len(adj)):
        if not adj[u]:
            continue
        counts = {}
        for v in adj[u]:
            counts[y[v]] = counts.get(y[v], 0) + 1
        d = len(adj[u])
        ent = -sum((k / d) * math.log(k / d) for k in counts.values())
        acc += ent / math.log(c)
    return acc / len(adj)


# 0.95 chi-square quantiles for the dof values the fuzzer can produce.
ORACLE_CHI2 = {1: 3.841458820694124, 2: 5.991464547107979,
               3: 7.814727903251179, 4: 9.487729036781154,
               5: 11.070497693516351, 6: 12.591587243743977}


def oracle_uniformity(adj, y):
    c = max(y) + 1
    crit = ORACLE_CHI2[c - 1]
    passes = 0
    for u in range(len(adj)):
        d = len(adj[u])
        if d < c:
            continue
        counts = [0] * c
        for v in adj[u]:
            counts[y[v]] += 1
        stat = sum((o - d / c) ** 2 / (d / c) for o in counts)
        if stat <= crit:
            passes += 1
    return passes / len(adj)


def oracle_assortativity(adj, y=None):
    xs, ts = [], []
    for u in range(len(adj)):
        for v in adj[u]:
            xs.append(len(adj[u]))
            ts.append(len(adj[v]))
    mx = sum(xs) / len(xs)
    mt = sum(ts) / len(ts)
    vx = sum((a - mx) ** 2 for a in xs) / len(xs)
    vt = sum((a - mt) ** 2 for a in ts) / len(ts)
    if vx < 1e-15 or vt < 1e-15:
        return None
    cov = sum((a - mx) * (b - mt) for a, b in zip(xs, ts)) / len(xs)
    return cov / math.sqrt(vx * vt)


def random_labeled_graph(rng, n_max=50, c_max=5):
    n = int(rng.integers(2, n_max + 1))
    c = int(rng.integers(2, min(c_max, n) + 1))
    y = rng.integers(0, c, size=n)
    y[: c] = np.arange(c)  # every class occupied
    p = rng.uniform(0.05, 0.4)
    mask = np.triu(rng.random((n, n)) < p, k=1)
    src, dst = np.nonzero(mask)
    if src.size == 0:
        src, dst = np.array([0]), np.array([1])
    g = G.from_edges(n, src, dst, directed=False)
    return g, np.asarray(y, dtype=np.int64)


def check_graph_against_oracle(g, y):
    adj = adj_sets(g)
    yl = [int(v) for v in y]
    assert M.node_homophily(g, y) == pytest.approx(
        oracle_node_homophily(adj, yl), abs=1e-12)
    assert M.edge_homophily(g, y) == pytest.approx(
        oracle_edge_homophily(adj, yl), abs=1e-12)
    h_a = M.adjusted_homophily(g, y)
    assert h_a == pytest.approx(oracle_adjusted(adj, yl), abs=1e-12)
    assert -1 - 1e-9 <= h_a <= 1 + 1e-9
    assert M.class_insensitive_homophily(g, y) == pytest.approx(
        oracle_class_insensitive(adj, yl), abs=1e-12)
    assert M.entropy_score(g, y) == pytest.approx(
        oracle_entropy(adj, yl), abs=1e-12)
    h_u, _ = M.uniformity_score(g, y)
    assert h_u == pytest.approx(oracle_uniformity(adj, yl), abs=1e-12)
    a = M.degree_assortativity(g)
    oa = oracle_assortativity(adj)
    if oa is None:
        assert a is None
    else:
        assert a == pytest.approx(oa, abs=1e-12)


class TestOracleEquivalence:
    def test_fuzzed_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            g, y = random_labeled_graph(rng)
            check_graph_against_oracle(g, y)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        g, y = random_labeled_graph(rng)
        perm = rng.permutation(g.n)
        edges = g.edge_array()
        g2 = G.from_edges(g.n, perm[edges[:, 0]], perm[edges[:, 1]])
        y2 = np.empty_like(y)
        y2[perm] = y
        assert M.node_homophily(g2, y2) == pytest.approx(
            M.node_homophily(g, y), abs=1e-12)
        assert M.edge_homophily(g2, y2) == pytest.approx(
            M.edge_homophily(g, y), abs=1e-12)
        assert M.adjusted_homophily(g2, y2) == pytest.approx(
            M.adjusted_homophily(g, y), abs=1e-12)
        assert M.entropy_score(g2, y2) == pytest.approx(
            M.entropy_score(g, y), abs=1e-12)


def labeled_path(labels):
    n = len(labels)
    g = G.from_edges(n, range(n - 1), range(1, n), directed=False)
    return g, np.asarray(labels, dtype=np.int64)


class TestHandAnchors:
    def test_triangle(self):
        g = G.from_edges(3, [0, 1, 2], [1, 2, 0], directed=False)
        y = np.array([0, 0, 1])
        assert M.local_homophily_values(g, y)[0] == pytest.approx(0.5)
        assert M.node_homophily(g, y) == pytest.approx(1 / 3)
        assert M.edge_homophily(g, y) == pytest.approx(1 / 3)

    def test_path_aabb(self):
        g, y = labeled_path([0, 0, 1, 1])
        assert M.edge_homophily(g, y) == pytest.approx(2 / 3)
        assert M.adjusted_homophily(g, y) == pytest.approx(1 / 3)

    def test_adjusted_below_nominal_floor(self):
        # Two cases where the adjusted value drops below -1/3: the
        # commonly quoted floor is not a universal bound.
        g = G.from_edges(3, [0, 1, 2], [1, 2, 0], directed=False)
        y = np.array([0, 0, 1])
        assert M.adjusted_homophily(g, y) == pytest.approx(-0.5, abs=1e-12)
        rep = M.homophily_report(g, y)
        assert "adjusted_below_nominal_range" in rep.flags

        # Complete bipartite K_{2,2} with the parts as classes attains -1,
        # the true minimum.
        g2 = G.from_edges(
            4, [0, 0, 1, 1], [2, 3, 2, 3], directed=False
        )
        y2 = np.array([0, 0, 1, 1])
        assert M.adjusted_homophily(g2, y2) == pytest.approx(-1.0, abs=1e-12)

    def test_local_extremes(self):
        g, y = labeled_path([0, 0, 0])
        assert M.local_homophily_values(g, y)[1] == 1.0
        g2, y2 = labeled_path([0, 1, 0])
        assert M.local_homophily_values(g2, y2)[1] == 0.0

    def test_isolated_node_local_undefined(self):
        g = G.from_edges(3, [0], [1])
        y = np.array([0, 0, 1])
        assert np.isnan(M.local_homophily_values(g, y)[2])
        # excluded from the mean
        assert M.node_homophily(g, y) == 1.0

    def test_single_class_maxima(self):
        g = G.from_edges(4, [0, 1, 2], [1, 2, 3], directed=False)
        y = np.zeros(4, dtype=np.int64)
        assert M.node_homophily(g, y) == 1.0
        assert M.edge_homophily(g, y) == 1.0
        assert M.adjusted_homophily(g, y) == 1.0

    def test_bipartite_zero(self):
        g = G.from_edges(4, [0, 0, 1, 1], [2, 3, 2, 3], directed=False)
        y = np.array([0, 0, 1, 1])
        assert M.edge_homophily(g, y) == 0.0

    def test_class_insensitive_balanced_homophilic(self):
        # Two balanced classes, all edges homophilic.
        g = G.from_edges(4, [0, 2], [1, 3], directed=False)
        y = np.array([0, 0, 1, 1])
        # sum_k max(0, 1 - 1/2) = 1.0 with c-1 = 1
        assert M.class_insensitive_homophily(g, y) == pytest.approx(1.0)

    def test_class_insensitive_no_homophilic_edges(self):
        g = G.from_edges(2, [0], [1], directed=False)
        y = np.array([0, 1])
        assert M.class_insensitive_homophily(g, y) == 0.0

    def test_class_insensitive_random_labels_near_zero(self):
        rng = np.random.default_rng(11)
        n = 600
        src = rng.integers(0, n, size=4000)
        dst = rng.integers(0, n, size=4000)
        keep = src != dst
        g = G.from_edges(n, src[keep], dst[keep], directed=False)
        y = rng.integers(0, 4, size=n)
        assert M.class_insensitive_homophily(g, y) < 0.05

    def test_entropy_extremes(self):
        # star center with all-same-label leaves: term 0
        g = G.from_edges(3, [0, 0], [1, 2], directed=False)
        y0 = np.array([1, 0, 0])
        # leaves see only label 1; center sees only label 0
        assert M.entropy_score(g, y0) == 0.0
        # star center, half A half B leaves, c=2: center term = 1
        g2 = G.from_edges(5, [0, 0, 0, 0], [1, 2, 3, 4], directed=False)
        y2 = np.array([0, 0, 0, 1, 1])
        # leaves each see a single label (term 0); center sees 2/2 (term 1)
        assert M.entropy_score(g2, y2) == pytest.approx(1 / 5)

    def test_uniformity_extremes(self):
        # perfectly uniform neighbor labels pass with statistic 0
        g = G.from_edges(3, [0, 0], [1, 2], directed=False)
        y = np.array([0, 0, 1])
        h_u, _ = M.uniformity_score(g, y)
        assert h_u == pytest.approx(1 / 3)  # only the center has d >= c
        # all mass on one label, d=100, c=2: statistic 100 > 3.841 fails
        g2 = G.from_edges(
            101, [0] * 100, range(1, 101), directed=False)
        y2 = np.zeros(101, dtype=np.int64)
        y2[0] = 1
        h_u2, auto = M.uniformity_score(g2, y2)
        assert h_u2 == 0.0
        assert auto == 100  # leaves have degree 1 < 2

    def test_assortativity_star(self):
        g = G.from_edges(6, [0] * 5, range(1, 6), directed=False)
        assert M.degree_assortativity(g) == pytest.approx(-1.0)

    def test_assortativity_regular_undefined(self):
        g = G.from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], directed=False)
        assert M.degree_assortativity(g) is None

    def test_chi2_wilson_hilferty_matches_table_scale(self):
        # WH at dof 30 should land close to the exact value.
        a = 2.0 / (9.0 * 30)
        wh = 30 * (1.0 - a + M._Z_95 * math.sqrt(a)) ** 3
        assert wh == pytest.approx(M.chi2_critical_95(30), rel=2e-3)
        assert M.chi2_critical_95(40) > M.chi2_critical_95(31)


class TestFeatureLabelCorrelation:
    def test_one_hot_features_perfect(self):
        g = G.from_edges(4, [0, 1, 2], [1, 2, 3], directed=False)
        y = np.array([0, 0, 1, 1])
        X = np.eye(2)[y]
        r = M.feature_label_correlation(g, X, y)
        assert r == pytest.approx(1.0)

    def test_constant_similarity_errors(self):
        g = G.from_edges(3, [0, 1], [1, 2], directed=False)
        y = np.array([0, 1, 0])
        X = np.ones((3, 2))
        with pytest.raises(ValueError, match="variance"):
            M.feature_label_correlation(g, X, y)

    def test_single_pair_flagged_in_report(self):
        g = G.from_edges(3, [0], [1], directed=False)
        y = np.array([0, 1, 0])
        rep = M.homophily_report(g, y, np.eye(3))
        assert rep.feature_label_r is None
        assert "feature_label_r_unavailable:need at least 2 pairs" in rep.flags


class TestReport:
    def test_triangle_report(self):
        g = G.from_edges(3, [0, 1, 2], [1, 2, 0], directed=False)
        y = np.array([0, 0, 1])
        rep = M.homophily_report(g, y)
        assert rep.h_node == pytest.approx(1 / 3)
        assert rep.h_edge == pytest.approx(1 / 3)
        assert sum(rep.histogram) == 3

    def test_histogram_counts_non_isolated(self):
        g = G.from_edges(5, [0, 1], [1, 2], directed=False)
        y = np.array([0, 0, 1, 1, 0])
        rep = M.homophily_report(g, y)
        assert sum(rep.histogram) == 3
        assert any(f.startswith("isolated_nodes=2") for f in rep.flags)

    def test_single_class_report(self):
        g = G.from_edges(3, [0, 1], [1, 2], directed=False)
        y = np.zeros(3, dtype=np.int64)
        rep = M.homophily_report(g, y)
        assert rep.h_node == 1.0
        assert rep.h_adjusted == 1.0
        assert "single_class" in rep.flags

    def test_report_serializable(self):
        import json

        g = G.from_edges(3, [0, 1], [1, 2], directed=False)
        y = np.array([0, 1, 0])
        rep = M.homophily_report(g, y)
        s = json.dumps(rep.to_dict(), sort_keys=True)
        assert "h_node" in s


# ------------------------------------------------- per-node loop equality

def differential_graph(c, seed, directed=False):
    """A dense core of 170 nodes with self-loops and a hub of 160
    neighbours, 47 pendant nodes of degree 1 (below c for c >= 2), three
    isolated nodes and, for c >= 2, no member of class 0."""
    rng = np.random.default_rng([c, seed])
    n, core = 220, 170
    pendants = np.arange(core, n - 3)
    loops = rng.integers(0, core, size=8)
    src = np.concatenate([rng.integers(0, core, size=1500), loops, pendants, np.full(160, 5)])
    dst = np.concatenate([
        rng.integers(0, core, size=1500), loops,
        rng.integers(0, core, size=pendants.size), rng.permutation(np.arange(6, core))[:160],
    ])
    y = rng.integers(0, c, size=n)
    if c >= 2:
        y[y == 0] = c - 1
    return G.from_edges(n, src, dst, directed=directed), y.astype(np.int64)


def loop_report(g, y, monkeypatch):
    """homophily_report assembled from the per-node loop measures."""
    with monkeypatch.context() as mp:
        mp.setattr(M, "local_homophily_values", O.local_homophily_loop)
        mp.setattr(M, "class_insensitive_homophily", O.class_insensitive_loop)
        mp.setattr(M, "entropy_score", O.entropy_loop)
        mp.setattr(
            M, "uniformity_score",
            lambda g, y: O.uniformity_loop(g, y, M.chi2_critical_95(int(y.max()))),
        )
        return M.homophily_report(g, y).to_dict()


def bits(value):
    """JSON text: equal only for equal bits, -0.0 and NaN included."""
    return json.dumps(value, sort_keys=True)


class TestLoopEquality:
    """Every neighbour-label measure keeps the per-node loops' bits."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("c", [1, 2, 3, 7, 8, 9, 12, 20])
    def test_measures_and_report(self, c, directed, monkeypatch):
        for seed in range(3):
            g, y = differential_graph(c, seed, directed)
            deg = g.degrees()
            assert deg.max() >= 160 and (deg == 0).sum() >= 3
            assert c == 1 or np.any((deg > 0) & (deg < c))
            assert c == 1 or not np.any(y == 0)
            local = M.local_homophily_values(g, y)
            assert local.tobytes() == O.local_homophily_loop(g, y).tobytes()
            assert bits(M.node_homophily(g, y)) == bits(O.node_homophily_loop(g, y))
            assert bits(M.entropy_score(g, y)) == bits(O.entropy_loop(g, y))
            if c >= 2:
                assert bits(M.class_insensitive_homophily(g, y)) == bits(
                    O.class_insensitive_loop(g, y))
                crit = M.chi2_critical_95(c - 1)
                assert bits(M.uniformity_score(g, y)) == bits(O.uniformity_loop(g, y, crit))
            else:
                with pytest.raises(ValueError, match="2 classes"):
                    M.class_insensitive_homophily(g, y)
                with pytest.raises(ValueError, match="2 classes"):
                    M.uniformity_score(g, y)
            assert bits(M.homophily_report(g, y).to_dict()) == bits(loop_report(g, y, monkeypatch))

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("f", [1, 7, 64])
    def test_feature_label_r(self, f, directed):
        for seed in range(3):
            g, y = differential_graph(3, seed, directed)
            rng = np.random.default_rng([f, seed])
            x = rng.normal(size=(g.n, f))
            x[rng.random(g.n) < 0.1] = 0.0  # all-zero rows score 0.0
            x[:20] *= 1e-150  # tiny rows: squared norms near 1e-300
            ref = O.feature_label_r_loop(g, x, y)
            assert bits(M.feature_label_correlation(g, x, y)) == bits(ref)
            assert bits(M.homophily_report(g, y, x).feature_label_r) == bits(ref)

    @pytest.mark.parametrize("f", [5, 16])
    def test_feature_label_r_ignores_layout(self, f):
        g, y = differential_graph(3, 0, False)
        wide = np.random.default_rng(f).normal(size=(g.n, 2 * f))
        ref = M.feature_label_correlation(g, np.ascontiguousarray(wide[:, :f]), y)
        for x in (wide[:, :f], np.asfortranarray(wide[:, :f])):
            assert bits(M.feature_label_correlation(g, x, y)) == bits(ref)


def _cosine_measure(g, y):
    return M.feature_label_correlation(g, np.eye(4), y)


class TestLabelLength:
    @pytest.mark.parametrize("k", [3, 6])
    @pytest.mark.parametrize("measure", [
        M.local_homophily_values, M.node_homophily, M.edge_homophily,
        M.adjusted_homophily, M.class_insensitive_homophily, M.entropy_score,
        M.uniformity_score, M.homophily_report, _cosine_measure,
    ])
    def test_labels_not_fitting_graph_rejected(self, measure, k):
        g = G.from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], directed=False)
        y = np.arange(k, dtype=np.int64) % 2
        with pytest.raises(ValueError, match=f"labels length {k} .* graph nodes 4"):
            measure(g, y)


class TestNoWarnings:
    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("labels", [
        [0, 1, 0, 1, 0, 1, 2, 2],  # each neighbourhood holds one label
        [0, 0, 0, 0, 0, 0, 1, 2],  # single-class component
        [0, 0, 0, 0, 0, 0, 0, 0],  # one class
    ])
    def test_report_raises_no_warning(self, n, labels, monkeypatch):
        # a 6-cycle, and two isolated nodes when n = 8
        g = G.from_edges(n, [0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0], directed=False)
        y = np.asarray(labels[:n], dtype=np.int64)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            rep = M.homophily_report(g, y)
        assert ("isolated_nodes=2" in rep.flags) == (n == 8)
        # each node sees one label, so its term is -0.0; the loop summed
        # from 0.0 and got +0.0
        assert bits(rep.h_entropy) == "0.0"
        assert bits(rep.to_dict()) == bits(loop_report(g, y, monkeypatch))
