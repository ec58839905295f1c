import hashlib
import zlib

import numpy as np
import pytest

import ags.graph as G
import ags.ranking as R
import ags.similarity as S
from oracles import (
    diverse_rows_loop,
    facility_location_gain,
    feature_based_gain,
    graph_cut_gain,
    max_coverage_gain,
    naive_state_greedy,
    probs_loop,
    similar_order_lexsort,
    similar_rows_loop,
)

SEVEN_POINTS = np.array(
    [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 0.0], [7.0, 0.0], [8.0, 0.0], [9.0, 0.0]]
)


# ---------------------------------------------------------------- oracle

def set_value(kind, chosen, kernel=None, features=None, lam=2.0):
    """From-scratch set-function value; no incremental state anywhere."""
    idx = sorted(chosen)
    if not idx:
        return 0.0
    if kind == "facility_location":
        return float(kernel[idx].max(axis=0).sum())
    if kind == "max_coverage":
        return float(np.minimum(features[idx].sum(axis=0), 1.0).sum())
    if kind == "feature_based":
        return float(np.sqrt(features[idx].sum(axis=0)).sum())
    if kind == "graph_cut":
        cross = kernel[idx, :].sum()
        internal = kernel[np.ix_(idx, idx)].sum()
        return float(lam * cross - internal)
    raise AssertionError(kind)


def naive_greedy(ground, initial, kind, **data):
    """Reference greedy: full re-evaluation, ties to the smallest id."""
    chosen = set(initial)
    remaining = sorted(set(ground) - chosen)
    order, gains = [], []
    while remaining:
        base = set_value(kind, chosen, **data)
        best_v = best_g = None
        for v in remaining:
            g = set_value(kind, chosen | {v}, **data) - base
            if best_g is None or g > best_g:
                best_v, best_g = v, g
        order.append(best_v)
        gains.append(best_g)
        chosen.add(best_v)
        remaining.remove(best_v)
    return order, gains


def random_instance(rng, kind):
    """Fuzz data in exact-arithmetic regimes so ties are bit-stable.

    Integer kernels/features make every gain an exactly representable
    float for the three non-sqrt kinds; the sqrt kind uses continuous
    features where equal gains only arise from duplicated rows.
    """
    n = int(rng.integers(1, 13))
    if kind in ("facility_location", "graph_cut"):
        k = rng.integers(0, 10, size=(n, n)).astype(np.float64)
        k = np.maximum(k, k.T)  # symmetric, nonnegative
        data = {"kernel": k}
    elif kind == "max_coverage":
        data = {"features": rng.integers(0, 2, size=(n, 6)).astype(np.float64)}
    else:
        feats = rng.uniform(0.0, 5.0, size=(n, 4))
        if n >= 2 and rng.random() < 0.5:
            # adjacent duplicate rows: the only index pair whose exact
            # tie survives float summation order in both greedy routes
            i = int(rng.integers(0, n - 1))
            feats[i + 1] = feats[i]
        data = {"features": feats}
    ground = list(range(n))
    n_init = int(rng.integers(0, n))
    initial = set(rng.choice(n, size=n_init, replace=False).tolist())
    return ground, initial, data


def make_fn(kind, data):
    if "kernel" in data:
        return R.SubmodularFn(kind=kind, kernel=data["kernel"])
    return R.SubmodularFn(kind=kind, features=data["features"])


# ---------------------------------------------------------------- pmf

class TestPmfSpec:
    def test_defaults_valid(self):
        spec = R.PmfSpec()
        assert spec.kind == "step" and spec.lambdas == (4.0, 2.0, 1.0)

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            R.PmfSpec(kind="quadratic")

    def test_k_bounds(self):
        with pytest.raises(ValueError, match="k1"):
            R.PmfSpec(k1=1.2)
        with pytest.raises(ValueError, match="exceed"):
            R.PmfSpec(k1=0.6, k2=0.6)

    def test_lambda_ordering(self):
        with pytest.raises(ValueError, match="lambda"):
            R.PmfSpec(lambdas=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="lambda"):
            R.PmfSpec(lambdas=(4.0, 2.0, 0.0))

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            R.PmfSpec(rate=1.0)

    @pytest.mark.parametrize(
        "lambdas", [(np.inf, 2.0, 1.0), (4.0, 2.0, np.nan), (np.inf, np.inf, 1.0)]
    )
    def test_non_finite_lambdas_rejected(self, lambdas):
        with pytest.raises(ValueError, match="lambdas must be finite"):
            R.PmfSpec(lambdas=lambdas)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -1e-6])
    def test_floor_mass_bounds(self, eps):
        with pytest.raises(ValueError, match="floor mass"):
            R.PmfSpec(kind="linear", eps=eps)


class TestPmfFromRanks:
    def test_single_entry(self):
        for kind in R.PMF_KINDS:
            assert R.pmf_from_ranks(1, R.PmfSpec(kind=kind)).tolist() == [1.0]

    def test_step_ten(self):
        p = R.pmf_from_ranks(10, R.PmfSpec(kind="step"))
        expect = [4 / 18] * 2 + [2 / 18] * 2 + [1 / 18] * 6
        assert p == pytest.approx(expect, abs=1e-15)

    def test_linear_three_no_floor(self):
        p = R.pmf_from_ranks(3, R.PmfSpec(kind="linear", eps=0.0))
        assert p == pytest.approx([3 / 6, 2 / 6, 1 / 6], abs=1e-15)

    def test_exponential_three_no_floor(self):
        p = R.pmf_from_ranks(3, R.PmfSpec(kind="exponential", rate=0.5, eps=0.0))
        assert p == pytest.approx([4 / 7, 2 / 7, 1 / 7], abs=1e-15)

    def test_uniform(self):
        p = R.pmf_from_ranks(7, R.PmfSpec(kind="uniform"))
        assert np.all(p == 1.0 / 7)

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            R.pmf_from_ranks(0, R.PmfSpec())

    def test_exponential_tail_underflow_rejected(self):
        spec = R.PmfSpec(kind="exponential", rate=0.5, eps=0.0)
        assert np.all(R.pmf_from_ranks(1000, spec) > 0.0)
        with pytest.raises(ValueError, match="at degree 1100"):
            R.pmf_from_ranks(1100, spec)

    def test_all_kinds_positive_and_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(1, 51))
            kind = str(rng.choice(R.PMF_KINDS))
            p = R.pmf_from_ranks(d, R.PmfSpec(kind=kind))
            assert np.all(p > 0.0)
            assert abs(p.sum() - 1.0) <= 1e-9


# ---------------------------------------------------------------- gains

class TestGainFunctions:
    def test_facility_empty_set_is_row_sum(self):
        kernel = S.pairwise_kernel(SEVEN_POINTS, "neg_euclidean")
        for v in range(7):
            assert facility_location_gain(set(), range(7), kernel, v) == (
                kernel[v].sum()
            )

    def test_coverage_saturated(self):
        feats = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        assert max_coverage_gain({0}, 1, feats) == 0.0

    def test_coverage_negative_feature(self):
        with pytest.raises(ValueError, match="nonnegative"):
            max_coverage_gain(set(), 0, np.array([[-1.0, 2.0]]))

    def test_feature_based_hand_value(self):
        feats = np.array([[4.0, 9.0]])
        assert feature_based_gain(set(), 0, feats) == 5.0

    def test_graph_cut_hand_value(self):
        kernel = np.array([[2.0, 1.0], [1.0, 3.0]])
        # S = {}, v = 0: lam * (2 + 1) - 2*0 - K[0,0] = 6 - 2 = 4
        assert graph_cut_gain(set(), range(2), kernel, 0, lam=2.0) == 4.0
        # S = {0}, v = 1: lam * (1 + 3) - 2 * K[0,1] - K[1,1] = 8 - 2 - 3
        assert graph_cut_gain({0}, range(2), kernel, 1, lam=2.0) == 3.0

    def test_stateless_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            kind = str(rng.choice(R.SUBMODULAR_KINDS))
            ground, initial, data = random_instance(rng, kind)
            extra = sorted(set(ground) - initial)
            if not extra:
                continue
            v = int(rng.choice(extra))
            expect = set_value(kind, initial | {v}, **data) - set_value(
                kind, initial, **data
            )
            if kind == "facility_location":
                got = facility_location_gain(initial, ground, data["kernel"], v)
            elif kind == "max_coverage":
                got = max_coverage_gain(initial, v, data["features"])
            elif kind == "feature_based":
                got = feature_based_gain(initial, v, data["features"])
            else:
                got = graph_cut_gain(initial, ground, data["kernel"], v)
            assert got == pytest.approx(expect, abs=1e-9)


# ---------------------------------------------------------------- greedy

class TestLazyGreedy:
    def test_seven_point_example(self):
        kernel = S.pairwise_kernel(SEVEN_POINTS, "neg_euclidean")
        fn = R.SubmodularFn(kind="facility_location", kernel=kernel)
        order, gains = R.lazy_greedy(range(7), set(), fn)
        assert order.tolist() == [3, 1, 5, 0, 2, 4, 6]
        assert gains[0] == 488.0
        assert gains[1] == 48.0

    def test_singleton_ground(self):
        kernel = np.array([[5.0]])
        fn = R.SubmodularFn(kind="facility_location", kernel=kernel)
        order, gains = R.lazy_greedy([0], set(), fn)
        assert order.tolist() == [0] and gains.tolist() == [5.0]

    def test_empty_ground(self):
        fn = R.SubmodularFn(
            kind="facility_location", kernel=np.zeros((1, 1))
        )
        with pytest.raises(ValueError, match="empty ground"):
            R.lazy_greedy([], set(), fn)

    def test_initial_outside_ground(self):
        fn = R.SubmodularFn(kind="facility_location", kernel=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="initial"):
            R.lazy_greedy([0, 1], {2}, fn)

    @pytest.mark.parametrize("kind", R.SUBMODULAR_KINDS)
    def test_matches_naive_greedy(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(120):
            ground, initial, data = random_instance(rng, kind)
            lam = float(rng.choice([1.0, 2.0])) if kind == "graph_cut" else 2.0
            fn = make_fn(kind, data)
            fn.lam = lam
            order, gains = R.lazy_greedy(ground, initial, fn)
            expect_order, expect_gains = naive_greedy(
                ground, initial, kind, lam=lam, **data
            )
            assert order.tolist() == expect_order
            assert gains == pytest.approx(expect_gains, abs=1e-9)

    @pytest.mark.parametrize(
        "kind", ["facility_location", "max_coverage", "feature_based"]
    )
    def test_monotone_gains_non_increasing(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(40):
            ground, initial, data = random_instance(rng, kind)
            fn = make_fn(kind, data)
            _, gains = R.lazy_greedy(ground, initial, fn)
            assert np.all(np.diff(gains) <= 1e-12)
            assert np.all(gains >= -1e-12)

    def test_graph_cut_gains_non_increasing_but_signed(self):
        # at lam = 2 every gain is bounded below by the kernel diagonal,
        # so witnessing the objective's non-monotonicity needs lam = 1
        rng = np.random.default_rng(8)
        saw_negative = False
        for _ in range(60):
            ground, initial, data = random_instance(rng, "graph_cut")
            fn = make_fn("graph_cut", data)
            fn.lam = 1.0
            _, gains = R.lazy_greedy(ground, initial, fn)
            assert np.all(np.diff(gains) <= 1e-12)
            saw_negative |= bool(np.any(gains < 0.0))
        assert saw_negative

    def test_graph_cut_default_lam_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            ground, initial, data = random_instance(rng, "graph_cut")
            fn = make_fn("graph_cut", data)
            _, gains = R.lazy_greedy(ground, initial, fn)
            assert np.all(gains >= 0.0)


# ---------------------------------------------------------------- tables

def star_graph(d, center=0):
    src = [center] * d
    dst = list(range(1, d + 1))
    return G.from_edges(d + 1, src, dst, directed=False)


class TestRankBySimilarity:
    def test_one_hot_ordering(self):
        g = star_graph(3)
        x = np.array(
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        )
        rt = R.rank_by_similarity(g, x, sim="cosine")
        ids, _ = rt.row(0)
        assert set(ids[:2].tolist()) == {1, 3}
        assert ids[2] == 2

    def test_step_masses_degree_ten(self):
        g = star_graph(10)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(11, 4))
        rt = R.rank_by_similarity(g, x, sim="cosine", pmf=R.PmfSpec(kind="step"))
        _, probs = rt.row(0)
        expect = [4 / 18] * 2 + [2 / 18] * 2 + [1 / 18] * 6
        assert probs == pytest.approx(expect, abs=1e-15)

    def test_underflowing_masses_not_saved(self, tmp_path):
        # finite lambdas so far apart that the lowest tier rounds to 0:
        # ranking refuses them, and a table holding such masses is not saved
        g = star_graph(10)
        x = np.random.default_rng(2).normal(size=(11, 4))
        pmf = R.PmfSpec(lambdas=(1e300, 1e299, 1e-300))
        with pytest.raises(ValueError, match="every PMF mass must be finite and positive"):
            R.rank_by_similarity(g, x, pmf=pmf)
        w = np.array([1e300] * 2 + [1e299] * 2 + [1e-300] * 6)
        probs = np.concatenate([w / w.sum(), np.ones(10)])
        assert probs[9] == 0.0
        rt = G.make_rank_table("similar", "step", pmf.params(), g.offsets, g.targets, probs)
        path = tmp_path / "t.agsr"
        with pytest.raises(ValueError, match="not written: every probability must be positive"):
            G.save_rank_table(rt, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("mode", ["similar", "diverse"])
    @pytest.mark.parametrize("lambdas", [(1e308, 1e307, 1.0), (1e300, 1e299, 1e-300)])
    def test_zero_masses_raise_before_a_table_exists(self, mode, lambdas):
        # (1e308, 1e307, 1.0) overflows the hub row's total, so every
        # mass of that row would be 0; (1e300, 1e299, 1e-300) underflows
        # the lowest tier. The samplers would still draw from such a table
        g = star_graph(10)
        x = np.random.default_rng(2).normal(size=(11, 4))
        rank = R.rank_by_similarity if mode == "similar" else R.rank_by_diversity
        with pytest.raises(ValueError, match="at degree 10"):
            rank(g, x, pmf=R.PmfSpec(lambdas=lambdas))

    def test_uniform_pmf(self):
        g = star_graph(5)
        x = np.random.default_rng(3).normal(size=(6, 3))
        rt = R.rank_by_similarity(g, x, pmf=R.PmfSpec(kind="uniform"))
        _, probs = rt.row(0)
        assert np.all(probs == 0.2)

    def test_rows_are_neighbor_permutations(self):
        rng = np.random.default_rng(4)
        src = rng.integers(0, 20, size=40)
        dst = rng.integers(0, 20, size=40)
        g = G.from_edges(20, src, dst, directed=False)
        x = rng.normal(size=(20, 5))
        rt = R.rank_by_similarity(g, x)
        rt.validate(g)

    def test_tie_break_ascending_id(self):
        g = star_graph(4)
        x = np.ones((5, 3))
        rt = R.rank_by_similarity(g, x)
        ids, _ = rt.row(0)
        assert ids.tolist() == [1, 2, 3, 4]

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 15, size=30)
        dst = rng.integers(0, 15, size=30)
        g = G.from_edges(15, src, dst, directed=False)
        x = rng.normal(size=(15, 4))
        base = R.rank_by_similarity(g, x)
        for c in (3.0, 4.0, 0.25):
            scaled = R.rank_by_similarity(g, c * x)
            assert np.array_equal(base.ranked_ids, scaled.ranked_ids)
            assert np.array_equal(base.probs, scaled.probs)

    def test_learned_requires_model(self):
        g = star_graph(2)
        with pytest.raises(ValueError, match="model"):
            R.rank_by_similarity(g, np.ones((3, 2)), sim="learned")

    def test_missing_features(self):
        g = star_graph(2)
        with pytest.raises(ValueError, match="missing features"):
            R.rank_by_similarity(g, None)

    def test_isolated_vertices_empty_rows(self):
        g = G.from_edges(4, [0], [1], directed=False)
        x = np.random.default_rng(6).normal(size=(4, 2))
        rt = R.rank_by_similarity(g, x)
        rt.validate(g)
        ids, probs = rt.row(3)
        assert ids.shape[0] == 0 and probs.shape[0] == 0

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        src = rng.integers(0, 12, size=24)
        dst = rng.integers(0, 12, size=24)
        g = G.from_edges(12, src, dst, directed=False)
        x = rng.normal(size=(12, 3))
        a = R.rank_by_similarity(g, x)
        b = R.rank_by_similarity(g, x)
        assert np.array_equal(a.ranked_ids, b.ranked_ids)
        assert np.array_equal(a.probs, b.probs)


def tie_graph_and_features(seed):
    """Features drawn from six prototypes: duplicates, all-zero rows and
    opposite pairs. Rows hold equal scores, 0.0 among them (cosine of an
    opposite pair, neg_euclidean's farthest neighbour), and rows of one
    degree share score values across rows."""
    rng = np.random.default_rng(seed)
    protos = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                       [0.0, 2.0, 0.0], [0.0, -2.0, 0.0], [1.0, 1.0, 0.0]])
    n = 90
    x = protos[rng.integers(0, len(protos), size=n)]
    g = G.from_edges(n, rng.integers(0, n, size=300), rng.integers(0, n, size=300))
    return g, x


class TestSimilarOrderTies:
    """rank_by_similarity gives np.lexsort((targets, -score, row))'s order."""

    @pytest.mark.parametrize("sim", ["cosine", "neg_euclidean"])
    def test_rank_similar_matches_lexsort(self, sim):
        g, x = tie_graph_and_features(33)
        deg = g.degrees()
        row = np.repeat(np.arange(g.n), deg)
        # a row scored alone has the bits of the batched call
        score = np.concatenate(
            [S.similarity_row(x[g.neighbors(u)], x[u], sim) for u in range(g.n) if deg[u]]
        )
        rt = R.rank_by_similarity(g, x, sim=sim)
        want = g.targets[similar_order_lexsort(g.targets, score, row)]
        assert rt.ranked_ids.tobytes() == want.tobytes()
        # the data ties inside rows, across rows, and at 0.0
        pairs = np.unique(np.column_stack([row, score]), axis=0)
        assert pairs.shape[0] < g.m
        assert np.unique(pairs[:, 1]).size < pairs.shape[0]
        assert np.count_nonzero(score == 0.0) > 1

    def test_signed_zeros_nan_and_fuzz(self, monkeypatch):
        """Scores read from a table: ties, 0.0 beside -0.0, and NaN."""
        rng = np.random.default_rng(34)
        n = 40
        x = np.arange(n, dtype=np.float64)[:, None]  # a node's feature is its id
        table = np.zeros((n, n))

        def scores(xs, x_t, sim, model):
            return table[x_t.astype(np.int64), xs[..., 0].astype(np.int64)]

        monkeypatch.setattr(R, "similarity_row", scores)
        for _ in range(60):
            table[:] = rng.integers(-2, 3, size=(n, n)) / 2.0
            table[rng.random((n, n)) < 0.3] = -0.0
            table[rng.random((n, n)) < 0.05] = np.nan
            m = int(rng.integers(0, 150))
            g = G.from_edges(n, rng.integers(0, n, size=m), rng.integers(0, n, size=m))
            row = np.repeat(np.arange(n), g.degrees())
            want = g.targets[similar_order_lexsort(g.targets, table[row, g.targets], row)]
            rt = R.rank_by_similarity(g, x, sim="cosine")
            assert rt.ranked_ids.tobytes() == want.tobytes()


class TestRankByDiversity:
    def test_identical_features_id_order(self):
        g = star_graph(4)
        x = np.ones((5, 3))
        rt = R.rank_by_diversity(g, x)
        ids, _ = rt.row(0)
        assert ids.tolist() == [1, 2, 3, 4]

    def test_two_clusters_alternate_at_top(self):
        # neighbors 1,2 near (1, 0); neighbors 3,4 near (0, 1); ego at origin-ish
        g = star_graph(4)
        x = np.array(
            [
                [0.5, 0.5],
                [1.0, 0.05],
                [1.0, 0.0],
                [0.05, 1.0],
                [0.0, 1.0],
            ]
        )
        rt = R.rank_by_diversity(g, x, sim="cosine", fn_kind="facility_location")
        ids, _ = rt.row(0)
        first_cluster = 0 if ids[0] in (1, 2) else 1
        second_cluster = 0 if ids[1] in (1, 2) else 1
        assert first_cluster != second_cluster

    def test_degree_one(self):
        g = G.from_edges(2, [0], [1], directed=False)
        x = np.random.default_rng(8).normal(size=(2, 3))
        rt = R.rank_by_diversity(g, x)
        ids, probs = rt.row(0)
        assert ids.tolist() == [1] and probs.tolist() == [1.0]

    def test_self_loop_ranked_last(self):
        g = G.from_edges(3, [0, 0, 0], [0, 1, 2], directed=False)
        x = np.random.default_rng(9).normal(size=(3, 3))
        rt = R.rank_by_diversity(g, x)
        ids, _ = rt.row(0)
        assert ids.shape[0] == 3 and ids[-1] == 0
        rt.validate(g)

    def test_rows_are_neighbor_permutations_all_kinds(self):
        rng = np.random.default_rng(10)
        src = rng.integers(0, 15, size=30)
        dst = rng.integers(0, 15, size=30)
        g = G.from_edges(15, src, dst, directed=False)
        x = np.abs(rng.normal(size=(15, 4)))  # nonneg for coverage kinds
        for kind in R.SUBMODULAR_KINDS:
            rt = R.rank_by_diversity(g, x, fn_kind=kind)
            rt.validate(g)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lam_rejected(self, lam):
        # a NaN gain used to rank every row in plain id order
        g = star_graph(4)
        x = np.random.default_rng(11).normal(size=(5, 2))
        with pytest.raises(ValueError, match="lam must be finite"):
            R.rank_by_diversity(g, x, fn_kind="graph_cut", lam=lam)
        with pytest.raises(ValueError, match="lam must be finite"):
            R.SubmodularFn(kind="graph_cut", kernel=np.eye(2), lam=lam)

    def test_negative_features_rejected_for_coverage(self):
        g = star_graph(2)
        x = -np.ones((3, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            R.rank_by_diversity(g, x, fn_kind="max_coverage")

    def test_matches_direct_greedy(self):
        # the table row must be exactly the lazy-greedy order over the
        # egonet with the ego as the initial set
        rng = np.random.default_rng(11)
        src = rng.integers(0, 10, size=25)
        dst = rng.integers(0, 10, size=25)
        g = G.from_edges(10, src, dst, directed=False)
        x = rng.normal(size=(10, 3))
        rt = R.rank_by_diversity(g, x, sim="cosine", fn_kind="facility_location")
        for u in range(10):
            nbrs = g.neighbors(u)
            if nbrs.shape[0] == 0:
                continue
            others = nbrs[nbrs != u]
            a_ids = np.concatenate([others, [u]])
            kernel = S.pairwise_kernel(x[a_ids], "cosine")
            fn = R.SubmodularFn(kind="facility_location", kernel=kernel)
            order, _ = R.lazy_greedy(
                range(a_ids.shape[0]), {others.shape[0]}, fn
            )
            expect = a_ids[order].tolist()
            if others.shape[0] != nbrs.shape[0]:
                expect.append(u)
            ids, _ = rt.row(u)
            assert ids.tolist() == expect


def mixed_graph_and_features(seed):
    """A random graph with every row shape the degree groups must handle.

    Rows of degree 0 and 1, self-loops (one of them a row with no other
    neighbor), a hub of 180 neighbors, duplicate feature rows (exact
    ties) and all-zero feature rows (cosine of a zero norm).
    """
    rng = np.random.default_rng(seed)
    n = 240
    src = rng.integers(10, n, size=500)
    dst = rng.integers(10, n, size=500)
    hub = np.arange(10, 190)
    src = np.concatenate([src, np.zeros(hub.size, dtype=np.int64), [1, 2, 2, 3, 5, 20]])
    dst = np.concatenate([dst, hub, [4, 2, 6, 3, 5, 20]])
    g = G.from_edges(n, src, dst, directed=False)
    x = rng.uniform(0.0, 2.0, size=(n, 5))
    rounded = rng.integers(0, n, size=30)
    x[rounded] = np.round(x[rounded])  # small integers: tied coverage gains
    x[40:60] = x[39]
    x[[2, 6, 61, 62, 63]] = 0.0
    x[64:70] = 1.0
    degrees = g.degrees()
    assert (degrees == 0).any() and (degrees == 1).any()
    assert g.has_edge(3, 3) and degrees[3] == 1 and g.has_edge(20, 20)
    return g, x


SIMS = [("cosine", None), ("neg_euclidean", None), ("learned", 5)]


def model_for(width):
    return None if width is None else S.new_siamese(width, 8, 4, np.random.default_rng(3))


class TestDegreeGroups:
    @pytest.mark.parametrize("sim,width", SIMS)
    @pytest.mark.parametrize("block", [R.BLOCK_ELEMENTS, 40, 2000])
    def test_similar_matches_row_loop(self, monkeypatch, sim, width, block):
        monkeypatch.setattr(R, "BLOCK_ELEMENTS", block)
        g, x = mixed_graph_and_features(21)
        model = model_for(width)
        rt = R.rank_by_similarity(g, x, sim=sim, model=model)
        expect = similar_rows_loop(g, x, sim, model)
        assert rt.ranked_ids.tobytes() == expect.tobytes()
        assert rt.probs.tobytes() == probs_loop(g, R.PmfSpec()).tobytes()

    @pytest.mark.parametrize("fn_kind", R.SUBMODULAR_KINDS)
    @pytest.mark.parametrize("sim,width", SIMS)
    @pytest.mark.parametrize("block", [R.BLOCK_ELEMENTS, 40, 2000])
    def test_diverse_matches_row_loops(self, monkeypatch, fn_kind, sim, width, block):
        # 40 elements hold less than one row and 2000 hold a few, so groups
        # of two or more rows span several blocks
        monkeypatch.setattr(R, "BLOCK_ELEMENTS", block)
        g, x = mixed_graph_and_features(22)
        model = model_for(width)
        rt = R.rank_by_diversity(g, x, sim=sim, fn_kind=fn_kind, model=model, lam=1.5)
        got = rt.ranked_ids.tobytes()
        assert got == diverse_rows_loop(
            g, x, sim, fn_kind, model, lam=1.5, greedy=naive_state_greedy
        ).tobytes()
        # lazy greedy ranked every row before degree groups. It equals
        # naive greedy bit for bit on facility location and graph cut,
        # and on this data on the other two kinds as well
        assert got == diverse_rows_loop(g, x, sim, fn_kind, model, lam=1.5).tobytes()
        assert rt.probs.tobytes() == probs_loop(g, R.PmfSpec()).tobytes()

    def test_exact_greedy_matches_naive_on_stacks(self):
        rng = np.random.default_rng(24)
        for kind in R.SUBMODULAR_KINDS:
            b, c = 6, 9
            if kind in ("facility_location", "graph_cut"):
                k = rng.integers(0, 4, size=(b, c, c)).astype(np.float64)
                data = np.maximum(k, np.swapaxes(k, 1, 2))
            else:
                data = rng.integers(0, 3, size=(b, c, 4)) / 2.0
            order = R._exact_greedy(kind, data, 1.0)
            for i in range(b):
                key = "kernel" if kind in ("facility_location", "graph_cut") else "features"
                fn = R.SubmodularFn(kind=kind, lam=1.0, **{key: data[i]})
                expect, _ = naive_state_greedy(range(c), {c - 1}, fn)
                assert order[i].tolist() == expect

    def test_probs_one_pmf_per_distinct_degree(self, monkeypatch):
        g, _ = mixed_graph_and_features(25)
        calls = []
        real = R.pmf_from_ranks
        monkeypatch.setattr(R, "pmf_from_ranks", lambda d, spec: calls.append(d) or real(d, spec))
        degrees = g.degrees()
        for kind in R.PMF_KINDS:
            spec = R.PmfSpec(kind=kind)
            expect = probs_loop(g, spec)
            calls.clear()
            assert R._probs_for(g, spec).tobytes() == expect.tobytes()
            assert calls == np.unique(degrees[degrees > 0]).tolist()

    def test_empty_graph(self):
        g = G.from_edges(3, [], [], directed=False)
        x = np.ones((3, 2))
        assert R.rank_by_similarity(g, x).m == 0
        assert R.rank_by_diversity(g, x).m == 0


def staircase_graph_and_features(seed):
    """A directed graph with one row for each candidate count 2..150.

    The 149 staircase rows sit at random ids, and every fifth one also
    has a self-loop. Rows of degree 0 and 1 and a row holding only a
    self-loop ride along. Some feature rows are small integers, which
    tie gains, and some are all zero, which tie coverage gains at 0.
    """
    rng = np.random.default_rng(seed)
    n = 400
    egos = rng.permutation(n)
    src, dst = [], []
    for i, u in enumerate(egos[:149]):
        others = rng.choice(n - 1, size=i + 1, replace=False)
        others[others >= u] += 1
        src += [u] * (i + 1 + (i % 5 == 0))
        dst += [*others.tolist(), *[u] * (i % 5 == 0)]
    src += [*egos[149:159], egos[159]]
    dst += [*egos[160:170], egos[159]]
    g = G.from_edges(n, src, dst, directed=True)
    x = rng.uniform(0.0, 1.5, size=(n, 4))
    rounded = rng.choice(n, size=80, replace=False)
    x[rounded] = np.round(x[rounded])
    x[rounded[:40]] = 0.0
    degrees = g.degrees()
    assert (degrees == 0).any() and (degrees == 1).any()
    assert np.unique(candidate_counts(g)).tolist() == list(range(2, 151))
    return g, x


def candidate_counts(g):
    """Each row's candidate count: its neighbors other than itself, plus itself."""
    row = np.repeat(np.arange(g.n), g.degrees())
    k = np.bincount(row[g.targets != row], minlength=g.n)
    return k[k > 0] + 1


_NAIVE_STAIRCASE = {}


def naive_staircase_rows(fn_kind, lam):
    key = (fn_kind, lam if fn_kind == "graph_cut" else None)
    if key not in _NAIVE_STAIRCASE:
        g, x = staircase_graph_and_features(28)
        _NAIVE_STAIRCASE[key] = diverse_rows_loop(
            g, x, "neg_euclidean", fn_kind, lam=lam, greedy=naive_state_greedy
        ).tobytes()
    return _NAIVE_STAIRCASE[key]


class TestLockstepBatches:
    """Rows of different candidate counts share one padded step loop."""

    @pytest.mark.parametrize("fn_kind", R.SUBMODULAR_KINDS)
    @pytest.mark.parametrize("lam", [0.25, -1.0])
    @pytest.mark.parametrize("block", [R.BLOCK_ELEMENTS, 40, 2000])
    def test_padded_batches_match_naive_greedy(self, monkeypatch, fn_kind, lam, block):
        # lam = -1 makes every graph-cut gain negative, so a pad that
        # scored 0 instead of -inf would be picked first
        monkeypatch.setattr(R, "BLOCK_ELEMENTS", block)
        g, x = staircase_graph_and_features(28)
        expect = naive_staircase_rows(fn_kind, lam)
        rt = R.rank_by_diversity(g, x, sim="neg_euclidean", fn_kind=fn_kind, lam=lam)
        assert rt.ranked_ids.tobytes() == expect

    @pytest.mark.parametrize("fn_kind", R.SUBMODULAR_KINDS)
    def test_step_count(self, monkeypatch, fn_kind):
        """Greedy steps (calls to the state's add) against one loop per count.

        At the default budget each count's rows fit one block, so a loop
        per count takes c adds for count c: the ego, then c - 1 picks.
        """
        g, x = staircase_graph_and_features(28)
        state = R._STATES[fn_kind]
        calls = []
        real_add = state.add
        monkeypatch.setattr(state, "add", lambda self, v: calls.append(1) or real_add(self, v))
        R.rank_by_diversity(g, x, sim="neg_euclidean", fn_kind=fn_kind)
        per_count = int(np.unique(candidate_counts(g)).sum())
        if state.mixes_counts:
            assert len(calls) < per_count / 4
        else:
            assert len(calls) == per_count

    def test_nan_gains_rank_each_neighbor_once(self):
        """Features near 1e155 overflow neg_euclidean's squared norms, so
        the kernel and graph cut's gains hold NaN; argmax takes the first
        NaN among the candidates left, and no row repeats an id."""
        rng = np.random.default_rng(35)
        n = 30
        g = G.from_edges(n, rng.integers(0, n, size=120), rng.integers(0, n, size=120))
        x = rng.normal(size=(n, 3)) * 1e155
        with np.errstate(all="ignore"):
            assert np.isnan(S.pairwise_kernel(x[:4], "neg_euclidean")).any()
            rt = R.rank_by_diversity(g, x, sim="neg_euclidean", fn_kind="graph_cut")
        for u in range(n):
            ids, _ = rt.row(u)
            assert np.sort(ids).tolist() == g.neighbors(u).tolist()


# sha256 of the saved AGSR file of each table ranked on
# mixed_graph_and_features(27) with default settings, written by the
# per-row ranking loops of commit 893b240, before rows were built per
# degree group. Float bits can differ with another BLAS build.
GOLDEN_TABLES = {
    ("cosine", "similar"): "102dd0d51b4b437a2f49b246b5f1c1788796077c59a1336ec7a4e5b35a705718",
    ("cosine", "facility_location"): "f35febf7ffc23ca231192beda4e44be04871d2c6d4d7bfd28f27940c66a808d5",
    ("cosine", "max_coverage"): "ab006cd4469b54de56e83dfae14b0da06645cecdffc8b824879a71acaa39b589",
    ("cosine", "feature_based"): "e01febba368f367c118c6f655d1350496d7e1e9997d32ed3aa9d2850edea168a",
    ("cosine", "graph_cut"): "0a07fe90c9ad172126b41b615b9a26ce509f68a8fdb19d4aa4fae818ea018590",
    ("neg_euclidean", "similar"): "fb93a9378802e6c7247173eae6f2b7b42455ae69d3d7e8032751a639d32c77d4",
    ("neg_euclidean", "facility_location"): "e8bc0a54a34b8b25bc88d000c17af96314444587a750e83a872a82d02e7b64d4",
    ("neg_euclidean", "max_coverage"): "ab006cd4469b54de56e83dfae14b0da06645cecdffc8b824879a71acaa39b589",
    ("neg_euclidean", "feature_based"): "e01febba368f367c118c6f655d1350496d7e1e9997d32ed3aa9d2850edea168a",
    ("neg_euclidean", "graph_cut"): "72f2eba34d80d6b4e9b18814653d880e39d229f4454a3f0205df09fd5d8be63f",
    ("learned", "similar"): "de59e038610b02e3fb046d50310b124281f49f5c6abf255f1f03d5f1ebf2c65b",
    ("learned", "facility_location"): "67972059457b7db4add7522c0465abd84d82e21ddae280e4d592efcbed54c66c",
    ("learned", "max_coverage"): "ab006cd4469b54de56e83dfae14b0da06645cecdffc8b824879a71acaa39b589",
    ("learned", "feature_based"): "e01febba368f367c118c6f655d1350496d7e1e9997d32ed3aa9d2850edea168a",
    ("learned", "graph_cut"): "2d3830407c3b95559e0d592bdb085f2cea2a6d1f308495d4c5e4576ddf991e48",
}


@pytest.mark.parametrize("sim,fn", sorted(GOLDEN_TABLES))
def test_tables_match_per_row_ranking_bytes(tmp_path, sim, fn):
    g, x = mixed_graph_and_features(27)
    model = model_for(dict(SIMS)[sim])
    if fn == "similar":
        rt = R.rank_by_similarity(g, x, sim=sim, model=model)
    else:
        rt = R.rank_by_diversity(g, x, sim=sim, fn_kind=fn, model=model)
    path = tmp_path / "t.agsr"
    G.save_rank_table(rt, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TABLES[(sim, fn)]


# sha256 of the saved AGSR file of one table per mode and PMF kind on
# mixed_graph_and_features(31), written by the per-format writer of
# commit 7cfaef6, before both binary formats shared one frame. Float
# bits can differ with another BLAS build.
PINNED_FILES = {
    ("similar", "step"): "c9206dd756e520e4502344a1b9165f2e308f75c9c30d7d99420f330a0f0cfe4a",
    ("similar", "linear"): "b1bb2b439a217f3979b5c3fdba10f4a2fd35b169cadc20726b80bbd9306bfdf8",
    ("similar", "exponential"): "cfdd3b656656de220379d551ae9a487172cc2ac6e1fea64a439e290452a950fd",
    ("diverse", "step"): "2a358c388b2daf4605af308c8a4f73b47b5a4388d1e8a38786f1fd2d8f54156d",
    ("diverse", "linear"): "3e7d6e8d5ee1bb0e06b63de8f38a79f15e3d970d343c17b80d6f8dac28f88e39",
    ("diverse", "exponential"): "091ee9ecaea93cea30b72d53640d42150e6e2769e398f6606b699438a75fcce4",
    ("uniform", "uniform"): "2bf7b0fd378ef69b2008e7b1cc4f22e305c35163a8042c164b7ed4494026ea2d",
}


def pinned_table(mode, pmf_kind):
    g, x = mixed_graph_and_features(31)
    if mode == "uniform":
        return R.rank_uniform(g)
    pmf = R.PmfSpec(kind=pmf_kind, rate=0.7)
    if mode == "similar":
        return R.rank_by_similarity(g, x, pmf=pmf)
    return R.rank_by_diversity(g, x, sim="neg_euclidean", fn_kind="graph_cut", pmf=pmf)


@pytest.mark.parametrize("mode,pmf_kind", sorted(PINNED_FILES))
def test_saved_table_bytes_are_pinned(tmp_path, mode, pmf_kind):
    path = tmp_path / "t.agsr"
    G.save_rank_table(pinned_table(mode, pmf_kind), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_FILES[(mode, pmf_kind)]
    rt = G.load_rank_table(str(path))
    assert (rt.mode, rt.pmf_kind) == (mode, pmf_kind)


class TestRankUniform:
    def test_uniform_table(self):
        g = star_graph(4)
        rt = R.rank_uniform(g)
        assert rt.mode == "uniform"
        ids, probs = rt.row(0)
        assert ids.tolist() == [1, 2, 3, 4]
        assert np.all(probs == 0.25)
        rt.validate(g)
