import hashlib

import numpy as np
import pytest

import ags.graph as G
import ags.nn as N
import ags.similarity as S
from oracles import central_difference_grads, max_relative_error

SEVEN_POINTS = np.array(
    [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 0.0], [7.0, 0.0], [8.0, 0.0], [9.0, 0.0]]
)


class TestCosine:
    def test_self_similarity(self):
        x = np.array([2.0, -1.0, 0.5])
        assert S.cosine(x, x) == pytest.approx(1.0)

    def test_orthogonal_one_hots(self):
        assert S.cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        r = S.cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert r == pytest.approx(1.0 / np.sqrt(2.0))

    def test_zero_vector(self):
        assert S.cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            assert -1.0 - 1e-12 <= S.cosine(a, b) <= 1.0 + 1e-12


class TestPairwiseKernel:
    def test_seven_point_row(self):
        k = S.pairwise_kernel(SEVEN_POINTS, "neg_euclidean")
        assert k[0].tolist() == [81.0, 80.0, 77.0, 56.0, 32.0, 17.0, 0.0]

    def test_single_row(self):
        k = S.pairwise_kernel(np.array([[3.0, 4.0]]), "neg_euclidean")
        assert k.shape == (1, 1) and k[0, 0] == 0.0

    def test_identical_rows_constant(self):
        xs = np.tile([1.0, 2.0], (5, 1))
        k = S.pairwise_kernel(xs, "neg_euclidean")
        assert np.all(k == k[0, 0])

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(1)
        for kind in ("cosine", "neg_euclidean"):
            xs = rng.normal(size=(10, 3))
            k = S.pairwise_kernel(xs, kind)
            assert np.array_equal(k, k.T)
            assert np.all(k >= 0.0)

    def test_cosine_kernel_shifted(self):
        xs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        k = S.pairwise_kernel(xs, "cosine")
        assert k[0, 0] == pytest.approx(1.0)
        assert k[0, 1] == pytest.approx(0.5)  # orthogonal
        assert k[0, 2] == pytest.approx(0.0)  # opposite

    def test_non_finite_rejected(self):
        xs = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            S.pairwise_kernel(xs, "neg_euclidean")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            S.pairwise_kernel(np.ones((2, 2)), "manhattan")

    def test_learned_kernel_symmetric_unit_interval(self):
        rng = np.random.default_rng(2)
        model = S.new_siamese(3, 4, 4, rng)
        xs = rng.normal(size=(6, 3))
        k = S.pairwise_kernel(xs, "learned", model=model)
        assert np.array_equal(k, k.T)
        assert np.all((k > 0.0) & (k < 1.0))


class TestSimilarityRow:
    def test_matches_kernel_ordering(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(8, 4))
        row = S.similarity_row(xs, xs[2], "cosine")
        for i in range(8):
            assert row[i] == pytest.approx(
                (S.cosine(xs[i], xs[2]) + 1.0) / 2.0
            )

    def test_neg_euclidean_row(self):
        row = S.similarity_row(SEVEN_POINTS, SEVEN_POINTS[0], "neg_euclidean")
        assert row.tolist() == [81.0, 80.0, 77.0, 56.0, 32.0, 17.0, 0.0]


class TestBatchAxis:
    """A stack of point sets gives each set the bits of a lone call."""

    def stack(self, seed):
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=(7, 5, 3))
        xs[1, 2] = 0.0  # zero norm
        xs[2, 3] = xs[2, 1]  # duplicate row
        xs[3] = xs[3, 0]  # one repeated point
        return xs, S.new_siamese(3, 6, 4, rng)

    @pytest.mark.parametrize("kind", S.SIM_KINDS)
    def test_kernel_stack_matches_single_calls(self, kind):
        xs, model = self.stack(8)
        k = S.pairwise_kernel(xs, kind, model)
        assert k.shape == (7, 5, 5)
        for i in range(7):
            assert k[i].tobytes() == S.pairwise_kernel(xs[i], kind, model).tobytes()

    @pytest.mark.parametrize("kind", S.SIM_KINDS)
    def test_row_stack_matches_single_calls(self, kind):
        xs, model = self.stack(9)
        targets = np.concatenate([np.zeros((1, 3)), xs[1:, 0] * 2.0])
        rows = S.similarity_row(xs, targets, kind, model)
        assert rows.shape == (7, 5)
        for i in range(7):
            one = S.similarity_row(xs[i], targets[i], kind, model)
            assert rows[i].tobytes() == one.tobytes()

    def test_cosine_zero_target(self):
        row = S.similarity_row(np.ones((1, 3, 2)), np.zeros((1, 2)), "cosine")
        assert row.tolist() == [[0.5, 0.5, 0.5]]


class TestSiamesePredict:
    def test_untrained_in_unit_interval(self):
        rng = np.random.default_rng(4)
        model = S.new_siamese(5, 8, 8, rng)
        v = S.predict_pairs(model, rng.normal(size=(20, 5)), rng.normal(size=(20, 5)))
        assert v.shape == (20,)
        assert np.all((0.0 < v) & (v < 1.0))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        model = S.new_siamese(4, 6, 6, rng)
        a, b = rng.normal(size=(20, 4)), rng.normal(size=(20, 4))
        assert S.predict_pairs(model, a, b).tobytes() == (
            S.predict_pairs(model, b, a).tobytes()
        )

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(6)
        model = S.new_siamese(4, 6, 6, rng)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        assert S.predict_pairs(model, a, b).tobytes() == (
            S.predict_pairs(model, a, b).tobytes()
        )

    def test_shape_mismatch(self):
        model = S.new_siamese(4, 6, 6, np.random.default_rng(7))
        with pytest.raises(ValueError):
            S.predict_pairs(model, np.zeros((1, 4)), np.zeros((1, 3)))


def separable_toy(n_per_class=20, noise=0.0, seed=0):
    """Two classes with class-identical features and intra-class edges."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    y = np.repeat([0, 1], n_per_class)
    x = np.eye(2)[y].astype(np.float64)
    if noise:
        x = x + noise * rng.normal(size=x.shape)
    src, dst = [], []
    for k in (0, 1):
        members = np.flatnonzero(y == k)
        for i in range(len(members) - 1):
            src.append(members[i])
            dst.append(members[i + 1])
    # a couple of cross edges so non-edges are not the only dissimilar pairs
    src += [0, n_per_class - 1]
    dst += [n_per_class, n - 1]
    g = G.from_edges(n, src, dst, directed=False)
    return g, x, y


class TestTraining:
    def test_separable_toy_low_mse(self):
        g, x, y = separable_toy()
        cfg = S.SiameseConfig(h1=16, h2=16, batch_pairs=64, epochs=200, seed=0)
        model, history = S.train_similarity(g, x, y, cfg)
        assert history[-1] < 0.05

    def test_no_edge_fallback_trains(self):
        # graph with no edges at all: pair supply falls back to
        # same-class training pairs
        n = 20
        y = np.repeat([0, 1], 10)
        x = np.eye(2)[y].astype(np.float64)
        g = G.from_edges(n, [], [], directed=False)
        cfg = S.SiameseConfig(h1=16, h2=16, batch_pairs=64, epochs=200, seed=1)
        model, history = S.train_similarity(g, x, y, cfg)
        assert history[-1] < 0.05

    def test_zero_epochs_rejected(self):
        g, x, y = separable_toy()
        with pytest.raises(ValueError, match="epochs must be positive"):
            S.train_similarity(g, x, y, S.SiameseConfig(h1=4, h2=4, epochs=0))

    def test_no_edges_single_member_classes_error(self):
        g = G.from_edges(3, [], [], directed=False)
        y = np.array([0, 1, 2])
        x = np.eye(3).astype(np.float64)
        with pytest.raises(ValueError, match="fall back"):
            S.train_similarity(g, x, y, S.SiameseConfig(h1=4, h2=4))

    def test_restricted_to_training_split(self):
        # poison the non-training features; training must never read them
        g, x, y = separable_toy()
        train = np.arange(0, x.shape[0], 2)
        x_bad = x.copy()
        holdout = np.setdiff1d(np.arange(x.shape[0]), train)
        x_bad[holdout] = np.nan

        cfg = S.SiameseConfig(h1=8, h2=8, batch_pairs=32, epochs=50, seed=2)
        model, history = S.train_similarity(g, x_bad, y, cfg, train_nodes=train)
        assert np.isfinite(history).all()

    def test_deterministic_given_seed(self):
        g, x, y = separable_toy()
        cfg = S.SiameseConfig(h1=8, h2=8, batch_pairs=32, epochs=30, seed=3)
        m1, h1 = S.train_similarity(g, x, y, cfg)
        m2, h2 = S.train_similarity(g, x, y, cfg)
        assert h1 == h2
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a, b)

    def test_loss_non_increasing_windows_median_over_seeds(self):
        g, x, y = separable_toy()
        histories = []
        for seed in range(5):
            cfg = S.SiameseConfig(
                h1=8, h2=8, batch_pairs=256, epochs=60, seed=seed,
                plateau_window=60,  # no early stop: full history needed
            )
            _, h = S.train_similarity(g, x, y, cfg)
            histories.append(h)
        n_epochs = min(len(h) for h in histories)
        for start in range(n_epochs - 10):
            deltas = [h[start + 10] - h[start] for h in histories]
            assert np.median(deltas) <= 1e-6


class TestNonEdgeRejectionStaysBulk:
    """Non-edge rejection looks a whole batch up in the sorted CSR keys."""

    # sha256 of the saved model, written by the per-pair has_edge
    # rejection loop this replaced. Float bits can differ with another BLAS.
    GOLDEN_MODEL = "fb8b420fe388f240cfad983fed6246475ce8394f53eac3c8062624ac600e6095"

    def test_has_edge_never_called(self, monkeypatch, tmp_path):
        def per_pair(self, u, v):
            raise AssertionError("Graph.has_edge called during training")

        monkeypatch.setattr(G.Graph, "has_edge", per_pair)
        g, x, y = separable_toy(noise=0.3)
        cfg = S.SiameseConfig(h1=8, h2=8, batch_pairs=64, epochs=40, seed=4)
        model, history = S.train_similarity(g, x, y, cfg)
        assert len(history) == 40
        S.save_similarity_model(str(tmp_path / "m"), model)
        assert hashlib.sha256((tmp_path / "m").read_bytes()).hexdigest() == self.GOLDEN_MODEL


class TestGradients:
    def test_pair_loss_gradcheck(self):
        # small dims keep the finite-difference sweep fast; regenerate
        # until relu pre-activations and |e1-e2| stay off their kinks
        for attempt in range(50):
            rng = np.random.default_rng(100 + attempt)
            model = S.new_siamese(3, 4, 4, rng)
            x1 = rng.normal(size=(4, 3))
            x2 = rng.normal(size=(4, 3))
            targets = rng.uniform(size=4)
            e1, c1 = N.forward(model.tower, x1)
            e2, _ = N.forward(model.tower, x2)
            margin = min(
                min(np.min(np.abs(z)) for _, z in c1),
                float(np.min(np.abs(e1 - e2))),
            )
            if margin > 1e-4:
                break
        else:
            raise AssertionError("no kink-free instance found")

        def loss_fn():
            return S.pair_loss_and_grads(model, x1, x2, targets)[0]

        _, analytic = S.pair_loss_and_grads(model, x1, x2, targets)
        numeric = central_difference_grads(loss_fn, model.parameters())
        assert max_relative_error(analytic, numeric) < 1e-4


class TestPersistence:
    # sha256 of new_siamese(5, 7, 6, default_rng(8)) saved by the
    # per-format writer of commit 7cfaef6, before both binary formats
    # shared one frame
    PINNED_MODEL = "73ea1eb240f4f81bb1768b1edb9b75334f456bceb149f5a89bb7421e9d6aed9a"

    def test_saved_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "m.model"
        S.save_similarity_model(str(path), S.new_siamese(5, 7, 6, np.random.default_rng(8)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_MODEL

    def test_non_finite_model_not_written(self, tmp_path):
        model = S.new_siamese(3, 4, 4, np.random.default_rng(12))
        model.head.layers[0].b[0] = np.nan
        path = tmp_path / "model.agsm"
        with pytest.raises(ValueError, match="similarity model not written: .*finite"):
            S.save_similarity_model(str(path), model)
        assert not path.exists()

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        model = S.new_siamese(5, 7, 6, rng)
        path = str(tmp_path / "model.agsm")
        S.save_similarity_model(path, model)
        loaded = S.load_similarity_model(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)
        xs = rng.normal(size=(3, 5))
        assert np.array_equal(
            S.predict_pairs(model, xs, xs[::-1]),
            S.predict_pairs(loaded, xs, xs[::-1]),
        )

    def test_corrupt_payload(self, tmp_path):
        model = S.new_siamese(3, 4, 4, np.random.default_rng(9))
        path = str(tmp_path / "model.agsm")
        S.save_similarity_model(path, model)
        blob = bytearray(open(path, "rb").read())
        blob[40] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            S.load_similarity_model(path)

    def test_bad_magic(self, tmp_path):
        model = S.new_siamese(3, 4, 4, np.random.default_rng(10))
        path = str(tmp_path / "model.agsm")
        S.save_similarity_model(path, model)
        import struct
        import zlib

        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"NOPE"
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            S.load_similarity_model(path)

    def test_truncated(self, tmp_path):
        model = S.new_siamese(3, 4, 4, np.random.default_rng(11))
        path = str(tmp_path / "model.agsm")
        S.save_similarity_model(path, model)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated|checksum"):
            S.load_similarity_model(path)
