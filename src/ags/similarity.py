"""Node-pair similarity: fixed kernels and a learned edge-weight regressor.

Three interchangeable kinds feed the ranking and sampling layers:

- ``cosine``: cosine of feature vectors, shifted to [0, 1] so the values
  can serve directly as positive sampling weights.
- ``neg_euclidean``: max-shifted squared Euclidean distance over a point
  set (largest distance maps to 0). Only defined relative to a set, so it
  is exposed through the kernel/row builders, not as a pair function.
- ``learned``: a small Siamese regressor trained to predict whether two
  nodes share a label, output in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .graph import Graph, _checked, _read_frame, _write_frame

SIM_KINDS = ("cosine", "neg_euclidean", "learned")

MODEL_MAGIC = b"AGSM"
MODEL_VERSION = 1
_MODEL_HEADER = "<4sIQQQ"  # magic, version, f, h1, h2


def cosine(xu: np.ndarray, xv: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; either vector all-zero gives 0.

    The scalar reference for the array pass of
    ``metrics.feature_label_correlation``.
    """
    xu = np.asarray(xu, dtype=np.float64)
    xv = np.asarray(xv, dtype=np.float64)
    nu = float(np.linalg.norm(xu))
    nv = float(np.linalg.norm(xv))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(xu, xv) / (nu * nv))


def _check_features(xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim < 2 or xs.shape[-2] < 1:
        raise ValueError("need a 2-d feature array with at least one row")
    if not np.all(np.isfinite(xs)):
        raise ValueError("non-finite feature value")
    return xs


def _unit_rows(xs: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(xs, axis=-1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = xs / safe
    unit[norms[..., 0] == 0.0] = 0.0
    return unit


def _t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _one_at_a_time(fn, xs: np.ndarray, *rest, **kwargs) -> np.ndarray:
    """``fn`` on each point set of a stack, results stacked back.

    The learned kinds take this path: a BLAS matrix product's bits for
    one row depend on how many rows share the call, so the model sees
    one point set per call, as it would for a lone set.
    """
    lead = xs.shape[:-2]
    sets = xs.reshape(-1, *xs.shape[-2:])
    others = [r.reshape(-1, *r.shape[len(lead):]) for r in rest]
    outs = [fn(s, *(r[i] for r in others), **kwargs) for i, s in enumerate(sets)]
    return np.stack(outs).reshape(*lead, *outs[0].shape)


def pairwise_kernel(
    xs: np.ndarray, kind: str, model: "SiameseModel | None" = None
) -> np.ndarray:
    """Symmetric nonnegative similarity matrix over the rows of ``xs``.

    cosine entries are (cos + 1) / 2; neg_euclidean entries are
    maxD - D with D the squared Euclidean distance over this same set;
    learned entries come from the model and the diagonal uses the model's
    own self-similarity.

    ``xs`` may carry leading batch axes: (..., c, f) gives (..., c, c),
    one kernel per stacked point set. Each kernel has the same bits as a
    call on its point set alone: numpy hands every matrix of a stack to
    the BLAS routine a lone matrix gets, and the learned model runs one
    point set at a time.
    """
    xs = _check_features(xs)
    if kind == "cosine":
        unit = _unit_rows(xs)
        k = (unit @ _t(unit) + 1.0) / 2.0
        return (k + _t(k)) / 2.0
    if kind == "neg_euclidean":
        sq = np.sum(xs * xs, axis=-1)
        d = sq[..., :, None] + sq[..., None, :] - 2.0 * (xs @ _t(xs))
        np.maximum(d, 0.0, out=d)
        d = (d + _t(d)) / 2.0
        diag = np.arange(d.shape[-1])
        d[..., diag, diag] = 0.0
        return d.max(axis=(-2, -1), keepdims=True) - d
    if kind == "learned":
        if model is None:
            raise ValueError("learned kernel requires a model")
        if xs.ndim > 2:
            return _one_at_a_time(pairwise_kernel, xs, kind=kind, model=model)
        n = xs.shape[0]
        iu, ju = np.triu_indices(n)
        vals = predict_pairs(model, xs[iu], xs[ju])
        k = np.zeros((n, n))
        k[iu, ju] = vals
        k[ju, iu] = vals
        return k
    raise ValueError(f"unknown similarity kind: {kind!r}")


def similarity_row(
    xs: np.ndarray,
    x_t: np.ndarray,
    kind: str,
    model: "SiameseModel | None" = None,
) -> np.ndarray:
    """Similarity of each row of ``xs`` to the single target ``x_t``.

    Uses the same conventions as :func:`pairwise_kernel`; for
    neg_euclidean the max-shift is taken over this row's distances.
    Leading batch axes score a stack of rows at once: ``xs`` of shape
    (..., d, f) against ``x_t`` of shape (..., f) gives (..., d), each
    row with the bits of a call on that row alone.
    """
    xs = _check_features(xs)
    x_t = np.asarray(x_t, dtype=np.float64)
    if not np.all(np.isfinite(x_t)):
        raise ValueError("non-finite feature value")
    if kind == "cosine":
        unit = _unit_rows(xs)
        col = x_t[..., :, None]
        # a (1, f) @ (f, 1) product is the dot product np.linalg.norm takes
        nt = np.sqrt(_t(col) @ col)[..., 0]
        ut = np.where(nt > 0.0, x_t / np.where(nt > 0.0, nt, 1.0), 0.0)
        return ((unit @ ut[..., :, None])[..., 0] + 1.0) / 2.0
    if kind == "neg_euclidean":
        diff = xs - x_t[..., None, :]
        d = np.sum(diff * diff, axis=-1)
        return d.max(axis=-1, keepdims=True) - d
    if kind == "learned":
        if model is None:
            raise ValueError("learned similarity requires a model")
        if xs.ndim > 2:
            return _one_at_a_time(similarity_row, xs, x_t, kind=kind, model=model)
        tiled = np.broadcast_to(x_t, xs.shape)
        return predict_pairs(model, xs, tiled)
    raise ValueError(f"unknown similarity kind: {kind!r}")


@dataclass
class SiameseModel:
    """Shared-tower pair regressor.

    Both inputs pass through the same two relu layers (``tower``); the
    combined vector (|x1 - x2| next to x1 * x2) feeds one sigmoid output
    unit (``head``). The absolute difference makes the score symmetric
    in its arguments, which a similarity has to be.
    """

    tower: nn.DenseNet
    head: nn.DenseNet

    @property
    def feature_dim(self) -> int:
        return self.tower.in_dim

    def parameters(self) -> list[np.ndarray]:
        return self.tower.parameters() + self.head.parameters()

    def validate(self) -> None:
        """Raise ValueError unless every parameter is finite."""
        if not all(np.all(np.isfinite(p)) for p in self.parameters()):
            raise ValueError("every parameter must be finite")


def new_siamese(
    f: int, h1: int, h2: int, rng: np.random.Generator
) -> SiameseModel:
    tower = nn.glorot_net([f, h1, h2], ["relu", "relu"], rng)
    head = nn.glorot_net([2 * h2, 1], ["sigmoid"], rng)
    return SiameseModel(tower=tower, head=head)


def predict_pairs(
    model: SiameseModel, x1: np.ndarray, x2: np.ndarray
) -> np.ndarray:
    """Model score in (0, 1) for each aligned row pair."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise ValueError(f"pair shapes differ: {x1.shape} vs {x2.shape}")
    e1, _ = nn.forward(model.tower, x1)
    e2, _ = nn.forward(model.tower, x2)
    combined = np.concatenate([np.abs(e1 - e2), e1 * e2], axis=1)
    out, _ = nn.forward(model.head, combined)
    return out[:, 0]


def pair_loss_and_grads(
    model: SiameseModel,
    x1: np.ndarray,
    x2: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """MSE loss on a pair batch plus gradients for model.parameters().

    Backprop runs through the head, splits at the (|e1 - e2|, e1 * e2)
    combiner, then accumulates both tower passes into one gradient set
    (the towers share weights).
    """
    e1, cache1 = nn.forward(model.tower, x1)
    e2, cache2 = nn.forward(model.tower, x2)
    diff = e1 - e2
    combined = np.concatenate([np.abs(diff), e1 * e2], axis=1)
    out, cache_h = nn.forward(model.head, combined)
    loss, dout = nn.mse(out[:, 0], targets)

    head_grads, dcombined = nn.backward(model.head, cache_h, dout[:, None])
    h2 = e1.shape[1]
    d_abs = dcombined[:, :h2]
    d_mul = dcombined[:, h2:]
    sgn = np.sign(diff)  # subgradient 0 where e1 == e2
    de1 = d_abs * sgn + d_mul * e2
    de2 = -d_abs * sgn + d_mul * e1
    tg1, _ = nn.backward(model.tower, cache1, de1)
    tg2, _ = nn.backward(model.tower, cache2, de2)

    grads: list[np.ndarray] = []
    for (dw1, db1), (dw2, db2) in zip(tg1, tg2):
        grads.extend([dw1 + dw2, db1 + db2])
    for dw, db in head_grads:
        grads.extend([dw, db])
    return loss, grads


@dataclass
class SiameseConfig:
    h1: int = 256
    h2: int = 256
    batch_pairs: int = 10000
    epochs: int = 200
    lr: float = 1e-3
    seed: int = 0
    # stop once the mean loss over the trailing plateau_window epochs
    # has not improved (relatively by plateau_rel) for a full window;
    # the window mean smooths draw-to-draw batch noise
    plateau_window: int = 10
    plateau_rel: float = 1e-5


def _induced_train_edges(
    g: Graph, train_nodes: np.ndarray
) -> np.ndarray:
    """Distinct unordered edges with both endpoints in the training set."""
    in_train = np.zeros(g.n, dtype=bool)
    in_train[train_nodes] = True
    pairs = g.edge_array()
    src, dst = pairs[:, 0], pairs[:, 1]
    keep = in_train[src] & in_train[dst] & (src < dst)
    return np.stack([src[keep], dst[keep]], axis=1)


def _same_class_pairs(
    train_nodes: np.ndarray, y: np.ndarray
) -> list[np.ndarray]:
    groups = []
    for k in np.unique(y[train_nodes]):
        members = train_nodes[y[train_nodes] == k]
        if members.size >= 2:
            groups.append(members)
    return groups


def train_similarity(
    g: Graph,
    x: np.ndarray,
    y: np.ndarray,
    cfg: SiameseConfig,
    train_nodes: np.ndarray | None = None,
) -> tuple[SiameseModel, list[float]]:
    """Fit the pair regressor on the training split of one graph.

    Every batch holds equal numbers of positive-candidate pairs (edges
    inside the training split; if the split has none, uniformly drawn
    same-class training pairs) and random non-edge training pairs. The
    regression target for every pair is the label-match indicator.
    Returns the model and the per-epoch loss history; divergence (a
    non-finite gradient) raises ValueError.
    """
    if cfg.epochs < 1:
        raise ValueError("epochs must be positive")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.n:
        raise ValueError("need one feature row per node")
    y = np.asarray(y)
    if train_nodes is None:
        train_nodes = np.arange(g.n)
    train_nodes = np.unique(np.asarray(train_nodes, dtype=np.int64))
    if train_nodes.size < 2:
        raise ValueError("need at least two training nodes")
    # only rows the sampler can touch need to be finite
    if not np.all(np.isfinite(x[train_nodes])):
        raise ValueError("non-finite feature value in training rows")

    edges = _induced_train_edges(g, train_nodes)
    groups = _same_class_pairs(train_nodes, y)
    if edges.shape[0] == 0 and not groups:
        raise ValueError(
            "training split has no edges and no same-class pair to fall back on"
        )

    rng = np.random.default_rng(cfg.seed)
    model = new_siamese(x.shape[1], cfg.h1, cfg.h2, rng)
    state = nn.AdamState.for_params(model.parameters(), lr=cfg.lr)

    half = max(1, cfg.batch_pairs // 2)
    # CSR rows are sorted by target, so these keys are sorted graph-wide
    pairs = g.edge_array()
    edge_keys = pairs[:, 0] * g.n + pairs[:, 1]

    def draw_edge_pairs() -> tuple[np.ndarray, np.ndarray]:
        if edges.shape[0] > 0:
            idx = rng.integers(0, edges.shape[0], size=half)
            return edges[idx, 0], edges[idx, 1]
        picks_u = np.empty(half, dtype=np.int64)
        picks_v = np.empty(half, dtype=np.int64)
        which = rng.integers(0, len(groups), size=half)
        for i, gi in enumerate(which):
            u, v = rng.choice(groups[gi], size=2, replace=False)
            picks_u[i], picks_v[i] = u, v
        return picks_u, picks_v

    def draw_non_edges() -> tuple[np.ndarray, np.ndarray]:
        us = np.empty(half, dtype=np.int64)
        vs = np.empty(half, dtype=np.int64)
        filled = 0
        attempts = 0
        while filled < half:
            attempts += 1
            if attempts > 1000:
                # dense training split: fall back to arbitrary pairs
                cand = rng.choice(train_nodes, size=(half - filled, 2))
                us[filled:], vs[filled:] = cand[:, 0], cand[:, 1]
                break
            m = half - filled
            cu = rng.choice(train_nodes, size=m)
            cv = rng.choice(train_nodes, size=m)
            ok = cu != cv
            if edge_keys.size:
                keys = cu * g.n + cv
                at = np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)
                ok &= edge_keys[at] != keys
            k = int(ok.sum())
            us[filled : filled + k] = cu[ok]
            vs[filled : filled + k] = cv[ok]
            filled += k
        return us, vs

    history: list[float] = []
    best_window = np.inf
    since_best = 0
    for _ in range(cfg.epochs):
        eu, ev = draw_edge_pairs()
        nu, nv = draw_non_edges()
        us = np.concatenate([eu, nu])
        vs = np.concatenate([ev, nv])
        targets = (y[us] == y[vs]).astype(np.float64)
        loss, grads = pair_loss_and_grads(model, x[us], x[vs], targets)
        try:
            nn.adam_step(state, model.parameters(), grads)
        except FloatingPointError as exc:
            raise ValueError(f"similarity training diverged: {exc}") from None
        history.append(loss)
        if len(history) >= cfg.plateau_window:
            window = float(np.mean(history[-cfg.plateau_window :]))
            if window < best_window * (1.0 - cfg.plateau_rel):
                best_window = window
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.plateau_window:
                    break
    return model, history


def save_similarity_model(path: str, model: SiameseModel) -> None:
    """Write AGSM v1 (dims header, f64 arrays); nothing for a model ``validate`` rejects."""
    _checked(model, "similarity model not written")
    f = model.tower.layers[0].w.shape[1]
    h1 = model.tower.layers[0].w.shape[0]
    h2 = model.tower.layers[1].w.shape[0]
    arrays = [("<f8", p) for p in model.parameters()]
    _write_frame(path, _MODEL_HEADER, (MODEL_MAGIC, MODEL_VERSION, f, h1, h2), arrays)


def _model_layout(f, h1, h2):
    return [("<f8", np.float64, s) for s in [(h1, f), (h1,), (h2, h1), (h2,), (1, 2 * h2), (1,)]]


def load_similarity_model(path: str) -> SiameseModel:
    _, (w0, b0, w1, b1, w2, b2) = _read_frame(
        path, "similarity model", MODEL_MAGIC, MODEL_VERSION, _MODEL_HEADER, _model_layout
    )
    tower = nn.DenseNet([nn.DenseLayer(w0, b0, "relu"), nn.DenseLayer(w1, b1, "relu")])
    head = nn.DenseNet([nn.DenseLayer(w2, b2, "sigmoid")])
    return _checked(SiameseModel(tower=tower, head=head), "corrupt similarity model")
