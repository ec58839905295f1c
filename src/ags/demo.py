"""Desk-scale dual-channel neighborhood-sampled node classifier.

Each channel runs mean-aggregation message passing over the edges drawn
from its own rank table; the seed representations of the channels are
combined (concatenation into a linear head, or a gated skip mix) into class
logits. A channel's layer blocks come straight from its draws
(:func:`sample_blocks`): no subgraph is built. Forward, backward, and the
training loop are explicit so every gradient can be checked against
finite differences.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _number_sample, num_classes
from .nn import AdamState, adam_step, micro_f1, softmax_cross_entropy
from .sampling import _as_tables, khop_draws, rng_for

COMBINERS = ("concat_mlp", "skip")

# spawn_key namespaces for this module's derived rng streams (sampling tags
# live with their call sites; synth owns 9)
_INIT_STREAM = 20
_BATCH_STREAM = 21
_SHUFFLE_STREAM = 22
_VAL_STREAM = 23
_SPLIT_STREAM = 24
_EVAL_STREAM = 25


@dataclass
class SageLayer:
    """One message-passing layer: h' = relu(W_self h + W_neigh mean + b)."""

    w_self: np.ndarray
    w_neigh: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 64
    fanouts: tuple[int, ...] = (8, 4)
    batch_size: int = 256
    epochs: int = 250
    lr: float = 1e-3
    combiner: str = "concat_mlp"
    window: int = 5
    threshold: float = 1e-4
    mc_samples: int = 3
    seed: int = 0
    replace: bool = False

    def __post_init__(self) -> None:
        if self.hidden < 1:
            raise ValueError("hidden width must be positive")
        fans = tuple(int(f) for f in self.fanouts)
        object.__setattr__(self, "fanouts", fans)
        if not fans or any(f < 1 for f in fans):
            raise ValueError("fanouts must be positive, one per layer")
        if not (1 <= self.epochs <= 250):
            raise ValueError("epochs must be in 1..250")
        if self.batch_size < 1 or self.mc_samples < 1:
            raise ValueError("batch size and mc_samples must be positive")
        # chained comparisons are False for NaN, so NaN fails here too
        if not (0.0 < self.lr < np.inf and 0.0 < self.threshold < np.inf):
            raise ValueError(
                f"lr and threshold must be positive and finite, "
                f"got lr={self.lr!r}, threshold={self.threshold!r}"
            )
        if self.window < 2:
            raise ValueError("convergence window must span several epochs")
        if self.combiner not in COMBINERS:
            raise ValueError(f"unknown combiner: {self.combiner!r}")


@dataclass
class DemoModel:
    """Per-channel layer stacks plus the combiner and classification head."""

    channels: list[list[SageLayer]]
    combiner: str
    skip: tuple[np.ndarray, np.ndarray] | None
    head: tuple[np.ndarray, np.ndarray]

    def parameters(self) -> list[np.ndarray]:
        ps: list[np.ndarray] = []
        for layers in self.channels:
            for layer in layers:
                ps += [layer.w_self, layer.w_neigh, layer.b]
        if self.skip is not None:
            ps += [self.skip[0], self.skip[1]]
        ps += [self.head[0], self.head[1]]
        return ps


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def new_model(
    in_dim: int,
    hidden: int,
    n_classes: int,
    n_channels: int,
    n_layers: int,
    combiner: str,
    rng: np.random.Generator,
) -> DemoModel:
    if n_channels not in (1, 2):
        raise ValueError("channel count must be 1 or 2")
    if combiner not in COMBINERS:
        raise ValueError(f"unknown combiner: {combiner!r}")
    channels = []
    for _ in range(n_channels):
        dims = [in_dim] + [hidden] * n_layers
        layers = [
            SageLayer(
                w_self=_glorot(rng, dims[i + 1], dims[i]),
                w_neigh=_glorot(rng, dims[i + 1], dims[i]),
                b=np.zeros(dims[i + 1]),
            )
            for i in range(n_layers)
        ]
        channels.append(layers)
    skip = None
    head_in = hidden
    if n_channels == 2:
        if combiner == "skip":
            skip = (_glorot(rng, hidden, 2 * hidden), np.zeros(hidden))
        else:
            head_in = 2 * hidden
    head = (_glorot(rng, n_classes, head_in), np.zeros(n_classes))
    return DemoModel(channels=channels, combiner=combiner, skip=skip, head=head)


def _segment_sum(x: np.ndarray, src: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """(lens.size, w) array whose row r sums ``x[src[e]]`` over row r's entries.

    ``src`` lists the entries row by row, ``lens[r]`` of them for row r.
    Every row adds its entries in order, starting from 0.0. The rows go
    in lockstep, ordered by count, descending: step j adds the j-th
    entry of the first k rows, those with more than j entries. Once
    fewer rows are live than steps remain, ``_finish_rows`` adds the
    live rows' remaining entries, so a long row costs no loop per entry.
    """
    n = lens.size
    acc = np.zeros((n, x.shape[1]))
    if src.size == 0:
        return acc
    order = np.argsort(-lens)
    first = (np.cumsum(lens) - lens)[order]
    live = n - np.cumsum(np.bincount(lens))[:-1]  # rows with more than j entries
    for j, k in enumerate(live.tolist()):
        if k < live.size - j:
            acc[:k] = _finish_rows(x, src, acc[:k], first[:k] + j, lens[order[:k]] - j)
            break
        acc[:k] += x[src[first[:k] + j]]
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _finish_rows(x, src, partial, start, rest) -> np.ndarray:
    """Row r of ``partial`` plus ``x[src[start[r] + t]]`` for t < rest[r].

    One bincount over (row, column) cells. It adds a cell's weights in
    the order they are listed, from 0.0: the partial sum first, then the
    row's remaining entries in order, as the lockstep would.
    """
    k, w = partial.shape
    size = rest + 1
    item_row = np.repeat(np.arange(k), size)
    t = np.arange(item_row.size) - (np.cumsum(size) - size)[item_row]  # 0: the partial sum
    entry = t > 0
    vals = np.empty((item_row.size, w))
    vals[~entry] = partial
    vals[entry] = x[src[(start[item_row] + t - 1)[entry]]]
    cells = item_row[:, None] * w + np.arange(w)
    return np.bincount(cells.ravel(), weights=vals.ravel(), minlength=k * w).reshape(k, w)


@dataclass(frozen=True)
class Block:
    """The part of a channel's sampled edges one layer computes.

    The layer reads its input h on a node set R_in and computes its output
    on ``rows``, ascending node ids with ``rows`` a subset of R_in.
    ``self_at`` holds each row's position in R_in. ``take`` and ``seg``
    list the rows' sampled out-edges in CSR order: the position in R_in of
    each edge's target and the index in ``rows`` of its source.
    ``lens`` is each row's out-degree and ``denom`` the same, 1 where it
    has none.
    """

    rows: np.ndarray
    self_at: np.ndarray
    take: np.ndarray
    seg: np.ndarray
    lens: np.ndarray
    denom: np.ndarray


def receptive_blocks(g: Graph, seeds: np.ndarray, n_layers: int) -> tuple[np.ndarray, list[Block]]:
    """Input rows R_0 and one block per layer, bottom layer first.

    The top layer computes the seeds. Each layer below computes the rows
    the layer above reads: those rows plus their out-neighbours in ``g``.
    So layer i computes the seeds' (n_layers - 1 - i)-hop out-neighbourhood.
    """
    rows = np.asarray(seeds, dtype=np.int64)
    blocks: list[Block] = []
    for _ in range(n_layers):
        lo = g.offsets[rows]
        lens = g.offsets[rows + 1] - lo
        seg = np.repeat(np.arange(rows.size), lens)
        edges = np.arange(seg.size) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
        targets = g.targets[edges]
        member = np.zeros(g.n, dtype=bool)
        member[rows] = True
        member[targets] = True
        at = np.cumsum(member) - 1  # position within the layer's input rows
        blocks.append(
            Block(rows, at[rows], at[targets], seg, lens, np.maximum(lens, 1).astype(np.float64))
        )
        rows = np.flatnonzero(member)
    blocks.reverse()
    return rows, blocks


def sample_blocks(
    g: Graph,
    tables,
    seeds,
    fanouts,
    rng: np.random.Generator,
    replace: bool = False,
) -> list[tuple[np.ndarray, list[Block]]]:
    """One channel per table: its input ids and one block per fanout.

    The draws are :func:`sampling.khop_draws`'s, so they read ``rng`` as
    ``node_sample_khop`` does, and ``graph._number_sample`` numbers and
    merges each channel's draws, as it does ``node_sample_khop``'s. The
    merged graph is expanded from the seeds by :func:`receptive_blocks`,
    and the input ids and each block's ``rows`` are mapped back to
    parent ids; the top block's ``rows`` are the sorted seeds. So every
    block equals the one built on ``node_sample_khop``'s subgraph, with
    parent ids in place of its local ones.
    """
    seed_arr, draws = khop_draws(g, tables, seeds, fanouts, rng, replace)
    channels = []
    for hops in draws:
        ids, local_seeds, _, drawn = _number_sample(g.n, seed_arr, hops)
        inputs, blocks = receptive_blocks(drawn, local_seeds, len(hops))
        channels.append((ids[inputs], [dataclasses.replace(b, rows=ids[b.rows]) for b in blocks]))
    return channels


def forward_channel(
    layers: list[SageLayer], channel, x: np.ndarray, return_cache: bool = False
):
    """Seed embeddings from mean-aggregation message passing on the blocks.

    ``channel`` is one ``(input ids, blocks)`` pair of
    :func:`sample_blocks`. Each layer computes only the nodes the layer
    above reads: the top layer the seeds, the layer below the seeds and
    their sampled out-neighbours, and so on down. A node's aggregate is
    the mean of its sampled out-neighbours, or the zero vector if it has
    none. The cache holds one ``(block, h_in, agg, z)`` per layer: the
    input on the block's input rows, the aggregate and pre-activation on
    its ``rows``.
    """
    inputs, blocks = channel
    if len(blocks) != len(layers):
        raise ValueError(
            f"one block per layer required: {len(blocks)} blocks, {len(layers)} layers"
        )
    h = np.asarray(x, dtype=np.float64)[inputs]
    cache = []
    for layer, blk in zip(layers, blocks):
        if layer.w_self.shape[1] != h.shape[1]:
            raise ValueError(
                f"layer expects width {layer.w_self.shape[1]}, got {h.shape[1]}"
            )
        agg = _segment_sum(h, blk.take, blk.lens) / blk.denom[:, None]
        z = h[blk.self_at] @ layer.w_self.T + agg @ layer.w_neigh.T + layer.b
        cache.append((blk, h, agg, z))
        h = np.maximum(z, 0.0)
    if return_cache:
        return h, cache
    return h


def backward_channel(
    layers: list[SageLayer], cache, d_seeds: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-layer (dW_self, dW_neigh, db) for a cached channel forward.

    Walks the forward's blocks top-down, so each layer's gradient covers
    only the rows that layer computed. The bottom layer stops at its weight
    gradients: nothing needs the gradient of the input features.
    """
    grads: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None]
    grads = [None] * len(layers)
    d_h = d_seeds
    for i in range(len(layers) - 1, -1, -1):
        blk, h_in, agg, z = cache[i]
        dz = d_h * (z > 0.0)
        grads[i] = (dz.T @ h_in[blk.self_at], dz.T @ agg, dz.sum(axis=0))
        if i == 0:
            break
        # each edge passes back its share of the mean, summed per input row
        # in edge order: one sort of take * E + edge groups the edges
        d_agg = (dz @ layers[i].w_neigh) / blk.denom[:, None]
        n_edges = blk.take.size
        edge = np.sort(blk.take * n_edges + np.arange(n_edges)) % n_edges
        in_lens = np.bincount(blk.take, minlength=h_in.shape[0])
        d_h = _segment_sum(d_agg, blk.seg[edge], in_lens)
        d_h[blk.self_at] += dz @ layers[i].w_self
    return grads  # type: ignore[return-value]


def forward_dual(
    model: DemoModel,
    channels,
    x: np.ndarray,
    return_cache: bool = False,
):
    """Class logits for the seeds of the per-channel (input ids, blocks)."""
    if len(channels) != len(model.channels):
        raise ValueError("one block set per channel required")
    hs, caches = [], []
    for layers, channel in zip(model.channels, channels):
        h, c = forward_channel(layers, channel, x, return_cache=True)
        hs.append(h)
        caches.append(c)
    skip_cache = None
    if len(hs) == 1:
        feat = hs[0]
    else:
        if hs[0].shape != hs[1].shape:
            raise ValueError("channel embedding widths differ")
        cat = np.concatenate(hs, axis=1)
        if model.combiner == "skip":
            w_s, b_s = model.skip
            z = cat @ w_s.T + b_s + hs[0] + hs[1]
            feat = np.maximum(z, 0.0)
            skip_cache = (cat, z)
        else:
            feat = cat
    w_o, b_o = model.head
    if w_o.shape[1] != feat.shape[1]:
        raise ValueError("head width does not match combined embedding")
    logits = feat @ w_o.T + b_o
    if return_cache:
        return logits, (caches, hs, feat, skip_cache)
    return logits


def backward_dual(
    model: DemoModel, channels, cache, dlogits: np.ndarray
) -> list[np.ndarray]:
    """Gradients aligned with ``model.parameters()`` order.

    ``channels`` are the ones :func:`forward_dual` was given; the blocks
    it reads come from ``cache``.
    """
    caches, hs, feat, skip_cache = cache
    w_o, _ = model.head
    d_head_w = dlogits.T @ feat
    d_head_b = dlogits.sum(axis=0)
    d_feat = dlogits @ w_o
    d_skip = None
    if len(hs) == 1:
        d_hs = [d_feat]
    elif model.combiner == "skip":
        cat, z = skip_cache
        dz = d_feat * (z > 0.0)
        w_s, _ = model.skip
        d_skip = (dz.T @ cat, dz.sum(axis=0))
        d_cat = dz @ w_s
        width = hs[0].shape[1]
        d_hs = [d_cat[:, :width] + dz, d_cat[:, width:] + dz]
    else:
        width = hs[0].shape[1]
        d_hs = [d_feat[:, :width], d_feat[:, width:]]
    grads: list[np.ndarray] = []
    for layers, ch_cache, d_h in zip(model.channels, caches, d_hs):
        for dw_self, dw_neigh, db in backward_channel(layers, ch_cache, d_h):
            grads += [dw_self, dw_neigh, db]
    if d_skip is not None:
        grads += [d_skip[0], d_skip[1]]
    grads += [d_head_w, d_head_b]
    return grads


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict_proba(
    model: DemoModel,
    g: Graph,
    x: np.ndarray,
    tables,
    nodes,
    fanouts,
    rng: np.random.Generator,
    mc_samples: int = 3,
    replace: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean class probabilities over freshly sampled neighborhoods.

    Returns (nodes, probs) with nodes sorted ascending; probabilities are
    averaged over ``mc_samples`` independent neighborhood draws.
    """
    tables = _as_tables(tables)
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if nodes.size == 0:
        raise ValueError("empty node set")
    probs = None
    for _ in range(mc_samples):
        channels = sample_blocks(g, tables, nodes, fanouts, rng, replace=replace)
        logits = forward_dual(model, channels, x)
        p = _softmax(logits)
        probs = p if probs is None else probs + p
    return nodes, probs / mc_samples


def evaluate(
    model: DemoModel,
    g: Graph,
    x: np.ndarray,
    y: np.ndarray,
    tables,
    split,
    fanouts=(8, 4),
    rng: np.random.Generator | None = None,
    mc_samples: int = 3,
    replace: bool = False,
) -> float:
    """Micro-F1 of the model over a node split using sampled inference."""
    if rng is None:
        rng = rng_for(0, _EVAL_STREAM)
    nodes, probs = predict_proba(
        model, g, x, tables, split, fanouts, rng, mc_samples, replace
    )
    preds = probs.argmax(axis=1)
    return micro_f1(preds, np.asarray(y)[nodes])


def make_split(
    n: int, rng: np.random.Generator, fractions=(0.6, 0.2, 0.2)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint sorted train/val/test node id arrays covering 0..n-1."""
    if abs(sum(fractions) - 1.0) > 1e-9 or len(fractions) != 3:
        raise ValueError("fractions must be three parts summing to 1")
    perm = rng.permutation(n)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    train = np.sort(perm[:n_train])
    val = np.sort(perm[n_train : n_train + n_val])
    test = np.sort(perm[n_train + n_val :])
    if min(train.size, val.size, test.size) == 0:
        raise ValueError("split produced an empty part")
    return train, val, test


def _converged(losses: list[float], window: int, threshold: float) -> bool:
    if len(losses) < window:
        return False
    return float(np.std(losses[-window:])) < threshold


def _snapshot(params: list[np.ndarray]) -> list[np.ndarray]:
    return [p.copy() for p in params]


def _restore(params: list[np.ndarray], snap: list[np.ndarray]) -> None:
    for p, s in zip(params, snap):
        p[...] = s


def train(
    g: Graph,
    x: np.ndarray,
    y: np.ndarray,
    tables,
    cfg: TrainConfig,
    split=None,
) -> tuple[DemoModel, dict]:
    """Minibatch training with per-epoch resampled neighborhoods.

    Stops when the epoch-loss window goes flat (std below the threshold)
    or at the epoch cap; returns the parameters that scored the best
    validation micro-F1.  A non-finite loss or gradient aborts the loop
    and the best checkpoint so far is restored.
    """
    tables = _as_tables(tables)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != g.n or y.shape != (g.n,):
        raise ValueError("features/labels do not match the graph")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature value")
    if split is None:
        split = make_split(g.n, rng_for(cfg.seed, _SPLIT_STREAM))
    train_ids, val_ids, _ = split
    train_ids = np.asarray(train_ids, dtype=np.int64)
    if train_ids.size == 0 or np.asarray(val_ids).size == 0:
        raise ValueError("empty train or validation split")

    model = new_model(
        in_dim=x.shape[1],
        hidden=cfg.hidden,
        n_classes=num_classes(y),
        n_channels=len(tables),
        n_layers=len(cfg.fanouts),
        combiner=cfg.combiner,
        rng=rng_for(cfg.seed, _INIT_STREAM),
    )
    params = model.parameters()
    adam = AdamState.for_params(params, lr=cfg.lr)

    history: dict = {"loss": [], "val_f1": [], "stopped": "epoch_cap", "best_epoch": -1}
    best_f1, best_snap = -1.0, _snapshot(params)

    for epoch in range(cfg.epochs):
        order = rng_for(cfg.seed, _SHUFFLE_STREAM, epoch).permutation(train_ids)
        total_loss, seen = 0.0, 0
        aborted = False
        for b0 in range(0, order.size, cfg.batch_size):
            seeds = order[b0 : b0 + cfg.batch_size]
            rng_b = rng_for(cfg.seed, _BATCH_STREAM, epoch, b0)
            channels = sample_blocks(g, tables, seeds, cfg.fanouts, rng_b, replace=cfg.replace)
            logits, cache = forward_dual(model, channels, x, return_cache=True)
            seed_parents = channels[0][1][-1].rows  # the sorted seeds
            loss, dlogits = softmax_cross_entropy(logits, y[seed_parents])
            if not np.isfinite(loss):
                aborted = True
                break
            grads = backward_dual(model, channels, cache, dlogits)
            try:
                adam_step(adam, params, grads)
            except FloatingPointError:
                aborted = True
                break
            total_loss += loss * seed_parents.size
            seen += seed_parents.size
        if aborted:
            history["stopped"] = "non_finite"
            break
        history["loss"].append(total_loss / seen)
        val_f1 = evaluate(
            model,
            g,
            x,
            y,
            tables,
            val_ids,
            fanouts=cfg.fanouts,
            rng=rng_for(cfg.seed, _VAL_STREAM, epoch),
            mc_samples=1,
            replace=cfg.replace,
        )
        history["val_f1"].append(val_f1)
        if val_f1 > best_f1:
            best_f1 = val_f1
            best_snap = _snapshot(params)
            history["best_epoch"] = epoch
        if _converged(history["loss"], cfg.window, cfg.threshold):
            history["stopped"] = "converged"
            break

    _restore(params, best_snap)
    return model, history
