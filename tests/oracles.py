"""Independent numeric oracles shared across test modules.

These deliberately avoid the library's own code paths: gradient checks
difference the loss directly, so an error in the hand-written backprop
cannot hide in the oracle.
"""

import numpy as np


def central_difference_grads(loss_fn, params, eps=1e-6):
    """Numeric dL/dp for every entry of every array in ``params``.

    ``loss_fn`` takes no arguments and must recompute the loss from the
    current (mutated) parameter values. Entries are perturbed in place
    and restored exactly.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = loss_fn()
            flat[idx] = orig - eps
            lo = loss_fn()
            flat[idx] = orig
            gflat[idx] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    """max |a - n| / max(|a|, |n|, floor) over all paired entries."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# ------------------------------------------------------------- samplers
#
# Per-vertex Python loops, the way the samplers drew and materialised
# before frontier-wide draws. They share only data accessors
# (``RankTable.row``, ``from_edges``) with the library.


def sample_neighbors_one(rt, u, k, replace, rng):
    """k draws from u's row: inverse CDF with replacement, else min(k, d)
    distinct neighbours by exponential keys."""
    ids, probs = rt.row(u)
    d = ids.shape[0]
    if k == 0 or d == 0:
        return np.zeros(0, dtype=np.int64)
    if replace:
        idx = np.searchsorted(np.cumsum(probs), rng.random(k), side="right")
        return ids[np.minimum(idx, d - 1)]
    keys = -np.log(rng.random(d)) / probs
    return ids[np.argsort(keys, kind="stable")[: min(k, d)]]


def sample_frontier_loop(rt, frontier, k, replace, rng):
    """(which, picks) for a frontier, one vertex at a time."""
    which, picks = [], []
    for i, u in enumerate(frontier):
        got = sample_neighbors_one(rt, int(u), k, replace, rng)
        which += [i] * got.size
        picks += got.tolist()
    return np.asarray(which, dtype=np.int64), np.asarray(picks, dtype=np.int64)


def walk_edges_loop(rt, seeds, steps, rng):
    """Edges of one walk per seed, walked seed by seed, step by step."""
    edges = []
    for s in seeds:
        cur = int(s)
        for _ in range(steps):
            picks = sample_neighbors_one(rt, cur, 1, True, rng)
            if picks.size == 0:
                break
            edges.append((cur, int(picks[0])))
            cur = int(picks[0])
    return edges


def build_subgraph_dict(g, seeds, edges, layers=None):
    """Subgraph fields by a dict remap of global to local ids, edge by edge.

    Returns (parent_ids, local CSR graph, seed_mask, local layers or None).
    """
    from ags.graph import from_edges

    seeds = np.asarray(list(seeds), dtype=np.int64)
    edge_arr = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    node_ids = np.unique(np.concatenate([seeds, edge_arr.ravel()]))
    local_of = {int(gid): i for i, gid in enumerate(node_ids)}
    lsrc = [local_of[int(u)] for u in edge_arr[:, 0]]
    ldst = [local_of[int(v)] for v in edge_arr[:, 1]]
    local = from_edges(len(node_ids), lsrc, ldst, directed=True)
    seed_mask = np.zeros(len(node_ids), dtype=bool)
    for s in seeds:
        seed_mask[local_of[int(s)]] = True
    local_layers = None
    if layers is not None:
        local_layers = tuple(
            np.asarray(
                [(local_of[int(u)], local_of[int(v)]) for u, v in layer],
                dtype=np.int64,
            ).reshape(-1, 2)
            for layer in layers
        )
    return node_ids, local, seed_mask, local_layers


def edge_weights_dict(g, rt):
    """Each directed edge's PMF mass, looked up row by row through a dict."""
    w = np.zeros(g.m, dtype=np.float64)
    for u in range(g.n):
        lo, hi = int(g.offsets[u]), int(g.offsets[u + 1])
        ids, probs = rt.row(u)
        pos = {int(v): i for i, v in enumerate(ids)}
        w[lo:hi] = probs[[pos[int(v)] for v in g.targets[lo:hi]]]
    return w


# ---------------------------------------------------------- aggregation


def mean_aggregate_add_at(g, h):
    """Mean of each node's out-neighbour rows of h, scattered by np.add.at."""
    counts = np.diff(g.offsets).astype(np.float64)
    src = np.repeat(np.arange(g.n), np.diff(g.offsets))
    agg = np.zeros_like(h)
    np.add.at(agg, src, h[g.targets])
    nz = counts > 0.0
    agg[nz] /= counts[nz, None]
    return agg


def mean_aggregate_grad_add_at(g, d_agg):
    """d(loss)/dh given d(loss)/d(mean aggregate), scattered by np.add.at."""
    counts = np.diff(g.offsets).astype(np.float64)
    src = np.repeat(np.arange(g.n), np.diff(g.offsets))
    d_h = np.zeros_like(d_agg)
    np.add.at(d_h, g.targets, d_agg[src] / counts[src, None])
    return d_h


def forward_channel_whole(layers, sub, x):
    """Seed embeddings with every layer computed on every subgraph node.

    Returns (seed rows, per-layer (h, agg, z) over the whole subgraph).
    """
    g = sub.graph
    h = np.asarray(x, dtype=np.float64)[sub.parent_ids]
    cache = []
    for layer in layers:
        agg = mean_aggregate_add_at(g, h)
        z = h @ layer.w_self.T + agg @ layer.w_neigh.T + layer.b
        cache.append((h, agg, z))
        h = np.maximum(z, 0.0)
    return h[sub.seeds_local()], cache


def backward_channel_whole(layers, sub, cache, d_seeds):
    """Per-layer (dW_self, dW_neigh, db) by backpropagating over every node."""
    d_h = np.zeros((sub.n, d_seeds.shape[1]))
    d_h[sub.seeds_local()] = d_seeds
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        h_in, agg, z = cache[i]
        dz = d_h * (z > 0.0)
        grads[i] = (dz.T @ h_in, dz.T @ agg, dz.sum(axis=0))
        d_h = dz @ layers[i].w_self + mean_aggregate_grad_add_at(
            sub.graph, dz @ layers[i].w_neigh
        )
    return grads


# -------------------------------------------------------------- ranking
#
# Row-by-row loops, the way tables were ranked before degree groups:
# one similarity_row call or one lazy_greedy run per vertex.


def similar_rows_loop(g, x, sim, model=None):
    """Similarity-ranked ids of every row: descending score, then id."""
    from ags.similarity import similarity_row

    out = np.empty(g.m, dtype=np.int64)
    for u in range(g.n):
        nbrs = g.neighbors(u)
        if nbrs.shape[0] == 0:
            continue
        scores = similarity_row(x[nbrs], x[u], sim, model)
        out[g.offsets[u] : g.offsets[u + 1]] = nbrs[np.lexsort((nbrs, -scores))]
    return out


def diverse_rows_loop(g, x, sim, fn_kind, model=None, lam=2.0, greedy=None):
    """Greedy-ranked ids of every row, one egonet at a time.

    The ego anchors the selection as the initial set; a self-loop goes
    last. ``greedy`` defaults to the library's lazy_greedy.
    """
    from ags.ranking import SubmodularFn, lazy_greedy
    from ags.similarity import pairwise_kernel

    greedy = greedy or lazy_greedy
    out = np.empty(g.m, dtype=np.int64)
    for u in range(g.n):
        nbrs = g.neighbors(u)
        if nbrs.shape[0] == 0:
            continue
        others = nbrs[nbrs != u]
        a_ids = np.concatenate([others, [u]])
        if fn_kind in ("facility_location", "graph_cut"):
            kernel = pairwise_kernel(x[a_ids], sim, model)
            fn = SubmodularFn(kind=fn_kind, kernel=kernel, lam=lam)
        else:
            fn = SubmodularFn(kind=fn_kind, features=x[a_ids], lam=lam)
        order, _ = greedy(range(a_ids.shape[0]), {others.shape[0]}, fn)
        ranked = a_ids[np.asarray(order, dtype=np.int64)]
        if others.shape[0] != nbrs.shape[0]:
            ranked = np.concatenate([ranked, [u]])
        out[g.offsets[u] : g.offsets[u + 1]] = ranked
    return out


def naive_state_greedy(ground, initial, fn):
    """Greedy that re-evaluates every remaining candidate at every step.

    Gains come from the library's incremental states, one candidate per
    call, so they carry the same float bits as lazy_greedy's; ties go to
    the smallest id.
    """
    from ags.ranking import _make_state

    state = _make_state(fn)
    chosen = sorted(set(initial))
    for v in chosen:
        state.add(v)
    remaining = sorted(set(ground) - set(chosen))
    order = []
    while remaining:
        gains = [float(state.gains(slice(v, v + 1))[0]) for v in remaining]
        best = remaining[int(np.argmax(gains))]
        order.append(best)
        remaining.remove(best)
        state.add(best)
    return order, None


def probs_loop(g, spec):
    """Every entry's PMF mass, one pmf_from_ranks call per row."""
    from ags.ranking import pmf_from_ranks

    probs = np.empty(g.m, dtype=np.float64)
    for u in range(g.n):
        lo, hi = int(g.offsets[u]), int(g.offsets[u + 1])
        if hi > lo:
            probs[lo:hi] = pmf_from_ranks(hi - lo, spec)
    return probs
