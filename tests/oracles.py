"""Independent numeric oracles shared across test modules.

These deliberately avoid the library's own code paths: gradient checks
difference the loss directly, so an error in the hand-written backprop
cannot hide in the oracle.
"""

import math

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


def inverse_cdf_search(rt, src, u):
    """Each draw's neighbour by one ``searchsorted`` of u + src into the
    table's whole shifted CDF, clipped to the row: the search every
    with-replacement draw and walk step made before the guide table."""
    pos = np.searchsorted(rt.cdf, u + src, side="right")
    np.clip(pos, rt.offsets[src], rt.offsets[src + 1] - 1, out=pos)
    return rt.ranked_ids[pos]


def sample_frontier_loop(rt, frontier, k, replace, rng):
    """(which, picks) for a frontier, one vertex at a time."""
    which, picks = [], []
    for i, u in enumerate(frontier):
        got = sample_neighbors_one(rt, int(u), k, replace, rng)
        which += [i] * got.size
        picks += got.tolist()
    return np.asarray(which, dtype=np.int64), np.asarray(picks, dtype=np.int64)


def walk_edges_loop(rt, seeds, steps, rng):
    """Edges of one walk per seed, walked seed by seed, step by step.

    A walk whose seed has ranked neighbours owns ``steps`` uniforms,
    drawn before it starts; a dead end stops it and leaves the rest
    unused.
    """
    edges = []
    for s in seeds:
        cur = int(s)
        if rt.offsets[cur + 1] == rt.offsets[cur]:
            continue
        for u in rng.random(steps):
            ids, probs = rt.row(cur)
            if ids.size == 0:
                break
            idx = np.searchsorted(np.cumsum(probs), u, side="right")
            nxt = int(ids[min(idx, ids.size - 1)])
            edges.append((cur, nxt))
            cur = nxt
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


def kruskal_forests(g, edge_weights, k_parts):
    """Disjoint decomposition by a union-find Kruskal loop per forest.

    Canonical edges (u <= v) carry the max weight of both directions.
    Each forest sorts the edges no earlier forest took by (weight desc,
    u asc, v asc) and accepts them one at a time. Returns (forests,
    weights, residual, flags): each forest and the residual as (m, 2)
    pairs in ascending (u, v) order, each weight the sum of the forest's
    weights in acceptance order, floored at k * 1e-3.
    """
    best = {}
    for (a, b), w in zip(g.edge_array().tolist(), edge_weights.tolist()):
        key = (min(a, b), max(a, b))
        best[key] = max(best.get(key, w), w)
    keys = sorted(best)
    us = np.asarray([u for u, _ in keys], dtype=np.int64)
    vs = np.asarray([v for _, v in keys], dtype=np.int64)
    ws = np.asarray([best[e] for e in keys], dtype=np.float64)

    parent = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    remaining = [e for e in range(len(keys)) if us[e] != vs[e]]
    forests, weights, flags, taken = [], [], [], set()
    for _ in range(k_parts):
        if not remaining:
            flags.append(f"exhausted_after={len(forests)}")
            break
        rem = np.asarray(remaining, dtype=np.int64)
        order = rem[np.lexsort((vs[rem], us[rem], -ws[rem]))]
        parent[:] = range(g.n)
        accepted = []
        for e in order.tolist():
            ra, rb = find(int(us[e])), find(int(vs[e]))
            if ra != rb:
                parent[rb] = ra
                accepted.append(e)
        idx = np.asarray(accepted, dtype=np.int64)
        weights.append(max(float(ws[idx].sum()), k_parts * 1e-3))
        forests.append(np.stack([us[np.sort(idx)], vs[np.sort(idx)]], axis=1))
        taken.update(accepted)
        remaining = [e for e in remaining if e not in taken]
    left = np.asarray([e for e in range(len(keys)) if e not in taken], dtype=np.int64)
    return forests, weights, np.stack([us[left], vs[left]], axis=1), flags


# ------------------------------------------------------ stable-sort cores
#
# Merges, orders and row sums built on stable argsorts, bincounts and
# scatters. The library's sort-light versions must match them bit for
# bit.


def from_edges_stable(n, sources, targets, directed=False):
    """(offsets, targets) of the CSR graph: a stable argsort of the keys
    src * n + dst, three gathers, the first of each run of equal keys."""
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    if not directed and src.size:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if src.size:
        keys = src * np.int64(n) + dst
        order = np.argsort(keys, kind="stable")
        keys, src, dst = keys[order], src[order], dst[order]
        first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        src, dst = src[first], dst[first]
    counts = np.bincount(src, minlength=n) if src.size else np.zeros(n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, dst.astype(np.int64)


def validate(g):
    """Raise ValueError unless g is a well-formed CSR graph.

    The message names the first row that does not strictly increase
    and, when undirected, the first edge in CSR order whose reverse
    is missing.
    """
    if g.offsets.shape[0] != g.n + 1:
        raise ValueError("offsets length must be n+1")
    if g.offsets[0] != 0 or g.offsets[-1] != g.m:
        raise ValueError("offsets must start at 0 and end at m")
    if np.any(np.diff(g.offsets) < 0):
        raise ValueError("offsets must be nondecreasing")
    if g.m:
        if g.targets.min() < 0 or g.targets.max() >= g.n:
            raise ValueError("target id out of range")
    src = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees())
    dst = g.targets.astype(np.int64, copy=False)
    bad = np.flatnonzero((np.diff(dst) <= 0) & (src[1:] == src[:-1]))
    if bad.size:
        raise ValueError(f"row {src[bad[0] + 1]} not strictly increasing")
    if not g.directed and g.m:
        # rows are sorted, so the keys src * n + dst ascend
        keys = src * g.n + dst
        back = dst * g.n + src
        at = np.minimum(np.searchsorted(keys, back), g.m - 1)
        lone = np.flatnonzero(keys[at] != back)
        if lone.size:
            raise ValueError(f"missing reverse edge for ({src[lone[0]]},{dst[lone[0]]})")


def validate_loop(g):
    """validate's checks, one row at a time, then a Python set of the
    edges, searched for reverses in sorted (CSR) order."""
    if g.offsets.shape[0] != g.n + 1:
        raise ValueError("offsets length must be n+1")
    if g.offsets[0] != 0 or g.offsets[-1] != g.m:
        raise ValueError("offsets must start at 0 and end at m")
    if np.any(np.diff(g.offsets) < 0):
        raise ValueError("offsets must be nondecreasing")
    if g.m and (g.targets.min() < 0 or g.targets.max() >= g.n):
        raise ValueError("target id out of range")
    for u in range(g.n):
        row = g.neighbors(u)
        if row.shape[0] > 1 and np.any(np.diff(row) <= 0):
            raise ValueError(f"row {u} not strictly increasing")
    if not g.directed:
        fwd = {(int(u), int(v)) for u, v in g.edge_array()}
        for u, v in sorted(fwd):
            if (v, u) not in fwd:
                raise ValueError(f"missing reverse edge for ({u},{v})")


def stochastic_round(value, rng):
    """Round to floor(value) + 1 with probability equal to the fraction,
    taking one draw from ``rng`` whatever the value; the expectation is
    ``value``. The rounding itself is ``synth._round_at``."""
    from ags.synth import _round_at

    value = float(value)
    if value < 0.0:
        raise ValueError("cannot round a negative count")
    return _round_at(value, rng.random())


def generate_synthetic_loop(x, y, spec, rng=None):
    """generate_synthetic as one Python iteration per node: a fresh
    ``rng_for`` generator, three scalar draws, a pool copy without u and
    one ``np.full`` of sources per draw."""
    from collections import Counter
    import warnings

    from ags.graph import from_edges
    from ags.sampling import rng_for
    from ags.synth import _NODE_STREAM, SynthWarning

    def draw(pool, count, r, notes, kind):
        if count <= 0:
            return np.zeros(0, dtype=np.int64)
        if pool.size == 0:
            notes[f"skipped_{kind}"] += count
            return np.zeros(0, dtype=np.int64)
        if count <= pool.size:
            return r.choice(pool, size=count, replace=False)
        picks = np.unique(r.choice(pool, size=count, replace=True))
        notes[f"deduped_{kind}"] += count - picks.size
        return picks

    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or y.shape[0] < 2:
        raise ValueError("labels must be a vector over at least two nodes")
    n = y.shape[0]
    if x is not None and np.asarray(x).shape[0] != n:
        raise ValueError("features and labels disagree on node count")
    lo, hi = spec.bounds()
    base = spec.seed if rng is None else int(rng.integers(0, 2**63))
    labels = np.unique(y)
    same_pool = {int(c): np.flatnonzero(y == c) for c in labels}
    cross_pool = {int(c): np.flatnonzero(y != c) for c in labels}
    half = float(spec.avg_degree) / 2.0
    notes = Counter()
    srcs, dsts = [], []
    for u in range(n):
        r = rng_for(base, _NODE_STREAM, u)
        t = lo + (hi - lo) * r.random()
        n_same = stochastic_round(t * half, r)
        n_cross = stochastic_round((1.0 - t) * half, r)
        pool = same_pool[int(y[u])]
        pool = pool[pool != u]
        for got in (
            draw(pool, n_same, r, notes, "same"),
            draw(cross_pool[int(y[u])], n_cross, r, notes, "cross"),
        ):
            if got.size:
                srcs.append(np.full(got.size, u, dtype=np.int64))
                dsts.append(got)
    if notes:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(notes.items()))
        warnings.warn(f"edge quotas adjusted: {detail}", SynthWarning, stacklevel=2)
    src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.zeros(0, dtype=np.int64)
    return from_edges(n, src, dst, directed=False)


def similar_order_lexsort(targets, score, row):
    """Within each row: descending score, then ascending target."""
    return np.lexsort((targets, -score, row))


def lexsort_rows_two_argsorts(keys, rows):
    """Order by row, then float key: each key's global rank, then one
    argsort of row * size + rank."""
    rank = np.empty(keys.size, dtype=np.int64)
    rank[np.argsort(keys)] = np.arange(keys.size)
    return np.argsort(rows * keys.size + rank)


def gather_sum_bincount(x, take, rows, n):
    """(n, w) array whose row r sums ``x[take[e]]`` over every e with
    rows[e] == r, in entry order from 0.0: one bincount per column."""
    out = np.zeros((n, x.shape[1]))
    for j in range(x.shape[1]):
        out[:, j] = np.bincount(rows, weights=x[take, j], minlength=n)
    return out


def canonical_undirected_scatter(g, edge_weights):
    """Unique (u, v, w) with u <= v, w the maximum over both directions,
    scattered by np.maximum.at into zeros."""
    pairs = g.edge_array()
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    uniq, inverse = np.unique(lo * g.n + hi, return_inverse=True)
    w = np.zeros(uniq.shape[0], dtype=np.float64)
    np.maximum.at(w, inverse, edge_weights)
    return uniq // g.n, uniq % g.n, w


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


def forward_channel_whole(layers, g, seeds, x):
    """Seed embeddings with every layer computed on every node of ``g``.

    ``g`` holds a channel's sampled edges over the parent ids and
    ``seeds`` its sorted seeds. Returns (seed rows, per-layer (h, agg, z)
    over the whole graph).
    """
    h = np.asarray(x, dtype=np.float64)
    cache = []
    for layer in layers:
        agg = mean_aggregate_add_at(g, h)
        z = h @ layer.w_self.T + agg @ layer.w_neigh.T + layer.b
        cache.append((h, agg, z))
        h = np.maximum(z, 0.0)
    return h[seeds], cache


def backward_channel_whole(layers, g, seeds, cache, d_seeds):
    """Per-layer (dW_self, dW_neigh, db) by backpropagating over every node."""
    d_h = np.zeros((g.n, d_seeds.shape[1]))
    d_h[seeds] = d_seeds
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        h_in, agg, z = cache[i]
        dz = d_h * (z > 0.0)
        grads[i] = (dz.T @ h_in, dz.T @ agg, dz.sum(axis=0))
        d_h = dz @ layers[i].w_self + mean_aggregate_grad_add_at(
            g, dz @ layers[i].w_neigh
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


# ------------------------------------------------------------------ gains
#
# Free marginal-gain functions: one candidate against an explicit set,
# recomputed from scratch on every call. They are the naive oracles of
# the library's incremental gain states.


def facility_location_gain(
    s: set[int], a, kernel: np.ndarray, v: int
) -> float:
    """Marginal gain of v for f(S, A) = sum over A of the best kernel hit."""
    a = np.asarray(list(a), dtype=np.int64)
    if len(s) == 0:
        return float(kernel[v, a].sum())
    chosen = np.asarray(sorted(s), dtype=np.int64)
    best = kernel[np.ix_(chosen, a)].max(axis=0)
    return float(np.maximum(kernel[v, a] - best, 0.0).sum())


def max_coverage_gain(s: set[int], v: int, features: np.ndarray) -> float:
    if np.any(features < 0.0):
        raise ValueError("max_coverage requires nonnegative features")
    cov = features[sorted(s)].sum(axis=0) if s else np.zeros(features.shape[1])
    return float((np.minimum(cov + features[v], 1.0) - np.minimum(cov, 1.0)).sum())


def feature_based_gain(s: set[int], v: int, features: np.ndarray) -> float:
    if np.any(features < 0.0):
        raise ValueError("feature_based requires nonnegative features")
    sums = features[sorted(s)].sum(axis=0) if s else np.zeros(features.shape[1])
    return float((np.sqrt(sums + features[v]) - np.sqrt(sums)).sum())


def graph_cut_gain(
    s: set[int], v_all, kernel: np.ndarray, v: int, lam: float = 2.0
) -> float:
    v_all = np.asarray(list(v_all), dtype=np.int64)
    cross = (
        kernel[sorted(s), v].sum() if s else 0.0
    )
    return float(lam * kernel[v, v_all].sum() - 2.0 * cross - kernel[v, v])


def lemma_gain_masses(g, x, y, egos, sim, fn_kind, model=None, lam=2.0):
    """Same-label and total gain mass of each ego's neighbours, one free
    gain call per neighbour against the {ego} base set.

    Local ids 0..d-1 are the neighbours, d is the ego. Gains are clipped
    at 0 and summed the way verify_lemmas reports them.
    """
    from ags.similarity import pairwise_kernel

    same, total = [], []
    for t in egos:
        nbrs = g.neighbors(t)
        d = int(nbrs.shape[0])
        local = x[np.concatenate([nbrs, [t]])]
        s, ground = {d}, range(d + 1)
        if fn_kind == "facility_location":
            kernel = pairwise_kernel(local, kind=sim, model=model)
            gains = [facility_location_gain(s, ground, kernel, i) for i in range(d)]
        elif fn_kind == "max_coverage":
            gains = [max_coverage_gain(s, i, local) for i in range(d)]
        elif fn_kind == "feature_based":
            gains = [feature_based_gain(s, i, local) for i in range(d)]
        else:
            kernel = pairwise_kernel(local, kind=sim, model=model)
            gains = [graph_cut_gain(s, ground, kernel, i, lam=lam) for i in range(d)]
        gains = np.maximum(np.array(gains), 0.0)
        same.append(float(gains[y[nbrs] == y[t]].sum()))
        total.append(float(gains.sum()))
    return np.asarray(same), np.asarray(total)


# ---------------------------------------------------------------- homophily
#
# Per-node loops over CSR rows, the way the homophily measures counted
# neighbour labels before one (n, c) count matrix. Each keeps its own
# float operations in their own order, so the library must match them to
# the bit. They share only ``Graph.neighbors`` with the library.


def local_homophily_loop(g, y):
    out = np.full(g.n, np.nan)
    for u in range(g.n):
        nbrs = g.neighbors(u)
        if nbrs.shape[0]:
            out[u] = np.mean(y[nbrs] == y[u])
    return out


def node_homophily_loop(g, y):
    local = local_homophily_loop(g, y)
    ok = ~np.isnan(local)
    return float(local[ok].mean())


def class_insensitive_loop(g, y):
    c = int(y.max()) + 1
    n = g.n
    total = 0.0
    for k in range(c):
        members = np.flatnonzero(y == k)
        same = 0
        incident = 0
        for u in members:
            nbrs = g.neighbors(u)
            incident += nbrs.shape[0]
            same += int(np.sum(y[nbrs] == k))
        h_k = same / incident if incident else 0.0
        total += max(0.0, h_k - members.shape[0] / n)
    return total / (c - 1)


def entropy_loop(g, y):
    c = int(y.max()) + 1
    if c <= 1:
        return 0.0
    log_c = math.log(c)
    acc = 0.0
    for u in range(g.n):
        nbrs = g.neighbors(u)
        if nbrs.shape[0] == 0:
            continue
        counts = np.bincount(y[nbrs], minlength=c).astype(np.float64)
        p = counts[counts > 0] / nbrs.shape[0]
        acc += float(-(p * np.log(p)).sum()) / log_c
    return acc / g.n


def uniformity_loop(g, y, crit):
    """(pass fraction, auto-fail count) against the critical value crit."""
    c = int(y.max()) + 1
    passes = 0
    auto_fail = 0
    for u in range(g.n):
        nbrs = g.neighbors(u)
        d = nbrs.shape[0]
        if d < c:
            auto_fail += 1
            continue
        counts = np.bincount(y[nbrs], minlength=c).astype(np.float64)
        expected = d / c
        stat = float(((counts - expected) ** 2 / expected).sum())
        if stat <= crit:
            passes += 1
    return passes / g.n, auto_fail


def feature_label_r_loop(g, x, y):
    """Pearson r of per-pair ``similarity.cosine`` against label match.

    The pairs are the graph's edges, one direction per undirected edge
    (u <= v) or every stored edge of a directed graph, scored one pair at
    a time the way the correlation was computed before one array pass.
    """
    from ags.metrics import pearson
    from ags.similarity import cosine

    pairs = [
        (u, int(v))
        for u in range(g.n)
        for v in g.neighbors(u)
        if g.directed or u <= v
    ]
    if len(pairs) < 2:
        raise ValueError("need at least 2 pairs")
    sims = np.array([cosine(x[u], x[v]) for u, v in pairs])
    match = np.array([float(y[u] == y[v]) for u, v in pairs])
    return pearson(sims, match)


# -------------------------------------------------------------- loaders
#
# Line-by-line text-mode loops, the way the loaders parsed their files
# before one bulk tokenizer. Each keeps its own checks, in its own order,
# so the library must give the same arrays and the same first error.
# They share only ``from_edges`` with the library.


def load_edge_list_loop(path: str, directed: bool = False):
    """``# n=`` applies from its line on; a later header replaces it."""
    from ags.graph import from_edges

    declared_n = None
    srcs: list[int] = []
    dsts: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                header = line[1:].strip().replace(" ", "")
                if header.startswith("n="):
                    try:
                        declared_n = int(header[2:])
                    except ValueError:
                        raise ValueError(f"line {lineno}: bad header {line!r}")
                continue
            if not line:
                continue
            parts = line.replace("\t", " ").split()
            if len(parts) not in (2, 3):
                raise ValueError(f"line {lineno}: expected 'u v [w]', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer node id in {line!r}")
            if u < 0 or v < 0:
                raise ValueError(f"line {lineno}: negative node id")
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise ValueError(f"line {lineno}: non-numeric weight in {line!r}")
                if not np.isfinite(w) or w < 0:
                    raise ValueError(f"line {lineno}: weight must be finite and >= 0")
            if declared_n is not None and max(u, v) >= declared_n:
                raise ValueError(
                    f"line {lineno}: id {max(u, v)} >= declared n={declared_n}"
                )
            srcs.append(u)
            dsts.append(v)
    if declared_n is not None:
        n = declared_n
    else:
        n = 1 + max(max(srcs, default=-1), max(dsts, default=-1))
        n = max(n, 0)
    return from_edges(n, srcs, dsts, directed=directed)


def load_features_loop(path: str) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric feature value")
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise ValueError(
                    f"line {lineno}: row length {len(vals)} != {width}"
                )
            rows.append(vals)
    if not rows:
        raise ValueError("no rows")
    X = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature value")
    return X


def load_labels_loop(path: str) -> np.ndarray:
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                y = int(line)
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer label {line!r}")
            if y < 0:
                raise ValueError(f"line {lineno}: label out of range")
            labels.append(y)
    if not labels:
        raise ValueError("no rows")
    return np.asarray(labels, dtype=np.int64)


def load_id_file_loop(path: str) -> np.ndarray:
    ids = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                ids.append(int(line))
            except ValueError:
                raise ValueError(f"seed file line {lineno}: not an integer")
    return np.asarray(ids, dtype=np.int64)


def edge_list_text_loop(g) -> str:
    """``ags synth``'s edge list text, one f-string per edge."""
    edges = g.edge_array()
    keep = edges[:, 0] <= edges[:, 1]
    lines = [f"# n={g.n}"]
    lines += [f"{u} {v}" for u, v in edges[keep].tolist()]
    return "\n".join(lines) + "\n"
