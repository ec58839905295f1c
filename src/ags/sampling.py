"""Drawing training structures from rank tables.

Samplers never look at raw similarity scores: every draw follows the
PMF a RankTable assigned from rank positions. All routines are
deterministic functions of their inputs and the generator handed in;
stream-splitting helpers let callers hand independent, reproducible
generators to workers, epochs, and batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, RankTable, Subgraph, build_subgraph, unique_ids


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Generator for a (seed, stream...) coordinate, e.g. worker/epoch/batch.

    Distinct stream tuples give statistically independent generators;
    the same tuple always reproduces the same draws.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.default_rng(ss)


def sample_frontier(
    rt: RankTable,
    frontier,
    k: int,
    replace: bool,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw k neighbors of every frontier vertex from its rank-table PMF.

    Returns ``(which, picks)``: ``picks[i]`` was drawn for the vertex
    ``frontier[which[i]]``, and draws are grouped by frontier position in
    ascending order. A frontier may repeat a vertex; each occurrence draws
    on its own. A vertex with no neighbors draws nothing.

    With replacement: k iid draws per vertex (inverse CDF). Without:
    min(k, d) distinct neighbors per vertex, the d entries of its row
    ordered by exponential keys -log(U) / p (Efraimidis and Spirakis
    2006). Either way the generator is read vertex by vertex, in frontier
    order, as a loop over the frontier would read it.
    """
    if k < 0:
        raise ValueError("sample size must be nonnegative")
    frontier = np.asarray(frontier, dtype=np.int64)
    lo = rt.offsets[frontier]
    hi = rt.offsets[frontier + 1]
    live = np.flatnonzero(hi > lo)
    if k == 0 or live.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    if replace:
        which = np.repeat(live, k)
        return which, _inverse_cdf(rt, frontier[which], rng.random(which.size))

    lo, hi = lo[live], hi[live]
    d = hi - lo
    first = np.cumsum(d) - d  # each row's first slot in the gathered entries
    which = np.repeat(live, d)
    pos = np.arange(which.size) + np.repeat(lo - first, d)
    keys = -np.log(rng.random(pos.size)) / rt.probs[pos]
    order = _lexsort_rows(keys, which)
    # sorting keeps every row in its own slots, so slot - row start is the rank
    rank = np.arange(pos.size) - np.repeat(first, d)
    sel = order[rank < k]
    return which[sel], rt.ranked_ids[pos[sel]]


def _inverse_cdf(rt: RankTable, src: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The neighbor of ``src[i]`` that uniform ``u[i]`` in [0, 1) selects.

    One ``searchsorted`` of src + u into the table's shifted CDF serves
    every row; clipping to the row keeps a sum that rounds up to src + 1
    from spilling into the next row.
    """
    pos = np.searchsorted(rt.cdf, u + src, side="right")
    np.clip(pos, rt.offsets[src], rt.offsets[src + 1] - 1, out=pos)
    return rt.ranked_ids[pos]


def _lexsort_rows(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The order of ``np.lexsort((keys, rows))`` for float keys, faster.

    Replaces each key by its global rank, so one integer argsort of
    row * size + rank sorts by row, then key. Equal keys may come in
    either order; the result is still a function of the input alone.
    """
    rank = np.empty(keys.size, dtype=np.int64)
    rank[np.argsort(keys)] = np.arange(keys.size)
    return np.argsort(rows * keys.size + rank)


def sample_neighbors(
    rt: RankTable,
    u: int,
    k: int,
    replace: bool,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw k neighbors of u from its rank-table PMF (a frontier of one).

    With replacement: k iid draws. Without: min(k, d) distinct neighbors
    whose inclusion respects the PMF weights. A vertex with no neighbors
    yields an empty draw.
    """
    return sample_frontier(rt, np.array([u], dtype=np.int64), k, replace, rng)[1]


def node_sample_khop(
    g: Graph,
    tables,
    seeds,
    fanouts,
    rng: np.random.Generator,
    replace: bool = False,
):
    """Layered fanout expansion from the seeds, one subgraph per table.

    Each layer samples ``fanouts[i]`` neighbors of every frontier vertex
    in one frontier-wide draw (frontier in ascending id order, so draws
    are reproducible) and the next frontier is the set of newly drawn
    targets. Every sampled edge is recorded with its layer. Passing two
    tables expands two channels over the same seed set, one after the
    other.
    """
    single = isinstance(tables, RankTable)
    tabs = [tables] if single else list(tables)
    if not 1 <= len(tabs) <= 2:
        raise ValueError("expected one or two rank tables")
    for rt in tabs:
        rt.check_rows(g)
    seed_arr = unique_ids(np.asarray(seeds, dtype=np.int64).ravel())
    if seed_arr.size == 0:
        raise ValueError("empty seed set")
    if seed_arr.min() < 0 or seed_arr.max() >= g.n:
        raise ValueError("seed id out of range")
    fanouts = [int(f) for f in fanouts]

    outs = []
    for rt in tabs:
        frontier = seed_arr
        layers = []
        for k in fanouts:
            which, picks = sample_frontier(rt, frontier, k, replace, rng)
            layers.append(np.stack([frontier[which], picks], axis=1))
            frontier = unique_ids(picks)
        edges = np.concatenate(layers)
        outs.append(build_subgraph(g, seed_arr, edges, layers=layers))
    return outs[0] if single else outs


def weighted_random_walk(
    g: Graph,
    rt: RankTable,
    seeds,
    steps: int,
    rng: np.random.Generator,
) -> Subgraph:
    """One PMF-weighted walk per seed; the subgraph unions the walk edges.

    All walks take each step together. Each walk whose seed has ranked
    neighbors owns ``steps`` uniforms, drawn walk by walk. A dead end
    (vertex with no ranked neighbors) truncates that walk. steps = 0
    returns the seeds with no edges.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rt.check_rows(g)
    seed_arr = np.asarray(seeds, dtype=np.int64).ravel()
    if seed_arr.size == 0:
        raise ValueError("empty seed set")
    if seed_arr.min() < 0 or seed_arr.max() >= g.n:
        raise ValueError("seed id out of range")

    cur = seed_arr[rt.offsets[seed_arr + 1] > rt.offsets[seed_arr]]
    u = rng.random((cur.size, steps))
    walker = np.arange(cur.size)
    hops = []
    for t in range(steps):
        if cur.size == 0:
            break
        nxt = _inverse_cdf(rt, cur, u[walker, t])
        hops.append(np.stack([cur, nxt], axis=1))
        keep = rt.offsets[nxt + 1] > rt.offsets[nxt]
        cur, walker = nxt[keep], walker[keep]
    edges = np.concatenate(hops) if hops else np.zeros((0, 2), dtype=np.int64)
    return build_subgraph(g, seed_arr, edges)


def edge_weights_from_table(g: Graph, rt: RankTable) -> np.ndarray:
    """Per-directed-edge weights: the PMF mass of each target in its row.

    Raises ValueError when a table row is not a permutation of the
    graph's row, i.e. the table was built for another graph.
    """
    return rt.probs[rt.graph_order(g)]


@dataclass
class DisjointCollection:
    """Edge-disjoint forests plus the residual, which is always last.

    Part edge sets partition the parent's undirected edge set (each
    part stores one canonical direction per edge). Forest weights are
    floored at k * 1e-3; the residual weight is exactly 0.
    """

    parent: Graph
    parts: list[tuple[Subgraph, float]]
    flags: list[str]

    @property
    def forest_count(self) -> int:
        return len(self.parts) - 1

    def part_edges(self, i: int) -> np.ndarray:
        """Part i's edges as (m, 2) parent-space canonical pairs."""
        sub = self.parts[i][0]
        local = sub.graph.edge_array()
        return sub.parent_ids[local] if local.size else local


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _canonical_undirected(g: Graph, edge_weights: np.ndarray):
    """Unique (u, v, w) with u <= v; w is the max over both directions."""
    pairs = g.edge_array()
    src, dst = pairs[:, 0], pairs[:, 1]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    key = lo * g.n + hi
    uniq, inverse = np.unique(key, return_inverse=True)
    w = np.zeros(uniq.shape[0], dtype=np.float64)
    np.maximum.at(w, inverse, edge_weights)
    return uniq // g.n, uniq % g.n, w


def disjoint_decompose(
    g: Graph,
    edge_weights,
    k_parts: int,
    strategy: str = "max_spanning_tree",
) -> DisjointCollection:
    """Peel k maximum-weight spanning forests off the graph.

    Each round runs Kruskal over the edges no earlier forest took,
    ordering by (weight desc, endpoints asc) so the result is unique.
    Whatever remains, self-loops included, becomes the residual. When
    the edges run out early the collection is shorter and flagged.
    """
    if strategy != "max_spanning_tree":
        raise ValueError(f"unknown strategy: {strategy!r}")
    if k_parts < 1:
        raise ValueError("need at least one forest")
    edge_weights = np.asarray(edge_weights, dtype=np.float64)
    if edge_weights.shape != (g.m,):
        raise ValueError("need one weight per directed edge")
    if not np.all(np.isfinite(edge_weights)) or np.any(edge_weights < 0):
        raise ValueError("edge weights must be finite and nonnegative")

    us, vs, ws = _canonical_undirected(g, edge_weights)
    loops = us == vs
    remaining = np.flatnonzero(~loops)
    flags: list[str] = []
    floor = k_parts * 1e-3

    forest_edge_sets: list[np.ndarray] = []
    forest_weights: list[float] = []
    for _ in range(k_parts):
        if remaining.size == 0:
            flags.append(f"exhausted_after={len(forest_edge_sets)}")
            break
        order = remaining[
            np.lexsort((vs[remaining], us[remaining], -ws[remaining]))
        ]
        uf = _UnionFind(g.n)
        accepted = [int(e) for e in order if uf.union(int(us[e]), int(vs[e]))]
        idx = np.asarray(accepted, dtype=np.int64)
        forest_edge_sets.append(idx)
        forest_weights.append(max(float(ws[idx].sum()), floor))
        mask = np.ones(remaining.shape[0], dtype=bool)
        mask[np.isin(remaining, idx)] = False
        remaining = remaining[mask]

    residual_idx = np.concatenate([remaining, np.flatnonzero(loops)])
    residual_idx.sort()

    parts: list[tuple[Subgraph, float]] = []
    for idx, weight in zip(forest_edge_sets, forest_weights):
        edges = np.stack([us[idx], vs[idx]], axis=1)
        parts.append((build_subgraph(g, [], edges), weight))
    res_edges = np.stack([us[residual_idx], vs[residual_idx]], axis=1)
    parts.append((build_subgraph(g, [], res_edges), 0.0))
    return DisjointCollection(parent=g, parts=parts, flags=flags)


def disjoint_subgraph_sample(
    col: DisjointCollection,
    k: int,
    residual_edge_frac: float,
    rng: np.random.Generator,
) -> Subgraph:
    """Union k weight-proportionally drawn forests plus residual edges.

    Forests are drawn without replacement with probability proportional
    to their stored weights; round(frac * residual size) residual edges
    join uniformly without replacement.
    """
    if not 0.0 <= residual_edge_frac <= 1.0:
        raise ValueError("invalid fraction: must lie in [0, 1]")
    n_forests = col.forest_count
    if k > n_forests:
        raise ValueError(f"k={k} exceeds the {n_forests} non-residual parts")
    weights = np.asarray([w for _, w in col.parts[:-1]], dtype=np.float64)
    chosen: list[int] = []
    if k > 0:
        keys = -np.log(rng.random(n_forests)) / weights
        chosen = np.argsort(keys, kind="stable")[:k].tolist()

    edge_parts = [col.part_edges(i) for i in sorted(chosen)]
    residual = col.part_edges(len(col.parts) - 1)
    take = int(round(residual_edge_frac * residual.shape[0]))
    if take > 0:
        pick = rng.choice(residual.shape[0], size=take, replace=False)
        edge_parts.append(residual[np.sort(pick)])
    edges = (
        np.concatenate(edge_parts)
        if edge_parts
        else np.zeros((0, 2), dtype=np.int64)
    )
    return build_subgraph(col.parent, [], edges)
