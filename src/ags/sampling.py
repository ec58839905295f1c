"""Drawing training structures from rank tables.

Samplers never look at raw similarity scores: every draw follows the
PMF a RankTable assigned from rank positions. All routines are
deterministic functions of their inputs and the generator handed in;
stream-splitting helpers let callers hand independent, reproducible
generators to nodes, epochs, and batches.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .graph import Graph, RankTable, Subgraph, _frozen, build_subgraph, unique_ids


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Generator for a (seed, stream...) coordinate, e.g. epoch/batch or node.

    Distinct stream tuples give statistically independent generators;
    the same tuple always reproduces the same draws.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.default_rng(ss)


# numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """The uint32 words of a nonnegative int, least significant first."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix; returns the hashed words and the next constant.

    ``generate_state`` hashes each output word the same way, with its own
    constants.
    """
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(_XSHIFT)), const


def _mix(x, y):
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(_XSHIFT))


def _seed_states(seed: int, stream: tuple[int, ...], keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, stream + (k,)).generate_state(4, uint64)`` per key.

    Keys are below 2**32, so each is the last entropy word. The mixing
    runs once on the words before it, on (1,) uint32 arrays, and then
    once more, vectorized, on the key words.
    """
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))  # a spawn key is never empty here
    words = run + [w for s in stream for w in _words(s)]
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    const = _INIT_A
    pool = []
    for w in entropy[:_POOL_SIZE]:
        h, const = _hashmix(w, const, _MULT_A)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for w in entropy[_POOL_SIZE:] + [keys.astype(np.uint32)]:
        for dst in range(_POOL_SIZE):
            h, const = _hashmix(w, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    # generate_state(4, uint64): eight uint32 words cycling the pool,
    # paired little-endian into uint64
    state = np.empty((keys.size, 2 * _POOL_SIZE), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        state[:, i], const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 one precomputed state row."""

    __slots__ = ("_row",)

    def __init__(self, row: np.ndarray) -> None:
        self._row = row

    def generate_state(self, n_words, dtype=np.uint64):
        return self._row


def rngs_for(seed: int, *stream: int, count: int) -> Iterator[np.random.Generator]:
    """An iterator over ``rng_for(seed, *stream, i)`` for i in range(count).

    Every generator's seeding words come from one vectorized pass of
    SeedSequence's mixing; PCG64 seeds itself from them as it would from
    the SeedSequence, so each generator's draws are bit-identical to
    ``rng_for``'s. Generators are built one at a time, so memory holds
    only the 32-byte state row of each key. Raises RuntimeError if this
    numpy's SeedSequence hashes differently.
    """
    if not 0 <= count <= _MASK32 + 1:
        raise ValueError("count must lie in [0, 2**32]")
    stream = tuple(int(s) for s in stream)
    states = _seed_states(seed, stream, np.arange(count))
    if count:
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=stream + (0,))
        if not np.array_equal(states[0], ss.generate_state(4, np.uint64)):
            raise RuntimeError("numpy's SeedSequence no longer hashes as rngs_for assumes")
    return (np.random.Generator(np.random.PCG64(_StateWords(row))) for row in states)


# Forward steps a draw may take from its guide slot before it falls back
# to a search. On the benchmark's tables, and on a 100,000-node Chung-Lu
# table, 31-39% of draws need at least one step, 4-6% two, 0.2-0.8%
# three, and none more. A geometric tail can leave hundreds of entries
# in a row's last slot, so a draw there is searched for rather than
# stepped through.
GUIDE_STEPS = 3


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

    That is the first entry of the row whose ``cdf`` exceeds u + src, or
    the row's last entry when none does: a sum that rounds up to
    src + 1 stays in its row. Each draw starts where the table's guide
    sends its slot min(floor(u * d), d - 1) and takes up to
    ``GUIDE_STEPS`` forward steps against ``cdf``. The draws that this
    leaves unresolved (a start past the answer, through rounding, or an
    answer further on) get one ``searchsorted`` over the whole ``cdf``,
    clipped to the row. Either way every draw is that first entry.
    """
    off, cdf = rt.offsets, rt.cdf
    lo = off[src]
    hi = np.minimum(off[1:][src], rt.m)
    last = hi - 1
    d = hi - lo
    key = u + src
    slot = (u * d).astype(np.int64)
    np.minimum(slot, d - 1, out=slot)
    slot += lo
    pos = rt.guide[slot] + lo
    np.minimum(pos, last, out=pos)
    late = (pos > lo) & (cdf[pos - 1] > key)
    short = np.flatnonzero((pos < last) & (cdf[pos] <= key))
    for _ in range(GUIDE_STEPS):
        if short.size == 0:
            break
        pos[short] += 1
        at = pos[short]
        short = short[(at < last[short]) & (cdf[at] <= key[short])]
    late[short] = True
    miss = np.flatnonzero(late)
    if miss.size:
        found = np.searchsorted(cdf, key[miss], side="right")
        pos[miss] = np.clip(found, lo[miss], last[miss])
    return rt.ranked_ids[pos]


def _lexsort_rows(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The order of ``np.lexsort((keys, rows))`` for float keys, faster.

    Replaces each key by its global rank, so the integers
    row * size + rank sort by row, then key. They are distinct, so a
    plain sort of them, decoded through rank % size, gives the order.
    Equal keys may come in either order; the result is still a function
    of the input alone.
    """
    size = keys.size
    by_key = np.argsort(keys)
    rank = np.empty(size, dtype=np.int64)
    rank[by_key] = np.arange(size)
    return by_key[np.sort(rows * size + rank) % size]


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
    if any(f < 1 for f in fanouts):
        raise ValueError("fanouts must be positive")

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

    Each step is one ``_inverse_cdf`` call over the live walks, in seed
    order; the subgraph is built from the set of walk edges.
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

    Each part is (edges, weight): edges are parent-space (u, v) pairs
    with u <= v, one per undirected edge, in ascending order. Part edge
    sets partition the parent's undirected edge set. Forest weights are
    floored at k * 1e-3; the residual weight is exactly 0.
    """

    parent: Graph
    parts: list[tuple[np.ndarray, float]]
    flags: list[str]

    @property
    def forest_count(self) -> int:
        return len(self.parts) - 1

    def part_edges(self, i: int) -> np.ndarray:
        """Part i's edges as read-only (m, 2) parent-space canonical pairs."""
        return self.parts[i][0]


def _canonical_undirected(g: Graph, edge_weights: np.ndarray):
    """Unique (u, v, w) with u <= v; w is the max over both directions."""
    pairs = g.edge_array()
    src, dst = pairs[:, 0], pairs[:, 1]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    key = lo * g.n + hi
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))  # each run of one key
    # the maximum's value does not depend on the order; only the sign of
    # a zero maximum does, and forest weights are floored above zero
    w = np.maximum.reduceat(edge_weights[order], first)
    us, vs = np.divmod(key[first], g.n)
    return us, vs, w


def disjoint_decompose(
    g: Graph,
    edge_weights,
    k_parts: int,
) -> DisjointCollection:
    """Peel k maximum-weight spanning forests off the graph.

    Edges are sorted once by (weight desc, endpoints asc), a strict
    total order, so every forest is unique. Each forest is the maximum
    spanning forest, under that order, of the edges no earlier forest
    took. Borůvka rounds (``_boruvka_forest``) find the forest that a
    Kruskal loop would.
    Whatever remains, self-loops included, becomes the residual. When
    the edges run out early the collection is shorter and flagged.
    """
    if k_parts < 1:
        raise ValueError("need at least one forest")
    edge_weights = np.asarray(edge_weights, dtype=np.float64)
    if edge_weights.shape != (g.m,):
        raise ValueError("need one weight per directed edge")
    if not np.all(np.isfinite(edge_weights)) or np.any(edge_weights < 0):
        raise ValueError("edge weights must be finite and nonnegative")

    us, vs, ws = _canonical_undirected(g, edge_weights)
    # the canonical edges come in ascending (u, v) order, so a stable
    # sort by weight alone gives (weight desc, u asc, v asc)
    order = np.argsort(-ws, kind="stable")
    su, sv = us[order], vs[order]
    loops = su == sv
    alive = ~loops  # sorted non-loop positions no forest has taken yet
    flags: list[str] = []
    floor = k_parts * 1e-3

    def edges_at(idx: np.ndarray) -> np.ndarray:
        # the canonical edges ascend, so sorted indices give ascending pairs;
        # read-only, since part_edges hands out the stored array
        idx = np.sort(idx)
        return _frozen(np.stack([us[idx], vs[idx]], axis=1))

    parts: list[tuple[np.ndarray, float]] = []
    for _ in range(k_parts):
        pos = np.flatnonzero(alive)
        if pos.size == 0:
            flags.append(f"exhausted_after={len(parts)}")
            break
        pos = pos[_boruvka_forest(g.n, su[pos], sv[pos])]
        alive[pos] = False
        # ascending positions are Kruskal's acceptance order, so the sum
        # adds the same terms in the same order
        idx = order[pos]
        parts.append((edges_at(idx), max(float(ws[idx].sum()), floor)))
    parts.append((edges_at(order[alive | loops]), 0.0))
    return DisjointCollection(parent=g, parts=parts, flags=flags)


def _boruvka_forest(n: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Ascending indices of the spanning forest that prefers earlier edges.

    ``eu``/``ev`` list non-loop edges over nodes 0..n-1, best first. Each
    round, every component takes its first incident edge (Borůvka 1926);
    under a strict order that edge is in the unique forest. Components
    hook along those edges, a pair that chose the same edge keeps the
    smaller id as root, and pointer jumping relabels. Each round at
    least halves the components that still have an edge out.
    """
    a, b = eu, ev  # component of each endpoint of the live edges
    live = np.arange(eu.size)  # edges still joining two components
    accepted = np.zeros(eu.size, dtype=bool)
    best = np.empty(n, dtype=np.int64)
    while live.size:
        # live stays ascending, so its first slot at a component is the
        # component's best edge
        best.fill(live.size)
        slot = np.arange(live.size)
        np.minimum.at(best, a, slot)
        np.minimum.at(best, b, slot)
        comp = np.flatnonzero(best < live.size)
        pick = best[comp]
        accepted[live[pick]] = True
        root = np.arange(n)
        root[comp] = np.where(a[pick] == comp, b[pick], a[pick])
        mutual = comp[(root[root[comp]] == comp) & (comp < root[comp])]
        root[mutual] = mutual
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        a, b = root[a], root[b]
        keep = a != b
        live, a, b = live[keep], a[keep], b[keep]
    return np.flatnonzero(accepted)


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
    if k < 0:
        raise ValueError(f"k={k} is negative")
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
