"""Neighbor ranking and rank-to-probability conversion.

Two ranking modes produce a RankTable: ``similar`` sorts each vertex's
neighbors by feature similarity to the vertex, ``diverse`` orders them
by greedy submodular marginal gain over the egonet. Probabilities are
then assigned from the rank alone (never from raw scores, which can be
arbitrarily skewed), so both modes share the same PMF machinery.

Ranking is local to each vertex, but rows are built per degree group:
all rows with the same candidate count are scored, or greedily ordered,
in a few numpy calls over stacked arrays. Diversity rows run exact
greedy across their group; its lowest-index tie-break is naive greedy's,
so a row's bytes do not depend on its group, its block or the number of
workers building the table.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .graph import Graph, RankTable, make_rank_table
from .similarity import SIM_KINDS, SiameseModel, pairwise_kernel, similarity_row

PMF_KINDS = ("step", "linear", "exponential", "uniform")
SUBMODULAR_KINDS = (
    "facility_location",
    "max_coverage",
    "feature_based",
    "graph_cut",
)
_KERNEL_KINDS = ("facility_location", "graph_cut")

# Element budget of one block of a group's stacked arrays: it bounds the
# memory that batching adds.
BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class PmfSpec:
    """How a rank position maps to sampling probability.

    step gives the top floor(k1*d) ranks weight lambda1, the next
    floor(k2*d) ranks lambda2, and the rest lambda3. linear decays as
    d..1, exponential as rate**rank; both get a flat ``eps`` added per
    entry before normalization so no neighbor's mass can underflow to 0.
    """

    kind: str = "step"
    k1: float = 0.2
    k2: float = 0.2
    lambdas: tuple[float, float, float] = (4.0, 2.0, 1.0)
    rate: float = 0.5
    eps: float = 1e-6

    def __post_init__(self) -> None:
        if self.kind not in PMF_KINDS:
            raise ValueError(f"unknown pmf kind: {self.kind!r}")
        if not (0.0 <= self.k1 <= 1.0 and 0.0 <= self.k2 <= 1.0):
            raise ValueError("k1 and k2 must lie in [0, 1]")
        if self.k1 + self.k2 > 1.0:
            raise ValueError("k1 + k2 must not exceed 1")
        l1, l2, l3 = self.lambdas
        if not (l1 > l2 > l3 > 0.0):
            raise ValueError("need lambda1 > lambda2 > lambda3 > 0")
        if not (0.0 < self.rate < 1.0):
            raise ValueError("decay rate must lie in (0, 1)")
        if self.eps < 0.0:
            raise ValueError("floor mass cannot be negative")

    def params(self) -> tuple[float, float, float, float, float, float]:
        return (self.k1, self.k2, *self.lambdas, self.rate)


def pmf_from_ranks(d: int, spec: PmfSpec) -> np.ndarray:
    """Probability for each of ``d`` rank positions, best rank first."""
    if d < 1:
        raise ValueError("need at least one ranked entry")
    if spec.kind == "uniform":
        return np.full(d, 1.0 / d)
    if spec.kind == "step":
        # the 1e-9 nudge keeps floor() from dropping a tier when k*d is
        # mathematically integral but lands just below it in floats
        n1 = int(math.floor(spec.k1 * d + 1e-9))
        n2 = int(math.floor(spec.k2 * d + 1e-9))
        l1, l2, l3 = spec.lambdas
        w = np.full(d, l3)
        w[:n1] = l1
        w[n1 : n1 + n2] = l2
    elif spec.kind == "linear":
        w = np.arange(d, 0, -1, dtype=np.float64) + spec.eps
    else:  # exponential
        w = spec.rate ** np.arange(1, d + 1, dtype=np.float64) + spec.eps
    return w / w.sum()


@dataclass
class SubmodularFn:
    """A set-function family over a fixed candidate universe.

    ``kernel`` (square, symmetric, nonnegative) backs facility_location
    and graph_cut; ``features`` (rows per candidate, nonnegative) backs
    max_coverage and feature_based. ``lam`` is the graph-cut trade-off.
    """

    kind: str
    kernel: np.ndarray | None = None
    features: np.ndarray | None = None
    lam: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in SUBMODULAR_KINDS:
            raise ValueError(f"unknown submodular kind: {self.kind!r}")
        if self.kind in _KERNEL_KINDS:
            k = self.kernel
            if k is None or k.ndim != 2 or k.shape[0] != k.shape[1]:
                raise ValueError(f"{self.kind} requires a square kernel")
            if np.any(k < 0.0):
                raise ValueError(f"{self.kind} requires a nonnegative kernel")
        else:
            f = self.features
            if f is None or f.ndim != 2:
                raise ValueError(f"{self.kind} requires a feature matrix")
            if np.any(f < 0.0):
                raise ValueError(f"{self.kind} requires nonnegative features")

    @property
    def size(self) -> int:
        if self.kernel is not None:
            return int(self.kernel.shape[0])
        return int(self.features.shape[0])


# Gain states. Each holds one instance, or a stack of B instances along
# a leading axis: kernels (..., c, c) or feature rows (..., c, f).
# Candidates are addressed by flat index into the (instance, candidate)
# pairs in row-major order, which for one instance is the candidate id.
# ``gains(idx)`` is the marginal gain of the candidates idx: a slice for
# one instance, or a (B, r) array, r candidates in each instance of a
# stack. ``add(v)`` adds candidate v, an int or one per instance.


class _FacilityState:
    # best[y] = max over chosen x of kernel[x, y]; empty set scores 0,
    # which makes the first gain a plain row sum on nonneg kernels
    def __init__(self, kernel: np.ndarray, lam: float) -> None:
        self.k = kernel.reshape(-1, kernel.shape[-1])
        self.best = np.zeros(kernel.shape[:-1])

    def gains(self, idx) -> np.ndarray:
        diff = self.k[idx] - self.best[..., None, :]
        return np.maximum(diff, 0.0).sum(axis=-1)

    def add(self, v) -> None:
        np.maximum(self.best, self.k[v], out=self.best)


class _CoverageState:
    def __init__(self, features: np.ndarray, lam: float) -> None:
        self.f = features.reshape(-1, features.shape[-1])
        self.cov = np.zeros(features.shape[:-2] + features.shape[-1:])

    def gains(self, idx) -> np.ndarray:
        before = np.minimum(self.cov, 1.0)[..., None, :]
        after = np.minimum(self.cov[..., None, :] + self.f[idx], 1.0)
        return (after - before).sum(axis=-1)

    def add(self, v) -> None:
        self.cov += self.f[v]


class _FeatureSqrtState:
    def __init__(self, features: np.ndarray, lam: float) -> None:
        self.f = features.reshape(-1, features.shape[-1])
        self.sums = np.zeros(features.shape[:-2] + features.shape[-1:])

    def gains(self, idx) -> np.ndarray:
        now = np.sqrt(self.sums)[..., None, :]
        return (np.sqrt(self.sums[..., None, :] + self.f[idx]) - now).sum(axis=-1)

    def add(self, v) -> None:
        self.sums += self.f[v]


class _GraphCutState:
    # f(X) = lam * sum_{v in V} sum_{x in X} K[x,v] - sum_{x,y in X} K[x,y]
    # with the penalty over ordered pairs including the diagonal
    def __init__(self, kernel: np.ndarray, lam: float) -> None:
        self.k = kernel.reshape(-1, kernel.shape[-1])
        self.lam_rows = lam * kernel.sum(axis=-1).ravel()
        self.diag = np.diagonal(kernel, axis1=-2, axis2=-1).ravel()
        self.cross = np.zeros(kernel.shape[:-1])  # sum_{x in S} K[x, u]

    def gains(self, idx) -> np.ndarray:
        # O(1) per candidate, so taking every gain and indexing the
        # result costs less than indexing three arrays
        return (self.lam_rows - 2.0 * self.cross.ravel() - self.diag)[idx]

    def add(self, v) -> None:
        self.cross += self.k[v]


_STATES = {
    "facility_location": _FacilityState,
    "max_coverage": _CoverageState,
    "feature_based": _FeatureSqrtState,
    "graph_cut": _GraphCutState,
}


def _make_state(fn: SubmodularFn):
    data = fn.kernel if fn.kind in _KERNEL_KINDS else fn.features
    return _STATES[fn.kind](data, fn.lam)


def lazy_greedy(
    ground, initial, fn: SubmodularFn
) -> tuple[np.ndarray, np.ndarray]:
    """Order ground \\ initial by greedy marginal gain, lazily.

    Stale heap entries are refreshed on pop; a popped candidate is
    accepted only when its fresh gain beats the best remaining stale
    bound, or equals it with a smaller id. That acceptance rule makes
    the output identical to naive greedy under the shared tie-break
    (descending gain, then ascending id), exact ties included.
    Returned gains are the true marginal gains at selection time.
    """
    ground = sorted({int(v) for v in ground})
    if not ground:
        raise ValueError("empty ground set")
    chosen = {int(v) for v in initial}
    if not chosen.issubset(ground):
        raise ValueError("initial set must be contained in the ground set")
    if fn.size < max(ground) + 1:
        raise ValueError("candidate id outside the function's universe")

    state = _make_state(fn)
    for v in sorted(chosen):
        state.add(v)

    def gain(v: int) -> float:
        return float(state.gains(slice(v, v + 1))[0])

    heap = [(-gain(v), v) for v in ground if v not in chosen]
    heapq.heapify(heap)
    order: list[int] = []
    gains: list[float] = []
    while heap:
        neg_stale, v = heapq.heappop(heap)
        g_cur = gain(v)
        if heap:
            top_stale, top_id = -heap[0][0], heap[0][1]
            if g_cur < top_stale or (g_cur == top_stale and top_id < v):
                heapq.heappush(heap, (-g_cur, v))
                continue
        order.append(v)
        gains.append(g_cur)
        state.add(v)
    return np.asarray(order, dtype=np.int64), np.asarray(gains)


def _check_node_features(g: Graph, x) -> np.ndarray:
    if x is None:
        raise ValueError("missing features: ranking needs one row per node")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.n:
        raise ValueError("missing features: need one row per node")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature value")
    return x


def _blocks(rows: np.ndarray, per_row: int):
    """Consecutive slices of ``rows`` holding at most BLOCK_ELEMENTS each."""
    step = max(1, BLOCK_ELEMENTS // max(1, per_row))
    for i in range(0, rows.size, step):
        yield rows[i : i + step]


def _rank_similar(
    g: Graph,
    x: np.ndarray,
    sim: str,
    model: SiameseModel | None,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Ranked ids of rows lo..hi-1, scored one degree group at a time."""
    offsets = g.offsets[lo : hi + 1]
    base = int(offsets[0])
    targets = g.targets[base : offsets[-1]]
    deg = np.diff(offsets)
    score = np.zeros(targets.size)
    for d in np.unique(deg[deg > 0]):
        for blk in _blocks(np.flatnonzero(deg == d), d * x.shape[1]):
            idx = (offsets[blk] - base)[:, None] + np.arange(d)
            score[idx] = similarity_row(x[targets[idx]], x[lo + blk], sim, model)
    row = np.repeat(np.arange(deg.size), deg)
    # within a row: descending score, then ascending node id
    return targets[np.lexsort((targets, -score, row))]


def _check_nonnegative(fn_kind: str, x: np.ndarray) -> None:
    if fn_kind not in _KERNEL_KINDS and np.any(x < 0.0):
        raise ValueError(f"{fn_kind} requires nonnegative features")


def _kernel_or_features(xs, sim, fn_kind, model) -> np.ndarray:
    if fn_kind in _KERNEL_KINDS:
        return pairwise_kernel(xs, sim, model)
    return xs


def _exact_greedy(fn_kind: str, data: np.ndarray, lam: float) -> np.ndarray:
    """Greedy order over each of B stacked egonets, all at once.

    ``data`` is (B, c, c) kernels or (B, c, f) feature rows with the ego
    last; the ego is the initial set. Each of the c - 1 steps takes the
    fresh gain of every candidate not yet taken, so this is naive greedy.
    ``left`` keeps the candidates not taken in ascending order, so
    ``argmax`` picks the lowest node id among equal gains. Returns
    (B, c - 1) local indices in pick order.
    """
    b, c = data.shape[:2]
    rows = np.arange(b)
    first = rows * c  # flat index of each instance's candidate 0
    state = _STATES[fn_kind](data, lam)
    state.add(first + c - 1)
    pos = np.arange(c - 1)
    left = first[:, None] + pos
    order = np.empty((b, c - 1), dtype=np.int64)
    for step in range(c - 1):
        pick = state.gains(left).argmax(axis=1)
        order[:, step] = v = left[rows, pick]
        state.add(v)
        # drop each instance's pick, keeping the rest in order
        shift = pos[: c - 2 - step] >= pick[:, None]
        left = np.where(shift, left[:, 1:], left[:, :-1])
    return order - first[:, None]


def _rank_diverse(
    g: Graph,
    x: np.ndarray,
    sim: str,
    fn_kind: str,
    model: SiameseModel | None,
    lam: float,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Ranked ids of rows lo..hi-1, one candidate-count group at a time.

    A row's candidates are its neighbors other than the ego, in id
    order, then the ego, which anchors the selection. A self-loop
    belongs to the initial set already, so it goes last with gain 0.
    """
    offsets = g.offsets[lo : hi + 1]
    base = int(offsets[0])
    targets = g.targets[base : offsets[-1]]
    deg = np.diff(offsets)
    row = np.repeat(np.arange(deg.size), deg)
    loop = targets == lo + row
    others = targets[~loop]
    k = deg - np.bincount(row[loop], minlength=deg.size)  # non-ego neighbors
    first = np.cumsum(k) - k  # each row's start in ``others``
    has_loop = deg > k
    out = np.empty_like(targets)
    out[offsets[1:][has_loop] - base - 1] = lo + np.flatnonzero(has_loop)
    for kk in np.unique(k[k > 0]):
        rows = np.flatnonzero(k == kk)
        cand = np.empty((rows.size, kk + 1), dtype=np.int64)
        cand[:, :kk] = others[first[rows][:, None] + np.arange(kk)]
        cand[:, kk] = lo + rows
        c = kk + 1
        order = np.concatenate([
            _exact_greedy(
                fn_kind, _kernel_or_features(x[cand[blk]], sim, fn_kind, model), lam
            )
            for blk in _blocks(np.arange(rows.size), c * (c + x.shape[1]))
        ])
        pos = (offsets[rows] - base)[:, None] + np.arange(kk)
        out[pos] = np.take_along_axis(cand, order, axis=1)
    return out


def _build_rows(builder, g: Graph, rest: tuple, workers: int) -> np.ndarray:
    """Ranked ids of every row; ``workers`` > 1 splits rows into chunks."""
    if workers <= 1 or g.n < 2:
        return builder(g, *rest, 0, g.n)
    size = -(-g.n // workers)
    los = range(0, g.n, size)
    his = [min(lo + size, g.n) for lo in los]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(partial(builder, g, *rest), los, his)))


def _probs_for(g: Graph, spec: PmfSpec) -> np.ndarray:
    """Every entry's PMF mass: one pmf_from_ranks per distinct degree."""
    deg = g.degrees()
    sizes = np.unique(deg[deg > 0])
    if sizes.size == 0:
        return np.zeros(0, dtype=np.float64)
    pmfs = [pmf_from_ranks(int(d), spec) for d in sizes]
    start = np.zeros(int(sizes[-1]) + 1, dtype=np.int64)
    start[sizes] = np.cumsum(sizes) - sizes  # each PMF's offset in the concatenation
    row = np.repeat(np.arange(g.n), deg)
    rank = np.arange(g.m) - g.offsets[row]
    return np.concatenate(pmfs)[start[deg[row]] + rank]


def rank_by_similarity(
    g: Graph,
    x,
    sim: str = "cosine",
    pmf: PmfSpec | None = None,
    model: SiameseModel | None = None,
    workers: int = 1,
) -> RankTable:
    """Rank every vertex's neighbors by similarity to that vertex.

    Rows are sorted by descending similarity with ascending-id
    tie-breaks; probabilities come from the rank positions alone. Output
    is byte-identical for any worker count.
    """
    x = _check_node_features(g, x)
    if sim not in SIM_KINDS:
        raise ValueError(f"unknown similarity kind: {sim!r}")
    if sim == "learned" and model is None:
        raise ValueError("learned similarity requires a model")
    spec = pmf or PmfSpec()
    ranked = _build_rows(_rank_similar, g, (x, sim, model), workers)
    return make_rank_table(
        "similar", spec.kind, spec.params(), g.offsets, ranked, _probs_for(g, spec)
    )


def rank_by_diversity(
    g: Graph,
    x,
    sim: str = "cosine",
    fn_kind: str = "facility_location",
    pmf: PmfSpec | None = None,
    model: SiameseModel | None = None,
    lam: float = 2.0,
    workers: int = 1,
) -> RankTable:
    """Rank neighbors by greedy submodular gain over each egonet.

    The ego is the initial selection; the candidate universe is its
    neighborhood plus itself, so kernels stay egonet-sized. Kernel-less
    kinds (coverage, feature-based) read the feature rows directly.
    """
    x = _check_node_features(g, x)
    if sim not in SIM_KINDS:
        raise ValueError(f"unknown similarity kind: {sim!r}")
    if fn_kind not in SUBMODULAR_KINDS:
        raise ValueError(f"unknown submodular kind: {fn_kind!r}")
    if sim == "learned" and model is None:
        raise ValueError("learned similarity requires a model")
    _check_nonnegative(fn_kind, x)
    spec = pmf or PmfSpec()
    ranked = _build_rows(
        _rank_diverse, g, (x, sim, fn_kind, model, lam), workers
    )
    return make_rank_table(
        "diverse", spec.kind, spec.params(), g.offsets, ranked, _probs_for(g, spec)
    )


def rank_uniform(g: Graph) -> RankTable:
    """Neighbors in id order, each with probability 1/d(u)."""
    spec = PmfSpec(kind="uniform")
    return make_rank_table(
        "uniform",
        "uniform",
        spec.params(),
        g.offsets,
        g.targets.copy(),
        _probs_for(g, spec),
    )
