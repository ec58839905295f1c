"""Neighbor ranking and rank-to-probability conversion.

Two ranking modes produce a RankTable: ``similar`` sorts each vertex's
neighbors by feature similarity to the vertex, ``diverse`` orders them
by greedy submodular marginal gain over the egonet. Probabilities are
then assigned from the rank alone (never from raw scores, which can be
arbitrarily skewed), so both modes share the same PMF machinery.

Ranking is local to each vertex, but rows are built in batches of
stacked arrays. Similarity rows are scored per degree group: all rows of
one degree in a few numpy calls. Diversity rows run exact greedy in
lockstep batches: rows sorted by candidate count, padded to the widest
row of their batch, one step loop per batch. Its lowest-index tie-break
is naive greedy's, so a row's bytes do not depend on its batch.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

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

# Element budget of one block of stacked, possibly padded, arrays: it
# bounds the memory that batching adds.
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
        if not all(math.isfinite(v) for v in self.lambdas):
            raise ValueError(f"lambdas must be finite, got {self.lambdas!r}")
        if not (l1 > l2 > l3 > 0.0):
            raise ValueError("need lambda1 > lambda2 > lambda3 > 0")
        if not (0.0 < self.rate < 1.0):
            raise ValueError("decay rate must lie in (0, 1)")
        if not (0.0 <= self.eps < math.inf):
            raise ValueError(f"floor mass must be finite and nonnegative, got {self.eps!r}")

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


def _check_lam(lam: float) -> None:
    # a NaN gain would make every argmax pick the first candidate
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")


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
        _check_lam(self.lam)
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
# a leading axis: kernels (..., w, w) or feature rows (..., w, f).
# Candidates are addressed by flat index into the (instance, candidate)
# pairs in row-major order, which for one instance is the candidate id.
# ``gains(idx)`` is the marginal gain of the candidates idx: a slice for
# one instance, or a (B, r) array, r candidates in each instance of a
# stack. ``add(v)`` adds candidate v, an int or one per instance.
#
# A stack may pad its instances to a common width w, unless its kind
# cannot mix counts: instance i's real candidates are its first
# counts[i], and each pad's gain is -inf, so no pad wins, whatever the
# sign of the real gains. ``keep(n)`` drops every instance after the
# first n.


def _has_pads(shape, counts) -> bool:
    return counts is not None and counts.min() < shape[-2]


def _pad_floor(shape, counts) -> np.ndarray | None:
    """0 on each instance's real candidates and -inf on its pads, or None."""
    if not _has_pads(shape, counts):
        return None
    return np.where(np.arange(shape[-2]) < counts[:, None], 0.0, -np.inf)


def _runs(counts: np.ndarray) -> list[tuple[int, int]]:
    """(lo, hi) of each run of equal values in ``counts``."""
    edges = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), counts.size]
    return list(zip(edges[:-1], edges[1:]))


class _GainState:
    # False when a gain sums over the candidate axis. Zero pads would
    # regroup numpy's pairwise sum and change the bits, so a stack of
    # that kind holds one candidate count and no pads.
    mixes_counts = True
    _per_instance: tuple[str, ...] = ()  # the arrays keep() cuts
    floor: np.ndarray | None = None  # see _pad_floor

    def keep(self, n: int) -> None:
        for name in self._per_instance:
            a = getattr(self, name)
            if a is not None:
                setattr(self, name, a[:n])

    def _floored(self, gains: np.ndarray, idx) -> np.ndarray:
        return gains if self.floor is None else gains + self.floor.ravel()[idx]


class _FacilityState(_GainState):
    # best[y] = max over chosen x of kernel[x, y]; empty set scores 0,
    # which makes the first gain a plain row sum on nonneg kernels
    mixes_counts = False
    _per_instance = ("best",)

    def __init__(self, kernel: np.ndarray, lam: float, counts=None) -> None:
        # counts goes unread: a stack of this kind holds no pads
        self.k = kernel.reshape(-1, kernel.shape[-1])
        self.best = np.zeros(kernel.shape[:-1])

    def gains(self, idx) -> np.ndarray:
        diff = self.k[idx] - self.best[..., None, :]
        return np.maximum(diff, 0.0, out=diff).sum(axis=-1)

    def add(self, v) -> None:
        np.maximum(self.best, self.k[v], out=self.best)


class _CoverageState(_GainState):
    _per_instance = ("cov", "floor")

    def __init__(self, features: np.ndarray, lam: float, counts=None) -> None:
        self.f = features.reshape(-1, features.shape[-1])
        self.cov = np.zeros(features.shape[:-2] + features.shape[-1:])
        self.floor = _pad_floor(features.shape, counts)

    def gains(self, idx) -> np.ndarray:
        before = np.minimum(self.cov, 1.0)[..., None, :]
        after = np.minimum(self.cov[..., None, :] + self.f[idx], 1.0)
        return self._floored((after - before).sum(axis=-1), idx)

    def add(self, v) -> None:
        self.cov += self.f[v]


class _FeatureSqrtState(_GainState):
    _per_instance = ("sums", "floor")

    def __init__(self, features: np.ndarray, lam: float, counts=None) -> None:
        self.f = features.reshape(-1, features.shape[-1])
        self.sums = np.zeros(features.shape[:-2] + features.shape[-1:])
        self.floor = _pad_floor(features.shape, counts)

    def gains(self, idx) -> np.ndarray:
        now = np.sqrt(self.sums)[..., None, :]
        gains = (np.sqrt(self.sums[..., None, :] + self.f[idx]) - now).sum(axis=-1)
        return self._floored(gains, idx)

    def add(self, v) -> None:
        self.sums += self.f[v]


class _GraphCutState(_GainState):
    # f(X) = lam * sum_{v in V} sum_{x in X} K[x,v] - sum_{x,y in X} K[x,y]
    # with the penalty over ordered pairs including the diagonal
    _per_instance = ("lam_rows", "diag", "cross")

    def __init__(self, kernel: np.ndarray, lam: float, counts=None) -> None:
        self.k = kernel.reshape(-1, kernel.shape[-1])
        self.diag = np.diagonal(kernel, axis1=-2, axis2=-1).copy()
        self.cross = np.zeros(kernel.shape[:-1])  # sum_{x in S} K[x, u]
        if not _has_pads(kernel.shape, counts):
            self.lam_rows = lam * kernel.sum(axis=-1)
            return
        # each run of one count sums its real columns only: a zero pad
        # would regroup numpy's pairwise sum. Pads keep -inf, their gain.
        self.lam_rows = np.full(kernel.shape[:-1], -np.inf)
        for lo, hi in _runs(counts):
            c = counts[lo]
            self.lam_rows[lo:hi, :c] = lam * kernel[lo:hi, :c, :c].sum(axis=-1)

    def gains(self, idx) -> np.ndarray:
        # O(1) per candidate, so taking every gain and indexing the
        # result costs less than indexing three arrays
        return (self.lam_rows - 2.0 * self.cross - self.diag).ravel()[idx]

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


def _by_count(counts: np.ndarray) -> np.ndarray:
    """Rows with a nonzero count, by count descending, then id."""
    rows = np.flatnonzero(counts)
    return rows[np.argsort(-counts[rows], kind="stable")]


def _batches(counts: np.ndarray, cost: np.ndarray, mixes_counts: bool):
    """Slices of ``counts`` (descending) to stack and process together.

    ``cost`` is each row's element count at its own width. A batch pads
    its rows to its first, widest row and holds at most BLOCK_ELEMENTS of
    that row's cost, at least one row. Without ``mixes_counts`` a batch
    holds one count and no pads.
    """
    i = 0
    while i < counts.size:
        j = i + max(1, BLOCK_ELEMENTS // max(1, int(cost[i])))
        if not mixes_counts:
            j = min(j, int(np.searchsorted(-counts, -counts[i], side="right")))
        yield slice(i, j)
        i = j


def _rank_similar(
    g: Graph,
    x: np.ndarray,
    sim: str,
    model: SiameseModel | None,
) -> np.ndarray:
    """Ranked ids of every row, scored in batches of one degree."""
    offsets, targets = g.offsets, g.targets
    deg = np.diff(offsets)
    out = np.empty_like(targets)
    rows = _by_count(deg)
    for batch in _batches(deg[rows], deg[rows] * x.shape[1], mixes_counts=False):
        blk = rows[batch]
        idx = offsets[blk][:, None] + np.arange(deg[blk[0]])
        score = similarity_row(x[targets[idx]], x[blk], sim, model)
        # within a row: descending score, then ascending node id, since a
        # stable sort keeps equal scores in CSR order
        by_score = np.argsort(-score, axis=1, kind="stable")
        out[idx] = targets[np.take_along_axis(idx, by_score, axis=1)]
    return out


def _check_nonnegative(fn_kind: str, x: np.ndarray) -> None:
    if fn_kind not in _KERNEL_KINDS and np.any(x < 0.0):
        raise ValueError(f"{fn_kind} requires nonnegative features")


def _kernel_or_features(xs, sim, fn_kind, model) -> np.ndarray:
    if fn_kind in _KERNEL_KINDS:
        return pairwise_kernel(xs, sim, model)
    return xs


def _exact_greedy(
    fn_kind: str, data: np.ndarray, lam: float, counts: np.ndarray | None = None
) -> np.ndarray:
    """Greedy order over each of B stacked egonets, in lockstep.

    ``data`` is (B, w, w) kernels or (B, w, f) feature rows. Instance i
    has ``counts[i]`` real candidates (default w; descending), the ego
    last among them, then pads up to w; the ego is the initial set. Each
    step takes the fresh gain of every candidate not yet taken, so this
    is naive greedy. Instance i takes counts[i] - 1 steps, so step s runs
    on the prefix of instances with counts - 1 > s. ``left`` keeps the
    candidates not taken in ascending order, pads after the real ones,
    so ``argmax`` picks the lowest node id among equal gains. Returns
    (B, w - 1) local indices in pick order; row i's first counts[i] - 1
    are its order and the rest are 0.
    """
    b, w = data.shape[:2]
    if counts is None:
        counts = np.full(b, w)
    first = np.arange(b) * w  # flat index of each instance's candidate 0
    state = _STATES[fn_kind](data, lam, counts)
    state.add(first + counts - 1)
    pos = np.arange(w - 1)
    left = first[:, None] + pos + (pos >= counts[:, None] - 1)  # all but the ego
    rows = np.arange(b)
    order = np.repeat(first[:, None], w - 1, axis=1)
    # n: the live instances, those with counts - 1 > step, a prefix
    for step, n in enumerate(np.searchsorted(-counts, -np.arange(1, w)).tolist()):
        if n < rows.size:
            left, rows = left[:n], rows[:n]
            state.keep(n)
        pick = state.gains(left).argmax(axis=1)
        order[:n, step] = v = left[rows, pick]
        state.add(v)
        # drop each instance's pick, keeping the rest in order
        shift = pos[: w - 2 - step] >= pick[:, None]
        left = np.where(shift, left[:, 1:], left[:, :-1])
    return order - first[:, None]


def _batch_data(x, cand, counts, sim, fn_kind, model) -> np.ndarray:
    """A batch's (B, w, w) kernels or (B, w, f) feature rows.

    Kernels are built per run of one count, on each set's real
    candidates: neg_euclidean's max-shift and the BLAS bits depend on
    the set. Pads stay zero.
    """
    if fn_kind not in _KERNEL_KINDS:
        return x[cand]
    runs = _runs(counts)
    if len(runs) == 1:
        return pairwise_kernel(x[cand], sim, model)
    w = counts[0]
    data = np.zeros((cand.shape[0], w, w))
    for lo, hi in runs:
        c = counts[lo]
        data[lo:hi, :c, :c] = pairwise_kernel(x[cand[lo:hi, :c]], sim, model)
    return data


def _rank_diverse(
    g: Graph,
    x: np.ndarray,
    sim: str,
    fn_kind: str,
    model: SiameseModel | None,
    lam: float,
) -> np.ndarray:
    """Ranked ids of every row, greedily ordered in lockstep batches.

    A row's candidates are its neighbors other than the ego, in id
    order, then the ego, which anchors the selection. A self-loop
    belongs to the initial set already, so it goes last with gain 0.
    Rows with a candidate besides the ego go by candidate count,
    descending, then id, into batches of at most BLOCK_ELEMENTS padded
    elements. Each batch runs one greedy step loop.
    """
    offsets, targets = g.offsets, g.targets
    deg = np.diff(offsets)
    row = np.repeat(np.arange(deg.size), deg)
    loop = targets == row
    others = targets[~loop]
    k = deg - np.bincount(row[loop], minlength=deg.size)  # non-ego neighbors
    first = np.cumsum(k) - k  # each row's start in ``others``
    has_loop = deg > k
    out = np.empty_like(targets)
    out[offsets[1:][has_loop] - 1] = np.flatnonzero(has_loop)
    ranked = _by_count(k)
    counts = k[ranked] + 1
    # elements per row: (w, f) feature rows, and a (w, w) kernel if any
    cost = counts * (x.shape[1] + counts * (fn_kind in _KERNEL_KINDS))
    for batch in _batches(counts, cost, _STATES[fn_kind].mixes_counts):
        rows, cb = ranked[batch], counts[batch]
        w = cb[0]
        # each row's other neighbors, then the ego, which also fills the pads
        cand = np.repeat(rows[:, None], w, axis=1)
        real = np.arange(w) < (cb - 1)[:, None]
        cand[real] = others[(first[rows][:, None] + np.arange(w))[real]]
        order = _exact_greedy(
            fn_kind, _batch_data(x, cand, cb, sim, fn_kind, model), lam, cb
        )
        real = real[:, :-1]  # row i's first c - 1 picks
        pos = offsets[rows][:, None] + np.arange(w - 1)
        out[pos[real]] = np.take_along_axis(cand, order, axis=1)[real]
    return out


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
) -> RankTable:
    """Rank every vertex's neighbors by similarity to that vertex.

    Rows are sorted by descending similarity with ascending-id
    tie-breaks; probabilities come from the rank positions alone.
    """
    x = _check_node_features(g, x)
    if sim not in SIM_KINDS:
        raise ValueError(f"unknown similarity kind: {sim!r}")
    if sim == "learned" and model is None:
        raise ValueError("learned similarity requires a model")
    spec = pmf or PmfSpec()
    ranked = _rank_similar(g, x, sim, model)
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
    _check_lam(lam)
    spec = pmf or PmfSpec()
    ranked = _rank_diverse(g, x, sim, fn_kind, model, lam)
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
