"""Immutable attributed-graph core.

A graph is stored as CSR adjacency: ``offsets`` (length n+1) indexes into
``targets`` (length m, the directed edge count) and the optional parallel
``weights`` array. Rows are sorted by target id and deduplicated, so the
neighborhood of ``u`` is ``targets[offsets[u]:offsets[u+1]]``. Undirected
graphs store both orientations of every edge; self-loops are stored once.

Node features are float64 arrays of shape (n, f); labels are int64 arrays
with classes 0..c-1 where c = 1 + max(label). Everything here is immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

RANK_TABLE_MAGIC = b"AGSR"
RANK_TABLE_VERSION = 1
# magic(4) version(4) mode(1) pmf(1) pad(2) n(8) m(8) params(6*8)
RANK_TABLE_HEADER_BYTES = 76
RANK_TABLE_TRAILER_BYTES = 4

_MODES = ("similar", "diverse", "uniform")
_PMF_KINDS = ("step", "linear", "exponential", "uniform")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Graph:
    """CSR adjacency. ``m`` counts directed edges (undirected edges twice)."""

    n: int
    offsets: np.ndarray
    targets: np.ndarray
    weights: np.ndarray | None
    directed: bool

    @property
    def m(self) -> int:
        return int(self.targets.shape[0])

    def degree(self, u: int) -> int:
        return int(self.offsets[u + 1] - self.offsets[u])

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbors(self, u: int) -> np.ndarray:
        return self.targets[self.offsets[u] : self.offsets[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.shape[0] and row[i] == v)

    def edge_array(self) -> np.ndarray:
        """All directed edges as an (m, 2) array of (source, target)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        return np.column_stack([src, self.targets])

    def validate(self) -> None:
        if self.offsets.shape[0] != self.n + 1:
            raise ValueError("offsets length must be n+1")
        if self.offsets[0] != 0 or self.offsets[-1] != self.m:
            raise ValueError("offsets must start at 0 and end at m")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be nondecreasing")
        if self.m:
            if self.targets.min() < 0 or self.targets.max() >= self.n:
                raise ValueError("target id out of range")
        for u in range(self.n):
            row = self.neighbors(u)
            if row.shape[0] > 1 and np.any(np.diff(row) <= 0):
                raise ValueError(f"row {u} not strictly increasing")
        if self.weights is not None:
            if self.weights.shape[0] != self.m:
                raise ValueError("weights length must equal m")
            if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
                raise ValueError("weights must be finite and nonnegative")
        if not self.directed:
            edges = self.edge_array()
            fwd = {(int(u), int(v)) for u, v in edges}
            for u, v in fwd:
                if (v, u) not in fwd:
                    raise ValueError(f"missing reverse edge for ({u},{v})")


def from_edges(
    n: int,
    sources,
    targets,
    weights=None,
    directed: bool = False,
) -> Graph:
    """Build a CSR graph from parallel edge arrays.

    Duplicate edges are merged keeping the maximum weight. When
    ``directed`` is false the reverse of every edge is added before the
    merge, so the result is symmetric; self-loops stay single entries.
    """
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("sources and targets must have equal length")
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    if w is not None and w.shape != src.shape:
        raise ValueError("weights must parallel the edge arrays")
    if src.size:
        if min(src.min(), dst.min()) < 0:
            raise ValueError("negative node id")
        if max(src.max(), dst.max()) >= n:
            raise ValueError("node id out of range")
    if not directed and src.size:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if w is not None:
            w = np.concatenate([w, w])

    if src.size:
        # Lexicographic merge: unique (src, dst) pairs, max weight per pair.
        keys = src * np.int64(n) + dst
        order = np.argsort(keys, kind="stable")
        keys, src, dst = keys[order], src[order], dst[order]
        # the keys are sorted, so each run of equal keys starts where a
        # key differs from its predecessor (``np.unique`` would sort again)
        first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        if w is not None:
            w = w[order]
            merged_w = np.maximum.reduceat(w, first)
        src, dst = src[first], dst[first]
        w = merged_w if w is not None else None

    counts = np.bincount(src, minlength=n) if src.size else np.zeros(n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    g = Graph(
        n=n,
        offsets=_frozen(offsets),
        targets=_frozen(dst.astype(np.int64)),
        weights=None if w is None else _frozen(w),
        directed=directed,
    )
    return g


def load_edge_list(path: str, directed: bool = False) -> Graph:
    """Load a whitespace- or TAB-separated edge list.

    Lines are ``u v [w]`` with 0-based ids; ``#`` starts a comment. An
    optional header comment ``# n=<N>`` declares the node count, in which
    case ids must stay below it. Without a header n = 1 + max id.
    """
    declared_n = None
    srcs: list[int] = []
    dsts: list[int] = []
    wts: list[float] = []
    saw_weight = False
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
            w = 1.0
            if len(parts) == 3:
                saw_weight = True
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
            wts.append(w)
    if declared_n is not None:
        n = declared_n
    else:
        n = 1 + max(max(srcs, default=-1), max(dsts, default=-1))
        n = max(n, 0)
    return from_edges(n, srcs, dsts, wts if saw_weight else None, directed=directed)


def load_features(path: str) -> np.ndarray:
    """Load a CSV feature matrix; row i is node i. Returns float64 (n, f)."""
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
    return _frozen(X)


def load_labels(path: str) -> np.ndarray:
    """Load one integer label per line. Returns int64 (n,); classes 0..c-1."""
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
    return _frozen(np.asarray(labels, dtype=np.int64))


def num_classes(y: np.ndarray) -> int:
    return int(y.max()) + 1 if y.size else 0


@dataclass(frozen=True)
class Subgraph:
    """A sampled piece of a parent graph with contiguous local ids.

    Only edges actually chosen by a sampler are present, not the full
    induced edge set. ``layers``, when given, lists per-hop local edge
    arrays of shape (k, 2) in (aggregator, aggregated) orientation.
    """

    parent_ids: np.ndarray
    graph: Graph
    seed_mask: np.ndarray
    layers: tuple[np.ndarray, ...] | None = None

    @property
    def n(self) -> int:
        return int(self.parent_ids.shape[0])

    def seeds_local(self) -> np.ndarray:
        return np.flatnonzero(self.seed_mask)


def unique_ids(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 id array.

    A sort and a neighbour compare. ``np.unique`` (numpy 2) hashes
    integer input, which is several times slower at sampled-batch sizes.
    """
    s = np.sort(ids)
    if s.size:
        s = s[np.concatenate([[True], s[1:] != s[:-1]])]
    return s


def build_subgraph(g: Graph, seeds, edges, layers=None) -> Subgraph:
    """Materialize sampled nodes/edges as a Subgraph with local ids.

    ``edges`` is an (k, 2) array (or sequence of pairs) of global (u, v),
    u the aggregating node. ``layers`` optionally splits the same edges
    per hop. Node set = seeds plus all edge endpoints; ids out of range
    are rejected. Local ids are positions in the sorted node set.
    """
    seeds = np.asarray(seeds, dtype=np.int64).ravel()
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    for arr in (seeds, edge_arr):
        if arr.size and (arr.min() < 0 or arr.max() >= g.n):
            raise ValueError("node id out of range")
    node_ids = unique_ids(np.concatenate([seeds, edge_arr.ravel()]))
    local_of = np.full(g.n, -1, dtype=np.int64)
    local_of[node_ids] = np.arange(node_ids.size)
    local = local_of[edge_arr]
    local_graph = from_edges(node_ids.size, local[:, 0], local[:, 1], directed=True)
    seed_mask = np.zeros(node_ids.size, dtype=bool)
    seed_mask[local_of[seeds]] = True
    local_layers = None
    if layers is not None:
        local_layers = tuple(_localize(local_of, layer) for layer in layers)
    return Subgraph(
        parent_ids=_frozen(node_ids),
        graph=local_graph,
        seed_mask=_frozen(seed_mask),
        layers=local_layers,
    )


def _localize(local_of: np.ndarray, pairs) -> np.ndarray:
    """Local ids of global (u, v) pairs; every id must be a subgraph node."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= local_of.size):
        raise ValueError("node id out of range")
    loc = local_of[arr]
    if loc.size and loc.min() < 0:
        raise ValueError("layer edge endpoint is not a subgraph node")
    return loc


@dataclass(frozen=True)
class RankTable:
    """Per-node ranked neighbors with sampling probabilities.

    ``ranked_ids[offsets[u]:offsets[u+1]]`` is a permutation of N(u) in
    rank order; ``probs`` holds the parallel PMF which sums to 1 per
    non-empty row and is positive everywhere.

    ``cdf`` is derived from ``probs`` on construction and never written
    to files: row u holds u plus the row's running mass, normalised by
    the row's own total so its last entry is exactly u + 1. The whole
    array is nondecreasing, so one ``searchsorted`` of u + U draws from
    row u for every u of a frontier at once.
    """

    mode: str
    pmf_kind: str
    pmf_params: tuple[float, float, float, float, float, float]
    offsets: np.ndarray
    ranked_ids: np.ndarray
    probs: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cdf", _frozen(_shifted_cdf(self.offsets, self.probs)))

    @property
    def n(self) -> int:
        return int(self.offsets.shape[0] - 1)

    @property
    def m(self) -> int:
        return int(self.ranked_ids.shape[0])

    def row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.offsets[u], self.offsets[u + 1]
        return self.ranked_ids[lo:hi], self.probs[lo:hi]

    def validate(self, g: Graph | None = None) -> None:
        """Raise ValueError unless this is a well-formed table.

        Offsets must rise from 0 to m, ids lie in [0, n), masses be
        finite and positive, and each non-empty row sum to 1 within
        1e-9. With ``g``, each row must also be a permutation of g's
        row (``graph_order``). Every check is one vectorized pass.
        """
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.pmf_kind not in _PMF_KINDS:
            raise ValueError(f"unknown pmf kind {self.pmf_kind!r}")
        off = self.offsets
        if off[0] != 0 or off[-1] != self.m or np.any(off[1:] < off[:-1]):
            raise ValueError("offsets must rise from 0 to m")
        ids = self.ranked_ids
        if self.m and (ids.min() < 0 or ids.max() >= self.n):
            raise ValueError("neighbor id out of range")
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("every probability must be finite")
        if np.any(self.probs <= 0):
            raise ValueError("every probability must be positive")
        starts = off[:-1][off[1:] > off[:-1]]
        if starts.size and np.any(np.abs(np.add.reduceat(self.probs, starts) - 1.0) > 1e-9):
            raise ValueError("a row does not sum to 1")
        if g is not None:
            self.graph_order(g)

    def check_rows(self, g: Graph) -> None:
        """Raise ValueError unless n and the row offsets are g's.

        O(n), cheap enough for every sampling call. A table ranked on
        another graph with the same degree sequence still passes.
        """
        if self.n != g.n or not np.array_equal(self.offsets, g.offsets):
            raise ValueError("rank table rows do not match the graph")

    def graph_order(self, g: Graph) -> np.ndarray:
        """The permutation with ``ranked_ids[order] == g.targets``.

        It sorts every row by id. Raises ValueError unless each row is a
        permutation of g's row, i.e. the table was ranked on g.
        """
        self.check_rows(g)
        rows = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees())
        # one int64 key per entry orders by row, then by id
        order = np.argsort(rows * g.n + self.ranked_ids, kind="stable")
        if not np.array_equal(self.ranked_ids[order], g.targets):
            raise ValueError(
                "rank table rows do not match the graph: a row is not a permutation of N(u)"
            )
        return order


def _shifted_cdf(offsets: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Row id plus normalised in-row running mass, for every table entry.

    Never raises: a table that ``RankTable.validate`` rejects (bad
    offsets, a row of zero or non-finite mass) still gets an array, and
    draws from such a table are meaningless but stay inside their row.
    """
    m = probs.shape[0]
    if m == 0 or offsets.shape[0] < 2:
        return np.zeros(m, dtype=np.float64)
    bounds = np.clip(offsets, 0, m)
    # entry j's row counts the row ends at or before j
    row = np.cumsum(np.bincount(bounds[1:], minlength=m + 1)[:m])
    row = np.minimum(row, offsets.shape[0] - 2)
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    base = cum[bounds[row]]
    with np.errstate(divide="ignore", invalid="ignore"):
        return row + (cum[1:] - base) / (cum[bounds[row + 1]] - base)


def make_rank_table(mode, pmf_kind, pmf_params, offsets, ranked_ids, probs) -> RankTable:
    return RankTable(
        mode=mode,
        pmf_kind=pmf_kind,
        pmf_params=tuple(float(x) for x in pmf_params),
        offsets=_frozen(np.asarray(offsets, dtype=np.int64)),
        ranked_ids=_frozen(np.asarray(ranked_ids, dtype=np.int64)),
        probs=_frozen(np.asarray(probs, dtype=np.float64)),
    )


def save_rank_table(rt: RankTable, path: str) -> None:
    """Write the little-endian binary table with a trailing CRC32."""
    header = struct.pack(
        "<4sIBBHQQ6d",
        RANK_TABLE_MAGIC,
        RANK_TABLE_VERSION,
        _MODES.index(rt.mode),
        _PMF_KINDS.index(rt.pmf_kind),
        0,
        rt.n,
        rt.m,
        *rt.pmf_params,
    )
    body = (
        rt.offsets.astype("<u8").tobytes()
        + rt.ranked_ids.astype("<u8").tobytes()
        + rt.probs.astype("<f8").tobytes()
    )
    blob = header + body
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(struct.pack("<I", zlib.crc32(blob)))


def load_rank_table(path: str) -> RankTable:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < RANK_TABLE_HEADER_BYTES + RANK_TABLE_TRAILER_BYTES:
        raise ValueError("truncated rank table file")
    payload, trailer = blob[:-4], blob[-4:]
    (crc,) = struct.unpack("<I", trailer)
    if crc != zlib.crc32(payload):
        raise ValueError("rank table checksum failure")
    magic, version, mode_b, pmf_b, _pad, n, m = struct.unpack_from("<4sIBBHQQ", payload, 0)
    if magic != RANK_TABLE_MAGIC:
        raise ValueError("bad magic: not a rank table file")
    if version != RANK_TABLE_VERSION:
        raise ValueError(f"unsupported rank table version {version}")
    if mode_b >= len(_MODES) or pmf_b >= len(_PMF_KINDS):
        raise ValueError("corrupt rank table header")
    params = struct.unpack_from("<6d", payload, 28)
    expect = RANK_TABLE_HEADER_BYTES + (n + 1) * 8 + m * 16
    if len(payload) != expect:
        raise ValueError("truncated rank table file")
    off = RANK_TABLE_HEADER_BYTES
    offsets = np.frombuffer(payload, dtype="<u8", count=n + 1, offset=off).astype(np.int64)
    off += (n + 1) * 8
    ranked = np.frombuffer(payload, dtype="<u8", count=m, offset=off).astype(np.int64)
    off += m * 8
    probs = np.frombuffer(payload, dtype="<f8", count=m, offset=off).astype(np.float64)
    rt = make_rank_table(_MODES[mode_b], _PMF_KINDS[pmf_b], params, offsets, ranked, probs)
    # a valid checksum does not make a valid table; ids past 2**63 turn
    # negative as int64 and fail the range check
    try:
        rt.validate()
    except ValueError as exc:
        raise ValueError(f"corrupt rank table: {exc}") from None
    return rt
