"""Immutable attributed-graph core.

A graph is stored as CSR adjacency: ``offsets`` (length n+1) indexes into
``targets`` (length m, the directed edge count). Rows are sorted by target
id and deduplicated, so the neighborhood of ``u`` is
``targets[offsets[u]:offsets[u+1]]``. Undirected graphs store both
orientations of every edge; self-loops are stored once.

Node features are float64 arrays of shape (n, f); labels are int64 arrays
with classes 0..c-1 where c = 1 + max(label). Everything here is immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import textscan

RANK_TABLE_MAGIC = b"AGSR"
RANK_TABLE_VERSION = 1
# magic(4) version(4) mode(1) pmf(1) pad(2) n(8) m(8) params(6*8)
_RANK_TABLE_HEADER = "<4sIBBHQQ6d"
RANK_TABLE_HEADER_BYTES = struct.calcsize(_RANK_TABLE_HEADER)
RANK_TABLE_TRAILER_BYTES = 4  # the CRC32 that ends every binary frame

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


def from_edges(
    n: int,
    sources,
    targets,
    directed: bool = False,
) -> Graph:
    """Build a CSR graph from parallel edge arrays.

    Duplicate edges are merged. When ``directed`` is false the reverse of
    every edge is added before the merge, so the result is symmetric;
    self-loops stay single entries. The merge sorts the int64 keys
    ``src * n + dst`` once (``unique_ids``) and splits them back into
    (src, dst) pairs with ``np.divmod``.
    """
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("sources and targets must have equal length")
    if src.size:
        if min(src.min(), dst.min()) < 0:
            raise ValueError("negative node id")
        if max(src.max(), dst.max()) >= n:
            raise ValueError("node id out of range")
    if not directed and src.size:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return _merge_edges(n, src, dst, directed)


def _merge_edges(n: int, src: np.ndarray, dst: np.ndarray, directed: bool) -> Graph:
    """The CSR graph of int64 edge arrays whose ids are known to lie in [0, n)."""
    if src.size:
        # lexicographic merge: the distinct keys, ascending, are the
        # distinct (src, dst) pairs in CSR order
        src, dst = np.divmod(unique_ids(src * np.int64(n) + dst), n)

    counts = np.bincount(src, minlength=n) if src.size else np.zeros(n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Graph(
        n=n,
        offsets=_frozen(offsets),
        targets=_frozen(dst.astype(np.int64)),
        directed=directed,
    )


def load_edge_list(path: str, directed: bool = False) -> Graph:
    """Load a whitespace- or TAB-separated edge list.

    Lines are ``u v [w]`` with 0-based ASCII decimal ids. The optional
    weight ``w`` may appear on some lines only; it must be a finite
    number >= 0 and is otherwise ignored. A comment on a line of its own
    of the form ``# n=<N>`` declares the node count: every id in the file
    must stay below it, wherever the header sits, and two headers must
    agree. Without a header n = 1 + max id. Line ends, comments and
    number forms follow ``textscan``. Errors name the first bad line.
    """
    s = textscan.scan(path)
    count = s.tokens_per_line()
    declared_n, header_error = _edge_list_header(s, count)
    col = np.arange(s.starts.size) - (np.cumsum(count) - count)[s.line]
    id_tok = np.flatnonzero(col < 2)
    # structure: 2 or 3 tokens, integer ids
    bad = (count == 1) | (count > 3)
    bad[s.line[id_tok[~textscan.int_tokens_ok(s, id_tok)]]] = True
    stop = int(np.argmax(bad)) if bad.any() else s.n_lines
    errors = [header_error] if header_error else []
    if stop < s.n_lines:
        text = s.line_text(stop)
        if count[stop] in (2, 3):
            errors.append((stop, f"non-integer node id in {text!r}"))
        else:
            errors.append((stop, f"expected 'u v [w]', got {text!r}"))

    # values of the lines before ``stop``, one edge per line
    id_tok = id_tok[: np.searchsorted(s.line[id_tok], stop)]
    ids = textscan.values(s, id_tok, np.int64)
    src, dst = ids[0::2], ids[1::2]
    edge_line = s.line[id_tok[0::2]]
    negative = (ids != 0) & (s.raw[s.starts[id_tok]] == ord("-"))
    negative = negative[0::2] | negative[1::2]
    w_tok = np.flatnonzero(col == 2)
    w_tok = w_tok[: np.searchsorted(s.line[w_tok], stop)]
    w_ok, w = textscan.real_values(s, w_tok)
    w_edge = np.searchsorted(edge_line, s.line[w_tok])
    w_nonnumeric = np.zeros(src.size, dtype=bool)
    w_nonnumeric[w_edge[~w_ok]] = True
    w_range = np.zeros(src.size, dtype=bool)
    w_range[w_edge[w_ok][~(np.isfinite(w) & (w >= 0))]] = True
    top = np.maximum(src, dst)
    overflow = top == textscan.INT64_SATURATED
    too_big = top >= declared_n if declared_n is not None else np.zeros(src.size, dtype=bool)
    failed = negative | w_nonnumeric | w_range | overflow | too_big
    if failed.any():
        i = int(np.argmax(failed))
        line = int(edge_line[i])
        if negative[i]:
            msg = "negative node id"
        elif w_nonnumeric[i]:
            msg = f"non-numeric weight in {s.line_text(line)!r}"
        elif w_range[i]:
            msg = "weight must be finite and >= 0"
        elif overflow[i]:
            msg = "node id out of range"
        else:
            msg = f"id {top[i]} >= declared n={declared_n}"
        errors.append((line, msg))
    if errors:
        line, msg = min(errors)
        raise ValueError(f"line {line + 1}: {msg}")
    if declared_n is not None:
        n = declared_n
    else:
        n = int(top.max()) + 1 if top.size else 0
    return from_edges(n, src, dst, directed=directed)


def _edge_list_header(s: textscan.Scan, count: np.ndarray):
    """The declared n and the first header error as (0-based line, message).

    A header is a comment on a line of its own whose text, spaces
    removed, starts with ``n=``. Only lines without tokens that hold an
    ``=`` are read, one at a time.
    """
    eq_lines = np.unique(s.lines_of(np.flatnonzero(s.raw == ord("="))))
    first = None
    for line in eq_lines[count[eq_lines] == 0].tolist():
        text = s.line_text(line)
        header = text[1:].strip().replace(" ", "")
        if not header.startswith("n="):
            continue
        try:
            n = int(header[2:])
        except ValueError:
            return None if first is None else first[1], (line, f"bad header {text!r}")
        if first is None:
            first = (line, n)
        elif n != first[1]:
            return first[1], (line, f"header n={n} contradicts n={first[1]} on line {first[0] + 1}")
    return None if first is None else first[1], None


def load_features(path: str) -> np.ndarray:
    """Load a CSV feature matrix; row i is node i. Returns float64 (n, f).

    Values are ASCII reals (``textscan``) separated by commas, with any
    whitespace around a comma. Every row must have the first row's
    width. Errors name the first bad line, except that a non-finite
    value fails after every line parsed.
    """
    s = textscan.scan(path, split_commas=True)
    count = s.tokens_per_line()
    comma_pos = s.commas()
    commas = np.bincount(s.lines_of(comma_pos), minlength=s.n_lines)
    data = (count > 0) | (commas > 0)
    if not data.any():
        raise ValueError("no rows")
    # a field is a comma-separated cell; each must hold exactly one token
    field = s.line + np.searchsorted(comma_pos, s.starts)
    per_field = np.bincount(field, minlength=s.n_lines + int(commas.sum()))
    nonnumeric = np.zeros(s.n_lines, dtype=bool)
    nonnumeric[np.repeat(np.arange(s.n_lines), commas + 1)[per_field != 1]] = True
    nonnumeric &= data
    ok, X = textscan.real_values(s, np.arange(s.starts.size))
    nonnumeric[s.line[~ok]] = True
    width = int(commas[np.argmax(data)]) + 1
    ragged = data & (commas + 1 != width)
    bad = nonnumeric | ragged
    if bad.any():
        line = int(np.argmax(bad))
        if nonnumeric[line]:
            raise ValueError(f"line {line + 1}: non-numeric feature value")
        raise ValueError(f"line {line + 1}: row length {commas[line] + 1} != {width}")
    X = X.reshape(-1, width)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature value")
    return _frozen(X)


def load_labels(path: str) -> np.ndarray:
    """Load one integer label per line. Returns int64 (n,); classes 0..c-1.

    Labels are ASCII integers (``textscan``); errors name the first bad
    line.
    """
    col = textscan.int_column(path)
    out = (col.values < 0) | (col.values == textscan.INT64_SATURATED)
    if out.any():
        raise ValueError(f"line {col.lines[np.argmax(out)]}: label out of range")
    if col.bad_line is not None:
        raise ValueError(f"line {col.bad_line}: non-integer label {col.bad_text!r}")
    if not col.values.size:
        raise ValueError("no rows")
    return _frozen(col.values)


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


def _packed_sort(major: np.ndarray, minor: np.ndarray, bits: int) -> np.ndarray | None:
    """One ``np.sort`` of the int64 values ``(major << bits) | minor``.

    Layout, from the top: the sign bit (always 0), ``major`` in the next
    63 - bits bits, ``minor`` in the low ``bits`` bits. The values sort
    by major, then minor. Both fields must be nonnegative and minor below
    2**bits; ``minor = value & ((1 << bits) - 1)`` decodes it. Returns
    None when major's largest value does not fit beside the sign bit, so
    the caller can take another way.
    """
    if major.size and (bits > 63 or int(major.max()) >> (63 - bits)):
        return None
    packed = major << bits
    packed |= minor
    packed.sort()
    return packed


def _number_sample(n: int, seeds: np.ndarray, hops) -> tuple:
    """Number a drawn sample's nodes once: ``(ids, local seeds, local hops, graph)``.

    ``hops`` lists per-hop ``(sources, targets)`` int64 arrays of ids in
    [0, n), and every source must be a seed or a target of some hop, as
    a k-hop frontier or a walk's current vertex is. The nodes are the
    seeds and the targets; ``ids`` holds them ascending, and a node's
    local id is its position there. The local hops are the hops in local
    ids, and ``graph`` merges them into one directed CSR graph over
    ``ids.size`` nodes.
    """
    # seeds[:0] makes an empty list of hops give empty int64 arrays
    src = np.concatenate([seeds[:0], *(s for s, _ in hops)])
    dst = np.concatenate([seeds[:0], *(t for _, t in hops)])
    ids = unique_ids(np.concatenate([seeds, dst]))
    # every id looked up below is in ids, so no unwritten slot is read
    local_of = np.empty(n, dtype=np.int64)
    local_of[ids] = np.arange(ids.size)
    src, dst = local_of[src], local_of[dst]
    local_hops, at = [], 0
    for _, t in hops:
        local_hops.append((src[at : at + t.size], dst[at : at + t.size]))
        at += t.size
    graph = _merge_edges(ids.size, src, dst, directed=True)
    return ids, local_of[seeds], local_hops, graph


def build_subgraph(g: Graph, seeds, edges) -> Subgraph:
    """Materialize sampled nodes/edges as a Subgraph with local ids.

    ``edges`` is an (k, 2) array (or sequence of pairs) of global (u, v),
    u the aggregating node. Node set = seeds plus all edge endpoints; ids
    out of range are rejected. Local ids are positions in the sorted
    node set.
    """
    seeds = np.asarray(seeds, dtype=np.int64).ravel()
    edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ends = np.concatenate([seeds, edge_arr.ravel()])
    if ends.size and (ends.min() < 0 or ends.max() >= g.n):
        raise ValueError("node id out of range")
    src, dst = edge_arr[:, 0], edge_arr[:, 1]
    # the sources join the seeds, so each is numbered; only the seeds are marked
    ids, local_seeds, _, local_graph = _number_sample(
        g.n, np.concatenate([seeds, src]), [(src, dst)]
    )
    return _subgraph(ids, local_seeds[: seeds.size], local_graph)


def _subgraph(ids: np.ndarray, local_seeds: np.ndarray, graph: Graph, layers=None) -> Subgraph:
    """The Subgraph of ``_number_sample``'s ids, local seeds and graph."""
    seed_mask = np.zeros(ids.size, dtype=bool)
    seed_mask[local_seeds] = True
    return Subgraph(_frozen(ids), graph, _frozen(seed_mask), layers)


@dataclass(frozen=True)
class RankTable:
    """Per-node ranked neighbors with sampling probabilities.

    ``ranked_ids[offsets[u]:offsets[u+1]]`` is a permutation of N(u) in
    rank order; ``probs`` holds the parallel PMF which sums to 1 per
    non-empty row and is positive everywhere.

    ``cdf`` and ``guide`` are derived from ``probs`` on construction and
    never written to files. Row u of ``cdf`` holds u plus the row's
    running mass, normalised by the row's own total so its last entry is
    exactly u + 1; a draw of u with uniform U takes the first entry of
    the row whose ``cdf`` exceeds u + U, and the whole array is
    nondecreasing, so one ``searchsorted`` of u + U finds it too. The
    guide table (Chen and Asau 1974) lets draws start near that entry:
    row u's d entries double as d equal slots of [0, 1), and ``guide``
    holds, for slot j, the in-row index (int32) of the first entry whose
    normalised running mass passes j / d.
    """

    mode: str
    pmf_kind: str
    pmf_params: tuple[float, float, float, float, float, float]
    offsets: np.ndarray
    ranked_ids: np.ndarray
    probs: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False, compare=False)
    guide: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cdf, guide = _shifted_cdf(self.offsets, self.probs)
        object.__setattr__(self, "cdf", _frozen(cdf))
        object.__setattr__(self, "guide", _frozen(guide))

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
        foreign = "rank table rows do not match the graph: a row is not a permutation of N(u)"
        ids = self.ranked_ids
        if ids.size and (ids.min() < 0 or ids.max() >= g.n):
            raise ValueError(foreign)
        deg = g.degrees()
        # one sort of (row, id, offset in row): each row keeps its own
        # slots, so its start plus the decoded offset is the entry. Each
        # m-sized array is made when needed and dropped after its last
        # use, so no more than three are alive at once
        offset_bits = (int(deg.max(initial=0)) - 1).bit_length()
        id_bits = (g.n - 1).bit_length()
        minor = np.arange(g.m)
        minor -= np.repeat(g.offsets[:-1], deg)
        minor |= ids << offset_bits
        rows = np.repeat(np.arange(g.n, dtype=np.int64), deg)
        order = _packed_sort(rows, minor, id_bits + offset_bits)
        del minor
        if order is not None:
            order &= (1 << offset_bits) - 1
            order += np.repeat(g.offsets[:-1], deg)
        else:
            # the keys of a valid table are distinct, so the sort needs no stability
            order = np.argsort(rows * g.n + ids)
        del rows
        if not np.array_equal(ids[order], g.targets):
            raise ValueError(foreign)
        return order


def _shifted_cdf(offsets: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``cdf`` and ``guide`` arrays of a table, in one pass.

    ``cdf`` is the row id plus the normalised in-row running mass of
    every entry. ``guide`` gives slot j of a row of d entries the count
    of the row's entries whose mass times d rounds up to at most j:
    the first entry whose mass passes j / d, as an in-row index.

    Never raises: a table that ``RankTable.validate`` rejects (bad
    offsets, a row of zero or non-finite mass) still gets both arrays.
    Every guide value is clipped to an in-row index of its entry's row,
    so draws from such a table are meaningless but stay inside their
    row.
    """
    m = probs.shape[0]
    if m == 0 or offsets.shape[0] < 2:
        return np.zeros(m, dtype=np.float64), np.zeros(m, dtype=np.int32)
    bounds = np.clip(offsets, 0, m)
    # entry j's row counts the row ends at or before j
    row = np.cumsum(np.bincount(bounds[1:], minlength=m + 1)[:m])
    row = np.minimum(row, offsets.shape[0] - 2)
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    lo, hi = bounds[row], bounds[row + 1]
    base = cum[lo]
    total = cum[hi]
    # at m = 1.2M each array is 10 MB, so dead ones are reused in place
    d = np.subtract(hi, lo, out=hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        total -= base
        mass = cum[1:] - base
        np.divide(mass, total, out=mass)
        # the first slot that counts each entry; fmin sends NaN to d
        first = np.multiply(mass, d, out=base)
    cdf = np.add(row, mass, out=mass)
    np.ceil(first, out=first)
    np.fmin(first, d, out=first)
    np.fmax(first, 0.0, out=first)
    slot = row
    np.copyto(slot, first, casting="unsafe")
    slot += lo
    # a valid table's earlier rows put all lo of their entries at or
    # before slot lo, so the running count past lo is the row's own
    guide = np.bincount(slot, minlength=m + 1)[:m]
    np.cumsum(guide, out=guide)
    guide -= lo
    d -= 1
    np.minimum(guide, d, out=guide)
    np.maximum(guide, 0, out=guide)
    return cdf, guide.astype(np.int32)


def make_rank_table(mode, pmf_kind, pmf_params, offsets, ranked_ids, probs) -> RankTable:
    return RankTable(
        mode=mode,
        pmf_kind=pmf_kind,
        pmf_params=tuple(float(x) for x in pmf_params),
        offsets=_frozen(np.asarray(offsets, dtype=np.int64)),
        ranked_ids=_frozen(np.asarray(ranked_ids, dtype=np.int64)),
        probs=_frozen(np.asarray(probs, dtype=np.float64)),
    )


def _checked(obj, what: str):
    """``obj`` once ``obj.validate()`` passes, else its ValueError after ``what``."""
    try:
        obj.validate()
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    return obj


def _write_frame(path: str, header_fmt: str, header: tuple, arrays) -> None:
    """Write a ``struct`` header starting ``<4sI`` (magic, version), the
    ``(file dtype, array)`` pairs of ``arrays`` back to back, and the
    little-endian CRC32 of all of it."""
    parts = [struct.pack(header_fmt, *header)]
    parts += [np.ascontiguousarray(a, dtype=dtype) for dtype, a in arrays]
    crc = 0
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def _read_frame(path: str, name: str, magic: bytes, version: int, header_fmt: str, layout):
    """A frame's header fields after magic and version, and its arrays.

    Checks, in order: length, CRC32, magic, version, and that the body is
    exactly the ``(8-byte file dtype, dtype, shape)`` arrays declared by
    ``layout(*fields)``, which may raise ValueError on a bad field."""
    with open(path, "rb") as fh:
        blob = fh.read()
    start = struct.calcsize(header_fmt)
    if len(blob) < start + RANK_TABLE_TRAILER_BYTES:
        raise ValueError(f"truncated {name} file")
    payload = memoryview(blob)[:-RANK_TABLE_TRAILER_BYTES]
    if struct.unpack_from("<I", blob, len(payload))[0] != zlib.crc32(payload):
        raise ValueError(f"{name} checksum failure")
    file_magic, file_version, *fields = struct.unpack_from(header_fmt, blob)
    if file_magic != magic:
        raise ValueError(f"bad magic: not a {name} file")
    if file_version != version:
        raise ValueError(f"unsupported {name} version {file_version}")
    arrays = layout(*fields)
    if len(payload) != start + 8 * sum(math.prod(shape) for _, _, shape in arrays):
        raise ValueError(f"truncated {name} file")
    out = []
    for file_dtype, dtype, shape in arrays:
        count = math.prod(shape)
        out.append(np.frombuffer(blob, file_dtype, count, start).astype(dtype).reshape(shape))
        start += 8 * count
    return fields, out


def save_rank_table(rt: RankTable, path: str) -> None:
    """Write the table as AGSR v1 (``_write_frame``).

    Raises ValueError, writing nothing, on a table that ``validate``
    rejects, so every file written here loads.
    """
    _checked(rt, "rank table not written")
    header = (RANK_TABLE_MAGIC, RANK_TABLE_VERSION, _MODES.index(rt.mode),
              _PMF_KINDS.index(rt.pmf_kind), 0, rt.n, rt.m, *rt.pmf_params)
    arrays = [("<u8", rt.offsets), ("<u8", rt.ranked_ids), ("<f8", rt.probs)]
    _write_frame(path, _RANK_TABLE_HEADER, header, arrays)


def _rank_table_layout(mode, pmf_kind, _pad, n, m, *params):
    if mode >= len(_MODES) or pmf_kind >= len(_PMF_KINDS):
        raise ValueError("corrupt rank table header")
    return [("<u8", np.int64, (n + 1,)), ("<u8", np.int64, (m,)), ("<f8", np.float64, (m,))]


def load_rank_table(path: str) -> RankTable:
    (mode, pmf_kind, _, _, _, *params), arrays = _read_frame(
        path, "rank table", RANK_TABLE_MAGIC, RANK_TABLE_VERSION, _RANK_TABLE_HEADER,
        _rank_table_layout)
    # a valid checksum does not make a valid table; ids past 2**63 turn
    # negative as int64 and fail the range check
    rt = make_rank_table(_MODES[mode], _PMF_KINDS[pmf_kind], params, *arrays)
    return _checked(rt, "corrupt rank table")
