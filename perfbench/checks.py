"""Output checks, run outside the timed regions.

Each check compares a stage's output with ``reference`` or with a
property the method guarantees, and raises ``CheckFailed`` with a short
reason on the first violation.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

import reference as ref
from workloads import HUB_DEGREE, LAM, PMF


class CheckFailed(Exception):
    pass


def require(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def digest(obj) -> str:
    """SHA-256 over every array and value reachable from ``obj``.

    Walks dataclasses, lists, tuples and dicts, so two outputs of the same
    call compare equal exactly when all their arrays and numbers do.
    """
    h = hashlib.sha256()

    def feed(o) -> None:
        if isinstance(o, np.ndarray):
            h.update(f"{o.dtype}{o.shape}".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif dataclasses.is_dataclass(o):
            for f in dataclasses.fields(o):
                feed(getattr(o, f.name))
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for item in o:
                feed(item)
            h.update(b"]")
        elif isinstance(o, dict):
            for k in sorted(o):
                h.update(repr(k).encode())
                feed(o[k])
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


def _directed(g) -> tuple[np.ndarray, np.ndarray]:
    """(source, target) of every directed edge in CSR order."""
    return np.repeat(np.arange(g.n), np.diff(g.offsets)), np.asarray(g.targets)


def edge_keys(g) -> np.ndarray:
    """u * n + v for every directed edge, ascending (rows are sorted)."""
    src, dst = _directed(g)
    return src * g.n + dst


def _in_graph(keys: np.ndarray, n: int, u: np.ndarray, v: np.ndarray) -> bool:
    q = u * n + v
    if q.size == 0:
        return True
    if keys.size == 0:
        return False
    i = np.minimum(np.searchsorted(keys, q), keys.size - 1)
    return bool(np.all(keys[i] == q))


def parse(g, x, y, inp) -> None:
    require(g.n == inp.n, f"parsed n={g.n}, generated {inp.n}")
    src, dst = _directed(g)
    fwd = np.stack([src, dst], axis=1)
    up = fwd[src < dst]
    down = fwd[src > dst][:, ::-1]
    down = down[np.lexsort((down[:, 1], down[:, 0]))]
    require(fwd.shape[0] == 2 * inp.edges.shape[0], "parsed edge count differs")
    require(np.array_equal(up, inp.edges), "parsed edge set differs")
    require(np.array_equal(down, inp.edges), "parsed graph is not symmetric")
    require(np.array_equal(x, inp.x), "parsed features differ")
    require(np.array_equal(y, inp.y), "parsed labels differ")


def homophily(report, inp) -> None:
    h_edge = ref.edge_homophily(inp.edges, inp.y)
    h_node = ref.node_homophily(inp.n, inp.edges, inp.y)
    require(abs(report.h_edge - h_edge) <= 1e-12, f"h_edge {report.h_edge} != {h_edge}")
    require(abs(report.h_node - h_node) <= 1e-12, f"h_node {report.h_node} != {h_node}")


def synth_target(g_syn, y, target: float, tol: float) -> None:
    src, dst = _directed(g_syn)
    keep = src < dst
    h = ref.node_homophily(g_syn.n, np.stack([src[keep], dst[keep]], axis=1), y)
    require(abs(h - target) <= tol, f"synthetic h_node {h:.4f}, target {target}")


def rank_table(rt, g, x, wl, mode: str, diverse_rows: np.ndarray) -> None:
    require(np.array_equal(rt.offsets, g.offsets), f"{mode}: offsets differ from graph")
    rows, _ = _directed(g)
    ids = np.asarray(rt.ranked_ids)
    order = np.lexsort((ids, rows))
    require(np.array_equal(ids[order], g.targets), f"{mode}: a row is not a permutation of N(u)")

    deg = np.diff(g.offsets)
    pos = np.arange(g.m) - g.offsets[rows]
    expected = np.empty(g.m)
    for d in np.unique(deg[deg > 0]):
        at = deg[rows] == d
        expected[at] = ref.step_pmf(int(d), PMF["k1"], PMF["k2"], PMF["lambdas"])[pos[at]]
    require(
        np.allclose(rt.probs, expected, rtol=1e-12, atol=0.0),
        f"{mode}: probabilities differ from the step PMF",
    )

    if mode == "similar":
        score = ref.cosine if wl.sim == "cosine" else ref.neg_sq_distance
        s = score(x, rows, ids)
        expect = ids[ref.similarity_order(rows, ids, s)]
        if not np.array_equal(ids, expect):
            # reference and program scores may differ in their last bits,
            # so two near-equal neighbours may swap; nothing else may
            s_exp = score(x, rows, expect)
            require(
                np.allclose(s, s_exp, rtol=1e-12, atol=1e-12),
                "similar: a row is not in descending reference similarity",
            )
        return

    kernel = ref.cosine_kernel if wl.sim == "cosine" else ref.neg_euclidean_kernel
    for u in diverse_rows.tolist():
        nbrs = np.asarray(g.targets[g.offsets[u] : g.offsets[u + 1]])
        a_ids = np.concatenate([nbrs, [u]])  # ego last, as the initial set
        k = kernel(x[a_ids])
        got = rt.row(u)[0]
        if np.array_equal(got, a_ids[ref.naive_greedy(k, [nbrs.size], wl.fn_kind, LAM)]):
            continue
        local = np.searchsorted(nbrs, got)  # ego never appears in its own row
        require(
            ref.is_greedy_order(k, [nbrs.size], local.tolist(), wl.fn_kind, LAM),
            f"diverse: row {u} differs from naive greedy beyond ties",
        )


def diverse_sample_rows(g, count: int, rng) -> np.ndarray:
    """The largest-degree rows, all rows above HUB_DEGREE, and random others."""
    deg = np.diff(g.offsets)
    top = np.argsort(-deg, kind="stable")[:4]
    hubs = np.flatnonzero(deg > HUB_DEGREE)
    rest = rng.choice(np.flatnonzero(deg > 0), size=count, replace=False)
    return np.unique(np.concatenate([top, hubs, rest]))


def same_table(a, b) -> None:
    for field in ("mode", "pmf_kind", "pmf_params"):
        require(getattr(a, field) == getattr(b, field), f"round trip changed {field}")
    for field in ("offsets", "ranked_ids", "probs"):
        x, y = getattr(a, field), getattr(b, field)
        require(x.dtype == y.dtype and np.array_equal(x, y), f"round trip changed {field}")


def node_sample(subs, g, keys, y, seeds, fanouts) -> list[tuple[int, int]]:
    """Check each channel's k-hop sample drawn without replacement.

    Returns each channel's (same-label, all) sampled edge counts.
    """
    return [_channel(sub, g, keys, y, seeds, fanouts) for sub in subs]


def _channel(sub, g, keys, y, seeds, fanouts) -> tuple[int, int]:
    require(sub.layers is not None and len(sub.layers) == len(fanouts), "missing hop layers")
    deg = np.diff(g.offsets)
    frontier = np.unique(seeds)
    same = total = 0
    for hop, (layer, k) in enumerate(zip(sub.layers, fanouts)):
        e = sub.parent_ids[layer] if layer.size else layer.reshape(0, 2)
        u, v = e[:, 0], e[:, 1]
        require(_in_graph(keys, g.n, u, v), f"hop {hop}: a sampled edge is not in the graph")
        expect_src = frontier[deg[frontier] > 0]
        require(np.array_equal(np.unique(u), expect_src), f"hop {hop}: sources are not the frontier")
        per_src = np.bincount(u, minlength=g.n)[expect_src]
        require(np.all(per_src == np.minimum(k, deg[expect_src])), f"hop {hop}: draw count != min(k, d)")
        require(np.unique(u * g.n + v).size == u.size, f"hop {hop}: repeated draw without replacement")
        same += int(np.count_nonzero(y[u] == y[v]))
        total += u.size
        frontier = np.unique(v)
    return same, total


def channel_homophily(counts, h_edge: float) -> tuple[float, float]:
    """The paper's claim: similarity-channel edges are the most homophilous."""
    (s_same, s_all), (d_same, d_all) = counts
    h_sim, h_div = s_same / s_all, d_same / d_all
    require(
        h_sim > h_edge and h_sim > h_div,
        f"similarity channel edge homophily {h_sim:.4f} not above graph {h_edge:.4f} "
        f"and diversity channel {h_div:.4f}",
    )
    return h_sim, h_div


def walk(sub, g, keys, seeds, steps: int) -> None:
    e = sub.parent_ids[sub.graph.edge_array()]
    u, v = e[:, 0], e[:, 1]
    require(_in_graph(keys, g.n, u, v), "walk: consecutive steps are not an edge")
    reached = np.union1d(np.asarray(seeds), v)
    require(np.all(np.isin(u, reached)), "walk: a step starts off every walk")
    require(np.all(np.isin(seeds, sub.parent_ids)), "walk: a seed is missing")
    require(u.size <= steps * len(seeds), "walk: more edges than steps")


def edge_weights(w, g, rt) -> None:
    rows, _ = _directed(g)
    order = np.lexsort((rt.ranked_ids, rows))
    require(np.array_equal(w, rt.probs[order]), "edge weight is not the target's PMF mass")


def disjoint(col, inp, k_parts: int) -> list[np.ndarray]:
    """Check the decomposition; return each part's canonical edge keys."""
    require(col.forest_count == k_parts and not col.flags, f"expected {k_parts} forests")
    n = inp.n
    parts = []
    for i in range(len(col.parts)):
        e = col.part_edges(i)
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        parts.append(lo * n + hi)
        if i < k_parts:
            require(ref.is_forest(n, e), f"forest {i} has a cycle")
    allk = np.sort(np.concatenate(parts))
    require(
        np.array_equal(allk, inp.edges[:, 0] * n + inp.edges[:, 1]),
        "parts do not partition the undirected edge set",
    )
    return parts


def disjoint_sample(sub, parts, n: int, k: int, frac: float) -> None:
    e = sub.parent_ids[sub.graph.edge_array()]
    got = np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1])
    hit = [np.isin(p, got) for p in parts]
    full = [i for i, h in enumerate(hit[:-1]) if h.all()]
    require(len(full) == k, f"sample holds {len(full)} whole forests, expected {k}")
    require(all(not h.any() for i, h in enumerate(hit[:-1]) if i not in full), "sample holds part of a forest")
    take = int(round(frac * parts[-1].size))
    require(int(hit[-1].sum()) == take, f"sample holds {int(hit[-1].sum())} residual edges, expected {take}")
    require(got.size == sum(parts[i].size for i in full) + take, "sample holds edges from no part")


def training(history, epochs: int) -> None:
    loss = np.asarray(history["loss"])
    require(loss.size == epochs and history["stopped"] == "epoch_cap", f"training stopped early: {history['stopped']}")
    require(np.all(np.isfinite(loss)), "a training loss is not finite")
    require(loss[-1] < loss[0], f"last loss {loss[-1]:.4f} not below first {loss[0]:.4f}")


def inference(f1: float, nodes, probs, y, test, margin: float) -> None:
    require(np.array_equal(nodes, np.unique(test)), "inference covered other nodes")
    require(np.all(probs >= 0.0), "a class probability is negative")
    require(np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12), "a probability row does not sum to 1")
    acc = float(np.mean(probs.argmax(axis=1) == y[nodes]))
    require(abs(acc - f1) <= 1e-12, f"micro-F1 {f1} != accuracy {acc} of the same draws")
    majority = np.bincount(y[nodes]).max() / nodes.size
    require(f1 >= majority + margin, f"micro-F1 {f1:.3f} not {margin} above majority {majority:.3f}")
