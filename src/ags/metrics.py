"""Homophily measures and correlation diagnostics for labeled graphs.

Conventions used throughout:
  - local node homophily of u: fraction of u's neighbors sharing u's label
  - node homophily: mean of the local values over non-isolated nodes
  - edge homophily: same-label fraction over unordered edges (each stored
    direction of an undirected edge counts once)
  - adjusted homophily: edge homophily corrected for class degree mass,
    (H_e - sum_k D_k^2/T^2) / (1 - sum_k D_k^2/T^2) with D_k the total
    degree of class-k nodes and T the total degree; range [-1/3, 1]
  - class-insensitive homophily: (1/(c-1)) * sum_k max(0, H_k - |c_k|/n)
    where H_k is the same-label fraction of edge endpoints at class-k nodes
  - entropy score: mean over all nodes of the neighbor-label entropy
    normalized by ln(c); isolated nodes contribute 0
  - uniformity score: fraction of nodes whose neighbor-label histogram
    passes a chi-square goodness-of-fit test against uniform at alpha=0.05
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, num_classes

HISTOGRAM_BUCKETS = 20

# chi-square 0.95 quantiles for dof 1..30; Wilson-Hilferty beyond.
_CHI2_95 = (
    3.841458820694124, 5.991464547107979, 7.814727903251179,
    9.487729036781154, 11.070497693516351, 12.591587243743977,
    14.067140449340169, 15.50731305586545, 16.918977604620448,
    18.307038053275146, 19.67513757268249, 21.02606981748307,
    22.362032494826934, 23.684791304840576, 24.995790139728616,
    26.296227604864238, 27.58711163827534, 28.869299430392623,
    30.14352720564616, 31.410432844230918, 32.670573340917315,
    33.92443847144381, 35.17246162690806, 36.41502850180731,
    37.65248413348277, 38.88513865983007, 40.11327206941362,
    41.33713815142739, 42.5569678043666, 43.77297182574219,
)
_Z_95 = 1.6448536269514722


def chi2_critical_95(dof: int) -> float:
    """0.95 chi-square quantile: exact table to dof 30, Wilson-Hilferty after."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if dof <= 30:
        return _CHI2_95[dof - 1]
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + _Z_95 * math.sqrt(a)) ** 3


def _check_labels(g: Graph, y: np.ndarray) -> None:
    if y.shape[0] != g.n:
        raise ValueError(f"labels length {y.shape[0]} does not match graph nodes {g.n}")


def _neighbor_label_counts(g: Graph, y: np.ndarray) -> np.ndarray:
    """(n, c) int64 matrix whose [u, k] entry counts u's neighbors with label k."""
    _check_labels(g, y)
    n, c = g.n, num_classes(y)
    row = np.repeat(np.arange(n, dtype=np.int64), g.degrees())
    return np.bincount(row * c + y[g.targets], minlength=n * c).reshape(n, c)


def local_homophily_values(g: Graph, y: np.ndarray) -> np.ndarray:
    """Per-node local homophily; NaN marks isolated nodes."""
    return _local_values(g, y, _neighbor_label_counts(g, y))


def _local_values(g: Graph, y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    same = counts[np.arange(g.n), y]
    deg = g.degrees()
    ok = deg > 0
    out = np.full(g.n, np.nan)
    out[ok] = same[ok] / deg[ok]
    return out


def _mean_local(local: np.ndarray) -> float:
    ok = ~np.isnan(local)
    if not ok.any():
        raise ValueError("all nodes isolated; node homophily undefined")
    return float(local[ok].mean())


def node_homophily(g: Graph, y: np.ndarray) -> float:
    return _mean_local(local_homophily_values(g, y))


def _undirected_edge_iter(g: Graph):
    """Unordered edges (u, v) with u <= v; directed graphs yield as stored."""
    edges = g.edge_array()
    if g.directed:
        return edges
    keep = edges[:, 0] <= edges[:, 1]
    return edges[keep]


def edge_homophily(g: Graph, y: np.ndarray) -> float:
    _check_labels(g, y)
    edges = _undirected_edge_iter(g)
    if edges.shape[0] == 0:
        raise ValueError("graph has no edges")
    return float(np.mean(y[edges[:, 0]] == y[edges[:, 1]]))


def adjusted_homophily(g: Graph, y: np.ndarray) -> float:
    """Edge homophily corrected for class degree imbalance.

    The nominal range quoted for this measure is [-1/3, 1], but that is
    not a universal bound: a 4-cycle with bipartite labels evaluates to
    exactly -1, the true lower bound (D_k <= m*(1+H_e) forces the ratio
    to stay >= -1). Values below -1/3 only occur for strong heterophily
    beyond chance level; homophily_report flags them.

    The degenerate case (all degree mass in one class, necessarily with
    edge homophily 1) has a 0/0 correction term and is defined as 1.0 by
    the fully-homophilic limit; homophily_report flags it.
    """
    _check_labels(g, y)
    if g.m == 0:
        raise ValueError("graph has no edges")
    return _adjusted(g, y, edge_homophily(g, y))


def _adjusted(g: Graph, y: np.ndarray, h_e: float) -> float:
    """Adjusted homophily of a graph with edges, given its edge homophily."""
    deg = g.degrees().astype(np.float64)
    total = deg.sum()
    c = num_classes(y)
    d_k = np.bincount(y, weights=deg, minlength=c)
    chance = float((d_k**2).sum() / total**2)
    if 1.0 - chance < 1e-15:
        return 1.0
    h_a = (h_e - chance) / (1.0 - chance)
    if not (-1.0 - 1e-9 <= h_a <= 1.0 + 1e-9):
        raise AssertionError(f"adjusted homophily {h_a} outside [-1, 1]")
    return float(h_a)


def class_insensitive_homophily(g: Graph, y: np.ndarray) -> float:
    return _class_insensitive(g, y, _neighbor_label_counts(g, y))


def _class_insensitive(g: Graph, y: np.ndarray, counts: np.ndarray) -> float:
    n, c = counts.shape
    if c < 2:
        raise ValueError("need at least 2 classes")
    # per class: same-label endpoints, incident endpoints and members, all
    # integers, so each float division below is the exact ratio rounded
    same = np.bincount(y, weights=counts[np.arange(n), y], minlength=c)
    incident = np.bincount(y, weights=g.degrees(), minlength=c)
    members = np.bincount(y, minlength=c)
    total = 0.0
    for s_k, i_k, m_k in zip(same.tolist(), incident.tolist(), members.tolist()):
        h_k = s_k / i_k if i_k else 0.0
        total += max(0.0, h_k - m_k / n)
    return total / (c - 1)


def entropy_score(g: Graph, y: np.ndarray) -> float:
    return _entropy(g, y, _neighbor_label_counts(g, y))


def _entropy(g: Graph, y: np.ndarray, counts: np.ndarray) -> float:
    c = counts.shape[1]
    if c <= 1:
        return 0.0
    log_c = math.log(c)
    deg = g.degrees()
    present = (counts > 0).sum(axis=1)
    terms = np.zeros(g.n)
    # Rows are summed in groups of equal present-label count, each as a
    # dense (rows, k) array: a row reduction over exactly the present
    # labels keeps the bits of a 1-d pairwise sum over that row alone,
    # where zero padding or a sequential reduceat would not.
    for k in np.unique(present[present > 0]):
        rows = np.flatnonzero(present == k)
        sub = counts[rows]
        p = sub[sub > 0].reshape(rows.size, k) / deg[rows, None]
        terms[rows] = -(p * np.log(p)).sum(axis=1) / log_c
    # cumsum adds in node order, one term at a time, from 0.0
    acc = np.cumsum(np.concatenate([[0.0], terms]))[-1]
    return float(acc) / g.n


def uniformity_score(g: Graph, y: np.ndarray) -> tuple[float, int]:
    """Fraction of nodes passing the uniform-neighbor-labels chi-square test.

    Nodes with degree below c cannot pass and auto-fail; the second return
    value counts them so reports can flag it.
    """
    return _uniformity(g, y, _neighbor_label_counts(g, y))


def _uniformity(g: Graph, y: np.ndarray, counts: np.ndarray) -> tuple[float, int]:
    c = counts.shape[1]
    if c < 2:
        raise ValueError("need at least 2 classes")
    crit = chi2_critical_95(c - 1)
    deg = g.degrees()
    tested = deg >= c
    expected = (deg[tested] / c)[:, None]
    stat = ((counts[tested] - expected) ** 2 / expected).sum(axis=1)
    passes = int((stat <= crit).sum())
    return passes / g.n, g.n - int(tested.sum())


def degree_assortativity(g: Graph) -> float | None:
    """Pearson correlation of endpoint degrees over the directed edge list.

    Returns None when either endpoint-degree sequence has zero variance
    (regular graphs), rather than propagating NaN.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    deg = g.degrees().astype(np.float64)
    edges = g.edge_array()
    x = deg[edges[:, 0]]
    t = deg[edges[:, 1]]
    vx = x.var()
    vt = t.var()
    if vx < 1e-15 or vt < 1e-15:
        return None
    cov = float(((x - x.mean()) * (t - t.mean())).mean())
    return cov / math.sqrt(vx * vt)


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape[0] < 2:
        raise ValueError("need at least 2 pairs")
    va, vb = a.var(), b.var()
    if va < 1e-15 or vb < 1e-15:
        raise ValueError("zero variance")
    cov = float(((a - a.mean()) * (b - b.mean())).mean())
    return cov / math.sqrt(va * vb)


def feature_label_correlation(g: Graph, X: np.ndarray, y: np.ndarray) -> float:
    """Pearson r between cosine similarity and label match over the edges.

    Every cosine has the bits of ``similarity.cosine`` on that pair: the
    dots and squared norms are stacked (1, f) @ (f, 1) products, the
    dot product np.linalg.norm takes, and a pair with an all-zero row
    scores 0.0. X is read as a C-ordered copy when it is not one, so the
    result does not depend on its memory layout.
    """
    _check_labels(g, y)
    pairs = _undirected_edge_iter(g)
    if pairs.shape[0] < 2:
        raise ValueError("need at least 2 pairs")
    X = np.ascontiguousarray(X, dtype=np.float64)
    nrm = np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])  # one per node
    nu, nv = nrm[pairs[:, 0]], nrm[pairs[:, 1]]
    ru = X[pairs[:, 0]][:, None, :]  # (p, 1, f)
    cv = X[pairs[:, 1]][:, :, None]  # (p, f, 1)
    dots = (ru @ cv)[:, 0, 0]
    zero = (nu == 0.0) | (nv == 0.0)
    sims = np.where(zero, 0.0, dots / np.where(zero, 1.0, nu * nv))
    match = (y[pairs[:, 0]] == y[pairs[:, 1]]).astype(np.float64)
    return pearson(sims, match)


@dataclass
class HomophilyReport:
    h_node: float
    h_edge: float
    h_adjusted: float
    h_class_insensitive: float
    h_entropy: float
    h_uniformity: float
    assortativity: float | None
    local: np.ndarray
    histogram: list[int]
    flags: list[str] = field(default_factory=list)
    feature_label_r: float | None = None

    def to_dict(self) -> dict:
        d = {
            "h_node": self.h_node,
            "h_edge": self.h_edge,
            "h_adjusted": self.h_adjusted,
            "h_class_insensitive": self.h_class_insensitive,
            "h_entropy": self.h_entropy,
            "h_uniformity": self.h_uniformity,
            "assortativity": self.assortativity,
            "histogram": self.histogram,
            "flags": sorted(self.flags),
        }
        if self.feature_label_r is not None:
            d["feature_label_r"] = self.feature_label_r
        return d


def local_histogram(local: np.ndarray, buckets: int = HISTOGRAM_BUCKETS) -> list[int]:
    """Bucketed counts of local homophily; NaN (isolated) values excluded."""
    vals = local[~np.isnan(local)]
    idx = np.minimum((vals * buckets).astype(np.int64), buckets - 1)
    return np.bincount(idx, minlength=buckets).tolist()


def homophily_report(g: Graph, y: np.ndarray, X: np.ndarray | None = None) -> HomophilyReport:
    """Every measure above, from one neighbour-label count matrix.

    Each field has the bits of its standalone function, and errors come
    in the order those functions would raise them.
    """
    flags = []
    counts = _neighbor_label_counts(g, y)
    local = _local_values(g, y, counts)
    isolated = int(np.isnan(local).sum())
    if isolated:
        flags.append(f"isolated_nodes={isolated}")
    c = num_classes(y)
    deg = g.degrees().astype(np.float64)
    d_k = np.bincount(y, weights=deg, minlength=c)
    if d_k.sum() > 0 and (d_k**2).sum() / d_k.sum() ** 2 > 1.0 - 1e-15:
        flags.append("adjusted_homophily_degenerate")
    # edge_homophily raises "graph has no edges" exactly when
    # adjusted_homophily would
    h_e = edge_homophily(g, y)
    h_adj = _adjusted(g, y, h_e)
    if h_adj < -1.0 / 3.0:
        flags.append("adjusted_below_nominal_range")
    if c >= 2:
        h_ci = _class_insensitive(g, y, counts)
        h_u, auto_fail = _uniformity(g, y, counts)
        if auto_fail:
            flags.append(f"uniformity_auto_fail={auto_fail}")
    else:
        h_ci = 1.0
        h_u = 0.0
        flags.append("single_class")
    report = HomophilyReport(
        h_node=_mean_local(local),
        h_edge=h_e,
        h_adjusted=h_adj,
        h_class_insensitive=h_ci,
        h_entropy=_entropy(g, y, counts),
        h_uniformity=h_u,
        assortativity=degree_assortativity(g),
        local=local,
        histogram=local_histogram(local),
        flags=flags,
    )
    if X is not None:
        try:
            report.feature_label_r = feature_label_correlation(g, X, y)
        except ValueError as exc:
            flags.append(f"feature_label_r_unavailable:{exc}")
    return report
