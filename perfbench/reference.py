"""Reference computations the benchmark checks the program against.

Each function follows the definition directly and shares no code with
``ags``. They favour clarity over speed, but stay vectorised where the
benchmark calls them on whole graphs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def edge_homophily(edges: np.ndarray, y: np.ndarray) -> float:
    """Share of undirected edges whose endpoints have the same label."""
    return int(np.count_nonzero(y[edges[:, 0]] == y[edges[:, 1]])) / edges.shape[0]


def node_homophily(n: int, edges: np.ndarray, y: np.ndarray) -> float:
    """Mean over non-isolated nodes of the same-label share of neighbours."""
    u, v = edges[:, 0], edges[:, 1]
    same = (y[u] == y[v]).astype(np.float64)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    hits = np.bincount(u, weights=same, minlength=n) + np.bincount(v, weights=same, minlength=n)
    ok = deg > 0
    return float((hits[ok] / deg[ok]).mean())


def cosine(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cosine of the feature rows of each pair (u[i], v[i]); 0 for a zero row."""
    dots = np.einsum("ij,ij->i", x[u], x[v])
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    denom = norms[u] * norms[v]
    return np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)


def neg_sq_distance(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minus the squared Euclidean distance of each pair's feature rows."""
    diff = x[u] - x[v]
    return -np.einsum("ij,ij->i", diff, diff)


def similarity_order(rows: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Within each row, ids by descending score; equal scores by ascending id.

    Returns the permutation of the flat arrays, rows in ascending order.
    """
    return np.lexsort((ids, -scores, rows))


def step_pmf(d: int, k1: float, k2: float, lambdas) -> np.ndarray:
    """Step map: the first floor(k1*d) ranks weigh l1, the next floor(k2*d) l2.

    The tier sizes are taken in exact decimal arithmetic, as the fractions
    are written, so 0.29 * 100 is 29 and not 28.999999999999996.
    """
    n1 = int(Fraction(str(k1)) * d)
    n2 = int(Fraction(str(k2)) * d)
    l1, l2, l3 = lambdas
    w = np.asarray([l1] * n1 + [l2] * n2 + [l3] * (d - n1 - n2), dtype=np.float64)
    return w / w.sum()


def cosine_kernel(xs: np.ndarray) -> np.ndarray:
    """(cos + 1) / 2 between every pair of rows."""
    idx = np.arange(xs.shape[0])
    u, v = np.meshgrid(idx, idx, indexing="ij")
    return (cosine(xs, u.ravel(), v.ravel()).reshape(u.shape) + 1.0) / 2.0


def neg_euclidean_kernel(xs: np.ndarray) -> np.ndarray:
    """max D - D, with D the squared distances between the rows."""
    diff = xs[:, None, :] - xs[None, :, :]
    d = np.einsum("ijk,ijk->ij", diff, diff)
    return d.max() - d


def facility_location(kernel: np.ndarray, chosen: list[int]) -> float:
    """f(S) = sum over every candidate a of max over s in S of K[s, a]."""
    if not chosen:
        return 0.0
    return float(kernel[chosen].max(axis=0).sum())


def graph_cut(kernel: np.ndarray, chosen: list[int], lam: float) -> float:
    """f(S) = lam * sum_{s in S, v} K[s, v] - sum_{s, t in S} K[s, t]."""
    if not chosen:
        return 0.0
    return float(lam * kernel[chosen].sum() - kernel[np.ix_(chosen, chosen)].sum())


def _tied(gains: np.ndarray, tol: float) -> np.ndarray:
    """Mask of gains within a relative ``tol`` of the largest."""
    top = gains.max()
    return gains >= top - tol * max(1.0, abs(top))


def _greedy(kernel: np.ndarray, initial: list[int], kind: str, lam: float, tol: float, follow=None):
    """Plain greedy: every step evaluates the gain of every remaining candidate.

    Without ``follow`` it takes the largest gain, the lowest index among
    gains equal up to ``tol``, and returns the order. With ``follow`` it
    takes those picks instead and returns whether each had a largest gain.
    """
    if kind not in ("facility_location", "graph_cut"):
        raise ValueError(f"no reference for {kind!r}")
    chosen = list(initial)
    rest = [v for v in range(kernel.shape[0]) if v not in chosen]
    # facility location: best[a] = max over S of K[s, a]
    best = kernel[chosen].max(axis=0) if chosen else np.zeros(kernel.shape[0])
    # graph cut: f(S + v) - f(S) = lam * sum_a K[v, a] - 2 * sum_{s in S} K[s, v] - K[v, v]
    cross = kernel[chosen].sum(axis=0)
    row_sums, diag = kernel.sum(axis=1), np.diag(kernel)
    order = []
    for step in range(len(rest)):
        r = np.asarray(rest)
        if kind == "facility_location":
            gains = np.maximum(kernel[r], best).sum(axis=1) - best.sum()
        else:
            gains = lam * row_sums[r] - 2.0 * cross[r] - diag[r]
        tied = _tied(gains, tol)
        if follow is None:
            pick = rest[int(np.argmax(tied))]  # argmax takes the first True
        else:
            pick = int(follow[step])
            if pick not in rest or not tied[rest.index(pick)]:
                return False
        order.append(pick)
        rest.remove(pick)
        best = np.maximum(best, kernel[pick])
        cross = cross + kernel[pick]
    return order if follow is None else True


def naive_greedy(kernel: np.ndarray, initial: list[int], kind: str, lam: float = 2.0, tol: float = 1e-9) -> list[int]:
    """Order every non-initial candidate by plain (non-lazy) greedy.

    Each step evaluates the gain of every remaining candidate and takes
    the largest, the lowest index among gains equal up to ``tol``.
    """
    return _greedy(kernel, initial, kind, lam, tol)


def is_greedy_order(kernel: np.ndarray, initial: list[int], order, kind: str, lam: float = 2.0, tol: float = 1e-9) -> bool:
    """True when every pick of ``order`` had a largest gain, up to ``tol``.

    Gains that are equal in exact arithmetic can differ in their last
    bits, so an order that breaks such a tie the other way still passes.
    """
    if len(order) != kernel.shape[0] - len(set(initial)):
        return False
    return _greedy(kernel, initial, kind, lam, tol, follow=order)


def is_forest(n: int, edges: np.ndarray) -> bool:
    """True when the undirected edges close no cycle (union-find)."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges.tolist():
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True
