"""Seeded input generators and writers for the benchmark workloads.

Written with numpy alone so that a change to ``ags.synth`` cannot shift
the benchmark's inputs. Every generator returns canonical undirected
edges: an (m, 2) int64 array with u < v in each row, rows unique and
sorted, no self-loops.
"""

from __future__ import annotations

import numpy as np


def canonical_edges(src, dst) -> np.ndarray:
    """Unique sorted (min, max) pairs with self-loops dropped."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    lo = np.minimum(src[keep], dst[keep])
    hi = np.maximum(src[keep], dst[keep])
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return pairs.reshape(-1, 2)


def noisy_one_hot(y: np.ndarray, n_classes: int, sigma: float, rng) -> np.ndarray:
    """Class indicator rows plus i.i.d. Gaussian noise of scale ``sigma``."""
    return np.eye(n_classes)[y] + sigma * rng.normal(size=(y.shape[0], n_classes))


def planted_homophily(y: np.ndarray, h_range, mean_degree: float, rng) -> np.ndarray:
    """Edges where each node picks a same-label share t_u ~ U[h_range].

    Node u starts mean_degree/2 edges (rounded stochastically): a
    Binomial(d/2, t_u) number go to uniformly drawn nodes of its own
    class, the rest to uniformly drawn nodes of other classes. Incoming
    edges from other nodes bring the degree up to about ``mean_degree``
    and the node homophily to about the mean of ``h_range``.
    """
    n = y.shape[0]
    lo, hi = float(h_range[0]), float(h_range[1])
    half = mean_degree / 2.0
    t = lo + (hi - lo) * rng.random(n)
    quota = np.floor(half).astype(np.int64) + (rng.random(n) < half - np.floor(half))
    n_same = rng.binomial(quota, t)
    n_cross = quota - n_same

    by_label = np.argsort(y, kind="stable")
    counts = np.bincount(y)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])

    src_same = np.repeat(np.arange(n), n_same)
    c = y[src_same]
    dst_same = by_label[starts[c] + (rng.random(src_same.size) * counts[c]).astype(np.int64)]

    # an index into "all nodes but class c" skips class c's block
    src_cross = np.repeat(np.arange(n), n_cross)
    c = y[src_cross]
    r = (rng.random(src_cross.size) * (n - counts[c])).astype(np.int64)
    r = np.where(r >= starts[c], r + counts[c], r)
    dst_cross = by_label[r]

    return canonical_edges(
        np.concatenate([src_same, src_cross]), np.concatenate([dst_same, dst_cross])
    )


def chung_lu(n: int, exponent: float, mean_degree: float, max_degree: float, rng) -> np.ndarray:
    """Chung-Lu graph with power-law expected degrees.

    Expected degrees are w_i = a * (i + i0)^(-1 / (exponent - 1)), with a
    and i0 set so that their mean is ``mean_degree`` and their maximum is
    ``max_degree``. n * mean_degree / 2 endpoint pairs are drawn with
    probability proportional to w; self-loops and repeats are dropped.
    """
    alpha = 1.0 / (exponent - 1.0)
    ranks = np.arange(n, dtype=np.float64)

    def weights(i0: float) -> np.ndarray:
        w = (ranks + i0) ** -alpha
        return w * (mean_degree * n / w.sum())

    lo, hi = 1e-6, float(n)
    for _ in range(100):  # the max/mean ratio falls as i0 grows
        mid = np.sqrt(lo * hi)
        if weights(mid)[0] > max_degree:
            lo = mid
        else:
            hi = mid
    w = weights(hi)
    cdf = np.cumsum(w) / w.sum()
    pairs = int(round(n * mean_degree / 2.0))
    src = np.minimum(np.searchsorted(cdf, rng.random(pairs), side="right"), n - 1)
    dst = np.minimum(np.searchsorted(cdf, rng.random(pairs), side="right"), n - 1)
    return canonical_edges(src, dst)


def write_edge_list(path: str, n: int, edges: np.ndarray) -> None:
    """``# n=N`` header, then one ``u v`` line per undirected edge."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={n}\n")
        np.savetxt(fh, edges, fmt="%d")


def write_features(path: str, x: np.ndarray) -> None:
    """CSV rows with 17 significant digits, so parsing gives back x exactly."""
    np.savetxt(path, x, fmt="%.17g", delimiter=",")


def write_labels(path: str, y: np.ndarray) -> None:
    np.savetxt(path, y, fmt="%d")
