"""Synthetic graphs with controlled label homophily, plus selection-bias checks.

The generator wires each node to a target fraction of same-label partners so
graph-level homophily can be dialed while keeping the original features and
(possibly imbalanced) class distribution.  The verifier computes, per ego
node, the exact probability that one neighbor drawn from the similarity /
marginal-gain / uniform distributions shares the ego's label, and checks the
mean-comparison preconditions those selection-bias guarantees rest on.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, from_edges
from .ranking import (
    _STATES,
    SUBMODULAR_KINDS,
    _check_lam,
    _check_nonnegative,
    _kernel_or_features,
)
from .sampling import rngs_for
from .similarity import SIM_KINDS, similarity_row

# spawn_key namespace for per-node generator streams; nodes are wired
# independently so the result does not depend on iteration order.
_NODE_STREAM = 9

# Slack for comparing probabilities that were produced by division; covers
# the ulp-level rounding of the two quotients, nothing more.
_TIE_EPS = 1e-12

_EMPTY = np.zeros(0, dtype=np.int64)


class SynthWarning(RuntimeWarning):
    """A node's edge quota could not be met exactly (pool too small)."""


@dataclass(frozen=True)
class SynthSpec:
    """Target homophily (scalar or per-node [lo, hi] range) and mean degree."""

    target_hn: float | tuple[float, float]
    avg_degree: float
    seed: int = 0

    def __post_init__(self) -> None:
        s = self.seed
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {s!r}")
        t = self.target_hn
        if isinstance(t, (list, tuple, np.ndarray)):
            if len(t) != 2:
                raise ValueError("target range must be [lo, hi]")
            object.__setattr__(self, "target_hn", (float(t[0]), float(t[1])))
        else:
            object.__setattr__(self, "target_hn", float(t))
        lo, hi = self.bounds()
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError("homophily target must satisfy 0 <= lo <= hi <= 1")
        if not (float(self.avg_degree) >= 2.0):
            raise ValueError("average degree must be at least 2")
        if not math.isfinite(self.avg_degree):
            raise ValueError(f"average degree must be finite, got {self.avg_degree!r}")

    def bounds(self) -> tuple[float, float]:
        t = self.target_hn
        if isinstance(t, tuple):
            return t
        return (t, t)


def _round_at(value: float, draw: float) -> int:
    """floor(value), plus 1 when the uniform ``draw`` falls below the fraction."""
    base = math.floor(value)
    return base + (draw < value - base)


def _draw_partners(size, count, rng, notes, kind):
    """Distinct indices into a pool of ``size`` partners, ``count`` wanted.

    ``rng.choice`` over a pool array picks the same slots as over its
    length, so callers map the indices through the pool themselves.
    """
    if count <= 0:
        return _EMPTY
    if size == 0:
        notes[f"skipped_{kind}"] += count
        return _EMPTY
    if count <= size:
        return rng.choice(size, size=count, replace=False)
    # pool smaller than the quota: draw with replacement, then dedupe
    try:
        draws = rng.choice(size, size=count, replace=True)
    except (OverflowError, ValueError, MemoryError):
        # numpy cannot take the count as an int64 or hold the draws
        raise ValueError(
            f"a quota of {count:.3g} {kind}-label partners cannot be drawn; "
            "lower the average degree"
        ) from None
    picks = np.unique(draws)
    notes[f"deduped_{kind}"] += count - picks.size
    return picks


def generate_synthetic(
    x, y, spec: SynthSpec, rng: np.random.Generator | None = None
) -> Graph:
    """Wire an undirected graph over the labeled nodes at the target homophily.

    Each node u draws a target t_u from the spec (a point mass for scalar
    targets), then assigns round(t_u * d/2) same-label partners and
    round((1 - t_u) * d/2) cross-label partners uniformly without
    replacement.  Symmetrizing doubles the expected degree back to d.
    Infeasible quotas (singleton class, no other classes) raise a
    SynthWarning and are skipped.

    Node u reads its own stream ``rng_for(base, _NODE_STREAM, u)``; the
    streams are seeded together by ``rngs_for``. Same-label partners are
    drawn as indices into u's class pool with u's slot skipped, which
    picks what a draw from the pool without u would.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or y.shape[0] < 2:
        raise ValueError("labels must be a vector over at least two nodes")
    n = y.shape[0]
    if x is not None and np.asarray(x).shape[0] != n:
        raise ValueError("features and labels disagree on node count")
    lo, hi = spec.bounds()
    base = spec.seed if rng is None else int(rng.integers(0, 2**63))
    labels = np.unique(y)
    same_pool = {int(c): np.flatnonzero(y == c) for c in labels}
    cross_pool = {int(c): np.flatnonzero(y != c) for c in labels}
    slot = np.empty(n, dtype=np.int64)  # u's position in its class pool
    for pool in same_pool.values():
        slot[pool] = np.arange(pool.size)
    half = float(spec.avg_degree) / 2.0
    notes: Counter[str] = Counter()
    counts = np.zeros(n, dtype=np.int64)
    dsts: list[np.ndarray] = []
    nodes = zip(y.tolist(), slot.tolist(), rngs_for(base, _NODE_STREAM, count=n))
    for u, (c, s, r) in enumerate(nodes):
        d_t, d_same, d_cross = r.random(3).tolist()
        t = lo + (hi - lo) * d_t
        n_same = _round_at(t * half, d_same)
        n_cross = _round_at((1.0 - t) * half, d_cross)
        same, cross = same_pool[c], cross_pool[c]
        j = _draw_partners(same.size - 1, n_same, r, notes, "same")
        k = _draw_partners(cross.size, n_cross, r, notes, "cross")
        if j.size + k.size:
            counts[u] = j.size + k.size
            dsts += (same[j + (j >= s)], cross[k])
    if notes:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(notes.items()))
        warnings.warn(f"edge quotas adjusted: {detail}", SynthWarning, stacklevel=2)
    src = np.repeat(np.arange(n, dtype=np.int64), counts)
    dst = np.concatenate(dsts) if dsts else _EMPTY
    return from_edges(n, src, dst, directed=False)


def generate_mixed(
    x,
    y,
    hn_range,
    avg_degree: float,
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> Graph:
    """Per-node homophily targets drawn uniformly from [lo, hi]."""
    lo, hi = float(hn_range[0]), float(hn_range[1])
    return generate_synthetic(
        x, y, SynthSpec((lo, hi), avg_degree, seed=seed), rng=rng
    )


@dataclass(frozen=True)
class LemmaReport:
    """Per-ego same-label selection masses under three neighbor distributions.

    Stores the raw masses rather than the quotients so the assumption checks
    and their consequences can be evaluated in division-free form: clearing
    the (positive) denominators turns "mean same-label similarity >= mean
    over all neighbors" and "P_similar >= P_uniform" into the one comparison
    degree * same_mass >= same_count * total_mass.
    """

    node_ids: np.ndarray
    degrees: np.ndarray
    same_counts: np.ndarray
    sim_same: np.ndarray
    sim_total: np.ndarray
    gain_same: np.ndarray
    gain_total: np.ndarray
    excluded: int
    flags: tuple[str, ...] = field(default=())

    @property
    def p_uniform(self) -> np.ndarray:
        return self.same_counts / self.degrees

    @property
    def p_similar(self) -> np.ndarray:
        return np.clip(self.sim_same / self.sim_total, 0.0, 1.0)

    @property
    def p_diverse(self) -> np.ndarray:
        return np.clip(self.gain_same / self.gain_total, 0.0, 1.0)

    @property
    def assumption1(self) -> np.ndarray:
        """Mean same-label similarity at least the mean over all neighbors."""
        return self.degrees * self.sim_same >= self.same_counts * self.sim_total

    @property
    def assumption2(self) -> np.ndarray:
        """Mean same-label marginal gain at most the mean over all neighbors."""
        return self.degrees * self.gain_same <= self.same_counts * self.gain_total

    @property
    def lemma1_violations(self) -> int:
        """Assumption-passing egos where similar selection underperforms uniform."""
        bad = self.assumption1 & (self.p_similar < self.p_uniform - _TIE_EPS)
        return int(np.count_nonzero(bad))

    @property
    def lemma2_violations(self) -> int:
        """Assumption-passing egos where diverse selection overperforms uniform."""
        bad = self.assumption2 & (self.p_diverse > self.p_uniform + _TIE_EPS)
        return int(np.count_nonzero(bad))

    @property
    def mean_uniform(self) -> float:
        return float(self.p_uniform.mean()) if self.node_ids.size else float("nan")

    @property
    def mean_similar(self) -> float:
        return float(self.p_similar.mean()) if self.node_ids.size else float("nan")

    @property
    def mean_diverse(self) -> float:
        return float(self.p_diverse.mean()) if self.node_ids.size else float("nan")

    def summary(self) -> dict:
        return {
            "nodes": int(self.node_ids.size),
            "excluded": int(self.excluded),
            "mean_uniform": self.mean_uniform,
            "mean_similar": self.mean_similar,
            "mean_diverse": self.mean_diverse,
            "assumption1_pass": int(np.count_nonzero(self.assumption1)),
            "assumption2_pass": int(np.count_nonzero(self.assumption2)),
            "lemma1_violations": self.lemma1_violations,
            "lemma2_violations": self.lemma2_violations,
            "flags": list(self.flags),
        }


def verify_lemmas(
    g: Graph,
    x,
    y,
    sim: str = "cosine",
    fn: str = "facility_location",
    model=None,
    lam: float = 2.0,
) -> LemmaReport:
    """Exact per-ego same-label selection probabilities for three distributions.

    For every ego t with at least one neighbor, computes the probability that
    a single draw shares t's label when the draw is uniform, proportional to
    feature similarity, or proportional to the marginal gain of adding the
    neighbor to {t} under the chosen submodular objective.  Egos whose total
    similarity or gain mass is zero are excluded and counted.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != g.n or y.shape != (g.n,):
        raise ValueError("features/labels do not match the graph")
    if sim not in SIM_KINDS:
        raise ValueError(f"unknown similarity kind: {sim!r}")
    if fn not in SUBMODULAR_KINDS:
        raise ValueError(f"unknown submodular kind: {fn!r}")
    _check_nonnegative(fn, x)
    _check_lam(lam)

    ids, degs, counts = [], [], []
    s_same, s_tot, g_same, g_tot = [], [], [], []
    isolated = zero_sim = zero_gain = 0
    for t in range(g.n):
        nbrs = g.neighbors(t)
        d = int(nbrs.shape[0])
        if d == 0:
            isolated += 1
            continue
        sims = similarity_row(x[nbrs], x[t], kind=sim, model=model)
        # the gain of each neighbor (local 0..d-1) given the ego (local d)
        local = x[np.concatenate([nbrs, [t]])]
        state = _STATES[fn](_kernel_or_features(local, sim, fn, model), lam)
        state.add(d)
        gains = state.gains(slice(0, d))
        finite = np.isfinite(sims).all() and np.isfinite(gains).all()
        if not (finite and np.all(sims >= 0.0) and np.all(gains >= -1e-12)):
            raise ValueError("selection masses must be finite and nonnegative")
        gains = np.maximum(gains, 0.0)
        st, sd = float(sims[y[nbrs] == y[t]].sum()), float(sims.sum())
        mt, md = float(gains[y[nbrs] == y[t]].sum()), float(gains.sum())
        if sd <= 0.0:
            zero_sim += 1
            continue
        if md <= 0.0:
            zero_gain += 1
            continue
        ids.append(t)
        degs.append(d)
        counts.append(int(np.count_nonzero(y[nbrs] == y[t])))
        s_same.append(st)
        s_tot.append(sd)
        g_same.append(mt)
        g_tot.append(md)

    flags = []
    if isolated:
        flags.append(f"isolated={isolated}")
    if zero_sim:
        flags.append(f"zero_similarity_mass={zero_sim}")
    if zero_gain:
        flags.append(f"zero_gain_mass={zero_gain}")
    return LemmaReport(
        node_ids=np.asarray(ids, dtype=np.int64),
        degrees=np.asarray(degs, dtype=np.float64),
        same_counts=np.asarray(counts, dtype=np.float64),
        sim_same=np.asarray(s_same),
        sim_total=np.asarray(s_tot),
        gain_same=np.asarray(g_same),
        gain_total=np.asarray(g_tot),
        excluded=isolated + zero_sim + zero_gain,
        flags=tuple(flags),
    )
