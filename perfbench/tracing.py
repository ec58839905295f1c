"""Span and counter recording around the program's layer boundaries.

The tracer replaces module-level names of ``ags`` (the names through
which the pipeline calls each layer) with wrappers that record a span
(name, start, end, parent) per call, plus counters, in memory. It puts
the originals back on ``remove``. A name that no longer exists is
listed as missing and the run goes on.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import numpy as np

from workloads import HUB_DEGREE


def _subgraphs(result):
    return result if isinstance(result, list) else [result]


def _count_lazy_greedy(tr, args, kwargs, result, seconds):
    ground = len(args[0] if args else kwargs["ground"])
    tr.counters["ranking.lazy_greedy_calls"] += 1
    tr.counters["ranking.lazy_greedy_candidates"] += ground
    if ground - 1 > HUB_DEGREE:  # the ground set holds the ego too
        tr.counters["ranking.lazy_greedy_hub_s"] += seconds


def _counter(name):
    def count(tr, args, kwargs, result, seconds):
        tr.counters[name] += 1

    return count


def _count_hops(tr, args, kwargs, result, seconds):
    for sub in _subgraphs(result):
        for hop, layer in enumerate(sub.layers or ()):
            tr.counters[f"sampling.edges_hop{hop}"] += int(layer.shape[0])


def _count_demo_subgraphs(tr, args, kwargs, result, seconds):
    _count_hops(tr, args, kwargs, result, seconds)
    for sub in _subgraphs(result):
        tr.counters["demo.subgraph_nodes"] += sub.n
        tr.counters["demo.subgraph_edges"] += sub.graph.m


# (module, attribute, span name, counter hook). Names imported into a
# module are wrapped where that module looks them up.
TARGETS = (
    ("graph", "load_edge_list", "graph.load_edge_list", None),
    ("graph", "load_features", "graph.load_features", None),
    ("graph", "load_labels", "graph.load_labels", None),
    ("graph", "save_rank_table", "graph.save_rank_table", None),
    ("graph", "load_rank_table", "graph.load_rank_table", None),
    ("metrics", "homophily_report", "metrics.homophily_report", None),
    ("synth", "generate_synthetic", "synth.generate_synthetic", None),
    ("ranking", "rank_by_similarity", "ranking.rank_by_similarity", None),
    ("ranking", "rank_by_diversity", "ranking.rank_by_diversity", None),
    ("ranking", "similarity_row", "similarity.similarity_row", None),
    ("ranking", "pairwise_kernel", "similarity.pairwise_kernel", None),
    ("ranking", "lazy_greedy", "ranking.lazy_greedy", _count_lazy_greedy),
    ("ranking", "pmf_from_ranks", "ranking.pmf_from_ranks", None),
    ("sampling", "node_sample_khop", "sampling.node_sample_khop", _count_hops),
    ("sampling", "sample_neighbors", "sampling.sample_neighbors", _counter("sampling.sample_neighbors_calls")),
    ("sampling", "build_subgraph", "graph.build_subgraph", _counter("graph.build_subgraph_calls")),
    ("sampling", "weighted_random_walk", "sampling.weighted_random_walk", None),
    ("sampling", "edge_weights_from_table", "sampling.edge_weights_from_table", None),
    ("sampling", "disjoint_decompose", "sampling.disjoint_decompose", None),
    ("sampling", "disjoint_subgraph_sample", "sampling.disjoint_subgraph_sample", None),
    ("demo", "train", "demo.train", None),
    ("demo", "evaluate", "demo.evaluate", None),
    ("demo", "node_sample_khop", "sampling.node_sample_khop", _count_demo_subgraphs),
    ("demo", "forward_dual", "demo.forward_dual", None),
    ("demo", "backward_dual", "demo.backward_dual", _counter("demo.batches")),
    ("demo", "forward_channel", "demo.forward_channel", None),
    ("demo", "backward_channel", "demo.backward_channel", None),
    ("demo", "softmax_cross_entropy", "nn.softmax_cross_entropy", None),
    ("demo", "adam_step", "nn.adam_step", None),
)

SPANS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
COUNTERS = (
    "ranking.lazy_greedy_calls",
    "ranking.lazy_greedy_candidates",
    "ranking.lazy_greedy_hub_s",
    "sampling.sample_neighbors_calls",
    "graph.build_subgraph_calls",
    "sampling.edges_hop0",
    "sampling.edges_hop1",
    "demo.batches",
    "demo.subgraph_nodes",
    "demo.subgraph_edges",
)


def _noop():
    return None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.paused = False  # set while the benchmark checks outputs
        self._t0 = time.perf_counter()

    def _wrap(self, fn, name: str, hook):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            i = len(tr.start)
            tr.span_name.append(name_id)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.start.append(clock())
            tr.end.append(0.0)
            tr._stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[i] = clock()
                tr._stack.pop()
            if hook is not None:
                hook(tr, args, kwargs, result, tr.end[i] - tr.start[i])
            return result

        return wrapper

    def install(self, package) -> None:
        for mod_name, attr, name, hook in TARGETS:
            module = getattr(package, mod_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{package.__name__}.{mod_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        name = np.asarray(self.span_name, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        own = np.bincount(name, weights=dur - covered, minlength=len(self.names))
        return {n: float(own[i]) for i, n in enumerate(self.names)}

    def overhead_s(self, reps: int = 200_000) -> float:
        """Recorded spans times the time one wrapper adds to a no-op call.

        A traced round minus an untraced one would be the direct figure,
        but rounds differ by more than the wrappers cost.
        """
        probe = Tracer()
        wrapped = probe._wrap(_noop, "noop", None)
        clock = time.perf_counter
        bare, traced = [], []
        for _ in range(5):
            del probe.span_name[:], probe.start[:], probe.end[:], probe.parent[:]
            t0 = clock()
            for _ in range(reps):
                _noop()
            t1 = clock()
            for _ in range(reps):
                wrapped()
            bare.append(t1 - t0)
            traced.append(clock() - t1)
        return len(self.start) * (min(traced) - min(bare)) / reps

    def write(self, path: str, extra: dict) -> None:
        """Write every span and counter as one JSON document."""
        doc = dict(extra)
        doc.update(
            names=self.names,
            span_name=self.span_name,
            start=[t - self._t0 for t in self.start],
            end=[t - self._t0 for t in self.end],
            parent=self.parent,
            counters=dict(self.counters),
            missing=self.missing,
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
