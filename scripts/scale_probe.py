"""One run of each pipeline stage at paper scale (n = 100,000).

Prints one line per stage: its wall time and the process's peak RSS so
far. The graph is a Chung-Lu graph from ``perfbench/inputs.py`` (mean
degree 12, power-law exponent 2.3, expected degrees capped at 300) with
5 classes and one-hot features under Gaussian noise of scale 0.6. The
probe is a measurement, not a gate: it asserts nothing about the times.

    PYTHONPATH=src python scripts/scale_probe.py

BLAS is pinned to one thread before numpy loads. Facility location takes
most of the run (about 15 s on a 2-vCPU machine); the whole probe takes
about half a minute and peaks near 270 MB.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import inputs  # noqa: E402

from ags import demo, graph, metrics, ranking, sampling, similarity, synth  # noqa: E402

N = 100_000
MEAN_DEGREE = 12.0
CLASSES = 5
NOISE = 0.6
DRAWS = 8_192
WALK_SEEDS = 20_000
WALK_STEPS = 10
REPEATS = 5  # the sub-second sampling stages report the median of this many calls


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(name: str, seconds: float, note: str = "") -> None:
    extra = f"  ({note})" if note else ""
    print(f"{name:<34} {seconds * 1e3:10.1f} ms  peak RSS {peak_rss_mb():7.1f} MB{extra}", flush=True)


def timed(name: str, fn, note: str = ""):
    t0 = time.perf_counter()
    out = fn()
    report(name, time.perf_counter() - t0, note)
    return out


def median_of(name: str, fn, note: str = "") -> None:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    report(name, statistics.median(times), f"median of {REPEATS}" + (f", {note}" if note else ""))


def main() -> None:
    rng = np.random.default_rng(0)
    y = rng.integers(0, CLASSES, size=N)
    x = inputs.noisy_one_hot(y, CLASSES, NOISE, rng)
    edges = timed("inputs.chung_lu", lambda: inputs.chung_lu(N, 2.3, MEAN_DEGREE, 300.0, rng))
    g = timed("graph.from_edges", lambda: graph.from_edges(N, edges[:, 0], edges[:, 1], directed=False))
    print(f"# n = {g.n}, m = {g.m} directed edges, maximum degree {int(g.degrees().max())}")

    timed("synth.generate_synthetic", lambda: synth.generate_synthetic(
        x, y, synth.SynthSpec(target_hn=0.5, avg_degree=MEAN_DEGREE, seed=1)))
    timed("metrics.homophily_report", lambda: metrics.homophily_report(g, y))
    timed("metrics.homophily_report, features", lambda: metrics.homophily_report(g, y, x))

    pmf = ranking.PmfSpec(kind="step", k1=0.15, k2=0.45, lambdas=(8.0, 3.0, 1.0))
    sim = timed("rank similar, cosine", lambda: ranking.rank_by_similarity(g, x, pmf=pmf))
    model = similarity.new_siamese(CLASSES, 32, 16, np.random.default_rng(1))
    timed("rank similar, learned (untrained)",
          lambda: ranking.rank_by_similarity(g, x, sim="learned", pmf=pmf, model=model))
    cut = timed("rank diverse, graph_cut", lambda: ranking.rank_by_diversity(
        g, x, sim="neg_euclidean", fn_kind="graph_cut", pmf=pmf))
    div = timed("rank diverse, facility_location",
                lambda: ranking.rank_by_diversity(g, x, fn_kind="facility_location", pmf=pmf))

    median_of("table construction", lambda: graph.make_rank_table(
        sim.mode, sim.pmf_kind, sim.pmf_params, sim.offsets, sim.ranked_ids, sim.probs),
        "derived sampling arrays from the masses")
    live = np.flatnonzero(g.degrees() > 0)
    frontier = np.sort(np.random.default_rng(2).choice(live, size=DRAWS))
    median_of(f"{DRAWS:,} draws with replacement",
              lambda: sampling.sample_frontier(sim, frontier, 1, True, np.random.default_rng(3)))
    walk_seeds = np.random.default_rng(4).choice(N, size=WALK_SEEDS, replace=False)
    median_of(f"{WALK_SEEDS:,}-seed walk, {WALK_STEPS} steps",
              lambda: sampling.weighted_random_walk(g, sim, walk_seeds, WALK_STEPS, np.random.default_rng(5)))
    seeds = np.random.default_rng(6).choice(N, size=2_048, replace=False)
    median_of("node_sample_khop 2,048 seeds, 25,10",
              lambda: sampling.node_sample_khop(g, [sim, div], seeds, [25, 10],
                                                np.random.default_rng(7), replace=True),
              "two tables, with replacement")

    weights = sampling.edge_weights_from_table(g, cut)
    timed("sampling.disjoint_decompose K=3", lambda: sampling.disjoint_decompose(g, weights, 3))

    perm = np.random.default_rng(8).permutation(N)
    split = (np.sort(perm[:2_048]), np.sort(perm[2_048:3_048]), np.sort(perm[3_048:4_048]))
    cfg = demo.TrainConfig(fanouts=(25, 10), epochs=1, seed=9, replace=True)
    timed("demo.train, 1 dual-channel epoch", lambda: demo.train(g, x, y, [sim, div], cfg, split=split),
          "2,048 seeds, validation on 1,000")


if __name__ == "__main__":
    main()
