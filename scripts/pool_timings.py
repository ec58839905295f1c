"""Wall time of rank-table builds at two worker counts, on one source tree.

Times ``rank_by_similarity`` and ``rank_by_diversity`` of the ``ags``
package found under ``--src`` at ``workers=1`` and ``workers=2``, taking
the best of ``--repeats`` runs per count, the two counts alternating.
Graphs:

- the seed-1 input of each benchmark workload (``perfbench/workloads.py``),
  ranked with the workload's similarity kind and PMF;
- ``ags bench``'s synthetic graph at n = 4,000 and 20,000 (seed 0,
  mean degree 20);
- with ``--big``, a Chung-Lu graph shaped like ``hub-skewed`` at
  n = 100,000, timed once per count.

A source tree whose rank functions ignore ``workers`` reads about 1x at
every row. Prints one JSON object. BLAS runs on one thread.

    python3 scripts/pool_timings.py --src <checkout>/src --repeats 3 --big
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTS = (1, 2)


def bench_graph(ags, n: int, seed: int = 0, degree: float = 20.0):
    """The graph and features ``ags bench`` builds for size n."""
    rng = ags.sampling.rng_for(seed, ags.cli._STREAM_BENCH, n)
    y = rng.integers(0, 7, size=n)
    x = np.eye(7)[y] + 0.5 * rng.normal(size=(n, 7))
    spec = ags.synth.SynthSpec(target_hn=0.25, avg_degree=degree, seed=seed + n)
    return ags.synth.generate_synthetic(x, y, spec), x


def workload_graph(ags, wl, seed: int, workdir: str):
    from workloads import make_inputs

    inp = make_inputs(wl, seed, workdir)
    g = ags.graph.from_edges(inp.n, inp.edges[:, 0], inp.edges[:, 1], directed=False)
    return g, inp.x


def time_kind(ags, g, x, kind: str, sim: str, pmf, repeats: int) -> dict:
    ranking = ags.ranking
    if kind == "similarity":
        def rank(w):
            return ranking.rank_by_similarity(g, x, sim=sim, pmf=pmf, workers=w)
    else:
        def rank(w):
            return ranking.rank_by_diversity(
                g, x, sim=sim, fn_kind=kind, pmf=pmf, workers=w
            )
    best = {w: float("inf") for w in COUNTS}
    tables = {}
    for _ in range(repeats):
        for w in COUNTS:
            t0 = time.perf_counter()
            tables[w] = rank(w)
            best[w] = min(best[w], time.perf_counter() - t0)
    same = all(
        tables[w].ranked_ids.tobytes() == tables[COUNTS[0]].ranked_ids.tobytes()
        for w in COUNTS
    )
    return {
        **{f"workers_{w}_s": round(best[w], 4) for w in COUNTS},
        "speedup_2_over_1": round(best[1] / best[2], 3),
        "identical": same,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the src/ directory of a checkout")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--big", action="store_true", help="also time n = 100,000")
    ns = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(ns.src))
    sys.path.insert(1, os.path.join(ROOT, "perfbench"))
    import ags
    from ags import cli, graph, ranking, sampling, synth  # noqa: F401
    from workloads import PMF, WORKLOADS

    pmf = ranking.PmfSpec(**PMF)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for name, kinds in (
            ("train-mixed", ("similarity", "facility_location")),
            ("hub-skewed", ("similarity", "graph_cut", "facility_location")),
        ):
            wl = WORKLOADS[name]
            g, x = workload_graph(ags, wl, 1, os.path.join(tmp, name))
            cases.append((f"{name} seed-1 input", g, x, wl.sim, kinds, ns.repeats))
        kinds = ("similarity", "graph_cut", "facility_location")
        for n in (4000, 20000):
            g, x = bench_graph(ags, n)
            cases.append((f"ags bench graph, n = {n}", g, x, "cosine", kinds, ns.repeats))
        if ns.big:
            wl = dataclasses.replace(WORKLOADS["hub-skewed"], n=100_000)
            g, x = workload_graph(ags, wl, 1, os.path.join(tmp, "big"))
            cases.append(("Chung-Lu, n = 100,000", g, x, wl.sim, kinds, 1))
        for label, g, x, sim, kinds, repeats in cases:
            row = {"graph": label, "n": g.n, "m": g.m, "sim": sim}
            for kind in kinds:
                row[kind] = time_kind(ags, g, x, kind, sim, pmf, repeats)
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
    print(json.dumps({"rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
