"""Pipeline benchmark for the ags package.

Runs ``homophily report -> synth -> rank (similar, diverse) -> sample
(node, walk, disjoint) -> train -> infer`` through the package's public
Python API on seeded inputs, in whole rounds, for about ``--seconds``
seconds. Every stage output is checked outside the timed regions. The
last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one untraced
and one traced round run and the metrics are per-layer self times,
counters and the tracing overhead.

    python3 perfbench/run.py --workload train-mixed --seed 1 --seconds 60 --trace 0
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # String hashes are seeded per process and decide dict and set layouts.
    # With random seeds, runs on the same inputs spread about twice as much.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

# Fixed before numpy loads, so every run uses the same BLAS thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
from tracing import COUNTERS, SPANS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_SIZE, DIVERSE_CHECK_ROWS, F1_MARGIN, HIDDEN, INFER_REPS, K_PARTS, K_SAMPLE, LAM, MC_SAMPLES,
    N_TEST, N_VAL, PMF, RESIDUAL_FRAC, SAMPLE_REPS, WALK_REPS, WORKLOADS, make_inputs,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPS = 5  # loads per round; setup_s is the median over all of them

# rng streams for the program's draws, under the run's --seed
_SPLIT, _SAMPLE, _WALK, _DISJOINT, _EVAL, _ROWS = range(6)


def import_ags():
    """The ags package from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import ags
        from ags import demo, graph, metrics, ranking, sampling, synth  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ags from {SRC}: {exc}")
    if not os.path.abspath(ags.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: ags was imported from {ags.__file__}, not {SRC}")
    return ags


class Run:
    """One workload's inputs, operation counts and rounds."""

    def __init__(self, ags, wl, inp, seed: int) -> None:
        self.ags, self.wl, self.inp, self.seed = ags, wl, inp, seed
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.checked: dict[str, tuple[str, bool, object]] = {}
        self.check_s = 0.0
        self.tracer: Tracer | None = None
        self.keys = None  # directed edge keys of the parsed graph

        perm = np.random.default_rng([seed, _SPLIT]).permutation(wl.n)
        a, b = wl.n_train, wl.n_train + N_VAL
        self.split = (np.sort(perm[:a]), np.sort(perm[a:b]), np.sort(perm[b : b + N_TEST]))
        order = np.random.default_rng([seed, _SAMPLE]).permutation(wl.n)
        need = wl.sample_batches * BATCH_SIZE
        seeds = order[np.arange(need) % wl.n]
        self.batches = [seeds[i : i + BATCH_SIZE] for i in range(0, need, BATCH_SIZE)]
        self.walk_seeds = np.random.default_rng([seed, _WALK]).permutation(wl.n)[: wl.walk_seeds]
        self.h_edge = ref.edge_homophily(inp.edges, inp.y)
        self.pmf = ags.ranking.PmfSpec(**PMF)

    def call(self, fn, *args, **kwargs):
        """Time one operation; returns (result, seconds, operation id)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.attempted += 1
        return result, dt, self.attempted

    def check(self, key: str, ops, output, fn, *args):
        """Check ``output`` untimed and untraced; a failure fails ``ops``.

        The first output under ``key`` gets the full check ``fn(*args)``.
        Every repeat of the same call, with the same inputs and generator
        seed, must return an identical output. Returns what the full check
        returned, or None when the output failed.
        """
        if self.tracer is not None:
            self.tracer.paused = True
        t0 = time.perf_counter()
        try:
            got = checks.digest(output)
            if key not in self.checked:
                try:
                    self.checked[key] = (got, True, fn(*args))
                except checks.CheckFailed as exc:
                    self.checked[key] = (got, False, None)
                    self.failures.append(f"{key}: {exc}")
            first, ok, value = self.checked[key]
            if got != first:
                ok = False
                self.failures.append(f"{key}: a repeat of the same call returned a different output")
            if not ok:
                self.failed_ops.update(ops)
            return value if ok else None
        finally:
            self.check_s += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.paused = False

    def round(self) -> dict:
        """One pass of the pipeline; returns each stage's seconds.

        A stage run several times in the round reports its median.
        """
        ags, wl, inp, seed = self.ags, self.wl, self.inp, self.seed
        graph, ranking, sampling, demo = ags.graph, ags.ranking, ags.sampling, ags.demo
        t: dict = {"setup_reps": []}

        for _ in range(SETUP_REPS):
            g, d1, o1 = self.call(graph.load_edge_list, inp.graph_path)
            x, d2, o2 = self.call(graph.load_features, inp.features_path)
            y, d3, o3 = self.call(graph.load_labels, inp.labels_path)
            self.check("parse", [o1, o2, o3], (g, x, y), checks.parse, g, x, y, inp)
            t["setup_reps"].append(d1 + d2 + d3)
        t["setup"] = statistics.median(t["setup_reps"])
        if self.keys is None:
            self.keys = checks.edge_keys(g)

        report, t["homophily"], op = self.call(ags.metrics.homophily_report, g, y)
        self.check("homophily", [op], report, checks.homophily, report, inp)

        spec = ags.synth.SynthSpec(target_hn=wl.synth_target, avg_degree=wl.mean_degree, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g_syn, t["synth"], op = self.call(ags.synth.generate_synthetic, x, y, spec)
        self.check("synth", [op], g_syn, checks.synth_target, g_syn, y, wl.synth_target, 0.02)

        rows = checks.diverse_sample_rows(g, DIVERSE_CHECK_ROWS, np.random.default_rng([seed, _ROWS]))
        tables, t["precompute"] = [], 0.0
        for mode in ("similar", "diverse"):
            if mode == "similar":
                rt, dt, op = self.call(ranking.rank_by_similarity, g, x, sim=wl.sim, pmf=self.pmf)
            else:
                rt, dt, op = self.call(
                    ranking.rank_by_diversity, g, x, sim=wl.sim, fn_kind=wl.fn_kind, pmf=self.pmf, lam=LAM
                )
            self.check(f"rank-{mode}", [op], rt, checks.rank_table, rt, g, x, wl, mode, rows)
            path = os.path.join(inp.workdir, f"{mode}.agsr")
            _, d_save, o_save = self.call(graph.save_rank_table, rt, path)
            loaded, d_load, o_load = self.call(graph.load_rank_table, path)
            self.check(f"round-trip-{mode}", [o_save, o_load], loaded, checks.same_table, rt, loaded)
            t["precompute"] += dt + d_save + d_load
            tables.append(loaded)
        sim_t = tables[0]

        reps = []
        for _ in range(SAMPLE_REPS):
            counts, ops, total = [[0, 0], [0, 0]], [], 0.0
            for b, seeds in enumerate(self.batches):
                subs, dt, op = self.call(
                    sampling.node_sample_khop, g, tables, seeds, list(wl.fanouts),
                    np.random.default_rng([seed, _SAMPLE, b]), replace=False,
                )
                total += dt
                ops.append(op)
                got = self.check(
                    f"sample-{b}", [op], subs, checks.node_sample, subs, g, self.keys, y, seeds, wl.fanouts
                )
                for ch, (same, all_) in enumerate(got or ((0, 0), (0, 0))):
                    counts[ch][0] += same
                    counts[ch][1] += all_
            t["channel_h"] = self.check(
                "channel-homophily", ops, counts, checks.channel_homophily, counts, self.h_edge
            )
            reps.append(total)
        t["sample"] = statistics.median(reps)

        reps = []
        for _ in range(WALK_REPS):
            sub, dt, op = self.call(
                sampling.weighted_random_walk, g, sim_t, self.walk_seeds, wl.walk_steps,
                np.random.default_rng([seed, _WALK]),
            )
            self.check("walk", [op], sub, checks.walk, sub, g, self.keys, self.walk_seeds, wl.walk_steps)
            reps.append(dt)
        t["walk"] = statistics.median(reps)
        t["walk_steps"] = wl.walk_steps * int(np.count_nonzero(np.diff(g.offsets)[self.walk_seeds]))

        reps = []
        for _ in range(wl.disjoint_reps):
            w, d1, o1 = self.call(sampling.edge_weights_from_table, g, sim_t)
            self.check("edge-weights", [o1], w, checks.edge_weights, w, g, sim_t)
            col, d2, o2 = self.call(sampling.disjoint_decompose, g, w, K_PARTS)
            parts = self.check("decompose", [o2], col, checks.disjoint, col, inp, K_PARTS)
            sub, d3, o3 = self.call(
                sampling.disjoint_subgraph_sample, col, K_SAMPLE, RESIDUAL_FRAC,
                np.random.default_rng([seed, _DISJOINT]),
            )
            if parts is None:
                self.failed_ops.add(o3)  # nothing to check the sample against
            else:
                self.check(
                    "disjoint-sample", [o3], sub, checks.disjoint_sample, sub, parts, inp.n, K_SAMPLE,
                    RESIDUAL_FRAC,
                )
            reps.append(d1 + d2 + d3)
        t["disjoint"] = statistics.median(reps)

        cfg = demo.TrainConfig(
            hidden=HIDDEN, fanouts=wl.fanouts, batch_size=BATCH_SIZE, epochs=wl.epochs,
            lr=wl.lr, window=wl.epochs + 1,  # a window longer than the run: no early stop
            seed=seed, replace=wl.train_replace,
        )
        (model, history), t["train"], op = self.call(demo.train, g, x, y, tables, cfg, split=self.split)
        self.check("train", [op], (model, history), checks.training, history, wl.epochs)

        reps = []
        test = self.split[2]
        for _ in range(INFER_REPS):
            f1, dt, op = self.call(
                demo.evaluate, model, g, x, y, tables, test, fanouts=wl.fanouts,
                rng=np.random.default_rng([seed, _EVAL]), mc_samples=MC_SAMPLES, replace=wl.train_replace,
            )
            self.check("infer", [op], f1, self._check_inference, model, g, x, y, tables, f1)
            reps.append(dt)
        t["infer"] = statistics.median(reps)

        t["pipeline"] = sum(t[k] for k in STAGES)
        return t

    def _check_inference(self, model, g, x, y, tables, f1) -> None:
        # the same generator seed repeats evaluate's draws, so its
        # probabilities can be checked and its micro-F1 recomputed from them
        wl, test = self.wl, self.split[2]
        nodes, probs = self.ags.demo.predict_proba(
            model, g, x, tables, test, wl.fanouts, np.random.default_rng([self.seed, _EVAL]),
            mc_samples=MC_SAMPLES, replace=wl.train_replace,
        )
        checks.inference(f1, nodes, probs, y, test, F1_MARGIN)


STAGES = ("setup", "homophily", "synth", "precompute", "sample", "walk", "disjoint", "train", "infer")


def end_to_end(rounds: list[dict], wl) -> dict[str, float]:
    def med(f):
        return statistics.median(f(r) for r in rounds)

    seeds_per_batch = wl.sample_batches * BATCH_SIZE
    return {
        "setup_s": statistics.median(s for r in rounds for s in r["setup_reps"]),
        "precompute_s": med(lambda r: r["precompute"]),
        "sample_seeds_per_s": med(lambda r: seeds_per_batch / r["sample"]),
        "walk_steps_per_s": med(lambda r: r["walk_steps"] / r["walk"]),
        "disjoint_s": med(lambda r: r["disjoint"]),
        "train_seeds_per_s": med(lambda r: wl.epochs * wl.n_train / r["train"]),
        "infer_seeds_per_s": med(lambda r: N_TEST / r["infer"]),
        "pipeline_s": med(lambda r: r["pipeline"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


UNITS = {
    "setup_s": "s", "precompute_s": "s", "sample_seeds_per_s": "seeds/s",
    "walk_steps_per_s": "steps/s", "disjoint_s": "s", "train_seeds_per_s": "seeds/s",
    "infer_seeds_per_s": "seeds/s", "pipeline_s": "s", "peak_rss_mb": "MB",
}


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    own = tracer.self_times()
    out = {f"{name}_s": (own.get(name, 0.0), "s") for name in SPANS}
    for name in COUNTERS:
        out[name] = (float(tracer.counters.get(name, 0)), "s" if name.endswith("_s") else "count")
    out["trace.overhead_s"] = (tracer.overhead_s(), "s")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)

    ags = import_ags()
    wl = WORKLOADS[ns.workload]
    workdir = os.path.join(HERE, ".work", wl.name)
    run = Run(ags, wl, make_inputs(wl, ns.seed, workdir), ns.seed)

    rounds = []
    if ns.trace:
        rounds.append(run.round())  # so the traced round does not pay first-call costs
        tracer = run.tracer = Tracer()
        tracer.install(ags)
        try:
            rounds.append(run.round())
        finally:
            tracer.remove()
            run.tracer = None
        layers = per_layer(tracer)
        tracer.write(
            os.path.join(workdir, "trace.json"),
            {"workload": wl.name, "seed": ns.seed, "per_layer": {k: v for k, (v, _) in layers.items()}},
        )
        if tracer.missing:
            print(f"perfbench: missing trace targets: {', '.join(tracer.missing)}", file=sys.stderr)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(run.round())
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > ns.seconds:
                break
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end(rounds, wl).items()}

    for i, r in enumerate(rounds):
        times = " ".join(f"{k}={r[k]:.4f}" for k in STAGES + ("pipeline",))
        print(f"perfbench: round {i} {times}", file=sys.stderr)
    h_sim, h_div = rounds[-1]["channel_h"] or (float("nan"), float("nan"))
    print(
        f"perfbench: {wl.name} seed={ns.seed} rounds={len(rounds)} checks={run.check_s:.2f}s "
        f"h_edge={run.h_edge:.4f} sampled h_sim={h_sim:.4f} h_div={h_div:.4f}",
        file=sys.stderr,
    )
    for msg in dict.fromkeys(run.failures):
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    failed = len(run.failed_ops)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
