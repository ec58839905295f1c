"""Command-line front door for the toolkit.

Every subcommand reads plain files (edge lists, feature/label tables,
rank tables), emits JSON with sorted keys, and writes a run manifest
next to its output recording the resolved configuration, input digests,
seed, tool version, and wall time. Reruns with the same seed produce
byte-identical outputs; timings live only in manifests and bench
reports. Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__, demo, metrics, ranking, sampling, similarity, synth
from .graph import (
    Graph,
    Subgraph,
    from_edges,
    load_edge_list,
    load_features,
    load_labels,
    load_rank_table,
    save_rank_table,
)

_SIM_MAP = {"cosine": "cosine", "euclidean": "neg_euclidean", "learned": "learned"}
_FN_MAP = {
    "facility": "facility_location",
    "coverage": "max_coverage",
    "feature": "feature_based",
    "graphcut": "graph_cut",
}
_PMF_MAP = {"step": "step", "linear": "linear", "exp": "exponential"}
_COMBINER_MAP = {"concat": "concat_mlp", "skip": "skip"}

# rng stream ids claimed by the CLI (module streams use lower numbers)
_STREAM_SAMPLE = 30
_STREAM_SPLIT = 31
_STREAM_EVAL = 32
_STREAM_BENCH = 33


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _coerce(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_coerce) + "\n"


def _load_config_file(path: str) -> dict[str, str]:
    """key=value lines; '#' starts a comment; keys are long flag names."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip().strip("\"'")
    return out


def _load_id_file(path: str) -> np.ndarray:
    ids = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                ids.append(int(line))
            except ValueError:
                raise ValueError(f"seed file line {lineno}: not an integer")
    return np.asarray(ids, dtype=np.int64)


@dataclass
class RunContext:
    """Everything a manifest needs, accumulated while a command runs."""

    command: str
    out: str | None
    config: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    seed: int = 0
    started: float = field(default_factory=time.perf_counter)
    file_cfg: dict = field(default_factory=dict)

    def digest(self, path: str) -> str:
        self.inputs[path] = _sha256(path)
        return path

    def resolve(self, ns: argparse.Namespace, name: str, default, cast):
        """Flag > config file > default; the winner lands in the manifest."""
        flag = getattr(ns, name.replace("-", "_"), None)
        if flag is not None:
            value = flag
        elif name in self.file_cfg:
            value = cast(self.file_cfg[name])
        else:
            value = default
        self.config[name] = value
        return value

    def manifest_path(self) -> str:
        if self.out:
            return self.out + ".manifest.json"
        return f"ags-{self.command}.manifest.json"

    def write_manifest(self, error: str | None = None) -> None:
        payload = {
            "command": self.command,
            "config": self.config,
            "inputs": self.inputs,
            "seed": self.seed,
            "tool_version": __version__,
            "wall_time_s": round(time.perf_counter() - self.started, 6),
        }
        if error is not None:
            payload["error"] = error
        with open(self.manifest_path(), "w", encoding="utf-8") as fh:
            fh.write(_dumps(payload))


def _resolve_seed(ns: argparse.Namespace, ctx: RunContext) -> int:
    if getattr(ns, "seed", None) is not None:
        seed = int(ns.seed)
    elif "seed" in ctx.file_cfg:
        seed = int(ctx.file_cfg["seed"])
    elif os.environ.get("AGS_SEED"):
        seed = int(os.environ["AGS_SEED"])
    else:
        seed = 0
    ctx.seed = seed
    ctx.config["seed"] = seed
    return seed


def _resolve_workers(ns: argparse.Namespace, ctx: RunContext) -> int:
    w = ctx.resolve(ns, "workers", os.cpu_count() or 1, int)
    if w < 1:
        raise ValueError("workers must be positive")
    return w


def _emit(payload: dict, out: str | None) -> None:
    text = _dumps(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph_features_labels(ns, ctx, features_required=True):
    g = load_edge_list(ctx.digest(ns.graph))
    x = None
    if getattr(ns, "features", None):
        x = load_features(ctx.digest(ns.features))
    elif features_required:
        raise ValueError("this command needs --features")
    y = None
    if getattr(ns, "labels", None):
        y = load_labels(ctx.digest(ns.labels))
    return g, x, y


def _pmf_from(ns, ctx) -> ranking.PmfSpec:
    kind = ctx.resolve(ns, "pmf", "step", str)
    if kind not in _PMF_MAP:
        raise ValueError(f"unknown pmf: {kind!r} (choose from {sorted(_PMF_MAP)})")
    k1 = ctx.resolve(ns, "k1", 0.2, float)
    k2 = ctx.resolve(ns, "k2", 0.2, float)
    lambdas_raw = ctx.resolve(ns, "lambdas", "4,2,1", str)
    lambdas = tuple(float(v) for v in str(lambdas_raw).split(","))
    if len(lambdas) != 3:
        raise ValueError("lambdas must be three comma-separated numbers")
    rate = ctx.resolve(ns, "rate", 0.5, float)
    return ranking.PmfSpec(kind=_PMF_MAP[kind], k1=k1, k2=k2, lambdas=lambdas, rate=rate)


def _subgraph_payload(sub: Subgraph) -> dict:
    parent = sub.parent_ids
    edges = sub.graph.edge_array()
    payload = {
        "seeds": parent[sub.seeds_local()].tolist(),
        "nodes": parent.tolist(),
        "edges": parent[edges].tolist() if edges.size else [],
    }
    if sub.layers is not None:
        payload["layers"] = [
            parent[layer].tolist() if layer.size else [] for layer in sub.layers
        ]
    return payload


def cmd_analyze(ns, ctx) -> dict:
    g, x, y = _load_graph_features_labels(ns, ctx, features_required=False)
    if y is None:
        raise ValueError("analyze needs --labels")
    if y.size != g.n:
        raise ValueError("label count must match the graph")
    report = metrics.homophily_report(
        g, y, X=x, sim=similarity.cosine if x is not None else None
    )
    payload = {"command": "analyze", "n": g.n, "m": g.m}
    payload.update(report.to_dict())
    return payload


def cmd_rank(ns, ctx) -> dict:
    g, x, y = _load_graph_features_labels(ns, ctx)
    mode = ctx.resolve(ns, "mode", None, str)
    if mode not in ("similar", "diverse"):
        raise ValueError("mode must be 'similar' or 'diverse'")
    sim_key = ctx.resolve(ns, "sim", "cosine", str)
    if sim_key not in _SIM_MAP:
        raise ValueError(f"unknown sim: {sim_key!r} (choose from {sorted(_SIM_MAP)})")
    fn_key = ctx.resolve(ns, "fn", "facility", str)
    if fn_key not in _FN_MAP:
        raise ValueError(f"unknown fn: {fn_key!r} (choose from {sorted(_FN_MAP)})")
    lam = ctx.resolve(ns, "lam", 2.0, float)
    pmf = _pmf_from(ns, ctx)
    seed = _resolve_seed(ns, ctx)
    workers = _resolve_workers(ns, ctx)

    model = None
    if sim_key == "learned":
        if y is None:
            raise ValueError("learned similarity needs --labels to train on")
        epochs = ctx.resolve(ns, "sim-epochs", 60, int)
        cfg = similarity.SiameseConfig(h1=64, h2=32, epochs=epochs, seed=seed)
        model, _ = similarity.train_similarity(g, x, y, cfg)
        similarity.save_similarity_model(ns.out + ".model", model)

    sim = _SIM_MAP[sim_key]
    if mode == "similar":
        rt = ranking.rank_by_similarity(g, x, sim=sim, pmf=pmf, model=model, workers=workers)
    else:
        rt = ranking.rank_by_diversity(
            g, x, sim=sim, fn_kind=_FN_MAP[fn_key], pmf=pmf, model=model,
            lam=lam, workers=workers,
        )
    save_rank_table(rt, ns.out)
    return {
        "command": "rank",
        "mode": mode,
        "pmf": rt.pmf_kind,
        "n": g.n,
        "entries": int(rt.ranked_ids.size),
        "table": ns.out,
        "model": ns.out + ".model" if model is not None else None,
    }


def cmd_sample_node(ns, ctx) -> dict:
    g = load_edge_list(ctx.digest(ns.graph))
    tables = [load_rank_table(ctx.digest(ns.table))]
    if ns.table2:
        tables.append(load_rank_table(ctx.digest(ns.table2)))
    seeds = _load_id_file(ctx.digest(ns.seeds))
    fanouts_raw = ctx.resolve(ns, "fanouts", "25,10", str)
    fanouts = [int(v) for v in str(fanouts_raw).split(",")]
    replace = ctx.resolve(ns, "replace", False, lambda s: s.lower() == "true")
    seed = _resolve_seed(ns, ctx)

    subs = sampling.node_sample_khop(
        g, tables if len(tables) > 1 else tables[0], seeds,
        fanouts, sampling.rng_for(seed, _STREAM_SAMPLE), replace=replace,
    )
    if isinstance(subs, Subgraph):
        subs = [subs]
    return {
        "command": "sample-node",
        "fanouts": fanouts,
        "replace": replace,
        "channels": [_subgraph_payload(s) for s in subs],
    }


def cmd_sample_walk(ns, ctx) -> dict:
    g = load_edge_list(ctx.digest(ns.graph))
    rt = load_rank_table(ctx.digest(ns.table))
    steps = ctx.resolve(ns, "steps", 2, int)
    seed = _resolve_seed(ns, ctx)
    rng = sampling.rng_for(seed, _STREAM_SAMPLE)
    if ns.seeds:
        seeds = _load_id_file(ctx.digest(ns.seeds))
        batch = None
    else:
        batch = ctx.resolve(ns, "batch", None, int)
        if batch is None or batch < 1:
            raise ValueError("walk needs --seeds or a positive --batch")
        if batch > g.n:
            raise ValueError(f"batch {batch} exceeds the {g.n} nodes")
        seeds = np.sort(rng.permutation(g.n)[:batch])
    sub = sampling.weighted_random_walk(g, rt, seeds, steps, rng)
    payload = _subgraph_payload(sub)
    payload.update({"command": "sample-walk", "steps": steps, "walks": int(seeds.size)})
    return payload


def cmd_sample_disjoint(ns, ctx) -> dict:
    g = load_edge_list(ctx.digest(ns.graph))
    rt = load_rank_table(ctx.digest(ns.table))
    k_parts = ctx.resolve(ns, "K", 2, int)
    k_sample = ctx.resolve(ns, "k", None, lambda s: int(s))
    frac = ctx.resolve(ns, "residual-frac", 0.05, float)
    seed = _resolve_seed(ns, ctx)

    weights = sampling.edge_weights_from_table(g, rt)
    col = sampling.disjoint_decompose(g, weights, k_parts)
    payload = {
        "command": "sample-disjoint",
        "parts": [
            {
                "edges": col.part_edges(i).tolist(),
                "weight": float(col.parts[i][1]),
                "is_residual": i == len(col.parts) - 1,
            }
            for i in range(len(col.parts))
        ],
        "flags": list(col.flags),
    }
    if k_sample is not None:
        sub = sampling.disjoint_subgraph_sample(
            col, k_sample, frac, sampling.rng_for(seed, _STREAM_SAMPLE)
        )
        payload["sample"] = _subgraph_payload(sub)
    return payload


def cmd_synth(ns, ctx) -> dict:
    x = load_features(ctx.digest(ns.features))
    y = load_labels(ctx.digest(ns.labels))
    hn_raw = ctx.resolve(ns, "hn", "0.25", str)
    parts = [float(v) for v in str(hn_raw).split(",")]
    if len(parts) == 1:
        target = parts[0]
    elif len(parts) == 2:
        target = (parts[0], parts[1])
    else:
        raise ValueError("hn must be a scalar or 'lo,hi'")
    degree = ctx.resolve(ns, "degree", 20.0, float)
    seed = _resolve_seed(ns, ctx)

    spec = synth.SynthSpec(target_hn=target, avg_degree=degree, seed=seed)
    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", synth.SynthWarning)
        g = synth.generate_synthetic(x, y, spec)
        notes = [str(w.message) for w in caught if issubclass(w.category, synth.SynthWarning)]

    edges = g.edge_array()
    keep = edges[:, 0] <= edges[:, 1]
    lines = [f"# n={g.n}"]
    lines += [f"{u} {v}" for u, v in edges[keep].tolist()]
    with open(ns.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    return {
        "command": "synth",
        "n": g.n,
        "m": g.m,
        "h_node": metrics.node_homophily(g, y),
        "h_edge": metrics.edge_homophily(g, y),
        "out": ns.out,
        "flags": notes,
    }


def cmd_verify_lemmas(ns, ctx) -> dict:
    g, x, y = _load_graph_features_labels(ns, ctx)
    if y is None:
        raise ValueError("verify-lemmas needs --labels")
    sim_key = ctx.resolve(ns, "sim", "cosine", str)
    if sim_key not in _SIM_MAP:
        raise ValueError(f"unknown sim: {sim_key!r} (choose from {sorted(_SIM_MAP)})")
    fn_key = ctx.resolve(ns, "fn", "facility", str)
    if fn_key not in _FN_MAP:
        raise ValueError(f"unknown fn: {fn_key!r} (choose from {sorted(_FN_MAP)})")
    lam = ctx.resolve(ns, "lam", 2.0, float)
    model = None
    if sim_key == "learned":
        if not ns.model:
            raise ValueError("learned similarity needs --model")
        model = similarity.load_similarity_model(ctx.digest(ns.model))
        if model.feature_dim != x.shape[1]:
            raise ValueError(
                f"model {ns.model} takes {model.feature_dim}-wide features, "
                f"but --features has width {x.shape[1]}"
            )
    report = synth.verify_lemmas(
        g, x, y, sim=_SIM_MAP[sim_key], fn=_FN_MAP[fn_key], model=model, lam=lam
    )
    payload = {"command": "verify-lemmas", "sim": sim_key, "fn": fn_key}
    payload.update(report.summary())
    return payload


def cmd_train_demo(ns, ctx) -> dict:
    g, x, y = _load_graph_features_labels(ns, ctx)
    if y is None:
        raise ValueError("train-demo needs --labels")
    channels = ctx.resolve(ns, "channels", 2, int)
    if channels not in (1, 2):
        raise ValueError("channels must be 1 or 2")
    combiner_key = ctx.resolve(ns, "combiner", "concat", str)
    if combiner_key not in _COMBINER_MAP:
        raise ValueError("combiner must be 'concat' or 'skip'")
    tables = []
    if ns.table_sim:
        tables.append(load_rank_table(ctx.digest(ns.table_sim)))
    if ns.table_div:
        tables.append(load_rank_table(ctx.digest(ns.table_div)))
    if len(tables) != channels:
        raise ValueError(
            f"channels={channels} needs exactly {channels} table(s), got {len(tables)}"
        )
    epochs = ctx.resolve(ns, "epochs", 50, int)
    hidden = ctx.resolve(ns, "hidden", 64, int)
    lr = ctx.resolve(ns, "lr", 1e-3, float)
    batch_size = ctx.resolve(ns, "batch-size", 256, int)
    fanouts_raw = ctx.resolve(ns, "fanouts", "8,4", str)
    fanouts = tuple(int(v) for v in str(fanouts_raw).split(","))
    mc = ctx.resolve(ns, "mc-samples", 3, int)
    seed = _resolve_seed(ns, ctx)

    cfg = demo.TrainConfig(
        hidden=hidden, fanouts=fanouts, batch_size=batch_size, epochs=epochs,
        lr=lr, combiner=_COMBINER_MAP[combiner_key], mc_samples=mc, seed=seed,
    )
    split = demo.make_split(g.n, sampling.rng_for(seed, _STREAM_SPLIT))
    model, history = demo.train(g, x, y, tables, cfg, split=split)
    test_f1 = demo.evaluate(
        model, g, x, y, tables, split[2], fanouts=fanouts,
        rng=sampling.rng_for(seed, _STREAM_EVAL), mc_samples=mc,
    )
    return {
        "command": "train-demo",
        "channels": channels,
        "combiner": combiner_key,
        "epochs_run": len(history["loss"]),
        "stopped": history["stopped"],
        "best_epoch": history["best_epoch"],
        "loss": [round(v, 10) for v in history["loss"]],
        "val_f1": [round(v, 10) for v in history["val_f1"]],
        "test_micro_f1": test_f1,
    }


def _bench_one_size(n: int, degree: float, workers_list, seed: int) -> dict:
    """Timings for one synthetic size; zero work for an empty graph."""
    row: dict = {"n": n}
    if n == 0:
        g = from_edges(0, [], [], directed=False)
        x = np.zeros((0, 7))
    else:
        rng = sampling.rng_for(seed, _STREAM_BENCH, n)
        y = rng.integers(0, 7, size=n)
        x = np.eye(7)[y] + 0.5 * rng.normal(size=(n, 7))
        spec = synth.SynthSpec(target_hn=0.25, avg_degree=degree, seed=seed + n)
        g = synth.generate_synthetic(x, y, spec)
    row["m"] = g.m

    t0 = time.perf_counter()
    rt_sim = ranking.rank_by_similarity(g, x)
    row["t_rank_similar_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ranking.rank_by_diversity(g, x)
    row["t_rank_diverse_s"] = time.perf_counter() - t0

    if n > 0:
        y_arr = np.asarray(g.degrees() > 0, dtype=np.int64)
        cfg = similarity.SiameseConfig(h1=16, h2=8, batch_pairs=512, epochs=3, seed=seed)
        t0 = time.perf_counter()
        similarity.train_similarity(g, x, y_arr, cfg)
        row["t_learn_s"] = time.perf_counter() - t0

        seeds = np.arange(min(256, n))
        t0 = time.perf_counter()
        sampling.node_sample_khop(
            g, rt_sim, seeds, [8, 4], sampling.rng_for(seed, _STREAM_BENCH, n, 1)
        )
        dt = time.perf_counter() - t0
        row["t_sample_batch_s"] = dt
        row["sample_seeds_per_s"] = seeds.size / dt if dt > 0 else 0.0
    else:
        row["t_learn_s"] = 0.0
        row["t_sample_batch_s"] = 0.0
        row["sample_seeds_per_s"] = 0.0

    speedup = {}
    if n > 0 and workers_list:
        base_table = None
        for w in workers_list:
            t0 = time.perf_counter()
            rt_w = ranking.rank_by_similarity(g, x, workers=w)
            dt = time.perf_counter() - t0
            identical = base_table is None or (
                np.array_equal(rt_w.ranked_ids, base_table.ranked_ids)
                and np.array_equal(rt_w.probs, base_table.probs)
            )
            if base_table is None:
                base_table = rt_w
                base_dt = dt
            speedup[str(w)] = {
                "t_s": dt,
                "speedup": base_dt / dt if dt > 0 else 0.0,
                "identical": identical,
            }
    row["similar_workers"] = speedup
    return row


def cmd_bench(ns, ctx) -> dict:
    sizes_raw = ctx.resolve(ns, "sizes", "1000,2000,4000", str)
    sizes = [int(v) for v in str(sizes_raw).split(",")]
    degree = ctx.resolve(ns, "degree", 20.0, float)
    workers_raw = ctx.resolve(ns, "workers-list", "1,2,4", str)
    workers_list = [int(v) for v in str(workers_raw).split(",")]
    seed = _resolve_seed(ns, ctx)

    rows = []
    for i, n in enumerate(sizes):
        # speedup sweep only on the largest size to keep bench short
        wl = workers_list if i == len(sizes) - 1 else []
        rows.append(_bench_one_size(n, degree, wl, seed))

    timed = [(r["m"], r["t_rank_similar_s"]) for r in rows if r["m"] > 0]
    slope = None
    if len(timed) >= 2:
        logs = np.log([m for m, _ in timed])
        logt = np.log([max(t, 1e-9) for _, t in timed])
        slope = float(np.polyfit(logs, logt, 1)[0])
    return {
        "command": "bench",
        "sizes": rows,
        "slope_similar_vs_m": slope,
    }


_HANDLERS = {
    "analyze": cmd_analyze,
    "rank": cmd_rank,
    "sample-node": cmd_sample_node,
    "sample-walk": cmd_sample_walk,
    "sample-disjoint": cmd_sample_disjoint,
    "synth": cmd_synth,
    "verify-lemmas": cmd_verify_lemmas,
    "train-demo": cmd_train_demo,
    "bench": cmd_bench,
}

def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--config", default=None, help="key=value config file")
    shared.add_argument("--out", default=None)
    shared.add_argument("--workers", type=int, default=None)

    p = argparse.ArgumentParser(
        prog="ags", description="Attribute-guided graph sampling toolkit."
    )
    p.add_argument("--version", action="version", version=f"ags {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[shared], help="homophily report")
    pa.add_argument("--graph", required=True)
    pa.add_argument("--labels", required=True)
    pa.add_argument("--features", default=None)

    pr = sub.add_parser("rank", parents=[shared], help="precompute a rank table")
    pr.add_argument("--graph", required=True)
    pr.add_argument("--features", required=True)
    pr.add_argument("--labels", default=None)
    pr.add_argument("--mode", choices=("similar", "diverse"), default=None)
    pr.add_argument("--sim", choices=tuple(_SIM_MAP), default=None)
    pr.add_argument("--fn", choices=tuple(_FN_MAP), default=None)
    pr.add_argument("--pmf", choices=tuple(_PMF_MAP), default=None)
    pr.add_argument("--k1", type=float, default=None)
    pr.add_argument("--k2", type=float, default=None)
    pr.add_argument("--lambdas", default=None)
    pr.add_argument("--rate", type=float, default=None)
    pr.add_argument("--lam", type=float, default=None)
    pr.add_argument("--sim-epochs", type=int, default=None)
    pr.set_defaults(out_required=True)

    ps = sub.add_parser("sample", help="draw subgraphs from rank tables")
    ssub = ps.add_subparsers(dest="sample_kind", required=True)

    pn = ssub.add_parser("node", parents=[shared], help="k-hop node sampling")
    pn.add_argument("--graph", required=True)
    pn.add_argument("--table", required=True)
    pn.add_argument("--table2", default=None)
    pn.add_argument("--seeds", required=True)
    pn.add_argument("--fanouts", default=None)
    pn.add_argument("--replace", action="store_const", const=True, default=None)

    pw = ssub.add_parser("walk", parents=[shared], help="weighted random walks")
    pw.add_argument("--graph", required=True)
    pw.add_argument("--table", required=True)
    pw.add_argument("--seeds", default=None)
    pw.add_argument("--steps", type=int, default=None)
    pw.add_argument("--batch", type=int, default=None)

    pd = ssub.add_parser("disjoint", parents=[shared], help="spanning-forest parts")
    pd.add_argument("--graph", required=True)
    pd.add_argument("--table", required=True)
    pd.add_argument("--K", type=int, default=None)
    pd.add_argument("--k", type=int, default=None)
    pd.add_argument("--residual-frac", type=float, default=None)

    pg = sub.add_parser("synth", parents=[shared], help="generate a synthetic graph")
    pg.add_argument("--features", required=True)
    pg.add_argument("--labels", required=True)
    pg.add_argument("--hn", default=None)
    pg.add_argument("--degree", type=float, default=None)
    pg.set_defaults(out_required=True)

    pv = sub.add_parser("verify-lemmas", parents=[shared], help="selection probabilities")
    pv.add_argument("--graph", required=True)
    pv.add_argument("--features", required=True)
    pv.add_argument("--labels", required=True)
    pv.add_argument("--sim", choices=tuple(_SIM_MAP), default=None)
    pv.add_argument("--fn", choices=tuple(_FN_MAP), default=None)
    pv.add_argument("--lam", type=float, default=None)
    pv.add_argument("--model", default=None)

    pt = sub.add_parser("train-demo", parents=[shared], help="train the sampled GNN")
    pt.add_argument("--graph", required=True)
    pt.add_argument("--features", required=True)
    pt.add_argument("--labels", required=True)
    pt.add_argument("--table-sim", default=None)
    pt.add_argument("--table-div", default=None)
    pt.add_argument("--channels", type=int, choices=(1, 2), default=None)
    pt.add_argument("--combiner", choices=tuple(_COMBINER_MAP), default=None)
    pt.add_argument("--epochs", type=int, default=None)
    pt.add_argument("--hidden", type=int, default=None)
    pt.add_argument("--lr", type=float, default=None)
    pt.add_argument("--batch-size", type=int, default=None)
    pt.add_argument("--fanouts", default=None)
    pt.add_argument("--mc-samples", type=int, default=None)

    pb = sub.add_parser("bench", parents=[shared], help="timing report")
    pb.add_argument("--sizes", default=None)
    pb.add_argument("--degree", type=float, default=None)
    pb.add_argument("--workers-list", default=None)

    return p


def _command_id(ns: argparse.Namespace) -> str:
    if ns.command == "sample":
        return f"sample-{ns.sample_kind}"
    return ns.command


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0

    command = _command_id(ns)
    ctx = RunContext(command=command, out=ns.out)
    try:
        if getattr(ns, "out_required", False) and not ns.out:
            raise ValueError(f"{command} needs --out")
        if ns.config:
            ctx.file_cfg = _load_config_file(ctx.digest(ns.config))
            unknown = sorted(
                k for k in ctx.file_cfg if k.replace("-", "_") not in vars(ns)
            )
            if unknown:
                raise ValueError(
                    f"{ns.config}: {command} has no flag for config key(s) "
                    + ", ".join(unknown)
                )
        payload = _HANDLERS[command](ns, ctx)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            ctx.write_manifest(error=str(exc))
        except OSError:
            pass
        return 1

    # rank/synth write their main artifact themselves; JSON goes to stdout
    to_file = None if command in ("rank", "synth") else ns.out
    _emit(payload, to_file)
    ctx.write_manifest()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
