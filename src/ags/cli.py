"""Command-line front door for the toolkit.

Every subcommand reads plain files (edge lists, feature/label tables,
rank tables), emits JSON with sorted keys, and writes a run manifest
next to its output recording the resolved value of every flag, input
digests, seed, tool version, and wall time. Reruns with the same seed
produce byte-identical outputs; timings live only in manifests and bench
reports. Exit codes: 0 success, 1 runtime error, 2 usage error.

``build_parser`` declares each option once, with its type, choices and
default. A ``--config`` file's ``key=value`` lines become ``--key=value``
tokens right after the subcommand words and are parsed with the command
line: flag beats file beats default. Errors in the file or ``AGS_SEED``
exit 1 with a manifest; errors on the command line exit 2.
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

from . import __version__, demo, metrics, ranking, sampling, similarity, synth, textscan
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
    """One node id per line, read like labels (``textscan.int_column``)."""
    col = textscan.int_column(path)
    if col.bad_line is not None:
        raise ValueError(f"seed file line {col.bad_line}: not an integer")
    return col.values


@dataclass
class RunContext:
    """Everything a manifest needs, accumulated while a command runs."""

    command: str
    out: str | None
    config: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    seed: int = 0
    started: float = field(default_factory=time.perf_counter)

    def digest(self, path: str) -> str:
        self.inputs[path] = _sha256(path)
        return path

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


def _emit(payload: dict, out: str | None) -> None:
    text = _dumps(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph_features_labels(ns, ctx):
    g = load_edge_list(ctx.digest(ns.graph))
    x = None
    if ns.features:
        x = _one_row_per_node(load_features(ctx.digest(ns.features)), "features", ns, g)
    y = None
    if ns.labels:
        y = _one_row_per_node(load_labels(ctx.digest(ns.labels)), "labels", ns, g)
    return g, x, y


def _one_row_per_node(arr: np.ndarray, flag: str, ns, g: Graph) -> np.ndarray:
    """``arr`` unless its row count is not the graph's n."""
    if arr.shape[0] != g.n:
        raise ValueError(
            f"{flag} length {arr.shape[0]} does not match graph nodes ({g.n}): "
            f"{getattr(ns, flag)} against {ns.graph}"
        )
    return arr


def _pmf_from(ns) -> ranking.PmfSpec:
    return ranking.PmfSpec(
        kind=_PMF_MAP[ns.pmf], k1=ns.k1, k2=ns.k2, lambdas=ns.lambdas, rate=ns.rate
    )


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
    g, x, y = _load_graph_features_labels(ns, ctx)
    report = metrics.homophily_report(g, y, X=x)
    payload = {"command": "analyze", "n": g.n, "m": g.m}
    payload.update(report.to_dict())
    return payload


def cmd_rank(ns, ctx) -> dict:
    g, x, y = _load_graph_features_labels(ns, ctx)
    pmf = _pmf_from(ns)

    model = None
    if ns.sim == "learned":
        if y is None:
            raise ValueError("learned similarity needs --labels to train on")
        cfg = similarity.SiameseConfig(h1=64, h2=32, epochs=ns.sim_epochs, seed=ns.seed)
        model, _ = similarity.train_similarity(g, x, y, cfg)

    sim = _SIM_MAP[ns.sim]
    if ns.mode == "similar":
        rt = ranking.rank_by_similarity(g, x, sim=sim, pmf=pmf, model=model)
    else:
        rt = ranking.rank_by_diversity(
            g, x, sim=sim, fn_kind=_FN_MAP[ns.fn], pmf=pmf, model=model, lam=ns.lam
        )
    save_rank_table(rt, ns.out)
    if model is not None:  # after the table, so a table that fails leaves no model
        similarity.save_similarity_model(ns.out + ".model", model)
    return {
        "command": "rank",
        "mode": ns.mode,
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

    subs = sampling.node_sample_khop(
        g, tables, seeds, ns.fanouts, sampling.rng_for(ns.seed, _STREAM_SAMPLE),
        replace=ns.replace,
    )
    return {
        "command": "sample-node",
        "fanouts": ns.fanouts,
        "replace": ns.replace,
        "channels": [_subgraph_payload(s) for s in subs],
    }


def cmd_sample_walk(ns, ctx) -> dict:
    g = load_edge_list(ctx.digest(ns.graph))
    rt = load_rank_table(ctx.digest(ns.table))
    rng = sampling.rng_for(ns.seed, _STREAM_SAMPLE)
    if ns.seeds:
        seeds = _load_id_file(ctx.digest(ns.seeds))
    elif ns.batch is None:
        raise ValueError("walk needs --seeds or --batch")
    elif ns.batch > g.n:
        raise ValueError(f"batch {ns.batch} exceeds the {g.n} nodes")
    else:
        seeds = np.sort(rng.permutation(g.n)[: ns.batch])
    sub = sampling.weighted_random_walk(g, rt, seeds, ns.steps, rng)
    payload = _subgraph_payload(sub)
    payload.update({"command": "sample-walk", "steps": ns.steps, "walks": int(seeds.size)})
    return payload


def cmd_sample_disjoint(ns, ctx) -> dict:
    g = load_edge_list(ctx.digest(ns.graph))
    rt = load_rank_table(ctx.digest(ns.table))

    weights = sampling.edge_weights_from_table(g, rt)
    col = sampling.disjoint_decompose(g, weights, ns.K)
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
    if ns.k is not None:
        sub = sampling.disjoint_subgraph_sample(
            col, ns.k, ns.residual_frac, sampling.rng_for(ns.seed, _STREAM_SAMPLE)
        )
        payload["sample"] = _subgraph_payload(sub)
    return payload


def cmd_synth(ns, ctx) -> dict:
    x = load_features(ctx.digest(ns.features))
    y = load_labels(ctx.digest(ns.labels))
    target = ns.hn[0] if len(ns.hn) == 1 else ns.hn

    spec = synth.SynthSpec(target_hn=target, avg_degree=ns.degree, seed=ns.seed)
    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", synth.SynthWarning)
        g = synth.generate_synthetic(x, y, spec)
        notes = [str(w.message) for w in caught if issubclass(w.category, synth.SynthWarning)]

    edges = g.edge_array()
    with open(ns.out, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n}\n")
        np.savetxt(fh, edges[edges[:, 0] <= edges[:, 1]], fmt="%d %d")

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
    model = None
    if ns.sim == "learned":
        if not ns.model:
            raise ValueError("learned similarity needs --model")
        model = similarity.load_similarity_model(ctx.digest(ns.model))
        if model.feature_dim != x.shape[1]:
            raise ValueError(
                f"model {ns.model} takes {model.feature_dim}-wide features, "
                f"but --features has width {x.shape[1]}"
            )
    report = synth.verify_lemmas(
        g, x, y, sim=_SIM_MAP[ns.sim], fn=_FN_MAP[ns.fn], model=model, lam=ns.lam
    )
    payload = {"command": "verify-lemmas", "sim": ns.sim, "fn": ns.fn}
    payload.update(report.summary())
    return payload


def cmd_train_demo(ns, ctx) -> dict:
    g, x, y = _load_graph_features_labels(ns, ctx)
    tables = []
    if ns.table_sim:
        tables.append(load_rank_table(ctx.digest(ns.table_sim)))
    if ns.table_div:
        tables.append(load_rank_table(ctx.digest(ns.table_div)))
    if not tables:
        raise ValueError("train-demo needs --table-sim, --table-div or both")

    cfg = demo.TrainConfig(
        hidden=ns.hidden, fanouts=ns.fanouts, batch_size=ns.batch_size, epochs=ns.epochs,
        lr=ns.lr, combiner=_COMBINER_MAP[ns.combiner], mc_samples=ns.mc_samples, seed=ns.seed,
        replace=ns.replace,
    )
    split = demo.make_split(g.n, sampling.rng_for(ns.seed, _STREAM_SPLIT))
    model, history = demo.train(g, x, y, tables, cfg, split=split)
    test_f1 = demo.evaluate(
        model, g, x, y, tables, split[2], fanouts=ns.fanouts,
        rng=sampling.rng_for(ns.seed, _STREAM_EVAL), mc_samples=ns.mc_samples,
    )
    return {
        "command": "train-demo",
        "channels": len(tables),
        "combiner": ns.combiner,
        "epochs_run": len(history["loss"]),
        "stopped": history["stopped"],
        "best_epoch": history["best_epoch"],
        "loss": [round(v, 10) for v in history["loss"]],
        "val_f1": [round(v, 10) for v in history["val_f1"]],
        "test_micro_f1": test_f1,
    }


def _bench_one_size(n: int, degree: float, seed: int) -> dict:
    """Similarity-ranking time for one synthetic size; an empty graph at n = 0."""
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

    # best of 5 calls: cmd_bench fits its slope to these timings
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        ranking.rank_by_similarity(g, x)
        times.append(time.perf_counter() - t0)
    row["t_rank_similar_s"] = min(times)
    return row


def cmd_bench(ns, ctx) -> dict:
    rows = [_bench_one_size(n, ns.degree, ns.seed) for n in ns.sizes]

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


class _ParseError(Exception):
    """Raised by ``_Parser.error`` with (parser, message): the caller picks
    the exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseError(self, message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _csv(cast, lengths=None):
    """Type of a comma-separated list of ``cast`` values, parsed to a tuple
    whose length must be in ``lengths`` when that is given."""
    count = " or ".join(map(str, lengths)) + " " if lengths else ""

    def parse(text: str) -> tuple:
        try:
            values = tuple(cast(v) for v in text.split(","))
        except ValueError:
            values = ()
        if not values or (lengths and len(values) not in lengths):
            raise argparse.ArgumentTypeError(
                f"expected {count}comma-separated {cast.__name__}s, got {text!r}"
            )
        return values

    return parse


def build_parser(environ=None, required=True) -> argparse.ArgumentParser:
    """Every option of every command, each declared once.

    ``--seed`` defaults to ``AGS_SEED`` in ``environ`` when it is set and
    not empty, else to 0; argparse converts that default with ``int`` only
    when no ``--seed`` was given. ``required=False`` lets a command's
    required flags be absent, for a command line whose config file may
    give them.
    """
    shared = _Parser(add_help=False)
    shared.add_argument("--seed", type=int, default=(environ or {}).get("AGS_SEED") or 0)
    shared.add_argument("--config", default=None, help="key=value config file")
    shared.add_argument("--out", default=None)

    kernel = _Parser(add_help=False)
    kernel.add_argument("--sim", choices=tuple(_SIM_MAP), default="cosine")
    kernel.add_argument("--fn", choices=tuple(_FN_MAP), default="facility")
    kernel.add_argument("--lam", type=float, default=2.0)

    p = _Parser(prog="ags", description="Attribute-guided graph sampling toolkit.")
    p.add_argument("--version", action="version", version=f"ags {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[shared], help="homophily report")
    pa.add_argument("--graph", required=required)
    pa.add_argument("--labels", required=required)
    pa.add_argument("--features", default=None)

    pr = sub.add_parser("rank", parents=[shared, kernel], help="precompute a rank table")
    pr.add_argument("--graph", required=required)
    pr.add_argument("--features", required=required)
    pr.add_argument("--labels", default=None)
    pr.add_argument("--mode", choices=("similar", "diverse"), required=required)
    pr.add_argument("--pmf", choices=tuple(_PMF_MAP), default="step")
    pr.add_argument("--k1", type=float, default=0.2)
    pr.add_argument("--k2", type=float, default=0.2)
    pr.add_argument("--lambdas", type=_csv(float, (3,)), default="4,2,1")
    pr.add_argument("--rate", type=float, default=0.5)
    pr.add_argument("--sim-epochs", type=_positive_int, default=60)
    pr.set_defaults(out_required=True)

    ps = sub.add_parser("sample", help="draw subgraphs from rank tables")
    ssub = ps.add_subparsers(dest="sample_kind", required=True)

    pn = ssub.add_parser("node", parents=[shared], help="k-hop node sampling")
    pn.add_argument("--graph", required=required)
    pn.add_argument("--table", required=required)
    pn.add_argument("--table2", default=None)
    pn.add_argument("--seeds", required=required)
    pn.add_argument("--fanouts", type=_csv(int), default="25,10")
    pn.add_argument("--replace", action="store_true")

    pw = ssub.add_parser("walk", parents=[shared], help="weighted random walks")
    pw.add_argument("--graph", required=required)
    pw.add_argument("--table", required=required)
    pw.add_argument("--seeds", default=None)
    pw.add_argument("--steps", type=int, default=2)
    pw.add_argument("--batch", type=_positive_int, default=None)

    pd = ssub.add_parser("disjoint", parents=[shared], help="spanning-forest parts")
    pd.add_argument("--graph", required=required)
    pd.add_argument("--table", required=required)
    pd.add_argument("--K", type=int, default=2)
    pd.add_argument("--k", type=int, default=None)
    pd.add_argument("--residual-frac", type=float, default=0.05)

    pg = sub.add_parser("synth", parents=[shared], help="generate a synthetic graph")
    pg.add_argument("--features", required=required)
    pg.add_argument("--labels", required=required)
    pg.add_argument("--hn", type=_csv(float, (1, 2)), default="0.25")
    pg.add_argument("--degree", type=float, default=20.0)
    pg.set_defaults(out_required=True)

    pv = sub.add_parser(
        "verify-lemmas", parents=[shared, kernel], help="selection probabilities"
    )
    pv.add_argument("--graph", required=required)
    pv.add_argument("--features", required=required)
    pv.add_argument("--labels", required=required)
    pv.add_argument("--model", default=None)

    pt = sub.add_parser("train-demo", parents=[shared], help="train the sampled GNN")
    pt.add_argument("--graph", required=required)
    pt.add_argument("--features", required=required)
    pt.add_argument("--labels", required=required)
    pt.add_argument("--table-sim", default=None)
    pt.add_argument("--table-div", default=None)
    pt.add_argument("--combiner", choices=tuple(_COMBINER_MAP), default="concat")
    pt.add_argument("--epochs", type=int, default=50)
    pt.add_argument("--hidden", type=int, default=64)
    pt.add_argument("--lr", type=float, default=1e-3)
    pt.add_argument("--batch-size", type=int, default=256)
    pt.add_argument("--fanouts", type=_csv(int), default="8,4")
    pt.add_argument("--mc-samples", type=int, default=3)
    pt.add_argument("--replace", action="store_true")

    pb = sub.add_parser("bench", parents=[shared], help="timing report")
    pb.add_argument("--sizes", type=_csv(int), default="1000,2000,4000")
    pb.add_argument("--degree", type=float, default=20.0)

    return p


def command_flags(parser: argparse.ArgumentParser, words) -> dict[str, argparse.Action]:
    """The flags of the subcommand named by ``words`` (``["sample", "node"]``),
    keyed by long name without the dashes; ``--help`` is left out."""
    for word in words:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return {
        a.option_strings[0][2:]: a for a in parser._actions
        if a.option_strings and a.dest != "help"
    }


def _parse_command_line(argv: list[str]) -> argparse.Namespace:
    """The command line alone. A flag that a command requires may instead
    come from ``--config``; the full parse in ``main`` checks it then."""
    try:
        return build_parser().parse_args(argv)
    except _ParseError as error:
        try:
            ns = build_parser(required=False).parse_args(argv)
        except _ParseError:
            raise error from None
        if ns.config is None:
            raise
        return ns


def _config_tokens(path: str, command: str, flags: dict) -> list[str]:
    """``--key=value`` tokens for a config file's entries. A key must name
    one of ``flags`` exactly, not by prefix, and may not be ``config``; a
    flag without a value (``--replace``) is given by ``true``."""
    cfg = _load_config_file(path)
    unknown = sorted(k for k in cfg if k not in flags or k == "config")
    if unknown:
        raise ValueError(
            f"{path}: {command} has no flag for config key(s) " + ", ".join(unknown)
        )
    tokens = []
    for key, value in cfg.items():
        if flags[key].nargs != 0:
            tokens.append(f"--{key}={value}")
        elif value.lower() not in ("true", "false"):
            raise ValueError(f"{path}: config key {key} takes true or false, not {value!r}")
        elif value.lower() == "true":
            tokens.append(f"--{key}")
    return tokens


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _parse_command_line(argv)
    except _ParseError as exc:
        parser, message = exc.args
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help, --version
        return int(exc.code or 0)

    words = [ns.command] + ([ns.sample_kind] if ns.command == "sample" else [])
    command = "-".join(words)
    ctx = RunContext(command=command, out=ns.out)
    try:
        parser = build_parser(os.environ)
        flags = command_flags(parser, words)
        tokens = _config_tokens(ctx.digest(ns.config), command, flags) if ns.config else []
        try:
            ns = parser.parse_args(argv[: len(words)] + tokens + argv[len(words) :])
        except _ParseError as exc:
            raise ValueError(f"{ns.config or 'AGS_SEED'}: {exc.args[1]}") from None
        ctx.out, ctx.seed = ns.out, ns.seed
        ctx.config = {name: getattr(ns, a.dest) for name, a in flags.items()}
        if getattr(ns, "out_required", False) and not ns.out:
            raise ValueError(f"{command} needs --out")
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
