"""The benchmark's workloads and the seeded inputs each one runs on."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import inputs


# Settings shared by every workload.
POWER_EXPONENT = 2.3  # Chung-Lu degree tail
MAX_DEGREE = 300.0  # Chung-Lu expected-degree cap
HUB_DEGREE = 200  # rows of larger degree count as hubs (checks and traced greedy time)
LAM = 2.0  # graph-cut weight
PMF = dict(kind="step", k1=0.15, k2=0.45, lambdas=(8.0, 3.0, 1.0))
BATCH_SIZE = 256
SAMPLE_REPS = WALK_REPS = INFER_REPS = 3  # runs per round; each stage reports its median
K_PARTS, K_SAMPLE, RESIDUAL_FRAC = 3, 2, 0.1  # disjoint decomposition and sample
HIDDEN = 64
MC_SAMPLES = 3
F1_MARGIN = 0.1  # test micro-F1 must beat the majority-class rate by this
DIVERSE_CHECK_ROWS = 12  # random diversity rows checked against naive greedy
N_VAL, N_TEST = 200, 500


@dataclass(frozen=True)
class Workload:
    name: str
    stream: int  # keeps workloads' input streams apart under one --seed
    n: int
    classes: int
    sigma: float  # feature noise around the one-hot class indicator
    graph: str  # "planted" or "chung_lu"
    h_range: tuple[float, float]  # planted: per-node same-label share
    mean_degree: float
    synth_target: float  # target node homophily handed to ags.synth
    sim: str
    fn_kind: str
    fanouts: tuple[int, ...]
    train_replace: bool  # training and inference draw with replacement; sampling never does
    sample_batches: int
    disjoint_reps: int
    walk_seeds: int
    walk_steps: int
    n_train: int
    epochs: int
    lr: float


WORKLOADS = {
    wl.name: wl
    for wl in (
        # criterion 10's shape; training dominates the run
        Workload(
            name="train-mixed", stream=1, n=2000, classes=7, sigma=0.8,
            graph="planted", h_range=(0.05, 0.5), mean_degree=20.0, synth_target=0.275,
            sim="cosine", fn_kind="facility_location", fanouts=(8, 4), train_replace=True,
            sample_batches=8, disjoint_reps=8, walk_seeds=2000, walk_steps=20,
            n_train=1000, epochs=8, lr=1e-3,
        ),
        # power-law hubs, labels independent of structure, second kernel
        # and submodular function, wide fanouts drawn without replacement
        Workload(
            name="hub-skewed", stream=2, n=5000, classes=5, sigma=0.6,
            graph="chung_lu", h_range=(0.0, 0.0), mean_degree=12.0, synth_target=0.2,
            sim="neg_euclidean", fn_kind="graph_cut", fanouts=(25, 10), train_replace=False,
            sample_batches=4, disjoint_reps=5, walk_seeds=4000, walk_steps=10,
            n_train=512, epochs=2, lr=1e-2,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    n: int
    edges: np.ndarray  # canonical undirected pairs, u < v
    x: np.ndarray
    y: np.ndarray
    graph_path: str
    features_path: str
    labels_path: str
    workdir: str


def make_inputs(wl: Workload, seed: int, workdir: str) -> Inputs:
    """Generate the workload's graph, features and labels; write the files."""
    rng = np.random.default_rng([wl.stream, seed])
    y = rng.integers(0, wl.classes, size=wl.n)
    x = inputs.noisy_one_hot(y, wl.classes, wl.sigma, rng)
    if wl.graph == "planted":
        edges = inputs.planted_homophily(y, wl.h_range, wl.mean_degree, rng)
    else:
        edges = inputs.chung_lu(wl.n, POWER_EXPONENT, wl.mean_degree, MAX_DEGREE, rng)
    os.makedirs(workdir, exist_ok=True)
    inp = Inputs(
        n=wl.n, edges=edges, x=x, y=y,
        graph_path=os.path.join(workdir, "graph.edges"),
        features_path=os.path.join(workdir, "features.csv"),
        labels_path=os.path.join(workdir, "labels.txt"),
        workdir=workdir,
    )
    inputs.write_edge_list(inp.graph_path, wl.n, edges)
    inputs.write_features(inp.features_path, x)
    inputs.write_labels(inp.labels_path, y)
    return inp
