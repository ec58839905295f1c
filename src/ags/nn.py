"""Dense-layer networks with hand-written backprop and Adam.

Everything runs in float64 on the CPU. The models built on top of this
are small, and verifiable numerics (gradients that match central finite
differences) matter more here than raw speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_ACTIVATIONS = ("relu", "sigmoid", "identity")


def _apply(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def _derivative(kind: str, z: np.ndarray) -> np.ndarray:
    # Derivative w.r.t. the pre-activation; relu takes subgradient 0 at 0.
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-z))
        return s * (1.0 - s)
    return np.ones_like(z)


@dataclass
class DenseLayer:
    """One affine map plus activation: act(w @ x + b)."""

    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    activation: str


@dataclass
class DenseNet:
    """A stack of dense layers applied in order."""

    layers: list[DenseLayer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("net needs at least one layer")
        for layer in self.layers:
            if layer.activation not in _ACTIVATIONS:
                raise ValueError(f"unknown activation: {layer.activation!r}")
            if layer.w.ndim != 2 or layer.b.shape != (layer.w.shape[0],):
                raise ValueError("layer weight/bias shapes inconsistent")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.w.shape[1] != prev.w.shape[0]:
                raise ValueError(
                    f"layer dims do not chain: {prev.w.shape} -> {nxt.w.shape}"
                )

    @property
    def in_dim(self) -> int:
        return int(self.layers[0].w.shape[1])

    def parameters(self) -> list[np.ndarray]:
        """Parameter arrays in a fixed order: w0, b0, w1, b1, ..."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.w)
            out.append(layer.b)
        return out


def glorot_net(
    dims: list[int], activations: list[str], rng: np.random.Generator
) -> DenseNet:
    """Build a net with uniform(+-sqrt(6/(fan_in+fan_out))) weights.

    ``dims`` lists the layer widths input-first, so ``len(activations)``
    must be ``len(dims) - 1``. Biases start at zero.
    """
    if len(activations) != len(dims) - 1:
        raise ValueError("need exactly one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(w=w, b=np.zeros(fan_out), activation=act))
    return DenseNet(layers)


def forward(net: DenseNet, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run a batch ``x`` of shape (batch, in_dim) through the net.

    Returns ``(output, cache)``; hand the cache to :func:`backward`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ValueError(f"expected input (batch, {net.in_dim}), got {x.shape}")
    cache = []
    h = x
    for layer in net.layers:
        z = h @ layer.w.T + layer.b
        cache.append((h, z))
        h = _apply(layer.activation, z)
    return h, cache


def backward(
    net: DenseNet, cache: list, dout: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Backpropagate ``dout`` = dL/doutput through a cached forward pass.

    Returns ``(grads, dx)``: one (dw, db) pair per layer in forward
    order, plus the gradient with respect to the input batch. Pure given
    the cache; nothing on the net is mutated.
    """
    dout = np.asarray(dout, dtype=np.float64)
    grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        h_in, z = cache[i]
        dz = dout * _derivative(layer.activation, z)
        grads[i] = (dz.T @ h_in, dz.sum(axis=0))
        dout = dz @ layer.w
    return grads, dout  # type: ignore[return-value]


@dataclass
class AdamState:
    """Adam moment buffers for a fixed parameter list."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = 1e-3) -> "AdamState":
        state = cls(lr=lr)
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
        return state


def adam_step(
    state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]
) -> list[np.ndarray]:
    """Apply one bias-corrected Adam update to ``params`` in place."""
    if not (len(params) == len(grads) == len(state.m)):
        raise ValueError("parameter/gradient/buffer counts differ")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ValueError(
                f"shape mismatch at parameter {i}: {p.shape} vs {g.shape}"
            )
        if not np.all(np.isfinite(g)):
            bad = int(np.size(g) - int(np.isfinite(g).sum()))
            raise FloatingPointError(
                f"non-finite gradient at parameter {i} "
                f"(shape {g.shape}, {bad} bad entries)"
            )
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


def mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over every element; returns (loss, dL/dpred)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("empty batch")
    diff = pred - target
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def softmax_cross_entropy(
    logits: np.ndarray, classes: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(logits) against integer class ids.

    Returns (loss, dL/dlogits). Each sample's gradient row is softmax
    minus one-hot (divided by the batch size), so it sums to zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    classes = np.asarray(classes)
    if logits.ndim != 2:
        raise ValueError("logits must have shape (batch, classes)")
    if classes.shape != (logits.shape[0],):
        raise ValueError("need exactly one class id per logit row")
    if logits.shape[0] == 0:
        raise ValueError("empty batch")
    if classes.size and (classes.min() < 0 or classes.max() >= logits.shape[1]):
        raise ValueError("class id out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    rows = np.arange(logits.shape[0])
    loss = float(-np.mean(log_probs[rows, classes]))
    grad = np.exp(log_probs)
    grad[rows, classes] -= 1.0
    return loss, grad / logits.shape[0]


def micro_f1(preds: np.ndarray, labels: np.ndarray) -> float:
    """Micro-averaged F1 over single-label integer predictions.

    Pools true/false positives and false negatives across all classes
    before forming precision and recall. For single-label tasks the
    pooled score coincides with accuracy; it is still computed from the
    pooled counts.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError("prediction/label shapes differ")
    if preds.size == 0:
        raise ValueError("empty batch")
    tp = fp = fn = 0
    for k in np.union1d(preds, labels):
        tp += int(np.sum((preds == k) & (labels == k)))
        fp += int(np.sum((preds == k) & (labels != k)))
        fn += int(np.sum((preds != k) & (labels == k)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)
