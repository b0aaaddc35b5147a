"""Dense feedforward networks with hand-rolled backprop and Adam.

A network is a plain container of per-layer weight matrices (out x in),
bias vectors and activation names; everything is float64 numpy. Forward
passes accept a single vector or a (batch, features) matrix. Analytic
gradients can be verified entry by entry against central finite
differences.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RELU = "relu"
SOFTMAX = "softmax"
LINEAR = "linear"
_ACTIVATIONS = (RELU, SOFTMAX, LINEAR)

LOG_EPS = 1e-12

_MODEL_MAGIC = b"DNETV002"
# Magic of files written while the front end copied each symbol phasor into
# all its sample slots: their classifier/discriminator inputs are S times wider.
_REPLICATED_MAGIC = b"DNETV001"
_ACT_CODE = {RELU: 0, SOFTMAX: 1, LINEAR: 2}
_CODE_ACT = {v: k for k, v in _ACT_CODE.items()}


class DenseNetwork:
    """Ordered stack of affine layers with relu/softmax/linear activations."""

    def __init__(self, weights, biases, activations):
        if not (len(weights) == len(biases) == len(activations)) or not weights:
            raise ValueError("weights, biases and activations must have equal nonzero length")
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.activations = list(activations)
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight/bias shapes {w.shape}/{b.shape} disagree")
            if act not in _ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown activation {act!r}")
            if act == SOFTMAX and i != len(self.weights) - 1:
                raise ValueError("softmax is only allowed at the output layer")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i} input width {w.shape[1]} does not chain")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: parameters must be finite")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def n_parameters(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self) -> "DenseNetwork":
        return DenseNetwork([w.copy() for w in self.weights],
                            [b.copy() for b in self.biases],
                            list(self.activations))


def init_network(layer_sizes, activations=None, rng=None) -> DenseNetwork:
    """He-uniform weights for relu layers, Xavier-uniform elsewhere, zero biases.

    `activations` defaults to relu on hidden layers and softmax at the output.
    """
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output size")
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be positive, got {sizes}")
    n_layers = len(sizes) - 1
    if activations is None:
        activations = [RELU] * (n_layers - 1) + [SOFTMAX]
    if len(activations) != n_layers:
        raise ValueError(f"expected {n_layers} activations, got {len(activations)}")
    if rng is None:
        rng = np.random.default_rng()
    weights, biases = [], []
    for i in range(n_layers):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        if activations[i] == RELU and i < n_layers - 1:
            limit = math.sqrt(6.0 / fan_in)
        else:
            limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseNetwork(weights, biases, activations)


def _softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _activate(z, act):
    if act == RELU:
        return np.maximum(z, 0.0)
    if act == SOFTMAX:
        return _softmax(z)
    return z


@dataclass
class ForwardCache:
    """Per-layer inputs and pre-activations of one forward pass."""

    inputs: list
    pre: list
    single: bool


@dataclass
class Gradients:
    """Loss gradients for every weight, bias, and the network input."""

    d_weights: list
    d_biases: list
    d_input: np.ndarray


def _as_batch(x, width, what):
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{what} width {arr.shape[-1]} does not match expected {width}")
    return arr, single


def forward(net: DenseNetwork, x):
    """Run the network, returning (output, cache) for a later backward pass."""
    a, single = _as_batch(x, net.layer_sizes[0], "input")
    inputs, pres = [], []
    for w, b, act in zip(net.weights, net.biases, net.activations):
        inputs.append(a)
        z = a @ w.T + b
        pres.append(z)
        a = _activate(z, act)
    out = a[0] if single else a
    return out, ForwardCache(inputs, pres, single)


def predict(net: DenseNetwork, x):
    """Forward pass without keeping intermediate results."""
    a, single = _as_batch(x, net.layer_sizes[0], "input")
    for w, b, act in zip(net.weights, net.biases, net.activations):
        a = _activate(a @ w.T + b, act)
    return a[0] if single else a


def _check_cache(net, cache):
    if len(cache.inputs) != net.n_layers or len(cache.pre) != net.n_layers:
        raise ValueError("cache does not match network: wrong layer count")
    for i, w in enumerate(net.weights):
        if cache.inputs[i].shape[1] != w.shape[1] or cache.pre[i].shape[1] != w.shape[0]:
            raise ValueError(f"cache does not match network at layer {i}")


def backward(net: DenseNetwork, cache: ForwardCache, loss_gradient) -> Gradients:
    """Backpropagate d(loss)/d(output) into exact parameter and input gradients."""
    _check_cache(net, cache)
    g = np.asarray(loss_gradient, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != (cache.pre[-1].shape[0], net.layer_sizes[-1]):
        raise ValueError(f"loss gradient shape {g.shape} does not match cached output")
    d_w = [None] * net.n_layers
    d_b = [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        act = net.activations[i]
        z = cache.pre[i]
        if act == RELU:
            dz = g * (z > 0.0)
        elif act == SOFTMAX:
            s = _softmax(z)
            dz = s * (g - np.sum(g * s, axis=1, keepdims=True))
        else:
            dz = g
        d_w[i] = dz.T @ cache.inputs[i]
        d_b[i] = dz.sum(axis=0)
        g = dz @ net.weights[i]
    d_input = g[0] if cache.single else g
    return Gradients(d_w, d_b, d_input)


def _one_hot_ok(label):
    return np.all((label == 0.0) | (label == 1.0)) and np.all(label.sum(axis=1) == 1.0)


def cross_entropy(pred, label) -> float:
    """Mean -sum(label * log(pred)) with the log clamped at 1e-12.

    `pred` rows must sum to 1 within 1e-9 and `label` rows must be one-hot;
    1-D inputs are treated as a single sample.
    """
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"prediction shape {p.shape} != label shape {y.shape}")
    if p.ndim == 1:
        p, y = p[None, :], y[None, :]
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("predictions must sum to 1")
    if not _one_hot_ok(y):
        raise ValueError("labels must be one-hot")
    losses = -(y * np.log(np.maximum(p, LOG_EPS))).sum(axis=1)
    return float(losses.mean())


def cross_entropy_grad(pred, label) -> np.ndarray:
    """Gradient of `cross_entropy` w.r.t. the predictions (batch mean included)."""
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"prediction shape {p.shape} != label shape {y.shape}")
    single = p.ndim == 1
    if single:
        p, y = p[None, :], y[None, :]
    # The clamp zeroes the slope below LOG_EPS, matching the clamped loss.
    grad = np.where(p >= LOG_EPS, -y / np.maximum(p, LOG_EPS), 0.0) / p.shape[0]
    return grad[0] if single else grad


@dataclass
class TrainConfig:
    """Adam hyperparameters plus batching; defaults match the training recipes
    used throughout this package."""

    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    batch_size: int = 100
    train_steps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise ValueError("adam betas must lie in (0, 1)")
        if self.batch_size < 1 or self.train_steps < 1:
            raise ValueError("batch_size and train_steps must be >= 1")


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter tensor.

    first_weight_scale multiplies the first layer's weight step (not its
    bias step): a first-layer weight that stands for that many tied
    raw-width weights, all with the same gradient, moves as far as their sum.
    """

    m_weights: list
    v_weights: list
    m_biases: list
    v_biases: list
    step: int = 0
    first_weight_scale: float = 1.0

    @classmethod
    def for_network(cls, net: DenseNetwork, first_weight_scale=1.0) -> "AdamState":
        return cls([np.zeros_like(w) for w in net.weights],
                   [np.zeros_like(w) for w in net.weights],
                   [np.zeros_like(b) for b in net.biases],
                   [np.zeros_like(b) for b in net.biases],
                   first_weight_scale=float(first_weight_scale))


def adam_step(net: DenseNetwork, grads: Gradients, state: AdamState,
              config: TrainConfig) -> AdamState:
    """One bias-corrected Adam update; mutates `net` and `state` in place."""
    if len(state.m_weights) != net.n_layers:
        raise ValueError("optimizer state does not match network")
    for m, w in zip(state.m_weights, net.weights):
        if m.shape != w.shape:
            raise ValueError("optimizer state does not match network")
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    corr1 = 1.0 - b1 ** state.step
    inv_sqrt_corr2 = 1.0 / math.sqrt(1.0 - b2 ** state.step)
    scale = config.learning_rate / corr1
    eps = config.adam_epsilon
    for i in range(net.n_layers):
        w_scale = scale * state.first_weight_scale if i == 0 else scale
        for params, grad, m, v, step_scale in (
            (net.weights[i], grads.d_weights[i], state.m_weights[i], state.v_weights[i],
             w_scale),
            (net.biases[i], grads.d_biases[i], state.m_biases[i], state.v_biases[i], scale),
        ):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * np.square(grad)
            denom = np.sqrt(v)
            denom *= inv_sqrt_corr2
            denom += eps
            step = np.divide(m, denom, out=denom)
            step *= step_scale
            params -= step
    return state


def finite_diff_check(net: DenseNetwork, x, label, h=1e-5, max_per_tensor=None,
                      rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks every parameter by default; for wide networks `max_per_tensor`
    limits the check to that many randomly chosen entries per tensor
    (seeded through `rng`) so the sweep stays fast.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    out, cache = forward(net, x)
    grads = backward(net, cache, cross_entropy_grad(out, label))
    tensors = []
    for i in range(net.n_layers):
        tensors.append((net.weights[i], grads.d_weights[i]))
        tensors.append((net.biases[i], grads.d_biases[i]))
    worst = 0.0
    for params, analytic in tensors:
        if max_per_tensor is None or params.size <= max_per_tensor:
            flat_indices = range(params.size)
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            flat_indices = rng.choice(params.size, size=max_per_tensor, replace=False)
        for flat in flat_indices:
            orig = params.flat[flat]
            params.flat[flat] = orig + h
            loss_plus = cross_entropy(predict(net, x), label)
            params.flat[flat] = orig - h
            loss_minus = cross_entropy(predict(net, x), label)
            params.flat[flat] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            a = analytic.flat[flat]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
    return worst


def save_model(net: DenseNetwork, path) -> None:
    """Flat self-describing binary dump; round-trips bit-exactly."""
    sizes = net.layer_sizes
    parts = [
        _MODEL_MAGIC,
        struct.pack("<I", net.n_layers),
        struct.pack(f"<{len(sizes)}I", *sizes),
        bytes(_ACT_CODE[a] for a in net.activations),
    ]
    for w, b in zip(net.weights, net.biases):
        parts.append(np.ascontiguousarray(w).astype("<f8").tobytes())
        parts.append(b.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_model(path) -> DenseNetwork:
    buf = Path(path).read_bytes()
    if buf[:8] == _REPLICATED_MAGIC:
        raise ValueError(
            f"{path}: a {_REPLICATED_MAGIC.decode()} file holds a replicated-width net "
            f"(each symbol phasor copied into every sample slot); retrain it for the "
            f"compact front end")
    if len(buf) < 12 or buf[:8] != _MODEL_MAGIC:
        raise ValueError(f"{path}: not a serialized dense network")
    (n_layers,) = struct.unpack("<I", buf[8:12])
    offset = 12
    sizes = struct.unpack(f"<{n_layers + 1}I", buf[offset:offset + 4 * (n_layers + 1)])
    offset += 4 * (n_layers + 1)
    codes = buf[offset:offset + n_layers]
    offset += n_layers
    weights, biases, activations = [], [], []
    for i in range(n_layers):
        fan_out, fan_in = sizes[i + 1], sizes[i]
        w = np.frombuffer(buf, dtype="<f8", count=fan_out * fan_in, offset=offset)
        offset += 8 * fan_out * fan_in
        b = np.frombuffer(buf, dtype="<f8", count=fan_out, offset=offset)
        offset += 8 * fan_out
        weights.append(w.reshape(fan_out, fan_in).astype(np.float64))
        biases.append(b.astype(np.float64))
        activations.append(_CODE_ACT[codes[i]])
    if offset != len(buf):
        raise ValueError(f"{path}: trailing bytes after model payload")
    return DenseNetwork(weights, biases, activations)
