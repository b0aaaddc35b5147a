"""Dense feedforward networks with hand-rolled backprop and Adam.

A network holds all its parameters in one vector, `params`: per layer the
row-major (out x in) weights, then the biases; `weights[i]` and `biases[i]`
are views into it. Gradients share that layout, so Adam steps the whole
vector at once. The vector's dtype is the network's: float32 when it was
built from float32 arrays, float64 otherwise. Workspaces, gradients and
Adam state follow it, and inputs and loss gradients are cast to it, so a
float32 network trains in float32 throughout. The trainers build float32
networks; the finite-difference checks need float64 ones. Adam steps every
network at the module's constants: learning rate ADAM_LEARNING_RATE, decay
rates ADAM_BETA1 and ADAM_BETA2, and ADAM_EPSILON. `backward` forms
only the parameter gradients and `input_gradient` only d(loss)/d(input).
The loss gradient both take is d(loss)/d(output), except at a softmax
output layer: that takes d(loss)/d(logits), its pre-activation gradient,
and passes it straight through (`cross_entropy_delta` forms it for the
cross-entropy), so no softmax Jacobian is ever applied.
Every function that takes rows takes them as a (rows, features) array and
refuses a 1-D one; a single sample is one row.
The tests verify the analytic gradients entry by entry against central
finite differences.

Passes write into a `Workspace` that the trainer builds once per network
and owns (no module state), in place: a layer's output in its one buffer,
and a relu layer's gradient, masked where its output is zero, in the one
it arrives in. A forward pass's output and cache, and what `backward` and
`input_gradient` return from it, are views into it, valid until its next
forward pass, after which they are refused.
"""

from __future__ import annotations

import math
import struct
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RELU = "relu"
SOFTMAX = "softmax"
LINEAR = "linear"
_ACTIVATIONS = (RELU, SOFTMAX, LINEAR)

LOG_EPS = 1e-12
# Square root of each float dtype's smallest normal number, below which
# `cross_entropy_delta` zeroes an entry.
_SQRT_TINY = {np.dtype(t): math.sqrt(np.finfo(t).tiny) for t in (np.float32, np.float64)}

ADAM_LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# Every FLUSH_EVERY Adam steps, moment entries below FLUSH_SCALE times their
# dtype's smallest normal number are zeroed; a moment decays by at most
# ADAM_BETA1 per step, so it needs 150 steps from there to go subnormal.
FLUSH_EVERY = 16
FLUSH_SCALE = 2.0 ** 24

_MODEL_MAGIC = b"DNETV002"
_ACT_CODE = {RELU: 0, SOFTMAX: 1, LINEAR: 2}
_CODE_ACT = {v: k for k, v in _ACT_CODE.items()}


def _layer_views(flat, layer_sizes):
    """(weights, biases): per-layer (out x in) and (out,) views into a flat
    vector laid out as `DenseNetwork.params` is."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(flat[at:at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


class DenseNetwork:
    """Ordered stack of affine layers with relu/softmax/linear activations;
    the constructor copies the given weights and biases into `params`, as
    float32 when all of them are float32 arrays and as float64 otherwise."""

    def __init__(self, weights, biases, activations):
        if not (len(weights) == len(biases) == len(activations)) or not weights:
            raise ValueError("weights, biases and activations must have equal nonzero length")
        all_f32 = all(getattr(a, "dtype", None) == np.float32 for a in (*weights, *biases))
        dtype = np.float32 if all_f32 else np.float64
        weights = [np.asarray(w, dtype=dtype) for w in weights]
        biases = [np.asarray(b, dtype=dtype) for b in biases]
        self.activations = list(activations)
        for i, (w, b, act) in enumerate(zip(weights, biases, self.activations)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight/bias shapes {w.shape}/{b.shape} disagree")
            if w.size == 0:
                raise ValueError(f"layer {i}: weight shape {w.shape} has a zero width")
            if act not in _ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown activation {act!r}")
            if act == SOFTMAX and i != len(weights) - 1:
                raise ValueError("softmax is only allowed at the output layer")
            if i > 0 and w.shape[1] != weights[i - 1].shape[0]:
                raise ValueError(f"layer {i} input width {w.shape[1]} does not chain")
        self.params = np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])
        if not np.all(np.isfinite(self.params)):
            raise ValueError("parameters must be finite")
        self.layer_sizes = [weights[0].shape[1]] + [w.shape[0] for w in weights]
        self.weights, self.biases = _layer_views(self.params, self.layer_sizes)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def n_parameters(self) -> int:
        return self.params.size

    def __getstate__(self):
        # Pickle the flat vector alone: pickled one by one, the layer views
        # would come back as copies that no longer share memory with it.
        return {"params": self.params, "layer_sizes": self.layer_sizes,
                "activations": self.activations}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.weights, self.biases = _layer_views(self.params, self.layer_sizes)


def init_network(layer_sizes, activations=None, *, rng,
                 dtype=np.float64) -> DenseNetwork:
    """He-uniform weights for relu layers, Xavier-uniform elsewhere, zero
    biases, drawn from the generator `rng`.

    `activations` defaults to relu on hidden layers and softmax at the output.
    The weights are drawn in float64 whatever `dtype` is (same random stream
    use), then stored as `dtype`, float32 or float64.
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
    weights, biases = [], []
    for i in range(n_layers):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        if activations[i] == RELU and i < n_layers - 1:
            limit = math.sqrt(6.0 / fan_in)
        else:
            limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return DenseNetwork(weights, biases, activations)


class Gradients:
    """Loss gradients of every parameter of `net`, held in `flat`, a vector
    laid out like its `params`; `d_weights[i]` and `d_biases[i]` are views
    into it. `backward` returns its workspace's one `Gradients` (overwritten
    by its next `backward`), which `adam_step` refuses once that workspace
    has run a later pass; gradients built by hand have no `owner`."""

    def __init__(self, net: DenseNetwork, flat: np.ndarray):
        self.flat = flat
        self.d_weights, self.d_biases = _layer_views(flat, net.layer_sizes)
        self.owner, self.pass_id = None, 0


class Workspace:
    """Buffers the passes of nets shaped like `net` write into, for up to
    `rows` rows, owned by its builder (a trainer: one per network, reused
    each step). Per layer: input (`acts`; `acts[-1]` is the output, each
    formed in place) and the gradient passed down (`d_in`, relu-masked in
    place); a ones vector whose product with a batch's rows sums them into
    the bias gradients; one `Gradients`; all in the net's dtype. Valid
    until the next forward or `gather_rows` (`passes`)."""

    def __init__(self, net: DenseNetwork, rows: int):
        self.layer_sizes, self.rows, self.passes = net.layer_sizes, int(rows), 0
        self.dtype = dtype = net.params.dtype
        self.acts = [np.empty((self.rows, n), dtype) for n in self.layer_sizes]
        self.d_in = [np.empty((self.rows, n), dtype) for n in self.layer_sizes[:-1]]
        self.ones = np.ones(self.rows, dtype)
        self.grads = Gradients(net, np.empty(net.params.size, dtype))
        self.grads.owner = weakref.ref(self)  # no cycle to keep the buffers alive

    def rows_of(self, buffers, n):
        """`buffers` cut to their first n rows; the lists themselves when
        n fills the workspace, so a full batch slices nothing."""
        return buffers if n == self.rows else [b[:n] for b in buffers]


@dataclass
class ForwardCache:
    """Per-layer inputs, and the output, of one forward pass: views into
    the caller's `workspace`, valid until its next pass. A relu layer's
    output is positive where its pre-activation is: its backward mask."""

    inputs: list
    out: np.ndarray
    workspace: Workspace
    pass_id: int


def _as_batch(x, width, dtype):
    arr = x if type(x) is np.ndarray and x.dtype == dtype else np.asarray(x, dtype=dtype)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"input of shape {arr.shape} is not (rows, {width})")
    return arr


def gather_rows(ws: Workspace, x, idx):
    """Rows idx (in range) of x, copied into ws's input buffer for `forward`;
    x must have the workspace's dtype, so cast it once before the loop."""
    if x.dtype != ws.dtype:
        raise ValueError(f"{x.dtype} rows do not fit a {ws.dtype} workspace")
    ws.passes += 1
    return x.take(idx, axis=0, out=ws.acts[0][:len(idx)], mode="clip")


def _softmax(z):
    """Row-wise softmax of z, in place. Row maxima and sums are taken column
    by column, because numpy's reductions along a short last axis cost
    several times more; the maxima are the same, and so are the sums of
    two columns."""
    top = z[:, :1]
    for j in range(1, z.shape[1]):
        top = np.maximum(top, z[:, j:j + 1])
    z -= top
    np.exp(z, out=z)
    total = z[:, :1]
    for j in range(1, z.shape[1]):
        total = total + z[:, j:j + 1]
    z /= total


def _run_layers(net, a, outs):
    """Layer by layer: a's product with the weights written into that
    layer's `outs` entry (a fresh array where it is None), then biased and
    activated in place; returns the per-layer inputs and the output."""
    inputs = []
    for w, b, act, out in zip(net.weights, net.biases, net.activations, outs):
        inputs.append(a)
        a = np.dot(a, w.T, out=out)
        a += b
        if act == RELU:
            np.maximum(a, 0.0, out=a)
        elif act == SOFTMAX:
            _softmax(a)
    return inputs, a


def forward(net: DenseNetwork, x, ws: Workspace):
    """Run the network, returning (output, cache) for a later backward pass;
    both are views into ws."""
    a = _as_batch(x, net.layer_sizes[0], net.params.dtype)
    n = a.shape[0]
    if ws.layer_sizes != net.layer_sizes or ws.dtype != net.params.dtype or n > ws.rows:
        raise ValueError(f"{n} {net.params.dtype} rows do not fit a {ws.rows}-row "
                         f"{ws.layer_sizes} {ws.dtype} workspace")
    ws.passes += 1
    inputs, out = _run_layers(net, a, ws.rows_of(ws.acts, n)[1:])
    return out, ForwardCache(inputs, out, ws, ws.passes)


def predict(net: DenseNetwork, x):
    """Forward pass keeping nothing: one fresh array per layer."""
    return _run_layers(net, _as_batch(x, net.layer_sizes[0], net.params.dtype),
                       [None] * net.n_layers)[1]


def _output_gradient(net, cache, loss_gradient):
    """The loss gradient as a (rows, outputs) array in the net's dtype, cast
    only where it is not one, once the cache is checked."""
    ws = cache.workspace
    if ws.layer_sizes != net.layer_sizes:
        raise ValueError("cache does not match network")
    if cache.pass_id != ws.passes:
        raise ValueError("cache is stale: its workspace has run a later pass")
    g = loss_gradient
    if type(g) is not np.ndarray or g.dtype != ws.dtype or g.shape != cache.out.shape:
        g = np.asarray(g, dtype=ws.dtype)
        if g.shape != cache.out.shape:
            raise ValueError(f"loss gradient shape {g.shape} does not match the cached "
                             f"output's {cache.out.shape}")
    return g


def backward(net: DenseNetwork, cache: ForwardCache, loss_gradient) -> Gradients:
    """Backpropagate the loss gradient (see the module docstring) into
    exact parameter gradients (the workspace's); the input gradient is not
    formed (see `input_gradient`)."""
    g = _output_gradient(net, cache, loss_gradient)
    ws = cache.workspace
    *d_in, ones = ws.rows_of([*ws.d_in, ws.ones], g.shape[0])
    grads = ws.grads
    grads.pass_id = cache.pass_id
    outs, last = cache.inputs[1:] + [cache.out], net.n_layers - 1
    for i in range(last, -1, -1):
        if net.activations[i] == RELU:  # in place, but never in the caller's array
            g = np.multiply(g, outs[i] > 0.0, out=g if i < last else None)
        np.dot(g.T, cache.inputs[i], out=grads.d_weights[i])
        np.dot(ones, g, out=grads.d_biases[i])
        if i > 0:
            g = np.dot(g, net.weights[i], out=d_in[i])
    return grads


def input_gradient(net: DenseNetwork, cache: ForwardCache, loss_gradient) -> np.ndarray:
    """Backpropagate the loss gradient (see the module docstring) into
    d(loss)/d(input) alone, shaped as the forward pass's input: a view into
    the cache's workspace."""
    g = _output_gradient(net, cache, loss_gradient)
    ws = cache.workspace
    d_in = ws.rows_of(ws.d_in, g.shape[0])
    outs, last = cache.inputs[1:] + [cache.out], net.n_layers - 1
    for i in range(last, -1, -1):
        if net.activations[i] == RELU:  # as in `backward`
            g = np.multiply(g, outs[i] > 0.0, out=g if i < last else None)
        g = np.dot(g, net.weights[i], out=d_in[i])
    return g


def cross_entropy_delta(pred, targets) -> np.ndarray:
    """d(loss)/d(logits) of softmax outputs `pred` against one-hot `targets`,
    where the loss is the batch mean of -sum(targets * log(pred)) with the
    log clamped at LOG_EPS: (pred - targets) / batch, in pred's dtype (cast
    the targets to it once, outside a training loop). It is what `backward`
    and `input_gradient` take at a softmax output layer.

    Two rules zero entries:
    - a row whose target probability is below LOG_EPS, where the clamped
      loss is flat;
    - an entry whose prediction is below the square root of its dtype's
      smallest normal number (about 1e-19 in float32, 1e-154 in float64),
      so a product of a kept entry with any value above that bound stays
      normal. A confident net's float32 outputs go subnormal, and without
      this rule their products carry subnormals into every layer's
      gradients, where BLAS runs many times slower.
    """
    p = np.asarray(pred)
    if p.dtype not in _SQRT_TINY:
        p = p.astype(np.float64)
    if np.shape(targets) != p.shape:
        raise ValueError(f"prediction shape {p.shape} != target shape {np.shape(targets)}")
    if p.ndim != 2:
        raise ValueError(f"predictions of shape {p.shape} are not (rows, classes)")
    delta = np.subtract(p, targets, dtype=p.dtype)
    delta /= p.shape[0]
    low = p.min()
    if low < LOG_EPS:  # else no target probability is below it
        target_p = (p * targets) @ np.ones(p.shape[1], p.dtype)
        np.copyto(delta, 0.0, where=(target_p < LOG_EPS)[:, None])
    if low < _SQRT_TINY[p.dtype]:
        np.copyto(delta, 0.0, where=p < _SQRT_TINY[p.dtype])
    return delta


@dataclass
class AdamState:
    """Adam's state for one network: its first/second moment accumulators,
    each one flat vector laid out like the `params` of the network whose
    `layer_sizes` they record, in its dtype. Every net steps at the ADAM_*
    constants.

    first_weight_scale multiplies the first layer's weight step (not its
    bias step): a first-layer weight that stands for that many tied
    raw-width weights, all with the same gradient, moves as far as their sum.

    The moments of a parameter whose gradient stays zero (a dead relu unit)
    decay geometrically. In float32 they would go subnormal within a few
    hundred steps and, rounding back onto themselves, stay there, slowing
    every later step many times over; `adam_step` zeroes them long before
    (see FLUSH_EVERY). A flushed first moment moved its parameter by less
    than 1e-20 times ADAM_LEARNING_RATE per step.
    """

    m: np.ndarray
    v: np.ndarray
    layer_sizes: list
    step: int = 0
    first_weight_scale: float = 1.0
    work: np.ndarray = field(init=False, repr=False)  # the step's scratch vector

    def __post_init__(self):
        self.work = np.empty_like(self.m)

    @classmethod
    def for_network(cls, net: DenseNetwork, first_weight_scale=1.0) -> "AdamState":
        dtype = net.params.dtype
        return cls(np.zeros(net.params.size, dtype), np.zeros(net.params.size, dtype),
                   net.layer_sizes, first_weight_scale=float(first_weight_scale))


def adam_step(net: DenseNetwork, grads: Gradients, state: AdamState) -> AdamState:
    """One bias-corrected Adam update of the whole parameter vector; mutates
    `net` and `state` in place."""
    if state.layer_sizes != net.layer_sizes or grads.flat.shape != net.params.shape or \
       not (state.m.dtype == grads.flat.dtype == net.params.dtype):
        raise ValueError("optimizer state does not match network")
    owner = grads.owner and grads.owner()
    if owner is not None and owner.passes != grads.pass_id:
        raise ValueError("gradients are stale: their workspace has run a later pass")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1 ** state.step
    inv_sqrt_corr2 = 1.0 / math.sqrt(1.0 - b2 ** state.step)
    scale = ADAM_LEARNING_RATE / corr1
    g, step = grads.flat, state.work
    state.m *= b1
    state.m += np.multiply(g, 1.0 - b1, out=step)
    np.square(g, out=step)
    step *= 1.0 - b2
    state.v *= b2
    state.v += step
    np.sqrt(state.v, out=step)
    step *= inv_sqrt_corr2
    step += ADAM_EPSILON
    np.divide(state.m, step, out=step)
    n_first = net.weights[0].size
    step[:n_first] *= scale * state.first_weight_scale
    step[n_first:] *= scale
    net.params -= step
    if state.step % FLUSH_EVERY == 0:
        tiny = np.finfo(state.m.dtype).tiny * FLUSH_SCALE
        for moment in (state.m, state.v):
            np.copyto(moment, 0.0, where=np.abs(moment, out=step) < tiny)
    return state


def save_model(net: DenseNetwork, path) -> None:
    """Flat self-describing binary dump with a little-endian float64 payload,
    which holds float32 parameters exactly; round-trips bit-exactly."""
    sizes = net.layer_sizes
    parts = [
        _MODEL_MAGIC,
        struct.pack("<I", net.n_layers),
        struct.pack(f"<{len(sizes)}I", *sizes),
        bytes(_ACT_CODE[a] for a in net.activations),
        net.params.astype("<f8", copy=False).tobytes(),
    ]
    Path(path).write_bytes(b"".join(parts))


def load_model(path) -> DenseNetwork:
    """The network `save_model` wrote, always as float64; a malformed file
    raises ValueError naming it."""
    buf = Path(path).read_bytes()
    if len(buf) < 12 or buf[:8] != _MODEL_MAGIC:
        raise ValueError(f"{path}: not a serialized dense network")
    (n_layers,) = struct.unpack("<I", buf[8:12])
    offset = 12 + 4 * (n_layers + 1) + n_layers  # past the sizes and activation codes
    if len(buf) < offset:
        raise ValueError(f"{path}: {n_layers} layers overrun the {len(buf)}-byte file")
    sizes = struct.unpack(f"<{n_layers + 1}I", buf[12:offset - n_layers])
    codes = buf[offset - n_layers:offset]
    n_params = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))
    if len(buf) != offset + 8 * n_params:
        raise ValueError(f"{path}: payload is {len(buf) - offset} bytes, "
                         f"its layer sizes need {8 * n_params}")
    params = np.frombuffer(buf, dtype="<f8", offset=offset)
    try:  # an unknown activation code is passed on for the constructor to refuse
        return DenseNetwork(*_layer_views(params, sizes), [_CODE_ACT.get(c, c) for c in codes])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
