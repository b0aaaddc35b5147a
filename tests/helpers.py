"""Helpers shared by the test modules."""

import numpy as np

from spoofsim.nn import (LINEAR, LOG_EPS, DenseNetwork, Workspace, backward, cross_entropy_delta,
                         forward, predict)


def subnormal_count(a) -> int:
    a = np.abs(np.asarray(a))
    return int(np.count_nonzero((a > 0.0) & (a < np.finfo(a.dtype).tiny)))


def as_float64(net):
    return DenseNetwork([w.astype(np.float64) for w in net.weights],
                        [b.astype(np.float64) for b in net.biases], net.activations)


def sure_rows(net, x, gap=95.0):
    """Rows of x, in net's dtype, that a two-class softmax net with zero
    biases is sure of: its relu layers are then positively homogeneous, so
    each row is scaled until its logits differ by gap. At the default the
    losing class's float32 output, e^-95 (about 5e-42), is subnormal."""
    logits = predict(DenseNetwork(net.weights, net.biases, [*net.activations[:-1], LINEAR]), x)
    return (x * (gap / np.abs(logits[:, 0] - logits[:, 1]))[:, None]).astype(net.params.dtype)


def job_failing_at(value, bad):
    """A job for `run_jobs`, which must be importable by spawned workers:
    returns value, but raises a programming error when it equals bad."""
    if value == bad:
        raise TypeError(f"job {value} hit a programming error")
    return value


def _one_hot_ok(label):
    return np.all((label == 0.0) | (label == 1.0)) and np.all(label.sum(axis=1) == 1.0)


def cross_entropy(pred, label) -> float:
    """Mean -sum(label * log(pred)) with the log clamped at 1e-12.

    `pred` and `label` are (rows, classes); `pred` rows must sum to 1 within
    1e-9 and `label` rows must be one-hot.
    """
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"prediction shape {p.shape} != label shape {y.shape}")
    if p.ndim != 2:
        raise ValueError(f"predictions of shape {p.shape} are not (rows, classes)")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("predictions must sum to 1")
    if not _one_hot_ok(y):
        raise ValueError("labels must be one-hot")
    losses = -(y * np.log(np.maximum(p, LOG_EPS))).sum(axis=1)
    return float(losses.mean())


def finite_diff_check(net: DenseNetwork, x, label, h=1e-5, max_per_tensor=None,
                      rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks every parameter by default; for wide networks `max_per_tensor`
    limits the check to that many randomly chosen entries per tensor
    (seeded through `rng`) so the sweep stays fast. The net must be float64:
    float32 would round a step of h away.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if net.params.dtype != np.float64:
        raise ValueError("finite differences need a float64 net")
    out, cache = forward(net, x, Workspace(net, len(x)))
    grads = backward(net, cache, cross_entropy_delta(out, label))
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
