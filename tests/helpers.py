"""Helpers shared by the test modules."""

import numpy as np

from spoofsim.nn import LINEAR, DenseNetwork, predict


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
