"""The defender receiver's signal-authentication classifier.

R trains a dense network on labelled spectrum-sensing bursts: positives
are legitimate QPSK transmissions from T, negatives are structureless
random-phase bursts sent at the same power from the adversary position.
Bursts pass through the receiver front end (see `frontend`) before the
network; quality is reported as misdetection (legitimate classified as
foreign) and false alarm (foreign classified as legitimate) rates.

The experiments draw their datasets with `build_phasor_dataset`, whose
rows are the bursts' matched-filter phasors. `build_dataset` draws the
same bursts up to the receiver and keeps them as raw rows, for callers
that feed raw bursts to an `Authenticator`; `train_classifier`,
`classify` and `evaluate` take either kind of row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import condition_rows, init_conditioned_network
from .nn import (DenseNetwork, Workspace, adam_step, backward, cross_entropy_delta, forward,
                 gather_rows, mean_cross_entropy, predict)
from .scenario import TWO_PI, ScenarioConfig
from .waveform import (BITS_PER_BURST, SYMBOLS_PER_BURST, feature_rows,
                       qpsk_phases, receive_waveform, receive_waveform_phasors)

NOT_T = 0
FROM_T = 1

CLASSIFIER_HIDDEN = (50, 50, 50)
CLASSIFIER_BATCH = 100
N_CLASSES = 2


@dataclass
class LabeledDataset:
    """Feature matrix plus integer labels (FROM_T / NOT_T).

    Each row is one burst: its matched-filter phasors (width
    2 * n_antennas * n_symbols, from build_phasor_dataset) or its raw
    samples (width 2 * n_antennas * n_points, from build_dataset).
    n_antennas and samples_per_symbol describe the burst geometry behind
    the feature layout, which a classifier trained on the rows reads.
    """

    features: np.ndarray
    labels: np.ndarray
    n_antennas: int
    samples_per_symbol: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature row count does not match label count")
        if not np.all((self.labels == FROM_T) | (self.labels == NOT_T)):
            raise ValueError("labels must be FROM_T or NOT_T")

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass
class ClassifierMetrics:
    """Exact error counts of one evaluation run, and the rates they define."""

    n: int
    n_from_t: int
    n_md: int
    n_fa: int

    def __post_init__(self):
        if not (0 < self.n_from_t < self.n):
            raise ValueError("evaluation needs both classes present")
        if not (0 <= self.n_md <= self.n_from_t and 0 <= self.n_fa <= self.n - self.n_from_t):
            raise ValueError("error counts exceed class sizes")

    @property
    def e_md(self) -> float:
        return self.n_md / self.n_from_t

    @property
    def e_fa(self) -> float:
        return self.n_fa / (self.n - self.n_from_t)


def _draw_sensing_bursts(scenario: ScenarioConfig, n_samples, positive_fraction, rng):
    """Everything a sensing dataset draws before the receiver: labels,
    per-burst link weights (n_samples, n_r, 1) and symbol phases
    (n_samples, SYMBOLS_PER_BURST)."""
    if n_samples < 2:
        raise ValueError("need at least two samples, one per class")
    if not (0.0 < positive_fraction < 1.0):
        raise ValueError("positive_fraction must lie strictly inside (0, 1)")
    sc = scenario
    labels = (rng.random(n_samples) < positive_fraction).astype(np.int64)
    if labels.sum() == 0:
        labels[0] = FROM_T
    elif labels.sum() == n_samples:
        labels[0] = NOT_T
    # Both classes send one phase track from every antenna, so their link
    # matrices (n_t and n_a wide) average over the transmit antennas into
    # one (n_samples, n_r, 1) batch.
    positive = labels == FROM_T
    n_pos = int(positive.sum())
    n_neg = n_samples - n_pos
    weights = np.empty((n_samples, sc.n_r, 1), dtype=np.complex128)
    weights[positive] = sc.draw_mixing("t", "r", n_pos, rng).mean(axis=-1, keepdims=True)
    weights[~positive] = sc.draw_mixing("at", "r", n_neg, rng).mean(axis=-1, keepdims=True)
    phases = np.empty((n_samples, SYMBOLS_PER_BURST))
    phases[positive] = qpsk_phases(rng.integers(0, 2, size=(n_pos, BITS_PER_BURST)))
    phases[~positive] = rng.uniform(0.0, TWO_PI, size=(n_neg, SYMBOLS_PER_BURST))
    return labels, weights, phases


def build_dataset(scenario: ScenarioConfig, n_samples, positive_fraction,
                  rng) -> LabeledDataset:
    """Generate labelled sensing bursts at R with fresh fading per burst,
    as raw feature rows, every draw from the generator `rng`.

    Each sample is positive with probability `positive_fraction`
    (independently, then adjusted so both classes occur at least once).
    Positives carry fresh random payload bits from T; negatives carry
    i.i.d. uniform symbol phases transmitted at full power from the
    adversary training position.
    """
    sc = scenario
    labels, weights, phases = _draw_sensing_bursts(sc, n_samples, positive_fraction, rng)
    x = receive_waveform(weights, phases, sc.power, sc.samples_per_symbol, rng)
    return LabeledDataset(x, labels, sc.n_r, sc.samples_per_symbol)


def build_phasor_dataset(scenario: ScenarioConfig, n_samples, positive_fraction,
                         rng) -> LabeledDataset:
    """`build_dataset`'s bursts as their matched-filter phasors, one I/Q
    pair per (antenna, symbol): the same draws from `rng` up to the
    receiver, then the filtered receiver noise in place of the full-width
    one."""
    sc = scenario
    labels, weights, phases = _draw_sensing_bursts(sc, n_samples, positive_fraction, rng)
    rx = receive_waveform_phasors(weights, phases, sc.power, sc.samples_per_symbol, rng)
    return LabeledDataset(feature_rows(rx), labels, sc.n_r, sc.samples_per_symbol)


def one_hot(labels) -> np.ndarray:
    rows = np.zeros((len(labels), N_CLASSES))
    rows[np.arange(len(labels)), np.asarray(labels, dtype=np.int64)] = 1.0
    return rows


@dataclass
class Authenticator:
    """A trained authentication network plus the front-end geometry it expects.

    The network reads conditioned rows (see `frontend`), so its input width
    is `waveform.phasor_width(n_antennas)` whatever samples_per_symbol is.
    """

    net: DenseNetwork
    n_antennas: int
    samples_per_symbol: int

    def condition(self, rows) -> np.ndarray:
        """Conditioned network input for feature rows of either kind.

        A row of width `waveform.phasor_width(n_antennas)` is read as
        matched-filter phasors; any other width as a raw burst, which must
        split into SYMBOLS_PER_BURST symbols of samples_per_symbol points
        or a ValueError is raised. So a raw burst of only SYMBOLS_PER_BURST
        points per antenna is read as phasors whatever samples_per_symbol is.
        """
        return condition_rows(rows, self.n_antennas, self.samples_per_symbol)


def _train_epoch(net, state, x, targets, batch_size, rng, ws,
                 max_steps=None) -> tuple[int, float]:
    """One shuffled cross-entropy pass over (x, targets) in batches of
    batch_size through workspace ws, stopped after max_steps batches when
    given; returns the batches run and the sum of their losses, each scored
    before its step. Both the classifier and the GAN's discriminator train
    here."""
    order = rng.permutation(x.shape[0])
    starts = range(0, x.shape[0], batch_size)[:max_steps]
    loss = 0.0
    for start in starts:
        idx = order[start:start + batch_size]
        out, cache = forward(net, gather_rows(ws, x, idx), ws)
        batch_targets = targets.take(idx, axis=0)
        delta = cross_entropy_delta(out, batch_targets)
        loss += mean_cross_entropy(out, batch_targets)
        adam_step(net, backward(net, cache, delta), state)
    return len(starts), loss


def train_classifier(train_set: LabeledDataset, train_steps, rng) -> Authenticator:
    """Train the authentication network for `train_steps` Adam steps:
    front-end conditioning, then a float32 net of shape
    [phasor_width(n_antennas), 50, 50, 50, 2] with relu hidden
    layers, softmax output and cross-entropy, in shuffled batches of
    CLASSIFIER_BATCH rows, Adam at the `nn` constants, every draw from the
    generator `rng`.

    The net is initialised and stepped as the one raw-width net that would
    read each conditioned phasor copied into all of its symbol's S sample
    slots (see `frontend.init_conditioned_network`, which also builds its
    Adam state), so it makes that net's decisions while holding S times
    fewer first-layer weights.
    """
    if len(train_set) == 0:
        raise ValueError("training set is empty")
    if train_steps < 1:
        raise ValueError("train_steps must be >= 1")
    n_ant, sps = train_set.n_antennas, train_set.samples_per_symbol
    x = condition_rows(train_set.features, n_ant, sps)
    net, state = init_conditioned_network([x.shape[1], *CLASSIFIER_HIDDEN, N_CLASSES], None,
                                          sps, rng)
    # Cast once: `gather_rows` copies batches out of x, and the loss takes
    # targets in the net's dtype.
    x = x.astype(net.params.dtype)
    targets = one_hot(train_set.labels).astype(net.params.dtype)
    ws = Workspace(net, min(CLASSIFIER_BATCH, len(train_set)))
    steps = 0
    while steps < train_steps:
        steps += _train_epoch(net, state, x, targets, CLASSIFIER_BATCH, rng, ws,
                              train_steps - steps)[0]
    return Authenticator(net, n_ant, sps)


def classify(classifier: Authenticator, rows) -> np.ndarray:
    """Hard label decisions (argmax of the softmax output) for feature rows,
    raw or matched-filter phasors, told apart by width as in
    `Authenticator.condition`; one row, 1-D, gets one decision."""
    out = predict(classifier.net, np.atleast_2d(classifier.condition(rows)))
    return np.argmax(out, axis=1)


def evaluate(classifier: Authenticator, test_set: LabeledDataset) -> ClassifierMetrics:
    """Count misdetections and false alarms on a two-class test set."""
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    labels = test_set.labels
    n_from_t = int((labels == FROM_T).sum())
    preds = classify(classifier, test_set.features)
    n_md = int(((labels == FROM_T) & (preds != FROM_T)).sum())
    n_fa = int(((labels == NOT_T) & (preds == FROM_T)).sum())
    return ClassifierMetrics(len(test_set), n_from_t, n_md, n_fa)
