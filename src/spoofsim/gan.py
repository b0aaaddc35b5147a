"""Distributed adversarial waveform learning.

The adversary transmitter holds a generator that maps noise vectors to
per-antenna transmit waveforms; its surrogate receiver holds a
discriminator that classifies received bursts as legitimate or synthetic.
The two are trained as alternating rounds of a minimax game with the
wireless channel inside the synthetic-sample path: every synthetic burst
is pushed through a fresh adversary-to-surrogate link matrix (plus
receiver noise) from the same batched engine as every other burst (see
`waveform`) before the discriminator sees it, and generator updates
backpropagate through the discriminator and that same linear channel.

Radio protocol bookkeeping is kept alongside: the transmitter flags each
synthetic transmission (one bit) and the surrogate receiver feeds back its
classification decision for each burst it labels (one bit). Numerically
the generator update uses co-located gradients; the trace keeps per-epoch
counts of the bits, which do not carry the learning signal.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .authenticator import FROM_T, one_hot
from .frontend import condition_rows, condition_rows_vjp, init_conditioned_network
from .nn import (LINEAR, LOG_EPS, RELU, SOFTMAX, AdamState, DenseNetwork,
                 TrainConfig, adam_step, backward, cross_entropy_grad, forward,
                 init_network, predict)
from .scenario import ScenarioConfig
from .waveform import (BITS_PER_BURST, feature_rows, qpsk_phases, receive_rows,
                       receive_waveform, rows_to_streams, stream_rms)


@dataclass
class GanConfig:
    """Knobs of one adversarial training run.

    power_budget defaults to the scenario transmit power; it caps the
    summed per-antenna RMS amplitude of every generated transmit burst.

    conv_window and conv_threshold set the stopping rule (see
    check_convergence): training stops once the last conv_window values of
    both loss series lie within conv_threshold times the latest value of
    that series. A run with max_epochs < conv_window never converges.
    """

    noise_dim: int = 100
    hidden_width: int = 128
    hidden_depth: int = 3
    real_pool: int = 500
    synth_per_epoch: int = 500
    batch_size: int = 100
    max_epochs: int = 2000
    conv_window: int = 100
    conv_threshold: float = 0.05
    power_budget: float | None = None

    def __post_init__(self):
        if self.conv_window < 2:
            raise ValueError("conv_window must be >= 2")
        if not (0.0 < self.conv_threshold < 1.0):
            raise ValueError("conv_threshold must lie in (0, 1)")
        for name in ("noise_dim", "hidden_width", "hidden_depth", "real_pool",
                     "synth_per_epoch", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class EpochProtocol:
    """Per-epoch protocol bit counts: n_flags synthetic transmissions were
    flagged, and the surrogate receiver fed back "legitimate" for n_fooled
    of them."""

    epoch: int
    n_flags: int
    n_fooled: int


@dataclass
class TrainingTrace:
    g_loss: list = field(default_factory=list)
    d_loss: list = field(default_factory=list)
    epochs_run: int = 0
    converged: bool = False
    protocol_log: list = field(default_factory=list)


def generator_layer_sizes(scenario: ScenarioConfig, config: GanConfig) -> list[int]:
    """Noise in, one interleaved I/Q transmit stream per adversary antenna out."""
    out = 2 * scenario.n_points * scenario.n_a
    return [config.noise_dim] + [config.hidden_width] * config.hidden_depth + [out]


def discriminator_layer_sizes(scenario: ScenarioConfig, config: GanConfig) -> list[int]:
    """Conditioned received-burst features in (one I/Q phasor per surrogate
    antenna and symbol, see `frontend`), two-class softmax out."""
    inp = scenario.conditioned_length
    return [inp] + [config.hidden_width] * config.hidden_depth + [2]


def init_generator(scenario, config, rng) -> DenseNetwork:
    sizes = generator_layer_sizes(scenario, config)
    return init_network(sizes, [RELU] * config.hidden_depth + [LINEAR], rng)


def init_discriminator(scenario, config, rng) -> DenseNetwork:
    """Initialised as the raw-width net on slot-replicated features would be
    (see `frontend.init_conditioned_network`); train it with the first-layer
    weight step scaled by samples_per_symbol."""
    sizes = discriminator_layer_sizes(scenario, config)
    return init_conditioned_network(sizes, [RELU] * config.hidden_depth + [SOFTMAX],
                                    scenario.samples_per_symbol, rng)


def from_t_probability(d_net: DenseNetwork, batch) -> np.ndarray:
    """Discriminator's probability that each row is a legitimate burst."""
    out = np.atleast_2d(predict(d_net, batch))
    return out[:, FROM_T]


def _clamped_log(p):
    return np.log(np.maximum(p, LOG_EPS))


def discriminator_loss(d_net: DenseNetwork, real_batch, synth_batch) -> float:
    """E_synth[log(1 - D(x))] - E_real[log D(x)] on the given batches."""
    real_batch = np.atleast_2d(np.asarray(real_batch, dtype=np.float64))
    synth_batch = np.atleast_2d(np.asarray(synth_batch, dtype=np.float64))
    if real_batch.shape[0] == 0 or synth_batch.shape[0] == 0:
        raise ValueError("both batches must be non-empty")
    p_real = from_t_probability(d_net, real_batch)
    p_synth = from_t_probability(d_net, synth_batch)
    return float(_clamped_log(1.0 - p_synth).mean() - _clamped_log(p_real).mean())


def generator_loss(d_net: DenseNetwork, synth_batch) -> float:
    """E_synth[log(1 - D(x))] on the given batch."""
    synth_batch = np.atleast_2d(np.asarray(synth_batch, dtype=np.float64))
    if synth_batch.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    return float(_clamped_log(1.0 - from_t_probability(d_net, synth_batch)).mean())


def scale_to_budget(streams, power_budget):
    """Uniformly shrink streams whose summed per-antenna RMS exceeds the budget.

    Returns (scaled streams, scale factors). Never scales up.
    """
    rms = stream_rms(streams)
    total = rms.sum(axis=-1)
    scale = np.where(total > power_budget, power_budget / np.maximum(total, LOG_EPS), 1.0)
    return streams * scale[..., None, None], scale


def _scale_backward(grad_scaled, raw, power_budget):
    """Adjoint of scale_to_budget for complex stream grads (batched)."""
    rms = stream_rms(raw)
    total = rms.sum(axis=-1)
    active = total > power_budget
    scale = np.where(active, power_budget / np.maximum(total, LOG_EPS), 1.0)
    grad = grad_scaled * scale[..., None, None]
    # d(scale)/d(raw) term, only where the cap binds.
    inner = np.sum(grad_scaled.real * raw.real + grad_scaled.imag * raw.imag, axis=(-2, -1))
    coeff = np.where(active, -power_budget / np.maximum(total, LOG_EPS) ** 2, 0.0) * inner
    n_points = raw.shape[-1]
    denom = n_points * np.where(rms > 0.0, rms, 1.0)
    grad = grad + coeff[..., None, None] * raw / denom[..., None]
    return grad


def generator_streams(g_net: DenseNetwork, z, n_adv, power_budget) -> np.ndarray:
    """Transmit streams (count, n_adv, n_points) the generator emits for the
    noise rows z (count, noise_dim), with the power budget enforced."""
    raw = rows_to_streams(np.atleast_2d(predict(g_net, z)), n_adv)
    scaled, _ = scale_to_budget(raw, float(power_budget))
    return scaled


def check_convergence(loss_series, window, threshold) -> bool:
    """True when the last `window` values stay within `threshold` of the
    current loss, relatively; a near-zero current loss only converges if
    the whole window is near zero too.

    A series shorter than `window` never converges; one of exactly `window`
    values can, so `window=2` judges from two epochs alone.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    series = np.asarray(loss_series, dtype=np.float64)
    if series.size < window:
        return False
    tail = series[-window:]
    now = tail[-1]
    if abs(now) < 1e-9:
        return bool(np.all(np.abs(tail) < 1e-9))
    return bool(np.max(np.abs(tail - now)) < threshold * abs(now))


def _train_epoch(net, state, x, targets, batch_size, cfg, rng):
    """One shuffled cross-entropy pass over (x, targets)."""
    order = rng.permutation(x.shape[0])
    for start in range(0, x.shape[0], batch_size):
        idx = order[start:start + batch_size]
        out, cache = forward(net, x[idx])
        grads = backward(net, cache, cross_entropy_grad(out, targets[idx]))
        adam_step(net, grads, state, cfg)


def train_gan(scenario: ScenarioConfig, config: GanConfig | None = None, rng=None):
    """Adversarial training loop; returns (generator, discriminator, trace).

    The real pool is drawn once at the start: `real_pool` legitimate QPSK
    bursts from T with fresh payload bits, each over its own T-to-surrogate
    link matrix with receiver noise, synthesised as one batch.
    Per epoch: the generator emits a fresh pool of synthetic bursts, each
    sent through its own adversary-to-surrogate link matrix with receiver
    noise, again as one batch; the discriminator runs one cross-entropy
    epoch over the shuffled real plus synthetic pool; the generator then
    runs one epoch driving the discriminator's verdict on its bursts toward
    "legitimate", with gradients flowing through the discriminator, the
    epoch's link matrices, and the power cap.
    Training stops early once both loss series pass the perturbation
    convergence test; otherwise the trace reports converged=False.
    """
    cfg = config if config is not None else GanConfig()
    if rng is None:
        rng = np.random.default_rng()
    sc = scenario
    budget = float(cfg.power_budget) if cfg.power_budget is not None else sc.power

    g_net = init_generator(sc, cfg, rng)
    d_net = init_discriminator(sc, cfg, rng)
    g_state = AdamState.for_network(g_net)
    d_state = AdamState.for_network(d_net, first_weight_scale=sc.samples_per_symbol)
    opt_cfg = TrainConfig(batch_size=cfg.batch_size)

    def cond(rows):
        return condition_rows(rows, sc.n_r, sc.samples_per_symbol)

    bits = rng.integers(0, 2, size=(cfg.real_pool, BITS_PER_BURST))
    mixing = sc.draw_mixing("t", "ar", cfg.real_pool, rng)
    real_xc = cond(receive_waveform(mixing, qpsk_phases(bits), sc.power,
                                    sc.samples_per_symbol, rng))

    n_synth = cfg.synth_per_epoch
    real_targets = one_hot(np.full(cfg.real_pool, FROM_T))
    synth_targets = one_hot(np.zeros(n_synth, dtype=np.int64))
    spoof_targets = one_hot(np.full(cfg.batch_size, FROM_T))

    trace = TrainingTrace()
    for epoch in range(cfg.max_epochs):
        # (a) transmit a fresh synthetic pool through fresh channel draws
        z = rng.standard_normal((n_synth, cfg.noise_dim))
        tx = generator_streams(g_net, z, sc.n_a, budget)
        mixing = sc.draw_mixing("at", "ar", n_synth, rng)
        rx_rows = receive_rows(mixing, tx, rng)
        synth_xc = cond(rx_rows)

        # (b) one discriminator epoch over real + synthetic
        pool_x = np.concatenate([real_xc, synth_xc])
        pool_targets = np.concatenate([real_targets, synth_targets])
        _train_epoch(d_net, d_state, pool_x, pool_targets, cfg.batch_size, opt_cfg, rng)

        # (c) one generator epoch against the updated discriminator
        for start in range(0, n_synth, cfg.batch_size):
            sl = slice(start, start + cfg.batch_size)
            g_out_b, g_cache = forward(g_net, z[sl])
            raw_b = rows_to_streams(g_out_b, sc.n_a)
            tx_b, _ = scale_to_budget(raw_b, budget)
            # The bursts of (a) moved by what the updated generator changes:
            # same link matrices, same receiver noise.
            rx_b = rows_to_streams(rx_rows[sl], sc.n_r) + mixing[sl] @ (tx_b - tx[sl])
            rx_rows_b = feature_rows(rx_b)
            d_out, d_cache = forward(d_net, cond(rx_rows_b))
            targets = spoof_targets[: d_out.shape[0]]
            d_grads = backward(d_net, d_cache, cross_entropy_grad(d_out, targets))
            grad_rows = condition_rows_vjp(d_grads.d_input, rx_rows_b, sc.n_r,
                                           sc.samples_per_symbol)
            # (d re, d im) feature grads pack into one complex grad per sample
            grad_rx = rows_to_streams(grad_rows, sc.n_r)
            grad_tx = np.einsum("bij,bik->bjk", np.conj(mixing[sl]), grad_rx)
            grad_raw = _scale_backward(grad_tx, raw_b, budget)
            g_grads = backward(g_net, g_cache, feature_rows(grad_raw))
            adam_step(g_net, g_grads, g_state, opt_cfg)

        # (d) epoch bookkeeping: losses, protocol bits, convergence
        p_real = from_t_probability(d_net, real_xc)
        p_synth = from_t_probability(d_net, synth_xc)
        trace.d_loss.append(float(_clamped_log(1.0 - p_synth).mean()
                                  - _clamped_log(p_real).mean()))
        trace.g_loss.append(float(_clamped_log(1.0 - p_synth).mean()))
        trace.protocol_log.append(EpochProtocol(epoch, n_synth, int((p_synth > 0.5).sum())))
        trace.epochs_run = epoch + 1
        if check_convergence(trace.g_loss, cfg.conv_window, cfg.conv_threshold) and \
           check_convergence(trace.d_loss, cfg.conv_window, cfg.conv_threshold):
            trace.converged = True
            break
    return g_net, d_net, trace


def save_trace_csv(trace: TrainingTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "g_loss", "d_loss"])
        for epoch, (g, d) in enumerate(zip(trace.g_loss, trace.d_loss)):
            writer.writerow([epoch, repr(g), repr(d)])


def trace_summary(trace: TrainingTrace) -> dict:
    return {"epochs_run": trace.epochs_run, "converged": trace.converged}


def save_trace_summary(trace: TrainingTrace, path) -> None:
    with open(path, "w") as fh:
        json.dump(trace_summary(trace), fh, indent=2)
        fh.write("\n")
