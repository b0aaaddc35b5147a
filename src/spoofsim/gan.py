"""Distributed adversarial waveform learning.

The adversary transmitter holds a generator that maps noise vectors to
per-antenna transmit bursts; its surrogate receiver holds a discriminator
that classifies received bursts as legitimate or synthetic. The two are
trained as alternating rounds of a minimax game with the wireless channel
inside the synthetic-sample path: every synthetic burst goes through a
fresh adversary-to-surrogate link matrix plus receiver noise, drawn as
every other burst's are (see `waveform`), before the discriminator sees
it, and generator updates backpropagate through the discriminator, the
front end, that same linear channel and the power cap.

The generator emits one I/Q phasor per (antenna, symbol). Its transmit
burst is that phasor on the carrier, with constant envelope within each
symbol, so the matched filter gives the phasor back exactly and each
antenna's RMS amplitude is the RMS of its phasors: the power cap
(`scale_to_budget`) and its adjoint act on the phasors, exactly, and no
burst is built at full width anywhere in training or in the GAN attack
(`generator_phasors`).

This narrows the paper's generator, which emits raw samples, but not what
it can do to either receiver in this model. Both see a burst only through
its matched-filter phasors (see `frontend`). The filter is a scaled
orthogonal projection: a raw stream and the constant-envelope stream with
the same phasors filter alike, and the latter is the former's projection
onto the filter's range, so its per-antenna RMS is never larger. Under any
per-antenna RMS cap the constant-envelope stream therefore meets the
budget whenever the raw stream does, and the phasor generator can still
produce every received phasor set the raw one could, without spending
budget on samples no receiver sees.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .authenticator import FROM_T, N_CLASSES, _train_epoch, one_hot
from .frontend import condition_phasors, condition_phasors_vjp, init_conditioned_network
from .nn import (LINEAR, LOG_EPS, RELU, SOFTMAX, AdamState, DenseNetwork, Gradients,
                 Workspace, adam_step, backward, cross_entropy_delta, forward, init_network,
                 input_gradient, predict)
from .scenario import ScenarioConfig
from .waveform import (draw_legit_bursts, feature_rows, phasor_width, receive_phasors,
                       rows_to_streams, stream_rms)

CONV_THRESHOLD = 0.05


@dataclass
class GanConfig:
    """Knobs of one adversarial training run.

    power_budget caps the summed per-antenna RMS amplitude of every
    generated transmit burst; None stands for the scenario's power (see
    `resolve_budget`).

    conv_window sets the stopping rule (see check_convergence): training
    stops once the last conv_window values of both loss series lie within
    CONV_THRESHOLD times the latest value of that series. A run with
    max_epochs < conv_window never converges.
    """

    noise_dim: int = 100
    hidden_width: int = 128
    hidden_depth: int = 3
    real_pool: int = 500
    synth_per_epoch: int = 500
    batch_size: int = 100
    max_epochs: int = 2000
    conv_window: int = 100
    power_budget: float | None = None

    def __post_init__(self):
        # Each message starts with the field name (`parse_config` relies on it).
        if self.conv_window < 2:
            raise ValueError("conv_window must be >= 2")
        for name in ("noise_dim", "hidden_width", "hidden_depth", "real_pool",
                     "synth_per_epoch", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.power_budget is not None and not (0.0 < self.power_budget < math.inf):
            raise ValueError(f"power_budget must be finite and above zero, "
                             f"got {self.power_budget}")


@dataclass
class TrainingTrace:
    """Per-epoch record of one adversarial run: the losses g_loss and d_loss,
    which score epoch e's synthetic pool as `train_gan`'s phase (d) says, and
    capped_bursts[e], the bursts of that pool the power cap scaled down
    (`save_trace_csv` writes all three); epochs_run counts the epochs."""

    g_loss: list = field(default_factory=list)
    d_loss: list = field(default_factory=list)
    converged: bool = False
    capped_bursts: list = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.g_loss)


def generator_layer_sizes(scenario: ScenarioConfig, config: GanConfig) -> list[int]:
    """Noise in, one I/Q transmit phasor per (adversary antenna, symbol) out,
    antenna-major: 8 * n_a values whatever samples_per_symbol is."""
    return ([config.noise_dim] + [config.hidden_width] * config.hidden_depth
            + [phasor_width(scenario.n_a)])


def discriminator_layer_sizes(scenario: ScenarioConfig, config: GanConfig) -> list[int]:
    """Conditioned received-burst features in (one I/Q phasor per surrogate
    antenna and symbol, see `frontend`), two-class softmax out."""
    return ([phasor_width(scenario.n_r)] + [config.hidden_width] * config.hidden_depth
            + [N_CLASSES])


def init_generator(scenario, config, rng) -> DenseNetwork:
    """A float32 net; its phasors leave it as float64 (see `rows_to_streams`)."""
    sizes = generator_layer_sizes(scenario, config)
    return init_network(sizes, [RELU] * config.hidden_depth + [LINEAR], rng=rng,
                        dtype=np.float32)


def init_discriminator(scenario, config, rng) -> tuple[DenseNetwork, AdamState]:
    """A float32 net, initialised as the raw-width net on slot-replicated
    features would be, and its Adam state, which scales the first-layer
    weight step by samples_per_symbol (see `frontend.init_conditioned_network`)."""
    sizes = discriminator_layer_sizes(scenario, config)
    return init_conditioned_network(sizes, [RELU] * config.hidden_depth + [SOFTMAX],
                                    scenario.samples_per_symbol, rng)


def from_t_probability(d_net: DenseNetwork, batch) -> np.ndarray:
    """Discriminator's probability that each row is a legitimate burst, as
    float64 whatever the net's dtype, so the losses are summed in float64."""
    return predict(d_net, batch)[:, FROM_T].astype(np.float64)


def _losses(p_real, p_synth) -> tuple[float, float]:
    """(discriminator loss, generator loss) from the discriminator's
    probabilities p_real and p_synth that real and synthetic bursts are
    legitimate: E_synth[log(1 - D(x))] - E_real[log D(x)], and its first
    term alone, which does not depend on p_real."""
    g_loss = float(np.log(np.maximum(1.0 - p_synth, LOG_EPS)).mean())
    return g_loss - float(np.log(np.maximum(p_real, LOG_EPS)).mean()), g_loss


def scale_to_budget(streams, power_budget):
    """Uniformly shrink streams (..., n_antennas, n_points) whose summed
    per-antenna RMS exceeds the budget; the generator's are its phasors.

    Returns (scaled streams, scale factors). Never scales up.
    """
    rms = stream_rms(streams)
    total = rms.sum(axis=-1)
    scale = np.where(total > power_budget, power_budget / np.maximum(total, LOG_EPS), 1.0)
    return streams * scale[..., None, None], scale


def _scale_backward(grad_scaled, raw, power_budget):
    """Adjoint of scale_to_budget for complex stream grads (batched):
    grad_scaled itself when the cap binds on no row."""
    rms = stream_rms(raw)
    total = rms.sum(axis=-1)
    active = total > power_budget
    if not active.any():
        return grad_scaled
    scale = np.where(active, power_budget / np.maximum(total, LOG_EPS), 1.0)
    grad = grad_scaled * scale[..., None, None]
    # d(scale)/d(raw) term, only where the cap binds.
    inner = np.sum(grad_scaled.real * raw.real + grad_scaled.imag * raw.imag, axis=(-2, -1))
    coeff = np.where(active, -power_budget / np.maximum(total, LOG_EPS) ** 2, 0.0) * inner
    n_points = raw.shape[-1]
    denom = n_points * np.where(rms > 0.0, rms, 1.0)
    grad = grad + coeff[..., None, None] * raw / denom[..., None]
    return grad


def resolve_budget(power_budget, scenario: ScenarioConfig) -> float:
    """The generator's power cap: power_budget, or the scenario's power if None."""
    return float(power_budget) if power_budget is not None else scenario.power


def generator_phasors(g_net: DenseNetwork, z, n_adv, power_budget):
    """Transmit phasors (count, n_adv, n_symbols) the generator emits for the
    noise rows z (count, noise_dim), capped at power_budget, and the cap's
    scale factors; the GAN's pools and the GAN attack draw their bursts here."""
    raw = rows_to_streams(predict(g_net, z), n_adv)
    return scale_to_budget(raw, float(power_budget))


def _generator_grads(g_net, d_net, z, mixing, rx_phasors, tx_phasors, targets,
                     power_budget, g_ws, d_ws) -> Gradients:
    """Generator gradients of the discriminator's cross-entropy against
    `targets` on bursts re-sent by the generator's current output for z,
    passes written into g_ws and d_ws.

    The bursts were received as rx_phasors (count, n_rx, n_symbols) when
    sent as tx_phasors (count, n_tx, n_symbols); the same link matrices and
    receiver noise carry the new transmit phasors, so the received ones move
    by mixing @ (new - old).
    """
    out, cache = forward(g_net, z, g_ws)
    raw = rows_to_streams(out, mixing.shape[-1])
    tx, _ = scale_to_budget(raw, power_budget)
    rx = rx_phasors + mixing @ (tx - tx_phasors)
    d_out, d_cache = forward(d_net, condition_phasors(rx), d_ws)
    d_x = input_gradient(d_net, d_cache, cross_entropy_delta(d_out, targets))
    # The channel's adjoint carries the received-phasor gradient back to the
    # transmit phasors, and the cap's adjoint to the generator's output.
    q = np.conj(mixing).swapaxes(-1, -2) @ condition_phasors_vjp(d_x, rx)
    return backward(g_net, cache, feature_rows(_scale_backward(q, raw, power_budget)))


def check_convergence(loss_series, window) -> bool:
    """True when the last `window` values stay within CONV_THRESHOLD of the
    current loss, relatively; a near-zero current loss only converges if
    the whole window is near zero too.

    A series shorter than `window` never converges; one of exactly `window`
    values can, so `window=2` judges from two epochs alone.
    """
    if len(loss_series) < window:
        return False
    tail = np.asarray(loss_series[-window:], dtype=np.float64)
    now = tail[-1]
    if abs(now) < 1e-9:
        return bool(np.all(np.abs(tail) < 1e-9))
    return bool(np.max(np.abs(tail - now)) < CONV_THRESHOLD * abs(now))


class SynthPool(NamedTuple):
    """Phase (a)'s pool: noise rows, capped transmit phasors, link matrices,
    received phasors and the count of bursts the power cap scaled."""

    z: np.ndarray
    tx: np.ndarray
    mixing: np.ndarray
    rx: np.ndarray
    capped: int


def _synth_pool(g_net, scenario, config, budget, rng) -> SynthPool:
    """Phase (a): the generator's fresh pool, sent through fresh channel
    draws and received as matched-filter phasors."""
    z = rng.standard_normal((config.synth_per_epoch, config.noise_dim)).astype(g_net.params.dtype)
    tx, scale = generator_phasors(g_net, z, scenario.n_a, budget)
    mixing = scenario.draw_mixing("at", "ar", config.synth_per_epoch, rng)
    rx = receive_phasors(mixing, tx, scenario.samples_per_symbol, rng)
    return SynthPool(z, tx, mixing, rx, int(np.count_nonzero(scale < 1.0)))


def _generator_epoch(g_net, d_net, g_state, pool, spoof_targets, budget, batch_size, g_ws, d_ws):
    """Phase (c): each batch re-sends its bursts of the pool with the updated
    generator over the same links and noise (see `_generator_grads`), then
    takes one Adam step toward the discriminator's "legitimate" verdict."""
    for start in range(0, len(pool.z), batch_size):
        sl = slice(start, start + batch_size)
        z = pool.z[sl]
        grads = _generator_grads(g_net, d_net, z, pool.mixing[sl], pool.rx[sl], pool.tx[sl],
                                 spoof_targets[: len(z)], budget, g_ws, d_ws)
        adam_step(g_net, grads, g_state)


def train_gan(scenario: ScenarioConfig, config: GanConfig, rng):
    """Adversarial training loop under `config`, every draw from the
    generator `rng`; returns (generator, discriminator, trace).

    The real pool is drawn once at the start: `real_pool` legitimate bursts
    from T received at the surrogate, as `draw_legit_bursts` draws them.
    Per epoch:
    (a) `_synth_pool` sends a fresh pool of synthetic bursts, each over its
        own adversary-to-surrogate link matrix with receiver noise; the
        trace counts the bursts the power cap scaled;
    (b) `_train_epoch` runs the discriminator over the shuffled real plus
        synthetic pool;
    (c) `_generator_epoch` drives the discriminator's verdict on (a)'s
        bursts toward "legitimate", with gradients flowing through the
        discriminator, the front end, the link matrices and the power cap;
    (d) the losses are recorded. They score (a)'s pool, sent before (c)
        moved the generator, with the discriminator (b) just trained on it,
        so g_loss and d_loss never show (c)'s update.
    Both nets step with Adam at the `nn` constants (ADAM_LEARNING_RATE and
    the rest), the discriminator's first-layer weights scaled by
    samples_per_symbol. Training stops early once both loss series pass the
    perturbation convergence test; otherwise the trace reports
    converged=False.
    """
    cfg, sc = config, scenario
    budget = resolve_budget(cfg.power_budget, sc)

    g_net = init_generator(sc, cfg, rng)
    d_net, d_state = init_discriminator(sc, cfg, rng)
    g_state = AdamState.for_network(g_net)
    g_ws = Workspace(g_net, min(cfg.batch_size, cfg.synth_per_epoch))
    d_ws = Workspace(d_net, min(cfg.batch_size, cfg.real_pool + cfg.synth_per_epoch))

    # Rows and targets are cast to the discriminator's dtype once, where they
    # enter it: `gather_rows` copies its batches out of them.
    d_dtype = d_net.params.dtype
    real_xc = condition_phasors(draw_legit_bursts(sc, "ar", cfg.real_pool, rng)).astype(d_dtype)
    labels = np.repeat([FROM_T, 1 - FROM_T], [cfg.real_pool, cfg.synth_per_epoch])
    pool_targets = one_hot(labels).astype(d_dtype)
    spoof_targets = one_hot(np.full(cfg.batch_size, FROM_T)).astype(d_dtype)

    trace = TrainingTrace()
    for _ in range(cfg.max_epochs):
        pool = _synth_pool(g_net, sc, cfg, budget, rng)
        trace.capped_bursts.append(pool.capped)
        pool_x = np.concatenate([real_xc, condition_phasors(pool.rx)], dtype=d_dtype)
        _train_epoch(d_net, d_state, pool_x, pool_targets, cfg.batch_size, rng, d_ws)
        _generator_epoch(g_net, d_net, g_state, pool, spoof_targets, budget, cfg.batch_size,
                         g_ws, d_ws)
        # (d) losses on (a)'s pool, then the stopping rule
        d_loss, g_loss = _losses(from_t_probability(d_net, real_xc),
                                 from_t_probability(d_net, pool_x[cfg.real_pool:]))
        trace.d_loss.append(d_loss)
        trace.g_loss.append(g_loss)
        if check_convergence(trace.g_loss, cfg.conv_window) and \
           check_convergence(trace.d_loss, cfg.conv_window):
            trace.converged = True
            break
    return g_net, d_net, trace


def save_trace_csv(trace: TrainingTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "g_loss", "d_loss", "capped_bursts"])
        rows = zip(trace.g_loss, trace.d_loss, trace.capped_bursts)
        for epoch, (g, d, capped) in enumerate(rows):
            writer.writerow([epoch, repr(g), repr(d), capped])
