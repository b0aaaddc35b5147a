"""Receiver DSP front end shared by the defender and the surrogate receiver.

Raw burst features are conditioned before they reach a dense network:

1. the known per-sample carrier rotation is removed,
2. each symbol's samples are coherently averaged (the matched filter for
   a constant-envelope symbol),
3. the per-symbol phasor is length-limited, so anything comfortably above
   the noise floor lands on the unit circle while weak symbols stay
   proportionally short,
4. the limited phasor is raised to a small integer power, the classic
   m-th power law that collapses a symmetric phase constellation onto a
   few canonical points and leaves structureless phases uniform.

The conditioned row is compact: one I/Q pair per (antenna, symbol),
antenna-major, so a raw row of width 2 * n_antennas * n_points becomes
2 * n_antennas * n_symbols values, samples_per_symbol (S) times narrower.
The transform is differentiable; `condition_rows_vjp` backpropagates
through it, which the adversarial generator training relies on.

A network fed by the front end starts from `init_conditioned_network`: the
net a raw-width input of S identical copies of each phasor would get, with
each phasor's S tied first-layer weights summed into one. Trained with its
first-layer weight step scaled by S (`AdamState.first_weight_scale`), it
follows that raw-width net's trajectory while holding S times fewer
first-layer weights.
"""

from __future__ import annotations

import math

import numpy as np

from .nn import DenseNetwork, init_network
from .waveform import feature_rows, rows_to_streams

# Phasors this far above the per-symbol noise floor are phase-normalised.
PHASOR_LIMIT = 1.0
# Power-law order of the constellation collapse.
GRID_POWER = 2


def _derotation(samples_per_symbol) -> np.ndarray:
    k = np.arange(samples_per_symbol)
    return np.exp(-1j * k * (math.pi / (samples_per_symbol / 2.0)))


def _symbol_phasors(rows, n_antennas, samples_per_symbol):
    """Matched-filter phasors (count, n_antennas, n_symbols) of raw rows, and
    whether the input was a single row."""
    rows = np.asarray(rows, dtype=np.float64)
    single = rows.ndim == 1
    rows2 = rows[None, :] if single else rows
    width = rows2.shape[1]
    if width % (2 * n_antennas) != 0:
        raise ValueError(f"feature width {width} does not split into {n_antennas} streams")
    n_points = width // (2 * n_antennas)
    s = samples_per_symbol
    if n_points % s != 0:
        raise ValueError(f"{n_points} points per stream do not split into symbols of {s}")
    z = rows_to_streams(rows2, n_antennas)
    return (z.reshape(*z.shape[:2], n_points // s, s) * _derotation(s)).mean(axis=-1), single


def condition_rows(rows, n_antennas, samples_per_symbol) -> np.ndarray:
    """Condition raw feature rows for a dense classifier/discriminator.

    Returns the per-symbol matched-filter phasors limited at PHASOR_LIMIT
    and raised to GRID_POWER, I/Q interleaved per (antenna, symbol):
    width 2 * n_antennas * n_symbols per row.
    """
    u, single = _symbol_phasors(rows, n_antennas, samples_per_symbol)
    out = feature_rows((u / np.maximum(np.abs(u), PHASOR_LIMIT)) ** GRID_POWER)
    return out[0] if single else out


def condition_rows_vjp(grad_out, rows, n_antennas, samples_per_symbol) -> np.ndarray:
    """Backpropagate gradients w.r.t. conditioned (compact) rows onto the raw rows."""
    u, single = _symbol_phasors(rows, n_antennas, samples_per_symbol)
    g = np.asarray(grad_out, dtype=np.float64)
    g2 = g[None, :] if g.ndim == 1 else g
    if g2.shape != (u.shape[0], 2 * u.shape[1] * u.shape[2]):
        raise ValueError(f"gradient shape {g.shape} does not match the conditioned rows")
    g_v = rows_to_streams(g2, n_antennas)
    r = np.abs(u)
    below = r < PHASOR_LIMIT
    p = u / np.maximum(r, PHASOR_LIMIT)
    # Power-law adjoint (complex-analytic step).
    g_p = np.conj(GRID_POWER * p ** (GRID_POWER - 1)) * g_v
    # Limiter adjoint: scale below the knee, phase-only above it.
    inner = (p.real * g_p.real + p.imag * g_p.imag)
    g_u = np.where(below, g_p / PHASOR_LIMIT,
                   (g_p - p * inner) / np.maximum(r, PHASOR_LIMIT))
    # Matched-filter adjoint: spread each symbol's gradient over its samples.
    s = samples_per_symbol
    g_z = (g_u[..., None] / s) * np.conj(_derotation(s))
    out = feature_rows(g_z.reshape(*u.shape[:2], -1))
    return out[0] if (single and g.ndim == 1) else out


def init_conditioned_network(layer_sizes, activations, samples_per_symbol,
                             rng) -> DenseNetwork:
    """Network for conditioned rows of width layer_sizes[0].

    The weights are drawn as `init_network` draws them for a raw-width
    input of S = samples_per_symbol copies of each conditioned value (same
    random stream use); each value's S first-layer weights are then summed
    into one, which gives He variance 2/F for the compact fan-in F.
    """
    s = int(samples_per_symbol)
    sizes = [int(n) for n in layer_sizes]
    raw = init_network([sizes[0] * s, *sizes[1:]], activations, rng)
    w = raw.weights[0]
    folded = w.reshape(w.shape[0], sizes[0] // 2, s, 2).sum(axis=2).reshape(w.shape[0], -1)
    return DenseNetwork([folded, *raw.weights[1:]], raw.biases, raw.activations)
