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
The program's own bursts are drawn as matched-filter phasors (see
`waveform`); `condition_rows` takes a row of that compact width as the
output of steps 1-2 already, which at S = 1 is the same map.

`condition_rows` composes two parts: steps 1-2 are the real-linear
`symbol_phasors`, steps 3-4 the pointwise `condition_phasors`, whose
vector-Jacobian product is `condition_phasors_vjp`. Gradients only ever
flow through steps 3-4: the adversarial generator emits one phasor per
antenna and symbol, and the fading channel is linear, so its training
runs on phasors and never builds a burst at full width (see `gan`).

A network fed by the front end starts from `init_conditioned_network`: the
net a raw-width input of S identical copies of each phasor would get, with
each phasor's S tied first-layer weights summed into one. Trained with its
first-layer weight step scaled by S (`AdamState.first_weight_scale`), it
follows that raw-width net's trajectory while holding S times fewer
first-layer weights.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .nn import DenseNetwork, init_network
from .waveform import _BLOCK_BURSTS, SYMBOLS_PER_BURST, feature_rows, rows_to_streams

# Phasors this far above the per-symbol noise floor are phase-normalised.
PHASOR_LIMIT = 1.0
# Power-law order of the constellation collapse.
GRID_POWER = 2


# Cached and read-only: building it (about 10 µs at S = 100) would cost a
# quarter of a single raw burst's `classify`.
@functools.lru_cache(maxsize=8)
def _derotation(samples_per_symbol) -> np.ndarray:
    k = np.arange(samples_per_symbol)
    derotation = np.exp(-1j * k * (math.pi / (samples_per_symbol / 2.0)))
    derotation.flags.writeable = False
    return derotation


def symbol_phasors(rows, n_antennas, samples_per_symbol) -> np.ndarray:
    """Matched-filter phasors of raw feature rows (steps 1 and 2).

    rows has shape (..., 2 * n_antennas * n_points); the result is complex,
    shape (..., n_antennas, n_symbols). The map is real-linear in the rows.

    Memory: up to `_BLOCK_BURSTS` rows are derotated and averaged at once
    (a single burst would pay about 6 µs for the block loop); more rows go
    one block at a time into the preallocated result, so the S-fold
    derotated product never exists for the whole input. Each row's mean is
    the same either way.
    """
    z = rows_to_streams(rows, n_antennas)
    n_points = z.shape[-1]
    s = samples_per_symbol
    if n_points % s != 0:
        raise ValueError(f"{n_points} points per stream do not split into symbols of {s}")
    z = z.reshape(*z.shape[:-1], n_points // s, s)
    derotation = _derotation(s)
    lead = z.shape[:-3]
    if math.prod(lead) <= _BLOCK_BURSTS:
        return (z * derotation).mean(axis=-1)
    z = z.reshape(-1, *z.shape[-3:])
    out = np.empty(z.shape[:-1], dtype=np.complex128)
    for start in range(0, z.shape[0], _BLOCK_BURSTS):
        stop = start + _BLOCK_BURSTS
        np.mean(z[start:stop] * derotation, axis=-1, out=out[start:stop])
    return out.reshape(*lead, *out.shape[1:])


def condition_phasors(phasors) -> np.ndarray:
    """Limit matched-filter phasors (..., n_antennas, n_symbols) at
    PHASOR_LIMIT and raise them to GRID_POWER (steps 3 and 4); returns the
    conditioned rows, I/Q interleaved per (antenna, symbol)."""
    u = np.asarray(phasors)
    return feature_rows((u / np.maximum(np.abs(u), PHASOR_LIMIT)) ** GRID_POWER)


def condition_phasors_vjp(grad_out, phasors) -> np.ndarray:
    """Backpropagate gradients w.r.t. conditioned rows onto the phasors.

    grad_out has the conditioned rows' shape (..., 2 * n_antennas *
    n_symbols); the result packs the (d re, d im) gradient of each phasor
    into one complex value, shape of `phasors`.
    """
    u = np.asarray(phasors)
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != (*u.shape[:-2], 2 * u.shape[-2] * u.shape[-1]):
        raise ValueError(f"gradient shape {g.shape} does not match the conditioned rows")
    g_v = rows_to_streams(g, u.shape[-2])
    r = np.abs(u)
    below = r < PHASOR_LIMIT
    p = u / np.maximum(r, PHASOR_LIMIT)
    # Power-law adjoint (complex-analytic step).
    g_p = np.conj(GRID_POWER * p ** (GRID_POWER - 1)) * g_v
    # Limiter adjoint: scale below the knee, phase-only above it.
    inner = (p.real * g_p.real + p.imag * g_p.imag)
    return np.where(below, g_p / PHASOR_LIMIT,
                    (g_p - p * inner) / np.maximum(r, PHASOR_LIMIT))


def condition_rows(rows, n_antennas, samples_per_symbol) -> np.ndarray:
    """Condition feature rows for a dense classifier/discriminator.

    Raw rows (width 2 * n_antennas * n_points) go through the matched
    filter first; rows of width 2 * n_antennas * n_symbols are taken as
    matched-filter phasors already, I/Q interleaved per (antenna, symbol).
    Returns the phasors limited at PHASOR_LIMIT and raised to GRID_POWER,
    in that compact layout.
    """
    rows = np.asarray(rows)
    if rows.shape[-1] == 2 * n_antennas * SYMBOLS_PER_BURST:
        return condition_phasors(rows_to_streams(rows, n_antennas))
    return condition_phasors(symbol_phasors(rows, n_antennas, samples_per_symbol))


def init_conditioned_network(layer_sizes, activations, samples_per_symbol,
                             rng) -> DenseNetwork:
    """Float32 network for conditioned rows of width layer_sizes[0].

    The weights are drawn as `init_network` draws them for a raw-width
    input of S = samples_per_symbol copies of each conditioned value (same
    random stream use); each value's S first-layer weights are then summed
    into one, in float64 before the cast, which gives He variance 2/F for
    the compact fan-in F.
    """
    s = int(samples_per_symbol)
    sizes = [int(n) for n in layer_sizes]
    raw = init_network([sizes[0] * s, *sizes[1:]], activations, rng=rng)
    w = raw.weights[0]
    folded = w.reshape(w.shape[0], sizes[0] // 2, s, 2).sum(axis=2).reshape(w.shape[0], -1)
    return DenseNetwork([a.astype(np.float32) for a in (folded, *raw.weights[1:])],
                        [b.astype(np.float32) for b in raw.biases], raw.activations)
