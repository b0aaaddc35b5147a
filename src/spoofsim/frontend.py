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

The conditioned vector keeps the raw feature width (each symbol phasor is
replicated across its sample slots), so network shapes are unchanged.
The transform is differentiable; `condition_rows_vjp` backpropagates
through it, which the adversarial generator training relies on.
"""

from __future__ import annotations

import math

import numpy as np

# Phasors this far above the per-symbol noise floor are phase-normalised.
PHASOR_LIMIT = 1.0
# Power-law order of the constellation collapse.
GRID_POWER = 2


def _derotation(samples_per_symbol) -> np.ndarray:
    k = np.arange(samples_per_symbol)
    return np.exp(-1j * k * (math.pi / (samples_per_symbol / 2.0)))


def _split(rows, n_antennas, samples_per_symbol):
    rows = np.asarray(rows, dtype=np.float64)
    single = rows.ndim == 1
    rows2 = rows[None, :] if single else rows
    width = rows2.shape[1]
    if width % (2 * n_antennas) != 0:
        raise ValueError(f"feature width {width} does not split into {n_antennas} streams")
    n_points = width // (2 * n_antennas)
    if n_points % samples_per_symbol != 0:
        raise ValueError(
            f"{n_points} points per stream do not split into symbols of {samples_per_symbol}")
    z = rows2.reshape(rows2.shape[0], n_antennas, n_points, 2)
    return (z[..., 0] + 1j * z[..., 1]), single


def condition_rows(rows, n_antennas, samples_per_symbol) -> np.ndarray:
    """Condition raw feature rows for a dense classifier/discriminator.

    Output has the same shape as the input: per-symbol matched-filter
    phasors limited at PHASOR_LIMIT and raised to GRID_POWER, replicated
    across the symbol's sample slots, I/Q interleaved.
    """
    z, single = _split(rows, n_antennas, samples_per_symbol)
    s = samples_per_symbol
    n_sym = z.shape[2] // s
    u = (z.reshape(*z.shape[:2], n_sym, s) * _derotation(s)).mean(axis=-1)
    v = (u / np.maximum(np.abs(u), PHASOR_LIMIT)) ** GRID_POWER
    rep = np.broadcast_to(v[..., None], (*v.shape, s)).reshape(z.shape)
    out = np.stack((rep.real, rep.imag), axis=-1).reshape(z.shape[0], -1)
    return out[0] if single else out


def condition_rows_vjp(grad_out, rows, n_antennas, samples_per_symbol) -> np.ndarray:
    """Backpropagate gradients w.r.t. conditioned rows onto the raw rows."""
    z, single = _split(rows, n_antennas, samples_per_symbol)
    g, g_single = _split(grad_out, n_antennas, samples_per_symbol)
    if g.shape != z.shape:
        raise ValueError("gradient shape does not match the conditioned rows")
    s = samples_per_symbol
    n_sym = z.shape[2] // s
    derot = _derotation(s)
    u = (z.reshape(*z.shape[:2], n_sym, s) * derot).mean(axis=-1)
    # Replication adjoint: accumulate the gradient over each symbol's slots.
    g_v = g.reshape(*g.shape[:2], n_sym, s).sum(axis=-1)
    r = np.abs(u)
    below = r < PHASOR_LIMIT
    p = u / np.maximum(r, PHASOR_LIMIT)
    # Power-law adjoint (complex-analytic step).
    g_p = np.conj(GRID_POWER * p ** (GRID_POWER - 1)) * g_v
    # Limiter adjoint: scale below the knee, phase-only above it.
    inner = (p.real * g_p.real + p.imag * g_p.imag)
    g_u = np.where(below, g_p / PHASOR_LIMIT,
                   (g_p - p * inner) / np.maximum(r, PHASOR_LIMIT))
    g_z = (g_u[..., None] / s) * np.conj(derot)
    g_z = g_z.reshape(z.shape)
    out = np.stack((g_z.real, g_z.imag), axis=-1).reshape(z.shape[0], -1)
    return out[0] if (single and g_single) else out
