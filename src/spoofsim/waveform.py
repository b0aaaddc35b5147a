"""Batched burst synthesis: QPSK carriers and one receive path for every link.

One transmission ("burst") carries 8 bits as 4 QPSK symbols; each symbol
is sampled `samples_per_symbol` times (S, default 100), so a burst holds
4*S complex baseband points per antenna. Within a symbol the k-th sample
advances the carrier phase by k*pi/(S/2), one full turn per symbol.

Every producer of received bursts (the defender's datasets, the GAN's
real pool, and the random, replay and GAN attacks) works on a batch at
once: it draws link matrices with `ScenarioConfig.draw_mixing`, shape
(count, n_rx, n_tx), and passes them with transmit streams of shape
(count, n_tx, n_points) to `receive_rows`. Waveforms that every transmit
antenna sends alike (legitimate QPSK and structureless random-phase
bursts) go through `receive_waveform`, which averages the matrices over
the transmit antennas. The GAN's synthetic pools, which the surrogate
sees only through its matched filter, draw their noise with
`receiver_noise` exactly as `receive_rows` does and add the channel's
output in the symbol domain.

All powers are normalised to the receiver noise floor: additive noise is
a unit-variance circularly-symmetric complex Gaussian per sample point,
and transmit power enters the received amplitude literally as
gain * power / n_tx.
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import TWO_PI

SYMBOLS_PER_BURST = 4
BITS_PER_BURST = 8


def qpsk_phases(bits) -> np.ndarray:
    """Map bit sequences to Gray-coded QPSK phases, two bits per symbol:
    00, 01, 11, 10 -> pi/4, 3pi/4, 5pi/4, 7pi/4.

    bits has shape (..., n_bits); the result has shape (..., n_bits // 2).
    """
    arr = np.asarray(bits, dtype=np.int64)
    if arr.ndim == 0 or arr.shape[-1] == 0 or arr.shape[-1] % 2 != 0:
        raise ValueError(f"bit count must be a positive multiple of 2, got shape {arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bits must be 0 or 1")
    pairs = arr.reshape(*arr.shape[:-1], -1, 2)
    grid_index = 2 * pairs[..., 0] + (pairs[..., 0] ^ pairs[..., 1])
    return math.pi / 4 + grid_index * (math.pi / 2)


def carrier_tracks(symbol_phases, samples_per_symbol) -> np.ndarray:
    """Unit phasor tracks: symbol phase plus within-symbol rotation.

    symbol_phases has shape (count, n_symbols); the result has shape
    (count, n_symbols * samples_per_symbol).
    """
    s = int(samples_per_symbol)
    if s < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    phases = np.asarray(symbol_phases, dtype=np.float64)
    rotation = np.exp(1j * np.arange(s) * (math.pi / (s / 2.0)))
    tracks = np.exp(1j * phases)[..., None] * rotation
    return tracks.reshape(*phases.shape[:-1], -1)


def receive_rows(mixing, tx, rng) -> np.ndarray:
    """Feature rows of bursts received through link matrices, with receiver noise.

    mixing has shape (count, n_rx, n_tx) and tx (count, n_tx, n_points);
    row b is `mixing[b] @ tx[b]` plus unit complex AWGN, I/Q interleaved
    antenna-major, shape (count, 2 * n_rx * n_points). The noise is drawn
    straight into the output, whose float64 layout is that of complex128
    (count, n_rx, n_points).
    """
    mixing = np.asarray(mixing)
    tx = np.asarray(tx)
    count, n_rx, _ = mixing.shape
    rows = receiver_noise(count, n_rx, tx.shape[-1], rng)
    streams = rows.view(np.complex128).reshape(count, n_rx, -1)
    streams += mixing @ tx
    return rows


def receiver_noise(count, n_rx, n_points, rng) -> np.ndarray:
    """Feature rows (count, 2 * n_rx * n_points) of unit complex AWGN alone:
    the noise `receive_rows` adds, drawn from rng the same way."""
    rows = rng.standard_normal((count, 2 * n_rx * n_points))
    rows *= math.sqrt(0.5)
    return rows


def receive_waveform(mixing, symbol_phases, power, samples_per_symbol, rng) -> np.ndarray:
    """Feature rows of bursts whose transmit antennas all send one phase track.

    mixing has shape (count, n_rx, n_tx): each of the n_tx antennas
    radiates the carrier track of the burst's symbol phases
    (count, n_symbols) at amplitude power / n_tx, so receive antenna j of
    burst b sees

        power * mixing[b, j, :].mean() * exp(1j * (phi + k*pi/(S/2)))

    at sample k of a symbol with phase phi, plus unit complex AWGN.
    """
    if power <= 0:
        raise ValueError("power must be positive")
    tracks = carrier_tracks(symbol_phases, samples_per_symbol)
    weights = float(power) * np.asarray(mixing).mean(axis=-1, keepdims=True)
    return receive_rows(weights, tracks[:, None, :], rng)


def stream_rms(streams) -> np.ndarray:
    """Per-antenna RMS amplitude; streams shaped (..., n_antennas, n_points)."""
    return np.sqrt(np.mean(streams.real ** 2 + streams.imag ** 2, axis=-1))


def amplify_and_forward(recording, power, rng) -> np.ndarray:
    """Relay transmit streams from recorded bursts, shape (count, n_relay, n_points).

    The relay rescales each recording so its summed per-antenna RMS
    amplitude equals `power` (it cannot undo fading it does not know), and
    its record/retransmit chain adds one uniform carrier phase offset per
    burst, since it cannot reproduce the absolute carrier phase of a
    signal it only ever saw at baseband.
    """
    total = stream_rms(recording).sum(axis=-1)
    scale = np.divide(float(power), total, out=np.ones_like(total), where=total > 0.0)
    offset = np.exp(1j * rng.uniform(0.0, TWO_PI, recording.shape[0]))
    return recording * (scale * offset)[:, None, None]


def feature_rows(streams_batch) -> np.ndarray:
    """Interleave (I, Q) of a batch of stream arrays, antenna-major.

    streams_batch has shape (..., n_antennas, n_points); the result has
    shape (..., 2 * n_antennas * n_points) and is a view of a C-contiguous
    complex128 input.
    """
    arr = np.ascontiguousarray(streams_batch, dtype=np.complex128)
    return arr.view(np.float64).reshape(*arr.shape[:-2], -1)


def rows_to_streams(rows, n_antennas) -> np.ndarray:
    """Inverse of feature_rows: complex streams (..., n_antennas, n_points)
    from interleaved reals, a view of C-contiguous float64 rows."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    width = rows.shape[-1]
    if n_antennas < 1 or width % (2 * n_antennas) != 0:
        raise ValueError(
            f"feature width {width} does not divide into {n_antennas} I/Q streams")
    return rows.view(np.complex128).reshape(*rows.shape[:-1], n_antennas, -1)
