"""Batched burst synthesis: QPSK carriers and the receive path of every link.

One transmission ("burst") carries 8 bits as 4 QPSK symbols; each symbol
is sampled `samples_per_symbol` times (S, default 100), so a burst holds
4*S complex baseband points per antenna. Within a symbol the k-th sample
advances the carrier phase by k*pi/(S/2), one full turn per symbol.

A receiver sees a burst only through its matched filter (see `frontend`):
one phasor per antenna and symbol, the mean of the symbol's derotated
samples. The filter is a sufficient statistic for these bursts, and the
channel and the relay are linear, so every pipeline draws bursts as those
phasors directly, with the distribution the filter would give:

- `receive_phasors` sends transmit phasors (count, n_tx, n_symbols)
  through link matrices (count, n_rx, n_tx) from
  `ScenarioConfig.draw_mixing` and adds the filtered receiver noise,
  CN(0, 1/S) per antenna and symbol;
- `receive_waveform_phasors` does so for waveforms that every transmit
  antenna sends alike (legitimate QPSK and structureless random-phase
  bursts), whose phasors are the symbol phases' unit phasors;
- `draw_legit_bursts` draws legitimate bursts from T through it: the
  GAN's real pool (at A_R) and the replay attack's recording (at A_T);
- `relay_phasors` is the replay relay, which rescales a recording by its
  full-width RMS.

Raw feature rows (count, 2 * n_rx * n_points) remain where a raw burst
enters the program: `receive_waveform` builds them for
`authenticator.build_dataset`, whose draws before the receiver are the
same as those of its phasor twin, and builds no other full-width array
(see its memory note).

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

# Bursts per block of the raw receive path and of `frontend.symbol_phasors`:
# at 4 receive antennas and S = 100 one block of received streams is 1.6 MB.
_BLOCK_BURSTS = 64


def phasor_width(n_antennas) -> int:
    """Real width of a burst's matched-filter row: one I/Q pair per
    (antenna, symbol), whatever samples_per_symbol is."""
    return 2 * n_antennas * SYMBOLS_PER_BURST


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


def receive_waveform(mixing, symbol_phases, power, samples_per_symbol, rng) -> np.ndarray:
    """Feature rows of bursts whose transmit antennas all send one phase track.

    mixing has shape (count, n_rx, n_tx): each of the n_tx antennas
    radiates the carrier track of the burst's symbol phases
    (count, n_symbols) at amplitude power / n_tx, so receive antenna j of
    burst b sees

        power * mixing[b, j, :].mean() * exp(1j * (phi + k*pi/(S/2)))

    at sample k of a symbol with phase phi, plus unit complex AWGN. The
    rows, I/Q interleaved antenna-major, have shape
    (count, 2 * n_rx * n_symbols * S). Arguments that do not fit are
    refused before any draw.

    Memory: the rows are the only full-width array built. The noise is
    one `standard_normal` draw straight into them (their float64 layout is
    that of complex128 (count, n_rx, n_points)); each block's carrier
    tracks and received signal are then formed and added in place.
    """
    if power <= 0:
        raise ValueError("power must be positive")
    s = int(samples_per_symbol)
    if s < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    phases = np.asarray(symbol_phases, dtype=np.float64)
    if phases.ndim != 2:
        raise ValueError(f"symbol_phases must be (count, n_symbols), got shape {phases.shape}")
    weights = float(power) * np.asarray(mixing).mean(axis=-1, keepdims=True)
    count, n_rx, _ = weights.shape
    if phases.shape[0] != count:
        raise ValueError(f"{phases.shape[0]} bursts of symbol phases do not fit "
                         f"{count} link matrices")
    rows = rng.standard_normal((count, 2 * n_rx * phases.shape[-1] * s))
    rows *= math.sqrt(0.5)
    streams = rows.view(np.complex128).reshape(count, n_rx, -1)
    for start in range(0, count, _BLOCK_BURSTS):
        stop = start + _BLOCK_BURSTS
        block = streams[start:stop]
        block += weights[start:stop] @ carrier_tracks(phases[start:stop], s)[:, None, :]
    return rows


def receive_phasors(mixing, tx_phasors, samples_per_symbol, rng) -> np.ndarray:
    """Matched-filter phasors of bursts received through link matrices.

    mixing has shape (count, n_rx, n_tx) and tx_phasors, the transmit
    bursts' own matched-filter phasors, (count, n_tx, n_symbols); the
    result (count, n_rx, n_symbols) is `mixing @ tx_phasors` plus the
    filtered receiver noise: the mean of S unit complex Gaussians, so
    CN(0, 1/S), independent across bursts, antennas and symbols. A
    tx_phasors of another burst or antenna count is refused before any draw.
    """
    mixing = np.asarray(mixing)
    tx_phasors = np.asarray(tx_phasors)
    count, n_rx, n_tx = mixing.shape
    if tx_phasors.ndim != 3 or tx_phasors.shape[:2] != (count, n_tx):
        raise ValueError(f"transmit phasors {tx_phasors.shape} do not fit "
                         f"link matrices {mixing.shape}")
    s = int(samples_per_symbol)
    if s < 1:
        raise ValueError("samples_per_symbol must be >= 1")
    noise = rng.standard_normal((count, n_rx, tx_phasors.shape[-1], 2))
    noise *= math.sqrt(0.5 / s)
    rx = noise.view(np.complex128)[..., 0]
    rx += mixing @ tx_phasors
    return rx


def receive_waveform_phasors(mixing, symbol_phases, power, samples_per_symbol,
                             rng) -> np.ndarray:
    """`receive_waveform`'s bursts as their matched-filter phasors.

    The filter undoes the carrier's within-symbol rotation, so receive
    antenna j of burst b keeps power * mixing[b, j, :].mean() * exp(1j * phi)
    for a symbol of phase phi, plus CN(0, 1/S) noise (see
    `receive_phasors`); shape (count, n_rx, n_symbols).
    """
    if power <= 0:
        raise ValueError("power must be positive")
    weights = float(power) * np.asarray(mixing).mean(axis=-1, keepdims=True)
    tx = np.exp(1j * np.asarray(symbol_phases, dtype=np.float64))[:, None, :]
    return receive_phasors(weights, tx, samples_per_symbol, rng)


def draw_legit_bursts(scenario, rx_role, count, rng) -> np.ndarray:
    """Phasors (count, n_rx, n_symbols) of `count` legitimate QPSK bursts
    from T, received at `rx_role`: fresh payload bits, then each burst's
    link matrix, then the receiver noise, all from the generator `rng`."""
    bits = rng.integers(0, 2, size=(count, BITS_PER_BURST))
    mixing = scenario.draw_mixing("t", rx_role, count, rng)
    return receive_waveform_phasors(mixing, qpsk_phases(bits), scenario.power,
                                    scenario.samples_per_symbol, rng)


def stream_rms(streams) -> np.ndarray:
    """Per-antenna RMS amplitude; streams shaped (..., n_antennas, n_points)."""
    return np.sqrt(np.mean(streams.real ** 2 + streams.imag ** 2, axis=-1))


def relay_phasors(recorded, power, samples_per_symbol, rng) -> np.ndarray:
    """Transmit phasors of a replay relay, from the matched-filter phasors
    (count, n_relay, n_symbols) of the bursts it recorded.

    The relay rescales each recording so its summed per-antenna RMS
    amplitude over the full burst equals `power` (it cannot undo fading it
    does not know), and its record/retransmit chain adds one uniform
    carrier phase offset per burst, since it cannot reproduce the absolute
    carrier phase of a signal it only ever saw at baseband. A recorded
    antenna's energy is S * sum |u|**2 within the filter's range, plus the
    noise outside it: n_points - n_symbols unit complex Gaussians, whose
    energy is drawn as Gamma(n_points - n_symbols, 1) (zero at S = 1).
    """
    recorded = np.asarray(recorded)
    s = int(samples_per_symbol)
    n_symbols = recorded.shape[-1]
    energy = s * np.sum(recorded.real ** 2 + recorded.imag ** 2, axis=-1)
    energy += rng.gamma(n_symbols * (s - 1), 1.0, size=energy.shape)
    total = np.sqrt(energy / (n_symbols * s)).sum(axis=-1)
    scale = np.divide(float(power), total, out=np.ones_like(total), where=total > 0.0)
    offset = np.exp(1j * rng.uniform(0.0, TWO_PI, recorded.shape[0]))
    return recorded * (scale * offset)[:, None, None]


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
