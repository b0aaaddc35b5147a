"""Scenario geometry, antenna counts, powers, and batched link draws.

The scenario fixes the slowly-varying part of the radio environment that a
physical-layer fingerprint is built on: per-antenna device phase shifts
and per-antenna-pair link phase shifts are drawn once from the scenario
seed and then held for the scenario's lifetime, while link power gains
fade independently burst by burst (Rayleigh block fading: i.i.d.
exponential gains with mean d**-2 for node distance d). The surrogate
receiver is modelled as a faithful stand-in for the defender receiver:
links into it reuse the defender-side phase tables, so what the adversary
pair observes during training matches what the defender sees, up to the
(slightly different) link distances and fresh fading. Moving a node moves
its fading distance, never its phase fingerprint: the phase tables are
keyed by the seed alone. Every live transmit chain also wanders in
carrier phase from burst to burst, by CARRIER_JITTER radians (std dev).

A scenario is one topology. Where A_T attacks from after training (the
mobility table) is a second scenario, `replace(scenario, at_pos=...)`,
which the sweep cell builds (see `experiments.Cell`).

`ScenarioConfig.draw_mixing` is the one place a link is drawn: it returns
one complex mixing matrix per burst, shape (count, n_rx, n_tx), so that a
batch of transmit phasors (count, n_tx, n_symbols) reaches the receive
antennas' matched filters as `mixing @ phasors` (see
`waveform.receive_phasors`); `authenticator.build_dataset`'s raw bursts
reach the receive antennas as `mixing @ streams` (see
`waveform.receive_waveform`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

Position = tuple[float, float]

# Seeds lie in [0, SEED_BOUND): every stream keys on a seed's low 63 bits,
# so a wider seed would draw the streams of another.
SEED_BOUND = 1 << 63
_KEY_T_PHASES = 0x54
_KEY_AT_PHASES = 0x41
_KEY_LINK = 0x4C
_LINK_IDS = {("t", "r"): 0, ("t", "at"): 1, ("at", "r"): 2}

TX_ROLES = ("t", "at")
RX_ROLES = ("r", "ar", "at")
# Node pairs that share a link, as ScenarioConfig position fields: their
# positions must differ (`link_mean_gain` needs a distance above zero).
LINKED_NODES = tuple((f"{tx}_pos", f"{rx}_pos")
                     for tx, rx in product(TX_ROLES, RX_ROLES) if tx != rx)

TWO_PI = 2.0 * math.pi

# Burst-to-burst carrier phase wander (radians, std dev) of a transmit chain.
CARRIER_JITTER = 0.15


def link_mean_gain(tx_pos, rx_pos) -> float:
    """Mean power gain d**-2 of a link; rejects zero-distance geometry."""
    dx = float(tx_pos[0]) - float(rx_pos[0])
    dy = float(tx_pos[1]) - float(rx_pos[1])
    d_sq = dx * dx + dy * dy
    if d_sq == 0.0:
        raise ValueError(f"coincident positions {tuple(tx_pos)}: link distance must be > 0")
    return 1.0 / d_sq


def substream(seed, *key) -> np.random.Generator:
    """Deterministic child generator for (seed, key...) word sequences.

    Different key tuples give statistically independent streams, so
    scenario-derived randomness (device phases, link tables, datasets,
    attacks) stays reproducible and order-insensitive.
    """
    words = [int(w) & (SEED_BOUND - 1) for w in (seed, *key)]
    return np.random.default_rng(np.random.SeedSequence(words))


def _check_position(name, pos) -> Position:
    x, y = float(pos[0]), float(pos[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{name} must be a finite position, got {pos}")
    return (x, y)


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment topology.

    Nodes: legitimate transmitter T and its receiver R, plus the adversary
    pair of transmitter A_T and surrogate receiver A_R. A_R always carries
    the same antenna count as R. Powers are noise-normalised; the transmit
    power default is 1000.
    """

    t_pos: Position = (0.0, 0.0)
    r_pos: Position = (10.0, 0.0)
    at_pos: Position = (0.0, 10.0)
    ar_pos: Position = (10.0, 0.1)
    n_t: int = 1
    n_r: int = 1
    n_a: int = 1
    power: float = 1000.0
    samples_per_symbol: int = 100
    seed: int = 0

    def __post_init__(self):
        # Each message starts with the field name (`parse_config` relies on it).
        for name in ("t_pos", "r_pos", "at_pos", "ar_pos"):
            object.__setattr__(self, name, _check_position(name, getattr(self, name)))
        for name in ("n_t", "n_r", "n_a", "samples_per_symbol"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (0.0 < self.power < math.inf):
            raise ValueError(f"power must be finite and above zero, got {self.power}")

    def t_device_phases(self) -> np.ndarray:
        """Fixed per-antenna hardware phase offsets of T, derived from the seed."""
        return substream(self.seed, _KEY_T_PHASES).uniform(0.0, TWO_PI, self.n_t)

    def at_device_phases(self) -> np.ndarray:
        """Fixed per-antenna hardware phase offsets of A_T."""
        return substream(self.seed, _KEY_AT_PHASES).uniform(0.0, TWO_PI, self.n_a)

    def _antennas(self, role) -> int:
        return {"t": self.n_t, "at": self.n_a, "r": self.n_r, "ar": self.n_r}[role]

    def _position(self, role) -> Position:
        return getattr(self, f"{role}_pos")

    def link_phases(self, tx_role, rx_role) -> np.ndarray:
        """Static per-antenna-pair phase table of a link, uniform on [0, 2*pi).

        The surrogate receiver reuses the defender receiver's tables
        (rx role "ar" maps onto "r"), which is what makes training against
        the surrogate transfer to the defender.
        """
        if tx_role not in TX_ROLES or rx_role not in RX_ROLES or tx_role == rx_role:
            raise ValueError(f"no such link: {tx_role} -> {rx_role}")
        key = (tx_role, "r" if rx_role == "ar" else rx_role)
        table = _link_phase_table(self.seed, key, self._antennas(tx_role),
                                  self._antennas(rx_role))
        return table.copy()

    def link_mean(self, tx_role, rx_role) -> float:
        """Mean link power gain d**-2 at the node positions."""
        return link_mean_gain(self._position(tx_role), self._position(rx_role))

    def draw_mixing(self, tx_role, rx_role, count, rng) -> np.ndarray:
        """Fresh link matrices of `count` bursts, shape (count, n_rx, n_tx).

        Entry [b, j, i] is g * exp(1j * (device[i] + link[i, j])): a fresh
        exponential gain g (mean d**-2) over the transmitter's device
        phases and the link's static phase table, times one carrier-wander
        phasor exp(1j * CARRIER_JITTER * N(0, 1)) per burst, that of the
        transmit chain. Moving a node moves its fading distance, never its
        phase fingerprint: the same `rng` state gives the same phases and
        the gains scaled by the ratio of the link means.
        """
        device = self.t_device_phases() if tx_role == "t" else self.at_device_phases()
        static = np.exp(1j * (device[:, None] + self.link_phases(tx_role, rx_role))).T
        gains = rng.exponential(self.link_mean(tx_role, rx_role),
                                size=(count, *static.shape))
        mixing = gains * static
        mixing *= np.exp(1j * CARRIER_JITTER * rng.standard_normal(count))[:, None, None]
        return mixing


@functools.lru_cache(maxsize=512)
def _link_phase_table(seed, key, n_tx, n_rx) -> np.ndarray:
    rng = substream(seed, _KEY_LINK, _LINK_IDS[key])
    table = rng.uniform(0.0, TWO_PI, size=(n_tx, n_rx))
    table.setflags(write=False)
    return table
