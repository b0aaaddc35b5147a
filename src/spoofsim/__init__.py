"""Deterministic sandbox for deep-learning wireless signal spoofing.

The package simulates a legitimate QPSK transmitter/receiver pair plus an
adversary pair at noise-normalised powers over Rayleigh block-fading MIMO
links, trains the receiver's signal-authentication network from scratch,
and mounts random, replay, and adversarially-learned (GAN) spoofing
attacks whose success rates can be swept over antenna counts, topologies,
and seeds.

Every burst comes from one batched engine, in the form the receiver keeps
it: `ScenarioConfig.draw_mixing` draws link matrices (count, n_rx, n_tx),
fresh fading over the scenario's fixed phase fingerprint, and
`receive_phasors` sends transmit phasors (count, n_tx, n_symbols) through
them to the received matched-filter phasors with their filtered receiver
noise, (count, n_rx, n_symbols). The defender's datasets
(`build_phasor_dataset`), the GAN's pools and each attack's draw
(`attacks.draw_{random,replay,gan}_bursts`, scored apart from the draw)
use this path; the generator emits capped transmit phasors itself (see
`gan`). Raw rows of 4 * S samples per antenna remain only where a raw
burst enters: `build_dataset` (received at full width through
`receive_waveform`) and an `Authenticator` or `spoofsim bench` fed one.

The package namespace holds only the names that callers outside it read
through the package (the benchmark and the scripts); everything else is
imported from its own module.
"""

__version__ = "0.1.0"

from .authenticator import Authenticator, build_dataset, classify
from .experiments import ExperimentSpec
from .frontend import condition_rows
from .gan import GanConfig
from .nn import load_model, predict
from .scenario import ScenarioConfig
