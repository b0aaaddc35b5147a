"""Deterministic sandbox for deep-learning wireless signal spoofing.

The package simulates a legitimate QPSK transmitter/receiver pair plus an
adversary pair at noise-normalised powers over Rayleigh block-fading MIMO
links, trains the receiver's signal-authentication network from scratch,
and mounts random, replay, and adversarially-learned (GAN) spoofing
attacks whose success rates can be swept over antenna counts, topologies,
and seeds.

Every burst comes from one batched engine, in the form the receiver keeps
it: `ScenarioConfig.draw_mixing` draws a batch of link matrices of shape
(count, n_rx, n_tx) (fresh fading over the scenario's fixed phase
fingerprint), and `receive_phasors` turns them plus transmit phasors
(count, n_tx, n_symbols) into the received bursts' matched-filter phasors
with their filtered receiver noise, (count, n_rx, n_symbols). The
defender's datasets (`build_phasor_dataset`), the GAN's real and synthetic
pools and all three attacks use this path, and the GAN's generator emits
transmit phasors itself, one per (antenna, symbol), capped in that domain
(see `gan`). Raw rows of 4 * S samples per antenna remain only where a raw
burst enters: `build_dataset` (the same draws up to the receiver, received
at full width through `receive_rows`) and an `Authenticator` or
`spoofsim bench` fed a raw row.
"""

__version__ = "0.1.0"

from .attacks import (AttackReport, run_gan_attack, run_random_attack,
                      run_replay_attack, train_spoofer)
from .authenticator import (FROM_T, NOT_T, Authenticator, ClassifierMetrics,
                            LabeledDataset, build_dataset, build_phasor_dataset,
                            classify, evaluate, train_classifier)
from .experiments import (ConfigError, ExperimentResult, ExperimentSpec,
                          benchmark_latency, build_version, parse_config,
                          run_experiment)
from .frontend import condition_rows
from .gan import (GanConfig, TrainingTrace, check_convergence,
                  discriminator_loss, generator_loss, generator_phasors,
                  train_gan)
from .nn import (AdamState, DenseNetwork, Gradients, TrainConfig, Workspace, adam_step,
                 backward, cross_entropy, cross_entropy_delta, finite_diff_check, forward,
                 gather_rows, init_network, input_gradient, load_model, predict, save_model)
from .scenario import Position, ScenarioConfig, substream
from .waveform import (qpsk_phases, receive_phasors, receive_rows, receive_waveform,
                       receive_waveform_phasors, relay_phasors)
