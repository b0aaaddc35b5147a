"""Deterministic sandbox for deep-learning wireless signal spoofing.

The package simulates a legitimate QPSK transmitter/receiver pair plus an
adversary pair at noise-normalised powers over Rayleigh block-fading MIMO
links, trains the receiver's signal-authentication network from scratch,
and mounts random, replay, and adversarially-learned (GAN) spoofing
attacks whose success rates can be swept over antenna counts, topologies,
and seeds.

Every burst comes from one batched engine: `ScenarioConfig.draw_mixing`
draws a batch of link matrices of shape (count, n_rx, n_tx) (fresh fading
over the scenario's fixed phase fingerprint), and `receive_rows` turns
them plus transmit streams (count, n_tx, n_points) into noisy received
feature rows (count, 2 * n_rx * n_points). The defender's datasets, the
GAN's real pool and all three attacks use this path; the GAN's synthetic
pools draw the same receiver noise and stay in the symbol domain.
"""

__version__ = "0.1.0"

from .attacks import (AttackReport, run_gan_attack, run_random_attack,
                      run_replay_attack, success_probability, train_spoofer)
from .authenticator import (FROM_T, NOT_T, Authenticator, ClassifierMetrics,
                            LabeledDataset, build_dataset, classify, evaluate,
                            train_classifier, tune_hyperparameters)
from .experiments import (ConfigError, ExperimentResult, ExperimentSpec,
                          benchmark_latency, build_version, parse_config,
                          run_experiment)
from .frontend import condition_rows
from .gan import (GanConfig, TrainingTrace, check_convergence,
                  discriminator_loss, generator_loss, generator_streams,
                  train_gan)
from .nn import (AdamState, DenseNetwork, Gradients, TrainConfig, adam_step,
                 backward, cross_entropy, cross_entropy_grad,
                 finite_diff_check, forward, init_network, load_model,
                 predict, save_model)
from .scenario import Position, ScenarioConfig, substream
from .waveform import qpsk_phases, receive_rows, receive_waveform
