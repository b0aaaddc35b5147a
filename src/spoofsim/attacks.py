"""Mounting spoofing attacks against a trained authenticator.

Three attack kinds are measured as the fraction of spoofed bursts the
defender's classifier labels as the legitimate transmitter:

- random: structureless uniform-phase bursts at full power,
- replay: amplify-and-forward copies of fresh legitimate transmissions,
- gan: bursts from a trained generator, sent through a fresh fading draw
  from the adversary's current (possibly moved) position.

`train_spoofer` trains that generator: one `train_gan` run, kept whether
or not its losses converged.

Every spoofed burst reaches the defender as its matched-filter phasors,
drawn directly (see `waveform`); no attack builds a raw burst.
"""

from __future__ import annotations

from dataclasses import dataclass

from .authenticator import FROM_T, Authenticator, classify
from .gan import generator_phasors, train_gan
from .scenario import TWO_PI, ScenarioConfig
from .waveform import (BITS_PER_BURST, SYMBOLS_PER_BURST, feature_rows,
                       qpsk_phases, receive_phasors, receive_waveform_phasors,
                       relay_phasors)


@dataclass
class AttackReport:
    """Outcome of one attack evaluation run."""

    n_trials: int
    n_success: int

    def __post_init__(self):
        if self.n_trials < 1 or not (0 <= self.n_success <= self.n_trials):
            raise ValueError("success count must lie in [0, n_trials]")

    @property
    def success_prob(self) -> float:
        return self.n_success / self.n_trials


def _report(classifier, rx) -> AttackReport:
    """Score received phasors (count, n_r, n_symbols) with the classifier."""
    decisions = classify(classifier, feature_rows(rx))
    return AttackReport(len(decisions), int((decisions == FROM_T).sum()))


def _check_feature_width(classifier: Authenticator, scenario: ScenarioConfig):
    width = classifier.net.layer_sizes[0]
    if width != scenario.conditioned_length:
        raise ValueError(
            f"classifier expects {width} conditioned features, scenario "
            f"delivers {scenario.conditioned_length}")


def run_random_attack(classifier, scenario, n_trials, rng) -> AttackReport:
    """Transmit `n_trials` structureless random-phase bursts at full power,
    drawn from the generator `rng`."""
    _check_feature_width(classifier, scenario)
    sc = scenario
    phases = rng.uniform(0.0, TWO_PI, size=(n_trials, SYMBOLS_PER_BURST))
    mixing = sc.draw_mixing("at", "r", n_trials, rng, at_position=sc.attack_position)
    rx = receive_waveform_phasors(mixing, phases, sc.power, sc.samples_per_symbol, rng)
    return _report(classifier, rx)


def run_replay_attack(classifier, scenario, n_trials, rng) -> AttackReport:
    """Record a fresh legitimate burst in each of `n_trials` trials, amplify,
    and forward it, every draw from the generator `rng`."""
    _check_feature_width(classifier, scenario)
    sc = scenario
    bits = rng.integers(0, 2, size=(n_trials, BITS_PER_BURST))
    hop1 = sc.draw_mixing("t", "at", n_trials, rng, at_position=sc.attack_position)
    recorded = receive_waveform_phasors(hop1, qpsk_phases(bits), sc.power,
                                        sc.samples_per_symbol, rng)
    forwarded = relay_phasors(recorded, sc.power, sc.samples_per_symbol, rng)
    # The second hop's matrices carry A_T's carrier wander; the relay's
    # uniform per-burst phase offset already absorbs any such phase.
    hop2 = sc.draw_mixing("at", "r", n_trials, rng, at_position=sc.attack_position)
    rx = receive_phasors(hop2, forwarded, sc.samples_per_symbol, rng)
    return _report(classifier, rx)


def run_gan_attack(classifier, generator, scenario, n_trials, rng,
                   power_budget) -> AttackReport:
    """Spoof `n_trials` times with a trained generator from the attack-time
    position, every draw from the generator `rng`, its bursts capped at
    `power_budget` (None: the scenario's power)."""
    _check_feature_width(classifier, scenario)
    sc = scenario
    width = generator.layer_sizes[-1]
    expected_out = 2 * SYMBOLS_PER_BURST * sc.n_a
    if width != expected_out:
        raise ValueError(f"generator emits {width} values, scenario needs {expected_out} "
                         f"for {sc.n_a} transmit antennas")
    budget = float(power_budget) if power_budget is not None else sc.power
    z = rng.standard_normal((n_trials, generator.layer_sizes[0]))
    tx, _ = generator_phasors(generator, z, sc.n_a, budget)
    mixing = sc.draw_mixing("at", "r", n_trials, rng, at_position=sc.attack_position)
    rx = receive_phasors(mixing, tx, sc.samples_per_symbol, rng)
    return _report(classifier, rx)


def train_spoofer(scenario, gan_config, rng):
    """Train the adversarial generator under `gan_config` on the generator
    `rng`, in one `train_gan` run; returns its (generator, trace).

    Kept as a call of its own, not inlined into `experiments.train_job`:
    `perfbench/layers.py` wraps `spoofsim.experiments:train_spoofer` and
    `spoofsim.attacks:train_gan`, and its GAN hook counts a cell's GAN runs
    and epochs through those two names. Inlining would blank those figures
    until the benchmark's spans move.
    """
    generator, _, trace = train_gan(scenario, gan_config, rng)
    return generator, trace
