"""Mounting spoofing attacks against a trained authenticator.

Each attack kind has one draw of its spoofed bursts as the defender's
receiver R gets them, matched-filter phasors (count, n_r, n_symbols)
drawn directly (see `waveform`):

- random (`draw_random_bursts`): uniform-phase bursts at full power,
- replay (`draw_replay_bursts`): amplify-and-forward copies of fresh
  legitimate transmissions,
- gan (`draw_gan_bursts`): bursts from a trained generator, sent through a
  fresh fading draw from A_T's position in the scenario the attack is
  given (after a move, that is the moved scenario; see `experiments.Cell`).

`_report` is the one scorer, the fraction of bursts the classifier labels
as the legitimate transmitter; each `run_*_attack` is its kind's draw and
then the scorer, so another defender can score the same bursts by calling
the draw on the same stream. `train_spoofer` trains the generator: one
`train_gan` run of `max_epochs` epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .authenticator import FROM_T, classify
from .gan import generator_phasors, resolve_budget, train_gan
from .scenario import TWO_PI
from .waveform import (SYMBOLS_PER_BURST, draw_legit_bursts, feature_rows, phasor_width,
                       receive_phasors, receive_waveform_phasors, relay_phasors)


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
    """Score received phasors (count, n_r, n_symbols); a net of another width is refused."""
    rows = feature_rows(rx)
    width, delivered = classifier.net.layer_sizes[0], rows.shape[-1]
    if width != delivered:
        raise ValueError(f"classifier expects {width} conditioned features, bursts "
                         f"deliver {delivered}")
    decisions = classify(classifier, rows)
    return AttackReport(len(decisions), int((decisions == FROM_T).sum()))


def draw_random_bursts(scenario, n, rng):
    """`n` structureless random-phase bursts at full power, A_T to R."""
    sc = scenario
    phases = rng.uniform(0.0, TWO_PI, size=(n, SYMBOLS_PER_BURST))
    mixing = sc.draw_mixing("at", "r", n, rng)
    return receive_waveform_phasors(mixing, phases, sc.power, sc.samples_per_symbol, rng)


def draw_replay_bursts(scenario, n, rng):
    """`n` fresh legitimate bursts recorded at A_T, amplified and forwarded to R."""
    sc = scenario
    recorded = draw_legit_bursts(sc, "at", n, rng)
    forwarded = relay_phasors(recorded, sc.power, sc.samples_per_symbol, rng)
    # The second hop's matrices carry A_T's carrier wander; the relay's
    # uniform per-burst phase offset already absorbs any such phase.
    hop2 = sc.draw_mixing("at", "r", n, rng)
    return receive_phasors(hop2, forwarded, sc.samples_per_symbol, rng)


def draw_gan_bursts(generator, scenario, n, rng, power_budget):
    """`n` bursts of a trained generator, A_T to R, capped at `power_budget`
    (see `gan.resolve_budget`)."""
    sc = scenario
    width, expected_out = generator.layer_sizes[-1], phasor_width(sc.n_a)
    if width != expected_out:
        raise ValueError(f"generator emits {width} values, scenario needs {expected_out} "
                         f"for {sc.n_a} transmit antennas")
    z = rng.standard_normal((n, generator.layer_sizes[0]))
    tx, _ = generator_phasors(generator, z, sc.n_a, resolve_budget(power_budget, sc))
    mixing = sc.draw_mixing("at", "r", n, rng)
    return receive_phasors(mixing, tx, sc.samples_per_symbol, rng)


def run_random_attack(classifier, scenario, n_trials, rng) -> AttackReport:
    return _report(classifier, draw_random_bursts(scenario, n_trials, rng))


def run_replay_attack(classifier, scenario, n_trials, rng) -> AttackReport:
    return _report(classifier, draw_replay_bursts(scenario, n_trials, rng))


def run_gan_attack(classifier, generator, scenario, n_trials, rng, power_budget) -> AttackReport:
    return _report(classifier, draw_gan_bursts(generator, scenario, n_trials, rng, power_budget))


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
