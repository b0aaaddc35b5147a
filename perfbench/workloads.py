"""The benchmark's workloads: one spoofsim table cell each.

Every workload is a single `spoofsim run` call on a generated key=value
config. Each leans on a different layer, so a change to one layer has a
workload that shows it and one that bypasses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Paper defaults used by the table projections.
PAPER_GRID_CELLS = {"table1": 16, "table3": 64}
PAPER_GAN_EPOCHS = 2000
PAPER_GAN_ATTEMPTS = 4  # one training plus up to three retries


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    table: str
    n_t: int
    n_r: int
    n_a: int
    trials: int
    # Extra config keys beyond the antenna grid, trials and seed.
    extra: dict = field(default_factory=dict)
    # How the traced run confirms the design: ("self", layers) means those
    # layers' summed self time is the largest share of the traced cell;
    # ("stage", layer) means that layer's top-level stage spans are the
    # largest stage of the cell.
    expect: tuple = ()

    @property
    def attack(self) -> str:
        return {"2": "replay", "3": "gan"}[self.table]

    @property
    def max_epochs(self):
        value = self.extra.get("gan.max_epochs")
        return None if value is None else int(value)

    def config_text(self, seed: int, out_dir: str) -> str:
        """The key=value config `spoofsim run --config` reads for this cell."""
        lines = [f"table = {self.table}", f"seeds = {seed}",
                 f"n_t = {self.n_t}", f"n_r = {self.n_r}", f"n_a = {self.n_a}",
                 f"trials = {self.trials}", f"out = {out_dir}"]
        lines += [f"{key} = {value}" for key, value in self.extra.items()]
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        "auth_wide",
        "table-2 cell at 4x4x1: defender training at the widest input dominates, so nn "
        "and frontend changes show and burst synthesis barely registers",
        table="2", n_t=4, n_r=4, n_a=1, trials=500,
        expect=("self", ("nn", "frontend"))),
    Workload(
        "gan_1x1",
        "table-3 cell at 1x1x1 with a fixed 70-epoch GAN and no retries: GAN epochs "
        "dominate, so training and stopping-rule changes show",
        table="3", n_t=1, n_r=1, n_a=1, trials=500,
        extra={"gan.max_epochs": 70, "gan.retries": 0},
        expect=("stage", "gan")),
)}
