import ast
import importlib
from pathlib import Path

import pytest

import spoofsim
from spoofsim.attacks import run_gan_attack, run_random_attack, run_replay_attack, train_spoofer
from spoofsim.authenticator import build_dataset, build_phasor_dataset
from spoofsim.gan import GanConfig, train_gan
from spoofsim.nn import init_network
from spoofsim.scenario import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]

# The files outside the package that read names through it: the benchmark
# holds the package as `pkg`, the scripts as `spoofsim`.
READERS = ["perfbench/run.py", "scripts/same_outputs.py", "scripts/repro.py"]


def package_reads(source):
    """Names Python source reads through the package: `from spoofsim import X`,
    and X in `spoofsim.X`, `pkg.X` or `self.pkg.X`, also in a string of code
    that imports spoofsim (a script's subprocess code)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "import spoofsim" in node.value):
            names |= package_reads(node.value)
        elif isinstance(node, ast.ImportFrom) and node.module == "spoofsim" and not node.level:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            holder = node.value
            if ((isinstance(holder, ast.Name) and holder.id in ("spoofsim", "pkg"))
                    or (isinstance(holder, ast.Attribute) and holder.attr == "pkg")):
                names.add(node.attr)
    return names


def test_every_name_the_benchmark_and_scripts_read_through_the_package_resolves():
    reads = {reader: package_reads((ROOT / reader).read_text()) for reader in READERS}
    assert reads["perfbench/run.py"] >= {"ScenarioConfig", "build_dataset", "cli", "load_model",
                                         "Authenticator", "predict", "classify"}
    assert reads["scripts/same_outputs.py"] >= {"ScenarioConfig", "build_dataset",
                                                "condition_rows"}
    assert reads["scripts/repro.py"] >= {"ExperimentSpec", "GanConfig"}
    importlib.import_module("spoofsim.cli")  # as the benchmark's setup imports it
    missing = sorted(f"{reader}: spoofsim.{name}" for reader, names in reads.items()
                     for name in names if not hasattr(spoofsim, name))
    assert missing == []


# Every call of a function that draws with all its other arguments but the
# generator. Binding the call fails before its body runs, so the classifier
# and generator arguments are never read.
WITHOUT_RNG = {
    "build_dataset": lambda sc: build_dataset(sc, 10, 0.5),
    "build_phasor_dataset": lambda sc: build_phasor_dataset(sc, 10, 0.5),
    "run_random_attack": lambda sc: run_random_attack(None, sc, 10),
    "run_replay_attack": lambda sc: run_replay_attack(None, sc, 10),
    "run_gan_attack": lambda sc: run_gan_attack(None, None, sc, 10, power_budget=1.0),
    "train_spoofer": lambda sc: train_spoofer(sc, GanConfig(), retries=0),
    "train_gan": lambda sc: train_gan(sc, GanConfig()),
    "init_network": lambda sc: init_network([3, 2]),
}


@pytest.mark.parametrize("name", WITHOUT_RNG)
def test_a_left_out_random_generator_is_refused_at_the_call(name):
    # A stream seeded from fresh entropy would leave the cell that drew from
    # it irreproducible, so no function seeds one: each caller names its own.
    with pytest.raises(TypeError, match="rng"):
        WITHOUT_RNG[name](ScenarioConfig())
