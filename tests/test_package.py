import ast
import importlib
from pathlib import Path

import pytest

import spoofsim
from spoofsim.attacks import (draw_gan_bursts, draw_random_bursts, draw_replay_bursts,
                              run_gan_attack, run_random_attack, run_replay_attack,
                              train_spoofer)
from spoofsim.authenticator import build_dataset, build_phasor_dataset, train_classifier
from spoofsim.gan import GanConfig, train_gan
from spoofsim.nn import init_network
from spoofsim.scenario import ScenarioConfig
from spoofsim.waveform import draw_legit_bursts

ROOT = Path(__file__).resolve().parents[1]

# The files outside the package that read names through it: the benchmark
# holds the package as `pkg`, the scripts as `spoofsim`.
READERS = ["perfbench/run.py", "scripts/same_outputs.py", "scripts/repro.py"]


def nodes(source):
    """The AST nodes of Python source, and of each string of code in it that
    imports spoofsim (a script's subprocess code)."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "import spoofsim" in node.value):
            yield from nodes(node.value)
        else:
            yield node


def package_reads(source):
    """Names Python source reads through the package: `from spoofsim import X`,
    and X in `spoofsim.X`, `pkg.X` or `self.pkg.X`."""
    names = set()
    for node in nodes(source):
        if isinstance(node, ast.ImportFrom) and node.module == "spoofsim" and not node.level:
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


def private_imports(source):
    """`_`-prefixed names that Python source imports from spoofsim or one of
    its modules."""
    return {f"{node.module}.{alias.name}" for node in nodes(source)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spoofsim"
            for alias in node.names if alias.name.startswith("_")}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_no_script_imports_a_private_name(script):
    # scripts use the package's public names only, so a private one may move
    assert private_imports((ROOT / "scripts" / script).read_text()) == set()


# The benchmark's span targets that name code deleted since it was written.
# They resolve to nothing, so their spans read 0; the benchmark PR that
# retargets the spans empties this list.
STALE_TARGETS = {
    "spoofsim.experiments:build_dataset", "spoofsim.scenario:ScenarioConfig.draw_link",
    *[f"spoofsim.authenticator:{name}" for name in (
        "sample_intended_burst", "sample_waveform_burst", "random_symbol_phases", "features")],
    *[f"spoofsim.attacks:{name}" for name in (
        "sample_replay_burst", "sample_waveform_burst", "random_symbol_phases",
        "generate_spoof_burst", "apply_channel", "features")],
    *[f"spoofsim.gan:{name}" for name in (
        "sample_intended_burst", "features", "_draw_link_batch", "complex_awgn",
        "condition_rows", "condition_rows_vjp")],
}


def test_the_benchmark_span_targets_resolve_but_the_known_stale_ones(monkeypatch):
    # perfbench/run.py puts its own directory on sys.path to import these
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")
    assert len(STALE_TARGETS) == 18
    unresolved = {target for target, _, _ in layers.TARGETS if tracing.resolve(target) is None}
    assert unresolved == STALE_TARGETS


# Every call of a function that draws with all its other arguments but the
# generator. Binding the call fails before its body runs, so the classifier
# and generator arguments are never read.
WITHOUT_RNG = {
    "build_dataset": lambda sc: build_dataset(sc, 10, 0.5),
    "build_phasor_dataset": lambda sc: build_phasor_dataset(sc, 10, 0.5),
    "run_random_attack": lambda sc: run_random_attack(None, sc, 10),
    "run_replay_attack": lambda sc: run_replay_attack(None, sc, 10),
    "run_gan_attack": lambda sc: run_gan_attack(None, None, sc, 10, power_budget=1.0),
    "draw_random_bursts": lambda sc: draw_random_bursts(sc, 10),
    "draw_replay_bursts": lambda sc: draw_replay_bursts(sc, 10),
    "draw_gan_bursts": lambda sc: draw_gan_bursts(None, sc, 10, power_budget=1.0),
    "draw_legit_bursts": lambda sc: draw_legit_bursts(sc, "ar", 10),
    "train_spoofer": lambda sc: train_spoofer(sc, GanConfig()),
    "train_gan": lambda sc: train_gan(sc, GanConfig()),
    "train_classifier": lambda sc: train_classifier(None, 1000),
    "init_network": lambda sc: init_network([3, 2]),
}


@pytest.mark.parametrize("name", WITHOUT_RNG)
def test_a_left_out_random_generator_is_refused_at_the_call(name):
    # A stream seeded from fresh entropy would leave the cell that drew from
    # it irreproducible, so no function seeds one: each caller names its own.
    with pytest.raises(TypeError, match="rng"):
        WITHOUT_RNG[name](ScenarioConfig())
