import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import spoofsim
from spoofsim.cli import parse_config
from spoofsim.gan import GanConfig, train_gan

_SPEC = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def output_tree(root: Path, version: str) -> Path:
    """A sweep's outputs as `spoofsim run` lays them out, stamped `version`."""
    models = root / "models"
    models.mkdir(parents=True)
    (models / "t3_nt1_nr1_na1_seed11_classifier.bin").write_bytes(bytes(range(64)))
    (models / "t3_nt1_nr1_na1_seed11_trace.csv").write_text(
        "epoch,g_loss,d_loss,capped_bursts\n0,-0.5,1.25,3\n")
    (root / "table3.csv").write_text(f"table,seed,e_md,version\n3,11,0.125,{version}\n")
    (root / "table3_summary.json").write_text(json.dumps(
        {"table": "3", "version": version, "rows": [{"seed": 11, "version": version}]}))
    return root


class TestCompareTrees:
    def test_trees_that_differ_only_in_version_are_identical(self, tmp_path):
        parent = output_tree(tmp_path / "parent", "abc123")
        change = output_tree(tmp_path / "change", "def456-dirty")
        assert same_outputs.compare_trees(parent, change) is None

    def test_a_flipped_model_byte_is_the_first_difference(self, tmp_path):
        parent = output_tree(tmp_path / "parent", "abc123")
        change = output_tree(tmp_path / "change", "abc123")
        model = change / "models" / "t3_nt1_nr1_na1_seed11_classifier.bin"
        data = bytearray(model.read_bytes())
        data[40] ^= 1
        model.write_bytes(bytes(data))
        found = same_outputs.compare_trees(parent, change)
        assert found.startswith(str(model.relative_to(change))) and "offset 40" in found

    @pytest.mark.parametrize("name, edit", [
        ("table3.csv", lambda text: text.replace("0.125", "0.25")),
        ("table3_summary.json", lambda text: text.replace('"seed": 11', '"seed": 12')),
        ("models/t3_nt1_nr1_na1_seed11_trace.csv", lambda text: text.replace("-0.5", "-0.50")),
    ])
    def test_a_changed_value_is_found(self, tmp_path, name, edit):
        parent = output_tree(tmp_path / "parent", "abc123")
        change = output_tree(tmp_path / "change", "abc123")
        (change / name).write_text(edit((change / name).read_text()))
        assert same_outputs.compare_trees(parent, change).startswith(name)

    def test_a_missing_file_is_found(self, tmp_path):
        parent = output_tree(tmp_path / "parent", "abc123")
        change = output_tree(tmp_path / "change", "abc123")
        (change / "table3_summary.json").unlink()
        assert same_outputs.compare_trees(parent, change) == \
            "table3_summary.json: only in the parent"


REPO = Path(__file__).resolve().parents[1]
HASHES = {"probe labels": "a" * 64, "raw probe rows": "b" * 64,
          "conditioned probe rows": "c" * 64}


def gan_probe_run(name):
    """(generator, discriminator, trace) of the GAN_PROBES run `name`."""
    seed, (n_t, n_r, n_a), fields = same_outputs.GAN_PROBES[name]
    scenario = spoofsim.ScenarioConfig(n_t=n_t, n_r=n_r, n_a=n_a, seed=seed)
    return train_gan(scenario, GanConfig(**fields), np.random.default_rng(seed))


class TestProbeHashes:
    def test_hashes_are_those_of_the_benchmark_probe_set(self):
        # the checkout's run draws the probe set as the benchmark's setup
        # does, then trains each GAN_PROBES config
        workload = type("Geometry", (), {"n_t": 2, "n_r": 1, "n_a": 1})
        got = same_outputs.probe_hashes(REPO, workload, 11)
        scenario = spoofsim.ScenarioConfig(n_t=2, n_r=1, n_a=1, seed=11)
        probes = spoofsim.build_dataset(scenario, 1000, 0.5, np.random.default_rng(11))
        conditioned = spoofsim.condition_rows(probes.features, 1, scenario.samples_per_symbol)
        want = {name: hashlib.sha256(f"{a.dtype} {a.shape} ".encode() + a.tobytes()).hexdigest()
                for name, a in (("probe labels", probes.labels),
                                ("raw probe rows", probes.features),
                                ("conditioned probe rows", conditioned))}
        for name in same_outputs.GAN_PROBES:
            g_net, d_net, trace = gan_probe_run(name)
            curves = np.array([trace.g_loss, trace.d_loss, trace.capped_bursts])
            want[name] = hashlib.sha256(g_net.params.tobytes() + d_net.params.tobytes()
                                        + curves.tobytes() + bytes([trace.converged])).hexdigest()
        assert list(got) == list(want) and got == want

    def test_gan_runs_cover_uneven_batches_a_binding_budget_and_convergence(self):
        fields = same_outputs.GAN_PROBES["train_gan 2x2, uneven batches"][2]
        assert fields["synth_per_epoch"] % fields["batch_size"] != 0
        assert (fields["real_pool"] + fields["synth_per_epoch"]) % fields["batch_size"] != 0
        assert gan_probe_run("train_gan 2x2, uneven batches")[2].epochs_run == 120
        trace = gan_probe_run("train_gan binding power budget")[2]
        assert set(trace.capped_bursts) == {12}
        trace = gan_probe_run("train_gan converged")[2]
        assert trace.converged and trace.epochs_run > 4

    def test_first_mismatch_is_reported_in_order(self):
        assert same_outputs.first_hash_mismatch(HASHES, dict(HASHES)) is None
        change = dict(HASHES, **{"raw probe rows": "d" * 64, "conditioned probe rows": "e" * 64})
        assert same_outputs.first_hash_mismatch(HASHES, change) == \
            f"raw probe rows: sha256 {'b' * 16} in the parent, {'d' * 16} in the change"

    @pytest.mark.parametrize("change, code, said", [
        (HASHES, 0, "outputs and probe hashes identical"),
        (dict(HASHES, **{"conditioned probe rows": "d" * 64}), 1,
         "outputs differ; first at conditioned probe rows"),
        (None, 2, None),
    ])
    def test_main_exit_code_follows_the_probe_hashes(self, monkeypatch, capsys, change, code,
                                                     said):
        # identical cell outputs, so the probe hashes decide
        monkeypatch.setattr(same_outputs, "run_cell", lambda tree, text, config: True)
        monkeypatch.setattr(same_outputs, "compare_trees", lambda parent, change: None)
        sides = iter([HASHES, change])
        monkeypatch.setattr(same_outputs, "probe_hashes", lambda *args: next(sides))
        argv = ["--parent", str(REPO), "--change", str(REPO), "--workload", "gan_1x1",
                "--seed", "11"]
        assert same_outputs.main(argv) == code
        if said:
            assert said in capsys.readouterr().out


class TestMobilitySweep:
    def test_config_is_a_tiny_two_position_table5_sweep(self, tmp_path):
        cfg = tmp_path / "table5.cfg"
        cfg.write_text(same_outputs.MOBILITY_CONFIG.format(seed=29, out=tmp_path / "out"))
        spec = parse_config(cfg)
        assert (spec.table, spec.seeds, spec.out_dir) == ("5", (29,), str(tmp_path / "out"))
        assert len(spec.at_positions) == 2 and spec.base.at_pos in spec.at_positions
        assert spec.n_train <= 40 and spec.gan.max_epochs <= 3

    def test_two_runs_in_one_checkout_write_the_same_tree(self, tmp_path):
        for name in ("a", "b"):
            text = same_outputs.MOBILITY_CONFIG.format(seed=11, out=tmp_path / name)
            assert same_outputs.run_cell(REPO, text, tmp_path / f"{name}.cfg")
        assert (tmp_path / "a" / "table5.csv").is_file()
        assert same_outputs.compare_trees(tmp_path / "a", tmp_path / "b") is None

    def test_main_compares_the_table5_trees_after_the_cells(self, monkeypatch, capsys):
        configs = []

        def run_cell(tree, text, config):
            configs.append(config.name)
            return True

        def compare_trees(parent, change):
            # the cell trees agree, the table-5 trees differ
            return f"table5.csv: {parent.name}" if parent.name.endswith("table5") else None

        monkeypatch.setattr(same_outputs, "run_cell", run_cell)
        monkeypatch.setattr(same_outputs, "compare_trees", compare_trees)
        monkeypatch.setattr(same_outputs, "probe_hashes", lambda *args: HASHES)
        argv = ["--parent", str(REPO), "--change", str(REPO), "--workload", "gan_1x1",
                "--seed", "11"]
        assert same_outputs.main(argv) == 1
        assert configs == ["parent.cfg", "parent-table5.cfg", "change.cfg",
                           "change-table5.cfg"]
        assert "first at table5.csv: parent-table5" in capsys.readouterr().out
