import csv
import json
import multiprocessing
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spoofsim.authenticator import Authenticator
from spoofsim.cli import benchmark_latency, main, parse_config
from spoofsim.attacks import run_gan_attack
from spoofsim.experiments import (CSV_COLUMNS, TABLE_ATTACKS, TABLE_GRID_DEFAULTS, TABLES,
                                  ConfigError, _cell_rngs, build_version, cells,
                                  run_experiment, run_jobs, sweep_processes, train_job)
from spoofsim.nn import init_network, load_model, save_model

from helpers import job_failing_at


class TestParseConfig:
    def test_empty_config_gives_reference_defaults(self):
        spec = parse_config()
        assert spec.base.t_pos == (0.0, 0.0)
        assert spec.base.r_pos == (10.0, 0.0)
        assert spec.base.at_pos == (0.0, 10.0)
        assert spec.base.ar_pos == (10.0, 0.1)
        assert spec.base.power == 1000.0
        assert spec.n_trials == 500
        assert spec.table == "custom"

    def test_table3_sweeps_full_grid(self):
        spec = parse_config(overrides={"table": "3"})
        assert spec.n_t_grid == (1, 2, 3, 4)
        assert spec.n_r_grid == (1, 2, 3, 4)
        assert spec.n_a_grid == (1, 2, 3, 4)
        assert spec.attack == "gan"

    def test_every_canned_table_has_grid_defaults(self):
        assert list(TABLE_GRID_DEFAULTS) == list(TABLE_ATTACKS) == list(TABLES[:-1])
        assert TABLES[-1] == "custom"

    def test_table4_positions_default(self):
        spec = parse_config(overrides={"table": "4"})
        assert spec.at_positions == ((0.0, 5.0), (0.0, 10.0), (0.0, 15.0),
                                     (0.0, 20.0))

    def test_negative_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            parse_config(overrides={"attack": "random", "trials": "-5"})

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="gan.widht"):
            parse_config(overrides={"gan.widht": "3"})

    def test_file_and_flag_merge(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("""
# comment line
table = 2
seeds = 3,4
trials = 7
scenario.power = 500
""")
        spec = parse_config(cfg, overrides={"trials": "9"})
        assert spec.table == "2"
        assert spec.seeds == (3, 4)
        assert spec.n_trials == 9  # flag wins
        assert spec.base.power == 500.0

    def test_key_set_twice_in_a_file_rejected(self, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("seeds = 1\ntrials = 3\n\nseeds = 2  # the last would have won\n")
        with pytest.raises(ConfigError, match=r"twice.cfg:4: seeds is already set on line 1"):
            parse_config(cfg, overrides={"attack": "random"})
        # a flag still overrides the file's one value
        cfg.write_text("seeds = 1\ntrials = 3\n")
        assert parse_config(cfg, overrides={"attack": "random", "seeds": "2"}).seeds == (2,)

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # a `#` opens a comment only at a line's start or after whitespace
        out = tmp_path / "run#2"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"out = {out}  # where the sweep goes\nscenario.samples_per_symbol = 5\n"
                       "dataset.n_train = 20\ndataset.n_test = 20\n"
                       "classifier.train_steps = 5\n")
        spec = parse_config(cfg)
        assert spec.out_dir == str(out)
        result = run_experiment(spec)
        assert result.csv_path == out / "custom.csv" and result.csv_path.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "run#2"]

    @pytest.mark.parametrize("value", ["", "   "])
    def test_empty_out_in_a_file_names_key(self, tmp_path, value):
        # an empty directory would put the outputs in the working directory
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"out ={value}\n")
        with pytest.raises(ConfigError, match="bad value for out: empty"):
            parse_config(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_position_parsing(self):
        spec = parse_config(overrides={"at_positions": "0,5; 0,10",
                                       "table": "4"})
        assert spec.at_positions == ((0.0, 5.0), (0.0, 10.0))

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="scenario.power"):
            parse_config(overrides={"scenario.power": "abc"})

    @pytest.mark.parametrize("key,value", [
        ("scenario.power", "nan"), ("scenario.power", "inf"), ("scenario.power", "0"),
        ("gan.power_budget", "-1"), ("gan.power_budget", "0"), ("gan.power_budget", "nan"),
        ("gan.power_budget", "inf"), ("scenario.t_pos", "inf,0"),
        ("scenario.samples_per_symbol", "0"),
        ("classifier.train_steps", "0"), ("gan.conv_window", "1"),
        ("seeds", "0,0"), ("seeds", "3,1,3"), ("n_t", "1,1"), ("n_a", "2,1,2"),
        # nodes that share a link may not coincide: T-R, T-A_R, T-A_T, A_T-R, A_T-A_R
        ("scenario.r_pos", "0,0"), ("scenario.ar_pos", "0,0"), ("scenario.t_pos", "0,10"),
        ("scenario.at_pos", "10,0"), ("scenario.at_pos", "10,0.1"),
    ])
    def test_out_of_range_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(overrides={key: value})

    @pytest.mark.parametrize("bad, good", [(-1, 0), (2**63, 2**63 - 1)])
    def test_seeds_beyond_63_bits_are_refused_by_value(self, bad, good):
        # the cell streams key on a seed's low 63 bits: 2**63 would draw seed
        # 0's streams, and -1 those of 2**63 - 1
        with pytest.raises(ConfigError, match=rf"seeds must lie in .*, got {bad}$"):
            parse_config(overrides={"seeds": f"{good},{bad}"})
        assert parse_config(overrides={"seeds": str(good)}).seeds == (good,)

    @pytest.mark.parametrize("table", ["4", "5"])
    @pytest.mark.parametrize("positions", ["0,5;0,5", "0,5;0,0", "0,5;10,0", "0,5;10,0.1",
                                           "nan,0;0,5", "0,5;0,inf"])
    def test_repeated_or_linked_node_mobility_position_names_key(self, table, positions):
        # an entry stands in for A_T: repeated, on T, R or A_R, or not finite,
        # it is refused
        with pytest.raises(ConfigError, match="at_positions"):
            parse_config(overrides={"table": table, "at_positions": positions})

    def test_receivers_may_share_a_position(self):
        # R and A_R share no link
        assert parse_config(overrides={"scenario.ar_pos": "10,0"}).base.ar_pos == (10.0, 0.0)

    @pytest.mark.parametrize("table,attack", [("1", "replay"), ("2", "gan"), ("3", "none"),
                                              ("4", "random"), ("5", "replay")])
    def test_table_rejects_another_attack(self, table, attack):
        with pytest.raises(ConfigError, match="attack"):
            parse_config(overrides={"table": table, "attack": attack})

    @pytest.mark.parametrize("table", ["4", "5"])
    @pytest.mark.parametrize("key", ["n_t", "n_r", "n_a"])
    def test_mobility_tables_reject_several_geometries(self, table, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(overrides={"table": table, key: "1,2"})

    @pytest.mark.parametrize("table", ["1", "2", "3", "custom"])
    def test_only_mobility_tables_take_positions(self, table):
        with pytest.raises(ConfigError, match="at_positions"):
            parse_config(overrides={"table": table, "at_positions": "0,5;0,7"})

    @pytest.mark.parametrize("sweep", [{"table": "1"}, {"table": "2"},
                                       {"attack": "none"}, {"attack": "random"}])
    @pytest.mark.parametrize("key", ["gan.max_epochs", "gan.retries"])
    def test_gan_keys_refused_where_no_cell_reads_them(self, sweep, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(overrides={**sweep, key: "2"})

    @pytest.mark.parametrize("sweep", [{"table": "3"}, {"attack": "gan"}])
    def test_gan_sweeps_read_gan_keys(self, sweep):
        spec = parse_config(overrides={**sweep, "gan.max_epochs": "2"})
        assert spec.gan.max_epochs == 2

    @pytest.mark.parametrize("sweep", [{"table": "3"}, {"attack": "gan"}])
    def test_zero_retries_key_parses_and_sets_nothing(self, sweep):
        # kept so that configs written for zero retries still parse
        assert parse_config(overrides={**sweep, "gan.retries": "0"}) == parse_config(
            overrides=sweep)

    @pytest.mark.parametrize("retries", ["1", "3"])
    def test_other_retries_values_refused_by_name(self, retries):
        with pytest.raises(ConfigError, match=r"gan\.retries.*retries were removed"):
            parse_config(overrides={"attack": "gan", "gan.retries": retries})

    @pytest.mark.parametrize("sweep", [{"table": "1"}, {}, {"attack": "none"}])
    def test_trials_refused_where_no_attack_reads_them(self, sweep, tmp_path):
        with pytest.raises(ConfigError, match="trials"):
            parse_config(overrides={**sweep, "trials": "5"})
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("trials = 5\n")
        with pytest.raises(ConfigError, match="trials"):
            parse_config(cfg, overrides=sweep)

    @pytest.mark.parametrize("sweep", [{"table": "2"}, {"attack": "random"},
                                       {"attack": "gan"}])
    def test_attack_sweeps_read_trials(self, sweep):
        assert parse_config(overrides={**sweep, "trials": "5"}).n_trials == 5


FAST_GAN = {
    "gan.noise_dim": "6", "gan.hidden_width": "8", "gan.hidden_depth": "2",
    "gan.real_pool": "8", "gan.synth_per_epoch": "8", "gan.batch_size": "4",
    "gan.max_epochs": "2", "gan.conv_window": "2",
}


def fast_spec(tmp_path, **overrides):
    """A tiny sweep; `trials` is set only where an attack reads it, and the
    gan.* keys only where a GAN sweep does."""
    base = {
        "table": "custom", "seeds": "0",
        "out": str(tmp_path / "out"),
        "scenario.samples_per_symbol": "5",
        "dataset.n_train": "40", "dataset.n_test": "40",
        "classifier.train_steps": "30",
    }
    attack = TABLE_ATTACKS.get(overrides.get("table"), overrides.get("attack", "none"))
    if attack != "none":
        base["trials"] = "10"
    if attack == "gan":
        base.update(FAST_GAN)
    base.update(overrides)
    return parse_config(overrides=base)


class TestRunExperiment:
    def test_single_cell_custom_produces_one_row_plus_mean(self, tmp_path):
        spec = fast_spec(tmp_path)
        result = run_experiment(spec)
        assert not result.failures
        assert len(result.rows) == 2  # one seed row + one mean row
        assert result.rows[1]["seed"] == "mean"
        assert result.csv_path.exists() and result.json_path.exists()

    def test_csv_schema_is_stable(self, tmp_path):
        spec = fast_spec(tmp_path)
        result = run_experiment(spec)
        with open(result.csv_path) as fh:
            header = next(csv.reader(fh))
        assert header == CSV_COLUMNS

    def test_rows_carry_seed_scenario_and_version(self, tmp_path):
        spec = fast_spec(tmp_path)
        result = run_experiment(spec)
        row = result.rows[0]
        assert row["seed"] == 0
        assert row["n_t"] == 1 and row["p"] == 1000.0
        assert row["version"] == build_version()

    def test_rerun_reproduces_identical_csv(self, tmp_path):
        spec1 = fast_spec(tmp_path / "a")
        spec2 = fast_spec(tmp_path / "b")
        r1 = run_experiment(spec1)
        r2 = run_experiment(spec2)
        assert r1.csv_path.read_text() == r2.csv_path.read_text()

    def test_replay_attack_table(self, tmp_path):
        spec = fast_spec(tmp_path, **{"attack": "replay"})
        result = run_experiment(spec)
        assert result.rows[0]["attack"] == "replay"
        assert result.rows[0]["success_prob"] != ""

    def test_gan_table_runs_and_saves_models(self, tmp_path):
        # each geometry's generator and classifier fit its own antennas: a
        # classifier reads, and a generator emits, 8 values per antenna
        spec = fast_spec(tmp_path, **{"attack": "gan", "n_r": "1,2", "n_a": "1,2"})
        result = run_experiment(spec)
        assert not result.failures
        assert result.rows[0]["attack"] == "gan"
        assert result.rows[0]["gan_epochs"] == 2
        models = tmp_path / "out" / "models"
        for n_r, n_a in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            prefix = f"tcustom_nt1_nr{n_r}_na{n_a}_seed0"
            assert load_model(models / f"{prefix}_generator.bin").layer_sizes[-1] == 8 * n_a
            assert load_model(models / f"{prefix}_classifier.bin").layer_sizes[0] == 8 * n_r

    def test_mobility_table_shares_generator_across_positions(self, tmp_path):
        spec = fast_spec(tmp_path, **{"table": "5",
                                      "at_positions": "0,10;0,20"})
        result = run_experiment(spec)
        assert not result.failures
        attack_rows = [r for r in result.rows if r["seed"] != "mean"]
        assert len(attack_rows) == 2
        assert {r["attack_at_y"] for r in attack_rows} == {10.0, 20.0}
        assert all(r["at_y"] == 10.0 for r in attack_rows)

    def test_mobility_table_cells_share_one_scenario(self, tmp_path):
        # one topology per training tag: only where A_T attacks from differs
        spec = fast_spec(tmp_path, **{"table": "5", "at_positions": "0,10;0,20;3,15"})
        listed = cells(spec)
        assert {cell.trained_at for cell in listed} == {"trained_at_base"}
        assert all(cell.scenario == spec.base for cell in listed)
        assert [cell.attack_at for cell in listed] == [(0.0, 10.0), (0.0, 20.0), (3.0, 15.0)]

    def test_mobility_row_is_the_gan_attack_from_the_moved_scenario(self, tmp_path):
        # A_T moves from (0, 10) to within 1 of R, so its bursts arrive far
        # stronger than in training and the attack's outcome moves with it
        spec = fast_spec(tmp_path, **{"table": "5", "at_positions": "0,10;9,0",
                                      "trials": "40"})
        row = run_experiment(spec).rows[2]
        moved = cells(spec)[1]
        assert (row["attack_at_x"], row["attack_at_y"]) == moved.attack_at == (9.0, 0.0)
        clf, _ = train_job(spec, "classifier", moved, 0)
        generator, _ = train_job(spec, "gan", moved, 0)
        scenario = replace(moved.scenario, seed=_cell_rngs(0, "5", "trained_at_base")[0])

        def attack_from(at_pos):
            return run_gan_attack(clf, generator, replace(scenario, at_pos=at_pos), 40,
                                  _cell_rngs(0, "5", moved.tag)[3], spec.gan.power_budget)

        assert row["n_trials"] == 40
        assert row["success_prob"] == attack_from((9.0, 0.0)).success_prob
        assert row["success_prob"] != attack_from(scenario.at_pos).success_prob

    @pytest.mark.parametrize("table", ["custom", "5"])
    def test_gan_attack_applies_the_configured_power_budget(self, tmp_path, monkeypatch,
                                                            table):
        # the attack caps the generator's bursts at gan.power_budget, as
        # training did, not at the scenario's transmit power
        import spoofsim.attacks

        budgets = []

        def spy(g_net, z, n_adv, power_budget):
            budgets.append(power_budget)
            return generator_phasors(g_net, z, n_adv, power_budget)

        generator_phasors = spoofsim.attacks.generator_phasors
        monkeypatch.setattr("spoofsim.attacks.generator_phasors", spy)
        positions = {"at_positions": "0,10;0,20"} if table == "5" else {}
        spec = fast_spec(tmp_path, **{"attack": "gan", "table": table, **positions,
                                      "gan.power_budget": "0.25"})
        result = run_experiment(spec)
        assert not result.failures
        assert budgets == [0.25] * (2 if table == "5" else 1)

    def test_classifier_settings_never_reach_the_gan(self, tmp_path):
        # the GAN trains on its own stream and settings, so a classifier
        # setting moves the classifier alone
        def models(name, **overrides):
            spec = fast_spec(tmp_path / name, **{"table": "3", "n_t": "1", "n_r": "1",
                                                 "n_a": "1", **overrides})
            assert not run_experiment(spec).failures
            return sweep_outputs(Path(spec.out_dir) / "models")

        default = models("default")
        longer = models("longer", **{"classifier.train_steps": "60"})
        prefix = "t3_nt1_nr1_na1_seed0"
        for what in ("generator.bin", "trace.csv"):
            assert longer[f"{prefix}_{what}"] == default[f"{prefix}_{what}"]
        assert longer[f"{prefix}_classifier.bin"] != default[f"{prefix}_classifier.bin"]

    def test_mean_row_averages_the_cell_seeds(self, tmp_path):
        spec = fast_spec(tmp_path, **{"seeds": "0,1", "n_r": "1,2", "attack": "replay"})
        result = run_experiment(spec)
        assert not result.failures
        assert [r["seed"] for r in result.rows] == [0, 1, "mean"] * 2
        for seed0, seed1, mean in (result.rows[:3], result.rows[3:]):
            for col in ("e_md", "e_fa", "success_prob"):
                assert mean[col] == pytest.approx((seed0[col] + seed1[col]) / 2)
            assert mean["n_r"] == seed0["n_r"] == seed1["n_r"]

    def test_a_sub_grid_gives_the_rows_of_the_full_grid(self, tmp_path):
        # cell streams are keyed by (seed, table, tag), not by the cell's place
        alone = run_experiment(fast_spec(tmp_path / "a", **{"n_r": "2", "attack": "replay"}))
        full = run_experiment(fast_spec(tmp_path / "b", **{"n_r": "1,2", "attack": "replay"}))
        assert alone.rows[0]["n_r"] == 2
        assert alone.rows == [r for r in full.rows if r["n_r"] == 2]

    def test_position_table_moves_the_adversary_per_cell(self, tmp_path):
        spec = fast_spec(tmp_path, **{"table": "4", "at_positions": "0,5;3,15"})
        result = run_experiment(spec)
        assert not result.failures
        rows = [r for r in result.rows if r["seed"] != "mean"]
        assert [(r["at_x"], r["at_y"]) for r in rows] == [(0.0, 5.0), (3.0, 15.0)]
        assert all((r["attack_at_x"], r["attack_at_y"]) == (r["at_x"], r["at_y"])
                   for r in rows)
        models = sorted(p.name for p in (tmp_path / "out" / "models").glob("*generator.bin"))
        assert models == ["t4_at0.0_5.0_seed0_generator.bin",
                          "t4_at3.0_15.0_seed0_generator.bin"]

    @pytest.mark.parametrize("table", ["4", "5"])
    def test_mobility_tables_run_the_configured_geometry(self, tmp_path, table):
        spec = fast_spec(tmp_path, **{"table": table, "at_positions": "0,10;0,20",
                                      "n_r": "2", "n_a": "2"})
        result = run_experiment(spec)
        assert not result.failures
        assert len(result.rows) == 4
        assert all((r["n_t"], r["n_r"], r["n_a"]) == (1, 2, 2) for r in result.rows)

    def test_mobility_table_trains_once_per_seed(self, tmp_path, monkeypatch):
        import spoofsim.experiments

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return train_spoofer(*args, **kwargs)

        train_spoofer = spoofsim.experiments.train_spoofer
        monkeypatch.setattr("spoofsim.experiments.train_spoofer", counting)
        monkeypatch.setattr("spoofsim.experiments.sweep_processes", lambda: 1)  # count inline
        spec = fast_spec(tmp_path, **{"table": "5", "seeds": "0,1",
                                      "at_positions": "0,10;0,15;0,20"})
        result = run_experiment(spec)
        assert not result.failures
        assert len(calls) == 2
        assert len([r for r in result.rows if r["seed"] != "mean"]) == 6

    def test_mobility_table_writes_its_gan_trace(self, tmp_path):
        spec = fast_spec(tmp_path, **{"table": "5", "at_positions": "0,10;0,20"})
        result = run_experiment(spec)
        trace = tmp_path / "out" / "models" / "t5_trained_at_base_seed0_trace.csv"
        with open(trace) as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["epoch", "g_loss", "d_loss", "capped_bursts"]
        assert len(lines) - 1 == result.rows[0]["gan_epochs"] == 2

    def test_mobility_table_training_failure_drops_only_that_seed(self, tmp_path,
                                                                  monkeypatch):
        import spoofsim.experiments

        calls = []

        def first_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("gan diverged")
            return train_spoofer(*args, **kwargs)

        train_spoofer = spoofsim.experiments.train_spoofer
        monkeypatch.setattr("spoofsim.experiments.train_spoofer", first_fails)
        monkeypatch.setattr("spoofsim.experiments.sweep_processes", lambda: 1)  # fail inline
        spec = fast_spec(tmp_path, **{"table": "5", "seeds": "0,1",
                                      "at_positions": "0,10;0,20"})
        result = run_experiment(spec)
        assert result.failures == [{"cell": "trained_at_base", "seed": 0,
                                    "error": "gan diverged"}]
        assert len(calls) == 2
        assert [r["seed"] for r in result.rows] == [1, "mean"] * 2
        assert [r["attack_at_y"] for r in result.rows] == [10.0, 10.0, 20.0, 20.0]

    def test_json_summary_contents(self, tmp_path):
        spec = fast_spec(tmp_path)
        result = run_experiment(spec)
        data = json.loads(result.json_path.read_text())
        assert data["seeds"] == [0]
        assert data["failures"] == []
        assert len(data["rows"]) == len(result.rows)


class TestCellErrors:
    @pytest.mark.parametrize("error", [ValueError, FloatingPointError])
    def test_bad_value_is_recorded_as_cell_failure(self, tmp_path, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("bad cell")
        monkeypatch.setattr("spoofsim.experiments.build_phasor_dataset", broken)
        result = run_experiment(fast_spec(tmp_path))
        assert result.failures == [{"cell": "nt1_nr1_na1", "seed": 0, "error": "bad cell"}]

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("engine bug")
        monkeypatch.setattr("spoofsim.experiments.build_phasor_dataset", broken)
        with pytest.raises(TypeError, match="engine bug"):
            run_experiment(fast_spec(tmp_path))

    def test_version_read_once_per_sweep(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("spoofsim.experiments.build_version",
                            lambda: calls.append(1) or "v-test")
        result = run_experiment(fast_spec(tmp_path, **{"seeds": "0,1", "n_r": "1,2"}))
        assert len(calls) == 1
        assert {row["version"] for row in result.rows} == {"v-test"}
        assert json.loads(result.json_path.read_text())["version"] == "v-test"


def sweep_outputs(out_dir):
    """Every file a sweep wrote under out_dir, by relative path, as bytes."""
    return {str(f.relative_to(out_dir)): f.read_bytes()
            for f in sorted(out_dir.rglob("*")) if f.is_file()}


def run_with_processes(monkeypatch, processes, spec):
    monkeypatch.setattr("spoofsim.experiments.sweep_processes", lambda: processes)
    return run_experiment(spec), sweep_outputs(Path(spec.out_dir))


class TestJobs:
    @pytest.mark.parametrize("cores, environ, processes", [
        (2, {}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
        (2, {"OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
        (2, {"OPENBLAS_NUM_THREADS": "4"}, 1),
        (8, {"OPENBLAS_NUM_THREADS": "3"}, 2),
        (16, {"OMP_NUM_THREADS": "4"}, 4),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    ])
    def test_process_count_is_cores_over_blas_threads(self, cores, environ, processes):
        assert sweep_processes(cores, environ) == processes

    def test_pooled_results_come_back_in_job_order(self, monkeypatch):
        monkeypatch.setattr("spoofsim.experiments.sweep_processes", lambda: 2)
        assert run_jobs(job_failing_at, [(k, None) for k in range(5)]) == list(range(5))

    @pytest.mark.parametrize("bad", [0, 2])  # job 0 runs in this process, job 2 in a worker
    def test_programming_error_propagates_and_no_worker_outlives_it(self, monkeypatch, bad):
        monkeypatch.setattr("spoofsim.experiments.sweep_processes", lambda: 2)
        with pytest.raises(TypeError, match=f"job {bad}"):
            run_jobs(job_failing_at, [(k, bad) for k in range(6)])
        assert multiprocessing.active_children() == []

    def test_pooled_sweep_is_byte_identical_to_inline(self, tmp_path, monkeypatch):
        def spec(name):
            return fast_spec(tmp_path / name, **{"table": "5", "seeds": "0,1,2",
                                                 "at_positions": "0,10;0,20"})
        inline, inline_files = run_with_processes(monkeypatch, 1, spec("inline"))
        pooled, pooled_files = run_with_processes(monkeypatch, 2, spec("pooled"))
        assert not pooled.failures and pooled.rows == inline.rows
        assert len(pooled_files) == 2 + 3 * 3  # CSV, JSON; per seed 2 models and a trace
        assert pooled_files == inline_files

    def test_worker_training_failure_is_recorded_as_inline(self, tmp_path, monkeypatch):
        # A_T trained at (10, 0.1) stands on A_R, which fails only the GAN job;
        # listed second, that job runs in a worker. The spec refuses that
        # position, so it is set after the spec is built.
        def spec(name):
            built = fast_spec(tmp_path / name, **{"table": "4", "seeds": "0,1",
                                                  "at_positions": "0,20"})
            built.at_positions = ((0.0, 20.0), (10.0, 0.1))
            return built
        inline, inline_files = run_with_processes(monkeypatch, 1, spec("inline"))
        pooled, pooled_files = run_with_processes(monkeypatch, 2, spec("pooled"))
        assert [(f["cell"], f["seed"]) for f in pooled.failures] == [("at10.0_0.1", 0),
                                                                     ("at10.0_0.1", 1)]
        assert all("coincident positions" in f["error"] for f in pooled.failures)
        assert pooled.failures == inline.failures and pooled.rows == inline.rows
        assert "models/t4_at10.0_0.1_seed0_classifier.bin" in pooled_files
        assert "models/t4_at10.0_0.1_seed0_generator.bin" not in pooled_files
        assert pooled_files == inline_files


class TestBenchmarkLatency:
    def test_reports_microseconds(self):
        net = init_network([80, 16, 2], rng=np.random.default_rng(0))
        latency = benchmark_latency(Authenticator(net, 10, 5), 200)
        assert latency.n_timed == 180  # the first tenth warms up
        assert 0.0 < latency.p50_us <= latency.p99_us < 5000.0
        assert 0.0 < latency.mean_us < 5000.0

    def test_too_few_repeats_rejected(self):
        net = init_network([8, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            benchmark_latency(Authenticator(net, 1, 5), 99)


class TestCli:
    def test_run_exit_zero_and_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("""
table = custom
seeds = 0
attack = random
trials = 8
scenario.samples_per_symbol = 5
dataset.n_train = 30
dataset.n_test = 30
classifier.train_steps = 20
""")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")])
        assert code == 0
        assert (tmp_path / "res" / "custom.csv").exists()

    def test_config_error_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("not_a_key = 1\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "not_a_key" in capsys.readouterr().err

    def test_bench_subcommand(self, tmp_path, capsys):
        net = init_network([40, 8, 2], rng=np.random.default_rng(1))
        path = tmp_path / "model.bin"
        save_model(net, path)
        assert main(["bench", "--model", str(path), "--repeats", "150"]) == 0
        out = capsys.readouterr().out
        assert "us per sample" in out
        assert re.search(r"mean [\d.]+ us, p50 [\d.]+ us, p99 [\d.]+ us \(135 timed", out)

    def test_bench_rejects_models_it_cannot_run(self, tmp_path, capsys):
        # a classifier reads 8 values (4 symbols x I/Q) per antenna
        path = tmp_path / "model.bin"
        save_model(init_network([12, 8, 2], rng=np.random.default_rng(1)), path)
        assert main(["bench", "--model", str(path), "--repeats", "150"]) == 1
        assert "input width 12" in capsys.readouterr().err
        # a retired version-1 file (slot-replicated front end) is refused, not run
        path.write_bytes(b"DNETV001" + path.read_bytes()[8:])
        assert main(["bench", "--model", str(path)]) == 1
        assert "not a serialized dense network" in capsys.readouterr().err
        # so is a file whose activation byte no activation has: one error line
        save_model(init_network([40, 8, 2], rng=np.random.default_rng(1)), path)
        buf = path.read_bytes()  # the first activation byte follows three layer sizes
        path.write_bytes(buf[:24] + b"\x07" + buf[25:])
        assert main(["bench", "--model", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "activation" in err[0]

    @pytest.mark.parametrize("repeats", ["50", "99", "0", "-3"])
    def test_bench_too_few_repeats_is_a_configuration_error(self, tmp_path, capsys, repeats):
        path = tmp_path / "model.bin"
        save_model(init_network([40, 8, 2], rng=np.random.default_rng(1)), path)
        assert main(["bench", "--model", str(path), "--repeats", repeats]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "--repeats" in err

    def test_missing_model_exit_one(self, tmp_path):
        assert main(["bench", "--model", str(tmp_path / "nope.bin")]) == 1

    @pytest.mark.parametrize("argv, error", [
        (["bench", "--model", "{dir}"], "Is a directory"),
        (["run", "--config", "{dir}"], "Is a directory"),
        (["run", "--out", "{file}/res"], "Not a directory"),
    ], ids=["bench_model_directory", "run_config_directory", "run_out_under_a_file"])
    def test_path_of_the_wrong_kind_exit_one(self, tmp_path, capsys, argv, error):
        (tmp_path / "file").write_text("")
        paths = {"dir": tmp_path, "file": tmp_path / "file"}
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and error in err[0]

    @pytest.mark.parametrize("out", ["", "  "])
    def test_empty_out_flag_exit_one_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                        out):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "configuration error: bad value for out: empty" in err
        assert list(tmp_path.iterdir()) == []

    def test_train_gan_subcommand(self, capsys):
        # gone: `run` with attack = gan is the one command that trains a GAN
        with pytest.raises(SystemExit) as exc:
            main(["train-gan", "--out", "unused"])
        assert exc.value.code == 2
        assert "invalid choice: 'train-gan'" in capsys.readouterr().err
