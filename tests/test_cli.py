"""Tests for the command-line interface: dispatch, manifests, replay."""

import csv
import json
import math
from pathlib import Path

import pytest

from dpswgrad.cli import main
from dpswgrad.data import load_dataset


def _files_equal(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


def _run(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "gen"
    assert _run("generate", "--n", "300", "--seed", "5",
                "--out", str(out)) == 0
    return out


class TestGenerate:
    def test_outputs_and_manifest(self, dataset_dir):
        assert (dataset_dir / "data.csv").exists()
        ds = load_dataset(dataset_dir / "data.csv", dataset_dir / "data.json")
        assert ds.n == 300
        doc = json.loads((dataset_dir / "manifest.json").read_text())
        assert doc["command"] == "generate"
        assert doc["config"]["n"] == 300
        assert sorted(doc["outputs"]) == ["data.csv", "data.json"]
        assert doc["accountant_formula"]

    def test_repeat_runs_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert _run("generate", "--n", "120", "--seed", "9",
                        "--out", str(tmp_path / sub)) == 0
        for name in ("data.csv", "data.json", "manifest.json"):
            assert _files_equal(tmp_path / "a" / name, tmp_path / "b" / name)

    def test_invalid_config_rejected(self, tmp_path):
        assert _run("generate", "--n", "0", "--out", str(tmp_path / "x")) == 1


class TestTrain:
    def test_same_seed_identical_outputs(self, dataset_dir, tmp_path):
        args = ["train", "--task", "classification_sp",
                "--data", str(dataset_dir / "data.csv"),
                "--steps", "6", "--alpha", "0.75", "--epsilon", "1",
                "--seed", "4"]
        for sub in ("t1", "t2"):
            assert _run(*args, "--out", str(tmp_path / sub)) == 0
        for name in ("train_record.json", "metrics.csv", "model.json",
                     "outputs_by_group.csv", "manifest.json"):
            assert _files_equal(tmp_path / "t1" / name,
                                tmp_path / "t2" / name)

    def test_metrics_csv_schema(self, dataset_dir, tmp_path):
        out = tmp_path / "t"
        assert _run("train", "--task", "classification_sp",
                    "--data", str(dataset_dir / "data.csv"),
                    "--steps", "4", "--alpha", "0.5", "--epsilon", "inf",
                    "--out", str(out)) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "erm_loss", "w_loss", "total_loss",
                           "epsilon_spent"]
        assert len(rows) == 5
        assert rows[1][0] == "1" and rows[-1][0] == "4"
        assert float(rows[1][4]) == math.inf

    def test_seed_sweep_subdirectories(self, dataset_dir, tmp_path):
        out = tmp_path / "sweep"
        assert _run("train", "--task", "classification_sp",
                    "--data", str(dataset_dir / "data.csv"),
                    "--steps", "3", "--seeds", "1,2",
                    "--out", str(out)) == 0
        assert (out / "seed_1" / "train_record.json").exists()
        assert (out / "seed_2" / "train_record.json").exists()
        doc = json.loads((out / "manifest.json").read_text())
        assert "seed_1/metrics.csv" in doc["outputs"]

    def test_config_file_with_flag_override(self, dataset_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "task": "classification_sp",
            "data": str(dataset_dir / "data.csv"),
            "steps": 3, "alpha": 0.25}))
        out = tmp_path / "cfgrun"
        assert _run("train", "--config", str(cfg_file), "--alpha", "0.5",
                    "--out", str(out)) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["alpha"] == 0.5      # flag wins
        assert doc["config"]["steps"] == 3        # file wins over default
        assert doc["config"]["epsilon"] == "inf"  # default recorded

    def test_unknown_config_key_rejected(self, dataset_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"task": "classification_sp",
                                        "data": str(dataset_dir / "data.csv"),
                                        "stepss": 3}))
        assert _run("train", "--config", str(cfg_file),
                    "--out", str(tmp_path / "x")) == 1

    def test_missing_data_rejected(self, tmp_path):
        assert _run("train", "--task", "classification_sp",
                    "--out", str(tmp_path / "x")) == 1

    def test_generation_task_needs_no_data(self, tmp_path, capsys):
        assert _run("train", "--task", "generation", "--gen-samples", "0",
                    "--out", str(tmp_path / "empty")) == 1
        assert "error: train: gen_samples must be >= 1" \
            in capsys.readouterr().err
        for flags, message in [
                (("--hidden-dim", "0"), "error: hidden_dim must be >= 1"),
                (("--learning-rate", "nan"), "error: learning rate must be "
                                             "finite and > 0"),
                (("--clip-m", "nan", "--epsilon", "1"),
                 "error: output_bound must be finite and >= 0")]:
            assert _run("train", "--task", "generation", *flags,
                        "--out", str(tmp_path / "rejected")) == 1
            assert message in capsys.readouterr().err
            assert not (tmp_path / "rejected" / "manifest.json").exists()
        out = tmp_path / "gen_task"
        assert _run("train", "--task", "generation", "--steps", "2",
                    "--gen-samples", "100", "--projections", "4",
                    "--hidden-dim", "4", "--clip-m", "1", "--clip-l", "2.83",
                    "--epsilon", "inf", "--learning-rate", "0.0075",
                    "--out", str(out)) == 0
        with open(out / "outputs_by_group.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        groups = {r[0] for r in rows[1:]}
        assert groups == {"model", "reference"}


class TestOtherCommands:
    def test_calibrate_writes_budget_table(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert _run("calibrate-noise", "--epsilon", "1", "--delta", "1e-5",
                    "--steps", "100", "--sampling-rate", "0.2",
                    "--sensitivity", "0.05", "--out", str(out)) == 0
        doc = json.loads((out / "calibration.json").read_text())
        assert doc["epsilon_achieved"] == pytest.approx(1.0, rel=1e-4)
        assert doc["sigma"] > 0
        assert doc["epsilon_achieved"] <= doc["conservative_epsilon_ceiling"]
        assert "sigma" in capsys.readouterr().out

    def test_calibrate_zero_sensitivity_rejected(self, tmp_path):
        assert _run("calibrate-noise", "--epsilon", "1", "--delta", "1e-5",
                    "--steps", "10", "--sampling-rate", "0.5",
                    "--sensitivity", "0", "--out", str(tmp_path / "x")) == 1

    def test_counterexample_table(self, tmp_path, capsys):
        out = tmp_path / "ce"
        assert _run("counterexample", "--n", "10,100,1000", "--p", "1,2",
                    "--out", str(out)) == 0
        with open(out / "counterexample.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 6
        for row in rows[1:]:
            assert float(row[4]) == 2.0
        capsys.readouterr()

    def test_audit_report(self, tmp_path):
        out = tmp_path / "aud"
        assert _run("sensitivity-audit", "--setting", "sp", "--n", "15",
                    "--m", "12", "--trials", "60", "--out", str(out)) == 0
        doc = json.loads((out / "sensitivity_report.json").read_text())
        assert doc["trials"] == 60
        assert doc["empirical_max"] <= doc["theoretical_bound"]

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            _run("counterexample", "--frobnicate")
        assert exc.value.code == 2

    def test_env_var_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPSWGRAD_OUTDIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert _run("counterexample", "--n", "10", "--p", "1") == 0
        assert (tmp_path / "envout" / "counterexample" /
                "counterexample.csv").exists()


class TestReplay:
    def test_generate_replay_byte_identical(self, dataset_dir, tmp_path):
        out = tmp_path / "re"
        assert _run("replay", str(dataset_dir / "manifest.json"),
                    "--out", str(out)) == 0
        for name in ("data.csv", "data.json", "manifest.json"):
            assert _files_equal(dataset_dir / name, out / name)

    def test_train_replay_byte_identical(self, dataset_dir, tmp_path):
        first = tmp_path / "t1"
        assert _run("train", "--task", "classification_sp",
                    "--data", str(dataset_dir / "data.csv"),
                    "--steps", "5", "--alpha", "0.75", "--epsilon", "2",
                    "--seed", "7", "--out", str(first)) == 0
        second = tmp_path / "t2"
        assert _run("replay", str(first / "manifest.json"),
                    "--out", str(second)) == 0
        for name in ("train_record.json", "metrics.csv", "model.json",
                     "outputs_by_group.csv", "manifest.json"):
            assert _files_equal(first / name, second / name)

    def test_audit_replay_byte_identical(self, tmp_path):
        first = tmp_path / "a1"
        assert _run("sensitivity-audit", "--setting", "one_sided",
                    "--n", "20", "--trials", "40", "--out", str(first)) == 0
        second = tmp_path / "a2"
        assert _run("replay", str(first / "manifest.json"),
                    "--out", str(second)) == 0
        for name in ("sensitivity_report.json", "manifest.json"):
            assert _files_equal(first / name, second / name)

    def test_every_other_command_replays_byte_identical(self, tmp_path):
        runs = {
            "cal": ["calibrate-noise", "--epsilon", "1", "--delta", "1e-5",
                    "--steps", "50", "--sampling-rate", "0.2",
                    "--sensitivity", "0.01"],
            "ce": ["counterexample", "--n", "10,100", "--p", "1,2"],
        }
        for tag, args in runs.items():
            first = tmp_path / tag
            assert _run(*args, "--out", str(first)) == 0
            second = tmp_path / (tag + "_replay")
            assert _run("replay", str(first / "manifest.json"),
                        "--out", str(second)) == 0
            for path in sorted(first.iterdir()):
                assert _files_equal(path, second / path.name)
