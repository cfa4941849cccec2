"""Tests for the command-line interface: dispatch, manifests, replay."""

import csv
import json
import math
import tomllib
from pathlib import Path

import pytest

import dpswgrad
from dpswgrad import cli
from dpswgrad.cli import main
from dpswgrad.data import load_dataset
from dpswgrad.models import Model


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

    def test_repeated_seeds_rejected(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert _run("train", "--task", "classification_sp",
                    "--data", str(dataset_dir / "data.csv"),
                    "--steps", "3", "--seeds", "1,2,1",
                    "--out", str(out)) == 1
        assert capsys.readouterr().err == \
            "error: train: seeds must be distinct\n"
        assert not out.exists()

    @pytest.mark.parametrize("given", ["flag", "config", "manifest"])
    def test_empty_seed_list_rejected(self, tmp_path, capsys, given):
        # fails before the (missing) dataset is read and before any output
        out = tmp_path / "sweep"
        cfg = {"task": "classification_sp",
               "data": str(tmp_path / "missing.csv"), "seeds": []}
        doc = tmp_path / "given.json"
        doc.write_text(json.dumps({"command": "train", "config": cfg}
                                  if given == "manifest" else cfg))
        argv = {"flag": ["train", "--task", "classification_sp", "--data",
                         cfg["data"], "--seeds", ","],
                "config": ["train", "--config", str(doc)],
                "manifest": ["replay", str(doc)]}[given]
        assert _run(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == \
            "error: train: seeds must list at least one seed\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("malformed", ["empty", "unknown_field"])
    def test_malformed_sidecar_rejected(self, dataset_dir, tmp_path, capsys,
                                        malformed):
        doc = json.loads((dataset_dir / "data.json").read_text())
        doc["config"]["colour"] = "red"
        (dataset_dir / "data.json").write_text(
            json.dumps({} if malformed == "empty" else doc))
        out = tmp_path / "t"
        assert _run("train", "--task", "classification_sp",
                    "--data", str(dataset_dir / "data.csv"),
                    "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a dataset sidecar" in err
        assert err.count("\n") == 1
        assert not out.exists()

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
            assert not (tmp_path / "rejected").exists()
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


    def test_divergence_exits_without_a_record(self, tmp_path, capsys):
        # the first update takes theta to about 1e300: each entry is still
        # finite, but its norm is not
        out = tmp_path / "diverged"
        assert _run("train", "--task", "generation", "--gen-samples", "200",
                    "--steps", "20", "--epsilon", "1",
                    "--learning-rate", "1e300", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: train: diverged at step 1 (epsilon spent 0.")
        assert err.count("\n") == 1
        assert not (out / "train_record.json").exists()

    def test_divergence_in_a_sweep_writes_nothing(self, tmp_path, capsys):
        # at this step size the noise decides: seed 1 stays finite for 20
        # steps and seed 4 does not
        argv = ("train", "--task", "generation", "--gen-samples", "200",
                "--steps", "20", "--epsilon", "1",
                "--learning-rate", "2.6e152")
        assert _run(*argv, "--seed", "1", "--out",
                    str(tmp_path / "seed1")) == 0
        assert _run(*argv, "--seed", "4", "--out",
                    str(tmp_path / "seed4")) == 1
        capsys.readouterr()
        out = tmp_path / "sweep"
        assert _run(*argv, "--seeds", "1,4", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(
            "error: train: diverged at step ")
        assert not out.exists()


class TestAllocatorPolicy:
    """``cli._keep_freed_memory`` tunes glibc's malloc where it can and is
    a silent no-op elsewhere."""

    def test_no_c_library(self, monkeypatch):
        def no_library(name):
            raise OSError("no such library")

        monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
        assert cli._keep_freed_memory() is None

    def test_no_mallopt(self, monkeypatch):
        class NoMallopt:
            def __init__(self, name):
                pass

            def __getattr__(self, name):
                raise AttributeError(name)

        monkeypatch.setattr(cli.ctypes, "CDLL", NoMallopt)
        assert cli._keep_freed_memory() is None

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        class FakeMallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        class FakeLibc:
            def __init__(self, name):
                self.mallopt = FakeMallopt()

        monkeypatch.setattr(cli.ctypes, "CDLL", FakeLibc)
        cli._keep_freed_memory()
        assert calls == [(-1, 256 << 20), (-3, 256 << 20)]


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

    @pytest.mark.parametrize("setting", ["one_sided", "two_sided",
                                         "sliced", "sp"])
    def test_audited_gradient_traces_the_model_once(self, setting,
                                                    monkeypatch):
        # every setting stacks its two sides into the one batch the model
        # traces, and sp's ERM term reads that trace too
        grad_fn, classes, _, _ = cli._audit_setup(cli._typed_config(
            "sensitivity-audit", {"setting": setting, "n": 12, "m": 10}))
        traced = []
        trace = Model.trace

        def counted(self, x):
            traced.append(x.shape[0])
            return trace(self, x)

        monkeypatch.setattr(Model, "trace", counted)
        grad_fn(classes)
        grad_fn(classes)
        assert traced == [22, 22]

    def test_sp_audit_with_two_jacobian_bounds(self, tmp_path):
        # each side of the pair weighs its own Jacobian bound
        out = tmp_path / "aud"
        assert _run("sensitivity-audit", "--setting", "sp", "--jac-bound1",
                    "0.01", "--jac-bound2", "5", "--alpha", "1", "--trials",
                    "300", "--out", str(out)) == 0
        doc = json.loads((out / "sensitivity_report.json").read_text())
        assert doc["theoretical_bound"] == 4.0 * (3.0 * 5.0 + 0.01) / 50
        assert doc["empirical_max"] <= doc["theoretical_bound"]

    def test_malformed_json_rejected(self, tmp_path, capsys):
        def write(name, doc):
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            return str(path)

        runs = [("calibrate-noise", "--config", write("list.json", [1, 2]))]
        for i, doc in enumerate([{"foo": 1}, [1],
                                 {"command": "generate", "config": [1]},
                                 {"command": ["generate"], "config": {}}]):
            runs.append(("replay", write(f"manifest_{i}.json", doc)))
        for i, argv in enumerate(runs):
            out = tmp_path / f"out_{i}"
            assert _run(*argv, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()

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


# (command, fields over a valid config, their record in the manifest;
# None when the command must reject them)
_TYPED_CASES = [
    ("generate", {"n": [1]}, None),
    ("train", {"alpha": None}, None),
    ("train", {"resample_directions": "false"}, None),
    ("train", {"steps": 2.7}, None),
    ("train", {"seeds": 5}, None),
    ("sensitivity-audit", {"n": [10]}, None),
    ("calibrate-noise", {"epsilon": 10 ** 400}, None),
    ("calibrate-noise", {"epsilon": 2, "sensitivity": 1},
     {"epsilon": 2.0, "sensitivity": 1.0}),
    ("train", {"epsilon": "inf"}, {"epsilon": "inf"}),
]


@pytest.mark.parametrize("source", ["config", "replay"])
@pytest.mark.parametrize("command, fields, recorded", _TYPED_CASES, ids=[
    "generate_n_list", "train_alpha_null", "train_resample_string",
    "train_steps_fraction", "train_seeds_scalar", "audit_n_list",
    "calibrate_epsilon_overflow", "calibrate_int_in_float",
    "train_epsilon_inf"])
def test_config_field_types(dataset_dir, tmp_path, capsys, source, command,
                            fields, recorded):
    base = {"generate": {"n": 50},
            "train": {"task": "classification_sp", "steps": 2,
                      "data": str(dataset_dir / "data.csv")},
            "sensitivity-audit": {"trials": 5},
            "calibrate-noise": {"epsilon": 1, "delta": 1e-5, "steps": 10,
                                "sampling_rate": 0.2, "sensitivity": 0.05},
            }[command]
    config = {**base, **fields}
    given = tmp_path / "given.json"
    out = tmp_path / "out"
    if source == "config":
        given.write_text(json.dumps(config))
        argv = [command, "--config", str(given)]
    else:
        given.write_text(json.dumps({"command": command, "config": config}))
        argv = ["replay", str(given)]
    capsys.readouterr()
    status = _run(*argv, "--out", str(out))
    err = capsys.readouterr().err
    if recorded is None:
        assert status == 1
        assert err.startswith(f"error: {command}: {next(iter(fields))} ")
        assert err.count("\n") == 1
        assert not out.exists()
    else:
        assert status == 0 and err == ""
        doc = json.loads((out / "manifest.json").read_text())
        for name, value in recorded.items():
            assert type(doc["config"][name]) is type(value)
            assert doc["config"][name] == value


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


def test_version_matches_pyproject():
    # manifests record __version__; the package metadata must agree
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(path, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == dpswgrad.__version__
