"""Tests for the command-line interface: dispatch, manifests, replay."""

import argparse
import csv
import json
import math
import tomllib
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dpswgrad
from dpswgrad import cli, jsonio
from dpswgrad.cli import main
from dpswgrad.data import GenerationConfig, load_dataset
from dpswgrad.fairness_train import TASKS, TrainConfig, generation_samples
from dpswgrad.models import _BLOCK_ROWS, Model, load_model

import oracles


def _files_equal(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


def _run(*argv) -> int:
    return main(list(argv))


# a manifest's top-level keys: no seed or accountant formula of its own,
# which its config and the accountant's outputs record
MANIFEST_KEYS = ["command", "config", "outputs", "schema", "version"]


def _run_file(path: Path, command: str, config: dict) -> str:
    """A hand-written run file at ``path``, for ``replay``."""
    path.write_text(json.dumps({"command": command, "config": config}))
    return str(path)


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
        assert sorted(doc) == MANIFEST_KEYS
        assert doc["schema"] == 2

    def test_repeat_runs_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert _run("generate", "--n", "120", "--seed", "9",
                        "--out", str(tmp_path / sub)) == 0
        for name in ("data.csv", "data.json", "manifest.json"):
            assert _files_equal(tmp_path / "a" / name, tmp_path / "b" / name)

    def test_invalid_config_rejected(self, tmp_path):
        assert _run("generate", "--n", "0", "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("arg", ["--core-var=nan", "--core-var=inf",
                                     "--sp-var=inf", "--sp-var=-inf",
                                     "--sp-var=nan"])
    def test_non_finite_variance_rejected(self, tmp_path, capsys, arg):
        # a non-finite variance would write NaN or inf features that every
        # later train run refuses
        out = tmp_path / "g"
        assert _run("generate", "--n", "5", arg, "--out", str(out)) == 1
        assert capsys.readouterr().err == \
            "error: variances must be finite and >= 0\n"
        assert not out.exists()


class TestDefaults:
    """The CLI's defaults are the library's: ``generate`` and ``train`` take
    the defaults of ``GenerationConfig`` and ``TrainConfig``."""

    def test_generate_writes_the_library_config(self, tmp_path):
        assert _run("generate", "--n", "40", "--out", str(tmp_path)) == 0
        sidecar = json.loads((tmp_path / "data.json").read_text())
        assert sidecar["config"] == asdict(GenerationConfig(n=40))

    def test_train_records_the_library_defaults(self, dataset_dir, tmp_path):
        assert _run("train", "--task", "classification_sp",
                    "--data", str(dataset_dir / "data.csv"),
                    "--out", str(tmp_path)) == 0
        config = json.loads(
            (tmp_path / "train_record.json").read_text())["config"]
        shared = [f for f in fields(TrainConfig) if f.default is not MISSING]
        assert len(shared) == 9
        assert {f.name: config[f.name] for f in shared} == \
            {f.name: f.default for f in shared}

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_parser_options_are_the_table(self, command):
        # the options apart from -h and --out, in order, each once under
        # its field's flag
        sub, = (a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        options = [(a.dest, a.option_strings)
                   for a in sub.choices[command]._actions
                   if a.dest not in ("help", "out")]
        assert options == [(f.name, [f.option])
                           for f in cli._COMMANDS[command][1]]

    @pytest.mark.parametrize("argv", [
        ["train", "--task", "generation", "--seeds", "1,2"],
        ["calibrate-noise", "--epsilon", "1", "--delta", "1e-5", "--steps",
         "10", "--sampling-rate", "0.2", "--sensitivity", "0.05", "--seed",
         "0"],
        ["counterexample", "--seed", "0"],
        *([command, "--config", "run.json"] for command in (
            "generate", "train", "calibrate-noise", "sensitivity-audit",
            "counterexample"))],
        ids=["train_seeds", "calibrate_seed", "counterexample_seed",
             "generate_config", "train_config", "calibrate_config",
             "audit_config", "counterexample_config"])
    def test_removed_option_is_a_usage_error(self, tmp_path, capsys, argv):
        # one invocation is one run, flags are its only source besides a
        # replayed file, and a command that draws nothing takes no seed
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            _run(*argv, "--out", str(out))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in \
            capsys.readouterr().err
        assert not out.exists()


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
        rec = json.loads((out / "train_record.json").read_text())
        oracles.write_csv_rows(tmp_path / "want.csv", rows[0], (
            [str(t + 1), rec["erm_losses"][t], rec["w_losses"][t],
             rec["total_losses"][t], math.inf]
            for t in range(4)))
        assert _files_equal(out / "metrics.csv", tmp_path / "want.csv")
        assert float(rows[1][4]) == math.inf

    @pytest.mark.parametrize("flags", [["--data"], ["--test-data"],
                                       ["--data", "--test-data"]])
    def test_generation_refuses_datasets(self, dataset_dir, tmp_path,
                                         capsys, flags):
        # generation draws its own samples; a dataset it would not read is
        # refused before any output, under the rule for unread fields
        out = tmp_path / "run"
        given = [arg for flag in flags
                 for arg in (flag, str(dataset_dir / "data.csv"))]
        capsys.readouterr()
        assert _run("train", "--task", "generation", "--steps", "2",
                    *given, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: train: a generation mlp2 run does not read "
            f"{', '.join(flags)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("given", ["flag", "manifest"])
    @pytest.mark.parametrize("changed", [{"alpha": 0.5}, {"clip_c": 9.0},
                                         {"alpha": 0.5, "clip_c": 9.0}],
                             ids=["alpha", "clip_c", "both"])
    def test_generation_refuses_unread_weights(self, tmp_path, capsys,
                                               changed, given):
        # generation's one pair has weight 1 and it has no ERM term, so a
        # non-default alpha or loss-gradient clip is refused before any
        # output, as a dataset is; the defaults, given, are accepted
        argv = ["train", "--task", "generation", "--steps", "1",
                "--gen-samples", "20", "--hidden-dim", "2",
                "--projections", "2"]
        assert _run(*argv, "--alpha", "0", "--clip-c", "5",
                    "--out", str(tmp_path / "defaults")) == 0
        flags = [arg for name, value in changed.items()
                 for arg in ("--" + name.replace("_", "-"), str(value))]
        if given == "manifest":
            doc = json.loads(
                (tmp_path / "defaults" / "manifest.json").read_text())
            doc["config"].update(changed)
            (tmp_path / "manifest.json").write_text(json.dumps(doc))
            argv, flags = ["replay", str(tmp_path / "manifest.json")], []
        capsys.readouterr()
        out = tmp_path / "run"
        assert _run(*argv, *flags, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        named = ", ".join("--" + name.replace("_", "-") for name in changed)
        assert captured.err == (
            f"error: train: a generation mlp2 run does not read {named}\n")
        assert not out.exists()

    def test_unknown_config_key_rejected(self, dataset_dir, tmp_path):
        run_file = _run_file(tmp_path / "run.json", "train", {
            "task": "classification_sp",
            "data": str(dataset_dir / "data.csv"), "stepss": 3})
        assert _run("replay", run_file, "--out", str(tmp_path / "x")) == 1

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

    @pytest.mark.parametrize("flag", ["--data", "--test-data"])
    def test_empty_csv_rejected(self, dataset_dir, tmp_path, capsys, flag):
        empty = tmp_path / "empty" / "data.csv"
        empty.parent.mkdir()
        empty.write_bytes(b"")
        (empty.parent / "data.json").write_bytes(
            (dataset_dir / "data.json").read_bytes())
        good = str(dataset_dir / "data.csv")
        paths = {"--data": good, "--test-data": good, flag: str(empty)}
        out = tmp_path / "t"
        assert _run("train", "--task", "classification_sp",
                    *(arg for item in paths.items() for arg in item),
                    "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {empty}: empty file, expected a header\n"
        assert not out.exists()

    def test_generation_task_needs_no_data(self, tmp_path, capsys):
        assert _run("train", "--task", "generation", "--gen-samples", "0",
                    "--out", str(tmp_path / "empty")) == 1
        assert "error: gen_samples must be >= 1" in capsys.readouterr().err
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

    def test_test_data_dimension_checked_before_training(
            self, dataset_dir, tmp_path, capsys):
        # a 6-feature test set against 16-feature data is rejected before
        # the first of a million steps
        narrow = tmp_path / "narrow"
        assert _run("generate", "--n", "100", "--core-dim", "2",
                    "--sp-dim", "4", "--out", str(narrow)) == 0
        capsys.readouterr()
        out = tmp_path / "t"
        assert _run("train", "--task", "classification_sp",
                    "--data", str(dataset_dir / "data.csv"),
                    "--test-data", str(narrow / "data.csv"),
                    "--steps", "1000000", "--epsilon", "1",
                    "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: train: the test data has 6 features, the training "
            "data 16\n")
        assert not out.exists()

    def test_subnormal_noise_scale_exits_before_training(self, tmp_path,
                                                         capsys):
        # clips of 1e-158 give a sensitivity near 3e-317, whose noise scale
        # lies below the normal float range
        out = tmp_path / "t"
        assert _run("train", "--task", "generation", "--gen-samples", "200",
                    "--steps", "1000000", "--epsilon", "1",
                    "--clip-m", "1e-158", "--clip-l", "1e-158",
                    "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: noise scale ")
        assert not out.exists()

    def test_overflowing_noise_scale_exits_before_training(self, tmp_path,
                                                           capsys):
        # clips of 1e153 and 5e153 give a sensitivity of 1.5e306, whose
        # noise scale at this many steps lies past the float range
        out = tmp_path / "t"
        assert _run("train", "--task", "generation", "--gen-samples", "200",
                    "--steps", "1000000", "--epsilon", "1",
                    "--clip-m", "1e153", "--clip-l", "5e153",
                    "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(
            "error: noise scale overflows the float range: ")
        assert not out.exists()


# A run whose task, model kind or audit setting leaves fields unread: its
# command, its config (DATA stands for a dataset CSV), the run the error
# names, and a non-default value of each field it does not read.
DATA = "<data>"
_UNREAD_RUNS = {
    "classification_sp": (
        "train", {"task": "classification_sp", "data": DATA},
        "classification_sp affine_sigmoid",
        {"hidden_dim": 8, "latent_dim": 5, "num_projections": 7,
         "resample_directions": True, "gen_samples": 7, "gen_radius": 3.0}),
    "classification_eo": (
        "train", {"task": "classification_eo", "data": DATA},
        "classification_eo affine_sigmoid",
        {"hidden_dim": 8, "latent_dim": 5, "num_projections": 7,
         "resample_directions": True, "gen_samples": 7, "gen_radius": 3.0}),
    "regression_mlp2": (
        "train", {"task": "regression_sp", "data": DATA},
        "regression_sp mlp2",
        {"latent_dim": 5, "gen_samples": 7, "gen_radius": 3.0}),
    "regression_affine": (
        "train", {"task": "regression_sp", "data": DATA,
                  "model_kind": "affine"},
        "regression_sp affine",
        {"hidden_dim": 5, "latent_dim": 5, "gen_samples": 7,
         "gen_radius": 3.0}),
    "autoencoder": (
        "train", {"task": "autoencoder_sp", "data": DATA},
        "autoencoder_sp autoencoder", {"gen_samples": 7, "gen_radius": 3.0}),
    # 1-D codes: a scalar penalty output, which takes no directions
    "autoencoder_latent1": (
        "train", {"task": "autoencoder_sp", "data": DATA, "latent_dim": 1},
        "autoencoder_sp autoencoder",
        {"num_projections": 7, "resample_directions": True, "gen_samples": 7,
         "gen_radius": 3.0}),
    "generation_mlp2": (
        "train", {"task": "generation", "gen_samples": 20},
        "generation mlp2",
        {"data": DATA, "test_data": DATA, "alpha": 0.5, "clip_c": 9.0,
         "latent_dim": 5}),
    "generation_affine": (
        "train", {"task": "generation", "gen_samples": 20,
                  "model_kind": "affine"},
        "generation affine",
        {"data": DATA, "test_data": DATA, "alpha": 0.5, "clip_c": 9.0,
         "hidden_dim": 5, "latent_dim": 5}),
    "one_sided": (
        "sensitivity-audit", {"setting": "one_sided", "n": 6, "m": 5,
                              "trials": 5},
        "one_sided",
        {"loss_grad_bound": 9.0, "alpha": 0.3, "num_projections": 3}),
    "two_sided": (
        "sensitivity-audit", {"setting": "two_sided", "n": 6, "m": 5,
                              "trials": 5},
        "two_sided",
        {"loss_grad_bound": 9.0, "alpha": 0.3, "num_projections": 3}),
    "sliced": (
        "sensitivity-audit", {"setting": "sliced", "n": 6, "m": 5,
                              "trials": 5},
        "sliced", {"loss_grad_bound": 9.0, "alpha": 0.3}),
    "sp": (
        "sensitivity-audit", {"setting": "sp", "n": 6, "m": 5, "trials": 5},
        "sp", {"num_projections": 3}),
}


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    """A 60-record dataset: each (a, y) class of it holds a batch."""
    out = tmp_path_factory.mktemp("tiny")
    assert _run("generate", "--n", "60", "--seed", "5",
                "--out", str(out)) == 0
    return str(out / "data.csv")


def _with_data(config: dict, path: str) -> dict:
    return {k: path if v == DATA else v for k, v in config.items()}


class TestUnreadFields:
    """A config that gives a field its run does not read (because of the
    task, the model kind or the audit setting) a value other than the
    default exits 1 before any output; each such field, read anyway with
    the rule bypassed, leaves every output but the config echoes
    unchanged.  Flags, a run file of the given fields and a manifest of
    every field are refused alike."""

    @pytest.mark.parametrize("source", ["flag", "config", "manifest"])
    @pytest.mark.parametrize("run", list(_UNREAD_RUNS))
    def test_refused(self, tmp_path, capsys, run, source):
        command, base, named, unread = _UNREAD_RUNS[run]
        # a missing dataset: the rule reads no data
        config = _with_data({**base, **unread}, str(tmp_path / "none.csv"))
        if source == "flag":
            table = {f.name: f for f in cli._COMMANDS[command][1]}
            argv = [command]
            for name, value in config.items():
                option = table[name].option
                if value is True:
                    argv.append(option)
                else:
                    argv += [option, ",".join(map(str, value))
                             if isinstance(value, list) else str(value)]
        else:
            if source == "manifest":
                # every field, as a manifest that recorded them all
                table = cli._COMMANDS[command][1]
                config = cli._sanitize({f.name: config.get(f.name, f.default)
                                        for f in table})
            argv = ["replay", _run_file(tmp_path / "given.json", command,
                                        config)]
        out = tmp_path / "out"
        capsys.readouterr()
        assert _run(*argv, "--out", str(out)) == 1
        flags = [f.option for f in cli._COMMANDS[command][1]
                 if f.name in unread]
        assert capsys.readouterr() == (
            "", f"error: {command}: a {named} run does not read "
                f"{', '.join(flags)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("run", list(_UNREAD_RUNS))
    def test_defaults_given_are_accepted(self, tiny_data, run):
        command, base, _, unread = _UNREAD_RUNS[run]
        table = {f.name: f for f in cli._COMMANDS[command][1]}
        config = cli._typed_config(command, _with_data(
            {**base, **{name: table[name].default for name in unread}},
            tiny_data))
        assert cli._refuse_unread(command, config) == set(unread)

    @pytest.fixture(scope="class")
    def default_outputs(self, tiny_data, tmp_path_factory):
        """Each run's outputs at the defaults, by run."""
        cache = {}

        def outputs(run):
            if run not in cache:
                command, base = _UNREAD_RUNS[run][:2]
                cache[run] = _run_outputs(
                    command, _with_data(base, tiny_data),
                    tmp_path_factory.mktemp(run))
            return cache[run]
        return outputs

    @pytest.mark.parametrize("run, field", [
        (run, field) for run, case in _UNREAD_RUNS.items()
        for field in case[3]])
    def test_unread_field_changes_no_output(self, tiny_data, tmp_path,
                                            monkeypatch, default_outputs,
                                            run, field):
        command, base, _, unread = _UNREAD_RUNS[run]
        expected = default_outputs(run)
        monkeypatch.setattr(cli, "_refuse_unread", lambda command, cfg: set())
        got = _run_outputs(command, _with_data(
            {**base, field: unread[field]}, tiny_data), tmp_path)
        assert got == expected


def _run_outputs(command: str, config: dict, tmp_path: Path) -> dict:
    """A run's stdout and output files, by path, but for the echoes of its
    config: the manifest and ``train_record.json``'s ``config``."""
    out = tmp_path / "out"
    assert _run("replay", _run_file(tmp_path / "given.json", command, config),
                "--out", str(out)) == 0
    got = {}
    for path in sorted(out.rglob("*")):
        if path.name == "train_record.json":
            doc = json.loads(path.read_text())
            del doc["config"]
            got[path.relative_to(out)] = doc
        elif path.is_file() and path.name != "manifest.json":
            got[path.relative_to(out)] = path.read_bytes()
    return got


class TestOutputsByGroup:
    """``outputs_by_group.csv`` holds the bytes that ``csv.writer`` writes
    row by row from per-row group labels and one trace of all the rows
    (``oracles.write_outputs_by_group``)."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_writer_bytes(self, tmp_path, k):
        # more rows than two write blocks, the EO labels that csv quotes,
        # signed zeros, a subnormal and the ends of the float range
        n = 2 * jsonio._WRITE_ROWS + 5
        rng = np.random.default_rng(k)
        values = rng.normal(size=(n, k))
        values[:7, 0] = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324]
        values[-2:, -1] = [-0.0, 1e300]
        a, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
        names = [f'"a={i},y={j}"' for i in (0, 1) for j in (0, 1)]
        assert cli._write_outputs_by_group(tmp_path, names, 2 * a + y,
                                           values) == "outputs_by_group.csv"
        oracles.write_outputs_by_group(
            tmp_path / "want.csv", [f"a={i},y={j}" for i, j in zip(a, y)],
            values)
        got = (tmp_path / "outputs_by_group.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == n + 1
        for text in (b'\r\n"a=', b",-0", b",1e-300", b",-1e-300",
                     b",1.0000000000000001e+300", b",4.9406564584124654e-324"):
            assert text in got

    @pytest.mark.parametrize("task", TASKS)
    def test_train_output_bytes(self, tmp_path, task):
        # classification_eo runs on more rows than two blocks of
        # forward_batch, so its outputs cross block boundaries
        out = tmp_path / "t"
        argv = ["train", "--task", task, "--steps", "2", "--epsilon", "1",
                "--out", str(out)]
        if task == "generation":
            argv += ["--gen-samples", "150"]
        else:
            n = 2 * _BLOCK_ROWS + 5 if task == "classification_eo" else 300
            assert _run("generate", "--n", str(n), "--seed", "5",
                        "--out", str(tmp_path / "gen")) == 0
            argv += ["--data", str(tmp_path / "gen" / "data.csv"),
                     "--alpha", "0.5"]
        assert _run(*argv) == 0
        model = load_model(out / "model.json")
        if task == "generation":
            x, z = generation_samples(SimpleNamespace(
                seed=0, gen_samples=150, gen_radius=0.75))
            labels = ["model"] * len(x) + ["reference"] * len(z)
            values = np.vstack([model.trace(x).output, z])
        else:
            ds = load_dataset(tmp_path / "gen" / "data.csv",
                              tmp_path / "gen" / "data.json")
            values = model.trace(ds.x).penalty_output
            labels = ([f"a={a},y={y}" for a, y in zip(ds.a, ds.y)]
                      if task == "classification_eo"
                      else [f"a={a}" for a in ds.a])
        oracles.write_outputs_by_group(tmp_path / "want.csv", labels, values)
        assert _files_equal(out / "outputs_by_group.csv",
                            tmp_path / "want.csv")


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

    def test_calibrate_ceiling_where_delta_covers_every_sampling(
            self, tmp_path, capsys):
        # delta >= pT: the ceiling is 0, and the calibration is written
        out = tmp_path / "cal"
        assert _run("calibrate-noise", "--epsilon", "1", "--delta", "1e-5",
                    "--steps", "1", "--sampling-rate", "1e-6",
                    "--sensitivity", "1", "--out", str(out)) == 0
        doc = json.loads((out / "calibration.json").read_text())
        assert doc["conservative_epsilon_ceiling"] == 0.0
        assert doc["epsilon_achieved"] == pytest.approx(1.0, rel=1e-4)
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"{'conservative_epsilon_ceiling':<28}{0.0:>18.8g}\n" \
            in captured.out

    def test_calibrate_zero_sensitivity_rejected(self, tmp_path):
        assert _run("calibrate-noise", "--epsilon", "1", "--delta", "1e-5",
                    "--steps", "10", "--sampling-rate", "0.5",
                    "--sensitivity", "0", "--out", str(tmp_path / "x")) == 1

    def test_calibrate_subnormal_noise_scale_rejected(self, tmp_path,
                                                      capsys):
        # sigma 6.3e-320 would give back a noise multiplier that spends
        # epsilon 1.0000357 of a budget of 1
        out = tmp_path / "x"
        assert _run("calibrate-noise", "--epsilon", "1", "--delta", "1e-5",
                    "--steps", "10", "--sampling-rate", "0.5",
                    "--sensitivity", "1e-320", "--out", str(out)) == 1
        assert "below the normal float range" in capsys.readouterr().err
        assert not out.exists()

    def test_calibrate_overflowing_noise_scale_rejected(self, tmp_path,
                                                        capsys):
        # sigma = 6.3 x 1e308 is past the float range; it used to come
        # back as inf and fail as a noise multiplier error
        out = tmp_path / "x"
        assert _run("calibrate-noise", "--epsilon", "1", "--delta", "1e-5",
                    "--steps", "10", "--sampling-rate", "0.5",
                    "--sensitivity", "1e308", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(
            "error: noise scale overflows the float range: ")
        assert not out.exists()

    def test_counterexample_table(self, tmp_path, capsys):
        out = tmp_path / "ce"
        assert _run("counterexample", "--n", "10,100,1000", "--p", "1,2",
                    "--out", str(out)) == 0
        with open(out / "counterexample.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 6
        for row in rows[1:]:
            assert float(row[4]) == 2.0
            # the squared cost's bound charges the reference grid, which
            # has no Jacobian, with J_z = 0: 4 (3 + 0) / n
            assert float(row[6]) == 12.0 / int(row[0])
        # 17 digits give every double back, so csv.writer writes the same
        # bytes from the parsed table
        oracles.write_csv_rows(tmp_path / "want.csv", rows[0], (
            row[:2] + [float(v) for v in row[2:]] for row in rows[1:]))
        assert _files_equal(out / "counterexample.csv",
                            tmp_path / "want.csv")
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
        for i, doc in enumerate([{"foo": 1}, [1],
                                 {"command": "generate", "config": [1]},
                                 {"command": ["generate"], "config": {}}]):
            path = tmp_path / f"manifest_{i}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / f"out_{i}"
            assert _run("replay", str(path), "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("given", ["flag", "config", "manifest"])
    def test_empty_list_rejected(self, tmp_path, capsys, given):
        # an empty list of sample sizes would write a table of no rows
        argv = ["counterexample", "--n", ","]
        if given == "config":
            argv = ["replay", _run_file(tmp_path / "run.json",
                                        "counterexample", {"n_values": []})]
        elif given == "manifest":
            assert _run("counterexample", "--n", "10", "--out",
                        str(tmp_path / "first")) == 0
            config = json.loads(
                (tmp_path / "first" / "manifest.json").read_text())["config"]
            argv = ["replay", _run_file(tmp_path / "manifest.json",
                                        "counterexample",
                                        {**config, "n_values": []})]
        capsys.readouterr()
        out = tmp_path / "out"
        assert _run(*argv, "--out", str(out)) == 1
        assert capsys.readouterr() == ("", (
            "error: counterexample: n_values must be a non-empty list of "
            "integers, got []\n"))
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
    ("counterexample", {"n_values": 5}, None),
    ("sensitivity-audit", {"n": [10]}, None),
    ("calibrate-noise", {"epsilon": 10 ** 400}, None),
    ("calibrate-noise", {"epsilon": 2, "sensitivity": 1},
     {"epsilon": 2.0, "sensitivity": 1.0}),
    ("train", {"epsilon": "inf"}, {"epsilon": "inf"}),
]


@pytest.mark.parametrize("source", ["config", "replay"])
@pytest.mark.parametrize("command, fields, recorded", _TYPED_CASES, ids=[
    "generate_n_list", "train_alpha_null", "train_resample_string",
    "train_steps_fraction", "counterexample_n_scalar", "audit_n_list",
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
            "counterexample": {"n_values": [10], "p_orders": [1]},
            }[command]
    if source == "replay":
        # the manifest of a run of the base config, with the fields changed
        assert _run("replay", _run_file(tmp_path / "base.json", command, base),
                    "--out", str(tmp_path / "base")) == 0
        base = json.loads(
            (tmp_path / "base" / "manifest.json").read_text())["config"]
    out = tmp_path / "out"
    capsys.readouterr()
    status = _run("replay", _run_file(tmp_path / "given.json", command,
                                      {**base, **fields}),
                  "--out", str(out))
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
        doc = json.loads((first / "manifest.json").read_text())
        assert sorted(doc) == MANIFEST_KEYS
        # a classifier reads no width, projections or generation fields
        assert sorted(doc["config"]) == sorted(
            f.name for f in cli._COMMANDS["train"][1]
            if f.name not in {"hidden_dim", "latent_dim", "num_projections",
                              "resample_directions", "gen_samples",
                              "gen_radius"})

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
            doc = json.loads((first / "manifest.json").read_text())
            assert sorted(doc) == MANIFEST_KEYS
            assert sorted(doc["config"]) == sorted(
                f.name for f in cli._COMMANDS[args[0]][1])

    # manifests as schema 1 wrote them, with a top-level seed and
    # accountant formula; each config records a field that is gone
    _SCHEMA_1 = {
        "sweep": ("train", {
            "task": "classification_eo", "data": "missing.csv",
            "steps": 5, "epsilon": 1.0, "alpha": 0.5, "seed": 0,
            "seeds": [0, 1, 2]}, "['seeds']"),
        "train": ("train", {
            "task": "classification_eo", "data": "missing.csv",
            "steps": 5, "epsilon": 1.0, "alpha": 0.5, "seed": 0,
            "seeds": None}, "['seeds']"),
        "calibrate": ("calibrate-noise", {
            "delta": 3.3e-06, "epsilon": 1.0, "sampling_rate": 0.2,
            "seed": 0, "sensitivity": 0.0044, "steps": 500}, "['seed']"),
        "counterexample": ("counterexample", {
            "n_values": [10, 100, 1000], "p_orders": [1, 2], "seed": 0},
            "['seed']"),
    }

    @staticmethod
    def _schema_1(path: Path, command: str, config: dict) -> str:
        path.write_text(json.dumps({
            "accountant_formula": "gdp-clt-uniform-subsampling-v1",
            "command": command, "config": config, "outputs": [],
            "schema": 1, "seed": config.get("seed"), "version": "0.10.0"}))
        return str(path)

    @pytest.mark.parametrize("run", list(_SCHEMA_1))
    def test_schema_1_manifest_with_a_removed_field_refused(self, tmp_path,
                                                            capsys, run):
        command, config, named = self._SCHEMA_1[run]
        out = tmp_path / "out"
        assert _run("replay", self._schema_1(tmp_path / "m.json", command,
                                             config),
                    "--out", str(out)) == 1
        assert capsys.readouterr() == (
            "", f"error: {command}: unknown config fields {named}\n")
        assert not out.exists()

    def test_schema_1_audit_manifest_replays(self, tmp_path):
        # the unread fields it recorded at their defaults are accepted and
        # left out of the new manifest, which the flags write too
        argv = ["sensitivity-audit", "--n", "8", "--m", "6", "--trials", "5"]
        assert _run(*argv, "--out", str(tmp_path / "flags")) == 0
        config = {f.name: f.default
                  for f in cli._COMMANDS["sensitivity-audit"][1]}
        config.update(n=8, m=6, trials=5)
        assert _run("replay", self._schema_1(
            tmp_path / "m.json", "sensitivity-audit", config),
            "--out", str(tmp_path / "replayed")) == 0
        for name in ("sensitivity_report.json", "manifest.json"):
            assert _files_equal(tmp_path / "flags" / name,
                                tmp_path / "replayed" / name)


def test_version_matches_pyproject():
    # manifests record __version__; the package metadata must agree
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(path, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == dpswgrad.__version__
