"""Byte-identity grid: run a fixed set of CLI configs and hash every artifact.

Usage::

    PYTHONPATH=<checkout>/src python tools/artifact_grid.py OUT

OUT must be new or empty.  The script generates a small biased dataset
(n = 600) in ``OUT/data`` and a test set (n = 300) in ``OUT/test_data``,
then runs every configuration below through
``dpswgrad.cli.main`` at 5 steps, with OUT as the working directory so that
the manifests record relative paths.  It then replays every run's manifest
into ``replay/<run>`` and exits with an error unless each replayed file is
byte-identical to its original.  It prints one ``sha256  path`` line per
file under OUT, sorted by path.  To compare two versions of the library,
run each checkout's ``src`` into its own directory and ``diff`` the two
listings.  Manifests record the library version, so they differ whenever
the version does.

The grid (72 runs, each in its own directory, and their 72 replays) sets
only fields that its runs read, as the CLI refuses any other:

- two ``generate`` runs, ``calibrate-noise`` and ``counterexample``;
- each of the five ``train`` tasks at epsilon {1, inf} x alpha
  {0, 0.5, 1}, and again with ``--resample-directions`` for the three
  tasks whose penalty outputs are 2-D (the classifiers' scalar outputs
  take no directions); generation, whose one pair has weight 1, runs only
  at its default alpha, 0;
- ``--model-kind affine`` for regression and generation at every epsilon
  and at the alphas above;
- each of the four dataset tasks with ``--test-data``, so that every
  task's test metrics are written;
- a classification_eo run at each of the seeds 0, 1 and 2, and a
  generation run at each of 0 and 1;
- an autoencoder with a 3-D latent space, two clip/width variants of
  regression and autoencoder, and a generation run whose output and
  Jacobian clips (0.7071, 1.4142) are not powers of two;
- the four ``sensitivity-audit`` settings at 200 trials, and the
  ``two_sided`` and ``sp`` settings with output bound 0.7071 and Jacobian
  bounds 1.4142 and 0.5 or 1.4142;
- one ``replay`` of a hand-written train run file, ``train_run.json``,
  which gives JSON integers to float fields (``RUN_FILE_DOC``).

Runtime: about 3 s on 2 cores.  The script is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from dpswgrad.cli import main
from dpswgrad.fairness_train import TASKS

ALPHAS = ("0", "0.5", "1")
# the tasks whose penalty outputs are 2-D, so that they read directions
SLICED_TASKS = ("regression_sp", "autoencoder_sp", "generation")


# a classification_eo run given as a run file; epsilon and clip_c are JSON
# integers in float fields
RUN_FILE = "train_run.json"
RUN_FILE_DOC = {"command": "train", "config": {
    "task": "classification_eo", "data": "data/data.csv", "steps": 5,
    "seed": 1, "epsilon": 2, "alpha": 0.5, "clip_c": 5,
    "resample_directions": False}}


def _alphas(task: str) -> tuple:
    """The penalty weights a task runs at: generation only at its
    default."""
    return ALPHAS[:1] if task == "generation" else ALPHAS


def _task_args(task: str, alpha: str, affine: bool = False) -> list:
    """The task's data and penalty weight; generation draws its own
    samples and takes no ``--alpha``, and its default model 8 hidden
    units, which an affine map does not have."""
    if task == "generation":
        width = [] if affine else ["--hidden-dim", "8"]
        return ["--task", task, "--gen-samples", "200", *width]
    return ["--task", task, "--data", "data/data.csv", "--alpha", alpha]


def grid() -> list:
    """(run directory, CLI arguments) of every configuration, in run order."""
    runs = [("data", ["generate", "--n", "600", "--seed", "3"]),
            ("test_data", ["generate", "--n", "300", "--seed", "4"]),
            ("calibrate", ["calibrate-noise", "--epsilon", "1", "--delta",
                           "3.3e-6", "--steps", "500", "--sampling-rate",
                           "0.2", "--sensitivity", "0.0044"]),
            ("counterexample", ["counterexample"])]
    common = ["--steps", "5", "--seed", "1"]
    for task in TASKS:
        for eps in ("1", "inf"):
            for alpha in _alphas(task):
                base = ["train", *_task_args(task, alpha), *common,
                        "--epsilon", eps]
                runs.append((f"{task}_eps{eps}_a{alpha}", base))
                if task in SLICED_TASKS:
                    runs.append((f"{task}_eps{eps}_a{alpha}_resample",
                                 base + ["--resample-directions"]))
    for task in ("regression_sp", "generation"):
        for eps in ("1", "inf"):
            for alpha in _alphas(task):
                runs.append((f"{task}_affine_eps{eps}_a{alpha}",
                             ["train", *_task_args(task, alpha, True),
                              *common, "--epsilon", eps, "--model-kind",
                              "affine"]))
    for task in TASKS[:-1]:
        runs.append((f"{task}_test_data", [
            "train", *_task_args(task, "0.5"), "--test-data",
            "test_data/data.csv", *common, "--epsilon", "1"]))
    for task, seeds in (("classification_eo", ("0", "1", "2")),
                        ("generation", ("0", "1"))):
        runs += [(f"{task}_seed{seed}", ["train", *_task_args(task, "0.5"),
                                         "--steps", "5", "--epsilon", "1",
                                         "--seed", seed]) for seed in seeds]
    variants = {
        "autoencoder_latent3": ("autoencoder_sp", ["--latent-dim", "3"]),
        "regression_clip": ("regression_sp", [
            "--clip-m", "0.7071", "--clip-l", "1.4142", "--clip-c", "10",
            "--projections", "7"]),
        "autoencoder_clip": ("autoencoder_sp", [
            "--clip-m", "0.5", "--clip-l", "3", "--hidden-dim", "6"]),
        "generation_clip": ("generation", [
            "--clip-m", "0.7071", "--clip-l", "1.4142"]),
    }
    for name, (task, extra) in variants.items():
        runs.append((name, ["train", *_task_args(task, "0.5"), *common,
                            "--epsilon", "1", *extra]))
    for setting in ("one_sided", "two_sided", "sliced", "sp"):
        runs.append((f"audit_{setting}", ["sensitivity-audit", "--setting",
                                          setting, "--trials", "200"]))
    for setting, jac_bound2 in (("two_sided", "0.5"), ("sp", "1.4142")):
        runs.append((f"audit_{setting}_clip", [
            "sensitivity-audit", "--setting", setting, "--trials", "200",
            "--output-bound", "0.7071", "--jac-bound1", "1.4142",
            "--jac-bound2", jac_bound2]))
    runs.append(("train_config_file", ["replay", RUN_FILE]))
    return runs


def run(out: Path) -> None:
    """Run the grid in ``out`` (its working directory) and list the hashes."""
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"error: {out} is not empty")
    os.chdir(out)
    Path(RUN_FILE).write_text(json.dumps(RUN_FILE_DOC))
    runs = [(name, [*argv, "--out", name]) for name, argv in grid()]
    runs += [(f"replay/{name}", ["replay", f"{name}/manifest.json", "--out",
                                 f"replay/{name}"]) for name, _ in runs]
    for name, argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
        if status != 0:
            raise SystemExit(f"error: run {name} exited with {status}")
    differ = [str(path) for name, _ in grid() for path in Path(name).rglob("*")
              if path.is_file()
              and path.read_bytes() != (Path("replay") / path).read_bytes()]
    if differ:
        raise SystemExit(f"error: replays differ from their runs: {differ}")
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    run(Path(sys.argv[1]).resolve())
