"""Tier-1 guard for the scripts in ``tools/``, which no other test imports.

``artifact_grid.py`` runs its configurations through ``dpswgrad.cli`` and
``microbench.py`` calls the library's objective directly, so a change of
a CLI flag or of ``penalized_objective``'s arguments would break them
without a word.  This imports both, parses every grid run's arguments with
the CLI's own parser, types them and passes them through the CLI's rule
for unread fields, without training, checks that the runs the grid
dropped for that rule are refused, and builds and calls every microbench
objective once (about 0.1 s in all).
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dpswgrad import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import artifact_grid  # noqa: E402
import microbench  # noqa: E402


@pytest.fixture
def grid_dir(tmp_path, monkeypatch):
    """The grid's working directory, holding its one hand-written run
    file."""
    (tmp_path / artifact_grid.RUN_FILE).write_text(
        json.dumps(artifact_grid.RUN_FILE_DOC))
    monkeypatch.chdir(tmp_path)


@pytest.mark.usefixtures("grid_dir")
@pytest.mark.parametrize("name, argv", artifact_grid.grid(),
                         ids=[name for name, _ in artifact_grid.grid()])
def test_grid_run_parses(name, argv):
    args = cli._build_parser().parse_args([*argv, "--out", name])
    assert args.command == argv[0]
    command, given = cli._request(args)
    cli._refuse_unread(command, cli._typed_config(command, given))


# the classifier runs with --resample-directions, which the grid dropped:
# their scalar penalty outputs take no directions
DROPPED = [(f"{task}_eps{eps}_a{alpha}_resample",
            ["train", *artifact_grid._task_args(task, alpha), "--steps", "5",
             "--seed", "1", "--epsilon", eps, "--resample-directions"])
           for task in ("classification_sp", "classification_eo")
           for eps in ("1", "inf") for alpha in artifact_grid.ALPHAS]


@pytest.mark.parametrize("name, argv", DROPPED,
                         ids=[name for name, _ in DROPPED])
def test_dropped_grid_run_is_refused(name, argv):
    args = cli._build_parser().parse_args([*argv, "--out", name])
    config = cli._typed_config(*cli._request(args))
    with pytest.raises(ValueError, match="^train: a classification_.. "
                       "affine_sigmoid run does not read "
                       "--resample-directions$"):
        cli._refuse_unread(args.command, config)


@pytest.mark.parametrize("build", [
    getattr(microbench, name) for name in sorted(vars(microbench))
    if name.startswith("_objective_")])
def test_microbench_objective_runs(build):
    erm_value, w_value, total, grad = build()()
    assert np.all(np.isfinite([erm_value, w_value, total]))
    assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)
