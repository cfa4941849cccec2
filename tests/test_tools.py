"""Tier-1 guard for the scripts in ``tools/``, which no other test imports.

``artifact_grid.py`` runs its configurations through ``dpswgrad.cli`` and
``microbench.py`` calls the library's objective directly, so a change of
a CLI flag or of ``penalized_objective``'s arguments would break them
without a word.  This imports both, parses every grid run's arguments with
the CLI's own parser, and builds and calls every microbench objective once
(about 0.1 s in all).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from dpswgrad import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import artifact_grid  # noqa: E402
import microbench  # noqa: E402


@pytest.mark.parametrize("name, argv", artifact_grid.grid(),
                         ids=[name for name, _ in artifact_grid.grid()])
def test_grid_run_parses(name, argv):
    args = cli._build_parser().parse_args([*argv, "--out", name])
    assert args.command == argv[0]


@pytest.mark.parametrize("build", [
    getattr(microbench, name) for name in sorted(vars(microbench))
    if name.startswith("_objective_")])
def test_microbench_objective_runs(build):
    erm_value, w_value, total, grad = build()()
    assert np.all(np.isfinite([erm_value, w_value, total]))
    assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)
