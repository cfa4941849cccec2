"""Cross-version trajectory check against committed training records.

``tests/fixtures/trajectory_<case>.json`` are ``train_record.json`` files
written by dpswgrad 0.1.0, one tiny private run per task, plus the two
tasks that also train an ``affine`` model.  Re-running the
same config must reproduce the losses, the epsilon history, the calibrated
noise, the sensitivity and the final parameters.  The replay tests only
compare a version with itself; this one compares against an older one.

The tolerance is rtol=1e-12, so a BLAS build that differs in the last bits
does not fail it.  Regenerate the fixtures (only when a change to the
trajectory is intended, together with a version bump) with

    PYTHONPATH=src python tests/test_trajectory.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dpswgrad.data import GenerationConfig, generate_biased
from dpswgrad.dp_gradient import ClipConfig
from dpswgrad.fairness_train import TrainConfig, dpsgd_train

FIXTURES = Path(__file__).resolve().parent / "fixtures"

DATA_N = 400

# case name -> (task, extra config fields)
CASES = {
    "classification_sp": ("classification_sp", {}),
    "classification_eo": ("classification_eo", {}),
    "regression_sp": ("regression_sp", {"hidden_dim": 16}),
    "autoencoder_sp": ("autoencoder_sp", {"hidden_dim": 12}),
    "generation": ("generation", {"hidden_dim": 8, "gen_samples": 200}),
    "regression_sp_affine": ("regression_sp", {"model_kind": "affine"}),
    "generation_affine": ("generation", {"model_kind": "affine",
                                         "gen_samples": 200}),
}


def _run(case: str):
    task, extra = CASES[case]
    n = extra.get("gen_samples", DATA_N)
    cfg = TrainConfig(task=task, steps=4, learning_rate=0.05, epsilon=1.0,
                      delta=0.1 / n, alpha=0.5,
                      clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                      num_projections=8, seed=2, **extra)
    ds = None if task == "generation" else generate_biased(
        GenerationConfig(n=DATA_N, bias=0.7, seed=1))
    return dpsgd_train(cfg, ds)


def _fixture(case: str) -> Path:
    return FIXTURES / f"trajectory_{case}.json"


@pytest.mark.parametrize("case", CASES)
def test_trajectory_matches_committed_record(case):
    want = json.loads(_fixture(case).read_text(encoding="utf-8"))
    got = _run(case).to_dict()
    assert got["config"] == want["config"]
    for key in ("sigma", "sensitivity"):
        assert math.isclose(got[key], want[key], rel_tol=1e-12), key
    for key in ("erm_losses", "w_losses", "total_losses", "epsilon_history",
                "final_theta"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12,
                                   atol=0.0, err_msg=key)


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    for name in CASES:
        _run(name).to_json(_fixture(name))
        print(f"wrote {_fixture(name)}")
