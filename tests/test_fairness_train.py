"""Tests for the DP-SGD training loop, subsampling, and metric tables."""

import math
import types
import warnings

import numpy as np
import pytest
from scipy.special import expit

from dpswgrad.data import (GenerationConfig, centered_targets,
                           generate_biased, partition)
from dpswgrad.dp_gradient import ClipConfig
from dpswgrad.fairness_train import (TrainConfig, dpsgd_train, metrics,
                                     subsample_partitioned)
from dpswgrad.models import AffineModel, AffineSigmoidModel, Model

from oracles import central_diff, w2_squared_quantile_oracle

LOOSE = ClipConfig.symmetric(1e6, 1e6, 1e6)


def _dataset(n=600, seed=0, **kw):
    return generate_biased(GenerationConfig(n=n, bias=0.7, seed=seed, **kw))


class TestSubsample:
    def test_full_class_when_size_matches(self):
        ds = _dataset(100, seed=1)
        part = partition(ds, "by_a")
        rng = np.random.default_rng(0)
        batch = subsample_partitioned(part, part.sizes, rng)
        for key in part.keys:
            np.testing.assert_array_equal(np.sort(batch[key]),
                                          np.sort(part.indices[key]))

    def test_indices_valid_and_disjoint_within_class(self):
        ds = _dataset(200, seed=2)
        part = partition(ds, "by_a")
        rng = np.random.default_rng(1)
        batch = subsample_partitioned(part, {0: 10, 1: 10}, rng)
        for j in (0, 1):
            assert len(set(batch[j].tolist())) == 10
            assert set(batch[j]).issubset(set(part.indices[j]))

    def test_frequencies_uniform(self):
        ds = _dataset(24, seed=3)
        part = partition(ds, "by_a")
        rng = np.random.default_rng(2)
        counts = {j: np.zeros(ds.n) for j in (0, 1)}
        draws = 4000
        for _ in range(draws):
            batch = subsample_partitioned(part, {0: 1, 1: 1}, rng)
            for j in (0, 1):
                counts[j][batch[j][0]] += 1
        for j in (0, 1):
            cls = part.indices[j]
            expected = draws / cls.size
            se = np.sqrt(draws * (1 / cls.size) * (1 - 1 / cls.size))
            assert np.all(np.abs(counts[j][cls] - expected) < 4 * se)

    def test_oversized_request_rejected(self):
        ds = _dataset(30, seed=4)
        part = partition(ds, "by_a")
        with pytest.raises(ValueError):
            subsample_partitioned(part, {0: ds.n, 1: 1},
                                  np.random.default_rng(0))


class TestMicroInstanceOracle:
    def test_single_full_batch_step_matches_hand_computation(self):
        # 6-point dataset, one exact step: sigma = 0, full batch, no clipping
        ds = _dataset(6, seed=5, core_dim=2, sp_dim=1, core_var=0.1,
                      sp_var=0.1)
        part = partition(ds, "by_a")
        assert not part.empty_classes()
        alpha = 0.5
        cfg = TrainConfig(task="classification_sp", steps=1,
                          learning_rate=0.1, epsilon=math.inf, delta=1e-5,
                          alpha=alpha, clip=LOOSE, batch_fraction=1.0, seed=7)
        rec = dpsgd_train(cfg, ds)

        # hand-computed objective via independent pieces, differentiated by fd
        theta0 = AffineSigmoidModel(ds.dim, seed=7).theta
        idx0, idx1 = part.indices[0], part.indices[1]

        def objective(theta):
            q = expit(ds.x @ theta[:-1] + theta[-1])
            bce = -(ds.y * np.log(q) + (1 - ds.y) * np.log(1 - q))
            erm = float(np.mean(np.concatenate([bce[idx0], bce[idx1]])))
            w = w2_squared_quantile_oracle(q[idx0], q[idx1])
            return (1 - alpha) * erm + alpha * w

        grad = central_diff(objective, theta0)
        expected = theta0 - 0.1 * grad
        np.testing.assert_allclose(rec.final_theta, expected, rtol=1e-6,
                                   atol=1e-9)

    def test_least_squares_convergence_linear_model(self):
        # alpha = 0, squared error, noiseless core: plain SGD must reach the
        # closed-form least-squares fit
        ds = _dataset(80, seed=3, core_dim=4, sp_dim=2, core_var=0.0,
                      sp_var=0.0)
        targets = centered_targets(ds)
        aug = np.column_stack([ds.x, np.ones(ds.n)])
        coef, *_ = np.linalg.lstsq(aug, targets, rcond=None)
        ls_pred = aug @ coef

        cfg = TrainConfig(task="regression_sp", steps=3000, learning_rate=0.2,
                          epsilon=math.inf, delta=1e-5, alpha=0.0,
                          clip=ClipConfig.symmetric(2.0, 2.0, 1e9),
                          batch_fraction=1.0, model_kind="affine", seed=0)
        rec = dpsgd_train(cfg, ds)
        model = AffineModel(ds.dim, 2, theta=rec.final_theta)
        assert np.max(np.abs(model.forward_batch(ds.x) - ls_pred)) < 1e-3


class TestDeterminismAndBudget:
    def test_same_seed_bit_identical_record(self):
        ds = _dataset(400, seed=6)
        cfg = TrainConfig(task="classification_sp", steps=8,
                          learning_rate=0.05, epsilon=1.0, delta=1e-4,
                          alpha=0.75, clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                          seed=11)
        a = dpsgd_train(cfg, ds, ds_test=ds)
        b = dpsgd_train(cfg, ds, ds_test=ds)
        assert a.to_dict() == b.to_dict()
        c = dpsgd_train(TrainConfig(**{**cfg.__dict__, "seed": 12}), ds)
        assert not np.array_equal(a.final_theta, c.final_theta)

    def test_zero_noise_run_is_deterministic_sgd(self):
        ds = _dataset(300, seed=7)
        cfg = TrainConfig(task="classification_sp", steps=5,
                          learning_rate=0.05, epsilon=math.inf, delta=1e-4,
                          alpha=0.5, clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                          seed=3)
        rec = dpsgd_train(cfg, ds)
        assert rec.sigma == 0.0 and rec.non_private
        assert all(math.isinf(e) for e in rec.epsilon_history)

    def test_budget_spent_matches_target(self):
        ds = _dataset(500, seed=8)
        cfg = TrainConfig(task="classification_sp", steps=25,
                          learning_rate=0.05, epsilon=2.0, delta=1e-4,
                          alpha=0.75, clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                          seed=5)
        rec = dpsgd_train(cfg, ds)
        assert rec.epsilon_spent == pytest.approx(2.0, rel=1e-4)
        assert rec.epsilon_spent <= 2.0
        # partial budgets compose proportionally: strictly increasing history
        eh = rec.epsilon_history
        assert all(a < b for a, b in zip(eh, eh[1:]))
        assert eh[-1] == pytest.approx(rec.epsilon_spent)

    def test_two_jacobian_bounds_record_the_pair_bound(self):
        # each sensitive class weighs the Jacobian bound of its own side
        ds = _dataset(400, seed=15)
        cfg = TrainConfig(task="classification_sp", steps=3,
                          learning_rate=0.05, epsilon=1.0, delta=1e-4,
                          alpha=0.75, clip=ClipConfig(1.0, 0.5, 2.0, 5.0),
                          seed=2)
        rec = dpsgd_train(cfg, ds)
        n0, n1 = rec.batch_sizes[0], rec.batch_sizes[1]
        assert rec.sensitivity == (1.0 - 0.75) * 2.0 * 5.0 / (n0 + n1) + max(
            0.75 * 4.0 * 1.0 * (3.0 * 0.5 + 2.0) / n0,
            0.75 * 4.0 * 1.0 * (3.0 * 2.0 + 0.5) / n1)
        assert rec.noise_multiplier == rec.sigma / rec.sensitivity
        assert rec.epsilon_spent <= 1.0
        assert np.all(np.isfinite(rec.final_theta))

    def test_record_serializes(self, tmp_path):
        ds = _dataset(200, seed=9)
        cfg = TrainConfig(task="classification_sp", steps=3,
                          learning_rate=0.05, epsilon=math.inf, delta=1e-4,
                          alpha=0.0, clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                          seed=2)
        rec = dpsgd_train(cfg, ds, ds_test=ds)
        path = tmp_path / "record.json"
        rec.to_json(path)
        import json
        doc = json.loads(path.read_text())
        assert doc["epsilon_target"] is None and doc["non_private"]
        assert len(doc["total_losses"]) == 3
        assert doc["metrics"]["accuracy"] >= 0.0


class TestTasks:
    def test_classification_eo_runs_and_tracks_losses(self):
        ds = _dataset(800, seed=10)
        cfg = TrainConfig(task="classification_eo", steps=6,
                          learning_rate=0.05, epsilon=1.5, delta=1e-4,
                          alpha=0.5, clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                          seed=4)
        rec = dpsgd_train(cfg, ds, ds_test=ds)
        assert len(rec.total_losses) == 6
        assert set(rec.batch_sizes) == {(j, k) for j in (0, 1) for k in (0, 1)}
        assert "eo_0" in rec.metrics and "eo_1" in rec.metrics
        np.testing.assert_allclose(
            rec.total_losses,
            [(1 - 0.5) * e + 0.5 * w
             for e, w in zip(rec.erm_losses, rec.w_losses)])

    def test_regression_task_runs(self):
        ds = _dataset(400, seed=11)
        cfg = TrainConfig(task="regression_sp", steps=4, learning_rate=0.05,
                          epsilon=math.inf, delta=1e-4, alpha=0.75,
                          clip=ClipConfig.symmetric(1 / np.sqrt(2),
                                                    np.sqrt(2), 10.0),
                          num_projections=10, hidden_dim=8, seed=6)
        rec = dpsgd_train(cfg, ds, ds_test=ds)
        assert {"mse", "od_0", "od_1"} <= set(rec.metrics)

    def test_autoencoder_task_runs(self):
        ds = _dataset(400, seed=12)
        cfg = TrainConfig(task="autoencoder_sp", steps=3, learning_rate=0.01,
                          epsilon=math.inf, delta=1e-4, alpha=0.75,
                          clip=ClipConfig.symmetric(2.0, np.sqrt(2), 10.0),
                          num_projections=10, hidden_dim=8, seed=7)
        rec = dpsgd_train(cfg, ds, ds_test=ds)
        assert {"rl", "rl_core", "probe_accuracy", "probe_di"} <= \
            set(rec.metrics)
        assert rec.metrics["rl_core"] <= rec.metrics["rl"] + 1e-12

    def test_generation_smoke(self):
        cfg = TrainConfig(task="generation", steps=4, learning_rate=0.0075,
                          epsilon=2.0, delta=1e-4, alpha=1.0,
                          clip=ClipConfig(1.0, 2 * np.sqrt(2), 0.0, 0.0),
                          num_projections=8, hidden_dim=8, gen_samples=300,
                          seed=8)
        rec = dpsgd_train(cfg, None)
        assert len(rec.w_losses) == 4
        assert rec.epsilon_spent == pytest.approx(2.0, rel=1e-4)
        assert rec.class_sizes == {"x": 300, "z": 300}

    @pytest.mark.parametrize("alpha", [0.0, 0.75, 1.0])
    @pytest.mark.parametrize("task", ["regression_sp", "classification_eo",
                                      "autoencoder_sp", "generation"])
    def test_one_forward_trace_of_the_model_per_step(self, task, alpha,
                                                     monkeypatch):
        # the ERM batch is traced once and every penalty side reads its
        # rows; generation traces its one model side (the reference map is
        # parameter-free and not counted)
        traced = []
        trace = Model._trace

        def counted(self, x, depth):
            traced.append(self.n_params > 0)
            return trace(self, x, depth)

        monkeypatch.setattr(Model, "_trace", counted)
        cfg = TrainConfig(task=task, steps=3, learning_rate=0.01,
                          epsilon=math.inf, delta=1e-4, alpha=alpha,
                          clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                          num_projections=4, hidden_dim=4, gen_samples=60,
                          seed=2)
        dpsgd_train(cfg, None if task == "generation"
                    else _dataset(300, seed=14))
        assert sum(traced) == 3

    def test_resampled_directions_change_but_stay_reproducible(self):
        ds = _dataset(300, seed=13)
        base = dict(task="regression_sp", steps=3, learning_rate=0.05,
                    epsilon=math.inf, delta=1e-4, alpha=1.0,
                    clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                    num_projections=5, hidden_dim=6, seed=9)
        fixed = dpsgd_train(TrainConfig(**base), ds)
        resampled = dpsgd_train(
            TrainConfig(**{**base, "resample_directions": True}), ds)
        assert not np.allclose(fixed.final_theta, resampled.final_theta)
        again = dpsgd_train(
            TrainConfig(**{**base, "resample_directions": True}), ds)
        np.testing.assert_array_equal(resampled.final_theta,
                                      again.final_theta)

    def test_tiny_class_aborts_with_diagnostic(self):
        ds = _dataset(30, seed=14)
        cfg = TrainConfig(task="classification_sp", steps=2,
                          learning_rate=0.05, epsilon=math.inf, delta=1e-4,
                          alpha=0.5, clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                          batch_fraction=0.01, seed=1)
        with pytest.raises(ValueError, match="empty batch"):
            dpsgd_train(cfg, ds)
        # generation follows the same batch-size rule as the fairness tasks
        gen = TrainConfig(task="generation", steps=2, learning_rate=0.05,
                          epsilon=math.inf, delta=1e-4, alpha=0.0,
                          clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                          batch_fraction=0.2, gen_samples=3, seed=1)
        with pytest.raises(ValueError, match="empty batch"):
            dpsgd_train(gen, None)

    @pytest.mark.parametrize("epsilon", [1.0, math.inf])
    def test_divergence_stops_the_run(self, epsilon):
        cfg = TrainConfig(task="generation", steps=20, learning_rate=1e300,
                          epsilon=epsilon, delta=1e-4, alpha=0.0,
                          clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                          gen_samples=200, seed=0)
        spent = r"0\.\d{4}" if math.isfinite(epsilon) else "inf"
        with pytest.raises(ValueError, match=rf"^diverged at step 1 "
                                             rf"\(epsilon spent {spent}\)"):
            dpsgd_train(cfg, None)

    def test_non_finite_loss_stops_the_run(self):
        # each update is at most 1e153 * C = 5e153 long, so the parameters'
        # norm stays below 1e154 (its square below the float range) for two
        # steps, while the squared error at the second one overflows
        ds = _dataset(200, seed=3)
        cfg = TrainConfig(task="regression_sp", steps=5, learning_rate=1e153,
                          epsilon=math.inf, delta=1e-4, alpha=0.0,
                          clip=ClipConfig.symmetric(1.0, 1.0, 5.0),
                          model_kind="affine", seed=0)
        # the overflowing mean loss is reported as a divergence, not warned
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^diverged at step 2 "):
                dpsgd_train(cfg, ds)

    def test_model_kind_validation(self):
        base = dict(task="regression_sp", steps=1, learning_rate=0.1,
                    epsilon=math.inf, delta=1e-4, alpha=0.0, clip=LOOSE)
        with pytest.raises(ValueError, match="model kind"):
            TrainConfig(**{**base, "task": "classification_sp",
                           "model_kind": "mlp2"})
        for field, value, message in [
                ("hidden_dim", 0, "hidden_dim must be >= 1"),
                ("hidden_dim", -3, "hidden_dim must be >= 1"),
                ("latent_dim", 0, "latent_dim must be >= 1"),
                ("learning_rate", math.nan, "learning rate"),
                ("learning_rate", math.inf, "learning rate"),
                ("epsilon", math.nan, "epsilon"),
                ("gen_radius", math.nan, "gen_radius"),
                ("gen_radius", math.inf, "gen_radius")]:
            with pytest.raises(ValueError, match=message):
                TrainConfig(**{**base, field: value})
        # an unset width takes the task default, a set one is used as given
        ds = _dataset(100, seed=3)
        for hidden_dim, width in [(None, 64), (1, 1)]:
            record = dpsgd_train(TrainConfig(**{**base,
                                                "hidden_dim": hidden_dim}), ds)
            assert record.model_meta["hidden_dim"] == width


class _StubModel:
    """Duck-typed stand-in whose outputs are fixed arrays."""

    def __init__(self, outputs, codes=None):
        self._outputs = np.asarray(outputs, dtype=np.float64)
        self._codes = codes

    def forward_batch(self, x):
        return self._outputs

    def penalty_trace(self, x):
        return types.SimpleNamespace(output=self._codes)


class TestMetrics:
    def test_identical_predictions_give_di_one(self):
        ds = _dataset(500, seed=15)
        model = AffineSigmoidModel(ds.dim, theta=np.zeros(ds.dim + 1))
        model.theta[-1] = 10.0  # predicts 1 for everyone
        table = metrics(ds, model, "classification_sp")
        assert table["di"] == pytest.approx(1.0)
        assert table["eo_0"] == pytest.approx(1.0)
        assert table["eo_1"] == pytest.approx(1.0)

    def test_degenerate_rates_reported_as_nan(self):
        ds = _dataset(500, seed=16)
        model = AffineSigmoidModel(ds.dim, theta=np.zeros(ds.dim + 1))
        model.theta[-1] = -10.0  # predicts 0 for everyone
        table = metrics(ds, model, "classification_sp")
        assert math.isnan(table["di"])

    def test_perfect_autoencoder_zero_reconstruction(self):
        ds = _dataset(100, seed=17)
        stub = _StubModel(ds.x, codes=ds.x[:, :2])
        table = metrics(ds, stub, "autoencoder_sp")
        assert table["rl"] == 0.0 and table["rl_core"] == 0.0

    def test_exact_regression_diagonal_fractions(self):
        # model returning the centered continuous response: the fraction of
        # predictions above the anti-diagonal per class follows the mixture
        # weights of the generator (1 - bias for class 0, bias for class 1)
        ds = _dataset(30000, seed=18)
        stub = _StubModel(centered_targets(ds))
        table = metrics(ds, stub, "regression_sp")
        assert table["od_0"] == pytest.approx(0.3, abs=0.02)
        assert table["od_1"] == pytest.approx(0.7, abs=0.02)
        assert table["mse"] == 0.0
