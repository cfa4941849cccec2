"""Tests for the analytic models: forwards, Jacobians, loss gradients."""

import numpy as np
import pytest

from dpswgrad.models import (AffineModel, AffineSigmoidModel,
                             AutoencoderModel, IdentityModel, Mlp2Model,
                             Model, load_model, make_model, save_model)

from oracles import (central_diff, central_diff_jacobian, forward,
                     penalty_jacobian_batch, per_sample_jacobian,
                     per_sample_loss_grad, rel_err)


def _theta_jacobian_fd(model, x, h=1e-6):
    base = model.theta.copy()

    def fn(theta):
        model.theta[:] = theta
        out = forward(model, x)
        model.theta[:] = base
        return out

    return central_diff_jacobian(fn, base, h=h)


def _loss_grad_fd(model, x, target, loss_kind, h=1e-6):
    base = model.theta.copy()

    def fn(theta):
        model.theta[:] = theta
        val = float(model.trace(x[None, :]).loss(
            np.asarray(target).reshape(1, -1), loss_kind)[0])
        model.theta[:] = base
        return val

    return central_diff(fn, base, h=h)


class TestIdentity:
    def test_forward_is_input(self):
        m = IdentityModel(3)
        x = np.array([0.3, -1.0, 2.0])
        np.testing.assert_array_equal(forward(m, x), x)

    def test_jacobian_is_empty(self):
        m = IdentityModel(3)
        assert per_sample_jacobian(m, np.zeros(3)).shape == (3, 0)
        assert m.n_params == 0


class TestAffine:
    def test_forward_is_linear(self):
        m = AffineModel(2, 2, theta=np.array([1.0, 0.0, 0.0, 1.0, 0.5, -0.5]))
        np.testing.assert_allclose(forward(m, np.array([2.0, 3.0])),
                                   [2.5, 2.5])

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(40)
        for i in range(50):
            m = AffineModel(3, 2, seed=i)
            x = rng.normal(size=3)
            assert rel_err(per_sample_jacobian(m, x),
                           _theta_jacobian_fd(m, x)) < 1e-5

    def test_squared_error_gradient_fd(self):
        rng = np.random.default_rng(41)
        for i in range(50):
            m = AffineModel(3, 2, seed=i)
            x = rng.normal(size=3)
            y = rng.normal(size=2)
            g = per_sample_loss_grad(m, x, y, "squared_error")
            assert rel_err(g, _loss_grad_fd(m, x, y, "squared_error")) < 1e-5


class TestAffineSigmoid:
    def test_zero_parameters_give_half(self):
        m = AffineSigmoidModel(4, theta=np.zeros(5))
        for x in np.random.default_rng(0).normal(size=(5, 4)):
            assert forward(m, x)[0] == 0.5

    def test_jacobian_at_zero_theta(self):
        x = np.array([0.7, -0.2])
        m = AffineSigmoidModel(2, theta=np.zeros(3))
        jac = per_sample_jacobian(m, x)
        np.testing.assert_allclose(jac, 0.25 * np.array([[0.7, -0.2, 1.0]]))

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for i in range(60):
            m = AffineSigmoidModel(3, seed=i)
            x = rng.normal(size=3)
            assert rel_err(per_sample_jacobian(m, x),
                           _theta_jacobian_fd(m, x)) < 1e-5

    def test_bce_gradient_closed_form_and_fd(self):
        rng = np.random.default_rng(2)
        for i in range(40):
            m = AffineSigmoidModel(3, seed=100 + i)
            xs = rng.normal(size=(4, 3))
            ys = rng.integers(0, 2, size=4).astype(float)
            values, grads = m.trace(xs).loss_and_grads(ys, "bce")
            np.testing.assert_array_equal(values, m.trace(xs).loss(ys, "bce"))
            for j, (x, y) in enumerate(zip(xs, ys)):
                # row j of the library's per-sample gradients
                g = grads.weighted_sum(np.eye(4)[:, j:j + 1])
                q = forward(m, x)[0]
                np.testing.assert_allclose(
                    g, (q - y) * np.concatenate([x, [1.0]]), rtol=1e-12)
                assert rel_err(g, _loss_grad_fd(m, x, y, "bce")) < 1e-5

    def test_bce_rejects_non_binary_targets(self):
        m = AffineSigmoidModel(2, seed=0)
        with pytest.raises(ValueError, match="0 or 1"):
            m.trace(np.zeros((1, 2))).loss(np.array([0.5]), "bce")
        with pytest.raises(ValueError, match="0 or 1"):
            m.trace(np.zeros((1, 2))).loss_and_grads(np.array([0.5]), "bce")


class TestMlp2:
    def _reference_forward(self, m, x):
        # independent straightforward re-implementation with explicit loops
        h, q, d = m.hidden_dim, m.input_dim, m.output_dim
        t = m.theta
        w1 = t[:h * q].reshape(h, q)
        b1 = t[h * q:h * q + h]
        w2 = t[h * q + h:h * q + h + d * h].reshape(d, h)
        b2 = t[h * q + h + d * h:]
        a1 = [1.0 / (1.0 + np.exp(-(np.dot(w1[i], x) + b1[i])))
              for i in range(h)]
        out = []
        for r in range(d):
            z = np.dot(w2[r], a1) + b2[r]
            if m.output_activation == "sigmoid_recentered":
                out.append(1.0 / (1.0 + np.exp(-z)) - 0.5)
            else:
                out.append(z)
        return np.array(out)

    def test_forward_against_duplicate_evaluation(self):
        rng = np.random.default_rng(3)
        for i in range(10):
            m = Mlp2Model(4, hidden_dim=5, output_dim=2, seed=i)
            x = rng.normal(size=4)
            np.testing.assert_allclose(forward(m, x),
                                       self._reference_forward(m, x),
                                       rtol=1e-12)

    def test_recentered_outputs_bounded(self):
        m = Mlp2Model(3, hidden_dim=8, output_dim=2, seed=0)
        outs = m.forward_batch(np.random.default_rng(0).normal(size=(50, 3)))
        assert np.all(np.abs(outs) < 0.5)

    @pytest.mark.parametrize("activation", ["sigmoid_recentered", "linear"])
    def test_jacobian_matches_finite_differences(self, activation):
        rng = np.random.default_rng(4)
        for i in range(30):
            m = Mlp2Model(3, hidden_dim=4, output_dim=2,
                          output_activation=activation, seed=i)
            x = rng.normal(size=3)
            assert rel_err(per_sample_jacobian(m, x),
                           _theta_jacobian_fd(m, x)) < 1e-5

    def test_squared_error_gradient_fd(self):
        rng = np.random.default_rng(5)
        for i in range(40):
            m = Mlp2Model(3, hidden_dim=4, output_dim=2, seed=50 + i)
            x = rng.normal(size=3)
            y = rng.uniform(-0.4, 0.4, size=2)
            g = per_sample_loss_grad(m, x, y, "squared_error")
            assert rel_err(g, _loss_grad_fd(m, x, y, "squared_error")) < 1e-5

    def test_gradient_zero_at_exact_fit(self):
        m = Mlp2Model(2, hidden_dim=3, output_dim=2, seed=0)
        x = np.array([0.1, 0.2])
        y = forward(m, x)
        g = per_sample_loss_grad(m, x, y, "squared_error")
        np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_bce_rejected(self):
        m = Mlp2Model(2, hidden_dim=3, output_dim=1, seed=0)
        with pytest.raises(ValueError):
            m.trace(np.zeros((1, 2))).loss_and_grads(np.zeros(1), "bce")


@pytest.mark.parametrize("model", [
    IdentityModel(1),
    AffineModel(2, 1, seed=0),
    Mlp2Model(2, hidden_dim=3, output_dim=1, seed=0),
    Mlp2Model(2, hidden_dim=3, output_dim=1, output_activation="linear",
              seed=0),
    AutoencoderModel(2, hidden_dim=3, latent_dim=1, seed=0),
    Model(2, [(2, "sigmoid")], seed=0),
], ids=["identity", "affine", "mlp2", "mlp2_linear", "autoencoder",
        "two_sigmoid_outputs"])
def test_bce_needs_a_scalar_sigmoid_model(model):
    x, y = np.zeros((2, model.input_dim)), np.array([0.0, 1.0])
    trace = model.trace(x)
    for loss in (trace.loss, trace.loss_and_grads):
        with pytest.raises(ValueError, match="bce loss requires a "
                           "probability-valued scalar model"):
            loss(y, "bce")


class TestAutoencoder:
    def test_reconstruction_jacobian_fd(self):
        rng = np.random.default_rng(6)
        for i in range(40):
            m = AutoencoderModel(3, hidden_dim=4, latent_dim=2, seed=i)
            x = rng.normal(size=3)
            assert rel_err(per_sample_jacobian(m, x),
                           _theta_jacobian_fd(m, x)) < 1e-5

    def test_latent_jacobian_fd(self):
        rng = np.random.default_rng(7)
        for i in range(30):
            m = AutoencoderModel(3, hidden_dim=4, latent_dim=2, seed=10 + i)
            x = rng.normal(size=3)
            base = m.theta.copy()

            def encode(theta):
                m.theta[:] = theta
                out = m.penalty_trace(x[None, :]).output[0]
                m.theta[:] = base
                return out

            fd = central_diff_jacobian(encode, base)
            got = penalty_jacobian_batch(m, x[None, :])[0]
            assert rel_err(got, fd) < 1e-5

    def test_latent_jacobian_zero_on_decoder_block(self):
        m = AutoencoderModel(3, hidden_dim=4, latent_dim=2, seed=0)
        jac = penalty_jacobian_batch(m, np.zeros((1, 3)))[0]
        n_encoder = (3 + 1) * 4 + (4 + 1) * 2    # 3 -> 4 -> 2 layers
        assert np.all(jac[:, n_encoder:] == 0.0)
        assert np.any(jac[:, :n_encoder] != 0.0)

    def test_reconstruction_gradient_fd(self):
        rng = np.random.default_rng(8)
        for i in range(30):
            m = AutoencoderModel(3, hidden_dim=4, latent_dim=2, seed=20 + i)
            x = rng.normal(size=3)
            g = per_sample_loss_grad(m, x, x, "squared_error")
            assert rel_err(g, _loss_grad_fd(m, x, x, "squared_error")) < 1e-5

    def test_perfect_reconstruction_zero_gradient(self):
        m = AutoencoderModel(2, hidden_dim=3, latent_dim=2, seed=0)
        x = np.array([0.4, -0.1])
        target = forward(m, x)  # pretend the target is whatever it outputs
        g = per_sample_loss_grad(m, x, target, "squared_error")
        np.testing.assert_allclose(g, 0.0, atol=1e-14)


class TestFactoryAndCheckpoint:
    def test_factory_defaults(self):
        assert make_model("mlp2", 16, seed=0).hidden_dim == 64
        assert make_model("autoencoder", 16, seed=0).hidden_dim == 62
        assert make_model("autoencoder", 16, seed=0).latent_dim == 2
        with pytest.raises(ValueError):
            make_model("transformer", 4, seed=0)

    def test_seeded_init_reproducible(self):
        a = make_model("mlp2", 5, seed=9)
        b = make_model("mlp2", 5, seed=9)
        np.testing.assert_array_equal(a.theta, b.theta)
        c = make_model("mlp2", 5, seed=10)
        assert not np.array_equal(a.theta, c.theta)

    @pytest.mark.parametrize("kind", ["identity", "affine", "affine_sigmoid",
                                      "mlp2", "autoencoder"])
    def test_checkpoint_round_trip(self, tmp_path, kind):
        m = make_model(kind, 4, seed=3)
        path = tmp_path / "model.json"
        save_model(m, path)
        m2 = load_model(path)
        assert m2.kind == m.kind
        np.testing.assert_array_equal(m2.theta, m.theta)
        x = np.random.default_rng(0).normal(size=(6, 4))
        np.testing.assert_array_equal(m.forward_batch(x), m2.forward_batch(x))

    def test_sigmoid_outputs_in_unit_interval(self):
        m = make_model("affine_sigmoid", 4, seed=1)
        out = m.forward_batch(np.random.default_rng(1).normal(size=(30, 4)))
        assert np.all((out > 0.0) & (out < 1.0))

    def test_batch_and_single_sample_agree(self):
        m = make_model("mlp2", 3, seed=2, hidden_dim=4)
        xs = np.random.default_rng(2).normal(size=(5, 3))
        batch = m.forward_batch(xs)
        for i in range(5):
            np.testing.assert_allclose(batch[i], forward(m, xs[i]))

    def test_loss_values_match_bce_definition(self):
        m = make_model("affine_sigmoid", 2, seed=4)
        xs = np.random.default_rng(4).normal(size=(10, 2))
        ys = np.random.default_rng(5).integers(0, 2, size=10).astype(float)
        q = m.forward_batch(xs)[:, 0]
        direct = -(ys * np.log(q) + (1 - ys) * np.log(1 - q))
        np.testing.assert_allclose(m.trace(xs).loss(ys, "bce"), direct,
                                   rtol=1e-10)
