"""Tests for the analytic models: forwards, Jacobians, loss gradients."""

import json
import warnings

import numpy as np
import pytest
from scipy.special import expit

from dpswgrad.models import (_BLOCK_ROWS, _KINDS, _sigmoid, load_model,
                             make_model, model_from_meta, save_model)

from oracles import (bit_equal, central_diff, central_diff_jacobian, forward,
                     penalty_jacobian_batch, penalty_model,
                     per_sample_jacobian, per_sample_loss_grad, rel_err)


def _theta_jacobian_fd(model, x, h=1e-6):
    base = model.theta.copy()

    def fn(theta):
        model.theta[:] = theta
        out = forward(model, x)
        model.theta[:] = base
        return out

    return central_diff_jacobian(fn, base, h=h)


def _loss_grad_fd(model, x, target, h=1e-6):
    base = model.theta.copy()

    def fn(theta):
        model.theta[:] = theta
        val = float(model.trace(x[None, :]).loss(
            np.asarray(target).reshape(1, -1))[0])
        model.theta[:] = base
        return val

    return central_diff(fn, base, h=h)


class TestAffine:
    def test_forward_is_linear(self):
        m = make_model("affine", 2, output_dim=2,
                       theta=np.array([1.0, 0.0, 0.0, 1.0, 0.5, -0.5]))
        np.testing.assert_allclose(forward(m, np.array([2.0, 3.0])),
                                   [2.5, 2.5])

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(40)
        for i in range(50):
            m = make_model("affine", 3, output_dim=2, seed=i)
            x = rng.normal(size=3)
            assert rel_err(per_sample_jacobian(m, x),
                           _theta_jacobian_fd(m, x)) < 1e-5

    def test_squared_error_gradient_fd(self):
        rng = np.random.default_rng(41)
        for i in range(50):
            m = make_model("affine", 3, output_dim=2, seed=i)
            x = rng.normal(size=3)
            y = rng.normal(size=2)
            g = per_sample_loss_grad(m, x, y)
            assert rel_err(g, _loss_grad_fd(m, x, y)) < 1e-5


class TestAffineSigmoid:
    def test_zero_parameters_give_half(self):
        m = make_model("affine_sigmoid", 4, theta=np.zeros(5))
        for x in np.random.default_rng(0).normal(size=(5, 4)):
            assert forward(m, x)[0] == 0.5

    def test_jacobian_at_zero_theta(self):
        x = np.array([0.7, -0.2])
        m = make_model("affine_sigmoid", 2, theta=np.zeros(3))
        jac = per_sample_jacobian(m, x)
        np.testing.assert_allclose(jac, 0.25 * np.array([[0.7, -0.2, 1.0]]))

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for i in range(60):
            m = make_model("affine_sigmoid", 3, seed=i)
            x = rng.normal(size=3)
            assert rel_err(per_sample_jacobian(m, x),
                           _theta_jacobian_fd(m, x)) < 1e-5

    def test_bce_gradient_closed_form_and_fd(self):
        rng = np.random.default_rng(2)
        for i in range(40):
            m = make_model("affine_sigmoid", 3, seed=100 + i)
            xs = rng.normal(size=(4, 3))
            ys = rng.integers(0, 2, size=4).astype(float)
            trace = m.trace(xs)
            values = trace.loss_and_grads(ys)[0]
            np.testing.assert_array_equal(values, m.trace(xs).loss(ys))
            for j, (x, y) in enumerate(zip(xs, ys)):
                # row j of the library's per-sample gradients, from a
                # backward of its own: layer_sums spends the gradients
                grads = trace.loss_and_grads(ys)[1]
                g = trace.weighted_sum(grads.layer_sums(np.eye(4)[:, [j]]))
                q = forward(m, x)[0]
                np.testing.assert_allclose(
                    g, (q - y) * np.concatenate([x, [1.0]]), rtol=1e-12)
                assert rel_err(g, _loss_grad_fd(m, x, y)) < 1e-5

    def test_bce_rejects_non_binary_targets(self):
        m = make_model("affine_sigmoid", 2, seed=0)
        with pytest.raises(ValueError, match="0 or 1"):
            m.trace(np.zeros((1, 2))).loss(np.array([0.5]))
        with pytest.raises(ValueError, match="0 or 1"):
            m.trace(np.zeros((1, 2))).loss_and_grads(np.array([0.5]))


class TestMlp2:
    def _reference_forward(self, m, x):
        # independent straightforward re-implementation with explicit loops
        h, q, d = m.meta()["hidden_dim"], m.input_dim, m.output_dim
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
            if m.meta()["output_activation"] == "sigmoid_recentered":
                out.append(1.0 / (1.0 + np.exp(-z)) - 0.5)
            else:
                out.append(z)
        return np.array(out)

    def test_forward_against_duplicate_evaluation(self):
        rng = np.random.default_rng(3)
        for i in range(10):
            m = make_model("mlp2", 4, hidden_dim=5, output_dim=2, seed=i)
            x = rng.normal(size=4)
            np.testing.assert_allclose(forward(m, x),
                                       self._reference_forward(m, x),
                                       rtol=1e-12)

    def test_recentered_outputs_bounded(self):
        m = make_model("mlp2", 3, hidden_dim=8, output_dim=2, seed=0)
        outs = m.forward_batch(np.random.default_rng(0).normal(size=(50, 3)))
        assert np.all(np.abs(outs) < 0.5)

    @pytest.mark.parametrize("activation", ["sigmoid_recentered", "linear"])
    def test_jacobian_matches_finite_differences(self, activation):
        rng = np.random.default_rng(4)
        for i in range(30):
            m = make_model("mlp2", 3, hidden_dim=4, output_dim=2,
                           output_activation=activation, seed=i)
            x = rng.normal(size=3)
            assert rel_err(per_sample_jacobian(m, x),
                           _theta_jacobian_fd(m, x)) < 1e-5

    def test_squared_error_gradient_fd(self):
        rng = np.random.default_rng(5)
        for i in range(40):
            m = make_model("mlp2", 3, hidden_dim=4, output_dim=2, seed=50 + i)
            x = rng.normal(size=3)
            y = rng.uniform(-0.4, 0.4, size=2)
            g = per_sample_loss_grad(m, x, y)
            assert rel_err(g, _loss_grad_fd(m, x, y)) < 1e-5

    def test_gradient_zero_at_exact_fit(self):
        m = make_model("mlp2", 2, hidden_dim=3, output_dim=2, seed=0)
        x = np.array([0.1, 0.2])
        y = forward(m, x)
        g = per_sample_loss_grad(m, x, y)
        np.testing.assert_allclose(g, 0.0, atol=1e-14)


@pytest.mark.parametrize("kind", _KINDS)
def test_penalty_reads_at_most_two_layers(kind):
    # Trace.jacobian_rows factors the rows of at most two layers, the
    # layers every kind's penalty reads, whatever the depth of the trace
    model = make_model(kind, 3, seed=0)
    trace = model.trace(np.zeros((2, 3)))
    depth = model.penalty_layers or len(trace.sigs)
    assert depth <= 2
    rows = trace.jacobian_rows()
    assert rows.shape == (2, model.penalty_dim)
    assert len(rows.blocks) == depth
    assert trace.penalty_output.shape == (2, model.penalty_dim)


B = _BLOCK_ROWS


@pytest.fixture(scope="module")
def paper_rows():
    return np.random.default_rng(7).normal(size=(30000, 16))


@pytest.mark.parametrize("kind", _KINDS)
def test_forward_batch_blocks_match_one_trace(kind, paper_rows):
    # forward_batch traces blocks of B rows, the remainder folded into the
    # last block; its outputs and penalty outputs hold the bits of one
    # trace of the whole batch, on both sides of every block boundary
    model = make_model(kind, 16, seed=3)
    for n in (1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 5,
              30000):
        x = paper_rows[:n]
        whole = model.trace(x)
        assert bit_equal(model.forward_batch(x), whole.output), n
        assert bit_equal(model.forward_batch(x, penalty=True),
                         whole.penalty_output), n


class TestAutoencoder:
    def test_reconstruction_jacobian_fd(self):
        rng = np.random.default_rng(6)
        for i in range(40):
            m = make_model("autoencoder", 3, hidden_dim=4, latent_dim=2,
                           seed=i)
            x = rng.normal(size=3)
            assert rel_err(per_sample_jacobian(m, x),
                           _theta_jacobian_fd(m, x)) < 1e-5

    def test_latent_jacobian_fd(self):
        rng = np.random.default_rng(7)
        for i in range(30):
            m = make_model("autoencoder", 3, hidden_dim=4, latent_dim=2,
                           seed=10 + i)
            x = rng.normal(size=3)
            base = m.theta.copy()

            def encode(theta):
                m.theta[:] = theta
                out = m.trace(x[None, :]).penalty_output[0]
                m.theta[:] = base
                return out

            fd = central_diff_jacobian(encode, base)
            got = penalty_jacobian_batch(m, x[None, :])[0]
            assert rel_err(got, fd) < 1e-5

    def test_latent_jacobian_zero_on_decoder_block(self):
        m = make_model("autoencoder", 3, hidden_dim=4, latent_dim=2, seed=0)
        jac = penalty_jacobian_batch(m, np.zeros((1, 3)))[0]
        n_encoder = (3 + 1) * 4 + (4 + 1) * 2    # 3 -> 4 -> 2 layers
        assert np.all(jac[:, n_encoder:] == 0.0)
        assert np.any(jac[:, :n_encoder] != 0.0)

    def test_reconstruction_gradient_fd(self):
        rng = np.random.default_rng(8)
        for i in range(30):
            m = make_model("autoencoder", 3, hidden_dim=4, latent_dim=2,
                           seed=20 + i)
            x = rng.normal(size=3)
            g = per_sample_loss_grad(m, x, x)
            assert rel_err(g, _loss_grad_fd(m, x, x)) < 1e-5

    def test_perfect_reconstruction_zero_gradient(self):
        m = make_model("autoencoder", 2, hidden_dim=3, latent_dim=2, seed=0)
        x = np.array([0.4, -0.1])
        target = forward(m, x)  # pretend the target is whatever it outputs
        g = per_sample_loss_grad(m, x, target)
        np.testing.assert_allclose(g, 0.0, atol=1e-14)


class TestFactoryAndCheckpoint:
    def test_factory_defaults(self):
        assert make_model("mlp2", 16, seed=0).meta()["hidden_dim"] == 64
        assert make_model("autoencoder", 16, seed=0).meta()["hidden_dim"] == 62
        assert make_model("autoencoder", 16, seed=0).meta()["latent_dim"] == 2
        with pytest.raises(ValueError):
            make_model("transformer", 4, seed=0)

    @pytest.mark.parametrize("build, message", [
        (lambda: make_model("transformer", 4, seed=0),
         r"^unknown model kind 'transformer'; expected one of \('affine', "
         r"'affine_sigmoid', 'mlp2', 'autoencoder'\)$"),
        # a reference sample is an array of outputs, not a model
        (lambda: make_model("identity", 3),
         r"^unknown model kind 'identity'; expected one of \('affine', "),
        (lambda: make_model("mlp2", 3, hidden_dim=0, seed=0),
         r"^layer dimensions must be >= 1$"),
        (lambda: make_model("mlp2", 3, hidden_dim=4, theta=np.zeros(25)),
         r"^theta size must be 26$"),
        (lambda: make_model("affine", 3), r"^a seed is required"),
        (lambda: make_model("mlp2", 3, output_activation="sigmoid", seed=0),
         r"^unknown output activation 'sigmoid'$"),
    ], ids=["kind", "identity", "width", "theta_size", "no_seed",
            "output_activation"])
    def test_construction_checks(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_seeded_init_reproducible(self):
        a = make_model("mlp2", 5, seed=9)
        b = make_model("mlp2", 5, seed=9)
        np.testing.assert_array_equal(a.theta, b.theta)
        c = make_model("mlp2", 5, seed=10)
        assert not np.array_equal(a.theta, c.theta)

    @pytest.mark.parametrize("kind, meta", [
        ("affine", {"output_dim": 2}),
        ("affine_sigmoid", {"output_dim": 1}),
        ("mlp2", {"output_dim": 2, "hidden_dim": 64,
                  "hidden_activation": "sigmoid",
                  "output_activation": "sigmoid_recentered"}),
        ("autoencoder", {"output_dim": 4, "hidden_dim": 62,
                         "hidden_activation": "sigmoid", "latent_dim": 2}),
    ], ids=["affine", "affine_sigmoid", "mlp2", "autoencoder"])
    def test_checkpoint_round_trip(self, tmp_path, kind, meta):
        m = make_model(kind, 4, seed=3)
        path = tmp_path / "model.json"
        save_model(m, path)
        m2 = load_model(path)
        assert m2.kind == m.kind
        np.testing.assert_array_equal(m2.theta, m.theta)
        x = np.random.default_rng(0).normal(size=(6, 4))
        np.testing.assert_array_equal(m.forward_batch(x), m2.forward_batch(x))
        # the metadata records and artifacts store, field for field and
        # type for type (ints stay ints)
        expected = {"kind": kind, "input_dim": 4, **meta}

        def typed(doc):
            return {key: (value, type(value)) for key, value in doc.items()}

        rebuilt = model_from_meta(m.meta(), m.theta)
        assert typed(m.meta()) == typed(expected)
        assert typed(rebuilt.meta()) == typed(expected)
        for read in ("output", "penalty_output"):
            np.testing.assert_array_equal(getattr(rebuilt.trace(x), read),
                                          getattr(m.trace(x), read))

    @pytest.mark.parametrize("kind, field, value", [
        ("mlp2", "hidden_activation", "linear"),
        ("affine_sigmoid", "output_dim", 5),
        ("affine", "latent_dim", 3),
    ], ids=["mlp2_linear_hidden", "affine_sigmoid_five_outputs",
            "affine_latent_dim"])
    def test_meta_of_another_model_refused(self, tmp_path, kind, field,
                                           value):
        # a record that the model it would load does not match, field for
        # field, is refused, not loaded as a different model
        m = make_model(kind, 3, seed=1)
        path = tmp_path / "model.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        for load in (lambda: load_model(path),
                     lambda: model_from_meta({**m.meta(), field: value},
                                             m.theta)):
            with pytest.raises(ValueError,
                               match=f"model meta field '{field}' is"):
                load()

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
        np.testing.assert_allclose(m.trace(xs).loss(ys), direct,
                                   rtol=1e-10)


class TestSigmoid:
    """``models._sigmoid`` against SciPy's ``expit`` and exact values."""

    def test_agrees_with_expit(self):
        z = np.linspace(-745.0, 745.0, 14901)
        got, want = _sigmoid(z), expit(z)
        assert np.array_equal(got == 0.0, want == 0.0)
        nz = want > 0.0
        assert np.max(np.abs(got[nz] - want[nz]) / want[nz]) <= 4e-16

    def test_close_to_exact_values(self):
        # the 1 + exp(-z) sum is rounded at a spacing of 2 near z = -37,
        # where the exp values of NumPy and of the C library, each within
        # an ulp, can round it apart; both stay this close to the truth
        mpmath = pytest.importorskip("mpmath")
        z = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                            np.linspace(-37.0, -36.5, 2001)])
        with mpmath.workdps(40):
            exact = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(t))))
                              for t in z])
        got = _sigmoid(z)
        assert np.max(np.abs(got - exact) / exact) <= 4e-16

    def test_saturates_without_warnings(self):
        z = np.array([-800.0, -746.0, 0.0, 746.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _sigmoid(z)
        assert s[0] == 0.0 and s[1] == 0.0 and s[-1] == 1.0 and s[-2] == 1.0
        assert s[2] == 0.5

    def test_input_is_not_written(self):
        z = np.linspace(-3.0, 3.0, 7)
        before = z.copy()
        _sigmoid(z)
        np.testing.assert_array_equal(z, before)


class TestDerivativeCache:
    """The penalty's Jacobian rows of a whole-stack trace read its
    derivatives."""

    @pytest.mark.parametrize("kind", ["mlp2", "autoencoder"])
    @pytest.mark.parametrize("rows", [slice(0, 23), slice(23, 60),
                                      slice(None)],
                             ids=["head", "tail", "all"])
    def test_penalty_rows_backward_is_the_blocks_own(self, kind, rows):
        # a block of rows of the whole trace's Jacobian rows is the
        # Jacobian rows of the block's own trace through a standalone
        # model of the penalty's layers, after a loss backward of the
        # whole
        model = make_model(kind, 5, seed=7)
        x = np.random.default_rng(8).normal(size=(60, 5))
        d = model.penalty_dim
        whole = model.trace(x)
        whole.loss_and_grads(x if kind == "autoencoder"
                             else np.zeros((60, 2)))
        got = whole.jacobian_rows()
        sub = penalty_model(model)
        block = sub.trace(x[rows])
        want = block.jacobian_rows()
        assert len(got.blocks) == len(want.blocks)
        for j in range(d):
            # each layer's row cotangents of output j: its one-hot sums
            at_j = np.zeros(got.shape)
            at_j[:, j] = 1.0
            for g, w in zip(got.layer_sums(at_j), want.layer_sums(at_j[rows])):
                assert g[rows].shape == w.shape
                assert bit_equal(g[rows], w)
        assert bit_equal(got.norms()[rows], want.norms())
        if rows == slice(None):
            weights = np.random.default_rng(9).normal(size=got.shape)
            total = whole.weighted_sum(got.layer_sums(weights))
            assert bit_equal(total[:sub.n_params],
                             block.weighted_sum(want.layer_sums(weights)))
            assert np.all(total[sub.n_params:] == 0.0)

    def test_derivatives_computed_once_and_shared(self):
        # no forward pass computes them; the loss backward of the whole
        # computes each once, and the penalty's Jacobian rows, of the
        # first penalty_layers layers, reuse those arrays
        model = make_model("autoencoder", 5, seed=7)
        x = np.random.default_rng(8).normal(size=(40, 5))
        whole = model.trace(x)
        assert whole.penalty_output is whole.acts[model.penalty_layers]
        assert len(whole.jacobian_rows().blocks) == model.penalty_layers
        whole = model.trace(x)
        assert all(d is None for d in whole.derivs)
        whole.loss_and_grads(x)
        first = list(whole.derivs)
        assert [d is None for d in first] == [s is None for s in whole.sigs]
        whole.jacobian_rows()
        assert all(d is f for d, f in zip(whole.derivs, first))
        # a penalty that reads every layer reads the whole output
        mlp = make_model("mlp2", 5, seed=7)
        whole = mlp.trace(x)
        assert whole.penalty_output is whole.output
