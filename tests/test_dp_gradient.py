"""Tests for clipping operators and the clipped Wasserstein gradient proxy."""

import numpy as np
import pytest

from dpswgrad.dp_gradient import (ClipConfig, clip_jacobian_naive,
                                  clip_vector, clipped_erm_grad,
                                  clipped_wasserstein_grad,
                                  penalized_objective)
from dpswgrad.models import IdentityModel, Mlp2Model, make_model
from dpswgrad.ot_core import w2_squared
from dpswgrad.sliced import sample_directions, sw2_squared_mc

from oracles import central_diff, rel_err, spectral_norm_power_iteration

NO_CLIP = ClipConfig(1e9, 1e9, 1e9, 1e9)


def _fd_theta_grad(model, fn, h=1e-6):
    """Finite differences of a scalar objective through model.theta."""
    base = model.theta.copy()

    def wrapped(theta):
        model.theta[:] = theta
        val = fn()
        model.theta[:] = base
        return val

    return central_diff(wrapped, base, h=h)


def _separated(u, v, min_gap=1e-4):
    """True when all within-sample gaps are comfortably larger than FD h."""
    def ok(w):
        w = np.sort(np.asarray(w).reshape(-1))
        return w.size < 2 or np.min(np.diff(w)) > min_gap
    return ok(u) and ok(v)


class TestClipConfig:
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bounds_must_be_finite_and_non_negative(self, bad):
        for i in range(4):
            bounds = [1.0, 1.0, 1.0, 1.0]
            bounds[i] = bad
            with pytest.raises(ValueError, match="finite and >= 0"):
                ClipConfig(*bounds)


class TestClipVector:
    def test_inside_ball_unchanged(self):
        v = np.array([0.3, -0.4])
        np.testing.assert_array_equal(clip_vector(v, 1.0), v)

    def test_rescaled_to_radius(self):
        np.testing.assert_allclose(clip_vector(np.array([3.0, 4.0]), 1.0),
                                   [0.6, 0.8])

    def test_scalar_is_clamp(self):
        assert clip_vector(np.array([5.0]), 2.0)[0] == 2.0
        assert clip_vector(np.array([-5.0]), 2.0)[0] == -2.0
        assert clip_vector(np.array([1.5]), 2.0)[0] == 1.5

    def test_zero_vector_unchanged(self):
        np.testing.assert_array_equal(clip_vector(np.zeros(3), 0.0),
                                      np.zeros(3))

    def test_direction_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=4)
            c = clip_vector(v, 0.5)
            assert np.dot(c, v) >= 0.0
            assert np.linalg.norm(c) <= 0.5 + 1e-12


class TestClipJacobianNaive:
    def test_one_row_equals_vector_clip(self):
        row = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(clip_jacobian_naive(row, 1.0),
                                   clip_vector(row[0], 1.0)[None, :])

    def test_rows_within_budget_unchanged(self):
        jac = np.full((4, 3), 0.01)
        np.testing.assert_array_equal(clip_jacobian_naive(jac, 1.0), jac)

    def test_spectral_norm_capped(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            jac = rng.normal(size=(3, 5)) * 5.0
            clipped = clip_jacobian_naive(jac, 1.0)
            assert spectral_norm_power_iteration(clipped) <= 1.0 + 1e-12

    def test_batch_form_matches_per_sample(self):
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(6, 3, 4)) * 2.0
        out = clip_jacobian_naive(batch, 0.7)
        for i in range(6):
            np.testing.assert_allclose(out[i],
                                       clip_jacobian_naive(batch[i], 0.7))


class TestClippedWassersteinGrad1D:
    def test_zero_when_both_sides_identical(self):
        model = make_model("affine_sigmoid", 3, seed=0)
        x = np.random.default_rng(0).normal(size=(6, 3))
        g = clipped_wasserstein_grad(model, model, x, x.copy(), NO_CLIP)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_matches_fd_through_affine_sigmoid(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 25:
            model = make_model("affine_sigmoid", 3, seed=int(rng.integers(1e6)))
            x = rng.normal(size=(6, 3))
            z = rng.normal(size=(4, 3))
            u = model.forward_batch(x)[:, 0]
            v = model.forward_batch(z)[:, 0]
            if not _separated(np.concatenate([u]), v):
                continue
            grad = clipped_wasserstein_grad(model, model, x, z, NO_CLIP)
            fd = _fd_theta_grad(model, lambda: w2_squared(
                model.forward_batch(x)[:, 0], model.forward_batch(z)[:, 0]))
            assert rel_err(grad, fd) < 1e-5
            checked += 1

    def test_one_sided_parameter_free_reference(self):
        # data-generation shape: the x side is an identity map (no params)
        rng = np.random.default_rng(4)
        gen = make_model("affine_sigmoid", 2, seed=5)
        ident = IdentityModel(1)
        x = rng.normal(size=(5, 1))
        z = rng.normal(size=(7, 2))
        grad = clipped_wasserstein_grad(ident, gen, x, z, NO_CLIP)
        assert grad.shape == (gen.n_params,)
        fd = _fd_theta_grad(gen, lambda: w2_squared(
            x[:, 0], gen.forward_batch(z)[:, 0]))
        assert rel_err(grad, fd) < 1e-5

    def test_two_distinct_parametric_models_rejected(self):
        a = make_model("affine_sigmoid", 2, seed=0)
        b = make_model("affine_sigmoid", 2, seed=1)
        with pytest.raises(ValueError):
            clipped_wasserstein_grad(a, b, np.zeros((2, 2)), np.zeros((2, 2)),
                                     NO_CLIP)

    def test_empty_slice_rejected(self):
        m = make_model("affine_sigmoid", 2, seed=0)
        with pytest.raises(ValueError):
            clipped_wasserstein_grad(m, m, np.zeros((0, 2)), np.zeros((2, 2)),
                                     NO_CLIP)


class TestClippedWassersteinGradSliced:
    def test_matches_fd_through_mlp2(self):
        rng = np.random.default_rng(5)
        dirs = sample_directions(2, 7, seed=9)
        checked = 0
        while checked < 10:
            model = Mlp2Model(3, hidden_dim=4, output_dim=2,
                              seed=int(rng.integers(1e6)))
            x = rng.normal(size=(5, 3))
            z = rng.normal(size=(6, 3))
            pu = model.forward_batch(x) @ dirs.directions.T
            pv = model.forward_batch(z) @ dirs.directions.T
            if not all(_separated(pu[:, k], pv[:, k]) for k in range(dirs.k)):
                continue
            grad = clipped_wasserstein_grad(model, model, x, z, NO_CLIP, dirs)
            fd = _fd_theta_grad(model, lambda: sw2_squared_mc(
                model.forward_batch(x), model.forward_batch(z), dirs))
            assert rel_err(grad, fd) < 1e-5
            checked += 1

    def test_requires_directions_for_multidim_outputs(self):
        model = Mlp2Model(3, hidden_dim=4, output_dim=2, seed=0)
        x = np.zeros((3, 3))
        with pytest.raises(ValueError):
            clipped_wasserstein_grad(model, model, x, x, NO_CLIP)

    def test_dimension_mismatch_rejected(self):
        model = Mlp2Model(3, hidden_dim=4, output_dim=2, seed=0)
        dirs = sample_directions(3, 4, seed=0)
        x = np.zeros((3, 3))
        with pytest.raises(ValueError):
            clipped_wasserstein_grad(model, model, x, x, NO_CLIP, dirs)

    def test_norm_bound_randomized(self):
        rng = np.random.default_rng(6)
        dirs = sample_directions(2, 5, seed=3)
        for trial in range(300):
            out_b = float(rng.uniform(0.1, 2.0))
            j1 = float(rng.uniform(0.0, 2.0))
            j2 = float(rng.uniform(0.0, 2.0))
            clip = ClipConfig(out_b, j1, j2, 0.0)
            model = Mlp2Model(2, hidden_dim=3, output_dim=2,
                              seed=trial)
            # scale parameters up so clipping actually bites
            model.theta *= rng.uniform(1.0, 30.0)
            x = rng.normal(size=(int(rng.integers(1, 7)), 2)) * 3.0
            z = rng.normal(size=(int(rng.integers(1, 7)), 2)) * 3.0
            grad = clipped_wasserstein_grad(model, model, x, z, clip, dirs)
            assert np.linalg.norm(grad) <= 4 * out_b * (j1 + j2) + 1e-10

    def test_clipping_noop_when_bounds_loose(self):
        model = Mlp2Model(2, hidden_dim=3, output_dim=2, seed=1)
        dirs = sample_directions(2, 6, seed=2)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 2))
        z = rng.normal(size=(5, 2))
        tight = clipped_wasserstein_grad(
            model, model, x, z, ClipConfig(50.0, 50.0, 50.0), dirs)
        loose = clipped_wasserstein_grad(model, model, x, z, NO_CLIP, dirs)
        np.testing.assert_allclose(tight, loose, atol=1e-10)


class TestObjectiveGrads:
    def _setup(self, seed=0, n=12, d=3):
        rng = np.random.default_rng(seed)
        model = make_model("affine_sigmoid", d, seed=seed)
        x0 = rng.normal(size=(n // 2, d))
        x1 = rng.normal(size=(n - n // 2, d)) + 0.5
        x_full = np.concatenate([x0, x1])
        y_full = rng.integers(0, 2, size=n).astype(float)
        clip = ClipConfig(1.0, 1.0, 1.0, 5.0)
        return model, x0, x1, x_full, y_full, clip

    def test_alpha_zero_is_clipped_erm(self):
        model, x0, x1, x_full, y_full, clip = self._setup()
        erm_val, w_val, total, g = penalized_objective(
            model, [(x0, model, x1)], 0.0, clip, erm=(x_full, y_full, "bce"))
        erm = clipped_erm_grad(model, x_full, y_full, "bce", clip.loss_grad_bound)
        np.testing.assert_allclose(g, erm, atol=1e-15)
        # the penalty value is still reported when its gradient is skipped
        assert w_val > 0.0 and total == erm_val

    def test_alpha_one_is_pure_penalty(self):
        model, x0, x1, x_full, y_full, clip = self._setup()
        erm_val, w_val, total, g = penalized_objective(
            model, [(x0, model, x1)], 1.0, clip, erm=(x_full, y_full, "bce"))
        w = clipped_wasserstein_grad(model, model, x0, x1, clip)
        np.testing.assert_allclose(g, w, atol=1e-15)
        want = np.mean(model.loss_batch(x_full, y_full, "bce"))
        assert erm_val == pytest.approx(want, rel=1e-15)
        assert total == w_val

    def test_alpha_half_combines_halves(self):
        model, x0, x1, x_full, y_full, clip = self._setup(seed=3)
        erm_val, w_val, total, g = penalized_objective(
            model, [(x0, model, x1)], 0.5, clip, erm=(x_full, y_full, "bce"))
        erm = clipped_erm_grad(model, x_full, y_full, "bce", clip.loss_grad_bound)
        w = clipped_wasserstein_grad(model, model, x0, x1, clip)
        np.testing.assert_allclose(g, 0.5 * erm + 0.5 * w, atol=1e-14)
        assert total == pytest.approx(0.5 * erm_val + 0.5 * w_val, rel=1e-15)

    def test_empty_class_batch_rejected(self):
        model, x0, x1, x_full, y_full, clip = self._setup()
        with pytest.raises(ValueError):
            penalized_objective(model, [(np.zeros((0, 3)), model, x1)], 0.5,
                                clip, erm=(x_full, y_full, "bce"))

    def test_penalty_needs_a_pair(self):
        model, _, _, x_full, y_full, clip = self._setup()
        with pytest.raises(ValueError, match="penalty pair"):
            penalized_objective(model, [], 0.5, clip,
                                erm=(x_full, y_full, "bce"))

    def test_eo_combines_per_label_terms(self):
        model, x0, x1, x_full, y_full, clip = self._setup(seed=5)
        rng = np.random.default_rng(6)
        batches = {(j, k): rng.normal(size=(4, 3)) + j - k
                   for j in (0, 1) for k in (0, 1)}
        pairs = [(batches[(0, k)], model, batches[(1, k)]) for k in (0, 1)]
        _, w_val, _, g = penalized_objective(model, pairs, 0.4, clip,
                                             erm=(x_full, y_full, "bce"))
        erm = clipped_erm_grad(model, x_full, y_full, "bce", clip.loss_grad_bound)
        w0 = clipped_wasserstein_grad(model, model, batches[(0, 0)],
                                      batches[(1, 0)], clip)
        w1 = clipped_wasserstein_grad(model, model, batches[(0, 1)],
                                      batches[(1, 1)], clip)
        np.testing.assert_allclose(g, 0.6 * erm + 0.2 * (w0 + w1), atol=1e-14)
        values = [penalized_objective(model, [pair], 1.0, clip)[1]
                  for pair in pairs]
        assert w_val == pytest.approx(np.mean(values), rel=1e-15)

    def test_eo_missing_batch_rejected(self):
        model, x0, x1, x_full, y_full, clip = self._setup()
        pairs = [(x0, model, x1), (x0, model, np.zeros((0, 3)))]
        with pytest.raises(ValueError):
            penalized_objective(model, pairs, 0.4, clip,
                                erm=(x_full, y_full, "bce"))

    def test_eo_zero_penalty_when_distributions_identical(self):
        model, x0, x1, x_full, y_full, clip = self._setup(seed=7)
        pairs = [(x0.copy(), model, x0.copy()) for _ in (0, 1)]
        _, w_val, _, g = penalized_objective(model, pairs, 1.0, clip,
                                             erm=(x_full, y_full, "bce"))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)
        assert w_val == 0.0

    def test_penalty_value_reports_clipped_distance(self):
        model, x0, x1, _, _, _ = self._setup(seed=8)
        erm_val, val, total, _ = penalized_objective(
            model, [(x0, model, x1)], 1.0, ClipConfig(0.5, 1.0, 1.0))
        u = np.clip(model.forward_batch(x0)[:, 0], -0.5, 0.5)
        v = np.clip(model.forward_batch(x1)[:, 0], -0.5, 0.5)
        assert val == pytest.approx(w2_squared(u, v), rel=1e-12)
        assert erm_val == 0.0 and total == val

    def test_reference_pair_matches_plain_gradient(self):
        # generation: model outputs against a parameter-free reference
        model = Mlp2Model(2, hidden_dim=3, output_dim=2,
                          output_activation="linear", seed=4)
        dirs = sample_directions(2, 5, seed=1)
        rng = np.random.default_rng(9)
        x, z = rng.normal(size=(6, 2)), rng.normal(size=(7, 2))
        clip = ClipConfig(1.0, 1.0, 0.0)
        _, w_val, total, g = penalized_objective(
            model, [(x, IdentityModel(2), z)], 1.0, clip, dirs)
        np.testing.assert_array_equal(
            g, clipped_wasserstein_grad(model, IdentityModel(2), x, z, clip,
                                        dirs))
        assert total == w_val > 0.0
