"""Tests for clipping operators and the penalized objective's clipped gradient."""

import warnings

import numpy as np
import pytest

from dpswgrad.dp_gradient import ClipConfig, clip_rows, penalized_objective
from dpswgrad.models import make_model
from dpswgrad.ot_core import (quantile_coupling, w2_grad_columns,
                              w2_squared_columns)
from dpswgrad.sliced import sample_directions

from oracles import (central_diff, clip_jacobian_naive, clip_vector,
                     jacobian_batch, loss_grad_batch, penalty_jacobian_batch,
                     penalty_model, rel_err, spectral_norm_power_iteration,
                     stacked_pairs)

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


def _clip_one(v, bound):
    """``clip_rows`` of the single row ``v``, checked against the reference."""
    got = clip_rows(np.asarray(v, dtype=np.float64)[None, :], bound)[0]
    np.testing.assert_allclose(got, clip_vector(v, bound), rtol=1e-15,
                               atol=0.0)
    return got


class TestClipVector:
    def test_inside_ball_unchanged(self):
        v = np.array([0.3, -0.4])
        np.testing.assert_array_equal(_clip_one(v, 1.0), v)

    def test_rescaled_to_radius(self):
        np.testing.assert_allclose(_clip_one(np.array([3.0, 4.0]), 1.0),
                                   [0.6, 0.8])

    def test_scalar_is_clamp(self):
        assert _clip_one(np.array([5.0]), 2.0)[0] == 2.0
        assert _clip_one(np.array([-5.0]), 2.0)[0] == -2.0
        assert _clip_one(np.array([1.5]), 2.0)[0] == 1.5

    def test_zero_vector_unchanged(self):
        np.testing.assert_array_equal(_clip_one(np.zeros(3), 0.0),
                                      np.zeros(3))

    def test_overflowing_norm_is_clipped_not_zeroed(self):
        # ||row|| overflows to inf; the other rows keep their exact clip
        rows = np.array([[1e200, 1e200], [3e307, -1e308], [3.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = clip_rows(rows, 1.0)
        for row, want in zip(got[:2], ([1.0, 1.0], [0.3, -1.0])):
            assert abs(np.linalg.norm(row) - 1.0) <= 1e-15
            np.testing.assert_allclose(row, want / np.linalg.norm(want),
                                       rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(got[2], clip_rows(rows[2:], 1.0)[0])

    def test_direction_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=4)
            c = _clip_one(v, 0.5)
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
        batch, pairs = stacked_pairs(model, [(x, model, x.copy())])
        g = penalized_objective(model, batch, pairs, 1.0, NO_CLIP)[3]
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_matches_fd_through_affine_sigmoid(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 25:
            model = make_model("affine_sigmoid", 3,
                               seed=int(rng.integers(1e6)))
            x = rng.normal(size=(6, 3))
            z = rng.normal(size=(4, 3))
            u = model.forward_batch(x)[:, 0]
            v = model.forward_batch(z)[:, 0]
            if not _separated(np.concatenate([u]), v):
                continue
            batch, pairs = stacked_pairs(model, [(x, model, z)])
            grad = penalized_objective(model, batch, pairs, 1.0, NO_CLIP)[3]
            fd = _fd_theta_grad(model, lambda: w2_squared_columns(
                model.forward_batch(x), model.forward_batch(z))[0])
            assert rel_err(grad, fd) < 1e-5
            checked += 1

    def test_one_sided_parameter_free_reference(self):
        # data-generation shape: the z side is an identity map (no params)
        rng = np.random.default_rng(4)
        gen = make_model("affine_sigmoid", 2, seed=5)
        ident = make_model("identity", 1)
        x = rng.normal(size=(5, 1))
        z = rng.normal(size=(7, 2))
        batch, pairs = stacked_pairs(gen, [(z, ident, x)])
        grad = penalized_objective(gen, batch, pairs, 1.0, NO_CLIP)[3]
        assert grad.shape == (gen.n_params,)
        fd = _fd_theta_grad(gen, lambda: w2_squared_columns(
            x, gen.forward_batch(z))[0])
        assert rel_err(grad, fd) < 1e-5

    def test_outputs_beyond_bound_match_explicit_clamp(self):
        # scalar outputs take the one-direction sliced path, whose row
        # scaling may differ from a clamp to [-B, B] by an ulp
        model = make_model("affine", 2, output_dim=1,
                           theta=np.array([1.0, 0.5, 0.0]))
        x = np.array([[49.0, 0.0], [0.3, -0.2], [-3.1, 1.0], [0.3, 0.1]])
        z = np.array([[0.1, 0.4], [-3.0, 0.0], [0.2, 0.3]])
        clip = ClipConfig(0.9, 1.0, 1.0)
        u = model.forward_batch(x)
        v = model.forward_batch(z)
        assert np.abs(u).max() > 0.9 and np.abs(v).max() > 0.9
        gu, gv, _ = w2_grad_columns(np.clip(u, -0.9, 0.9),
                                    np.clip(v, -0.9, 0.9))
        jx = clip_rows(jacobian_batch(model, x)[:, 0, :], 1.0)
        jz = clip_rows(jacobian_batch(model, z)[:, 0, :], 1.0)
        want = gu[:, 0] @ jx + gv[:, 0] @ jz
        batch, pairs = stacked_pairs(model, [(x, model, z)])
        got = penalized_objective(model, batch, pairs, 1.0, clip)[3]
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    def test_two_distinct_parametric_models_rejected(self):
        a = make_model("affine_sigmoid", 2, seed=0)
        b = make_model("affine_sigmoid", 2, seed=1)
        with pytest.raises(ValueError):
            batch, pairs = stacked_pairs(
                a, [(np.zeros((2, 2)), b, np.zeros((2, 2)))])
            penalized_objective(a, batch, pairs, 1.0, NO_CLIP)

    def test_empty_slice_rejected(self):
        m = make_model("affine_sigmoid", 2, seed=0)
        with pytest.raises(ValueError):
            batch, pairs = stacked_pairs(
                m, [(np.zeros((0, 2)), m, np.zeros((2, 2)))])
            penalized_objective(m, batch, pairs, 1.0, NO_CLIP)


class TestClippedWassersteinGradSliced:
    def test_matches_fd_through_mlp2(self):
        rng = np.random.default_rng(5)
        dirs = sample_directions(2, 7, seed=9)
        checked = 0
        while checked < 10:
            model = make_model("mlp2", 3, hidden_dim=4, output_dim=2,
                               seed=int(rng.integers(1e6)))
            x = rng.normal(size=(5, 3))
            z = rng.normal(size=(6, 3))
            pu = model.forward_batch(x) @ dirs.T
            pv = model.forward_batch(z) @ dirs.T
            if not all(_separated(pu[:, k], pv[:, k])
                       for k in range(dirs.shape[0])):
                continue
            batch, pairs = stacked_pairs(model, [(x, model, z)])
            grad = penalized_objective(model, batch, pairs, 1.0, NO_CLIP,
                                       dirs)[3]
            fd = _fd_theta_grad(model, lambda: w2_squared_columns(
                model.forward_batch(x) @ dirs.T,
                model.forward_batch(z) @ dirs.T).mean())
            assert rel_err(grad, fd) < 1e-5
            checked += 1

    def test_requires_directions_for_multidim_outputs(self):
        model = make_model("mlp2", 3, hidden_dim=4, output_dim=2, seed=0)
        x = np.zeros((3, 3))
        with pytest.raises(ValueError):
            batch, pairs = stacked_pairs(model, [(x, model, x)])
            penalized_objective(model, batch, pairs, 1.0, NO_CLIP)

    def test_dimension_mismatch_rejected(self):
        model = make_model("mlp2", 3, hidden_dim=4, output_dim=2, seed=0)
        dirs = sample_directions(3, 4, seed=0)
        x = np.zeros((3, 3))
        with pytest.raises(ValueError):
            batch, pairs = stacked_pairs(model, [(x, model, x)])
            penalized_objective(model, batch, pairs, 1.0, NO_CLIP, dirs)

    def test_norm_bound_randomized(self):
        rng = np.random.default_rng(6)
        dirs = sample_directions(2, 5, seed=3)
        for trial in range(300):
            out_b = float(rng.uniform(0.1, 2.0))
            j1 = float(rng.uniform(0.0, 2.0))
            j2 = float(rng.uniform(0.0, 2.0))
            clip = ClipConfig(out_b, j1, j2, 0.0)
            model = make_model("mlp2", 2, hidden_dim=3, output_dim=2,
                               seed=trial)
            # scale parameters up so clipping actually bites
            model.theta *= rng.uniform(1.0, 30.0)
            x = rng.normal(size=(int(rng.integers(1, 7)), 2)) * 3.0
            z = rng.normal(size=(int(rng.integers(1, 7)), 2)) * 3.0
            batch, pairs = stacked_pairs(model, [(x, model, z)])
            grad = penalized_objective(model, batch, pairs, 1.0, clip,
                                       dirs)[3]
            assert np.linalg.norm(grad) <= 4 * out_b * (j1 + j2) + 1e-10

    def test_clipping_noop_when_bounds_loose(self):
        model = make_model("mlp2", 2, hidden_dim=3, output_dim=2, seed=1)
        dirs = sample_directions(2, 6, seed=2)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 2))
        z = rng.normal(size=(5, 2))
        batch, pairs = stacked_pairs(model, [(x, model, z)])
        tight = penalized_objective(
            model, batch, pairs, 1.0, ClipConfig(50.0, 50.0, 50.0), dirs)[3]
        loose = penalized_objective(model, batch, pairs, 1.0, NO_CLIP,
                                    dirs)[3]
        np.testing.assert_allclose(tight, loose, atol=1e-10)


    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_no_directions_rejected(self, alpha):
        # zero directions used to give a NaN gradient at alpha 1 and a
        # ZeroDivisionError at alpha 0
        model = make_model("mlp2", 3, hidden_dim=4, output_dim=2, seed=0)
        x = np.random.default_rng(0).normal(size=(6, 3))
        erm = (np.zeros((6, 2)), "squared_error")
        with pytest.raises(ValueError, match="direction"):
            penalized_objective(model, x, [(slice(0, 3), model, slice(3, 6))],
                                alpha, NO_CLIP, np.zeros((0, 2)), erm)


class TestObjectiveGrads:
    def _setup(self, seed=0, n=12, d=3):
        rng = np.random.default_rng(seed)
        model = make_model("affine_sigmoid", d, seed=seed)
        x0 = rng.normal(size=(n // 2, d))
        x1 = rng.normal(size=(n - n // 2, d)) + 0.5
        x_full = np.concatenate([x0, x1])
        y_full = rng.integers(0, 2, size=n).astype(float)
        clip = ClipConfig(1.0, 1.0, 1.0, 5.0)
        # the one pair of the blocks x0 and x1 of the batch x_full
        pairs = [(slice(0, n // 2), model, slice(n // 2, n))]
        return model, x0, x1, x_full, y_full, pairs, clip

    def test_alpha_zero_is_clipped_erm(self):
        model, _, _, x_full, y_full, pairs, clip = self._setup()
        erm_val, w_val, total, g = penalized_objective(
            model, x_full, pairs, 0.0, clip, erm=(y_full, "bce"))
        erm = penalized_objective(model, x_full, pairs, 0.0, clip,
                                  erm=(y_full, "bce"))[3]
        np.testing.assert_allclose(g, erm, atol=1e-15)
        # the penalty value is still reported when its gradient is skipped
        assert w_val > 0.0 and total == erm_val

    def test_alpha_one_is_pure_penalty(self):
        model, _, _, x_full, y_full, pairs, clip = self._setup()
        erm_val, w_val, total, g = penalized_objective(
            model, x_full, pairs, 1.0, clip, erm=(y_full, "bce"))
        w = penalized_objective(model, x_full, pairs, 1.0, clip)[3]
        np.testing.assert_allclose(g, w, atol=1e-15)
        want = np.mean(model.trace(x_full).loss(y_full, "bce"))
        assert erm_val == pytest.approx(want, rel=1e-15)
        assert total == w_val

    def test_alpha_half_combines_halves(self):
        model, _, _, x_full, y_full, pairs, clip = self._setup(seed=3)
        erm_val, w_val, total, g = penalized_objective(
            model, x_full, pairs, 0.5, clip, erm=(y_full, "bce"))
        erm = penalized_objective(model, x_full, pairs, 0.0, clip,
                                  erm=(y_full, "bce"))[3]
        w = penalized_objective(model, x_full, pairs, 1.0, clip)[3]
        np.testing.assert_allclose(g, 0.5 * erm + 0.5 * w, atol=1e-14)
        assert total == pytest.approx(0.5 * erm_val + 0.5 * w_val, rel=1e-15)

    def test_empty_class_batch_rejected(self):
        model, _, _, x_full, y_full, _, clip = self._setup()
        with pytest.raises(ValueError):
            penalized_objective(model, x_full,
                                [(slice(0, 0), model, slice(6, 12))], 0.5,
                                clip, erm=(y_full, "bce"))
        with pytest.raises(ValueError, match="non-empty"):
            penalized_objective(model, x_full,
                                [(slice(0, 6), model, slice(6, 6))], 0.5,
                                clip, erm=(y_full, "bce"))

    def test_penalty_needs_a_pair(self):
        model, _, _, x_full, y_full, _, clip = self._setup()
        with pytest.raises(ValueError, match="penalty pair"):
            penalized_objective(model, x_full, [], 0.5, clip,
                                erm=(y_full, "bce"))

    def test_eo_combines_per_label_terms(self):
        model, _, _, _, _, _, clip = self._setup(seed=5)
        rng = np.random.default_rng(6)
        # the (a, y) class batches are blocks of 4 rows of one batch
        keys = [(j, k) for j in (0, 1) for k in (0, 1)]
        x_full = np.concatenate([rng.normal(size=(4, 3)) + j - k
                                 for j, k in keys])
        erm = (rng.integers(0, 2, size=16).astype(float), "bce")
        blocks = {key: slice(4 * i, 4 * i + 4) for i, key in enumerate(keys)}
        pairs = [(blocks[(0, k)], model, blocks[(1, k)]) for k in (0, 1)]
        _, w_val, _, g = penalized_objective(model, x_full, pairs, 0.4, clip,
                                             erm=erm)
        erm_grad = penalized_objective(model, x_full, pairs, 0.0, clip,
                                       erm=erm)[3]
        w0, w1 = (penalized_objective(model, x_full, [pair], 1.0, clip)[3]
                  for pair in pairs)
        np.testing.assert_allclose(g, 0.6 * erm_grad + 0.2 * (w0 + w1),
                                   atol=1e-14)
        values = [penalized_objective(model, x_full, [pair], 1.0, clip)[1]
                  for pair in pairs]
        assert w_val == pytest.approx(np.mean(values), rel=1e-15)

    def test_eo_missing_batch_rejected(self):
        model, _, _, x_full, y_full, pairs, clip = self._setup()
        pairs = [*pairs, (slice(0, 6), model, slice(12, 12))]
        with pytest.raises(ValueError):
            penalized_objective(model, x_full, pairs, 0.4, clip,
                                erm=(y_full, "bce"))

    def test_eo_zero_penalty_when_distributions_identical(self):
        model, _, _, x_full, y_full, _, clip = self._setup(seed=7)
        pairs = [(slice(0, 6), model, slice(0, 6)) for _ in (0, 1)]
        _, w_val, _, g = penalized_objective(model, x_full, pairs, 1.0, clip,
                                             erm=(y_full, "bce"))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)
        assert w_val == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("kind", ["affine_sigmoid", "mlp2",
                                      "autoencoder"])
    def test_slice_sides_read_the_erm_trace(self, kind, alpha):
        # class blocks of the batch read its trace cut at the penalty
        # layers: the penalty is that of a standalone model of those
        # layers, zero past them (the autoencoder's decoder), added to
        # the ERM term of the whole stack
        rng = np.random.default_rng(21)
        model = make_model(kind, 3, seed=2, hidden_dim=5)
        x_full = rng.normal(size=(13, 3))
        if kind == "affine_sigmoid":
            dirs, targets = None, rng.integers(0, 2, size=13).astype(float)
            loss_kind = "bce"
        else:
            dirs = sample_directions(model.penalty_dim, 6, seed=3)
            targets = (x_full if kind == "autoencoder"
                       else 0.3 * rng.normal(size=(13, 2)))
            loss_kind = "squared_error"
        clip = ClipConfig(0.3, 1.0, 1.0, 2.0)
        erm = (targets, loss_kind)
        pairs = [(slice(0, 4), model, slice(4, 9)),
                 (slice(9, 11), model, slice(11, 13))]
        got = penalized_objective(model, x_full, pairs, alpha, clip, dirs,
                                  erm)
        sub = penalty_model(model)
        assert (sub is model) == (kind != "autoencoder")
        penalty = penalized_objective(sub, x_full,
                                      [(a, sub, b) for a, _, b in pairs],
                                      1.0, clip, dirs)
        erm_only = penalized_objective(model, x_full, pairs, 0.0, clip,
                                       dirs, erm)
        want = ((1.0 - alpha) * erm_only[0] + alpha * penalty[1],
                (1.0 - alpha) * erm_only[3] + alpha * np.pad(
                    penalty[3], (0, model.n_params - sub.n_params)))
        assert got[:3] == pytest.approx(
            (erm_only[0], penalty[1], want[0]), rel=1e-14, abs=0.0)
        np.testing.assert_allclose(got[3], want[1], rtol=1e-13, atol=0.0)

    def test_penalty_value_reports_clipped_distance(self):
        model, x0, x1, x_full, _, pairs, _ = self._setup(seed=8)
        erm_val, val, total, _ = penalized_objective(
            model, x_full, pairs, 1.0, ClipConfig(0.5, 1.0, 1.0))
        u = np.clip(model.forward_batch(x0)[:, 0], -0.5, 0.5)
        v = np.clip(model.forward_batch(x1)[:, 0], -0.5, 0.5)
        assert val == pytest.approx(w2_squared_columns(u, v)[0], rel=1e-12)
        assert erm_val == 0.0 and total == val

    def test_reference_pair_matches_plain_gradient(self):
        # generation: model outputs against a parameter-free reference
        model = make_model("mlp2", 2, hidden_dim=3, output_dim=2,
                           output_activation="linear", seed=4)
        dirs = sample_directions(2, 5, seed=1)
        rng = np.random.default_rng(9)
        x, z = rng.normal(size=(6, 2)), rng.normal(size=(7, 2))
        clip = ClipConfig(1.0, 1.0, 0.0)
        _, w_val, total, g = penalized_objective(
            model, x, [(slice(None), make_model("identity", 2), z)], 1.0,
            clip, dirs)
        # the model's side alone, summed sample by sample and direction by
        # direction; the reference side has no parameters
        u = clip_rows(model.forward_batch(x), 1.0) @ dirs.T
        v = clip_rows(z, 1.0) @ dirs.T
        gu, _, columns = w2_grad_columns(u, v)
        jac = clip_jacobian_naive(jacobian_batch(model, x), 1.0)
        want = np.einsum("nk,kd,ndp->p", gu, dirs, jac) / dirs.shape[0]
        np.testing.assert_allclose(g, want, rtol=1e-13, atol=0.0)
        assert total == w_val == np.mean(columns) > 0.0


class TestTiedOutputs:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_saturated_outputs_take_the_stable_rank_path(self, alpha):
        # every scalar output lies beyond the bound 0.5 and clips to exactly
        # +-0.5 (the scales are powers of two), so every value is tied
        model = make_model("affine", 2, output_dim=1,
                           theta=np.array([1.0, 0.0, 0.0]))
        rng = np.random.default_rng(10)
        n, m = 40, 33
        x = np.column_stack([rng.choice([-4.0, -2.0, 2.0, 8.0], n),
                             rng.normal(size=n)])
        z = np.column_stack([rng.choice([-2.0, 4.0], m), rng.normal(size=m)])
        x_full = np.concatenate([x, z])
        targets = rng.normal(size=n + m)
        clip = ClipConfig(0.5, 1.0, 1.0, 5.0)
        pairs = [(slice(0, n), model, slice(n, n + m))]
        _, w_val, _, g = penalized_objective(
            model, x_full, pairs, alpha, clip,
            erm=(targets, "squared_error"))
        u = clip_rows(model.forward_batch(x), 0.5)
        v = clip_rows(model.forward_batch(z), 0.5)
        assert set(np.abs(np.concatenate([u, v])).ravel()) == {0.5}
        assert w_val == w2_squared_columns(u, v)[0]

        # stable ranks: tied values keep their sample order
        rank_u = np.argsort(np.argsort(u[:, 0], kind="stable"))
        rank_v = np.argsort(np.argsort(v[:, 0], kind="stable"))
        c = quantile_coupling(n, m)
        coupling = np.zeros((n, m))
        coupling[c.rows, c.cols] = c.weights
        weights = coupling[np.ix_(rank_u, rank_v)]
        diff = u[:, 0][:, None] - v[:, 0][None, :]
        gu = 2.0 * np.sum(weights * diff, axis=1)
        gv = -2.0 * np.sum(weights * diff, axis=0)
        w_grad = (gu @ clip_rows(jacobian_batch(model, x)[:, 0, :], 1.0)
                  + gv @ clip_rows(jacobian_batch(model, z)[:, 0, :], 1.0))
        erm = penalized_objective(model, x_full, pairs, 0.0, clip,
                                  erm=(targets, "squared_error"))[3]
        np.testing.assert_allclose(g, (1.0 - alpha) * erm + alpha * w_grad,
                                   rtol=1e-13, atol=1e-15)


# every model kind, with 3 inputs; the tests scale theta by 4 so that the
# far inputs of _ghost_inputs saturate the first-layer sigmoids
_GHOST_MODELS = {
    "identity": lambda: make_model("identity", 3),
    "affine": lambda: make_model("affine", 3, output_dim=2, seed=1),
    "affine_sigmoid": lambda: make_model("affine_sigmoid", 3, seed=2),
    "mlp2": lambda: make_model("mlp2", 3, hidden_dim=5, output_dim=2, seed=3),
    "mlp2_linear": lambda: make_model("mlp2", 3, hidden_dim=5, output_dim=2,
                                      output_activation="linear", seed=4),
    "autoencoder": lambda: make_model("autoencoder", 3, hidden_dim=4,
                                      latent_dim=2, seed=5),
}


def _ghost_inputs(rng, n):
    """Normal rows, then zero rows and rows far out on either side, which
    saturate the sigmoids they reach."""
    x = rng.normal(size=(n, 3))
    x[:3] = 0.0
    x[3:6] *= 60.0
    x[6:9] = -x[3:6]
    return x


def _close(got, want):
    return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestGhostClipping:
    """Row norms and summed backward against the dense per-sample oracle."""

    @pytest.mark.parametrize("kind", _GHOST_MODELS)
    def test_penalty_side_matches_dense_rows(self, kind):
        rng = np.random.default_rng(11)
        model = _GHOST_MODELS[kind]()
        model.theta *= 4.0
        x, z = _ghost_inputs(rng, 17), _ghost_inputs(rng, 13)
        d = model.penalty_dim
        dirs = sample_directions(d, 5, seed=2) if d > 1 else None
        directions = np.ones((1, 1)) if dirs is None else dirs

        # the ghost row norms are the dense ones
        trace = penalty_model(model).trace(x)
        jac = penalty_jacobian_batch(model, x)
        dense_sq = np.sum(jac * jac, axis=-1)
        assert _close(trace.backward(np.eye(d)[None]).sq_norms(), dense_sq)
        # the far rows saturate first-layer sigmoids to a zero derivative,
        # and a saturated scalar output has an all-zero Jacobian row
        first = trace.sigs[0] if trace.sigs else None
        assert first is None or np.any(first * (1.0 - first) == 0.0)
        if kind == "affine_sigmoid":
            assert np.any(dense_sq == 0.0)

        # the row bound splits the nonzero rows: some clipped, some not
        norms = np.sqrt(np.concatenate([
            dense_sq, np.sum(penalty_jacobian_batch(model, z) ** 2, -1)]))
        row_bound = float(np.median(norms[norms > 0])) if norms.any() else 1.0
        if model.n_params:
            assert np.any(norms > row_bound)
            assert np.any((norms > 0.0) & (norms < row_bound))
        clip = ClipConfig(0.3, row_bound * np.sqrt(d),
                          0.5 * row_bound * np.sqrt(d))

        batch, pairs = stacked_pairs(model, [(x, model, z)])
        got = penalized_objective(model, batch, pairs, 1.0, clip, dirs)[3]
        encode = penalty_model(model).forward_batch
        u = clip_rows(encode(x), 0.3) @ directions.T
        v = clip_rows(encode(z), 0.3) @ directions.T
        gu, gv, _ = w2_grad_columns(u, v)
        want = sum(
            np.einsum("nk,kd,ndp->p", g, directions,
                      clip_jacobian_naive(penalty_jacobian_batch(model, s),
                                          bound))
            for g, s, bound in ((gu, x, clip.jac_bound1),
                                (gv, z, clip.jac_bound2))) / len(directions)
        assert got.shape == (model.n_params,)
        assert _close(got, want)
        if kind == "autoencoder":
            n_encoder = (3 + 1) * 4 + (4 + 1) * 2
            assert np.all(got[n_encoder:] == 0.0)
            assert np.any(got[:n_encoder] != 0.0)

    @pytest.mark.parametrize("kind", [*_GHOST_MODELS, "affine_sigmoid_bce"])
    def test_erm_side_matches_dense_rows(self, kind):
        rng = np.random.default_rng(12)
        model = _GHOST_MODELS[kind.removesuffix("_bce")]()
        model.theta *= 4.0
        x = _ghost_inputs(rng, 23)
        if kind.endswith("_bce"):
            loss_kind = "bce"
            # rows far along +-w saturate q to exactly 1 and 0: a zero row
            # where y matches q, a long one where it does not
            x[9:13] = 1e3 * np.sign(model.theta[:3]) * [[1], [-1], [1], [-1]]
            targets = rng.integers(0, 2, size=23).astype(float)
            targets[9:13] = [1.0, 0.0, 0.0, 1.0]
            q = model.forward_batch(x)[:, 0]
            assert set(q[9:13]) == {0.0, 1.0}
            zero_rows = [9, 10]
        else:
            loss_kind = "squared_error"
            targets = model.forward_batch(x) + rng.normal(size=(23, 1)) * 0.3
            # exact fits, and zero inputs fitted by the bias: zero rows
            targets[:2] = model.forward_batch(x[:2])
            zero_rows = [0, 1]
        dense = loss_grad_batch(model, x, targets, loss_kind)
        norms = np.linalg.norm(dense, axis=1)
        assert np.all(norms[zero_rows] == 0.0)
        bound = float(np.median(norms)) if norms.any() else 1.0
        if model.n_params:
            assert np.any(norms > bound)
            assert np.any((norms > 0.0) & (norms < bound))
        d = model.penalty_dim
        dirs = sample_directions(d, 1, seed=0) if d > 1 else None
        value, _, _, got = penalized_objective(
            model, x, [(slice(None), model, slice(None))], 0.0,
            ClipConfig(1.0, 1.0, 1.0, bound), dirs, erm=(targets, loss_kind))
        assert _close(got, clip_rows(dense, bound).mean(axis=0))
        assert value == np.mean(model.trace(x).loss(targets, loss_kind))

    def test_overflowing_ghost_norm_is_clipped_not_zeroed(self):
        # the Jacobian row [x, 1] of the first sample has a squared norm
        # beyond the float range; it is clipped to the bound, not dropped
        model = make_model("affine", 2, output_dim=1,
                           theta=np.array([1.0, 1.0, 0.0]))
        x = np.array([[1e160, -3e159], [0.3, -0.2], [2.0, 1.0]])
        z = np.array([[0.1], [-0.2], [0.4]])
        grads = model.trace(x).backward(np.ones((1, 1, 1)))
        with np.errstate(over="ignore"):
            sq_norms = grads.sq_norms()
        assert np.isinf(sq_norms[0, 0])
        # the rescued row is normed without an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norms = grads.norms()
        assert norms[0, 0] == pytest.approx(1e160 * np.sqrt(1.09), rel=1e-12)
        assert np.array_equal(norms[1:], np.sqrt(sq_norms[1:]))
        # a loss-gradient row 2e100 [1e100, 0, 1] whose ghost factors
        # ||g||^2 and ||a||^2 + 1 are finite but whose product overflows
        loss_grads = model.trace(np.array([[1e100, 0.0]])).loss_and_grads(
            np.zeros(1), "squared_error")[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert loss_grads.norms()[0, 0] == pytest.approx(2e200,
                                                             rel=1e-12)

        bound = 0.75
        clip = ClipConfig(0.5, bound, bound)
        reference = make_model("identity", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch, pairs = stacked_pairs(model, [(x[:1], reference, z)])
            got = penalized_objective(model, batch, pairs, 1.0,
                                      clip)[3]
        gu = w2_grad_columns(clip_rows(model.forward_batch(x[:1]), 0.5),
                             z)[0][0, 0]
        direction = np.array([1.0, -0.3, 1e-160]) / np.sqrt(1.09)
        np.testing.assert_allclose(got, gu * bound * direction, rtol=1e-12,
                                   atol=0.0)
        assert np.linalg.norm(got) == pytest.approx(abs(gu) * bound,
                                                    rel=1e-12)

        # with finite rows beside it, the sum matches the dense oracle
        batch, pairs = stacked_pairs(model, [(x, reference, z)])
        got = penalized_objective(model, batch, pairs, 1.0, clip)[3]
        gu = w2_grad_columns(clip_rows(model.forward_batch(x), 0.5), z)[0]
        want = gu[:, 0] @ clip_rows(jacobian_batch(model, x)[:, 0, :], bound)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", _GHOST_MODELS)
    def test_rescaled_norms_match_direct_norms(self, kind):
        # the overflow rescue, run on rows whose squares stay finite, agrees
        # with the plain ghost norms on every model's layer stack
        rng = np.random.default_rng(13)
        model = _GHOST_MODELS[kind]()
        model.theta *= 4.0
        d = model.penalty_dim
        grads = model.trace(_ghost_inputs(rng, 15)).penalty().backward(
            np.eye(d)[None])
        i, j = np.nonzero(np.ones(grads.shape, dtype=bool))
        direct = np.sqrt(grads.sq_norms())[i, j]
        np.testing.assert_allclose(grads._rescaled_norms(i, j), direct,
                                   rtol=1e-14, atol=0.0)


class TestOnePenaltyPass:
    """Every side of the model, in every pair, is a block of rows of the
    one batch the model traces: one trace, one clip, one backward, one
    norm pass, one weighted sum per call."""

    def _setup(self, seed=30, n=20):
        rng = np.random.default_rng(seed)
        model = make_model("mlp2", 3, seed=seed, hidden_dim=5, output_dim=2)
        x = rng.normal(size=(n, 3))
        erm = (0.3 * rng.normal(size=(n, 2)), "squared_error")
        return model, x, erm, sample_directions(2, 4, seed=seed)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls per name of the penalty pass's parts and of the forward:
        ``trace`` counts the traces of a model with parameters,
        ``reference_trace`` those of a parameter-free map."""
        from dpswgrad import dp_gradient, models
        counts = dict.fromkeys(["trace", "reference_trace", "_backward",
                                "norms", "weighted_sum", "clip_rows"], 0)

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        trace = models.Model.trace

        def counted_trace(model, x):
            counts["trace" if model.n_params else "reference_trace"] += 1
            return trace(model, x)

        monkeypatch.setattr(models.Model, "trace", counted_trace)
        counted(models.Trace, "_backward")
        counted(models.LayerGrads, "norms")
        counted(models.LayerGrads, "weighted_sum")
        counted(dp_gradient, "clip_rows")
        return counts

    @pytest.mark.parametrize("alpha", [0.6, 1.0])
    @pytest.mark.parametrize("sides", ["slices", "arrays", "arrays_no_erm"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_one_penalty_pass_per_call(self, calls, r, sides, alpha):
        # "slices" pairs the model with itself; "arrays" pairs it with a
        # parameter-free reference, whose sides are arrays of their own,
        # with and without the ERM term
        model, x, erm, dirs = self._setup()
        blocks = [(slice(0, 6), slice(6, 10)), (slice(10, 13),
                                                slice(13, 20))][:r]
        if sides == "slices":
            pairs = [(a, model, b) for a, b in blocks]
        else:
            reference = make_model("identity", 2)
            pairs = [(a, reference, 0.3 * x[b, :2]) for a, b in blocks]
        if sides == "arrays_no_erm":
            erm = None
        penalized_objective(model, x, pairs, alpha, NO_CLIP, dirs, erm)
        # below alpha 1 the ERM term adds its own backward, norms and
        # weighted sum; the ERM term and every pair read the one trace,
        # and each reference side is traced and clipped on its own
        erm_pass = int(alpha < 1.0 and erm is not None)
        references = r * (sides != "slices")
        assert calls == {"trace": 1, "reference_trace": references,
                         "_backward": 1 + erm_pass, "norms": 1 + erm_pass,
                         "weighted_sum": 1 + erm_pass,
                         "clip_rows": 1 + references}

    @pytest.mark.parametrize("pairs", [
        lambda x, model, ref: [(x[:6], model, slice(6, 20))],
        lambda x, model, ref: [(slice(0, 6), model, x[6:])],
        lambda x, model, ref: [(slice(0, 6), ref, slice(6, 20))],
        lambda x, model, ref: [(slice(0, 6), model, slice(6, 20)),
                               (x[:6], ref, x[6:, :2])]],
        ids=["array_x", "array_z_of_model", "slice_z_of_reference",
             "array_x_in_second_pair"])
    def test_sides_off_the_batch_rejected_before_any_trace(self, calls,
                                                           pairs):
        # the model's sides are slices of its batch, and a parameter-free
        # map's side is an array of its own inputs
        model, x, erm, dirs = self._setup()
        reference = make_model("identity", 2)
        with pytest.raises(ValueError, match="slice of its batch"):
            penalized_objective(model, x, pairs(x, model, reference), 0.5,
                                NO_CLIP, dirs, erm)
        assert calls["trace"] == calls["reference_trace"] == 0

    @pytest.mark.parametrize("alpha", [0.6, 1.0])
    def test_shared_rows_give_the_per_pair_sum(self, alpha):
        # pairs that share rows, across pairs and within one pair, add
        # their weights on those rows: the per-pair gradients' mean
        model, x, erm, dirs = self._setup(seed=31)
        model.theta *= 3.0
        clip = ClipConfig(0.2, 0.5, 0.6, 1.0)
        # each bound clips some outputs and Jacobian rows and not others
        norms = model.trace(x).backward(np.eye(2)[None]).norms()
        out = np.linalg.norm(model.forward_batch(x), axis=1)
        for values, bound in ((out, 0.2), (norms, 0.5 / np.sqrt(2)),
                              (norms, 0.6 / np.sqrt(2))):
            assert np.any(values > bound) and np.any(values < bound)
        pairs = [(slice(0, 8), model, slice(8, 14)),
                 (slice(0, 8), model, slice(14, 20)),
                 (slice(4, 12), model, slice(10, 18))]
        got = penalized_objective(model, x, pairs, alpha, clip, dirs, erm)
        erm_grad = penalized_objective(model, x, pairs, 0.0, clip, dirs,
                                       erm)[3]
        per_pair = [penalized_objective(model, x, [pair], 1.0, clip, dirs,
                                        erm) for pair in pairs]
        want = (1.0 - alpha) * erm_grad \
            + alpha * sum(p[3] for p in per_pair) / len(pairs)
        assert np.abs(want).max() > 0.0
        np.testing.assert_allclose(got[3], want, rtol=0.0, atol=1e-14)
        assert got[1] == pytest.approx(np.mean([p[1] for p in per_pair]),
                                       rel=1e-15)
