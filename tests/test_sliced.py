"""Tests for Monte-Carlo sliced W2^2 and direction sampling."""

import numpy as np
import pytest

from dpswgrad.ot_core import w2_squared_columns
from dpswgrad.sliced import sample_directions


def sliced_w2(a, b, dirs) -> float:
    """The mean over the rows of ``dirs`` of the projected W2^2 columns."""
    return w2_squared_columns((dirs @ a.T).T, (dirs @ b.T).T).mean()


class TestSampleDirections:
    def test_unit_norms(self):
        dirs = sample_directions(5, 64, seed=1)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1),
                                   1.0, atol=1e-12)

    def test_read_only_float_array(self):
        dirs = sample_directions(4, 6, seed=2)
        assert isinstance(dirs, np.ndarray)
        assert dirs.dtype == np.float64 and dirs.shape == (6, 4)
        with pytest.raises(ValueError):
            dirs[0, 0] = 1.0

    def test_one_dimensional_sphere_is_signs(self):
        dirs = sample_directions(1, 3, seed=42)
        assert set(np.abs(dirs[:, 0]).tolist()) == {1.0}

    def test_deterministic_given_seed(self):
        a = sample_directions(3, 10, seed=7)
        b = sample_directions(3, 10, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_mean_direction_concentrates(self):
        # CLT: the empirical mean of k uniform directions has norm ~ 1/sqrt(k)
        dirs = sample_directions(2, 100_000, seed=3)
        assert np.linalg.norm(dirs.mean(axis=0)) < 0.02

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            sample_directions(0, 5, seed=0)
        with pytest.raises(ValueError):
            sample_directions(3, 0, seed=0)


class TestSlicedDistance:
    def test_zero_on_identical_point_sets(self):
        pts = np.random.default_rng(0).normal(size=(6, 3))
        dirs = sample_directions(3, 20, seed=1)
        assert sliced_w2(pts, pts.copy(), dirs) == 0.0

    def test_dimension_one_reduces_to_w2(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(7, 1))
        b = rng.normal(size=(4, 1))
        dirs = sample_directions(1, 9, seed=11)
        # projections are +-identity and W2^2 is invariant under sign flip
        assert sliced_w2(a, b, dirs) == pytest.approx(
            w2_squared_columns(a, b)[0], rel=1e-12)

    def test_hand_projection(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 0.0]])
        dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert sliced_w2(a, b, dirs) == pytest.approx(0.5)

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(9, 2))
        shift = np.array([3.7, -1.2])
        dirs = sample_directions(2, 50, seed=4)
        assert sliced_w2(a, b, dirs) == pytest.approx(
            sliced_w2(a + shift, b + shift, dirs), abs=1e-10)

    def test_per_direction_terms_are_valid_w2_values(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(8, 2))
        dirs = sample_directions(2, 25, seed=6)
        proj_a = a @ dirs.T
        proj_b = b @ dirs.T
        per_dir = w2_squared_columns(proj_a, proj_b)
        assert np.all(per_dir >= 0)
        assert sliced_w2(a, b, dirs) == np.mean(per_dir)
        for k in range(dirs.shape[0]):
            assert per_dir[k] == pytest.approx(
                w2_squared_columns(proj_a[:, k], proj_b[:, k])[0],
                rel=1e-12)

    def test_monte_carlo_error_shrinks_at_sqrt_rate(self):
        # sd over seed replicates should scale ~ k^(-1/2)
        rng = np.random.default_rng(17)
        a = rng.normal(size=(8, 2))
        b = rng.normal(size=(8, 2)) + 0.5
        ks = [100, 1000, 10000]
        sds = []
        for k in ks:
            vals = [sliced_w2(a, b, sample_directions(2, k, seed=s))
                    for s in range(50)]
            sds.append(np.std(vals))
        slope, _ = np.polyfit(np.log(ks), np.log(sds), 1)
        assert -0.6 <= slope <= -0.4
