"""Tests for the sensitivity bound, the auditor, and the counterexample."""

import numpy as np
import pytest

from dpswgrad.dp_gradient import ClipConfig, penalized_objective
from dpswgrad.models import make_model
from dpswgrad.sensitivity import (empirical_sensitivity, sensitivity_bound,
                                  uniform_box_replacement,
                                  w2_counterexample_contrast,
                                  wp_counterexample)
from dpswgrad.sliced import sample_directions

from oracles import stacked_pairs


def _fairness_bound(c, b, j, sizes, alpha):
    """The bound of the fairness pairs over consecutive ``sizes``, with ERM."""
    pairs = [(n0, n1) for n0, n1 in zip(sizes[::2], sizes[1::2])]
    return sensitivity_bound(pairs, alpha, ClipConfig.symmetric(b, j, c),
                             sum(sizes))


def _one_sided(b, j1, j2, n):
    return sensitivity_bound([(n, None)], 1.0, ClipConfig(b, j1, j2))


def _two_sided(b, j1, j2, n, m):
    return sensitivity_bound([(n, m)], 1.0, ClipConfig(b, j1, j2))


def _ulps(a, b):
    return abs(a - b) / np.spacing(max(a, b))


class TestClosedFormBounds:
    def test_one_sided_values(self):
        assert _one_sided(1.0, 0.0, 1.0, 100) == pytest.approx(0.04)
        assert _one_sided(1.0, 0.0, 0.0, 10) == 0.0
        assert _one_sided(2.0, 1.0, 1.0, 50) == pytest.approx(
            2 * _one_sided(2.0, 1.0, 1.0, 100))

    def test_two_sided_values(self):
        assert _two_sided(1.0, 1.0, 1.0, 20, 20) == pytest.approx(
            _one_sided(1.0, 1.0, 1.0, 20))
        assert _two_sided(1.0, 1.0, 0.0, 10, 1000) == pytest.approx(1.2)
        assert _two_sided(1.0, 2.0, 3.0, 10, 50) >= _one_sided(
            1.0, 2.0, 3.0, 10)

    def test_parameter_free_and_public_sides(self):
        # generation: the reference sample has no Jacobian, so its side
        # is charged with jac_bound2 = 0; a public side adds no term
        clip = ClipConfig(1.0, 1.0, 0.0)
        assert sensitivity_bound([(10, 1000)], 1.0,
                                 clip) == pytest.approx(1.2)
        assert sensitivity_bound([(1000, 1)], 1.0,
                                 clip) == pytest.approx(4.0)
        assert sensitivity_bound([(None, 1)], 1.0,
                                 clip) == pytest.approx(4.0)
        assert sensitivity_bound([(None, None)], 1.0, clip) == 0.0

    def test_sp_values(self):
        assert _fairness_bound(5.0, 1.0, 1.0, [50, 50], 0.0) == \
            pytest.approx(0.1)
        assert _fairness_bound(5.0, 1.0, 1.0, [40, 60], 1.0) == \
            pytest.approx(16.0 / 40)
        expected = 0.25 * (10.0 / 30000) + 0.75 * (16.0 / 15000)
        assert _fairness_bound(5.0, 1.0, 1.0, [15000, 15000],
                               0.75) == pytest.approx(expected)
        # one pair is the statistical-parity closed form, bit for bit
        for c, b, j, n0, n1, a in [(5.0, 1.0, 1.0, 3000, 3000, 0.75),
                                   (2.0, 0.7, 1.3, 12, 9, 0.3),
                                   (0.0, 1.0, 1.0, 7, 20, 1.0)]:
            sp = ((1.0 - a) * 2.0 * c / (n0 + n1)
                  + a * 16.0 * b * j / min(n0, n1))
            assert _fairness_bound(c, b, j, [n0, n1], a) == sp
        # two Jacobian bounds: each side weighs its own three times
        got = sensitivity_bound([(30, 20)], 0.75,
                                ClipConfig(1.0, 0.5, 2.0, 5.0), 50)
        assert got == (1.0 - 0.75) * 2.0 * 5.0 / 50 + max(
            0.75 * 4.0 * 1.0 * (3.0 * 0.5 + 2.0) / 30,
            0.75 * 4.0 * 1.0 * (3.0 * 2.0 + 0.5) / 20)
        assert got == pytest.approx(0.25 * 10.0 / 50 + 0.75 * 1.3)

    def test_eo_values(self):
        assert _fairness_bound(5.0, 1.0, 1.0, [10, 10, 10, 10],
                               0.0) == pytest.approx(0.25)
        val = _fairness_bound(0.0, 1.0, 1.0, [10, 10, 10, 10], 0.5)
        assert val == pytest.approx(0.5 * 8.0 / 10)
        # R pairs are the equality-of-odds closed form, bit for bit
        for c, b, j, sizes, a in [(2.0, 1.0, 1.0, [12, 15, 10, 14], 0.75),
                                  (5.0, 0.7, 1.3, [3, 8, 5, 5, 9, 4], 0.4)]:
            r = len(sizes) // 2
            eo = ((1.0 - a) * 2.0 * c / sum(sizes)
                  + (a / r) * 16.0 * b * j / min(sizes))
            assert _fairness_bound(c, b, j, sizes, a) == eo

    def test_earlier_closed_forms_on_random_draws(self):
        # bit for bit: statistical parity and equality of odds
        # ((1 - a) 2C/n + (a/R) 16BJ/min(sizes)) and the one-sided
        # 4B(3J1 + J2)/n; at most 2 ulp from the two-sided
        # 4B max((3J1 + J2)/n, (J1 + 3J2)/m), which divides first
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            c, b, j1, j2 = (float(v) for v in rng.uniform(0.0, 10.0, 4))
            a = float(rng.uniform())
            sizes = [int(v) for v in rng.integers(1, 5000,
                                                  2 * rng.integers(1, 4))]
            r = len(sizes) // 2
            fair = ((1.0 - a) * 2.0 * c / sum(sizes)
                    + (a / r) * 16.0 * b * j1 / min(sizes))
            assert _fairness_bound(c, b, j1, sizes, a) == fair
            n, m = sizes[:2]
            assert _one_sided(b, j1, j2, n) == 4.0 * b * (3.0 * j1 + j2) / n
            two = 4.0 * b * max((3.0 * j1 + j2) / n, (j1 + 3.0 * j2) / m)
            assert _ulps(_two_sided(b, j1, j2, n, m), two) <= 2.0

    def test_monotonicity(self):
        grid = [1, 2, 5, 10, 40]
        vals = [_one_sided(1.0, 1.0, 1.0, n) for n in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        alphas = np.linspace(0, 1, 5)
        for sizes in ([10, 10], [10, 10, 10, 10]):
            pen = [_fairness_bound(0.0, 1.0, 1.0, sizes, a) for a in alphas]
            assert all(a <= b for a, b in zip(pen, pen[1:]))

    def test_validation(self):
        clip = ClipConfig(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            _one_sided(1.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError, match=">= 1"):
            sensitivity_bound([(0, 10)], 0.5, clip, 10)
        with pytest.raises(ValueError, match=">= 1"):
            sensitivity_bound([(5, 5)], 0.5, clip, 0)
        with pytest.raises(ValueError, match="penalty pair"):
            sensitivity_bound([], 0.5, clip, 10)
        with pytest.raises(ValueError, match="alpha"):
            sensitivity_bound([(5, 5)], 1.5, clip, 10)
        # a pair is two sizes; the old (n_x, h, n_z) form is rejected
        with pytest.raises(ValueError, match="too many values"):
            sensitivity_bound([(5, None, 5)], 0.5, clip, 10)
        # negative bounds never reach the bound: its ClipConfig rejects them
        with pytest.raises(ValueError, match=">= 0"):
            sensitivity_bound([(5, 5)], 0.5, ClipConfig(1.0, -1.0, 1.0, 1.0),
                              10)
        with pytest.raises(ValueError, match="class sizes"):
            empirical_sensitivity(lambda classes: np.zeros(1),
                                  [np.zeros((3, 2)), np.zeros((0, 2))],
                                  uniform_box_replacement([0, 0], [1, 1]),
                                  trials=1, seed=0, theoretical_bound=1.0)


def _audit_one_sided(clip_bounds, n, trials=300, sliced=False, seed=0,
                     z_shift=0.0, theta_scale=6.0):
    """Audit the clipped Wasserstein gradient under replace-one on the x side."""
    out_b, j1, j2 = clip_bounds
    clip = ClipConfig(out_b, j1, j2, 0.0)
    rng = np.random.default_rng(seed)
    if sliced:
        model = make_model("mlp2", 3, hidden_dim=4, output_dim=2, seed=seed)
        dirs = sample_directions(2, 20, seed=seed + 1)
    else:
        model = make_model("affine_sigmoid", 3, seed=seed)
        dirs = None
    model.theta *= theta_scale  # theta_scale > 1 pushes into clipping range
    z = rng.normal(size=(n, 3)) + z_shift
    x = rng.normal(size=(n, 3))

    def grad_fn(classes):
        batch, pairs = stacked_pairs([(classes[0], z)])
        return penalized_objective(model, batch, pairs, 1.0, clip, dirs)[3]

    return empirical_sensitivity(
        grad_fn, [x], uniform_box_replacement([-3.0] * 3, [3.0] * 3),
        trials=trials, seed=seed + 2,
        theoretical_bound=sensitivity_bound([(n, None)], 1.0,
                                            clip))


class TestEmpiricalAuditor:
    def test_constant_gradient_has_zero_sensitivity(self):
        report = empirical_sensitivity(
            lambda classes: np.ones(3), [np.zeros((5, 2))],
            uniform_box_replacement([-1, -1], [1, 1]), trials=20, seed=0,
            theoretical_bound=1.0)
        assert report.empirical_max == 0.0
        assert report.ratio == 0.0

    @pytest.mark.parametrize("bounds", [(1.0, 0.0, 1.0), (1.0, 1.0, 0.0),
                                        (1.0, 1.0, 1.0)])
    def test_one_sided_within_bound_1d(self, bounds):
        report = _audit_one_sided(bounds, n=20, trials=200)
        assert report.empirical_max <= report.theoretical_bound
        assert report.trials == 200

    def test_one_sided_within_bound_sliced(self):
        report = _audit_one_sided((1.0, 1.0, 1.0), n=20, trials=120,
                                  sliced=True)
        assert report.empirical_max <= report.theoretical_bound

    def test_identity_map_private_side_within_reduced_bound(self):
        # data-generation shape: the private sample is the reference
        # array of outputs (no Jacobian, so jac_bound2 = 0 charges it),
        # the public side carries the parameters; the model's side comes
        # first
        n = 25
        clip = ClipConfig(1.0, 1.0, 0.0, 0.0)
        gen = make_model("affine_sigmoid", 2, seed=9)
        gen.theta *= 6.0
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, size=(n, 1))
        z = rng.normal(size=(40, 2))

        def grad_fn(classes):
            return penalized_objective(gen, z, [(slice(None), classes[0])],
                                       1.0, clip)[3]

        bound = sensitivity_bound([(None, n)], 1.0, clip)
        report = empirical_sensitivity(
            grad_fn, [x], uniform_box_replacement([-1.0], [1.0]),
            trials=300, seed=11, theoretical_bound=bound)
        assert report.empirical_max <= bound

    def test_two_sided_within_bound(self):
        clip = ClipConfig(1.0, 1.0, 1.0, 0.0)
        model = make_model("affine_sigmoid", 2, seed=3)
        model.theta *= 6.0
        rng = np.random.default_rng(4)
        x = rng.normal(size=(15, 2))
        z = rng.normal(size=(10, 2))

        def grad_fn(classes):
            batch, pairs = stacked_pairs([(classes[0], classes[1])])
            return penalized_objective(model, batch, pairs, 1.0, clip)[3]

        bound = sensitivity_bound([(15, 10)], 1.0, clip)
        report = empirical_sensitivity(
            grad_fn, [x, z], uniform_box_replacement([-3, -3], [3, 3]),
            trials=250, seed=5, theoretical_bound=bound)
        assert report.empirical_max <= bound

    def test_sp_objective_within_bound(self):
        clip = ClipConfig(1.0, 1.0, 1.0, 2.0)
        model = make_model("affine_sigmoid", 2, seed=6)
        model.theta *= 6.0
        rng = np.random.default_rng(7)
        n0, n1 = 12, 9
        x0 = np.column_stack([rng.normal(size=(n0, 2)),
                              rng.integers(0, 2, n0).astype(float)])
        x1 = np.column_stack([rng.normal(size=(n1, 2)),
                              rng.integers(0, 2, n1).astype(float)])

        def grad_fn(classes):
            c0, c1 = classes
            x_full = np.concatenate([c0[:, :2], c1[:, :2]])
            y_full = np.concatenate([c0[:, 2], c1[:, 2]])
            return penalized_objective(
                model, x_full, [(slice(0, n0), slice(n0, n0 + n1))],
                0.75, clip, erm=y_full)[3]

        def draw(rng_, class_index):
            return np.concatenate([rng_.uniform(-3, 3, size=2),
                                   [float(rng_.integers(0, 2))]])

        bound = sensitivity_bound([(n0, n1)], 0.75, clip,
                                  n0 + n1)
        report = empirical_sensitivity(grad_fn, [x0, x1], draw, trials=250,
                                       seed=8, theoretical_bound=bound)
        assert report.empirical_max <= bound

    def test_sensitivity_decays_with_n(self):
        # separated output distributions keep the per-record influence in
        # the 1/n regime; trials scale with n for constant probe coverage
        maxima = []
        sizes = [20, 60, 180]
        for n in sizes:
            maxima.append(_audit_one_sided(
                (1.0, 1.0, 1.0), n=n, trials=10 * n, z_shift=1.5,
                theta_scale=1.0).empirical_max)
        slope, _ = np.polyfit(np.log(sizes), np.log(maxima), 1)
        assert -1.2 <= slope <= -0.8

    def test_report_json(self, tmp_path):
        report = _audit_one_sided((1.0, 0.0, 1.0), n=20, trials=30)
        path = tmp_path / "report.json"
        report.to_json(path)
        import json
        doc = json.loads(path.read_text())
        assert doc["trials"] == 30
        assert doc["empirical_max"] <= doc["theoretical_bound"]
        assert doc["ratio"] == pytest.approx(
            doc["empirical_max"] / doc["theoretical_bound"])


class TestCounterexample:
    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("p_order", [1, 2])
    def test_gap_is_exactly_two(self, n, p_order):
        result = wp_counterexample(n, p_order)
        assert result.grad_x == 1.0
        assert result.grad_x_tilde == -1.0
        assert result.gap == 2.0

    def test_squared_cost_contrast_decays(self):
        gaps = [w2_counterexample_contrast(n) for n in (10, 100, 1000)]
        for n, gap in zip((10, 100, 1000), gaps):
            assert gap == pytest.approx(2.0 / n, rel=1e-9)
            # construction constants: outputs bounded by 1, shift map is
            # 1-Lipschitz in its parameter, the reference grid has no
            # Jacobian (J_z = 0): the bound is 4 (3 + 0) / n
            bound = sensitivity_bound([(n, None)], 1.0,
                                      ClipConfig(1.0, 1.0, 0.0))
            assert bound == 12.0 / n
            assert gap <= bound
        slope, _ = np.polyfit(np.log([10, 100, 1000]), np.log(gaps), 1)
        assert -1.2 <= slope <= -0.8

    def test_squared_cost_contrast_values_are_pinned(self):
        # the gap of the summed column gradients, to the last bit
        assert [w2_counterexample_contrast(n) for n in (10, 100, 1000)] == [
            0.19999999999999998, 0.01999999999999999, 0.002]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            wp_counterexample(0, 1)
        with pytest.raises(ValueError):
            wp_counterexample(5, 0)
