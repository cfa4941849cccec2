"""Tests for the GDP curve, subsampling amplification, accounting, calibration."""

import math

import mpmath
import numpy as np
import pytest

from dpswgrad.privacy import (AccountantState, PrivacyBudget,
                              PrivacySaturationError,
                              calibrate_noise, conservative_epsilon,
                              gaussian_mechanism,
                              gdp_delta, gdp_epsilon, subsample_amplify,
                              total_gdp_mu)


def _delta_oracle(mu: float, eps: float) -> float:
    """High-precision evaluation of the mechanism curve via mpmath."""
    with mpmath.workdps(60):
        mu_, eps_ = mpmath.mpf(mu), mpmath.mpf(eps)
        val = (mpmath.ncdf(-eps_ / mu_ + mu_ / 2)
               - mpmath.e ** eps_ * mpmath.ncdf(-eps_ / mu_ - mu_ / 2))
        return float(val)


class TestGdpDelta:
    def test_reference_value(self):
        assert gdp_delta(1.0, 0.0) == pytest.approx(0.382925, abs=1e-6)
        assert gdp_delta(1.0, 0.0) == pytest.approx(_delta_oracle(1.0, 0.0),
                                                    rel=1e-12)

    def test_matches_oracle_on_grid(self):
        for mu in (1e-6, 0.01, 0.3, 1.0, 3.0, 10.0, 50.0):
            for eps in (0.0, 0.1, 1.0, 5.0, 20.0):
                want = _delta_oracle(mu, eps)
                got = gdp_delta(mu, eps)
                if want >= 1e-30:
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-300)
                else:
                    # deep-tail corner: log-space subtraction limits the
                    # relative accuracy, but these deltas are ~1e-30 or below
                    assert got == pytest.approx(want, rel=5e-7, abs=1e-300)

    def test_tiny_mu_limit(self):
        assert gdp_delta(1e-12, 1.0) == 0.0

    def test_large_epsilon_no_overflow(self):
        val = gdp_delta(1.0, 50.0)
        assert 0.0 <= val < 1e-300
        assert math.isfinite(gdp_delta(1.0, 100.0))

    def test_monotone_in_epsilon_and_mu(self):
        eps_grid = np.linspace(0.0, 30.0, 40)
        vals = [gdp_delta(1.0, e) for e in eps_grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        mu_grid = np.logspace(-6, np.log10(50), 40)
        vals = [gdp_delta(m, 1.0) for m in mu_grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 and not math.isnan(v) for v in vals)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gdp_delta(0.0, 1.0)
        with pytest.raises(ValueError):
            gdp_delta(1.0, -0.5)


class TestGdpEpsilon:
    def test_round_trip(self):
        for mu in (0.2, 1.0, 4.0):
            for delta in (1e-7, 1e-5, 1e-2):
                eps = gdp_epsilon(mu, delta)
                assert gdp_delta(mu, eps) == pytest.approx(delta, rel=1e-9)

    def test_zero_when_curve_already_below(self):
        assert gdp_epsilon(0.01, 0.5) == 0.0


class TestSubsampleAmplify:
    def test_identity_at_full_rate(self):
        b = PrivacyBudget(1.25, 1e-5)
        assert subsample_amplify(b, 1.0) is b

    def test_hand_value(self):
        b = subsample_amplify(PrivacyBudget(math.log(2.0), 1e-4), 0.5)
        assert b.epsilon == pytest.approx(math.log(1.5), rel=1e-12)
        assert b.delta == pytest.approx(5e-5)

    def test_never_increases(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            eps = float(rng.uniform(0.01, 10.0))
            p = float(rng.uniform(0.01, 1.0))
            out = subsample_amplify(PrivacyBudget(eps, 1e-5), p)
            assert out.epsilon <= eps + 1e-12
            assert out.delta <= 1e-5 + 1e-20

    def test_small_epsilon_linearization(self):
        for eps in (0.001, 0.01, 0.1):
            out = subsample_amplify(PrivacyBudget(eps, 0.0), 0.3)
            assert out.epsilon == pytest.approx(0.3 * eps, rel=0.05)

    def test_composes_multiplicatively_in_rate(self):
        b = PrivacyBudget(2.0, 1e-6)
        once = subsample_amplify(b, 0.06)
        twice = subsample_amplify(subsample_amplify(b, 0.2), 0.3)
        assert once.epsilon == pytest.approx(twice.epsilon, rel=1e-12)
        assert once.delta == pytest.approx(twice.delta, rel=1e-12)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            subsample_amplify(PrivacyBudget(1.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            subsample_amplify(PrivacyBudget(1.0, 0.0), 1.5)


class TestAccountant:
    def test_single_full_step_inverts_the_curve(self):
        state = AccountantState(noise_multiplier=1.3, sampling_rate=1.0,
                                steps=1, target_delta=1e-5)
        eps = state.epsilon_spent(1e-5)
        assert gdp_delta(1.0 / 1.3, eps) == pytest.approx(1e-5, abs=1e-9)

    def test_full_rate_composition_is_exact_sqrt(self):
        assert total_gdp_mu(2.0, 1.0, 9) == pytest.approx(1.5)

    def test_reference_configuration_is_finite_and_below_ceiling(self):
        state = AccountantState(noise_multiplier=2.0, sampling_rate=0.2,
                                steps=500, target_delta=1e-5)
        eps = state.epsilon_spent(1e-5)
        assert math.isfinite(eps) and eps > 0
        ceiling = conservative_epsilon(2.0, 0.2, 500, 1e-5)
        assert eps <= ceiling

    def test_monotonicity_grid(self):
        nus = [1.0, 2.0, 4.0]
        ps = [0.05, 0.1, 0.2]
        ts = [50, 200, 1000]
        deltas = [1e-6, 1e-5, 1e-4]

        def eps(nu, p, t, d):
            return AccountantState(nu, p, steps=t,
                                   target_delta=d).epsilon_spent(d)

        for p in ps:
            for t in ts:
                for d in deltas:
                    col = [eps(nu, p, t, d) for nu in nus]
                    assert all(a >= b for a, b in zip(col, col[1:]))
        for nu in nus:
            for t in ts:
                for d in deltas:
                    col = [eps(nu, p, t, d) for p in ps]
                    assert all(a <= b for a, b in zip(col, col[1:]))
        for nu in nus:
            for p in ps:
                for d in deltas:
                    col = [eps(nu, p, t, d) for t in ts]
                    assert all(a <= b for a, b in zip(col, col[1:]))
        for nu in nus:
            for p in ps:
                for t in ts:
                    col = [eps(nu, p, t, d) for d in deltas]
                    assert all(a >= b for a, b in zip(col, col[1:]))

    def test_clt_below_conservative_on_grid(self):
        for nu in (1.0, 2.0, 4.0):
            for p in (0.05, 0.1, 0.2):
                for t in (50, 200, 1000):
                    for d in (1e-6, 1e-5, 1e-4):
                        state = AccountantState(nu, p, steps=t,
                                                target_delta=d)
                        assert state.epsilon_spent(d) <= \
                            conservative_epsilon(nu, p, t, d)

    def test_zero_steps_spends_nothing(self):
        state = AccountantState(1.0, 0.5)
        assert state.epsilon_spent(1e-5) == 0.0

    def test_negative_step_rejected(self):
        # a negative step would take back budget already spent
        state = AccountantState(1.0, 0.5, target_delta=1e-5)
        state.step(3)
        spent = state.epsilon_spent()
        for k in (-2, -5):
            with pytest.raises(ValueError, match=">= 0"):
                state.step(k)
        assert state.steps == 3 and state.epsilon_spent() == spent
        state.step(0)
        assert state.steps == 3

    def test_saturation_reported(self):
        state = AccountantState(noise_multiplier=0.01, sampling_rate=0.5,
                                steps=100, target_delta=1e-5)
        with pytest.raises(PrivacySaturationError):
            state.epsilon_spent(1e-5)

    @pytest.mark.parametrize("nu", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_noise_multiplier_rejected(self, nu):
        # rejected where it enters, not later by the curve's root finder
        message = "noise multiplier must be finite and > 0"
        with pytest.raises(ValueError, match=message):
            AccountantState(nu, 0.5)
        with pytest.raises(ValueError, match=message):
            total_gdp_mu(nu, 0.5, 3)


class TestCalibration:
    def test_round_trip_random_configs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            eps = float(rng.uniform(0.1, 8.0))
            delta = float(10 ** rng.uniform(-7, -3))
            steps = int(rng.integers(1, 1000))
            p = float(rng.uniform(0.02, 1.0))
            sens = float(10 ** rng.uniform(-4, 1))
            sigma = calibrate_noise(PrivacyBudget(eps, delta), steps, p, sens)
            state = AccountantState(sigma / sens, p, steps=steps,
                                    target_delta=delta)
            achieved = state.epsilon_spent(delta)
            assert achieved == pytest.approx(eps, rel=1e-4)

    def test_sigma_linear_in_sensitivity(self):
        target = PrivacyBudget(1.0, 1e-5)
        s1 = calibrate_noise(target, 100, 0.2, 1.0)
        s2 = calibrate_noise(target, 100, 0.2, 0.5)
        assert s1 == pytest.approx(2.0 * s2, rel=1e-9)

    def test_single_full_step_is_direct_inversion(self):
        target = PrivacyBudget(2.0, 1e-6)
        sigma = calibrate_noise(target, 1, 1.0, 3.0)
        # mu achieved must match the curve inversion: sigma = sens / mu*
        mu_star = 3.0 / sigma
        assert gdp_delta(mu_star, 2.0) == pytest.approx(1e-6, rel=1e-9)

    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            calibrate_noise(PrivacyBudget(math.inf, 1e-5), 10, 0.5, 1.0)
        with pytest.raises(ValueError):
            calibrate_noise(PrivacyBudget(1.0, 1e-5), 10, 0.5, 0.0)
        for sensitivity in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sensitivity must be finite"):
                calibrate_noise(PrivacyBudget(1.0, 1e-5), 10, 0.5, sensitivity)

    def test_reference_classification_fixture(self):
        # the reference training setup: 30000 records split evenly, per-class
        # batches of a fifth, 500 steps, delta = 0.1/n, alpha = 0.75, eps = 1;
        # sensitivity from the statistical-parity bound at batch sizes
        from dpswgrad.dp_gradient import ClipConfig
        from dpswgrad.models import make_model
        from dpswgrad.sensitivity import sensitivity_bound
        model = make_model("affine_sigmoid", 16, seed=0)
        delta2 = sensitivity_bound(model, [(3000, model, 3000)], 0.75,
                                   ClipConfig.symmetric(1.0, 1.0, 5.0), 6000)
        sigma = calibrate_noise(PrivacyBudget(1.0, 0.1 / 30000), 500, 0.2,
                                delta2)
        assert sigma == 0.08021849535110816  # frozen regression value
        assert sigma == calibrate_noise(PrivacyBudget(1.0, 0.1 / 30000), 500,
                                        0.2, delta2)

    def test_spent_budget_never_exceeds_target(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            eps = float(rng.uniform(0.1, 8.0))
            delta = float(10 ** rng.uniform(-7, -3))
            steps = int(rng.integers(1, 500))
            p = float(rng.uniform(0.02, 1.0))
            sigma = calibrate_noise(PrivacyBudget(eps, delta), steps, p, 1.0)
            spent = AccountantState(sigma, p, steps=steps,
                                    target_delta=delta).epsilon_spent(delta)
            assert spent <= eps


def _stream(seed: int, stream: int = 0) -> np.random.Generator:
    """A counter-based noise substream, as the training loop draws one."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, stream])))


class TestGaussianMechanism:
    def test_zero_noise_is_identity(self):
        v = np.arange(5.0)
        np.testing.assert_array_equal(gaussian_mechanism(v, 0.0, _stream(0)),
                                      v)

    def test_deterministic_given_seed(self):
        v = np.zeros(8)
        a = gaussian_mechanism(v, 1.0, _stream(123))
        b = gaussian_mechanism(v, 1.0, _stream(123))
        np.testing.assert_array_equal(a, b)
        c = gaussian_mechanism(v, 1.0, _stream(124))
        assert not np.array_equal(a, c)

    def test_streams_are_independent(self):
        a = gaussian_mechanism(np.zeros(4), 1.0, _stream(5, 0))
        b = gaussian_mechanism(np.zeros(4), 1.0, _stream(5, 1))
        assert not np.array_equal(a, b)

    def test_moments(self):
        noise = gaussian_mechanism(np.zeros(1_000_000), 2.0, _stream(7))
        assert abs(noise.mean()) < 4 * 2.0 / 1e3
        assert abs(noise.var() / 4.0 - 1.0) < 0.01

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_mechanism(np.zeros(3), -1.0, _stream(0))

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        # NaN fails every comparison, so a sign check alone lets it through
        with pytest.raises(ValueError, match="finite"):
            gaussian_mechanism(np.zeros(3), sigma, _stream(0))
