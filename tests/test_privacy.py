"""Tests for the GDP curve, subsampling amplification, accounting, calibration."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dpswgrad import privacy
from dpswgrad.privacy import (AccountantState, PrivacyBudget,
                              PrivacySaturationError, _brentq,
                              calibrate_noise, conservative_epsilon,
                              gaussian_mechanism,
                              gdp_delta, gdp_epsilon, subsample_amplify,
                              total_gdp_mu)
from oracles import brentq
from oracles import erf as scipy_erf
from oracles import log_ndtr as scipy_log_ndtr


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
        eps = state.epsilon_spent()
        assert gdp_delta(1.0 / 1.3, eps) == pytest.approx(1e-5, abs=1e-9)

    def test_full_rate_composition_is_exact_sqrt(self):
        assert total_gdp_mu(2.0, 1.0, 9) == pytest.approx(1.5)

    def test_reference_configuration_is_finite_and_below_ceiling(self):
        state = AccountantState(noise_multiplier=2.0, sampling_rate=0.2,
                                steps=500, target_delta=1e-5)
        eps = state.epsilon_spent()
        assert math.isfinite(eps) and eps > 0
        ceiling = conservative_epsilon(2.0, 0.2, 500, 1e-5)
        assert eps <= ceiling

    @pytest.mark.parametrize("p, t", [(1e-6, 1), (1e-7, 100), (0.5, 1)])
    def test_ceiling_is_zero_where_delta_covers_every_sampling(self, p, t):
        # the replaced record is sampled at all with probability <= pT <=
        # delta, so the run is (0, delta)-DP
        assert conservative_epsilon(1.0, p, t, max(1e-5, p * t)) == 0.0

    def test_ceiling_below_one_sampling_probability_unchanged(self):
        assert conservative_epsilon(1.0, 1e-4, 1, 1e-5) > 0.0
        with pytest.raises(ValueError, match="target delta too large"):
            conservative_epsilon(1.0, 0.2, 10, 0.0)

    def test_monotonicity_grid(self):
        nus = [1.0, 2.0, 4.0]
        ps = [0.05, 0.1, 0.2]
        ts = [50, 200, 1000]
        deltas = [1e-6, 1e-5, 1e-4]

        def eps(nu, p, t, d):
            return AccountantState(nu, p, steps=t,
                                   target_delta=d).epsilon_spent()

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
                        assert state.epsilon_spent() <= \
                            conservative_epsilon(nu, p, t, d)

    def test_zero_steps_spends_nothing(self):
        state = AccountantState(1.0, 0.5)
        assert state.epsilon_spent() == 0.0

    def test_step_records_one_step(self):
        state = AccountantState(1.0, 0.5, target_delta=1e-5)
        for _ in range(3):
            state.step()
        assert state.steps == 3
        assert state.epsilon_spent() == AccountantState(
            1.0, 0.5, steps=3, target_delta=1e-5).epsilon_spent()

    def test_saturation_reported(self):
        state = AccountantState(noise_multiplier=0.01, sampling_rate=0.5,
                                steps=100, target_delta=1e-5)
        with pytest.raises(PrivacySaturationError):
            state.epsilon_spent()

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
            achieved = state.epsilon_spent()
            assert achieved == pytest.approx(eps, rel=1e-4)

    @pytest.mark.parametrize("p", [0.5, 1.0])
    @pytest.mark.parametrize("sens", [1e-300, 1e-310, 1e-320])
    def test_tiny_sensitivity_raises_or_meets_the_target(self, sens, p):
        # a subnormal sigma no longer gives the noise multiplier back
        # within the 1e-9 nudge, so it is refused; a normal one meets the
        # target
        try:
            sigma = calibrate_noise(PrivacyBudget(1.0, 1e-5), 10, p, sens)
        except PrivacySaturationError as exc:
            assert "below the normal float range" in str(exc)
            assert sens < 1e-300
            return
        achieved = AccountantState(sigma / sens, p, steps=10,
                                   target_delta=1e-5).epsilon_spent()
        assert achieved <= 1.0

    @pytest.mark.parametrize("p", [0.5, 1.0])
    @pytest.mark.parametrize("sens", [1e300, 1e307, 1e308])
    def test_huge_sensitivity_raises_or_meets_the_target(self, sens, p):
        # a noise scale past the float range is refused by name, not
        # returned as inf
        try:
            sigma = calibrate_noise(PrivacyBudget(1.0, 1e-5), 10, p, sens)
        except PrivacySaturationError as exc:
            assert "overflows the float range" in str(exc)
            assert sens > 1e307
            return
        assert math.isfinite(sigma)
        achieved = AccountantState(sigma / sens, p, steps=10,
                                   target_delta=1e-5).epsilon_spent()
        assert achieved <= 1.0

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
        from dpswgrad.sensitivity import sensitivity_bound
        delta2 = sensitivity_bound([(3000, 3000)], 0.75,
                                   ClipConfig.symmetric(1.0, 1.0, 5.0), 6000)
        sigma = calibrate_noise(PrivacyBudget(1.0, 0.1 / 30000), 500, 0.2,
                                delta2)
        assert sigma == 0.08021849535110229  # frozen regression value
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
                                    target_delta=delta).epsilon_spent()
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


def _same_outcome(f, a, b, **kw) -> bool:
    """Whether the port and SciPy return the same bits, or raise the same
    error type with the same message."""
    outcomes = []
    for solve in (_brentq, brentq):
        try:
            outcomes.append(np.float64(solve(f, a, b, **kw)).tobytes())
        except (ValueError, RuntimeError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes[0] == outcomes[1]


_TOLS = {"xtol": 1e-15, "rtol": 8.9e-16, "maxiter": 200}


class TestBrentRootFinder:
    """``privacy._brentq`` follows SciPy's C ``brentq`` step for step, so it
    must return SciPy's bits and raise SciPy's errors."""

    @pytest.fixture
    def checked_solves(self, monkeypatch):
        """Route the accountant's own solves through a check against SciPy
        and count them."""
        solves = []

        def checked(f, a, b, **kw):
            assert _same_outcome(f, a, b, **kw)
            solves.append((a, b))
            return _brentq(f, a, b, **kw)

        monkeypatch.setattr(privacy, "_brentq", checked)
        return solves

    def test_epsilon_call_site(self, checked_solves):
        for mu in np.geomspace(1e-3, 40.0, 25):
            for delta in np.geomspace(1e-300, 0.9, 25):
                try:
                    gdp_epsilon(float(mu), float(delta))
                except PrivacySaturationError:
                    pass
        assert len(checked_solves) > 600

    def test_calibration_call_site(self, checked_solves):
        rng = np.random.default_rng(4)
        for _ in range(60):
            eps = float(10 ** rng.uniform(-2, 1.5))
            delta = float(10 ** rng.uniform(-250, -1))
            steps = int(rng.integers(1, 2000))
            p = float(rng.choice([1.0, rng.uniform(0.01, 1.0)]))
            try:
                calibrate_noise(PrivacyBudget(eps, delta), steps, p, 1.0)
            except PrivacySaturationError:
                pass
        assert len(checked_solves) == 60  # one solve for mu* each

    def test_generic_brackets(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            c = rng.normal(size=3)
            root = float(rng.uniform(-1.0, 1.0))
            scale = float(10.0 ** rng.uniform(-300, 300))
            freq = float(rng.uniform(0.5, 20.0))
            shapes = (
                lambda x: float(c[0] * (x - root) ** 3 + c[1] * (x - root)
                                + c[2] * math.sin(freq * (x - root))
                                * (x - root)),
                lambda x: scale * math.tanh(50.0 * (x - root)) ** 3,
                lambda x: scale * max(min(x - root, 0.1), -0.2),
                lambda x: scale * (math.floor(8.0 * (x - root)) + 0.5),
            )
            for f in shapes:
                assert _same_outcome(f, -2.0, 2.0, **_TOLS)
                assert _same_outcome(f, 2.0, -2.0, xtol=1e-300,
                                     rtol=8.9e-16, maxiter=100)
                assert _same_outcome(f, -2.0, 2.0, xtol=2e-12, rtol=8.9e-16,
                                     maxiter=int(rng.integers(0, 8)))

    @pytest.mark.parametrize("f, error, message", [
        (lambda x: 1e-200, ValueError,
         "f(a) and f(b) must have different signs"),
        (lambda x: x - 0.3 if x < 0.9 else math.nan, ValueError,
         "The function value at x=1.0 is NaN; solver cannot continue."),
        (lambda x: math.nan if 0.2 < x < 0.9 else x - 0.3, ValueError,
         "The function value at x=0.3 is NaN; solver cannot continue."),
        (lambda x: math.atan(x - 0.3) ** 3, RuntimeError,
         "Failed to converge after 3 iterations."),
    ], ids=["same_sign", "nan_at_end", "nan_inside", "maxiter"])
    def test_errors(self, f, error, message):
        kw = {**_TOLS, "maxiter": 3}
        with pytest.raises(error) as info:
            _brentq(f, 0.0, 1.0, **kw)
        assert str(info.value) == message
        assert _same_outcome(f, 0.0, 1.0, **kw)


def _ulps(got: float, want: float) -> float:
    """|got - want| in units in the last place of ``want``."""
    return 0.0 if got == want else abs(got - want) / math.ulp(want)


def _log_ndtr_oracle(x: float) -> float:
    """log Phi(x) at 50 digits; above 0 as log1p(-Phi(-x)), whose small
    Phi(-x) keeps its digits."""
    with mpmath.workdps(50):
        x_ = mpmath.mpf(x)
        if x > 0:
            return float(mpmath.log1p(-mpmath.ncdf(-x_)))
        return float(mpmath.log(mpmath.ncdf(x_)))


def _scipy_backed(monkeypatch):
    """Run the accountant on SciPy's ``erf`` and ``log_ndtr``."""
    monkeypatch.setattr(privacy, "_erf", lambda x: float(scipy_erf(x)))
    monkeypatch.setattr(privacy, "_log_ndtr",
                        lambda x: float(scipy_log_ndtr(x)))


# the points on both sides of where the branches of _log_ndtr meet (-37,
# -1), deep in its tail and where Phi(x) rounds to 1, and a sweep of both
# signs over 12 decades
_SF_POINTS = (-1e4, -1e3, -40.0, -37.5, -37.0, math.nextafter(-37.0, 0.0),
              -1.0 - 1e-12, -1.0 + 1e-12, 0.0, 6.0, 40.0)
_SF_GRID = _SF_POINTS + tuple(
    float(x) for x in np.concatenate([-np.geomspace(1e-8, 1e4, 400),
                                      np.geomspace(1e-8, 40.0, 300)]))


def _sf_bound(x: float) -> float:
    """The stated ulp bound of ``_log_ndtr``: rounding x/sqrt(2) (twice,
    at most 2^-52 relative) moves erfc by x^2 2^-52 relative, at most
    2 x^2 ulps, and the other roundings add up to 3."""
    return 3.0 + 2.0 * x * x


class TestSpecialFunctions:
    """The accountant's ``erf`` (libm's) and ``_log_ndtr`` against 50-digit
    mpmath and SciPy, and the accountant built on them against the same
    code on SciPy's functions."""

    def test_erf_against_mpmath(self):
        for x in _SF_GRID:
            with mpmath.workdps(50):
                want = float(mpmath.erf(mpmath.mpf(x)))
            assert _ulps(privacy._erf(x), want) <= 1.0, x

    def test_log_ndtr_against_mpmath(self):
        for x in _SF_GRID:
            got, want = privacy._log_ndtr(x), _log_ndtr_oracle(x)
            assert _ulps(got, want) <= _sf_bound(x), (x, got, want)

    def test_against_scipy(self):
        for x in _SF_GRID:
            want = float(scipy_log_ndtr(x))
            assert _ulps(privacy._log_ndtr(x), want) <= 2 * _sf_bound(x), x
            assert _ulps(privacy._erf(x), float(scipy_erf(x))) <= 2.0, x

    def test_composed_mu_against_mpmath(self):
        # 2 f = expm1(x) (1 + E_a) + (E_a - 3 E_b) keeps its digits where
        # the direct exp(x) Phi(a) + 3 Phi(-b) - 2 cancels them (7.6e-13
        # relative at nu = 75)
        for nu in np.geomspace(0.15, 100.0, 60):
            with mpmath.workdps(50):
                nu_ = mpmath.mpf(float(nu))
                f = (mpmath.exp(nu_ ** -2) * mpmath.ncdf(1.5 / nu_)
                     + 3 * mpmath.ncdf(-0.5 / nu_) - 2)
                want = float(mpmath.sqrt(2) * mpmath.mpf(0.2)
                             * mpmath.sqrt(500) * mpmath.sqrt(f))
            assert total_gdp_mu(float(nu), 0.2, 500) == pytest.approx(
                want, rel=2e-14, abs=0.0), nu

    @pytest.mark.parametrize("epsilon", [1.0, 4.0])
    @pytest.mark.parametrize("steps", [100, 1000, 10000])
    def test_accountant_matches_scipy_backed_reference(self, epsilon, steps,
                                                       monkeypatch):
        # the 36-point grid: eps in {1, 4}, p in {1e-5, ..., 0.2},
        # T in {100, 1000, 10000}, delta = 1e-5
        budget = PrivacyBudget(epsilon, 1e-5)
        for p in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.2):
            sigma = calibrate_noise(budget, steps, p, 1.0)
            spent = AccountantState(sigma, p, steps=steps).epsilon_spent()
            with monkeypatch.context() as patch:
                _scipy_backed(patch)
                ref_sigma = calibrate_noise(budget, steps, p, 1.0)
                ref_spent = AccountantState(sigma, p,
                                            steps=steps).epsilon_spent()
            assert sigma == pytest.approx(ref_sigma, rel=1e-13, abs=0.0)
            assert spent == pytest.approx(ref_spent, rel=1e-13, abs=0.0)

    def test_cli_import_loads_no_scipy(self):
        # the runtime is NumPy alone: no scipy module of any kind
        src = str(Path(privacy.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run(
            [sys.executable, "-c", "import sys, dpswgrad.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' "
             "or m.startswith('scipy.')))"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout == "[]\n"
