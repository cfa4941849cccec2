"""Gaussian mechanism, GDP accounting, and noise calibration.

A Gaussian mechanism with noise scale sigma and query sensitivity Delta is
mu-GDP with mu = Delta/sigma, and its (epsilon, delta) curve is

    delta(eps) = Phi(-eps/mu + mu/2) - exp(eps) * Phi(-eps/mu - mu/2),

evaluated here in log space so deltas near 1e-300 neither overflow nor go
negative.  T-fold compositions of the mechanism run on fixed-size
without-replacement subsamples (rate p) are accounted in the central-limit
regime of Gaussian differential privacy:

    mu_total = sqrt(2) * p * sqrt(T)
               * sqrt(exp(nu^-2) * Phi(1.5/nu) + 3 * Phi(-0.5/nu) - 2)

with nu = sigma/Delta the noise multiplier; at p = 1 (no subsampling) the
composition is exactly sqrt(T)/nu-GDP and that exact branch is used.  The
formula identifier is recorded in run manifests so results are auditable.

A deliberately loose companion accountant (per-step curve + amplification-
by-subsampling + additive composition) is provided as a sanity ceiling for
tests; it is an upper bound in composition regimes but is never used for
calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf, log_ndtr, ndtr

__all__ = [
    "ACCOUNTANT_FORMULA",
    "PrivacySaturationError",
    "PrivacyBudget",
    "AccountantState",
    "gdp_delta",
    "gdp_epsilon",
    "total_gdp_mu",
    "subsample_amplify",
    "calibrate_noise",
    "conservative_epsilon",
    "gaussian_mechanism",
]

ACCOUNTANT_FORMULA = "gdp-clt-uniform-subsampling-v1"


class PrivacySaturationError(RuntimeError):
    """The requested privacy level is unattainable in working precision."""


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) target or spend; epsilon may be infinite."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")


def gdp_delta(mu: float, epsilon: float) -> float:
    """delta(epsilon) curve of a mu-GDP mechanism, stable for extreme inputs."""
    mu = float(mu)
    if mu <= 0:
        raise ValueError("mu must be > 0")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if math.isinf(mu):
        return 1.0
    if epsilon == 0.0:
        # Phi(mu/2) - Phi(-mu/2), exactly conditioned through erf
        return float(erf(mu / (2.0 * math.sqrt(2.0))))
    log1 = log_ndtr(mu / 2.0 - epsilon / mu)
    log2 = epsilon + log_ndtr(-mu / 2.0 - epsilon / mu)
    if log2 >= log1:
        return 0.0
    return float(-math.exp(log1) * math.expm1(log2 - log1))


def gdp_epsilon(mu: float, delta: float) -> float:
    """Smallest epsilon at which a mu-GDP mechanism is (epsilon, delta)-DP."""
    mu = float(mu)
    if mu <= 0:
        raise ValueError("mu must be > 0")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if math.isinf(mu):
        raise PrivacySaturationError("mu is infinite: no finite epsilon")
    if gdp_delta(mu, 0.0) <= delta:
        return 0.0
    hi = 1.0
    while gdp_delta(mu, hi) > delta:
        hi *= 2.0
        if hi > 1e15:
            raise PrivacySaturationError(
                f"no epsilon below 1e15 reaches delta={delta} at mu={mu}")
    return float(brentq(lambda e: gdp_delta(mu, e) - delta, 0.0, hi,
                        xtol=1e-15, rtol=8.9e-16, maxiter=200))


def total_gdp_mu(noise_multiplier: float, sampling_rate: float,
                 steps: int) -> float:
    """GDP parameter of T composed subsampled Gaussian mechanisms.

    Exact at sampling rate 1; otherwise the central-limit approximation for
    fixed-size without-replacement subsampling.  Returns inf when the
    per-step mechanism is too revealing to represent.
    """
    nu = float(noise_multiplier)
    p = float(sampling_rate)
    steps = int(steps)
    if not 0.0 < nu < math.inf:
        raise ValueError("noise multiplier must be finite and > 0")
    if not 0.0 < p <= 1.0:
        raise ValueError("sampling rate must lie in (0, 1]")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return 0.0
    if p == 1.0:
        return math.sqrt(steps) / nu
    x = nu ** -2
    if x > 700.0:
        return float("inf")
    f = math.exp(x) * ndtr(1.5 / nu) + 3.0 * ndtr(-0.5 / nu) - 2.0
    return math.sqrt(2.0) * p * math.sqrt(steps) * math.sqrt(max(f, 0.0))


@dataclass
class AccountantState:
    """Running DP-SGD budget: noise multiplier, sampling rate, steps taken."""

    noise_multiplier: float
    sampling_rate: float
    steps: int = 0
    target_delta: float = 1e-5

    def __post_init__(self):
        if not 0.0 < self.noise_multiplier < math.inf:
            raise ValueError("noise multiplier must be finite and > 0")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError("sampling rate must lie in (0, 1]")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not 0.0 < self.target_delta < 1.0:
            raise ValueError("target delta must lie in (0, 1)")

    def step(self, k: int = 1) -> None:
        """Record ``k >= 0`` more steps."""
        if k < 0:
            raise ValueError("steps taken must be >= 0")
        self.steps += int(k)

    def epsilon_spent(self, target_delta: float | None = None) -> float:
        """Epsilon spent by the steps taken, at ``target_delta`` (default:
        the state's own)."""
        if self.steps == 0:
            return 0.0
        mu = total_gdp_mu(self.noise_multiplier, self.sampling_rate,
                          self.steps)
        if math.isinf(mu):
            raise PrivacySaturationError(
                "composed mu is infinite (noise multiplier too small)")
        return gdp_epsilon(
            mu, self.target_delta if target_delta is None else target_delta)


def subsample_amplify(budget: PrivacyBudget, p: float) -> PrivacyBudget:
    """Amplify a per-batch budget by without-replacement subsampling at rate p.

    ``epsilon' = log(1 + p (exp(epsilon) - 1))`` and ``delta' = p delta``;
    the identity at p = 1 is exact.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("sampling rate must lie in (0, 1]")
    if p == 1.0:
        return budget
    if math.isinf(budget.epsilon):
        eps = float("inf")
    else:
        eps = math.log1p(p * math.expm1(budget.epsilon))
    return PrivacyBudget(epsilon=eps, delta=p * budget.delta)


def calibrate_noise(target: PrivacyBudget, steps: int, sampling_rate: float,
                    sensitivity: float) -> float:
    """Smallest noise scale sigma meeting ``target`` after ``steps`` rounds.

    Inverts the accountant: first the GDP parameter mu* matching the target
    curve, then the noise multiplier nu with composed mu equal to mu*
    (monotone bisection); sigma = nu * sensitivity.
    """
    if not math.isfinite(target.epsilon) or target.epsilon <= 0:
        raise ValueError("target epsilon must be finite and > 0")
    if not 0.0 < target.delta < 1.0:
        raise ValueError("target delta must lie in (0, 1)")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling rate must lie in (0, 1]")
    if not 0.0 < sensitivity < math.inf:
        raise ValueError("sensitivity must be finite and > 0")

    # mu* solving delta(mu; eps_target) = delta_target (increasing in mu)
    def delta_gap(mu: float) -> float:
        return gdp_delta(mu, target.epsilon) - target.delta

    lo, hi = 1e-12, 1.0
    while delta_gap(hi) < 0:
        hi *= 2.0
        if hi > 1e9:
            raise PrivacySaturationError("target budget requires mu > 1e9")
    mu_star = float(brentq(delta_gap, lo, hi, xtol=1e-15, rtol=8.9e-16,
                           maxiter=200))

    if sampling_rate == 1.0:
        # nudge to the noisy side so the spent budget never exceeds the target
        return math.sqrt(steps) / mu_star * sensitivity * (1.0 + 1e-9)

    # composed mu is strictly decreasing in nu; bisect, keeping the upper
    # (more noise, mu <= mu*) end so the achieved epsilon stays at or below
    # the target
    def mu_at(nu: float) -> float:
        return total_gdp_mu(nu, sampling_rate, steps)

    nu_lo = 1.0
    while mu_at(nu_lo) < mu_star:
        nu_lo /= 2.0
        if nu_lo < 1e-12:
            raise PrivacySaturationError(
                "cannot bracket the noise multiplier from below")
    nu_hi = max(1.0, nu_lo)
    while mu_at(nu_hi) > mu_star:
        nu_hi *= 2.0
        if nu_hi > 1e15:
            raise PrivacySaturationError(
                "cannot bracket the noise multiplier from above")
    for _ in range(100):
        mid = 0.5 * (nu_lo + nu_hi)
        if mu_at(mid) > mu_star:
            nu_lo = mid
        else:
            nu_hi = mid
    return nu_hi * sensitivity * (1.0 + 1e-9)


def conservative_epsilon(noise_multiplier: float, sampling_rate: float,
                         steps: int, target_delta: float) -> float:
    """Loose ceiling: per-step curve + subsampling + additive composition.

    Splits delta evenly over the amplified steps, converts the per-step
    mechanism with the exact curve, amplifies, and sums epsilons.  Used as
    an independent upper reference for the CLT accountant in tests.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    delta_step = target_delta / (sampling_rate * steps)
    if not 0.0 < delta_step < 1.0:
        raise ValueError("target delta too large for this schedule")
    eps_step = gdp_epsilon(1.0 / noise_multiplier, delta_step)
    amplified = subsample_amplify(
        PrivacyBudget(epsilon=eps_step, delta=delta_step), sampling_rate)
    return steps * amplified.epsilon


def gaussian_mechanism(v, sigma: float, rng) -> np.ndarray:
    """Add isotropic Gaussian noise of scale ``sigma`` to ``v``.

    ``rng`` is a ``numpy.random.Generator``; the output is deterministic
    given its state.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and >= 0")
    arr = np.asarray(v, dtype=np.float64)
    if sigma == 0.0:
        return arr.copy()
    return arr + sigma * rng.standard_normal(arr.shape)
