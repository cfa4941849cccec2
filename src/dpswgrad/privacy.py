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

Both root solves (epsilon from mu, and mu* in calibration) run Brent's
method in :func:`_brentq`, a step-for-step port of SciPy's C ``brentq``
that returns its bits.  The curve and the composition read the normal
CDF through ``math.erf`` and :func:`_log_ndtr`, a small function of
``math.erfc``, so the module needs no SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# the accountant's two special functions, each read through one module
# name so that a reference implementation can stand in: erf (libm's) and
# _log_ndtr
_erf = math.erf


def _log_ndtr(x: float) -> float:
    """log Phi(x) of the standard normal CDF, accurate where Phi(x)
    underflows.

    ``log1p(-Phi(-x))`` above -1, ``log(Phi(x))`` down to -37, and below,
    where ``erfc`` leaves the normal range, the asymptotic expansion
    ``log Phi(x) = -x^2/2 - log(-x sqrt(2 pi))
    + log(1 - 1/x^2 + 3/x^4 - 15/x^6 + ...)`` to its eighth term, past
    which the terms are below 1e-20 there.
    """
    if x > -1.0:
        return math.log1p(-0.5 * math.erfc(x * _SQRT1_2))
    if x > -37.0:
        return math.log(0.5 * math.erfc(-x * _SQRT1_2))
    r = 1.0 / (x * x)
    series = 0.0
    for k in range(8, 0, -1):  # sum_k (-1)^k (2k-1)!! r^k, by Horner
        series = -(2 * k - 1) * r * (1.0 + series)
    return -0.5 * x * x - (math.log(-x) + _LOG_SQRT_2PI) + math.log1p(series)


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


def _brentq(f, a: float, b: float, xtol: float, rtol: float,
            maxiter: int) -> float:
    """Root of ``f`` in [a, b] by Brent's method, step for step as SciPy's
    ``scipy.optimize.brentq`` (its C ``brentq``), with its errors: ValueError
    for a bracket whose ends have the same sign or a NaN value of ``f``,
    RuntimeError when ``maxiter`` iterations do not converge."""
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    def sign(v: float) -> float:  # C's signbit, as a value
        return math.copysign(1.0, v)

    def div(num: float, den: float) -> float:  # C's x/0: inf or nan
        if den != 0:
            return num / den
        if num == 0 or math.isnan(num):
            return math.nan
        return math.copysign(math.inf, num) * sign(den)

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if sign(fpre) == sign(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and sign(fpre) != sign(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = div(fpre - fcur, xpre - xcur)
                dblk = div(fblk - fcur, xblk - xcur)
                stry = div(-fcur * (fblk * dblk - fpre * dpre),
                           dblk * dpre * (fblk - fpre))
            # C's MIN(|spre|, 3|sbis| - delta) takes the second on a tie
            bound = min(3 * abs(sbis) - delta, abs(spre))
            if 2 * abs(stry) < bound:  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


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
        return _erf(mu / (2.0 * math.sqrt(2.0)))
    log1 = _log_ndtr(mu / 2.0 - epsilon / mu)
    log2 = epsilon + _log_ndtr(-mu / 2.0 - epsilon / mu)
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
    return _brentq(lambda e: gdp_delta(mu, e) - delta, 0.0, hi,
                   xtol=1e-15, rtol=8.9e-16, maxiter=200)


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
    # f = exp(x) Phi(1.5/nu) + 3 Phi(-0.5/nu) - 2 through erf, so that the
    # constants cancel exactly: 2 f = expm1(x) (1 + E_a) + (E_a - 3 E_b)
    # with E_a = erf(1.5/(nu sqrt 2)), E_b = erf(0.5/(nu sqrt 2)); the
    # direct sum loses digits to cancellation as nu grows (1e-13 at nu 24)
    ea = _erf(1.5 / nu * _SQRT1_2)
    eb = _erf(0.5 / nu * _SQRT1_2)
    f = 0.5 * (math.expm1(x) * (1.0 + ea) + (ea - 3.0 * eb))
    return math.sqrt(2.0) * p * math.sqrt(steps) * math.sqrt(max(f, 0.0))


@dataclass
class AccountantState:
    """Running DP-SGD budget: noise multiplier, sampling rate, steps taken
    and the delta at which the spent epsilon is read."""

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

    def step(self) -> None:
        """Record one more step."""
        self.steps += 1

    def epsilon_spent(self) -> float:
        """Epsilon spent by the steps taken, at the state's
        ``target_delta``."""
        if self.steps == 0:
            return 0.0
        mu = total_gdp_mu(self.noise_multiplier, self.sampling_rate,
                          self.steps)
        if math.isinf(mu):
            raise PrivacySaturationError(
                "composed mu is infinite (noise multiplier too small)")
        return gdp_epsilon(mu, self.target_delta)


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
    (monotone bisection); sigma = nu * sensitivity.  A subnormal sigma, whose
    sigma / sensitivity misses nu by more than the nudge below, raises, and
    so does one that overflows the float range.
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
    mu_star = _brentq(delta_gap, lo, hi, xtol=1e-15, rtol=8.9e-16,
                      maxiter=200)

    if sampling_rate == 1.0:
        nu_hi = math.sqrt(steps) / mu_star
    else:
        # composed mu is strictly decreasing in nu; bisect, keeping the
        # upper (more noise, mu <= mu*) end so the achieved epsilon stays
        # at or below the target
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
    # nudge to the noisy side so the spent budget never exceeds the target
    sigma = nu_hi * sensitivity * (1.0 + 1e-9)
    if sigma < np.finfo(np.float64).tiny:
        raise PrivacySaturationError(f"noise scale {sigma!r} is below the "
                                     f"normal float range")
    if sigma == math.inf:
        raise PrivacySaturationError(
            f"noise scale overflows the float range: noise multiplier "
            f"{nu_hi!r} times sensitivity {sensitivity!r}")
    return sigma


def conservative_epsilon(noise_multiplier: float, sampling_rate: float,
                         steps: int, target_delta: float) -> float:
    """Loose ceiling: per-step curve + subsampling + additive composition.

    Splits delta evenly over the amplified steps, converts the per-step
    mechanism with the exact curve, amplifies, and sums epsilons.  Used as
    an independent upper reference for the CLT accountant in tests.

    Where ``target_delta >= sampling_rate * steps`` it is 0.0: under
    replace-one with shared batch indices, the replaced record is ever
    sampled with probability at most pT <= delta, and a run that never
    samples it has the same output, so the run is (0, delta)-DP.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if target_delta >= sampling_rate * steps:
        return 0.0
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
