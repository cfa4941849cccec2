"""Sensitivity bounds for clipped Wasserstein and penalized gradients.

Closed-form replace-one sensitivity bounds (how much each gradient can move
when one record of one class is swapped for an arbitrary admissible one),
a randomized auditor that probes those bounds empirically, and the classical
counterexample showing that gradients of the *unsquared* W_p cost admit no
bound decaying with the sample size.

One bound covers every fairness penalty: statistical parity is equality of
odds with one label class, i.e. R = 1 pair of sensitive classes.

Notation used throughout: ``output_bound`` caps clipped model outputs,
``jac_bound1``/``jac_bound2`` cap per-sample Jacobians on the two sides,
``loss_grad_bound`` caps per-sample loss gradients in finite-sum terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jsonio import write_json
from .ot_core import w2_grad

__all__ = [
    "SensitivityReport",
    "bound_one_sided",
    "bound_two_sided",
    "bound_penalized",
    "empirical_sensitivity",
    "uniform_box_replacement",
    "WpCounterexample",
    "wp_counterexample",
    "w2_counterexample_contrast",
]


def bound_one_sided(output_bound: float, jac_bound1: float,
                    jac_bound2: float, n: int) -> float:
    """Sensitivity bound when only the first (size n) sample is private.

    Returns ``4 * output_bound * (3 * jac_bound1 + jac_bound2) / n``.
    """
    _check_bounds(output_bound, jac_bound1, jac_bound2)
    if n < 1:
        raise ValueError("n must be >= 1")
    return 4.0 * output_bound * (3.0 * jac_bound1 + jac_bound2) / n


def bound_two_sided(output_bound: float, jac_bound1: float,
                    jac_bound2: float, n: int, m: int) -> float:
    """Sensitivity bound when both samples (sizes n and m) are private."""
    _check_bounds(output_bound, jac_bound1, jac_bound2)
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be >= 1")
    return 4.0 * output_bound * max(
        (3.0 * jac_bound1 + jac_bound2) / n,
        (jac_bound1 + 3.0 * jac_bound2) / m)


def bound_penalized(loss_grad_bound: float, output_bound: float,
                    jac_bound: float, sizes, alpha: float) -> float:
    """Sensitivity of the penalized gradient over R pairs of classes.

    ``sizes`` are the 2R class sizes of the penalty pairs: the two
    sensitive classes for statistical parity (R = 1), the two sensitive
    classes within each of the R label classes for equality of odds.  With
    n their sum and C, B, J the loss-gradient, output and Jacobian bounds
    the bound is ``(1 - alpha) * 2C/n + (alpha / R) * 16*B*J / min(sizes)``.
    """
    _check_bounds(output_bound, jac_bound, loss_grad_bound)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    sizes = [int(s) for s in sizes]
    if not sizes or len(sizes) % 2:
        raise ValueError("sizes must list two classes per penalty pair, "
                         f"got {len(sizes)} sizes")
    if min(sizes) < 1:
        raise ValueError("all class sizes must be >= 1")
    n, r = sum(sizes), len(sizes) // 2
    return ((1.0 - alpha) * 2.0 * loss_grad_bound / n
            + (alpha / r) * 16.0 * output_bound * jac_bound / min(sizes))


def _check_bounds(*bounds) -> None:
    if any(b < 0 for b in bounds):
        raise ValueError("bounds must be >= 0")


@dataclass
class SensitivityReport:
    """Outcome of a randomized sensitivity audit."""

    theoretical_bound: float | None
    empirical_max: float
    trials: int
    ratio: float | None

    def to_dict(self) -> dict:
        return {"theoretical_bound": self.theoretical_bound,
                "empirical_max": self.empirical_max,
                "trials": self.trials,
                "ratio": self.ratio}

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())


def uniform_box_replacement(low, high):
    """Replacement sampler drawing records uniformly from a box domain."""
    low = np.atleast_1d(np.asarray(low, dtype=np.float64))
    high = np.atleast_1d(np.asarray(high, dtype=np.float64))
    if low.shape != high.shape or np.any(low > high):
        raise ValueError("invalid box domain")

    def draw(rng, class_index):
        return rng.uniform(low, high)

    return draw


def empirical_sensitivity(gradient_fn, base_classes, draw_replacement,
                          trials: int, seed: int,
                          theoretical_bound: float | None = None
                          ) -> SensitivityReport:
    """Probe the replace-one sensitivity of ``gradient_fn`` by random trials.

    ``gradient_fn`` maps a list of per-class (n_i, d) arrays to a gradient
    vector.  Each trial replaces one record of one uniformly chosen class by
    ``draw_replacement(rng, class_index)`` and records the L2 gap to the
    base gradient; the max over trials lower-bounds the true sensitivity.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    classes = [np.atleast_2d(np.asarray(c, dtype=np.float64))
               for c in base_classes]
    if not classes:
        raise ValueError("need at least one class")
    if any(c.shape[0] < 1 for c in classes):
        raise ValueError("class sizes must be >= 1")
    base_grad = np.asarray(gradient_fn(classes), dtype=np.float64)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        j = int(rng.integers(len(classes)))
        i = int(rng.integers(classes[j].shape[0]))
        replacement = np.asarray(draw_replacement(rng, j), dtype=np.float64)
        perturbed = list(classes)
        mod = classes[j].copy()
        mod[i] = replacement
        perturbed[j] = mod
        gap = float(np.linalg.norm(
            np.asarray(gradient_fn(perturbed), dtype=np.float64) - base_grad))
        worst = max(worst, gap)
    if theoretical_bound is None:
        ratio = None
    elif theoretical_bound > 0:
        ratio = worst / theoretical_bound
    else:
        ratio = 0.0 if worst == 0.0 else float("inf")
    return SensitivityReport(theoretical_bound=theoretical_bound,
                             empirical_max=worst, trials=trials, ratio=ratio)


@dataclass(frozen=True)
class WpCounterexample:
    """Gradient of the order-p Wasserstein cost on two neighboring grids."""

    grad_x: float
    grad_x_tilde: float
    gap: float


def _wp_value(sample, reference, p_order: int, shift: float) -> float:
    diffs = np.abs(np.sort(sample) + shift - np.sort(reference))
    return float(np.mean(diffs ** p_order) ** (1.0 / p_order))


def wp_counterexample(n: int, p_order: int = 1) -> WpCounterexample:
    """Neighboring grids whose W_p gradient gap stays 2 for every n.

    ``x_i = i/n`` and its replace-one neighbor ``x_i = (i-1)/n`` are matched
    against the midpoint grid ``z_i = (2i-1)/(2n)`` through the shift map
    ``x + t``.  The sorted pairwise differences are constant (+-1/(2n)), so
    the cost is exactly ``|t +- 1/(2n)|`` near t = 0 and the two derivatives
    are +1 and -1 regardless of n or p: no decay with the sample size, in
    contrast with the squared-cost gradient (see
    :func:`w2_counterexample_contrast`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p_order < 1:
        raise ValueError("p_order must be >= 1")
    idx = np.arange(1, n + 1, dtype=np.float64)
    x = idx / n
    x_tilde = (idx - 1.0) / n
    z = (2.0 * idx - 1.0) / (2.0 * n)

    # constant sorted differences: derivative of |c + t| at t=0 is sign(c)
    c_x = x - z
    c_xt = x_tilde - z
    grad_x = float(np.sign(c_x[0]))
    grad_xt = float(np.sign(c_xt[0]))

    # finite-difference cross-check on the smooth branch (h < |c|)
    h = 1.0 / (8.0 * n)
    for sample, analytic in ((x, grad_x), (x_tilde, grad_xt)):
        fd = (_wp_value(sample, z, p_order, h)
              - _wp_value(sample, z, p_order, -h)) / (2.0 * h)
        if abs(fd - analytic) > 1e-6:
            raise RuntimeError(
                f"finite-difference check failed: {fd} vs {analytic}")

    return WpCounterexample(grad_x=grad_x, grad_x_tilde=grad_xt,
                            gap=abs(grad_x - grad_xt))


def w2_counterexample_contrast(n: int) -> float:
    """Gradient gap of the *squared* cost on the counterexample grids.

    Same construction and shift map as :func:`wp_counterexample` but with
    W2^2 as the cost: the gap decays like 2/n instead of staying at 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(1, n + 1, dtype=np.float64)
    x = idx / n
    x_tilde = (idx - 1.0) / n
    z = (2.0 * idx - 1.0) / (2.0 * n)
    # d/dt W2^2(x + t, z) at t=0 is the sum of the value-space gradient
    grad_x = float(np.sum(w2_grad(x, z)[0]))
    grad_xt = float(np.sum(w2_grad(x_tilde, z)[0]))
    return abs(grad_x - grad_xt)
