"""The sensitivity bound of the penalized gradient, and its audits.

One bound (how much the clipped gradient can move when one record of one
private class is swapped for an arbitrary admissible one) reads the same
pair list that :func:`dpswgrad.dp_gradient.penalized_objective` receives,
with batch sizes in place of the batches.  A randomized auditor probes it
empirically, and the classical counterexample shows that gradients of the
*unsquared* W_p cost admit no bound decaying with the sample size.

A replace-one change touches one class, and each class sits on one side of
one pair.  Changing a record on a side of size n_s, whose Jacobians are
clipped to J_s while the other side's are clipped to J_o, moves that
pair's clipped Wasserstein gradient by at most ``4 B (3 J_s + J_o) / n_s``
(B the output bound), and the clipped ERM gradient over n_erm records by at
most ``2 C / n_erm`` (C the loss-gradient bound).  Statistical parity is
one pair of sensitive classes, equality of odds one pair per label class,
generation one pair against a parameter-free reference, and a one-sided
audit a pair whose second side is public.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .jsonio import write_json
from .ot_core import w2_grad_columns

__all__ = [
    "SensitivityReport",
    "sensitivity_bound",
    "empirical_sensitivity",
    "uniform_box_replacement",
    "WpCounterexample",
    "wp_counterexample",
    "w2_counterexample_contrast",
]


def sensitivity_bound(model, pairs, alpha: float, clip,
                      n_erm: int | None = None) -> float:
    """Replace-one sensitivity of the gradient of ``penalized_objective``.

    ``pairs`` lists ``(n_x, h, n_z)`` per penalty pair, as the objective's
    ``(rx, h, z)`` with each side replaced by its size: ``model`` on a
    batch of ``n_x`` records against ``h`` on ``n_z`` records.  A side
    whose records are public has size None.  ``clip`` is the objective's
    :class:`~dpswgrad.dp_gradient.ClipConfig`, whose ``jac_bound1`` clips
    the model's Jacobians and ``jac_bound2`` those of ``h``; a
    parameter-free map has Jacobian bound 0.  ``n_erm`` is the size of the
    ERM batch, or None for a penalty-only objective.

    With R pairs the bound is ``(1 - alpha) * 2C/n_erm + (alpha/R) *`` the
    max over pairs and private sides s of ``4B(3 J_s + J_o)/n_s``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not pairs:
        raise ValueError("at least one penalty pair is required")
    weight = alpha / len(pairs)
    j_x = clip.jac_bound1 if model.n_params else 0.0
    worst = 0.0
    for n_x, h, n_z in pairs:
        j_z = clip.jac_bound2 if h.n_params else 0.0
        for n_s, j_s, j_o in ((n_x, j_x, j_z), (n_z, j_z, j_x)):
            if n_s is None:
                continue
            if n_s < 1:
                raise ValueError("all batch sizes must be >= 1")
            worst = max(worst, weight * 4.0 * clip.output_bound
                        * (3.0 * j_s + j_o) / n_s)
    if n_erm is None:
        return worst
    if n_erm < 1:
        raise ValueError("the ERM batch size must be >= 1")
    return (1.0 - alpha) * 2.0 * clip.loss_grad_bound / n_erm + worst


@dataclass
class SensitivityReport:
    """Outcome of a randomized sensitivity audit."""

    theoretical_bound: float | None
    empirical_max: float
    trials: int
    ratio: float | None

    def to_json(self, path) -> None:
        write_json(path, asdict(self))


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


def _counterexample_grids(n: int) -> tuple:
    """The grid ``x_i = i/n``, its neighbor ``(i-1)/n`` and the midpoint
    grid ``(2i-1)/(2n)``, for i = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(1, n + 1, dtype=np.float64)
    return idx / n, (idx - 1.0) / n, (2.0 * idx - 1.0) / (2.0 * n)


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
    x, x_tilde, z = _counterexample_grids(n)
    if p_order < 1:
        raise ValueError("p_order must be >= 1")

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
    x, x_tilde, z = _counterexample_grids(n)
    # d/dt W2^2(x + t, z) at t=0 is the sum of the value-space gradient
    grad_x = float(np.sum(w2_grad_columns(x, z)[0]))
    grad_xt = float(np.sum(w2_grad_columns(x_tilde, z)[0]))
    return abs(grad_x - grad_xt)
