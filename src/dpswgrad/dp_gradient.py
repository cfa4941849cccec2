"""Inner-clipped Wasserstein gradient proxy and the penalized objective.

The parameter-space gradient of W2^2 between two model output distributions
decomposes into per-sample terms: coupling-weighted output differences times
per-sample parameter gradients.  Clipping the *outputs* to a norm ball and
the *per-sample Jacobians* to a norm bound before assembling the sum yields
a proxy whose sensitivity to any single record is controlled, which is what
lets Gaussian noise privatize it cheaply.

Clipped norms: with output bound B and Jacobian bounds J1 (x-side) and J2
(z-side), the assembled proxy always satisfies ||grad||_2 <= 4*B*(J1 + J2).

Every penalty takes one path: outputs clipped row-wise to the ball,
projected onto k unit directions, and the coupling gradient contracted with
the clipped per-sample Jacobian rows.  A scalar output is the sliced case
with the single direction (1), where the ball is the interval [-B, B].
The Jacobian rows are clipped to bound/sqrt(d) individually (which caps the
spectral norm at ``bound``) rather than through an SVD.  No per-sample
Jacobian is built: the row norms come from each traced layer's output
cotangents and inputs (ghost norms), and the clipped, coupling-weighted
sum of the rows is one summed backward pass (see
:class:`dpswgrad.models.LayerGrads`).  The per-sample loss gradients of
the finite-sum term are clipped the same way.

:func:`penalized_objective` is the one gradient of every task and every
audit: it takes a list of penalty pairs, clips each pair's outputs once and
returns the reported ERM, W and total values together with the clipped
gradient.  A single pair at weight 1 without ERM is the clipped Wasserstein
gradient of that pair alone.  :func:`dpswgrad.sensitivity.sensitivity_bound`
reads the same pairs, as batch sizes, for the bound on its sensitivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Model
from .ot_core import w2_grad_columns, w2_squared_columns

__all__ = [
    "ClipConfig",
    "clip_rows",
    "penalized_objective",
]


@dataclass(frozen=True)
class ClipConfig:
    """Clipping bounds: model outputs, per-sample Jacobians, loss gradients.

    ``output_bound`` caps the norm of model outputs entering the coupling;
    ``jac_bound1``/``jac_bound2`` cap per-sample Jacobians of the x-side and
    z-side maps; ``loss_grad_bound`` caps per-sample loss gradients in the
    finite-sum term.
    """

    output_bound: float
    jac_bound1: float
    jac_bound2: float
    loss_grad_bound: float = 0.0

    def __post_init__(self):
        for name in ("output_bound", "jac_bound1", "jac_bound2",
                     "loss_grad_bound"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")

    @classmethod
    def symmetric(cls, output_bound: float, jac_bound: float,
                  loss_grad_bound: float = 0.0) -> "ClipConfig":
        """Both sides share one Jacobian bound (what ``train`` uses)."""
        return cls(output_bound, jac_bound, jac_bound, loss_grad_bound)


def _clip_scale(norms: np.ndarray, bound: float) -> np.ndarray:
    """Factors that bring rows of the given norms within ``bound``."""
    return np.minimum(1.0, np.divide(
        bound, norms, out=np.ones_like(norms), where=norms > 0))


def clip_rows(mat: np.ndarray, bound: float) -> np.ndarray:
    """Clip every row of a 2D array to L2 norm ``bound`` (vectorized)."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(mat, axis=-1, keepdims=True)
    over = np.isinf(norms[..., 0])
    if over.any():
        # finite rows whose norm overflows: take it relative to their
        # largest entry
        peak = np.max(np.abs(mat), axis=-1)
        over &= np.isfinite(peak)
        peak = peak[over][:, None]
        norms[over] = peak * np.linalg.norm(mat[over] / peak, axis=-1,
                                            keepdims=True)
    return mat * _clip_scale(norms, bound)


def _clipped_sum(grads, bound: float, weights=None) -> np.ndarray:
    """``sum_{i, j} weights[i, j] * clip(row (i, j), bound)`` of the
    per-sample gradients ``grads`` (:class:`~dpswgrad.models.LayerGrads`);
    unit weights when None."""
    scale = _clip_scale(grads.norms(), bound)
    return grads.weighted_sum(scale if weights is None else weights * scale)


# the scalar penalty is the sliced penalty along the single direction (1)
_ONE_DIRECTION = np.ones((1, 1))
_ONE_DIRECTION.setflags(write=False)


def _side_trace(model: Model, side, shared):
    """Penalty trace of one side: the ERM trace's rows for a ``slice``,
    else a forward pass of ``side``."""
    if not isinstance(side, slice):
        return model.penalty_trace(
            np.atleast_2d(np.asarray(side, dtype=np.float64)))
    if shared is None or model is not shared.model:
        raise ValueError("a slice side reads the rows of the ERM batch and "
                         "needs the model's ERM term")
    return shared.penalty_rows(side)


def _clipped_outputs(g: Model, h: Model, x, z, output_bound: float,
                     dirs: np.ndarray | None, shared):
    """Traces, directions and clipped projected outputs of a pair.

    ``shared`` is the trace of the ERM batch (None without ERM), whose
    rows a ``slice`` side reads.  Without the (k, d) ``dirs`` the outputs
    must be scalar and take the one direction.
    """
    if not (h is g or h.n_params == 0):
        raise ValueError(
            "the second map must share the model's parameter vector (same "
            "object) or be parameter-free")
    tx = _side_trace(g, x, shared)
    tz = _side_trace(h, z, shared)
    if tx.output.shape[0] == 0 or tz.output.shape[0] == 0:
        raise ValueError("both sample slices must be non-empty")
    if tx.output.shape[1] != tz.output.shape[1]:
        raise ValueError("the two maps must produce outputs of equal dimension")
    d = tx.output.shape[1]
    if dirs is None:
        if d != 1:
            raise ValueError(
                "a (k, d) array of directions is required for "
                "multidimensional outputs")
        dirs = _ONE_DIRECTION
    if d != dirs.shape[1]:
        raise ValueError(f"outputs are {d}-dimensional but directions are "
                         f"{dirs.shape[1]}-dimensional")
    return (tx, tz, dirs,
            clip_rows(tx.output, output_bound) @ dirs.T,
            clip_rows(tz.output, output_bound) @ dirs.T)


def _assemble(tx, tz, u, v, clip: ClipConfig, dirs: np.ndarray):
    """Coupling-weighted sum of the clipped per-sample Jacobian rows.

    ``tx`` and ``tz`` are the penalty traces of the two sides.  Returns the
    gradient (None when neither side has parameters) and the (k,)
    per-direction W2^2 of ``u``, ``v``.
    """
    gu, gv, values = w2_grad_columns(u, v)
    one_hot = np.eye(dirs.shape[1])[None]
    total = None
    for trace, grad_cols, bound in ((tx, gu, clip.jac_bound1),
                                    (tz, gv, clip.jac_bound2)):
        if trace.model.n_params:
            coeff = (grad_cols @ dirs) / dirs.shape[0]    # (n, d)
            side = _clipped_sum(trace.backward(one_hot),
                                bound / np.sqrt(dirs.shape[1]), coeff)
            total = side if total is None else total + side
    return total, values


def _clipped_erm(trace, targets, loss_kind: str, bound: float):
    """Mean loss and mean clipped loss gradient of a whole-stack trace."""
    values, grads = trace.loss_and_grads(targets, loss_kind)
    return (_mean_loss(values),
            _clipped_sum(grads, bound) / values.shape[0])


def _mean_loss(values: np.ndarray) -> float:
    """Mean loss: inf, without a warning, where the sum overflows."""
    with np.errstate(over="ignore"):
        return float(np.mean(values))


def penalized_objective(model: Model, pairs, alpha: float, clip: ClipConfig,
                        dirs: np.ndarray | None = None, erm=None):
    """Values and clipped gradient of the penalized objective.

    The objective is ``(1 - alpha) * ERM + alpha * W``, where W averages the
    (sliced) W2^2 of the clipped outputs over the R penalty ``pairs``.  Each
    pair ``(x, h, z)`` compares ``model`` on ``x`` with ``h`` on ``z``;
    ``h`` is ``model`` itself (a fairness penalty) or a parameter-free
    reference map.  ``erm`` is ``(x, targets, loss_kind)`` for the
    finite-sum term, or None for a penalty-only objective (ERM reported 0).
    ``dirs`` holds k unit directions as the rows of a (k, d) array; without
    it the outputs must be scalar and take the one direction.

    With ``erm``, its batch is traced once, and a side of ``model`` given
    as a ``slice`` is that block of the batch's rows: it reads its outputs
    and its backward from the same trace (:meth:`Trace.penalty_rows
    <dpswgrad.models.Trace.penalty_rows>`).  Every other side, an array of
    inputs, is traced on its own.  So a step whose pairs cut their classes
    from the ERM batch makes one forward pass.

    The gradient is ``(1 - alpha) * clipped ERM gradient + (alpha / R) *``
    the sum of the clipped Wasserstein gradients of the pairs: on ``x``
    the model's Jacobian rows are clipped to ``clip.jac_bound1 / sqrt(d)``,
    on ``z`` those of ``h`` to ``clip.jac_bound2 / sqrt(d)``.  A trace
    serves both the reported values and the gradient, and W is read from
    the gradient's own sort.  The Jacobian rows are skipped at
    ``alpha == 0`` and the ERM gradient at ``alpha == 1``; both values are
    still reported.

    Returns ``(erm_value, w_value, total_value, grad)``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not pairs:
        raise ValueError("at least one penalty pair is required")
    # ERM first, then the penalty: this summation order is part of every
    # replayable trajectory.  Terms are added only where they exist, so a
    # single pair at weight 1 returns its own gradient array.
    grad = None
    erm_value = 0.0
    shared = None
    if erm is not None:
        x_full, targets, loss_kind = erm
        shared = model.trace(x_full)
        if alpha < 1.0:
            erm_value, erm_grad = _clipped_erm(shared, targets, loss_kind,
                                               clip.loss_grad_bound)
            grad = (1.0 - alpha) * erm_grad
        else:
            erm_value = _mean_loss(shared.loss(targets, loss_kind))
    values = []
    penalty = None
    for x, h, z in pairs:
        tx, tz, dirs, u, v = _clipped_outputs(model, h, x, z,
                                              clip.output_bound, dirs, shared)
        if alpha > 0.0:
            pair_grad, columns = _assemble(tx, tz, u, v, clip, dirs)
            if penalty is None:
                penalty = pair_grad
            else:
                penalty += pair_grad
        else:
            columns = w2_squared_columns(u, v)
        # the sum and division of np.mean, without its per-call cost
        values.append(float(columns.sum()) / columns.size)
    r = len(pairs)
    if penalty is not None:
        if alpha != r:    # alpha / r == 1 only for one pair at weight 1
            penalty *= alpha / r
        grad = penalty if grad is None else grad + penalty
    if grad is None:
        grad = np.zeros(model.n_params)
    w_value = (1.0 / r) * sum(values)
    return (erm_value, w_value, (1.0 - alpha) * erm_value + alpha * w_value,
            grad)
