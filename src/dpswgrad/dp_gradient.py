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
Jacobian is built: the rows' cotangents are kept factored at the (at most
two) layers the penalty reads (:meth:`dpswgrad.models.Trace.jacobian_rows`),
the row norms come from those factors and each layer's inputs (ghost
norms), and the clipped, coupling-weighted sum of the rows is one (n, out)
cotangent sum per layer (see :class:`dpswgrad.models.LayerGrads`).  The
OT kernel sorts the model's sides for their rank permutations; a
reference side, a fixed array of outputs, takes a value sort only, as it
has no gradient.  A call
traces one batch of the model, and every side of the model, in every
pair, is a block of its rows (a ``slice``), so a call makes one forward
pass and one norm pass of the Jacobian rows whatever the number of pairs.
The per-sample loss gradients of the finite-sum term over that batch are
clipped the same way, from one backward of their cotangents; the loss is
the model's own (bce for a model whose last layer is a sigmoid, squared
error otherwise; see :mod:`dpswgrad.models`).  Both terms'
per-layer sums are added and contracted with the layer inputs in one
weighted sum.

:func:`penalized_objective` is the one gradient of every task and every
audit: it takes the model's batch and a list of penalty pairs, clips the
outputs once and returns the reported ERM, W and total values together
with the clipped gradient.  A single pair at weight 1 without ERM is the
clipped Wasserstein gradient of that pair alone.
:func:`dpswgrad.sensitivity.sensitivity_bound` reads the same pairs, as
batch sizes, for the bound on its sensitivity.
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
    ``jac_bound1``/``jac_bound2`` cap per-sample Jacobians of the model's
    x and z sides; ``loss_grad_bound`` caps per-sample loss gradients in
    the finite-sum term.
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


# the scalar penalty is the sliced penalty along the single direction (1)
_ONE_DIRECTION = np.ones((1, 1))
_ONE_DIRECTION.setflags(write=False)


def _clipped_erm(trace, targets, bound: float, scale: float):
    """Mean loss of a whole-stack trace and each layer's sum of the clipped
    per-sample loss gradients' cotangents, times ``scale`` over the batch
    size (see :meth:`LayerGrads.layer_sums
    <dpswgrad.models.LayerGrads.layer_sums>`); the per-sample cotangents
    are not kept past this call."""
    values, grads = trace.loss_and_grads(targets)
    weights = _clip_scale(grads.norms(), bound)
    weights *= scale / values.shape[0]
    return _mean_loss(values), grads.layer_sums(weights)


def _mean_loss(values: np.ndarray) -> float:
    """Mean loss: inf, without a warning, where the sum overflows."""
    with np.errstate(over="ignore"):
        return float(np.mean(values))


def penalized_objective(model: Model, x, pairs, alpha: float,
                        clip: ClipConfig, dirs: np.ndarray | None = None,
                        erm=None):
    """Values and clipped gradient of the penalized objective.

    The objective is ``(1 - alpha) * ERM + alpha * W``, where W averages the
    (sliced) W2^2 of the clipped outputs over the R penalty ``pairs``.  The
    model traces its batch ``x`` once, and the penalty reads that trace's
    output and Jacobian rows at its layers (:attr:`Trace.penalty_output
    <dpswgrad.models.Trace.penalty_output>`).  Each pair ``(rx, z)``
    compares the model on the rows ``rx`` (a ``slice``) of ``x`` with
    ``z``: the model on another slice of ``x`` (a fairness penalty), or a
    fixed (m, d) array of reference outputs (the generation target), which
    has no Jacobian.  ``erm`` is the array of targets of all of ``x``,
    for the model's own loss, or None for a penalty-only objective (ERM
    reported 0).  ``dirs`` holds k unit directions as the rows of a (k, d)
    array; without it the outputs must be scalar and take the one
    direction.  Other pairs, an empty side and other directions are
    rejected before the forward pass.

    The gradient is ``(1 - alpha) * clipped ERM gradient + (alpha / R) *``
    the sum of the clipped Wasserstein gradients of the pairs: on ``rx``
    the model's Jacobian rows are clipped to ``clip.jac_bound1 / sqrt(d)``,
    on a slice ``z`` to ``clip.jac_bound2 / sqrt(d)``.  Whatever R,
    the outputs are clipped once and, after every pair's OT kernel, one
    set of factored Jacobian rows and one norm pass of them give the
    penalty term; each side adds its rows' clipped coupling weights into
    one array, so shared rows add up.  The ERM term's one backward runs
    after the OT kernels too, so that no per-sample cotangent is held
    while they run, and the two terms share one weighted sum.  W is read
    from the gradient's own sort.  The Jacobian rows are skipped at
    ``alpha == 0`` and the ERM gradient at ``alpha == 1``; both values
    are still reported.

    Returns ``(erm_value, w_value, total_value, grad)``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not pairs:
        raise ValueError("at least one penalty pair is required")
    d = model.penalty_dim
    if not all(len(p) == 2 and isinstance(p[0], slice) and (
            isinstance(p[1], slice) or isinstance(p[1], np.ndarray)
            and p[1].ndim == 2 and p[1].shape[1] == d
            and np.all(np.isfinite(p[1]))) for p in pairs):
        raise ValueError(
            f"each pair (rx, z) compares the model on a slice rx of its "
            f"batch with itself on another slice or with an (m, {d}) array "
            f"of finite reference outputs")
    n = len(x) if np.ndim(x) == 2 else 1
    if any(len(range(*side.indices(n)) if isinstance(side, slice)
               else side) == 0 for pair in pairs for side in pair):
        raise ValueError("both sides of every pair must be non-empty")
    if dirs is None:
        if d != 1:
            raise ValueError(
                "a (k, d) array of directions is required for "
                "multidimensional outputs")
        dirs = _ONE_DIRECTION
    if dirs.ndim != 2 or dirs.shape[0] == 0 or dirs.shape[1] != d:
        raise ValueError(f"directions must be the rows of a (k, {d}) array "
                         f"with k >= 1, got shape {dirs.shape}")
    trace = model.trace(x)
    clipped = clip_rows(trace.penalty_output, clip.output_bound)
    # (rows, (n, d) coupling gradient mapped back through the directions,
    # Jacobian row bound) of every side of the model
    sides = []
    values = []
    for rx, z in pairs:
        own = isinstance(z, slice)
        cz = clipped[z] if own else clip_rows(z, clip.output_bound)
        cx = clipped[rx]
        # (n, k) views of (k, n) blocks: the layout the OT kernel sorts in
        u, v = (dirs @ cx.T).T, (dirs @ cz.T).T
        if alpha > 0.0:
            gu, gv, columns = w2_grad_columns(u, v, grad_v=own)
            sides.append((rx, (gu @ dirs) / dirs.shape[0],
                          clip.jac_bound1))
            if own:
                sides.append((z, (gv @ dirs) / dirs.shape[0],
                              clip.jac_bound2))
            del gu, gv
        else:
            columns = w2_squared_columns(u, v)
        # (n, k) arrays, not held across the next pair's kernel
        del u, v
        # the sum and division of np.mean, without its per-call cost
        values.append(float(columns.sum()) / columns.size)
    r = len(pairs)
    # each layer's sum of both terms' clipped row cotangents, ERM first,
    # then the penalty, contracted with the layer inputs in one weighted
    # sum; this summation order is part of every replayable trajectory
    sums = None
    erm_value = 0.0
    if erm is not None and alpha < 1.0:
        erm_value, sums = _clipped_erm(trace, erm, clip.loss_grad_bound,
                                       1.0 - alpha)
    elif erm is not None:
        erm_value = _mean_loss(trace.loss(erm))
    if alpha > 0.0:
        # every side's clipped, coupling-weighted Jacobian rows add their
        # weights into one (n, d) array, so shared rows add up
        rows = trace.jacobian_rows()
        norms = rows.norms()
        weights = np.zeros(norms.shape)
        for side_rows, coupling, bound in sides:
            weights[side_rows] += coupling * _clip_scale(
                norms[side_rows], bound / np.sqrt(d))
        weights *= alpha / r
        penalty = rows.layer_sums(weights)
        if sums is None:
            sums = penalty
        else:
            for g, p in zip(sums, penalty):
                g += p
    grad = np.zeros(model.n_params) if sums is None \
        else trace.weighted_sum(sums)
    w_value = (1.0 / r) * sum(values)
    return (erm_value, w_value, (1.0 - alpha) * erm_value + alpha * w_value,
            grad)
