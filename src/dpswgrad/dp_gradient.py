"""Inner-clipped Wasserstein gradient proxy and the penalized objective.

The parameter-space gradient of W2^2 between two model output distributions
decomposes into per-sample terms: coupling-weighted output differences times
per-sample parameter gradients.  Clipping the *outputs* to a norm ball and
the *per-sample Jacobians* to a norm bound before assembling the sum yields
a proxy whose sensitivity to any single record is controlled, which is what
lets Gaussian noise privatize it cheaply.

Clipped norms: with output bound B and Jacobian bounds J1 (x-side) and J2
(z-side), the assembled proxy always satisfies ||grad||_2 <= 4*B*(J1 + J2).

In the multidimensional case the Jacobian rows are clipped to bound/sqrt(d)
individually (which caps the spectral norm at ``bound``) rather than through
an SVD; this is the scheme actually used in training.

:func:`penalized_objective` is the one training step of every task: it
clips each penalty pair's outputs once and returns the reported ERM, W and
total values together with the clipped gradient.
:func:`clipped_wasserstein_grad` is the gradient of a single pair alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Model
from .ot_core import w2_grad_columns, w2_squared_columns
from .sliced import ProjectionSet

__all__ = [
    "ClipConfig",
    "clip_vector",
    "clip_rows",
    "clip_jacobian_naive",
    "clipped_wasserstein_grad",
    "clipped_erm_grad",
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
        """Both maps share one Jacobian bound (the fairness-training case)."""
        return cls(output_bound, jac_bound, jac_bound, loss_grad_bound)


def clip_vector(v, bound: float) -> np.ndarray:
    """Project ``v`` onto the L2 ball of radius ``bound``.

    Vectors inside the ball (and the zero vector) are returned unchanged;
    for scalars this is clamping to [-bound, bound].
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    arr = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if norm <= bound or norm == 0.0:
        return arr.copy()
    return arr * (bound / norm)


def clip_rows(mat: np.ndarray, bound: float) -> np.ndarray:
    """Clip every row of a 2D array to L2 norm ``bound`` (vectorized)."""
    norms = np.linalg.norm(mat, axis=-1, keepdims=True)
    scale = np.minimum(1.0, np.divide(
        bound, norms, out=np.ones_like(norms), where=norms > 0))
    return mat * scale


def clip_jacobian_naive(jac: np.ndarray, bound: float) -> np.ndarray:
    """Row-wise Jacobian clipping: each of the d rows to bound/sqrt(d).

    Guarantees spectral norm <= ``bound`` without a matrix decomposition.
    Accepts a single (d, p) Jacobian or a batch (n, d, p); for d = 1 this is
    plain vector clipping.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    jac = np.asarray(jac, dtype=np.float64)
    d = jac.shape[-2]
    return clip_rows(jac, bound / np.sqrt(d))


def _clipped_outputs(g: Model, h: Model, x, z, output_bound: float,
                     dirs: ProjectionSet | None):
    """Validated inputs and clipped (then projected) outputs of one pair."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if x.shape[0] == 0 or z.shape[0] == 0:
        raise ValueError("both sample slices must be non-empty")
    if not (g is h or g.n_params == 0 or h.n_params == 0):
        raise ValueError(
            "the two maps must share their parameter vector (same object) "
            "or one of them must be parameter-free")
    u_raw = g.penalty_forward_batch(x)
    v_raw = h.penalty_forward_batch(z)
    if u_raw.shape[1] != v_raw.shape[1]:
        raise ValueError("the two maps must produce outputs of equal dimension")
    d = u_raw.shape[1]
    if dirs is None:
        if d != 1:
            raise ValueError(
                "a ProjectionSet is required for multidimensional outputs")
        u = np.clip(u_raw, -output_bound, output_bound)
        v = np.clip(v_raw, -output_bound, output_bound)
        return x, z, u, v
    if d != dirs.dim:
        raise ValueError(f"outputs are {d}-dimensional but directions are "
                         f"{dirs.dim}-dimensional")
    return (x, z, clip_rows(u_raw, output_bound) @ dirs.directions.T,
            clip_rows(v_raw, output_bound) @ dirs.directions.T)


def _assemble(g: Model, h: Model, x, z, u, v, clip: ClipConfig,
              dirs: ProjectionSet | None) -> np.ndarray:
    """Coupling-weighted sum of the clipped per-sample Jacobians."""
    gu, gv = w2_grad_columns(u, v)
    total = np.zeros(max(g.n_params, h.n_params))
    if dirs is None:
        if g.n_params:
            jg = clip_rows(g.penalty_jacobian_batch(x)[:, 0, :],
                           clip.jac_bound1)
            total += gu[:, 0] @ jg
        if h.n_params:
            jh = clip_rows(h.penalty_jacobian_batch(z)[:, 0, :],
                           clip.jac_bound2)
            total += gv[:, 0] @ jh
        return total

    k = dirs.k
    if g.n_params:
        jg = clip_jacobian_naive(g.penalty_jacobian_batch(x), clip.jac_bound1)
        coeff = (gu @ dirs.directions) / k          # (n, d)
        total += np.einsum("nd,ndp->p", coeff, jg)
    if h.n_params:
        jh = clip_jacobian_naive(h.penalty_jacobian_batch(z), clip.jac_bound2)
        coeff = (gv @ dirs.directions) / k
        total += np.einsum("nd,ndp->p", coeff, jh)
    return total


def clipped_wasserstein_grad(g: Model, h: Model, x, z, clip: ClipConfig,
                             dirs: ProjectionSet | None = None) -> np.ndarray:
    """Clipped parameter-space gradient proxy for (sliced) W2^2.

    Outputs are clipped to the ball of radius ``clip.output_bound`` before
    the coupling is built; per-sample Jacobians are clipped to
    ``clip.jac_bound1`` / ``clip.jac_bound2`` (row-wise in the sliced case)
    before being weighted in.  With ``dirs`` given, the result is the average
    of the per-direction 1D assemblies over the projected outputs.
    """
    x, z, u, v = _clipped_outputs(g, h, x, z, clip.output_bound, dirs)
    return _assemble(g, h, x, z, u, v, clip, dirs)


def clipped_erm_grad(model: Model, x, targets, loss_kind: str,
                     bound: float) -> np.ndarray:
    """Mean of per-sample loss gradients, each clipped to norm ``bound``."""
    grads = model.loss_grad_batch(x, targets, loss_kind)
    return clip_rows(grads, bound).mean(axis=0)


def penalized_objective(model: Model, pairs, alpha: float, clip: ClipConfig,
                        dirs: ProjectionSet | None = None, erm=None):
    """Values and clipped gradient of the penalized objective.

    The objective is ``(1 - alpha) * ERM + alpha * W``, where W averages the
    (sliced) W2^2 of the clipped outputs over the R penalty ``pairs``.  Each
    pair ``(x, h, z)`` compares ``model`` on ``x`` with ``h`` on ``z``;
    ``h`` is ``model`` itself (a fairness penalty) or a parameter-free
    reference map.  ``erm`` is ``(x, targets, loss_kind)`` for the
    finite-sum term, or None for a penalty-only objective (ERM reported 0).

    The gradient is ``(1 - alpha) * clipped ERM gradient + (alpha / R) *``
    the sum of the clipped Wasserstein gradients of the pairs.  Each pair's
    outputs are computed and clipped once and serve both the reported W and
    the gradient.  The Jacobians are skipped at ``alpha == 0`` and the ERM
    gradient at ``alpha == 1``; both values are still reported.

    Returns ``(erm_value, w_value, total_value, grad)``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not pairs:
        raise ValueError("at least one penalty pair is required")
    # ERM first, then the penalty: this summation order is part of every
    # replayable trajectory.  clipped_erm_grad also frees its (n, p)
    # per-sample array before the (n, d, p) Jacobians below are built.
    grad = np.zeros(model.n_params)
    erm_value = 0.0
    if erm is not None:
        x_full, targets, loss_kind = erm
        if alpha < 1.0:
            grad += (1.0 - alpha) * clipped_erm_grad(
                model, x_full, targets, loss_kind, clip.loss_grad_bound)
        erm_value = float(np.mean(model.loss_batch(x_full, targets,
                                                   loss_kind)))
    values = []
    penalty = np.zeros(model.n_params)
    for x, h, z in pairs:
        x, z, u, v = _clipped_outputs(model, h, x, z, clip.output_bound, dirs)
        values.append(float(np.mean(w2_squared_columns(u, v))))
        if alpha > 0.0:
            penalty += _assemble(model, h, x, z, u, v, clip, dirs)
    r = len(pairs)
    if alpha > 0.0:
        grad += (alpha / r) * penalty
    w_value = (1.0 / r) * sum(values)
    return (erm_value, w_value, (1.0 - alpha) * erm_value + alpha * w_value,
            grad)
