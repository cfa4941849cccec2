"""Exact squared Wasserstein distance between 1D empirical measures.

For two uniform empirical measures supported on ``n`` and ``m`` points, the
squared W2 distance is the L2 distance between their (piecewise-constant)
quantile functions.  Expanding that integral over the merged quantile grid
gives a sparse weighting

    R[i, j] = length(((i-1)/n, i/n] . ((j-1)/m, j/m])

with at most ``n + m - 1`` nonzero entries, and

    W2^2 = sum_{i,j} R[rank_u(i), rank_v(j)] * (u_i - v_j)^2

which is linear-time after sorting and differentiable in the sample values
wherever the within-sample orderings are strict.  This module computes the
coupling, the distance, and its closed-form gradient, which comes with the
distance read from the same sorted arrays.  Along the coupling's entries
``e`` the displacements ``D[e] = u_(rows[e]) - v_(cols[e])`` of the sorted
samples give both: ``W2^2 = sum_e weights[e] D[e]^2``, and the gradient of
sorted sample ``i`` is ``2 sum_{e: rows[e] = i} weights[e] D[e]`` (of
``v_(j)``, minus the same sum over ``cols[e] = j``), one sparse product of
a cached weighting matrix with ``D`` per side.

At repeated values the gradient depends on which tied sample takes which
rank; it uses the stable-sort permutation (tied samples keep their input
order).  Each column is ordered by one default-kind ``argsort``, which is
cheaper than a stable one.  Where a column's values are distinct, the
sorting permutation is unique, so that order is the stable one; only
columns with a tie are sorted again with ``kind="stable"``.  The distance
alone needs no permutation and takes a plain ``np.sort``.

All indices in :class:`QuantileCoupling` are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

__all__ = [
    "QuantileCoupling",
    "quantile_coupling",
    "w2_squared",
    "w2_grad",
    "w2_squared_columns",
    "w2_grad_columns",
]


def _as_sample(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one value")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN/inf)")
    return arr


def _as_columns(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty (n, k) array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN/inf)")
    return arr


@dataclass(frozen=True)
class QuantileCoupling:
    """Sparse optimal coupling between uniform n-point and m-point measures.

    ``rows[e], cols[e], weights[e]`` enumerate the E nonzero entries of R
    in increasing quantile order (0-based row/column indices).  ``by_row``
    and ``by_col`` are the (n, E) and (m, E) CSR matrices that carry the
    weights, so ``by_row @ a`` sums ``weights[e] * a[e]`` over the entries
    of each row of R, and ``by_col @ a`` over those of each column.
    """

    n: int
    m: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    by_row: sparse.csr_array
    by_col: sparse.csr_array

    def __len__(self) -> int:
        return self.weights.size


def _segment_matrix(segments: np.ndarray, size: int,
                    weights: np.ndarray) -> sparse.csr_array:
    """(size, E) CSR matrix with ``weights[e]`` at (segments[e], e), for
    nondecreasing ``segments``."""
    mat = sparse.csr_array(
        (weights, np.arange(weights.size),
         np.searchsorted(segments, np.arange(size + 1))),
        shape=(size, weights.size))
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    return mat


@lru_cache(maxsize=1024)
def quantile_coupling(n: int, m: int) -> QuantileCoupling:
    """Build the quantile coupling for sizes ``n`` and ``m``.

    The merged breakpoints are handled as exact integers on the common grid
    of step 1/(n*m), so entry weights are single correctly-rounded divisions
    and row/column sums telescope to 1/n and 1/m up to a few ulp.
    """
    if n < 1 or m < 1:
        raise ValueError("sample sizes must be >= 1")
    n = int(n)
    m = int(m)
    # right edges of the merged partition, scaled by n*m (exact integers)
    edges = np.union1d(
        np.arange(1, n + 1, dtype=np.int64) * m,
        np.arange(1, m + 1, dtype=np.int64) * n,
    )
    starts = np.concatenate((np.zeros(1, dtype=np.int64), edges[:-1]))
    weights = (edges - starts) / float(n * m)
    rows = (edges + m - 1) // m - 1
    cols = (edges + n - 1) // n - 1
    for arr in (rows, cols, weights):
        arr.setflags(write=False)
    return QuantileCoupling(
        n=n,
        m=m,
        rows=rows,
        cols=cols,
        weights=weights,
        by_row=_segment_matrix(rows, n, weights),
        by_col=_segment_matrix(cols, m, weights),
    )


def _coupled_w2_columns(displacements, weights) -> np.ndarray:
    """Columnwise W2^2 from the displacements along the coupling."""
    return weights @ (displacements * displacements)


def w2_squared_columns(u, v) -> np.ndarray:
    """Columnwise W2^2 for stacked samples ``u`` (n, k) and ``v`` (m, k)."""
    u = _as_columns(u, "u")
    v = _as_columns(v, "v")
    us = np.sort(u, axis=0)
    vs = np.sort(v, axis=0)
    c = quantile_coupling(u.shape[0], v.shape[0])
    return _coupled_w2_columns(us[c.rows, :] - vs[c.cols, :], c.weights)


def w2_squared(u, v) -> float:
    """Squared W2 distance between the empirical measures of ``u`` and ``v``."""
    u = _as_sample(u, "u")
    v = _as_sample(v, "v")
    return float(w2_squared_columns(u[:, None], v[:, None])[0])


def _stable_sort_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable-sort permutation of every column of ``a`` and the sorted values.

    One default-kind argsort orders all columns.  A column whose sorted
    values hold no two equal neighbours has exactly one sorting permutation,
    which is the stable one; only columns with a tie (``-0.0 == 0.0``
    included) are sorted again with ``kind="stable"``.
    """
    order = np.argsort(a, axis=0)
    s = np.take_along_axis(a, order, axis=0)
    tied = np.flatnonzero((s[1:] == s[:-1]).any(axis=0))
    if tied.size:
        sub = a[:, tied]
        order[:, tied] = np.argsort(sub, axis=0, kind="stable")
        s[:, tied] = np.take_along_axis(sub, order[:, tied], axis=0)
    return order, s


def w2_grad_columns(u, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnwise closed-form gradients of :func:`w2_squared_columns`.

    Returns ``(grad_u, grad_v, values)``: the gradients with the same
    shapes as the inputs, using the stable-sort rank permutations at
    repeated values, and the (k,) columnwise W2^2 read from the same sorted
    arrays, bit-identical to :func:`w2_squared_columns`.  The permutations
    come from one default-kind argsort per side, redone stably only on the
    columns that hold a tie (see :func:`_stable_sort_columns`).  Both
    sorted gradients are weighted sums of the displacements along the
    coupling, one sparse product per side.
    """
    u = _as_columns(u, "u")
    v = _as_columns(v, "v")
    order_u, us = _stable_sort_columns(u)
    order_v, vs = _stable_sort_columns(v)
    c = quantile_coupling(u.shape[0], v.shape[0])
    disp = us[c.rows, :] - vs[c.cols, :]
    values = _coupled_w2_columns(disp, c.weights)

    # grad wrt u_(i): 2 sum_j R[i, j] (u_(i) - v_(j)); wrt v_(j): minus
    # twice the same sum over i; then unsort
    gu_sorted = c.by_row @ disp
    gu_sorted *= 2.0
    gv_sorted = c.by_col @ disp
    gv_sorted *= -2.0

    grad_u = np.empty_like(gu_sorted)
    grad_v = np.empty_like(gv_sorted)
    np.put_along_axis(grad_u, order_u, gu_sorted, axis=0)
    np.put_along_axis(grad_v, order_v, gv_sorted, axis=0)
    return grad_u, grad_v, values


def w2_grad(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of :func:`w2_squared` in the sample values.

    ``grad_u[i] = 2 sum_j R[rank_u(i), rank_v(j)] (u_i - v_j)`` and
    symmetrically for ``grad_v``; the two gradients sum to zero by
    translation invariance.
    """
    u = _as_sample(u, "u")
    v = _as_sample(v, "v")
    gu, gv, _ = w2_grad_columns(u[:, None], v[:, None])
    return gu[:, 0], gv[:, 0]
