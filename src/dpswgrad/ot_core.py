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
``v_(j)``, minus the same sum over ``cols[e] = j``).  The weighted
displacements are formed once, and each side's sums are one
``np.bincount`` of them into the slots of its samples' input positions.
``np.bincount`` adds its weights into a zeroed array in input order, so
each sum runs in entry order from ``0.0``: a CSR product's arithmetic, bit
for bit.

At repeated values the gradient depends on which tied sample takes which
rank; it uses the stable-sort permutation (tied samples keep their input
order).  It comes from value sorts, not argsorts: each value maps to the
int64 that orders as the float does (both zeros to one integer), a key
packs that integer with the sample index, and one in-place sort of the
keys orders every column, exact ties in index order.  Where the block's
integers spread too widely to keep them whole beside the index, the key
drops their low bits; distinct values that close (a few ulps apart) then
come back out of order, and only their columns are sorted again, by a
stable argsort of their values.  Only a side whose gradient is returned
needs the permutation: the distance alone, and a side whose gradient is
not asked for (a parameter-free reference sample), take a plain
``np.sort``, whose sorted values are the same bits whatever the order of
ties.

The column functions take (n, k) blocks, one sample per column (a 1-D
array is one column), but work in the row layout: on the C-contiguous
(k, n) transpose, so that each sample is one contiguous row to sort,
gather and scatter through flat indices.  An (n, k) block that is a view
of a (k, n) one, as ``(dirs @ points.T).T`` is, enters without a copy,
and the gradients come back as such views; a C-ordered block is copied
once.

All indices in :class:`QuantileCoupling` are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuantileCoupling",
    "quantile_coupling",
    "w2_squared_columns",
    "w2_grad_columns",
]


_INT64_MAX = np.int64(np.iinfo(np.int64).max)


def _as_columns(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(f"{name} must be a non-empty (n, k) array with "
                         "k >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN/inf)")
    return arr


@dataclass(frozen=True)
class QuantileCoupling:
    """Sparse optimal coupling between uniform n-point and m-point measures.

    ``rows[e], cols[e], weights[e]`` enumerate the E nonzero entries of R
    in increasing quantile order (0-based row/column indices), as
    read-only arrays.
    """

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray


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
    # right edges of the merged partition, scaled by n*m (exact integers):
    # the two sorted grids merged (a stable sort of two runs) and deduped
    edges = np.concatenate((np.arange(1, n + 1, dtype=np.int64) * m,
                            np.arange(1, m + 1, dtype=np.int64) * n))
    edges.sort(kind="stable")
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    starts = np.concatenate((np.zeros(1, dtype=np.int64), edges[:-1]))
    weights = (edges - starts) / float(n * m)
    rows = (edges + m - 1) // m - 1
    cols = (edges + n - 1) // n - 1
    for arr in (rows, cols, weights):
        arr.setflags(write=False)
    return QuantileCoupling(rows=rows, cols=cols, weights=weights)


def _as_row_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    """The C-contiguous (k, n) and (k, m) transposes of the (n, k) and
    (m, k) blocks ``u`` and ``v``, each a view (no copy) of an F-ordered
    block."""
    u = _as_columns(u, "u")
    v = _as_columns(v, "v")
    if u.shape[1] != v.shape[1]:
        raise ValueError(f"u and v must have equal column counts, got "
                         f"{u.shape[1]} and {v.shape[1]}")
    return np.ascontiguousarray(u.T), np.ascontiguousarray(v.T)


def _coupled_w2_rows(us, vs, c: QuantileCoupling
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise W2^2 of the sorted rows ``us`` (k, n) and ``vs`` (k, m), and
    their (k, E) displacements ``us[:, rows] - vs[:, cols]`` along the
    coupling: gathered, F-ordered, or of the identity coupling (n == m)
    one C-ordered subtraction.  The distance's matrix-vector product reads
    the squares F-ordered either way, as the gathers leave them: its bits
    depend on the layout."""
    if us.shape[1] == vs.shape[1]:
        disp = us - vs
        squares = np.multiply(disp, disp, order="F")
    else:
        disp = us[:, c.rows]
        disp -= vs[:, c.cols]
        squares = disp * disp
    return squares @ c.weights, disp


def w2_squared_columns(u, v) -> np.ndarray:
    """Columnwise W2^2 for stacked samples ``u`` (n, k) and ``v`` (m, k)."""
    u, v = _as_row_pair(u, v)
    us = np.sort(u, axis=1)
    vs = np.sort(v, axis=1)
    return _coupled_w2_rows(us, vs,
                            quantile_coupling(u.shape[1], v.shape[1]))[0]


def _ordered_ints(a: np.ndarray) -> np.ndarray:
    """The int64s that order as the finite values of ``a`` do: the float's
    bits, with those below the sign flipped for negative values, after
    ``-0.0`` is made ``0.0``."""
    key = (a + 0.0).view(np.int64)    # -0.0 + 0.0 is 0.0
    key ^= (key >> 63) & _INT64_MAX
    return key


def _stable_sort_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable-sort permutation of every row of the C-contiguous ``a`` (k, n),
    as flat indices into ``a`` (the argsort's ``order + row * n``), and the
    sorted values.

    Each value maps to the int64 that orders as the float does (``-0.0``
    made ``+0.0`` first, so equal values map to equal integers), and one
    in-place sort of keys that pack it with the sample index in the low
    ``b = (n - 1).bit_length()`` bits orders all rows.  The key holds the
    integer less its row's least without its low ``drop`` bits, only as
    many as the widest row's span needs to fit beside the index in 63
    bits: none for rows of near-equal values, whose sort is then exact.
    Where the values come back nondecreasing, the row holds the stable-sort
    permutation: equal values have equal keys and so sort by index.  A row
    that does not holds distinct values closer than the dropped bits, each
    run of equal truncated keys in index order; a stable argsort of its
    values, which keeps equal values in that order, puts it in order.
    """
    k, n = a.shape
    b = (n - 1).bit_length()
    key = _ordered_ints(a)
    least = key.min(axis=1, keepdims=True)
    # the widest row's span, exact as uint64 where the int64 wraps
    span = (key.max(axis=1, keepdims=True) - least).view(np.uint64).max()
    drop = max(0, int(span).bit_length() + b - 63)
    key -= least
    offsets = key.view(np.uint64)
    offsets >>= drop
    offsets <<= b
    key |= np.arange(n)
    key.sort(axis=1)
    key &= (1 << b) - 1
    flat = key
    flat += np.arange(0, k * n, n)[:, None]
    s = np.take(a, flat)
    descents = s[:, 1:] < s[:, :-1]
    if descents.any():
        bad = np.flatnonzero(descents.any(axis=1))
        sb = s[bad]
        order = np.argsort(sb, axis=1, kind="stable")
        order += np.arange(0, bad.size * n, n)[:, None]
        flat[bad] = np.take(flat[bad], order)
        s[bad] = np.take(sb, order)
    return flat, s


def _sums(p: np.ndarray, flat: np.ndarray, segments: np.ndarray | None,
          scale: float) -> np.ndarray:
    """(n, k) view of the (k, n) array whose slot ``flat[r, i]`` holds
    ``scale`` times the sum, in entry order from ``0.0``, of the weighted
    displacements ``p`` (k, E) of row ``r`` over the entries ``e`` with
    ``segments[e] == i`` (``segments`` None: ``e == i``, the identity
    coupling)."""
    index = flat if segments is None else np.take(flat, segments, axis=1)
    out = np.bincount(index.ravel(), weights=p.ravel(), minlength=flat.size)
    out *= scale
    return out.reshape(flat.shape).T


def w2_grad_columns(u, v, grad_v: bool = True
                    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Columnwise closed-form gradients of :func:`w2_squared_columns`.

    Returns ``(grad_u, grad_v, values)``: the gradients with the same
    shapes as the inputs, using the stable-sort rank permutations at
    repeated values, and the (k,) columnwise W2^2 read from the same sorted
    arrays, bit-identical to :func:`w2_squared_columns`.  The permutations
    come from one in-place sort of packed (value, index) int64 keys per
    side (see :func:`_stable_sort_rows`).  The weighted displacements
    ``weights[e] * D[e]`` are formed once, C-ordered (k, E), and each
    side's sorted sums land straight in its samples' input positions by
    one ``np.bincount``, which adds them in entry order from ``0.0`` as a
    CSR product does.  With ``grad_v=False`` (``v`` a reference sample
    that nothing differentiates) ``grad_v`` is None, ``v`` takes a value
    sort only, and ``grad_u`` and ``values`` are the same bits.
    """
    u, v = _as_row_pair(u, v)
    flat_u, us = _stable_sort_rows(u)
    flat_v, vs = _stable_sort_rows(v) if grad_v else (None, np.sort(v, axis=1))
    c = quantile_coupling(u.shape[1], v.shape[1])
    values, disp = _coupled_w2_rows(us, vs, c)

    # grad wrt u_(i): 2 sum_j R[i, j] (u_(i) - v_(j)); wrt v_(j): minus
    # twice the same sum over i
    p = np.multiply(disp, c.weights, order="C")
    del disp    # freed before the sums allocate
    identity = u.shape[1] == v.shape[1]
    gu = _sums(p, flat_u, None if identity else c.rows, 2.0)
    if not grad_v:
        return gu, None, values
    return gu, _sums(p, flat_v, None if identity else c.cols, -2.0), values
