"""Monte-Carlo sliced squared Wasserstein distance.

Multidimensional samples are projected onto random unit directions and the
exact 1D machinery of :mod:`dpswgrad.ot_core` is averaged over directions.
Directions are a read-only (k, d) array of unit rows, so callers (and
tests) can pin them; samplers draw fresh directions per training step only
when explicitly asked to.
"""

from __future__ import annotations

import numpy as np

from .ot_core import w2_squared_columns

__all__ = ["sample_directions", "sw2_squared_mc"]


def sample_directions(d: int, k: int, seed: int) -> np.ndarray:
    """Draw ``k`` i.i.d. uniform directions on the unit sphere of R^d.

    Normalized standard Gaussian vectors from a seeded generator; rows with
    degenerate norm are redrawn.  Deterministic given ``seed``.  Returns a
    read-only (k, d) array.
    """
    if d < 1 or k < 1:
        raise ValueError("d and k must be >= 1")
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((k, d))
    norms = np.linalg.norm(mat, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        mat[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(mat, axis=1)
    mat /= norms[:, None]
    mat.setflags(write=False)
    return mat


def sw2_squared_mc(a, b, dirs: np.ndarray) -> float:
    """Monte-Carlo sliced W2^2 of the (n, d) points ``a``, ``b`` along the
    rows of the (k, d) ``dirs``: the mean over directions of projected W2^2."""
    projected = []
    for points in (a, b):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if pts.shape[1] != dirs.shape[1]:
            raise ValueError(
                f"dimension mismatch: points are {pts.shape[1]}-dimensional, "
                f"directions are {dirs.shape[1]}-dimensional")
        projected.append((dirs @ pts.T).T)
    return float(np.mean(w2_squared_columns(*projected)))
