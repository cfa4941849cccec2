"""Random directions for the Monte-Carlo sliced squared Wasserstein distance.

The sliced W2^2 of the (n, d) points ``a`` and ``b`` along the rows of the
(k, d) ``dirs`` is the mean over directions of the exact 1D distance,
``w2_squared_columns((dirs @ a.T).T, (dirs @ b.T).T).mean()`` (see
:mod:`dpswgrad.ot_core`); the penalized objective reports it as W.
Directions are a read-only (k, d) array of unit rows, so callers (and
tests) can pin them; samplers draw fresh directions per training step only
when explicitly asked to.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_directions"]


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
