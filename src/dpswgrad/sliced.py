"""Monte-Carlo sliced squared Wasserstein distance.

Multidimensional samples are projected onto random unit directions and the
exact 1D machinery of :mod:`dpswgrad.ot_core` is averaged over directions.
Directions are materialized in a :class:`ProjectionSet` so callers (and
tests) can pin them; samplers draw fresh sets per training step only when
explicitly asked to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ot_core import w2_squared_columns

__all__ = ["ProjectionSet", "sample_directions", "project",
           "sw2_per_direction", "sw2_squared_mc"]


@dataclass(frozen=True)
class ProjectionSet:
    """``k`` unit vectors in R^d plus the seed they were drawn from."""

    directions: np.ndarray
    seed: int

    @property
    def k(self) -> int:
        return self.directions.shape[0]

    @property
    def dim(self) -> int:
        return self.directions.shape[1]


def sample_directions(d: int, k: int, seed: int) -> ProjectionSet:
    """Draw ``k`` i.i.d. uniform directions on the unit sphere of R^d.

    Normalized standard Gaussian vectors from a seeded generator; rows with
    degenerate norm are redrawn.  Deterministic given ``seed``.
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
    return ProjectionSet(directions=mat, seed=int(seed))


def _as_points(values, name: str = "points") -> np.ndarray:
    """Validate a non-empty (n, d) array of finite points."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be a non-empty (n, d) array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def project(points, dirs: ProjectionSet) -> np.ndarray:
    """Project (n, d) points onto every direction, returning (n, k)."""
    pts = _as_points(points)
    if pts.shape[1] != dirs.dim:
        raise ValueError(
            f"dimension mismatch: points are {pts.shape[1]}-dimensional, "
            f"directions are {dirs.dim}-dimensional")
    return pts @ dirs.directions.T


def sw2_per_direction(a, b, dirs: ProjectionSet) -> np.ndarray:
    """W2^2 of the projected samples for each direction separately."""
    return w2_squared_columns(project(a, dirs), project(b, dirs))


def sw2_squared_mc(a, b, dirs: ProjectionSet) -> float:
    """Monte-Carlo sliced W2^2: the mean over directions of projected W2^2."""
    return float(np.mean(sw2_per_direction(a, b, dirs)))
