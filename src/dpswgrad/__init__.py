"""Differentially private (sliced) Wasserstein gradients and fair DP-SGD training.

The package is organized around one pipeline:

- :mod:`dpswgrad.ot_core` -- exact 1D squared Wasserstein distance between
  empirical measures and its closed-form gradient via quantile couplings.
- :mod:`dpswgrad.sliced` -- random unit directions, the rows of a
  read-only (k, d) array, onto which the sliced distance projects.
- :mod:`dpswgrad.models` -- small analytic models with exact forward
  traces and backwards that give per-sample gradient norms and weighted
  sums without building the per-sample gradients (no autodiff framework).
- :mod:`dpswgrad.dp_gradient` -- the penalized objective over a list of
  penalty pairs: reported values and inner-clipped gradient in one call.
- :mod:`dpswgrad.sensitivity` -- the sensitivity bound of the same pairs, an
  empirical sensitivity auditor, and the W_p counterexample.
- :mod:`dpswgrad.privacy` -- Gaussian mechanism, GDP accounting for
  subsampled compositions, and noise calibration.
- :mod:`dpswgrad.data` -- synthetic biased dataset generator and class
  partitioning.
- :mod:`dpswgrad.fairness_train` -- the DP-SGD training loop with fairness
  penalties and metrics.
- :mod:`dpswgrad.cli` -- reproducible command-line experiments.
"""

__version__ = "0.8.0"
