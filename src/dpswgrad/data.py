"""Synthetic biased dataset generator and its class index sets.

The generative recipe produces records (x, a, y, y_c) in which the features
mix an informative part with a spurious one:

1. y_c ~ Uniform([0,1] x [0,1])            (continuous 2D response)
2. y   = 1{y_c2 > 1 - y_c1}                (its binary discretization)
3. a   = b*y + (1-b)*(1-y),  b ~ Bernoulli(bias)   (sensitive attribute;
   a equals y with probability ``bias``)
4. x_core = [y_c tiled core_dim/2 times] + N(0, core_var * I)
   x_sp   = [a   tiled sp_dim   times]   + N(0, sp_var * I)
5. x = [x_core, x_sp]

With ``bias`` close to 1 the spurious block makes the sensitive attribute an
easy shortcut for predicting y, which is the failure mode the fairness
penalties are meant to correct.  Generation is single-pass with a fixed draw
order, so a config plus seed reproduces the dataset bit for bit.

Datasets persist as a CSV of records plus a JSON sidecar carrying the
generation config and the realized class sizes (public metadata under the
fixed-class-sizes neighboring relation).  The loader checks the header's
column names and parses the body straight into one float64 array
(``np.loadtxt``), holding no per-field Python strings.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .jsonio import write_csv, write_json

__all__ = [
    "GenerationConfig",
    "BiasedDataset",
    "generate_biased",
    "partition",
    "centered_targets",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class GenerationConfig:
    n: int
    bias: float
    core_dim: int = 8
    sp_dim: int = 8
    core_var: float = 0.2
    sp_var: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.bias <= 1.0:
            raise ValueError("bias must lie in [0, 1]")
        if self.core_dim < 2 or self.core_dim % 2 != 0:
            raise ValueError("core_dim must be a positive even number")
        if self.sp_dim < 1:
            raise ValueError("sp_dim must be >= 1")
        if not all(0.0 <= v < np.inf for v in (self.core_var, self.sp_var)):
            raise ValueError("variances must be finite and >= 0")


@dataclass
class BiasedDataset:
    x: np.ndarray        # (n, core_dim + sp_dim)
    a: np.ndarray        # (n,) in {0, 1}
    y: np.ndarray        # (n,) in {0, 1}
    yc: np.ndarray       # (n, 2) in [0, 1]^2
    config: GenerationConfig

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def generate_biased(config: GenerationConfig) -> BiasedDataset:
    """Run the generative recipe; deterministic given the config seed."""
    rng = np.random.default_rng(config.seed)
    n = config.n
    yc = rng.uniform(0.0, 1.0, size=(n, 2))
    y = (yc[:, 1] > 1.0 - yc[:, 0]).astype(np.int64)
    b = (rng.uniform(0.0, 1.0, size=n) < config.bias).astype(np.int64)
    a = b * y + (1 - b) * (1 - y)
    x_core = (np.tile(yc, (1, config.core_dim // 2))
              + rng.normal(0.0, np.sqrt(config.core_var),
                           size=(n, config.core_dim)))
    x_sp = (np.tile(a[:, None].astype(np.float64), (1, config.sp_dim))
            + rng.normal(0.0, np.sqrt(config.sp_var),
                         size=(n, config.sp_dim)))
    x = np.concatenate([x_core, x_sp], axis=1)
    return BiasedDataset(x=x, a=a, y=y, yc=yc, config=config)


def partition(ds: BiasedDataset, by_label: bool) -> dict:
    """Record indices per class: ``{a: indices}`` for a in (0, 1), or with
    ``by_label`` ``{(a, y): indices}`` in the order (0, 0), (0, 1), (1, 0),
    (1, 1)."""
    if ds.n == 0:
        raise ValueError("dataset must be non-empty")
    if by_label:
        return {(j, k): np.flatnonzero((ds.a == j) & (ds.y == k))
                for j in (0, 1) for k in (0, 1)}
    return {j: np.flatnonzero(ds.a == j) for j in (0, 1)}


def centered_targets(ds: BiasedDataset) -> np.ndarray:
    """Continuous targets recentered to [-1/2, 1/2]^2 (regression tasks)."""
    return ds.yc - 0.5


def _sizes_doc(ds: BiasedDataset) -> dict:
    return {"by_a": {str(k): v.size
                     for k, v in partition(ds, False).items()},
            "by_a_and_y": {f"{j},{k}": v.size
                           for (j, k), v in partition(ds, True).items()}}


def _header(d: int) -> list:
    return [f"x_{i + 1}" for i in range(d)] + ["a", "y", "yc_1", "yc_2"]


def save_dataset(ds: BiasedDataset, csv_path, sidecar_path) -> None:
    """Write records as CSV (17 significant digits) plus the JSON sidecar."""
    write_csv(csv_path, _header(ds.dim),
              np.column_stack([ds.x, ds.a, ds.y, ds.yc]))
    doc = {"config": asdict(ds.config), "n": ds.n,
           "class_sizes": _sizes_doc(ds)}
    write_json(sidecar_path, doc)


def load_dataset(csv_path, sidecar_path) -> BiasedDataset:
    """Read a dataset back and re-validate its invariants.

    The CSV header must name the columns as :func:`save_dataset` does; every
    error names the file it was found in."""
    with open(sidecar_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    config = doc.get("config") if isinstance(doc, dict) else None
    gen_fields = fields(GenerationConfig)
    if not (isinstance(config, dict)
            and set(config) == {f.name for f in gen_fields}
            and all(type(config[f.name]) in ((int,) if f.type in ("int", int)
                                             else (int, float))
                    for f in gen_fields)
            and type(doc.get("n")) is int):
        raise ValueError(f"{sidecar_path}: not a dataset sidecar (a JSON "
                         "object with a 'config' object of GenerationConfig "
                         "fields and an integer 'n')")
    config = GenerationConfig(**config)
    d = config.core_dim + config.sp_dim
    with open(csv_path, encoding="utf-8") as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{csv_path}: empty file, expected a header")
        header = line.rstrip("\n").split(",")
        if len(header) != d + 4:
            raise ValueError(f"{csv_path}: CSV has {len(header)} columns, "
                             f"expected {d + 4}")
        for i, (name, want) in enumerate(zip(header, _header(d))):
            if name != want:
                raise ValueError(f"{csv_path}: column {i + 1} is {name!r}, "
                                 f"expected {want!r}")
        with warnings.catch_warnings():
            # a body without rows reads as (0, 1) with a warning; the row
            # count check below reports it
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            try:
                data = np.loadtxt(fh, delimiter=",", dtype=np.float64,
                                  ndmin=2, comments=None)
            except ValueError as exc:  # a ragged row or a non-number
                raise ValueError(f"{csv_path}: {exc}") from exc
    if data.shape[0] != doc["n"]:
        raise ValueError(f"{csv_path}: CSV has {data.shape[0]} rows, the "
                         f"sidecar says {doc['n']}")
    if data.shape[1] != d + 4:
        raise ValueError(f"{csv_path}: CSV rows have {data.shape[1]} "
                         f"columns, expected {d + 4}")
    ds = BiasedDataset(x=data[:, :d],
                       a=data[:, d].astype(np.int64),
                       y=data[:, d + 1].astype(np.int64),
                       yc=data[:, d + 2:d + 4],
                       config=config)
    _validate(ds)
    return ds


def _validate(ds: BiasedDataset) -> None:
    if not np.all(np.isfinite(ds.x)) or not np.all(np.isfinite(ds.yc)):
        raise ValueError("dataset contains non-finite values")
    if np.any((ds.yc < 0.0) | (ds.yc > 1.0)):
        raise ValueError("continuous response must lie in the unit square")
    if not np.all((ds.a == 0) | (ds.a == 1)):
        raise ValueError("sensitive attribute must be binary")
    if not np.all((ds.y == 0) | (ds.y == 1)):
        raise ValueError("label must be binary")
    expected = (ds.yc[:, 1] > 1.0 - ds.yc[:, 0]).astype(np.int64)
    if not np.array_equal(expected, ds.y):
        raise ValueError("label is inconsistent with the continuous response")
