"""DP-SGD training with fairness penalties, budget tracking, and metrics.

Every task, the generation demo included, is a list of penalty pairs of
class keys, and one loop runs it.  The pairs, at the per-class batch sizes,
give the sensitivity bound (:func:`dpswgrad.sensitivity.sensitivity_bound`)
from which the Gaussian noise is calibrated once per run.  Each step draws
a fixed-size without-replacement batch per class, evaluates the penalized
objective on the same pairs in one call, adds the noise, and takes a plain
SGD step.  The only randomness beyond subsampling is the per-step noise, so
a run with noise scale zero is a deterministic clipped-SGD trajectory and
any run is bit-reproducible from its seed.

Reported losses are the quantities actually optimized: the finite-sum term
is the plain per-sample loss mean, the penalty term is the (sliced) W2^2 of
the *clipped* output distributions, both evaluated noiselessly on the
current batch before the update by the same call that returns the
gradient.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import privacy, sensitivity
from .data import BiasedDataset, ClassPartition, centered_targets, partition
from .dp_gradient import ClipConfig, penalized_objective
from .jsonio import write_json
from .models import AffineSigmoidModel, IdentityModel, make_model
from .sliced import sample_directions

__all__ = ["TASKS", "TrainConfig", "TrainRecord", "subsample_partitioned",
           "generation_samples", "dpsgd_train", "metrics"]

TASKS = ("classification_sp", "classification_eo", "regression_sp",
         "autoencoder_sp", "generation")

# substream tags; model init uses [seed, 0..3] internally, so start high
_TAG_BATCH, _TAG_NOISE, _TAG_DIRS, _TAG_GEN = 101, 102, 103, 104

# task -> (model kinds, the first one the default; default hidden width)
_TASK_MODELS = {
    "classification_sp": (("affine_sigmoid",), None),
    "classification_eo": (("affine_sigmoid",), None),
    "regression_sp": (("mlp2", "affine"), 64),
    "autoencoder_sp": (("autoencoder",), 62),
    "generation": (("mlp2", "affine"), 32),
}


def _substream(seed: int, *tags: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(seed), *map(int, tags)])))


@dataclass(frozen=True)
class TrainConfig:
    task: str
    steps: int
    learning_rate: float
    epsilon: float           # may be math.inf for a non-private run
    delta: float
    alpha: float
    clip: ClipConfig
    batch_fraction: float = 0.2
    num_projections: int = 50
    seed: int = 0
    model_kind: str | None = None   # None = task default
    hidden_dim: int | None = None
    latent_dim: int = 2
    resample_directions: bool = False
    gen_samples: int = 2000      # generation task only
    gen_radius: float = 0.75

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be finite and > 0")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0 (math.inf for non-private)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < self.batch_fraction <= 1.0:
            raise ValueError("batch fraction must lie in (0, 1]")
        if self.num_projections < 1:
            raise ValueError("num_projections must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        allowed = _TASK_MODELS[self.task][0]
        if self.model_kind is not None and self.model_kind not in allowed:
            raise ValueError(f"task {self.task!r} supports model kinds "
                             f"{allowed}, got {self.model_kind!r}")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if not math.isfinite(self.gen_radius):
            raise ValueError("gen_radius must be finite")


@dataclass
class TrainRecord:
    task: str
    seed: int
    steps: int
    non_private: bool
    epsilon_target: float
    delta: float
    sensitivity: float
    sampling_rate: float
    sigma: float
    noise_multiplier: float | None
    epsilon_spent: float
    accountant_formula: str
    class_sizes: dict
    batch_sizes: dict
    model_meta: dict
    final_theta: np.ndarray
    erm_losses: list = field(default_factory=list)
    w_losses: list = field(default_factory=list)
    total_losses: list = field(default_factory=list)
    epsilon_history: list = field(default_factory=list)
    metrics: dict | None = None
    config: dict | None = None

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())


def _plain(value):
    """``value`` as JSON data: arrays as lists, dict keys as str, NumPy
    scalars as Python numbers and non-finite floats as None."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    finite = not isinstance(value, float) or math.isfinite(value)
    return value if finite else None


def subsample_partitioned(part: ClassPartition, sizes: dict,
                          rng: np.random.Generator) -> dict:
    """Uniform without-replacement batch per class, independent across classes."""
    batches = {}
    for key, idx in part.indices.items():
        size = int(sizes[key])
        if size < 1 or size > idx.size:
            raise ValueError(
                f"batch size {size} invalid for class {key!r} of size {idx.size}")
        batches[key] = np.sort(rng.choice(idx, size=size, replace=False))
    return batches


def _batch_sizes(class_sizes: dict, fraction: float) -> dict:
    sizes = {}
    for key, n_k in class_sizes.items():
        size = int(math.floor(n_k * fraction))
        if size < 1:
            raise ValueError(
                f"class {key!r} (size {n_k}) yields an empty batch at "
                f"fraction {fraction}; enlarge the class or the fraction")
        sizes[key] = size
    return sizes


def generation_samples(cfg: TrainConfig) -> tuple:
    """The generation task's data: Gaussian inputs and circle references.

    Returns ``(x, z)``, each ``(gen_samples, 2)``, drawn from the run seed,
    so the model's inputs and the reference samples can be rebuilt from the
    config alone.
    """
    rng = _substream(cfg.seed, _TAG_GEN)
    n = cfg.gen_samples
    x = rng.standard_normal((n, 2))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return x, cfg.gen_radius * np.column_stack([np.cos(angles),
                                                np.sin(angles)])


def _task_model(cfg: TrainConfig, input_dim: int):
    """The task's seeded model; unset kind and width take the task default."""
    kinds, hidden_dim = _TASK_MODELS[cfg.task]
    return make_model(
        cfg.model_kind or kinds[0], input_dim, seed=cfg.seed,
        hidden_dim=hidden_dim if cfg.hidden_dim is None else cfg.hidden_dim,
        output_dim=2, latent_dim=cfg.latent_dim,
        output_activation=("linear" if cfg.task == "generation"
                           else "sigmoid_recentered"))


def dpsgd_train(cfg: TrainConfig, ds: BiasedDataset | None,
                ds_test: BiasedDataset | None = None) -> TrainRecord:
    """Run the subsampled noisy-gradient loop and return the full record.

    Every task is the same loop over penalty pairs of class keys, and the
    same pairs, at the batch sizes, give the sensitivity bound that
    calibrates the noise.  Statistical parity compares the two sensitive
    classes (one pair); equality of odds compares them within each label
    (one pair per label).  Generation pushes Gaussian samples onto a
    circle: one pair of the model against the parameter-free reference, at
    weight 1 with no ERM term.  Every class is private, the generation
    references included.  With an ERM term the step's batch stacks the
    class batches, and each side of a pair is its class's block of rows
    (a ``slice``), so the model traces the batch once per step.  A step
    whose loss or updated parameter norm is not finite stops the run with
    a ValueError that names the step and the budget already spent.
    """
    clip = cfg.clip
    if cfg.task == "generation":
        x, z = generation_samples(cfg)
        inputs = {"x": x, "z": z}
        # each sample is a class of its own, indexing its own array
        part = ClassPartition("samples", {key: np.arange(cfg.gen_samples)
                                          for key in inputs})
        model = _task_model(cfg, 2)
        pair_keys = [("x", IdentityModel(2), "z")]
        targets, weight = None, 1.0
    else:
        if ds is None:
            raise ValueError(f"task {cfg.task!r} requires a dataset")
        model = _task_model(cfg, ds.dim)
        if cfg.task == "regression_sp":
            targets, loss_kind = centered_targets(ds), "squared_error"
        elif cfg.task == "autoencoder_sp":
            targets, loss_kind = ds.x, "squared_error"
        else:
            targets, loss_kind = ds.y.astype(np.float64), "bce"
        eo = cfg.task == "classification_eo"
        part = partition(ds, "by_a_and_y" if eo else "by_a")
        pair_keys = ([((0, k), model, (1, k)) for k in (0, 1)] if eo
                     else [(0, model, 1)])
        weight = cfg.alpha
    empty = part.empty_classes()
    if empty:
        raise ValueError(f"dataset has empty classes: {empty}")

    class_sizes = part.sizes
    batch_sizes = _batch_sizes(class_sizes, cfg.batch_fraction)
    sampling_rate = max(batch_sizes[k] / class_sizes[k] for k in class_sizes)
    if targets is not None:
        # the ERM batch stacks the class batches in key order, and each
        # penalty side is its class's block of rows
        ends = np.cumsum([batch_sizes[k] for k in part.keys])
        blocks = {k: slice(int(end) - batch_sizes[k], int(end))
                  for k, end in zip(part.keys, ends)}
        pairs = [(blocks[a], h, blocks[b]) for a, h, b in pair_keys]

    delta2 = sensitivity.sensitivity_bound(
        model, [(batch_sizes[a], h, batch_sizes[b]) for a, h, b in pair_keys],
        weight, clip,
        None if targets is None else sum(batch_sizes[k] for k in part.keys))

    non_private = math.isinf(cfg.epsilon)
    if non_private:
        sigma, nu, accountant = 0.0, None, None
    else:
        sigma = privacy.calibrate_noise(
            privacy.PrivacyBudget(cfg.epsilon, cfg.delta), cfg.steps,
            sampling_rate, delta2)
        nu = sigma / delta2
        accountant = privacy.AccountantState(
            noise_multiplier=nu, sampling_rate=sampling_rate,
            target_delta=cfg.delta)

    # scalar outputs take the one direction (1), without projections
    sliced = model.penalty_dim > 1
    dirs = None
    if sliced and not cfg.resample_directions:
        dirs = _draw_directions(cfg, model.penalty_dim)

    record = TrainRecord(
        task=cfg.task, seed=cfg.seed, steps=cfg.steps,
        non_private=non_private, epsilon_target=cfg.epsilon, delta=cfg.delta,
        sensitivity=delta2, sampling_rate=sampling_rate, sigma=sigma,
        noise_multiplier=nu,
        epsilon_spent=math.inf if non_private else 0.0,
        accountant_formula=privacy.ACCOUNTANT_FORMULA,
        class_sizes=class_sizes, batch_sizes=batch_sizes,
        model_meta=model.meta(),
        final_theta=model.theta, config=_config_dict(cfg))

    for t in range(cfg.steps):
        if sliced and cfg.resample_directions:
            dirs = _draw_directions(cfg, model.penalty_dim, step=t)
        rng_batch = _substream(cfg.seed, _TAG_BATCH, t)
        batch = subsample_partitioned(part, batch_sizes, rng_batch)
        if targets is None:
            pairs = [(inputs[a][batch[a]], h, inputs[b][batch[b]])
                     for a, h, b in pair_keys]
            erm = None
        else:
            union = np.concatenate([batch[k] for k in part.keys])
            erm = (ds.x[union], targets[union], loss_kind)
        erm_val, w_val, total, grad = penalized_objective(
            model, pairs, weight, clip, dirs, erm)
        record.erm_losses.append(erm_val)
        record.w_losses.append(w_val)
        record.total_losses.append(total)

        if sigma > 0.0:
            grad = privacy.gaussian_mechanism(
                grad, sigma, _substream(cfg.seed, _TAG_NOISE, t))
        model.theta -= cfg.learning_rate * grad

        if accountant is not None:
            accountant.step()
            record.epsilon_history.append(accountant.epsilon_spent())
        else:
            record.epsilon_history.append(math.inf)
        # a norm that overflows means entries past ~1e154, whose squares
        # (in the output and gradient norms) are no longer finite
        with np.errstate(over="ignore"):
            theta_norm = float(np.linalg.norm(model.theta))
        if not (math.isfinite(total) and math.isfinite(theta_norm)):
            raise ValueError(
                f"diverged at step {t + 1} (epsilon spent "
                f"{record.epsilon_history[-1]:.4f}): the loss or the norm "
                f"of the parameters is no longer finite")

    record.final_theta = model.theta.copy()
    record.epsilon_spent = (math.inf if accountant is None
                            else accountant.epsilon_spent())
    if ds_test is not None:
        record.metrics = metrics(ds_test, model, cfg.task)
    return record


def _draw_directions(cfg: TrainConfig, dim: int,
                     step: int | None = None) -> np.ndarray:
    tags = [cfg.seed, _TAG_DIRS] + ([] if step is None else [step])
    ss = np.random.SeedSequence(tags)
    return sample_directions(dim, cfg.num_projections,
                             int(ss.generate_state(1, np.uint64)[0]))


def _config_dict(cfg: TrainConfig) -> dict:
    doc = asdict(cfg)
    doc["epsilon"] = None if math.isinf(cfg.epsilon) else cfg.epsilon
    return doc


def _rate_ratio(positive: np.ndarray, mask0: np.ndarray,
                mask1: np.ndarray) -> float:
    """P(positive | mask0) / P(positive | mask1); NaN when undefined."""
    if not mask0.any() or not mask1.any():
        return float("nan")
    p0 = float(np.mean(positive[mask0]))
    p1 = float(np.mean(positive[mask1]))
    if p1 == 0.0:
        return float("nan")
    return p0 / p1


def metrics(ds_test: BiasedDataset, model, task: str) -> dict:
    """Task-specific evaluation table; undefined entries come back as NaN."""
    a = ds_test.a
    y = ds_test.y
    if task in ("classification_sp", "classification_eo"):
        q = model.forward_batch(ds_test.x)[:, 0]
        pred = (q > 0.5).astype(np.int64)
        out = {"accuracy": float(np.mean(pred == y)),
               "di": _rate_ratio(pred, a == 0, a == 1)}
        for k in (0, 1):
            out[f"eo_{k}"] = _rate_ratio(pred, (a == 0) & (y == k),
                                         (a == 1) & (y == k))
        return out
    if task == "regression_sp":
        pred = model.forward_batch(ds_test.x)
        resid = pred - centered_targets(ds_test)
        over = pred[:, 1] > -pred[:, 0]
        return {"mse": float(np.mean(np.sum(resid * resid, axis=1))),
                "od_0": (float(np.mean(over[a == 0]))
                         if (a == 0).any() else float("nan")),
                "od_1": (float(np.mean(over[a == 1]))
                         if (a == 1).any() else float("nan"))}
    if task == "autoencoder_sp":
        recon = model.forward_batch(ds_test.x)
        resid = recon - ds_test.x
        core = ds_test.config.core_dim
        codes = model.penalty_trace(ds_test.x).output
        out = {"rl": float(np.mean(np.sum(resid * resid, axis=1))),
               "rl_core": float(np.mean(
                   np.sum(resid[:, :core] * resid[:, :core], axis=1)))}
        out.update(_probe_metrics(codes, y, a))
        return out
    raise ValueError(f"no metric table for task {task!r}")


def _probe_metrics(codes: np.ndarray, y: np.ndarray, a: np.ndarray,
                   train_frac: float = 0.6, gd_steps: int = 500,
                   gd_lr: float = 0.5) -> dict:
    """Downstream-probe metrics: a one-layer classifier fit on 60% of the
    encoded test data (zero-initialized full-batch descent, deterministic)
    and evaluated on the remaining 40%."""
    n = codes.shape[0]
    n_train = int(train_frac * n)
    if n_train < 1 or n_train >= n:
        return {"probe_accuracy": float("nan"), "probe_di": float("nan")}
    probe = AffineSigmoidModel(codes.shape[1],
                               theta=np.zeros(codes.shape[1] + 1))
    y_train = y[:n_train].astype(np.float64)
    ones = np.ones((n_train, 1))
    for _ in range(gd_steps):
        grads = probe.trace(codes[:n_train]).loss_and_grads(y_train,
                                                            "bce")[1]
        probe.theta -= gd_lr * (grads.weighted_sum(ones) / n_train)
    q = probe.forward_batch(codes[n_train:])[:, 0]
    pred = (q > 0.5).astype(np.int64)
    return {"probe_accuracy": float(np.mean(pred == y[n_train:])),
            "probe_di": _rate_ratio(pred, a[n_train:] == 0,
                                    a[n_train:] == 1)}
