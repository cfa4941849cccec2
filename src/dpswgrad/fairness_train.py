"""DP-SGD training with fairness penalties, budget tracking, and metrics.

Every task, the generation demo included, runs one loop.  Each step draws
a fixed-size without-replacement batch per class, evaluates the penalized
objective on the task's penalty pairs in one call, adds Gaussian noise
calibrated once per run from the closed-form sensitivity at the realized
batch sizes, and takes a plain SGD step.  The only randomness beyond
subsampling is the per-step noise, so a run with noise scale zero is a
deterministic clipped-SGD trajectory and any run is bit-reproducible from
its seed.

Reported losses are the quantities actually optimized: the finite-sum term
is the plain per-sample loss mean, the penalty term is the (sliced) W2^2 of
the *clipped* output distributions, both evaluated noiselessly on the
current batch before the update by the same call that returns the
gradient.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import privacy, sensitivity
from .data import BiasedDataset, ClassPartition, centered_targets, partition
from .dp_gradient import ClipConfig, penalized_objective
from .models import AffineSigmoidModel, IdentityModel, make_model
from .sliced import ProjectionSet, sample_directions

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
        if self.task != "generation" \
                and self.clip.jac_bound1 != self.clip.jac_bound2:
            raise ValueError(
                "fairness tasks share one Jacobian bound for both sides")
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
        def enc(v):
            if isinstance(v, float) and math.isinf(v):
                return None
            if isinstance(v, float) and math.isnan(v):
                return None
            return v

        return {
            "task": self.task,
            "seed": self.seed,
            "steps": self.steps,
            "non_private": self.non_private,
            "epsilon_target": enc(self.epsilon_target),
            "delta": self.delta,
            "sensitivity": self.sensitivity,
            "sampling_rate": self.sampling_rate,
            "sigma": self.sigma,
            "noise_multiplier": self.noise_multiplier,
            "epsilon_spent": enc(self.epsilon_spent),
            "accountant_formula": self.accountant_formula,
            "class_sizes": {str(k): int(v)
                            for k, v in self.class_sizes.items()},
            "batch_sizes": {str(k): int(v)
                            for k, v in self.batch_sizes.items()},
            "model_meta": self.model_meta,
            "final_theta": [float(t) for t in self.final_theta],
            "erm_losses": [float(v) for v in self.erm_losses],
            "w_losses": [float(v) for v in self.w_losses],
            "total_losses": [float(v) for v in self.total_losses],
            "epsilon_history": [enc(float(v)) for v in self.epsilon_history],
            "metrics": None if self.metrics is None else
                       {k: enc(float(v)) for k, v in self.metrics.items()},
            "config": self.config,
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


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

    Every task is the same loop over penalty pairs of class keys.
    Statistical parity compares the two sensitive classes (one pair);
    equality of odds compares them within each label (one pair per label).
    Generation pushes Gaussian samples onto a circle: one pair of the model
    against the parameter-free reference, at weight 1 with no ERM term.
    There both the inputs and the references are treated as private, so the
    two-sided bound calibrates the noise (with a zero reference-side
    Jacobian bound).
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
        inputs = dict.fromkeys(part.keys, ds.x)
        pair_keys = ([((0, k), model, (1, k)) for k in (0, 1)] if eo
                     else [(0, model, 1)])
        weight = cfg.alpha
    empty = part.empty_classes()
    if empty:
        raise ValueError(f"dataset has empty classes: {empty}")

    class_sizes = part.sizes
    batch_sizes = _batch_sizes(class_sizes, cfg.batch_fraction)
    n_batch = sum(batch_sizes.values())
    sampling_rate = max(batch_sizes[k] / class_sizes[k] for k in class_sizes)

    if cfg.task == "generation":
        delta2 = sensitivity.bound_two_sided(
            clip.output_bound, clip.jac_bound1, 0.0, batch_sizes["x"],
            batch_sizes["z"])
    elif cfg.task == "classification_eo":
        delta2 = sensitivity.bound_eo(
            clip.loss_grad_bound, clip.output_bound, clip.jac_bound1, n_batch,
            [batch_sizes[k] for k in part.keys], cfg.alpha,
            num_label_classes=2)
    else:
        delta2 = sensitivity.bound_sp(
            clip.loss_grad_bound, clip.output_bound, clip.jac_bound1, n_batch,
            batch_sizes[0], batch_sizes[1], cfg.alpha)

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

    # scalar outputs are coupled directly, without projections
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
        pairs = [(inputs[a][batch[a]], h, inputs[b][batch[b]])
                 for a, h, b in pair_keys]
        erm = None
        if targets is not None:
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

    record.final_theta = model.theta.copy()
    record.epsilon_spent = (math.inf if accountant is None
                            else accountant.epsilon_spent())
    if ds_test is not None:
        record.metrics = metrics(ds_test, model, cfg.task)
    return record


def _draw_directions(cfg: TrainConfig, dim: int,
                     step: int | None = None) -> ProjectionSet:
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
        codes = model.encode_batch(ds_test.x)
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
    for _ in range(gd_steps):
        g = probe.loss_grad_batch(codes[:n_train], y_train, "bce").mean(axis=0)
        probe.theta -= gd_lr * g
    q = probe.forward_batch(codes[n_train:])[:, 0]
    pred = (q > 0.5).astype(np.int64)
    return {"probe_accuracy": float(np.mean(pred == y[n_train:])),
            "probe_di": _rate_ratio(pred, a[n_train:] == 0,
                                    a[n_train:] == 1)}
