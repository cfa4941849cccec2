"""Command-line experiments: generate, train, calibrate, audit, counterexample.

Every artifact-producing command writes a run manifest (full merged config,
seed, library version, output names, accountant formula identifier) next to
its outputs; ``replay`` re-executes a manifest into a fresh directory and is
guaranteed to reproduce every CSV/JSON byte for byte.

Config precedence: command-line flags override values from a ``--config``
JSON file, which override built-in defaults.  Numeric CSV output carries 17
significant digits so downstream consumers see the exact doubles.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, privacy, sensitivity
from .data import (GenerationConfig, generate_biased, load_dataset,
                   save_dataset)
from .dp_gradient import (ClipConfig, clipped_wasserstein_grad,
                          penalized_objective)
from .fairness_train import TrainConfig, dpsgd_train, generation_samples
from .models import Mlp2Model, make_model, model_from_meta, save_model
from .sliced import sample_directions

MANIFEST_NAME = "manifest.json"
_ENV_OUTDIR = "DPSWGRAD_OUTDIR"


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sanitize(obj):
    """Keep manifests strict JSON: infinities become the string 'inf'."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _write_manifest(outdir: Path, command: str, config: dict,
                    outputs: list) -> None:
    _write_json(outdir / MANIFEST_NAME, {
        "schema": 1,
        "command": command,
        "version": __version__,
        "seed": config.get("seed"),
        "config": _sanitize(config),
        "outputs": sorted(outputs),
        "accountant_formula": privacy.ACCOUNTANT_FORMULA,
    })


def _check_keys(config: dict, allowed: dict, command: str) -> dict:
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise ValueError(f"{command}: unknown config fields {unknown}")
    merged = dict(allowed)
    merged.update(config)
    missing = sorted(k for k, v in merged.items() if v is _REQUIRED)
    if missing:
        raise ValueError(f"{command}: missing required fields {missing}")
    return merged


_REQUIRED = object()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

_GENERATE_DEFAULTS = {
    "n": _REQUIRED, "bias": 0.7, "core_dim": 8, "sp_dim": 8,
    "core_var": 0.2, "sp_var": 0.4, "seed": 0,
}


def _run_generate(config: dict, outdir: Path) -> list:
    cfg = _check_keys(config, _GENERATE_DEFAULTS, "generate")
    ds = generate_biased(GenerationConfig(
        n=int(cfg["n"]), bias=float(cfg["bias"]),
        core_dim=int(cfg["core_dim"]), sp_dim=int(cfg["sp_dim"]),
        core_var=float(cfg["core_var"]), sp_var=float(cfg["sp_var"]),
        seed=int(cfg["seed"])))
    save_dataset(ds, outdir / "data.csv", outdir / "data.json")
    print(f"generated {ds.n} records -> {outdir / 'data.csv'}")
    return cfg, ["data.csv", "data.json"]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_DEFAULTS = {
    "task": _REQUIRED, "data": None, "test_data": None,
    "steps": 200, "learning_rate": 0.05, "epsilon": math.inf,
    "delta": None,  # None -> 0.1 / n
    "alpha": 0.0, "clip_c": 5.0, "clip_m": 1.0, "clip_l": 1.0,
    "batch_fraction": 0.2, "num_projections": 50,
    "seed": 0, "seeds": None, "model_kind": None, "hidden_dim": None,
    "latent_dim": 2, "resample_directions": False,
    "gen_samples": 2000, "gen_radius": 0.75,
}


def _load_pair(path_str: str):
    csv_path = Path(path_str)
    sidecar = csv_path.with_suffix(".json")
    return load_dataset(csv_path, sidecar)


def _train_one(cfg: dict, seed: int, outdir: Path, ds, ds_test) -> list:
    if cfg["task"] == "generation" and cfg["gen_samples"] < 1:
        raise ValueError("train: gen_samples must be >= 1")
    n = cfg["gen_samples"] if cfg["task"] == "generation" else ds.n
    delta = cfg["delta"] if cfg["delta"] is not None else 0.1 / n
    tc = TrainConfig(
        task=cfg["task"], steps=int(cfg["steps"]),
        learning_rate=float(cfg["learning_rate"]),
        epsilon=float(cfg["epsilon"]), delta=float(delta),
        alpha=float(cfg["alpha"]),
        clip=ClipConfig.symmetric(float(cfg["clip_m"]), float(cfg["clip_l"]),
                                  float(cfg["clip_c"])),
        batch_fraction=float(cfg["batch_fraction"]),
        num_projections=int(cfg["num_projections"]), seed=seed,
        model_kind=cfg["model_kind"],
        hidden_dim=None if cfg["hidden_dim"] is None
        else int(cfg["hidden_dim"]),
        latent_dim=int(cfg["latent_dim"]),
        resample_directions=bool(cfg["resample_directions"]),
        gen_samples=int(cfg["gen_samples"]),
        gen_radius=float(cfg["gen_radius"]))
    record = dpsgd_train(tc, ds, ds_test)
    record.to_json(outdir / "train_record.json")
    _write_step_csv(outdir / "metrics.csv", record)
    model = model_from_meta(record.model_meta, record.final_theta)
    save_model(model, outdir / "model.json")
    outputs = ["train_record.json", "metrics.csv", "model.json"]
    if cfg["task"] == "generation":
        outputs.append(_write_generation_outputs(outdir, tc, model))
    else:
        outputs.append(_write_outputs_by_group(outdir, ds, model, tc.task))
    spent = record.epsilon_spent
    print(f"seed {seed}: final loss {record.total_losses[-1]:.6f}, "
          f"sigma {record.sigma:.6g}, epsilon spent "
          f"{'inf' if math.isinf(spent) else f'{spent:.4f}'}"
          + (f", metrics {record.metrics}" if record.metrics else ""))
    return outputs


def _write_step_csv(path: Path, record) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "erm_loss", "w_loss", "total_loss",
                         "epsilon_spent"])
        for t in range(len(record.total_losses)):
            writer.writerow([
                str(t + 1), _fmt(record.erm_losses[t]),
                _fmt(record.w_losses[t]), _fmt(record.total_losses[t]),
                _fmt(record.epsilon_history[t])])


def _write_outputs_by_group(outdir: Path, ds, model, task: str) -> str:
    """Penalized model outputs conditioned on the penalty's classes."""
    name = "outputs_by_group.csv"
    values = model.penalty_forward_batch(ds.x)
    if task == "classification_eo":
        labels = [f"a={a},y={y}" for a, y in zip(ds.a, ds.y)]
    else:
        labels = [f"a={a}" for a in ds.a]
    with open(outdir / name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group"] + [f"v{i + 1}"
                                     for i in range(values.shape[1])])
        for label, row in zip(labels, values):
            writer.writerow([label] + [_fmt(v) for v in row])
    return name


def _write_generation_outputs(outdir: Path, tc: TrainConfig, model) -> str:
    """Pushed-forward samples next to the reference circle samples."""
    name = "outputs_by_group.csv"
    x, z = generation_samples(tc)
    pushed = model.forward_batch(x)
    with open(outdir / name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "v1", "v2"])
        for row in pushed:
            writer.writerow(["model", _fmt(row[0]), _fmt(row[1])])
        for row in z:
            writer.writerow(["reference", _fmt(row[0]), _fmt(row[1])])
    return name


def _run_train(config: dict, outdir: Path) -> list:
    cfg = _check_keys(config, _TRAIN_DEFAULTS, "train")
    seeds = cfg["seeds"] if cfg["seeds"] else [cfg["seed"]]
    seeds = [int(s) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ValueError("train: seeds must be distinct")
    if cfg["task"] != "generation":
        if not cfg["data"]:
            raise ValueError("train: a --data CSV is required for this task")
        ds = _load_pair(cfg["data"])
        ds_test = _load_pair(cfg["test_data"]) if cfg["test_data"] else None
    else:
        ds = ds_test = None
    outputs = []
    if len(seeds) == 1:
        outputs += _train_one(cfg, seeds[0], outdir, ds, ds_test)
    else:
        for s in seeds:
            sub = outdir / f"seed_{s}"
            sub.mkdir(parents=True, exist_ok=True)
            outputs += [f"seed_{s}/{name}"
                        for name in _train_one(cfg, s, sub, ds, ds_test)]
    return cfg, outputs


# ---------------------------------------------------------------------------
# calibrate-noise
# ---------------------------------------------------------------------------

_CALIBRATE_DEFAULTS = {
    "epsilon": _REQUIRED, "delta": _REQUIRED, "steps": _REQUIRED,
    "sampling_rate": _REQUIRED, "sensitivity": _REQUIRED, "seed": 0,
}


def _run_calibrate(config: dict, outdir: Path) -> list:
    cfg = _check_keys(config, _CALIBRATE_DEFAULTS, "calibrate-noise")
    eps, delta = float(cfg["epsilon"]), float(cfg["delta"])
    steps, p = int(cfg["steps"]), float(cfg["sampling_rate"])
    sens = float(cfg["sensitivity"])
    if sens <= 0:
        raise ValueError("calibrate-noise: sensitivity must be > 0")
    sigma = privacy.calibrate_noise(privacy.PrivacyBudget(eps, delta),
                                    steps, p, sens)
    nu = sigma / sens
    achieved = privacy.compose_subsampled_gaussian(
        privacy.AccountantState(nu, p, steps=steps, target_delta=delta),
        delta)
    ceiling = privacy.conservative_epsilon(nu, p, steps, delta)
    doc = {"epsilon_target": eps, "delta": delta, "steps": steps,
           "sampling_rate": p, "sensitivity": sens, "sigma": sigma,
           "noise_multiplier": nu,
           "mu_total": privacy.total_gdp_mu(nu, p, steps),
           "epsilon_achieved": achieved,
           "conservative_epsilon_ceiling": ceiling,
           "formula": privacy.ACCOUNTANT_FORMULA}
    _write_json(outdir / "calibration.json", doc)
    print(f"{'quantity':<28}{'value':>18}")
    for key in ("sigma", "noise_multiplier", "mu_total", "epsilon_achieved",
                "conservative_epsilon_ceiling"):
        print(f"{key:<28}{doc[key]:>18.8g}")
    return cfg, ["calibration.json"]


# ---------------------------------------------------------------------------
# sensitivity-audit
# ---------------------------------------------------------------------------

_AUDIT_DEFAULTS = {
    "setting": "one_sided",  # one_sided | two_sided | sliced | sp
    "n": 50, "m": 50, "input_dim": 3, "output_bound": 1.0,
    "jac_bound1": 1.0, "jac_bound2": 1.0, "loss_grad_bound": 5.0,
    "alpha": 0.75, "num_projections": 20, "trials": 1000, "seed": 0,
}


def _audit_setup(cfg: dict):
    """Seeded model, data, gradient map, and bound for the chosen setting."""
    seed, d = int(cfg["seed"]), int(cfg["input_dim"])
    n, m = int(cfg["n"]), int(cfg["m"])
    clip = ClipConfig(float(cfg["output_bound"]), float(cfg["jac_bound1"]),
                      float(cfg["jac_bound2"]), float(cfg["loss_grad_bound"]))
    rng = np.random.default_rng(seed)
    box = sensitivity.uniform_box_replacement([-3.0] * d, [3.0] * d)
    setting = cfg["setting"]

    if setting in ("one_sided", "two_sided"):
        model = make_model("affine_sigmoid", d, seed=seed)
        model.theta *= 6.0
        x = rng.normal(size=(n, d))
        z = rng.normal(size=(m, d))
        if setting == "one_sided":
            bound = sensitivity.bound_one_sided(
                clip.output_bound, clip.jac_bound1, clip.jac_bound2, n)
            return (lambda cls: clipped_wasserstein_grad(
                model, model, cls[0], z, clip)), [x], box, bound
        bound = sensitivity.bound_two_sided(
            clip.output_bound, clip.jac_bound1, clip.jac_bound2, n, m)
        return (lambda cls: clipped_wasserstein_grad(
            model, model, cls[0], cls[1], clip)), [x, z], box, bound

    if setting == "sliced":
        model = Mlp2Model(d, hidden_dim=4, output_dim=2, seed=seed)
        model.theta *= 6.0
        dirs = sample_directions(2, int(cfg["num_projections"]), seed + 1)
        x = rng.normal(size=(n, d))
        z = rng.normal(size=(m, d))
        bound = sensitivity.bound_one_sided(
            clip.output_bound, clip.jac_bound1, clip.jac_bound2, n)
        return (lambda cls: clipped_wasserstein_grad(
            model, model, cls[0], z, clip, dirs)), [x], box, bound

    if setting == "sp":
        model = make_model("affine_sigmoid", d, seed=seed)
        model.theta *= 6.0
        alpha = float(cfg["alpha"])
        x0 = np.column_stack([rng.normal(size=(n, d)),
                              rng.integers(0, 2, n).astype(float)])
        x1 = np.column_stack([rng.normal(size=(m, d)),
                              rng.integers(0, 2, m).astype(float)])

        def grad_fn(cls):
            c0, c1 = cls
            x_full = np.concatenate([c0[:, :d], c1[:, :d]])
            y_full = np.concatenate([c0[:, d], c1[:, d]])
            pair = (c0[:, :d], model, c1[:, :d])
            return penalized_objective(model, [pair], alpha, clip,
                                       erm=(x_full, y_full, "bce"))[3]

        def draw(rng_, class_index):
            return np.concatenate([rng_.uniform(-3.0, 3.0, size=d),
                                   [float(rng_.integers(0, 2))]])

        bound = sensitivity.bound_penalized(
            clip.loss_grad_bound, clip.output_bound, clip.jac_bound1, [n, m],
            alpha)
        return grad_fn, [x0, x1], draw, bound

    raise ValueError(f"sensitivity-audit: unknown setting {setting!r}")


def _run_audit(config: dict, outdir: Path) -> list:
    cfg = _check_keys(config, _AUDIT_DEFAULTS, "sensitivity-audit")
    grad_fn, classes, draw, bound = _audit_setup(cfg)
    report = sensitivity.empirical_sensitivity(
        grad_fn, classes, draw, trials=int(cfg["trials"]),
        seed=int(cfg["seed"]) + 2, theoretical_bound=bound)
    report.to_json(outdir / "sensitivity_report.json")
    status = "OK" if report.empirical_max <= bound else "VIOLATION"
    print(f"setting {cfg['setting']}: empirical {report.empirical_max:.6g} "
          f"vs bound {bound:.6g} over {report.trials} trials "
          f"(ratio {report.ratio:.3f}) -> {status}")
    if report.empirical_max > bound:
        raise ValueError("sensitivity audit violated its theoretical bound")
    return cfg, ["sensitivity_report.json"]


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------

_COUNTEREXAMPLE_DEFAULTS = {"n_values": [10, 100, 1000], "p_orders": [1, 2],
                            "seed": 0}


def _run_counterexample(config: dict, outdir: Path) -> list:
    cfg = _check_keys(config, _COUNTEREXAMPLE_DEFAULTS, "counterexample")
    n_values = [int(v) for v in cfg["n_values"]]
    p_orders = [int(v) for v in cfg["p_orders"]]
    rows = []
    for n in n_values:
        w2_gap = sensitivity.w2_counterexample_contrast(n)
        w2_bound = sensitivity.bound_one_sided(1.0, 1.0, 0.0, n)
        for p in p_orders:
            res = sensitivity.wp_counterexample(n, p)
            rows.append((n, p, res.grad_x, res.grad_x_tilde, res.gap,
                         w2_gap, w2_bound))
    with open(outdir / "counterexample.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "p_order", "grad_x", "grad_x_tilde", "gap",
                         "squared_cost_gap", "squared_cost_bound"])
        for row in rows:
            writer.writerow([str(row[0]), str(row[1])]
                            + [_fmt(v) for v in row[2:]])
    print(f"{'n':>6} {'p':>3} {'gap':>6} {'squared-cost gap':>18}")
    for n, p, _, _, gap, w2_gap, _ in rows:
        print(f"{n:>6} {p:>3} {gap:>6.3f} {w2_gap:>18.3e}")
    return cfg, ["counterexample.csv"]


# ---------------------------------------------------------------------------
# replay + dispatch
# ---------------------------------------------------------------------------

_RUNNERS = {
    "generate": _run_generate,
    "train": _run_train,
    "calibrate-noise": _run_calibrate,
    "sensitivity-audit": _run_audit,
    "counterexample": _run_counterexample,
}


def _run_replay(config: dict, outdir: Path) -> list:
    manifest_path = config["manifest"]
    with open(manifest_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not (isinstance(doc, dict) and isinstance(doc.get("command"), str)
            and isinstance(doc.get("config"), dict)):
        raise ValueError(f"replay: {manifest_path} is not a manifest (a JSON "
                         "object with a 'command' and a 'config' object)")
    command = doc["command"]
    if command not in _RUNNERS:
        raise ValueError(f"replay: manifest command {command!r} unknown")
    merged, outputs = _RUNNERS[command](doc["config"], outdir)
    _write_manifest(outdir, command, merged, outputs)
    print(f"replayed {command} -> {outdir}")
    return merged, outputs


def _resolve_outdir(args_out, command: str) -> Path:
    if args_out:
        out = Path(args_out)
    elif os.environ.get(_ENV_OUTDIR):
        out = Path(os.environ[_ENV_OUTDIR]) / command
    else:
        out = Path("runs") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _int_list(text: str) -> list:
    return [int(v) for v in text.split(",") if v.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpswgrad",
        description="Differentially private (sliced) Wasserstein gradients: "
                    "data generation, fair DP-SGD training, noise "
                    "calibration, sensitivity audits.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    p = sub.add_parser("generate", help="generate a synthetic biased dataset")
    p.add_argument("--n", type=int, default=S)
    p.add_argument("--bias", type=float, default=S,
                   help="probability that the sensitive attribute matches "
                        "the label (default 0.7)")
    p.add_argument("--core-dim", dest="core_dim", type=int, default=S)
    p.add_argument("--sp-dim", dest="sp_dim", type=int, default=S)
    p.add_argument("--core-var", dest="core_var", type=float, default=S)
    p.add_argument("--sp-var", dest="sp_var", type=float, default=S)
    p.add_argument("--seed", type=int, default=S)

    p = sub.add_parser("train", help="run fairness-penalized DP-SGD")
    p.add_argument("--task", default=S,
                   choices=["classification_sp", "classification_eo",
                            "regression_sp", "autoencoder_sp", "generation"])
    p.add_argument("--data", default=S,
                   help="dataset CSV (sidecar JSON expected alongside)")
    p.add_argument("--test-data", dest="test_data", default=S)
    p.add_argument("--steps", type=int, default=S)
    p.add_argument("--learning-rate", dest="learning_rate", type=float,
                   default=S)
    p.add_argument("--epsilon", type=float, default=S,
                   help="privacy budget; 'inf' for a non-private run")
    p.add_argument("--delta", type=float, default=S,
                   help="default 0.1/n")
    p.add_argument("--alpha", type=float, default=S,
                   help="fairness penalty weight in [0, 1]")
    p.add_argument("--clip-c", dest="clip_c", type=float, default=S,
                   help="per-sample loss gradient clip")
    p.add_argument("--clip-m", dest="clip_m", type=float, default=S,
                   help="model output clip")
    p.add_argument("--clip-l", dest="clip_l", type=float, default=S,
                   help="per-sample Jacobian clip")
    p.add_argument("--batch-fraction", dest="batch_fraction", type=float,
                   default=S)
    p.add_argument("--projections", dest="num_projections", type=int,
                   default=S)
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--seeds", type=_int_list, default=S,
                   help="comma list; runs one sweep member per seed")
    p.add_argument("--model-kind", dest="model_kind", default=S)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=S)
    p.add_argument("--latent-dim", dest="latent_dim", type=int, default=S)
    p.add_argument("--resample-directions", dest="resample_directions",
                   action="store_true", default=S)
    p.add_argument("--gen-samples", dest="gen_samples", type=int, default=S)
    p.add_argument("--gen-radius", dest="gen_radius", type=float, default=S)

    p = sub.add_parser("calibrate-noise",
                       help="invert the accountant into a noise scale")
    p.add_argument("--epsilon", type=float, default=S)
    p.add_argument("--delta", type=float, default=S)
    p.add_argument("--steps", type=int, default=S)
    p.add_argument("--sampling-rate", dest="sampling_rate", type=float,
                   default=S)
    p.add_argument("--sensitivity", type=float, default=S)
    p.add_argument("--seed", type=int, default=S)

    p = sub.add_parser("sensitivity-audit",
                       help="probe a gradient's sensitivity bound empirically")
    p.add_argument("--setting", default=S,
                   choices=["one_sided", "two_sided", "sliced", "sp"])
    p.add_argument("--n", type=int, default=S)
    p.add_argument("--m", type=int, default=S)
    p.add_argument("--input-dim", dest="input_dim", type=int, default=S)
    p.add_argument("--output-bound", dest="output_bound", type=float,
                   default=S)
    p.add_argument("--jac-bound1", dest="jac_bound1", type=float, default=S)
    p.add_argument("--jac-bound2", dest="jac_bound2", type=float, default=S)
    p.add_argument("--loss-grad-bound", dest="loss_grad_bound", type=float,
                   default=S)
    p.add_argument("--alpha", type=float, default=S)
    p.add_argument("--projections", dest="num_projections", type=int,
                   default=S)
    p.add_argument("--trials", type=int, default=S)
    p.add_argument("--seed", type=int, default=S)

    p = sub.add_parser("counterexample",
                       help="gradient-gap table for the unsquared cost")
    p.add_argument("--n", dest="n_values", type=_int_list, default=S,
                   help="comma list of sample sizes")
    p.add_argument("--p", dest="p_orders", type=_int_list, default=S,
                   help="comma list of cost orders")
    p.add_argument("--seed", type=int, default=S)

    p = sub.add_parser("replay", help="re-run a manifest into a new directory")
    p.add_argument("manifest")

    for sp_parser in sub.choices.values():
        sp_parser.add_argument("--out", default=None,
                               help="output directory (default: "
                                    "$DPSWGRAD_OUTDIR/<command> or "
                                    "runs/<command>)")
        if sp_parser.prog.split()[-1] != "replay":
            sp_parser.add_argument("--config", default=None,
                                   help="JSON file with config defaults")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command
    outdir = _resolve_outdir(args.out, command)

    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "out", "config")}
    try:
        if command == "replay":
            _run_replay(flags, outdir)
            return 0
        config = {}
        if getattr(args, "config", None):
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError(f"{args.config}: the config must be a JSON "
                                 "object")
        config.update(flags)
        merged, outputs = _RUNNERS[command](config, outdir)
        _write_manifest(outdir, command, merged, outputs)
    except (ValueError, privacy.PrivacySaturationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
