"""Command-line experiments: generate, train, calibrate, audit, counterexample.

Every artifact-producing command writes a run manifest (full merged config,
seed, library version, output names, accountant formula identifier) next to
its outputs; ``replay`` re-executes a manifest into a fresh directory and is
guaranteed to reproduce every CSV/JSON byte for byte.

Config precedence: command-line flags override values from a ``--config``
JSON file, which override built-in defaults.  Each command's fields, with
their types, defaults, flags and help, are declared once in ``_COMMANDS``.
A ``--config`` file or a replayed manifest must give every field its JSON
type: an int field takes an integral number, a float field a number or
``"inf"``, a string field a string, a bool field ``true``/``false``, a list
field a list of integers, and only a field whose default is null takes
null.  Anything else exits with an error naming the command and the field,
before any output directory is created.  The manifest records the typed
values that ran (``1`` given for a float field is recorded as ``1.0``).

A command accepts only the fields its run reads: a typed config (flags,
``--config`` or a replayed manifest) that gives a value other than the
default to a field that the run's task, model kind or audit setting
leaves unread exits with ``error: <command>: a <run> run does not read
<flags>``, before any output directory is created (:func:`_refuse_unread`;
a train run's kind facts come from the model it builds).  Numeric values
never make a field unread.
Numeric CSV output carries 17 significant digits so downstream consumers
see the exact doubles.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, privacy, sensitivity
from .data import (GenerationConfig, generate_biased, load_dataset,
                   save_dataset)
from .dp_gradient import ClipConfig, penalized_objective
from .fairness_train import (TASKS, TrainConfig, dpsgd_train,
                             generation_samples, task_model)
from .jsonio import write_csv, write_json
from .models import make_model, model_from_meta, save_model
from .sliced import sample_directions

MANIFEST_NAME = "manifest.json"
_ENV_OUTDIR = "DPSWGRAD_OUTDIR"
_REQUIRED = object()


class _Field(NamedTuple):
    """One config field: ``kind`` is int, float, str, bool or list (of ints).

    ``flag`` defaults to ``--`` plus the name with dashes; a field whose
    default is None also takes None.
    """

    name: str
    kind: type
    default: object = _REQUIRED
    help: str | None = None
    flag: str | None = None
    choices: tuple | None = None

    @property
    def option(self) -> str:
        return self.flag or "--" + self.name.replace("_", "-")


# sensitivity-audit setting -> how many sides of its pair are private
_AUDIT_PRIVATE_SIDES = {"one_sided": 1, "two_sided": 2, "sliced": 1, "sp": 2}
# an audit field that only one setting reads -> that setting
_AUDIT_READER = {"alpha": "sp", "loss_grad_bound": "sp",
                 "num_projections": "sliced"}

_F = _Field
_COMMANDS = {
    "generate": ("generate a synthetic biased dataset", [
        _F("n", int),
        _F("bias", float, 0.7, "probability that the sensitive attribute "
                               "matches the label (default 0.7)"),
        _F("core_dim", int, 8), _F("sp_dim", int, 8),
        _F("core_var", float, 0.2), _F("sp_var", float, 0.4),
        _F("seed", int, 0),
    ]),
    "train": ("run fairness-penalized DP-SGD", [
        _F("task", str, choices=TASKS),
        _F("data", str, None, "dataset CSV (sidecar JSON expected alongside)"),
        _F("test_data", str, None),
        _F("steps", int, 200),
        _F("learning_rate", float, 0.05),
        _F("epsilon", float, math.inf,
           "privacy budget; 'inf' for a non-private run"),
        _F("delta", float, None, "default 0.1/n"),
        _F("alpha", float, 0.0, "fairness penalty weight in [0, 1]"),
        _F("clip_c", float, 5.0, "per-sample loss gradient clip"),
        _F("clip_m", float, 1.0, "model output clip"),
        _F("clip_l", float, 1.0, "per-sample Jacobian clip"),
        _F("batch_fraction", float, 0.2),
        _F("num_projections", int, 50, flag="--projections"),
        _F("seed", int, 0),
        _F("seeds", list, None, "comma list; runs one sweep member per seed"),
        _F("model_kind", str, None),
        _F("hidden_dim", int, None),
        _F("latent_dim", int, 2),
        _F("resample_directions", bool, False),
        _F("gen_samples", int, 2000),
        _F("gen_radius", float, 0.75),
    ]),
    "calibrate-noise": ("invert the accountant into a noise scale", [
        _F("epsilon", float), _F("delta", float), _F("steps", int),
        _F("sampling_rate", float), _F("sensitivity", float),
        _F("seed", int, 0),
    ]),
    "sensitivity-audit": ("probe a gradient's sensitivity bound empirically", [
        _F("setting", str, "one_sided",
           choices=tuple(_AUDIT_PRIVATE_SIDES)),
        _F("n", int, 50), _F("m", int, 50), _F("input_dim", int, 3),
        _F("output_bound", float, 1.0), _F("jac_bound1", float, 1.0),
        _F("jac_bound2", float, 1.0), _F("loss_grad_bound", float, 5.0),
        _F("alpha", float, 0.75),
        _F("num_projections", int, 20, flag="--projections"),
        _F("trials", int, 1000), _F("seed", int, 0),
    ]),
    "counterexample": ("gradient-gap table for the unsquared cost", [
        _F("n_values", list, [10, 100, 1000], "comma list of sample sizes",
           "--n"),
        _F("p_orders", list, [1, 2], "comma list of cost orders", "--p"),
        _F("seed", int, 0),
    ]),
}

_EXPECTED = {int: "an integer", float: 'a number or "inf"', str: "a string",
             bool: "true or false", list: "a list of integers"}


def _typed(kind: type, value):
    """``value`` as ``kind``, or None when its JSON type does not fit."""
    if kind is list:
        items = ([_typed(int, v) for v in value] if isinstance(value, list)
                 else [None])
        return None if None in items else items
    if isinstance(value, bool) != (kind is bool):
        return None
    if kind is float and (type(value) in (int, float)
                          or value in ("inf", "-inf")):
        return float(value)
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    return value if type(value) is kind else None


def _typed_config(command: str, given: dict) -> dict:
    """``given`` over the command's defaults, every field as its type."""
    table = _COMMANDS[command][1]
    unknown = sorted(set(given) - {f.name for f in table})
    if unknown:
        raise ValueError(f"{command}: unknown config fields {unknown}")
    config = {f.name: given.get(f.name, f.default) for f in table}
    missing = sorted(k for k, v in config.items() if v is _REQUIRED)
    if missing:
        raise ValueError(f"{command}: missing required fields {missing}")
    for f in table:
        value = config[f.name]
        if value is None and f.default is None:
            continue
        try:
            config[f.name] = _typed(f.kind, value)
        except OverflowError:  # an integer beyond the float range
            config[f.name] = None
        if config[f.name] is None:
            raise ValueError(f"{command}: {f.name} must be "
                             f"{_EXPECTED[f.kind]}, got {json.dumps(value)}")
    return config


def _refuse_unread(command: str, cfg: dict) -> None:
    """Refuse ``cfg`` where it gives a value other than the default to a
    field that its run leaves unread because of its task, its model kind
    or its audit setting.

    A train run's kind facts are those of the model it builds: the kind's
    fields that ``meta()`` records, and its penalty output's dimension, at
    which 1 takes no projections.  Neither depends on the data, so one
    record of one feature stands in for it.
    """
    run, unread = command, set()
    if command == "train":
        model = task_model(_train_configs(cfg, 1)[0], 1)
        run = f"{cfg['task']} {model.kind}"
        unread = ({"data", "test_data", "alpha", "clip_c"}
                  if cfg["task"] == "generation"
                  else {"gen_samples", "gen_radius"})
        unread |= {"hidden_dim", "latent_dim"} - set(model.meta())
        if model.penalty_dim == 1:
            unread |= {"num_projections", "resample_directions"}
        if cfg["seeds"] is not None:
            run, unread = run + " sweep", unread | {"seed"}
    elif command == "sensitivity-audit":
        run = cfg["setting"]
        if run not in _AUDIT_PRIVATE_SIDES:
            raise ValueError(f"sensitivity-audit: unknown setting {run!r}")
        unread = {f for f, reader in _AUDIT_READER.items() if reader != run}
    elif command in ("calibrate-noise", "counterexample"):
        unread = {"seed"}  # neither draws anything at random
    flags = [f.option for f in _COMMANDS[command][1]
             if f.name in unread and cfg[f.name] != f.default]
    if flags:
        raise ValueError(f"{command}: a {run} run does not read "
                         f"{', '.join(flags)}")


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
    write_json(outdir / MANIFEST_NAME, {
        "schema": 1,
        "command": command,
        "version": __version__,
        "seed": config.get("seed"),
        "config": _sanitize(config),
        "outputs": sorted(outputs),
        "accountant_formula": privacy.ACCOUNTANT_FORMULA,
    })


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _run_generate(cfg: dict, outdir: Path) -> list:
    ds = generate_biased(GenerationConfig(**cfg))
    outdir.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, outdir / "data.csv", outdir / "data.json")
    print(f"generated {ds.n} records -> {outdir / 'data.csv'}")
    return ["data.csv", "data.json"]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _load_pair(path: str):
    return load_dataset(Path(path), Path(path).with_suffix(".json"))


def _train_one(tc: TrainConfig, ds, ds_test):
    try:
        return dpsgd_train(tc, ds, ds_test)
    except ValueError as exc:
        raise ValueError(f"train: {exc}") from exc


def _write_train_outputs(tc: TrainConfig, record, outdir: Path, ds) -> list:
    outdir.mkdir(parents=True, exist_ok=True)
    record.to_json(outdir / "train_record.json")
    _write_step_csv(outdir / "metrics.csv", record)
    model = model_from_meta(record.model_meta, record.final_theta)
    save_model(model, outdir / "model.json")
    outputs = ["train_record.json", "metrics.csv", "model.json"]
    if tc.task == "generation":
        # pushed-forward samples next to the reference circle samples
        x, z = generation_samples(tc)
        names = ["model", "reference"]
        keys = np.repeat([0, 1], [len(x), len(z)])
        values = np.vstack([model.forward_batch(x), z])
    else:
        # penalized model outputs conditioned on the penalty's classes
        values = model.forward_batch(ds.x, penalty=True)
        if tc.task == "classification_eo":
            # quoted, as csv.writer quotes a field holding a comma
            names = [f'"a={a},y={y}"' for a in (0, 1) for y in (0, 1)]
            keys = 2 * ds.a + ds.y
        else:
            names, keys = ["a=0", "a=1"], ds.a
    outputs.append(_write_outputs_by_group(outdir, names, keys, values))
    spent = record.epsilon_spent
    print(f"seed {tc.seed}: final loss {record.total_losses[-1]:.6f}, "
          f"sigma {record.sigma:.6g}, epsilon spent "
          f"{'inf' if math.isinf(spent) else f'{spent:.4f}'}"
          + (f", metrics {record.metrics}" if record.metrics else ""))
    return outputs


def _write_step_csv(path: Path, record) -> None:
    write_csv(path, ["step", "erm_loss", "w_loss", "total_loss",
                     "epsilon_spent"],
              np.column_stack([record.erm_losses, record.w_losses,
                               record.total_losses, record.epsilon_history]),
              [str(t + 1) for t in range(len(record.total_losses))])


def _write_outputs_by_group(outdir: Path, names: list, keys,
                            values) -> str:
    """One row per output row of ``values`` (r, k), led by the name of its
    group, the CSV field ``names[keys[i]]``."""
    name = "outputs_by_group.csv"
    write_csv(outdir / name,
              ["group"] + [f"v{i + 1}" for i in range(values.shape[1])],
              values, np.array(names, dtype=object)[keys])
    return name


def _train_configs(cfg: dict, n: int) -> list:
    """One TrainConfig per seed of a train run on ``n`` records, which give
    an unset delta, 0.1 / n."""
    seeds = [cfg["seed"]] if cfg["seeds"] is None else cfg["seeds"]
    if not seeds:
        raise ValueError("train: seeds must list at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("train: seeds must be distinct")
    # the fields TrainConfig shares with the train command, by name
    shared = {f.name: cfg[f.name] for f in fields(TrainConfig)
              if f.name in cfg}
    shared.update(
        delta=cfg["delta"] if cfg["delta"] is not None else 0.1 / n,
        clip=ClipConfig.symmetric(cfg["clip_m"], cfg["clip_l"],
                                  cfg["clip_c"]))
    return [TrainConfig(**{**shared, "seed": s}) for s in seeds]


def _run_train(cfg: dict, outdir: Path) -> list:
    ds = ds_test = None
    if cfg["task"] != "generation":
        if not cfg["data"]:
            raise ValueError("train: a --data CSV is required for this task")
        ds = _load_pair(cfg["data"])
        ds_test = _load_pair(cfg["test_data"]) if cfg["test_data"] else None
    configs = _train_configs(cfg, ds.n if ds else cfg["gen_samples"])
    # every seed trains before any artifact is written, so a seed that
    # fails (say, by diverging) leaves no partial sweep without a manifest
    records = [_train_one(tc, ds, ds_test) for tc in configs]
    if len(configs) == 1:
        return _write_train_outputs(configs[0], records[0], outdir, ds)
    return [f"seed_{tc.seed}/{name}" for tc, record in zip(configs, records)
            for name in _write_train_outputs(
                tc, record, outdir / f"seed_{tc.seed}", ds)]


# ---------------------------------------------------------------------------
# calibrate-noise
# ---------------------------------------------------------------------------

def _run_calibrate(cfg: dict, outdir: Path) -> list:
    eps, delta, steps = cfg["epsilon"], cfg["delta"], cfg["steps"]
    p, sens = cfg["sampling_rate"], cfg["sensitivity"]
    sigma = privacy.calibrate_noise(privacy.PrivacyBudget(eps, delta),
                                    steps, p, sens)
    nu = sigma / sens
    achieved = privacy.AccountantState(
        nu, p, steps=steps, target_delta=delta).epsilon_spent()
    ceiling = privacy.conservative_epsilon(nu, p, steps, delta)
    doc = {"epsilon_target": eps, "delta": delta, "steps": steps,
           "sampling_rate": p, "sensitivity": sens, "sigma": sigma,
           "noise_multiplier": nu,
           "mu_total": privacy.total_gdp_mu(nu, p, steps),
           "epsilon_achieved": achieved,
           "conservative_epsilon_ceiling": ceiling,
           "formula": privacy.ACCOUNTANT_FORMULA}
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "calibration.json", doc)
    print(f"{'quantity':<28}{'value':>18}")
    for key in ("sigma", "noise_multiplier", "mu_total", "epsilon_achieved",
                "conservative_epsilon_ceiling"):
        print(f"{key:<28}{doc[key]:>18.8g}")
    return ["calibration.json"]


# ---------------------------------------------------------------------------
# sensitivity-audit
# ---------------------------------------------------------------------------

def _audit_setup(cfg: dict):
    """Seeded model, private classes, gradient map and bound of a setting.

    Every setting is one penalty pair of the model with itself, ``x`` (n
    records) against ``z`` (m records) as two blocks of one batch, run
    through the objective and bounded from the same pair.  ``one_sided``
    and ``sliced`` keep ``z`` public, ``two_sided`` and ``sp`` make both
    sides private.  The first three audit the Wasserstein gradient alone
    (weight 1, no ERM); ``sp`` is the statistical-parity objective over
    labelled records, with ERM over the batch.  Each gradient of every
    setting traces the model once.
    """
    seed, d, n, m = cfg["seed"], cfg["input_dim"], cfg["n"], cfg["m"]
    clip = ClipConfig(cfg["output_bound"], cfg["jac_bound1"],
                      cfg["jac_bound2"], cfg["loss_grad_bound"])
    setting = cfg["setting"]
    rng = np.random.default_rng(seed)
    dirs = None
    if setting == "sliced":
        model = make_model("mlp2", d, seed=seed, hidden_dim=4, output_dim=2)
        dirs = sample_directions(2, cfg["num_projections"], seed + 1)
    else:
        model = make_model("affine_sigmoid", d, seed=seed)
    model.theta *= 6.0
    labelled = setting == "sp"
    if labelled:
        # records carry their label in the last column
        classes = [np.column_stack([rng.normal(size=(k, d)),
                                    rng.integers(0, 2, k).astype(float)])
                   for k in (n, m)]
        alpha = cfg["alpha"]

        def draw(rng_, class_index):
            return np.concatenate([rng_.uniform(-3.0, 3.0, size=d),
                                   [float(rng_.integers(0, 2))]])
    else:
        classes = [rng.normal(size=(k, d)) for k in (n, m)]
        alpha = 1.0
        draw = sensitivity.uniform_box_replacement([-3.0] * d, [3.0] * d)
    private = _AUDIT_PRIVATE_SIDES[setting]
    public = classes[private:]
    pairs = [(slice(0, n), slice(n, n + m))]

    def grad_fn(cls):
        # contiguous copies of the features: the matmul of a strided view
        # of the labelled records rounds differently
        x = np.concatenate([c[:, :d] for c in (*cls, *public)])
        erm = np.concatenate([c[:, d] for c in cls]) if labelled else None
        return penalized_objective(model, x, pairs, alpha, clip, dirs,
                                   erm)[3]

    bound = sensitivity.sensitivity_bound(
        [(n, m if private == 2 else None)], alpha, clip,
        n + m if labelled else None)
    return grad_fn, classes[:private], draw, bound


def _run_audit(cfg: dict, outdir: Path) -> list:
    grad_fn, classes, draw, bound = _audit_setup(cfg)
    report = sensitivity.empirical_sensitivity(
        grad_fn, classes, draw, trials=cfg["trials"], seed=cfg["seed"] + 2,
        theoretical_bound=bound)
    outdir.mkdir(parents=True, exist_ok=True)
    report.to_json(outdir / "sensitivity_report.json")
    status = "OK" if report.empirical_max <= bound else "VIOLATION"
    print(f"setting {cfg['setting']}: empirical {report.empirical_max:.6g} "
          f"vs bound {bound:.6g} over {report.trials} trials "
          f"(ratio {report.ratio:.3f}) -> {status}")
    if report.empirical_max > bound:
        raise ValueError("sensitivity audit violated its theoretical bound")
    return ["sensitivity_report.json"]


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------

def _run_counterexample(cfg: dict, outdir: Path) -> list:
    # the squared cost's pair: the shift map x + t on the private grid,
    # outputs and Jacobians within 1, against the public midpoint grid, a
    # reference sample with no Jacobian
    rows = []
    for n in cfg["n_values"]:
        w2_gap = sensitivity.w2_counterexample_contrast(n)
        w2_bound = sensitivity.sensitivity_bound(
            [(n, None)], 1.0, ClipConfig(1.0, 1.0, 0.0))
        for p in cfg["p_orders"]:
            res = sensitivity.wp_counterexample(n, p)
            rows.append((n, p, res.grad_x, res.grad_x_tilde, res.gap,
                         w2_gap, w2_bound))
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "counterexample.csv",
              ["n", "p_order", "grad_x", "grad_x_tilde", "gap",
               "squared_cost_gap", "squared_cost_bound"],
              np.reshape([row[2:] for row in rows], (-1, 5)),
              [f"{row[0]},{row[1]}" for row in rows])
    print(f"{'n':>6} {'p':>3} {'gap':>6} {'squared-cost gap':>18}")
    for n, p, _, _, gap, w2_gap, _ in rows:
        print(f"{n:>6} {p:>3} {gap:>6.3f} {w2_gap:>18.3e}")
    return ["counterexample.csv"]


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


def _read_manifest(path: str):
    """The command and the config a manifest recorded."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not (isinstance(doc, dict) and isinstance(doc.get("command"), str)
            and isinstance(doc.get("config"), dict)):
        raise ValueError(f"replay: {path} is not a manifest (a JSON object "
                         "with a 'command' and a 'config' object)")
    if doc["command"] not in _RUNNERS:
        raise ValueError(f"replay: manifest command {doc['command']!r} "
                         "unknown")
    return doc["command"], doc["config"]


def _read_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: the config must be a JSON object")
    return config


def _resolve_outdir(args_out, command: str) -> Path:
    if args_out:
        return Path(args_out)
    if os.environ.get(_ENV_OUTDIR):
        return Path(os.environ[_ENV_OUTDIR]) / command
    return Path("runs") / command


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
    for command, (help_text, table) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for f in table:
            kind = ({"action": "store_true"} if f.kind is bool else
                    {"type": _int_list if f.kind is list else f.kind,
                     "choices": f.choices})
            p.add_argument(f.option, dest=f.name, default=argparse.SUPPRESS,
                           help=f.help, **kind)
    sub.add_parser("replay", help="re-run a manifest into a new "
                                  "directory").add_argument("manifest")
    for command, p in sub.choices.items():
        p.add_argument("--out", default=None,
                       help="output directory (default: "
                            "$DPSWGRAD_OUTDIR/<command> or runs/<command>)")
        if command != "replay":
            p.add_argument("--config", default=None,
                           help="JSON file with config defaults")
    return parser


# glibc mallopt parameters, and a size above any one step's temporaries
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_BYTES = 256 << 20


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep the memory a training step frees for the
    next step, instead of returning it to the system at every ``free`` and
    faulting it in again: blocks up to ``_KEEP_BYTES`` come from the heap,
    and the heap is trimmed only above that much free memory at its top.
    A no-op where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        # no loadable C library (TypeError: Windows takes no None), or
        # one without mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param in (_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD):
        mallopt(param, _KEEP_BYTES)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            command, given = _read_manifest(args.manifest)
        else:
            command = args.command
            given = _read_config(args.config) if args.config else {}
            given.update((k, v) for k, v in vars(args).items()
                         if k not in ("command", "out", "config"))
        config = _typed_config(command, given)
        _refuse_unread(command, config)
        outdir = _resolve_outdir(args.out, args.command)
        outputs = _RUNNERS[command](config, outdir)
        _write_manifest(outdir, command, config, outputs)
    except (ValueError, privacy.PrivacySaturationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "replay":
        print(f"replayed {command} -> {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
