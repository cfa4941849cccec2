"""Span tracing of the dpswgrad package from outside it.

``Tracer.install`` replaces every public function, and every public method
of every public class, of the package modules with a wrapper that records a
span ``[layer, name, start, end, parent, size]``.  A function imported by
name into another module (``from .ot_core import w2_grad_columns``) is
replaced there too, so calls through either name are seen.  Spans stay in
memory; the caller writes them out when the run ends.

``layer_split`` turns the spans of one process into the per-layer metrics.
Per-unit metrics (one unit is one DP-SGD step or one audit trial) are taken
over the spans that lie wholly inside the steady-state window between the
first and the last unit timestamp; per-run metrics (set-up and artifact
writing) over the whole process.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("models", "dp_gradient", "ot_core", "sliced", "privacy",
          "sensitivity", "data", "fairness_train", "cli")

# model methods by the kind of work they do
_FORWARD = {"forward_batch", "penalty_forward_batch", "encode_batch",
            "loss_batch", "forward"}
_JACOBIAN = {"jacobian_batch", "penalty_jacobian_batch",
             "per_sample_jacobian"}
_LOSS_GRAD = {"loss_grad_batch", "per_sample_loss_grad"}
_CLIP = {"clip_vector", "clip_rows", "clip_jacobian_naive"}
_W2_GRAD = {"w2_grad", "w2_grad_columns"}
_W2_VALUE = {"w2_squared", "w2_squared_columns"}
_NOISE = {"gaussian_mechanism", "noise_rng"}

# span fields
LAYER, NAME, START, END, PARENT, SIZE = range(6)

# the audited gradient function, wrapped by the benchmark's child process
GRADIENT_FN = "gradient_fn"


def _method(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _size(layer: str, name: str):
    """What a span records besides its times, read from the return value."""
    method = _method(name)
    if layer == "models" and method in _JACOBIAN | _LOSS_GRAD:
        return lambda out: int(out.nbytes)
    if name == "w2_grad_columns":
        return lambda out: int(out[0].shape[1])
    if name == "w2_squared_columns":
        return lambda out: int(out.shape[0])
    return None


def _public_names(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if getattr(getattr(module, n), "__module__", None)
            == module.__name__]


class Tracer:
    """Records nested call spans in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.monotonic
        size = _size(layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if size is not None:
                span[SIZE] = size(out)
            return out

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public callables of ``modules`` (layer name -> module)."""
        for layer, module in modules.items():
            for name in _public_names(module):
                obj = getattr(module, name)
                if inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") \
                                and inspect.isfunction(member):
                            setattr(obj, attr, self.wrap(
                                layer, f"{obj.__name__}.{attr}", member))
                elif callable(obj):
                    rebind(modules.values(), obj,
                           self.wrap(layer, name, obj))


def rebind(modules, original, replacement) -> None:
    """Rebind every module-level name for ``original`` to ``replacement``."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _outermost(spans, i: int, family) -> bool:
    """True when span ``i`` is not called from a span of the same family."""
    parent = spans[i][PARENT]
    return parent < 0 or not family(spans[parent])


def layer_split(spans: list, units: list, extra: dict) -> dict:
    """Per-layer metrics of one traced process.

    ``units`` are the unit timestamps; ``extra`` holds values the child
    read at exit (``coupling_hits``, ``coupling_misses``).
    """
    start, end = units[0], units[-1]
    n_units = len(units) - 1
    inside = [s[START] >= start and s[END] <= end for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def is_models(s):
        return s[LAYER] == "models"

    def is_clip(s):
        return s[LAYER] == "dp_gradient" and s[NAME] in _CLIP

    def is_accountant(s):
        return s[LAYER] == "privacy" and (
            s[NAME].startswith("AccountantState.")
            or s[NAME] == "compose_subsampled_gaussian")

    def in_set(names):
        return lambda s: s[NAME] in names

    sums = {key: 0.0 for key in (
        "trace_calls", "forward", "jacobian", "loss_grad", "per_sample_bytes",
        "clip", "clip_calls", "wgrad", "erm", "wvalue", "w2_grad",
        "w2_value", "columns", "accountant", "noise", "subsample", "grad",
        "top")}
    self_time = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        if not inside[i]:
            continue
        dur = s[END] - s[START]
        self_time[s[LAYER]] += dur - child_time[i]
        if s[PARENT] < 0 or not inside[s[PARENT]]:
            sums["top"] += dur
        method = _method(s[NAME])
        if is_models(s) and _outermost(spans, i, is_models):
            sums["trace_calls"] += 1
            if method in _FORWARD:
                sums["forward"] += dur
            elif method in _JACOBIAN:
                sums["jacobian"] += dur
                sums["per_sample_bytes"] += s[SIZE]
            elif method in _LOSS_GRAD:
                sums["loss_grad"] += dur
                sums["per_sample_bytes"] += s[SIZE]
        elif is_clip(s) and _outermost(spans, i, is_clip):
            sums["clip"] += dur
            sums["clip_calls"] += 1
        elif is_accountant(s) and _outermost(spans, i, is_accountant):
            sums["accountant"] += dur
        for key, names in (("w2_grad", _W2_GRAD), ("w2_value", _W2_VALUE),
                           ("noise", _NOISE)):
            if s[NAME] in names and _outermost(spans, i, in_set(names)):
                sums[key] += dur
        if s[NAME] in ("w2_grad_columns", "w2_squared_columns"):
            sums["columns"] += s[SIZE]
        sums["wgrad"] += dur * (s[NAME] == "clipped_wasserstein_grad")
        sums["erm"] += dur * (s[NAME] == "clipped_erm_grad")
        sums["wvalue"] += dur * (s[NAME] == "clipped_wasserstein_value")
        sums["subsample"] += dur * (s[NAME] == "subsample_partitioned")
        sums["grad"] += dur * (s[NAME] == GRADIENT_FN)

    def per_run(name, scale):
        return scale * sum(s[END] - s[START] for s in spans
                           if s[NAME] == name)

    # artifact writing: what the CLI does after the training or audit call
    main_end = max((s[END] for s in spans if s[NAME] == "main"), default=0.0)
    work_end = max((s[END] for s in spans if s[NAME] in
                    ("dpsgd_train", "empirical_sensitivity")),
                   default=main_end)
    # the training loop's own time: step time that no traced call covers
    training = any(s[NAME] == "dpsgd_train" for s in spans)
    window = end - start
    per_unit = 1e3 / n_units
    lookups = extra["coupling_hits"] + extra["coupling_misses"]
    out = {
        "models.trace_calls": sums["trace_calls"] / n_units,
        "models.forward_ms": sums["forward"] * per_unit,
        "models.jacobian_ms": sums["jacobian"] * per_unit,
        "models.loss_grad_ms": sums["loss_grad"] * per_unit,
        "models.per_sample_mb": sums["per_sample_bytes"] / n_units / 2**20,
        "dp_gradient.clip_ms": sums["clip"] * per_unit,
        "dp_gradient.clip_calls": sums["clip_calls"] / n_units,
        "dp_gradient.wgrad_ms": sums["wgrad"] * per_unit,
        "dp_gradient.erm_ms": sums["erm"] * per_unit,
        "dp_gradient.wvalue_ms": sums["wvalue"] * per_unit,
        "ot_core.w2_grad_ms": sums["w2_grad"] * per_unit,
        "ot_core.w2_value_ms": sums["w2_value"] * per_unit,
        "ot_core.columns": sums["columns"] / n_units,
        "ot_core.coupling_hit_ratio": (extra["coupling_hits"] / lookups
                                       if lookups else 0.0),
        "sliced.sample_directions_ms": per_run("sample_directions", 1e3),
        "privacy.calibrate_ms": per_run("calibrate_noise", 1e3),
        "privacy.accountant_ms": sums["accountant"] * per_unit,
        "privacy.noise_ms": sums["noise"] * per_unit,
        "sensitivity.grad_ms": sums["grad"] * per_unit,
        "sensitivity.overhead_ms": ((window - sums["grad"]) * per_unit
                                    if sums["grad"] else 0.0),
        "data.load_s": per_run("load_dataset", 1.0),
        "fairness_train.subsample_ms": sums["subsample"] * per_unit,
        "fairness_train.loop_self_ms": (window - sums["top"]) * per_unit
                                       if training else 0.0,
        "cli.write_s": main_end - work_end,
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_time[layer] * per_unit
    return out
