"""One timed invocation of the dpswgrad command-line interface.

Usage: python3 child.py RESULT_JSON TRACE -- CLI_ARGS...

Runs ``dpswgrad.cli.main(CLI_ARGS)`` in this fresh process and writes
RESULT_JSON with one monotonic timestamp per unit of work, read at a public
per-unit call, and exits with the CLI's exit code:

- a training run: each call of ``privacy.AccountantState.step``, which
  ends a DP-SGD step;
- a sensitivity audit: each call of the gradient function handed to
  ``sensitivity.empirical_sensitivity``, which starts a trial (the first
  call is the base gradient).

Nothing else is wrapped unless TRACE is 1; then every public function of
the package is traced as well (see ``tracing.py``) and the spans are added
to RESULT_JSON.  The timestamps and spans go to RESULT_JSON only, never into
the CLI's output directory, so its artifacts stay byte-identical.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import tracing


def main(argv: list) -> int:
    result_path, trace, sep, cli_args = argv[0], argv[1] == "1", argv[2], \
        argv[3:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- CLI_ARGS...")
    modules = {layer: importlib.import_module(f"dpswgrad.{layer}")
               for layer in tracing.LAYERS}
    coupling = modules["ot_core"].quantile_coupling
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install(modules)

    units = []
    clock = time.monotonic
    privacy, sensitivity = modules["privacy"], modules["sensitivity"]
    step = privacy.AccountantState.step

    def timed_step(self, *args, **kwargs):
        units.append(clock())
        return step(self, *args, **kwargs)

    audit = sensitivity.empirical_sensitivity

    def timed_audit(gradient_fn, *args, **kwargs):
        if tracer is not None:
            gradient_fn = tracer.wrap("sensitivity", tracing.GRADIENT_FN,
                                      gradient_fn)

        def timed_gradient(*fn_args, **fn_kwargs):
            units.append(clock())
            return gradient_fn(*fn_args, **fn_kwargs)

        return audit(timed_gradient, *args, **kwargs)

    privacy.AccountantState.step = timed_step
    tracing.rebind(modules.values(), audit, timed_audit)

    code = modules["cli"].main(cli_args)
    info = coupling.cache_info()
    doc = {"units": units,
           "coupling_hits": info.hits, "coupling_misses": info.misses,
           "spans": None if tracer is None else tracer.spans}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
