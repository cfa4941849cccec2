"""Tier-1 guard for the benchmark harness.

Runs ``perfbench/selfcheck.py``: every workload at a tiny size, traced and
untraced, must pass its checks and emit every metric BENCHMARK.json names.
The tracer hooks public function names of the package, so a rename that
breaks the harness fails here.  Takes about 15 seconds on 2 cores.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import dpswgrad

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import selfcheck  # noqa: E402


def test_perfbench_selfcheck():
    selfcheck.test_every_metric_is_emitted()


def test_every_exported_name_resolves():
    # the tracer reads each name in a module's __all__ with getattr, so a
    # stale export would fail every traced benchmark run
    for info in pkgutil.iter_modules(dpswgrad.__path__):
        module = importlib.import_module(f"dpswgrad.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"dpswgrad.{info.name}.{name}"
