"""Tiny-size self-check of the benchmark harness.

Runs every workload at a small size (few records, steps and trials, two
invocations) with tracing off and on, and asserts that each run passes its
checks and emits every end-to-end or per-layer metric that BENCHMARK.json
names.  Takes about 15 seconds on 2 cores.  Run either of:

    python3 perfbench/selfcheck.py
    python3 -m pytest perfbench/selfcheck.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "cls_eo_paper": dict(units=4, data_n=800),
    "reg_sp_paper": dict(units=3, data_n=800),
    "gen_circle": dict(units=4),
    "audit_sliced": dict(units=20),
}


def tiny(w: run.Workload) -> run.Workload:
    flags = tuple("400" if f == "10000" else f for f in w.flags)
    return dataclasses.replace(w, flags=flags, min_runs=2, **TINY[w.name])


def _run_tiny(w: run.Workload, trace: bool) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(tiny(w), seed=3, seconds=0.0, trace=trace)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0, out.getvalue()
    return result


def test_every_metric_is_emitted():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) \
        == sorted(run.WORKLOADS)
    for trace, key, table in ((False, "end_to_end", run.END_TO_END),
                              (True, "per_layer", run.PER_LAYER)):
        names = {m["name"]: m["unit"] for m in bench[key]}
        assert names == table, f"{key} in BENCHMARK.json and run.py differ"
        for w in run.WORKLOADS.values():
            result = _run_tiny(w, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert set(result["metrics"]) == set(names), (w.name, trace)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == names[name]
                assert isinstance(metric["value"], float), (w.name, name)


if __name__ == "__main__":
    test_every_metric_is_emitted()
    print("perfbench self-check passed")
