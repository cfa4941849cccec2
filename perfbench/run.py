"""dpswgrad benchmark: paper-scale DP-SGD through the public CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--report PATH]

Run from the root of a source checkout.  The benchmark generates the
workload's inputs from ``--seed``, then starts ``dpswgrad.cli.main`` in one
fresh child process after another (``child.py``), each with the same
arguments, until about ``--seconds`` have passed and at least the
workload's minimum number of invocations has run.  It checks every
invocation's outputs, prints each metric with its unit and sample count,
and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` untraced and traced invocations alternate; the
metrics are the per-layer split of the traced ones (see ``tracing.py``)
plus the tracing overhead.  ``--report`` also writes every detail, machine
information included, to a JSON file.  See ``README.md`` for the metric
definitions and why each workload is there.

The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# BLAS threads per child, which is never more than the machine has
BLAS_THREADS = 1
# a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150.0
# tail percentile: the highest one with at least this many samples beyond
# it, but no deeper than TAIL_MAX.  Deeper percentiles of audit_sliced's
# sub-millisecond trials catch the host's own millisecond pauses: over
# eight equal runs its p99 spread by 0.37 of its value, its p98 by 0.07.
TAIL_SAMPLES = 10
TAIL_MAX = 98
# The percentile that end-to-end figures report.  On a shared host the CPU
# runs at two speeds about 1.45x apart, for seconds at a time, and the
# slower one is the common state.  A run's median falls in either mode
# depending on how long the fast one lasted, so medians of equal runs
# spread by up to 0.24 of their value; the upper quartile stays in the
# slow mode and spread by half that (see README.md).
TYPICAL = 75


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str       # "train" or "sensitivity-audit"
    flags: tuple       # CLI flags besides --data, --steps/--trials, --seed
    units: int         # DP-SGD steps or audit trials per invocation
    min_runs: int      # invocations per run, at least; 2 or more, so that
                       # replay is checked and --trace 1 has both kinds
    data_n: int = 0    # records in the generated dataset; 0 for none

    @property
    def is_train(self) -> bool:
        return self.command == "train"

    @property
    def unit(self) -> str:
        return "step" if self.is_train else "trial"

    @property
    def intervals(self) -> int:
        """Timed units per invocation: steps after the first, or trials."""
        return self.units - 1 if self.is_train else self.units

    def tail_percentile(self) -> int:
        """Fixed per workload, so that runs and commits stay comparable."""
        n = self.min_runs * self.intervals
        return max(0, min(TAIL_MAX,
                          math.floor(100.0 * (1.0 - TAIL_SAMPLES / n))))

    def argv(self, seed: int, data_csv, out: Path) -> list:
        args = [self.command, *self.flags,
                "--steps" if self.is_train else "--trials", str(self.units),
                "--seed", str(seed), "--out", str(out)]
        if data_csv is not None:
            args += ["--data", str(data_csv)]
        return args


_PRIVATE = ("--epsilon", "1")
WORKLOADS = {w.name: w for w in (
    Workload("cls_eo_paper",
             "many small NumPy calls at p=17: per-call overhead, repeated "
             "forward traces, accounting, CSV load and artifact write",
             "train", ("--task", "classification_eo", "--alpha", "0.75",
                       "--clip-m", "1", "--clip-l", "1", "--clip-c", "5",
                       *_PRIVATE),
             units=50, min_runs=2, data_n=30000),
    Workload("reg_sp_paper",
             "dense (n,d,p) per-sample Jacobians and (n,p) loss gradients "
             "of mlp2 dominate the step and peak memory",
             "train", ("--task", "regression_sp", "--alpha", "0.75",
                       "--clip-m", "0.7071", "--clip-l", "1.4142",
                       "--clip-c", "10", "--projections", "50", *_PRIVATE),
             units=24, min_runs=2, data_n=30000),
    Workload("gen_circle",
             "2000 samples per side and 50 projections: the step is spent in "
             "the 1-D OT kernels of ot_core",
             "train", ("--task", "generation", "--gen-samples", "10000",
                       *_PRIVATE),
             units=60, min_runs=3),
    Workload("audit_sliced",
             "thousands of sub-millisecond clipped gradients at n=100: "
             "sensitivity layer and per-call cost of models, dp_gradient and "
             "ot_core",
             "sensitivity-audit", ("--setting", "sliced", "--n", "100",
                                   "--m", "100"),
             units=1500, min_runs=3),
)}

END_TO_END = {"step_ms": "ms", "step_ms_tail": "ms", "setup_s": "s",
              "run_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "models.trace_calls": "count", "models.forward_ms": "ms",
    "models.jacobian_ms": "ms", "models.loss_grad_ms": "ms",
    "models.per_sample_mb": "MiB",
    "dp_gradient.clip_ms": "ms", "dp_gradient.clip_calls": "count",
    "dp_gradient.wgrad_ms": "ms", "dp_gradient.erm_ms": "ms",
    "dp_gradient.wvalue_ms": "ms",
    "ot_core.w2_grad_ms": "ms", "ot_core.w2_value_ms": "ms",
    "ot_core.columns": "count", "ot_core.coupling_hit_ratio": "ratio",
    "sliced.sample_directions_ms": "ms", "privacy.calibrate_ms": "ms",
    "privacy.accountant_ms": "ms", "privacy.noise_ms": "ms",
    "sensitivity.grad_ms": "ms", "sensitivity.overhead_ms": "ms",
    "data.load_s": "s", "fairness_train.subsample_ms": "ms",
    "fairness_train.loop_self_ms": "ms", "cli.write_s": "s",
    **{f"{layer}.self_ms": "ms" for layer in tracing.LAYERS},
    "trace.step_ms": "ms", "trace.overhead_ms": "ms",
}


@dataclasses.dataclass
class Invocation:
    traced: bool
    exit_code: int
    run_s: float
    setup_s: float = math.nan
    peak_rss_mb: float = math.nan
    step_ms: list = dataclasses.field(default_factory=list)
    split: dict | None = None
    problems: list = dataclasses.field(default_factory=list)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def machine_info() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS}


def import_data_module():
    """Import dpswgrad.data from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dpswgrad" / "__init__.py").is_file():
        raise SystemExit(f"error: no dpswgrad sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import dpswgrad.data
    if Path(dpswgrad.__file__).resolve().parent != src / "dpswgrad":
        raise SystemExit(f"error: imported dpswgrad from {dpswgrad.__file__}")
    return dpswgrad.data


def make_inputs(data, w: Workload, seed: int, workdir: Path):
    """The dataset CSV and sidecar for ``seed``, or None if none is needed."""
    if not w.data_n:
        return None
    ds = data.generate_biased(data.GenerationConfig(n=w.data_n, bias=0.7,
                                                    seed=seed))
    csv_path = workdir / "data.csv"
    data.save_dataset(ds, csv_path, workdir / "data.json")
    return csv_path


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "OPENBLAS_", "OMP_", "MKL_"))}
    threads = str(BLAS_THREADS)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


def run_child(w: Workload, argv: list, rundir: Path, traced: bool,
              timeout: float) -> Invocation:
    """Run one CLI invocation and time it."""
    rundir.mkdir(parents=True)
    result_path = rundir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
           "1" if traced else "0", "--", *argv]
    with open(rundir / "stdout.txt", "wb") as out, \
            open(rundir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=rundir,
                                env=_child_env())
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(traced=traced, exit_code=proc.returncode,
                     run_s=end - start)
    if proc.returncode != 0:
        tail = (rundir / "stderr.txt").read_text(errors="replace")[-2000:]
        inv.problems.append(f"exit code {proc.returncode}: {tail.strip()}")
        return inv
    with open(result_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    units = doc["units"]
    expected = w.units if w.is_train else w.units + 1
    if len(units) != expected:
        inv.problems.append(f"{len(units)} unit timestamps, expected "
                            f"{expected}")
        return inv
    inv.peak_rss_mb = usage.ru_maxrss / 1024.0
    inv.step_ms = [1e3 * (b - a) for a, b in zip(units, units[1:])]
    first_start = units[0] - (statistics.median(inv.step_ms) / 1e3
                              if w.is_train else 0.0)
    inv.setup_s = first_start - start
    if traced:
        inv.split = tracing.layer_split(doc["spans"], units, doc)
    return inv


def check_outputs(w: Workload, outdir: Path, reference) -> tuple:
    """Correctness checks on one invocation's artifacts.

    Returns the problems found, the artifact's bytes (which later
    invocations of the same seed must match) and its parsed content.
    """
    problems = []
    name = "train_record.json" if w.is_train else "sensitivity_report.json"
    raw = (outdir / name).read_bytes()
    doc = json.loads(raw)
    if reference is not None and raw != reference:
        problems.append(f"{name} differs from the first invocation's")
    if w.is_train:
        spent, target = doc["epsilon_spent"], doc["epsilon_target"]
        if spent is None or target is None or not spent <= target:
            problems.append(f"epsilon spent {spent} exceeds target {target}")
        values = (doc["erm_losses"] + doc["w_losses"] + doc["total_losses"]
                  + doc["final_theta"])
        if not all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in values):
            problems.append("a loss or a final parameter is not finite")
        if len(doc["total_losses"]) != w.units:
            problems.append("record has the wrong number of steps")
    elif not doc["empirical_max"] <= doc["theoretical_bound"]:
        problems.append(f"audit: empirical {doc['empirical_max']} exceeds "
                        f"bound {doc['theoretical_bound']}")
    return problems, raw, doc


def measure(data, w: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple:
    """Run invocations until the time is used up; return them and outputs."""
    data_csv = make_inputs(data, w, seed, workdir)
    invocations, reference, record = [], None, None
    start = time.monotonic()
    while True:
        i = len(invocations)
        rundir = workdir / f"run{i}"
        argv = w.argv(seed, data_csv, rundir / "out")
        traced = trace and i % 2 == 1
        timeout = max(1.0, CHILD_TIMEOUT_S - (time.monotonic() - start))
        inv = run_child(w, argv, rundir, traced, timeout)
        if inv.exit_code == 0:
            try:
                problems, raw, doc = check_outputs(w, rundir / "out",
                                                   reference)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems, raw, doc = [f"unreadable output: {exc!r}"], \
                    None, None
            inv.problems += problems
            if reference is None:
                reference, record = raw, doc
        invocations.append(inv)
        shutil.rmtree(rundir / "out", ignore_errors=True)
        elapsed = time.monotonic() - start
        longest = max(v.run_s for v in invocations)
        if len(invocations) >= w.min_runs and elapsed + longest > seconds:
            break
        if elapsed + longest > CHILD_TIMEOUT_S:
            break
    return invocations, record


def summarize(w: Workload, invocations: list, record, trace: bool) -> dict:
    plain = [v for v in invocations if not v.traced and not v.problems]
    traced = [v for v in invocations if v.traced and not v.problems]
    samples = [s for v in plain for s in v.step_ms]
    tail_p = w.tail_percentile()
    metrics = {}
    if samples:
        metrics["step_ms"] = (percentile(samples, TYPICAL), len(samples),
                              f"p{TYPICAL} of {len(samples)} {w.unit}s")
        metrics["step_ms_tail"] = (percentile(samples, tail_p), len(samples),
                                   f"p{tail_p} of {len(samples)} {w.unit}s")
        for key in ("setup_s", "run_s", "peak_rss_mb"):
            values = [getattr(v, key) for v in plain]
            metrics[key] = (percentile(values, TYPICAL), len(values),
                            f"p{TYPICAL} of {len(values)} invocations")
    if record is not None and w.is_train:
        metrics["final_loss"] = (record["total_losses"][-1], 1,
                                 "total_losses[-1] of train_record.json")
    attempted = w.units * len(invocations)
    failed = w.units * sum(1 for v in invocations if v.problems)
    metrics["failed_frac"] = (failed / attempted, attempted,
                              f"failed / attempted {w.unit}s")
    if trace and traced:
        splits = [v.split for v in traced]
        for key in splits[0]:
            values = [s[key] for s in splits]
            metrics[key] = (statistics.median(values), len(values),
                            f"median of {len(values)} traced invocations")
        traced_ms = percentile([s for v in traced for s in v.step_ms],
                               TYPICAL)
        metrics["trace.step_ms"] = (traced_ms, len(traced),
                                    "step_ms of the traced invocations")
        if samples:
            metrics["trace.overhead_ms"] = (
                traced_ms - metrics["step_ms"][0], len(traced),
                "traced step_ms minus untraced step_ms")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the full result to this JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run(WORKLOADS[args.workload], args.seed, args.seconds,
               bool(args.trace), args.report)


def run(w: Workload, seed: int, seconds: float, trace: bool,
        report: Path | None = None) -> int:
    data = import_data_module()
    workdir = ROOT / ".bench_work" / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        invocations, record = measure(data, w, seed, seconds, trace,
                                      workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = summarize(w, invocations, record, trace)
    machine = machine_info()
    units = {**END_TO_END, **PER_LAYER, "final_loss": "1",
             "failed_frac": "ratio"}

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {w.name} (seed {seed}, trace {int(trace)}): "
          f"{len(invocations)} invocations of `dpswgrad {w.command}`, "
          f"{w.units} {w.unit}s each")
    for key, (value, count, how) in summary["metrics"].items():
        print(f"  {key:<30} {value:>14.6g} {units[key]:<6} n={count:<6} "
              f"{how}")
    problems = [p for v in invocations for p in v.problems]
    for problem in problems:
        print(f"  FAILED: {problem}")

    wanted = PER_LAYER if trace else END_TO_END
    metrics = {key: {"value": summary["metrics"][key][0], "unit": unit}
               for key, unit in wanted.items() if key in summary["metrics"]}
    correct = not problems and len(metrics) == len(wanted)
    if report is not None:
        doc = {"workload": w.name, "why": w.why, "seed": seed,
               "seconds": seconds, "trace": int(trace), "machine": machine,
               "correct": correct, "attempted": summary["attempted"],
               "failed": summary["failed"], "problems": problems,
               "metrics": {k: {"value": v, "unit": units[k], "samples": n,
                               "how": how}
                           for k, (v, n, how)
                           in summary["metrics"].items()},
               "invocations": [
                   dataclasses.asdict(v) | {
                       "split": None, "step_ms": len(v.step_ms),
                       f"step_ms_p{TYPICAL}": (percentile(v.step_ms, TYPICAL)
                                               if v.step_ms else None)}
                   for v in invocations]}
        report.parent.mkdir(parents=True, exist_ok=True)
        with open(report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
