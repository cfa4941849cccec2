"""Micro-benchmarks of the OT gradient kernel, one objective step, row
clipping and calibration.

Usage::

    PYTHONPATH=<checkout>/src python tools/microbench.py [--repeats R]

Times ``ot_core.w2_grad_columns`` on the column blocks that the benchmark
workloads sort, each given as the training step passes it: an (n, k) view
of a C-contiguous (k, n) block; one more case gives the reg_sp blocks
C-ordered, which the kernel copies into its (k, n) layout.  Each OT case
alternates, call by call, with the same kernel whose ``np.bincount``
sums are replaced by SciPy CSR products of the weighting matrices
(``coupling_matrices`` in ``tests/oracles.py``), transposed back as the
CSR products leave them and then scattered to the samples' input
positions: the line below each case, ``csr product``, times that kernel,
and its outputs must be the kernel's bits.  The two ``eo`` cases are the
scalar (k = 1) class pairs of the ``cls_eo_paper`` batch.  The two
``far`` cases (5 x 1000 and 1 x 100000) are couplings whose every
segment on the small side holds hundreds to 100000 entries, a group-size
ratio that no benchmark workload has.  Four more
cases at the gen_circle size time blocks of ties and near-ties:
``all_tied`` (every column repeats a few values), ``near_tied`` (every
column holds distinct values 1 to 3 ulps apart, shuffled),
``saturated`` (projections of ``sigmoid_recentered`` outputs at
pre-activations in [25, 40], which hold both exact ties and near-ties)
and ``near_tied_signed`` (the ``near_tied`` values, each negated with
probability 1/2).  ``near_tied`` and ``saturated`` span so few integers
per column that the kernel's first sort keeps every bit; ``all_tied``
spans more, so its first sort drops low bits, but it holds only exact
ties, which need no second sort; ``near_tied_signed`` spans as much and
holds near-ties, so every row takes the repair: a stable argsort of its
values.  No benchmark workload reaches that repair, so this case is its
timed evidence.  ``gen_circle one-sided`` times the gen_circle blocks with
``grad_v=False``, as the generation step sorts them: the reference side
takes a value sort only, and no gradient comes back for it.

The ``concurrent`` lines time ``w2_grad_columns`` with the second side
sorted on the kernel's worker thread (``ot_core._CONCURRENT_VALUES`` set
to 1), each alternating call by call with the ``serial`` line below it,
both sides sorted on the calling thread (the constant set above every
block's size), whose outputs must be the same bits: the reg_sp blocks,
the gen_circle one-sided blocks, and square 2048 x 2048 blocks of 2^13 to
2^16 values per side, around the constant's 2^15, where the overlap
starts to save more than the hand-off to the worker costs.  A first line
gives the number of CPUs this process may run on; with one, the
``concurrent`` lines hand the sorts to the worker all the same, but
nothing runs side by side.

Then it times one ``dp_gradient.penalized_objective`` call in each of
five shapes:

- ``reg_sp``: the ``reg_sp_paper`` batch (mlp2 with 16 inputs, 64 hidden
  units and 2 outputs; 2986 + 3014 rows traced once, the two classes as
  slices of the batch; 50 directions, alpha 0.75);
- ``ae``: an ``autoencoder_sp`` batch at the paper scale (autoencoder
  16-62-2-62-16, squared reconstruction error; 2986 + 3014 rows traced
  once, the penalty comparing the 2-D codes of the two blocks; 50
  directions, alpha 0.75), which no benchmark workload runs;
- ``eo``: the ``cls_eo_paper`` batch (affine_sigmoid with 16 inputs, bce;
  four class blocks of 2094, 906, 891 and 2109 rows as slices of the
  batch, in two pairs; alpha 0.75);
- ``audit``: one gradient of the ``audit_sliced`` workload (mlp2 with 3
  inputs, 4 hidden units and 2 outputs at 6 times its initial weights;
  100 against 100 rows, stacked into one batch per call as the audit
  stacks them; 20 directions, weight 1, no ERM);
- ``gen``: one ``gen_circle`` step (mlp2 with 2 inputs, 32 hidden units
  and a linear 2-D output; 2000 rows against an array of 2000 reference
  outputs; 50 directions, weight 1, no ERM).

Then it times ``dp_gradient.clip_rows``, ``privacy.calibrate_noise`` and
``data.load_dataset`` of a 30000-record dataset with 16 features (the
paper-scale CSV of 20 columns), whose arrays it checks bit for bit against
the row-by-row reference parse (``matches_csv_rows`` in
``tests/oracles.py``).  Last, ``outputs_by_group`` times the CLI's
``outputs_by_group.csv`` writer at 30000 x 1 (a classification model's
outputs under the four EO group labels, which the CSV quotes) and 30000 x
2 (a regression model's under the two SP labels), alternating call by
call with ``csv.writer`` writing the same table row by row from per-row
labels (``write_outputs_by_group`` in ``tests/oracles.py``), whose bytes
the CLI's file must equal.
Each case runs once untimed, then R times (default 30); one line per case
gives the median and the quartiles in ms and the minor page faults per
timed call (``resource.getrusage``), which count the fresh memory the C
library maps in for the call's temporaries.  A line marked ``single
pass`` (the objectives, ``clip_rows``, ``calibrate_noise`` and
``load_dataset``) times its case alone, with no partner alternating call
by call under the same load, so it reads the host's load as much as the
code: compare such lines across two checkouts only through perfbench or
through runs of both checkouts interleaved with each other.
The script leaves the C library's allocator at its defaults.
Every OT case also checks that the kernel's outputs equal, bit for bit,
those of the two-stable-argsort reference ``w2_grad_columns_stable`` in
``tests/oracles.py`` (a one-sided case its ``grad_u`` and values) and of
the CSR product kernel, and
every objective that its four outputs equal those of the same call with
its OT kernel replaced by that reference; the script exits with an error
if any differ.  To compare two versions of the library, run each
checkout's own copy of this script with that checkout's ``src`` on
``PYTHONPATH``: the reference follows the library's arithmetic.

Run it with ``OPENBLAS_NUM_THREADS=1``, as perfbench runs the CLI: a BLAS
thread left spinning after a product competes with the worker thread for
the second core.

Runtime: about 30 s on 2 cores at the default R.  The script is not part of
the test suite.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from dpswgrad import cli, dp_gradient  # noqa: E402
from dpswgrad.data import (GenerationConfig, generate_biased,  # noqa: E402
                           load_dataset, save_dataset)
from dpswgrad.dp_gradient import (ClipConfig, clip_rows,  # noqa: E402
                                  penalized_objective)
from dpswgrad import ot_core  # noqa: E402
from dpswgrad.models import make_model  # noqa: E402
from dpswgrad.ot_core import w2_grad_columns  # noqa: E402
from dpswgrad.privacy import PrivacyBudget, calibrate_noise  # noqa: E402
from dpswgrad.sliced import sample_directions  # noqa: E402
from oracles import (bit_equal, coupling_matrices,  # noqa: E402
                     matches_csv_rows, w2_grad_columns_stable,
                     write_outputs_by_group)

# (label, n, m, k, values, C-ordered, grad_v): gen_circle sorts
# 2000 x 2000 per side, reg_sp_paper its two classes, cls_eo_paper a class
# split like 1427 x 1573 and the sliced audit 100 x 100; see _ot_inputs for
# the values
OT_CASES = (
    ("gen_circle", 2000, 2000, 50, "normal", False, True),
    ("gen_circle one-sided", 2000, 2000, 50, "normal", False, False),
    ("reg_sp", 2986, 3014, 50, "normal", False, True),
    ("reg_sp C-ordered", 2986, 3014, 50, "normal", True, True),
    ("class_split", 1427, 1573, 50, "normal", False, True),
    ("audit", 100, 100, 20, "normal", False, True),
    ("eo", 2094, 921, 1, "normal", False, True),
    ("eo", 891, 2093, 1, "normal", False, True),
    ("all_tied", 2000, 2000, 50, "tied", False, True),
    ("near_tied", 2000, 2000, 50, "near_tied", False, True),
    ("saturated", 2000, 2000, 50, "saturated", False, True),
    ("near_tied_signed", 2000, 2000, 50, "near_tied_signed", False, True),
    ("far", 5, 1000, 2, "normal", False, True),
    ("far", 1, 100000, 1, "normal", False, True),
)


# (label, n, m, k, grad_v) of the serial/concurrent lines: the reg_sp_paper
# and gen_circle blocks, then 2^13 to 2^16 values per side
CONCURRENT_CASES = (
    ("reg_sp", 2986, 3014, 50, True),
    ("gen_circle one-sided", 2000, 2000, 50, False),
) + tuple((f"2^{b} per side", 2048, 2048, 2 ** (b - 11), True)
          for b in range(13, 17))


def _ot_rows(rng, size: int, k: int, values: str, shift: float):
    """A (k, size) block of ``values``: "normal" draws, their "tied"
    rounding to multiples of 1/4 in [-1, 1], "near_tied" distinct values
    1 to 3 ulps apart from ``1 + shift`` in random order per row,
    "near_tied_signed" those with random signs, or "saturated"
    projections of 2-d ``sigmoid_recentered`` outputs at pre-activations
    in [25, 40] onto k unit directions."""
    if values.startswith("near_tied"):
        start = np.float64(1.0 + shift).view(np.int64)
        bits = start + np.cumsum(rng.integers(1, 4, (k, size)), axis=1)
        block = rng.permuted(bits.view(np.float64), axis=1)
        if values == "near_tied_signed":
            block *= rng.choice([-1.0, 1.0], size=(k, size))
        return block
    if values == "saturated":
        z = rng.uniform(25.0, 40.0, size=(size, 2))
        return sample_directions(2, k, 0) @ (1.0 / (1.0 + np.exp(-z))
                                             - 0.5).T
    block = rng.normal(size=(k, size)) + shift
    if values == "tied":
        block = np.clip(np.round(4.0 * block) / 4.0, -1.0, 1.0)
    return block


def _ot_inputs(n: int, m: int, k: int, values: str, c_ordered: bool,
               seed: int = 0):
    """(n, k) and (m, k) blocks: views of C-contiguous (k, n) and (k, m)
    ones, or C-ordered copies of those."""
    rng = np.random.default_rng(seed)
    u = _ot_rows(rng, n, k, values, 0.0)
    v = _ot_rows(rng, m, k, values, 0.3)
    if c_ordered:
        return np.ascontiguousarray(u.T), np.ascontiguousarray(v.T)
    return u.T, v.T


def _csr_kernel(u, v, grad_v: bool = True):
    """``w2_grad_columns`` with each side's sums taken by one CSR product
    of its weighting matrix with the (E, k) displacements, scaled in
    place, and the (n, k) products transposed to the (k, n) layout and
    scattered to the samples' flat input positions."""
    u, v = ot_core._as_row_pair(u, v)
    flat_u, us = ot_core._stable_sort_rows(u)
    flat_v, vs = (ot_core._stable_sort_rows(v) if grad_v
                  else (None, np.sort(v, axis=1)))
    c = ot_core.quantile_coupling(u.shape[1], v.shape[1])
    values, disp = ot_core._coupled_w2_rows(us, vs, c)
    by_row, by_col = _matrices(u.shape[1], v.shape[1])
    grads = []
    for mat, flat, scale in ((by_row, flat_u, 2.0), (by_col, flat_v, -2.0)
                             )[:2 if grad_v else 1]:
        g = mat @ disp.T
        g *= scale
        out = np.empty(flat.size)
        out[flat] = np.ascontiguousarray(g.T)
        grads.append(out.reshape(flat.shape).T)
    return grads[0], grads[1] if grad_v else None, values


@lru_cache(maxsize=None)
def _matrices(n: int, m: int) -> tuple:
    """The CSR matrices of the (n, m) coupling, built once, as the
    coupling cache holds the coupling."""
    return coupling_matrices(ot_core.quantile_coupling(n, m))


def _objective_reg_sp(sizes=(2986, 3014), seed: int = 0):
    """One ``penalized_objective`` call at the ``reg_sp_paper`` batch, as a
    function of no arguments."""
    rng = np.random.default_rng(seed)
    model = make_model("mlp2", 16, seed=seed, hidden_dim=64, output_dim=2)
    x = rng.normal(size=(sum(sizes), 16))
    erm = 0.3 * rng.normal(size=(x.shape[0], 2))
    pair = (slice(0, sizes[0]), slice(sizes[0], x.shape[0]))
    clip = ClipConfig.symmetric(0.7071, 1.4142, 10.0)
    dirs = sample_directions(2, 50, seed)
    return lambda: penalized_objective(model, x, [pair], 0.75, clip, dirs,
                                       erm)


def _objective_ae(sizes=(2986, 3014), seed: int = 0):
    """One ``penalized_objective`` call at an ``autoencoder_sp`` batch: the
    reconstruction error of all rows and the penalty on the codes of two
    blocks of them."""
    rng = np.random.default_rng(seed)
    model = make_model("autoencoder", 16, seed=seed, hidden_dim=62,
                       latent_dim=2)
    x = rng.normal(size=(sum(sizes), 16))
    pair = (slice(0, sizes[0]), slice(sizes[0], x.shape[0]))
    clip = ClipConfig.symmetric(1.0, 1.0, 5.0)
    dirs = sample_directions(2, 50, seed)
    return lambda: penalized_objective(model, x, [pair], 0.75, clip, dirs,
                                       x)


def _objective_eo(sizes=(2094, 906, 891, 2109), seed: int = 0):
    """One ``penalized_objective`` call at the ``cls_eo_paper`` batch: the
    class blocks (a, y) = (0, 0), (0, 1), (1, 0), (1, 1) of the ERM batch,
    paired within each label."""
    rng = np.random.default_rng(seed)
    model = make_model("affine_sigmoid", 16, seed=seed)
    x = rng.normal(size=(sum(sizes), 16))
    erm = rng.integers(0, 2, x.shape[0]).astype(np.float64)
    ends = np.cumsum(sizes).tolist()
    blocks = [slice(end - size, end) for size, end in zip(sizes, ends)]
    pairs = [(blocks[0], blocks[2]), (blocks[1], blocks[3])]
    clip = ClipConfig.symmetric(1.0, 1.0, 5.0)
    return lambda: penalized_objective(model, x, pairs, 0.75, clip, None,
                                       erm)


def _objective_audit(n: int = 100, seed: int = 0):
    """One gradient of the ``audit_sliced`` workload: the Wasserstein
    gradient alone of two blocks of ``n`` rows of one batch, which the
    audit stacks anew for every gradient."""
    rng = np.random.default_rng(seed)
    model = make_model("mlp2", 3, seed=seed, hidden_dim=4, output_dim=2)
    model.theta *= 6.0
    x, z = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    pairs = [(slice(0, n), slice(n, 2 * n))]
    clip = ClipConfig(1.0, 1.0, 1.0, 5.0)
    dirs = sample_directions(2, 20, seed + 1)
    return lambda: penalized_objective(model, np.concatenate([x, z]), pairs,
                                       1.0, clip, dirs)


def _objective_gen(n: int = 2000, seed: int = 0):
    """One ``gen_circle`` step: the Wasserstein gradient alone of the
    model's ``n`` outputs against an array of ``n`` references on a
    circle."""
    rng = np.random.default_rng(seed)
    model = make_model("mlp2", 2, seed=seed, hidden_dim=32, output_dim=2,
                       output_activation="linear")
    x = rng.normal(size=(n, 2))
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    z = 0.75 * np.column_stack([np.cos(angles), np.sin(angles)])
    pairs = [(slice(0, n), z)]
    clip = ClipConfig.symmetric(1.0, 1.0)
    dirs = sample_directions(2, 50, seed)
    return lambda: penalized_objective(model, x, pairs, 1.0, clip, dirs)


def _at_threshold(values: int, fn):
    """``fn`` run with the kernel's size threshold for sorting the two
    sides concurrently set to ``values``."""
    def call():
        saved = ot_core._CONCURRENT_VALUES
        ot_core._CONCURRENT_VALUES = values
        try:
            return fn()
        finally:
            ot_core._CONCURRENT_VALUES = saved
    return call


def _matches_oracle_kernel(step) -> bool:
    """Whether ``step()`` gives the same bits as with the objective's OT
    kernel replaced by the stable-sort reference, whose gradients are laid
    out as the kernel's are ((n, k) views of (k, n) arrays), so that the
    products that read them take the same path."""
    got = step()
    kernel = dp_gradient.w2_grad_columns
    dp_gradient.w2_grad_columns = lambda u, v, grad_v=True: tuple(
        np.asfortranarray(g) for g in w2_grad_columns_stable(u, v))
    try:
        want = step()
    finally:
        dp_gradient.w2_grad_columns = kernel
    return got[:3] == want[:3] and bit_equal(got[3], want[3])


def _timings_ms(fn, repeats: int) -> tuple[np.ndarray, float]:
    """Times of ``repeats`` calls after one untimed call, and the minor
    page faults per timed call."""
    fn()
    out = np.empty(repeats)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for r in range(repeats):
        start = time.perf_counter()
        fn()
        out[r] = (time.perf_counter() - start) * 1e3
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return out, faults / repeats


def _alternating_ms(fa, fb, repeats: int) -> tuple[tuple, tuple]:
    """:func:`_timings_ms` of ``fa`` and ``fb``, called in turn (``fb``
    first on odd rounds) so that both see the same load."""
    fa(), fb()
    times = {fa: np.empty(repeats), fb: np.empty(repeats)}
    faults = {fa: 0, fb: 0}
    for r in range(repeats):
        for fn in (fa, fb) if r % 2 == 0 else (fb, fa):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            fn()
            times[fn][r] = (time.perf_counter() - start) * 1e3
            faults[fn] += (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                           - before)
    return tuple((times[fn], faults[fn] / repeats) for fn in (fa, fb))


def _report(label: str, timings: tuple, note: str = "") -> None:
    ms, faults = timings
    q1, med, q3 = np.percentile(ms, [25, 50, 75])
    print(f"{label:<46} median {med:9.3f} ms   q1 {q1:9.3f}   q3 {q3:9.3f}"
          f"   faults/call {faults:7.1f}   n={ms.size}{note}")


def _single_pass(label: str, fn, repeats: int, note: str = "") -> None:
    """:func:`_report` of ``fn`` timed alone, marked as such."""
    _report(label, _timings_ms(fn, repeats), "   single pass" + note)


def run(repeats: int) -> int:
    failed = []
    for label, n, m, k, values, c_ordered, grad_v in OT_CASES:
        u, v = _ot_inputs(n, m, k, values, c_ordered)
        want = list(w2_grad_columns_stable(u, v))
        if not grad_v:
            want[1] = None
        got = w2_grad_columns(u, v, grad_v)
        same = all(g is w or bit_equal(g, w) for g, w in zip(got, want))
        same_csr = all(g is w or bit_equal(g, w) for g, w in
                       zip(_csr_kernel(u, v, grad_v), got))
        if not (same and same_csr):
            failed.append(label)
        kernel, csr = _alternating_ms(
            lambda: w2_grad_columns(u, v, grad_v),
            lambda: _csr_kernel(u, v, grad_v), repeats)
        _report(f"w2_grad_columns {label} {n}x{m}x{k}", kernel,
                "   oracle: " + ("identical" if same else "DIFFERENT"))
        _report("  csr product", csr,
                "   kernel: " + ("identical" if same_csr else "DIFFERENT"))

    print(f"# {len(os.sched_getaffinity(0))} CPUs in this process's "
          f"affinity mask; ot_core._CONCURRENT_VALUES = "
          f"{ot_core._CONCURRENT_VALUES}")
    for label, n, m, k, grad_v in CONCURRENT_CASES:
        u, v = _ot_inputs(n, m, k, "normal", False)
        concurrent = _at_threshold(1, lambda: w2_grad_columns(u, v, grad_v))
        serial = _at_threshold(sys.maxsize,
                               lambda: w2_grad_columns(u, v, grad_v))
        same = all(a is b or bit_equal(a, b)
                   for a, b in zip(concurrent(), serial()))
        if not same:
            failed.append(f"{label} concurrent")
        both, alone = _alternating_ms(concurrent, serial, repeats)
        _report(f"w2_grad_columns {label} {n}x{m}x{k} concurrent", both)
        _report("  serial", alone,
                "   concurrent: " + ("identical" if same else "DIFFERENT"))

    for label, step in (("reg_sp 2986+3014", _objective_reg_sp()),
                        ("ae 2986+3014", _objective_ae()),
                        ("eo 2094+891, 906+2109", _objective_eo()),
                        ("audit 100+100", _objective_audit()),
                        ("gen 2000+2000", _objective_gen())):
        same = _matches_oracle_kernel(step)
        if not same:
            failed.append(label)
        _single_pass(f"penalized_objective {label}", step, repeats,
                     "   oracle: " + ("identical" if same else "DIFFERENT"))

    rng = np.random.default_rng(1)
    for n, d in ((2000, 2), (3000, 16)):
        mat = rng.normal(size=(n, d)) * 2.0
        _single_pass(f"clip_rows {n}x{d}", lambda: clip_rows(mat, 1.0),
                     repeats)

    budget = PrivacyBudget(1.0, 1e-5)
    _single_pass("calibrate_noise eps=1 T=500 p=0.2",
                 lambda: calibrate_noise(budget, 500, 0.2, 1.0), repeats)

    with tempfile.TemporaryDirectory() as tmp:
        csv_path, sidecar = Path(tmp) / "data.csv", Path(tmp) / "data.json"
        save_dataset(generate_biased(GenerationConfig(n=30000, bias=0.7)),
                     csv_path, sidecar)
        same = matches_csv_rows(load_dataset(csv_path, sidecar), csv_path)
        if not same:
            failed.append("load_dataset")
        _single_pass("load_dataset 30000x20",
                     lambda: load_dataset(csv_path, sidecar), repeats,
                     "   reference parse: "
                     + ("identical" if same else "DIFFERENT"))

        for k, groups in ((1, [f"a={a},y={y}" for a in (0, 1)
                               for y in (0, 1)]),
                          (2, ["a=0", "a=1"])):
            keys = rng.integers(0, len(groups), 30000)
            values = rng.uniform(-0.5, 0.5, size=(30000, k))
            # the CLI takes each group's name as a CSV field
            names = [f'"{g}"' if "," in g else g for g in groups]
            labels = [groups[key] for key in keys]
            ours = Path(tmp) / "outputs_by_group.csv"
            want = Path(tmp) / "oracle.csv"
            writer, oracle = _alternating_ms(
                lambda: cli._write_outputs_by_group(Path(tmp), names, keys,
                                                    values),
                lambda: write_outputs_by_group(want, labels, values),
                repeats)
            same = ours.read_bytes() == want.read_bytes()
            if not same:
                failed.append(f"outputs_by_group 30000x{k}")
            _report(f"outputs_by_group 30000x{k}", writer,
                    "   oracle: " + ("identical" if same else "DIFFERENT"))
            _report("  csv.writer rows", oracle)
    if failed:
        print("error: outputs differ from the reference: "
              + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    sys.exit(run(args.repeats))
