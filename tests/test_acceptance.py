"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances, trial counts, and runtime limits are pinned here and are
not calibrated anywhere else.
"""

import csv
import json
import math
import time

import mpmath
import numpy as np
import pytest

from dpswgrad.cli import main as cli_main
from dpswgrad.data import GenerationConfig, generate_biased
from dpswgrad.dp_gradient import ClipConfig, penalized_objective
from dpswgrad.fairness_train import TrainConfig, dpsgd_train
from dpswgrad.models import make_model
from dpswgrad.ot_core import (quantile_coupling, w2_grad_columns,
                              w2_squared_columns)
from dpswgrad.privacy import (AccountantState, PrivacyBudget,
                              calibrate_noise, conservative_epsilon,
                              gdp_delta, subsample_amplify)
from dpswgrad.sensitivity import (empirical_sensitivity, sensitivity_bound,
                                  uniform_box_replacement,
                                  w2_counterexample_contrast,
                                  wp_counterexample)
from dpswgrad.sliced import sample_directions

from oracles import central_diff, distinct_values, rel_err, \
    stacked_pairs, w2_squared_quantile_oracle


class _Gate:
    """Times a criterion and prints its one-line verdict."""

    def __init__(self, label, runtime_limit=None):
        self.label = label
        self.limit = runtime_limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.label}: {verdict} ({elapsed:.2f} s)")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, \
                f"{self.label} exceeded its {self.limit} s runtime limit"
        return False


def test_c1_closed_form_correctness():
    with _Gate("C1 closed-form-correctness", runtime_limit=5.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n, m = rng.integers(1, 51, size=2)
            u = rng.uniform(-10, 10, size=n)
            v = rng.uniform(-10, 10, size=m)
            got = w2_squared_columns(u, v)[0]
            want = w2_squared_quantile_oracle(u, v)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)
        # equal sizes: the coupling degenerates to the sorted pairing
        for _ in range(200):
            n = int(rng.integers(1, 51))
            u = rng.uniform(-10, 10, size=n)
            v = rng.uniform(-10, 10, size=n)
            sorted_formula = float(np.mean((np.sort(u) - np.sort(v)) ** 2))
            assert w2_squared_columns(u, v)[0] == pytest.approx(
                sorted_formula, rel=1e-12, abs=1e-15)


def test_c2_gradient_correctness():
    with _Gate("C2 gradient-correctness", runtime_limit=30.0):
        rng = np.random.default_rng(202)
        no_clip = ClipConfig(1e9, 1e9, 1e9, 1e9)

        # 100 instances: raw value-space gradients
        for _ in range(100):
            n, m = rng.integers(2, 20, size=2)
            u = distinct_values(rng, int(n), -5, 5)
            v = distinct_values(rng, int(m), -5, 5)
            gu, gv, _ = w2_grad_columns(u, v)
            assert rel_err(gu[:, 0], central_diff(
                lambda uu: w2_squared_columns(uu, v)[0], u)) < 1e-5
            assert rel_err(gv[:, 0], central_diff(
                lambda vv: w2_squared_columns(u, vv)[0], v)) < 1e-5

        def theta_fd(model, objective):
            base = model.theta.copy()

            def fn(theta):
                model.theta[:] = theta
                val = objective()
                model.theta[:] = base
                return val

            return central_diff(fn, base)

        def gaps_ok(*columns):
            return all(w.size < 2 or np.min(np.diff(np.sort(w))) > 1e-4
                       for w in columns)

        # 50 instances through the one-layer classifier (1D outputs)
        done = 0
        while done < 50:
            model = make_model("affine_sigmoid", 3,
                               seed=int(rng.integers(1e9)))
            x = rng.normal(size=(int(rng.integers(3, 8)), 3))
            z = rng.normal(size=(int(rng.integers(3, 8)), 3))
            u = model.forward_batch(x)[:, 0]
            v = model.forward_batch(z)[:, 0]
            if not gaps_ok(u, v):
                continue
            batch, pairs = stacked_pairs([(x, z)])
            grad = penalized_objective(model, batch, pairs, 1.0, no_clip)[3]
            fd = theta_fd(model, lambda: w2_squared_columns(
                model.forward_batch(x), model.forward_batch(z))[0])
            assert rel_err(grad, fd) < 1e-5
            done += 1

        # 50 instances through the two-layer regressor (sliced, pinned dirs)
        done = 0
        while done < 50:
            model = make_model("mlp2", 3, hidden_dim=4, output_dim=2,
                               seed=int(rng.integers(1e9)))
            dirs = sample_directions(2, 5, seed=int(rng.integers(1e9)))
            x = rng.normal(size=(int(rng.integers(3, 7)), 3))
            z = rng.normal(size=(int(rng.integers(3, 7)), 3))
            pu = model.forward_batch(x) @ dirs.T
            pv = model.forward_batch(z) @ dirs.T
            if not gaps_ok(*(list(pu.T) + list(pv.T))):
                continue
            batch, pairs = stacked_pairs([(x, z)])
            grad = penalized_objective(model, batch, pairs, 1.0, no_clip,
                                       dirs)[3]
            fd = theta_fd(model, lambda: w2_squared_columns(
                model.forward_batch(x) @ dirs.T,
                model.forward_batch(z) @ dirs.T).mean())
            assert rel_err(grad, fd) < 1e-5
            done += 1


def test_c3_coupling_mass_conservation():
    with _Gate("C3 coupling-mass-conservation"):
        for n in range(1, 201):
            for m in range(1, 201):
                c = quantile_coupling(n, m)
                rows = np.bincount(c.rows, weights=c.weights, minlength=n)
                cols = np.bincount(c.cols, weights=c.weights, minlength=m)
                assert np.max(np.abs(rows - 1.0 / n)) < 1e-12
                assert np.max(np.abs(cols - 1.0 / m)) < 1e-12


def _one_sided_audit(clip_bounds, n, sliced, trials, seed, k=20):
    out_b, j1, j2 = clip_bounds
    clip = ClipConfig(out_b, j1, j2, 0.0)
    rng = np.random.default_rng(seed)
    if sliced:
        model = make_model("mlp2", 3, hidden_dim=4, output_dim=2, seed=seed)
        dirs = sample_directions(2, k, seed=seed + 1)
    else:
        model = make_model("affine_sigmoid", 3, seed=seed)
        dirs = None
    model.theta *= 6.0  # force activations/Jacobians into the clipping range
    z = rng.normal(size=(n, 3))
    x = rng.normal(size=(n, 3))

    def grad_fn(classes):
        batch, pairs = stacked_pairs([(classes[0], z)])
        return penalized_objective(model, batch, pairs, 1.0, clip, dirs)[3]

    return empirical_sensitivity(
        grad_fn, [x], uniform_box_replacement([-3.0] * 3, [3.0] * 3),
        trials=trials, seed=seed + 2,
        theoretical_bound=sensitivity_bound([(n, None)], 1.0, clip))


def test_c4_sensitivity_obedience():
    with _Gate("C4 sensitivity-obedience", runtime_limit=300.0):
        clip_grid = [(1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)]
        # one-sided, 1D and MC-sliced (d=2, k=20)
        for sliced in (False, True):
            for bounds in clip_grid:
                for n in (20, 100):
                    rep = _one_sided_audit(bounds, n, sliced, trials=1000,
                                           seed=hash((bounds, n, sliced))
                                           % 10000)
                    assert rep.empirical_max <= rep.theoretical_bound, \
                        (bounds, n, sliced)

        # a single fixed direction: the bound holds per direction too
        rep = _one_sided_audit((1.0, 1.0, 1.0), 50, True, trials=500,
                               seed=4242, k=1)
        assert rep.empirical_max <= rep.theoretical_bound

        # two-sided variants (1D and sliced)
        for sliced in (False, True):
            clip = ClipConfig(1.0, 1.0, 1.0, 0.0)
            seed = 777 + sliced
            rng = np.random.default_rng(seed)
            if sliced:
                model = make_model("mlp2", 3, hidden_dim=4, output_dim=2,
                                   seed=seed)
                dirs = sample_directions(2, 20, seed=seed)
            else:
                model = make_model("affine_sigmoid", 3, seed=seed)
                dirs = None
            model.theta *= 6.0
            x, z = rng.normal(size=(20, 3)), rng.normal(size=(30, 3))

            def grad_fn(classes):
                batch, pairs = stacked_pairs([(classes[0], classes[1])])
                return penalized_objective(model, batch, pairs, 1.0, clip,
                                           dirs)[3]

            rep = empirical_sensitivity(
                grad_fn, [x, z], uniform_box_replacement([-3.0] * 3,
                                                         [3.0] * 3),
                trials=1000, seed=seed + 1,
                theoretical_bound=sensitivity_bound([(20, 30)], 1.0, clip))
            assert rep.empirical_max <= rep.theoretical_bound

        # penalized objectives (statistical parity and equalized odds)
        clip = ClipConfig(1.0, 1.0, 1.0, 2.0)
        model = make_model("affine_sigmoid", 3, seed=11)
        model.theta *= 6.0
        rng = np.random.default_rng(12)
        n0, n1 = 20, 25
        sp_classes = [np.column_stack([rng.normal(size=(k, 3)),
                                       rng.integers(0, 2, k).astype(float)])
                      for k in (n0, n1)]

        def sp_fn(classes):
            c0, c1 = classes
            x_full = np.concatenate([c0[:, :3], c1[:, :3]])
            y_full = np.concatenate([c0[:, 3], c1[:, 3]])
            return penalized_objective(
                model, x_full, [(slice(0, n0), slice(n0, n0 + n1))],
                0.75, clip, erm=y_full)[3]

        def draw_labeled(rng_, class_index):
            return np.concatenate([rng_.uniform(-3, 3, size=3),
                                   [float(rng_.integers(0, 2))]])

        rep = empirical_sensitivity(
            sp_fn, sp_classes, draw_labeled, trials=1000, seed=13,
            theoretical_bound=sensitivity_bound([(n0, n1)], 0.75, clip,
                                                n0 + n1))
        assert rep.empirical_max <= rep.theoretical_bound

        sizes = {(0, 0): 12, (0, 1): 15, (1, 0): 10, (1, 1): 14}
        keys = sorted(sizes)
        eo_classes = [np.column_stack([rng.normal(size=(sizes[k], 3)),
                                       np.full(sizes[k], float(k[1]))])
                      for k in keys]

        # each class is its block of rows of the batch, in key order
        ends = np.cumsum([sizes[k] for k in keys]).tolist()
        blocks = {k: slice(end - sizes[k], end) for k, end in zip(keys, ends)}
        eo_pairs = [(blocks[(0, k)], blocks[(1, k)]) for k in (0, 1)]

        def eo_fn(classes):
            x_full = np.concatenate([c[:, :3] for c in classes])
            y_full = np.concatenate([c[:, 3] for c in classes])
            return penalized_objective(model, x_full, eo_pairs, 0.75, clip,
                                       erm=y_full)[3]

        def draw_eo(rng_, class_index):
            # label is pinned by the class, only the features vary
            return np.concatenate([rng_.uniform(-3, 3, size=3),
                                   [float(keys[class_index][1])]])

        rep = empirical_sensitivity(
            eo_fn, eo_classes, draw_eo, trials=1000, seed=14,
            theoretical_bound=sensitivity_bound(
                [(sizes[(0, k)], sizes[(1, k)]) for k in (0, 1)],
                0.75, clip, sum(sizes.values())))
        assert rep.empirical_max <= rep.theoretical_bound

        # decay: audited max sensitivity shrinks like 1/n.  The reference
        # sample is shifted so the two output distributions stay separated
        # independently of n (samples from a common law converge to each
        # other and exhibit a faster, n^-3/2-like decay); trials scale with
        # n to keep per-element probe coverage constant.
        def decay_audit(n):
            clip = ClipConfig(1.0, 1.0, 1.0, 0.0)
            rng = np.random.default_rng(999)
            model = make_model("affine_sigmoid", 3, seed=999)
            z = rng.normal(size=(n, 3)) + 1.5
            x = rng.normal(size=(n, 3))

            def grad_fn(classes):
                batch, pairs = stacked_pairs([(classes[0], z)])
                return penalized_objective(model, batch, pairs, 1.0,
                                           clip)[3]

            return empirical_sensitivity(
                grad_fn, [x], uniform_box_replacement([-3.0] * 3, [3.0] * 3),
                trials=15 * n, seed=1001,
                theoretical_bound=sensitivity_bound([(n, None)], 1.0, clip))

        sizes_grid = [20, 60, 180, 540]
        reports = [decay_audit(n) for n in sizes_grid]
        assert all(r.empirical_max <= r.theoretical_bound for r in reports)
        slope, _ = np.polyfit(np.log(sizes_grid),
                              np.log([r.empirical_max for r in reports]), 1)
        assert -1.2 <= slope <= -0.8, f"decay slope {slope}"


def test_c5_counterexample():
    with _Gate("C5 counterexample"):
        for n in (10, 100, 1000):
            for p_order in (1, 2):
                res = wp_counterexample(n, p_order)
                assert res.gap == 2.0
                assert (res.grad_x, res.grad_x_tilde) == (1.0, -1.0)
        gaps = [w2_counterexample_contrast(n) for n in (10, 100, 1000)]
        for n, gap in zip((10, 100, 1000), gaps):
            assert gap <= sensitivity_bound([(n, None)], 1.0,
                                            ClipConfig(1.0, 1.0, 0.0))
        slope, _ = np.polyfit(np.log([10, 100, 1000]), np.log(gaps), 1)
        assert -1.2 <= slope <= -0.8


def test_c6_privacy_math():
    with _Gate("C6 privacy-math"):
        # mechanism curve against a high-precision CDF oracle
        with mpmath.workdps(50):
            oracle = float(mpmath.ncdf(mpmath.mpf("0.5"))
                           - mpmath.ncdf(mpmath.mpf("-0.5")))
        assert abs(gdp_delta(1.0, 0.0) - 0.382925) < 1e-6
        assert abs(gdp_delta(1.0, 0.0) - oracle) < 1e-12

        # subsampling amplification
        b = PrivacyBudget(1.7, 1e-5)
        assert subsample_amplify(b, 1.0) == b
        rng = np.random.default_rng(606)
        for _ in range(1000):
            eps = float(rng.uniform(0.01, 10.0))
            p = float(rng.uniform(0.01, 1.0))
            assert subsample_amplify(PrivacyBudget(eps, 1e-5),
                                     p).epsilon <= eps + 1e-12

        # single full-batch step inverts the curve
        eps1 = AccountantState(1.3, 1.0, steps=1,
                               target_delta=1e-5).epsilon_spent()
        assert abs(gdp_delta(1.0 / 1.3, eps1) - 1e-5) < 1e-9

        # monotonicity + conservative ceiling on the 4-D grid
        nus, ps = (1.0, 2.0, 4.0), (0.05, 0.1, 0.2)
        ts, deltas = (50, 200, 1000), (1e-6, 1e-5, 1e-4)
        eps = {}
        for nu in nus:
            for p in ps:
                for t in ts:
                    for d in deltas:
                        eps[(nu, p, t, d)] = AccountantState(
                            nu, p, steps=t,
                            target_delta=d).epsilon_spent()
                        assert eps[(nu, p, t, d)] <= conservative_epsilon(
                            nu, p, t, d)
        for key, val in eps.items():
            nu, p, t, d = key
            if nu != nus[-1]:
                bigger_nu = eps[(nus[nus.index(nu) + 1], p, t, d)]
                assert val >= bigger_nu
            if p != ps[-1]:
                assert val <= eps[(nu, ps[ps.index(p) + 1], t, d)]
            if t != ts[-1]:
                assert val <= eps[(nu, p, ts[ts.index(t) + 1], d)]
            if d != deltas[-1]:
                assert val >= eps[(nu, p, t,
                                   deltas[deltas.index(d) + 1])]


def test_c7_calibration_round_trip():
    with _Gate("C7 calibration-round-trip"):
        rng = np.random.default_rng(707)
        for _ in range(50):
            eps = float(rng.uniform(0.1, 8.0))
            delta = float(10 ** rng.uniform(-7, -3))
            steps = int(rng.integers(1, 1000))
            p = float(rng.uniform(0.02, 1.0))
            sens = float(10 ** rng.uniform(-4, 1))
            sigma = calibrate_noise(PrivacyBudget(eps, delta), steps, p, sens)
            achieved = AccountantState(
                sigma / sens, p, steps=steps,
                target_delta=delta).epsilon_spent()
            assert achieved == pytest.approx(eps, rel=1e-4)


def test_c8_norm_bound():
    with _Gate("C8 norm-bound"):
        rng = np.random.default_rng(808)
        dirs = sample_directions(2, 3, seed=1)
        for trial in range(10_000):
            sliced = trial % 2 == 1
            out_b = float(rng.uniform(0.05, 2.0))
            j1 = float(rng.uniform(0.0, 2.0))
            j2 = float(rng.uniform(0.0, 2.0))
            clip = ClipConfig(out_b, j1, j2, 0.0)
            if sliced:
                model = make_model("mlp2", 2, hidden_dim=3, output_dim=2,
                                   seed=trial)
            else:
                model = make_model("affine_sigmoid", 2, seed=trial)
            model.theta *= float(rng.uniform(1.0, 25.0))
            x = rng.normal(size=(int(rng.integers(1, 7)), 2)) * 3.0
            z = rng.normal(size=(int(rng.integers(1, 7)), 2)) * 3.0
            batch, pairs = stacked_pairs([(x, z)])
            grad = penalized_objective(model, batch, pairs, 1.0, clip,
                                       dirs if sliced else None)[3]
            assert np.linalg.norm(grad) <= 4.0 * out_b * (j1 + j2) + 1e-10


def test_c9_desk_scale_fairness_trend():
    with _Gate("C9 fairness-trend", runtime_limit=600.0):
        ds = generate_biased(GenerationConfig(
            n=3000, bias=0.7, core_dim=8, sp_dim=8, core_var=0.2, sp_var=0.4,
            seed=3141))
        ds_test = generate_biased(GenerationConfig(
            n=3000, bias=0.7, core_dim=8, sp_dim=8, core_var=0.2, sp_var=0.4,
            seed=2718))
        clip = ClipConfig.symmetric(1.0, 1.0, 5.0)
        delta = 0.1 / 3000
        seeds = range(5)

        def run(alpha, epsilon):
            dis, final_losses = [], []
            for seed in seeds:
                cfg = TrainConfig(task="classification_sp", steps=200,
                                  learning_rate=0.05, epsilon=epsilon,
                                  delta=delta, alpha=alpha, clip=clip,
                                  batch_fraction=0.2, seed=seed)
                rec = dpsgd_train(cfg, ds, ds_test)
                dis.append(rec.metrics["di"])
                final_losses.append(rec.total_losses[-1])
            return float(np.median(dis)), float(np.median(final_losses))

        for epsilon in (math.inf, 1.0):
            di_base, _ = run(alpha=0.0, epsilon=epsilon)
            di_pen, _ = run(alpha=0.75, epsilon=epsilon)
            assert abs(di_pen - 1.0) < abs(di_base - 1.0), \
                f"epsilon={epsilon}: DI {di_base} -> {di_pen}"

        _, loss_np = run(alpha=0.75, epsilon=math.inf)
        _, loss_p = run(alpha=0.75, epsilon=1.0)
        assert abs(loss_p - loss_np) <= 0.25 * abs(loss_np), \
            f"private loss {loss_p} vs non-private {loss_np}"


def test_c10_replay_determinism(tmp_path):
    with _Gate("C10 replay-determinism"):
        gen = tmp_path / "gen"
        assert cli_main(["generate", "--n", "400", "--seed", "21",
                         "--out", str(gen)]) == 0
        train = tmp_path / "train"
        assert cli_main(["train", "--task", "classification_sp",
                         "--data", str(gen / "data.csv"), "--steps", "8",
                         "--alpha", "0.75", "--epsilon", "1", "--seed", "2",
                         "--out", str(train)]) == 0
        audit = tmp_path / "audit"
        assert cli_main(["sensitivity-audit", "--setting", "sliced",
                         "--n", "25", "--trials", "50",
                         "--out", str(audit)]) == 0
        for src in (gen, train, audit):
            replayed = tmp_path / (src.name + "_replay")
            assert cli_main(["replay", str(src / "manifest.json"),
                             "--out", str(replayed)]) == 0
            for path in sorted(src.iterdir()):
                assert path.read_bytes() == \
                    (replayed / path.name).read_bytes(), path.name
