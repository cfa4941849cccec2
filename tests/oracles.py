"""Independent reference computations used as test oracles.

Everything here deliberately avoids the library's own code paths: the
quantile-integral oracle runs on exact rational breakpoints, and the
finite-difference helpers only call whatever scalar function they are
handed.  ``clip_vector`` is the one-vector reference for row clipping.
``w2_grad_columns_stable`` is the exception: it shares the library's
quantile coupling and orders the samples by two stable argsorts, and sums
the weighted displacements by SciPy CSR products of weighting matrices it
builds from the coupling's entries (:func:`coupling_matrices`), so the OT
gradient kernel's segment sums must equal it bit for bit.
``w2_grad_exact`` checks that arithmetic itself: the closed form in exact
rationals.

The dense per-sample path is the reference for the library's ghost-norm
clipping: :func:`dense_backward` builds the (n, k, n_params) per-sample
gradients of a model trace layer by layer, and the Jacobian and
squared-error gradient helpers are its one-hot and ``2 (out - y)`` cases;
the bce gradient is the affine sigmoid model's closed form, and the
penalty's Jacobians are those of a standalone model of the layers it
reads.  The finite-difference tests check them; they in turn check the
row norms and per-layer sums of :class:`dpswgrad.models.LayerGrads`, the
penalty's factored Jacobian rows included.
The single-sample model helpers only slice these batch functions, so
per-sample checks read like the math.  :func:`stacked_pairs` writes
penalty pairs of input arrays in the objective's one-batch form.

SciPy's ``brentq`` is the reference for the accountant's in-module Brent
root finder, which must return its bits, and ``scipy.special``'s ``erf``
and ``log_ndtr`` the reference for its special functions; this is the only
module that imports SciPy, which the library does not use.
:func:`matches_csv_rows` checks the dataset loader against the reference
parse: ``csv.reader`` rows converted by ``np.asarray``, and
:func:`write_csv_rows` the CLI's table writer against ``csv.writer``
writing one row at a time (:func:`write_outputs_by_group` the
``outputs_by_group.csv`` of per-row group labels).
"""

import csv
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import brentq  # noqa: F401  (re-exported oracle)
from scipy.special import erf, log_ndtr  # noqa: F401  (re-exported oracles)

from dpswgrad.dp_gradient import clip_rows
from dpswgrad.models import make_model
from dpswgrad.ot_core import quantile_coupling


def w2_squared_quantile_oracle(u, v) -> float:
    """Integrate (F_u^-1 - F_v^-1)^2 over the merged rational breakpoints."""
    us = sorted(float(x) for x in u)
    vs = sorted(float(x) for x in v)
    n, m = len(us), len(vs)
    cuts = sorted({Fraction(i, n) for i in range(n + 1)}
                  | {Fraction(j, m) for j in range(m + 1)})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = (lo + hi) / 2
        qu = us[min(int(mid * n), n - 1)]
        qv = vs[min(int(mid * m), m - 1)]
        total += float(hi - lo) * (qu - qv) ** 2
    return total


def coupling_matrices(c):
    """The (n, E) and (m, E) CSR matrices that put the weight of entry
    ``e`` of the coupling ``c`` at (rows[e], e) and (cols[e], e), so that
    ``by_row @ a`` sums ``weights[e] * a[e]`` over the entries of each row
    of R, in entry order from 0, and ``by_col @ a`` over those of each
    column."""
    entries = np.arange(c.weights.size)
    return tuple(
        sparse.csr_array((c.weights, entries, np.searchsorted(
            segments, np.arange(segments[-1] + 2))),
            shape=(segments[-1] + 1, c.weights.size))
        for segments in (c.rows, c.cols))


def w2_grad_columns_stable(u, v):
    """Reference for :func:`dpswgrad.ot_core.w2_grad_columns`.

    Takes two ``kind="stable"`` argsorts and no tie test, and sums each
    side's weighted displacements by one CSR product: the library's
    arithmetic in the library's order, so the library must match it bit
    for bit.  Returns ``(grad_u, grad_v, values)``.
    """
    u = np.asarray(u, dtype=np.float64).reshape(len(u), -1)
    v = np.asarray(v, dtype=np.float64).reshape(len(v), -1)
    order_u = np.argsort(u, axis=0, kind="stable")
    order_v = np.argsort(v, axis=0, kind="stable")
    us = np.take_along_axis(u, order_u, axis=0)
    vs = np.take_along_axis(v, order_v, axis=0)
    c = quantile_coupling(u.shape[0], v.shape[0])
    disp = us[c.rows, :] - vs[c.cols, :]
    values = c.weights @ (disp * disp)
    by_row, by_col = coupling_matrices(c)
    gu_sorted = by_row @ disp
    gu_sorted *= 2.0
    gv_sorted = by_col @ disp
    gv_sorted *= -2.0
    grad_u = np.empty_like(gu_sorted)
    grad_v = np.empty_like(gv_sorted)
    np.put_along_axis(grad_u, order_u, gu_sorted, axis=0)
    np.put_along_axis(grad_v, order_v, gv_sorted, axis=0)
    return grad_u, grad_v, values


def w2_grad_exact(u, v):
    """Exact closed-form W2^2 and gradient of two 1-D samples of distinct
    values, in rationals.

    Every float is a rational, so the sorted samples and the coupling
    weights R[i, j] (lengths of the overlaps of the quantile cells) are
    taken exactly as :class:`fractions.Fraction`, and
    ``grad_u[i] = 2 sum_j R[rank_u(i), rank_v(j)] (u_i - v_j)`` and its
    mirror for ``v`` are summed without rounding.  Returns ``(grad_u,
    grad_v, value)`` rounded once to float64.
    """
    u = [Fraction(float(x)) for x in u]
    v = [Fraction(float(x)) for x in v]
    n, m = len(u), len(v)
    rank_u = sorted(range(n), key=u.__getitem__)
    rank_v = sorted(range(m), key=v.__getitem__)
    gu, gv = [Fraction(0)] * n, [Fraction(0)] * m
    value = Fraction(0)
    for a, i in enumerate(rank_u):
        for b, j in enumerate(rank_v):
            weight = (min(Fraction(a + 1, n), Fraction(b + 1, m))
                      - max(Fraction(a, n), Fraction(b, m)))
            if weight > 0:
                d = u[i] - v[j]
                gu[i] += 2 * weight * d
                gv[j] -= 2 * weight * d
                value += weight * d * d
    return (np.array([float(g) for g in gu]),
            np.array([float(g) for g in gv]), float(value))


def matches_csv_rows(ds, path) -> bool:
    """Whether the dataset's arrays hold the bits of the CSV body at
    ``path``, parsed row by row with ``csv.reader`` and converted in one
    ``np.asarray(rows, float64)``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = np.asarray(list(reader), dtype=np.float64)
    d = ds.dim
    return (bit_equal(ds.x, rows[:, :d]) and bit_equal(ds.yc, rows[:, d + 2:])
            and bit_equal(ds.a, rows[:, d].astype(np.int64))
            and bit_equal(ds.y, rows[:, d + 1].astype(np.int64)))


def write_csv_rows(path, header, rows) -> None:
    """A CSV table written row by row with ``csv.writer``: each row's str
    fields as they are and its floats with 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else f"{v:.17g}"
                             for v in row])


def write_outputs_by_group(path, labels, values) -> None:
    """``outputs_by_group.csv``: one row per row of ``values`` (r, k), led
    by its group label ``labels[i]``."""
    write_csv_rows(path, ["group"] + [f"v{i + 1}"
                                      for i in range(values.shape[1])],
                   ([label, *row] for label, row in zip(labels,
                                                        values.tolist())))


def bit_equal(a, b) -> bool:
    """Equal shapes, dtypes and bits, so a -0.0 never passes for a 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def clip_vector(v, bound: float) -> np.ndarray:
    """Project ``v`` onto the L2 ball of radius ``bound``.

    Vectors inside the ball (and the zero vector) are returned unchanged;
    for scalars this is clamping to [-bound, bound].
    """
    arr = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(arr))
    if norm <= bound or norm == 0.0:
        return arr.copy()
    return arr * (bound / norm)


def forward(model, x) -> np.ndarray:
    """Evaluate a model on a single input, returning a (d_out,) vector."""
    return model.forward_batch(np.asarray(x, dtype=np.float64)[None, :])[0]


def dense_backward(trace, cot) -> np.ndarray:
    """Per-sample gradients of ``<cot, traced output>`` wrt theta.

    ``cot`` holds k cotangents per sample, shape (n, k, d), or (1, k, d)
    for the same k at every sample; the result is (n, k, n_params), zero on
    the parameters of untraced layers.
    """
    model = trace.model
    # a forward pass of its own from the traced inputs: every layer's
    # input and sigmoid, independent of the trace's stored state
    acts, sigs = [trace.acts[0]], []
    for lo, mid, hi, shape, act in model._layers[:len(trace.acts) - 1]:
        z = acts[-1] @ model.theta[lo:mid].reshape(shape).T \
            + model.theta[mid:hi]
        with np.errstate(over="ignore"):
            sigs.append(None if act == "linear"
                        else 1.0 / (1.0 + np.exp(-z)))
        acts.append(z if sigs[-1] is None else
                    sigs[-1] - 0.5 if act == "sigmoid_recentered"
                    else sigs[-1])
    n, k = acts[0].shape[0], cot.shape[1]
    grads = np.zeros((n, k, model.n_params))
    g = cot
    for i in reversed(range(len(sigs))):
        lo, mid, hi, shape, _ = model._layers[i]
        if sigs[i] is not None:
            g = g * (sigs[i] * (1.0 - sigs[i]))[:, None, :]
        grads[:, :, lo:mid] = (g[:, :, :, None]
                               * acts[i][:, None, None, :]).reshape(n, k, -1)
        grads[:, :, mid:hi] = g
        if i:
            w = model.theta[lo:mid].reshape(shape)
            g = (g.reshape(-1, shape[0]) @ w).reshape(len(g), k, shape[1])
    return grads


def _one_hot_backward(trace) -> np.ndarray:
    return dense_backward(trace, np.eye(trace.output.shape[1])[None])


def jacobian_batch(model, x) -> np.ndarray:
    """(n, output_dim, n_params) Jacobians of the forward map wrt theta."""
    return _one_hot_backward(model.trace(x))


def penalty_model(model):
    """A standalone model of the layers the penalty reads, on the prefix
    of ``model.theta`` they use (a view of it), or ``model`` itself when
    the penalty reads every layer: the reference for the penalty output
    and Jacobian rows of a whole-stack trace.  The one kind whose penalty reads fewer, the
    autoencoder, reads its encoder: a sigmoid hidden layer under a linear
    one, an ``mlp2`` with a linear output."""
    depth = model.penalty_layers
    if depth is None:
        return model
    return make_model("mlp2", model.input_dim, hidden_dim=model._dims[1],
                      output_dim=model.penalty_dim, output_activation="linear",
                      theta=model.theta[:model._layers[depth - 1][2]])


def penalty_jacobian_batch(model, x) -> np.ndarray:
    """(n, penalty_dim, n_params) Jacobians of the penalized output: those
    of :func:`penalty_model`, zero on the parameters past its layers."""
    jac = _one_hot_backward(penalty_model(model).trace(x))
    return np.pad(jac, ((0, 0), (0, 0), (0, model.n_params - jac.shape[2])))


def stacked_pairs(pairs) -> tuple:
    """The batch and pairs of ``penalized_objective`` for penalty pairs
    ``(x, z)`` of the model's input arrays: the sides stacked in pair order
    into one batch, each replaced by its slice of it."""
    sides, out = [], []

    def rows(side):
        start = sum(len(s) for s in sides)
        sides.append(side)
        return slice(start, start + len(side))

    for x, z in pairs:
        out.append((rows(x), rows(z)))
    return np.concatenate(sides), out


def loss_grad_batch(model, x, targets) -> np.ndarray:
    """(n, n_params) per-sample loss gradients: the affine sigmoid model's
    closed form ``(q - y) [x, 1]`` of its bce loss, the dense backward of
    ``2 (out - y)`` of every other model's squared error."""
    if model.kind == "affine_sigmoid":
        xb = np.asarray(x, dtype=np.float64)
        q = model.forward_batch(xb)
        y = np.asarray(targets, dtype=np.float64).reshape(q.shape)
        return (q - y) * np.column_stack([xb, np.ones(len(xb))])
    tr = model.trace(x)
    y = np.asarray(targets, dtype=np.float64).reshape(tr.output.shape)
    return dense_backward(tr, 2.0 * (tr.output - y)[:, None, :])[:, 0, :]


def clip_jacobian_naive(jac: np.ndarray, bound: float) -> np.ndarray:
    """Row-wise Jacobian clipping: each of the d rows to bound/sqrt(d).

    Guarantees spectral norm <= ``bound`` without a matrix decomposition.
    Accepts a single (d, p) Jacobian or a batch (n, d, p); for d = 1 this is
    plain vector clipping.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    jac = np.asarray(jac, dtype=np.float64)
    d = jac.shape[-2]
    return clip_rows(jac, bound / np.sqrt(d))


def per_sample_jacobian(model, x) -> np.ndarray:
    """Exact (d_out, n_params) Jacobian of the forward map at one input."""
    return jacobian_batch(model, np.asarray(x, dtype=np.float64)[None, :])[0]


def per_sample_loss_grad(model, x, target) -> np.ndarray:
    """Exact gradient of one sample's loss wrt theta."""
    xb = np.asarray(x, dtype=np.float64)[None, :]
    tb = np.asarray(target, dtype=np.float64).reshape(1, -1)
    return loss_grad_batch(model, xb, tb)[0]


def central_diff(fn, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return grad


def central_diff_jacobian(fn, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of a vector function of a vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    cols = []
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def rel_err(approx, exact) -> float:
    """Max relative error, with entries tiny next to the largest one
    compared at one-thousandth of that largest scale (finite differences
    only resolve ~1e-10 absolute, so exact zeros would otherwise dominate)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    floor = max(1e-8, 1e-3 * float(np.max(np.abs(exact), initial=0.0)))
    scale = np.maximum(np.abs(exact), floor)
    return float(np.max(np.abs(approx - exact) / scale))


def spectral_norm_power_iteration(mat: np.ndarray, iters: int = 200,
                                  seed: int = 0) -> float:
    """Largest singular value via power iteration on mat^T mat."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = mat.T @ (mat @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(mat @ v))


def distinct_values(rng: np.random.Generator, size: int, low: float,
                    high: float, min_gap: float = 1e-3) -> np.ndarray:
    """Draw values whose pairwise gaps exceed ``min_gap`` (for FD tests)."""
    while True:
        vals = rng.uniform(low, high, size=size)
        if size == 1 or np.min(np.diff(np.sort(vals))) > min_gap:
            return vals
