"""Small parameterized maps with exact forward passes and ghost-norm backwards.

Every model is a stack of dense layers ``a -> act(a W^T + b)``, where
``act`` is ``sigmoid``, ``sigmoid_recentered`` (sigmoid minus 1/2) or
``linear``.  One table, ``_KINDS``, declares once each kind the
experiments use (a plain affine map, a one-layer sigmoid classifier, a
two-layer regressor, and a two-layer encoder/decoder pair with a 2D latent
space): its shape fields with their defaults, its layer list and the
layers its penalty reads.  :func:`make_model` builds them all.

One forward :class:`Trace` and one backward serve every kind.  The
backward pulls one (n, d) cotangent per sample back through the traced
layers and keeps only each layer's (n, out) pre-activation cotangent.  The
loss follows from the model: a model whose last layer is a sigmoid (the
scalar ``affine_sigmoid``) takes bce, whose gradient is the backward of
``q - y`` from that layer's pre-activation, and every other model squared
error, the backward of ``2 (out - y)``.  The penalty reads
at most two layers, so its Jacobian rows, the backward of one-hot
cotangents, take no backward at all: each row's cotangent factors
(:meth:`Trace.jacobian_rows`), ``c[i, j] e_j`` at the top, with ``c`` its
derivative, and ``c[i, j] W[j] * ds[i]`` one layer down, so that their
norms and sums are products of (n, d) and (n, out) arrays.
:meth:`Model.trace` is the one forward pass, always of the whole stack,
and the trace reads the penalty's output and Jacobian rows at the depth
its model gives, so a training step traces its batch once.  The forward
pass adds each bias in place and takes each hidden sigmoid, ``1 / (1 +
exp(-z))``, in its pre-activation's buffer.  A trace computes each sigmoid
layer's derivative ``s (1 - s)`` once, at the first backward or Jacobian
rows that need it; the backward multiplies it in place into the loss
cotangent and the fresh arrays its matmuls return.  The per-sample
gradients are never built.
:class:`LayerGrads` gives their row norms from the ghost-norm identity (a
dense layer's per-sample gradient ``g a^T`` has squared norm ``||g||^2
||a||^2``) and, for any weights, each layer's sum ``G`` of the weighted
row cotangents; :meth:`Trace.weighted_sum` turns the per-layer sums of
every term of an objective, added up, into one ``G^T a`` per layer.
Every derivative is exact, which the finite-difference tests rely on;
there is no autodiff framework.

Parameters live in a single flat float64 vector ``model.theta`` laid out
layer by layer (weights row-major, then bias).  ``forward_batch`` and the
:class:`Trace` methods return per-sample quantities stacked on the leading
axis.  ``forward_batch``, a pass kept only for its outputs, traces
blocks of ``_BLOCK_ROWS`` = B rows from row 0, so that it holds one
block's hidden layers at a time; the last block takes the remainder, so
every block has B to 2B - 1 rows and fewer than 2B rows are one trace.  A
short last block could take another BLAS kernel than the whole batch (a
2-row gemv tail, say) and round differently; with the remainder folded
in, the tests find the bits of one trace of the whole batch.  Each
model's ``meta()`` is the one record of the shape metadata that rebuilds
it from a flat theta; training records and checkpoints both store it.
"""

from __future__ import annotations

import json

import numpy as np

from .jsonio import write_json

__all__ = [
    "Model",
    "make_model",
    "model_from_meta",
    "save_model",
    "load_model",
]

_MODEL_SCHEMA = "dpswgrad-model-v1"


def _as_batch(x, input_dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != input_dim:
        raise ValueError(f"expected inputs of dimension {input_dim}, "
                         f"got shape {np.shape(x)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("inputs must be finite")
    return arr


def _as_targets(targets, n: int, d: int) -> np.ndarray:
    arr = np.asarray(targets, dtype=np.float64)
    if d == 1 and arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape != (n, d):
        raise ValueError(f"expected targets of shape ({n}, {d}), "
                         f"got {np.shape(targets)}")
    return arr


def _check_binary(targets, n: int) -> np.ndarray:
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if y.shape != (n,):
        raise ValueError(f"expected {n} scalar targets")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("bce targets must be 0 or 1")
    return y


class Model:
    """A model of one of the kinds in ``_KINDS``: a stack of dense layers
    with exact per-sample gradients.

    ``fields`` are the kind's shape fields, which give its layers and
    which ``meta()`` records; the fairness penalty reads the output of the
    kind's first ``penalty_layers`` layers (all of them when None).
    Without ``theta`` the layers are initialized from ``seed``.
    """

    def __init__(self, kind: str, input_dim: int, fields: dict, theta=None,
                 seed=None):
        _, layers, self.penalty_layers = _KINDS[kind]
        self.kind, self._fields = kind, fields
        self.input_dim = int(input_dim)
        layers = layers(self.input_dim, fields)
        self._dims = [self.input_dim] + [int(d) for d, _ in layers]
        if min(self._dims) < 1:
            raise ValueError("layer dimensions must be >= 1")
        self.output_dim = self._dims[-1]
        # per layer: weight start, bias start, bias end, weight shape,
        # activation
        self._layers = []
        off = 0
        for d_in, d_out, (_, act) in zip(self._dims, self._dims[1:], layers):
            mid = off + d_out * d_in
            self._layers.append((off, mid, mid + d_out, (d_out, d_in), act))
            off = mid + d_out
        if theta is None:
            theta = np.concatenate([
                _init_uniform(seed, layer[3], stream=i)
                for i, layer in enumerate(self._layers)])
        self.theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        if self.theta.size != off:
            raise ValueError(f"theta size must be {off}")

    @property
    def n_params(self) -> int:
        return self.theta.size

    @property
    def penalty_dim(self) -> int:
        """Dimension of the output the fairness penalty distributions live in."""
        return self._dims[self.penalty_layers or -1]

    def meta(self) -> dict:
        """Shape metadata sufficient to rebuild the model from a flat theta."""
        return {"kind": self.kind, "input_dim": self.input_dim,
                "output_dim": self.output_dim, **self._fields}

    # -- forward traces ----------------------------------------------------

    def trace(self, x) -> "Trace":
        """Forward pass of the whole stack, kept for its backward."""
        return self._trace(_as_batch(x, self.input_dim))

    def _trace(self, x: np.ndarray) -> "Trace":
        acts = [x]
        sigs = []
        last = len(self._layers) - 1
        for i, (lo, mid, hi, shape, act) in enumerate(self._layers):
            z = acts[-1] @ self.theta[lo:mid].reshape(shape).T
            z += self.theta[mid:hi]
            # a hidden pre-activation has no reader past its sigmoid, which
            # takes its buffer; the last one is kept as the logit
            s = None if act == "linear" else \
                _sigmoid(z, out=z if i < last else None)
            sigs.append(s)
            acts.append(z if s is None else
                        s - 0.5 if act == "sigmoid_recentered" else s)
        return Trace(self, acts, sigs, z)

    def forward_batch(self, x, penalty: bool = False) -> np.ndarray:
        """The (n, d) outputs of the whole stack at the rows of ``x``, or
        with ``penalty`` those of the layers the penalty reads, traced in
        the row blocks of :func:`_row_blocks`."""
        x = _as_batch(x, self.input_dim)
        out = None
        for block in _row_blocks(x.shape[0]):
            tr = self._trace(x[block])
            y = tr.penalty_output if penalty else tr.output
            if out is None:
                out = np.empty((x.shape[0], y.shape[1]))
            out[block] = y
        return out


class Trace:
    """One forward pass of a model over a batch, kept for its backward.

    ``acts`` holds the inputs of the layers followed by the last one's
    output, ``sigs`` each layer's sigmoid values (None for a linear layer)
    and ``logit`` the last one's pre-activation.  ``derivs`` holds each
    sigmoid layer's derivative ``s (1 - s)``, computed at the first
    backward or Jacobian rows that need it, so that no forward-only pass
    pays for it and it is not held while the penalty's OT kernels run;
    ``input_sq`` each layer's ``||a[i]||^2 + 1`` of its input rows, at the
    first norm pass that needs it, which the loss gradients and the
    Jacobian rows of one trace share.
    """

    def __init__(self, model: Model, acts: list, sigs: list, logit):
        self.model = model
        self.acts = acts
        self.sigs = sigs
        self.logit = logit
        self.derivs = [None] * len(sigs)
        self.input_sq = [None] * len(sigs)

    @property
    def output(self) -> np.ndarray:
        return self.acts[-1]

    @property
    def penalty_output(self) -> np.ndarray:
        """The output of the layers the penalty reads."""
        return self.acts[self.model.penalty_layers or -1]

    @property
    def _bce(self) -> bool:
        """Whether the model's loss is bce: its last layer is a sigmoid."""
        return self.model._layers[-1][4] == "sigmoid"

    def _loss(self, targets):
        """Per-sample loss values of the traced stack and the (n, d)
        cotangent whose backward gives their gradients.

        bce, ``softplus(z) - y z`` of the last pre-activation z, takes 0/1
        targets; its cotangent ``q - y`` enters at z, so saturated logits
        stay exact.  Squared error's cotangent ``2 (out - y)`` enters at
        the output.
        """
        model = self.model
        n = self.output.shape[0]
        if self._bce:
            y = _check_binary(targets, n)[:, None]
            # -(y log q + (1-y) log(1-q)) = softplus(z) - y z, stable in z
            return ((np.logaddexp(0.0, self.logit) - y * self.logit)[:, 0],
                    self.output - y)
        r = self.output - _as_targets(targets, n, model.output_dim)
        return np.sum(r * r, axis=1), 2.0 * r

    def loss(self, targets) -> np.ndarray:
        """Per-sample loss values, shape (n,), of the model's loss (see
        the module docstring)."""
        return self._loss(targets)[0]

    def loss_and_grads(self, targets):
        """Per-sample loss values and their gradients as
        :class:`LayerGrads`."""
        values, cot = self._loss(targets)
        return values, self._backward(cot, at_logit=self._bce)

    def jacobian_rows(self) -> "LayerGrads":
        """The (n, d) Jacobian rows of :attr:`penalty_output` wrt theta,
        row (i, j) the gradient of output j at sample i, as
        :class:`LayerGrads` of the (at most two) layers the penalty reads.

        The cotangents of these one-hot rows factor: ``c[i, j] e_j`` at
        the top, with ``c`` its derivative (1 for a linear layer), and
        ``c[i, j] W[j] * ds[i]`` one layer down, with ``W`` the top weight
        and ``ds`` the lower layer's derivative; both are kept as these
        (n, d) and (n, out) factors.
        """
        n, d = self.penalty_output.shape
        top = (self.model.penalty_layers or len(self.sigs)) - 1
        c = self._deriv(top, n)
        blocks = [_TopRows(c)]
        if top:
            lo, mid, _, shape, _ = self.model._layers[top]
            blocks.insert(0, _SecondRows(
                c, self.model.theta[lo:mid].reshape(shape),
                self._deriv(0, n)))
        return LayerGrads(self, blocks, (n, d))

    def weighted_sum(self, sums) -> np.ndarray:
        """A weighted sum of per-sample gradient rows of this trace, shape
        (n_params,), from each layer's (n, out) cotangent sums ``G``
        (:meth:`LayerGrads.layer_sums`, added over every set of rows
        summed): one ``G^T a`` and one bias sum per layer; zero on the
        parameters of the layers past ``sums``."""
        model = self.model
        total = np.zeros(model.n_params)
        for (lo, mid, hi, _, _), a, g in zip(model._layers, self.acts, sums):
            total[lo:mid] = (g.T @ a).reshape(-1)
            total[mid:hi] = g.sum(axis=0)
        return total

    def _deriv(self, i: int, n: int | None = None):
        """Layer ``i``'s sigmoid derivative ``s (1 - s)``, computed once
        into ``derivs``; for a linear layer None, or ones of ``n`` rows
        when ``n`` is given."""
        s = self.sigs[i]
        if s is None:
            return None if n is None else \
                np.ones((n, self.model._layers[i][3][0]))
        if self.derivs[i] is None:
            ds = 1.0 - s
            ds *= s
            self.derivs[i] = ds
        return self.derivs[i]

    def _input_sq(self, i: int) -> np.ndarray:
        """Layer ``i``'s (n,) ``||a[i]||^2 + 1`` of its input rows, computed
        once into ``input_sq``."""
        if self.input_sq[i] is None:
            a = self.acts[i]
            self.input_sq[i] = np.einsum("ni,ni->n", a, a) + 1.0
        return self.input_sq[i]

    def _backward(self, cot, at_logit: bool) -> "LayerGrads":
        """Per-sample gradients of ``<cot[i], output[i]>`` wrt theta, as
        (n, 1) :class:`LayerGrads`.

        ``cot`` is a fresh (n, d) array, which the backward scales in
        place; only the (n, out) cotangent of each layer's pre-activation
        is kept.  With ``at_logit`` ``cot`` is that of the last layer's
        pre-activation, whose derivative is not applied.
        """
        last = len(self.sigs) - 1
        g = cot
        cots = [None] * (last + 1)
        for i in reversed(range(last + 1)):
            lo, mid, _, shape, _ = self.model._layers[i]
            ds = None if at_logit and i == last else self._deriv(i)
            if ds is not None:
                g *= ds
            cots[i] = _Dense(g)
            if i:
                g = g @ self.model.theta[lo:mid].reshape(shape)
        return LayerGrads(self, cots, (g.shape[0], 1))


class LayerGrads:
    """The (n, k) per-sample gradients of a loss backward (k = 1) or of
    Jacobian rows (k = d), never materialized.

    Row (i, j) is, layer by layer, the outer product of the layer's
    pre-activation cotangent ``g[i, j]`` with its input ``a[i]``, then
    ``g[i, j]`` for the bias.  Its squared norm is therefore ``sum over
    layers of ||g[i, j]||^2 (||a[i]||^2 + 1)``, and a weighted sum of the
    rows is one ``G^T a`` per layer, with ``G[i] = sum_j w[i, j] g[i,
    j]``.  ``blocks`` holds the cotangents ``g`` of the trace's layers
    from the first, all of them or the penalty's, dense or factored, as an
    object with ``sq()`` (the (n, k) ``||g[i, j]||^2``),
    ``rows(i, j)`` (the cotangents at those index arrays) and ``sums(w)``
    (the (n, out) ``G``).
    """

    def __init__(self, trace: Trace, blocks: list, shape: tuple):
        self.trace = trace
        self.blocks = blocks
        self.shape = shape

    def sq_norms(self) -> np.ndarray:
        """(n, k) squared norms of the rows."""
        sq = np.zeros(self.shape)
        for i, block in enumerate(self.blocks):
            sq += block.sq() * self.trace._input_sq(i)[:, None]
        return sq

    def norms(self) -> np.ndarray:
        """(n, k) norms of the rows.

        A row whose squared norm is not finite, as when it overflows or
        when a factor of it does, is normed again relative to its largest
        entry (see :meth:`_rescaled_norms`), so its overflow is not
        reported; every other row is the square root of :meth:`sq_norms`.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.sqrt(self.sq_norms())
        i, j = np.nonzero(~np.isfinite(norms))
        if i.size:
            norms[i, j] = self._rescaled_norms(i, j)
        return norms

    def _rescaled_norms(self, i, j) -> np.ndarray:
        """Norms of rows ``(i[r], j[r])``, with each layer block scaled by its
        largest entry ``max|g| * max(max|a|, 1)``, so that no square
        overflows; inf where an entry itself is not finite."""
        peak = np.zeros(i.size)
        blocks = []
        for a, block in zip(self.trace.acts, self.blocks):
            g, a = block.rows(i, j), a[i]
            g_max = np.max(np.abs(g), axis=-1)
            a_max = np.maximum(np.max(np.abs(a), axis=-1), 1.0)
            g = g / np.where(g_max > 0.0, g_max, 1.0)[:, None]
            a = a / a_max[:, None]
            blocks.append((g_max * a_max,
                           np.sqrt(np.einsum("ro,ro->r", g, g)
                                   * (np.einsum("ri,ri->r", a, a)
                                      + a_max ** -2.0))))
            peak = np.maximum(peak, blocks[-1][0])
        finite = np.isfinite(peak)
        unit = np.where(finite & (peak > 0.0), peak, 1.0)
        rel = np.sqrt(sum((p / unit * q) ** 2 for p, q in blocks))
        return np.where(finite, peak * rel, np.inf)

    def layer_sums(self, weights) -> list:
        """Each traced layer's (n, out) ``G[i] = sum_j weights[i, j]
        g[i, j]``, for :meth:`Trace.weighted_sum`.

        A layer of dense rows is scaled in the buffer the backward made
        for it, so no second array of its size is held; that spends these
        gradients, which must not be read again.
        """
        return [block.sums(weights) for block in self.blocks]


class _Dense:
    """A layer's rows ``g[i]`` of a backward's one cotangent per sample,
    held as one (n, out) array."""

    def __init__(self, g: np.ndarray):
        self.g = g

    def sq(self) -> np.ndarray:
        return np.einsum("no,no->n", self.g, self.g)[:, None]

    def rows(self, i, j) -> np.ndarray:
        return self.g[i]

    def sums(self, weights) -> np.ndarray:
        return np.multiply(self.g, weights, out=self.g)


class _TopRows:
    """The top layer's Jacobian rows ``c[i, j] e_j``, from the (n, d)
    factor ``c``."""

    def __init__(self, c: np.ndarray):
        self.c = c

    def sq(self) -> np.ndarray:
        return self.c * self.c

    def rows(self, i, j) -> np.ndarray:
        g = np.zeros((i.size, self.c.shape[1]))
        g[np.arange(i.size), j] = self.c[i, j]
        return g

    def sums(self, weights) -> np.ndarray:
        return weights * self.c


class _SecondRows:
    """The Jacobian rows ``c[i, j] W[j] * ds[i]`` one layer below the top,
    from the (n, d) factor ``c``, the (d, out) top weight ``W`` and the
    (n, out) derivative ``ds``: squared norms ``c^2 (ds^2 @ (W^2)^T)``
    and sums ``((w c) @ W) * ds``, of (n, d) and (n, out) arrays."""

    def __init__(self, c: np.ndarray, w: np.ndarray, ds: np.ndarray):
        self.c, self.w, self.ds = c, w, ds

    def sq(self) -> np.ndarray:
        # an overflowing W^2 gives inf, or nan against a zero ds^2: both
        # not finite, so norms() takes those rows from their entries
        with np.errstate(over="ignore", invalid="ignore"):
            return self.c * self.c * ((self.ds * self.ds)
                                      @ (self.w * self.w).T)

    def rows(self, i, j) -> np.ndarray:
        return self.c[i, j, None] * self.w[j] * self.ds[i]

    def sums(self, weights) -> np.ndarray:
        g = (weights * self.c) @ self.w
        g *= self.ds
        return g


_BLOCK_ROWS = 4096


def _row_blocks(n: int) -> list:
    """Slices of ``_BLOCK_ROWS`` rows from row 0, the last one taking the
    remainder (see the module docstring)."""
    k = max(n // _BLOCK_ROWS, 1)
    return [slice(i * _BLOCK_ROWS, (i + 1) * _BLOCK_ROWS if i < k - 1 else n)
            for i in range(k)]


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``1 / (1 + exp(-z))`` in one buffer, ``out`` or a new one; exactly 0
    where ``exp(-z)`` overflows, without a warning."""
    s = np.negative(z, out=out)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def _init_uniform(seed, shape, stream: int) -> np.ndarray:
    """Uniform [-a, a] weights then bias of one layer with weight shape
    ``(fan_out, fan_in)``, a = 1/sqrt(fan_in), seeded per layer."""
    if seed is None:
        raise ValueError("a seed is required to initialize parameters")
    fan_out, fan_in = shape
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), stream]))
    a = 1.0 / np.sqrt(fan_in)
    return np.concatenate([rng.uniform(-a, a, size=fan_out * fan_in),
                           rng.uniform(-a, a, size=fan_out)])


# kind -> (shape fields with their defaults; the (width, activation) layer
# list from input_dim d and the fields f; how many layers the penalty
# reads, None for all).  ``hidden_activation`` has one value, which the
# meta records.  theta holds each layer's weight (width, fan_in) row-major,
# then its bias:
#   affine          x -> W x + b; theta = [W, b]
#   affine_sigmoid  x -> sigmoid(w.x + b), in (0, 1); theta = [w, b]
#   mlp2            x -> act(W2 sigmoid(W1 x + b1) + b2), act sigmoid minus
#                   1/2 (outputs in (-1/2, 1/2)) or linear; theta = [W1 (h,
#                   d_in), b1 (h), W2 (d_out, h), b2 (d_out)]
#   autoencoder     codes l = W2 sigmoid(W1 x + b1) + b2, which the penalty
#                   reads, and reconstruction W4 sigmoid(W3 l + b3) + b4;
#                   theta = [W1, b1, W2, b2, W3, b3, W4, b4], the penalty
#                   gradient zero on the decoder block W3 .. b4
_KINDS = {
    "affine": ({"output_dim": 2},
               lambda d, f: [(f["output_dim"], "linear")], None),
    "affine_sigmoid": ({}, lambda d, f: [(1, "sigmoid")], None),
    "mlp2": ({"hidden_dim": 64, "hidden_activation": "sigmoid",
              "output_dim": 2, "output_activation": "sigmoid_recentered"},
             lambda d, f: [(f["hidden_dim"], f["hidden_activation"]),
                           (f["output_dim"], f["output_activation"])], None),
    "autoencoder": ({"hidden_dim": 62, "hidden_activation": "sigmoid",
                     "latent_dim": 2},
                    lambda d, f: [(f["hidden_dim"], f["hidden_activation"]),
                                  (f["latent_dim"], "linear"),
                                  (f["hidden_dim"], f["hidden_activation"]),
                                  (d, "linear")], 2),
}


def make_model(kind: str, input_dim: int, *, seed: int | None = None,
               theta=None, hidden_dim: int | None = None,
               output_dim: int | None = None, latent_dim: int | None = None,
               output_activation: str | None = None) -> Model:
    """A model of one of the kinds in ``_KINDS``: parameters ``theta``, or
    initialized from ``seed``.  A shape field left as None takes the kind's
    default; a field the kind does not have is ignored."""
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of "
                         f"{tuple(_KINDS)}")
    given = {"hidden_dim": hidden_dim, "output_dim": output_dim,
             "latent_dim": latent_dim, "output_activation": output_activation}
    fields = {name: type(default)(default if given.get(name) is None
                                  else given[name])
              for name, default in _KINDS[kind][0].items()}
    act = fields.get("output_activation", "linear")
    if act not in ("sigmoid_recentered", "linear"):
        raise ValueError(f"unknown output activation {act!r}")
    return Model(kind, input_dim, fields, theta, seed)


def save_model(model: Model, path) -> None:
    """Persist a model as JSON: kind, shape metadata, flat parameter
    vector."""
    doc = {"schema": _MODEL_SCHEMA, **model.meta(),
           "theta": [float(t) for t in model.theta]}
    write_json(path, doc)


def model_from_meta(meta: dict, theta) -> Model:
    """Rebuild a model from shape metadata plus a flat parameter vector."""
    return make_model(meta["kind"], meta["input_dim"], theta=theta, **{
        name: meta.get(name) for name in ("hidden_dim", "output_dim",
                                          "latent_dim", "output_activation")})


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != _MODEL_SCHEMA:
        raise ValueError(f"not a {_MODEL_SCHEMA} checkpoint: {path}")
    return model_from_meta(doc, doc["theta"])
