"""Small parameterized maps with exact forward passes and ghost-norm backwards.

Every model is a stack of dense layers ``a -> act(a W^T + b)``, where
``act`` is ``sigmoid``, ``sigmoid_recentered`` (sigmoid minus 1/2) or
``linear``.  The architectures cover the experiments: an identity map (no
layers), a plain affine map, a one-layer sigmoid classifier, a two-layer
regressor, and a two-layer encoder/decoder pair with a 2D latent space.

One forward :class:`Trace` and one backward serve every architecture.  The
backward pulls ``(n, k, d)`` cotangents back through the traced layers and
keeps only each layer's ``(n, k, out)`` output cotangent: a penalty
Jacobian row is the backward of a one-hot cotangent, a squared-error loss
gradient the backward of ``2 (out - y)``, and a bce loss gradient (for a
model whose last layer is a scalar sigmoid) the backward of ``q - y`` from
that layer's pre-activation.  A trace of a whole batch also serves the
penalty of any block of its rows (:meth:`Trace.penalty_rows`), so a
training step traces its batch once.  The per-sample gradients are never
built.
:class:`LayerGrads` gives their row norms from the ghost-norm identity (a
dense layer's per-sample gradient ``g a^T`` has squared norm ``||g||^2
||a||^2``) and any weighted sum of them as one ``G^T a`` per layer.  Every
derivative is exact, which the finite-difference tests rely on; there is
no autodiff framework.

Parameters live in a single flat float64 vector ``model.theta`` laid out
layer by layer (weights row-major, then bias).  ``forward_batch`` and the
:class:`Trace` methods return per-sample quantities stacked on the leading
axis.  Each model's ``meta()`` is the one record of the shape metadata that
rebuilds it from a flat theta; training records and checkpoints both store
it.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.special import expit

from .jsonio import write_json

__all__ = [
    "Model",
    "IdentityModel",
    "AffineModel",
    "AffineSigmoidModel",
    "Mlp2Model",
    "AutoencoderModel",
    "make_model",
    "model_from_meta",
    "save_model",
    "load_model",
]

LOSS_KINDS = ("bce", "squared_error")

ACTIVATIONS = ("sigmoid", "sigmoid_recentered", "linear")

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
    """A stack of dense layers with exact per-sample gradients.

    ``layers`` lists ``(output_dim, activation)`` per layer.  The fairness
    penalty reads the output of the first ``penalty_layers`` layers (all of
    them when None).  Without ``theta`` the layers are initialized from
    ``seed``.
    """

    kind: str = "abstract"
    penalty_layers: int | None = None

    def __init__(self, input_dim: int, layers, theta=None, seed=None):
        self.input_dim = int(input_dim)
        self._dims = [self.input_dim] + [int(d) for d, _ in layers]
        if min(self._dims) < 1:
            raise ValueError("layer dimensions must be >= 1")
        self.output_dim = self._dims[-1]
        # per layer: weight start, bias start, bias end, weight shape,
        # activation
        self._layers = []
        off = 0
        for d_in, d_out, (_, act) in zip(self._dims, self._dims[1:], layers):
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
            mid = off + d_out * d_in
            self._layers.append((off, mid, mid + d_out, (d_out, d_in), act))
            off = mid + d_out
        if theta is None:
            theta = np.concatenate([np.zeros(0)] + [
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
                "output_dim": self.output_dim}

    # -- forward traces ----------------------------------------------------

    def _trace(self, x, depth: int | None) -> "Trace":
        """Forward pass through the first ``depth`` layers (all when None)."""
        acts = [_as_batch(x, self.input_dim)]
        sigs = []
        z = None
        for lo, mid, hi, shape, act in self._layers[:depth]:
            z = acts[-1] @ self.theta[lo:mid].reshape(shape).T \
                + self.theta[mid:hi]
            s = None if act == "linear" else expit(z)
            sigs.append(s)
            acts.append(z if s is None else
                        s - 0.5 if act == "sigmoid_recentered" else s)
        return Trace(self, acts, sigs, z)

    def trace(self, x) -> "Trace":
        """Forward pass of the whole stack, kept for its backward."""
        return self._trace(x, None)

    def penalty_trace(self, x) -> "Trace":
        """Forward pass of the layers whose output the penalty reads."""
        return self._trace(x, self.penalty_layers)

    def forward_batch(self, x) -> np.ndarray:
        return self.trace(x).output


class Trace:
    """One forward pass of a model over a batch, kept for its backward.

    ``acts`` holds the inputs of the traced layers followed by the last
    one's output, ``sigs`` each layer's sigmoid values (None for a linear
    layer) and ``logit`` the last one's pre-activation (None without
    layers, and in a :meth:`penalty_rows` block that stops short of the
    last layer).
    """

    def __init__(self, model: Model, acts: list, sigs: list, logit):
        self.model = model
        self.acts = acts
        self.sigs = sigs
        self.logit = logit

    @property
    def output(self) -> np.ndarray:
        return self.acts[-1]

    def penalty_rows(self, rows: slice) -> "Trace":
        """Rows ``rows`` of this whole-stack trace, cut at the layers the
        penalty reads: ``model.penalty_trace(x[rows])`` without a second
        forward pass, its arrays row views of this trace's."""
        sigs = self.sigs[:self.model.penalty_layers]
        whole = len(sigs) == len(self.sigs)
        return Trace(self.model, [a[rows] for a in self.acts[:len(sigs) + 1]],
                     [s if s is None else s[rows] for s in sigs],
                     self.logit[rows] if whole and self.logit is not None
                     else None)

    def _loss(self, targets, loss_kind: str):
        """Per-sample loss values of the traced stack and the (n, d)
        cotangent whose backward gives their gradients.

        Squared error's cotangent ``2 (out - y)`` enters at the output.
        bce, ``softplus(z) - y z`` of the last pre-activation z, needs a
        last layer that is a scalar sigmoid; its cotangent ``q - y`` enters
        at z, so saturated logits stay exact.
        """
        if loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {loss_kind!r}")
        model = self.model
        n = self.output.shape[0]
        if loss_kind == "bce":
            if not (model._layers and model.output_dim == 1
                    and model._layers[-1][4] == "sigmoid"):
                raise ValueError(
                    f"bce loss requires a probability-valued scalar model, "
                    f"not {model.kind!r}")
            y = _check_binary(targets, n)[:, None]
            # -(y log q + (1-y) log(1-q)) = softplus(z) - y z, stable in z
            return ((np.logaddexp(0.0, self.logit) - y * self.logit)[:, 0],
                    self.output - y)
        r = self.output - _as_targets(targets, n, model.output_dim)
        return np.sum(r * r, axis=1), 2.0 * r

    def loss(self, targets, loss_kind: str) -> np.ndarray:
        """Per-sample loss values, shape (n,)."""
        return self._loss(targets, loss_kind)[0]

    def loss_and_grads(self, targets, loss_kind: str):
        """Per-sample loss values and their gradients as
        :class:`LayerGrads`."""
        values, cot = self._loss(targets, loss_kind)
        return values, self._backward(cot[:, None, :],
                                      at_logit=loss_kind == "bce")

    def backward(self, cot) -> "LayerGrads":
        """Per-sample gradients of ``<cot[i, j], output[i]>`` wrt theta.

        ``cot`` holds k cotangents per sample, shape (n, k, d), or (1, k, d)
        for the same k at every sample.  Only the (n, k, out) cotangent of
        each layer's pre-activation is kept.
        """
        return self._backward(cot, at_logit=False)

    def _backward(self, cot, at_logit: bool) -> "LayerGrads":
        """:meth:`backward`; with ``at_logit`` the cotangents are those of
        the last layer's pre-activation, whose derivative is not applied."""
        n, k = self.acts[0].shape[0], cot.shape[1]
        g = np.broadcast_to(cot, (n, k, cot.shape[2]))
        cots = [None] * len(self.sigs)
        for i in reversed(range(len(self.sigs))):
            lo, mid, _, shape, _ = self.model._layers[i]
            s = self.sigs[i]
            if s is not None and not (at_logit and i == len(self.sigs) - 1):
                g = g * (s * (1.0 - s))[:, None, :]
            cots[i] = g
            if i:
                w = self.model.theta[lo:mid].reshape(shape)
                g = (g.reshape(-1, shape[0]) @ w).reshape(n, k, shape[1])
        return LayerGrads(self, cots, (n, k))


class LayerGrads:
    """The (n, k) per-sample gradients of a backward, never materialized.

    Row (i, j) is, layer by layer, the outer product of the layer's output
    cotangent ``g[i, j]`` with its input ``a[i]``, then ``g[i, j]`` for the
    bias.  Its squared norm is therefore ``sum over layers of ||g[i, j]||^2
    (||a[i]||^2 + 1)``, and a weighted sum of the rows is one
    ``G^T a`` per layer, with ``G[i] = sum_j w[i, j] g[i, j]``.
    """

    def __init__(self, trace: Trace, cots: list, shape: tuple):
        self.trace = trace
        self.cots = cots
        self.shape = shape

    def sq_norms(self) -> np.ndarray:
        """(n, k) squared norms of the rows."""
        sq = np.zeros(self.shape)
        for a, g in zip(self.trace.acts, self.cots):
            sq += np.einsum("nko,nko->nk", g, g) \
                * (np.einsum("ni,ni->n", a, a) + 1.0)[:, None]
        return sq

    def norms(self) -> np.ndarray:
        """(n, k) norms of the rows.

        A row whose squared norm overflows is normed again relative to its
        largest entry (see :meth:`_rescaled_norms`), so its overflow is not
        reported; every other row is the square root of :meth:`sq_norms`.
        """
        with np.errstate(over="ignore"):
            norms = np.sqrt(self.sq_norms())
        i, j = np.nonzero(np.isinf(norms))
        if i.size:
            norms[i, j] = self._rescaled_norms(i, j)
        return norms

    def _rescaled_norms(self, i, j) -> np.ndarray:
        """Norms of rows ``(i[r], j[r])``, with each layer block scaled by its
        largest entry ``max|g| * max(max|a|, 1)``, so that no square
        overflows; inf where an entry itself is not finite."""
        peak = np.zeros(i.size)
        blocks = []
        for a, g in zip(self.trace.acts, self.cots):
            g, a = g[i, j], a[i]
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

    def weighted_sum(self, weights) -> np.ndarray:
        """``sum_{i, j} weights[i, j] * row (i, j)``, shape (n_params,);
        zero on the parameters of untraced layers."""
        model = self.trace.model
        total = np.zeros(model.n_params)
        for (lo, mid, hi, _, _), a, g in zip(model._layers, self.trace.acts,
                                             self.cots):
            big_g = np.einsum("nk,nko->no", weights, g)
            total[lo:mid] = (big_g.T @ a).reshape(-1)
            total[mid:hi] = big_g.sum(axis=0)
        return total


class IdentityModel(Model):
    """g(x) = x.  No layers and no parameters."""

    kind = "identity"

    def __init__(self, input_dim: int):
        super().__init__(input_dim, [])

    def forward_batch(self, x) -> np.ndarray:
        return _as_batch(x, self.input_dim).copy()


class AffineModel(Model):
    """Plain linear map x -> W x + b.  theta = [W row-major, b]."""

    kind = "affine"

    def __init__(self, input_dim: int, output_dim: int,
                 theta: np.ndarray | None = None, seed: int | None = None):
        super().__init__(input_dim, [(output_dim, "linear")], theta, seed)


class AffineSigmoidModel(Model):
    """One-layer classifier: x -> sigmoid(w.x + b), scalar output in (0, 1).

    theta = [w (input_dim), b].
    """

    kind = "affine_sigmoid"

    def __init__(self, input_dim: int, theta: np.ndarray | None = None,
                 seed: int | None = None):
        super().__init__(input_dim, [(1, "sigmoid")], theta, seed)


class Mlp2Model(Model):
    """Two-layer network: sigmoid hidden layer, configurable output head.

    ``output_activation`` is either ``"sigmoid_recentered"`` (sigmoid minus
    1/2 per coordinate, so outputs lie in (-1/2, 1/2)) or ``"linear"``.
    theta = [W1 (h, d_in), b1 (h), W2 (d_out, h), b2 (d_out)].
    """

    kind = "mlp2"

    def __init__(self, input_dim: int, hidden_dim: int, output_dim: int,
                 output_activation: str = "sigmoid_recentered",
                 theta: np.ndarray | None = None, seed: int | None = None):
        if output_activation not in ("sigmoid_recentered", "linear"):
            raise ValueError(f"unknown output activation {output_activation!r}")
        self.hidden_dim = int(hidden_dim)
        self.output_activation = output_activation
        super().__init__(input_dim, [(hidden_dim, "sigmoid"),
                                     (output_dim, output_activation)],
                         theta, seed)

    def meta(self) -> dict:
        return {**super().meta(), "hidden_dim": self.hidden_dim,
                "hidden_activation": "sigmoid",
                "output_activation": self.output_activation}


class AutoencoderModel(Model):
    """Encoder/decoder pair with sigmoid hidden layers and linear heads.

    encode: x -> W2 sigmoid(W1 x + b1) + b2        (latent, default 2D)
    decode: l -> W4 sigmoid(W3 l + b3) + b4        (reconstruction)

    ``forward`` is the reconstruction; the fairness penalty acts on the
    latent codes, the output of the first two layers, so its backward
    walks the encoder only and the penalty gradient is zero on the
    decoder block.
    theta = [W1, b1, W2, b2, W3, b3, W4, b4].
    """

    kind = "autoencoder"
    penalty_layers = 2

    def __init__(self, input_dim: int, hidden_dim: int = 62,
                 latent_dim: int = 2, theta: np.ndarray | None = None,
                 seed: int | None = None):
        self.hidden_dim = int(hidden_dim)
        self.latent_dim = int(latent_dim)
        super().__init__(input_dim, [(hidden_dim, "sigmoid"),
                                     (latent_dim, "linear"),
                                     (hidden_dim, "sigmoid"),
                                     (input_dim, "linear")], theta, seed)

    def meta(self) -> dict:
        return {**super().meta(), "hidden_dim": self.hidden_dim,
                "hidden_activation": "sigmoid", "latent_dim": self.latent_dim}


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


# kind -> constructor from shape metadata plus ``theta=`` or ``seed=``
_BUILDERS = {
    "identity": lambda m, **init: IdentityModel(m["input_dim"]),
    "affine": lambda m, **init: AffineModel(m["input_dim"], m["output_dim"],
                                            **init),
    "affine_sigmoid": lambda m, **init: AffineSigmoidModel(m["input_dim"],
                                                           **init),
    "mlp2": lambda m, **init: Mlp2Model(
        m["input_dim"], m["hidden_dim"], m["output_dim"],
        m["output_activation"], **init),
    "autoencoder": lambda m, **init: AutoencoderModel(
        m["input_dim"], m["hidden_dim"], m["latent_dim"], **init),
}

_DEFAULT_HIDDEN_DIM = {"mlp2": 64, "autoencoder": 62}


def _build(meta: dict, **init) -> Model:
    kind = meta["kind"]
    if kind not in _BUILDERS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of "
                         f"{tuple(_BUILDERS)}")
    return _BUILDERS[kind](meta, **init)


def make_model(kind: str, input_dim: int, *, seed: int | None = None,
               hidden_dim: int | None = None, output_dim: int | None = None,
               latent_dim: int = 2,
               output_activation: str | None = None) -> Model:
    """Construct a model by kind with per-architecture defaults."""
    return _build({
        "kind": kind, "input_dim": input_dim,
        "hidden_dim": (_DEFAULT_HIDDEN_DIM.get(kind) if hidden_dim is None
                       else hidden_dim),
        "output_dim": 2 if output_dim is None else output_dim,
        "latent_dim": latent_dim,
        "output_activation": output_activation or "sigmoid_recentered",
    }, seed=seed)


def save_model(model: Model, path) -> None:
    """Persist a model as JSON: kind, shape metadata, flat parameter vector."""
    doc = {"schema": _MODEL_SCHEMA, **model.meta(),
           "theta": [float(t) for t in model.theta]}
    write_json(path, doc)


def model_from_meta(meta: dict, theta) -> Model:
    """Rebuild a model from shape metadata plus a flat parameter vector."""
    return _build(meta, theta=np.asarray(theta, dtype=np.float64))


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != _MODEL_SCHEMA:
        raise ValueError(f"not a {_MODEL_SCHEMA} checkpoint: {path}")
    return model_from_meta(doc, doc["theta"])
