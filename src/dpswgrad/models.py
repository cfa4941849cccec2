"""Small parameterized maps with exact forward passes and per-sample Jacobians.

Every model is a stack of dense layers ``a -> act(a W^T + b)``, where
``act`` is ``sigmoid``, ``sigmoid_recentered`` (sigmoid minus 1/2) or
``linear``.  The architectures cover the experiments: an identity map (no
layers), a plain affine map, a one-layer sigmoid classifier, a two-layer
regressor, and a two-layer encoder/decoder pair with a 2D latent space.

One forward trace and one per-sample backward serve every architecture.
The backward pulls ``(n, k, d)`` cotangents back through the traced layers
and returns ``(n, k, n_params)`` per-sample gradients: a Jacobian is the
backward of the one-hot cotangents, a squared-error loss gradient the
backward of ``2 (out - y)``.  Every derivative is exact, which the
finite-difference tests rely on; there is no autodiff framework.

Parameters live in a single flat float64 vector ``model.theta`` laid out
layer by layer (weights row-major, then bias).  Batch methods return
per-sample quantities stacked on the leading axis.  Each model's ``meta()``
is the one record of the shape metadata that rebuilds it from a flat theta;
training records and checkpoints both store it.
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


class Model:
    """A stack of dense layers with exact per-sample Jacobians.

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

    # -- forward trace and per-sample backward -----------------------------

    def _trace(self, x, depth: int | None = None):
        """Inputs of the first ``depth`` layers (all when None) followed by
        the last one's output, and each layer's sigmoid values (None for a
        linear layer)."""
        acts = [_as_batch(x, self.input_dim)]
        sigs = []
        for lo, mid, hi, shape, act in self._layers[:depth]:
            z = acts[-1] @ self.theta[lo:mid].reshape(shape).T \
                + self.theta[mid:hi]
            s = None if act == "linear" else expit(z)
            sigs.append(s)
            acts.append(z if s is None else
                        s - 0.5 if act == "sigmoid_recentered" else s)
        return acts, sigs

    def _backward(self, acts, sigs, cot) -> np.ndarray:
        """Per-sample gradients of ``<cot, traced output>`` wrt theta.

        ``cot`` holds k cotangents per sample, shape (n, k, d), or (1, k, d)
        for the same k at every sample; the result is (n, k, n_params),
        zero on the parameters of untraced layers.
        """
        n, k = acts[0].shape[0], cot.shape[1]
        grads = np.zeros((n, k, self.n_params))
        g = cot
        for i in reversed(range(len(sigs))):
            lo, mid, hi, shape, _ = self._layers[i]
            if sigs[i] is not None:
                g = g * (sigs[i] * (1.0 - sigs[i]))[:, None, :]
            # per-sample outer products; a broadcast multiply loops innermost
            # over the layer's inputs, and with fewer than 8 of them batched
            # (out, 1) @ (1, in) matmuls are faster, with the same products
            outer = np.matmul if shape[1] < 8 else np.multiply
            outer(g[:, :, :, None], acts[i][:, None, None, :],
                  out=grads[:, :, lo:mid].reshape(n, k, *shape))
            grads[:, :, mid:hi] = g
            if i:
                w = self.theta[lo:mid].reshape(shape)
                g = (g.reshape(-1, shape[0]) @ w).reshape(len(g), k, shape[1])
        return grads

    def _jacobian(self, x, depth: int | None) -> np.ndarray:
        acts, sigs = self._trace(x, depth)
        return self._backward(acts, sigs, np.eye(acts[-1].shape[1])[None])

    # -- public batch methods ----------------------------------------------

    def forward_batch(self, x) -> np.ndarray:
        return self._trace(x)[0][-1]

    def jacobian_batch(self, x) -> np.ndarray:
        """(n, output_dim, n_params) Jacobians of the forward map wrt theta."""
        return self._jacobian(x, None)

    def penalty_forward_batch(self, x) -> np.ndarray:
        return self._trace(x, self.penalty_layers)[0][-1]

    def penalty_jacobian_batch(self, x) -> np.ndarray:
        """(n, penalty_dim, n_params) Jacobians of the penalized output."""
        return self._jacobian(x, self.penalty_layers)

    # -- losses ------------------------------------------------------------

    def _check_loss_kind(self, loss_kind: str) -> None:
        if loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {loss_kind!r}")
        if loss_kind == "bce":
            raise ValueError(
                f"bce loss requires a probability-valued scalar model, "
                f"not {self.kind!r}")

    def loss_batch(self, x, targets, loss_kind: str) -> np.ndarray:
        """Per-sample loss values, shape (n,)."""
        self._check_loss_kind(loss_kind)
        out = self.forward_batch(x)
        y = _as_targets(targets, out.shape[0], self.output_dim)
        r = out - y
        return np.sum(r * r, axis=1)

    def loss_grad_batch(self, x, targets, loss_kind: str) -> np.ndarray:
        """Per-sample gradients of the loss wrt theta, shape (n, n_params)."""
        self._check_loss_kind(loss_kind)
        acts, sigs = self._trace(x)
        y = _as_targets(targets, acts[0].shape[0], self.output_dim)
        cot = 2.0 * (acts[-1] - y)
        return self._backward(acts, sigs, cot[:, None, :])[:, 0, :]


class IdentityModel(Model):
    """g(x) = x.  No layers, so the Jacobian is the empty matrix."""

    kind = "identity"

    def __init__(self, input_dim: int):
        super().__init__(input_dim, [])

    def forward_batch(self, x) -> np.ndarray:
        return _as_batch(x, self.input_dim).copy()

    penalty_forward_batch = forward_batch


class AffineModel(Model):
    """Plain linear map x -> W x + b.  theta = [W row-major, b]."""

    kind = "affine"

    def __init__(self, input_dim: int, output_dim: int,
                 theta: np.ndarray | None = None, seed: int | None = None):
        super().__init__(input_dim, [(output_dim, "linear")], theta, seed)


class AffineSigmoidModel(Model):
    """One-layer classifier: x -> sigmoid(w.x + b), scalar output in (0, 1).

    theta = [w (input_dim), b].  Its bce loss gradient is the closed form
    ``(q - y) [x, 1]`` in logit space.
    """

    kind = "affine_sigmoid"

    def __init__(self, input_dim: int, theta: np.ndarray | None = None,
                 seed: int | None = None):
        super().__init__(input_dim, [(1, "sigmoid")], theta, seed)

    def _logits(self, xb: np.ndarray) -> np.ndarray:
        w = self.theta[:self.input_dim]
        b = self.theta[self.input_dim]
        return xb @ w + b

    def _check_loss_kind(self, loss_kind: str) -> None:
        if loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {loss_kind!r}")

    def loss_batch(self, x, targets, loss_kind: str) -> np.ndarray:
        if loss_kind == "squared_error":
            return super().loss_batch(x, targets, loss_kind)
        self._check_loss_kind(loss_kind)
        xb = _as_batch(x, self.input_dim)
        y = _check_binary(targets, xb.shape[0])
        z = self._logits(xb)
        # -(y log q + (1-y) log(1-q)) = softplus(z) - y z, stable in z
        return np.logaddexp(0.0, z) - y * z

    def loss_grad_batch(self, x, targets, loss_kind: str) -> np.ndarray:
        if loss_kind == "squared_error":
            return super().loss_grad_batch(x, targets, loss_kind)
        self._check_loss_kind(loss_kind)
        xb = _as_batch(x, self.input_dim)
        y = _check_binary(targets, xb.shape[0])
        q = expit(self._logits(xb))
        grads = np.empty((xb.shape[0], self.n_params))
        grads[:, :self.input_dim] = (q - y)[:, None] * xb
        grads[:, self.input_dim] = q - y
        return grads


def _check_binary(targets, n: int) -> np.ndarray:
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if y.shape != (n,):
        raise ValueError(f"expected {n} scalar targets")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("bce targets must be 0 or 1")
    return y


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
    latent codes, the output of the first two layers, so the penalty
    Jacobian is zero on the decoder block.
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

    def encode_batch(self, x) -> np.ndarray:
        return self.penalty_forward_batch(x)


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
