"""Small parameterized maps with exact forward passes and per-sample Jacobians.

The architectures cover the experiments: an identity map (no parameters),
a plain affine map, a one-layer sigmoid classifier, a two-layer regressor,
and a two-layer encoder/decoder pair with a 2D latent space.
Backpropagation is written out
analytically per architecture instead of pulling in an autodiff framework;
every Jacobian is exact, which the finite-difference tests rely on.

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
    """Base class: a map theta -> (x -> R^d) with exact per-sample Jacobians."""

    kind: str = "abstract"

    def __init__(self, input_dim: int, output_dim: int, theta: np.ndarray):
        self.input_dim = int(input_dim)
        self.output_dim = int(output_dim)
        self.theta = np.asarray(theta, dtype=np.float64).reshape(-1)

    @property
    def n_params(self) -> int:
        return self.theta.size

    @property
    def penalty_dim(self) -> int:
        """Dimension of the output the fairness penalty distributions live in."""
        return self.output_dim

    def forward_batch(self, x) -> np.ndarray:
        raise NotImplementedError

    def jacobian_batch(self, x) -> np.ndarray:
        """(n, output_dim, n_params) Jacobians of the forward map wrt theta."""
        raise NotImplementedError

    def penalty_forward_batch(self, x) -> np.ndarray:
        return self.forward_batch(x)

    def penalty_jacobian_batch(self, x) -> np.ndarray:
        return self.jacobian_batch(x)

    def meta(self) -> dict:
        """Shape metadata sufficient to rebuild the model from a flat theta."""
        return {"kind": self.kind, "input_dim": self.input_dim,
                "output_dim": self.output_dim}

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
        out = self.forward_batch(x)
        y = _as_targets(targets, out.shape[0], self.output_dim)
        jac = self.jacobian_batch(x)
        return 2.0 * np.einsum("ndp,nd->np", jac, out - y)


class IdentityModel(Model):
    """g(x) = x.  No parameters, so the Jacobian is the empty matrix."""

    kind = "identity"

    def __init__(self, input_dim: int):
        super().__init__(input_dim, input_dim, np.zeros(0))

    def forward_batch(self, x) -> np.ndarray:
        return _as_batch(x, self.input_dim).copy()

    def jacobian_batch(self, x) -> np.ndarray:
        xb = _as_batch(x, self.input_dim)
        return np.zeros((xb.shape[0], self.output_dim, 0))

    def loss_grad_batch(self, x, targets, loss_kind: str) -> np.ndarray:
        self._check_loss_kind(loss_kind)
        xb = _as_batch(x, self.input_dim)
        return np.zeros((xb.shape[0], 0))


class AffineModel(Model):
    """Plain linear map x -> W x + b.  theta = [W row-major, b]."""

    kind = "affine"

    def __init__(self, input_dim: int, output_dim: int,
                 theta: np.ndarray | None = None, seed: int | None = None):
        if theta is None:
            theta = _init_uniform(seed, [(output_dim, input_dim),
                                         (output_dim,)], fan_in=input_dim)
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        if theta.size != output_dim * (input_dim + 1):
            raise ValueError("theta size must be output_dim * (input_dim + 1)")
        super().__init__(input_dim, output_dim, theta)

    def _weights(self):
        q, d = self.input_dim, self.output_dim
        return self.theta[:d * q].reshape(d, q), self.theta[d * q:]

    def forward_batch(self, x) -> np.ndarray:
        xb = _as_batch(x, self.input_dim)
        w, b = self._weights()
        return xb @ w.T + b

    def jacobian_batch(self, x) -> np.ndarray:
        xb = _as_batch(x, self.input_dim)
        n = xb.shape[0]
        q, d = self.input_dim, self.output_dim
        jac = np.zeros((n, d, self.n_params))
        rng_d = np.arange(d)
        # weight block: row r only depends on W[r, :]
        jw = np.zeros((n, d, d, q))
        jw[:, rng_d, rng_d, :] = xb[:, None, :]
        jac[:, :, :d * q] = jw.reshape(n, d, d * q)
        jac[:, rng_d, d * q + rng_d] = 1.0
        return jac

    def loss_grad_batch(self, x, targets, loss_kind: str) -> np.ndarray:
        self._check_loss_kind(loss_kind)
        xb = _as_batch(x, self.input_dim)
        n = xb.shape[0]
        out = self.forward_batch(xb)
        y = _as_targets(targets, n, self.output_dim)
        r = 2.0 * (out - y)
        g_w = np.einsum("nd,nq->ndq", r, xb).reshape(n, -1)
        return np.concatenate([g_w, r], axis=1)


class AffineSigmoidModel(Model):
    """One-layer classifier: x -> sigmoid(w.x + b), scalar output in (0, 1).

    theta = [w (input_dim), b].
    """

    kind = "affine_sigmoid"

    def __init__(self, input_dim: int, theta: np.ndarray | None = None,
                 seed: int | None = None):
        if theta is None:
            theta = _init_uniform(seed, [(input_dim,), (1,)], fan_in=input_dim)
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        if theta.size != input_dim + 1:
            raise ValueError("theta size must be input_dim + 1")
        super().__init__(input_dim, 1, theta)

    def _logits(self, xb: np.ndarray) -> np.ndarray:
        w = self.theta[:self.input_dim]
        b = self.theta[self.input_dim]
        return xb @ w + b

    def forward_batch(self, x) -> np.ndarray:
        xb = _as_batch(x, self.input_dim)
        return expit(self._logits(xb))[:, None]

    def jacobian_batch(self, x) -> np.ndarray:
        xb = _as_batch(x, self.input_dim)
        s = expit(self._logits(xb))
        ds = s * (1.0 - s)
        jac = np.empty((xb.shape[0], 1, self.n_params))
        jac[:, 0, :self.input_dim] = ds[:, None] * xb
        jac[:, 0, self.input_dim] = ds
        return jac

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
        shapes = [(hidden_dim, input_dim), (hidden_dim,),
                  (output_dim, hidden_dim), (output_dim,)]
        if theta is None:
            theta = np.concatenate([
                _init_uniform(seed, shapes[:2], fan_in=input_dim, stream=0),
                _init_uniform(seed, shapes[2:], fan_in=hidden_dim, stream=1),
            ])
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        expected = hidden_dim * input_dim + hidden_dim \
            + output_dim * hidden_dim + output_dim
        if theta.size != expected:
            raise ValueError(f"theta size must be {expected}")
        super().__init__(input_dim, output_dim, theta)

    def meta(self) -> dict:
        return {**super().meta(), "hidden_dim": self.hidden_dim,
                "hidden_activation": "sigmoid",
                "output_activation": self.output_activation}

    def _weights(self):
        q, h, d = self.input_dim, self.hidden_dim, self.output_dim
        o1 = h * q
        o2 = o1 + h
        o3 = o2 + d * h
        t = self.theta
        return (t[:o1].reshape(h, q), t[o1:o2],
                t[o2:o3].reshape(d, h), t[o3:])

    def _trace(self, xb: np.ndarray):
        w1, b1, w2, b2 = self._weights()
        a1 = expit(xb @ w1.T + b1)
        z2 = a1 @ w2.T + b2
        if self.output_activation == "sigmoid_recentered":
            s2 = expit(z2)
            out = s2 - 0.5
            d2 = s2 * (1.0 - s2)
        else:
            out = z2
            d2 = np.ones_like(z2)
        return a1, out, d2, w2

    def forward_batch(self, x) -> np.ndarray:
        xb = _as_batch(x, self.input_dim)
        return self._trace(xb)[1]

    def jacobian_batch(self, x) -> np.ndarray:
        xb = _as_batch(x, self.input_dim)
        n = xb.shape[0]
        q, h, d = self.input_dim, self.hidden_dim, self.output_dim
        a1, _, d2, w2 = self._trace(xb)
        da1 = a1 * (1.0 - a1)

        # dout/dz1 through the hidden layer, shape (n, d, h)
        g1 = d2[:, :, None] * w2[None, :, :]
        dz1 = g1 * da1[:, None, :]

        j_w1 = np.einsum("nrh,nq->nrhq", dz1, xb).reshape(n, d, h * q)
        j_w2 = np.zeros((n, d, d, h))
        rng_d = np.arange(d)
        j_w2[:, rng_d, rng_d, :] = d2[:, :, None] * a1[:, None, :]
        j_b2 = np.zeros((n, d, d))
        j_b2[:, rng_d, rng_d] = d2
        return np.concatenate(
            [j_w1, dz1, j_w2.reshape(n, d, d * h), j_b2], axis=2)

    def loss_grad_batch(self, x, targets, loss_kind: str) -> np.ndarray:
        self._check_loss_kind(loss_kind)
        xb = _as_batch(x, self.input_dim)
        n = xb.shape[0]
        a1, out, d2, w2 = self._trace(xb)
        y = _as_targets(targets, n, self.output_dim)

        delta2 = 2.0 * (out - y) * d2
        g_w2 = np.einsum("nd,nh->ndh", delta2, a1).reshape(n, -1)
        delta1 = (delta2 @ w2) * (a1 * (1.0 - a1))
        g_w1 = np.einsum("nh,nq->nhq", delta1, xb).reshape(n, -1)
        return np.concatenate([g_w1, delta1, g_w2, delta2], axis=1)


class AutoencoderModel(Model):
    """Encoder/decoder pair with sigmoid hidden layers and linear heads.

    encode: x -> W2 sigmoid(W1 x + b1) + b2        (latent, default 2D)
    decode: l -> W4 sigmoid(W3 l + b3) + b4        (reconstruction)

    ``forward`` is the reconstruction; the fairness penalty acts on the
    latent codes, so ``penalty_forward_batch``/``penalty_jacobian_batch``
    expose the encoder (decoder parameter block zeroed in the Jacobian).
    theta = [W1, b1, W2, b2, W3, b3, W4, b4].
    """

    kind = "autoencoder"

    def __init__(self, input_dim: int, hidden_dim: int = 62,
                 latent_dim: int = 2, theta: np.ndarray | None = None,
                 seed: int | None = None):
        self.hidden_dim = int(hidden_dim)
        self.latent_dim = int(latent_dim)
        q, h, r = input_dim, hidden_dim, latent_dim
        if theta is None:
            theta = np.concatenate([
                _init_uniform(seed, [(h, q), (h,)], fan_in=q, stream=0),
                _init_uniform(seed, [(r, h), (r,)], fan_in=h, stream=1),
                _init_uniform(seed, [(h, r), (h,)], fan_in=r, stream=2),
                _init_uniform(seed, [(q, h), (q,)], fan_in=h, stream=3),
            ])
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        expected = (h * q + h) + (r * h + r) + (h * r + h) + (q * h + q)
        if theta.size != expected:
            raise ValueError(f"theta size must be {expected}")
        super().__init__(input_dim, input_dim, theta)

    @property
    def penalty_dim(self) -> int:
        return self.latent_dim

    def meta(self) -> dict:
        return {**super().meta(), "hidden_dim": self.hidden_dim,
                "hidden_activation": "sigmoid", "latent_dim": self.latent_dim}

    @property
    def n_encoder_params(self) -> int:
        q, h, r = self.input_dim, self.hidden_dim, self.latent_dim
        return h * q + h + r * h + r

    def _weights(self):
        q, h, r = self.input_dim, self.hidden_dim, self.latent_dim
        sizes = [h * q, h, r * h, r, h * r, h, q * h, q]
        shapes = [(h, q), None, (r, h), None, (h, r), None, (q, h), None]
        parts = []
        off = 0
        for size, shape in zip(sizes, shapes):
            seg = self.theta[off:off + size]
            parts.append(seg.reshape(shape) if shape else seg)
            off += size
        return parts

    def _trace(self, xb: np.ndarray):
        w1, b1, w2, b2, w3, b3, w4, b4 = self._weights()
        a1 = expit(xb @ w1.T + b1)
        lat = a1 @ w2.T + b2
        a3 = expit(lat @ w3.T + b3)
        out = a3 @ w4.T + b4
        return a1, lat, a3, out

    def encode_batch(self, x) -> np.ndarray:
        xb = _as_batch(x, self.input_dim)
        return self._trace(xb)[1]

    def forward_batch(self, x) -> np.ndarray:
        xb = _as_batch(x, self.input_dim)
        return self._trace(xb)[3]

    def penalty_forward_batch(self, x) -> np.ndarray:
        return self.encode_batch(x)

    def _encoder_jacobian(self, xb, a1) -> np.ndarray:
        """(n, latent, n_encoder_params) Jacobian of the latent codes."""
        n = xb.shape[0]
        q, h, r = self.input_dim, self.hidden_dim, self.latent_dim
        _, _, w2, _, _, _, _, _ = self._weights()
        da1 = a1 * (1.0 - a1)
        dz1 = w2[None, :, :] * da1[:, None, :]          # (n, r, h)
        j_w1 = np.einsum("nrh,nq->nrhq", dz1, xb).reshape(n, r, h * q)
        j_w2 = np.zeros((n, r, r, h))
        rng_r = np.arange(r)
        j_w2[:, rng_r, rng_r, :] = a1[:, None, :]
        j_b2 = np.zeros((n, r, r))
        j_b2[:, rng_r, rng_r] = 1.0
        return np.concatenate(
            [j_w1, dz1, j_w2.reshape(n, r, r * h), j_b2], axis=2)

    def penalty_jacobian_batch(self, x) -> np.ndarray:
        xb = _as_batch(x, self.input_dim)
        a1 = self._trace(xb)[0]
        n = xb.shape[0]
        j_enc = self._encoder_jacobian(xb, a1)
        j_dec = np.zeros((n, self.latent_dim,
                          self.n_params - self.n_encoder_params))
        return np.concatenate([j_enc, j_dec], axis=2)

    def jacobian_batch(self, x) -> np.ndarray:
        xb = _as_batch(x, self.input_dim)
        n = xb.shape[0]
        q, h, r = self.input_dim, self.hidden_dim, self.latent_dim
        _, _, w2, _, w3, _, w4, _ = self._weights()
        a1, lat, a3, _ = self._trace(xb)
        da3 = a3 * (1.0 - a3)

        # decoder blocks
        dz3 = w4[None, :, :] * da3[:, None, :]           # (n, q, h)
        j_w3 = np.einsum("nqh,nr->nqhr", dz3, lat).reshape(n, q, h * r)
        j_w4 = np.zeros((n, q, q, h))
        rng_q = np.arange(q)
        j_w4[:, rng_q, rng_q, :] = a3[:, None, :]
        j_b4 = np.zeros((n, q, q))
        j_b4[:, rng_q, rng_q] = 1.0

        # chain into the encoder via dout/dlatent
        dlat = dz3 @ w3                                   # (n, q, r)
        da1 = a1 * (1.0 - a1)
        dz1 = np.einsum("nqr,rh->nqh", dlat, w2) * da1[:, None, :]
        j_w1 = np.einsum("nqh,nk->nqhk", dz1, xb).reshape(n, q, h * q)
        j_w2 = np.einsum("nqr,nh->nqrh", dlat, a1).reshape(n, q, r * h)

        return np.concatenate(
            [j_w1, dz1, j_w2, dlat,
             j_w3, dz3, j_w4.reshape(n, q, q * h), j_b4], axis=2)

    def loss_grad_batch(self, x, targets, loss_kind: str) -> np.ndarray:
        self._check_loss_kind(loss_kind)
        xb = _as_batch(x, self.input_dim)
        n = xb.shape[0]
        _, _, w2, _, w3, _, w4, _ = self._weights()
        a1, lat, a3, out = self._trace(xb)
        y = _as_targets(targets, n, self.output_dim)

        r4 = 2.0 * (out - y)
        g_w4 = np.einsum("nq,nh->nqh", r4, a3).reshape(n, -1)
        d3 = (r4 @ w4) * (a3 * (1.0 - a3))
        g_w3 = np.einsum("nh,nr->nhr", d3, lat).reshape(n, -1)
        dl = d3 @ w3
        g_w2 = np.einsum("nr,nh->nrh", dl, a1).reshape(n, -1)
        d1 = (dl @ w2) * (a1 * (1.0 - a1))
        g_w1 = np.einsum("nh,nq->nhq", d1, xb).reshape(n, -1)
        return np.concatenate([g_w1, d1, g_w2, dl, g_w3, d3, g_w4, r4],
                              axis=1)


def _init_uniform(seed, shapes, fan_in: int, stream: int = 0) -> np.ndarray:
    """Uniform [-a, a] init with a = 1/sqrt(fan_in), seeded per layer."""
    if seed is None:
        raise ValueError("a seed is required to initialize parameters")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), stream]))
    a = 1.0 / np.sqrt(fan_in)
    return np.concatenate(
        [rng.uniform(-a, a, size=int(np.prod(s))) for s in shapes])


_KINDS = ("identity", "affine", "affine_sigmoid", "mlp2", "autoencoder")


def make_model(kind: str, input_dim: int, *, seed: int | None = None,
               hidden_dim: int | None = None, output_dim: int | None = None,
               latent_dim: int = 2,
               output_activation: str | None = None) -> Model:
    """Construct a model by kind with per-architecture defaults."""
    if kind == "identity":
        return IdentityModel(input_dim)
    if kind == "affine":
        return AffineModel(input_dim, 2 if output_dim is None else output_dim,
                           seed=seed)
    if kind == "affine_sigmoid":
        return AffineSigmoidModel(input_dim, seed=seed)
    if kind == "mlp2":
        return Mlp2Model(
            input_dim,
            hidden_dim=64 if hidden_dim is None else hidden_dim,
            output_dim=2 if output_dim is None else output_dim,
            output_activation=output_activation or "sigmoid_recentered",
            seed=seed)
    if kind == "autoencoder":
        return AutoencoderModel(
            input_dim,
            hidden_dim=62 if hidden_dim is None else hidden_dim,
            latent_dim=latent_dim, seed=seed)
    raise ValueError(f"unknown model kind {kind!r}; expected one of {_KINDS}")


def save_model(model: Model, path) -> None:
    """Persist a model as JSON: kind, shape metadata, flat parameter vector."""
    doc = {"schema": _MODEL_SCHEMA, **model.meta(),
           "theta": [float(t) for t in model.theta]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def model_from_meta(meta: dict, theta) -> Model:
    """Rebuild a model from shape metadata plus a flat parameter vector."""
    kind = meta["kind"]
    theta = np.asarray(theta, dtype=np.float64)
    if kind == "identity":
        return IdentityModel(meta["input_dim"])
    if kind == "affine":
        return AffineModel(meta["input_dim"], meta["output_dim"], theta=theta)
    if kind == "affine_sigmoid":
        return AffineSigmoidModel(meta["input_dim"], theta=theta)
    if kind == "mlp2":
        return Mlp2Model(meta["input_dim"], meta["hidden_dim"],
                         meta["output_dim"],
                         output_activation=meta["output_activation"],
                         theta=theta)
    if kind == "autoencoder":
        return AutoencoderModel(meta["input_dim"], meta["hidden_dim"],
                                meta["latent_dim"], theta=theta)
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != _MODEL_SCHEMA:
        raise ValueError(f"not a {_MODEL_SCHEMA} checkpoint: {path}")
    return model_from_meta(doc, doc["theta"])
