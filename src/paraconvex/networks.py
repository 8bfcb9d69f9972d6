"""Network kinds, forward evaluation, and differentiation in the decision u.

Five kinds. Two are classic convex approximators over the joint vector
z = [x; u]: a max of affine planes ("ma") and its log-sum-exp smoothing
("lse"). Two are their parameterized versions where the plane coefficients
a_i(x), b_i(x) come from an embedded feedforward net evaluated at the
condition x ("pma", "plse"). The fifth ("fnn") is an unstructured
feedforward baseline on [x; u].

For fixed x, ma/lse/pma/plse are convex in u by construction: each is a max
or log-sum-exp of functions affine in u.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .exceptions import (
    DimensionMismatch,
    ModelFormatError,
    NumericOverflow,
    UnsupportedNetwork,
)

FORMAT_VERSION = 1


def leaky_relu(v: np.ndarray, slope: float) -> np.ndarray:
    return np.maximum(slope * v, v)


@dataclass
class MlpParams:
    """Weights of a feedforward net; LeakyReLU on hidden layers, affine output.

    weights[k] has shape (width_{k+1}, width_k); biases[k] has shape
    (width_{k+1},).
    """

    weights: list
    biases: list
    leaky_slope: float = 0.01

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise DimensionMismatch("need one bias vector per weight matrix")
        self.weights = [np.asarray(W, dtype=np.float64) for W in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
                raise DimensionMismatch(f"layer {k}: weight/bias shapes disagree")
            if k > 0 and W.shape[1] != self.weights[k - 1].shape[0]:
                raise DimensionMismatch(f"layer {k}: input width mismatch")

    @property
    def layer_widths(self) -> list[int]:
        return [self.weights[0].shape[1]] + [W.shape[0] for W in self.weights]

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_out(self) -> int:
        return self.weights[-1].shape[0]


def mlp_forward_batch(params: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """(B, n_in) -> (B, n_out). Hidden layers LeakyReLU, output affine."""
    h = np.asarray(inputs, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.n_in:
        raise DimensionMismatch(
            f"expected input width {params.n_in}, got {h.shape}"
        )
    last = len(params.weights) - 1
    # overflow surfaces as NumericOverflow/TrainingDiverged at the callers
    # that own the finiteness contract, not as a numpy warning here
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (W, b) in enumerate(zip(params.weights, params.biases)):
            h = h @ W.T + b
            if k != last:
                h = leaky_relu(h, params.leaky_slope)
    return h


def mlp_forward(params: MlpParams, inp: np.ndarray) -> np.ndarray:
    inp = np.asarray(inp, dtype=np.float64)
    if inp.ndim != 1:
        raise DimensionMismatch("mlp_forward expects a 1-D input")
    return mlp_forward_batch(params, inp[None, :])[0]


@dataclass
class FeedforwardNet:
    kind: ClassVar[str] = "fnn"
    n: int
    m: int
    mlp: MlpParams
    seed: int | None = None

    def __post_init__(self):
        if self.mlp.n_in != self.n + self.m or self.mlp.n_out != 1:
            raise DimensionMismatch("fnn mlp must map n+m inputs to one output")


@dataclass
class MaxAffineNet:
    """max_i <A[i], [x;u]> + b[i]."""

    kind: ClassVar[str] = "ma"
    n: int
    m: int
    A: np.ndarray
    b: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.A.ndim != 2 or self.A.shape[1] != self.n + self.m:
            raise DimensionMismatch("bank A must be (I, n+m)")
        if self.b.shape != (self.A.shape[0],):
            raise DimensionMismatch("bank b must have one entry per plane")

    @property
    def I(self) -> int:
        return self.A.shape[0]


@dataclass
class LogSumExpNet(MaxAffineNet):
    """T * log sum_i exp((<A[i], [x;u]> + b[i]) / T)."""

    kind: ClassVar[str] = "lse"
    T: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.T > 0:
            raise ValueError("temperature must be positive")


@dataclass
class ParamMaxAffineNet:
    """max_i <a_i(x), u> + b_i(x), coefficients from the embedded net."""

    kind: ClassVar[str] = "pma"
    n: int
    m: int
    I: int
    embed: MlpParams
    seed: int | None = None

    def __post_init__(self):
        if self.I < 1:
            raise ValueError("need at least one plane")
        if self.embed.n_in != self.n:
            raise DimensionMismatch("embedded net input width must equal n")
        if self.embed.n_out != (self.m + 1) * self.I:
            raise DimensionMismatch(
                f"embedded net must output (m+1)*I = {(self.m + 1) * self.I} values"
            )


@dataclass
class ParamLogSumExpNet(ParamMaxAffineNet):
    kind: ClassVar[str] = "plse"
    T: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.T > 0:
            raise ValueError("temperature must be positive")


Network = Union[
    FeedforwardNet, MaxAffineNet, LogSumExpNet, ParamMaxAffineNet, ParamLogSumExpNet
]

_BANK_KINDS = ("ma", "lse", "pma", "plse")


def embedded_coeffs(net: Network, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A_of_x (I, m), b_of_x (I,)) from the embedded net's output at x.

    Layout is frozen: the first I*m outputs fill A_of_x row by row, the
    remaining I fill b_of_x.
    """
    if net.kind not in ("pma", "plse"):
        raise UnsupportedNetwork(f"{net.kind} has no embedded coefficient net")
    x = _check_vec(x, net.n, "x")
    out = mlp_forward(net.embed, x)
    return out[: net.I * net.m].reshape(net.I, net.m), out[net.I * net.m :]


def _check_vec(v, length: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (length,):
        raise DimensionMismatch(f"{name} must have length {length}, got shape {v.shape}")
    return v


def u_bank(net: Network, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine bank in u at fixed x: (A_u (I, m), c (I,)) with plane values
    A_u @ u + c.

    For ma/lse the x-part of each joint plane folds into the offset; for
    pma/plse the bank is the embedded net's output at x.
    """
    if net.kind in ("ma", "lse"):
        x = _check_vec(x, net.n, "x")
        return net.A[:, net.n :], net.A[:, : net.n] @ x + net.b
    if net.kind in ("pma", "plse"):
        return embedded_coeffs(net, x)
    raise UnsupportedNetwork(f"{net.kind} has no affine bank in u")


def _scores(net: Network, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    A_u, c = u_bank(net, x)
    u = _check_vec(u, net.m, "u")
    return A_u @ u + c


def shifted_lse(scores: np.ndarray, T: float, axis: int = -1) -> np.ndarray:
    """T * log sum exp(scores/T), stabilized by subtracting the max first."""
    top = np.max(scores, axis=axis, keepdims=True)
    out = T * np.log(np.sum(np.exp((scores - top) / T), axis=axis)) + np.squeeze(
        top, axis=axis
    )
    return out


def softmax_over_T(scores: np.ndarray, T: float, axis: int = -1) -> np.ndarray:
    top = np.max(scores, axis=axis, keepdims=True)
    e = np.exp((scores - top) / T)
    return e / np.sum(e, axis=axis, keepdims=True)


def lse_and_softmax(S: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise T-log-sum-exp of scores S (B, I) and its softmax, from one
    shifted exponential: equal to shifted_lse(S, T, axis=1) and
    softmax_over_T(S, T, axis=1)."""
    top = np.max(S, axis=1, keepdims=True)
    e = np.exp((S - top) / T)
    total = np.sum(e, axis=1)
    return T * np.log(total) + top[:, 0], e / total[:, None]


def forward(net: Network, x: np.ndarray, u: np.ndarray) -> float:
    """Scalar prediction at (x, u). Raises NumericOverflow on non-finite."""
    if net.kind == "fnn":
        x = _check_vec(x, net.n, "x")
        u = _check_vec(u, net.m, "u")
        val = float(mlp_forward(net.mlp, np.concatenate([x, u]))[0])
    else:
        s = _scores(net, x, u)
        if net.kind in ("ma", "pma"):
            val = float(np.max(s))
        else:
            val = float(shifted_lse(s, net.T))
    if not np.isfinite(val):
        raise NumericOverflow(f"{net.kind} forward produced a non-finite value")
    return val


def forward_batch(net: Network, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Row-wise predictions: X is (B, n), U is (B, m), result is (B,)."""
    X = np.asarray(X, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    if X.ndim != 2 or U.ndim != 2 or X.shape[0] != U.shape[0]:
        raise DimensionMismatch("X and U must be 2-D with equal row counts")
    if X.shape[1] != net.n or U.shape[1] != net.m:
        raise DimensionMismatch("column counts must match (n, m)")
    if net.kind == "fnn":
        out = mlp_forward_batch(net.mlp, np.hstack([X, U]))[:, 0]
    else:
        s = batch_scores(net, X, U)
        if net.kind in ("ma", "pma"):
            out = np.max(s, axis=1)
        else:
            out = shifted_lse(s, net.T, axis=1)
    if not np.isfinite(out).all():
        raise NumericOverflow(f"{net.kind} forward produced a non-finite value")
    return out


def u_bank_batch(net: Network, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine banks in u for B conditions: (A_u (B, I, m), c (B, I)), row b
    being the bank u_bank gives at X[b].

    ma/lse planes share one slope matrix, returned as a read-only broadcast
    view; pma/plse banks are the embedded net's outputs, one forward pass
    for all rows.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.n:
        raise DimensionMismatch(f"conditions must be (B, {net.n}), got {X.shape}")
    if net.kind in ("ma", "lse"):
        A_u = np.broadcast_to(net.A[:, net.n :], (X.shape[0], net.I, net.m))
        return A_u, X @ net.A[:, : net.n].T + net.b
    if net.kind in ("pma", "plse"):
        out = mlp_forward_batch(net.embed, X)
        return out[:, : net.I * net.m].reshape(-1, net.I, net.m), out[:, net.I * net.m :]
    raise UnsupportedNetwork(f"{net.kind} has no affine bank in u")


def batch_scores(net: Network, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Plane values (B, I) for bank-based kinds."""
    if net.kind in ("ma", "lse"):
        Z = np.hstack([X, U])
        return Z @ net.A.T + net.b
    A_u, c = u_bank_batch(net, X)
    return np.einsum("bim,bm->bi", A_u, U) + c


def grad_u(net: Network, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Gradient in u for the smooth kinds (lse, plse, fnn).

    ma/pma are piecewise linear; callers must opt into subgrad_u instead of
    silently receiving one arbitrary subgradient.
    """
    if net.kind in ("ma", "pma"):
        raise UnsupportedNetwork(f"{net.kind} is nonsmooth in u; use subgrad_u")
    if net.kind == "fnn":
        x = _check_vec(x, net.n, "x")
        u = _check_vec(u, net.m, "u")
        _, g = _mlp_input_grad_batch(net.mlp, np.concatenate([x, u])[None, :])
        return g[0, net.n :]
    A_u, c = u_bank(net, x)
    u = _check_vec(u, net.m, "u")
    sigma = softmax_over_T(A_u @ u + c, net.T)
    return A_u.T @ sigma


def _mlp_input_grad_batch(params: MlpParams, Z: np.ndarray) -> tuple:
    """One trace of a scalar-output MLP at rows Z (B, n_in): the outputs (B,),
    equal to mlp_forward_batch's, and their input gradients (B, n_in) by
    reverse mode."""
    if params.n_out != 1:
        raise DimensionMismatch("input gradient defined for scalar outputs only")
    pres = []
    h = Z
    last = len(params.weights) - 1
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ W.T + b
        pres.append(z)
        h = leaky_relu(z, params.leaky_slope) if k != last else z
    g = np.ones((Z.shape[0], 1))
    for k in range(last, -1, -1):
        if k != last:
            # kink at 0 resolved to the shallow branch; measure-zero set
            g = g * np.where(pres[k] > 0, 1.0, params.leaky_slope)
        g = g @ params.weights[k]
    return h[:, 0], g


def hidden_preactivations(params: MlpParams, inp: np.ndarray) -> list:
    """Pre-activation vectors of each hidden layer at a single input.

    Finite-difference probes use these to stay away from LeakyReLU kinks,
    where one-sided derivatives disagree.
    """
    inp = np.asarray(inp, dtype=np.float64)
    out = []
    h = inp
    last = len(params.weights) - 1
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = W @ h + b
        if k != last:
            out.append(z)
            h = leaky_relu(z, params.leaky_slope)
    return out


def grad_u_batch(net: Network, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Row-wise grad_u; X is (B, n), U is (B, m), result (B, m)."""
    if net.kind in ("ma", "pma"):
        raise UnsupportedNetwork(f"{net.kind} is nonsmooth in u; use subgrad_u")
    X = np.asarray(X, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    if net.kind == "fnn":
        return _mlp_input_grad_batch(net.mlp, np.hstack([X, U]))[1][:, net.n :]
    if net.kind == "lse":
        sigma = softmax_over_T(batch_scores(net, X, U), net.T, axis=1)
        return sigma @ net.A[:, net.n :]
    A_u, c = u_bank_batch(net, X)
    sigma = softmax_over_T(np.einsum("bim,bm->bi", A_u, U) + c, net.T, axis=1)
    return np.einsum("bi,bim->bm", sigma, A_u)


def subgrad_u(net: Network, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A subgradient in u for ma/pma: the active plane's slope, lowest index
    on ties."""
    if net.kind not in ("ma", "pma"):
        raise UnsupportedNetwork(f"{net.kind}: use grad_u for smooth kinds")
    A_u, c = u_bank(net, x)
    u = _check_vec(u, net.m, "u")
    i_star = int(np.argmax(A_u @ u + c))  # argmax returns the first maximizer
    return A_u[i_star].copy()


def smooth_twin(net: Network, T: float) -> Network:
    """lse/plse sharing the given net's weights (ma -> lse, pma -> plse)."""
    if net.kind == "ma":
        return LogSumExpNet(n=net.n, m=net.m, A=net.A, b=net.b, T=T, seed=net.seed)
    if net.kind == "pma":
        return ParamLogSumExpNet(
            n=net.n, m=net.m, I=net.I, embed=net.embed, T=T, seed=net.seed
        )
    if net.kind in ("lse", "plse"):
        return replace_temperature(net, T)
    raise UnsupportedNetwork(f"{net.kind} has no log-sum-exp twin")


def nonsmooth_twin(net: Network) -> Network:
    """ma/pma sharing the given net's weights (lse -> ma, plse -> pma)."""
    if net.kind == "lse":
        return MaxAffineNet(n=net.n, m=net.m, A=net.A, b=net.b, seed=net.seed)
    if net.kind == "plse":
        return ParamMaxAffineNet(
            n=net.n, m=net.m, I=net.I, embed=net.embed, seed=net.seed
        )
    if net.kind in ("ma", "pma"):
        return net
    raise UnsupportedNetwork(f"{net.kind} has no max-affine twin")


def replace_temperature(net: Network, T: float) -> Network:
    if net.kind == "lse":
        return LogSumExpNet(n=net.n, m=net.m, A=net.A, b=net.b, T=T, seed=net.seed)
    if net.kind == "plse":
        return ParamLogSumExpNet(
            n=net.n, m=net.m, I=net.I, embed=net.embed, T=T, seed=net.seed
        )
    raise UnsupportedNetwork(f"{net.kind} has no temperature")


def _clone_mlp(mlp: MlpParams) -> MlpParams:
    return MlpParams(
        weights=[W.copy() for W in mlp.weights],
        biases=[b.copy() for b in mlp.biases],
        leaky_slope=mlp.leaky_slope,
    )


def clone_network(net: Network) -> Network:
    """Deep copy; the clone's weights can be mutated without aliasing."""
    if net.kind == "fnn":
        return FeedforwardNet(n=net.n, m=net.m, mlp=_clone_mlp(net.mlp), seed=net.seed)
    if net.kind == "ma":
        return MaxAffineNet(n=net.n, m=net.m, A=net.A.copy(), b=net.b.copy(),
                            seed=net.seed)
    if net.kind == "lse":
        return LogSumExpNet(n=net.n, m=net.m, A=net.A.copy(), b=net.b.copy(),
                            T=net.T, seed=net.seed)
    if net.kind == "pma":
        return ParamMaxAffineNet(n=net.n, m=net.m, I=net.I,
                                 embed=_clone_mlp(net.embed), seed=net.seed)
    if net.kind == "plse":
        return ParamLogSumExpNet(n=net.n, m=net.m, I=net.I,
                                 embed=_clone_mlp(net.embed), T=net.T, seed=net.seed)
    raise UnsupportedNetwork(f"unknown kind {net.kind!r}")


# --- serialization ---------------------------------------------------------
# One frozen JSON layout for all kinds. "weights" holds one {"W", "b"} entry
# per layer, W flattened row-major. Bank kinds store the bank as a single
# layer; mlp kinds store the mlp/embed layers in order.


def model_to_json(net: Network) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": net.kind,
        "n": net.n,
        "m": net.m,
        "I": None,
        "T": None,
        "seed": net.seed,
    }
    if net.kind in _BANK_KINDS:
        doc["I"] = net.I
    if net.kind in ("lse", "plse"):
        doc["T"] = net.T
    if net.kind in ("ma", "lse"):
        doc["layer_widths"] = [net.n + net.m, net.I]
        doc["weights"] = [{"W": net.A.ravel().tolist(), "b": net.b.tolist()}]
    else:
        mlp = net.mlp if net.kind == "fnn" else net.embed
        doc["layer_widths"] = mlp.layer_widths
        doc["weights"] = [
            {"W": W.ravel().tolist(), "b": b.tolist()}
            for W, b in zip(mlp.weights, mlp.biases)
        ]
    return doc


def _mlp_from_json(doc: dict) -> MlpParams:
    widths, layers = doc["layer_widths"], doc["weights"]
    if len(layers) != len(widths) - 1:
        raise ModelFormatError(f"{len(widths)} layer widths, {len(layers)} layers")
    Ws, bs = [], []
    for n_in, n_out, layer in zip(widths, widths[1:], layers):
        Ws.append(np.array(layer["W"], dtype=np.float64).reshape(n_out, n_in))
        bs.append(np.array(layer["b"], dtype=np.float64))
    return MlpParams(weights=Ws, biases=bs)


def model_from_json(doc: dict) -> Network:
    """The network a model document describes. Raises ModelFormatError for a
    document that is not one: a missing key, or shapes that disagree."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"model JSON is a {type(doc).__name__}, not an object")
    try:
        return _model_from_doc(doc)
    except KeyError as exc:
        raise ModelFormatError(f"model JSON lacks key {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model JSON: {exc}") from exc


def _model_from_doc(doc: dict) -> Network:
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {doc.get('format_version')}")
    kind, n, m = doc["kind"], doc["n"], doc["m"]
    seed = doc.get("seed")
    if kind == "fnn":
        return FeedforwardNet(n=n, m=m, mlp=_mlp_from_json(doc), seed=seed)
    if kind in ("ma", "lse"):
        if len(doc["weights"]) != 1:
            raise ModelFormatError(f"a {kind} bank is one layer, got {len(doc['weights'])}")
        layer = doc["weights"][0]
        I = doc["I"]
        A = np.array(layer["W"], dtype=np.float64).reshape(I, n + m)
        b = np.array(layer["b"], dtype=np.float64)
        if kind == "ma":
            return MaxAffineNet(n=n, m=m, A=A, b=b, seed=seed)
        return LogSumExpNet(n=n, m=m, A=A, b=b, T=doc["T"], seed=seed)
    if kind in ("pma", "plse"):
        embed = _mlp_from_json(doc)
        if kind == "pma":
            return ParamMaxAffineNet(n=n, m=m, I=doc["I"], embed=embed, seed=seed)
        return ParamLogSumExpNet(
            n=n, m=m, I=doc["I"], embed=embed, T=doc["T"], seed=seed
        )
    raise ValueError(f"unknown network kind {kind!r}")


def save_model(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(net), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
