"""Network types, forward evaluation, and differentiation in the decision u.

Two types, each holding its coefficients in one feedforward net `mlp`. A
`Bank` is a bank of I planes affine in u, reduced by a max or by a
T-log-sum-exp. Its net is either one affine layer over the joint vector
z = [x; u], whose outputs are the planes (fixed coefficients), or a net of
the condition x whose outputs are the planes' coefficients. The four
combinations are the convex kinds: a max of affine planes ("ma"), its
log-sum-exp smoothing ("lse"), and their parameterized versions ("pma",
"plse"). A `FeedforwardNet` ("fnn") is an unstructured baseline on [x; u].

For fixed x every bank is convex in u by construction: a max or
log-sum-exp of functions affine in u, and every bank is scored that way:
`u_bank_batch` gives the coefficients A_u(x), c(x) (a fixed bank's c is
`mlp_offset` of x) and `bank_scores` the planes A_u(x) u + c(x), for
forward values, u-gradients, pma/plse training steps, checks and solver
values.

A net's parameters live in one float64 vector, `MlpParams.flat`, and its
layers are reshaped views of it; that layout is decided here alone.

Evaluation is batch-first: `forward_batch` gives values and `grad_u_batch`
u-gradients at any number of (x, u) rows; a single point is a batch of one
row, and ma/pma have no u-gradient. An fnn is evaluated with its
condition folded into layer 0: `mlp_offset` forms x W0[:, :n]^T + b0 once
per row, and layer 0 multiplies only the u-columns. An MLP's reverse pass
is one kernel, `MlpWorkspace.backward`, over a trace kept in buffers
allocated once: the fnn solver takes u-gradients from it across its
sweeps, training takes weight gradients of the joint [x; u] trace written
into a net-shaped MlpParams. Those are the only kept buffers; every other
evaluation allocates its arrays per call.

Every entry that takes rows or conditions (`forward_batch`,
`grad_u_batch`, `u_bank_batch`, `batch_scores`, the training loss and
gradients, `Dataset` and the solver) checks them by one rule,
`check_rows`: X, U and y are (B, n), (B, m) and (B,), and finite. A
bank's counts and temperature pass numerics' check_count, check_positive.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .exceptions import (
    DimensionMismatch,
    ModelFormatError,
    NonFiniteInput,
    NumericOverflow,
    UnsupportedNetwork,
)
from .numerics import check_count, check_positive

FORMAT_VERSION = 1

# LeakyReLU slope of every hidden layer; the model format does not carry it.
LEAKY_SLOPE = 0.01


@dataclass
class MlpParams:
    """Weights of a feedforward net; LeakyReLU on hidden layers, affine output.

    weights[k] has shape (width_{k+1}, width_k); biases[k] has shape
    (width_{k+1},). The layers given are copied, never aliased, into one
    float64 vector `flat` (W0, b0, W1, b1, ..., each row-major), and
    weights and biases become reshaped views of it: writing flat writes
    every layer.
    """

    weights: list
    biases: list
    flat: np.ndarray = field(init=False, repr=False, compare=False)

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
        arrays = self.arrays()
        self.flat = np.concatenate(arrays, axis=None)
        views = np.split(self.flat, np.cumsum([a.size for a in arrays])[:-1])
        self.weights = [v.reshape(W.shape) for v, W in zip(views[0::2], self.weights)]
        self.biases = views[1::2]

    def arrays(self) -> list:
        """The layers interleaved, [W0, b0, W1, b1, ...]: flat's order."""
        return [p for W, b in zip(self.weights, self.biases) for p in (W, b)]

    @property
    def layer_widths(self) -> list[int]:
        return [self.weights[0].shape[1]] + [W.shape[0] for W in self.weights]

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_out(self) -> int:
        return self.weights[-1].shape[0]


def mlp_offset(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """Layer 0's part from the leading X.shape[1] inputs plus its bias,
    X W0[:, :n]^T + b0 (B, width_1): the per-row offset that folds inputs
    held fixed, an fnn's or a fixed bank's condition x, into layer 0 once."""
    # a C-contiguous (n, width_1) operand: with the transposed view OpenBLAS
    # gives a row's bits that depend on the row count (61x20, 30 rows against
    # 60), and check_convexity's banks must equal forward_batch's on repeated rows
    off = X @ np.ascontiguousarray(params.weights[0][:, : X.shape[1]].T)
    off += params.biases[0]
    return off


def _forward_layers(params: MlpParams, h: np.ndarray, pres=None, acts=None,
                    offset=None):
    """Trace rows h into fresh arrays or into C-contiguous buffers pres[j],
    acts[j] of len(h) rows (the same bits either way); returns the outputs.
    With an offset (len(h), width_1) from mlp_offset, h holds only the
    trailing inputs and layer 0 adds the offset in place of its bias."""
    last = len(params.weights) - 1
    for j, (W, b) in enumerate(zip(params.weights, params.biases)):
        if j == 0 and offset is not None:
            W, b = W[:, W.shape[1] - h.shape[1] :], offset
        pre = np.matmul(h, W.T, out=None if pres is None else pres[j])
        pre += b
        if j != last:
            h = np.multiply(pre, LEAKY_SLOPE, out=None if acts is None else acts[j])
            np.maximum(h, pre, out=h)
    return pre


def mlp_forward_batch(params: MlpParams, inputs: np.ndarray, offset=None) -> np.ndarray:
    """(B, n_in) -> (B, n_out). Hidden layers LeakyReLU, output affine.
    Given mlp_offset's `offset` (B, width_1) of the leading inputs, inputs
    holds the trailing ones only."""
    h = np.asarray(inputs, dtype=np.float64)
    if h.ndim != 2 or (offset is None and h.shape[1] != params.n_in):
        raise DimensionMismatch(f"expected input width {params.n_in}, got {h.shape}")
    # Fresh layers: a caller running one large batch again and again keeps an
    # MlpWorkspace, as a fresh 4,500x64 layer (2.3 MB) is above glibc's mmap
    # threshold and faults in new pages each pass.
    # Overflow surfaces at the callers that own finiteness, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward_layers(params, h, offset=offset)


class MlpWorkspace:
    """Buffers for traces of an MLP over up to `rows` rows and their reverse
    passes: the input Z, and per layer the pre-activation, the activation
    and the gradient with respect to the layer's input.

    With `fixed` > 0 a row's leading `fixed` inputs are folded into layer 0
    once: the caller writes their mlp_offset into `offset`, Z holds the
    trailing inputs, and a reverse pass returns the gradient in those alone
    (weight gradients need fixed = 0, and a scalar output's reverse pass
    takes delta None, the unit gradient).

    A scalar output's unit gradient through the output layer is that
    layer's row broadcast over the rows. With folded inputs it is the only
    output gradient a pass takes, so that layer gets no reverse buffer, and
    a one-layer net's input gradient is a read-only view of its weights.

    A pass over k rows reads Z[:k] and uses the first k rows of every
    buffer. Those are C-contiguous, so each matmul sees the operands a
    freshly allocated (k, width) array would give it, and a pass's bits do
    not depend on `rows`. A caller that solves in place writes its rows
    into Z, runs passes, and compacts by moving its kept rows to the front.
    """

    def __init__(self, params: MlpParams, rows: int, fixed: int = 0):
        self.params = params
        # the layers as the passes see them: layer 0 on the trailing inputs
        self.weights = [params.weights[0][:, fixed:], *params.weights[1:]]
        self.Z = np.empty((rows, params.n_in - fixed))
        self.offset = np.empty((rows, params.weights[0].shape[0])) if fixed else None
        self.pres = [np.empty((rows, W.shape[0])) for W in params.weights]
        # hidden activations, then the reverse pass's LeakyReLU derivatives
        self.acts = [np.empty((rows, W.shape[0])) for W in params.weights[:-1]]
        # a folded scalar net's passes start from `unit`: no output-layer buffer
        last = len(self.weights) - (fixed > 0 and params.n_out == 1)
        self.grads = [np.empty((rows, W.shape[1])) for W in self.weights[:last]]
        # value_and_grad's unit output gradient through a scalar output layer
        W = self.weights[-1]
        self.unit = np.broadcast_to(W, (rows, W.shape[1])) if params.n_out == 1 else None
        self._k, self._views = None, None

    def _first(self, k: int) -> tuple:
        """The first k rows of Z, offset, pres, acts, grads and unit (arrays,
        lists of arrays or None), cut again only when k changes: a pass over
        a few rows costs about its count of NumPy calls."""
        if k != self._k:
            self._k, self._views = k, (
                self.Z[:k], None if self.offset is None else self.offset[:k],
                [v[:k] for v in self.pres], [v[:k] for v in self.acts],
                [v[:k] for v in self.grads], None if self.unit is None else self.unit[:k])
        return self._views

    def forward(self, k: int) -> np.ndarray:
        """Trace rows Z[:k]; the outputs (k, n_out), a view."""
        Z, offset, pres, acts = self._first(k)[:4]
        return _forward_layers(self.params, Z, pres, acts, offset)

    def backward(self, k: int, delta, grads: MlpParams | None = None):
        """Reverse pass through the last forward(k) from delta (k, n_out), the
        output gradient (None: a scalar output's unit one). Fills the layers
        of grads, an MlpParams shaped like the net, if given, else returns
        the gradients in the inputs Z holds."""
        Ws, (Z, _, pres, acts, gs, unit) = self.weights, self._first(k)
        for j in range(len(Ws) - 1, -1, -1):
            if grads is not None:
                inputs = Z if j == 0 else acts[j - 1]
                np.matmul(delta.T, inputs, out=grads.weights[j])
                np.add.reduce(delta, axis=0, out=grads.biases[j])
                if j == 0:
                    return None
            g = unit if delta is None else np.matmul(delta, Ws[j], out=gs[j])
            if j == 0:
                return g
            # kink at 0 resolved to the shallow branch, as is NaN; the mask
            # is exactly 1.0 or LEAKY_SLOPE
            delta = acts[j - 1]
            np.greater(pres[j - 1], 0.0, out=delta)
            np.maximum(delta, LEAKY_SLOPE, out=delta)
            np.multiply(g, delta, out=delta)

    def value_and_grad(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """One trace of a scalar-output MLP at rows Z[:k]: the outputs (k,),
        equal to mlp_forward_batch's, and their gradients (k, Z's width) in
        the inputs Z holds, by reverse mode. Both are views into the
        workspace, valid until the next pass; callers copy from them and do
        not write to them."""
        if self.unit is None:
            raise DimensionMismatch("input gradient defined for scalar outputs only")
        return self.forward(k)[:, 0], self.backward(k, None)


def _check_dims_and_seed(net: Network) -> None:
    """check_count's rule on a net's n, m and seed (None or >= 0); the seed
    is kept as a Python int, which the model format writes and reads."""
    check_count("n", net.n)
    check_count("m", net.m)
    if net.seed is not None:
        check_count("seed", net.seed, minimum=0)
        net.seed = int(net.seed)


@dataclass
class FeedforwardNet:
    kind: ClassVar[str] = "fnn"
    n: int
    m: int
    mlp: MlpParams
    seed: int | None = None

    def __post_init__(self):
        _check_dims_and_seed(self)
        if self.mlp.n_in != self.n + self.m or self.mlp.n_out != 1:
            raise DimensionMismatch("fnn mlp must map n+m inputs to one output")


@dataclass
class Bank:
    """I planes affine in u, reduced by max_i (T None) or by
    T * log sum_i exp(. / T).

    The net's input width says where the coefficients come from. A net of
    the n-vector x makes the bank parameterized (pma/plse): its first I*m
    outputs are the slopes a_i(x) row by row, its last I the offsets b_i(x).
    One affine layer over the joint (n+m)-vector [x; u] makes it fixed
    (ma/lse): plane i is <W[i], [x; u]> + b[i].
    """

    n: int
    m: int
    mlp: MlpParams
    T: float | None = None
    seed: int | None = None

    def __post_init__(self):
        _check_dims_and_seed(self)
        if self.parameterized:
            if self.mlp.n_out % (self.m + 1):
                raise DimensionMismatch(
                    f"a parameterized bank's net must output (m+1)*I values, "
                    f"m+1 = {self.m + 1}"
                )
        elif self.mlp.n_in != self.n + self.m or len(self.mlp.weights) != 1:
            raise DimensionMismatch(
                "a bank's net reads x (n inputs) or is one layer over [x; u] (n+m)"
            )
        check_count("I", self.I)
        if self.T is not None:
            check_positive("temperature", self.T)

    @property
    def parameterized(self) -> bool:
        """Whether the coefficients are a function of x (pma/plse)."""
        return self.mlp.n_in == self.n

    @property
    def I(self) -> int:
        return self.mlp.n_out // (self.m + 1) if self.parameterized else self.mlp.n_out

    @property
    def kind(self) -> str:
        """The kind name: ma, lse, pma or plse."""
        return ("p" if self.parameterized else "") + ("ma" if self.T is None else "lse")


Network = Union[FeedforwardNet, Bank]


def check_rows(n: int, m: int, *rows) -> list:
    """The rows (X), (X, U) or (X, U, y) as float64 arrays, checked to be
    (B, n), (B, m) and (B,) and finite: the one check of every entry that
    takes rows or conditions. Raises DimensionMismatch on other shapes,
    which numpy would broadcast into values of the wrong rows, and
    NonFiniteInput on a NaN or an infinity, which would pass into them
    unreported."""
    rows = [np.asarray(a, dtype=np.float64) for a in rows]
    B = rows[0].shape[:1]
    if [a.shape for a in rows] != [B + (n,), B + (m,), B][: len(rows)]:
        want = ", ".join((f"(B, {n})", f"(B, {m})", "(B,)")[: len(rows)])
        raise DimensionMismatch(f"{', '.join('XUy'[: len(rows)])} must be {want}, "
                                f"got {', '.join(str(a.shape) for a in rows)}")
    for name, a in zip("XUy", rows):
        if not np.isfinite(a).all():
            raise NonFiniteInput(f"{name} must be finite")
    return rows


# --- banks -----------------------------------------------------------------


def u_bank_batch(net: Network, X: np.ndarray) -> tuple:
    """Affine banks in u for B conditions: (A_u (B, I, m), c (B, I)), row b
    giving the plane values A_u[b] @ u + c[b] at X[b] (see bank_scores).

    A fixed bank's planes share one slope matrix, a read-only broadcast
    view, and their offsets are mlp_offset(X); a parameterized bank's are
    its net's outputs, one pass for all rows. Conditions check_rows
    rejects raise its errors; overflow is left to the caller.
    """
    if isinstance(net, FeedforwardNet):
        raise UnsupportedNetwork("fnn has no affine bank in u")
    (X,) = check_rows(net.n, net.m, X)
    if net.parameterized:
        return embedded_bank(net, mlp_forward_batch(net.mlp, X))
    with np.errstate(over="ignore", invalid="ignore"):
        c = mlp_offset(net.mlp, X)
    return np.broadcast_to(net.mlp.weights[0][:, net.n :], (len(X), net.I, net.m)), c


def embedded_bank(net: Bank, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The banks (A_u (B, I, m), c (B, I)) laid out in the outputs out
    (B, (m+1)*I) of a parameterized bank's net. The layout is frozen: the
    first I*m outputs fill A_u row by row, the remaining I fill c."""
    m = net.m
    I = out.shape[1] // (m + 1)
    return out[:, : I * m].reshape(-1, I, m), out[:, I * m :]


def bank_scores(A_u: np.ndarray, U: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Plane values A_u @ u + c (..., I) of banks A_u (..., I, m), c (..., I)
    at points U (..., m), broadcast over the leading axes: the one scoring
    of every bank outside the solver cores."""
    S = np.einsum("...im,...m->...i", A_u, U)
    S += c
    return S


def batch_scores(net: Network, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Plane values (B, I) of a bank at rows (X, U)."""
    X, U = check_rows(net.n, net.m, X, U)
    A_u, c = u_bank_batch(net, X)
    return bank_scores(A_u, U, c)


def shifted_lse(scores: np.ndarray, T: float) -> np.ndarray:
    """T * log sum exp(scores/T) over the planes of scores (B, I): bank_weights'."""
    return bank_weights(scores, T)[0]


def bank_values(S: np.ndarray, T: float | None) -> np.ndarray:
    """Values (B,) of banks at plane scores S (B, I): the max for T None,
    else the T-log-sum-exp. Equal to bank_weights(S, T)[0]; a max skips
    the one-hot weights."""
    return S.max(1) if T is None else shifted_lse(S, T)


def bank_weights(S: np.ndarray, T: float | None) -> tuple[np.ndarray, np.ndarray]:
    """bank_values(S, T) and their weights (B, I) over the planes: for T
    None the one-hot of the argmax (lowest index on ties), else the
    softmax exp((S - max) / T) normalized over each row, from the same
    shifted exponential as the log-sum-exp, formed in one buffer."""
    if T is not None:
        top = S.max(axis=1, keepdims=True)
        p = np.subtract(S, top)
        p /= T
        np.exp(p, out=p)
        total = p.sum(axis=1)
        p /= total[:, None]
        return T * np.log(total) + top[:, 0], p
    onehot = np.zeros_like(S)
    onehot[np.arange(S.shape[0]), np.argmax(S, axis=1)] = 1.0
    return S.max(1), onehot


def bank_grad(P: np.ndarray, A_u: np.ndarray) -> np.ndarray:
    """Row-wise P[b] @ A_u[b] (B, m): the u-gradient of banks A_u (B, I, m)
    whose planes carry the weights P (B, I), such as bank_weights'."""
    return (P[:, None, :] @ A_u)[:, 0, :]


# --- evaluation ------------------------------------------------------------
# Every entry point runs its arithmetic with overflow warnings off and
# raises NumericOverflow on a non-finite result instead.


def _finite(net: Network, out: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NumericOverflow(f"{net.kind} {what} produced a non-finite value")
    return out


def forward_batch(net: Network, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Row-wise predictions (B,) at X (B, n), U (B, m). Raises
    NonFiniteInput on a non-finite input and NumericOverflow on a
    non-finite value."""
    X, U = check_rows(net.n, net.m, X, U)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(net, FeedforwardNet):
            out = mlp_forward_batch(net.mlp, U, mlp_offset(net.mlp, X))[:, 0]
        else:
            out = bank_values(batch_scores(net, X, U), net.T)
    return _finite(net, out, "forward")


# No library code calls `forward`: it stays while the benchmark's traced run
# hooks it by name (perfbench/spans.py), and goes with that hook.
def forward(net: Network, x: np.ndarray, u: np.ndarray) -> float:
    """forward_batch at one point (x, u), as a float."""
    return float(forward_batch(net, np.asarray(x)[None], np.asarray(u)[None])[0])


def grad_u_batch(net: Network, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Gradient in u for the smooth kinds (lse, plse, fnn), row-wise: X is
    (B, n), U is (B, m), result (B, m). Raises NonFiniteInput on a
    non-finite input and NumericOverflow on a non-finite result.

    ma/pma are piecewise linear in u and raise UnsupportedNetwork rather
    than return one arbitrary subgradient.
    """
    X, U = check_rows(net.n, net.m, X, U)
    if isinstance(net, Bank) and net.T is None:
        raise UnsupportedNetwork(f"{net.kind} is nonsmooth in u: no u-gradient")
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(net, FeedforwardNet):
            ws = MlpWorkspace(net.mlp, X.shape[0], fixed=net.n)
            ws.offset[...], ws.Z[...] = mlp_offset(net.mlp, X), U
            # a one-layer net's gradient is a read-only view of its weights
            out = np.require(ws.value_and_grad(X.shape[0])[1], requirements="W")
        else:
            # the plane slopes weighted by the softmax; overflowed scores raise
            A_u, c = u_bank_batch(net, X)
            S = _finite(net, bank_scores(A_u, U, c), "scoring")
            out = bank_grad(bank_weights(S, net.T)[1], A_u)
    return _finite(net, out, "gradient")


# --- twins and copies ------------------------------------------------------


def nonsmooth_twin(net: Network) -> Network:
    """The max bank sharing the given bank's coefficients (lse -> ma,
    plse -> pma)."""
    if isinstance(net, FeedforwardNet):
        raise UnsupportedNetwork("fnn has no max-affine twin")
    return dataclasses.replace(net, T=None)


def clone_network(net: Network) -> Network:
    """A copy with its own parameter vector, so it can be mutated without
    aliasing the original."""
    return dataclasses.replace(net, mlp=MlpParams(net.mlp.weights, net.mlp.biases))


# --- serialization ---------------------------------------------------------
# One frozen JSON layout for all kinds. "weights" holds one {"W", "b"} entry
# per layer of the net, W flattened row-major: a fixed bank's is its single
# layer over [x; u].

_BANK_KINDS = ("ma", "lse", "pma", "plse")


def _model_header(net: Network) -> dict:
    """The model document without its "weights"."""
    bank = isinstance(net, Bank)
    return {
        "format_version": FORMAT_VERSION,
        "kind": net.kind,
        "n": net.n,
        "m": net.m,
        "I": net.I if bank else None,
        "T": net.T if bank else None,
        "seed": net.seed,
        "layer_widths": net.mlp.layer_widths,
    }


def model_to_json(net: Network) -> dict:
    return {
        **_model_header(net),
        "weights": [
            {"W": W.ravel().tolist(), "b": b.tolist()}
            for W, b in zip(net.mlp.weights, net.mlp.biases)
        ],
    }


def _mlp_from_json(doc: dict) -> MlpParams:
    widths, layers = doc["layer_widths"], doc["weights"]
    if len(layers) != len(widths) - 1:
        raise ModelFormatError(f"{len(widths)} layer widths, {len(layers)} layers")
    Ws, bs = [], []
    for k, (n_in, n_out, layer) in enumerate(zip(widths, widths[1:], layers)):
        Ws.append(np.array(layer["W"], dtype=np.float64).reshape(n_out, n_in))
        bs.append(np.array(layer["b"], dtype=np.float64))
        if not (np.isfinite(Ws[k]).all() and np.isfinite(bs[k]).all()):
            raise ModelFormatError(f"layer {k} holds a non-finite weight or bias")
    return MlpParams(weights=Ws, biases=bs)


def model_from_json(doc: dict) -> Network:
    """The network a model document describes. Raises ModelFormatError for a
    document that is not one: a missing key, a format_version other than
    the integer FORMAT_VERSION, a seed that is neither null nor an integer
    >= 0, a bank's plane count I that is not an integer >= 1, shapes that
    disagree, a NaN or infinite weight or bias (which `json.load` accepts),
    or a kind that disagrees with the stored temperature, layers or plane
    count (an fnn's T and I must be null)."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"model JSON is a {type(doc).__name__}, not an object")
    try:
        return _model_from_doc(doc)
    except KeyError as exc:
        raise ModelFormatError(f"model JSON lacks key {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model JSON: {exc}") from exc


def _model_from_doc(doc: dict) -> Network:
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # a bool is no version
        raise ValueError(f"unsupported model format_version {version!r}")
    kind, n, m = doc["kind"], doc["n"], doc["m"]
    seed = doc.get("seed")  # the net checks it
    T, I = doc.get("T"), doc["I"]
    if kind == "fnn":
        if T is not None or I is not None:
            raise ModelFormatError(f"an fnn model takes null T and I, got T={T!r}, I={I!r}")
        return FeedforwardNet(n=n, m=m, mlp=_mlp_from_json(doc), seed=seed)
    if kind not in _BANK_KINDS:
        raise ValueError(f"unknown network kind {kind!r}")
    check_count("I", I)
    if (T is None) != kind.endswith("ma"):
        raise ModelFormatError(
            f"a {kind} model {'needs a' if T is None else 'takes no'} temperature T"
        )
    net = Bank(n=n, m=m, mlp=_mlp_from_json(doc), T=T, seed=seed)
    if net.kind != kind:
        raise ModelFormatError(f"a {kind} model holds the layers of a {net.kind} bank")
    if net.I != I:
        raise ModelFormatError(f"I={I} disagrees with the net's {net.mlp.n_out} outputs")
    return net


_JSON_CHUNK = 4096  # weights formatted per json.dumps call by save_model
_JSON_ITEM = ",\n    "  # json.dump(..., indent=1)'s separator in a layer's lists


def _write_numbers(fh, values: np.ndarray) -> None:
    """Write the 1-D float array as json.dump(..., indent=1) lays out the
    list of a layer's "W" or "b" (depth 3). json's C encoder formats it,
    _JSON_CHUNK values at a time, so no whole-layer list or string is made."""
    fh.write("[\n    ")
    for first in range(0, len(values), _JSON_CHUNK):
        chunk = values[first : first + _JSON_CHUNK].tolist()
        fh.write((_JSON_ITEM if first else "")
                 + json.dumps(chunk, separators=(_JSON_ITEM, ":"))[1:-1])
    fh.write("\n   ]")


def save_model(net: Network, path) -> None:
    """Write model_to_json(net) as json.dump(doc, fh, sort_keys=True,
    indent=1) lays it out, byte for byte, and a newline. An indenting
    json.dump runs json's pure-Python encoder over the whole document; here
    only the header goes through it, and the weights are written layer by
    layer by _write_numbers."""
    head = json.dumps(_model_header(net), sort_keys=True, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        # "weights" sorts after every header key: it is the document's last
        fh.write(head[: -len("\n}")] + ',\n "weights": [')
        for k, (W, b) in enumerate(zip(net.mlp.weights, net.mlp.biases)):
            fh.write(("," if k else "") + '\n  {\n   "W": ')
            _write_numbers(fh, W.ravel())
            fh.write(',\n   "b": ')
            _write_numbers(fh, b)
            fh.write("\n  }")
        fh.write("\n ]\n}\n")


def load_model(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
