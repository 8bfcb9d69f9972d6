"""Supervised regression of every network kind on labeled (x, u, y) triples.

Loss is mean squared error over shuffled mini-batches, optimized with
bias-corrected Adam. Weights start from Xavier-uniform draws with zero
biases. All randomness (init, split, shuffles) flows through one seeded Rng,
so a (seed, data, config) triple reproduces training bit for bit.

Every kind's parameters are the layers of its net `mlp` (a fixed bank's is
one layer over [x; u]), and the trained copy's are reshaped views into one
flat float64 buffer. Every step and loss pass of a `train` call runs in one
TrainWorkspace: a step traces the net, writes the output gradient over its
outputs, makes one reverse pass and ends with one in-place Adam update of
the buffer. lse/plse take the prediction and softmax weights from one
exponential. It all gives the bits of allocating every array and updating
array by array.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .exceptions import (
    ConfigError,
    DimensionMismatch,
    NumericOverflow,
    TrainingDiverged,
)
from .networks import (
    Bank,
    FeedforwardNet,
    MlpParams,
    MlpWorkspace,
    Network,
    bank_weights,
    clone_network,
    embedded_bank,
    forward_batch,
    layer_buffers,
)
from .numerics import Rng, check_count


@dataclass
class Dataset:
    """Labeled triples, stored column-wise: X is (N, n), U is (N, m), y is (N,)."""

    n: int
    m: int
    X: np.ndarray
    U: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.U = np.asarray(self.U, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        N = self.y.shape[0]
        if self.X.shape != (N, self.n) or self.U.shape != (N, self.m):
            raise DimensionMismatch("X, U, y row counts or widths disagree")
        if not (np.isfinite(self.X).all() and np.isfinite(self.U).all()
                and np.isfinite(self.y).all()):
            raise ValueError("dataset entries must be finite")

    @property
    def size(self) -> int:
        return self.y.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.n, self.m, self.X[idx], self.U[idx], self.y[idx])


@dataclass
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 64
    split_ratio: float = 0.9
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        check_count("epochs", self.epochs, ConfigError)
        check_count("batch_size", self.batch_size, ConfigError)
        check_count("seed", self.seed, ConfigError, minimum=0)
        if not (0.0 < self.split_ratio < 1.0):
            raise ConfigError("split_ratio must lie strictly between 0 and 1")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ConfigError("adam_eps must be positive")


_INT_KEYS = {"epochs", "batch_size", "seed"}


def key_value_lines(text: str):
    """(line number, key, value) for each key=value line of a config text,
    key and value stripped; '#' starts a comment and blank lines are
    skipped. Raises ConfigError naming the line for any other line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        yield lineno, key.strip(), val.strip()


def parse_train_config(text: str) -> TrainConfig:
    """key=value lines; '#' starts a comment; unknown keys rejected."""
    values = {}
    for lineno, key, val in key_value_lines(text):
        if key not in TrainConfig.__dataclass_fields__:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = int(val) if key in _INT_KEYS else float(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    return TrainConfig(**values)


@dataclass
class TrainReport:
    train_losses: list
    test_losses: list
    final_test_mse: float
    wall_time_s: float
    epoch_times_s: list = field(default_factory=list)  # per epoch, losses included

    def to_json(self) -> dict:
        return {"epochs": len(self.train_losses), **asdict(self)}


# --- initialization --------------------------------------------------------


def xavier_init(n_in: int, n_out: int, rng: Rng) -> np.ndarray:
    """(n_out, n_in) matrix, entries uniform in +-sqrt(6)/sqrt(n_in + n_out)."""
    if n_in < 1 or n_out < 1:
        raise ValueError("layer widths must be >= 1")
    bound = np.sqrt(6.0) / np.sqrt(n_in + n_out)
    return rng.uniform_in(-bound, bound, n_out * n_in).reshape(n_out, n_in)


def init_mlp(widths, rng: Rng) -> MlpParams:
    Ws = [xavier_init(widths[k], widths[k + 1], rng) for k in range(len(widths) - 1)]
    bs = [np.zeros(widths[k + 1]) for k in range(len(widths) - 1)]
    return MlpParams(weights=Ws, biases=bs)


def init_network(
    kind: str,
    n: int,
    m: int,
    seed: int,
    I: int = 30,
    T: float = 0.1,
    hidden: tuple = (64, 64),
) -> Network:
    """Fresh network of the given kind with Xavier weights and zero biases.

    Fixed banks (ma/lse) draw every plane coefficient of their one layer,
    offsets included, with the per-scalar Xavier bound (n_in = n_out = 1),
    i.e. uniform in +-sqrt(3).
    """
    rng = Rng(seed)
    if kind == "fnn":
        return FeedforwardNet(
            n=n, m=m, mlp=init_mlp([n + m, *hidden, 1], rng), seed=seed
        )
    T = T if kind in ("lse", "plse") else None
    if kind in ("ma", "lse"):
        A = rng.uniform_in(-np.sqrt(3.0), np.sqrt(3.0), I * (n + m)).reshape(I, n + m)
        b = rng.uniform_in(-np.sqrt(3.0), np.sqrt(3.0), I)
        return Bank(n=n, m=m, mlp=MlpParams([A], [b]), T=T, seed=seed)
    if kind in ("pma", "plse"):
        return Bank(n=n, m=m, mlp=init_mlp([n, *hidden, (m + 1) * I], rng), T=T,
                    seed=seed)
    raise ConfigError(f"unknown network kind {kind!r}")


# --- loss and gradients ----------------------------------------------------


def mse_loss(net: Network, X: np.ndarray, U: np.ndarray, y: np.ndarray,
             ws: TrainWorkspace | None = None) -> float:
    """MSE at rows (X, U); an MLP runs in the loss buffers of `ws`."""
    pred = forward_batch(net, X, U, None if ws is None else ws.loss)
    r = pred - np.asarray(y, dtype=np.float64)
    # an overflowing square is the divergence signal the trainer checks for
    with np.errstate(over="ignore"):
        return float(np.mean(r * r))


def parameters(net: Network) -> list:
    """Live references to the trainable arrays, in the frozen canonical order:
    the layers of net.mlp interleaved, [W0, b0, W1, b1, ...]."""
    return [p for W, b in zip(net.mlp.weights, net.mlp.biases) for p in (W, b)]


def _views(flat: np.ndarray, arrays: list) -> list:
    """Consecutive views of flat, shaped like arrays."""
    parts = np.split(flat, np.cumsum([p.size for p in arrays])[:-1])
    return [v.reshape(p.shape) for v, p in zip(parts, arrays)]


def _flatten_parameters(net: Network) -> np.ndarray:
    """Copy parameters(net) into one float64 buffer, in that order, and
    rebind the net's arrays to reshaped views of it, so one update of the
    buffer updates every parameter. Shapes and values are unchanged."""
    params = parameters(net)
    flat = np.concatenate(params, axis=None)
    views = _views(flat, params)
    net.mlp.weights, net.mlp.biases = views[0::2], views[1::2]
    return flat


class TrainWorkspace:
    """A net's buffers for steps over up to `rows` rows and loss passes over
    up to `loss_rows`: `grads`, views of the flat `grad` shaped like
    parameters(net); the step's MlpWorkspace `mlp`; and mlp_forward_batch's
    buffers `loss`."""

    def __init__(self, net: Network, rows: int, loss_rows: int = 0):
        params = parameters(net)
        self.grad = np.empty(sum(p.size for p in params))
        self.grads = _views(self.grad, params)
        self.mlp = MlpWorkspace(net.mlp, rows)
        self.loss = layer_buffers(net.mlp, loss_rows)


def weight_gradients(
    net: Network, X: np.ndarray, U: np.ndarray, y: np.ndarray,
    ws: TrainWorkspace | None = None,
) -> list:
    """Gradient of mse_loss w.r.t. parameters(net), same order and shapes.

    Returns the views `grads` of `ws`, or of a workspace made for the call,
    valid until its next step.

    The max in ma/pma routes gradient to the active plane only (lowest index
    on ties), the standard subgradient choice for max-affine training.
    """
    X, U, y = (np.asarray(a, dtype=np.float64) for a in (X, U, y))
    B = y.shape[0]
    if B == 0:
        raise ValueError("batch must be nonempty")
    if ws is None:
        ws = TrainWorkspace(net, B)
    elif B > len(ws.mlp.Z):
        raise DimensionMismatch(f"batch of {B} rows, workspace for {len(ws.mlp.Z)}")
    # a run heading for divergence may pass non-finite values through here;
    # the train loop's loss check owns that failure, so keep numpy quiet
    with np.errstate(over="ignore", invalid="ignore"):
        _weight_gradients(net, X, U, y, B, ws)
    return ws.grads


def _weight_gradients(net, X, U, y, B, ws):
    # the net reads x alone (pma/plse) or [x; u]; the output gradient
    # overwrites its outputs
    Z = ws.mlp.Z[:B]
    if net.mlp.n_in == net.n:
        Z[...] = X
    else:
        Z[:, : net.n], Z[:, net.n :] = X, U
    out = ws.mlp.forward(B)
    if isinstance(net, FeedforwardNet):
        np.subtract(out[:, 0], y, out=out[:, 0])
        out *= 2.0 / B
    elif not net.parameterized:
        # the outputs are the plane scores; d pred / d score_i is w_i
        pred, w = bank_weights(out, net.T)
        np.multiply(w, ((2.0 / B) * (pred - y))[:, None], out=out)
    else:
        A_x, b_x = embedded_bank(net, out)
        pred, w = bank_weights(np.einsum("bim,bm->bi", A_x, U) + b_x, net.T)
        # in the bank's layout: d pred / d A_x[i, j] is w_i * u_j and
        # d pred / d b_x[i] is w_i
        np.multiply(w, ((2.0 / B) * (pred - y))[:, None], out=b_x)
        np.multiply(b_x[:, :, None], U[:, None, :], out=A_x)
    ws.mlp.backward(B, out, ws.grads)


# --- Adam ------------------------------------------------------------------


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0
    scratch: list = field(init=False, repr=False, compare=False)  # one per m

    def __post_init__(self):
        self.scratch = [np.empty_like(a) for a in self.m]

    @staticmethod
    def for_params(params: list) -> "AdamState":
        return AdamState(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(
    state: AdamState,
    params: list,
    grads: list,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    out: list | None = None,
) -> list:
    """One bias-corrected Adam update; advances state in place and returns
    the new parameter arrays: new ones, or `out` (which may be params), in
    which case the step is formed in grads and nothing is allocated.

    The moments are updated in place and each array's step is formed in the
    state's scratch and one more array, with the rounding of
    p - lr * m_hat / (sqrt(v_hat) + eps) term for term, so one call over a
    flat concatenation of arrays equals one call over the arrays.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionMismatch("params, grads, state lengths disagree")
    state.t += 1
    t = state.t
    c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
    new = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise DimensionMismatch(f"param {i}: gradient shape {g.shape} != {p.shape}")
        m, v, scratch = state.m[i], state.v[i], state.scratch[i]
        np.multiply(g, 1.0 - beta1, out=scratch)
        m *= beta1
        m += scratch  # beta1 * m + (1 - beta1) * g
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - beta2
        v *= beta2
        v += scratch  # beta2 * v + (1 - beta2) * (g * g)
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps  # sqrt(v_hat) + eps
        step = np.divide(m, c1, out=None if out is None else g)
        step *= lr
        step /= scratch  # lr * m_hat / (sqrt(v_hat) + eps)
        new.append(np.subtract(p, step, out=step if out is None else out[i]))
    return new


# --- split and train loop --------------------------------------------------


def split_dataset(ds: Dataset, ratio: float, rng: Rng) -> tuple[Dataset, Dataset]:
    """Shuffle then prefix split: sizes floor(ratio*N) and the remainder."""
    if ds.size == 0:
        raise ValueError("cannot split an empty dataset")
    if not (0.0 < ratio < 1.0):
        raise ConfigError("split ratio must lie strictly between 0 and 1")
    perm = rng.shuffle_indices(ds.size)
    cut = int(ratio * ds.size)
    return ds.subset(perm[:cut]), ds.subset(perm[cut:])


def train(net: Network, ds: Dataset, cfg: TrainConfig) -> tuple[Network, TrainReport]:
    """Train a copy of `net` on a 90:10-style internal split of `ds`.

    The split consumes the first draws of Rng(cfg.seed), so callers can
    recover the exact same partition via split_dataset(ds, cfg.split_ratio,
    Rng(cfg.seed)).
    """
    if ds.n != net.n or ds.m != net.m:
        raise DimensionMismatch("dataset dims do not match the network")
    t0 = time.perf_counter()
    rng = Rng(cfg.seed)
    train_ds, test_ds = split_dataset(ds, cfg.split_ratio, rng)
    net = clone_network(net)
    flat = _flatten_parameters(net)
    state = AdamState.for_params([flat])
    ws = TrainWorkspace(net, min(cfg.batch_size, train_ds.size),
                        max(train_ds.size, test_ds.size))
    train_losses, test_losses, epoch_times = [], [], []
    for _ in range(cfg.epochs):
        t_epoch = time.perf_counter()
        perm = rng.shuffle_indices(train_ds.size)
        for start in range(0, train_ds.size, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            weight_gradients(net, train_ds.X[idx], train_ds.U[idx],
                             train_ds.y[idx], ws)
            adam_step(state, [flat], [ws.grad], cfg.learning_rate, cfg.adam_beta1,
                      cfg.adam_beta2, cfg.adam_eps, out=[flat])
        try:
            tr = mse_loss(net, train_ds.X, train_ds.U, train_ds.y, ws)
            te = mse_loss(net, test_ds.X, test_ds.U, test_ds.y, ws)
        except NumericOverflow as exc:
            raise TrainingDiverged(str(exc)) from exc
        if not (np.isfinite(tr) and np.isfinite(te)):
            raise TrainingDiverged(f"loss became non-finite (train={tr}, test={te})")
        train_losses.append(tr)
        test_losses.append(te)
        epoch_times.append(time.perf_counter() - t_epoch)
    report = TrainReport(
        train_losses=train_losses,
        test_losses=test_losses,
        final_test_mse=test_losses[-1],
        wall_time_s=time.perf_counter() - t0,
        epoch_times_s=epoch_times,
    )
    return net, report
