"""Supervised regression of every network kind on labeled (x, u, y) triples.

Loss is mean squared error over shuffled mini-batches, optimized with
bias-corrected Adam. Weights start from Xavier-uniform draws with zero
biases. All randomness (init, split, shuffles) flows through one seeded Rng,
so a (seed, data, config) triple reproduces training bit for bit.

Every kind's parameters are the layers of its net `mlp` (a fixed bank's is
one layer over [x; u]), reshaped views of the net's one float64 vector
`mlp.flat`. Every step and loss pass of a `train` call runs in one
TrainWorkspace: a step traces the net, writes the output gradient over its
outputs, makes one reverse pass into a gradient net shaped like the net and
ends with one in-place Adam update of `mlp.flat` from the gradient's
`flat`. lse/plse take the prediction and softmax weights from one
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
    bank_scores,
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

    def __post_init__(self):
        check_count("epochs", self.epochs, ConfigError)
        check_count("batch_size", self.batch_size, ConfigError)
        check_count("seed", self.seed, ConfigError, minimum=0)
        if not (0.0 < self.split_ratio < 1.0):
            raise ConfigError("split_ratio must lie strictly between 0 and 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and positive")


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


class TrainWorkspace:
    """A net's buffers for steps over up to `rows` rows and loss passes over
    up to `loss_rows`: `grads`, an MlpParams shaped like the net; the step's
    MlpWorkspace `mlp`; and mlp_forward_batch's buffers `loss`."""

    def __init__(self, net: Network, rows: int, loss_rows: int = 0):
        self.grads = MlpParams(net.mlp.weights, net.mlp.biases)  # each step overwrites it
        self.mlp = MlpWorkspace(net.mlp, rows)
        self.loss = layer_buffers(net.mlp, loss_rows)


def weight_gradients(
    net: Network, X: np.ndarray, U: np.ndarray, y: np.ndarray,
    ws: TrainWorkspace | None = None,
) -> MlpParams:
    """Gradient of mse_loss w.r.t. the parameters of net.mlp, as a net of
    the same shapes.

    Returns the `grads` of `ws`, or of a workspace made for the call, valid
    until its next step or Adam update.

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
        pred, w = bank_weights(bank_scores(A_x, U, b_x), net.T)
        # in the bank's layout: d pred / d A_x[i, j] is w_i * u_j and
        # d pred / d b_x[i] is w_i
        np.multiply(w, ((2.0 / B) * (pred - y))[:, None], out=b_x)
        np.multiply(b_x[:, :, None], U[:, None, :], out=A_x)
    ws.mlp.backward(B, out, ws.grads)


# --- Adam ------------------------------------------------------------------

# Adam's moment decay rates and denominator guard, as published (Kingma &
# Ba, 2015)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty_like(self.m)

    @staticmethod
    def for_params(p: np.ndarray) -> "AdamState":
        return AdamState(m=np.zeros_like(p), v=np.zeros_like(p))


def adam_step(state: AdamState, p: np.ndarray, g: np.ndarray, lr: float) -> None:
    """One bias-corrected Adam update of p in place with the published
    constants; advances state and overwrites g with the step, allocating
    nothing.

    The moments are updated in place and the step is formed in g and the
    state's scratch, with the rounding of p - lr * m_hat / (sqrt(v_hat) + eps)
    term for term, so one call over a flat concatenation of arrays equals
    one call per array.
    """
    if p.shape != g.shape or p.shape != state.m.shape:
        raise DimensionMismatch(f"shapes {p.shape}, {g.shape}, {state.m.shape} disagree")
    state.t += 1
    t, beta1, beta2 = state.t, _BETA1, _BETA2
    c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
    m, v, scratch = state.m, state.v, state.scratch
    np.multiply(g, 1.0 - beta1, out=scratch)
    m *= beta1
    m += scratch  # beta1 * m + (1 - beta1) * g
    np.multiply(g, g, out=scratch)
    scratch *= 1.0 - beta2
    v *= beta2
    v += scratch  # beta2 * v + (1 - beta2) * (g * g)
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += _EPS  # sqrt(v_hat) + eps
    np.divide(m, c1, out=g)
    g *= lr
    g /= scratch  # lr * m_hat / (sqrt(v_hat) + eps)
    p -= g


# --- split and train loop --------------------------------------------------


def split_dataset(ds: Dataset, ratio: float, rng: Rng) -> tuple[Dataset, Dataset]:
    """Shuffle then prefix split: sizes floor(ratio*N) and the remainder."""
    if ds.size == 0:
        raise ValueError("cannot split an empty dataset")
    if not (0.0 < ratio < 1.0):
        raise ConfigError("split ratio must lie strictly between 0 and 1")
    perm = rng.shuffle_indices(ds.size)
    cut = int(ratio * ds.size)
    if cut == 0:
        raise ConfigError(f"split ratio {ratio} leaves none of {ds.size} rows to train on")
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
    state = AdamState.for_params(net.mlp.flat)
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
            adam_step(state, net.mlp.flat, ws.grads.flat, cfg.learning_rate)
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
