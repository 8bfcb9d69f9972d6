"""Supervised regression of every network kind on labeled (x, u, y) triples.

Loss is mean squared error over shuffled mini-batches, optimized with
bias-corrected Adam. Weights start from Xavier-uniform draws with zero
biases. All randomness (init, split, shuffles) flows through one seeded Rng,
so a (seed, data, config) triple reproduces training bit for bit.

Every kind's parameters are the layers of its net `mlp` (a fixed bank's is
one layer over [x; u]), reshaped views of the net's one float64 vector
`mlp.flat`. A `train` call allocates one networks.MlpWorkspace over the
net and one gradient net shaped like it, and every step runs in them
through one kernel, `_weight_gradients`: it traces the minibatch, writes
the output gradient over the outputs, makes one reverse pass into the
gradient net and returns the batch's sum of squared residuals; then one
in-place Adam update of `mlp.flat` reads the gradient's `flat`. lse/plse
take the prediction and softmax weights from one exponential. It all gives
the bits of allocating every array and updating array by array.

An epoch's training loss is the mean squared residual its steps formed
before their updates; its one loss pass scores the test split.

A Dataset's rows pass `networks.check_rows`, as do the rows `mse_loss`
and `weight_gradients` take. `train` runs on `prepare_split`'s
PreparedSplit: the split, then every epoch's row order, drawn from
Rng(cfg.seed). Given a Dataset, it prepares that split itself; a caller
prepares it once so that several nets train on one split in one set of
orders. One loop runs the epochs: it gathers each minibatch and runs the
epoch's steps through that kernel under one np.errstate, without
`weight_gradients`' per-call checks and allocations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
    check_rows,
    clone_network,
    embedded_bank,
    forward_batch,
)
from .numerics import Rng, check_count, check_positive


@dataclass
class Dataset:
    """Labeled triples, stored column-wise: X is (N, n), U is (N, m), y is (N,),
    as float64 arrays that check_rows passed."""

    n: int
    m: int
    X: np.ndarray
    U: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X, self.U, self.y = check_rows(self.n, self.m, self.X, self.U, self.y)

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
        check_positive("split_ratio", self.split_ratio, ConfigError, below=1)
        check_positive("learning_rate", self.learning_rate, ConfigError)


@dataclass
class TrainReport:
    train_losses: list  # per epoch, over its steps' pre-update residuals
    test_losses: list
    final_test_mse: float
    wall_time_s: float
    epoch_times_s: list = field(default_factory=list)  # per epoch, test loss included


# --- initialization --------------------------------------------------------


def xavier_init(n_in: int, n_out: int, rng: Rng) -> np.ndarray:
    """(n_out, n_in) matrix, entries uniform in +-sqrt(6)/sqrt(n_in + n_out)."""
    for width in (n_in, n_out):
        check_count("layer widths", width)
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
    """Fresh network of the given kind with Xavier weights and zero biases."""
    check_count("seed", seed, minimum=0)  # before Rng masks it to 64 bits
    for name, value in (("n", n), ("m", m), ("I", I)):  # before the widths use them
        check_count(name, value)
    widths = {"fnn": [n + m, *hidden, 1], "ma": [n + m, I], "lse": [n + m, I],
              "pma": [n, *hidden, (m + 1) * I], "plse": [n, *hidden, (m + 1) * I]}
    if kind not in widths:
        raise ConfigError(f"unknown network kind {kind!r}")
    mlp = init_mlp(widths[kind], Rng(seed))
    if kind == "fnn":
        return FeedforwardNet(n=n, m=m, mlp=mlp, seed=seed)
    return Bank(n=n, m=m, mlp=mlp, T=T if kind.endswith("lse") else None, seed=seed)


# --- loss and gradients ----------------------------------------------------


def mse_loss(net: Network, X: np.ndarray, U: np.ndarray, y: np.ndarray) -> float:
    """MSE at rows (X, U), in arrays allocated for the call."""
    X, U, y = check_rows(net.n, net.m, X, U, y)
    if len(y) == 0:
        raise ValueError("batch must be nonempty")
    r = forward_batch(net, X, U) - y
    # an overflowing square is the divergence signal the trainer checks for
    with np.errstate(over="ignore"):
        return float(np.mean(r * r))


def weight_gradients(net: Network, X: np.ndarray, U: np.ndarray, y: np.ndarray) -> MlpParams:
    """Gradient of mse_loss w.r.t. the parameters of net.mlp, as a net of
    the same shapes, in arrays allocated for the call.

    The max in ma/pma routes gradient to the active plane only (lowest index
    on ties), the standard subgradient choice for max-affine training.
    """
    X, U, y = check_rows(net.n, net.m, X, U, y)
    if len(y) == 0:
        raise ValueError("batch must be nonempty")
    grads = MlpParams(net.mlp.weights, net.mlp.biases)
    # a run heading for divergence may pass non-finite values through here;
    # the train loop's loss check owns that failure, so keep numpy quiet
    with np.errstate(over="ignore", invalid="ignore"):
        _weight_gradients(net, X, U, y, MlpWorkspace(net.mlp, len(y)), grads)
    return grads


def _weight_gradients(net, X, U, y, ws: MlpWorkspace, grads: MlpParams) -> float:
    """One training step's gradient: trace the B = len(y) rows in ws, an
    MlpWorkspace over net.mlp (fixed = 0) of at least B rows, write the
    gradient of the batch's MSE into grads, an MlpParams shaped like the
    net, and return the batch's sum of squared residuals pred - y."""
    B = len(y)
    # the net reads x alone (pma/plse) or [x; u]; the output gradient
    # overwrites its outputs
    Z = ws.Z[:B]
    if net.mlp.n_in == net.n:
        Z[...] = X
    else:
        Z[:, : net.n], Z[:, net.n :] = X, U
    out = ws.forward(B)
    if isinstance(net, FeedforwardNet):
        r = np.subtract(out[:, 0], y, out=out[:, 0])
        sse = float(np.sum(r * r))
        out *= 2.0 / B
    elif not net.parameterized:
        # the outputs are the plane scores; d pred / d score_i is w_i
        pred, w = bank_weights(out, net.T)
        r = pred - y
        sse = float(np.sum(r * r))
        np.multiply(w, ((2.0 / B) * r)[:, None], out=out)
    else:
        A_x, b_x = embedded_bank(net, out)
        pred, w = bank_weights(bank_scores(A_x, U, b_x), net.T)
        r = pred - y
        sse = float(np.sum(r * r))
        # in the bank's layout: d pred / d A_x[i, j] is w_i * u_j and
        # d pred / d b_x[i] is w_i. One einsum fills the strided A_x in one
        # pass; its products are a broadcast multiply's bits, except that
        # it adds each to +0.0, so an exact-zero product (pma's one-hot w)
        # is +0.0 where the multiply may give -0.0. The sign of a zero
        # gradient never reaches Adam's moments (see adam_step)
        np.multiply(w, ((2.0 / B) * r)[:, None], out=b_x)
        np.einsum("bi,bj->bij", b_x, U, out=A_x)
    ws.backward(B, out, grads)
    return sse


# --- Adam ------------------------------------------------------------------

# Adam's moment decay rates and denominator guard, as published (Kingma &
# Ba, 2015)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam's state for updates of parameters shaped like p: the moments m
    and v at zero, the step count t at 0, and a scratch buffer."""

    def __init__(self, p: np.ndarray):
        self.m, self.v, self.scratch = np.zeros_like(p), np.zeros_like(p), np.empty_like(p)
        self.t = 0


def adam_step(state: AdamState, p: np.ndarray, g: np.ndarray, lr: float) -> None:
    """One bias-corrected Adam update of p in place with the published
    constants; advances state and overwrites g with the step, allocating
    nothing.

    The moments are updated in place and the step is formed in g and the
    state's scratch, with the rounding of p - lr * m_hat / (sqrt(v_hat) + eps)
    term for term, so one call over a flat concatenation of arrays equals
    one call per array. The sign of a zero in g leaves no trace: m is never
    -0.0 (it starts at +0.0, and x + -x is +0.0), so adding (1 - beta1) *
    (+-0.0) keeps its bits, and g * g is +0.0.
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
    if c1 == 1.0:  # from t = 356 on; m / 1.0 is m, so skip the divide
        np.multiply(m, lr, out=g)
    else:
        np.divide(m, c1, out=g)
        g *= lr
    g /= scratch  # lr * m_hat / (sqrt(v_hat) + eps)
    p -= g


# --- split and train loop --------------------------------------------------


def split_dataset(ds: Dataset, ratio: float, rng: Rng) -> tuple[Dataset, Dataset]:
    """Shuffle then prefix split: sizes floor(ratio*N) and the remainder."""
    if ds.size == 0:
        raise ValueError("cannot split an empty dataset")
    check_positive("split_ratio", ratio, ConfigError, below=1)
    perm = rng.shuffle_indices(ds.size)
    cut = int(ratio * ds.size)
    if cut == 0:
        raise ConfigError(f"split ratio {ratio} leaves none of {ds.size} rows to train on")
    return ds.subset(perm[:cut]), ds.subset(perm[cut:])


@dataclass
class PreparedSplit:
    """The draws `train` makes from Rng(cfg.seed) before its steps: a
    dataset's training and test splits and each epoch's order of the
    training rows. Drawn once, it trains several nets on the same rows in
    the same orders."""

    train: Dataset
    test: Dataset
    orders: list  # per epoch, a permutation of range(train.size)


def prepare_split(ds: Dataset, cfg: TrainConfig) -> PreparedSplit:
    """The split, from the first draws of Rng(cfg.seed), then cfg.epochs
    row orders of its training rows from the same stream."""
    rng = Rng(cfg.seed)
    train_ds, test_ds = split_dataset(ds, cfg.split_ratio, rng)
    return PreparedSplit(train_ds, test_ds,
                         [rng.shuffle_indices(train_ds.size) for _ in range(cfg.epochs)])


def train(
    net: Network, data: Dataset | PreparedSplit, cfg: TrainConfig
) -> tuple[Network, TrainReport]:
    """Train a copy of `net` on a 90:10-style split of a dataset.

    A Dataset trains on prepare_split(ds, cfg): the split takes the first
    draws of Rng(cfg.seed), so callers can recover the exact same partition
    via split_dataset(ds, cfg.split_ratio, Rng(cfg.seed)). Given a prepared
    split, cfg.seed and cfg.split_ratio are not read, and the split must
    hold cfg.epochs orders.
    """
    t0 = time.perf_counter()
    if isinstance(data, Dataset):
        data = prepare_split(data, cfg)
    train_ds, test_ds, orders = data.train, data.test, data.orders
    if len(orders) != cfg.epochs:
        raise ConfigError(f"split holds {len(orders)} epoch orders, "
                          f"config asks for {cfg.epochs}")
    if train_ds.n != net.n or train_ds.m != net.m:
        raise DimensionMismatch("dataset dims do not match the network")
    net = clone_network(net)
    state = AdamState(net.mlp.flat)
    ws = MlpWorkspace(net.mlp, min(cfg.batch_size, train_ds.size))
    grads = MlpParams(net.mlp.weights, net.mlp.biases)  # each step overwrites it
    X, U, y, size = train_ds.X, train_ds.U, train_ds.y, train_ds.size
    batch = cfg.batch_size
    train_losses, test_losses, epoch_times = [], [], []
    t_epoch = time.perf_counter()
    for perm in orders:
        sse = 0.0
        # the steps skip weight_gradients' conversions and checks; a run
        # heading for divergence is caught by the loss check below
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, size, batch):
                idx = perm[start : start + batch]
                sse += _weight_gradients(net, X[idx], U[idx], y[idx], ws, grads)
                adam_step(state, net.mlp.flat, grads.flat, cfg.learning_rate)
        tr = sse / size
        try:
            te = mse_loss(net, test_ds.X, test_ds.U, test_ds.y)
        except NumericOverflow as exc:
            raise TrainingDiverged(str(exc)) from exc
        if not (np.isfinite(tr) and np.isfinite(te)):
            raise TrainingDiverged(f"loss became non-finite (train={tr}, test={te})")
        train_losses.append(tr)
        test_losses.append(te)
        now = time.perf_counter()
        epoch_times.append(now - t_epoch)
        t_epoch = now
    report = TrainReport(
        train_losses=train_losses,
        test_losses=test_losses,
        final_test_mse=test_losses[-1],
        wall_time_s=time.perf_counter() - t0,
        epoch_times_s=epoch_times,
    )
    return net, report
