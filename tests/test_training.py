"""Tests for datasets, config, init, gradients, Adam, and training."""

import json
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from paraconvex import training
from paraconvex.exceptions import (
    ConfigError,
    DimensionMismatch,
    NonFiniteInput,
    TrainingDiverged,
)
from paraconvex.networks import (
    LEAKY_SLOPE,
    MlpParams,
    MlpWorkspace,
    batch_scores,
    clone_network,
    forward_batch,
    grad_u_batch,
    model_to_json,
    u_bank_batch,
)
from paraconvex.numerics import BoxDomain, Rng, sample_uniform_box
from paraconvex.solver import minimize_batch
from paraconvex.training import (
    AdamState,
    Dataset,
    TrainConfig,
    adam_step,
    init_mlp,
    init_network,
    mse_loss,
    prepare_split,
    split_dataset,
    train,
    weight_gradients,
    xavier_init,
)


def _quadratic_dataset(n, m, count, seed):
    pts = sample_uniform_box(BoxDomain.symmetric(n + m), count, Rng(seed))
    X, U = pts[:, :n], pts[:, n:]
    y = -np.sum(X * X, axis=1) / (2 * n) + np.sum(U * U, axis=1) / (2 * m)
    return Dataset(n=n, m=m, X=X, U=U, y=y)


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            Dataset(n=2, m=1, X=np.zeros((3, 1)), U=np.zeros((3, 1)), y=np.zeros(3))
        with pytest.raises(DimensionMismatch):
            Dataset(n=1, m=1, X=np.zeros((3, 1)), U=np.zeros((2, 1)), y=np.zeros(3))

    def test_finite_validation(self):
        with pytest.raises(NonFiniteInput):
            Dataset(n=1, m=1, X=np.array([[np.nan]]), U=np.zeros((1, 1)),
                    y=np.zeros(1))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 100
        assert cfg.learning_rate == 1e-3
        assert cfg.batch_size == 64
        assert cfg.split_ratio == 0.9

    @pytest.mark.parametrize(
        "bad",
        [
            {"epochs": 0},
            {"split_ratio": 0.0},
            {"split_ratio": 1.0},
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"epochs": 2.5},
            {"epochs": float("nan")},
            {"epochs": float("inf")},
            {"batch_size": 2.5},
            {"batch_size": float("nan")},
            {"seed": -1},
            {"seed": 2.5},
            {"seed": float("nan")},
            {"seed": True},
            {"seed": np.int64(-3)},
            {"learning_rate": float("inf")},
            *[{key: value} for key in ("learning_rate", "split_ratio")
              for value in (True, "0.1", float("nan"), 0, -1, float("inf"))],
        ],
    )
    def test_validation(self, bad):
        (field,) = bad
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**bad)

    def test_numpy_integer_counts(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(16))
        assert (cfg.epochs, cfg.batch_size) == (3, 16)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**63), np.int32(5)])
    def test_integer_seeds(self, seed):
        assert TrainConfig(seed=seed).seed == seed


class TestXavierInit:
    def test_scalar_bound(self):
        W = xavier_init(1, 1, Rng(0))
        assert W.shape == (1, 1)
        assert abs(W[0, 0]) <= np.sqrt(3.0)

    def test_wide_layer_bound(self):
        W = xavier_init(64, 64, Rng(1))
        bound = np.sqrt(6.0) / np.sqrt(128.0)
        assert W.shape == (64, 64)
        assert np.all(np.abs(W) <= bound)
        assert abs(W.mean()) < 0.02  # centered

    def test_determinism(self):
        assert_array_equal(xavier_init(8, 4, Rng(3)), xavier_init(8, 4, Rng(3)))


class TestInitNetwork:
    def test_mlp_kinds_shapes_and_zero_biases(self):
        fnn = init_network("fnn", 2, 3, seed=1, hidden=(16, 8))
        assert fnn.mlp.layer_widths == [5, 16, 8, 1]
        assert all(np.all(b == 0.0) for b in fnn.mlp.biases)
        plse = init_network("plse", 2, 3, seed=2, I=7, T=0.1, hidden=(16, 8))
        assert plse.mlp.layer_widths == [2, 16, 8, (3 + 1) * 7]
        assert plse.T == 0.1 and plse.I == 7

    def test_bank_kinds_start_from_init_mlp(self):
        want = init_mlp([3, 30], Rng(3))
        for kind in ("ma", "lse"):
            net = init_network(kind, 2, 1, seed=3, I=30, T=0.1)
            assert net.mlp.layer_widths == [3, 30]
            assert_array_equal(net.mlp.weights[0], want.weights[0])
            assert np.all(net.mlp.biases[0] == 0.0)

    def test_determinism_and_seed_field(self):
        a = init_network("pma", 1, 1, seed=5, I=4)
        b = init_network("pma", 1, 1, seed=5, I=4)
        assert a.seed == 5
        for p, q in zip(a.mlp.arrays(), b.mlp.arrays()):
            assert_array_equal(p, q)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            init_network("rbf", 1, 1, seed=0)

    @pytest.mark.parametrize("kind, key, field", [
        ("fnn", "I", "I"), ("ma", "I", "I"), ("plse", "I", "I"),
        ("fnn", "hidden", "layer widths"), ("pma", "hidden", "layer widths"),
    ])
    @pytest.mark.parametrize("value", [1.5, True])
    def test_counts_are_integers(self, kind, key, field, value):
        # I=True built a one-plane plse; a count names its field
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value}$"):
            init_network(kind, 2, 3, seed=1, **{key: value if key == "I" else (4, value)})

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    @pytest.mark.parametrize("field", ["n", "m"])
    @pytest.mark.parametrize("value, rule", [(1.5, "be an integer, got 1.5"),
                                             (-1, "be >= 1")])
    def test_bad_dims_name_their_field(self, kind, field, value, rule):
        # checked before the layer widths are built from them, which would
        # name a width the caller never passed, such as 2.5 or 0
        dims = {"n": 1, "m": 1, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must {re.escape(rule)}$"):
            init_network(kind, dims["n"], dims["m"], seed=0)


class TestSplitDataset:
    def test_floor_sizes(self):
        ds = _quadratic_dataset(1, 1, 10, 4)
        tr, te = split_dataset(ds, 0.9, Rng(0))
        assert (tr.size, te.size) == (9, 1)

    def test_benchmark_scale_sizes(self):
        ds = _quadratic_dataset(1, 1, 5000, 4)
        tr, te = split_dataset(ds, 0.9, Rng(0))
        assert (tr.size, te.size) == (4500, 500)

    def test_disjoint_union(self):
        ds = _quadratic_dataset(1, 2, 40, 8)
        tr, te = split_dataset(ds, 0.7, Rng(1))
        joined = np.vstack([np.hstack([tr.X, tr.U]), np.hstack([te.X, te.U])])
        original = np.hstack([ds.X, ds.U])
        assert_array_equal(
            joined[np.lexsort(joined.T)], original[np.lexsort(original.T)]
        )

    def test_determinism(self):
        ds = _quadratic_dataset(1, 1, 30, 2)
        a_tr, _ = split_dataset(ds, 0.5, Rng(6))
        b_tr, _ = split_dataset(ds, 0.5, Rng(6))
        assert_array_equal(a_tr.X, b_tr.X)

    def test_bad_ratio(self):
        ds = _quadratic_dataset(1, 1, 10, 2)
        with pytest.raises(ConfigError):
            split_dataset(ds, 1.0, Rng(0))

    def test_empty_dataset(self):
        ds = Dataset(n=1, m=1, X=np.empty((0, 1)), U=np.empty((0, 1)), y=np.empty(0))
        with pytest.raises(ValueError, match="empty"):
            split_dataset(ds, 0.9, Rng(0))


class TestMseLoss:
    def test_perfect_fit_zero(self):
        # one affine plane fitting an affine target exactly
        net = init_network("ma", 1, 1, seed=0, I=1)
        X = np.array([[0.5], [-0.5]])
        U = np.array([[0.1], [0.9]])
        y = forward_batch(net, X, U)
        assert mse_loss(net, X, U, y) == 0.0

    def test_single_point(self):
        net = init_network("ma", 1, 1, seed=0, I=1)
        X, U = np.array([[0.2]]), np.array([[0.3]])
        y = forward_batch(net, X, U) - 1.0  # off by exactly one
        assert_allclose(mse_loss(net, X, U, y), 1.0)

    def test_two_point_average(self):
        net = init_network("ma", 1, 1, seed=0, I=1)
        X, U = np.array([[0.2], [0.4]]), np.array([[0.3], [0.5]])
        y = forward_batch(net, X, U) - np.array([1.0, 3.0])
        assert_allclose(mse_loss(net, X, U, y), 5.0)

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    def test_empty_batch_rejected(self, kind):
        # it gave NumPy's "Mean of empty slice" warning and a NaN
        net = init_network(kind, 2, 1, seed=5, I=4, hidden=(6,))
        with pytest.raises(ValueError, match="^batch must be nonempty$"):
            mse_loss(net, np.empty((0, 2)), np.empty((0, 1)), np.empty(0))


# every other entry that takes rows or conditions: its call on (net, X, U,
# y), how many of X, U, y it reads, and the kinds it takes
_ROW_ENTRIES = {
    "forward_batch": (lambda net, X, U, y: forward_batch(net, X, U), 2,
                      ("fnn", "ma", "lse", "pma", "plse")),
    "grad_u_batch": (lambda net, X, U, y: grad_u_batch(net, X, U), 2,
                     ("lse", "plse", "fnn")),
    "u_bank_batch": (lambda net, X, U, y: u_bank_batch(net, X), 1,
                     ("ma", "lse", "pma", "plse")),
    "batch_scores": (lambda net, X, U, y: batch_scores(net, X, U), 2,
                     ("ma", "lse", "pma", "plse")),
    "minimize_batch": (lambda net, X, U, y: minimize_batch(
        net, X, BoxDomain.symmetric(net.m)), 1, ("fnn", "ma", "lse", "pma", "plse")),
    "Dataset": (lambda net, X, U, y: Dataset(net.n, net.m, X, U, y), 3, ("fnn",)),
}
_ENTRY_KINDS = [(entry, kind) for entry, (_, _, kinds) in _ROW_ENTRIES.items()
                for kind in kinds]


class TestMisShapedRows:
    """mse_loss and weight_gradients must raise on rows that do not line up,
    not broadcast them: y[:, None] made mse_loss the mean of a (B, B)
    residual, and X[:1] repeated one condition over the batch. Every other
    entry that takes rows raises on them by the same check."""

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    def test_rejected(self, kind):
        net = init_network(kind, 2, 1, seed=5, I=4, hidden=(6,))
        X, U, y = _batch(2, 1, 8, np.random.default_rng(6))
        # one array's rows or y's rank off, each of which numpy broadcasts
        for args in [(X, U, y[:, None]), (X, U, y[:1]), (X, U, y[0]),
                     (X[:1], U, y), (X, U[:1], y), (X[:1], U[:1], y)]:
            with pytest.raises(DimensionMismatch):
                mse_loss(net, *args)
            with pytest.raises(DimensionMismatch):
                weight_gradients(net, *args)

    @pytest.mark.parametrize("entry, kind", _ENTRY_KINDS)
    def test_rejected_by_every_entry(self, entry, kind):
        call, reads, _ = _ROW_ENTRIES[entry]
        net = init_network(kind, 2, 1, seed=5, I=4, hidden=(6,))
        X, U, y = _batch(2, 1, 8, np.random.default_rng(6))
        # X one row, of the wrong width or rank; then U's or y's rows off
        bad = [(X[0], U, y), (X[:, :1], U, y), (X[None], U, y)]
        if reads >= 2:
            bad += [(X[:1], U, y), (X, U[:1], y), (X, U[:, 0], y)]
        if reads == 3:
            bad += [(X, U, y[:, None]), (X, U, y[:1])]
        for args in bad:
            with pytest.raises(DimensionMismatch):
                call(net, *args)


class TestNonFiniteRows:
    """mse_loss and weight_gradients raise NonFiniteInput on a NaN or an
    infinity in X, U or y, as minimize_batch does on its conditions: a NaN
    x was reported as a forward overflow, and a NaN y made the loss NaN.
    Every other entry that takes rows raises it by the same check."""

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, kind, which, bad):
        net = init_network(kind, 2, 1, seed=5, I=4, hidden=(6,))
        args = list(_batch(2, 1, 8, np.random.default_rng(6)))
        args[which][3] = bad
        with pytest.raises(NonFiniteInput):
            mse_loss(net, *args)
        with pytest.raises(NonFiniteInput):
            weight_gradients(net, *args)

    @pytest.mark.parametrize("entry, kind", _ENTRY_KINDS)
    def test_rejected_by_every_entry(self, entry, kind):
        # a NaN condition came back from u_bank_batch as a NaN bank, and a
        # NaN in a Dataset raised a bare ValueError
        call, reads, _ = _ROW_ENTRIES[entry]
        net = init_network(kind, 2, 1, seed=5, I=4, hidden=(6,))
        for which in range(reads):
            for bad in (np.nan, np.inf, -np.inf):
                args = list(_batch(2, 1, 8, np.random.default_rng(6)))
                args[which][3] = bad
                with pytest.raises(NonFiniteInput):
                    call(net, *args)


class TestWeightGradients:
    def test_empty_batch_rejected(self):
        net = init_network("plse", 2, 1, seed=5, I=4, hidden=(6,))
        with pytest.raises(ValueError, match="nonempty"):
            weight_gradients(net, np.empty((0, 2)), np.empty((0, 1)), np.empty(0))

    def test_zero_residual_gives_zero_gradient(self):
        net = init_network("plse", 1, 1, seed=13, I=3, hidden=(4,))
        X, U = np.array([[0.2], [-0.7]]), np.array([[0.5], [0.1]])
        y = forward_batch(net, X, U)
        for g in weight_gradients(net, X, U, y).arrays():
            assert_allclose(g, np.zeros_like(g), atol=1e-15)

    def test_plse_offset_bias_chain(self):
        # single plane, single point: the embed output bias feeding b_1(x)
        # receives exactly 2 * residual
        net = init_network("plse", 1, 1, seed=17, I=1, hidden=(4,))
        X, U = np.array([[0.3]]), np.array([[-0.4]])
        resid = 0.25
        y = forward_batch(net, X, U) - resid
        grads = weight_gradients(net, X, U, y)
        out_bias_grad = grads.biases[-1]  # embed final-layer bias, length (m+1)*I = 2
        assert_allclose(out_bias_grad[1], 2 * resid, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    def test_matches_finite_differences(self, kind):
        h = 1e-6
        for trial in range(3):
            net = init_network(kind, 2, 2, seed=900 + trial, I=4, hidden=(6, 5))
            rng = np.random.default_rng(800 + trial)
            X = rng.uniform(-1, 1, (7, 2))
            U = rng.uniform(-1, 1, (7, 2))
            y = rng.uniform(-1, 1, 7)
            grads = weight_gradients(net, X, U, y).arrays()
            for p, g in zip(net.mlp.arrays(), grads):
                fd = np.zeros_like(p)
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    old = p[ix]
                    p[ix] = old + h
                    lp = mse_loss(net, X, U, y)
                    p[ix] = old - h
                    lm = mse_loss(net, X, U, y)
                    p[ix] = old
                    fd[ix] = (lp - lm) / (2 * h)
                rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1.0)
                assert rel < 1e-6


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = np.array([1.0, -2.0])
        st = AdamState(p)
        adam_step(st, p, np.zeros(2), lr=1e-3)
        assert_array_equal(p, [1.0, -2.0])
        assert st.t == 1

    def test_first_step_magnitude(self):
        g = 0.5
        lr = 1e-3
        p = np.array([1.0])
        st = AdamState(p)
        grad = np.array([g])
        adam_step(st, p, grad, lr=lr)
        # bias correction makes m_hat = g and v_hat = g^2 at t=1
        expected = lr * g / (np.sqrt(g * g) + 1e-8)
        assert_allclose(1.0 - p[0], expected, rtol=1e-12)
        assert p[0] == 1.0 - grad[0]  # the step is formed in the gradient

    def test_sign_symmetry(self):
        up, down = np.array([1.0]), np.array([1.0])
        adam_step(AdamState(up), up, np.array([0.5]), lr=1e-3)
        adam_step(AdamState(down), down, np.array([-0.5]), lr=1e-3)
        assert_allclose(1.0 - up[0], down[0] - 1.0, rtol=1e-12)

    def test_shape_mismatch(self):
        p = np.zeros(2)
        st = AdamState(p)
        with pytest.raises(DimensionMismatch):
            adam_step(st, p, np.zeros(3), lr=1e-3)
        with pytest.raises(DimensionMismatch):
            adam_step(AdamState(np.zeros(3)), p, np.zeros(2), lr=1e-3)


class TestTrain:
    def test_constant_labels_fit(self):
        ds = Dataset(
            n=1,
            m=1,
            X=sample_uniform_box(BoxDomain.symmetric(1), 300, Rng(5)),
            U=sample_uniform_box(BoxDomain.symmetric(1), 300, Rng(6)),
            y=np.full(300, 0.7),
        )
        net0 = init_network("fnn", 1, 1, seed=42)
        _, report = train(net0, ds, TrainConfig(epochs=100, seed=3))
        assert report.final_test_mse < 1e-3

    def test_deterministic_given_seed(self):
        ds = _quadratic_dataset(1, 1, 200, 12)
        cfg = TrainConfig(epochs=3, seed=11)
        net0 = init_network("plse", 1, 1, seed=1, I=5, hidden=(8,))
        net_a, rep_a = train(net0, ds, cfg)
        net_b, rep_b = train(net0, ds, cfg)
        assert rep_a.train_losses == rep_b.train_losses
        assert rep_a.test_losses == rep_b.test_losses
        assert model_to_json(net_a) == model_to_json(net_b)

    def test_numpy_integer_seed_trains_as_its_int(self):
        # a NumPy seed passed TrainConfig's check, then Rng raised OverflowError
        ds = _quadratic_dataset(1, 1, 60, 12)
        net0 = init_network("plse", 1, 1, seed=np.int64(1), I=3, hidden=(4,))
        net_a, _ = train(net0, ds, TrainConfig(epochs=2, seed=np.int64(11)))
        net_b, _ = train(net0, ds, TrainConfig(epochs=2, seed=11))
        assert_array_equal(net_a.mlp.flat, net_b.mlp.flat)

    def test_input_net_untouched(self):
        ds = _quadratic_dataset(1, 1, 100, 13)
        net0 = init_network("lse", 1, 1, seed=2, I=4)
        before = [p.copy() for p in net0.mlp.arrays()]
        train(net0, ds, TrainConfig(epochs=2, seed=0))
        for p, q in zip(net0.mlp.arrays(), before):
            assert_array_equal(p, q)

    def test_report_lengths(self):
        ds = _quadratic_dataset(1, 1, 100, 14)
        _, rep = train(
            init_network("ma", 1, 1, seed=3, I=4), ds, TrainConfig(epochs=5, seed=1)
        )
        assert len(rep.train_losses) == 5
        assert len(rep.test_losses) == 5
        assert rep.final_test_mse == rep.test_losses[-1]
        assert rep.wall_time_s > 0
        assert all(np.isfinite(v) for v in rep.train_losses)

    def test_split_is_recoverable(self):
        # callers can re-derive the internal split from the config seed
        ds = _quadratic_dataset(1, 1, 100, 15)
        cfg = TrainConfig(epochs=1, seed=21)
        net, _ = train(init_network("ma", 1, 1, seed=4, I=3), ds, cfg)
        tr, te = split_dataset(ds, cfg.split_ratio, Rng(cfg.seed))
        assert tr.size == 90 and te.size == 10

    def test_divergence_detected(self):
        ds = _quadratic_dataset(1, 1, 64, 16)
        cfg = TrainConfig(epochs=2, seed=0, learning_rate=1e200)
        with pytest.raises(TrainingDiverged):
            train(init_network("fnn", 1, 1, seed=5), ds, cfg)

    def test_empty_training_split_is_a_config_error(self):
        # not a TrainingDiverged from the loss of no rows
        ds = _quadratic_dataset(1, 1, 10, 19)
        with pytest.raises(ConfigError, match="none of 10 rows"):
            train(init_network("plse", 1, 1, seed=7, I=3, hidden=(4,)), ds,
                  TrainConfig(epochs=1, split_ratio=0.05))

    def test_dims_checked(self):
        ds = _quadratic_dataset(2, 1, 50, 17)
        for data in (ds, prepare_split(ds, TrainConfig(epochs=1))):
            with pytest.raises(DimensionMismatch):
                train(init_network("fnn", 1, 1, seed=6), data, TrainConfig(epochs=1))


class TestPreparedSplit:
    """prepare_split draws what a train call draws from its seed, so
    training on it is training on the dataset, bit for bit."""

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    def test_train_on_prepared_split_equals_train_on_dataset(self, kind):
        ds = _quadratic_dataset(2, 3, 150, 32)
        # 135 training rows in batches of 32: a ragged last batch of 7
        cfg = TrainConfig(epochs=3, batch_size=32, seed=7, learning_rate=1e-2)
        net0 = init_network(kind, 2, 3, seed=10, I=5, hidden=(9, 6))
        net_a, rep_a = train(net0, ds, cfg)
        net_b, rep_b = train(net0, prepare_split(ds, cfg), cfg)
        assert (json.dumps(model_to_json(net_a), sort_keys=True).encode()
                == json.dumps(model_to_json(net_b), sort_keys=True).encode())
        assert rep_a.train_losses == rep_b.train_losses
        assert rep_a.test_losses == rep_b.test_losses

    def test_split_and_orders_are_the_seed_stream_draws(self):
        ds = _quadratic_dataset(1, 1, 50, 33)
        cfg = TrainConfig(epochs=4, seed=9, split_ratio=0.8)
        split = prepare_split(ds, cfg)
        rng = Rng(cfg.seed)
        tr, te = split_dataset(ds, cfg.split_ratio, rng)
        for got, want in ((split.train, tr), (split.test, te)):
            assert_array_equal(got.X, want.X)
            assert_array_equal(got.U, want.U)
            assert_array_equal(got.y, want.y)
        assert len(split.orders) == cfg.epochs
        for order in split.orders:
            assert_array_equal(order, rng.shuffle_indices(40))

    def test_orders_must_number_the_epochs(self):
        ds = _quadratic_dataset(1, 1, 50, 34)
        split = prepare_split(ds, TrainConfig(epochs=2, seed=1))
        with pytest.raises(ConfigError, match="split holds 2 epoch orders, "
                                              "config asks for 3"):
            train(init_network("ma", 1, 1, seed=2, I=3), split,
                  TrainConfig(epochs=3, seed=1))


# --- the per-array training step the fast one must reproduce bit for bit ----


def mlp_trace(params: MlpParams, Z: np.ndarray) -> tuple[list, list]:
    """Forward pass at rows Z (B, n_in) keeping what backprop needs:
    (acts, pres) with acts[0] = Z, acts[k + 1] the output of layer k and
    pres[k] its pre-activation; acts[-1] is the net's output (B, n_out)."""
    acts, pres = [Z], []
    h = Z
    last = len(params.weights) - 1
    for k, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ W.T + b
        pres.append(z)
        h = np.maximum(LEAKY_SLOPE * z, z) if k != last else z
        acts.append(h)
    return acts, pres


def _mlp_backprop(params: MlpParams, acts, pres, delta_out: np.ndarray) -> list:
    """Grads [dW0, db0, ...] given dLoss/d(output) rows in delta_out."""
    last = len(params.weights) - 1
    grads = [None] * (2 * len(params.weights))
    delta = delta_out
    for k in range(last, -1, -1):
        grads[2 * k] = delta.T @ acts[k]
        grads[2 * k + 1] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ params.weights[k]) * np.where(
                pres[k - 1] > 0, 1.0, LEAKY_SLOPE
            )
    return grads


def _reference_shuffle(rng, n):
    """Fisher-Yates with one int() truncation and one numpy swap per step."""
    idx = np.arange(n)
    if n < 2:
        return idx
    draws = rng.uniform(n - 1)
    for i in range(n - 1, 0, -1):
        j = int(draws[n - 1 - i] * (i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def softmax_over_T(scores: np.ndarray, T: float, axis: int = -1) -> np.ndarray:
    top = np.max(scores, axis=axis, keepdims=True)
    e = np.exp((scores - top) / T)
    return e / np.sum(e, axis=axis, keepdims=True)


def _reference_state(params):
    """Adam moments kept per array, for _reference_adam_step."""
    return SimpleNamespace(m=[np.zeros_like(p) for p in params],
                           v=[np.zeros_like(p) for p in params], t=0)


def _reference_adam_step(state, params, grads, lr, beta1=0.9, beta2=0.999,
                         eps=1e-8):
    """Adam array by array, each moment rebuilt from allocated temporaries."""
    state.t += 1
    t = state.t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = beta1 * state.m[i] + (1.0 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1.0 - beta2) * (g * g)
        m_hat = state.m[i] / (1.0 - beta1**t)
        v_hat = state.v[i] / (1.0 - beta2**t)
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
    return out


def _reference_weight_gradients(net, X, U, y):
    """Gradients with the softmax and the log-sum-exp from two exponentials,
    and the residuals pred - y they are formed from."""
    B = y.shape[0]
    if net.kind == "fnn":
        acts, pres = mlp_trace(net.mlp, np.hstack([X, U]))
        r = acts[-1][:, 0] - y
        return _mlp_backprop(net.mlp, acts, pres, ((2.0 / B) * r)[:, None]), r
    if net.kind in ("ma", "lse"):
        Z = np.hstack([X, U])
        A, b = net.mlp.weights[0], net.mlp.biases[0]
        scores = Z @ A.T + b
    else:
        acts, pres = mlp_trace(net.mlp, X)
        out = acts[-1]
        A_x = out[:, : net.I * net.m].reshape(B, net.I, net.m)
        scores = np.einsum("bim,bm->bi", A_x, U) + out[:, net.I * net.m :]
    if net.kind in ("lse", "plse"):
        w = softmax_over_T(scores, net.T, axis=1)
        top = scores.max(1)
        pred = net.T * np.log(
            np.sum(np.exp((scores - top[:, None]) / net.T), axis=1)
        ) + top
    else:
        w = np.zeros_like(scores)
        w[np.arange(B), np.argmax(scores, axis=1)] = 1.0
        pred = scores.max(1)
    r = pred - y
    wd = w * ((2.0 / B) * r)[:, None]
    if net.kind in ("ma", "lse"):
        return [wd.T @ Z, wd.sum(axis=0)], r
    dout = np.concatenate(
        [(wd[:, :, None] * U[:, None, :]).reshape(B, -1), wd], axis=1
    )
    return _mlp_backprop(net.mlp, acts, pres, dout), r


def _reference_train(net, ds, cfg):
    """The train loop with one Adam update per parameter array. An epoch's
    training loss is the mean over its rows of the squared residuals each
    minibatch had before its update."""
    rng = Rng(cfg.seed)
    perm = _reference_shuffle(rng, ds.size)
    cut = int(cfg.split_ratio * ds.size)
    tr, te = ds.subset(perm[:cut]), ds.subset(perm[cut:])
    net = clone_network(net)
    params = net.mlp.arrays()
    state = _reference_state(params)
    train_losses, test_losses = [], []
    for _ in range(cfg.epochs):
        perm = _reference_shuffle(rng, tr.size)
        sse = 0.0
        for start in range(0, tr.size, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            grads, r = _reference_weight_gradients(net, tr.X[idx], tr.U[idx], tr.y[idx])
            sse += float(np.sum(r * r))
            new = _reference_adam_step(state, params, grads, cfg.learning_rate)
            for p, q in zip(params, new):
                p[:] = q
        train_losses.append(sse / tr.size)
        test_losses.append(mse_loss(net, te.X, te.U, te.y))
    return net, train_losses, test_losses


class TestFastStepMatchesReference:
    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 3)])
    def test_train_bit_identical(self, kind, dims):
        n, m = dims
        ds = _quadratic_dataset(n, m, 150, 30)
        # 135 training rows in batches of 32: a ragged last batch of 7
        cfg = TrainConfig(epochs=4, batch_size=32, seed=5, learning_rate=1e-2)
        net0 = init_network(kind, n, m, seed=8, I=5, T=0.1, hidden=(9, 6))
        self._assert_train_matches_reference(net0, ds, cfg)

    @pytest.mark.parametrize("kind", ["pma", "plse"])
    def test_train_bit_identical_at_61x20(self, kind):
        # the benchmark's bank shape, I = 30 planes of 20 slopes; 135
        # training rows in batches of 8 make 17 steps an epoch, so 22 epochs
        # take Adam to step 374, past t = 356 where 1 - 0.9**t rounds to 1.
        # pma's one-hot plane weights make exact-zero slope gradients
        ds = _quadratic_dataset(61, 20, 150, 31)
        cfg = TrainConfig(epochs=22, batch_size=8, seed=6, learning_rate=1e-3)
        net0 = init_network(kind, 61, 20, seed=9, I=30, T=0.1, hidden=(8, 8))
        self._assert_train_matches_reference(net0, ds, cfg)

    @staticmethod
    def _assert_train_matches_reference(net0, ds, cfg):
        net, rep = train(net0, ds, cfg)
        ref, ref_train, ref_test = _reference_train(net0, ds, cfg)
        assert rep.train_losses == ref_train
        assert rep.test_losses == ref_test
        for p, q in zip(net.mlp.arrays(), ref.mlp.arrays()):
            assert p.shape == q.shape and p.flags.c_contiguous
            assert_array_equal(p, q)
        # the JSON tells -0.0 from 0.0, which assert_array_equal does not
        assert model_to_json(net) == model_to_json(ref)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_shuffle_matches_reference(self, seed):
        for n in (0, 1, 2, 3, 50, 4500):
            fast, ref = Rng(seed), Rng(seed)
            perm = fast.shuffle_indices(n)
            expected = _reference_shuffle(ref, n)
            assert perm.dtype == expected.dtype
            assert_array_equal(perm, expected)
            assert fast.uniform(1)[0] == ref.uniform(1)[0]  # same stream position

    def test_fused_adam_matches_per_array(self):
        rng = np.random.default_rng(11)
        shapes = [(4, 3), (4,), (1, 4), (1,)]
        params = [rng.normal(size=s) for s in shapes]
        ref_state = _reference_state(params)
        flat = np.concatenate(params, axis=None)
        state = AdamState(flat)
        # past t = 356, where 1 - 0.9**t rounds to 1 and the step skips m / c1
        for _ in range(400):
            grads = [rng.normal(scale=rng.uniform(1e-3, 10.0), size=s) for s in shapes]
            params = _reference_adam_step(ref_state, params, grads, 1e-2)
            adam_step(state, flat, np.concatenate(grads, axis=None), 1e-2)
            assert_array_equal(flat, np.concatenate(params, axis=None))
        assert_array_equal(state.m, np.concatenate(ref_state.m, axis=None))
        assert_array_equal(state.v, np.concatenate(ref_state.v, axis=None))
        assert state.t == ref_state.t == 400


KINDS = ["fnn", "ma", "lse", "pma", "plse"]


def _assert_gradients_equal(net, ws, grads, X, U, y):
    sse = training._weight_gradients(net, X, U, y, ws, grads)
    ref, resid = _reference_weight_gradients(net, X, U, y)
    got = grads.arrays()
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert_array_equal(g, r)
    assert sse == float(np.sum(resid * resid))


def _gradient_net(net):
    # filled with NaN, so a layer the kernel leaves unwritten fails the test
    grads = MlpParams(net.mlp.weights, net.mlp.biases)
    grads.flat[:] = np.nan
    return grads


def _batch(n, m, k, rng):
    return (rng.uniform(-1, 1, (k, n)), rng.uniform(-1, 1, (k, m)),
            rng.uniform(-1, 1, k))


class TestWorkspace:
    """One MlpWorkspace and one gradient net serve every step of a train
    call; the gradients and the residual sum the step kernel gives in them
    must be the reference arithmetic's bit for bit."""

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=80, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(
            kind=st.sampled_from(KINDS),
            n=st.sampled_from([1, 3, 20]),
            m=st.sampled_from([1, 3, 20]),
            hidden=st.lists(st.integers(1, 9), min_size=1, max_size=3),
            I=st.integers(1, 8),
            rows=st.integers(1, 12),
            counts=st.lists(st.integers(1, 12), min_size=1, max_size=6),
            seed=st.integers(0, 2**16),
        )
        def check(kind, n, m, hidden, I, rows, counts, seed):
            net = init_network(kind, n, m, seed=seed, I=I, hidden=tuple(hidden))
            ws, grads = MlpWorkspace(net.mlp, rows), _gradient_net(net)
            rng = np.random.default_rng(seed)
            # batches of one row, full and ragged, in the drawn order
            for k in [min(c, rows) for c in counts] + [rows, 1]:
                _assert_gradients_equal(net, ws, grads, *_batch(n, m, k, rng))

        check()

    @pytest.mark.parametrize("kind", KINDS)
    def test_batches_of_every_size_in_any_order(self, kind):
        net = init_network(kind, 2, 3, seed=21, I=5, hidden=(9, 6))
        ws, grads = MlpWorkspace(net.mlp, 32), _gradient_net(net)
        rng = np.random.default_rng(22)
        for k in (32, 7, 1, 32, 1, 19, 7):
            _assert_gradients_equal(net, ws, grads, *_batch(2, 3, k, rng))

    @pytest.mark.parametrize("kind", KINDS)
    def test_repeat_in_process_is_byte_identical(self, kind):
        ds = _quadratic_dataset(2, 3, 150, 31)
        cfg = TrainConfig(epochs=3, batch_size=32, seed=4, learning_rate=1e-2)
        net0 = init_network(kind, 2, 3, seed=9, I=5, hidden=(9, 6))
        (net_a, rep_a), (net_b, rep_b) = train(net0, ds, cfg), train(net0, ds, cfg)
        assert (json.dumps(model_to_json(net_a), sort_keys=True).encode()
                == json.dumps(model_to_json(net_b), sort_keys=True).encode())
        assert rep_a.train_losses == rep_b.train_losses
        assert rep_a.test_losses == rep_b.test_losses

    # The smallest tracemalloc peak of four calls below (786,792 to 787,592
    # bytes, one and three epochs) with the per-step allocating loop that
    # the workspace replaced: a fresh gradient list, its concatenation and
    # Adam's two temporaries each step. NumPy 2.4, Python 3.11.
    ALLOCATING_LOOP_PEAK = 786_792

    @staticmethod
    def _traced_peak(epochs):
        # a cell whose largest array is its parameter vector: 12,152 values
        # (97 KB), against steps of 16 rows over 54 and loss passes over 6
        ds = _quadratic_dataset(2, 3, 60, 40)
        net = init_network("plse", 2, 3, seed=12, I=30, hidden=(64, 64))
        cfg = TrainConfig(epochs=epochs, batch_size=16, seed=3)
        tracemalloc.start()
        try:
            train(net, ds, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_flat_in_epochs(self):
        self._traced_peak(1)  # first-call allocations outside the measurement
        one, three = self._traced_peak(1), self._traced_peak(3)
        # up to 2 KB for the per-epoch loss and time floats of the report
        assert three <= one + 2048
        assert max(one, three) < self.ALLOCATING_LOOP_PEAK


class TestEpochLosses:
    def test_one_loss_pass_per_epoch_on_the_test_split(self, monkeypatch):
        ds = _quadratic_dataset(2, 3, 150, 41)
        cfg = TrainConfig(epochs=3, batch_size=32, seed=6)
        _, test = split_dataset(ds, cfg.split_ratio, Rng(cfg.seed))
        passes = []

        def recording_loss(net, X, U, y):
            passes.append((X.copy(), U.copy(), y.copy()))
            return mse_loss(net, X, U, y)

        monkeypatch.setattr(training, "mse_loss", recording_loss)
        train(init_network("plse", 2, 3, seed=2, I=5, hidden=(9,)), ds, cfg)
        assert len(passes) == cfg.epochs
        for X, U, y in passes:
            assert_array_equal(X, test.X)
            assert_array_equal(U, test.U)
            assert_array_equal(y, test.y)

    def test_single_batch_epoch_loss_is_the_pre_update_mse(self):
        # with one step per epoch, the epoch's loss is the MSE of the net
        # that step started from, summed in the shuffled row order
        ds = _quadratic_dataset(1, 2, 40, 42)
        cfg = TrainConfig(epochs=1, batch_size=64, seed=3)
        net = init_network("lse", 1, 2, seed=4, I=6)
        train_ds, _ = split_dataset(ds, cfg.split_ratio, Rng(cfg.seed))
        _, rep = train(net, ds, cfg)
        (loss,) = rep.train_losses
        assert_allclose(loss, mse_loss(net, train_ds.X, train_ds.U, train_ds.y),
                        rtol=1e-12)


class TestEpochTimes:
    def test_one_positive_time_per_epoch(self):
        ds = _quadratic_dataset(1, 1, 100, 18)
        _, rep = train(init_network("lse", 1, 1, seed=3, I=4), ds,
                       TrainConfig(epochs=6, seed=2))
        assert len(rep.epoch_times_s) == 6
        assert all(t > 0 for t in rep.epoch_times_s)
        assert sum(rep.epoch_times_s) <= rep.wall_time_s
