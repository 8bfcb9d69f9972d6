"""Tests for forward evaluation, u-differentiation, twins, serialization."""

import dataclasses
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from paraconvex.exceptions import (
    DimensionMismatch,
    ModelFormatError,
    NonFiniteInput,
    NumericOverflow,
    UnsupportedNetwork,
)
from paraconvex.networks import (
    Bank,
    FeedforwardNet,
    MlpParams,
    bank_values,
    bank_weights,
    clone_network,
    forward,
    forward_batch,
    grad_u_batch,
    load_model,
    mlp_forward_batch,
    model_from_json,
    model_to_json,
    nonsmooth_twin,
    save_model,
    shifted_lse,
    u_bank_batch,
)
from paraconvex.training import init_network


def _u_bank(net, x):
    """The affine bank in u at one condition x: row 0 of u_bank_batch."""
    A_u, c = u_bank_batch(net, x[None])
    return A_u[0], c[0]


def _central_differences(net, x, u, h):
    """Central differences of step h in u at one point (x, u), its 2m
    stencil points scored in one forward_batch call."""
    m = len(u)
    steps = h * np.eye(m)
    f = forward_batch(net, np.tile(x, (2 * m, 1)), np.vstack([u + steps, u - steps]))
    return (f[:m] - f[m:]) / (2 * h)


def _random_mlp(widths, rng):
    Ws = [rng.normal(size=(widths[k + 1], widths[k])) for k in range(len(widths) - 1)]
    bs = [rng.normal(size=widths[k + 1]) for k in range(len(widths) - 1)]
    return MlpParams(weights=Ws, biases=bs)


def _random_plse(n, m, I, T, seed, hidden=(16, 16)):
    rng = np.random.default_rng(seed)
    embed = _random_mlp([n, *hidden, (m + 1) * I], rng)
    return Bank(n=n, m=m, mlp=embed, T=T, seed=seed)


def _random_lse(n, m, I, T, seed):
    rng = np.random.default_rng(seed)
    return Bank(n=n, m=m, mlp=_random_mlp([n + m, I], rng), T=T, seed=seed)


class TestMlpForward:
    def test_zero_net(self):
        mp = MlpParams(
            weights=[np.zeros((4, 3)), np.zeros((2, 4))],
            biases=[np.zeros(4), np.zeros(2)],
        )
        assert_array_equal(
            mlp_forward_batch(mp, np.array([1.0, -2.0, 3.0])[None, :])[0], np.zeros(2)
        )

    def test_single_affine_layer_is_identity(self):
        # one layer means no hidden activation at all
        mp = MlpParams(weights=[np.eye(2)], biases=[np.zeros(2)])
        assert_array_equal(
            mlp_forward_batch(mp, np.array([-1.0, 2.0])[None, :])[0], [-1.0, 2.0]
        )

    def test_leaky_relu_applied_on_hidden(self):
        mp = MlpParams(
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.zeros(1), np.zeros(1)],
        )
        assert_allclose(mlp_forward_batch(mp, np.array([-2.0])[None, :])[0], [-0.02])
        assert_allclose(mlp_forward_batch(mp, np.array([2.0])[None, :])[0], [2.0])

    def test_dimension_checks(self):
        mp = MlpParams(weights=[np.zeros((2, 3))], biases=[np.zeros(2)])
        with pytest.raises(DimensionMismatch):
            mlp_forward_batch(mp, np.zeros(4)[None, :])[0]
        with pytest.raises(DimensionMismatch):
            MlpParams(weights=[np.zeros((2, 3)), np.zeros((2, 5))],
                      biases=[np.zeros(2), np.zeros(2)])


class TestFlatParameters:
    """A net's layers are reshaped views of its one vector `flat`."""

    def _net(self):
        return _random_plse(2, 1, 3, T=0.1, seed=5, hidden=(4,))

    def _rows(self):
        return np.array([[0.3, -0.2], [0.9, 0.1]]), np.array([[0.5], [-0.4]])

    def test_input_arrays_are_copied(self):
        rng = np.random.default_rng(4)
        Ws = [rng.normal(size=(4, 2)), rng.normal(size=(8, 4))]
        bs = [rng.normal(size=4), rng.normal(size=8)]
        net = Bank(n=2, m=1, mlp=MlpParams(Ws, bs), T=0.1)
        before = forward_batch(net, *self._rows())
        Ws[0][:] = 7.0
        bs[1][:] = -3.0
        assert_array_equal(forward_batch(net, *self._rows()), before)

    def test_layers_are_views_of_flat(self):
        net = self._net()
        mlp = net.mlp
        arrays = [p for W, b in zip(mlp.weights, mlp.biases) for p in (W, b)]
        assert mlp.flat.dtype == np.float64
        assert mlp.flat.size == sum(p.size for p in arrays)
        assert_array_equal(mlp.flat, np.concatenate(arrays, axis=None))
        for p in arrays:
            assert np.shares_memory(p, mlp.flat) and p.flags.c_contiguous
        before = forward_batch(net, *self._rows())
        mlp.flat[-1] += 1.0  # the last offset of the output layer
        after = forward_batch(net, *self._rows())
        assert not np.array_equal(after, before)

    def test_clone_has_its_own_flat(self):
        net = self._net()
        clone = clone_network(net)
        assert not np.shares_memory(clone.mlp.flat, net.mlp.flat)
        assert_array_equal(clone.mlp.flat, net.mlp.flat)
        assert all(np.shares_memory(W, clone.mlp.flat) for W in clone.mlp.weights)
        before = forward_batch(net, *self._rows())
        clone.mlp.flat[:] = 0.0
        assert_array_equal(forward_batch(net, *self._rows()), before)
        assert (clone.kind, clone.T, clone.seed) == (net.kind, net.T, net.seed)

    def test_twins_share_flat(self):
        net = self._net()
        pma = nonsmooth_twin(net)
        plse = dataclasses.replace(pma, T=0.5)
        assert pma.mlp.flat is net.mlp.flat and plse.mlp.flat is net.mlp.flat
        before = forward_batch(pma, *self._rows())
        net.mlp.flat *= 2.0
        assert not np.array_equal(forward_batch(pma, *self._rows()), before)


class TestCounts:
    """n and m are integers >= 1: a model document that says otherwise is
    malformed, not a net to solve."""

    @pytest.mark.parametrize("bad", [{"m": 1.0}, {"n": True}, {"m": 0}])
    def test_bank_rejects(self, bad):
        rng = np.random.default_rng(6)
        kw = {"n": 1, "m": 1, **bad}
        with pytest.raises(ValueError, match="must be"):
            Bank(mlp=_random_mlp([2, 2], rng), **kw)

    @pytest.mark.parametrize("bad", [{"m": 1.0}, {"n": True}, {"m": 0}])
    def test_fnn_rejects(self, bad):
        rng = np.random.default_rng(7)
        kw = {"n": 1, "m": 1, **bad}
        with pytest.raises(ValueError, match="must be"):
            FeedforwardNet(mlp=_random_mlp([2, 3, 1], rng), **kw)


class TestEmbeddedCoeffs:
    def test_zero_final_layer(self):
        rng = np.random.default_rng(0)
        embed = _random_mlp([2, 8, 6], rng)
        embed.weights[-1][:] = 0.0
        embed.biases[-1][:] = 0.0
        net = Bank(n=2, m=1, mlp=embed)
        A, b = _u_bank(net, np.array([0.4, -0.9]))
        assert_array_equal(A, np.zeros((3, 1)))
        assert_array_equal(b, np.zeros(3))

    def test_layout_single_plane(self):
        embed = MlpParams(weights=[np.zeros((2, 1))], biases=[np.array([2.0, 3.0])])
        net = Bank(n=1, m=1, mlp=embed)
        A, b = _u_bank(net, np.array([0.0]))
        assert_array_equal(A, [[2.0]])
        assert_array_equal(b, [3.0])

    def test_layout_two_planes(self):
        embed = MlpParams(
            weights=[np.zeros((6, 1))], biases=[np.arange(1.0, 7.0)]
        )
        net = Bank(n=1, m=2, mlp=embed)
        A, b = _u_bank(net, np.array([0.0]))
        assert_array_equal(A, [[1.0, 2.0], [3.0, 4.0]])
        assert_array_equal(b, [5.0, 6.0])

    def test_output_width_validated(self):
        embed = MlpParams(weights=[np.zeros((5, 1))], biases=[np.zeros(5)])
        with pytest.raises(DimensionMismatch):
            Bank(n=1, m=2, mlp=embed)  # 5 outputs, not a multiple of m+1 = 3

    def test_kind_follows_the_input_width(self):
        rng = np.random.default_rng(1)
        assert Bank(n=2, m=1, mlp=_random_mlp([3, 4], rng)).kind == "ma"
        assert Bank(n=2, m=1, mlp=_random_mlp([3, 4], rng), T=0.1).kind == "lse"
        assert Bank(n=2, m=1, mlp=_random_mlp([2, 4], rng)).kind == "pma"
        assert Bank(n=2, m=1, mlp=_random_mlp([2, 5, 4], rng), T=0.1).kind == "plse"

    def test_joint_input_net_must_be_one_layer(self):
        # a hidden layer over [x; u] makes an fnn-shaped net, not convex in
        # u: it must not pass as ma/lse
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionMismatch, match="one layer"):
            Bank(n=2, m=1, mlp=_random_mlp([3, 5, 4], rng))

    def test_input_width_is_n_or_n_plus_m(self):
        rng = np.random.default_rng(3)
        for width in (1, 4):  # n = 2, n + m = 3
            with pytest.raises(DimensionMismatch):
                Bank(n=2, m=1, mlp=_random_mlp([width, 4], rng))


def _two_plane_pma():
    # a1(x)=1, b1=0, a2(x)=-1, b2=0 for every x
    embed = MlpParams(
        weights=[np.zeros((4, 1))], biases=[np.array([1.0, -1.0, 0.0, 0.0])]
    )
    return Bank(n=1, m=1, mlp=embed)


class TestBankWeights:
    def test_lse_values_and_softmax(self):
        rng = np.random.default_rng(21)
        S = rng.normal(size=(7, 5)) * 3.0
        S[2, :] = 4.0  # an all-tie row
        for T in (0.01, 0.1, 2.0):
            values, weights = bank_weights(S, T)
            # one shifted exponential gives both: the values are
            # shifted_lse's bits, the weights a softmax of the same shift
            assert_array_equal(values, shifted_lse(S, T))
            assert_array_equal(values, bank_values(S, T))
            e = np.exp((S - S.max(axis=1, keepdims=True)) / T)
            assert_array_equal(weights, e / e.sum(axis=1)[:, None])
            assert_allclose(weights.sum(axis=1), 1.0, rtol=1e-15)

    def test_max_values_and_one_hot(self):
        S = np.array([[1.0, 3.0, 3.0], [-2.0, -5.0, -1.0]])
        values, weights = bank_weights(S, None)
        assert_array_equal(values, bank_values(S, None))
        assert values.tolist() == [3.0, -1.0]
        # the lowest index wins a tie
        assert weights.tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


class TestForward:
    def test_plse_single_plane_collapses(self):
        embed = MlpParams(weights=[np.zeros((2, 1))], biases=[np.array([2.0, 3.0])])
        for T in (0.01, 0.1, 1.0, 10.0):
            net = Bank(n=1, m=1, mlp=embed, T=T)
            assert_allclose(forward_batch(net, [[5.0]], [[0.5]]), [4.0])

    def test_pma_max_of_planes(self):
        net = _two_plane_pma()
        assert forward_batch(net, [[0.0], [0.0]], [[0.5], [-0.8]]).tolist() == [0.5, 0.8]

    def test_plse_equal_arguments(self):
        net = dataclasses.replace(_two_plane_pma(), T=0.1)
        got = forward_batch(net, [[0.0]], [[0.0]])
        assert_allclose(got, [0.1 * np.log(2.0)], rtol=1e-12)

    def test_max_shift_stability(self):
        net = Bank(
            n=1,
            m=1,
            mlp=MlpParams([np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])],
                          [np.array([500.0, -500.0])]),
            T=1e-3,
        )
        assert np.isfinite(forward_batch(net, [[1.0]], [[1.0]])).all()

    def test_overflow_reported(self):
        mp = MlpParams(weights=[np.array([[1e300, 0.0]])], biases=[np.array([0.0])])
        net = FeedforwardNet(n=1, m=1, mlp=mp)
        with pytest.raises(NumericOverflow):
            # 1e300 * 1e10 overflows the affine map
            forward_batch(net, [[1e10]], [[0.0]])

    @pytest.mark.parametrize("kind", ["ma", "lse", "pma", "plse"])
    def test_overflow_is_typed_never_a_warning(self, kind):
        # I = 3 planes of 2x2 banks, every weight 1.5: each plane's x-term
        # overflows at x = (1e308, 1e308); a leaked RuntimeWarning is an
        # error under the suite's filterwarnings
        n_in, n_out = (2, 9) if kind.startswith("p") else (4, 3)
        mlp = MlpParams([np.full((n_out, n_in), 1.5)], [np.zeros(n_out)])
        net = Bank(n=2, m=2, mlp=mlp, T=0.1 if kind.endswith("lse") else None)
        assert net.kind == kind
        X, U = np.full((1, 2), 1e308), np.full((1, 2), 0.5)
        with pytest.raises(NumericOverflow):
            forward_batch(net, X, U)
        if net.T is not None:
            with pytest.raises(NumericOverflow):
                grad_u_batch(net, X, U)

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_not_an_overflow(self, kind, which, bad):
        # a NaN x was reported as "plse forward produced a non-finite value"
        net = init_network(kind, 2, 3, seed=3, I=4, hidden=(6,))
        rows = [np.full((2, 2), 0.25), np.full((2, 3), -0.5)]
        rows[which][1, 0] = bad
        with pytest.raises(NonFiniteInput):
            forward_batch(net, *rows)
        if kind not in ("ma", "pma"):
            with pytest.raises(NonFiniteInput):
                grad_u_batch(net, *rows)

    def test_dimension_mismatch(self):
        net = _two_plane_pma()
        with pytest.raises(DimensionMismatch):
            forward_batch(net, [[0.0, 1.0]], [[0.5]])
        with pytest.raises(DimensionMismatch):
            forward_batch(net, [[0.0]], [[0.5, 0.1]])
        with pytest.raises(DimensionMismatch):
            forward_batch(net, [[0.0], [1.0]], [[0.5]])
        # the one-point form takes a point, not a row or a scalar
        for x, u in (([0.0, 1.0], [0.5]), ([[0.0]], [0.5]), (0.0, [0.5]), ([0.0], 0.5)):
            with pytest.raises(DimensionMismatch):
                forward(net, x, u)
        assert forward(net, [0.0], [0.5]) == 0.5

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        nets = [
            _random_plse(2, 3, 5, 0.1, seed=1),
            nonsmooth_twin(_random_plse(2, 3, 5, 0.1, seed=2)),
            _random_lse(2, 3, 5, 0.5, seed=3),
            Bank(n=2, m=3, mlp=_random_mlp([5, 4], rng)),
            FeedforwardNet(n=2, m=3, mlp=_random_mlp([5, 8, 1], rng)),
        ]
        X = rng.uniform(-1, 1, size=(6, 2))
        U = rng.uniform(-1, 1, size=(6, 3))
        for net in nets:
            batch = forward_batch(net, X, U)
            single = [forward_batch(net, X[i : i + 1], U[i : i + 1])[0] for i in range(6)]
            # paths may associate sums differently; agreement is numerical
            assert_allclose(batch, single, rtol=1e-12, atol=1e-12)


class TestGradU:
    def test_single_plane_gradient(self):
        embed = MlpParams(weights=[np.zeros((2, 1))], biases=[np.array([2.0, 3.0])])
        net = Bank(n=1, m=1, mlp=embed, T=0.7)
        assert_allclose(grad_u_batch(net, [[1.0]], [[0.3]]), [[2.0]])

    def test_symmetric_bank_cancels(self):
        net = dataclasses.replace(_two_plane_pma(), T=0.1)
        assert_allclose(grad_u_batch(net, [[0.0]], [[0.0]]), [[0.0]], atol=1e-15)

    def test_matches_finite_differences(self):
        h = 1e-4
        for trial in range(100):
            if trial % 2 == 0:
                net = _random_plse(2, 2, 6, T=0.1, seed=100 + trial)
            else:
                net = _random_lse(2, 2, 6, T=0.1, seed=100 + trial)
            rng = np.random.default_rng(1000 + trial)
            x = rng.uniform(-1, 1, size=2)
            u = rng.uniform(-1, 1, size=2)
            g = grad_u_batch(net, x[None], u[None])[0]
            fd = _central_differences(net, x, u, h)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5

    def test_fnn_gradient_matches_fd(self):
        h = 1e-5
        for trial in range(20):
            rng = np.random.default_rng(70 + trial)
            net = FeedforwardNet(n=2, m=2, mlp=_random_mlp([4, 16, 16, 1], rng))
            x = rng.uniform(-1, 1, size=2)
            u = rng.uniform(-1, 1, size=2)
            g = grad_u_batch(net, x[None], u[None])[0]
            fd = _central_differences(net, x, u, h)
            assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-9) < 1e-4

    def test_one_layer_fnn_gradient_is_an_owned_writable_array(self):
        # with no hidden layer the workspace's gradient is a read-only view
        # of the weights; the caller gets its own copy
        net = init_network("fnn", 2, 3, seed=4, hidden=())
        rng = np.random.default_rng(4)
        X, U = rng.uniform(-1, 1, size=(5, 2)), rng.uniform(-1, 1, size=(5, 3))
        flat = net.mlp.flat.copy()
        G = grad_u_batch(net, X, U)
        assert G.shape == (5, 3) and G.flags.writeable
        assert not np.shares_memory(G, net.mlp.flat)
        assert_array_equal(G, np.tile(net.mlp.weights[0][0, 2:], (5, 1)))
        G[...] = 7.0
        assert_array_equal(net.mlp.flat, flat)
        assert_array_equal(grad_u_batch(net, X[:1], U[:1])[0], net.mlp.weights[0][0, 2:])

    def test_rejected_for_nonsmooth_kinds(self):
        pma = _two_plane_pma()
        with pytest.raises(UnsupportedNetwork):
            grad_u_batch(pma, [[0.0]], [[0.0]])
        ma = nonsmooth_twin(_random_lse(1, 1, 3, 0.1, seed=5))
        with pytest.raises(UnsupportedNetwork):
            grad_u_batch(ma, [[0.0]], [[0.0]])


class TestStructuralProperties:
    def test_sandwich_on_random_twins(self):
        for trial in range(50):
            plse = _random_plse(3, 2, 7, T=0.1, seed=300 + trial)
            pma = nonsmooth_twin(plse)
            rng = np.random.default_rng(400 + trial)
            X = rng.uniform(-1, 1, size=(20, 3))
            U = rng.uniform(-1, 1, size=(20, 2))
            gap = forward_batch(plse, X, U) - forward_batch(pma, X, U)
            assert np.all(gap >= -1e-9)
            assert np.all(gap <= plse.T * np.log(plse.I) + 1e-9)

    def test_convexity_in_u(self):
        rng = np.random.default_rng(55)
        plse = _random_plse(2, 2, 6, T=0.1, seed=60)
        nets = [
            plse,
            nonsmooth_twin(plse),
            _random_lse(2, 2, 6, T=0.3, seed=61),
            nonsmooth_twin(_random_lse(2, 2, 6, T=0.3, seed=62)),
        ]
        lambdas = np.linspace(0.0, 1.0, 11)
        for net in nets:
            for _ in range(20):
                x = rng.uniform(-1, 1, size=2)
                u1 = rng.uniform(-1, 1, size=2)
                u2 = rng.uniform(-1, 1, size=2)
                f1, f2 = forward_batch(net, [x, x], [u1, u2])
                lam = lambdas[:, None]
                mid = forward_batch(net, np.tile(x, (len(lambdas), 1)), lam * u1 + (1 - lam) * u2)
                assert np.all(mid <= lambdas * f1 + (1 - lambdas) * f2 + 1e-9)

    def test_u_bank_reproduces_forward(self):
        rng = np.random.default_rng(77)
        lse = _random_lse(3, 2, 5, T=0.2, seed=78)
        plse = _random_plse(3, 2, 5, T=0.2, seed=79)
        for net in (lse, plse):
            x = rng.uniform(-1, 1, size=3)
            u = rng.uniform(-1, 1, size=2)
            A_u, c = _u_bank(net, x)
            scores = A_u @ u + c
            want = net.T * np.log(np.sum(np.exp(scores / net.T)))
            assert_allclose(forward_batch(net, x[None], u[None]), [want], rtol=1e-12)

    def test_u_bank_rejects_fnn(self):
        rng = np.random.default_rng(80)
        net = FeedforwardNet(n=1, m=1, mlp=_random_mlp([2, 4, 1], rng))
        with pytest.raises(UnsupportedNetwork):
            u_bank_batch(net, np.array([[0.0]]))

    @pytest.mark.parametrize("kind", ["ma", "plse"])
    def test_u_bank_rejects_mis_shaped_conditions(self, kind):
        net = init_network(kind, 2, 1, seed=8, I=3, hidden=(4,))
        for X in (np.zeros(2), np.zeros((3, 1)), np.zeros((3, 3)), np.zeros((1, 3, 2))):
            with pytest.raises(DimensionMismatch, match=r"\(B, 2\)"):
                u_bank_batch(net, X)


class TestTwins:
    def test_twins_share_weights(self):
        plse = _random_plse(2, 1, 4, T=0.1, seed=91)
        pma = nonsmooth_twin(plse)
        assert pma.mlp is plse.mlp
        back = dataclasses.replace(pma, T=0.25)
        assert back.T == 0.25 and back.mlp is plse.mlp

    def test_bank_twins(self):
        lse = _random_lse(2, 1, 4, T=0.1, seed=92)
        ma = nonsmooth_twin(lse)
        assert ma.mlp is lse.mlp
        assert dataclasses.replace(ma, T=0.5).T == 0.5

    @pytest.mark.parametrize("T", [True, np.inf, np.nan, "0.1", 0.0, -0.1])
    def test_temperature_must_be_positive_finite_number(self, T):
        plse = _random_plse(2, 1, 4, T=0.1, seed=94)
        with pytest.raises(ValueError, match="positive finite number"):
            Bank(n=2, m=1, mlp=plse.mlp, T=T)
        with pytest.raises(ValueError, match="positive finite number"):
            dataclasses.replace(nonsmooth_twin(plse), T=T)

    def test_fnn_has_no_twin(self):
        rng = np.random.default_rng(93)
        net = FeedforwardNet(n=1, m=1, mlp=_random_mlp([2, 4, 1], rng))
        with pytest.raises(UnsupportedNetwork):
            nonsmooth_twin(net)


class TestSerialization:
    def _nets(self):
        rng = np.random.default_rng(7)
        return [
            FeedforwardNet(n=2, m=1, mlp=_random_mlp([3, 8, 8, 1], rng), seed=7),
            Bank(n=2, m=1, mlp=_random_mlp([3, 4], rng)),
            _random_lse(2, 1, 4, T=0.2, seed=8),
            nonsmooth_twin(_random_plse(2, 1, 4, T=0.2, seed=9)),
            _random_plse(2, 1, 4, T=0.2, seed=10),
        ]

    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(5, 2))
        U = rng.uniform(-1, 1, size=(5, 1))
        for net in self._nets():
            clone = model_from_json(model_to_json(net))
            assert clone.kind == net.kind
            assert_array_equal(forward_batch(clone, X, U), forward_batch(net, X, U))

    def test_json_round_trip_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(kind=st.sampled_from(["fnn", "ma", "lse", "pma", "plse"]),
                          n=st.integers(1, 3), m=st.integers(1, 4), I=st.integers(1, 6),
                          hidden=st.lists(st.integers(1, 8), min_size=1, max_size=3),
                          seed=st.integers(0, 2**16))
        def check(kind, n, m, I, hidden, seed):
            net = init_network(kind, n, m, seed=seed, I=I, hidden=tuple(hidden))
            doc = model_to_json(net)
            clone = model_from_json(json.loads(json.dumps(doc)))
            assert model_to_json(clone) == doc
            rng = np.random.default_rng(seed)
            X, U = rng.uniform(-1, 1, (8, n)), rng.uniform(-1, 1, (8, m))
            assert (forward_batch(clone, X, U) == forward_batch(net, X, U)).all()

        check()

    def test_format_version_checked(self):
        doc = model_to_json(self._nets()[0])
        for version in (99, True, 1.0, "1", None):
            doc["format_version"] = version
            with pytest.raises(ModelFormatError, match="format_version"):
                model_from_json(doc)

    @pytest.mark.parametrize("seed", ["abc", -5, 1.5, [1], True])
    def test_bad_seed_rejected(self, seed):
        for net in self._nets():
            doc = dict(model_to_json(net), seed=seed)
            with pytest.raises(ModelFormatError, match="^malformed model JSON: seed"):
                model_from_json(doc)

    @pytest.mark.parametrize("seed", [None, 0, 2**40])
    def test_good_seed_kept(self, seed):
        for net in self._nets():
            assert model_from_json(dict(model_to_json(net), seed=seed)).seed == seed

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1, 2**64 - 1, np.int64(5)],
                             ids=["0", "7", "2**31-1", "2**64-1", "np.int64(5)"])
    def test_every_built_net_loads_back(self, kind, seed, tmp_path):
        # a NumPy seed overflowed Rng, and a saved net's seed must be one
        # load_model accepts
        net = init_network(kind, 2, 1, seed=seed, I=3, hidden=(4,))
        assert type(net.seed) is int and net.seed == seed
        save_model(net, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        header = {k: v for k, v in model_to_json(net).items() if k != "weights"}
        assert {k: v for k, v in model_to_json(loaded).items() if k != "weights"} == header
        assert_array_equal(loaded.mlp.flat, net.mlp.flat)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        ("1", "seed must be an integer, got '1'"),
    ], ids=["negative", "bool", "float", "string"])
    def test_bad_seed_rejected_when_built(self, seed, message):
        # each once built a net that save_model wrote and load_model refused,
        # or raised a bare TypeError from Rng
        rng = np.random.default_rng(3)
        builds = [
            lambda: init_network("plse", 2, 1, seed=seed, I=3, hidden=(4,)),
            lambda: Bank(n=2, m=1, mlp=_random_mlp([3, 4], rng), seed=seed),
            lambda: FeedforwardNet(n=2, m=1, mlp=_random_mlp([3, 4, 1], rng), seed=seed),
        ]
        for build in builds:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    @pytest.mark.parametrize("key, value", [("T", "hot"), ("T", 0.1), ("I", 99),
                                            ("I", 0)])
    def test_fnn_takes_null_temperature_and_plane_count(self, key, value):
        # a value here would load and be written back as null on saving
        doc = dict(model_to_json(self._nets()[0]), **{key: value})
        with pytest.raises(ModelFormatError, match="an fnn model takes null T and I"):
            model_from_json(doc)

    def test_unknown_kind_rejected(self):
        doc = model_to_json(self._nets()[0])
        doc["kind"] = "rbf"
        with pytest.raises(ValueError):
            model_from_json(doc)

    @pytest.mark.parametrize("key", ["kind", "n", "m", "I", "T", "layer_widths",
                                     "weights"])
    def test_missing_key_rejected(self, key):
        for net in self._nets():
            doc = model_to_json(net)
            if doc[key] is None:
                continue  # a key this kind does not use
            del doc[key]
            with pytest.raises(ModelFormatError, match=key):
                model_from_json(doc)

    def test_layers_must_match_the_kind(self):
        rng = np.random.default_rng(12)
        ma_doc = model_to_json(Bank(n=2, m=1, mlp=_random_mlp([3, 4], rng)))
        pma_doc = model_to_json(nonsmooth_twin(_random_plse(2, 1, 4, T=0.2, seed=13)))
        for doc, other in ((ma_doc, pma_doc), (pma_doc, ma_doc)):
            # an ma document with a pma's layers, and the other way round
            doc = dict(doc, layer_widths=other["layer_widths"], weights=other["weights"])
            with pytest.raises(ModelFormatError, match=f"a {doc['kind']} model holds"):
                model_from_json(doc)

    def test_two_layer_lse_rejected(self):
        rng = np.random.default_rng(14)
        deep = model_to_json(FeedforwardNet(n=2, m=1, mlp=_random_mlp([3, 5, 1], rng)))
        doc = dict(model_to_json(_random_lse(2, 1, 1, T=0.2, seed=15)),
                   layer_widths=deep["layer_widths"], weights=deep["weights"])
        with pytest.raises(ModelFormatError, match="one layer"):
            model_from_json(doc)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["W", "b"])
    def test_non_finite_weight_rejected(self, key, bad):
        # json.load reads NaN and Infinity; the fnn's last layer is layer 2
        for net, layer in ((self._nets()[0], 2), (self._nets()[2], 0)):
            doc = model_to_json(net)
            doc["weights"][layer][key][0] = float(bad)
            doc = json.loads(json.dumps(doc))
            with pytest.raises(ModelFormatError, match=f"layer {layer} holds a non-finite"):
                model_from_json(doc)

    def test_bad_shapes_rejected(self):
        for net in self._nets():
            doc = model_to_json(net)
            doc["weights"][0]["W"] = doc["weights"][0]["W"][:-1]
            with pytest.raises(ModelFormatError):
                model_from_json(doc)
            doc = model_to_json(net)
            doc["weights"][-1]["b"] = doc["weights"][-1]["b"] + [0.0]
            with pytest.raises(ModelFormatError):
                model_from_json(doc)
            doc = model_to_json(net)
            doc["weights"] = doc["weights"][:1] + doc["weights"]
            with pytest.raises(ModelFormatError):
                model_from_json(doc)
        with pytest.raises(ModelFormatError):
            model_from_json([1, 2, 3])

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (61, 20)])
    def test_save_model_writes_json_dump_bytes(self, kind, dims, tmp_path):
        # at 61x20 a plse's layers hold 3,904, 4,096 and 40,320 weights and
        # an fnn's first 5,184: below, at and across the 4,096-value chunks
        net = init_network(kind, *dims, seed=6)
        save_model(net, tmp_path / "model.json")
        want = json.dumps(model_to_json(net), sort_keys=True, indent=1) + "\n"
        assert (tmp_path / "model.json").read_bytes() == want.encode()
        assert model_to_json(load_model(tmp_path / "model.json")) == model_to_json(net)

    def test_save_model_bytes_on_edge_weights(self, tmp_path):
        # signed zero, the least subnormal, a huge and an integral weight;
        # a width-1 layer and a one-plane bank write one-entry lists
        edge = np.array([-0.0, 5e-324, 1e300, 1.0, -2.0])
        nets = [
            FeedforwardNet(n=2, m=3, mlp=MlpParams([edge[None, :], np.array([[-0.0]])],
                                                   [edge[2:3], edge[1:2]])),
            Bank(n=1, m=4, mlp=MlpParams([edge[None, :]], [edge[:1]]), T=0.5, seed=0),
            Bank(n=4, m=1, mlp=MlpParams([edge[:4, None].T, edge[:2, None]],
                                         [edge[3:4], edge[:2]])),
        ]
        for net in nets:
            save_model(net, tmp_path / "model.json")
            want = json.dumps(model_to_json(net), sort_keys=True, indent=1) + "\n"
            assert (tmp_path / "model.json").read_bytes() == want.encode()

    def test_json_fields_present(self):
        doc = model_to_json(self._nets()[4])
        for key in ("format_version", "kind", "n", "m", "I", "T", "layer_widths",
                    "weights", "seed"):
            assert key in doc
        assert doc["format_version"] == 1
        assert doc["layer_widths"][-1] == (1 + 1) * 4
