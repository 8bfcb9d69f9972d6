"""Tests for the solver routes, their certificates and the batch contract."""

import dataclasses
import os
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from paraconvex.exceptions import DimensionMismatch, NonFiniteInput, NumericOverflow
from paraconvex import solver as solver_module
from paraconvex.cli import main as cli_main
from paraconvex.networks import (
    LEAKY_SLOPE,
    Bank,
    FeedforwardNet,
    MlpParams,
    MlpWorkspace,
    bank_scores,
    bank_values,
    bank_weights,
    forward_batch,
    grad_u_batch,
    load_model,
    mlp_forward_batch,
    mlp_offset,
    save_model,
    shifted_lse,
    u_bank_batch,
)
from paraconvex.numerics import BoxDomain, Rng, grid_minimize, sample_uniform_box
from paraconvex.solver import (
    SolveOptions,
    SolveResult,
    first_order_gap,
    minimize,
    minimize_batch,
)
from paraconvex.training import init_network

from banks import unit_variance_bank


def softmax_over_T(scores: np.ndarray, T: float, axis: int = -1) -> np.ndarray:
    top = np.max(scores, axis=axis, keepdims=True)
    e = np.exp((scores - top) / T)
    return e / np.sum(e, axis=axis, keepdims=True)


def _u_bank(net, x):
    """The affine bank in u at one condition x: row 0 of u_bank_batch."""
    A_u, c = u_bank_batch(net, x[None])
    return A_u[0], c[0]


def _grid_value(net, x, domain, points):
    _, gval = grid_minimize(
        lambda Ug: forward_batch(net, np.tile(x, (Ug.shape[0], 1)), Ug),
        domain,
        points,
        vectorized=True,
    )
    return gval


def _single_plane_plse(slope, offset, T=0.1):
    embed = MlpParams(
        weights=[np.zeros((2, 1))], biases=[np.array([slope, offset])]
    )
    return Bank(n=1, m=1, mlp=embed, T=T)


def _symmetric_embed():
    # planes u and -u for every x
    return MlpParams(weights=[np.zeros((4, 1))], biases=[np.array([1.0, -1.0, 0.0, 0.0])])


class TestSolveOptions:
    def test_defaults(self):
        o = SolveOptions()
        assert o.max_iters == 500 and o.restarts == 16
        assert o.grad_tolerance == 1e-6

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_iters": 0},
            {"grad_tolerance": 0.0},
            {"max_iters": -1},
            {"grad_tolerance": float("nan")},
            {"restarts": 0},
            {"grad_tolerance": float("inf")},
            {"grad_tolerance": True},
            {"grad_tolerance": "0.1"},
            {"grad_tolerance": 0},
            {"grad_tolerance": -1},
            {"max_iters": float("nan")},
            {"max_iters": float("inf")},
            {"max_iters": 2.5},
            {"max_iters": 3.0},
            {"max_iters": True},
            {"restarts": 2.5},
            {"restarts": float("nan")},
            {"seed": -1},
            {"seed": 2.5},
            {"seed": float("nan")},
            {"seed": True},
            {"seed": np.int64(-3)},
        ],
    )
    def test_validation(self, bad):
        (field,) = bad
        with pytest.raises(ValueError, match=field):
            SolveOptions(**bad)

    def test_numpy_integer_counts(self):
        o = SolveOptions(max_iters=np.int64(7), restarts=np.int32(2))
        assert (o.max_iters, o.restarts) == (7, 2)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**63), np.int32(5)])
    def test_integer_seeds(self, seed):
        assert SolveOptions(seed=seed).seed == seed


class TestFirstOrderGap:
    def test_nonnegative_and_zero_at_zero_gradient(self):
        dom = BoxDomain.symmetric(3)
        assert first_order_gap(np.zeros(3), np.array([0.5, -0.5, 0.0]), dom) == 0.0

    def test_linear_exactness(self):
        # for f(u) = g.u the gap at u equals f(u) - min f exactly
        dom = BoxDomain.symmetric(2)
        g = np.array([2.0, -3.0])
        u = np.array([0.5, 0.25])
        want = g @ u - (-abs(g[0]) - abs(g[1]))
        assert_allclose(first_order_gap(g, u, dom), want)


class TestMinimizeSmoothConvex:
    def test_single_plane_hits_corner(self):
        net = _single_plane_plse(1.0, 0.0)
        res = minimize(net, np.array([0.0]), BoxDomain.symmetric(1))
        assert_array_equal(res.u_star, [-1.0])
        assert_allclose(res.value, -1.0)
        assert res.certificate <= 1e-9

    def test_symmetric_planes_center(self):
        net = Bank(n=1, m=1, mlp=_symmetric_embed(), T=0.1)
        res = minimize(net, np.array([0.0]), BoxDomain.symmetric(1))
        assert abs(res.u_star[0]) <= 1e-6
        assert_allclose(res.value, 0.1 * np.log(2.0), atol=1e-9)

    def test_matches_grid_oracle(self):
        for trial in range(12):
            m = 1 + trial % 2
            net = init_network("plse", 2, m, seed=5000 + trial, I=8, hidden=(12, 10))
            x = Rng(6000 + trial).uniform_in(-1.0, 1.0, 2)
            dom = BoxDomain.symmetric(m)
            res = minimize(net, x, dom)
            gval = _grid_value(net, x, dom, 4001 if m == 1 else 401)
            assert res.value <= gval + 1e-4
            # certified interval contains the oracle value
            assert res.value - res.certificate <= gval + 1e-12

    def test_feasibility_exact(self):
        net = init_network("plse", 1, 2, seed=31, I=6, hidden=(8,))
        dom = BoxDomain(np.array([-0.25, 0.1]), np.array([0.25, 0.9]))
        res = minimize(net, np.array([0.6]), dom)
        assert dom.contains(res.u_star)

    def test_monotone_descent(self):
        net = init_network("plse", 2, 2, seed=33, I=8, hidden=(12, 10))
        res = minimize(
            net, np.array([0.2, -0.8]), BoxDomain.symmetric(2),
            SolveOptions(keep_trace=True),
        )
        diffs = np.diff(res.trace)
        assert np.all(diffs <= 1e-15)

    def test_result_invariants(self):
        net = init_network("plse", 1, 1, seed=8, I=5)
        x = np.array([0.1])
        res = minimize(net, x, BoxDomain.symmetric(1))
        assert res.value == forward_batch(net, x[None], res.u_star[None])[0]
        assert res.certificate >= 0.0
        assert res.wall_time_s >= 0.0


class TestMinimizePma:
    def test_single_plane_corner(self):
        embed = MlpParams(weights=[np.zeros((2, 1))], biases=[np.array([2.0, 0.5])])
        net = Bank(n=1, m=1, mlp=embed)
        res = minimize(net, np.array([0.0]), BoxDomain.symmetric(1))
        assert_allclose(res.u_star, [-1.0], atol=1e-9)
        assert_allclose(res.value, -1.5, atol=1e-9)

    def test_symmetric_planes(self):
        net = Bank(n=1, m=1, mlp=_symmetric_embed())
        res = minimize(net, np.array([0.0]), BoxDomain.symmetric(1))
        assert abs(res.u_star[0]) <= 1e-4
        assert abs(res.value) <= 1e-4 * np.log(2.0) + 1e-9
        # the LP's dual bound needs no smoothing term
        assert 0.0 <= res.certificate <= SolveOptions().grad_tolerance

    def test_certified_interval_contains_oracle(self):
        for trial in range(8):
            net = init_network("pma", 2, 2, seed=7000 + trial, I=8, hidden=(12, 10))
            x = Rng(8000 + trial).uniform_in(-1.0, 1.0, 2)
            dom = BoxDomain.symmetric(2)
            res = minimize(net, x, dom)
            gval = _grid_value(net, x, dom, 401)
            assert res.value - res.certificate <= gval + 1e-12
            # the solver may legitimately beat the lattice by its
            # discretization error: Lipschitz constant times half-diagonal
            A_u, _ = _u_bank(net, x)
            lip = np.linalg.norm(A_u, axis=1).max()
            slack = lip * (2.0 / 400 / 2) * np.sqrt(2)
            assert gval <= res.value + slack + 1e-12

    def test_homotopy_consistency_with_twin(self):
        # the minima of a max bank and of its smooth twin at temperature T
        # lie within T log I of each other, and so do the certified intervals
        net = init_network("pma", 1, 1, seed=71, I=10)
        x = np.array([0.35])
        dom = BoxDomain.symmetric(1)
        res = minimize(net, x, dom)
        for T in (0.1, 0.01, 1e-3, 1e-4):
            twin = dataclasses.replace(net, T=T)
            gap = forward_batch(twin, x[None], res.u_star[None])[0] - res.value
            assert -1e-9 <= gap <= T * np.log(net.I) + 1e-9
            smooth = minimize(twin, x, dom)
            assert res.value - res.certificate <= smooth.value + 1e-12
            assert smooth.value - smooth.certificate <= res.value + T * np.log(net.I)


def _abs_value_fnn():
    # lrelu(u) + lrelu(-u) = 0.99|u|: unique minimum 0 at u = 0
    W1 = np.array([[0.0, 1.0], [0.0, -1.0]])
    W2 = np.array([[1.0, 1.0]])
    return FeedforwardNet(
        n=1, m=1,
        mlp=MlpParams(weights=[W1, W2], biases=[np.zeros(2), np.zeros(1)]),
    )


class TestMinimizeFnn:
    def test_known_landscape(self):
        res = minimize(
            _abs_value_fnn(), np.array([0.3]), BoxDomain.symmetric(1),
            SolveOptions(seed=1),
        )
        assert abs(res.u_star[0]) <= 1e-6
        assert abs(res.value) <= 1e-6
        assert res.certificate == np.inf

    def test_more_restarts_never_worse(self):
        for trial in range(5):
            net = init_network("fnn", 1, 1, seed=100 + trial, hidden=(8, 8))
            x = Rng(200 + trial).uniform_in(-1.0, 1.0, 1)
            v1 = minimize(net, x, BoxDomain.symmetric(1),
                              SolveOptions(seed=trial, restarts=1)).value
            v16 = minimize(net, x, BoxDomain.symmetric(1),
                               SolveOptions(seed=trial, restarts=16)).value
            assert v16 <= v1 + 1e-12

    def test_matches_grid_oracle(self):
        for trial in range(8):
            net = init_network("fnn", 1, 1, seed=300 + trial, hidden=(8, 8))
            x = Rng(400 + trial).uniform_in(-1.0, 1.0, 1)
            dom = BoxDomain.symmetric(1)
            res = minimize(net, x, dom, SolveOptions(seed=trial))
            gval = _grid_value(net, x, dom, 4001)
            assert res.value <= gval + 1e-3

    def test_deterministic_given_seed(self):
        net = init_network("fnn", 1, 2, seed=55, hidden=(8, 8))
        x = np.array([0.2])
        dom = BoxDomain.symmetric(2)
        a = minimize(net, x, dom, SolveOptions(seed=9))
        b = minimize(net, x, dom, SolveOptions(seed=9))
        assert_array_equal(a.u_star, b.u_star)
        assert a.value == b.value

    def test_numpy_integer_seed_solves_as_its_int(self):
        # a NumPy seed passed SolveOptions' check, then Rng raised OverflowError
        net = init_network("fnn", 1, 2, seed=55, hidden=(8, 8))
        x, dom = np.array([0.2]), BoxDomain.symmetric(2)
        a = minimize(net, x, dom, SolveOptions(seed=np.int64(9), restarts=3))
        b = minimize(net, x, dom, SolveOptions(seed=9, restarts=3))
        assert_array_equal(a.u_star, b.u_star)
        assert a.value == b.value

    def test_monotone_best_value(self):
        net = init_network("fnn", 1, 2, seed=56, hidden=(8, 8))
        res = minimize(net, np.array([0.4]), BoxDomain.symmetric(2),
                           SolveOptions(seed=3, keep_trace=True))
        assert np.all(np.diff(res.trace) <= 1e-15)

    def test_feasibility(self):
        net = init_network("fnn", 1, 2, seed=57, hidden=(8,))
        dom = BoxDomain(np.array([0.0, -2.0]), np.array([0.5, -1.0]))
        res = minimize(net, np.array([0.9]), dom, SolveOptions(seed=2))
        assert dom.contains(res.u_star)


class TestDispatch:
    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    def test_routes_by_kind(self, kind):
        # the returned value is the model's own, bit for bit
        for n, m in ((1, 1), (2, 3), (61, 20)):
            net = init_network(kind, n, m, seed=60, hidden=(8, 8))
            dom = BoxDomain.symmetric(m)
            for k in range(20):
                x = Rng(600 + k).uniform_in(-1.0, 1.0, n)
                res = minimize(net, x, dom, SolveOptions(seed=1))
                assert isinstance(res, SolveResult)
                assert dom.contains(res.u_star)
                assert res.value == forward_batch(net, x[None], res.u_star[None])[0]

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (61, 20)])
    def test_batch_values_are_forward_batch(self, kind, dims):
        # every row's value is forward_batch's at its u* on the same X, bit
        # for bit: a bank's solve and its value share one scoring path, and
        # fnn's value pass folds X into layer 0 as forward_batch does
        n, m = dims
        net = init_network(kind, n, m, seed=60, hidden=(8, 8))
        X = np.array([Rng(610 + k).uniform_in(-1.0, 1.0, n) for k in range(20)])
        rows = minimize_batch(net, X, BoxDomain.symmetric(m), SolveOptions(seed=1))
        U = np.array([row.u_star for row in rows])
        assert_array_equal([row.value for row in rows], forward_batch(net, X, U))

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    @pytest.mark.parametrize("x", [np.float64(0.3), np.zeros((1, 2)), np.zeros(3)],
                             ids=["0-d", "1xn", "wrong-length"])
    def test_condition_shape_is_a_typed_error(self, kind, x):
        # check_rows' message on the batch of one minimize hands on
        net = init_network(kind, 2, 1, seed=0, I=3, hidden=(4,))
        message = f"X must be (B, 2), got {(1, *np.shape(x))}"
        with pytest.raises(DimensionMismatch, match=rf"^{re.escape(message)}$"):
            minimize(net, x, BoxDomain.symmetric(1))

    def test_json_shape(self):
        net = init_network("fnn", 1, 1, seed=61, hidden=(6,))
        res = minimize(net, np.array([0.1]), BoxDomain.symmetric(1))
        doc = res.to_json()
        assert doc["certified"] is False and doc["certificate"] is None
        net2 = init_network("plse", 1, 1, seed=62, I=4, hidden=(6,))
        doc2 = minimize(net2, np.array([0.1]), BoxDomain.symmetric(1)).to_json()
        assert doc2["certified"] is True and doc2["certificate"] >= 0.0
        assert isinstance(doc2["u_star"], list)


class TestStatus:
    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    def test_iteration_cap(self, kind):
        net = init_network(kind, 2, 3, seed=92, I=6, hidden=(8, 8))
        x = np.array([0.4, -0.2])
        opts = SolveOptions(max_iters=1, seed=4, restarts=4)
        res = minimize(net, x, BoxDomain.symmetric(3), opts)
        assert res.status == "max_iters"
        assert res.to_json()["status"] == "max_iters"
        (row,) = minimize_batch(net, x[None, :], BoxDomain.symmetric(3), opts)
        assert row.status == "max_iters"

    @pytest.mark.parametrize("kind", ["plse", "pma"])
    def test_converged(self, kind):
        net = init_network(kind, 2, 3, seed=92, I=6, hidden=(8, 8))
        res = minimize(net, np.array([0.4, -0.2]), BoxDomain.symmetric(3))
        assert res.status == "converged"
        assert 0 < res.iterations < SolveOptions().max_iters
        assert res.to_json()["status"] == "converged"

    def test_fnn_converged(self):
        res = minimize(_bowl_fnn(1, 1), np.array([0.3]), BoxDomain.symmetric(1),
                       SolveOptions(seed=1, restarts=4))
        assert res.status == "converged"
        assert_allclose(res.u_star, [0.15], atol=1e-6)

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    def test_convergence_on_the_cap_iteration_wins(self, kind):
        # a cap of exactly the iterations a solve converges in changes
        # nothing; for fnn the condition's one restart stops on its last
        # (4th) sweep, which is then the cap sweep
        if kind == "fnn":
            net = init_network(kind, 1, 1, seed=7, hidden=(8, 8))
            x, opts = Rng(70).uniform_in(-1.0, 1.0, 1), SolveOptions(seed=7, restarts=1)
        else:
            net = init_network(kind, 2, 3, seed=3, I=8, hidden=(8,))
            x, opts = Rng(70).uniform_in(-1.0, 1.0, 2), SolveOptions()
        dom = BoxDomain.symmetric(net.m)
        res = minimize(net, x, dom, opts)
        assert res.status == "converged"
        again = minimize(net, x, dom, dataclasses.replace(opts, max_iters=res.iterations))
        assert_array_equal(again.u_star, res.u_star)
        assert (again.value, again.certificate, again.iterations, again.status) == (
            res.value, res.certificate, res.iterations, "converged")


_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")


class TestConvergedMeansCertified:
    """One stopping rule for every bank core: a row stops as "converged" once
    its value minus the best lower bound its core proved is within
    grad_tolerance * max(1, |value|), so its certificate is too. The
    reported value is scored again after the core stops and may differ from
    the core's own by a few ulps, which the 4 eps term allows."""

    @pytest.mark.parametrize("source,n,m", [("init", 1, 1), ("init", 2, 3),
                                            ("init", 61, 20), ("trained", 1, 1),
                                            ("trained", 2, 3)])
    @pytest.mark.parametrize("kind", ["ma", "lse", "pma", "plse"])
    def test_converged_rows_carry_certificates_within_tolerance(self, kind, source,
                                                                n, m):
        if source == "trained":
            net = load_model(os.path.join(_GOLDEN, f"{kind}_{n}x{m}_trained.json"))
        else:
            net = init_network(kind, n, m, seed=30, I=30 if m == 20 else 6,
                               hidden=(8, 8))
        X = sample_uniform_box(BoxDomain.symmetric(net.n), 50, Rng(net.n + 17))
        opts = SolveOptions()
        rows = minimize_batch(net, X, BoxDomain.symmetric(net.m), opts)
        converged = [row for row in rows if row.status == "converged"]
        assert converged
        eps = np.finfo(np.float64).eps
        violations = [
            (row.certificate, row.value) for row in converged
            if row.certificate > (opts.grad_tolerance + 4 * eps) * max(1.0, abs(row.value))
        ]
        assert violations == []


def _bowl_fnn(n, m):
    # sum_j lrelu(u_j - x_1/2) + lrelu(x_1/2 - u_j) = 0.99 sum_j |u_j - x_1/2|
    W1 = np.zeros((2 * m, n + m))
    for j in range(m):
        W1[2 * j, [0, n + j]] = [-0.5, 1.0]
        W1[2 * j + 1, [0, n + j]] = [0.5, -1.0]
    mlp = MlpParams(weights=[W1, np.ones((1, 2 * m))],
                    biases=[np.zeros(2 * m), np.zeros(1)])
    return FeedforwardNet(n=n, m=m, mlp=mlp)


# (n, m) -> seed of fixtures on which every serial solve converges
_BATCH_FIXTURES = {(1, 1): 90, (2, 3): 92}


def _batch_fixture(kind, n, m):
    seed = _BATCH_FIXTURES[(n, m)]
    if kind == "fnn":
        net = _bowl_fnn(n, m)
    else:
        net = init_network(kind, n, m, seed=seed, I=6, hidden=(8, 8))
    X = np.array([Rng(seed + 1 + k).uniform_in(-1.0, 1.0, n) for k in range(6)])
    return net, X, BoxDomain.symmetric(m), SolveOptions(seed=4, restarts=4)


class TestMinimizeBatch:
    @pytest.mark.parametrize("dims", sorted(_BATCH_FIXTURES))
    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    def test_rows_match_serial(self, kind, dims):
        net, X, dom, opts = _batch_fixture(kind, *dims)
        rows = minimize_batch(net, X, dom, opts)
        assert len(rows) == len(X)
        for x, row in zip(X, rows):
            ref = minimize(net, x, dom, opts)
            assert ref.status == "converged"
            assert (row.iterations, row.status) == (ref.iterations, ref.status)
            assert_allclose(row.u_star, ref.u_star, rtol=0, atol=1e-12)
            assert abs(row.value - ref.value) <= 1e-12
            if kind == "fnn":
                assert row.certificate == ref.certificate == np.inf
            else:
                assert abs(row.certificate - ref.certificate) <= 1e-12

    @pytest.mark.parametrize("kind,block", [("fnn", 12), ("fnn", 2), ("ma", 3),
                                            ("lse", 3), ("pma", 3), ("plse", 3)])
    def test_blocks_match_one_block(self, kind, block, monkeypatch):
        # 7 conditions in blocks of 3, 3 and 1 against one block of 7; fnn
        # has 4 restarts, so 12 restart rows are 3 conditions, and 2 rows
        # still hold one condition a block
        net = init_network(kind, 2, 3, seed=92, I=6, hidden=(8, 8))
        X = sample_uniform_box(BoxDomain.symmetric(2), 7, Rng(93))
        dom, opts = BoxDomain.symmetric(3), SolveOptions(seed=4, restarts=4,
                                                         keep_trace=True)
        whole = minimize_batch(net, X, dom, opts)
        sizes, solve_block = [], solver_module._solve_block

        def spy(net, X, *args):
            sizes.append(len(X))
            return solve_block(net, X, *args)

        monkeypatch.setattr(solver_module, "_solve_block", spy)
        monkeypatch.setattr(solver_module,
                            "_FNN_BLOCK_ROWS" if kind == "fnn" else "_BANK_BLOCK", block)
        rows = minimize_batch(net, X, dom, opts)
        assert sizes == ([1] * 7 if block == 2 else [3, 3, 1])
        assert len(rows) == len(whole)
        for row, ref in zip(rows, whole):
            assert (row.iterations, row.status) == (ref.iterations, ref.status)
            # a trace's values carry the row-count bits of the batch contract
            assert len(row.trace) == len(ref.trace)
            assert_allclose(row.trace, ref.trace, rtol=0, atol=1e-12)
            assert_allclose(row.u_star, ref.u_star, rtol=0, atol=1e-12)
            assert abs(row.value - ref.value) <= 1e-12
            if kind == "fnn":
                assert row.certificate == ref.certificate == np.inf
            else:
                assert abs(row.certificate - ref.certificate) <= 1e-12
        # the conditions are told apart: a dropped or reordered block shows
        assert len({row.value for row in whole}) == len(X)

    @pytest.mark.parametrize("kind", ["fnn", "plse", "pma"])
    def test_peak_memory_bounded_in_the_batch(self, kind):
        # the paper's budget holds out 6,000 conditions a cell; they solve a
        # block at a time, so the peak grows only by the results: 4.7 -> 5.6
        # MB (fnn), 14.9 -> 15.8 (plse) and 31.1 -> 32.0 (pma) from 1,200 to
        # 6,000 conditions, where the whole-batch solve's grew fivefold
        # (NumPy 2.4, Python 3.11)
        net = init_network(kind, 61, 20, seed=0)
        dom, opts = BoxDomain.symmetric(20), SolveOptions(max_iters=3)
        X = sample_uniform_box(BoxDomain.symmetric(61), 6000, Rng(3))
        minimize_batch(net, X[:4], dom, opts)  # first-call allocations
        peaks = []
        for B in (1200, 6000):
            tracemalloc.start()
            try:
                minimize_batch(net, X[:B], dom, opts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_traces_match_serial(self):
        for kind in ("fnn", "pma", "plse"):
            net, X, dom, _ = _batch_fixture(kind, 2, 3)
            opts = SolveOptions(seed=4, restarts=4, keep_trace=True)
            rows = minimize_batch(net, X, dom, opts)
            for x, row in zip(X, rows):
                ref = minimize(net, x, dom, opts)
                assert_allclose(row.trace, ref.trace, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["plane", "start"])
    def test_overflowing_row_is_none(self, case, tmp_path, capsys):
        if case == "plane":
            # x = 1e308 sends the first plane to +inf; the other rows solve
            A = np.array([[2.0, 1.0], [-1.0, -1.0]])
            net = Bank(n=1, m=1, mlp=MlpParams([A], [np.zeros(2)]))
            X = np.array([[0.5], [1e308], [-0.25]])
        else:
            # finite planes near 1e308 whose interior-point start overflows:
            # its slacks were inf and made the whole batch's Newton
            # matrices singular
            net = init_network("ma", 2, 3, seed=2, I=6)
            X = np.array([[0.1, -0.2], [1e308, 1e308]])
        dom = BoxDomain.symmetric(net.m)
        rows = minimize_batch(net, X, dom)
        assert rows[1] is None
        for i in range(len(X)):
            if i != 1:
                ref = minimize(net, X[i], dom)
                assert (rows[i].iterations, rows[i].status) == (ref.iterations, ref.status)
                assert_allclose(rows[i].u_star, ref.u_star, rtol=0, atol=1e-12)
                assert abs(rows[i].value - ref.value) <= 1e-12
        with pytest.raises(NumericOverflow), np.errstate(over="ignore",
                                                          invalid="ignore"):
            minimize(net, X[1], dom)
        path = tmp_path / "bank.json"
        save_model(net, path)
        x = ",".join(str(float(v)) for v in X[1])
        assert cli_main(["solve", "--model", str(path), "--x", x]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "non-finite" in err

    def test_overflowing_fnn_condition_is_none(self):
        W1 = np.array([[10.0, 1.0], [0.0, -1.0]])
        net = FeedforwardNet(n=1, m=1, mlp=MlpParams(
            weights=[W1, np.ones((1, 2))], biases=[np.zeros(2), np.zeros(1)]))
        X = np.array([[0.3], [1e308]])
        rows = minimize_batch(net, X, BoxDomain.symmetric(1), SolveOptions(restarts=3))
        assert rows[1] is None
        ref = minimize(net, X[0], BoxDomain.symmetric(1), SolveOptions(restarts=3))
        assert rows[0].iterations == ref.iterations
        assert_array_equal(rows[0].u_star, ref.u_star)

    @pytest.mark.parametrize("kind", ["ma", "lse", "pma", "plse"])
    def test_certificates_bound_grid_gap(self, kind):
        net = init_network(kind, 2, 1, seed=21, I=8, hidden=(12, 10))
        X = np.array([Rng(22 + k).uniform_in(-1.0, 1.0, 2) for k in range(8)])
        dom = BoxDomain.symmetric(1)
        for x, row in zip(X, minimize_batch(net, X, dom)):
            gval = _grid_value(net, x, dom, 4001)
            assert row.value - gval <= row.certificate + 1e-12

    def test_amortized_wall_time(self):
        net, X, dom, opts = _batch_fixture("plse", 1, 1)
        rows = minimize_batch(net, X, dom, opts)
        assert len({row.wall_time_s for row in rows}) == 1
        assert rows[0].wall_time_s > 0.0

    def test_empty(self):
        net = init_network("plse", 2, 1, seed=0, I=3)
        assert minimize_batch(net, np.empty((0, 2)), BoxDomain.symmetric(1)) == []

    def test_shape_checked(self):
        net = init_network("plse", 2, 1, seed=0, I=3)
        with pytest.raises(DimensionMismatch):
            minimize_batch(net, np.zeros((3, 1)), BoxDomain.symmetric(1))
        with pytest.raises(DimensionMismatch):
            minimize_batch(net, np.zeros((3, 2)), BoxDomain.symmetric(2))
        # checked before an empty batch returns []
        for empty in (np.empty((0, 7)), np.empty(0)):
            with pytest.raises(DimensionMismatch):
                minimize_batch(net, empty, BoxDomain.symmetric(1))

    @pytest.mark.parametrize("kind", ["fnn", "ma", "lse", "pma", "plse"])
    def test_non_finite_conditions_rejected(self, kind):
        net = init_network(kind, 2, 1, seed=0, I=3, hidden=(4,))
        dom = BoxDomain.symmetric(1)
        for bad in (np.nan, np.inf):
            x = np.array([0.1, bad])
            with pytest.raises(NonFiniteInput):
                minimize(net, x, dom)
            with pytest.raises(NonFiniteInput):
                minimize_batch(net, np.array([[0.0, 0.0], x]), dom)

    def test_overflowed_bank_row_is_none(self):
        # x = 1e308 sends one plane's offset to -inf while the top plane stays
        # finite: a certificate from that bank would bound nothing
        net = unit_variance_bank(2, 2, seed=0, I=6)
        X = np.array([[0.1, 0.2], [1e308, 1e308]])
        dom = BoxDomain.symmetric(2)
        with np.errstate(over="ignore"):
            rows = minimize_batch(net, X, dom)
            with pytest.raises(NumericOverflow):
                minimize(net, X[1], dom)
        assert rows[1] is None
        ref = minimize(net, X[0], dom)
        assert rows[0].iterations == ref.iterations
        assert abs(rows[0].value - ref.value) <= 1e-12

    @pytest.mark.parametrize("kind", ["ma", "lse"])
    def test_overflowed_bank_row_leaves_before_the_solve(self, kind, monkeypatch):
        net = unit_variance_bank(2, 2, seed=0, I=6, T=0.1 if kind == "lse" else None)
        X = np.array([[0.1, 0.2], [1e308, 1e308], [-0.3, 0.5]])
        dom = BoxDomain.symmetric(2)
        opts = SolveOptions(keep_trace=True)
        with np.errstate(over="ignore"):
            rows = minimize_batch(net, X, dom, opts)
        alone = minimize_batch(net, X[[0, 2]], dom, opts)
        assert rows[1] is None
        for res, ref in zip([rows[0], rows[2]], alone):
            assert_array_equal(res.u_star, ref.u_star)
            assert (res.value, res.certificate) == (ref.value, ref.certificate)
            assert (res.iterations, res.status) == (ref.iterations, ref.status)
            assert res.trace == ref.trace
        # the bad row is dead before the solve: it takes no step and leaves
        # no trace
        name = "_lp_batch" if kind == "ma" else "_lse_batch"
        core, calls = getattr(solver_module, name), []

        def spy(A, c, live, *args):
            calls.append(live.copy())
            return core(A, c, live, *args)

        monkeypatch.setattr(solver_module, name, spy)
        with np.errstate(over="ignore"):
            minimize_batch(net, X, dom, opts)
            A, c = u_bank_batch(net, X)
        (live,) = calls
        assert live.tolist() == [True, False, True]
        traces = [[], [], []]
        args = (dom, opts, traces) if kind == "ma" else (net.T, dom, opts, traces)
        _, _, iters, status = core(A, c, live, *args)
        assert traces[1] == [] and iters[1] == 0
        assert status[1] == solver_module._FAILED
        assert traces[0] == rows[0].trace and traces[2] == rows[2].trace


# --- an independent LP oracle in the dimensions the benchmark runs ----------


def _epigraph_lp_min(A_u, c, domain):
    """min over the box of max_i A_u[i] @ u + c[i], by HiGHS on the epigraph
    LP in (u, t)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    I, m = A_u.shape
    res = linprog(np.r_[np.zeros(m), 1.0], A_ub=np.hstack([A_u, -np.ones((I, 1))]),
                  b_ub=-c, bounds=[*zip(domain.lower, domain.upper), (None, None)],
                  method="highs")
    assert res.status == 0
    return res.fun


def _degenerate_bank(case, m):
    """A fixed max bank over (x, u), n = 2, whose u-part is degenerate."""
    rng = np.random.default_rng(m)
    A, b = rng.normal(size=(30, 2 + m)), rng.normal(size=30)
    if case == "identical":  # all planes the same
        A, b = np.tile(A[0], (30, 1)), np.full(30, b[0])
    elif case == "flat":  # no plane depends on u
        A[:, 2:] = 0.0
    elif case == "single":  # one plane: a corner minimizer
        A, b = A[:1], b[:1]
    elif case == "scaled":  # one plane a million times the others
        A[0], b[0] = 1e6 * A[0], 1e6 * b[0]
    return Bank(n=2, m=m, mlp=MlpParams([A], [b]))


_LP_CASES = [("ma", 2, 3), ("pma", 2, 3), ("ma", 61, 20), ("pma", 61, 20)] + [
    (case, 2, m) for case in ("identical", "flat", "single", "scaled") for m in (3, 20)
]


class TestLpOracle:
    @pytest.mark.parametrize("case,n,m", _LP_CASES)
    def test_certificate_bounds_the_true_gap(self, case, n, m):
        if case in ("ma", "pma"):
            net = init_network(case, n, m, seed=41, I=30, hidden=(8, 8))
        else:
            net = _degenerate_bank(case, m)
        X = np.array([Rng(700 + k).uniform_in(-1.0, 1.0, n) for k in range(20)])
        dom, opts = BoxDomain.symmetric(m), SolveOptions()
        batch = minimize_batch(net, X, dom, opts)
        for x, row in zip(X, batch):
            lp = _epigraph_lp_min(*_u_bank(net, x), dom)
            for res in (row, minimize(net, x, dom, opts)):
                # value and oracle agree to rounding where the gap is zero
                assert res.value - lp <= res.certificate + 1e-12 * (1.0 + abs(lp))
                if res.status == "converged":
                    tol = opts.grad_tolerance * max(1.0, abs(res.value))
                    assert res.certificate <= tol


def _lse_lbfgsb_value(A_u, c, T, domain):
    """T log sum_i exp((A_u[i] @ u + c[i]) / T) where L-BFGS-B stops from the
    box centre: a value at a feasible point, so at least the box minimum."""
    optimize = pytest.importorskip("scipy.optimize")

    def value_and_grad(u):
        s = A_u @ u + c
        e = np.exp((s - s.max()) / T)
        return T * np.log(e.sum()) + s.max(), (e / e.sum()) @ A_u

    res = optimize.minimize(value_and_grad, 0.5 * (domain.lower + domain.upper),
                            jac=True, method="L-BFGS-B",
                            bounds=list(zip(domain.lower, domain.upper)))
    assert res.success
    return res.fun


class TestLbfgsbOracle:
    @pytest.mark.parametrize("kind,n,m", [("lse", 2, 3), ("plse", 2, 3),
                                          ("lse", 61, 20), ("plse", 61, 20)])
    def test_certificate_bounds_the_gap_to_lbfgsb(self, kind, n, m):
        capped = (kind, n) == ("lse", 61)  # ill-conditioned: rows end at the cap
        if capped:
            net = unit_variance_bank(n, m, seed=41, I=30, T=0.1)
        else:
            net = init_network(kind, n, m, seed=41, I=30, hidden=(8, 8))
        X = np.array([Rng(700 + k).uniform_in(-1.0, 1.0, n) for k in range(20)])
        dom, opts = BoxDomain.symmetric(m), SolveOptions()
        batch = minimize_batch(net, X, dom, opts)
        if capped:
            assert any(row.status == "max_iters" for row in batch)
            # the best bound over the iterates, not the gap at the last one
            # (up to 0.331 on these rows)
            assert max(row.certificate for row in batch) < 0.331 / 2
        for x, row in zip(X, batch):
            ref = _lse_lbfgsb_value(*_u_bank(net, x), net.T, dom)
            for res in (row, minimize(net, x, dom, opts)):
                assert res.value - ref <= res.certificate + 1e-12 * (1.0 + abs(ref))
                # never looser than the first-order gap at u*
                g = grad_u_batch(net, x[None], res.u_star[None])[0]
                gap = first_order_gap(g, res.u_star, dom)
                assert res.certificate <= gap + 1e-12 * (1.0 + abs(res.value))

    @pytest.mark.parametrize("kind", ["lse", "plse"])
    def test_init_rows_at_61x20_converge(self, kind):
        # the first-order phase alone capped 9 of the 20 lse rows, with
        # certificates up to 5.9e-4; the Newton phase finishes every row
        net = init_network(kind, 61, 20, seed=41, I=30, hidden=(8, 8))
        X = np.array([Rng(700 + k).uniform_in(-1.0, 1.0, 61) for k in range(20)])
        dom, opts = BoxDomain.symmetric(20), SolveOptions()
        eps = np.finfo(np.float64).eps
        for x, row in zip(X, minimize_batch(net, X, dom, opts)):
            assert row.status == "converged"
            scale = max(1.0, abs(row.value))
            assert row.certificate <= (opts.grad_tolerance + 4 * eps) * scale
            ref = _lse_lbfgsb_value(*_u_bank(net, x), net.T, dom)
            assert row.value - ref <= row.certificate + 1e-12 * (1.0 + abs(ref))


# --- a row's result does not depend on its batch-mates ----------------------


def test_batch_rows_equal_minimize():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(kind=st.sampled_from(["fnn", "ma", "lse", "pma", "plse"]),
                      n=st.integers(1, 3), m=st.integers(1, 5), I=st.integers(1, 8),
                      B=st.integers(1, 6), seed=st.integers(0, 2**16))
    def check(kind, n, m, I, B, seed):
        net = init_network(kind, n, m, seed=seed, I=I, hidden=(8,))
        X = np.random.default_rng(seed).uniform(-1.0, 1.0, (B, n))
        dom, opts = BoxDomain.symmetric(m), SolveOptions(seed=seed, restarts=3)
        for x, row in zip(X, minimize_batch(net, X, dom, opts)):
            ref = minimize(net, x, dom, opts)
            assert_allclose(row.u_star, ref.u_star, rtol=0, atol=1e-12)
            assert abs(row.value - ref.value) <= 1e-12
            if kind == "fnn":
                assert row.certificate == ref.certificate == np.inf
            else:
                assert abs(row.certificate - ref.certificate) <= 1e-12
            assert (row.iterations, row.status) == (ref.iterations, ref.status)

    check()


# --- the projected Newton phase of lse/plse solves --------------------------


def _sweeps_of_both_phases(net, X, domain, opts):
    """`minimize_batch` on X, and how many of its Newton sweeps were followed
    by a ladder sweep that moved a row whose Newton rung was taken: a row
    held back by its first-order budget, in a sweep where another row was
    past it."""
    calls = []

    def spy(core):
        def sweep(A, c, u, *args):
            out = core(A, c, u, *args)
            # out[0]: Newton's rung taken or the ladder's step accepted, per
            # row; a copy, since the loop masks Newton's in place
            calls.append((core, u.copy(), out[0].copy()))
            return out
        return sweep

    newton, ladder = solver_module._newton, solver_module._ladder
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_newton", spy(newton))
        mp.setattr(solver_module, "_ladder", spy(ladder))
        batch = minimize_batch(net, X, domain, opts)
    mixed = sum(
        first is newton and then is ladder
        and (u_l[moved][:, None] == u_n[taken][None]).all(axis=2).any()
        for (first, u_n, taken), (then, u_l, moved) in zip(calls, calls[1:])
    )
    return batch, mixed


class TestNewtonFinish:
    """A row still live after _FIRST_ORDER_STEPS projected-gradient steps
    takes projected Newton sweeps in the same `_lse_batch` loop."""

    @pytest.mark.parametrize("case", ["lse 61x20", "+-sqrt(3) bank", "plse 1x1"])
    def test_batch_rows_equal_minimize(self, case):
        # rows reach the budget at different sweeps, so some sweep moves
        # rows of both phases; on the +-sqrt(3) bank most Newton sweeps fall
        # back to the ladder
        if case == "plse 1x1":
            net = init_network("plse", 1, 1, seed=9, I=12, T=0.01, hidden=(8,))
            X = np.random.default_rng(9).uniform(-1.0, 1.0, (24, 1))
        else:
            if case == "lse 61x20":
                net, B = init_network("lse", 61, 20, seed=41, I=30), 5
            else:
                net, B = unit_variance_bank(61, 20, seed=41, I=30, T=0.1), 20
            X = np.array([Rng(700 + k).uniform_in(-1.0, 1.0, 61) for k in range(B)])
        dom, opts = BoxDomain.symmetric(net.m), SolveOptions()
        batch, mixed = _sweeps_of_both_phases(net, X, dom, opts)
        assert mixed > 0
        # the bank's last-bit differences between a batch and a batch of one
        # grow over hundreds of ill-conditioned steps: u* of its two capped
        # rows differs by 3.6e-11 and 1.6e-9, and of row 15 by 1.8e-12,
        # while every value and certificate agrees to 1.2e-13
        atol = 1e-8 if case == "+-sqrt(3) bank" else 1e-12
        for x, row in zip(X, batch):
            ref = minimize(net, x, dom, opts)
            assert (row.iterations, row.status) == (ref.iterations, ref.status)
            assert_allclose(row.u_star, ref.u_star, rtol=0, atol=atol)
            assert abs(row.value - ref.value) <= 1e-12
            assert abs(row.certificate - ref.certificate) <= 1e-12

    def test_ladder_step_restarts_at_the_switch(self):
        # the acceptance that brings a row to _FIRST_ORDER_STEPS restarts its
        # ladder step from _INITIAL_STEP; a row that carried its step over
        # would read 59, 49, 52 and 50 iterations at rows 8, 11, 12 and 13
        net = init_network("plse", 3, 20, seed=3, I=6, hidden=(8,))
        X = np.random.default_rng(3).uniform(-1.0, 1.0, (22, 3))
        batch = minimize_batch(net, X, BoxDomain.symmetric(20), SolveOptions())
        assert [row.iterations for row in batch] == [
            41, 42, 44, 43, 29, 46, 50, 43, 57, 42, 42, 55, 47, 49, 45, 45, 47, 45,
            46, 41, 47, 41]
        assert all(row.status == "converged" for row in batch)

    def test_affine_bank_reaches_its_corner(self, monkeypatch):
        # one plane: the log-sum-exp is that plane and its Hessian is exactly
        # zero, so only the damping keeps the Newton system nonsingular
        slopes = np.array([[[2.0, -1.0, 0.5]], [[-0.25, 3.0, -1e-3]]])
        c = np.array([[0.3], [-1.0]])
        dom, opts = BoxDomain.symmetric(3), SolveOptions()
        # no first-order budget: every sweep from the box centre is Newton's
        monkeypatch.setattr(solver_module, "_FIRST_ORDER_STEPS", 0)
        U, D, _, status = solver_module._lse_batch(slopes, c, np.ones(2, dtype=bool),
                                                   0.1, dom, opts, None)
        assert (status == solver_module._CONVERGED).all()
        assert_array_equal(U, -np.sign(slopes[:, 0]))
        assert_allclose(D, c[:, 0] - np.abs(slopes[:, 0]).sum(axis=1), rtol=0,
                        atol=1e-15)

    def test_no_certificate_above_the_first_order_phase_alone(self, monkeypatch):
        # the ill-conditioned +-sqrt(3) bank: 500 projected-gradient steps
        # leave every row on the cap, with certificates up to 0.117
        net = unit_variance_bank(61, 20, seed=41, I=30, T=0.1)
        X = np.array([Rng(700 + k).uniform_in(-1.0, 1.0, 61) for k in range(20)])
        dom, opts = BoxDomain.symmetric(20), SolveOptions()
        A, c = u_bank_batch(net, X)
        with monkeypatch.context() as mp:  # the first-order sweeps alone
            mp.setattr(solver_module, "_FIRST_ORDER_STEPS", opts.max_iters)
            U, D, _, _ = solver_module._lse_batch(A, c, np.ones(20, dtype=bool), net.T,
                                                  dom, opts, None)
        # the certificate as minimize_batch forms it
        alone = np.maximum(bank_values(bank_scores(A, U, c), net.T) - D, 0.0)
        certificates = np.array([row.certificate
                                 for row in minimize_batch(net, X, dom, opts)])
        assert (certificates <= alone).all()
        assert certificates.max() < alone.max()


# --- the fused loops against the two-pass loops they replaced ---------------


def _two_pass_pg_batch(A, c, live, T, domain, opts, traces):
    """Projected gradient one row at a time that scores an accepted point a
    second time for its gradient: the reference the fused `_lse_batch` must
    reproduce when its first-order budget is the cap. Each row is a batch of
    one, so the arithmetic is the batch's. A row's bound is the largest
    f - first_order_gap(g, u) over its iterates."""
    lo, hi = domain.lower, domain.upper
    U = np.tile(0.5 * (lo + hi), (len(c), 1))
    D = np.zeros(len(c))
    iters = np.zeros(len(c), dtype=np.int64)
    status = np.full(len(c), solver_module._MAX_ITERS)
    assert live.all()
    for b in range(len(c)):
        A_b, c_b = A[[b]], c[[b]]

        def value(u):
            return shifted_lse(solver_module._bank_scores(A_b, u, c_b), T)[0]

        def grad(u):
            p = softmax_over_T(solver_module._bank_scores(A_b, u, c_b), T)
            return (p[:, None, :] @ A_b)[:, 0, :]

        u = U[b : b + 1]
        f, g, s = value(u), grad(u), solver_module._INITIAL_STEP
        bound = -np.inf
        if traces is not None:
            traces[b].append(float(f))
        while True:
            bound = max(bound, f - first_order_gap(g, u, domain)[0])
            if f - bound <= opts.grad_tolerance * max(1.0, abs(f)):
                status[b] = solver_module._CONVERGED
                break
            if iters[b] >= opts.max_iters:
                break
            if s < 1e-18:
                status[b] = solver_module._STEP_UNDERFLOW
                break
            cand = np.clip(u - s * g, lo, hi)
            f_cand = value(cand)
            if f_cand <= f + solver_module._ARMIJO * np.sum(g * (cand - u), axis=1)[0]:
                u, f, g, s = cand, f_cand, grad(cand), 2.0 * s
                iters[b] += 1
                if traces is not None:
                    traces[b].append(float(f))
            else:
                s *= solver_module._BACKTRACK
        U[b], D[b] = u[0], bound
    return U, D, iters, status


def _two_pass_multistart(net, x, domain, opts, relative_stop=True):
    """Multi-start sweep for one condition that runs the MLP twice per sweep:
    a forward pass at the live restarts' candidates, then a separate
    gradient pass at their iterates, whose rows that moved take the new
    gradient. Like the solver it forms the layer-0 offset of x once and
    evaluates only the live restarts, in restart order: a matmul row's bits
    depend on the row count, so a gradient from a pass over other rows, or
    an offset formed per restart, could differ in the last bits.
    With relative_stop=False an accepted move never ends a restart, which is
    the earlier rule: sweep until the residual test or the cap. Returns
    (u*, value, sweeps, status, trace)."""
    R, lo, hi = opts.restarts, domain.lower, domain.upper
    offsets = np.repeat(mlp_offset(net.mlp, x[None, :]), R, axis=0)
    Us = sample_uniform_box(domain, R, Rng(opts.seed))
    fs = mlp_forward_batch(net.mlp, Us, offset=offsets)[:, 0]
    G = _where_reference_grad(net.mlp, Us, offsets)
    steps = np.full(R, solver_module._INITIAL_STEP)
    live = np.ones(R, dtype=bool)
    trace = [float(fs.min())]
    for sweep in range(1, opts.max_iters + 1):
        residual = np.linalg.norm(Us - np.clip(Us - G, lo, hi), axis=1)
        live &= ~(residual <= opts.grad_tolerance * np.maximum(1.0, np.abs(fs)))
        rows = np.flatnonzero(live)
        if rows.size:
            u, f, g, s = Us[rows], fs[rows], G[rows], steps[rows]
            cand = np.clip(u - s[:, None] * g, lo, hi)
            f_cand = mlp_forward_batch(net.mlp, cand, offset=offsets[rows])[:, 0]
            move = f_cand <= f + solver_module._ARMIJO * np.sum(g * (cand - u), axis=1)
            tol = opts.grad_tolerance * np.maximum(1.0, np.abs(f_cand))
            flat = move & (f - f_cand <= tol) & relative_stop
            Us[rows[move]], fs[rows[move]] = cand[move], f_cand[move]
            G[rows[move]] = _where_reference_grad(net.mlp, Us[rows], offsets[rows])[move]
            steps[rows] = np.where(move, 2.0 * s, solver_module._BACKTRACK * s)
            live[rows[flat | (steps[rows] < 1e-18)]] = False
        trace.append(float(fs.min()))
        if not live.any():
            break
    u = Us[np.argmin(fs)]
    status = "max_iters" if live.any() else "converged"
    return u, forward_batch(net, x[None, :], u[None, :])[0], sweep, status, trace


def _where_reference_grad(mlp, Z, offset=None):
    """Gradients (B, Z's width) in the inputs Z by the reverse pass with the
    LeakyReLU derivative as a float np.where mask, as a separate function
    computed it. Given mlp_offset's offset, Z holds the trailing inputs and
    layer 0 adds the offset in place of its bias, as in the solver."""
    Ws, bs = list(mlp.weights), list(mlp.biases)
    if offset is not None:
        Ws[0], bs[0] = Ws[0][:, Ws[0].shape[1] - Z.shape[1] :], offset
    pres, h = [], Z
    for W, b in zip(Ws, bs):
        pres.append(h @ W.T + b)
        h = np.maximum(LEAKY_SLOPE * pres[-1], pres[-1])
    g = np.ones((len(Z), 1))
    for k in range(len(Ws) - 1, -1, -1):
        if k != len(Ws) - 1:
            g = g * np.where(pres[k] > 0, 1.0, LEAKY_SLOPE)
        g = g @ Ws[k]
    return g


def _assert_same_result(res, ref):
    assert_array_equal(res.u_star, ref.u_star)
    assert (res.value, res.iterations, res.status, res.trace) == (
        ref.value, ref.iterations, ref.status, ref.trace)


class TestFusedLoops:
    """The fused loops change how often the model is evaluated, not the
    arithmetic: every result must equal the two-pass loop's bit for bit."""

    @pytest.mark.parametrize("kind,n,m,seed,max_iters", [
        ("lse", 2, 3, 92, 500),
        ("plse", 2, 3, 92, 500),
        ("plse", 3, 20, 7, 500),
        ("lse", 2, 3, 93, 3),
    ])
    def test_bank_solves_match_two_pass(self, kind, n, m, seed, max_iters,
                                        monkeypatch):
        net = init_network(kind, n, m, seed=seed, I=12, hidden=(16,))
        dom = BoxDomain.symmetric(m)
        opts = SolveOptions(max_iters=max_iters, keep_trace=True)
        # the first-order sweeps alone, up to the cap
        monkeypatch.setattr(solver_module, "_FIRST_ORDER_STEPS", max_iters)
        for k in range(3):
            x = Rng(seed + k).uniform_in(-1.0, 1.0, n)
            res = minimize(net, x, dom, opts)
            with monkeypatch.context() as mp:
                mp.setattr(solver_module, "_lse_batch", _two_pass_pg_batch)
                ref = minimize(net, x, dom, opts)
            _assert_same_result(res, ref)
            assert res.certificate == ref.certificate

    def test_mlp_trace_matches_forward_and_gradient(self):
        rng = np.random.default_rng(3)
        for widths in ([4, 16, 16, 1], [81, 64, 64, 1], [3, 1]):
            mlp = MlpParams(
                weights=[rng.normal(size=(b, a)) for a, b in zip(widths, widths[1:])],
                biases=[rng.normal(size=b) for b in widths[1:]],
            )
            Z = rng.uniform(-1.0, 1.0, size=(33, widths[0]))
            ws = MlpWorkspace(mlp, len(Z))
            ws.Z[...] = Z
            out, grad = ws.value_and_grad(len(Z))
            assert_array_equal(out, mlp_forward_batch(mlp, Z)[:, 0])
            assert_array_equal(grad, _where_reference_grad(mlp, Z))

    @pytest.mark.parametrize("fixed", [0, 61])
    def test_workspace_views_follow_the_row_count(self, fixed):
        # a workspace caches its buffers' first-k-rows views; passes at
        # changing row counts equal a fresh workspace's at each count
        rng = np.random.default_rng(6)
        widths = [81, 64, 64, 1]
        mlp = MlpParams(
            weights=[rng.normal(size=(b, a)) for a, b in zip(widths, widths[1:])],
            biases=[rng.normal(size=b) for b in widths[1:]],
        )
        ws = MlpWorkspace(mlp, 33, fixed=fixed)
        for k in (33, 5, 33, 1, 33):
            Z = rng.uniform(-1.0, 1.0, size=(k, widths[0]))
            fresh = MlpWorkspace(mlp, k, fixed=fixed)
            for w in (ws, fresh):
                w.Z[:k] = Z[:, fixed:]
                if fixed:
                    w.offset[:k] = mlp_offset(mlp, Z[:, :fixed])
            out, grad = ws.value_and_grad(k)
            ref_out, ref_grad = fresh.value_and_grad(k)
            assert out.shape == (k,) and grad.shape == (k, widths[0] - fixed)
            assert_array_equal(out, ref_out)
            assert_array_equal(grad, ref_grad)

    @pytest.mark.parametrize("rows", [33, 40])
    def test_workspace_kernel_on_kinks_and_non_finite_rows(self, rows):
        rng = np.random.default_rng(4)
        widths = [81, 64, 64, 1]
        mlp = MlpParams(
            weights=[rng.normal(size=(b, a)) for a, b in zip(widths, widths[1:])],
            biases=[rng.normal(size=b) for b in widths[1:]],
        )
        mlp.biases[0][::2] = 0.0
        Z = rng.uniform(-1.0, 1.0, size=(33, widths[0]))
        Z[0] = 0.0  # exact-zero pre-activations: the kink goes to the slope
        Z[1, 0] = np.inf  # +-inf and NaN pre-activations
        ws = MlpWorkspace(mlp, rows)
        ws.Z[:33] = Z
        with np.errstate(over="ignore", invalid="ignore"):
            out, grad = ws.value_and_grad(33)
            ref = _where_reference_grad(mlp, Z)
            assert_array_equal(out, mlp_forward_batch(mlp, Z)[:, 0])
        assert (ws.pres[0][0, ::2] == 0.0).all() and not np.isfinite(out[1])
        assert np.isnan(ws.pres[1][1]).any()
        assert_array_equal(grad, ref)
        assert_array_equal(np.signbit(grad), np.signbit(ref))

    @pytest.mark.parametrize("n,m,seed", [(1, 1, 90), (2, 3, 92), (3, 20, 5)])
    def test_fnn_solves_match_two_pass(self, n, m, seed):
        net = init_network("fnn", n, m, seed=seed, hidden=(16, 16))
        dom = BoxDomain.symmetric(m)
        for k in range(3):
            x = Rng(seed + k).uniform_in(-1.0, 1.0, n)
            opts = SolveOptions(seed=k, restarts=4, max_iters=200, keep_trace=True)
            res = minimize(net, x, dom, opts)
            u, value, sweeps, status, trace = _two_pass_multistart(net, x, dom, opts)
            assert_array_equal(res.u_star, u)
            assert (res.value, res.iterations, res.status, res.trace) == (
                value, sweeps, status, trace)


def _allocating_multistart_batch(net, X, domain, opts, traces, passes=None):
    """The multi-start sweep with fresh arrays for every step and a separate
    forward and np.where-mask reverse pass per trace: the reference the
    workspace sweep `_multistart_batch` must reproduce bit for bit. It forms
    each condition's layer-0 offset once and traces only the live restarts,
    in restart order, as the solver does, since a matmul row's bits depend
    on the row count. The row count of every trace is appended to
    `passes`, if given."""

    def trace(U, offset):
        if passes is not None:
            passes.append(len(U))
        f = mlp_forward_batch(net.mlp, U, offset=offset)[:, 0]
        return f, _where_reference_grad(net.mlp, U, offset)

    B, R, m = len(X), opts.restarts, domain.dim
    lo, hi = domain.lower, domain.upper
    offsets = mlp_offset(net.mlp, X)
    Us = np.tile(sample_uniform_box(domain, R, Rng(opts.seed)), (B, 1))
    fs, G = trace(Us, np.repeat(offsets, R, axis=0))
    failed = (~np.isfinite(fs)).reshape(B, R).any(axis=1)
    steps = np.full(B * R, solver_module._INITIAL_STEP)
    live, active = np.ones(B * R, dtype=bool), np.ones(B, dtype=bool)
    best_u, sweeps = np.zeros((B, m)), np.zeros(B, dtype=np.int64)
    status = np.full(B, solver_module._FAILED)
    if traces is not None:
        for b, v in enumerate(fs.reshape(B, R).min(axis=1)):
            traces[b].append(float(v))
    for sweep in range(1, opts.max_iters + 1):
        r = Us - np.minimum(np.maximum(Us - G, lo), hi)
        residual = np.sqrt(np.add.reduce(r * r, axis=1))
        live &= ~(residual <= opts.grad_tolerance * np.maximum(1.0, np.abs(fs)))
        rows = np.flatnonzero(live)
        if rows.size:
            u, f, g, s = Us[rows], fs[rows], G[rows], steps[rows]
            cand = np.minimum(np.maximum(u - s[:, None] * g, lo), hi)
            f_cand, G_cand = trace(cand, offsets[rows // R])
            failed[rows[~np.isfinite(f_cand)] // R] = True
            move = f_cand <= f + solver_module._ARMIJO * (g * (cand - u)).sum(axis=1)
            tol = opts.grad_tolerance * np.maximum(1.0, np.abs(f_cand))
            flat = move & (f - f_cand <= tol)
            moved = rows[move]
            Us[moved], fs[moved], G[moved] = cand[move], f_cand[move], G_cand[move]
            steps[rows] = np.where(move, 2.0 * s, solver_module._BACKTRACK * s)
            live[rows[flat | (steps[rows] < 1e-18)]] = False
        if traces is not None:
            for b in np.flatnonzero(active):
                traces[b].append(float(fs.reshape(B, R)[b].min()))
        finished = ~live.reshape(B, R).any(axis=1)
        out = np.flatnonzero(active & (finished | failed | (sweep == opts.max_iters)))
        best = np.argmin(fs.reshape(B, R)[out], axis=1)
        best_u[out] = Us.reshape(B, R, m)[out, best]
        sweeps[out] = sweep
        status[out] = np.where(finished[out], solver_module._CONVERGED,
                               solver_module._MAX_ITERS)
        status[out[failed[out]]] = solver_module._FAILED
        active[out] = False
        live.reshape(B, R)[out] = False
        if not active.any():
            break
    values = trace(best_u, offsets)[0]
    status[~np.isfinite(values)] = solver_module._FAILED
    return best_u, values, sweeps, status


class TestMultistartWorkspace:
    """The fnn sweep in its per-solve workspace, at the benchmark's shape
    (61x20, hidden (64, 64), 16 restarts) and on a 1x1 net whose conditions
    leave at different sweeps, so rows are compacted. Every batch row equals
    the allocating sweep's bit for bit, and every `minimize` result equals
    the two-pass loop's, traces included. A batch row and `minimize` agree
    in sweeps and status; their last bits may differ, because a matmul
    row's bits depend on the row count (B*R against R)."""

    def _assert_rows_match(self, net, X, opts, monkeypatch):
        dom = BoxDomain.symmetric(net.m)
        batch = minimize_batch(net, X, dom, opts)
        with monkeypatch.context() as mp:
            mp.setattr(solver_module, "_multistart_batch", _allocating_multistart_batch)
            reference = minimize_batch(net, X, dom, opts)
        for x, row, ref_row in zip(X, batch, reference):
            if row is None:
                assert ref_row is None
                with pytest.raises(NumericOverflow):
                    minimize(net, x, dom, opts)
                continue
            _assert_same_result(row, ref_row)
            res = minimize(net, x, dom, opts)
            u, value, sweeps, status, trace = _two_pass_multistart(net, x, dom, opts)
            assert_array_equal(res.u_star, u)
            assert (res.value, res.iterations, res.status, res.trace) == (
                value, sweeps, status, trace)
            assert (row.iterations, row.status) == (res.iterations, res.status)
        return batch

    def test_benchmark_shape(self, monkeypatch):
        net = init_network("fnn", 61, 20, seed=5, hidden=(64, 64))
        X = np.array([Rng(500 + k).uniform_in(-1.0, 1.0, 61) for k in range(4)])
        # a condition scaled by 1e300 keeps the objective finite (about
        # 1e300, converged at once); one at 1e308 in every entry overflows
        # the first layer's sums, and the objective is non-finite
        X[1] *= 1e300
        X[2] = 1e308
        opts = SolveOptions(seed=5, restarts=16, keep_trace=True)
        batch = self._assert_rows_match(net, X, opts, monkeypatch)
        assert [row is None for row in batch] == [False, False, True, False]
        for row in (batch[0], batch[1], batch[3]):
            assert row.status == "converged" and row.iterations < opts.max_iters

    def test_relative_stop_loses_no_meaningful_value(self):
        # against the earlier rule, which sweeps on to the cap at this shape
        net = init_network("fnn", 61, 20, seed=5, hidden=(64, 64))
        dom = BoxDomain.symmetric(20)
        for k in range(8):
            x = Rng(510 + k).uniform_in(-1.0, 1.0, 61)
            opts = SolveOptions(seed=k)
            res = minimize(net, x, dom, opts)
            _, capped, _, capped_status, _ = _two_pass_multistart(
                net, x, dom, opts, relative_stop=False)
            assert capped_status == "max_iters"
            assert res.status == "converged" and res.iterations < opts.max_iters
            assert res.value <= capped + 1e-3 * max(1.0, abs(res.value))

    def test_passes_hold_only_live_restarts(self, monkeypatch):
        # a wrapper counts the rows of every workspace pass: they are the
        # restarts still live in the reference's sweep, so a stopped restart
        # leaves the pass; the last pass is the value pass over the B rows
        net = init_network("fnn", 61, 20, seed=5, hidden=(64, 64))
        X = np.array([Rng(520 + k).uniform_in(-1.0, 1.0, 61) for k in range(4)])
        dom, opts = BoxDomain.symmetric(20), SolveOptions(seed=5)
        counts = []

        class CountingWorkspace(MlpWorkspace):
            def forward(self, k):
                counts.append(k)
                return super().forward(k)

        monkeypatch.setattr(solver_module, "MlpWorkspace", CountingWorkspace)
        minimize_batch(net, X, dom, opts)
        live = []
        _allocating_multistart_batch(net, X, dom, opts, None, live)
        assert counts == live
        assert counts[0] == 4 * opts.restarts and counts[-1] == 4
        sweeps = counts[1:-1]
        assert sweeps == sorted(sweeps, reverse=True) and sweeps[-1] < sweeps[0]

    def test_peak_memory_at_benchmark_shape(self):
        # B = 100 conditions of 16 restarts; the peak is the first sweep's.
        # 8.54 MB with the unit output gradient and the output layer's
        # reverse buffer as (1600, 64) arrays and the layer-0 offsets
        # repeated through a copy; 6.90 MB without them (NumPy 2.4,
        # Python 3.11)
        net = init_network("fnn", 61, 20, seed=3, hidden=(64, 64))
        X = sample_uniform_box(BoxDomain.symmetric(61), 100, Rng(9))
        dom, opts = BoxDomain.symmetric(20), SolveOptions(max_iters=5)
        minimize_batch(net, X, dom, opts)  # first-call allocations
        tracemalloc.start()
        try:
            minimize_batch(net, X, dom, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5e6

    def test_one_layer_net(self, monkeypatch):
        # no hidden layer: the input gradient is the broadcast unit row alone
        net = init_network("fnn", 2, 3, seed=8, hidden=())
        X = np.array([Rng(80 + k).uniform_in(-1.0, 1.0, 2) for k in range(3)])
        opts = SolveOptions(seed=8, restarts=4, keep_trace=True)
        batch = self._assert_rows_match(net, X, opts, monkeypatch)
        assert all(row.status == "converged" for row in batch)

    def test_conditions_leave_at_different_sweeps(self, monkeypatch):
        net = init_network("fnn", 1, 1, seed=7, hidden=(8, 8))
        X = np.array([Rng(70 + k).uniform_in(-1.0, 1.0, 1) for k in range(5)])
        # a cap of 30 sweeps: three conditions leave early, one later, and
        # the last stays until the cap
        opts = SolveOptions(seed=7, max_iters=30, keep_trace=True)
        batch = self._assert_rows_match(net, X, opts, monkeypatch)
        sweeps = [row.iterations for row in batch]
        assert len(set(sweeps)) > 2 and min(sweeps) < 30 == max(sweeps)
        assert [row.status for row in batch].count("max_iters") == 1


# --- the backtracking ladder against the serial line search -----------------


def _serial_pg_batch(A, c, live, T, domain, opts, traces):
    """`_lse_batch`'s first-order sweeps scoring one candidate per row and
    sweep: a rejection cuts the row's step by _BACKTRACK and the next sweep
    tries again. The reference the ladder must reproduce bit for bit, in
    more sweeps, when the first-order budget is the cap."""
    lo, hi = domain.lower, domain.upper
    U, iters, status, rows = solver_module._start(live, domain)
    D = np.zeros(len(U))
    A, c, u, it = A[rows], c[rows], U[rows], iters[rows]
    f, p = bank_weights(solver_module._bank_scores(A, u, c), T)
    g = solver_module.bank_grad(p, A)
    if traces is not None:
        for r, v in zip(rows, f):
            traces[r].append(float(v))
    s = np.full(len(rows), solver_module._INITIAL_STEP)
    bad = ~np.isfinite(f)
    bound = np.full(len(rows), -np.inf)
    while rows.size:
        bound = np.maximum(bound, f - first_order_gap(g, u, domain))
        capped = it >= opts.max_iters
        converged = f - bound <= opts.grad_tolerance * np.maximum(1.0, np.abs(f))
        stop = bad | capped | converged | (s < solver_module._MIN_STEP)
        if stop.any():
            done = rows[stop]
            U[done], D[done], iters[done] = u[stop], bound[stop], it[stop]
            status[done] = np.select(
                [bad[stop], converged[stop], capped[stop]],
                [solver_module._FAILED, solver_module._CONVERGED,
                 solver_module._MAX_ITERS],
                solver_module._STEP_UNDERFLOW,
            )
            keep = ~stop
            rows, A, c, u, f, g, s, it, bound = (
                v[keep] for v in (rows, A, c, u, f, g, s, it, bound)
            )
            if not rows.size:
                break
        cand = np.minimum(np.maximum(u - s[:, None] * g, lo), hi)
        f_cand, p = bank_weights(solver_module._bank_scores(A, cand, c), T)
        bad = ~np.isfinite(f_cand)
        accept = f_cand <= f + solver_module._ARMIJO * (g * (cand - u)).sum(axis=1)
        u[accept], f[accept] = cand[accept], f_cand[accept]
        g[accept] = solver_module.bank_grad(p[accept], A[accept])
        it[accept] += 1
        s = np.where(accept, 2.0 * s, solver_module._BACKTRACK * s)
        if traces is not None:
            for r, v in zip(rows[accept], f_cand[accept]):
                traces[r].append(float(v))
    return U, D, iters, status


def _assert_ladder_matches_serial(A, c, T, opts):
    """Runs both cores on the banks A (B, I, m), c (B, I), `_lse_batch` with
    its first-order budget raised to the cap, and returns the statuses after
    asserting (U, D, iterations, status) and every trace equal."""
    dom = BoxDomain.symmetric(A.shape[2])
    live = np.ones(len(c), dtype=bool)
    results, traces = [], []
    for core in (solver_module._lse_batch, _serial_pg_batch):
        trace = [[] for _ in c] if opts.keep_trace else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_module, "_FIRST_ORDER_STEPS", opts.max_iters)
            with np.errstate(over="ignore", invalid="ignore"):
                results.append(core(A, c, live, T, dom, opts, trace))
        traces.append(trace)
    for got, ref in zip(*results):
        assert_array_equal(got, ref)
    assert traces[0] == traces[1]
    return results[0][3]


def _bank_batch(kind, n, m, seed, I=6, B=4):
    return _rows_of(init_network(kind, n, m, seed=seed, I=I, hidden=(8,)), seed, B)


def _rows_of(net, seed, B=4):
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, (B, net.n))
    A, c = u_bank_batch(net, X)
    return np.array(A), c, net.T


class TestBacktrackingLadder:
    """Each first-order `_lse_batch` sweep scores the candidates of up to
    _LADDER rejections at once; iterates, counts, statuses and traces are
    the serial line search's bit for bit."""

    def test_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(kind=st.sampled_from(["lse", "plse"]),
                          n=st.integers(1, 3), m=st.sampled_from([1, 3, 20]),
                          I=st.integers(1, 8), B=st.integers(1, 5),
                          seed=st.integers(0, 2**16),
                          max_iters=st.sampled_from([3, 500]),
                          keep_trace=st.booleans())
        def check(kind, n, m, I, B, seed, max_iters, keep_trace):
            A, c, T = _bank_batch(kind, n, m, seed, I=I, B=B)
            opts = SolveOptions(max_iters=max_iters, keep_trace=keep_trace)
            _assert_ladder_matches_serial(A, c, T, opts)

        check()

    @pytest.mark.parametrize("kind,m,seed", [
        ("lse", 3, 60), ("plse", 1, 62), ("plse", 3, 61), ("plse", 20, 61)])
    def test_step_underflow(self, kind, m, seed, monkeypatch):
        if kind == "lse":  # steep planes, so that some row's step underflows
            A, c, T = _rows_of(unit_variance_bank(2, m, seed, I=6, T=0.1), seed)
        else:
            A, c, T = _bank_batch(kind, 2, m, seed)
        monkeypatch.setattr(solver_module, "_INITIAL_STEP", 1e-17)
        monkeypatch.setattr(solver_module, "_ARMIJO", 0.9)
        opts = SolveOptions(keep_trace=True)
        status = _assert_ladder_matches_serial(A, c, T, opts)
        assert (status == solver_module._STEP_UNDERFLOW).any()

    def test_overflow_at_a_candidate_fails_the_row(self):
        # at the box centre the planes score 0 and -1e3, the second's weight
        # is exactly 0 and the gradient is (-1, -1); at the first candidate,
        # (1, 1), the second plane's slopes of 1e308 overflow its score to
        # inf and the value is NaN, while the next rungs are finite but
        # rejected: the serial loop stops at the first rung, and so must
        # the ladder
        slopes = np.array([[-1.0, -1.0], [1e308, 1e308]])
        offsets = np.array([0.0, -1e3])
        A_ok, c_ok, _ = _bank_batch("lse", 1, 2, seed=63, I=2, B=2)
        A = np.concatenate([slopes[None], A_ok])
        c = np.concatenate([offsets[None], c_ok])
        status = _assert_ladder_matches_serial(
            A, c, 0.1, SolveOptions(keep_trace=True))
        assert status[0] == solver_module._FAILED
        assert (status[1:] == solver_module._CONVERGED).all()
        A = np.hstack([np.zeros((2, 1)), slopes])
        net = Bank(n=1, m=2, mlp=MlpParams([A], [offsets]), T=0.1)
        assert minimize_batch(net, np.zeros((1, 1)), BoxDomain.symmetric(2)) == [None]

    @pytest.mark.parametrize("kind,m", [("lse", 3), ("plse", 20)])
    def test_iteration_cap(self, kind, m):
        A, c, T = _bank_batch(kind, 2, m, seed=64)
        status = _assert_ladder_matches_serial(
            A, c, T, SolveOptions(max_iters=3, keep_trace=True))
        assert (status == solver_module._MAX_ITERS).all()

    @pytest.mark.parametrize("keep_trace", [False, True])
    def test_rows_that_run_to_the_cap(self, keep_trace):
        net = unit_variance_bank(61, 20, seed=41, I=30, T=0.1)
        X = np.array([Rng(410 + k).uniform_in(-1.0, 1.0, 61) for k in range(3)])
        A, c = u_bank_batch(net, X)
        status = _assert_ladder_matches_serial(
            np.array(A), c, net.T, SolveOptions(keep_trace=keep_trace))
        assert (status == solver_module._MAX_ITERS).all()
