"""Tests for the property checks and the envelope machinery."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paraconvex import verification
from paraconvex.exceptions import DimensionMismatch, NumericOverflow, UnsupportedNetwork
from paraconvex.networks import (
    Bank,
    FeedforwardNet,
    MlpParams,
    forward_batch,
    nonsmooth_twin,
)
from paraconvex.numerics import BoxDomain, Rng
from paraconvex.training import init_network
from paraconvex.verification import (
    CONVEXITY_BLOCK,
    CheckReport,
    EnvelopeTable,
    check_convexity,
    check_envelope_properties,
    check_gradients,
    check_sandwich,
    moreau_envelope,
    run_check_suite,
)


def convexity_violation(fn, n, m, x_samples, u_pairs, rng):
    """Reference arithmetic for check_convexity: the max midpoint-convexity
    violation of a batch callable fn(X, U) -> (B,), on check_convexity's
    draws, with each condition repeated over its u_pairs rows. Returns
    (violation, inequalities tested)."""
    X = rng.uniform_in(-1.0, 1.0, x_samples * n).reshape(-1, n)
    U1 = rng.uniform_in(-1.0, 1.0, x_samples * u_pairs * m).reshape(-1, m)
    U2 = rng.uniform_in(-1.0, 1.0, x_samples * u_pairs * m).reshape(-1, m)
    X_rep = np.repeat(X, u_pairs, axis=0)
    f1, f2 = fn(X_rep, U1), fn(X_rep, U2)
    lambdas, worst = (0.25, 0.5, 0.75), -np.inf
    for lam in lambdas:
        mid = fn(X_rep, lam * U1 + (1.0 - lam) * U2)
        worst = max(worst, float(np.max(mid - lam * f1 - (1.0 - lam) * f2)))
    return worst, x_samples * u_pairs * len(lambdas)


class TestCheckSandwich:
    def test_random_twins_pass(self):
        report = check_sandwich(trials=200, seed=42)
        assert report.passed
        assert report.max_violation <= 1e-9
        assert report.samples == 200 * 5

    def test_single_plane_gap_exactly_zero(self):
        report = check_sandwich(trials=50, I=1, seed=3)
        assert report.max_violation == 0.0

    def test_deterministic(self):
        a = check_sandwich(trials=30, seed=9)
        b = check_sandwich(trials=30, seed=9)
        assert a.to_json() == b.to_json()

    def test_equal_plane_identity(self):
        # identical planes make the smooth-minus-nonsmooth gap exactly T log I
        for I in (2, 30):
            A = np.tile(np.array([[0.7, -0.3]]), (I, 1))
            b = np.full(I, 0.2)
            lse = Bank(n=1, m=1, mlp=MlpParams([A], [b]), T=0.1)
            ma = nonsmooth_twin(lse)
            X = np.array([[0.5], [-0.9]])
            U = np.array([[0.1], [0.8]])
            gap = forward_batch(lse, X, U) - forward_batch(ma, X, U)
            assert_allclose(gap, 0.1 * np.log(I), rtol=0, atol=1e-12)


class TestCheckConvexity:
    def test_affine_equality(self):
        net = init_network("ma", 1, 1, seed=5, I=1)
        report = check_convexity(net, x_samples=20, u_pairs=20, seed=2)
        assert report.passed
        assert abs(report.max_violation) <= 1e-12

    @pytest.mark.parametrize("kind", ["ma", "lse"])
    def test_overflowing_bank_raises(self, kind):
        # every weight 1e308: a plane's value 1e308 (x + u) overflows where
        # |x + u| > 1.8, which some of these draws reach
        mlp = MlpParams([np.full((3, 2), 1e308)], [np.zeros(3)])
        net = Bank(n=1, m=1, mlp=mlp, T=0.1 if kind == "lse" else None)
        with pytest.raises(NumericOverflow):
            check_convexity(net, x_samples=4, u_pairs=4, seed=1)

    def test_random_pma_passes(self):
        net = init_network("pma", 2, 2, seed=6, I=8, hidden=(8, 8))
        report = check_convexity(net, seed=4)
        assert report.passed
        assert report.samples == 100 * 100 * 3

    @pytest.mark.parametrize("kind", ["ma", "lse", "pma", "plse"])
    @pytest.mark.parametrize("dims", [(2, 2), (5, 4), (61, 20)])
    def test_embedded_bank_once_equals_repeated_forward(self, kind, dims):
        # the bank built once per condition and broadcast over its u-pairs
        # gives, bit for bit, the violation that forward_batch on every
        # repeated condition row gives; 61x20 at the benchmark's I and widths
        # (a fixed bank ignores the widths). 31 conditions are scored as
        # three full blocks and a one-condition block
        n, m = dims
        I, hidden = (30, (64, 64)) if dims == (61, 20) else (9, (16, 12))
        net = init_network(kind, n, m, seed=40 + n, I=I, T=0.1, hidden=hidden)
        x_samples = 3 * CONVEXITY_BLOCK + 1
        report = check_convexity(net, x_samples=x_samples, u_pairs=40, seed=3)
        viol, count = convexity_violation(
            lambda X, U: forward_batch(net, X, U), n, m, x_samples, 40, Rng(3)
        )
        assert report.max_violation == viol
        assert report.samples == count == x_samples * 40 * 3

    def test_peak_memory_at_benchmark_dims(self):
        # 60.5 MB when each condition's (30, 20) bank was repeated over its
        # 100 u-pairs; 10.6 MB broadcast, with both 200,000-value draws made
        # through full-size temporaries and every condition scored at once;
        # 4.9 MB with draws formed in place and conditions scored
        # CONVEXITY_BLOCK at a time (NumPy 2.4, Python 3.11)
        net = init_network("plse", 61, 20, seed=3)
        check_convexity(net, x_samples=2, u_pairs=2)  # first-call allocations
        tracemalloc.start()
        try:
            check_convexity(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5e6

    @pytest.mark.parametrize("field, value", [
        ("x_samples", 0), ("x_samples", -1), ("x_samples", 2.5),
        ("u_pairs", 0), ("u_pairs", True),
    ])
    def test_sample_counts_checked(self, field, value):
        counts = {"x_samples": 3, "u_pairs": 3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            check_convexity(init_network("plse", 1, 1, seed=7), **counts)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            check_convexity(init_network("ma", 1, 1, seed=7), **counts)

    def test_fnn_rejected(self):
        net = init_network("fnn", 1, 1, seed=7)
        with pytest.raises(UnsupportedNetwork):
            check_convexity(net)

    def test_concave_callable_fails(self):
        viol, _ = convexity_violation(
            lambda X, U: -np.sum(U * U, axis=1), 1, 1, 30, 30, Rng(3)
        )
        assert viol > 1e-9

    def test_concave_network_fails(self):
        # -0.99|u|: a hand-built concave-in-u feedforward net
        W1 = np.array([[0.0, 1.0], [0.0, -1.0]])
        W2 = np.array([[-1.0, -1.0]])
        net = FeedforwardNet(
            n=1, m=1,
            mlp=MlpParams(weights=[W1, W2], biases=[np.zeros(2), np.zeros(1)]),
        )
        viol, _ = convexity_violation(
            lambda X, U: forward_batch(net, X, U), 1, 1, 30, 30, Rng(8)
        )
        assert viol > 1e-9


class TestCheckGradients:
    def test_all_smooth_kinds_pass(self):
        report = check_gradients(trials=30, seed=42)
        assert report.passed
        assert report.max_violation < 1e-5
        assert report.samples == 90

    def test_corrupted_gradient_fails(self, monkeypatch):
        grad_u_batch = verification.grad_u_batch
        monkeypatch.setattr(verification, "grad_u_batch", lambda *a: -grad_u_batch(*a))
        report = check_gradients(trials=5, seed=42)
        assert not report.passed

    def test_nonsmooth_kind_rejected(self):
        with pytest.raises(UnsupportedNetwork):
            check_gradients(kinds=("ma",))

    def test_string_of_kinds_rejected(self):
        # a string would be read as its characters, "l", "s", "e"
        with pytest.raises(ValueError, match="kinds"):
            check_gradients(kinds="lse")

    def test_kinds_from_a_generator(self):
        report = check_gradients(kinds=(k for k in ("lse", "plse")), trials=2)
        assert report.samples == 4 and report.name == "gradients:lse,plse"

    def test_deterministic(self):
        a = check_gradients(trials=10, seed=1)
        b = check_gradients(trials=10, seed=1)
        assert a.to_json() == b.to_json()


def dense_envelope(u, f_vals, eta):
    """Reference arithmetic for moreau_envelope: every row searched over
    every column of the (K, K) table, in row blocks, with np.argmin's first
    index on ties. Returns (envelope, argmin)."""
    K = u.shape[0]
    env = np.empty(K)
    arg = np.empty(K, dtype=np.int64)
    chunk = max(1, 2**22 // K)  # ~32 MB of float64 per block
    for lo in range(0, K, chunk):
        hi = min(lo + chunk, K)
        obj = (u[lo:hi, None] - u) ** 2 / (2.0 * eta) + f_vals
        arg[lo:hi] = np.argmin(obj, axis=1)
        env[lo:hi] = obj[np.arange(hi - lo), arg[lo:hi]]
    return env, arg


class TestMoreauEnvelope:
    def test_constant_function(self):
        dom = BoxDomain.symmetric(1)
        t = moreau_envelope(lambda U: np.full(U.shape[0], 3.5), dom, 0.2, 101)
        assert_allclose(t.envelope, 3.5)
        # prox of a constant is the point itself
        assert np.array_equal(t.argmin, np.arange(101))

    def test_absolute_value_origin(self):
        dom = BoxDomain.symmetric(1)
        t = moreau_envelope(lambda U: np.abs(U[:, 0]), dom, 0.5, 101)
        assert_allclose(t.envelope[50], 0.0, atol=1e-15)  # node 50 is u = 0

    def test_huber_value(self):
        dom = BoxDomain.symmetric(1)
        t = moreau_envelope(lambda U: np.abs(U[:, 0]), dom, 0.5, 4001)
        assert abs(t.envelope[-1] - 0.75) <= 1e-3

    def test_quadratic_closed_form(self):
        # unconstrained prox stays in the box, so the analytic envelope
        # u^2/(1+2 eta) holds exactly on [-1, 1]
        dom = BoxDomain.symmetric(1)
        eta = 0.5
        t = moreau_envelope(lambda U: U[:, 0] ** 2, dom, eta, 2001)
        u = t.nodes[:, 0]
        assert np.max(np.abs(t.envelope - u * u / (1 + 2 * eta))) <= 1e-6

    def test_only_1d_supported(self):
        t = moreau_envelope(lambda U: U[:, 0] ** 2, BoxDomain.symmetric(1), 0.5, 21)
        assert t.nodes.shape == (21, 1)
        for dim in (2, 3):
            with pytest.raises(DimensionMismatch):
                moreau_envelope(lambda U: np.sum(U * U, axis=1),
                                BoxDomain.symmetric(dim), 0.5, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises(self, bad):
        dom = BoxDomain.symmetric(1)
        with pytest.raises(NumericOverflow):
            moreau_envelope(lambda U: np.where(U[:, 0] < 0, bad, U[:, 0]), dom, 0.5, 11)

    @pytest.mark.parametrize("shape", ["K-1", "K+1", "K,1", "scalar"])
    def test_output_shape_must_be_one_value_per_node(self, shape):
        # these once broadcast into a ValueError or indexed past the end
        outputs = {"K-1": lambda K: np.zeros(K - 1), "K+1": lambda K: np.zeros(K + 1),
                   "K,1": lambda K: np.zeros((K, 1)), "scalar": lambda K: 0.0}
        with pytest.raises(DimensionMismatch, match=r"not \(11,\)"):
            moreau_envelope(lambda U: outputs[shape](len(U)), BoxDomain.symmetric(1),
                            0.5, 11)

    def test_validation(self):
        dom = BoxDomain.symmetric(1)
        with pytest.raises(ValueError):
            moreau_envelope(lambda U: U[:, 0], dom, 0.0, 11)
        with pytest.raises(ValueError):
            moreau_envelope(lambda U: U[:, 0], dom, 0.5, 1)

    def test_peak_memory_bounded_when_every_entry_ties(self):
        # 1 + (u_i - u_j)**2 / 2e300 rounds to 1 everywhere, so no column
        # can be ruled out and the search forms every entry; its peak is
        # 13.0 MB forming ENVELOPE_BLOCK entries at a time, 96.1 MB forming
        # a level's entries at once (NumPy 2.4, Python 3.11)
        tracemalloc.start()
        try:
            t = moreau_envelope(lambda U: np.ones(len(U)), BoxDomain.symmetric(1),
                                1e300, 2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(t.argmin, np.zeros(2001, dtype=np.int64))
        assert peak < 30e6

    def test_overflowing_square_term_raises(self):
        # (1 - (-1))**2 / (2 * 1e-310) is past the largest float
        with pytest.raises(NumericOverflow, match="eta"):
            moreau_envelope(lambda U: U[:, 0], BoxDomain.symmetric(1), 1e-310, 11)

    @pytest.mark.parametrize("eta", [0.0, -1.0, float("nan"), float("inf"), True, "0.1"])
    def test_eta_is_a_positive_finite_number(self, eta):
        with pytest.raises(ValueError, match="^eta must be a positive finite number"):
            moreau_envelope(lambda U: U[:, 0], BoxDomain.symmetric(1), eta, 11)

    def test_fractional_resolution_names_the_field(self):
        with pytest.raises(ValueError, match="resolution"):
            moreau_envelope(lambda U: U[:, 0], BoxDomain.symmetric(1), 0.5, 2.5)

    def test_table_rejects_envelope_above_function(self):
        with pytest.raises(ValueError):
            EnvelopeTable(
                eta=0.1,
                nodes=np.zeros((2, 1)),
                f_values=np.zeros(2),
                envelope=np.array([0.0, 1.0]),
                argmin=np.zeros(2, dtype=np.int64),
            )

    def test_argmin_grid_optimality(self):
        dom = BoxDomain.symmetric(1)
        t = moreau_envelope(lambda U: np.abs(U[:, 0]), dom, 0.25, 401)
        u = t.nodes[:, 0]
        for i in (0, 57, 200, 313, 400):
            j = t.argmin[i]
            obj = lambda k: (u[i] - u[k]) ** 2 / (2 * 0.25) + t.f_values[k]
            if j > 0:
                assert obj(j) <= obj(j - 1) + 1e-15
            if j < 400:
                assert obj(j) <= obj(j + 1) + 1e-15

    def test_matches_dense_table_bit_for_bit(self):
        # envelope and argmins against dense_envelope over random f,
        # non-convex and constant ones included
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=120, deadline=None, database=None,
                             derandomize=True)
        # rounding ties make this example's dense argmins step back
        # (444, 445, 444): a search between neighbours' argmins alone
        # misses it
        @hypothesis.example(K=466, eta=1e12, shape="steps", seed=0)
        @hypothesis.given(
            K=st.one_of(st.integers(2, 64), st.integers(2, 4001)),
            eta=st.sampled_from([1e-300, 1e-6, 1e-3, 0.01, 0.1, 0.5, 1.0, 100.0,
                                 1e12, 1e300]),
            shape=st.sampled_from(["constant", "convex", "noise", "steps", "ulps", "wave"]),
            seed=st.integers(0, 2**16),
        )
        def check(K, eta, shape, seed):
            rng = np.random.default_rng(seed)
            u = np.linspace(-1.0, 1.0, K)
            f_vals = {
                "constant": np.full(K, rng.normal()),
                "convex": rng.uniform(0, 3) * u * u + rng.uniform(-1, 1) * np.abs(u - 0.3),
                "noise": rng.normal(size=K),
                # few levels, so most rows meet ties
                "steps": rng.integers(-2, 3, size=K) / 4.0,
                "ulps": 1.0 + rng.integers(-2, 3, size=K) * 2.0**-50,
                "wave": np.sin(rng.uniform(1.0, 80.0) * u) + 0.1 * u,
            }[shape]
            t = moreau_envelope(lambda U: f_vals, BoxDomain.symmetric(1), eta, K)
            env, arg = dense_envelope(t.nodes[:, 0], f_vals, eta)
            assert np.array_equal(t.argmin, arg)
            assert np.array_equal(t.envelope.view(np.int64), env.view(np.int64))

        check()


class TestCheckEnvelopeProperties:
    def test_quadratic_gaps_strictly_decrease(self):
        dom = BoxDomain.symmetric(1)
        report = check_envelope_properties(
            lambda U: U[:, 0] ** 2, (1.0, 0.1, 0.01), dom, resolution=2001
        )
        assert report.passed
        gaps = json.loads(report.notes.split("sup_gaps=")[1])
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_affine_gap_matches_analytic_shift(self):
        # slope-1 affine: prox moves eta along the gradient, envelope sits
        # exactly eta/2 below wherever the shift stays inside the box
        dom = BoxDomain.symmetric(1)
        eta = 0.1
        t = moreau_envelope(lambda U: U[:, 0], dom, eta, 2001)
        interior = t.nodes[:, 0] >= -1.0 + eta
        gap = t.f_values[interior] - t.envelope[interior]
        assert_allclose(gap, eta / 2, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_function_does_not_pass(self, bad):
        # NaN made every comparison false: the report read passed=True with
        # max_violation=-inf and sup_gaps=[nan, nan]
        with pytest.raises(NumericOverflow):
            check_envelope_properties(lambda U: np.full(len(U), bad), (1.0, 0.1),
                                      BoxDomain.symmetric(1), resolution=11)

    def test_single_eta(self):
        dom = BoxDomain.symmetric(1)
        report = check_envelope_properties(
            lambda U: np.abs(U[:, 0]), (0.5,), dom, resolution=101
        )
        assert report.passed

    def test_rejects_nondecreasing_etas(self):
        dom = BoxDomain.symmetric(1)
        with pytest.raises(ValueError):
            check_envelope_properties(lambda U: U[:, 0] ** 2, (0.1, 0.1), dom,
                                      resolution=11)


@pytest.mark.parametrize("check, message", [
    (lambda: check_sandwich(trials=0), "trials must be >= 1"),
    (lambda: check_gradients(trials=0), "trials must be >= 1"),
    (lambda: check_gradients(kinds=()), "kinds must be nonempty"),
    (lambda: check_envelope_properties(lambda U: U[:, 0] ** 2, [],
                                       BoxDomain.symmetric(1), resolution=11),
     "etas must be nonempty and strictly decreasing"),
    (lambda: check_sandwich(trials=1, T="0.1"),
     "T must be a positive finite number, got '0.1'"),
    (lambda: check_sandwich(trials=1, T=0.0), "T must be a positive finite number, got 0.0"),
    (lambda: check_sandwich(trials=1, dims=(1.5, 2)),
     "dims entries must be an integer, got 1.5"),
    (lambda: check_sandwich(trials=1, dims=(0, 2)), "dims entries must be >= 1"),
    (lambda: check_sandwich(trials=1, dims=(2, True)),
     "dims entries must be an integer, got True"),
    (lambda: check_sandwich(trials=1, I=0), "I must be >= 1"),
    (lambda: check_sandwich(trials=1, I=2.0), "I must be an integer, got 2.0"),
    (lambda: check_sandwich(trials=1, seed=-1), "seed must be >= 0"),
    (lambda: check_sandwich(trials=1, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: check_sandwich(trials=1, seed="1"), "seed must be an integer, got '1'"),
    (lambda: check_convexity(init_network("lse", 1, 1, seed=0, I=2), 1, 1, seed=-1),
     "seed must be >= 0"),
    (lambda: check_convexity(init_network("lse", 1, 1, seed=0, I=2), 1, 1, seed=1.5),
     "seed must be an integer, got 1.5"),
    (lambda: check_convexity(init_network("lse", 1, 1, seed=0, I=2), 1, 1, seed="1"),
     "seed must be an integer, got '1'"),
    (lambda: check_gradients(trials=1, seed=-1), "seed must be >= 0"),
    (lambda: check_gradients(trials=1, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: check_gradients(trials=1, seed="1"), "seed must be an integer, got '1'"),
], ids=["sandwich-trials", "gradients-trials", "gradients-kinds", "envelope-etas",
        "sandwich-T-string", "sandwich-T-zero", "sandwich-dims-float", "sandwich-dims-zero",
        "sandwich-dims-bool", "sandwich-I-zero", "sandwich-I-float",
        "sandwich-seed-negative", "sandwich-seed-float", "sandwich-seed-string",
        "convexity-seed-negative", "convexity-seed-float", "convexity-seed-string",
        "gradients-seed-negative", "gradients-seed-float", "gradients-seed-string"])
def test_check_that_samples_nothing_rejected(check, message):
    # a report of samples=0 would read passed=True. Unchecked, a sandwich
    # T of "0.1" raised a bare TypeError, a dims bound of 1.5 or 0 was
    # truncated into the dims drawn, I = 0 warned of log(0), and a seed of
    # -1 drew seed 2**64 - 1's stream while 1.5 or "1" raised a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check()


class TestRunCheckSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_check_suite("everything")

    def test_suite_names(self):
        reports = run_check_suite("envelope", seed=0)
        assert [r.name for r in reports] == [
            "envelope:quadratic", "envelope:absolute", "envelope:huber-spot",
        ]

    def test_all_passes_and_is_deterministic(self):
        a = run_check_suite("all", seed=42)
        b = run_check_suite("all", seed=42)
        assert all(r.passed for r in a)
        ja = json.dumps([r.to_json() for r in a], sort_keys=True)
        jb = json.dumps([r.to_json() for r in b], sort_keys=True)
        assert ja == jb

    def test_report_shape(self):
        (report,) = run_check_suite("sandwich", seed=1)
        doc = report.to_json()
        assert set(doc) == {"name", "samples", "max_violation", "passed", "notes"}
        assert isinstance(report, CheckReport)
