"""Tests for the RNG, box domains, and the grid oracle."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from paraconvex.exceptions import ConfigError, DimensionMismatch, NumericOverflow
from paraconvex.numerics import (
    _DOUBLE_SCALE,
    _DRAW_CHUNK,
    _GOLDEN,
    _MIX1,
    _MIX2,
    BoxDomain,
    Rng,
    check_positive,
    grid_minimize,
    grid_nodes,
    sample_uniform_box,
)


def _reference_uint64(seed, start, count):
    """Outputs start+1 .. start+count of seed's stream by the recurrence
    written out with a fresh array per step: the reference for Rng's
    in-place arithmetic."""
    ks = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + ks * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _reference_uniform(seed, start, count):
    return (_reference_uint64(seed, start, count) >> np.uint64(11)).astype(
        np.float64) * _DOUBLE_SCALE


class TestRng:
    @pytest.mark.parametrize("seed", [0, 1, 42, 1234567, 2**63 + 5, 2**64 - 1, -3])
    def test_draws_equal_the_reference_recurrence(self, seed):
        # consecutive draws of every method, one stream: each must equal the
        # reference at its counter, bit for bit; 9,000 and 20,001 span
        # several of NumPy's 8,192-element casting buffers
        r, start = Rng(seed), 0
        for count in (1, 0, 7, 9000, 20001, 2):
            got = r.next_uint64(count)
            assert got.dtype == np.uint64
            assert_array_equal(got, _reference_uint64(seed, start, count))
            start += count
            got = r.uniform(count)
            assert got.dtype == np.float64 and got.flags.writeable
            assert got.tobytes() == _reference_uniform(seed, start, count).tobytes()
            start += count
            got = r.uniform_in(-1.5, 2.25, count)
            want = -1.5 + (2.25 - -1.5) * _reference_uniform(seed, start, count)
            assert got.tobytes() == want.tobytes()
            start += count

    @pytest.mark.parametrize("count", [_DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1,
                                       3 * _DRAW_CHUNK + 5])
    def test_chunked_draws_equal_the_one_pass_bytes(self, count):
        # a draw is formed _DRAW_CHUNK outputs at a time; the stream, and the
        # counter the next draw starts from, are the one-pass reference's
        r = Rng(77)
        assert r.next_uint64(count).tobytes() == _reference_uint64(77, 0, count).tobytes()
        got = r.uniform(count)
        assert got.tobytes() == _reference_uniform(77, count, count).tobytes()
        assert_array_equal(r.next_uint64(2), _reference_uint64(77, 2 * count, 2))

    def test_uniform_peak_is_the_draw_and_one_chunk(self):
        # each chunk is converted in place before the next is drawn: the
        # peak was two draws when the conversion copied the whole draw
        Rng(0).uniform(5)
        tracemalloc.start()
        try:
            u = Rng(1).uniform(10 * _DRAW_CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * u.nbytes

    @pytest.mark.parametrize("seed", [np.int64(0), np.int64(42), np.int64(-3),
                                      np.uint64(2**64 - 1), np.int32(7)])
    def test_numpy_integer_seed_draws_the_python_int_stream(self, seed):
        # a NumPy seed raised OverflowError: np.int64 & (2**64 - 1) has no C long
        assert_array_equal(Rng(seed).next_uint64(5), Rng(int(seed)).next_uint64(5))

    def test_concatenated_draws_equal_one_draw(self):
        for method in ("next_uint64", "uniform"):
            a, b = Rng(5), Rng(5)
            parts = [getattr(a, method)(count) for count in (3, 8192, 1, 10000)]
            whole = getattr(b, method)(3 + 8192 + 1 + 10000)
            assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_reference_stream(self):
        # SplitMix64 outputs for seed 1234567, computed by hand-applying the
        # published recurrence (see module docstring) with 64-bit wrapping.
        r = Rng(1234567)
        expected = np.array(
            [6457827717110365317, 3203168211198807973, 9817491932198370423],
            dtype=np.uint64,
        )
        assert_array_equal(r.next_uint64(3), expected)

    def test_batching_does_not_change_stream(self):
        a = Rng(99)
        b = Rng(99)
        one = np.concatenate([a.next_uint64(1) for _ in range(10)])
        assert_array_equal(one, b.next_uint64(10))

    def test_uniform_range_and_determinism(self):
        r1, r2 = Rng(7), Rng(7)
        u1, u2 = r1.uniform(1000), r2.uniform(1000)
        assert_array_equal(u1, u2)
        assert np.all(u1 >= 0.0) and np.all(u1 < 1.0)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(8), Rng(2).uniform(8))

    def test_shuffle_is_permutation(self):
        idx = Rng(5).shuffle_indices(50)
        assert sorted(idx.tolist()) == list(range(50))

    def test_spawn_differs_from_parent(self):
        parent = Rng(11)
        child = parent.spawn()
        assert not np.array_equal(parent.uniform(8), child.uniform(8))


class TestBoxDomain:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            BoxDomain(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BoxDomain(np.array([0.0]), np.array([1.0, 2.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BoxDomain(np.array([-np.inf]), np.array([1.0]))

    def test_contains(self):
        dom = BoxDomain.symmetric(2)
        assert dom.contains(np.array([0.5, -1.0]))
        assert not dom.contains(np.array([0.5, -1.0000001]))
        assert dom.contains(np.array([0.5, -1.0000001]), atol=1e-6)

    @pytest.mark.parametrize("shape", [(), (1,), (3,), (5, 20)])
    def test_contains_takes_one_point_of_the_box_dimension(self, shape):
        # each of these would broadcast against the 20 bounds
        dom = BoxDomain.symmetric(20)
        with pytest.raises(DimensionMismatch):
            dom.contains(np.full(shape, 0.5))


class TestSampleUniformBox:
    def test_containment(self):
        dom = BoxDomain.symmetric(2)
        pts = sample_uniform_box(dom, 3, Rng(7))
        assert pts.shape == (3, 2)
        assert np.all(pts >= -1.0) and np.all(pts <= 1.0)

    def test_degenerate_width(self):
        dom = BoxDomain(np.array([0.0]), np.array([1e-9]))
        pts = sample_uniform_box(dom, 1, Rng(3))
        assert 0.0 <= pts[0, 0] <= 1e-9

    def test_determinism(self):
        dom = BoxDomain.symmetric(3)
        a = sample_uniform_box(dom, 17, Rng(42))
        b = sample_uniform_box(dom, 17, Rng(42))
        assert_array_equal(a, b)

    def test_empirical_mean(self):
        dom = BoxDomain.symmetric(1)
        draws = sample_uniform_box(dom, 100_000, Rng(2024))
        assert -0.02 <= draws.mean() <= 0.02

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_uniform_box(BoxDomain.symmetric(1), 0, Rng(0))

    def test_fractional_count_names_the_field(self):
        with pytest.raises(ValueError, match="count"):
            sample_uniform_box(BoxDomain.symmetric(1), 2.5, Rng(0))

    def test_bits_of_lower_plus_width_times_draw(self):
        dom = BoxDomain(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 5.0]))
        flat = Rng(11).uniform(40 * 3).reshape(40, 3)
        want = dom.lower + (dom.upper - dom.lower) * flat
        assert sample_uniform_box(dom, 40, Rng(11)).tobytes() == want.tobytes()

    def test_peak_is_the_draw_and_its_shift_buffer(self):
        # the points are formed in the draw's memory, so the peak is the draw
        # and Rng.next_uint64's shift buffer, with no temporary of their size
        dom = BoxDomain(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 5.0]))
        sample_uniform_box(dom, 1, Rng(0))
        tracemalloc.start()
        try:
            pts = sample_uniform_box(dom, 100_000, Rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * pts.nbytes


class TestCheckPositive:
    @pytest.mark.parametrize("value", [1e-300, 0.5, 1, np.float32(2.0), np.int64(3), 1e308])
    def test_positive_finite_numbers_pass(self, value):
        check_positive("rate", value)

    @pytest.mark.parametrize("value", [True, False, "0.1", None, np.nan, 0, 0.0, -1,
                                       np.inf, -np.inf, [0.5]])
    def test_anything_else_names_the_field(self, value):
        with pytest.raises(ValueError, match=rf"^rate must be a positive finite number, "
                                             rf"got {re.escape(repr(value))}$"):
            check_positive("rate", value)

    @pytest.mark.parametrize("value", [1, 1.0, 1.5, np.nan, 0.0])
    def test_below_bounds_it_above(self, value):
        with pytest.raises(ConfigError, match=rf"^ratio must lie strictly between 0 and 1, "
                                              rf"got {re.escape(repr(value))}$"):
            check_positive("ratio", value, ConfigError, below=1)
        check_positive("ratio", 0.999, ConfigError, below=1)


class TestGridNodes:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_lexicographic_order(self, dim):
        # the reference is the loop grid_minimize once ran: itertools.product
        # over the per-axis linspaces, axis 0 major
        dom = BoxDomain(np.linspace(-1.0, -0.4, dim), np.linspace(0.5, 2.0, dim))
        axes = [np.linspace(dom.lower[j], dom.upper[j], 4) for j in range(dim)]
        want = np.array(list(itertools.product(*axes)), dtype=np.float64)
        nodes = grid_nodes(dom, 4)
        assert nodes.shape == (4**dim, dim)
        assert_array_equal(nodes, want)


class TestGridMinimize:
    def test_quadratic_hits_center(self):
        dom = BoxDomain.symmetric(1)
        node, val = grid_minimize(lambda u: u[0] ** 2, dom, 201)
        assert_allclose(node, [0.0], atol=0.0)
        assert val == 0.0

    def test_linear_hits_lower_bound(self):
        dom = BoxDomain.symmetric(1)
        node, val = grid_minimize(lambda u: u[0], dom, 11)
        assert_allclose(node, [-1.0])
        assert_allclose(val, -1.0)

    def test_shifted_quadratic_2d(self):
        # Worst case is half a grid step per axis, so the value error is at
        # most 2 * (0.0025)^2; here the optimum falls on a node exactly.
        dom = BoxDomain.symmetric(2)
        node, val = grid_minimize(
            lambda U: (U[:, 0] - 0.3) ** 2 + (U[:, 1] + 0.4) ** 2,
            dom,
            401,
            vectorized=True,
        )
        assert abs(val) <= 2.6e-5
        assert_allclose(node, [0.3, -0.4], atol=0.005)

    def test_scalar_and_vectorized_paths_agree(self):
        dom = BoxDomain(np.array([-1.0, 0.0]), np.array([2.0, 1.0]))
        f = lambda u: (u[0] - 0.37) ** 2 + abs(u[1] - 0.61)
        fv = lambda U: (U[:, 0] - 0.37) ** 2 + np.abs(U[:, 1] - 0.61)
        n1, v1 = grid_minimize(f, dom, 23)
        n2, v2 = grid_minimize(fv, dom, 23, vectorized=True)
        assert_array_equal(n1, n2)
        assert v1 == v2

    def test_tie_break_lexicographic(self):
        dom = BoxDomain.symmetric(2)
        node, _ = grid_minimize(lambda u: 0.0, dom, 3)
        assert_array_equal(node, [-1.0, -1.0])
        node_v, _ = grid_minimize(
            lambda U: np.zeros(U.shape[0]), dom, 3, vectorized=True
        )
        assert_array_equal(node_v, [-1.0, -1.0])

    def test_dimension_cap(self):
        with pytest.raises(DimensionMismatch):
            grid_minimize(lambda u: 0.0, BoxDomain.symmetric(5), 3)

    @pytest.mark.parametrize("points", [1, 2.5])
    def test_points_per_axis_validation(self, points):
        with pytest.raises(ValueError, match="points_per_axis"):
            grid_minimize(lambda u: 0.0, BoxDomain.symmetric(1), points)

    @pytest.mark.parametrize("shape", ["N-1", "N+1", "N,1", "scalar"])
    def test_output_shape_must_be_one_value_per_node(self, shape):
        # on a 5x5 grid these (N - 1,) values once returned node (1, 0.5)
        # and these (N + 1,) values node (-1, -1); a column or a scalar
        # raised TypeError or IndexError
        outputs = {"N-1": lambda N: np.arange(N - 1.0)[::-1],
                   "N+1": lambda N: np.arange(N + 1.0),
                   "N,1": lambda N: np.zeros((N, 1)), "scalar": lambda N: 0.0}
        with pytest.raises(DimensionMismatch, match=r"not \(25,\)"):
            grid_minimize(lambda U: outputs[shape](len(U)), BoxDomain.symmetric(2), 5,
                          vectorized=True)

    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises(self, vectorized, bad):
        # non-finite for u < 0 only: a minimum over the rest would hide it
        dom = BoxDomain.symmetric(1)
        if vectorized:
            f = lambda U: np.where(U[:, 0] < 0, bad, U[:, 0] ** 2)
        else:
            f = lambda u: bad if u[0] < 0 else u[0] ** 2
        with pytest.raises(NumericOverflow):
            grid_minimize(f, dom, 11, vectorized=vectorized)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_infinite_everywhere_raises(self, vectorized):
        dom = BoxDomain.symmetric(2)
        f = (lambda U: np.full(len(U), np.inf)) if vectorized else (lambda u: np.inf)
        with pytest.raises(NumericOverflow):
            grid_minimize(f, dom, 5, vectorized=vectorized)

    def test_value_not_above_any_node(self):
        # The reported value re-evaluates below f at a random set of nodes.
        dom = BoxDomain.symmetric(2)
        rng = Rng(31)
        f = lambda u: np.sin(3 * u[0]) + (u[1] - 0.2) ** 2
        _, val = grid_minimize(f, dom, 51)
        axes = np.linspace(-1.0, 1.0, 51)
        for _ in range(100):
            ij = (rng.uniform(2) * 51).astype(int)
            u = np.array([axes[ij[0]], axes[ij[1]]])
            assert val <= f(u) + 1e-15
