"""Tests for the RNG, box domains, and the grid oracle."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from paraconvex.exceptions import DimensionMismatch, NumericOverflow
from paraconvex.numerics import (
    _DOUBLE_SCALE,
    _GOLDEN,
    _MIX1,
    _MIX2,
    BoxDomain,
    Rng,
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
