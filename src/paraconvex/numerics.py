"""Deterministic sampling, box domains, one lattice of grid nodes, a
brute-force grid oracle over it, and the one check of each kind of
setting: `check_count` for integers, `check_positive` for real values.

The random number generator is SplitMix64 (Steele, Lea & Flood, "Fast
Splittable Pseudorandom Number Generators", OOPSLA 2014), chosen because its
recurrence is tiny, published, and counter-addressable, so any language can
reproduce the exact same stream from the same 64-bit seed:

    state_k = seed + (k + 1) * 0x9E3779B97F4A7C15        (mod 2^64)
    z = state_k
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9             (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB             (mod 2^64)
    output_k = z ^ (z >> 31)

Doubles in [0, 1) take the top 53 bits: (output >> 11) * 2**-53.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NumericOverflow

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_DOUBLE_SCALE = 2.0 ** -53
# outputs a draw forms at a time: its temporaries are one chunk's, 512 KB,
# not the draw's size
_DRAW_CHUNK = 2**16

GRID_DIM_CAP = 4


class Rng:
    """SplitMix64 stream. Identical seed gives a bit-identical stream."""

    def __init__(self, seed: int):
        # any integer, NumPy's too (a bare np.int64 & 2**64 - 1 overflows)
        self.seed = np.uint64(operator.index(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def next_uint64(self, count: int = 1) -> np.ndarray:
        """Next `count` raw 64-bit outputs as a uint64 array."""
        return self._draw(count, np.uint64)

    def uniform(self, count: int = 1) -> np.ndarray:
        """`count` doubles uniform in [0, 1)."""
        return self._draw(count, np.float64)

    def _draw(self, count: int, dtype) -> np.ndarray:
        """The next `count` outputs, raw (uint64) or as doubles (float64),
        formed in place in one array _DRAW_CHUNK at a time. A chunk's
        counters become its shift buffer, which is freed before a chunk of
        doubles is converted in place (NumPy copies the overlapping input):
        so a draw's peak is the draw and one chunk. The stream is
        counter-based, so the chunks are the one-pass draw bit for bit."""
        out = np.empty(count, dtype=np.uint64)
        for start in range(0, count, _DRAW_CHUNK):
            z = out[start : start + _DRAW_CHUNK]
            shifted = np.arange(self._counter + 1, self._counter + len(z) + 1,
                                dtype=np.uint64)
            self._counter += len(z)
            np.multiply(shifted, _GOLDEN, out=z)
            z += self.seed
            for shift, mix in ((30, _MIX1), (27, _MIX2)):
                z ^= np.right_shift(z, np.uint64(shift), out=shifted)
                z *= mix
            z ^= np.right_shift(z, np.uint64(31), out=shifted)
            del shifted
            if dtype is np.float64:
                z >>= np.uint64(11)  # below 2**53, so the conversion is exact
                np.multiply(z, _DOUBLE_SCALE, out=z.view(np.float64))
        return out.view(dtype)

    def uniform_in(self, low: float, high: float, count: int = 1) -> np.ndarray:
        u = self.uniform(count)
        u *= high - low
        u += low
        return u

    def shuffle_indices(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), driven by this stream.

        Step k (k = 0 .. n-2) swaps position i = n-1-k with
        j = floor(uniform_k * (i + 1)). Every j comes from one float64
        product and truncation; the swaps run on a Python list.
        """
        if n < 2:
            return np.arange(n)
        js = (self.uniform(n - 1) * np.arange(n, 1, -1)).astype(np.int64).tolist()
        idx = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), js):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx)

    def spawn(self) -> "Rng":
        """Independent child stream seeded from this one."""
        return Rng(int(self.next_uint64(1)[0]))


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box: lower[j] < upper[j] componentwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.ndim != 1 or hi.shape != lo.shape:
            raise DimensionMismatch("lower and upper must be 1-D with equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("box requires lower < upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @staticmethod
    def symmetric(dim: int) -> "BoxDomain":
        """[-1, 1]^dim."""
        return BoxDomain(np.full(dim, -1.0), np.full(dim, 1.0))

    def contains(self, u: np.ndarray, atol: float = 0.0) -> bool:
        """Whether the point u, of shape (dim,), lies in the box widened by
        atol. Any other shape raises DimensionMismatch rather than being
        broadcast against the bounds."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.dim,):
            raise DimensionMismatch(f"point must have shape ({self.dim},), got {u.shape}")
        return bool(np.all(u >= self.lower - atol) and np.all(u <= self.upper + atol))


def sample_uniform_box(domain: BoxDomain, count: int, rng: Rng) -> np.ndarray:
    """`count` points uniform in the box, one per row; pure in (domain, seed).

    Draw order is row-major (point by point, coordinate by coordinate), so a
    given seed yields the same matrix regardless of how callers batch.
    """
    check_count("count", count)
    m = domain.dim
    flat = rng.uniform(count * m).reshape(count, m)
    flat *= domain.upper - domain.lower  # in the draw's memory, as uniform_in
    flat += domain.lower
    return flat


def grid_nodes(domain: BoxDomain, points_per_axis: int) -> np.ndarray:
    """The (points_per_axis ** dim, dim) nodes of a regular lattice on the
    box, one per row, in lexicographic order (axis 0 major)."""
    axes = [
        np.linspace(domain.lower[j], domain.upper[j], points_per_axis)
        for j in range(domain.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def grid_minimize(
    f,
    domain: BoxDomain,
    points_per_axis: int,
    vectorized: bool = False,
) -> tuple[np.ndarray, float]:
    """Exhaustive minimum of `f` over the grid_nodes lattice on the box.

    Ties go to the first node in lexicographic order (axis 0 major).
    This is an oracle for low dimensions only; the cost is
    points_per_axis ** dim, so dim is capped at GRID_DIM_CAP.

    With vectorized=True, `f` is called once with the (N, dim) array of
    nodes and must return an (N,) array, else DimensionMismatch; otherwise
    it is called once per node with a (dim,) array and must return a
    scalar. Raises NumericOverflow if any value is not finite, since a NaN
    or an infinity leaves no minimum to report.
    """
    check_count("points_per_axis", points_per_axis, minimum=2)
    m = domain.dim
    if m > GRID_DIM_CAP:
        raise DimensionMismatch(
            f"grid oracle limited to dimension <= {GRID_DIM_CAP}, got {m}"
        )
    nodes = grid_nodes(domain, points_per_axis)
    values = node_values(f if vectorized else lambda U: [float(f(u)) for u in U],
                         nodes, "grid oracle")
    best = int(np.argmin(values))  # argmin takes the first, i.e. lexicographic, tie
    return nodes[best].copy(), float(values[best])


def node_values(f, nodes: np.ndarray, who: str) -> np.ndarray:
    """f of the (N, dim) nodes as an (N,) array: another shape raises
    DimensionMismatch, a non-finite value NumericOverflow."""
    values = np.asarray(f(nodes), dtype=np.float64)
    if values.shape != (len(nodes),):
        raise DimensionMismatch(f"{who}: f returned {values.shape}, not ({len(nodes)},)")
    if not np.isfinite(values).all():
        raise NumericOverflow(f"{who}: f produced a non-finite value")
    return values


def check_count(name: str, value, error=ValueError, minimum: int = 1) -> None:
    """Raise `error` naming the field unless value is an integer >= minimum:
    a Python or NumPy integer, not a bool, a float or NaN."""
    if isinstance(value, numbers.Real) and value < minimum:
        raise error(f"{name} must be >= {minimum}")
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")


def check_positive(name: str, value, error=ValueError, below: float = np.inf) -> None:
    """Raise `error` naming the field unless value is a real number with
    0 < value < below: not a bool or a string, and neither NaN nor inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < below:
        rule = ("be a positive finite number" if below == np.inf
                else f"lie strictly between 0 and {below}")
        raise error(f"{name} must {rule}, got {value!r}")
