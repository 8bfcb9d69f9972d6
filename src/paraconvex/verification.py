"""Executable checks of the library's mathematical guarantees.

Four families:
  - sandwich: a log-sum-exp net and its weight-identical max-affine twin
    differ by at least 0 and at most T * log I, everywhere.
  - convexity: every bank-based kind is convex in u at fixed x (midpoint
    inequality, sampled), each condition's bank (A_u(x), c(x)) built once
    and scored at all its points through `networks.bank_scores`, a block
    of conditions at a time.
  - gradients: analytic u-gradients agree with central finite differences
    away from LeakyReLU kinks.
  - envelope: the Moreau-Yosida envelope of a convex function of one
    variable is a pointwise under-approximation, monotone in the smoothing
    weight, converging to the function as the weight vanishes.

Every check is a pure function of its seed, so reports are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import DimensionMismatch, NumericOverflow, UnsupportedNetwork
from .networks import (
    FeedforwardNet,
    MlpWorkspace,
    Network,
    _finite,
    bank_scores,
    bank_values,
    forward_batch,
    grad_u_batch,
    nonsmooth_twin,
    u_bank_batch,
)
from .numerics import (BoxDomain, Rng, check_count, check_list, check_positive, grid_nodes,
                       node_values)
from .training import init_network

SANDWICH_SLACK = 1e-9
CONVEXITY_SLACK = 1e-9
GRADIENT_REL_TOL = 1e-5
ENVELOPE_SLACK = 1e-9
HUBER_SPOT_TOL = 1e-3

SANDWICH_POINTS = 5  # sampled (x, u) points per sandwich trial
SANDWICH_HIDDEN = (16, 16)  # embedded-MLP widths of the sandwich's nets
FD_STEP = 1e-4  # central-difference step of the gradient check
ENVELOPE_RESOLUTION = 4001  # grid nodes of the envelope checks on [-1, 1]
ENVELOPE_BLOCK = 2**18  # prox-table entries moreau_envelope forms at a time


@dataclass
class CheckReport:
    name: str
    samples: int
    max_violation: float
    passed: bool
    notes: str = ""

    def to_json(self) -> dict:
        return asdict(self)


# --- sandwich ---------------------------------------------------------------


def check_sandwich(
    trials: int = 1000,
    dims: tuple = (8, 4),
    I: int = 30,
    T: float = 0.1,
    seed: int = 0,
) -> CheckReport:
    """Random smooth/nonsmooth twin pairs at random dims up to `dims`:
    0 <= smooth - nonsmooth <= T * log I must hold at every sampled (x, u)."""
    check_count("trials", trials)
    n_max, m_max = dims
    check_count("dims entries", n_max)
    check_count("dims entries", m_max)
    check_count("I", I)
    check_positive("T", T)
    check_count("seed", seed, minimum=0)
    rng = Rng(seed)
    upper = T * np.log(I)
    worst = -np.inf
    for _ in range(trials):
        draws = rng.uniform(2)
        n = 1 + int(draws[0] * n_max)
        m = 1 + int(draws[1] * m_max)
        net_seed = int(rng.next_uint64(1)[0] % (2**31))
        plse = init_network("plse", n, m, seed=net_seed, I=I, T=T,
                            hidden=SANDWICH_HIDDEN)
        pma = nonsmooth_twin(plse)
        X = rng.uniform_in(-1.0, 1.0, SANDWICH_POINTS * n).reshape(-1, n)
        U = rng.uniform_in(-1.0, 1.0, SANDWICH_POINTS * m).reshape(-1, m)
        gap = forward_batch(plse, X, U) - forward_batch(pma, X, U)
        worst = max(worst, float(np.max(-gap)), float(np.max(gap - upper)))
    return CheckReport(
        name="sandwich",
        samples=trials * SANDWICH_POINTS,
        max_violation=worst,
        passed=worst <= SANDWICH_SLACK,
        notes=f"I={I} T={T} dims<=({n_max},{m_max}) bound={upper!r}",
    )


# --- convexity ---------------------------------------------------------------

_LAMBDAS = (0.25, 0.5, 0.75)
CONVEXITY_BLOCK = 10  # conditions check_convexity scores at a time


def check_convexity(
    net: Network, x_samples: int = 100, u_pairs: int = 100, seed: int = 0
) -> CheckReport:
    """Midpoint convexity in u for a bank-based net: at x_samples random
    conditions, u_pairs random pairs (u1, u2) each, and every lambda in
    _LAMBDAS, the largest f(lam u1 + (1 - lam) u2) - lam f(u1) - (1 - lam)
    f(u2). Each condition's bank is built once and broadcast over its
    u-pairs; the values are bit-equal to forward_batch on the conditions
    repeated u_pairs times. The conditions are scored CONVEXITY_BLOCK at a
    time, so no score array spans them all: past the draws of the u-pairs,
    memory does not grow with x_samples. Raises NumericOverflow on a
    non-finite value."""
    if isinstance(net, FeedforwardNet):
        raise UnsupportedNetwork("fnn carries no convexity guarantee to check")
    check_count("x_samples", x_samples)
    check_count("u_pairs", u_pairs)
    check_count("seed", seed, minimum=0)
    rng = Rng(seed)
    n, m = net.n, net.m
    X = rng.uniform_in(-1.0, 1.0, x_samples * n).reshape(-1, n)
    U1 = rng.uniform_in(-1.0, 1.0, x_samples * u_pairs * m).reshape(x_samples, u_pairs, m)
    U2 = rng.uniform_in(-1.0, 1.0, x_samples * u_pairs * m).reshape(x_samples, u_pairs, m)
    A_u, c = u_bank_batch(net, X)
    A_u, c = A_u[:, None], c[:, None]

    def f(rows, U):
        with np.errstate(over="ignore", invalid="ignore"):
            S = bank_scores(A_u[rows], U, c[rows])
            v = bank_values(S.reshape(-1, net.I), net.T)
        return _finite(net, v, "forward")

    worst = -np.inf
    for first in range(0, x_samples, CONVEXITY_BLOCK):
        rows = slice(first, first + CONVEXITY_BLOCK)
        u1, u2 = U1[rows], U2[rows]
        f1, f2 = f(rows, u1), f(rows, u2)
        for lam in _LAMBDAS:
            mid = f(rows, lam * u1 + (1.0 - lam) * u2)
            worst = max(worst, float(np.max(mid - lam * f1 - (1.0 - lam) * f2)))
    return CheckReport(
        name=f"convexity:{net.kind}",
        samples=x_samples * u_pairs * len(_LAMBDAS),
        max_violation=worst,
        passed=worst <= CONVEXITY_SLACK,
        notes=f"n={net.n} m={net.m} I={net.I} lambdas={_LAMBDAS}",
    )


# --- gradients ---------------------------------------------------------------


def _kink_margin(net: Network, x: np.ndarray, u: np.ndarray) -> float:
    """Smallest |pre-activation| across hidden units; only fnn has kinks in u."""
    if not isinstance(net, FeedforwardNet):
        return np.inf
    ws = MlpWorkspace(net.mlp, 1)
    ws.Z[0] = np.concatenate([x, u])
    ws.forward(1)
    return min(float(np.min(np.abs(z))) for z in ws.pres[:-1])


def check_gradients(
    kinds=("fnn", "lse", "plse"),
    trials: int = 100,
    seed: int = 0,
) -> CheckReport:
    """Central finite differences of step FD_STEP vs grad_u_batch at
    kink-free random points, `trials` per kind. Each trial scores its 2m
    stencil points in one forward_batch call."""
    check_count("trials", trials)
    kinds = check_list("kinds", kinds)
    if not kinds:
        raise ValueError("kinds must be nonempty")
    bad = set(kinds) - {"fnn", "lse", "plse"}
    if bad:
        raise UnsupportedNetwork(f"no smooth u-gradient for kinds {sorted(bad)}")
    check_count("seed", seed, minimum=0)
    rng = Rng(seed)
    worst = 0.0
    count = 0
    for kind in kinds:
        for trial in range(trials):
            net_seed = int(rng.next_uint64(1)[0] % (2**31))
            net = init_network(kind, 2, 2, seed=net_seed, I=6, T=0.1, hidden=(8, 8))
            x = rng.uniform_in(-1.0, 1.0, 2)
            u = rng.uniform_in(-1.0, 1.0, 2)
            for _ in range(50):  # stay clear of kinks for the FD stencil
                if _kink_margin(net, x, u) > 100 * FD_STEP:
                    break
                u = rng.uniform_in(-1.0, 1.0, 2)
            g = grad_u_batch(net, x[None], u[None])[0]
            # the 2m stencil points u + h e_j, then u - h e_j, in one batch
            steps = FD_STEP * np.eye(net.m)
            f = forward_batch(net, np.tile(x, (2 * net.m, 1)),
                              np.vstack([u + steps, u - steps]))
            fd = (f[: net.m] - f[net.m :]) / (2 * FD_STEP)
            rel = float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12))
            worst = max(worst, rel)
            count += 1
    return CheckReport(
        name="gradients:" + ",".join(kinds),
        samples=count,
        max_violation=worst,
        passed=worst < GRADIENT_REL_TOL,
        notes=f"h={FD_STEP!r} central differences",
    )


# --- Moreau-Yosida envelope ---------------------------------------------------


@dataclass
class EnvelopeTable:
    """Envelope of f over a 1-D grid: env[i] = min_j (u_i - u_j)^2/(2 eta)
    + f(u_j), with nodes (K, 1) holding the u_i. argmin[i] is the prox
    point's grid index (first on ties)."""

    eta: float
    nodes: np.ndarray
    f_values: np.ndarray
    envelope: np.ndarray
    argmin: np.ndarray

    def __post_init__(self):
        if np.any(self.envelope > self.f_values + ENVELOPE_SLACK):
            raise ValueError("envelope exceeds the source function on the grid")


def _segment_minima(u, f_vals, eta, tau, rows, left, right):
    """Each row's first argmin over its columns left..right of the prox
    table, the entry there, and the first and last of its columns within
    tau of that minimum."""
    width = right - left + 1
    starts = np.cumsum(width) - width
    seg = np.repeat(np.arange(rows.size), width)
    at = np.arange(width.sum())
    cols = at - starts[seg] + left[seg]
    obj = (u[rows[seg]] - u[cols]) ** 2 / (2.0 * eta) + f_vals[cols]
    best = np.minimum.reduceat(obj, starts)[seg]
    first = np.minimum.reduceat(np.where(obj == best, at, at.size), starts)
    near = obj <= best + tau
    down = np.minimum.reduceat(np.where(near, at, at.size), starts)
    up = np.maximum.reduceat(np.where(near, at, -1), starts)
    return cols[first], obj[first], cols[down], cols[up]


def moreau_envelope(
    f,
    domain: BoxDomain,
    eta: float,
    resolution: int,
) -> EnvelopeTable:
    """Moreau-Yosida envelope of f on `resolution` grid nodes of a 1-D box.
    f maps the (K, 1) array of nodes to (K,); any other output shape raises
    DimensionMismatch. Raises NumericOverflow if an f value is not finite,
    as no property of the envelope can be checked against it, or if eta is
    so small that the square term overflows.

    The table (u_i - u_j)^2/(2 eta) + f_j is Monge for any f, so in real
    arithmetic a row's first argmin is nondecreasing in i (Aggarwal et al.
    1987). Divide and conquer searches the middle rows of each level, all
    at once with `np.minimum.reduceat`, over only the columns their
    neighbours leave open: O(K log K) entries for the dense table's K^2.
    Rounding can tie entries that the real table orders, and then the
    dense table's first argmins can step back. So a row leaves open, to the
    rows on either side, every column within `tau` of its minimum: `tau`
    is four bounds on an entry's rounding error, and by the Monge
    inequality those columns hold every rounded argmin of the rows. Each
    entry is formed by the dense table's expression, so the envelope and
    the argmins are its bits. Where every entry is within `tau` of its
    row's minimum (a constant f with a huge eta), the search forms all K^2
    entries, ENVELOPE_BLOCK at a time.
    """
    check_positive("eta", eta)
    check_count("resolution", resolution, minimum=2)
    if domain.dim != 1:
        raise DimensionMismatch("envelope grid limited to dimension 1")
    nodes = grid_nodes(domain, resolution)
    f_vals = node_values(f, nodes, "envelope")
    u = nodes[:, 0]
    K = u.shape[0]
    env = np.empty(K)
    arg = np.empty(K, dtype=np.int64)
    # an entry rounds within 2.6 eps of the largest |f| plus the largest
    # square term, or by a subnormal, scaled by 1 / (2 eta), on underflow
    with np.errstate(over="ignore"):
        square = (u[-1] - u[0]) ** 2 / (2.0 * eta)
    if not np.isfinite(square):
        raise NumericOverflow(f"envelope: eta={eta!r} overflows the prox objective")
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    tau = (16 * eps * np.max(np.abs(f_vals)) + 16 * eps * square
           + 4 * (tiny + tiny / (2.0 * eta)))
    # a level's runs of rows [lo, hi), each with its argmins in the columns
    # [left, right]; a run's middle row is searched over that segment
    lo, hi = np.array([0]), np.array([K])
    left, right = np.array([0]), np.array([K - 1])
    while lo.size:
        mid = (lo + hi) // 2
        down, up = np.empty_like(mid), np.empty_like(mid)
        # about ENVELOPE_BLOCK entries at a time: where near-ties keep wide
        # segments open, the search costs up to the dense table's time but
        # not its memory
        ends = np.cumsum(right - left + 1) // ENVELOPE_BLOCK
        for g in np.split(np.arange(mid.size), np.flatnonzero(np.diff(ends)) + 1):
            arg[mid[g]], env[mid[g]], down[g], up[g] = _segment_minima(
                u, f_vals, eta, tau, mid[g], left[g], right[g])
        # the rows above mid may reach mid's last near-minimal column, the
        # rows below it the first
        lo, hi = np.concatenate([lo, mid + 1]), np.concatenate([mid, hi])
        left, right = np.concatenate([left, down]), np.concatenate([up, right])
        keep = lo < hi
        lo, hi, left, right = lo[keep], hi[keep], left[keep], right[keep]
    return EnvelopeTable(eta=eta, nodes=nodes, f_values=f_vals, envelope=env,
                         argmin=arg)


def check_envelope_properties(
    f,
    etas,
    domain: BoxDomain,
    resolution: int = ENVELOPE_RESOLUTION,
    name: str = "envelope",
) -> CheckReport:
    """Under-approximation, monotonicity in eta, and sup-gap decrease.

    etas must be nonempty and strictly decreasing; with a single eta only
    the under-approximation property is testable. A NaN or infinite f value
    raises NumericOverflow (from moreau_envelope) rather than passing.
    """
    etas = [float(e) for e in check_list("etas", etas)]
    if not etas or any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValueError("etas must be nonempty and strictly decreasing")
    tables = [moreau_envelope(f, domain, eta, resolution) for eta in etas]
    worst = -np.inf
    # (i) below the function
    for t in tables:
        worst = max(worst, float(np.max(t.envelope - t.f_values)))
    # (ii) larger eta smooths further down: env_{eta'} <= env_{eta} for eta' >= eta
    for big, small in zip(tables, tables[1:]):
        worst = max(worst, float(np.max(big.envelope - small.envelope)))
    # (iii) sup-gap shrinks as eta decreases
    gaps = [float(np.max(t.f_values - t.envelope)) for t in tables]
    for wider, tighter in zip(gaps, gaps[1:]):
        worst = max(worst, tighter - wider)
    return CheckReport(
        name=name,
        samples=len(etas) * resolution,
        max_violation=worst,
        passed=worst <= ENVELOPE_SLACK,
        notes=f"etas={etas} sup_gaps={gaps!r}",
    )


def _huber_spot_report() -> CheckReport:
    """f(u)=|u| with eta=0.5 at u=1 has the closed-form envelope value
    1 - eta/2 = 0.75; the grid value must land within HUBER_SPOT_TOL."""
    domain = BoxDomain.symmetric(1)
    table = moreau_envelope(
        lambda U: np.abs(U[:, 0]), domain, eta=0.5, resolution=ENVELOPE_RESOLUTION
    )
    at_one = float(table.envelope[-1])  # last node is u = 1.0
    err = abs(at_one - 0.75)
    return CheckReport(
        name="envelope:huber-spot",
        samples=ENVELOPE_RESOLUTION,
        max_violation=err,
        passed=err <= HUBER_SPOT_TOL,
        notes=f"value_at_1={at_one!r} expected=0.75",
    )


# --- suites -------------------------------------------------------------------

SUITES = ("sandwich", "convexity", "gradients", "envelope", "all")


def run_check_suite(suite: str, seed: int = 0) -> list[CheckReport]:
    """The named suite's reports, deterministic in `seed` (no timestamps)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    check_count("seed", seed, minimum=0)
    reports = []
    if suite in ("sandwich", "all"):
        reports.append(check_sandwich(seed=seed))
    if suite in ("convexity", "all"):
        for offset, kind in enumerate(("ma", "lse", "pma", "plse")):
            net = init_network(kind, 2, 2, seed=seed + 1000 + offset, I=8,
                               T=0.1, hidden=(8, 8))
            reports.append(check_convexity(net, seed=seed + offset))
    if suite in ("gradients", "all"):
        for kind in ("fnn", "lse", "plse"):
            reports.append(check_gradients(kinds=(kind,), seed=seed))
    if suite in ("envelope", "all"):
        for name, f in (("quadratic", lambda U: U[:, 0] ** 2),
                        ("absolute", lambda U: np.abs(U[:, 0]))):
            reports.append(check_envelope_properties(
                f, (1.0, 0.1, 0.01), BoxDomain.symmetric(1), name=f"envelope:{name}"))
        reports.append(_huber_spot_report())
    return reports
