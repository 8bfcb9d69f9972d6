"""Box-constrained minimization over the decision u at a fixed condition x.

`minimize_batch` solves B conditions in lockstep, one route per kind:
  - ma/pma: the epigraph LP min t s.t. A u + c <= t over the box, by a
    primal-dual interior-point method (Mehrotra predictor-corrector).
    Certificate: value - D(lam), where lam are the plane multipliers
    normalized to the simplex, g = A.T lam and D(lam) = lam.c +
    sum_j min(g_j lo_j, g_j hi_j), a lower bound on the minimum for any
    such lam by weak duality.
  - lse/plse: projected gradient with Armijo backtracking. Each sweep
    scores the first _LADDER steps of a row's backtracking at once and keeps
    the rung a serial line search would stop at, so the iterates are that
    search's in about half the sweeps. Certificate: the first-order gap
    max_v <g, u - v> over the box, which bounds f(u) - min f for convex f.
  - fnn: multi-start projected gradient (nonconvex, no certificate). Each
    sweep is one MLP value-and-gradient pass into buffers allocated once
    per solve (`networks.MlpWorkspace`). A LeakyReLU MLP is piecewise
    linear in u, so the residual seldom vanishes at a kink; a restart also
    stops once an accepted move lowers its value by at most
    grad_tolerance * max(1, |f|), the relative-reduction test of L-BFGS-B.
Every row keeps its own iterate and stopping rule and leaves the working
set when it stops, so the per-call NumPy overhead is paid once per sweep,
not once per condition and iteration. `minimize` is a batch of one. A
bank result's value is `networks.bank_scores` of the (A, c) its core
minimized, so it is `forward_batch` at u* on the same X bit for bit. Its
status says why it stopped: "converged", "max_iters" or "step_underflow".
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NonFiniteInput, NumericOverflow
from .networks import (
    FeedforwardNet,
    MlpWorkspace,
    Network,
    bank_scores,
    bank_values,
    lse_and_softmax,
    u_bank_batch,
)
from .numerics import BoxDomain, Rng, check_count, sample_uniform_box

# the backtracking line search of every projected-gradient core: a row's
# first step, the cut on each rejection and Armijo's sufficient-decrease
# constant c1 (Nocedal & Wright, ch. 3); a step below _MIN_STEP underflows
_INITIAL_STEP = 1.0
_BACKTRACK = 0.5
_ARMIJO = 1e-4
_MIN_STEP = 1e-18
# line-search candidates scored per lse/plse sweep: three rungs end 98% of
# accepted steps on the serve-61x20 plse models; four timed no faster
_LADDER = 3
# rung k's share of a row's step, _BACKTRACK**k: a power of two, so the
# product with the step is exact and equals k serial cuts
_RUNGS = _BACKTRACK ** np.arange(_LADDER)
# share of the way to the boundary an interior-point step takes
_TO_BOUNDARY = 0.99
_EPS = np.finfo(np.float64).eps

# Why a solve stopped; the batch cores carry the index into this tuple per
# row, and _FAILED for a row whose objective went non-finite.
STATUSES = ("converged", "max_iters", "step_underflow")
_CONVERGED, _MAX_ITERS, _STEP_UNDERFLOW = range(3)
_FAILED = -1


@dataclass
class SolveOptions:
    max_iters: int = 500
    # relative, scaled by max(1, |value|); it bounds the value minus the dual
    # bound on ma/pma, the projected-gradient residual on lse/plse, and on
    # fnn both that residual and the value drop of an accepted move
    grad_tolerance: float = 1e-6
    restarts: int = 16
    seed: int = 0
    keep_trace: bool = False

    def __post_init__(self):
        check_count("max_iters", self.max_iters)
        check_count("restarts", self.restarts)
        check_count("seed", self.seed, minimum=0)
        if not 0.0 < self.grad_tolerance < np.inf:
            raise ValueError("grad_tolerance must be finite and positive")


@dataclass
class SolveResult:
    u_star: np.ndarray
    value: float
    certificate: float
    iterations: int
    wall_time_s: float
    status: str  # one of STATUSES
    trace: list | None = None

    def to_json(self) -> dict:
        certified = np.isfinite(self.certificate)
        return {
            "u_star": [float(v) for v in self.u_star],
            "value": self.value,
            "certificate": self.certificate if certified else None,
            "certified": bool(certified),
            "iterations": self.iterations,
            "status": self.status,
            "wall_time_s": self.wall_time_s,
        }


def first_order_gap(g: np.ndarray, u: np.ndarray, domain: BoxDomain):
    """max over feasible v of <g, u - v>: per-coordinate corner maximization.
    Nonnegative, and an upper bound on f(u) - min f for convex f. Row-wise
    for (B, m) inputs, one gap per row."""
    terms = np.maximum(g * (u - domain.lower), g * (u - domain.upper))
    return np.sum(np.maximum(terms, 0.0), axis=-1)


def _bank_scores(A, U, c):
    """Plane values (B, I) of banks A (B, I, m), c (B, I) at points U (B, m)."""
    return (A @ U[:, :, None])[:, :, 0] + c


def _bank_grad(P, A):
    """Row-wise P[b] @ A[b]: the gradient (B, m) for softmax weights P (B, I)."""
    return (P[:, None, :] @ A)[:, 0, :]


def _start(live, domain):
    """The outputs every bank core fills, (U, iterations, status), with every
    row at the box centre and failed until solved, and the live row indices."""
    B = len(live)
    U = np.tile(0.5 * (domain.lower + domain.upper), (B, 1))
    return U, np.zeros(B, dtype=np.int64), np.full(B, _FAILED), np.flatnonzero(live)


def _pg_batch(A, c, live, T, domain, opts, traces):
    """Projected gradient on the T-log-sum-exp of the banks A (B, I, m),
    c (B, I) in the `live` rows, from the box centre.

    A row's line search starts from its own step s, doubled on acceptance
    and halved on each rejection; an accepted candidate's softmax gives the
    gradient there. Each sweep scores a ladder of _LADDER candidates per
    active row at once, the steps s, s/2, s/4, ... a serial backtracking
    loop would try in turn, and takes the first rung where that loop stops
    trying: an Armijo acceptance, a non-finite value (the row fails), or a
    rejection whose next step underflows; else the last rung's rejection.
    Convergence and the cap cannot change between
    rejections, so the iterates, their count and every status are those of
    one candidate per sweep, in fewer sweeps. A row stops when its
    projected-gradient residual at a unit step is at most grad_tolerance *
    max(1, |f|), at max_iters, or when its step underflows. Returns
    (U, G, iterations, status): the last iterates, their gradients, the
    accepted steps and STATUSES indices, _FAILED for a row not live or whose
    objective went non-finite.
    """
    lo, hi = domain.lower, domain.upper
    U, iters, status, rows = _start(live, domain)
    G = np.zeros_like(U)
    A, c, u, it = A[rows], c[rows], U[rows], iters[rows]
    f, p = lse_and_softmax(_bank_scores(A, u, c), T)
    g = _bank_grad(p, A)
    if traces is not None:
        for r, v in zip(rows, f):
            traces[r].append(float(v))
    s = np.full(len(rows), _INITIAL_STEP)
    bad = ~np.isfinite(f)
    while rows.size:
        r = u - np.minimum(np.maximum(u - g, lo), hi)  # unit reference step
        residual = np.sqrt(np.add.reduce(r * r, axis=1))
        capped = it >= opts.max_iters
        converged = residual <= opts.grad_tolerance * np.maximum(1.0, np.abs(f))
        stop = bad | capped | converged | (s < _MIN_STEP)
        if stop.any():
            done = rows[stop]
            U[done], G[done], iters[done] = u[stop], g[stop], it[stop]
            status[done] = np.select(
                [bad[stop], capped[stop], converged[stop]],
                [_FAILED, _MAX_ITERS, _CONVERGED],
                _STEP_UNDERFLOW,
            )
            keep = ~stop
            rows, A, c, u, f, g, s, it = (
                v[keep] for v in (rows, A, c, u, f, g, s, it)
            )
            if not rows.size:
                break
        k = rows.size
        steps = s[:, None] * _RUNGS
        cand = u[:, None] - steps[:, :, None] * g[:, None]
        cand = np.minimum(np.maximum(cand, lo), hi)
        # (I, m) @ (m, 1) per rung, the product one candidate per row takes
        S = (A[:, None] @ cand[:, :, :, None])[..., 0] + c[:, None]
        f_cand, p = lse_and_softmax(S.reshape(k * _LADDER, -1), T)
        f_cand = f_cand.reshape(k, _LADDER)
        accept = f_cand <= f[:, None] + _ARMIJO * np.add.reduce(
            g[:, None] * (cand - u[:, None]), axis=2)
        bad = ~np.isfinite(f_cand)
        ends = accept | bad | (_BACKTRACK * steps < _MIN_STEP)
        ends[:, -1] = True
        pick = (np.arange(k), ends.argmax(axis=1))
        accept, bad, step = accept[pick], bad[pick], steps[pick]
        np.copyto(u, cand[pick], where=accept[:, None])
        np.copyto(f, f_cand[pick], where=accept)
        P = p.reshape(k, _LADDER, -1)[pick]
        np.copyto(g, _bank_grad(P, A), where=accept[:, None])
        it += accept
        s = np.where(accept, 2.0 * step, _BACKTRACK * step)
        if traces is not None:
            for r, v in zip(rows[accept], f[accept]):
                traces[r].append(float(v))
    return U, G, iters, status


def _max_step(v, dv):
    """Row-wise largest a with v + a * dv >= 0, inf where dv >= 0."""
    ratio = np.divide(v, -dv, out=np.full_like(v, np.inf), where=dv < 0)
    return ratio.min(axis=1)


def _snapped(A, c, u, f, s, z, domain):
    """The iterates u (B, m) in the box, with each coordinate whose box row
    looks active (slack below multiplier) moved onto that bound where this
    does not raise the value f: interior points only approach a corner."""
    m = u.shape[1]
    u = np.clip(u, domain.lower, domain.upper)
    v = np.where(s[:, -m:] < z[:, -m:], domain.lower,
                 np.where(s[:, -2 * m : -m] < z[:, -2 * m : -m], domain.upper, u))
    return np.where((_bank_scores(A, v, c).max(1) <= f)[:, None], v, u)


def _lp_batch(A, c, live, domain, opts, traces):
    """Mehrotra predictor-corrector on the epigraph LPs, min t over (u, t)
    s.t. A u + c <= t and the box, of the banks A (B, I, m), c (B, I) in the
    `live` rows.

    The constraints' slacks s and multipliers z hold the plane rows, then
    u <= hi, then u >= lo. The start is strictly feasible: u at the box
    centre, t above every plane, z uniform on the planes and balancing
    their mean slope on the box rows. Each iteration solves one (m+1)x(m+1)
    system in (du, dt) for the affine and then the centred direction. A row
    stops once value - D(lam) is at most grad_tolerance * max(1, |value|),
    at max_iters, or, as "step_underflow", once its complementarity gap s.z
    is down to rounding. The certificate takes the best D(lam) seen.
    Returns (U, D, iterations, status): the last iterates, their dual
    bounds and STATUSES indices, _FAILED for a row not live.
    """
    lo, hi = domain.lower, domain.upper
    U, iters, status, rows = _start(live, domain)
    D = np.zeros(len(U))
    A, c, u, it = A[rows], c[rows], U[rows], iters[rows]
    (B, I, m), half = A.shape, 0.5 * (hi - lo)
    S = _bank_scores(A, u, c)
    top = S.max(1)
    spread = np.maximum(1.0, top - S.min(1))
    g = _bank_grad(np.full((B, I), 1.0 / I), A)
    balance = (spread / I)[:, None] / half
    s = np.hstack([(top + spread)[:, None] - S, np.tile(half, (B, 2))])
    z = np.hstack([np.full((B, I), 1.0 / I), np.maximum(-g, 0.0) + balance,
                   np.maximum(g, 0.0) + balance])
    bound, diag = np.full(B, -np.inf), np.arange(m)
    while rows.size:
        f = _bank_scores(A, u, c).max(1)
        lam = z[:, :I] / z[:, :I].sum(1, keepdims=True)
        g = _bank_grad(lam, A)
        # any lam gives a bound, so keep the best one seen
        bound = np.maximum(bound, (lam * c).sum(1) + np.minimum(g * lo, g * hi).sum(1))
        if traces is not None:
            for r, v in zip(rows, f):
                traces[r].append(float(v))
        sz = s * z
        scale = np.maximum(1.0, np.abs(f))
        capped = it >= opts.max_iters
        converged = f - bound <= opts.grad_tolerance * scale
        stalled = sz.sum(1) <= _EPS * scale  # the gap left is rounding
        stop = capped | converged | stalled
        if stop.any():
            done = rows[stop]
            U[done] = _snapped(A[stop], c[stop], u[stop], f[stop], s[stop], z[stop],
                               domain)
            D[done], iters[done] = bound[stop], it[stop]
            status[done] = np.select([capped[stop], converged[stop]],
                                     [_MAX_ITERS, _CONVERGED], _STEP_UNDERFLOW)
            keep = ~stop
            rows, A, c, u, s, z, sz, bound, it = (
                v[keep] for v in (rows, A, c, u, s, z, sz, bound, it)
            )
            if not rows.size:
                break
        w = z / s
        # K [du; dt] = rhs is the Newton system with ds and dz eliminated:
        # ds = (dt - A du, -du, du) and dz = -rc / s - w ds
        w_p = w[:, :I]
        Aw = A * w_p[:, :, None]
        K = np.empty((len(rows), m + 1, m + 1))
        K[:, :m, :m] = np.swapaxes(Aw, 1, 2) @ A
        K[:, diag, diag] += w[:, I : I + m] + w[:, I + m :]
        K[:, :m, m] = K[:, m, :m] = -Aw.sum(1)
        K[:, m, m] = w_p.sum(1)

        def direction(rc):
            q = rc / s
            rhs = np.empty((len(rows), m + 1))
            rhs[:, :m] = _bank_grad(q[:, :I], A) + q[:, I : I + m] - q[:, I + m :]
            rhs[:, m] = -q[:, :I].sum(1)
            d = np.linalg.solve(K, rhs[:, :, None])[:, :, 0]
            du, dt = d[:, :m], d[:, m:]
            ds = np.hstack([dt - _bank_scores(A, du, 0.0), -du, du])
            return du, ds, -q - w * ds

        mu = sz.sum(1) / sz.shape[1]
        du, ds, dz = direction(sz)
        a_p = np.minimum(1.0, _max_step(s, ds))[:, None]
        a_d = np.minimum(1.0, _max_step(z, dz))[:, None]
        mu_aff = ((s + a_p * ds) * (z + a_d * dz)).sum(1) / sz.shape[1]
        sigma = (mu_aff / mu) ** 3
        du, ds, dz = direction(sz + ds * dz - (sigma * mu)[:, None])
        a_p = np.minimum(1.0, _TO_BOUNDARY * _max_step(s, ds))[:, None]
        a_d = np.minimum(1.0, _TO_BOUNDARY * _max_step(z, dz))[:, None]
        u, s, z = u + a_p * du, s + a_p * ds, z + a_d * dz
        it += 1
    return U, D, iters, status


def _multistart_batch(net, X, domain, opts, traces):
    """Multi-start projected gradient for B conditions at once, R = restarts
    rows per condition, all from the same seeded starts.

    The restarts advance in lockstep: each sweep takes one Armijo-tested step
    per row, halving that row's step on rejection. Iterates only move on
    accepted decrease, so every restart descends monotonically; a moved row
    keeps the gradient from its candidate's trace, one MLP trace per sweep.
    A restart stops when its projected-gradient residual is at most
    grad_tolerance * max(1, |f|), when its step underflows, or when an
    accepted move lowers its value by at most grad_tolerance * max(1, |f|)
    at the new point. A condition leaves the working set once all its
    restarts have stopped ("converged"), when the sweep cap is hit
    ("max_iters"), or when its objective went non-finite, so a lone
    condition does the same array work as in a batch of its own.

    A sweep allocates nothing of the rows' size. One MlpWorkspace for the
    B*R rows holds the MLP input [X_rep, U], its condition columns written
    once and each sweep's candidates copied into its u-columns; the
    candidate, residual and Armijo arithmetic write into two scratch arrays,
    and moves are masked copies. The active rows are the first k of every
    buffer: a leaving condition's rows are compacted out by moving the kept
    rows to the front, so each pass sees the arrays a batch of k rows would.
    Returns (U, values, sweeps, status) per condition, U being its best
    restart's point.
    """
    B, R, n, m = len(X), opts.restarts, net.n, domain.dim
    lo, hi = domain.lower, domain.upper
    conds = np.arange(B)
    ws = MlpWorkspace(net.mlp, B * R)
    ws.Z[:, :n] = np.repeat(X, R, axis=0)
    Us = np.tile(sample_uniform_box(domain, R, Rng(opts.seed)), (B, 1))
    ws.Z[:, n:] = Us
    f0, g0 = ws.value_and_grad(B * R)
    fs, G = f0.copy(), g0[:, n:].copy()
    bad = ~np.isfinite(fs)
    failed = bad.reshape(B, R).any(axis=1) if bad.any() else None
    steps = np.full(B * R, _INITIAL_STEP)
    done = np.zeros(B * R, dtype=bool)
    scratch, C = np.empty_like(Us), np.empty_like(Us)
    best_u = np.zeros((B, m))
    sweeps = np.zeros(B, dtype=np.int64)
    status = np.full(B, _FAILED)
    if traces is not None:
        for b, v in zip(conds, fs.reshape(B, R).min(axis=1)):
            traces[b].append(float(v))
    k = B * R
    u, f, g, s, d, t, cand = (v[:k] for v in (Us, fs, G, steps, done, scratch, C))
    for sweep in range(1, opts.max_iters + 1):
        # unit reference step u - clip(u - g)
        np.subtract(u, g, out=t)
        np.maximum(t, lo, out=t)
        np.minimum(t, hi, out=t)
        np.subtract(u, t, out=t)
        t *= t
        residual = np.sqrt(np.add.reduce(t, axis=1))
        d |= residual <= opts.grad_tolerance * np.maximum(1.0, np.abs(f))
        np.multiply(s[:, None], g, out=cand)
        np.subtract(u, cand, out=cand)
        np.maximum(cand, lo, out=cand)
        np.minimum(cand, hi, out=cand)
        # formed in a contiguous buffer and copied once: the same four steps
        # on the strided u-columns of Z measured more than twice as slow
        ws.Z[:k, n:] = cand
        f_cand, g_cand = ws.value_and_grad(k)
        bad = ~np.isfinite(f_cand)
        if bad.any():
            bad = bad.reshape(-1, R).any(axis=1)
            failed = bad if failed is None else failed | bad
        np.subtract(cand, u, out=t)
        t *= g
        decrease = f_cand <= f + _ARMIJO * np.add.reduce(t, axis=1)
        move = decrease & ~d
        tol = opts.grad_tolerance * np.maximum(1.0, np.abs(f_cand))
        flat = move & (f - f_cand <= tol)
        np.copyto(u, cand, where=move[:, None])
        np.copyto(f, f_cand, where=move)
        np.copyto(g, g_cand[:, n:], where=move[:, None])
        s[move] *= 2.0
        s[~decrease & ~d] *= _BACKTRACK
        d |= flat | (s < _MIN_STEP)
        if traces is not None:
            for b, v in zip(conds, f.reshape(-1, R).min(axis=1)):
                traces[b].append(float(v))
        if failed is None and sweep < opts.max_iters and np.count_nonzero(d) < R:
            continue  # no condition can have all its restarts done yet
        finished = d.reshape(-1, R).all(axis=1)
        leaving = finished if sweep < opts.max_iters else np.ones_like(finished)
        if failed is not None:
            leaving = leaving | failed
        if not leaving.any():
            continue
        out = conds[leaving]
        best = np.argmin(f.reshape(-1, R)[leaving], axis=1)
        best_u[out] = u.reshape(-1, R, m)[leaving, best]
        sweeps[out] = sweep
        status[out] = np.where(finished[leaving], _CONVERGED, _MAX_ITERS)
        if failed is not None:
            status[out[failed[leaving]]] = _FAILED
            failed = failed[~leaving]
        keep = ~leaving
        if not keep.any():
            break
        keep_rows = np.repeat(keep, R)
        conds = conds[keep]
        for v in (ws.Z, Us, fs, G, steps, done):
            v[: conds.size * R] = v[:k][keep_rows]
        k = conds.size * R
        u, f, g, s, d, t, cand = (v[:k] for v in (Us, fs, G, steps, done, scratch, C))
    ws.Z[:B, :n], ws.Z[:B, n:] = X, best_u
    values = ws.value_and_grad(B)[0]
    status[~np.isfinite(values)] = _FAILED
    return best_u, values, sweeps, status


def minimize_batch(
    net: Network, X: np.ndarray, domain: BoxDomain, opts: SolveOptions | None = None
) -> list:
    """Solve every condition row of X (B, n) in one lockstep batch.

    A row's result does not depend on its batch-mates, except that an fnn
    row may differ from a batch of one in the last bits: a matmul row's bits
    depend on the row count (B*R against R). A row whose bank or
    objective goes non-finite comes back as None. Every result's trace
    holds the model value at each iterate (for fnn, the best restart's),
    and its wall_time_s is the batch's wall time divided by B.
    """
    if domain.dim != net.m:
        raise DimensionMismatch("domain dimension must equal the net's m")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.n:
        raise DimensionMismatch(f"conditions must be (B, {net.n}), got {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteInput("conditions must be finite")
    if X.size == 0:
        return []
    opts = opts or SolveOptions()
    t0 = time.perf_counter()
    B = X.shape[0]
    traces = [[] for _ in range(B)] if opts.keep_trace else None
    # overflow shows as a non-finite row, reported as None below
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(net, FeedforwardNet):
            U, values, iters, status = _multistart_batch(net, X, domain, opts, traces)
            certificates = np.full(B, np.inf)
        else:
            A, c = u_bank_batch(net, X)
            # a certificate built on overflowed offsets or slopes bounds nothing
            live = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(c).all(axis=1)
            if net.T is None:
                U, D, iters, status = _lp_batch(A, c, live, domain, opts, traces)
            else:
                U, G, iters, status = _pg_batch(A, c, live, net.T, domain, opts, traces)
            values = bank_values(bank_scores(A, U, c), net.T)
            if net.T is None:
                certificates = np.maximum(values - D, 0.0)
            else:
                certificates = first_order_gap(G, U, domain)
    wall = (time.perf_counter() - t0) / B
    return [
        None
        if status[b] == _FAILED or not np.isfinite(values[b])
        else SolveResult(
            u_star=U[b],
            value=float(values[b]),
            certificate=float(certificates[b]),
            iterations=int(iters[b]),
            wall_time_s=wall,
            status=STATUSES[status[b]],
            trace=None if traces is None else traces[b],
        )
        for b in range(B)
    ]


def minimize(
    net: Network, x: np.ndarray, domain: BoxDomain, opts: SolveOptions | None = None
) -> SolveResult:
    """`minimize_batch` on the one condition x. Raises NumericOverflow where
    the batch returns None: the bank or the objective is non-finite."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.n,):
        raise DimensionMismatch(f"condition must have length {net.n}, got shape {x.shape}")
    (res,) = minimize_batch(net, x[None, :], domain, opts)
    if res is None:
        raise NumericOverflow(f"{net.kind} objective is non-finite at this condition")
    return res
