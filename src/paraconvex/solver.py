"""Box-constrained minimization over the decision u at a fixed condition x.

`minimize_batch` solves B conditions in lockstep, one route per kind:
  - ma/pma: the epigraph LP min t s.t. A u + c <= t over the box, by a
    primal-dual interior-point method (Mehrotra predictor-corrector).
    Lower bound: D(lam), where lam are the plane multipliers normalized to
    the simplex, g = A.T lam and D(lam) = lam.c + sum_j min(g_j lo_j,
    g_j hi_j), a bound on the minimum for any such lam by weak duality.
  - lse/plse: projected gradient, then projected Newton, in one sweep loop
    with a per-row switch (Bertsekas 1982; More & Toraldo 1991): a row's
    first _FIRST_ORDER_STEPS accepted steps come from Armijo-backtracking
    ladder sweeps (`_ladder`), its later ones from damped Newton sweeps
    (`_newton`), which score every live row. Lower bound: f(u) minus the
    first-order gap max_v <g, u - v> over the box at an iterate u with
    gradient g, since f(v) >= f(u) + <g, v - u> for convex f.
  - fnn: multi-start projected gradient (nonconvex, no certificate). Each
    sweep is one MLP value-and-gradient pass over the live restarts into
    buffers allocated once per solve (`networks.MlpWorkspace`), with each
    condition folded into layer 0 once. A LeakyReLU MLP is piecewise
    linear in u, so the residual seldom vanishes at a kink; a restart also
    stops once an accepted move lowers its value by at most
    grad_tolerance * max(1, |f|), the relative-reduction test of L-BFGS-B.
    Every stop is a restart's; each condition's u*, sweep count and status
    are read from its restarts once, after the sweep loop. A sweep of a few
    rows costs about its count of NumPy calls, so it keeps each restart's
    residual threshold and cuts its views only when a restart stops.
Every bank row is certified one way: value - D, clamped at 0, where D is
the best lower bound its core proved over its iterates, and converges once
f - D <= grad_tolerance * max(1, |f|), the duality-gap stop (Boyd &
Vandenberghe, ch. 11). fnn, with no bound, stops on its residual.
Every row keeps its own iterate and stopping rule and leaves the working
set when it stops, so the per-call NumPy overhead is paid once per sweep,
not once per condition and iteration. `minimize` is a batch of one. A
bank result's value is `networks.bank_scores` of the (A, c) its core
minimized, so it is `forward_batch` at u* on the same X bit for bit. Its
status says why it stopped, by one rule for every kind: "converged" if its
stopping tests ended it (for fnn, every restart's), even on the cap
iteration; else "max_iters" if the cap did (for fnn, if it stopped any
restart); else "step_underflow".
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NumericOverflow
from .networks import (
    FeedforwardNet,
    MlpWorkspace,
    Network,
    bank_grad,
    bank_scores,
    bank_values,
    bank_weights,
    check_rows,
    mlp_offset,
    u_bank_batch,
)
from .numerics import BoxDomain, Rng, check_count, check_positive, sample_uniform_box

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
# accepted projected-gradient steps an lse/plse row takes before its
# sweeps turn to projected Newton. Criterion 8 bounds plse's per-solve time
# at 61x20 over 1x1 by 10, and a Newton sweep costs several gradient sweeps
# at 61x20 but about one at 1x1: a budget of 20 moves more of the work into
# Newton sweeps and read a median ratio of 7.7, 40 read 6.2, and 120 no
# lower (6.1) while giving most of the saving back
_FIRST_ORDER_STEPS = 40
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
    # relative, scaled by max(1, |value|); it bounds every bank row's
    # certificate at convergence, and on fnn both the projected-gradient
    # residual and the value drop of an accepted move
    grad_tolerance: float = 1e-6
    restarts: int = 16
    seed: int = 0
    keep_trace: bool = False

    def __post_init__(self):
        check_count("max_iters", self.max_iters)
        check_count("restarts", self.restarts)
        check_count("seed", self.seed, minimum=0)
        check_positive("grad_tolerance", self.grad_tolerance)


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
    return np.add.reduce(np.maximum(terms, 0.0, out=terms), axis=-1)


def _bank_scores(A, U, c):
    """Plane values (B, I) of banks A (B, I, m), c (B, I) at points U (B, m)."""
    return (A @ U[:, :, None])[:, :, 0] + c


def _start(live, domain):
    """The outputs every bank core fills, (U, iterations, status), with every
    row at the box centre and failed until solved, and the live row indices."""
    B = len(live)
    U = np.tile(0.5 * (domain.lower + domain.upper), (B, 1))
    return U, np.zeros(B, dtype=np.int64), np.full(B, _FAILED), np.flatnonzero(live)


def _rungs(A, c, u, g, way, steps, T, domain):
    """The candidates clip(u - steps * way) (k, L, m) of the rows u (k, m)
    with gradients g along the directions way (k, m), for steps (k, L):
    their values (k, L), softmax weights (k, L, I) and first-order changes
    g.(cand - u) (k, L)."""
    cand = u[:, None] - steps[:, :, None] * way[:, None]
    cand = np.minimum(np.maximum(cand, domain.lower), domain.upper)
    # (I, m) @ (m, 1) per rung, the product one candidate per row takes
    S = (A[:, None] @ cand[:, :, :, None])[..., 0] + c[:, None]
    f, p = bank_weights(S.reshape(-1, S.shape[2]), T)
    drop = np.add.reduce(g[:, None] * (cand - u[:, None]), axis=2)
    return cand, f.reshape(steps.shape), p.reshape(S.shape), drop


def _ladder(A, c, u, f, g, s, T, domain):
    """One projected-gradient sweep of the rows u (k, m) with values f and
    gradients g from their steps s: it scores at once the steps s, s/2,
    s/4, ... (_LADDER of them) a serial backtracking loop would try in turn,
    and picks the first rung where that loop stops trying: an Armijo
    acceptance, a non-finite value, or a rejection whose next step
    underflows; else the last rung's rejection. Returns that rung's
    acceptance, non-finiteness, candidate, value and softmax weights, and
    the row's next step: the rung's step doubled on acceptance, else cut."""
    steps = s[:, None] * _RUNGS
    cand, f_cand, p_cand, drop = _rungs(A, c, u, g, g, steps, T, domain)
    accept = f_cand <= f[:, None] + _ARMIJO * drop
    bad = ~np.isfinite(f_cand)
    ends = accept | bad | (_BACKTRACK * steps < _MIN_STEP)
    ends[:, -1] = True
    pick = (np.arange(len(u)), ends.argmax(axis=1))
    accept, step = accept[pick], steps[pick]
    return (accept, bad[pick], cand[pick], f_cand[pick], p_cand[pick],
            np.where(accept, 2.0 * step, _BACKTRACK * step))


def _newton(A, c, u, f, g, T, domain):
    """One projected Newton sweep of the rows u (k, m) with values f and
    gradients g. A coordinate is fixed while it is at a bound with the
    gradient pointing out of the box. On the free ones the step d solves
    the Hessian A^T (diag p - p p^T) A / T, p the softmax weights at u,
    plus the free gradient's norm on the diagonal: that damping keeps a
    singular Hessian (one plane's is 0) solvable, and it is positive on
    every row still live, since a zero free gradient is a zero first-order
    gap. The rungs u - a d, a in _RUNGS, are scored at once. Returns
    whether a rung descends and passes Armijo's test, and the first such
    rung's candidate, value and softmax weights."""
    k, diag = len(u), np.arange(u.shape[1])
    p = bank_weights(_bank_scores(A, u, c), T)[1]
    free = ~(((u <= domain.lower) & (g > 0)) | ((u >= domain.upper) & (g < 0)))
    # A^T (diag p - p p^T) A / T, formed as A^T diag(p) A / T - g g^T / T
    H = np.swapaxes(A * (p / T)[:, :, None], 1, 2) @ A
    H -= g[:, :, None] * (g / T)[:, None, :]
    H *= free[:, :, None] & free[:, None, :]
    rhs = g * free
    damping = np.sqrt(np.add.reduce(rhs * rhs, axis=1))
    H[:, diag, diag] += np.where(free, damping[:, None], 1.0)
    d = np.linalg.solve(H, rhs[:, :, None])[:, :, 0]
    cand, f_cand, p_cand, drop = _rungs(A, c, u, g, d, np.tile(_RUNGS, (k, 1)), T,
                                        domain)
    # a projected Newton direction need not descend: a rung is taken only
    # if it does and passes Armijo
    ends = (drop < 0.0) & (f_cand <= f[:, None] + _ARMIJO * drop)
    pick = (np.arange(k), ends.argmax(axis=1))
    return ends.any(axis=1), cand[pick], f_cand[pick], p_cand[pick]


def _lse_batch(A, c, live, T, domain, opts, traces):
    """Projected gradient, then projected Newton, on the T-log-sum-exp of the
    banks A (B, I, m), c (B, I) in the `live` rows, from the box centre.

    Each sweep moves a row once: by `_ladder` from its own step s while it
    has fewer than _FIRST_ORDER_STEPS accepted steps, after that by
    `_newton`, or by `_ladder` where no Newton rung is taken. Once any row
    is past that budget, `_newton` scores every live row and only the rows
    past it take a rung. s starts at _INITIAL_STEP and restarts there on
    the acceptance that ends the first-order budget. A row keeps its best
    lower bound f - first_order_gap(g, u) over its iterates, and stops once
    f minus it is at most grad_tolerance * max(1, |f|), at max_iters, or
    when s underflows. The bound and the count move only on acceptance, so
    a ladder sweep's iterates, count and status are the serial line search's.
    Returns (U, D, iterations, status): the last iterates, their best
    bounds, the accepted steps and STATUSES indices, _FAILED for a row not
    live or whose objective went non-finite.
    """
    U, iters, status, rows = _start(live, domain)
    D = np.zeros(len(U))
    A, c, u, it = A[rows], c[rows], U[rows], iters[rows]
    f, p = bank_weights(_bank_scores(A, u, c), T)
    g = bank_grad(p, A)
    if traces is not None:
        for r, v in zip(rows, f):
            traces[r].append(float(v))
    s, bound = np.full(len(rows), _INITIAL_STEP), np.full(len(rows), -np.inf)
    bad = ~np.isfinite(f)
    budget, sweep = _FIRST_ORDER_STEPS, 0  # a row takes at most one step a sweep
    while rows.size:
        bound = np.maximum(bound, f - first_order_gap(g, u, domain))
        capped = it >= opts.max_iters
        converged = f - bound <= opts.grad_tolerance * np.maximum(1.0, np.abs(f))
        stop = bad | capped | converged | (s < _MIN_STEP)
        if np.count_nonzero(stop):
            done = rows[stop]
            U[done], D[done], iters[done] = u[stop], bound[stop], it[stop]
            status[done] = np.where(bad[stop], _FAILED, np.where(
                converged[stop], _CONVERGED,
                np.where(capped[stop], _MAX_ITERS, _STEP_UNDERFLOW)))
            keep = ~stop
            rows, A, c, u, f, g, s, it, bound = (
                v[keep] for v in (rows, A, c, u, f, g, s, it, bound))
            if not rows.size:
                break
        sweep += 1
        past = it >= budget
        if not np.count_nonzero(past):  # a ladder sweep on the whole arrays
            accept, bad, cand, f_cand, p_cand, s = _ladder(A, c, u, f, g, s, T, domain)
        else:  # Newton scores every row; only the rows past the budget take it
            accept, cand, f_cand, p_cand = _newton(A, c, u, f, g, T, domain)
            accept &= past
            bad = np.zeros(rows.size, dtype=bool)
            rest = np.flatnonzero(~accept)  # every row no Newton rung moved
            if rest.size:
                (accept[rest], bad[rest], cand[rest], f_cand[rest], p_cand[rest],
                 s[rest]) = _ladder(A[rest], c[rest], u[rest], f[rest], g[rest],
                                    s[rest], T, domain)
        np.copyto(u, cand, where=accept[:, None])
        np.copyto(f, f_cand, where=accept)
        np.copyto(g, bank_grad(p_cand, A), where=accept[:, None])
        it += accept
        if traces is not None:
            for r, v in zip(rows[accept], f[accept]):
                traces[r].append(float(v))
        if sweep >= budget:  # the acceptance that ends a row's budget restarts s
            s[accept & (it == budget)] = _INITIAL_STEP
    return U, D, iters, status


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
    bounds and STATUSES indices, _FAILED for a row not live or whose start
    is not finite.
    """
    lo, hi = domain.lower, domain.upper
    U, iters, status, rows = _start(live, domain)
    D = np.zeros(len(U))
    A, c, u, it = A[rows], c[rows], U[rows], iters[rows]
    (B, I, m), half = A.shape, 0.5 * (hi - lo)
    S = _bank_scores(A, u, c)
    top = S.max(1)
    spread = np.maximum(1.0, top - S.min(1))
    g = bank_grad(np.full((B, I), 1.0 / I), A)
    balance = (spread / I)[:, None] / half
    s = np.hstack([(top + spread)[:, None] - S, np.tile(half, (B, 2))])
    z = np.hstack([np.full((B, I), 1.0 / I), np.maximum(-g, 0.0) + balance,
                   np.maximum(g, 0.0) + balance])
    # finite banks whose start overflows (top + spread at x = 1e308) would
    # make K singular for the whole batch: those rows stay failed
    ok = np.isfinite(s).all(1) & np.isfinite(z).all(1)
    if np.count_nonzero(ok) < B:
        rows, A, c, u, it, s, z = (v[ok] for v in (rows, A, c, u, it, s, z))
    bound, diag = np.full(len(rows), -np.inf), np.arange(m)
    while rows.size:
        f = _bank_scores(A, u, c).max(1)
        lam = z[:, :I] / z[:, :I].sum(1, keepdims=True)
        g = bank_grad(lam, A)
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
        if np.count_nonzero(stop):
            done = rows[stop]
            U[done] = _snapped(A[stop], c[stop], u[stop], f[stop], s[stop], z[stop],
                               domain)
            D[done], iters[done] = bound[stop], it[stop]
            status[done] = np.where(converged[stop], _CONVERGED,
                                    np.where(capped[stop], _MAX_ITERS, _STEP_UNDERFLOW))
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
            rhs[:, :m] = bank_grad(q[:, :I], A) + q[:, I : I + m] - q[:, I + m :]
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
    per live restart, halving its step on rejection. Iterates only move on
    accepted decrease, so every restart descends monotonically; a moved row
    keeps the gradient from its candidate's trace, one MLP trace per sweep.
    A restart stops when its projected-gradient residual is at most
    grad_tolerance * max(1, |f|), when its step underflows, when an
    accepted move lowers its value by at most grad_tolerance * max(1, |f|)
    at the new point, after the pass in which a restart of its condition
    went non-finite (the condition failed), or at the end of the cap sweep
    (the condition is capped). A stopped restart leaves the MLP pass and
    the sweep arithmetic. Each condition is read once, after the loop: u*
    is its restarts' argmin, its sweeps their last stop, and its status
    _FAILED if it failed, else "max_iters" if capped, else "converged".

    Each condition's layer-0 part x W0[:, :n]^T + b0 is formed once
    (`networks.mlp_offset`) and written into its restarts' workspace rows,
    so a pass multiplies only the u-columns. The live restarts are the
    first k rows, in restart order, of one MlpWorkspace for the B*R rows:
    stopping ones are compacted out by moving the kept rows to the front,
    so each pass sees the arrays a batch of k rows would. Candidates are
    formed in the workspace's input rows and the step arithmetic in scratch
    rows, so a sweep allocates nothing of the rows' size. Returns
    (U, values, sweeps, status) per condition, values as forward_batch
    forms them.
    """
    B, R, m = len(X), opts.restarts, domain.dim
    lo, hi, tol = domain.lower, domain.upper, opts.grad_tolerance
    ws = MlpWorkspace(net.mlp, B * R, fixed=net.n)
    offsets = mlp_offset(net.mlp, X)
    ws.offset.reshape(B, R, -1)[:] = offsets[:, None]  # rows b*R .. b*R + R-1
    # every restart's point, value and last sweep by index b*R + r; a live
    # restart's are written here when it stops
    U_all = np.tile(sample_uniform_box(domain, R, Rng(opts.seed)), (B, 1))
    ws.Z[:] = U_all
    f_all, G = (v.copy() for v in ws.value_and_grad(B * R))
    last = np.zeros(B * R, dtype=np.int64)
    # per condition: a restart's value went non-finite; the cap stopped one
    failed = ~np.isfinite(f_all).reshape(B, R).all(axis=1)
    capped = np.zeros(B, dtype=bool)
    failing = failed.any()  # a failed condition's restarts are still live
    # the live restarts' iterates, values, gradients (G), steps (a column),
    # indices and thresholds tol * max(1, |f|); then scratch rows
    Us, fs, scratch = U_all.copy(), f_all.copy(), np.empty_like(U_all)
    steps, index = np.full((B * R, 1), _INITIAL_STEP), np.arange(B * R)
    limits = tol * np.maximum(1.0, np.abs(fs))
    sums, limits_cand = np.empty((2, B * R))
    moves, stops = np.empty((B * R, 1), dtype=bool), np.empty(B * R, dtype=bool)
    if traces is not None:
        for b, v in enumerate(f_all.reshape(B, R).min(axis=1)):
            traces[b].append(float(v))

    def compact(stop, k, sweep):
        """Record the stopped rows of the first k, move the rest forward."""
        gone = index[:k][stop]
        U_all[gone], f_all[gone], last[gone] = Us[:k][stop], fs[:k][stop], sweep
        first = int(np.argmax(stop))  # the rows before it stay where they are
        keep, k = ~stop[first:], k - gone.size
        for v in (Us, fs, G, steps, index, limits):
            v[first:k] = v[first : k + gone.size][keep]
        # a moved row's offset is its condition's; the indices are in range,
        # and unlike mode="raise", "clip" writes out without a buffer
        np.take(offsets, index[first:k] // R, axis=0, out=ws.offset[first:k],
                mode="clip")
        return k

    def views(k):
        """The sweep's arrays cut to the first k rows; cut again as k changes."""
        return (Us[:k], fs[:k], G[:k], steps[:k], limits[:k], scratch[:k], sums[:k],
                limits_cand[:k], moves[:k], moves[:k, 0], stops[:k], ws.Z[:k])

    k = B * R
    u, f, g, s, limit, t, r, limit_cand, move, move_row, stop, cand = views(k)
    for sweep in range(1, opts.max_iters + 1):
        if traces is not None:
            traced = np.unique(index[:k] // R)  # the conditions still live
        # unit reference step u - clip(u - g)
        np.subtract(u, g, out=t)
        np.maximum(t, lo, out=t)
        np.minimum(t, hi, out=t)
        np.subtract(u, t, out=t)
        t *= t
        np.sqrt(np.add.reduce(t, axis=1, out=r), out=r)
        if np.count_nonzero(np.less_equal(r, limit, out=stop)):
            k = compact(stop, k, sweep)
            u, f, g, s, limit, t, r, limit_cand, move, move_row, stop, cand = views(k)
        if k:
            # the candidate in the workspace's input rows, which the pass reads
            np.multiply(s, g, out=cand)
            np.subtract(u, cand, out=cand)
            np.maximum(cand, lo, out=cand)
            np.minimum(cand, hi, out=cand)
            f_cand, g_cand = ws.value_and_grad(k)
            if np.count_nonzero(np.isfinite(f_cand, out=stop)) < k:
                failed[index[:k][~stop] // R] = failing = True
            # Armijo's test f_cand <= f + c1 g.(cand - u), and the relative
            # reduction f - f_cand <= tol * max(1, |f_cand|) of a moved row
            np.subtract(cand, u, out=t)
            t *= g
            np.add.reduce(t, axis=1, out=r)
            r *= _ARMIJO
            r += f
            np.less_equal(f_cand, r, out=move_row)
            np.abs(f_cand, out=limit_cand)
            np.maximum(limit_cand, 1.0, out=limit_cand)
            limit_cand *= tol
            np.less_equal(np.subtract(f, f_cand, out=r), limit_cand, out=stop)
            stop &= move_row
            np.copyto(u, cand, where=move)
            np.copyto(f, f_cand, where=move_row)
            np.copyto(g, g_cand, where=move)
            np.copyto(limit, limit_cand, where=move_row)
            s *= np.where(move, 2.0, _BACKTRACK)
            np.less(s, _MIN_STEP, out=move)  # the moves are applied: move is free
            stop |= move_row
            if failing:
                stop |= failed[index[:k] // R]
                failing = False
            if np.count_nonzero(stop):
                k = compact(stop, k, sweep)
                u, f, g, s, limit, t, r, limit_cand, move, move_row, stop, cand = (
                    views(k))
        if traces is not None:
            f_all[index[:k]] = fs[:k]
            for b, v in zip(traced, f_all.reshape(B, R)[traced].min(axis=1)):
                traces[b].append(float(v))
        if not k:
            break
    else:  # the cap sweep: whatever is still live stops there
        capped[index[:k] // R] = True
        compact(np.ones(k, dtype=bool), k, sweep)
    U = U_all.reshape(B, R, m)[np.arange(B), np.argmin(f_all.reshape(B, R), axis=1)]
    ws.offset[:B], ws.Z[:B] = offsets, U
    status = np.where(failed, _FAILED, np.where(capped, _MAX_ITERS, _CONVERGED))
    return U, ws.forward(B)[:, 0], last.reshape(B, R).max(axis=1), status


def minimize_batch(
    net: Network, X: np.ndarray, domain: BoxDomain, opts: SolveOptions | None = None
) -> list:
    """Solve every condition row of X (B, n) in one lockstep batch.

    A row's result does not depend on its batch-mates beyond the last bits,
    for every kind: a matmul row's bits depend on the row count (the banks
    or layer-0 offsets of B conditions against one, the live restarts of B
    conditions against those of one). So a row's u*, value and certificate
    can differ from a batch of one's there; its iterations and status do
    not. The tests hold them to 1e-12, except u* on an ill-conditioned bank,
    where those bits grow over hundreds of steps: on the +-sqrt(3) bank of
    the tests u* differs by up to 1.6e-9 on a capped row and is held to
    1e-8. A row whose bank or
    objective goes non-finite comes back as None. Every result's trace
    holds the model value at each iterate (for fnn, the best restart's),
    and its wall_time_s is the batch's wall time divided by B. Conditions
    check_rows rejects raise its errors.
    """
    if domain.dim != net.m:
        raise DimensionMismatch("domain dimension must equal the net's m")
    (X,) = check_rows(net.n, net.m, X)
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
                U, D, iters, status = _lse_batch(A, c, live, net.T, domain, opts,
                                                 traces)
            values = bank_values(bank_scores(A, U, c), net.T)
            certificates = np.maximum(values - D, 0.0)
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
    """`minimize_batch` on the one condition x of shape (n,), as a batch of
    one row, so check_rows raises on any other shape. Raises NumericOverflow
    where the batch returns None: the bank or the objective is non-finite."""
    (res,) = minimize_batch(net, np.asarray(x, dtype=np.float64)[None], domain, opts)
    if res is None:
        raise NumericOverflow(f"{net.kind} objective is non-finite at this condition")
    return res
