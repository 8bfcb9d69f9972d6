"""Box-constrained minimization over the decision u at a fixed condition x.

Three routes:
  - lse/plse: projected gradient with Armijo backtracking on the smooth
    convex objective.
  - ma/pma: smoothing homotopy: solve the weight-identical log-sum-exp twin
    along a decreasing temperature schedule with warm starts. The final
    certificate adds T_final * log I to the smooth gap, which is sound
    because the twin sandwiches the piecewise-linear objective within
    T * log I everywhere.
  - fnn: multi-start projected gradient (nonconvex, no certificate).

Every loop evaluates the model once per candidate, value and gradient
together. Inside the loops the NumPy wrappers (clip, norm, max, sum) give
way to the ufuncs and methods they call: the same numbers, less overhead.

`minimize` solves one condition. `minimize_batch` solves many in lockstep:
every row takes the serial route's step sequence, with its own Armijo step,
and leaves the working set when it stops, so the per-call NumPy overhead is
paid once per sweep instead of once per condition and iteration. Every
result says why it stopped: "converged", "max_iters" or "step_underflow".

Convex certificates use the first-order gap at the returned point: for a
convex f and any feasible v, f(u) - f(v) <= <g, u - v>, so
max_v <g, u - v> over the box (a per-coordinate corner choice) upper-bounds
the suboptimality. No oracle or dual solve is needed, and the bound is valid
in any dimension.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    NonFiniteInput,
    NumericOverflow,
    UnsupportedNetwork,
)
from .networks import (
    FeedforwardNet,
    Network,
    _mlp_input_grad_batch,
    bank_values,
    lse_and_softmax,
    softmax_over_T,
    u_bank,
    u_bank_batch,
)
from .numerics import BoxDomain, Rng, sample_uniform_box

_MIN_STEP = 1e-18

# Why a solve stopped; the batch cores carry the index into this tuple per
# row, and _FAILED for a row whose objective went non-finite.
STATUSES = ("converged", "max_iters", "step_underflow")
_CONVERGED, _MAX_ITERS, _STEP_UNDERFLOW = range(3)
_FAILED = -1


@dataclass
class SolveOptions:
    max_iters: int = 500
    grad_tolerance: float = 1e-6
    initial_step: float = 1.0
    backtrack: float = 0.5
    armijo: float = 1e-4
    homotopy_schedule: tuple = (0.1, 0.01, 1e-3, 1e-4)
    restarts: int = 16
    seed: int = 0
    keep_trace: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.grad_tolerance > 0:
            raise ValueError("grad_tolerance must be positive")
        if not self.initial_step > 0:
            raise ValueError("initial_step must be positive")
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtrack factor must lie in (0, 1)")
        if not (0.0 < self.armijo < 1.0):
            raise ValueError("armijo constant must lie in (0, 1)")
        sched = tuple(float(t) for t in self.homotopy_schedule)
        if not sched or any(t <= 0 for t in sched):
            raise ValueError("homotopy schedule must be nonempty and positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("homotopy schedule must be strictly decreasing")
        self.homotopy_schedule = sched
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


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


def project_box(u: np.ndarray, domain: BoxDomain) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (domain.dim,):
        raise DimensionMismatch(f"point has shape {u.shape}, box has dim {domain.dim}")
    return np.clip(u, domain.lower, domain.upper)


def first_order_gap(g: np.ndarray, u: np.ndarray, domain: BoxDomain):
    """max over feasible v of <g, u - v>: per-coordinate corner maximization.
    Nonnegative, and an upper bound on f(u) - min f for convex f. Row-wise
    for (B, m) inputs, one gap per row."""
    terms = np.maximum(g * (u - domain.lower), g * (u - domain.upper))
    return np.sum(np.maximum(terms, 0.0), axis=-1)


def _checked_conditions(net: Network, X, domain: BoxDomain) -> np.ndarray:
    """The checks every solve entry point makes: box dimension and finite
    conditions. Shapes are checked where the conditions are used."""
    if domain.dim != net.m:
        raise DimensionMismatch("domain dimension must equal the net's m")
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise NonFiniteInput("conditions must be finite")
    return X


def _checked_condition(net: Network, x, domain: BoxDomain) -> np.ndarray:
    """_checked_conditions for one condition, which must have length n."""
    x = _checked_conditions(net, x, domain)
    if x.shape != (net.n,):
        raise DimensionMismatch(f"condition must have length {net.n}, got shape {x.shape}")
    return x


def _pg_on_bank(A_u, c, T, domain, u0, opts):
    """Projected gradient with Armijo backtracking on the log-sum-exp of an
    affine bank. Returns (u, value, iterations, trace, status).

    Each candidate is scored once: one shifted exponential gives both its
    log-sum-exp value and its softmax weights, so an accepted candidate's
    gradient A_u.T @ p needs no second scoring."""
    lo, hi = domain.lower, domain.upper

    def evaluate(u):
        scores = A_u @ u + c
        top = scores.max()
        e = np.exp((scores - top) / T)
        total = e.sum()
        f = float(T * np.log(total) + top)
        if not math.isfinite(f):
            raise NumericOverflow("objective became non-finite during line search")
        return f, e, total

    u = project_box(u0, domain)
    f, e, total = evaluate(u)
    g = A_u.T @ (e / total)
    trace = [f] if opts.keep_trace else None
    s = opts.initial_step
    iters = 0
    status = "max_iters"
    for _ in range(opts.max_iters):
        # stationarity at a fixed unit reference step; the line-search step
        # itself may grow arbitrarily large on flat objectives, which would
        # make a step-relative residual meaningless
        r = u - np.minimum(np.maximum(u - g, lo), hi)
        if math.sqrt(r @ r) <= opts.grad_tolerance * max(1.0, abs(f)):
            status = "converged"
            break
        while s >= _MIN_STEP:
            cand = np.minimum(np.maximum(u - s * g, lo), hi)
            f_cand, e, total = evaluate(cand)
            if f_cand <= f + opts.armijo * float(g @ (cand - u)):
                break
            s *= opts.backtrack
        else:
            status = "step_underflow"  # flat to numeric precision
            break
        iters += 1
        u, f, g = cand, f_cand, A_u.T @ (e / total)
        if trace is not None:
            trace.append(f)
        s *= 2.0  # Armijo will cut an overgrown step right back
    return u, f, iters, trace, status


def _minimize_bank(net, x, domain, opts):
    """Projected gradient on the affine bank of an lse/plse net at its own
    temperature, or of an ma/pma net along the homotopy schedule: the smooth
    twin shares the bank, and T enters only the smoothing. Each stage warm
    starts where the last one stopped; the status is the last stage's. The
    value is the net's at the returned point, taken from the bank already
    built: the last stage's log-sum-exp, or the top plane's value."""
    x = _checked_condition(net, x, domain)
    opts = opts or SolveOptions()
    t0 = time.perf_counter()
    A_u, c = u_bank(net, x)
    # a certificate built on overflowed offsets or slopes bounds nothing
    if not (np.isfinite(A_u).all() and np.isfinite(c).all()):
        raise NumericOverflow("plane bank is non-finite at this condition")
    smooth = net.T is not None
    temperatures = (net.T,) if smooth else opts.homotopy_schedule
    u = 0.5 * (domain.lower + domain.upper)
    total_iters = 0
    trace = [] if opts.keep_trace else None
    for T in temperatures:
        u, f, iters, stage_trace, status = _pg_on_bank(A_u, c, T, domain, u, opts)
        total_iters += iters
        if trace is not None:
            trace.extend(stage_trace)
    g = A_u.T @ softmax_over_T(A_u @ u + c, temperatures[-1])
    cert = first_order_gap(g, u, domain)
    if not smooth:
        cert = cert + temperatures[-1] * np.log(net.I)
        f = float((A_u @ u + c).max())
    if not math.isfinite(f):
        raise NumericOverflow(f"{net.kind} value is non-finite at the solution")
    return SolveResult(
        u_star=u,
        value=f,
        certificate=cert,
        iterations=total_iters,
        wall_time_s=time.perf_counter() - t0,
        status=status,
        trace=trace,
    )


def minimize_smooth_convex(
    net: Network, x: np.ndarray, domain: BoxDomain, opts: SolveOptions | None = None
) -> SolveResult:
    """Minimize an lse/plse net over u in the box at fixed x."""
    if isinstance(net, FeedforwardNet) or net.T is None:
        raise UnsupportedNetwork(f"smooth solver requires lse or plse, got {net.kind}")
    return _minimize_bank(net, x, domain, opts)


def minimize_pma(
    net: Network, x: np.ndarray, domain: BoxDomain, opts: SolveOptions | None = None
) -> SolveResult:
    """Minimize an ma/pma net over u by temperature homotopy on its smooth twin."""
    if isinstance(net, FeedforwardNet) or net.T is not None:
        raise UnsupportedNetwork(f"homotopy solver requires ma or pma, got {net.kind}")
    return _minimize_bank(net, x, domain, opts)


def minimize_fnn(
    net: Network, x: np.ndarray, domain: BoxDomain, opts: SolveOptions | None = None
) -> SolveResult:
    """Best of `restarts` projected-gradient runs from seeded uniform starts:
    `minimize_batch` on one condition. Raises NumericOverflow where the
    objective went non-finite."""
    if not isinstance(net, FeedforwardNet):
        raise UnsupportedNetwork(f"multi-start solver is for fnn, got {net.kind}")
    (res,) = minimize_batch(net, _checked_condition(net, x, domain)[None, :], domain,
                            opts)
    if res is None:
        raise NumericOverflow("fnn objective became non-finite")
    return res


def minimize(
    net: Network, x: np.ndarray, domain: BoxDomain, opts: SolveOptions | None = None
) -> SolveResult:
    """Dispatch to the solver matching the net's kind."""
    if isinstance(net, FeedforwardNet):
        return minimize_fnn(net, x, domain, opts)
    return _minimize_bank(net, x, domain, opts)


# --- lockstep batch solves --------------------------------------------------


def _bank_scores(A, U, c):
    """Plane values (B, I) of banks A (B, I, m), c (B, I) at points U (B, m)."""
    return (A @ U[:, :, None])[:, :, 0] + c


def _bank_grad(P, A):
    """Row-wise P[b] @ A[b]: the gradient (B, m) for softmax weights P (B, I)."""
    return (P[:, None, :] @ A)[:, 0, :]


def _pg_batch(A, c, T, domain, U0, opts, traces):
    """`_pg_on_bank` on B banks at once: A (B, I, m), c (B, I), U0 (B, m).

    Each sweep makes one candidate evaluation per active row with the row's
    own step, which doubles on acceptance and shrinks by `backtrack` on
    rejection, so every row takes the serial step sequence. The stopping
    tests are the serial ones, and a row that stops leaves the working set.
    An accepted candidate's softmax gives the gradient there without scoring
    the planes again. Returns (U, G, iterations, status) per row: the last
    iterate, the gradient there, the accepted steps and a STATUSES index,
    or _FAILED where the objective went non-finite.
    """
    lo, hi = domain.lower, domain.upper
    U = np.clip(U0, lo, hi)
    f, p = lse_and_softmax(_bank_scores(A, U, c), T)
    G = _bank_grad(p, A)
    iters = np.zeros(len(c), dtype=np.int64)
    status = np.full(len(c), _FAILED)
    if traces is not None:
        for trace, v in zip(traces, f):
            trace.append(float(v))
    rows = np.arange(len(c))
    u, g, it = U.copy(), G.copy(), iters.copy()
    s = np.full(len(c), opts.initial_step)
    bad = ~np.isfinite(f)
    while rows.size:
        residual = np.linalg.norm(u - np.clip(u - g, lo, hi), axis=1)
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
        cand = np.clip(u - s[:, None] * g, lo, hi)
        f_cand, p = lse_and_softmax(_bank_scores(A, cand, c), T)
        bad = ~np.isfinite(f_cand)
        accept = f_cand <= f + opts.armijo * np.sum(g * (cand - u), axis=1)
        u[accept], f[accept] = cand[accept], f_cand[accept]
        g[accept] = _bank_grad(p[accept], A[accept])
        it[accept] += 1
        s = np.where(accept, 2.0 * s, opts.backtrack * s)
        if traces is not None:
            for r, v in zip(rows[accept], f_cand[accept]):
                traces[r].append(float(v))
    return U, G, iters, status


def _homotopy_batch(A, c, temperatures, domain, opts, traces):
    """`_pg_batch` once per temperature, each stage warm-started where the
    last one stopped; rows that failed sit out the later stages, and a row
    whose bank is non-finite sits out every stage, failed from the start.
    A row's iterations add up over its stages and its status is its last
    stage's."""
    B = len(c)
    U = np.tile(0.5 * (domain.lower + domain.upper), (B, 1))
    G = np.zeros_like(U)
    iters = np.zeros(B, dtype=np.int64)
    status = np.full(B, _FAILED)
    live = np.flatnonzero(np.isfinite(A).all(axis=(1, 2)) & np.isfinite(c).all(axis=1))
    for T in temperatures:
        sub = None if traces is None else [traces[r] for r in live]
        U[live], G[live], stage_iters, status[live] = _pg_batch(
            A[live], c[live], T, domain, U[live], opts, sub
        )
        iters[live] += stage_iters
        live = live[status[live] != _FAILED]
    return U, G, iters, status


def _fnn_trace(net, X, U):
    """(values, u-gradients, mask of non-finite rows or None) from one MLP
    trace at rows (X, U): a non-finite row is flagged instead of failing the
    whole batch."""
    f, G = _mlp_input_grad_batch(net.mlp, np.hstack([X, U]))
    bad = ~np.isfinite(f)
    return f, G[:, net.n :], bad if bad.any() else None


def _multistart_batch(net, X, domain, opts, traces):
    """Multi-start projected gradient for B conditions at once, R = restarts
    rows per condition, all from the same seeded starts.

    The restarts advance in lockstep: each sweep takes one Armijo-tested step
    per row, halving that row's step on rejection. Iterates only move on
    accepted decrease, so every restart descends monotonically; a moved row
    keeps the gradient from its candidate's trace, one MLP trace per sweep.
    A condition leaves the working set once all its restarts have stopped,
    when the sweep cap is hit, or when its objective went non-finite, so a
    lone condition does the same array work as in a batch of its own.
    Returns (U, values, sweeps, status) per condition, U being its best
    restart's point.
    """
    B, R, m = len(X), opts.restarts, domain.dim
    lo, hi = domain.lower, domain.upper
    conds = np.arange(B)
    X_rep = np.repeat(X, R, axis=0)
    Us = np.tile(sample_uniform_box(domain, R, Rng(opts.seed)), (B, 1))
    fs, G, bad = _fnn_trace(net, X_rep, Us)
    failed = None if bad is None else bad.reshape(B, R).any(axis=1)
    steps = np.full(B * R, opts.initial_step)
    done = np.zeros(B * R, dtype=bool)
    best_u = np.zeros((B, m))
    sweeps = np.zeros(B, dtype=np.int64)
    status = np.full(B, _FAILED)
    if traces is not None:
        for b, v in zip(conds, fs.reshape(B, R).min(axis=1)):
            traces[b].append(float(v))
    for sweep in range(1, opts.max_iters + 1):
        r = Us - np.minimum(np.maximum(Us - G, lo), hi)  # unit reference step
        residual = np.sqrt(np.add.reduce(r * r, axis=1))
        done |= residual <= opts.grad_tolerance * np.maximum(1.0, np.abs(fs))
        cand = np.minimum(np.maximum(Us - steps[:, None] * G, lo), hi)
        f_cand, G_cand, bad = _fnn_trace(net, X_rep, cand)
        if bad is not None:
            bad = bad.reshape(-1, R).any(axis=1)
            failed = bad if failed is None else failed | bad
        decrease = f_cand <= fs + opts.armijo * (G * (cand - Us)).sum(axis=1)
        move = decrease & ~done
        Us[move] = cand[move]
        fs[move] = f_cand[move]
        G[move] = G_cand[move]
        steps[move] *= 2.0
        steps[~decrease & ~done] *= opts.backtrack
        done |= steps < _MIN_STEP
        if traces is not None:
            for b, v in zip(conds, fs.reshape(-1, R).min(axis=1)):
                traces[b].append(float(v))
        if failed is None and sweep < opts.max_iters and np.count_nonzero(done) < R:
            continue  # no condition can have all its restarts done yet
        finished = done.reshape(-1, R).all(axis=1)
        leaving = finished if sweep < opts.max_iters else np.ones_like(finished)
        if failed is not None:
            leaving = leaving | failed
        if not leaving.any():
            continue
        out = conds[leaving]
        best = np.argmin(fs.reshape(-1, R)[leaving], axis=1)
        best_u[out] = Us.reshape(-1, R, m)[leaving, best]
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
        X_rep, Us, fs, G, steps, done = (
            v[keep_rows] for v in (X_rep, Us, fs, G, steps, done)
        )
    values, _, bad = _fnn_trace(net, X, best_u)
    if bad is not None:
        status[bad] = _FAILED
    return best_u, values, sweeps, status


def minimize_batch(
    net: Network, X: np.ndarray, domain: BoxDomain, opts: SolveOptions | None = None
) -> list:
    """Solve every condition row of X (B, n) in one lockstep batch.

    Each row follows the route `minimize` takes for its kind, step for step,
    with its own Armijo step, stopping rule and iteration count; rows that
    stop leave the working set, so the slowest row does not hold back the
    cost of the others. Results match `minimize` up to rounding in the last
    bits. A row whose bank or objective goes non-finite comes back as None
    without affecting the other rows. Every result's wall_time_s is the
    batch's wall time divided by B. For a single condition, `minimize` is
    faster.
    """
    X = _checked_conditions(net, X, domain)
    if X.size == 0:
        return []
    if X.ndim != 2 or X.shape[1] != net.n:
        raise DimensionMismatch(f"conditions must be (B, {net.n}), got {X.shape}")
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
            temperatures = (net.T,) if net.T is not None else opts.homotopy_schedule
            U, G, iters, status = _homotopy_batch(A, c, temperatures, domain, opts, traces)
            certificates = first_order_gap(G, U, domain)
            values = bank_values(_bank_scores(A, U, c), net.T)
            if net.T is None:
                certificates = certificates + temperatures[-1] * np.log(net.I)
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
