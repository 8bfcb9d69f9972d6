"""Acceptance gate.

One test per frozen requirement, each printing a single pass/fail line
with the measured numbers. Run `pytest tests/test_acceptance.py -v -s`
to see the lines; plain `pytest` still enforces every bound.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from paraconvex.bench import ExperimentConfig, make_benchmark_dataset, run_benchmark
from paraconvex.networks import (
    Bank,
    MlpParams,
    batch_scores,
    forward_batch,
    nonsmooth_twin,
    u_bank_batch,
)
from paraconvex.numerics import BoxDomain, Rng, grid_minimize
from paraconvex.solver import SolveOptions, minimize, minimize_batch
from paraconvex.training import (
    init_network,
    mse_loss,
    split_dataset,
    weight_gradients,
)
from paraconvex.verification import (
    check_envelope_properties,
    check_gradients,
    check_sandwich,
    moreau_envelope,
)


def report_line(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number} ({label}): {detail}")


# --- shared desk-scale training run (criteria 5 and 6) ----------------------


@pytest.fixture(scope="module")
def desk_benchmark():
    cfg = ExperimentConfig(
        dims=((1, 1),), kinds=("plse", "pma", "lse", "ma"), seeds=(0, 1, 2)
    )
    t0 = time.perf_counter()
    report = run_benchmark(cfg)
    return report, time.perf_counter() - t0


def test_criterion_1_sandwich_bound():
    t0 = time.perf_counter()
    rep = check_sandwich(trials=1000, dims=(8, 4), I=30, T=0.1, seed=42)
    dt = time.perf_counter() - t0
    ok = rep.passed and rep.max_violation <= 1e-9 and dt < 10
    report_line(1, "two-sided smoothing gap over 1000 twin pairs", ok,
                f"max violation {rep.max_violation:.3e} over {rep.samples} "
                f"samples in {dt:.2f}s")
    assert rep.passed
    assert rep.max_violation <= 1e-9
    assert dt < 10


def test_criterion_2_equal_plane_identity():
    worst = 0.0
    rng = Rng(7)
    for I in (2, 30):
        row = rng.uniform_in(-1, 1, 4)
        A = np.tile(row, (I, 1))
        b = np.full(I, float(rng.uniform_in(-1, 1, 1)[0]))
        lse = Bank(n=2, m=2, mlp=MlpParams([A], [b]), T=0.1)
        ma = nonsmooth_twin(lse)
        X = rng.uniform_in(-1, 1, 100).reshape(50, 2)
        U = rng.uniform_in(-1, 1, 100).reshape(50, 2)
        gap = forward_batch(lse, X, U) - forward_batch(ma, X, U)
        worst = max(worst, float(np.max(np.abs(gap - 0.1 * np.log(I)))))
    ok = worst <= 1e-12
    report_line(2, "identical planes give gap exactly T log I", ok,
                f"max deviation {worst:.3e} for I in (2, 30)")
    assert worst <= 1e-12


def _fd_weight_error(kind: str, trial: int, h: float = 1e-6) -> float:
    net = init_network(kind, 2, 2, seed=3000 + trial, I=4, hidden=(6, 5))
    rng = np.random.default_rng(8000 + trial)
    for _ in range(50):
        X = rng.uniform(-1, 1, (7, 2))
        U = rng.uniform(-1, 1, (7, 2))
        y = rng.uniform(-1, 1, 7)
        if kind not in ("ma", "pma"):
            break
        # keep the active plane stable across the FD probe window
        scores = np.sort(batch_scores(net, X, U), axis=1)
        if np.min(scores[:, -1] - scores[:, -2]) > 1e-3:
            break
    grads = weight_gradients(net, X, U, y).arrays()
    worst = 0.0
    for p, g in zip(net.mlp.arrays(), grads):
        fd = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = p[ix]
            p[ix] = old + h
            lp = mse_loss(net, X, U, y)
            p[ix] = old - h
            lm = mse_loss(net, X, U, y)
            p[ix] = old
            fd[ix] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, float(rel))
    return worst


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    urep = check_gradients(kinds=("fnn", "lse", "plse"), trials=20, seed=42)
    worst_w = 0.0
    for kind in ("fnn", "ma", "lse", "pma", "plse"):
        for trial in range(20):
            worst_w = max(worst_w, _fd_weight_error(kind, trial))
    dt = time.perf_counter() - t0
    ok = urep.max_violation < 1e-4 and worst_w < 1e-4 and dt < 30
    report_line(3, "decision and weight gradients vs central differences", ok,
                f"decision-grad rel err {urep.max_violation:.3e}, "
                f"weight-grad rel err {worst_w:.3e}, {dt:.1f}s")
    assert urep.max_violation < 1e-4
    assert worst_w < 1e-4
    assert dt < 30


def _grid_oracle(net, x, domain, pts):
    def fn(U):
        X = np.tile(x, (U.shape[0], 1))
        return forward_batch(net, X, U)

    _, value = grid_minimize(fn, domain, pts, vectorized=True)
    return value


def test_criterion_4_solver_vs_grid_oracle():
    t0 = time.perf_counter()
    worst_smooth = 0.0
    worst_pma = 0.0
    for trial in range(50):
        m = 1 if trial % 2 == 0 else 2
        n = 1 + trial % 3
        net = init_network("plse", n, m, seed=5000 + trial, I=8, hidden=(8, 8))
        x = Rng(6000 + trial).uniform_in(-1, 1, n)
        domain = BoxDomain.symmetric(m)
        pts = 4001 if m == 1 else 401
        # worst lattice distance times the bank's Lipschitz bound
        A_u = u_bank_batch(net, x[None])[0][0]
        lip = float(np.max(np.linalg.norm(A_u, axis=1)))
        grid_err = lip * (2.0 / (pts - 1) / 2) * np.sqrt(m)

        res = minimize(net, x, domain)
        gval = _grid_oracle(net, x, domain, pts)
        worst_smooth = max(worst_smooth,
                           abs(res.value - gval) - (1e-4 + grid_err))

        twin = nonsmooth_twin(net)
        pres = minimize(twin, x, domain)
        pval = _grid_oracle(twin, x, domain, pts)
        over = (pres.value - pval) - pres.certificate
        under = (pval - pres.value) - grid_err
        worst_pma = max(worst_pma, over, under)
    dt = time.perf_counter() - t0
    ok = worst_smooth <= 0 and worst_pma <= 1e-12 and dt < 60
    report_line(4, "solver value vs exhaustive lattice oracle, 50 instances",
                ok,
                f"smooth slack margin {worst_smooth:.3e}, max-affine margin "
                f"{worst_pma:.3e}, {dt:.1f}s")
    assert worst_smooth <= 0
    assert worst_pma <= 1e-12
    assert dt < 60


def test_criterion_5_desk_scale_reproduction(desk_benchmark):
    report, elapsed = desk_benchmark
    plse = report.cell("plse", 1, 1)
    pma = report.cell("pma", 1, 1)
    clean = all(
        c.solver_failures == 0 and c.invalid_values == 0 for c in (plse, pma)
    )
    ok = (
        plse.mean("minimizer_error") <= 0.10
        and plse.mean("value_error") <= 0.05
        and pma.mean("value_error") <= 0.10
        and clean
        and elapsed < 300
    )
    report_line(5, "trained smooth model recovers minimizers and values", ok,
                f"plse minimizer err {plse.mean('minimizer_error'):.4f} "
                f"(<=0.10), plse value err {plse.mean('value_error'):.4f} "
                f"(<=0.05), pma value err {pma.mean('value_error'):.4f} "
                f"(<=0.10), 3 seeds in {elapsed:.0f}s")
    assert plse.mean("minimizer_error") <= 0.10
    assert plse.mean("value_error") <= 0.05
    assert pma.mean("value_error") <= 0.10
    assert clean
    assert elapsed < 300


def test_criterion_6_convex_only_models_underfit(desk_benchmark):
    report, _ = desk_benchmark
    plse = report.cell("plse", 1, 1)
    ratios = []
    for kind in ("lse", "ma"):
        cell = report.cell(kind, 1, 1)
        for run, base in zip(cell.runs, plse.runs):
            ratios.append(run.final_test_mse / base.final_test_mse)
    ok = min(ratios) >= 3.0
    report_line(6, "condition-independent convex fits lag 3x in test MSE", ok,
                f"min MSE ratio {min(ratios):.1f} (>=3.0) across lse/ma, "
                f"3 seeds each")
    assert min(ratios) >= 3.0


def test_criterion_7_envelope_properties():
    t0 = time.perf_counter()
    dom = BoxDomain.symmetric(1)
    etas = (1.0, 0.1, 0.01)
    quad = check_envelope_properties(lambda U: U[:, 0] ** 2, etas, dom,
                                     resolution=4001)
    absv = check_envelope_properties(lambda U: np.abs(U[:, 0]), etas, dom,
                                     resolution=4001)
    spot = moreau_envelope(lambda U: np.abs(U[:, 0]), dom, 0.5, 4001).envelope[-1]
    dt = time.perf_counter() - t0
    ok = quad.passed and absv.passed and abs(spot - 0.75) <= 1e-3 and dt < 5
    report_line(7, "quadratic smoothing under-approximates monotonically", ok,
                f"both property checks passed, spot value {spot:.6f} "
                f"(0.75 +- 1e-3), {dt:.2f}s")
    assert quad.passed and absv.passed
    assert abs(spot - 0.75) <= 1e-3
    assert dt < 5


def _retimed_solve_s(cfg, cell, seed, repeats=3):
    """The best of `repeats` per-solve times of one `minimize_batch` call over
    the cell's held-out conditions with its trained net: the conditions
    `run_benchmark` drew for (dims, seed), checked against the run's u*."""
    (run,) = cell.runs
    d, _ = cfg.budget_for(cell.n, cell.m)
    ds = make_benchmark_dataset(cell.n, cell.m, d, Rng(seed).spawn())
    X = split_dataset(ds, cfg.split_ratio, Rng(seed))[1].X
    domain, opts = BoxDomain.symmetric(cell.m), SolveOptions(seed=seed)
    best = np.inf
    for _ in range(repeats):
        results = minimize_batch(run.net, X, domain, opts)
        assert [float(np.linalg.norm(r.u_star)) for r in results] == run.minimizer_error
        best = min(best, results[0].wall_time_s)
    return best


def test_criterion_8_high_dim_solve_time_trend():
    # each cell's batch is timed three more times and the best time taken:
    # single timings on a shared host read ratios of 2.5-11.5 for one code
    cfg = ExperimentConfig(dims=((1, 1), (61, 20)), kinds=("plse",), seeds=(0,))
    report = run_benchmark(cfg)
    small = report.cell("plse", 1, 1)
    big = report.cell("plse", 61, 20)
    small_s, big_s = (_retimed_solve_s(cfg, cell, 0) for cell in (small, big))
    ratio = big_s / small_s
    feasible = all(
        c.solver_failures == 0 and c.invalid_values == 0 for c in (small, big)
    )
    certified = all(
        v is not None for c in (small, big) for r in c.runs for v in r.certificate
    )
    print("\ntrend table (per-solve time, trained plse):")
    print(f"{'dims':>8} {'d':>6} {'epochs':>7} {'solve_ms':>9} {'ratio':>7}")
    for cell, solve_s in ((small, small_s), (big, big_s)):
        print(f"{cell.n}x{cell.m:<6} {cell.d:>6} {cell.epochs:>7} "
              f"{solve_s * 1e3:>9.3f} {solve_s / small_s:>7.2f}")
    ok = ratio <= 10 and feasible and certified
    report_line(8, "per-solve time grows sublinearly to high dims", ok,
                f"ratio {ratio:.2f} (<=10), feasible={feasible}, "
                f"certified={certified}")
    assert ratio <= 10
    assert feasible
    assert certified


def test_criterion_9_check_suite_is_byte_deterministic():
    cmd = [sys.executable, "-m", "paraconvex.cli", "check", "--suite", "all",
           "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    n_reports = len(json.loads(first.stdout)) if ok else 0
    report_line(9, "check suite output byte-identical across runs", ok,
                f"{len(first.stdout)} bytes, {n_reports} reports, exit 0 twice")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
