"""Desk-scale benchmark harness.

Generates labeled data from a known parameterized-convex target, trains
every requested approximator kind on it, solves the box-constrained
decision problem over the held-out conditions, and exports a metrics
table plus raw per-condition samples for external plotting.

Each cell solves all of its held-out conditions in one
`solver.minimize_batch` call, so the per-solve times in report.csv and
samples.json are that batch's wall time divided by its number of
conditions, amortized over the cell's batch.

Reported means cover only valid solves on the test split; solver
failures and non-finite or out-of-box outputs are tallied separately
instead of poisoning the averages.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DimensionMismatch, TrainingDiverged
from .networks import Network, forward_batch, save_model
from .numerics import BoxDomain, Rng, sample_uniform_box
from .solver import SolveOptions, minimize_batch
from .training import (
    Dataset,
    TrainConfig,
    init_network,
    key_value_lines,
    split_dataset,
    train,
)
from .verification import check_convexity

ALL_KINDS = ("plse", "pma", "lse", "ma", "fnn")
CONVEX_KINDS = ("plse", "pma", "lse", "ma")
DEFAULT_DIMS = ((1, 1), (61, 20), (376, 17))

# cells at or above this total dimension get a cheaper budget unless the
# config asks for the full one
REDUCED_DIM_CUTOFF = 16
REDUCED_D = 2000
REDUCED_EPOCHS = 30


# --- target problem ---------------------------------------------------------


def target_function(x: np.ndarray, u: np.ndarray) -> float:
    """Ground-truth objective: concave in the condition, convex in the
    decision, with a known box minimizer at u = 0."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    return float(-(x @ x) / (2 * x.size) + (u @ u) / (2 * u.size))


def target_batch(X: np.ndarray, U: np.ndarray) -> np.ndarray:
    return -np.sum(X * X, axis=1) / (2 * X.shape[1]) + np.sum(U * U, axis=1) / (
        2 * U.shape[1]
    )


def true_solution(x: np.ndarray, n: int, m: int) -> tuple[np.ndarray, float]:
    """Exact minimizer and value of the target over [-1, 1]^m."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise DimensionMismatch(f"condition has shape {x.shape}, expected ({n},)")
    return np.zeros(m), float(-(x @ x) / (2 * n))


def make_benchmark_dataset(n: int, m: int, d: int, rng: Rng) -> Dataset:
    """d points uniform over the joint box, labeled by the target."""
    Z = sample_uniform_box(BoxDomain.symmetric(n + m), d, rng)
    X, U = Z[:, :n], Z[:, n:]
    return Dataset(n=n, m=m, X=X, U=U, y=target_batch(X, U))


# --- configuration -----------------------------------------------------------


def parse_dims(text: str) -> tuple:
    """"1x1,61x20" -> ((1, 1), (61, 20))."""
    dims = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.lower().split("x")
        if len(pieces) != 2:
            raise ConfigError(f"bad dims entry {part!r}, expected NxM")
        try:
            dims.append((int(pieces[0]), int(pieces[1])))
        except ValueError:
            raise ConfigError(f"bad dims entry {part!r}, expected NxM") from None
    if not dims:
        raise ConfigError("dims list is empty")
    return tuple(dims)


def parse_kinds(text: str) -> tuple:
    kinds = tuple(p.strip() for p in text.split(",") if p.strip())
    for kind in kinds:
        if kind not in ALL_KINDS:
            raise ConfigError(f"unknown kind {kind!r}")
    return kinds


@dataclass
class ExperimentConfig:
    dims: tuple = DEFAULT_DIMS
    kinds: tuple = ALL_KINDS
    d: int = 5000
    seeds: tuple = (0,)
    planes: int = 30
    temperature: float = 0.1
    hidden: tuple = (64, 64)
    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 64
    split_ratio: float = 0.9
    full: bool = False
    surface_resolution: int = 41
    outdir: str = "bench_out"

    def __post_init__(self):
        self.dims = tuple((int(n), int(m)) for n, m in self.dims)
        self.kinds = tuple(self.kinds)
        self.seeds = tuple(int(s) for s in self.seeds)
        for n, m in self.dims:
            if n < 1 or m < 1:
                raise ConfigError("dims entries must be >= 1")
        for kind in self.kinds:
            if kind not in ALL_KINDS:
                raise ConfigError(f"unknown kind {kind!r}")
        if self.d < 10:
            raise ConfigError("d must be >= 10")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if self.planes < 1:
            raise ConfigError("planes must be >= 1")
        if self.surface_resolution < 2:
            raise ConfigError("surface_resolution must be >= 2")

    def budget_for(self, n: int, m: int) -> tuple[int, int]:
        """(points, epochs) for one cell; high-dim cells are trimmed
        unless full is set."""
        if self.full or n + m < REDUCED_DIM_CUTOFF:
            return self.d, self.epochs
        return min(self.d, REDUCED_D), min(self.epochs, REDUCED_EPOCHS)


_INT_KEYS = {"d", "planes", "epochs", "batch_size", "surface_resolution"}
_FLOAT_KEYS = {"temperature", "learning_rate", "split_ratio"}


def parse_experiment_config(text: str) -> ExperimentConfig:
    """key=value lines; # starts a comment; unknown keys rejected."""
    values = {}
    for lineno, key, val in key_value_lines(text):
        if key == "dims":
            values[key] = parse_dims(val)
        elif key == "kinds":
            values[key] = parse_kinds(val)
        elif key == "seeds":
            values[key] = tuple(int(p) for p in val.split(",") if p.strip())
        elif key == "hidden":
            values[key] = tuple(int(p) for p in val.split(",") if p.strip())
        elif key == "full":
            if val.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"line {lineno}: full must be boolean")
            values[key] = val.lower() in ("true", "1")
        elif key in _INT_KEYS:
            values[key] = int(val)
        elif key in _FLOAT_KEYS:
            values[key] = float(val)
        elif key == "outdir":
            values[key] = val
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    try:
        return ExperimentConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_experiment_config(path) -> ExperimentConfig:
    with open(path, "r") as fh:
        return parse_experiment_config(fh.read())


# --- per-cell run ------------------------------------------------------------


@dataclass
class RunResult:
    """One (kind, dims, seed) training-plus-solving pass."""

    seed: int
    train_status: str  # "ok" or "diverged"
    final_test_mse: float | None
    train_time_s: float
    convexity_violation: float | None  # None for fnn or diverged runs
    solver_failures: int
    invalid_values: int
    solve_time_s: list
    minimizer_error: list
    value_error: list
    value_error_true: list
    certificate: list  # None entries for uncertified (fnn) solves
    net: Network | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "train_status": self.train_status,
            "final_test_mse": self.final_test_mse,
            "train_time_s": self.train_time_s,
            "convexity_violation": self.convexity_violation,
            "solver_failures": self.solver_failures,
            "invalid_values": self.invalid_values,
            "solve_time_s": list(self.solve_time_s),
            "minimizer_error": list(self.minimizer_error),
            "value_error": list(self.value_error),
            "value_error_true": list(self.value_error_true),
            "certificate": list(self.certificate),
        }


def _pooled_mean(runs, attr: str) -> float | None:
    vals = [v for r in runs for v in getattr(r, attr)]
    if not vals:
        return None
    return float(np.mean(np.asarray(vals, dtype=np.float64)))


@dataclass
class BenchmarkCell:
    kind: str
    n: int
    m: int
    d: int
    epochs: int
    runs: list

    @property
    def mean_solve_time_s(self) -> float | None:
        return _pooled_mean(self.runs, "solve_time_s")

    @property
    def mean_minimizer_error(self) -> float | None:
        return _pooled_mean(self.runs, "minimizer_error")

    @property
    def mean_value_error(self) -> float | None:
        return _pooled_mean(self.runs, "value_error")

    @property
    def mean_value_error_true(self) -> float | None:
        return _pooled_mean(self.runs, "value_error_true")

    @property
    def solver_failures(self) -> int:
        return sum(r.solver_failures for r in self.runs)

    @property
    def invalid_values(self) -> int:
        return sum(r.invalid_values for r in self.runs)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "d": self.d,
            "epochs": self.epochs,
            "mean_solve_time_s": self.mean_solve_time_s,
            "mean_minimizer_error": self.mean_minimizer_error,
            "mean_value_error": self.mean_value_error,
            "mean_value_error_true": self.mean_value_error_true,
            "solver_failures": self.solver_failures,
            "invalid_values": self.invalid_values,
            "runs": [r.to_json() for r in self.runs],
        }


@dataclass
class BenchmarkReport:
    cells: list
    metadata: dict

    def to_json(self) -> dict:
        return {
            "metadata": dict(self.metadata),
            "cells": [c.to_json() for c in self.cells],
        }

    def cell(self, kind: str, n: int, m: int) -> BenchmarkCell | None:
        for c in self.cells:
            if (c.kind, c.n, c.m) == (kind, n, m):
                return c
        return None


def _assert_disjoint(train_ds: Dataset, test_ds: Dataset) -> None:
    # split_dataset partitions a permutation, so overlap would mean a bug
    # upstream; metrics must never touch training conditions
    train_keys = {row.tobytes() for row in train_ds.X}
    for row in test_ds.X:
        if row.tobytes() in train_keys:
            raise RuntimeError("test condition also present in the training split")


def _run_cell(
    cfg: ExperimentConfig, kind: str, n: int, m: int, d: int, epochs: int, seed: int
) -> RunResult:
    rng = Rng(seed)
    data_rng = rng.spawn()
    net_seed = int(rng.next_uint64(1)[0] % 2**31)
    ds = make_benchmark_dataset(n, m, d, data_rng)
    net = init_network(
        kind, n, m, seed=net_seed, I=cfg.planes, T=cfg.temperature, hidden=cfg.hidden
    )
    tcfg = TrainConfig(
        epochs=epochs,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
        split_ratio=cfg.split_ratio,
        seed=seed,
    )
    t0 = time.perf_counter()
    try:
        trained, treport = train(net, ds, tcfg)
    except TrainingDiverged:
        return RunResult(
            seed=seed,
            train_status="diverged",
            final_test_mse=None,
            train_time_s=time.perf_counter() - t0,
            convexity_violation=None,
            solver_failures=0,
            invalid_values=0,
            solve_time_s=[],
            minimizer_error=[],
            value_error=[],
            value_error_true=[],
            certificate=[],
        )
    train_time = time.perf_counter() - t0

    # recover the exact split the trainer used: splitting consumes the
    # first draws of a fresh stream seeded with the training seed
    train_ds, test_ds = split_dataset(ds, cfg.split_ratio, Rng(seed))
    _assert_disjoint(train_ds, test_ds)

    convexity = None
    if kind in CONVEX_KINDS:
        convexity = check_convexity(trained, seed=seed).max_violation

    domain = BoxDomain.symmetric(m)
    results = minimize_batch(trained, test_ds.X, domain, SolveOptions(seed=seed))
    failures = 0
    invalid = 0
    solve_time_s: list = []
    minimizer_error: list = []
    value_error: list = []
    value_error_true: list = []
    certificate: list = []
    for x, res in zip(test_ds.X, results):
        if res is None:
            failures += 1
            continue
        u_star, value_true = true_solution(x, n, m)
        ok = (
            np.all(np.isfinite(res.u_star))
            and np.isfinite(res.value)
            and domain.contains(res.u_star, atol=1e-9)
        )
        if not ok:
            invalid += 1
            continue
        solve_time_s.append(res.wall_time_s)
        minimizer_error.append(float(np.linalg.norm(res.u_star - u_star)))
        value_error.append(abs(res.value - value_true))
        value_error_true.append(abs(target_function(x, res.u_star) - value_true))
        certificate.append(
            res.certificate if np.isfinite(res.certificate) else None
        )
    return RunResult(
        seed=seed,
        train_status="ok",
        final_test_mse=treport.final_test_mse,
        train_time_s=train_time,
        convexity_violation=convexity,
        solver_failures=failures,
        invalid_values=invalid,
        solve_time_s=solve_time_s,
        minimizer_error=minimizer_error,
        value_error=value_error,
        value_error_true=value_error_true,
        certificate=certificate,
        net=trained,
    )


def run_benchmark(cfg: ExperimentConfig) -> BenchmarkReport:
    cells = []
    for kind in cfg.kinds:
        for n, m in cfg.dims:
            d, epochs = cfg.budget_for(n, m)
            runs = [
                _run_cell(cfg, kind, n, m, d, epochs, seed) for seed in cfg.seeds
            ]
            cells.append(
                BenchmarkCell(kind=kind, n=n, m=m, d=d, epochs=epochs, runs=runs)
            )
    metadata = {
        "dims": [list(dm) for dm in cfg.dims],
        "kinds": list(cfg.kinds),
        "d": cfg.d,
        "seeds": list(cfg.seeds),
        "full": cfg.full,
        "runs_per_cell": len(cfg.seeds),
        "value_error": "abs(model value at solver minimizer - true optimal value)",
        "value_error_true": "abs(target at solver minimizer - true optimal value)",
    }
    return BenchmarkReport(cells=cells, metadata=metadata)


# --- exports -----------------------------------------------------------------


def surface_dump(net, resolution: int, path) -> None:
    """CSV grid (x, u, value) over [-1, 1]^2 for a 1x1 net or a batch
    callable f(X, U) -> values."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if hasattr(net, "kind"):
        if net.n != 1 or net.m != 1:
            raise DimensionMismatch("surface dumps need n = m = 1")
        fn = lambda X, U: forward_batch(net, X, U)
    else:
        fn = net
    axis = np.linspace(-1.0, 1.0, resolution)
    Xg, Ug = np.meshgrid(axis, axis, indexing="ij")
    X = Xg.reshape(-1, 1)
    U = Ug.reshape(-1, 1)
    vals = np.asarray(fn(X, U), dtype=np.float64)
    with open(path, "w") as fh:
        fh.write("x,u,f\n")
        for xv, uv, fv in zip(X[:, 0], U[:, 0], vals):
            fh.write(f"{float(xv)!r},{float(uv)!r},{float(fv)!r}\n")


def _csv_cell(v) -> str:
    return "" if v is None else repr(float(v))


def export_report(report: BenchmarkReport, outdir) -> None:
    """report.csv (rows = kinds, metric columns per dims) plus
    samples.json with every per-condition sample."""
    os.makedirs(outdir, exist_ok=True)
    dims = [tuple(dm) for dm in report.metadata["dims"]]
    header = ["kind"]
    for n, m in dims:
        tag = f"{n}x{m}"
        header += [f"time_{tag}", f"minimizer_err_{tag}", f"value_err_{tag}"]
    lines = [",".join(header)]
    for kind in report.metadata["kinds"]:
        row = [kind]
        for n, m in dims:
            cell = report.cell(kind, n, m)
            if cell is None:
                row += ["", "", ""]
            else:
                row += [
                    _csv_cell(cell.mean_solve_time_s),
                    _csv_cell(cell.mean_minimizer_error),
                    _csv_cell(cell.mean_value_error),
                ]
        lines.append(",".join(row))
    with open(os.path.join(outdir, "report.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(outdir, "samples.json"), "w") as fh:
        json.dump(report.to_json(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def export_artifacts(report: BenchmarkReport, cfg: ExperimentConfig, outdir) -> None:
    """Everything the benchmark command ships: the report files, one
    model per cell (first seed that trained), and 1x1 surfaces."""
    export_report(report, outdir)
    models_dir = os.path.join(outdir, "models")
    os.makedirs(models_dir, exist_ok=True)
    for cell in report.cells:
        net = next((r.net for r in cell.runs if r.net is not None), None)
        if net is None:
            continue
        save_model(net, os.path.join(models_dir, f"{cell.kind}_{cell.n}x{cell.m}.json"))
        if cell.n == 1 and cell.m == 1:
            surface_dump(
                net,
                cfg.surface_resolution,
                os.path.join(outdir, f"surface_{cell.kind}.csv"),
            )
