"""Desk-scale benchmark harness.

Generates labeled data from a known parameterized-convex target, trains
every requested approximator kind on it, solves the box-constrained
decision problem over the held-out conditions, and exports a metrics
table plus raw per-condition samples for external plotting.

Each cell solves all of its held-out conditions in one
`solver.minimize_batch` call, so the per-solve times in report.csv and
samples.json are that batch's wall time divided by its number of
conditions, amortized over the cell's batch.

Dataclass fields are the schema: a RunResult's fields but `net` are its
samples.json record; a cell reports `mean_<sample>` for each of SAMPLES,
pooled over its runs' valid solves on the test split, and tallies solver
failures and non-finite or out-of-box outputs apart. A run also counts
its solved conditions per solver status (`statuses`). A config line that
does not parse, or whose value is out of range, raises ConfigError naming
its line number, before any cell trains.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, DimensionMismatch, TrainingDiverged
from .networks import Network, forward_batch, save_model
from .numerics import BoxDomain, Rng, check_count, sample_uniform_box
from .solver import STATUSES, SolveOptions, minimize_batch
from .training import (
    Dataset,
    TrainConfig,
    init_network,
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
        try:
            n, m = (int(p) for p in part.lower().split("x"))
        except ValueError:
            raise ConfigError(f"bad dims entry {part!r}, expected NxM") from None
        dims.append((n, m))
    if not dims:
        raise ConfigError("dims list is empty")
    return tuple(dims)


def parse_kinds(text: str) -> tuple:
    kinds = tuple(p.strip() for p in text.split(",") if p.strip())
    if not kinds:
        raise ConfigError("kinds list is empty")
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
        for seed in self.seeds:
            check_count("seeds", seed, ConfigError, minimum=0)
        self.seeds = tuple(int(s) for s in self.seeds)
        if any(n < 1 or m < 1 for n, m in self.dims):
            raise ConfigError("dims entries must be >= 1")
        for kind in self.kinds:
            if kind not in ALL_KINDS:
                raise ConfigError(f"unknown kind {kind!r}")
        for key, low in (("d", 10), ("planes", 1), ("surface_resolution", 2)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if not self.temperature > 0:
            raise ConfigError("temperature must be positive")
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden widths must be >= 1")
        # the training keys fail here, before any cell trains
        TrainConfig(epochs=self.epochs, learning_rate=self.learning_rate,
                    batch_size=self.batch_size, split_ratio=self.split_ratio)
        for n, m in self.dims:
            if int(self.split_ratio * self.budget_for(n, m)[0]) < 1:
                raise ConfigError(f"split_ratio leaves the {n}x{m} cell no training rows")

    def budget_for(self, n: int, m: int) -> tuple[int, int]:
        """(points, epochs) for one cell; high-dim cells are trimmed
        unless full is set."""
        if self.full or n + m < REDUCED_DIM_CUTOFF:
            return self.d, self.epochs
        return min(self.d, REDUCED_D), min(self.epochs, REDUCED_EPOCHS)


def _parse_ints(text: str) -> tuple:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "0", "1"):
        raise ConfigError("full must be boolean")
    return text.lower() in ("true", "1")


# config key -> parser of its value text; a scalar key parses as its default's type
_CONFIG_PARSERS = {
    "dims": parse_dims,
    "kinds": parse_kinds,
    "seeds": _parse_ints,
    "hidden": _parse_ints,
    "full": _parse_bool,
    **{
        f.name: type(f.default)
        for f in fields(ExperimentConfig)
        if type(f.default) in (int, float, str)
    },
}


def key_value_lines(text: str):
    """(line number, key, value) for each key=value line of a config text,
    key and value stripped; '#' starts a comment and blank lines are
    skipped. Raises ConfigError naming the line for any other line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        yield lineno, key.strip(), val.strip()


def parse_experiment_config(text: str) -> ExperimentConfig:
    """key=value lines; # starts a comment; unknown keys, unparsable values
    and values out of range rejected with the line number."""
    values = {}
    for lineno, key, val in key_value_lines(text):
        parse = _CONFIG_PARSERS.get(key)
        if parse is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = parse(val)
            # every check is on one key, so a value is checked on its line
            ExperimentConfig(**{key: values[key]})
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
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
    """One (kind, dims, seed) training-plus-solving pass. Every field but
    `net` is its JSON record; a diverged run keeps the defaults."""

    seed: int
    train_status: str = "ok"  # or "diverged"
    final_test_mse: float | None = None
    train_time_s: float = 0.0
    convexity_violation: float | None = None  # None for fnn or diverged runs
    solver_failures: int = 0
    # solved conditions per solver status, one key per STATUSES entry
    statuses: dict = field(default_factory=lambda: dict.fromkeys(STATUSES, 0))
    invalid_values: int = 0
    solve_time_s: list = field(default_factory=list)
    minimizer_error: list = field(default_factory=list)
    value_error: list = field(default_factory=list)
    value_error_true: list = field(default_factory=list)
    certificate: list = field(default_factory=list)  # None for uncertified (fnn) solves
    net: Network | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "net"}
        return {k: type(v)(v) if isinstance(v, (list, dict)) else v for k, v in doc.items()}


# the per-solve samples of a run that a cell pools into mean_<sample>
SAMPLES = ("solve_time_s", "minimizer_error", "value_error", "value_error_true")


@dataclass
class BenchmarkCell:
    kind: str
    n: int
    m: int
    d: int
    epochs: int
    runs: list

    def mean(self, sample: str) -> float | None:
        """Mean of one of SAMPLES pooled over the runs, None if empty."""
        vals = [v for r in self.runs for v in getattr(r, sample)]
        if not vals:
            return None
        return float(np.mean(np.asarray(vals, dtype=np.float64)))

    @property
    def solver_failures(self) -> int:
        return sum(r.solver_failures for r in self.runs)

    @property
    def invalid_values(self) -> int:
        return sum(r.invalid_values for r in self.runs)

    def to_json(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "runs"}
        doc.update((f"mean_{s}", self.mean(s)) for s in SAMPLES)
        doc.update(solver_failures=self.solver_failures, invalid_values=self.invalid_values)
        return {**doc, "runs": [r.to_json() for r in self.runs]}


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
        return next((c for c in self.cells if (c.kind, c.n, c.m) == (kind, n, m)), None)


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
    ds = make_benchmark_dataset(n, m, d, rng.spawn())
    net_seed = int(rng.next_uint64(1)[0] % 2**31)
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
            seed=seed, train_status="diverged", train_time_s=time.perf_counter() - t0
        )
    run = RunResult(
        seed=seed,
        final_test_mse=treport.final_test_mse,
        train_time_s=time.perf_counter() - t0,
        net=trained,
    )

    # recover the exact split the trainer used: splitting consumes the
    # first draws of a fresh stream seeded with the training seed
    train_ds, test_ds = split_dataset(ds, cfg.split_ratio, Rng(seed))
    _assert_disjoint(train_ds, test_ds)

    if kind in CONVEX_KINDS:
        run.convexity_violation = check_convexity(trained, seed=seed).max_violation

    domain = BoxDomain.symmetric(m)
    results = minimize_batch(trained, test_ds.X, domain, SolveOptions(seed=seed))
    for x, res in zip(test_ds.X, results):
        if res is None:
            run.solver_failures += 1
            continue
        run.statuses[res.status] += 1
        u_star, value_true = true_solution(x, n, m)
        ok = (
            np.all(np.isfinite(res.u_star))
            and np.isfinite(res.value)
            and domain.contains(res.u_star, atol=1e-9)
        )
        if not ok:
            run.invalid_values += 1
            continue
        run.solve_time_s.append(res.wall_time_s)
        run.minimizer_error.append(float(np.linalg.norm(res.u_star - u_star)))
        run.value_error.append(abs(res.value - value_true))
        run.value_error_true.append(abs(target_function(x, res.u_star) - value_true))
        run.certificate.append(
            res.certificate if np.isfinite(res.certificate) else None
        )
    return run


def _git_rev(root) -> str | None:
    """The commit checked out at `root`, read from .git/HEAD and the ref it
    names, loose or packed; None where root holds no git checkout."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head or None
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _environment() -> dict:
    """What a benchmark ran on: interpreter, NumPy, CPU count and the git
    rev of the source checkout (None for an installed package)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        # src/paraconvex/bench.py sits two levels below the checkout root
        "git_rev": _git_rev(Path(__file__).resolve().parents[2]),
    }


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
        "env": _environment(),
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


# report.csv's metric columns per dims: (column prefix, pooled sample)
REPORT_COLUMNS = (
    ("time", "solve_time_s"),
    ("minimizer_err", "minimizer_error"),
    ("value_err", "value_error"),
)


def export_report(report: BenchmarkReport, outdir) -> None:
    """report.csv (rows = kinds, metric columns per dims) plus
    samples.json with every per-condition sample."""
    os.makedirs(outdir, exist_ok=True)
    dims = [tuple(dm) for dm in report.metadata["dims"]]
    header = ["kind"] + [f"{p}_{n}x{m}" for n, m in dims for p, _ in REPORT_COLUMNS]
    lines = [",".join(header)]
    for kind in report.metadata["kinds"]:
        row = [kind]
        for n, m in dims:
            cell = report.cell(kind, n, m)
            row += [_csv_cell(cell and cell.mean(s)) for _, s in REPORT_COLUMNS]
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
