"""Tests for the benchmark harness: target problem, config parsing,
end-to-end runs, and report exports."""

import dataclasses
import json
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paraconvex.bench import (
    ALL_KINDS,
    BenchmarkReport,
    ExperimentConfig,
    RunResult,
    export_artifacts,
    export_report,
    load_experiment_config,
    make_benchmark_dataset,
    parse_dims,
    parse_experiment_config,
    parse_kinds,
    run_benchmark,
    surface_dump,
    target_batch,
    _assert_disjoint,
    _git_rev,
    _solve_test_split,
)
from paraconvex.exceptions import ConfigError, DimensionMismatch
from paraconvex.networks import Bank, MlpParams, forward_batch, model_to_json
from paraconvex.numerics import BoxDomain, Rng
from paraconvex.solver import STATUSES, SolveOptions, minimize_batch
from paraconvex import bench
from paraconvex.training import Dataset, init_network, split_dataset


def target_function(x, u):
    """Reference: the target at one (x, u), from dot products."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    return float(-(x @ x) / (2 * x.size) + (u @ u) / (2 * u.size))


def strip_times(doc):
    """A report's JSON without its timings: every key naming a time."""
    if isinstance(doc, dict):
        return {k: strip_times(v) for k, v in doc.items() if "time" not in k}
    if isinstance(doc, list):
        return [strip_times(v) for v in doc]
    return doc


def true_solution(x, n, m):
    """Reference: the target's minimizer and value over [-1, 1]^m."""
    x = np.asarray(x, dtype=np.float64)
    return np.zeros(m), float(-(x @ x) / (2 * n))


class TestTargetProblem:
    def test_spot_values(self):
        X = np.array([[0.0], [1.0], [1.0]])
        U = np.array([[0.0], [1.0], [0.0]])
        assert target_batch(X, U).tolist() == [0.0, 0.0, -0.5]

    def test_batch_matches_scalar(self):
        rng = Rng(4)
        X = rng.uniform_in(-1, 1, 12).reshape(4, 3)
        U = rng.uniform_in(-1, 1, 8).reshape(4, 2)
        batch = target_batch(X, U)
        for i in range(4):
            assert_allclose(batch[i], target_function(X[i], U[i]), rtol=1e-15)

    def test_true_solution(self):
        # the minimum -|x|^2/(2n) is the target at u = 0
        X = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        assert target_batch(X[:, :3], np.zeros((2, 2))).tolist() == [0.0, -1 / 3]
        assert target_batch(X[:, :2], np.zeros((2, 4))).tolist() == [0.0, -0.5]
        assert target_batch(X[:, :1], np.zeros((2, 1))).tolist() == [0.0, -0.5]

    def test_true_solution_minimizes_target(self):
        rng = Rng(7)
        X = np.tile(rng.uniform_in(-1, 1, 3), (20, 1))
        U = rng.uniform_in(-1, 1, 40).reshape(20, 2)
        at_zero = target_batch(X, np.zeros((20, 2)))
        assert (target_batch(X, U) >= at_zero).all()

    @pytest.mark.parametrize("kind", ["plse", "ma", "fnn"])
    def test_run_errors_match_reference_formulas(self, kind):
        # a 2x3 run's per-solve errors, recomputed from its net's solves
        # with the scalar reference formulas, bit for bit
        cfg = ExperimentConfig(dims=((2, 3),), kinds=(kind,), d=60, epochs=2,
                               seeds=(3,), planes=4, hidden=(8, 8))
        (cell,) = run_benchmark(cfg).cells
        (run,) = cell.runs
        ds = make_benchmark_dataset(2, 3, 60, Rng(3).spawn())
        _, test_ds = split_dataset(ds, cfg.split_ratio, Rng(3))
        results = minimize_batch(run.net, test_ds.X, BoxDomain.symmetric(3),
                                 SolveOptions(seed=3))
        want = {"minimizer_error": [], "value_error": [], "value_error_true": []}
        for x, res in zip(test_ds.X, results):
            u_star, value_true = true_solution(x, 2, 3)
            want["minimizer_error"].append(float(np.linalg.norm(res.u_star - u_star)))
            want["value_error"].append(abs(res.value - value_true))
            want["value_error_true"].append(
                abs(target_function(x, res.u_star) - value_true))
        assert len(want["value_error"]) == len(test_ds.X) == 6
        for sample, values in want.items():
            assert getattr(run, sample) == values, sample


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.dims == ((1, 1), (61, 20), (376, 17))
        assert cfg.kinds == ("plse", "pma", "lse", "ma", "fnn")
        assert cfg.d == 5000 and cfg.seeds == (0,) and not cfg.full

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(d=9)
        with pytest.raises(ConfigError):
            ExperimentConfig(kinds=("spline",))
        with pytest.raises(ConfigError):
            ExperimentConfig(dims=((0, 1),))
        with pytest.raises(ConfigError):
            ExperimentConfig(seeds=())
        with pytest.raises(ConfigError):
            ExperimentConfig(surface_resolution=1)

    @pytest.mark.parametrize("key", ["kinds", "dims", "seeds"])
    def test_empty_list_rejected_in_code(self, key):
        with pytest.raises(ConfigError, match=f"^{key} list is empty$"):
            ExperimentConfig(**{key: ()})

    def test_generator_lists_read_once(self):
        # a generator was consumed by the entry checks and then reported
        # as empty ("seeds must be nonempty"), or trained every cell with
        # no hidden layer
        lists = {"dims": ((1, 1), (2, 3)), "kinds": ("ma", "plse"), "seeds": (0, 1),
                 "hidden": (8, 4)}
        made = ExperimentConfig(**{k: (e for e in v) for k, v in lists.items()})
        assert made == ExperimentConfig(**lists)
        assert (made.dims, made.kinds, made.seeds, made.hidden) == tuple(lists.values())

    @pytest.mark.parametrize("key,entries", [
        ("dims", ((1, 1), (2, 3), (1, 1))),
        ("kinds", ("ma", "ma")),
        ("seeds", (3, 0, 3)),
    ])
    def test_repeated_entry_rejected_in_code(self, key, entries):
        # each would train the same cell twice and export its model twice
        with pytest.raises(ConfigError, match=f"^{key} repeats an entry$"):
            ExperimentConfig(**{key: entries})

    def test_repeated_entry_names_its_line(self):
        with pytest.raises(ConfigError, match=r"^line 2: kinds repeats an entry$"):
            parse_experiment_config("d = 60\nkinds = plse, plse\n")

    def test_budget_small_dims_untrimmed(self):
        cfg = ExperimentConfig()
        assert cfg.budget_for(1, 1) == (5000, 100)

    def test_budget_high_dims_trimmed(self):
        cfg = ExperimentConfig()
        assert cfg.budget_for(61, 20) == (2000, 30)
        assert cfg.budget_for(376, 17) == (2000, 30)

    def test_budget_full_flag_restores(self):
        cfg = ExperimentConfig(full=True)
        assert cfg.budget_for(61, 20) == (5000, 100)

    def test_budget_never_grows(self):
        cfg = ExperimentConfig(d=500, epochs=10)
        assert cfg.budget_for(61, 20) == (500, 10)

    def test_parse_dims(self):
        assert parse_dims("1x1,61x20") == ((1, 1), (61, 20))
        assert parse_dims(" 376X17 ") == ((376, 17),)
        with pytest.raises(ConfigError):
            parse_dims("3")
        with pytest.raises(ConfigError):
            parse_dims("axb")
        # an empty list parses; the config rejects it
        assert parse_dims("") == ()
        with pytest.raises(ConfigError, match="^dims list is empty$"):
            ExperimentConfig(dims=parse_dims(""))

    def test_parse_kinds(self):
        assert parse_kinds("plse, ma") == ("plse", "ma")
        # a name parses; the config checks it
        assert parse_kinds("plse,unknown") == ("plse", "unknown")
        with pytest.raises(ConfigError, match="^unknown kind 'unknown'$"):
            ExperimentConfig(kinds=parse_kinds("plse,unknown"))

    def test_empty_training_split_rejected(self):
        # int(0.05 * 10) = 0 training rows; the trimmed 61x20 budget counts
        with pytest.raises(ConfigError, match="1x1 cell no training rows"):
            ExperimentConfig(dims=((1, 1),), d=10, split_ratio=0.05)
        with pytest.raises(ConfigError, match="61x20 cell no training rows"):
            ExperimentConfig(dims=((61, 20),), d=10_000, split_ratio=0.0004)
        assert ExperimentConfig(dims=((1, 1),), d=10, split_ratio=0.1).d == 10

    def test_parse_config_text(self):
        cfg = parse_experiment_config(
            "dims = 1x1,2x3\n"
            "kinds = plse,fnn  # comment\n"
            "d = 100\n"
            "seeds = 0,1,2\n"
            "full = true\n"
            "learning_rate = 0.5\n"
            "hidden = 8,8\n"
        )
        assert cfg.dims == ((1, 1), (2, 3))
        assert cfg.kinds == ("plse", "fnn")
        assert cfg.d == 100 and cfg.seeds == (0, 1, 2)
        assert cfg.full and cfg.learning_rate == 0.5 and cfg.hidden == (8, 8)

    def test_parse_config_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_experiment_config("momentum = 0.9\n")
        with pytest.raises(ConfigError):
            parse_experiment_config("just a line\n")
        with pytest.raises(ConfigError):
            parse_experiment_config("full = maybe\n")

    @pytest.mark.parametrize("line", [
        "dims = 1x1,axb", "kinds = plse,spline", "seeds = 0,one", "hidden = 8,wide",
        "full = maybe", "d = many", "planes = 3.5", "epochs = ten", "batch_size = 6.4e1",
        "surface_resolution = x", "temperature = hot", "learning_rate = 1e-3e",
        "split_ratio = nine tenths", "kinds = ,", "epochs",
    ])
    def test_bad_value_names_its_line(self, line):
        with pytest.raises(ConfigError, match=r"^line 1: "):
            parse_experiment_config(line + "\n")

    @pytest.mark.parametrize("line,message", [
        ("temperature = -1", "temperature must be a positive finite number, got -1.0"),
        ("temperature = inf", "temperature must be a positive finite number, got inf"),
        ("split_ratio = 1.5", "split_ratio must lie strictly between 0 and 1, got 1.5"),
        ("epochs = 0", "epochs must be >= 1"),
        ("batch_size = 0", "batch_size must be >= 1"),
        ("hidden = 8,0", "hidden widths must be >= 1"),
        ("learning_rate = 0", "learning_rate must be a positive finite number, got 0.0"),
        ("learning_rate = -1e-3", "learning_rate must be a positive finite number, got -0.001"),
        ("learning_rate = inf", "learning_rate must be a positive finite number, got inf"),
    ])
    def test_out_of_range_value_names_its_line(self, line, message):
        # rejected while parsing, before run_benchmark trains any cell
        with pytest.raises(ConfigError, match=rf"^line 2: {message}$"):
            parse_experiment_config("kinds = ma\n" + line + "\n")
        key, _, value = line.partition(" = ")
        value = tuple(int(v) for v in value.split(",")) if key == "hidden" else float(value)
        with pytest.raises(ConfigError, match=rf"^{message}$"):
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize("key,value,message", [
        ("d", 100.5, "d must be an integer, got 100.5"),
        ("planes", 2.5, "planes must be an integer, got 2.5"),
        ("surface_resolution", 2.5, "surface_resolution must be an integer, got 2.5"),
        ("hidden", (8.5,), "hidden widths must be an integer, got 8.5"),
        ("dims", ((1.5, 2),), "dims entries must be an integer, got 1.5"),
        ("dims", ((1, True),), "dims entries must be an integer, got True"),
        *[(key, value, f"{key} must {rule}, got {value!r}")
          for key, rule in (("temperature", "be a positive finite number"),
                            ("learning_rate", "be a positive finite number"),
                            ("split_ratio", "lie strictly between 0 and 1"))
          for value in (True, "0.1", float("nan"), 0, -1, float("inf"))],
    ])
    def test_bad_value_rejected_in_code(self, key, value, message):
        # values no config line parses to, rejected before any cell trains:
        # each real-valued key by one rule, and never a bare TypeError
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize("seeds", [(0, -1), (2.5,), (True,)])
    def test_seeds_checked_before_training(self, seeds):
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig(seeds=seeds)
        if seeds == (0, -1):
            with pytest.raises(ConfigError, match=r"^line 2: seeds must be >= 0$"):
                parse_experiment_config("kinds = ma\nseeds = 0,-1\n")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("d = 64\nkinds = ma\n")
        cfg = load_experiment_config(path)
        assert cfg.d == 64 and cfg.kinds == ("ma",)


class TestDataset:
    def test_shapes_and_labels(self):
        ds = make_benchmark_dataset(3, 2, 50, Rng(1))
        assert ds.X.shape == (50, 3) and ds.U.shape == (50, 2)
        assert_allclose(ds.y, target_batch(ds.X, ds.U), rtol=1e-15)
        assert np.all(np.abs(ds.X) <= 1) and np.all(np.abs(ds.U) <= 1)

    def test_deterministic(self):
        a = make_benchmark_dataset(2, 2, 20, Rng(9))
        b = make_benchmark_dataset(2, 2, 20, Rng(9))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


class TestSolveTestSplit:
    def test_failed_and_out_of_box_rows_are_tallied_not_sampled(self, monkeypatch):
        # a row the solver returned as None and a row whose u* left the box
        # are counted apart from the samples; perfbench's desk workloads
        # report both as failed operations
        net = init_network("plse", 1, 1, seed=0, I=4, hidden=(4,))
        test_ds = make_benchmark_dataset(1, 1, 3, Rng(2))

        def solve(net, X, domain, opts):
            solved = minimize_batch(net, X[2:], domain, opts)[0]
            return [None, dataclasses.replace(solved, u_star=np.array([1.5])), solved]

        monkeypatch.setattr(bench, "minimize_batch", solve)
        run = RunResult(seed=0, net=net)
        _solve_test_split(run, "plse", test_ds, 1, 1)
        assert (run.solver_failures, run.invalid_values) == (1, 1)
        assert len(run.minimizer_error) == len(run.certificate) == 1
        assert sum(run.statuses.values()) == 2


@pytest.fixture(scope="module")
def tiny_report():
    cfg = ExperimentConfig(
        dims=((1, 1), (2, 2)),
        kinds=("plse", "ma", "fnn"),
        d=60,
        epochs=2,
        seeds=(0, 1),
        planes=4,
        hidden=(8, 8),
        surface_resolution=5,
    )
    return cfg, run_benchmark(cfg)


class TestRunBenchmark:
    def test_cell_grid_complete(self, tiny_report):
        cfg, report = tiny_report
        assert len(report.cells) == len(cfg.kinds) * len(cfg.dims)
        for kind in cfg.kinds:
            for n, m in cfg.dims:
                assert report.cell(kind, n, m) is not None
        assert report.cell("lse", 1, 1) is None

    def test_sample_counts_cover_test_split(self, tiny_report):
        cfg, report = tiny_report
        test_size = 60 - int(0.9 * 60)
        for cell in report.cells:
            for run in cell.runs:
                n_used = len(run.minimizer_error)
                assert n_used + run.solver_failures + run.invalid_values == test_size
                assert len(run.value_error) == n_used
                assert len(run.value_error_true) == n_used
                assert len(run.solve_time_s) == n_used
                assert len(run.certificate) == n_used

    def test_statuses_tally_the_solved_conditions(self, tiny_report):
        _, report = tiny_report
        test_size = 60 - int(0.9 * 60)
        for cell in report.cells:
            for run in cell.runs:
                assert tuple(run.statuses) == STATUSES
                assert sum(run.statuses.values()) == test_size - run.solver_failures
                assert run.to_json()["statuses"] == run.statuses

    def test_means_are_pooled_sample_means(self, tiny_report):
        _, report = tiny_report
        for cell in report.cells:
            pooled = [v for r in cell.runs for v in r.minimizer_error]
            assert_allclose(cell.mean("minimizer_error"), np.mean(pooled), rtol=0,
                            atol=0)
            assert cell.mean("solve_time_s") >= 0
            assert cell.mean("value_error") >= 0

    def test_json_keys(self, tiny_report):
        _, report = tiny_report
        run_keys = {"seed", "train_status", "final_test_mse", "prepare_time_s",
                    "train_time_s",
                    "test_losses", "epoch_times_s", "convexity_violation",
                    "solver_failures", "statuses", "invalid_values",
                    "solve_time_s", "minimizer_error", "value_error",
                    "value_error_true", "certificate"}
        cell_keys = {"kind", "n", "m", "d", "epochs", "mean_solve_time_s",
                     "mean_minimizer_error", "mean_value_error",
                     "mean_value_error_true", "solver_failures", "invalid_values",
                     "runs"}
        for cell in report.cells:
            doc = cell.to_json()
            assert set(doc) == cell_keys
            for run, run_doc in zip(cell.runs, doc["runs"]):
                assert run.net is not None and set(run_doc) == run_keys
                # every epoch's test loss next to its time
                assert len(run_doc["test_losses"]) == cell.epochs
                assert len(run_doc["epoch_times_s"]) == cell.epochs
                assert run_doc["test_losses"][-1] == run_doc["final_test_mse"]
        diverged = RunResult(seed=0, train_status="diverged").to_json()
        assert set(diverged) == run_keys
        assert diverged["test_losses"] == diverged["epoch_times_s"] == []

    def test_trained_convex_kinds_stay_convex(self, tiny_report):
        _, report = tiny_report
        for cell in report.cells:
            for run in cell.runs:
                if cell.kind == "fnn":
                    assert run.convexity_violation is None
                else:
                    assert run.convexity_violation <= 1e-9

    def test_certificates_track_kind(self, tiny_report):
        _, report = tiny_report
        for cell in report.cells:
            for run in cell.runs:
                if cell.kind == "fnn":
                    assert all(c is None for c in run.certificate)
                else:
                    assert all(c is not None and c >= 0 for c in run.certificate)

    def test_deterministic_up_to_timings(self):
        cfg = ExperimentConfig(dims=((1, 1),), kinds=("ma",), d=40, epochs=2,
                               seeds=(3,), planes=3, hidden=(4,))
        a = strip_times(run_benchmark(cfg).to_json())
        b = strip_times(run_benchmark(cfg).to_json())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_each_kind_of_a_group_equals_its_run_alone(self):
        # every kind trains on its group's shared split and epoch orders,
        # which are the draws a run of that kind alone makes
        cfg = dict(dims=((1, 1), (2, 3)), d=40, epochs=2, seeds=(0, 5), planes=3,
                   hidden=(4,))
        group = run_benchmark(ExperimentConfig(**cfg))
        for kind in ALL_KINDS:
            alone = run_benchmark(ExperimentConfig(kinds=(kind,), **cfg))
            for n, m in cfg["dims"]:
                a, b = group.cell(kind, n, m), alone.cell(kind, n, m)
                assert (json.dumps(strip_times(a.to_json()), sort_keys=True)
                        == json.dumps(strip_times(b.to_json()), sort_keys=True))
                for r, s in zip(a.runs, b.runs):
                    assert model_to_json(r.net) == model_to_json(s.net)

    def test_one_split_and_one_set_of_epoch_orders_per_group(self, monkeypatch):
        calls = []
        shuffle = Rng.shuffle_indices

        def counting(self, n):
            calls.append(n)
            return shuffle(self, n)

        monkeypatch.setattr(Rng, "shuffle_indices", counting)
        cfg = ExperimentConfig(dims=((1, 1), (2, 3)), kinds=("plse", "ma", "fnn"),
                               d=40, epochs=3, seeds=(0, 1), planes=3, hidden=(4,))
        report = run_benchmark(cfg)
        groups = len(cfg.dims) * len(cfg.seeds)
        # one split of the 40 rows, then one order of the 36 training rows
        # per epoch, whatever the number of kinds
        assert calls == ([40] + [36] * cfg.epochs) * groups
        for cell in report.cells:
            assert [r.prepare_time_s for r in cell.runs] == [
                report.cell("plse", cell.n, cell.m).runs[i].prepare_time_s
                for i in range(len(cfg.seeds))]
            assert all(r.prepare_time_s > 0 for r in cell.runs)

    def test_divergence_recorded_not_fatal(self):
        cfg = ExperimentConfig(dims=((1, 1),), kinds=("fnn",), d=40, epochs=2,
                               seeds=(0,), hidden=(8, 8), learning_rate=1e60)
        report = run_benchmark(cfg)
        (cell,) = report.cells
        assert cell.runs[0].train_status == "diverged"
        assert cell.mean("minimizer_error") is None
        assert cell.runs[0].minimizer_error == []

    def test_disjointness_guard(self):
        X = np.arange(6, dtype=np.float64).reshape(3, 2)
        ds = Dataset(2, 1, X, np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(RuntimeError):
            _assert_disjoint(ds, ds.subset(np.array([1])))
        _assert_disjoint(ds.subset(np.array([0, 2])), ds.subset(np.array([1])))

    def test_metadata_flags_decisions(self, tiny_report):
        _, report = tiny_report
        meta = report.metadata
        assert meta["runs_per_cell"] == 2
        assert "value_error" in meta and "value_error_true" in meta

    def test_metadata_env_block(self, tiny_report):
        _, report = tiny_report
        env = report.to_json()["metadata"]["env"]
        assert set(env) == {"python", "numpy", "cpu_count", "git_rev"}
        assert env["numpy"] == np.__version__ and env["python"].count(".") == 2
        assert env["cpu_count"] == os.cpu_count()
        rev = env["git_rev"]
        assert rev is None or (len(rev) == 40 and set(rev) <= set("0123456789abcdef"))
        assert json.loads(json.dumps(env)) == env

    def test_git_rev_from_head(self, tmp_path):
        sha, other = "a" * 40, "b" * 40
        assert _git_rev(tmp_path) is None  # no checkout
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        assert _git_rev(tmp_path) is None  # a branch with no commit yet
        (git / "packed-refs").write_text(
            f"# pack-refs with: peeled\n{other} refs/heads/dev\n{sha} refs/heads/main\n")
        assert _git_rev(tmp_path) == sha
        (git / "refs" / "heads" / "main").write_text(other + "\n")
        assert _git_rev(tmp_path) == other  # a loose ref wins over the packed one
        (git / "HEAD").write_text(sha + "\n")
        assert _git_rev(tmp_path) == sha  # detached


class TestSurfaceDump:
    def test_row_count_and_header(self, tmp_path):
        # one plane, f = x + 2u, so the columns show which axis is which
        net = Bank(n=1, m=1, mlp=MlpParams([np.array([[1.0, 2.0]])], [np.zeros(1)]))
        path = tmp_path / "surf.csv"
        surface_dump(net, 3, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,u,f"
        assert len(lines) == 1 + 9
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        table = {(r[0], r[1]): r[2] for r in rows}
        assert table[(-1.0, 0.0)] == -1.0 and table[(0.0, 1.0)] == 2.0

    @pytest.mark.parametrize("resolution", [2, 7])
    def test_bytes_match_meshgrid_build(self, tmp_path, resolution):
        # the reference is the build surface_dump once had: one linspace
        # axis, meshgrid(indexing="ij"), each grid raveled to a column
        net = Bank(n=1, m=1, mlp=MlpParams([np.array([[0.3, -1.7], [2.1, 0.4]])],
                                           [np.array([0.05, -0.2])]), T=0.1)
        axis = np.linspace(-1.0, 1.0, resolution)
        Xg, Ug = np.meshgrid(axis, axis, indexing="ij")
        X, U = Xg.reshape(-1, 1), Ug.reshape(-1, 1)
        want = "x,u,f\n" + "".join(
            f"{float(xv)!r},{float(uv)!r},{float(fv)!r}\n"
            for xv, uv, fv in zip(X[:, 0], U[:, 0], forward_batch(net, X, U)))
        path = tmp_path / "surf.csv"
        surface_dump(net, resolution, path)
        assert path.read_text() == want

    def test_constant_net(self, tmp_path):
        net = Bank(n=1, m=1, mlp=MlpParams([np.zeros((1, 2))], [np.array([2.5])]))
        path = tmp_path / "surf.csv"
        surface_dump(net, 4, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.all(rows[:, 2] == 2.5)

    def test_wrong_dims_rejected(self, tmp_path):
        net = Bank(n=2, m=1, mlp=MlpParams([np.ones((1, 3))], [np.zeros(1)]))
        with pytest.raises(DimensionMismatch):
            surface_dump(net, 3, tmp_path / "surf.csv")
        good = Bank(n=1, m=1, mlp=MlpParams([np.ones((1, 2))], [np.zeros(1)]))
        with pytest.raises(ValueError):
            surface_dump(good, 1, tmp_path / "surf.csv")


class TestExportReport:
    def test_files_and_round_trip(self, tiny_report, tmp_path):
        cfg, report = tiny_report
        export_artifacts(report, cfg, tmp_path)
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "samples.json").exists()
        for kind in cfg.kinds:
            assert (tmp_path / f"surface_{kind}.csv").exists()
            assert (tmp_path / "models" / f"{kind}_1x1.json").exists()
            assert (tmp_path / "models" / f"{kind}_2x2.json").exists()
        doc = json.loads((tmp_path / "samples.json").read_text())
        for cell_doc, cell in zip(doc["cells"], report.cells):
            pooled = [v for r in cell_doc["runs"] for v in r["minimizer_error"]]
            assert abs(np.mean(pooled) - cell_doc["mean_minimizer_error"]) <= 1e-12
            assert cell_doc["kind"] == cell.kind

    def test_csv_layout(self, tiny_report, tmp_path):
        cfg, report = tiny_report
        export_report(report, tmp_path)
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "kind"
        assert header[1:4] == ["time_1x1", "minimizer_err_1x1", "value_err_1x1"]
        assert len(lines) == 1 + len(cfg.kinds)
        row = lines[1].split(",")
        assert row[0] == cfg.kinds[0]
        assert len(row) == 1 + 3 * len(cfg.dims)
        assert float(row[1]) >= 0

    def test_empty_kinds_header_only(self, tmp_path):
        # a config refuses an empty kinds list, so the report is built directly
        report = BenchmarkReport(cells=[], metadata={"dims": [[1, 1]], "kinds": []})
        export_report(report, tmp_path)
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 1
        assert lines[0] == "kind,time_1x1,minimizer_err_1x1,value_err_1x1"

    def test_export_is_deterministic(self, tiny_report, tmp_path):
        cfg, report = tiny_report
        export_report(report, tmp_path / "a")
        export_report(report, tmp_path / "b")
        assert (tmp_path / "a" / "samples.json").read_bytes() == (
            tmp_path / "b" / "samples.json"
        ).read_bytes()

    def test_diverged_cell_leaves_blank_csv_cells(self, tmp_path):
        cfg = ExperimentConfig(dims=((1, 1),), kinds=("fnn",), d=40, epochs=2,
                               seeds=(0,), hidden=(8, 8), learning_rate=1e60)
        report = run_benchmark(cfg)
        export_report(report, tmp_path)
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert lines[1].split(",") == ["fnn", "", "", ""]
