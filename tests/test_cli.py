"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import paraconvex
from paraconvex import cli
from paraconvex.networks import Bank, MlpParams, forward_batch, load_model, save_model
from paraconvex.solver import SolveOptions
from paraconvex.training import init_network
from paraconvex.verification import CheckReport

from banks import unit_variance_bank


@pytest.fixture()
def model_path(tmp_path):
    net = init_network("plse", 2, 2, seed=5, I=6, hidden=(8, 8))
    path = tmp_path / "model.json"
    save_model(net, path)
    return str(path)


def run_cli(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


class TestSolve:
    def test_prints_result_json(self, model_path, capsys):
        rc, out, _ = run_cli(["solve", "--model", model_path, "--x", "0.3,-0.7"],
                             capsys)
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {"u_star", "value", "certificate", "certified",
                            "iterations", "status", "wall_time_s"}
        assert doc["status"] in ("converged", "max_iters", "step_underflow")
        assert len(doc["u_star"]) == 2
        assert max(abs(v) for v in doc["u_star"]) <= 1.0
        assert doc["certified"] is True
        assert doc["certificate"] >= 0

    def test_value_is_model_value_at_minimizer(self, model_path, capsys):
        rc, out, _ = run_cli(["solve", "--model", model_path, "--x", "0.1,0.2"],
                             capsys)
        assert rc == 0
        doc = json.loads(out)
        net = load_model(model_path)
        val = forward_batch(net, [[0.1, 0.2]], [doc["u_star"]])[0]
        assert val == doc["value"]

    def test_deterministic_up_to_wall_time(self, model_path, capsys):
        _, out1, _ = run_cli(["solve", "--model", model_path, "--x", "0.3,-0.7"],
                             capsys)
        _, out2, _ = run_cli(["solve", "--model", model_path, "--x", "0.3,-0.7"],
                             capsys)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("wall_time_s"), d2.pop("wall_time_s")
        assert d1 == d2

    @pytest.mark.parametrize("n,x", [(2, "-0.1,0.08"), (2, "0.3,-0.7"), (1, "-0.5")])
    def test_condition_after_a_space(self, tmp_path, n, x, capsys):
        # "--x -0.1,0.08" used to exit 2: argparse read the value as an option
        path = tmp_path / "model.json"
        save_model(init_network("plse", n, 2, seed=5, I=6, hidden=(8, 8)), path)
        docs = []
        for argv in (["--x", x], [f"--x={x}"]):
            rc, out, _ = run_cli(["solve", "--model", str(path), *argv], capsys)
            assert rc == 0
            docs.append(json.loads(out))
            docs[-1].pop("wall_time_s")
        assert docs[0] == docs[1]

    def test_fnn_result_is_uncertified(self, tmp_path, capsys):
        net = init_network("fnn", 1, 1, seed=2, hidden=(8, 8))
        path = tmp_path / "fnn.json"
        save_model(net, path)
        rc, out, _ = run_cli(
            ["solve", "--model", str(path), "--x", "0.5", "--restarts", "4"],
            capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["certificate"] is None
        assert doc["certified"] is False

    def test_missing_model_file(self, tmp_path, capsys):
        rc, _, err = run_cli(
            ["solve", "--model", str(tmp_path / "nope.json"), "--x", "1.0"],
            capsys)
        assert rc == 2
        assert "error:" in err

    def test_bad_vector(self, model_path, capsys):
        rc, _, err = run_cli(["solve", "--model", model_path, "--x", "1.0,zap"],
                             capsys)
        assert rc == 2 and "error:" in err
        rc, _, err = run_cli(["solve", "--model", model_path, "--x", ","],
                             capsys)
        assert rc == 2 and "error:" in err

    def test_non_finite_condition(self, tmp_path, capsys):
        path = tmp_path / "ma.json"
        save_model(init_network("ma", 2, 2, seed=5, I=6), path)
        rc, out, err = run_cli(["solve", "--model", str(path), "--x", "nan,0"],
                               capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "finite" in err

    def test_overflowing_condition(self, tmp_path, capsys):
        # the first plane's x-part is 2 * 1e308: the objective overflows
        A = np.array([[1.0, 1.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 1.0]])
        net = Bank(n=2, m=2, mlp=MlpParams([A], [np.zeros(2)]))
        path = tmp_path / "ma.json"
        save_model(net, path)
        with np.errstate(over="ignore", invalid="ignore"):
            rc, out, err = run_cli(
                ["solve", "--model", str(path), "--x", "1e308,1e308"], capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "non-finite" in err

    def test_overflowed_bank_is_not_certified(self, tmp_path, capsys):
        # one plane's offset overflows to -inf while the top plane stays
        # finite: the solve used to exit 0 with a certificate
        path = tmp_path / "ma.json"
        save_model(unit_variance_bank(2, 2, seed=0, I=6), path)
        with np.errstate(over="ignore"):
            rc, out, err = run_cli(
                ["solve", "--model", str(path), "--x", "1e308,1e308"], capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "non-finite" in err

    @pytest.mark.parametrize("key", ["weights", "kind", "I"])
    def test_malformed_model(self, model_path, key, capsys):
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc[key]
        with open(model_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        rc, out, err = run_cli(["solve", "--model", model_path, "--x", "0.1,0.1"],
                               capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and key in err

    def test_non_integer_width_is_malformed(self, tmp_path):
        # the console script path: a clean error line, no traceback
        with open(os.path.join(GOLDEN, "plse_1x1_trained.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**doc, "m": 1.0}))
        src = os.path.dirname(os.path.dirname(paraconvex.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "paraconvex.cli", "solve", "--model", str(path),
             "--x", "0.1"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ("error: malformed model JSON: "
                               "m must be an integer, got 1.0\n")

    def test_boolean_width_is_malformed(self, tmp_path, capsys):
        with open(os.path.join(GOLDEN, "plse_1x1_trained.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**doc, "n": True}))
        rc, out, err = run_cli(["solve", "--model", str(path), "--x", "0.1"], capsys)
        assert rc == 2 and out == ""
        assert err == "error: malformed model JSON: n must be an integer, got True\n"

    @pytest.mark.parametrize("key, value, why", [
        ("seed", "abc", "seed must be an integer, got 'abc'"),
        ("seed", -5, "seed must be >= 0"),
        ("seed", True, "seed must be an integer, got True"),
        ("format_version", True, "unsupported model format_version True"),
        # a float count would load and be written back as an integer
        ("I", 6.0, "I must be an integer, got 6.0"),
        ("I", True, "I must be an integer, got True"),
    ])
    def test_bad_metadata_is_malformed(self, tmp_path, capsys, key, value, why):
        with open(os.path.join(GOLDEN, "plse_1x1_trained.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**doc, key: value}))
        rc, out, err = run_cli(["solve", "--model", str(path), "--x", "0.1"], capsys)
        assert rc == 2 and out == ""
        assert err == f"error: malformed model JSON: {why}\n"

    @pytest.mark.parametrize("key, value, got", [("T", "hot", "T='hot', I=None"),
                                                 ("I", 99, "T=None, I=99")])
    def test_fnn_metadata_is_malformed(self, tmp_path, capsys, key, value, got):
        with open(os.path.join(GOLDEN, "fnn_1x1_trained.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**doc, key: value}))
        rc, out, err = run_cli(["solve", "--model", str(path), "--x", "0.1"], capsys)
        assert rc == 2 and out == ""
        assert err == f"error: malformed model JSON: an fnn model takes null T and I, got {got}\n"

    @pytest.mark.parametrize("T", [True, float("inf"), "0.1"])
    def test_bad_temperature_is_malformed(self, tmp_path, capsys, T):
        with open(os.path.join(GOLDEN, "plse_1x1_trained.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**doc, "T": T}))
        rc, out, err = run_cli(["solve", "--model", str(path), "--x", "0.1"], capsys)
        assert rc == 2 and out == "" and "Traceback" not in err
        assert err == ("error: malformed model JSON: temperature must be a "
                       f"positive finite number, got {T!r}\n")

    @pytest.mark.parametrize("kind", ["plse", "ma", "fnn"])
    def test_non_finite_weight_is_malformed(self, tmp_path, capsys, kind):
        # json.load accepts NaN: the solve used to blame the condition
        with open(os.path.join(GOLDEN, f"{kind}_1x1_trained.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["weights"][0]["W"][0] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_cli(["solve", "--model", str(path), "--x", "0.1"], capsys)
        assert rc == 2 and out == ""
        assert err == ("error: malformed model JSON: layer 0 holds a non-finite "
                       "weight or bias\n")

    def test_negative_seed(self, model_path, capsys):
        rc, out, err = run_cli(
            ["solve", "--model", model_path, "--x", "0.1,0.1", "--seed", "-1"], capsys)
        assert rc == 2 and out == ""
        assert err == "error: seed must be >= 0\n"

    def test_bad_tolerance(self, model_path, capsys):
        rc, _, err = run_cli(
            ["solve", "--model", model_path, "--x", "0.1,0.1", "--tol", "-1"],
            capsys)
        assert rc == 2 and "error:" in err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance(self, model_path, tol, capsys):
        rc, out, err = run_cli(
            ["solve", "--model", model_path, "--x", "0.1,0.1", "--tol", tol], capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "grad_tolerance" in err

    def test_defaults_are_solve_options(self):
        args = cli.build_parser().parse_args(["solve", "--model", "m.json", "--x", "0.1"])
        opts = SolveOptions()
        assert (args.tol, args.max_iters, args.restarts, args.seed) == (
            opts.grad_tolerance, opts.max_iters, opts.restarts, opts.seed)


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
GOLDEN_CASES = sorted(f[: -len("_numbers.json")] for f in os.listdir(GOLDEN)
                      if f.endswith("_numbers.json"))


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_solve_reproduces_golden_minimize(name, capsys):
    """`paraconvex solve` on a golden trained model returns its recorded
    `minimize` result at every recorded condition (make_golden.py options)."""
    with open(os.path.join(GOLDEN, f"{name}_numbers.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    model = os.path.join(GOLDEN, f"{name}_trained.json")
    keys = ("u_star", "value", "iterations", "status", "certificate")
    for x, record in zip(doc["conditions"], doc["minimize"], strict=True):
        rc, out, _ = run_cli(
            ["solve", "--model", model, "--x", ",".join(map(repr, x)),
             "--max-iters", "60", "--restarts", "4", "--seed", "5"], capsys)
        assert rc == 0
        want = {k: record[k] for k in keys}
        if want["certificate"] == float("inf"):  # fnn: uncertified
            want["certificate"] = None
        assert {k: json.loads(out)[k] for k in keys} == want


class TestCheck:
    def test_envelope_suite(self, capsys):
        rc, out, _ = run_cli(["check", "--suite", "envelope", "--seed", "42"],
                             capsys)
        assert rc == 0
        docs = json.loads(out)
        assert [d["name"] for d in docs] == [
            "envelope:quadratic", "envelope:absolute", "envelope:huber-spot",
        ]
        assert all(d["passed"] for d in docs)

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(["check", "--suite", "envelope", "--seed", "7"],
                             capsys)
        _, out2, _ = run_cli(["check", "--suite", "envelope", "--seed", "7"],
                             capsys)
        assert out1 == out2

    def test_negative_seed_rejected(self, capsys):
        rc, out, err = run_cli(["check", "--suite", "envelope", "--seed", "-1"], capsys)
        assert rc == 2 and out == ""
        assert err.strip() == "error: seed must be >= 0"

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["check", "--suite", "everything"])

    def test_failure_exits_nonzero(self, capsys, monkeypatch):
        failed = CheckReport(name="stub", samples=1, max_violation=1.0,
                             passed=False, notes="")
        monkeypatch.setattr(cli, "run_check_suite", lambda suite, seed=0: [failed])
        rc, out, _ = run_cli(["check", "--suite", "all"], capsys)
        assert rc == 1
        assert json.loads(out)[0]["passed"] is False


class TestBenchmark:
    CFG = (
        "dims = 1x1\n"
        "kinds = ma\n"
        "d = 60\n"
        "epochs = 2\n"
        "seeds = 0\n"
        "planes = 3\n"
        "hidden = 4\n"
        "surface_resolution = 4\n"
    )

    def test_runs_from_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(self.CFG + f"outdir = {tmp_path / 'out'}\n")
        rc, out, _ = run_cli(["benchmark", "--config", str(cfg_path)], capsys)
        assert rc == 0
        assert json.loads(out)["cells"] == 1
        outdir = tmp_path / "out"
        assert (outdir / "report.csv").exists()
        assert (outdir / "samples.json").exists()
        assert (outdir / "surface_ma.csv").exists()
        assert (outdir / "models" / "ma_1x1.json").exists()

    def test_flag_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(self.CFG)
        outdir = tmp_path / "other"
        rc, _, _ = run_cli(
            ["benchmark", "--config", str(cfg_path), "--kinds", "fnn",
             "--out", str(outdir), "--full"],
            capsys)
        assert rc == 0
        doc = json.loads((outdir / "samples.json").read_text())
        assert doc["metadata"]["kinds"] == ["fnn"]
        assert doc["metadata"]["full"] is True
        assert (outdir / "models" / "fnn_1x1.json").exists()

    def test_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text("warp = 9\n")
        rc, _, err = run_cli(["benchmark", "--config", str(cfg_path)], capsys)
        assert rc == 2 and "error:" in err

    def test_bad_config_value_names_its_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("d = many\n")
        rc, _, err = run_cli(["benchmark", "--config", str(cfg_path)], capsys)
        assert rc == 2 and err.startswith("error: line 1:")

    def test_out_of_range_value_fails_before_training(self, tmp_path, capsys,
                                                      monkeypatch):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(self.CFG + "temperature = -1\n")

        def trains(cfg):
            raise AssertionError("a cell trained on a config with a bad value")

        monkeypatch.setattr(cli, "run_benchmark", trains)
        rc, _, err = run_cli(["benchmark", "--config", str(cfg_path)], capsys)
        assert rc == 2
        assert err == ("error: line 9: temperature must be a positive finite number, "
                       "got -1.0\n")

    def test_infinite_learning_rate_fails_before_training(self, tmp_path, capsys,
                                                          monkeypatch):
        # an infinite rate used to train, warn from adam_step and exit 0
        # with every run "diverged"
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(self.CFG + "learning_rate = inf\n")

        def trains(cfg):
            raise AssertionError("a cell trained with an infinite learning rate")

        monkeypatch.setattr(cli, "run_benchmark", trains)
        rc, _, err = run_cli(["benchmark", "--config", str(cfg_path)], capsys)
        assert rc == 2
        assert err == ("error: line 9: learning_rate must be a positive finite number, "
                       "got inf\n")

    @pytest.mark.parametrize("line, bad, message", [
        # 0.05 * 10 rows leaves the training split empty
        ("d = 60\n", "d = 10\nsplit_ratio = 0.05\n",
         "error: split_ratio leaves the 1x1 cell no training rows\n"),
        ("kinds = ma\n", "kinds =\n", "error: line 2: kinds list is empty\n"),
    ])
    def test_empty_split_or_kinds_fails_before_training(self, tmp_path, capsys,
                                                        monkeypatch, line, bad, message):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(self.CFG.replace(line, bad))

        def trains(cfg):
            raise AssertionError("a cell trained on a config with an empty list or split")

        monkeypatch.setattr(cli, "run_benchmark", trains)
        rc, _, err = run_cli(["benchmark", "--config", str(cfg_path)], capsys)
        assert rc == 2 and err == message

    def test_empty_kinds_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(self.CFG)
        rc, out, err = run_cli(["benchmark", "--config", str(cfg_path), "--kinds", ",",
                                "--out", str(tmp_path / "out")], capsys)
        assert rc == 2 and out == ""
        assert err == "error: kinds list is empty\n"
        assert not (tmp_path / "out").exists()

    def test_repeated_kind_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(self.CFG)
        rc, out, err = run_cli(["benchmark", "--config", str(cfg_path), "--kinds",
                                "plse,plse", "--out", str(tmp_path / "out")], capsys)
        assert rc == 2 and out == ""
        assert err == "error: kinds repeats an entry\n"
        assert not (tmp_path / "out").exists()

    def test_exported_model_round_trips(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(self.CFG + f"outdir = {tmp_path / 'out'}\n")
        run_cli(["benchmark", "--config", str(cfg_path)], capsys)
        net = load_model(tmp_path / "out" / "models" / "ma_1x1.json")
        assert net.kind == "ma" and net.n == 1 and net.m == 1


def test_runtime_imports_numpy_only():
    # scipy and hypothesis are test-only dependencies: no runtime module may
    # pull them in
    src = os.path.dirname(os.path.dirname(paraconvex.__file__))
    code = ("import sys, paraconvex, paraconvex.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'hypothesis')))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
