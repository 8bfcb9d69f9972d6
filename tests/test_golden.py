"""Models and numbers recorded in tests/data/golden must be reproduced exactly.

The files were written by tests/data/make_golden.py before networks of all
kinds became one Bank type; they pin the model files, training, forward
values and solver results (traces included) of every kind at 1x1 and 2x3.
The solver records of the bank kinds were rewritten by the same script when
ma/pma became an exact LP solve and every value came to be scored as
`forward_batch` scores it, the ma/lse files again when fixed banks came
to start from `init_mlp` like every other net, and the lse_2x3 and plse_1x1
files when lse/plse rows came to stop on their certificate.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from paraconvex.bench import make_benchmark_dataset
from paraconvex.exceptions import ModelFormatError
from paraconvex.networks import (
    forward_batch,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from paraconvex.numerics import BoxDomain, Rng
from paraconvex.solver import SolveOptions, minimize, minimize_batch
from paraconvex.training import TrainConfig, init_network, train

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN = os.path.join(DATA, "golden")
_spec = importlib.util.spec_from_file_location(
    "make_golden", os.path.join(DATA, "make_golden.py"))
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)
KINDS, DIMS, OPTS = make_golden.KINDS, make_golden.DIMS, make_golden.OPTS
result_doc = make_golden.result_doc
CASES = [(kind, n, m) for n, m in DIMS for kind in KINDS]


def _path(kind, n, m, what):
    return os.path.join(GOLDEN, f"{kind}_{n}x{m}_{what}.json")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("kind,n,m", CASES)
@pytest.mark.parametrize("what", ["init", "trained"])
def test_model_file_reloads_and_resaves_byte_identically(kind, n, m, what, tmp_path):
    path = _path(kind, n, m, what)
    net = load_model(path)
    assert net.kind == kind and (net.n, net.m) == (n, m)
    save_model(net, tmp_path / "again.json")
    assert _read(tmp_path / "again.json") == _read(path)


@pytest.mark.parametrize("kind,n,m", CASES)
def test_init_and_train_reproduce_the_model_files(kind, n, m, tmp_path):
    k = KINDS.index(kind)
    init = init_network(kind, n, m, seed=20 + k, I=6, T=0.1, hidden=(8, 8))
    ds = make_benchmark_dataset(n, m, 150, Rng(7))
    trained, report = train(init, ds, TrainConfig(epochs=3, batch_size=32, seed=3))
    save_model(init, tmp_path / "init.json")
    save_model(trained, tmp_path / "trained.json")
    assert _read(tmp_path / "init.json") == _read(_path(kind, n, m, "init"))
    assert _read(tmp_path / "trained.json") == _read(_path(kind, n, m, "trained"))
    with open(_path(kind, n, m, "numbers"), encoding="utf-8") as fh:
        want = json.load(fh)
    assert report.train_losses == want["train_losses"]
    assert report.test_losses == want["test_losses"]


@pytest.mark.parametrize("kind,n,m", CASES)
def test_forward_and_solves_reproduce_the_numbers(kind, n, m):
    with open(_path(kind, n, m, "numbers"), encoding="utf-8") as fh:
        want = json.load(fh)
    init = load_model(_path(kind, n, m, "init"))
    trained = load_model(_path(kind, n, m, "trained"))
    X, U = np.array(want["X"]), np.array(want["U"])
    assert forward_batch(init, X, U).tolist() == want["forward_init"]
    assert forward_batch(trained, X, U).tolist() == want["forward_trained"]
    domain = BoxDomain.symmetric(m)
    opts = SolveOptions(**OPTS)
    conditions = np.array(want["conditions"])
    got = [result_doc(minimize(trained, x, domain, opts)) for x in conditions]
    assert got == want["minimize"]
    got = [result_doc(r) for r in minimize_batch(trained, conditions, domain, opts)]
    assert got == want["minimize_batch"]


def test_generator_is_reproducible(tmp_path):
    """make_golden.py rewrites the very files that are committed,
    check_seed42.json included."""
    script = os.path.join(DATA, "make_golden.py")
    src = os.path.join(os.path.dirname(DATA), os.pardir, "src")
    copy = tmp_path / "make_golden.py"
    copy.write_text(_read(script).decode("utf-8"), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, str(copy)], check=True, env=env)
    for name in sorted(os.listdir(GOLDEN)):
        assert _read(tmp_path / "golden" / name) == _read(os.path.join(GOLDEN, name))
    name = "check_seed42.json"
    assert _read(tmp_path / name) == _read(os.path.join(DATA, name))


class TestKindMustMatchStructure:
    def _doc(self, kind, n=2, m=3):
        return model_to_json(load_model(_path(kind, n, m, "init")))

    @pytest.mark.parametrize("kind", ["ma", "pma"])
    def test_max_kind_with_a_temperature(self, kind):
        doc = self._doc(kind)
        doc["T"] = 0.1
        with pytest.raises(ModelFormatError, match="temperature"):
            model_from_json(doc)

    @pytest.mark.parametrize("kind", ["lse", "plse"])
    def test_log_sum_exp_kind_without_one(self, kind):
        doc = self._doc(kind)
        doc["T"] = None
        with pytest.raises(ModelFormatError, match="temperature"):
            model_from_json(doc)

    @pytest.mark.parametrize("kind", ["pma", "plse"])
    def test_plane_count_must_match_the_output_width(self, kind):
        doc = self._doc(kind)
        doc["I"] = 5
        with pytest.raises(ModelFormatError, match="I=5"):
            model_from_json(doc)

    def test_kind_names_the_structure(self):
        for kind in KINDS:
            doc = self._doc(kind)
            assert model_from_json(doc).kind == kind


def test_check_seed42_matches_the_committed_output():
    with open(os.path.join(DATA, "check_seed42.json"), encoding="utf-8") as fh:
        assert make_golden.check_text() == fh.read()
