"""Write the golden files that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/data/make_golden.py

For every kind at 1x1 and 2x3 (I=6, hidden=(8, 8)) it saves the freshly
initialized and the 3-epoch trained model exactly as `save_model` writes
them, and a numbers file with the training losses, `forward_batch` values
of the trained model at fixed points, and `minimize`/`minimize_batch`
results (traces included) at a few fixed conditions. It uses only the
public entry points, so the files pin what those return. It also writes
check_seed42.json, what `paraconvex check --seed 42` prints. Rerunning it
must leave every file unchanged.
"""

import json
import os

import numpy as np

from paraconvex.bench import make_benchmark_dataset
from paraconvex.networks import forward_batch, save_model
from paraconvex.numerics import BoxDomain, Rng
from paraconvex.solver import SolveOptions, minimize, minimize_batch
from paraconvex.training import TrainConfig, init_network, train
from paraconvex.verification import run_check_suite

DATA = os.path.dirname(os.path.abspath(__file__))
HERE = os.path.join(DATA, "golden")
KINDS = ("ma", "lse", "pma", "plse", "fnn")
DIMS = ((1, 1), (2, 3))
OPTS = dict(keep_trace=True, restarts=4, seed=5, max_iters=60)


def case_name(kind, n, m):
    return f"{kind}_{n}x{m}"


def result_doc(res):
    return {
        "u_star": [float(v) for v in res.u_star],
        "value": res.value,
        "certificate": float(res.certificate),
        "iterations": res.iterations,
        "status": res.status,
        "trace": [float(v) for v in res.trace],
    }


def numbers(kind, n, m, init, trained, report):
    rng = Rng(11)
    X = rng.uniform_in(-1.0, 1.0, 12 * n).reshape(12, n)
    U = rng.uniform_in(-1.0, 1.0, 12 * m).reshape(12, m)
    conditions = rng.uniform_in(-1.0, 1.0, 3 * n).reshape(3, n)
    domain = BoxDomain.symmetric(m)
    opts = SolveOptions(**OPTS)
    return {
        "train_losses": report.train_losses,
        "test_losses": report.test_losses,
        "X": X.tolist(),
        "U": U.tolist(),
        "forward_init": forward_batch(init, X, U).tolist(),
        "forward_trained": forward_batch(trained, X, U).tolist(),
        "conditions": conditions.tolist(),
        "minimize": [result_doc(minimize(trained, x, domain, opts))
                     for x in conditions],
        "minimize_batch": [result_doc(r)
                           for r in minimize_batch(trained, conditions, domain, opts)],
    }


def check_text():
    """What `paraconvex check --seed 42` prints."""
    reports = run_check_suite("all", seed=42)
    return json.dumps([r.to_json() for r in reports], sort_keys=True, indent=1) + "\n"


def main():
    os.makedirs(HERE, exist_ok=True)
    for n, m in DIMS:
        ds = make_benchmark_dataset(n, m, 150, Rng(7))
        for k, kind in enumerate(KINDS):
            name = case_name(kind, n, m)
            init = init_network(kind, n, m, seed=20 + k, I=6, T=0.1, hidden=(8, 8))
            trained, report = train(init, ds, TrainConfig(epochs=3, batch_size=32,
                                                          seed=3))
            save_model(init, os.path.join(HERE, f"{name}_init.json"))
            save_model(trained, os.path.join(HERE, f"{name}_trained.json"))
            with open(os.path.join(HERE, f"{name}_numbers.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(numbers(kind, n, m, init, trained, report), fh,
                          sort_keys=True)
                fh.write("\n")
    with open(os.path.join(DATA, "check_seed42.json"), "w", encoding="utf-8") as fh:
        fh.write(check_text())


if __name__ == "__main__":
    main()
