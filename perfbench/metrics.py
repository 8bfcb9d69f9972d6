"""Turn timed and traced workload passes into the named metrics.

End-to-end metrics (untraced run) are what a user of the library sees: set-up
time, wall time of the timed phase, peak memory, solve throughput and the
accuracy of the minimizers; per-kind latency percentiles are printed beside
them without a bound. Per-layer metrics (traced run) are inclusive and self
times, call counts and exact algorithm counts at the library's module
boundaries. Metric names and units are listed in
`BENCHMARK.json`; which end-to-end metric each layer metric should move is in
`perfbench/README.md`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from hostspeed import HostSpeed
from spans import Tracer

KINDS = ("plse", "pma", "lse", "ma", "fnn")
LAYERS = ("numerics", "networks", "training", "solver", "verification", "bench")


@dataclass
class Result:
    metrics: dict
    extra: dict
    ops: int
    failures: list
    exact: dict = field(default_factory=dict)


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _latency(outcome) -> dict:
    """p50 and p90 per kind in ms, with the sample count behind each."""
    out = {}
    for kind, samples in sorted(outcome.solve_s.items()):
        ms = 1e3 * np.asarray(samples, dtype=np.float64)
        out[f"solve_ms_p50.{kind}"] = float(np.percentile(ms, 50))
        out[f"solve_ms_p90.{kind}"] = float(np.percentile(ms, 90))
        out[f"solve_count.{kind}"] = len(ms)
    return out


def end_to_end(outcome, setup_s: float, raw_setup_s: float, speed: float,
               peak_rss_mb: float) -> Result:
    """Times are scaled to the reference host speed (see hostspeed.py):
    `setup_s` by the factor sampled during each set-up, `wall_s` and
    `solves_per_s` by the factor sampled during the timed phase. The raw
    times are kept as extra lines.

    `solves_per_s` counts solves per second of the timed phase. On serve the
    phase is nothing but the solves, so this is solves over their summed
    time; on the desk workloads each kind's solves fill a window of one to a
    few seconds, and summed per-solve times would follow the host's speed in
    those windows rather than the code."""
    solves = sum(len(samples) for samples in outcome.solve_s.values())
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(outcome.wall_s * speed, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "solves_per_s": _metric(solves / (outcome.wall_s * speed), "1/s"),
        "minimizer_err_mean": _metric(outcome.minimizer_err_mean, "1"),
        "value_err_mean": _metric(outcome.value_err_mean, "1"),
    }
    extra = {
        "raw.setup_s": raw_setup_s,
        "raw.wall_s": outcome.wall_s,
        "raw.solves_per_s": solves / outcome.wall_s,
        "host.speed_factor": speed,
        **_latency(outcome),
    }
    return Result(metrics, extra, outcome.ops, list(outcome.failures))


def per_layer(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    s = lambda name: _metric(tr.inclusive.get(name, 0.0), "s")
    calls = lambda name: _metric(tr.calls.get(name, 0), "count")
    m = {}
    for kind in KINDS:
        m[f"training.train.s.{kind}"] = _metric(tr.kind_inclusive.get(("training.train", kind), 0.0), "s")
    m["training.train.self_s"] = _metric(tr.self_time.get("training.train", 0.0), "s")
    for name in ("training.weight_gradients", "training.adam_step", "training.mse_loss",
                 "networks.u_bank", "networks.batch_scores", "networks.shifted_lse",
                 "networks.softmax_over_T", "networks.forward", "solver.first_order_gap",
                 "networks.forward_batch", "networks.grad_u_batch"):
        m[f"{name}.s"], m[f"{name}.calls"] = s(name), calls(name)
    m["networks.forward_batch.rows"] = _metric(tr.counts["networks.forward_batch.rows"], "count")
    for name in ("numerics.shuffle_indices", "numerics.sample_uniform_box",
                 "bench.export_artifacts", "bench.make_benchmark_dataset",
                 "verification.check_convexity"):
        m[f"{name}.s"] = s(name)
    m["bench.run_benchmark.self_s"] = _metric(tr.self_time.get("bench.run_benchmark", 0.0), "s")
    for kind in KINDS:
        solve_s = tr.kind_inclusive.get(("solver.minimize", kind), 0.0)
        iters = tr.counts[f"solver.iterations.{kind}"]
        evals = sum(tr.kind_calls[("solver.minimize", kind, f)]
                    for f in ("networks.shifted_lse", "networks.forward_batch"))
        m[f"solver.minimize.s.{kind}"] = _metric(solve_s, "s")
        m[f"solver.minimize.calls.{kind}"] = _metric(tr.kind_spans[("solver.minimize", kind)], "count")
        m[f"solver.us_per_iter.{kind}"] = _metric(1e6 * solve_s / iters if iters else 0.0, "us")
        m[f"solver.iterations.{kind}"] = _metric(iters, "count")
        m[f"solver.evaluations.{kind}"] = _metric(evals, "count")
        m[f"solver.accept_ratio.{kind}"] = _metric(iters / evals if evals else 0.0, "ratio")
        m[f"solver.capped.{kind}"] = _metric(tr.counts[f"solver.capped.{kind}"], "count")
        m[f"training.steps.{kind}"] = _metric(
            tr.kind_calls[("training.train", kind, "training.adam_step")], "count")
    layer_self = tr.layer_self_time()
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = _metric(layer_self.get(layer, 0.0), "s")
    m["trace.wall_s"] = _metric(traced_wall, "s")
    m["trace.untraced_wall_s"] = _metric(untraced_wall, "s")
    m["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    m["trace.spans"] = _metric(len(tr.span_name), "count")
    m["trace.missing_hooks"] = _metric(len(tr.missing), "count")
    return m


def traced(pc, workload, root: str, seed: int, span_path) -> Result:
    """Untraced pass, then the same work under the tracer; the second pass
    must reproduce the first pass's accuracy and iteration counts exactly.
    The overhead compares the two passes' wall times, each scaled to the
    reference host speed; span times are raw."""
    _, state = workload.setup(pc, root, seed)
    with HostSpeed() as speed:
        plain = workload.run(pc, state)
    untraced_wall = plain.wall_s * speed.factor
    failures = list(plain.failures) + workload.check(pc, plain, seed)

    tr = Tracer()
    tr.install(pc)
    try:
        _, state = workload.setup(pc, root, seed)
        with HostSpeed() as speed:
            traced_outcome = workload.run(pc, state)
    finally:
        tr.uninstall()
    tr.save(span_path)

    metrics = per_layer(tr, traced_outcome.wall_s * speed.factor, untraced_wall)
    for name in ("minimizer_err_mean", "value_err_mean"):
        a, b = getattr(plain, name), getattr(traced_outcome, name)
        if a != b:
            failures.append(f"trace changed {name}: untraced {a!r}, traced {b!r}")
    for kind, iters in plain.iterations.items():
        if metrics[f"solver.iterations.{kind}"]["value"] != iters:
            failures.append(f"trace changed solver.iterations.{kind}")
    extra = {f"missing_hook.{name}": 1 for name in tr.missing}
    extra["accuracy.minimizer_err_mean"] = plain.minimizer_err_mean
    extra["accuracy.value_err_mean"] = plain.value_err_mean
    exact = {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")}
    return Result(metrics, extra, plain.ops, failures, exact)


def check_repeat(path, exact: dict) -> list:
    """Exact counts must repeat in every traced run of the same code and
    seed: compare with the first such run recorded at `path`."""
    if path.is_file():
        with open(path) as fh:
            first = json.load(fh)
        return [f"exact count {k} is {exact.get(k)!r}, an earlier run had {v!r}"
                for k, v in sorted(first.items()) if exact.get(k) != v]
    with open(path, "w") as fh:
        json.dump(exact, fh, indent=1, sort_keys=True)
    return []
