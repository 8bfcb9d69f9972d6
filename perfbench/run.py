"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload desk-1x1 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory. With `--trace 0` the run times the workload untraced and
reports the end-to-end metrics, with times scaled to a reference host speed
(see hostspeed.py). With `--trace 1` it runs the workload twice
in one process, untraced and then under the span tracer, reports the
per-layer metrics and the tracing overhead, and requires the accuracy
metrics and exact counts of the two passes to be equal.

The fixed work of each workload is sized so that its timed phase lasts about
`--seconds` on a 2-CPU x86 host; `--seconds` is recorded, not used to scale
the work, so every run of a seed does the same work and its exact counts
repeat.

Human-readable lines come first: the environment block, every metric with
its unit, `ops` and `ops_failed`, and any failed check. The last line is the
JSON object `{"correct", "attempted", "failed", "metrics"}`. The full result,
with the environment, is also written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = "1"  # one caller, 30x20 to 64x64 operands: threads only add noise

# Before numpy loads: the BLAS thread count must not exceed nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed, pin_to_one_cpu  # noqa: E402


def import_library():
    """Import paraconvex from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import paraconvex
        import paraconvex.bench
    except ImportError as exc:
        sys.exit(f"error: cannot import paraconvex from {src}: {exc}")
    if Path(paraconvex.__file__).resolve().parent.parent != src:
        sys.exit(f"error: paraconvex was imported from {paraconvex.__file__}, not {src}")
    return paraconvex


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(np, seed: int, seconds: int, pinned_cpu: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    rev = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else None
        rev = ref
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "cpu": cpu,
        "git_rev": rev,  # None in an exported checkout; the digest still names the code
        "src_sha256": source_digest(),
        "seed": seed,
        "seconds": seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    cpu = pin_to_one_cpu()
    pc = import_library()
    import numpy as np

    env = environment(np, args.seed, args.seconds, cpu)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = str(OUT / f"artifacts-{tag}-{os.getpid()}")
    workload = workloads.make(args.workload, scratch)

    if args.trace:
        result = metrics.traced(pc, workload, str(ROOT), args.seed, OUT / f"spans-{tag}.npz")
        result.failures += metrics.check_repeat(
            OUT / f"counts-{args.workload}-seed{args.seed}-{env['src_sha256'][:16]}.json",
            result.exact,
        )
    else:
        def set_up():
            with HostSpeed() as speed:
                raw_s, state = workload.setup(pc, str(ROOT), args.seed)
            return raw_s * speed.factor, raw_s, state

        first = set_up()
        with HostSpeed() as speed:
            outcome = workload.run(pc, first[2])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome.failures += workload.check(pc, outcome, args.seed)
        # the other set-ups run after the timed phase and the checks, so that
        # their median spans more than one stretch of the host's speed
        setups = [first] + [set_up() for _ in range(workload.setup_repeats - 1)]
        result = metrics.end_to_end(
            outcome,
            statistics.median(s for s, _, _ in setups),
            statistics.median(r for _, r, _ in setups),
            speed.factor,
            peak_rss_mb,
        )

    doc = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "metrics": result.metrics,
        "extra": result.extra,
        "ops": result.ops,
        "ops_failed": len(result.failures),
        "failures": result.failures,
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print("env " + json.dumps(env, sort_keys=True))
    for name, m in sorted(result.metrics.items()):
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in sorted(result.extra.items()):
        print(f"{name} {value!r}")
    print(f"ops {result.ops}")
    print(f"ops_failed {len(result.failures)}")
    for line in result.failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.ops,
        "failed": len(result.failures),
        "metrics": result.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
