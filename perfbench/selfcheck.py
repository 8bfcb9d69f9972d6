"""Benchmark self-check: run-to-run spread and exact-count repetition.

    python3 perfbench/selfcheck.py --workloads serve-61x20 --seeds 1,2,3,4,5
    python3 perfbench/selfcheck.py --seeds 11-20 --write perfbench/noise.json
    python3 perfbench/selfcheck.py --seeds 7 --trace-repeat 2

Each run is `perfbench/run.py` in its own process, one after another, with
the arguments the command in BENCHMARK.json takes. For every workload the
self-check prints, per end-to-end metric, the median of the runs and the
distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
bound in BENCHMARK.json. It fails when a run is not correct or a spread
other than that of `setup_s` exceeds its bound.

With `--trace-repeat K` it instead makes K traced runs of each seed and
fails unless every exact count (calls, iterations, evaluations, capped
solves, training steps) repeats exactly across them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-repeat", type=int, default=0, metavar="K")
    parser.add_argument("--write", default=None, help="save the spread table as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True
    table = {}
    for workload in args.workloads.split(","):
        if args.trace_repeat:
            for seed in seeds:
                first = None
                for i in range(args.trace_repeat):
                    run = run_once(workload, seed, spec["run_seconds"], 1)
                    exact = {k: m["value"] for k, m in run["metrics"].items()
                             if m["unit"] in ("count", "ratio")}
                    first = first or exact
                    same = exact == first and run["correct"]
                    ok &= same
                    print(f"{workload} seed {seed} traced run {i + 1}: "
                          f"{len(exact)} exact counts {'repeat' if same else 'DIFFER'}, "
                          f"correct={run['correct']} failed={run['failed']} "
                          f"overhead_s={run['metrics']['trace.overhead_s']['value']:.3f}",
                          flush=True)
            continue
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, spec["run_seconds"], 0)
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']} "
                  f"wall_s={run['metrics']['wall_s']['value']:.3f}", flush=True)
            ok &= bool(run["correct"]) and run["failed"] == 0
            runs.append(run)
        if len(runs) < 2:
            continue
        table[workload] = {}
        for name, bound in bounds.items():
            median, rel = spread([r["metrics"][name]["value"] for r in runs])
            table[workload][name] = {"median": median, "iqr_over_median": rel,
                                     "bound": bound, "runs": len(runs)}
            gated = name != "setup_s"
            ok &= rel <= bound or not gated
            flag = "" if rel <= bound / 3 else ("  above bound/3" if rel <= bound else "  ABOVE BOUND")
            print(f"  {name:22s} median {median:12.6g}  spread {rel:7.4f}  "
                  f"bound {bound:.3f}{flag if gated else '  (not gated)'}")
    if args.write and table:
        path = ROOT / args.write
        with open(path, "w") as fh:
            json.dump({"seeds": seeds, "spread": table}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
