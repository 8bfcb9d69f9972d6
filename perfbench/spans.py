"""In-memory span tracer for the benchmark's traced run.

The tracer wraps library functions at every place they are bound: the
defining module's global and each `from .x import f` copy in the other
paraconvex modules (for example `paraconvex.solver.u_bank` and
`paraconvex.bench.train`), so calls between modules and within a module
both pass through the wrapper. Nothing in the library is edited.

Each wrapped call records a span (name, start, end, parent) in flat arrays
and adds to per-name totals. Self time is a span's duration minus the time
its child spans cover. Calls made inside a `solver.minimize` or a
`training.train` span are also counted against that span's model kind, which
gives the per-kind iteration, evaluation and step counts.

A hook whose target no longer exists is listed in `missing` instead of
raising, so a renamed library function shows up in the report. The tracer
keeps one span stack, so the wrapped functions must be called from one
thread.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (module, attribute) of every wrapped function. Spans are named
# "<module>.<function>"; a method keeps only its own name.
HOOKS = (
    ("numerics", "Rng.shuffle_indices"),
    ("numerics", "sample_uniform_box"),
    ("networks", "u_bank"),
    ("networks", "batch_scores"),
    ("networks", "shifted_lse"),
    ("networks", "softmax_over_T"),
    ("networks", "forward"),
    ("networks", "forward_batch"),
    ("networks", "grad_u_batch"),
    ("training", "train"),
    ("training", "weight_gradients"),
    ("training", "adam_step"),
    ("training", "mse_loss"),
    ("solver", "minimize"),
    ("solver", "first_order_gap"),
    ("verification", "check_convexity"),
    ("bench", "run_benchmark"),
    ("bench", "export_artifacts"),
    ("bench", "make_benchmark_dataset"),
)

# Spans that open a per-kind context: calls beneath them are attributed to
# the kind of the network passed as their first argument.
KIND_SPANS = ("solver.minimize", "training.train")

# The projected-gradient stage runner is private, so it is hooked for a count
# only (a stage that used its whole iteration budget), without a span.
STAGE_HOOK = ("solver", "_pg_on_bank")


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Install with `install(package)`, run the work, then `uninstall()`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.inclusive = defaultdict(float)  # name -> seconds
        self.self_time = defaultdict(float)  # name -> seconds
        self.calls = Counter()  # name -> calls
        self.kind_inclusive = defaultdict(float)  # (name, kind) -> seconds
        self.kind_spans = Counter()  # (name, kind) -> calls
        self.kind_calls = Counter()  # (context, kind, name) -> calls
        self.counts = Counter()  # named counters
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._kinds: list[tuple[str, str]] = []  # (context span, kind)
        self._patches: list[tuple[object, str, object]] = []
        self._stages: list[bool] | None = None  # capped flag per stage of a solve

    # --- installation ---------------------------------------------------

    def install(self, package) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for module, attr in HOOKS:
            self._hook(package, modules, module, attr, self._span_wrapper)
        self._hook(package, modules, *STAGE_HOOK, self._stage_wrapper)
        self._default_opts = package.solver.SolveOptions()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _hook(self, package, modules, module, attr, make_wrapper) -> None:
        owner = getattr(package, module, None)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None)
        if not callable(original):
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make_wrapper(_span_name(module, attr), original)
        if len(path) > 1:  # a method: patch the class only
            self._patch(owner, path[-1], wrapper)
            return
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, binding, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # --- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        opens_kind = name in KIND_SPANS
        counts_rows = name == "networks.forward_batch"
        reads_iterations = name == "solver.minimize"
        clock = time.perf_counter
        stack, kinds = self._stack, self._kinds

        def traced(*args, **kwargs):
            kind = getattr(args[0], "kind", None) if opens_kind and args else None
            if kinds:
                context, ctx_kind = kinds[-1]
                self.kind_calls[(context, ctx_kind, name)] += 1
            if counts_rows and len(args) > 1:
                self.counts["networks.forward_batch.rows"] += len(args[1])
            if kind is not None:
                kinds.append((name, kind))
            parent = stack[-1][0] if stack else -1
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [index, 0.0, 0.0]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.span_start[index] = start
                self.span_end[index] = end
                self.inclusive[name] += duration
                self.self_time[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if kind is not None:
                    kinds.pop()
                    self.kind_inclusive[(name, kind)] += duration
                    self.kind_spans[(name, kind)] += 1
            if reads_iterations and kind is not None:
                self._count_solve(kind, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_solve(self, kind, args, result) -> None:
        self.counts[f"solver.iterations.{kind}"] += result.iterations
        opts = args[3] if len(args) > 3 and args[3] is not None else self._default_opts
        # a solve that ran projected-gradient stages is capped when one of
        # them was; fnn's multi-start loop runs none and reports its sweeps
        if self._stages is None:
            capped = result.iterations >= opts.max_iters
        else:
            capped = any(self._stages)
        self.counts[f"solver.capped.{kind}"] += int(capped)
        self._stages = None

    def _stage_wrapper(self, name: str, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            stages = self._stages if self._stages is not None else []
            stages.append(result[2] >= args[5].max_iters)  # (u, f, iters, trace)
            self._stages = stages
            return result

        counted.__wrapped__ = fn
        return counted

    # --- results ------------------------------------------------------------

    def layer_self_time(self) -> dict[str, float]:
        out = defaultdict(float)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def save(self, path) -> None:
        """Write every span as columns of an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
