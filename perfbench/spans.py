"""Span tracing for the benchmark's traced mode, installed from outside ``src/``.

``Tracer.install()`` replaces every public function of the ``tauberkit``
modules, in every ``tauberkit`` module namespace that binds it, with a
wrapper that records a span, and does the same for the public methods of
``WeightSequence`` and ``DoubleSequence``.  Rebinding the names matters
because ``cli`` and ``harness`` import ``weighted_mean_field``,
``verify_theorem`` and others by name: patching only the defining module
would miss those calls.  Calls the program makes through its own lookup
tables (the window functionals in ``oscillation``) are not seen; their time
stays in the span that made them.

A span is (name, start, end, parent, operation id).  Spans stay in memory
until the run ends.  ``layer_metrics`` turns them into per-layer self times
and counts; a layer's self time is the time its spans spent outside any
child span.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# Bucket of each wrapped callable.  Other cli functions count as cli time;
# anything else not named here lands in "<module>.other_s", which is written
# with the spans but not reported.
BUCKETS = {
    "WeightSequence.ensure": "sequences.prefix_s",
    "WeightSequence.ensure_sum_exceeds": "sequences.prefix_s",
    "DoubleSequence.block": "sequences.block_s",
    "DoubleSequence.evaluate": "sequences.block_s",
    "sequences.eval_grid": "sequences.block_s",
    "transform.weighted_mean_field": "transform.mean_field_s",
    "transform.sigma_single": "transform.sigma_single_s",
    "transform.export_grid_csv": "transform.export_csv_s",
    "variation.classify_adaptive": "variation.classify_s",
    "variation.classify": "variation.classify_s",
    "variation.estimate_rv_index": "variation.classify_s",
    "variation.lemma23_check": "variation.classify_s",
    "variation.ratio_profile": "variation.classify_s",
    "variation.classification_report": "variation.classify_s",
    "oscillation.build_window_profile": "oscillation.window_profile_s",
    "oscillation.profile_samples": "oscillation.window_profile_s",
    "oscillation.window_upper_index": "oscillation.window_profile_s",
    "oscillation.backward_window_lower_index": "oscillation.window_profile_s",
    "oscillation.build_bound_profile": "oscillation.bound_profile_s",
    "oscillation.landau_stat": "oscillation.bound_profile_s",
    "oscillation.hardy_stat": "oscillation.bound_profile_s",
    "oscillation.empirical_limit": "oscillation.limit_s",
    "oscillation.export_profiles_csv": "oscillation.export_s",
    "oscillation.export_samples_csv": "oscillation.export_s",
    "harness.verify_theorem": "harness.verify_self_s",
    "harness.report_json": "harness.report_json_s",
    "harness.lemma_forward": "harness.lemma_s",
    "harness.lemma_backward": "harness.lemma_s",
    "harness.lemma_residual_suite": "harness.lemma_s",
    "harness.proof_inequality_forward": "harness.proof_s",
    "harness.proof_inequality_backward": "harness.proof_s",
    "harness.choose_mu": "harness.chooser_s",
    "harness.choose_mu_backward": "harness.chooser_s",
    "cli.main": "cli.self_s",
}

# format_float runs once per exported number; a span per call would cost
# more than the formatting it times, so its time stays with the exporter.
UNWRAPPED = {"transform.format_float"}

WINDOW_SPANS = {"oscillation.build_window_profile", "oscillation.profile_samples"}

# Reported per-layer metrics: (name, unit, better).  Time metrics are bucket
# self times; the rest are counts derived in layer_metrics.
LAYER_METRICS = [
    ("sequences.prefix_s", "s", "lower"),
    ("sequences.prefix_indices", "count", "lower"),
    ("sequences.block_s", "s", "lower"),
    ("sequences.block_cells", "count", "lower"),
    ("variation.classify_s", "s", "lower"),
    ("variation.horizon_halvings", "count", "lower"),
    ("transform.mean_field_s", "s", "lower"),
    ("transform.mean_field_cells", "count", "lower"),
    ("transform.mean_field_failed_calls", "count", "lower"),
    ("transform.sigma_single_s", "s", "lower"),
    ("transform.sigma_single_cells", "count", "lower"),
    ("transform.export_csv_s", "s", "lower"),
    ("transform.export_csv_bytes", "bytes", "lower"),
    ("oscillation.window_profile_s", "s", "lower"),
    ("oscillation.window_cells", "count", "lower"),
    ("oscillation.rungs_attempted", "count", "lower"),
    ("oscillation.rungs_unsampled", "count", "lower"),
    ("oscillation.bound_profile_s", "s", "lower"),
    ("oscillation.limit_s", "s", "lower"),
    ("oscillation.export_s", "s", "lower"),
    ("harness.verify_self_s", "s", "lower"),
    ("harness.report_json_s", "s", "lower"),
    ("harness.grid_halvings", "count", "lower"),
    ("harness.lemma_s", "s", "lower"),
    ("harness.proof_s", "s", "lower"),
    ("harness.chooser_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.ref_kernel_s", "s", "lower"),
]


def _info(name, args, kwargs, result):
    """Counts a span carries, taken from its arguments and result."""
    if name == "DoubleSequence.block":
        return {"cells": int(result.size)}
    if name == "transform.weighted_mean_field" and result is not None:
        return {"cells": int(result.sigma.values.size)}
    if name == "transform.sigma_single":
        m, n = args[3], args[4]
        return {"cells": (m + 1) * (n + 1)}
    if name == "transform.export_grid_csv":
        return {"bytes": os.path.getsize(args[1])}
    if name == "oscillation.build_window_profile":
        rungs = result.rungs
        return {"rungs": len(rungs), "unsampled": sum(r.stat is None for r in rungs)}
    if name == "harness.verify_theorem":
        cfg = args[4] if len(args) > 4 else kwargs.get("config")
        if cfg is None:
            return None
        requested, halvings = cfg.horizon, 0
        while requested > result.horizon:
            requested //= 2
            halvings += 1
        return {"halvings": halvings}
    return None


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, ok, info]
        self._stack: list[int] = []
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        weight_span = name in ("WeightSequence.ensure", "WeightSequence.ensure_sum_exceeds")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, True, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            before = args[0].evaluated_count if weight_span else 0
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = False
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if weight_span:
                    rec[6] = {"indices": args[0].evaluated_count - before}
            if not weight_span:
                rec[6] = _info(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public tauberkit function and the sequence methods."""
        import tauberkit.sequences as seqmod

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tauberkit" or n.startswith("tauberkit.")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or f"{short}.{attr}" in UNWRAPPED):
                    continue
                wrappers[obj] = self.wrap(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for cls in (seqmod.WeightSequence, seqmod.DoubleSequence):
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                self._restore.append((cls, attr, obj))
                setattr(cls, attr, self.wrap(obj, f"{cls.__name__}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "ok", "info"],
                       "spans": self.spans}, fh)


def bucket_of(name: str) -> str:
    """Reported bucket of a span; cli functions all count as cli time."""
    if name in BUCKETS:
        return BUCKETS[name]
    module = name.partition(".")[0]
    if module == "cli":
        return "cli.self_s"
    if module in ("WeightSequence", "DoubleSequence"):
        module = "sequences"
    return module + ".other_s"


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts from a run's spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    in_window = [False] * len(spans)
    out = {name: 0.0 for name, _, _ in LAYER_METRICS}
    for i, (name, start, end, parent, _op, ok, info) in enumerate(spans):
        in_window[i] = name in WINDOW_SPANS or (parent >= 0 and in_window[parent])
        bucket = bucket_of(name)
        out[bucket] = out.get(bucket, 0.0) + (end - start) - child_time[i]
        info = info or {}
        if name in ("WeightSequence.ensure", "WeightSequence.ensure_sum_exceeds"):
            out["sequences.prefix_indices"] += info.get("indices", 0)
        elif name == "DoubleSequence.block" and ok:
            out["sequences.block_cells"] += info["cells"]
            if in_window[i]:
                out["oscillation.window_cells"] += info["cells"]
        elif name == "transform.weighted_mean_field":
            if ok:
                out["transform.mean_field_cells"] += info["cells"]
            else:
                out["transform.mean_field_failed_calls"] += 1
        elif name == "transform.sigma_single" and ok:
            out["transform.sigma_single_cells"] += info["cells"]
        elif name == "transform.export_grid_csv" and ok:
            out["transform.export_csv_bytes"] += info["bytes"]
        elif name == "oscillation.build_window_profile" and ok:
            out["oscillation.rungs_attempted"] += info["rungs"]
            out["oscillation.rungs_unsampled"] += info["unsampled"]
        elif name == "variation.classify" and parent >= 0 and \
                spans[parent][0] == "variation.classify_adaptive" and not ok:
            out["variation.horizon_halvings"] += 1
        elif name == "harness.verify_theorem" and ok:
            out["harness.grid_halvings"] += info["halvings"]
    return out
