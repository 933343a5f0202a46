"""Benchmark of tauberkit's command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 36 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed.  One process, one caller, a closed loop: each operation is a call
of ``tauberkit.cli.main(argv)`` (or, in lemma_checks, of a proof-inequality
function) on inputs built fresh for it, timed whole, followed by checks of
its outputs against references computed apart from the program.  With
``--trace 1`` the same operations run under span wrappers and the run
reports per-layer metrics instead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_PROBES = 15

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=36,
                    help="nominal run length; fixes the number of whole rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import the program, build the inputs and exit (times set-up)")
    return ap.parse_args(argv)


def _import_program():
    if not (SRC / "tauberkit" / "__init__.py").is_file():
        sys.exit(f"error: no tauberkit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tauberkit
    import tauberkit.cli

    if Path(tauberkit.__file__).resolve().parent != SRC / "tauberkit":
        sys.exit(f"error: imported tauberkit from {tauberkit.__file__}, not from {SRC}")
    return tauberkit


def ref_kernel() -> float:
    """Seconds for a fixed pure-Python loop plus a fixed numpy cumsum.

    A machine-speed probe: it shows a slow spell of a shared box, and is
    never used to scale any end-to-end metric.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    arr = np.arange(1_000_000, dtype=np.float64)
    for _ in range(20):
        arr = np.cumsum(arr) * 1e-6
    return time.perf_counter() - t0


def setup_probe(args) -> float:
    """Wall time of one fresh process that starts the interpreter, imports
    numpy and tauberkit and builds this run's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_op(tk, op: dict, out: Path):
    """Run one operation; return (seconds, exit code or None, error, result, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code, error, result = None, None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if op["kind"] == "cli":
                code = tk.cli.main(op["argv"] + ["--out", str(out)])
            else:
                seq = tk.corpus_sequence(op["sequence"])
                p = tk.cli.parse_weight_spec(op["weights_p"])
                q = tk.cli.parse_weight_spec(op["weights_q"])
                fn = (tk.harness.proof_inequality_forward if op["direction"] == "forward"
                      else tk.harness.proof_inequality_backward)
                result = fn(seq, p, q, op["m"], op["n"], op["lam"], op["lam"],
                            op["delta"], op["delta"])
    except Exception as exc:  # an escaped exception is a failed operation
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    return time.perf_counter() - t0, code, error, result, stderr.getvalue()


def check_op(op: dict, code, result, stderr: str, out: Path) -> list[str]:
    kind = op["check"]
    if kind == "report":
        return checks.check_report(op, code, out)
    if kind == "variation":
        return checks.check_variation(op["weights"], op["horizon"], code, out)
    if kind == "sigma_csv":
        return checks.check_sigma_csv(op, code, out)
    if kind == "sweep":
        return checks.check_sweep(op, code, out)
    if kind == "lemma_csv":
        return checks.check_lemma_csv(op, code, out)
    if kind == "proof":
        return checks.check_proof(op, result)
    return checks.check_usage_error(op, code, stderr)


def judge_op(op: dict, code, error, result, stderr: str, out: Path):
    """Return (failure, problems) of one finished operation.

    An operation that raised or exited 1 failed, and its outputs are not
    checked.  Only the named faults (``op["fault"]``) may fail: any other
    failure is also a problem, so it makes the run incorrect instead of
    merely faster.
    """
    if error is None and code != 1:
        return None, check_op(op, code, result, stderr, out)
    failure = error or f"exit 1: {stderr.strip()[:200]}"
    if op.get("fault"):
        return failure, []
    label = op.get("label") or " ".join(op.get("argv", [op["kind"], op["check"]]))[:120]
    return failure, [f"{label}: failed, not a named fault: {failure}"]


def main(argv=None) -> int:
    args = _parse_args(argv)
    tk = _import_program()
    ops = workloads.build(args.workload, args.seed, args.seconds)
    if args.setup_probe:
        return 0
    kernel_start = ref_kernel()

    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    times, setup_times, failed, problems = [], [], [], []
    try:
        for i, op in enumerate(ops):
            # Set-up probes are spread evenly over the run, so that their
            # median does not hang on one short slow spell of the machine.
            while len(setup_times) < SETUP_PROBES * i // len(ops) + 1:
                setup_times.append(setup_probe(args))
            out = run_dir / f"op{i}"
            tracer.op_id = i
            seconds, code, error, result, stderr = run_op(tk, op, out)
            times.append(seconds)
            failure, op_problems = judge_op(op, code, error, result, stderr, out)
            if failure is not None:
                failed.append((i, op.get("fault"), failure))
            problems += op_problems
            shutil.rmtree(out, ignore_errors=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(args))
    kernel_end = ref_kernel()

    for i, fault, error in failed:
        print(f"failed op {i} ({fault or 'not a named fault'}): {error}", file=sys.stderr)
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    ops_per_s = len(ops) / math.fsum(times)
    print(f"workload={args.workload} seed={args.seed} attempted={len(ops)} failed={len(failed)} "
          f"trace={args.trace} ops_per_s={ops_per_s:.4f} "
          f"ref_kernel_s={kernel_start:.4f}/{kernel_end:.4f}", file=sys.stderr)

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans_{args.workload}_seed{args.seed}.json"))
        values = layer_metrics(tracer.spans)
        values["bench.ref_kernel_s"] = (kernel_start + kernel_end) / 2.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
