"""Bit-identity manifest of the benchmark's operations.

Runs one round of each benchmark workload per seed (the operation lists of
``perfbench/workloads.py``, read and never changed) through
``tauberkit.cli.main`` and the proof-inequality functions, in this process,
and records for every operation its exit code, its standard output and
error with the output directory masked, the md5 of each artifact it wrote
and, for a proof step, the repr of its result.  Two checkouts that give the
same manifest give the same bits on every operation the benchmark runs.

    python tests/manifest.py --seeds 1 2 3 --out a.json [--root CHECKOUT]
    python tests/manifest.py --diff a.json b.json

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this file).  ``--diff`` prints every difference
and exits 1 if there is any.  Pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path


def _run_op(tk, op: dict, out: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    rec: dict = {"op": op.get("label") or " ".join(op.get("argv", [])) or
                 f"{op['direction']} proof {op['sequence']} {op['weights_p']} {op['weights_q']} "
                 f"({op['m']}, {op['n']})"}
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if op["kind"] == "cli":
                rec["exit"] = tk.cli.main(op["argv"] + ["--out", str(out)])
            else:
                fn = (tk.harness.proof_inequality_forward if op["direction"] == "forward"
                      else tk.harness.proof_inequality_backward)
                rec["repr"] = repr(fn(tk.corpus_sequence(op["sequence"]),
                                      tk.cli.parse_weight_spec(op["weights_p"]),
                                      tk.cli.parse_weight_spec(op["weights_q"]),
                                      op["m"], op["n"], op["lam"], op["lam"], op["delta"], op["delta"]))
    except Exception as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}".replace(str(out), "<out>")
    rec["stdout"] = stdout.getvalue().replace(str(out), "<out>")
    rec["stderr"] = stderr.getvalue().replace(str(out), "<out>")
    if out.is_dir():
        rec["artifacts"] = {str(f.relative_to(out)): hashlib.md5(f.read_bytes()).hexdigest()
                            for f in sorted(out.rglob("*")) if f.is_file()}
    return rec


def build_manifest(root: Path, seeds: list[int]) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import tauberkit as tk
    import tauberkit.cli
    import workloads

    if Path(tk.__file__).resolve().parent != (root / "src" / "tauberkit").resolve():
        sys.exit(f"error: imported tauberkit from {tk.__file__}, not from {root / 'src'}")
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for name in sorted(workloads.WORKLOADS):
                ops = workloads.build(name, seed, workloads.ROUND_SECONDS)  # one round
                manifest[f"{name}:{seed}"] = [_run_op(tk, op, Path(tmp) / f"{name}-{seed}-{i}")
                                              for i, op in enumerate(ops)]
    return manifest


def diff(a: dict, b: dict) -> list[str]:
    out = []
    for key in sorted(a.keys() | b.keys()):
        ra, rb = a.get(key), b.get(key)
        if ra is None or rb is None:
            out.append(f"{key}: only in {'the first' if rb is None else 'the second'} manifest")
            continue
        if len(ra) != len(rb):
            out.append(f"{key}: {len(ra)} operations against {len(rb)}")
        for i, (x, y) in enumerate(zip(ra, rb)):
            for field in sorted(x.keys() | y.keys()):
                if x.get(field) != y.get(field):
                    out.append(f"{key} op {i} ({x['op'][:80]}): {field}: {x.get(field)!r} != {y.get(field)!r}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--out", type=Path, help="where to write the manifest (default: stdout)")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.diff:
        lines = diff(*(json.loads(p.read_text()) for p in args.diff))
        for line in lines:
            print(line)
        print(f"{len(lines)} difference(s)")
        return 1 if lines else 0
    text = json.dumps(build_manifest(args.root.resolve(), args.seeds), indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
