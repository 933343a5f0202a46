"""Shared test code: slow, obviously-correct reference paths, the CLI runner,
the corner-sum cases, a call counter and a peak-memory probe."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import tauberkit


def run_tauberkit(*args, cwd):
    """Run ``python -m tauberkit *args`` in ``cwd`` and capture its output."""
    return run_python("-m", "tauberkit", *args, cwd=cwd)


def run_python(*args, cwd, env=None):
    """Run ``python *args`` in ``cwd`` and capture its output.

    The child gets the parent's environment, updated from ``env``, with the
    directory holding the imported ``tauberkit`` package first on
    ``PYTHONPATH``, so it runs the same code as the in-process tests whether
    or not the package is installed and whatever ``cwd`` is.
    """
    env = {**os.environ, **(env or {})}
    root = str(Path(tauberkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def direct_sigma(u: np.ndarray, pw: np.ndarray, qw: np.ndarray, m: int, n: int) -> float:
    """Weighted mean of u over [0..m] x [0..n] by exact summation."""
    total = math.fsum(
        pw[i] * qw[j] * u[i, j] for i in range(m + 1) for j in range(n + 1)
    )
    return total / (math.fsum(pw[: m + 1]) * math.fsum(qw[: n + 1]))


def direct_sigma_grid(u: np.ndarray, pw: np.ndarray, qw: np.ndarray) -> np.ndarray:
    rows, cols = u.shape
    out = np.empty((rows, cols))
    for m in range(rows):
        for n in range(cols):
            out[m, n] = direct_sigma(u, pw, qw, m, n)
    return out


# Blocks, a split (r0, c0) of each, and whether transform._corner_sums
# leaves the block to the oracle.
TIES_AND_CANCELLATIONS = [
    # 1 + 2^-53 and 2 + 2^-52 lie halfway between two doubles: ties whose
    # parts are exact, so math.fsum rounds them itself
    ([[1.0], [2.0**-53]], 1, 0, False),
    ([[1.0, 2.0**-53], [2.0**-53, 1.0]], 1, 1, False),
    # cancellations to zero of terms 60 binades apart: exact parts, +0.0
    ([[1.0, 2.0**-60], [-1.0, -(2.0**-60)]], 0, 1, False),
    ([[-1.0, -(2.0**-60)], [1.0, 2.0**-60]], 0, 1, False),
    # the same cancellation in a complex block's imaginary part
    ([[1.0 + 1.0j, 2.0**-60 * 1j], [-1.0j, -(2.0**-60) * 1j]], 0, 1, False),
    # exact, whatever the sign of zero
    ([[-0.0, -0.0], [-0.0, -0.0]], 1, 1, False),
    ([[1.0, -1.0], [-0.0, 3.0]], 1, 1, False),
    # each rectangle's parts meet only in fsum, which rounds the tie itself
    ([[1.0, 2.0**-53]], 0, 0, False),
    # 2^-200 lies below the first two extractions and a later one takes it:
    # exact parts again, so fsum rounds the tie above it and the near-tie of
    # the whole block itself
    ([[1.0], [2.0**-53], [2.0**-200]], 1, 0, False),
]


def oracle_calls(monkeypatch) -> list:
    """Count the sigma_single calls of the lemma splits, the oracle that
    decides the corner means their one pass leaves open: each call's
    arguments are appended to the list returned."""
    calls = []
    single = tauberkit.harness.sigma_single

    def counted(*args):
        calls.append(args)
        return single(*args)

    monkeypatch.setattr(tauberkit.harness, "sigma_single", counted)
    return calls


def oracle_route(monkeypatch) -> list:
    """Send every lemma split to the oracle: _corner_sums still reads every
    band, as where its overflow guard trips, but gives None.  Returns the
    oracle's calls, as oracle_calls does."""
    corner_sums = tauberkit.harness._corner_sums

    def drained(bands, r0, c0):
        corner_sums(bands, r0, c0)

    monkeypatch.setattr(tauberkit.harness, "_corner_sums", drained)
    return oracle_calls(monkeypatch)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
