"""Weighted rectangular means of double sequences.

The field evaluator materializes sigma(m, n) for every cell of a grid with a
double cumulative sum; the single-cell evaluator recomputes one mean by
direct exact summation (math.fsum) and exists so the fast path can be
checked against an independently rounded route.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    NonFiniteValueError,
    PrefixOverflowError,
    ResourceLimitError,
    WeightDomainError,
)
from .sequences import (
    DoubleSequence,
    Grid,
    MAX_GRID_CELLS,
    ScalarKind,
    WeightSequence,
    eval_grid,
)


@dataclass(frozen=True)
class MeanField:
    """sigma over a full grid, with the numerator sums and prefix rows kept
    so identity checks can reuse the exact partials instead of re-rounding."""

    sequence_name: str
    weights_p: str
    weights_q: str
    sigma: Grid
    numerator: Grid
    p_prefix: np.ndarray = field(repr=False)
    q_prefix: np.ndarray = field(repr=False)


def weighted_mean_field(
    seq: DoubleSequence,
    p: WeightSequence,
    q: WeightSequence,
    m_max: int,
    n_max: int,
) -> MeanField:
    """Weighted means over [0..m_max] x [0..n_max].

    The numerator is accumulated by cumulative sums down rows then across
    columns, which realizes the separable recurrence
    S(m, n) = S(m-1, n) + S(m, n-1) - S(m-1, n-1) + p_m q_n u(m, n)
    without storing intermediate corners.  Raises on non-finite sequence
    values or an overflowing accumulation, naming the first offending cell.
    """
    u = eval_grid(seq, m_max, n_max).values
    pw = p.weights_array(m_max)
    qw = q.weights_array(n_max)
    # Each step writes into a buffer it already holds, and u is dropped
    # once multiplied in, so the peak stays within three grids.  A complex
    # sequence gets complex buffers: numpy promotes the real weight products
    # to complex for the multiply and the divide in any case, so the results
    # are the same bits as out-of-place arithmetic gives.
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.multiply(pw[:, None], qw[None, :], out=np.empty(u.shape, u.dtype))
        np.multiply(s, u, out=s)
        del u
        np.cumsum(s, axis=0, out=s)
        np.cumsum(s, axis=1, out=s)
    finite = np.isfinite(s) if seq.kind is ScalarKind.REAL else np.isfinite(s.real) & np.isfinite(s.imag)
    if not finite.all():
        bad = np.argwhere(~finite)[0]
        raise PrefixOverflowError(
            f"{seq.name}: weighted numerator overflowed at ({int(bad[0])}, {int(bad[1])})"
        )
    pp = p.prefix_array(m_max)
    qp = q.prefix_array(n_max)
    sigma = np.multiply(pp[:, None], qp[None, :], out=np.empty_like(s))
    np.divide(s, sigma, out=sigma)
    return MeanField(
        sequence_name=seq.name,
        weights_p=p.name,
        weights_q=q.name,
        sigma=Grid(m_max, n_max, sigma, seq.kind),
        numerator=Grid(m_max, n_max, s, seq.kind),
        p_prefix=pp,
        q_prefix=qp,
    )


def _exact_sum(arr: np.ndarray) -> float | complex:
    flat = arr.ravel()
    if np.iscomplexobj(flat):
        return complex(math.fsum(flat.real.tolist()), math.fsum(flat.imag.tolist()))
    return math.fsum(flat.tolist())


def sigma_single(
    seq: DoubleSequence,
    p: WeightSequence,
    q: WeightSequence,
    m: int,
    n: int,
) -> float | complex:
    """One weighted mean by direct summation with an exact accumulator.

    Shares the per-term products with the field path, so any disagreement
    between the two isolates the accumulation order.
    """
    if m < 0 or n < 0:
        raise ValueError(f"mean indices must be >= 0, got ({m}, {n})")
    cells = (m + 1) * (n + 1)
    if cells > MAX_GRID_CELLS:
        raise ResourceLimitError(f"single mean over {cells} cells exceeds budget")
    u = seq.block(np.arange(m + 1), np.arange(n + 1))
    finite = np.isfinite(u) if seq.kind is ScalarKind.REAL else np.isfinite(u.real) & np.isfinite(u.imag)
    if not finite.all():
        bad = np.argwhere(~finite)[0]
        bm, bn = int(bad[0]), int(bad[1])
        raise NonFiniteValueError(f"{seq.name}: non-finite value at ({bm}, {bn})", m=bm, n=bn)
    pw = p.weights_array(m)
    qw = q.weights_array(n)
    total = _exact_sum((pw[:, None] * qw[None, :]) * u)
    return total / (p.prefix(m) * q.prefix(n))


def general_mean(
    seq: DoubleSequence,
    weight_rule: Callable[[np.ndarray, np.ndarray], np.ndarray],
    m_max: int,
    n_max: int,
    name: str = "general",
) -> Grid:
    """Mean against a genuinely two-dimensional positive weight rule.

    ``weight_rule`` receives broadcastable integer index arrays like a
    sequence rule does and must return strictly positive finite weights.
    """
    u = eval_grid(seq, m_max, n_max)
    M = np.arange(m_max + 1, dtype=np.int64)[:, None]
    N = np.arange(n_max + 1, dtype=np.int64)[None, :]
    w = np.asarray(weight_rule(M, N), dtype=np.float64)
    if w.shape != u.values.shape:
        w = np.broadcast_to(w, u.values.shape).copy()
    if not np.isfinite(w).all() or (w <= 0).any():
        bad = np.argwhere(~(np.isfinite(w) & (w > 0)))[0]
        raise WeightDomainError(
            f"{name}: weight at ({int(bad[0])}, {int(bad[1])}) = "
            f"{w[bad[0], bad[1]]!r} is not positive and finite"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.cumsum(np.cumsum(w * u.values, axis=0), axis=1)
        denom = np.cumsum(np.cumsum(w, axis=0), axis=1)
    if not np.isfinite(denom).all():
        raise PrefixOverflowError(f"{name}: weight accumulation overflowed")
    sfin = np.isfinite(s) if seq.kind is ScalarKind.REAL else np.isfinite(s.real) & np.isfinite(s.imag)
    if not sfin.all():
        bad = np.argwhere(~sfin)[0]
        raise PrefixOverflowError(
            f"{seq.name}: weighted numerator overflowed at ({int(bad[0])}, {int(bad[1])})"
        )
    return Grid(m_max, n_max, s / denom, seq.kind)


@dataclass(frozen=True)
class ProbeProfile:
    """Vanishing-ratio samples for one fixed row and column index."""

    index: int
    row_samples: tuple[tuple[int, float], ...]
    col_samples: tuple[tuple[int, float], ...]
    row_vanishing: bool
    col_vanishing: bool


@dataclass(frozen=True)
class RegularityReport:
    horizon: int
    probes: tuple[ProbeProfile, ...]
    consistent: bool


def _diag_ladder(horizon: int) -> list[int]:
    ladder = []
    t = 1
    while t < horizon:
        ladder.append(t)
        t *= 2
    ladder.append(horizon)
    return ladder


def regularity_diagnostic(
    p2_prefix: Callable[[int, int], float],
    probe_rows: list[int],
    m_max: int,
    n_max: int,
    shrink: float = 0.1,
) -> RegularityReport:
    """Check the vanishing-margin behaviour of a two-dimensional prefix.

    For each probe index i the profile samples P(t, i)/P(t, t) and
    P(i, t)/P(t, t) along the diagonal ladder t = 1, 2, 4, ..., up to
    min(m_max, n_max).  A profile is flagged vanishing when it is
    non-increasing (up to a relative 1e-12 slack) and its final sample has
    dropped below ``shrink`` times its first.  ``consistent`` is the
    conjunction over all probes.
    """
    horizon = min(m_max, n_max)
    if horizon < 4:
        raise ValueError(f"diagnostic extent must be >= 4, got {horizon}")
    if not probe_rows:
        raise ValueError("need at least one probe index")
    ladder = _diag_ladder(horizon)
    probes = []
    for idx in probe_rows:
        if idx < 0 or idx >= horizon:
            raise ValueError(f"probe index {idx} outside [0, {horizon})")
        row, col = [], []
        for t in ladder:
            if t <= idx:
                continue
            denom = float(p2_prefix(t, t))
            if not math.isfinite(denom) or denom <= 0:
                raise PrefixOverflowError(f"prefix at ({t}, {t}) = {denom!r}")
            row.append((t, float(p2_prefix(t, idx)) / denom))
            col.append((t, float(p2_prefix(idx, t)) / denom))
        probes.append(
            ProbeProfile(
                index=idx,
                row_samples=tuple(row),
                col_samples=tuple(col),
                row_vanishing=_vanishing(row, shrink),
                col_vanishing=_vanishing(col, shrink),
            )
        )
    return RegularityReport(
        horizon=horizon,
        probes=tuple(probes),
        consistent=all(pr.row_vanishing and pr.col_vanishing for pr in probes),
    )


def _vanishing(samples: list[tuple[int, float]], shrink: float) -> bool:
    if len(samples) < 2:
        return False
    vals = [v for _, v in samples]
    slack = 1e-12 * max(abs(v) for v in vals)
    monotone = all(b <= a + slack for a, b in zip(vals, vals[1:]))
    return monotone and vals[-1] <= shrink * vals[0]


def format_float(x: float) -> str:
    """17 significant digits; round-trips every double and is bit-stable."""
    return format(x, ".17g")


def export_grid_csv(grid: Grid, path: str) -> None:
    """Write a grid row-major as m,n,value_re,value_im.

    Real grids carry an explicit zero imaginary column so every export has
    the same shape.
    """
    complex_kind = grid.kind is ScalarKind.COMPLEX
    with open(path, "w", newline="") as fh:
        fh.write("m,n,value_re,value_im\n")
        vals = grid.values
        for m in range(grid.m_max + 1):
            row = vals[m]
            for n in range(grid.n_max + 1):
                v = row[n]
                if complex_kind:
                    fh.write(f"{m},{n},{format_float(v.real)},{format_float(v.imag)}\n")
                else:
                    fh.write(f"{m},{n},{format_float(v)},0\n")
