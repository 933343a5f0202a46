"""Weighted rectangular means of double sequences.

The field evaluator materializes sigma(m, n) for every cell of a grid with a
double cumulative sum; the single-cell evaluator recomputes one mean by
direct exact summation (math.fsum) and exists so the fast path can be
checked against an independently rounded route.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PrefixOverflowError
from .sequences import (
    DoubleSequence,
    Grid,
    ScalarKind,
    WeightSequence,
    _first_nonfinite,
    eval_grid,
)

# Values math.fsum takes from one list: the Python floats alive at once
# stay at one chunk (about 2 MiB) however large the summed block is.
_SUM_CHUNK = 1 << 16


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
    bad = _first_nonfinite(s)
    if bad is not None:
        raise PrefixOverflowError(f"{seq.name}: weighted numerator overflowed at {bad}")
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
    """math.fsum over every value of ``arr``, real and imaginary parts apart.

    One fsum call sees the whole stream, so the sum is the exactly rounded
    one whatever the chunking; only one chunk is ever a list of floats.
    """
    flat = arr.ravel()
    if np.iscomplexobj(flat):
        return complex(_exact_sum(flat.real), _exact_sum(flat.imag))
    chunks = (flat[i : i + _SUM_CHUNK].tolist() for i in range(0, flat.size, _SUM_CHUNK))
    return math.fsum(itertools.chain.from_iterable(chunks))


def sigma_single(
    seq: DoubleSequence,
    p: WeightSequence,
    q: WeightSequence,
    m: int,
    n: int,
) -> float | complex:
    """One weighted mean by direct summation with an exact accumulator.

    Shares the per-term products with the field path, so any disagreement
    between the two isolates the accumulation order.  Bad indices, the cell
    budget and non-finite cells raise as in eval_grid.
    """
    u = eval_grid(seq, m, n).values
    # The weight products go into one buffer of u's dtype and u is
    # multiplied into it in place: the same bits as (pw x qw) * u with two
    # blocks alive instead of three, and u is freed before the summing.
    terms = np.multiply(p.weights_array(m)[:, None], q.weights_array(n)[None, :], out=np.empty_like(u))
    np.multiply(terms, u, out=terms)
    del u
    return _exact_sum(terms) / (p.prefix(m) * q.prefix(n))


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
