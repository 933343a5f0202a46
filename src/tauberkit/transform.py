"""Weighted rectangular means of double sequences.

The field evaluator materializes sigma(m, n) for every cell of a grid with a
double cumulative sum; the single-cell evaluator recomputes one mean by
direct exact summation (math.fsum) and exists so the fast path can be
checked against an independently rounded route.  The lemma splits need the
exact sums of four nested rectangles of one block: _corner_sums gives them
from one pass, with math.fsum's bits, and sigma_single stays their oracle.
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
# stay at one chunk (about 2 MiB) however large the summed block is.  The
# corner-sum kernel takes bands of the same size.
_SUM_CHUNK = 1 << 16

# Bits of a double below its exponent field, and of a mantissa's low part.
_FRACTION = (1 << 52) - 1
_LOW_PART = (1 << 26) - 1


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
    *,
    grid: Grid | None = None,
) -> MeanField:
    """Weighted means over [0..m_max] x [0..n_max].

    The numerator is accumulated by cumulative sums down rows then across
    columns, which realizes the separable recurrence
    S(m, n) = S(m-1, n) + S(m, n-1) - S(m-1, n-1) + p_m q_n u(m, n)
    without storing intermediate corners.  Raises on non-finite sequence
    values or an overflowing accumulation, naming the first offending cell.
    A caller that already holds ``eval_grid(seq, m_max, n_max)`` passes it
    as ``grid``; its values are only read.
    """
    if grid is not None and (grid.m_max, grid.n_max) != (m_max, n_max):
        raise ValueError(f"grid is {grid.m_max}x{grid.n_max}, expected {m_max}x{n_max}")
    u = (eval_grid(seq, m_max, n_max) if grid is None else grid).values
    pw = p.weights_array(m_max)
    qw = q.weights_array(n_max)
    # Each step writes into a buffer it already holds, and u is dropped
    # once multiplied in, so the peak stays within three grids.  u itself
    # is never written: it may be the caller's.  A complex sequence gets
    # complex buffers: numpy promotes the real weight products to complex
    # for the multiply and the divide in any case, so the results are the
    # same bits as out-of-place arithmetic gives.
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


def _corner_sums(terms: np.ndarray, r0: int, c0: int) -> list[float | complex]:
    """Exact sums of terms[:r0+1, :c0+1], terms[:, :c0+1], terms[:r0+1] and
    terms, each rounded once: math.fsum's values, from one pass.

    A double is s * mant * 2^(e - 1075) with a 53-bit integer mant (a
    subnormal takes e = 1 and no implicit bit).  Split after row r0 and
    column c0, each band of cells adds the 27 high and 26 low bits of its
    signed mantissas in one float64 bincount per part, keyed by quadrant and
    e: every bin total stays below 2^53, so exact.  The bands add up in
    int64, and Python integers in units of 2^-1074 add the quadrants.  Int
    true division rounds correctly, as fsum does, and a zero total gives
    +0.0, as fsum does.  The caller keeps each sum of magnitudes below
    2^1022, where fsum never overflows.  A complex block sums its real and
    imaginary parts apart, as _exact_sum does.
    """
    if np.iscomplexobj(terms):
        parts = zip(_corner_sums(terms.real, r0, c0), _corner_sums(terms.imag, r0, c0))
        return [complex(re, im) for re, im in parts]
    rows, cols = terms.shape
    # Bin of a cell: 2048 * quadrant + e, quadrant = 2 * (below r0) + (right of c0).
    col_key = np.where(np.arange(cols) > c0, 2048, 0)
    hi = np.zeros(4 * 2048, np.int64)
    lo = np.zeros(4 * 2048, np.int64)
    width = min(cols, _SUM_CHUNK)
    step = _SUM_CHUNK // width
    for start, stop, row_key in ((0, r0 + 1, 0), (r0 + 1, rows, 4096)):
        for c in range(0, cols, width):
            keys = col_key[c : c + width] + row_key
            for r in range(start, stop, step):
                bits = terms[r : min(r + step, stop), c : c + width].view(np.int64)
                e = (bits >> 52) & 0x7FF
                mant = bits & _FRACTION
                mant |= np.minimum(e, 1) << 52
                sign = bits >> 63
                mant ^= sign
                mant -= sign
                np.maximum(e, 1, out=e)
                e += keys
                key = e.ravel()
                hi += np.bincount(key, (mant >> 26).ravel(), 4 * 2048).astype(np.int64)
                lo += np.bincount(key, (mant & _LOW_PART).ravel(), 4 * 2048).astype(np.int64)
    q00, q01, q10, q11 = (
        sum(((int(h[k]) << 26) + int(l[k])) << (k - 1) for k in np.flatnonzero(h | l).tolist())
        for h, l in zip(hi.reshape(4, 2048), lo.reshape(4, 2048))
    )
    unit = 1 << 1074
    return [q00 / unit, (q00 + q10) / unit, (q00 + q01) / unit, (q00 + q01 + q10 + q11) / unit]


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
    the same shape.  Each row is one %-template of .17g fields, the text
    format_float gives; a complex row fills it from its interleaved parts.
    The rows are bytes: a str row would cost a second, encoded copy.
    """
    complex_kind = grid.kind is ScalarKind.COMPLEX
    cell = b"%.17g,%.17g\n" if complex_kind else b"%.17g,0\n"
    parts = [b",%d,%s" % (n, cell) for n in range(grid.n_max + 1)]
    with open(path, "wb") as fh:
        fh.write(b"m,n,value_re,value_im\n")
        for m, row in enumerate(grid.values):
            if complex_kind:
                row = np.ascontiguousarray(row, dtype=np.complex128).view(np.float64)
            label = b"%d" % m
            fh.write((label + label.join(parts)) % tuple(row.tolist()))
