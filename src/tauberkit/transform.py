"""Weighted rectangular means of double sequences.

The field pass accumulates sigma(m, n) over a grid in the row bands of
sequences._row_bands, with the bits of one double cumulative sum of the whole
grid, and hands each band of u and of the numerator to its caller, which
divides sigma (_divide) only where it reads it; the
single-cell evaluator recomputes one mean by direct exact summation
(math.fsum) and exists so the fast path can be checked against an
independently rounded route.  The lemma splits need the exact sums of four
nested rectangles of one block: _corner_sums adds them in one pass, band by
band, splitting each band's terms by repeated error-free extraction into
parts whose plain numpy sums are exact, so math.fsum of a rectangle's parts
keeps its bits, ties included; sigma_single decides sums that could overflow.
export_grid_csv writes a grid as text through an exact numpy kernel for
%.17g (_decimal, _text_words); b"%.17g" % x formats what it cannot certify.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValueError, PrefixOverflowError
from . import sequences
from .sequences import (
    DoubleSequence,
    Grid,
    ScalarKind,
    WeightSequence,
    _check_grid,
    _first_nonfinite,
    eval_grid,
)

# Values math.fsum takes from one list: the Python floats alive at once
# stay at one chunk (about 2 MiB) however large the summed block is.
_SUM_CHUNK = 1 << 16

# Cells per band of the text kernel, whose scratch arrays stay near 2 MiB.
# Half of 2^14, which took about 4 MiB: over 12 alternating in-process
# rounds of perfbench's grid_export transforms (2 vCPUs, x86-64), the median
# round took 1.058 s against 1.090 s, and with sigma still on the malloc
# heap a grid_export run peaked at 53.6 MiB RSS against 56.4.
_TEXT_BAND = 1 << 13


@dataclass(frozen=True)
class MeanField:
    """sigma over a full grid."""

    sigma: Grid


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
    Each band of _mean_field_pass is divided straight into the sigma grid,
    so the peak stays within that one grid and a band's u and numerator.

    The grid sits on anonymous pages of its own (mmap), not on the malloc
    heap: freed, it goes back to the system at once.  From the heap, once a
    freed large array has lifted glibc's mmap threshold, grids of different
    sizes leave holes that the heap keeps resident, and a run of transforms
    peaked about a grid above one transform on its own.
    """
    _check_grid(seq, m_max, n_max)  # before the grid is allocated
    shape, dtype = (m_max + 1, n_max + 1), seq.kind.dtype
    try:
        pages = mmap.mmap(-1, shape[0] * shape[1] * dtype.itemsize)
    except OSError as exc:  # out of memory, which np.empty reports as MemoryError
        raise MemoryError(f"cannot allocate a {shape[0]}x{shape[1]} {dtype} grid") from exc
    sigma = np.frombuffer(pages, dtype).reshape(shape)

    def visit(r0, u, s, pp, qp):
        _divide(s, pp[r0 : r0 + len(s)], qp, sigma[r0 : r0 + len(s)])

    _mean_field_pass(seq, p, q, m_max, n_max, visit)
    return MeanField(sigma=Grid(m_max, n_max, sigma, seq.kind))


def _divide(s, pp, qp, out):
    """sigma = s / (pp (x) qp) into out, which is returned, for a block s of
    the numerator and the prefix sums pp, qp of its rows and columns: every
    cell has the bits of the whole grid's division."""
    np.multiply(pp[:, None], qp[None, :], out=out)
    return np.divide(s, out, out=out)


def _weighted(pw, qw, x, out):
    """(pw (x) qw) * x into out, which is returned: the weight products, then
    x multiplied into them in place, which promotes them as numpy would out
    of place; overflow and NaN are left to the caller to find."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(pw[:, None], qw[None, :], out=out)
        return np.multiply(out, x, out=out)


def _mean_field_pass(seq, p, q, m_max, n_max, visit):
    """Call visit(r0, u, s, pp, qp) on each row band [r0, r0 + rows) x
    [0..n_max] of the grid, top to bottom, with u and the numerator s on it
    and the prefix sums pp, qp of p over [0..m_max] and of q over
    [0..n_max], in the bands of sequences._row_bands.  s is a view of a
    buffer the next band reuses, so visit copies what it keeps; _divide
    makes sigma from it.

    A band's first row of products takes the previous band's last row of
    sums down the columns, and each later row the row above it, one row-wise
    add at a time along numpy's fast axis: the additions, in order, of one
    cumsum of the whole grid each way, so every bit is the whole grid's.
    So is the error order: bounds and cell budget, checked by the caller
    before it allocates; a rule error or non-finite u cell anywhere; p's
    weights, then q's; the row-major first overflowed numerator cell.  An
    error is held while later bands of u are checked, and visit sees only
    bands before the first error.  Weights are positive and finite, so a
    non-finite u cell makes its numerator cell non-finite, and a
    non-finite numerator cell makes the rest of its row non-finite after
    the cumsum along it (inf + x, inf - inf and nan + x are not finite):
    the last column tells whether a band is finite, and u is checked only
    in a band whose numerator is not, or once an error is held.
    """
    nonfinite = late = None
    try:
        pw, qw = p.weights_array(m_max), q.weights_array(n_max)
        pp, qp = p.prefix_array(m_max), q.prefix_array(n_max)
    except Exception as exc:  # raised once every band of u is checked
        late = exc
    cols = np.arange(n_max + 1)
    # Made before the first band, the numerator's buffer leaves the heap lower.
    cells = max(cols.size, sequences._BAND_BYTES // seq.kind.dtype.itemsize)
    buf = np.empty(min((m_max + 1) * cols.size, cells), seq.kind.dtype)
    for r0, u in sequences._row_bands(seq, range(m_max + 1), cols):
        bad = None
        if not (nonfinite or late):
            s = _weighted(pw[r0 : r0 + len(u)], qw, u, buf[: u.size].reshape(u.shape))
            with np.errstate(over="ignore", invalid="ignore"):
                if r0:
                    s[0] += down
                for i in range(1, len(s)):
                    np.add(s[i - 1], s[i], out=s[i])
                down = s[-1].copy()
                np.cumsum(s, axis=1, out=s)
            if not np.isfinite(s[:, -1]).all():
                bad = _first_nonfinite(s)
            else:
                visit(r0, u, s, pp, qp)
        if nonfinite is None and (late or bad) and (at := _first_nonfinite(u)) is not None:
            m, n = r0 + at[0], at[1]
            nonfinite = NonFiniteValueError(f"{seq.name}: non-finite value at {(m, n)}", m=m, n=n)
        elif bad is not None:
            late = PrefixOverflowError(f"{seq.name}: weighted numerator overflowed at {(r0 + bad[0], bad[1])}")
        del u
    if nonfinite or late:
        raise nonfinite or late


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


def _corner_sums(bands, r0: int, c0: int) -> list[float | complex] | None:
    """Exact sums of the rectangles [0..r0] x [0..c0], [0..] x [0..c0],
    [0..r0] x [0..] and [0..] x [0..] of one block, each rounded once as
    math.fsum rounds (+0.0 for zero); None where one could overflow, that
    is where peak * cells, the largest |x| over the bands so far (or NaN),
    x a term or a complex term's re or im part, times the cells so far, is
    not below 2^1018: the caller's oracle, sigma_single, decides those.
    bands yields the block's row bands once, (top, terms) pairs in any
    grouping and order; every band is read, also once None is certain, and
    none is written.

    Each band is split by error-free extraction (ExtractVector in Rump,
    Ogita and Oishi, "Accurate floating-point summation part I: faithful
    rounding", SIAM J. Sci. Comput. 31(1), 2008), on its n values x (a
    complex cell is its re and im lanes side by side, which share the
    extraction).  Take 2^M >= n + 2 and a power of two sigma >= 2^M max|x|.
    Then q = fl(fl(sigma + x) - sigma) and x' = x - q are exact, |x'| <=
    2^-53 sigma, every q is a multiple of 2^-53 sigma and |q| <= 2^-M
    sigma.  So every sum of a subset of the q's, in any order, is a
    multiple of 2^-53 sigma below n 2^-M sigma < sigma in magnitude: a
    double, and exact.  Underflow changes none of this, since adds below
    the normal range are exact.  The q's are summed down the rows of each
    row group (rows <= r0 and rows > r0) and then across each quadrant's
    lanes, plain numpy sums.  x' is extracted in turn with sigma' =
    2^(M-53) sigma, which bounds it with no pass over it, and so on until
    no remainder is left (tested from the second level on, which is
    cheaper): then each rectangle is exactly the sum of its parts, and
    math.fsum rounds that once, ties included.  The loop ends: the guard
    keeps NaN and inf out of it; n <= 2^29 (a block has at most
    MAX_GRID_CELLS = 2^28 cells), so M <= 30 and each level takes 53 - M
    >= 23 binades off sigma; and every x is a multiple of 2^-1074, so a
    level whose 2^-53 sigma is below 2^-1074 leaves no remainder (nor
    does a sigma that underflowed to 0).

    The guard, from sigma <= 2^1023.  A band of c cells has n <= 2c
    values, and n + 2 <= 3n, so 2^M < 2 (n + 2) <= 12c and the first
    sigma < 2^(M+1) max|x| < 24 peak cells < 24 2^1018 < 2^1023: no sigma
    + x overflows, nor does a later, smaller one.  A value's q's over all
    levels sum in magnitude to at most |x| + 2 sum_(k>=2) |x_k|, where
    |x_k| <= 2^-53 sigma_(k-1) starts below 2^(M-52) max|x| and falls by
    2^(53-M) a level: below 2 max|x|.  So a band's parts sum in magnitude
    below 2n max|x| <= 4c peak, and the parts of all bands, and every
    partial sum of math.fsum over them, stay below 4 peak cells < 2^1020.
    """
    cells = peak = 0
    parts = [[] for _ in range(4)]  # width-vectors, per quadrant q00, q01, q10, q11
    scratch = np.empty(0)
    for top, terms in bands:
        cells += terms.size
        flat = terms.view(np.float64)
        top_abs = max(flat.max(), -flat.min())  # NaN when any x is NaN
        peak = np.maximum(peak, top_abs)
        if not peak < 2.0**1018 / cells:
            continue
        rows, n, width = len(flat), flat.size, 2 if np.iscomplexobj(terms) else 1
        if scratch.size < 2 * n:
            scratch = np.empty(2 * n)
        t, rest = scratch[:n].reshape(flat.shape), scratch[n : 2 * n].reshape(flat.shape)
        cut = min(max(r0 + 1 - top, 0), rows)
        bits = (n + 1).bit_length()  # M
        sigma = math.ldexp(1.0, math.frexp(top_abs)[1] + bits)
        x, levels = flat, 0
        while levels < 2 or x.any():
            np.add(x, sigma, out=t)
            t -= sigma
            for q, group in ((0, t[:cut]), (2, t[cut:])):
                if len(group):
                    lanes = group.sum(axis=0).reshape(-1, width)
                    parts[q].append(lanes[: c0 + 1].sum(axis=0))
                    parts[q + 1].append(lanes[c0 + 1 :].sum(axis=0))
            x = np.subtract(x, t, out=rest)
            sigma = math.ldexp(sigma, bits - 53)
            levels += 1
    if not peak < 2.0**1018 / cells:
        return None
    sums = []
    for rect in ((0,), (0, 2), (0, 1), (0, 1, 2, 3)):
        got = [math.fsum([float(v[k]) for q in rect for v in parts[q]]) + 0.0 for k in range(width)]
        sums.append(complex(*got) if width == 2 else got[0])
    return sums


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
    # Two blocks alive instead of three, and u is freed before the summing.
    terms = _weighted(p.weights_array(m), q.weights_array(n), u, np.empty_like(u))
    del u
    return _exact_sum(terms) / (p.prefix(m) * q.prefix(n))


def format_float(x: float) -> str:
    """17 significant digits; round-trips every double and is bit-stable."""
    return format(x, ".17g")


def _write_csv(path, header: str, rows) -> None:
    """A header line, then a line per row of cells: floats as format_float
    gives them, None as an empty field, anything else through str."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format_float(x) if isinstance(x, float) else "" if x is None else str(x)
                              for x in row) + "\n")


# The kernel certifies |x| in (_TINY, _HUGE): every decimal exponent k of
# such an x, and k - 1 and k + 2, index the tables below, and no step of
# Dekker's product on them overflows or loses bits below the normal range.
_TINY, _HUGE, _K0 = 1e-280, 1e280, -283
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _pow10_tables() -> np.ndarray:
    """Rows over k = _K0 .. -_K0 + 7: 10^(16-k) as a double-double (hi split
    in two halves of at most 26 bits, lo) and the least double >= 10^k.

    hi is the double nearest 10^e and lo the double nearest 10^e - hi, both
    from integer true division, which rounds correctly; lo's sign tells on
    which side of 10^e hi lies.
    """
    pairs = {}
    for e in range(_K0, 17 - _K0):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        hi = num / den
        hn, hd = hi.as_integer_ratio()
        pairs[e] = hi, (num * hd - hn * den) / (den * hd)
    rows = []
    for k in range(_K0, 8 - _K0):
        hi, lo = pairs[16 - k]
        c = hi * _SPLIT
        half = c - (c - hi)
        near, below = pairs[k]
        rows.append((hi, half, hi - half, lo, near if below <= 0 else math.nextafter(near, math.inf)))
    return np.array(rows).T.copy()


_P_HI, _P_HH, _P_HL, _P_LO, _P10_CEIL = _pow10_tables()


def _words(text: bytes) -> np.ndarray:
    """8-byte chunks of text as uint64 words, little-endian: byte 0 first."""
    return np.frombuffer(text, "<u8")


def _text_tables():
    """Byte words the kernel ORs together."""
    g = np.arange(10000, dtype=np.uint64)
    digits4 = sum((g // 10 ** (3 - i) % 10 + ord("0")) << (8 * i) for i in range(4)).astype(np.uint64)
    zeros4 = sum(g % 10**i == 0 for i in range(1, 5)).astype(np.uint8)
    # Sign and first digit of a value, keyed by 10 * sign + digit.
    heads = _words(b"".join((sign + b"\0" * 5 + b"%d" % f).ljust(8, b"\0")
                            for sign in (b"\0", b"-") for f in range(10)))
    # A layout, keyed by 17 * lead + last, for a value whose last nonzero
    # digit is digit last + 1.  Lead 1..16 keeps that many digits after the
    # first in place, then a point, and moves the digits after it one byte
    # on; lead 0 (the exponent form too) keeps every digit in place and puts
    # the point in the head, after the first digit; lead 17..20 writes "0."
    # and lead - 17 zeros in the head.  Columns: head bits, masks of the
    # digits kept in place, masks of the digits moved, the point's bits.
    lead, last, at = np.ogrid[:21, :17, :16]
    stay = np.where((0 < lead) & (lead < 17), lead, last)
    move = (stay <= at) & (at < last)
    head = np.zeros((21, 17, 8), np.uint8)
    head[17:, :, 1:3] = np.frombuffer(b"0.", np.uint8)
    for z in range(3):
        head[18 + z :, :, 3 + z] = ord("0")
    head[0, 1:, 7] = ord(".")
    columns = [head, 0xFF * (at < stay), 0xFF * move, ord(".") * ((at == stay) & move.any(axis=2, keepdims=True))]
    forms = np.concatenate([c.astype(np.uint8) for c in columns], axis=2).view("<u8").reshape(-1, 7)
    # Per decimal exponent X: the layout's lead (times 17) and the exponent.
    xs = range(_K0 - 1, 9 - _K0)
    leads = np.array([17 * (x if 0 <= x < 17 else 16 - x if -4 <= x < 0 else 0) for x in xs], np.intp)
    suffix = _words(b"".join((b"" if -4 <= x < 17 else b"e%+03d" % x).ljust(8, b"\0") for x in xs))
    return digits4, zeros4, heads, forms, leads, suffix


_DIGITS4, _ZEROS4, _HEADS, _FORMS, _LEAD, _SUFFIX = _text_tables()


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X, sure) for doubles _TINY < a < _HUGE: a = D * 10^(X - 16) rounded
    half-even to the 17-digit integer D, as %.17g rounds, and whether that
    rounding is certain.

    k = floor(log10 a) is made exact by comparing a with the least doubles
    at or above 10^k and 10^(k+1): next to a power of ten, log10 may round
    either way.  y = a * 10^(16-k) lies in [1e16, 1e17):
    Dekker's exact product of a and the high part of 10^(16-k) gives y's
    integer part p and a remainder, and the low part adds its own product.
    The remainder r is off by less than 2^-45, so rounding it is certain
    unless it lies within 2^-30 of a half.
    """
    k = np.floor(np.log10(a)).astype(np.intp) - _K0
    k -= a < _P10_CEIL[k]
    k += a >= _P10_CEIL[k + 1]
    hi, hh, hl = _P_HI[k], _P_HH[k], _P_HL[k]
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * _P_LO[k]
    near = np.rint(r)
    sure = np.abs(r - near) < 0.5 - 2.0**-30
    d = p.astype(np.int64) + near.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    return d, k + carry + _K0, sure


def _text_words(v: np.ndarray, tail: int, out: np.ndarray) -> None:
    """Write the %.17g text of every double of the 1-D v into the rows of
    out, shape (len(v), 4), as NUL-padded uint64 words: the head (sign,
    "0.00" prefix, first digit, a point after it); digits 2..17 with a
    point among them, in two words and the first byte of the last; the
    exponent in the last word's bytes 0..4, ORed with tail (the separator
    that follows the value, already shifted into bytes 5..7).

    A value the kernel cannot certify (a near-tie, nan, inf, or a nonzero
    |v| <= _TINY or >= _HUGE) gets the head word 1, b"\\1", and no other
    text but tail.
    """
    a = np.abs(v)
    certain = (a > _TINY) & (a < _HUGE)
    d, x, sure = _decimal(np.where(certain, a, 1.0))
    zero = v == 0
    d[zero] = 0
    x[zero] = 0
    q = d // 10**8
    lo8 = (d - q * 10**8).astype(np.uint32)
    hi8 = q.astype(np.uint32)
    first = hi8 // 10**8
    mid = hi8 - first * 10**8
    g1, g3 = mid // 10**4, lo8 // 10**4
    g2, g4 = mid - g1 * 10**4, lo8 - g3 * 10**4
    zeros, tail_zero = _ZEROS4[g4], g4 == 0
    if tail_zero.any():
        for g in (g3, g2, g1):
            zeros += tail_zero * _ZEROS4[g]
            tail_zero &= g == 0
    x -= _K0 - 1
    form = np.take(_FORMS, _LEAD[x] + (16 - zeros), axis=0)
    b_lo = _DIGITS4[g1] | (_DIGITS4[g2] << np.uint64(32))
    b_hi = _DIGITS4[g3] | (_DIGITS4[g4] << np.uint64(32))
    move_lo, move_hi = b_lo & form[:, 3], b_hi & form[:, 4]
    b_lo &= form[:, 1]
    b_lo |= form[:, 5]
    b_hi &= form[:, 2]
    b_hi |= form[:, 6]
    b_hi |= move_lo >> np.uint64(56)
    np.bitwise_or(_HEADS[first + 10 * np.signbit(v)], form[:, 0], out=out[:, 0])
    np.bitwise_or(b_lo, move_lo << np.uint64(8), out=out[:, 1])
    np.bitwise_or(b_hi, move_hi << np.uint64(8), out=out[:, 2])
    np.bitwise_or(_SUFFIX[x] | np.uint64(tail), move_hi >> np.uint64(56), out=out[:, 3])
    fallback = ~(certain & sure | zero)
    if fallback.any():
        out[fallback, :3] = 0
        out[fallback, 0] = 1
        out[fallback, 3] = tail


def _labels(count: int) -> np.ndarray:
    """b"%d," for 0 .. count - 1, NUL-padded to whole uint64 words."""
    width = -(-len(b"%d," % (count - 1)) // 8) * 8
    text = b"".join((b"%d," % i).ljust(width, b"\0") for i in range(count))
    return np.frombuffer(text, "<u8").reshape(count, -1)


def export_grid_csv(grid: Grid, path: str) -> None:
    """Write a grid row-major as m,n,value_re,value_im.

    Real grids carry an explicit zero imaginary column so every export has
    the same shape.  Every value is the text b"%.17g" % value gives, which
    format_float gives too: _text_words lays each band of cells out in
    NUL-padded words, one translate drops the padding, and the values it
    cannot certify are formatted one by one.  The file is written under a
    temporary name beside path and renamed over it at the end, so a failed
    export leaves no partial file and an existing one untouched.
    """
    if grid.kind is ScalarKind.COMPLEX:
        values = np.ascontiguousarray(grid.values, np.complex128).view(np.float64).reshape(-1, 2)
        tails = [ord(","), ord("\n")]
    else:
        values = np.ascontiguousarray(grid.values, np.float64).reshape(-1, 1)
        tails = [int.from_bytes(b",0\n", "little")]
    cols = grid.n_max + 1
    labels = _labels(max(grid.m_max, grid.n_max) + 1)
    width = labels.shape[1]
    row_words = 2 * width + 4 * len(tails)
    # One record serves every band.  A fresh bytes copy of each band's words
    # left the heap fragmented: the next mean field then peaked a whole grid
    # higher (grid_export peak RSS 84 -> 97 MiB, with numpy's huge pages).
    record = bytearray(8 * row_words * min(_TEXT_BAND, len(values)))
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"  # beside path, so os.replace is a rename
    try:
        with open(tmp, "xb") as fh:
            fh.write(b"m,n,value_re,value_im\n")
            for start in range(0, len(values), _TEXT_BAND):
                band = values[start : start + _TEXT_BAND]
                m, n = np.divmod(np.arange(start, start + len(band)), cols)
                words = np.frombuffer(record, np.uint64, len(band) * row_words).reshape(len(band), -1)
                np.take(labels, m, axis=0, out=words[:, :width], mode="clip")
                np.take(labels, n, axis=0, out=words[:, width : 2 * width], mode="clip")
                for part, tail in enumerate(tails):
                    at = 2 * width + 4 * part
                    _text_words(band[:, part], tail << 40, words[:, at : at + 4])
                text = (record if words.nbytes == len(record) else words.tobytes()).translate(None, b"\0")
                flagged = words[:, 2 * width :: 4] == 1
                if flagged.any():
                    fallback = np.flatnonzero(flagged)
                    pieces = text.split(b"\1")
                    fixed = [b"%.17g" % x for x in band.ravel()[fallback].tolist()]
                    text = b"".join(itertools.chain(*zip(pieces, fixed), pieces[-1:]))
                fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
