"""Finite-window oscillation functionals and their decision profiles.

Forward windows collect indices i with P_m <= P_i <= lam * P_m (lam > 1);
backward windows collect lam * P_m < P_i <= P_m (0 < lam < 1).  A window
functional is described by its shape (the axes its window extends along),
its reference cell and its TrendSense, the one word for which way a
statistic is worse: the sd_* functionals (INF) take one-sided drops from
the reference (real sequences only), the so_* functionals (SUP) absolute
spreads max |u - ref| (complex welcome).  Decision profiles sample the
functionals on a tail ladder of horizons so a caller can see whether a
condition is trending the way the limit theory needs it to.

One window engine computes every functional, on forward windows.  A set
of profiles first resolves every window it samples -- by functional, then
scale, horizon and 3x3 tail anchor -- under the per-anchor index and cell
budgets.  It then makes one pass: u is evaluated once on the union of
those windows, for all functionals, scales and horizons, in the row
bands of sequences._row_bands, a row wider than their byte budget in
chunks of columns.  The window edges cut the union into segments.  Each
reference (an anchor's cell, row or column) gets an integer id, and the
bands fold, per id and pair of segments, the extrema of x - ref into
small tables; each window then reduces its slice of its id's tables
once.  Min and max are exact
and rounding is monotone, so every value is still one subtraction of the
same two doubles and matches a per-window evaluation bit for bit, a zero
drop being -0.0 exactly when some x - ref is, as IEEE 754's minimum orders
zeros.  window_functional, one functional at one anchor, is the engine's
single-window case; it reads a backward window as the forward window of
the mirrored, negated block.

verify_theorem's limits of u and sigma and its T42/T52 bound profiles are
reduced here too, by _TailStats from the bands of harness's mean-field
pass, beside the whole-square oracles whose bits they keep: empirical_limit,
landau_stat and hardy_stat.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    HorizonError,
    NonFiniteValueError,
    ResourceLimitError,
    ScalarKindError,
)
from . import sequences
from .sequences import DoubleSequence, Grid, ScalarKind, WeightSequence
from .transform import _divide, _write_csv

# Rectangle windows larger than this are refused (scalar ops) or recorded
# as unsampled rungs (profiles), though the window engine never holds a
# window: it reads row bands.  landau_stat and hardy_stat refuse difference
# blocks, and sd_field_components fields, larger than this, since each is
# one block in memory: ~240 MB of float64 at the default.
MAX_WINDOW_CELLS = 30_000_000


def _require_real(seq: DoubleSequence, what: str) -> None:
    if seq.kind is not ScalarKind.REAL:
        raise ScalarKindError(f"{what} is order-sensitive; {seq.name} is complex-valued")


def _check_finite(seq: DoubleSequence, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise NonFiniteValueError(f"{seq.name}: non-finite value inside a window")


# ---------------------------------------------------------------------------
# Window boundaries
# ---------------------------------------------------------------------------


def window_edge(p: WeightSequence, m, lam: float):
    """The far edge of the window anchored at m, direction read from the
    scale: for lam > 1 the last index of the forward window, the largest i
    with P_i <= lam * P_m; for 0 < lam < 1 the first index of the backward
    window, the smallest i with P_i > lam * P_m.  An int for one anchor m,
    an int64 array for an array of anchors.

    A HorizonError from max_index carries what was needed: the anchor, or
    the threshold lam * P_m the sums had to exceed.
    """
    if not 0.0 < lam < 1.0:
        _require_forward(lam)
    anchors = np.asarray(m, dtype=np.int64)
    if anchors.min() < 0:
        raise ValueError(f"window anchor must be >= 0, got {int(anchors.min())}")
    edges = p.first_above(lam * p.prefix_array(int(anchors.max()))[anchors])
    # lam < 1 puts m itself in the window in exact arithmetic; keep that
    # guarantee even if lam*P_m rounds up onto P_m.
    edges = edges - 1 if lam > 1.0 else np.minimum(edges, anchors)
    return int(edges) if edges.ndim == 0 else edges


def _require_forward(*scales) -> None:
    """Raise ValueError for the first scale at or below 1: the scale of a
    forward window, the only kind profiles and whole-grid fields sample."""
    for s in scales:
        if not s > 1.0:
            raise ValueError(f"forward window needs lam > 1, got {s}")


# ---------------------------------------------------------------------------
# Window descriptors
# ---------------------------------------------------------------------------


class TrendSense(Enum):
    """Which way a statistic is worse: INF watched from below, SUP from above."""

    INF = "inf"
    SUP = "sup"


class _Functional(NamedTuple):
    """A window functional at anchor (m, n).

    shape: the axes the window extends along -- "p" rows i (column n only),
    "q" columns j (row m only), "pq" both.  reference: the value each cell
    x = u(i, j) is compared with -- "corner" u(m, n), "row" u(m, j), "col"
    u(i, n).  sense: INF, a drop watched from below, is min of x - ref on
    forward windows and min of ref - x on backward ones (real sequences
    only); SUP, a spread watched from above, is max of |x - ref|.
    """

    shape: str
    reference: str
    sense: TrendSense


_FUNCTIONALS = {
    "sd_P": _Functional("p", "corner", TrendSense.INF),
    "sd_Q": _Functional("q", "corner", TrendSense.INF),
    "sd_strong_P": _Functional("pq", "row", TrendSense.INF),
    "sd_strong_Q": _Functional("pq", "col", TrendSense.INF),
    "sd_both": _Functional("pq", "corner", TrendSense.INF),
    "so_P": _Functional("p", "corner", TrendSense.SUP),
    "so_Q": _Functional("q", "corner", TrendSense.SUP),
    "so_strong_P": _Functional("pq", "row", TrendSense.SUP),
    "so_strong_Q": _Functional("pq", "col", TrendSense.SUP),
    "so_both": _Functional("pq", "corner", TrendSense.SUP),
}


def window_functional_names() -> list[str]:
    return list(_FUNCTIONALS)


def _functional(name: str, seq: DoubleSequence) -> _Functional:
    """Descriptor of a named functional, refusing drops on complex sequences."""
    try:
        spec = _FUNCTIONALS[name]
    except KeyError:
        raise KeyError(
            f"unknown functional {name!r}; known: {', '.join(_FUNCTIONALS)}"
        ) from None
    if spec.sense is TrendSense.INF:
        _require_real(seq, name)
    return spec


# ---------------------------------------------------------------------------
# The window engine
# ---------------------------------------------------------------------------


def _axis_window(w, anchor, scale, known) -> tuple[int, int]:
    """(lo, hi) of one axis's window, cached in known: the partial sums
    never change, so a resolved window is final."""
    key = (id(w), anchor, scale)
    if key not in known:
        edge = window_edge(w, anchor, scale)
        known[key] = (anchor, edge) if scale > 1.0 else (edge, anchor)
    return known[key]


def _resolve(spec, p, q, m, n, lam, kappa, known):
    """Row and column window (lo, hi) of one anchor, axis windows cached in
    known.  Grows the prefixes as needed; HorizonError propagates when
    max_index is hit first, and a rectangle over MAX_WINDOW_CELLS raises
    ResourceLimitError.
    """
    rows = (m, m) if spec.shape == "q" else _axis_window(p, m, lam, known)
    cols = (n, n) if spec.shape == "p" else _axis_window(q, n, kappa, known)
    if spec.shape == "pq":
        cells = (rows[1] - rows[0] + 1) * (cols[1] - cols[0] + 1)
        if cells > MAX_WINDOW_CELLS:
            raise ResourceLimitError(
                f"window [{rows[0]}..{rows[1]}]x[{cols[0]}..{cols[1]}] has {cells} cells, "
                f"budget {MAX_WINDOW_CELLS}", cells=cells
            )
    return rows, cols


class _Window(NamedTuple):
    """A functional's inclusive forward row and column window: it starts at
    its anchor (m, n) = (rows[0], cols[0])."""

    spec: _Functional
    rows: tuple[int, int]
    cols: tuple[int, int]


def _unique(a):
    """np.unique(a, return_inverse=True) of a non-empty integer array, read
    flat, by one sort: np.unique's first call in a process imports numpy.ma."""
    order = np.argsort(a, axis=None)
    s = a.ravel()[order]
    first = np.r_[True, s[1:] != s[:-1]]
    inverse = np.empty_like(order)
    inverse[order] = first.cumsum() - 1
    return s[first], inverse


def _cuts(spans):
    """Edges cutting an axis at both ends of every (lo, hi) span, and each
    span's (first, last + 1) segment: every span is a run of whole segments."""
    ends = np.fromiter(itertools.chain.from_iterable(spans), np.int64).reshape(-1, 2) + [0, 1]
    edges, inverse = _unique(ends)
    return edges, inverse.reshape(ends.shape)


_REFERENCES = ("corner", "row", "col")


def _references(wins, real, rspan, cspan, nseg, ncs):
    """Reference ids and what they need: (keys, ids, first, last, cover).
    keys[k] is (kind, anchor row segment, anchor column segment), kind an
    index into _REFERENCES, -1 where it does not apply: keys[0], all -1, is
    the plain extrema that every real corner reads.  ids[i] is window i's
    id, [first[k, s], last[k, s]) the column segments id k needs on row
    segment s, and cover[s, t] whether some window pairs segments s and t.
    """
    kind = np.array([_REFERENCES.index(w.spec.reference) for w in wins])
    key = np.column_stack([kind, np.where(kind == 2, -1, rspan[:, 0]), np.where(kind == 1, -1, cspan[:, 0])])
    key[(kind == 0) & real] = -1
    radix = [(nseg + 1) * (ncs + 1), ncs + 1, 1]
    codes, ids = _unique(np.r_[0, (key + 1) @ radix])
    keys, ids = codes[:, None] // radix % [4, nseg + 1, ncs + 1] - 1, ids[1:]
    # Each (window, row segment) pair.
    reps = rspan[:, 1] - rspan[:, 0]
    pw = np.repeat(np.arange(len(wins)), reps)
    ps = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps - rspan[:, 0], reps)
    first, last = np.full((len(keys), nseg), ncs), np.zeros((len(keys), nseg), int)
    np.minimum.at(first, (ids[pw], ps), cspan[pw, 0])
    np.maximum.at(last, (ids[pw], ps), cspan[pw, 1])
    cover = [np.bincount(ps * (ncs + 1) + cspan[pw, e], minlength=nseg * (ncs + 1)) for e in (0, 1)]
    return keys, ids, first, last, (cover[0] - cover[1]).reshape(nseg, -1).cumsum(axis=1)[:, :-1] > 0


class _Chunk(NamedTuple):
    """Columns read together by a run of row segments: cols, the column
    segments ts[k0:k1] they meet, their starts in cols (bounds), the
    segments ts[ks:k1] that begin in them and where (heads), and the
    reference rows' columns cols[ja:jb], whole segments from ts[kr] on
    that start at rbounds within them."""

    cols: np.ndarray
    k0: int
    ks: int
    k1: int
    bounds: np.ndarray
    heads: np.ndarray
    ja: int
    jb: int
    rbounds: np.ndarray
    kr: int


def _chunks(ts, cedges, cells, ra, rb):
    """The column segments ts in chunks of at most cells columns, each made
    as it is reached; [ra, rb) holds the reference rows' columns."""
    width = cedges[ts + 1] - cedges[ts]
    starts = np.cumsum(width) - width
    for c0 in range(0, int(width.sum()), cells):
        k0, ks, k1 = np.searchsorted(starts, [c0 + 1, c0, c0 + cells]) - [1, 0, 0]
        lo = np.maximum(starts[k0:k1], c0) - c0
        n = np.minimum(starts[k0:k1] + width[k0:k1] - c0, cells) - lo
        cols = np.arange(c0, c0 + n.sum()) + np.repeat(cedges[ts[k0:k1]] - starts[k0:k1], n)
        ja, jb = np.searchsorted(cols, [ra, rb])
        inner = (lo >= ja) & (lo < jb)
        yield _Chunk(cols, k0, ks, k1, lo, starts[ks:k1] - c0, ja, jb, lo[inner] - ja, k0 + np.argmax(inner))


def _fold(acc, new, k0):
    """Fold new into the columns k0.. of acc's first rows by their minimum."""
    part = acc[..., : new.shape[-2], k0 : k0 + new.shape[-1]]
    np.minimum(part, new, out=part)


def _plus_zero(x):
    """Where x is +0.0."""
    return (x == 0) & ~np.signbit(x)


def _fold_band(seq, u, ch, fc, ext, neg0, acc, sup, zeros):
    """Fold a real band u: its column minima of x and of -x into ext; for
    the column references, anchor columns fc, the min of x - ref and of
    ref - x per row and column segment into the last rows of acc; and, with
    zeros (some reference is 0), where a cell is -0.0 into neg0 and where
    some x - ref is -0.0 into acc[2] as -1.0."""
    lo, hi = u.min(axis=0), u.max(axis=0)
    _check_finite(seq, lo, hi)
    np.minimum(ext, (lo, -hi), out=ext)
    rc, n = fc[:, :, None], len(acc[0]) - fc.shape[1]
    if fc.shape[1]:
        _fold(acc[0][n:], (np.minimum.reduceat(u, ch.bounds, axis=1)[:, None] - rc).min(axis=0), ch.k0)
        if sup:
            _fold(acc[1][n:], (rc - np.maximum.reduceat(u, ch.bounds, axis=1)[:, None]).min(axis=0), ch.k0)
    if zeros:
        z = np.signbit(u) & (u == 0)
        neg0 |= z.any(axis=0)
        tied = np.logical_or.reduceat(z, ch.bounds, axis=1)[:, None] & _plus_zero(rc)
        _fold(acc[2][n:], -1.0 * tied.any(axis=0), ch.k0)


def _fold_segments(ch, signed, ext, neg0, acc, zeros):
    """Fold real row segments' column minima of x and -x, ext, into their
    acc: per column segment for id 0, and for the ids after it against each
    reference row over cols[ja:jb], signed = (-refs, refs) (x - ref is
    x + -ref, and ref - x is -x + ref); with zeros, their -0.0 columns
    neg0 too."""
    _fold(acc[:, :2, 0], np.minimum.reduceat(ext, ch.bounds, axis=2), ch.k0)
    if zeros:
        _fold(acc[:, 2, :1], -1.0 * np.logical_or.reduceat(neg0, ch.bounds, axis=1)[:, None], ch.k0)
    part = slice(ch.ja, ch.jb)
    for k, ref in enumerate(signed.transpose(1, 0, 2) if ch.ja < ch.jb else ()):
        _fold(acc[:, :2, 1 + k], np.minimum.reduceat(ext[:, :, part] + ref, ch.rbounds, axis=2), ch.kr)
        if zeros:
            tied = np.logical_or.reduceat(neg0[:, part] & _plus_zero(ref[1]), ch.rbounds, axis=1)
            _fold(acc[:, 2, 1 + k], -1.0 * tied, ch.kr)


def _fold_spreads(u, ch, jobs, fc, corner, ref_rows, ra, highs):
    """Fold max |x - ref| of a complex band u into highs, as its negation,
    for each job: (kind, anchor segments, reference row or column, and
    the [a, b) column segments it needs)."""
    for i, (kind, s0, t0, c, a, b) in enumerate(jobs):
        a, b = max(a, ch.k0), min(b, ch.k1)
        if a < b:
            x0, x1 = ch.bounds[a - ch.k0], ch.bounds[b - ch.k0] if b < ch.k1 else ch.cols.size
            r = corner[s0, t0] if kind == 0 else ref_rows[c, ch.cols[x0:x1] - ra] if kind == 1 else fc[:, c, None]
            top = np.maximum.reduceat(np.abs(u[:, x0:x1] - r), ch.bounds[a - ch.k0 : b - ch.k0] - x0, axis=1)
            np.minimum(highs[i, a:b], -top.max(axis=0), out=highs[i, a:b])


def _box(tables, ids, rspan, cspan):
    """The minimum of tables[t0:t1, s0:s1, :, k] for each window's column
    and row segment spans and reference id k, a row per window: prefix
    minima over the column segments from each distinct t0 (an anchor's),
    of only the segments and ids its windows read, then a masked minimum
    over the row segments."""
    out = np.empty((len(ids), tables.shape[2]))
    seg = np.arange(tables.shape[1])[:, None]
    for t0 in _unique(cspan[:, 0])[0]:
        w = np.flatnonzero(cspan[:, 0] == t0)
        k, kw = _unique(ids[w])
        prefix = tables[t0 : cspan[w, 1].max(), :, :, k]
        for a, b in itertools.pairwise(prefix):
            np.minimum(a, b, out=b)
        part = prefix[cspan[w, 1] - t0 - 1, :, :, kw].transpose(1, 0, 2)
        inside = (seg >= rspan[w, 0]) & (seg < rspan[w, 1])
        out[w] = np.where(inside[:, :, None], part, np.inf).min(axis=0)
    return out


def _window_values(seq, wins) -> list[float]:
    """Each forward window's functional value, from one pass over their union.

    The window edges cut rows and columns into segments; a row segment
    reads only the column segments some window pairs it with, in the bands
    of _row_bands, a row wider than their budget, sequences._BAND_BYTES, in
    chunks of columns, and any non-finite cell raises NonFiniteValueError.
    Each reference has an integer id (_references), and per id and pair of
    segments the bands fold the min of x - ref and of ref - x into tables
    that every window reduces once, at the end (_box).  Real bands fold
    extrema: of columns over each row segment, for id 0 (every real corner:
    min x - r is min (x - r), rounding being monotone) and the row
    references, a band's worth of row segments at a time (_fold_segments),
    and of rows per column segment for the column ones (_fold_band).
    Complex bands take |x - ref| (_fold_spreads).  A zero drop is -0.0 when
    some x - ref is, as IEEE 754's minimum orders zeros: once a reference
    is zero, a third table records where.  Row segments that read the same
    columns share one layout.
    """
    real, dtype = seq.kind is ScalarKind.REAL, seq.kind.dtype
    cells = sequences._BAND_BYTES // dtype.itemsize
    inf = np.array([w.spec.sense is TrendSense.INF for w in wins])
    sup = not inf.all()
    redges, rspan = _cuts([w.rows for w in wins])
    cedges, cspan = _cuts([w.cols for w in wins])
    nseg, ncs = len(redges) - 1, len(cedges) - 1
    keys, ids, first, last, cover = _references(wins, real, rspan, cspan, nseg, ncs)
    # Reference rows, held over their windows' columns [ra, rb) only.
    rows_k = np.flatnonzero(keys[:, 0] == 1)
    ra, rb = (cedges[first[rows_k].min()], cedges[last[rows_k].max()]) if rows_k.size else (0, 0)
    ref_rows, anchors = np.full((rows_k.size, rb - ra), np.nan, dtype), set(keys[rows_k, 1])
    corner = np.full((nseg, ncs), np.nan, dtype)  # each segment pair's first cell
    # Per column segment, row segment, channel and id: the min of x - ref,
    # the min of ref - x, and -1.0 where some x - ref is -0.0.
    tables, zeros = np.full((ncs, nseg, 3 if real else 1, len(keys)), np.inf), False
    group = np.flatnonzero(np.r_[True, (cover[1:] != cover[:-1]).any(axis=1), True])
    for sa, sb in zip(group[:-1], group[1:]):
        ts = np.flatnonzero(cover[sa])
        if ts.size == 0:
            continue
        act = np.flatnonzero((first[:, sa:sb] < last[:, sa:sb]).any(axis=1))
        kd, spans = keys[act, 0], np.searchsorted(ts, np.stack([first[act, sa:sb], last[act, sa:sb]], axis=-1))
        at = np.where(kd == 1, np.searchsorted(rows_k, act), np.cumsum(kd == 2) - 1)
        rk, ct = at[kd == 1], np.searchsorted(ts, keys[act[kd == 2], 2])  # ref_rows rows; anchor segments
        sid = np.concatenate([[0], act[kd == 1], act[kd == 2]]) if real else act
        acc = np.full((sb - sa, 3, sid.size, ts.size), np.inf)
        w = int((cedges[ts + 1] - cedges[ts]).sum())
        # Row segments whose column extrema fold together in one band's bytes.
        batch = max(1, cells // w // 2)
        # The column references' anchor columns, of the group when its
        # columns come in chunks, else of each band.
        held = np.full((redges[sb] - redges[sa], ct.size), np.nan, dtype) if w > cells else None
        for ch in _chunks(ts, cedges, cells, ra, rb):
            mine = np.flatnonzero((ct >= ch.ks) & (ct < ch.k1))
            mine_cols = ch.heads[ct[mine] - ch.ks]
            signed = np.multiply.outer([-1.0, 1.0], ref_rows[rk][:, ch.cols[ch.ja : ch.jb] - ra].real)
            for s in range(sa, sb):
                b = (s - sa) % batch
                if real and b == 0:  # column minima of x and -x, and -0.0 columns
                    ext = np.full((min(batch, sb - s), 2, ch.cols.size), np.inf)
                    neg0 = np.zeros((len(ext), ch.cols.size), bool)
                for r0, u in sequences._row_bands(seq, range(redges[s], redges[s + 1]), ch.cols):
                    fc = held[r0 - redges[sa] :][: len(u)] if w > cells else np.full((len(u), ct.size), np.nan, dtype)
                    fc[:, mine] = u[:, mine_cols]
                    if r0 == redges[s]:
                        corner[s, ts[ch.ks : ch.k1]] = u[0, ch.heads]
                        if s in anchors:
                            new = np.flatnonzero(keys[rows_k, 1] == s)
                            ref_rows[np.ix_(new, ch.cols[ch.ja : ch.jb] - ra)] = u[0, ch.ja : ch.jb]
                            signed = np.multiply.outer([-1.0, 1.0], ref_rows[rk][:, ch.cols[ch.ja : ch.jb] - ra].real)
                        zeros = zeros or not u[0].all()
                    if real:
                        zeros = zeros or not fc.all()
                        _fold_band(seq, u, ch, fc, ext[b], neg0[b], acc[s - sa], sup, zeros)
                    else:
                        _check_finite(seq, u)
                        jobs = zip(kd, *keys[act, 1:].T, at, *spans[:, s - sa].T)
                        _fold_spreads(u, ch, jobs, fc, corner, ref_rows, ra, acc[s - sa, 1])
                if real and b == len(ext) - 1:
                    _fold_segments(ch, signed, ext, neg0, acc[s - sa - b : s - sa + 1], zeros)
        for c in range(tables.shape[2]):
            tables[:, :, c][np.ix_(ts, range(sa, sb), sid)] = acc[:, c if real else 1].transpose(2, 0, 1)
    box = _box(tables, ids, rspan, cspan)
    if not real:
        return (-box[:, 0]).tolist()
    low, high, tied = box[:, 0], -box[:, 1], box[:, 2] < 0
    r = np.where(keys[ids, 0] == -1, corner[rspan[:, 0], cspan[:, 0]], 0.0)
    drop, tie = low - r, low == r
    drop[tie] = np.where(tied[tie] & _plus_zero(r[tie]), -0.0, 0.0)
    return np.where(inf, drop, np.maximum(abs(high - r), abs(low - r))).tolist()


def _rung_values(seq, p, q, functionals, horizons, lambda_ladder, kappa_ladder,
                 tail_fraction, stop_at_gap):
    """(functional, descriptor, lam, kappa, horizon, tail cells, slots) per
    rung; a slot per anchor tried, in row-major order, holds its value or
    why it has none: ("horizon", HorizonError.needed) or ("budget", cells).
    With stop_at_gap the first such anchor ends its rung.  Every window is
    resolved before any is evaluated, all in one pass.  Raises what
    evaluating the rungs in turn would raise: any other error ends the
    resolution, raised after evaluating the windows resolved before it.  A
    scale at or below 1 on an axis a functional samples is refused before
    any of that functional's windows is resolved.
    """
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError(f"tail fraction must lie in (0, 1), got {tail_fraction}")
    kappa_ladder = list(lambda_ladder if kappa_ladder is None else kappa_ladder)
    rungs, failure, known = [], None, {}
    try:
        for name in functionals:
            spec = _functional(name, seq)
            if len(kappa_ladder) != len(lambda_ladder):
                raise ValueError("kappa ladder must pair one-for-one with the lambda ladder")
            _require_forward(*(s for pair in zip(lambda_ladder, kappa_ladder)
                               for s, axis in zip(pair, "pq") if axis in spec.shape))
            for (lam, kap), h in itertools.product(zip(lambda_ladder, kappa_ladder),
                                                   sorted(horizons)):
                t0 = math.ceil(tail_fraction * h)
                cells = sorted({t0, (t0 + h) // 2, h})
                slots = []
                rungs.append((name, spec, lam, kap, h, cells, slots))
                for m, n in itertools.product(cells, cells):
                    try:
                        win = _resolve(spec, p, q, m, n, lam, kap, known)
                    except HorizonError as exc:
                        slots.append(("horizon", exc.needed))
                    except ResourceLimitError as exc:
                        slots.append(("budget", exc.cells))
                    else:
                        slots.append(_Window(spec, *win))
                        continue
                    if stop_at_gap:
                        break
    except Exception as exc:
        failure = exc
    wins = [w for *_, slots in rungs for w in slots if isinstance(w, _Window)]
    values = iter(_window_values(seq, wins) if wins else ())
    if failure is not None:
        raise failure
    return [(*rung[:6], [next(values) if isinstance(w, _Window) else w for w in rung[6]]) for rung in rungs]


# ---------------------------------------------------------------------------
# Scalar functionals
# ---------------------------------------------------------------------------


def window_functional(
    name: str, seq: DoubleSequence, p: WeightSequence | None, q: WeightSequence | None,
    m: int, n: int, lam: float | None, kappa: float | None,
) -> float:
    """One named window functional at the anchor (m, n).

    The scales say the direction.  Backward windows (lam, kappa in (0, 1))
    end at the anchor: the drops read min of ref - x, e.g. sd_both is min
    over the rectangle of u(m, n) - u(i, j).  Any other scale is forward
    and must exceed 1: such windows start at the anchor and the drops read
    min of x - ref, e.g. sd_P is min over the row window of u(i, n) -
    u(m, n).  The spreads read max |x - ref| either way.  A line functional
    ignores the other axis, so the P forms need no q or kappa and the Q
    forms no p or lam; a rectangle whose scales sit on opposite sides of 1
    raises ValueError, as does a missing weight or scale on an axis the
    functional samples.  A rectangle over MAX_WINDOW_CELLS raises
    ResourceLimitError before any cell is evaluated.
    """
    spec = _functional(name, seq)
    for arg, value, axis in (("p", p, "p"), ("lam", lam, "p"), ("q", q, "q"), ("kappa", kappa, "q")):
        if value is None and axis in spec.shape:
            raise ValueError(f"{name} samples the {axis} axis and needs {arg}, got None")
    backward = {0.0 < s < 1.0 for s, axis in ((lam, "p"), (kappa, "q")) if axis in spec.shape}
    if len(backward) > 1:
        raise ValueError(f"window scales lam={lam} and kappa={kappa} sit on opposite sides of 1")
    rows, cols = _resolve(spec, p, q, m, n, lam, kappa, {})
    if backward.pop():
        # The forward window of v(i, j) = -u(m - i, n - j): fl(r - x) is
        # fl(-x - -r) and |r - x| is |-x - -r|, signed zeros included.
        u = seq
        seq = DoubleSequence(u.name, lambda i, j: -u.block(m - i[:, 0], n - j[0]), u.kind)
        rows, cols = (0, m - rows[0]), (0, n - cols[0])
    return _window_values(seq, [_Window(spec, rows, cols)])[0]


# ---------------------------------------------------------------------------
# Weighted difference bounds
# ---------------------------------------------------------------------------


def landau_stat(seq, p, q, m_range, n_range) -> tuple[float, float]:
    """Worst lower bound of weighted one-step differences over a range.

    Returns (inf over the range of (P_m/p_m)(u(m,n) - u(m-1,n)),
    same with the roles of the axes swapped).  Ranges are inclusive and
    must start at 1 or later so the backward difference exists.
    """
    _require_real(seq, "signed difference bound")
    return _difference_bound(seq, p, q, m_range, n_range, TrendSense.INF)


def hardy_stat(seq, p, q, m_range, n_range) -> tuple[float, float]:
    """sup of |weighted one-step differences| over a range; complex allowed."""
    return _difference_bound(seq, p, q, m_range, n_range, TrendSense.SUP)


def _difference_bound(seq, p, q, m_range, n_range, sense):
    m0, m1 = m_range
    n0, n1 = n_range
    if m0 < 1 or n0 < 1:
        raise ValueError(f"difference ranges must start at 1, got ({m0}, {n0})")
    if m1 < m0 or n1 < n0:
        raise ValueError(f"empty difference range ({m_range}, {n_range})")
    cells = (m1 - m0 + 2) * (n1 - n0 + 2)
    if cells > MAX_WINDOW_CELLS:
        raise ResourceLimitError(f"difference range has {cells} cells", cells=cells)
    u = seq.block(np.arange(m0 - 1, m1 + 1), np.arange(n0 - 1, n1 + 1))
    _check_finite(seq, u)
    cp = p.prefix_array(m1)[m0:] / p.weights_array(m1)[m0:]
    cq = q.prefix_array(n1)[n0:] / q.weights_array(n1)[n0:]
    return _difference_stats(u, cp, cq, sense)


def _difference_stats(u, cp, cq, sense) -> tuple[float, float]:
    """The min of cp (x) D10 u and of cq (x) D01 u over u[1:, 1:] (sense
    INF), or the max of cp (x) |D10 u| and cq (x) |D01 u| (SUP), for u a
    block with one row and one column before the range.  One difference
    array at a time, made real in place (by a fresh abs if u is complex).

    A zero minimum is +0.0: numpy's min over zeros of both signs keeps
    whichever its reduction order (even its SIMD layout) meets last, so
    only a sign-free zero lets blocks cut any way give one result.  A
    maximum of absolute values is never -0.0."""
    def stat(d, c):
        if sense is TrendSense.SUP:
            d = np.abs(d, out=None if np.iscomplexobj(d) else d)
        d *= c
        return float(d.max() if sense is TrendSense.SUP else d.min() + 0.0)

    return stat(u[1:, 1:] - u[:-1, 1:], cp[:, None]), stat(u[1:, 1:] - u[1:, :-1], cq[None, :])


# ---------------------------------------------------------------------------
# Empirical limits and tail statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitEstimate:
    value: float | complex
    tail_start: int
    residual_profile: tuple[tuple[int, float], ...]
    converged: bool
    eps_dec: float


def empirical_limit(
    grid: Grid,
    ladder: list[int],
    tail_fraction: float = 0.5,
    eps_dec: float = 0.05,
) -> LimitEstimate:
    """Estimate the rectangular limit of a materialized grid.

    The estimate is the corner value at the largest ladder rung; each rung
    h contributes the worst deviation from it over the square tail
    [ceil(tf*h), h]^2.  Convergence requires the final residual below
    eps_dec and the last three residuals strictly decreasing, except that
    a final residual at the accumulation noise floor (within 64 eps of the
    estimate's scale, so the tail equals the corner up to rounding) is
    accepted outright.
    """
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError(f"tail fraction must lie in (0, 1), got {tail_fraction}")
    if not 0.0 < eps_dec < math.inf:
        raise ValueError(f"eps_dec must be finite and > 0, got {eps_dec}")
    if len(ladder) < 3:
        raise ValueError(f"need at least 3 ladder rungs, got {len(ladder)}")
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or ladder[0] < 1:
        raise ValueError("ladder must be strictly increasing with entries >= 1")
    top = ladder[-1]
    if top > grid.m_max or top > grid.n_max:
        raise HorizonError(
            f"ladder rung {top} outside grid ({grid.m_max}, {grid.n_max})", needed=top
        )
    vals = grid.values
    tails = [(math.ceil(tail_fraction * h), h) for h in ladder]
    lhat = vals[top, top].item()
    residuals = [_square_residual(vals[t0 : h + 1, t0 : h + 1], lhat) for t0, h in tails]
    return _limit_estimate(lhat, residuals, tails, eps_dec)


def _square_residual(sub, lhat) -> float:
    """max |sub - lhat| over a square: from its extrema when real, else in
    row chunks of at most sequences._BAND_BYTES, or one row, where the whole
    top square of a 1024 grid took a 6.3 MiB temporary; max is exact, so
    the bits are one reduction's."""
    if not np.iscomplexobj(sub):
        return _extrema_residual(sub.min(), sub.max(), lhat)
    step = max(1, sequences._BAND_BYTES // (sub.itemsize * sub.shape[1]))
    return float(np.max([np.abs(sub[i : i + step] - lhat).max() for i in range(0, len(sub), step)]))


def _extrema_residual(lo, hi, lhat) -> float:
    """max |x - lhat| over real values x with extrema lo and hi.  Rounded
    subtraction is monotone and sign-symmetric, and abs maps -0.0 to 0.0:
    the bits of |x - lhat|.max(), whatever the sign of a zero lo or hi."""
    return float(np.maximum(abs(hi - lhat), abs(lhat - lo)))


def _limit_estimate(lhat, residuals, tails, eps_dec) -> LimitEstimate:
    """empirical_limit from lhat and the residual of each tail (t, k), [t..k]^2."""
    r = residuals
    decreasing = r[-3] > r[-2] > r[-1]
    noise_floor = 64.0 * float(np.finfo(np.float64).eps) * max(1.0, abs(lhat))
    converged = r[-1] < eps_dec and (decreasing or r[-1] <= noise_floor)
    return LimitEstimate(
        value=lhat,
        tail_start=tails[-1][0],
        residual_profile=tuple((k, x) for (_, k), x in zip(tails, r)),
        converged=converged,
        eps_dec=eps_dec,
    )


class _TailStats:
    """The limits of u and sigma, and a bound's profiles, on each tail
    square [t..k]^2 of a ladder, t = ceil(tf * k), folded band by band into
    running statistics per rung from a mean-field pass (visit is its
    callback); they keep the bits of empirical_limit on the whole grids
    and of landau_stat or hardy_stat on each square.

    A real square's extrema give max |x - estimate| with its bits
    (_extrema_residual), so the estimate, the top corner, may arrive with
    the last band.  A complex x needs it first: a pass without estimates
    only finds them, and a pass given them folds the extrema of
    |x - estimate|, which are exact.  For a bound (name, sense),
    _difference_stats reduces each band's rows of each square with the row
    before them, over columns [t - 1..k]; a band's first row takes the
    previous band's last as the row before.  Minima and maxima are exact
    and _difference_stats reports a zero as +0.0, so any cut of a square
    into bands gives its one-block statistics.
    """

    def __init__(self, seq, p, q, ladder, tail_fraction, bound, estimates=None):
        self.p, self.q, self.bound = p, q, bound
        self.tails = [(math.ceil(tail_fraction * k), k) for k in ladder]
        self.real = seq.kind is ScalarKind.REAL
        self.folds = self.real or estimates is not None  # a complex first pass only finds them
        self.lo = np.full((len(ladder), 2), np.inf)  # per rung, of u and of sigma
        self.hi = -self.lo  # complex: of |x - estimate|
        self.stats = [None] * len(ladder)
        self.corner, self.cp, self.above = estimates, None, None

    def visit(self, r0, u, s, pp, qp):
        r1 = r0 + len(u)
        if r1 == len(pp) and self.corner is None:  # correctly rounded, as _divide rounds them
            self.corner = u[-1, -1].item(), (s[-1, -1] / (pp[-1] * qp[-1])).item()
        if not self.folds:
            return
        if self.cp is None:  # the first band, the largest: the pass has evaluated the weights
            self.cp = pp / self.p.weights_array(len(pp) - 1)
            self.cq = qp / self.q.weights_array(len(qp) - 1)
            self.scratch = np.empty(u.size, s.dtype)
        for i, (t, k) in enumerate(self.tails):
            lo, hi = max(r0, t), min(r1, k + 1)
            if lo >= hi:
                continue
            rows, cols = slice(lo - r0, hi - r0), slice(t, k + 1)
            sigma = self.scratch[: (hi - lo) * (k + 1 - t)].reshape(hi - lo, -1)
            _divide(s[rows, cols], pp[lo:hi], qp[cols], sigma)
            for j, x in enumerate((u[rows, cols], sigma)):
                if not self.real:
                    x = np.abs(x - self.corner[j])
                self.lo[i, j] = np.minimum(self.lo[i, j], x.min())
                self.hi[i, j] = np.maximum(self.hi[i, j], x.max())
            if self.bound:
                self._fold_bounds(i, u, r0, lo, hi)
        self.above = u[-1].copy() if self.bound else None

    def _fold_bounds(self, i, u, r0, lo, hi):
        """Fold the bound statistics of rows [lo, hi) of square i into its own."""
        t, k = self.tails[i]
        cols = slice(t - 1, k + 1)
        top = max(lo - 1, r0)
        pieces = [(top, u[top - r0 : hi - r0, cols])]  # (first row, u rows)
        if lo == r0:
            pieces.append((lo - 1, np.stack([self.above[cols], u[0, cols]])))
        sense = self.bound[1]
        pick = min if sense is TrendSense.INF else max  # builtins: Python floats stay Python floats
        for a, block in pieces:
            if len(block) > 1:  # differences on rows a + 1 ..
                st = _difference_stats(block, self.cp[a + 1 : a + len(block)], self.cq[t : k + 1], sense)
                self.stats[i] = st if self.stats[i] is None else tuple(map(pick, self.stats[i], st))

    def limits(self, eps_dec):
        """The LimitEstimate of u, then of sigma, as empirical_limit gives them."""
        for j, lhat in enumerate(self.corner):
            residuals = [_extrema_residual(lo, hi, lhat) if self.real else float(hi)
                         for lo, hi in zip(self.lo[:, j], self.hi[:, j])]
            yield _limit_estimate(lhat, residuals, self.tails, eps_dec)

    def bound_profiles(self) -> tuple[DecisionProfile, DecisionProfile]:
        """The bound's p and q profiles, a rung per tail square."""
        which, sense = self.bound
        return tuple(
            DecisionProfile(f"{which}_{a}", sense, tuple(
                ProfileRung(lam=None, kappa=None, horizon=k, stat=st[axis], cells=(k + 1 - t) ** 2)
                for (t, k), st in zip(self.tails, self.stats)))
            for axis, a in enumerate("pq")
        )


# ---------------------------------------------------------------------------
# Decision profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileRung:
    lam: float | None
    kappa: float | None
    horizon: int
    stat: float | None
    cells: int
    reason: tuple[str, float | None] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class DecisionProfile:
    """Tail statistics of one functional across window scales and horizons.

    ``stat`` None on a rung means its windows could not be sampled within
    the index or cell budget; ``reason`` says which, as ("horizon",
    HorizonError.needed) or ("budget", cells).  The trend logic then works
    from the rungs that were.
    """

    functional: str
    sense: TrendSense
    rungs: tuple[ProfileRung, ...]

    def narrowest_series(self) -> list[ProfileRung]:
        """Rungs of the narrowest sampled window scale, ordered by horizon:
        the smallest lam, as profiles sample forward windows only."""
        sampled = [r for r in self.rungs if r.stat is not None]
        pick = min((r.lam for r in sampled), key=lambda x: (x is None, x), default=None)
        return sorted((r for r in sampled if r.lam == pick), key=lambda r: r.horizon)

    def trend_holds(self, eps_dec: float) -> bool:
        """Finite stand-in for the iterated limit: at the narrowest sampled
        window scale, the inf-sense stat must sit at or above -eps_dec and
        not decrease over the last three horizons (sup-sense: at or below
        eps_dec and not increase)."""
        series = self.narrowest_series()
        if len(series) < 3:
            return False
        # A sup-sense stat is read as its negation, which rounds alike.
        sign = 1.0 if self.sense is TrendSense.INF else -1.0
        stats = [sign * r.stat for r in series][-3:]
        slack = 1e-12 * (1.0 + max(abs(s) for s in stats))
        return all(b >= a - slack for a, b in zip(stats, stats[1:])) and stats[-1] >= -eps_dec


def build_window_profiles(
    seq: DoubleSequence, p: WeightSequence, q: WeightSequence, functionals: list[str],
    horizons: list[int], lambda_ladder: list[float], kappa_ladder: list[float] | None = None,
    tail_fraction: float = 0.5,
) -> dict[str, DecisionProfile]:
    """Sample window functionals on tail cells across scales and horizons.

    Each rung takes the worst value (per the functional's sense) over a
    3x3 tail sample; a rung whose windows cannot be resolved within the
    index or cell budget gets stat None.  One pass over u serves every
    functional, scale and horizon.
    """
    ladder = _rung_values(seq, p, q, functionals, horizons, lambda_ladder, kappa_ladder,
                          tail_fraction, stop_at_gap=True)
    rungs = {name: [] for name in functionals}
    for name, spec, lam, kap, h, _, slots in ladder:
        gap = next((s for s in slots if isinstance(s, tuple)), None)
        # The builtins keep the first of two zeros; numpy picks by its layout.
        worst = min if spec.sense is TrendSense.INF else max
        stat, cells = (None, 0) if gap else (worst(slots), len(slots))
        rungs[name].append(ProfileRung(lam, kap, h, stat, cells, reason=gap))
    return {
        name: DecisionProfile(name, _functional(name, seq).sense, tuple(rs))
        for name, rs in rungs.items()
    }


# ---------------------------------------------------------------------------
# Vectorized window fields (shared window boundaries across a whole grid)
# ---------------------------------------------------------------------------


def sd_field_components(
    seq: DoubleSequence,
    p: WeightSequence,
    q: WeightSequence,
    m_max: int,
    n_max: int,
    lam: float,
    kappa: float,
) -> dict[str, np.ndarray]:
    """Whole-grid sd_q, sd_strong_p, sd_both and the decomposition margin.

    Matches the scalar functionals bit for bit, but for the sign of a zero:
    every output cell is a min of the same value set followed by the same
    single subtraction, and the fields read -0.0 as 0.0, so no minimum
    depends on the order its zeros are reduced in.  The margin field is
    sd_both - sd_strong_p - sd_q.  Both scales must exceed 1.
    """
    _require_real(seq, "sd field")
    _require_forward(lam, kappa)
    w_rows = window_edge(p, np.arange(m_max + 1), lam)
    w_cols = window_edge(q, np.arange(n_max + 1), kappa)
    cells = (int(w_rows[-1]) + 1) * (int(w_cols[-1]) + 1)
    if cells > MAX_WINDOW_CELLS:
        raise ResourceLimitError(f"field needs {cells} extended cells", cells=cells)
    u = seq.block(np.arange(w_rows[-1] + 1), np.arange(w_cols[-1] + 1))
    _check_finite(seq, u)
    # Each window [lo..hi] is one reduceat slice from the interleaved starts
    # (lo, hi + 1); the slices from hi + 1 to the next lo are dropped, and a
    # zero row and column past the last edges keep every start in range.
    # Adding 0.0 maps -0.0 to 0.0.
    u = np.pad(u + 0.0, ((0, 1), (0, 1)))

    def window_min(a, hi):
        """a[:, k..hi[k]].min(axis=1) for each k, along the fast axis."""
        starts = np.column_stack([np.arange(hi.size), hi + 1]).ravel()
        return np.minimum.reduceat(a, starts, axis=1)[:, ::2]

    # col_min[m, j] = min over i in [m .. w_rows[m]] of u[i, j]
    col_min = np.ascontiguousarray(window_min(np.ascontiguousarray(u.T), w_rows).T)
    u_rows = u[: m_max + 1]
    u0 = u[: m_max + 1, : n_max + 1]
    sd_q_field = window_min(u_rows, w_cols) - u0
    strong_p_field = window_min(col_min - u_rows, w_cols)
    both_field = window_min(col_min, w_cols) - u0
    return {
        "sd_Q": sd_q_field,
        "sd_strong_P": strong_p_field,
        "sd_both": both_field,
        "margin": both_field - strong_p_field - sd_q_field,
    }


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def export_profiles_csv(profiles: list[DecisionProfile], path: str) -> None:
    """Decision profiles, one row per rung.  Unsampled rungs keep their
    row with an empty tail_stat so ladders stay visibly aligned."""
    _write_csv(path, "functional,lambda,kappa,horizon,tail_stat", (
        (prof.functional, *(None if s is None else float(s) for s in (r.lam, r.kappa)), r.horizon, r.stat)
        for prof in profiles for r in prof.rungs))


def profile_samples(
    seq: DoubleSequence, p: WeightSequence, q: WeightSequence, functional: str,
    horizons: list[int], lambda_ladder: list[float], kappa_ladder: list[float] | None = None,
    tail_fraction: float = 0.5,
) -> list[tuple[float, float, int, int, int, float | None]]:
    """Raw per-cell values behind a decision profile: rows (lambda, kappa,
    horizon, m, n, value) over the tail cells build_window_profiles
    aggregates, value None where a window exceeds the budgets."""
    ladder = _rung_values(seq, p, q, [functional], horizons, lambda_ladder, kappa_ladder,
                          tail_fraction, stop_at_gap=False)
    return [
        (lam, kap, h, m, n, None if isinstance(v, tuple) else v)
        for _, _, lam, kap, h, cells, slots in ladder
        for (m, n), v in zip(itertools.product(cells, cells), slots)
    ]


def export_samples_csv(samples, path: str, functional: str) -> None:
    """Per-cell sweep rows as functional,lambda,kappa,horizon,m,n,value."""
    _write_csv(path, "functional,lambda,kappa,horizon,m,n,value",
               ((functional, *(None if s is None else float(s) for s in (lam, kap)), *rest)
                for lam, kap, *rest in samples))
