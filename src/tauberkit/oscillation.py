"""Finite-window oscillation functionals and their decision profiles.

Forward windows collect indices i with P_m <= P_i <= lam * P_m (lam > 1);
backward windows collect lam * P_m < P_i <= P_m (0 < lam < 1).  A window
functional is described by its shape (the axes its window extends along),
its reference cell and its reduction: the sd_* functionals take one-sided
drops from the reference (real sequences only), the so_* functionals
absolute spreads max |u - ref| (complex welcome).  Decision profiles sample
the functionals on a tail ladder of horizons so a caller can see whether a
condition is trending the way the limit theory needs it to.

One window engine computes every functional.  A set of profiles first
resolves every window it samples -- by functional, then scale, horizon
and 3x3 tail anchor -- under the per-anchor index and cell budgets.  It
then makes one pass per horizon: u is evaluated once on the union of
that horizon's windows, for all functionals and scales, in row bands of
at most _BAND_CELLS cells.  The window edges cut the union into
segments, and each window is reduced from per-segment extrema (of x, or
of |x - r| for complex u).  Min and max are exact and every value is
still one subtraction of the same two doubles, so the results match a
per-anchor evaluation bit for bit.  window_functional, one functional at
one anchor, is the engine's single-window case.
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
from .sequences import DoubleSequence, Grid, ScalarKind, WeightSequence

# Rectangle windows larger than this are refused (scalar ops) or recorded
# as unsampled rungs (profiles), though the window engine never holds a
# window: it reads row bands.  landau_stat and hardy_stat refuse difference
# blocks, and sd_field_components fields, larger than this, since each is
# one block in memory: ~240 MB of float64 at the default.
MAX_WINDOW_CELLS = 30_000_000

# Cells of u the window engine evaluates at once: 1 MiB of float64, so a
# band and the rule's temporaries stay near a 2 MiB L2 cache and the
# engine's memory is bounded whatever the horizon and window scale.  On a
# 2-vCPU Xeon, bands of 2**17 to 2**19 cells ran profiles about 30 % faster
# than bands of 2**21.
_BAND_CELLS = 1 << 17


def _require_real(seq: DoubleSequence, what: str) -> None:
    if seq.kind is not ScalarKind.REAL:
        raise ScalarKindError(f"{what} is order-sensitive; {seq.name} is complex-valued")


def _check_finite(seq: DoubleSequence, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise NonFiniteValueError(f"{seq.name}: non-finite value inside a window")


# ---------------------------------------------------------------------------
# Window boundaries
# ---------------------------------------------------------------------------


def window_upper_index(p: WeightSequence, m: int, lam: float) -> int:
    """Largest i with P_i <= lam * P_m, for lam > 1.

    Works on the already-published prefix only; extend with
    ensure_sum_exceeds first.  Raises HorizonError when the cached sums do
    not yet reach the window edge, carrying the threshold that must be
    exceeded.
    """
    if lam <= 1.0:
        raise ValueError(f"forward window needs lam > 1, got {lam}")
    if m < 0:
        raise ValueError(f"window anchor must be >= 0, got {m}")
    sums = p.prefix_snapshot()
    if m >= len(sums):
        raise HorizonError(f"{p.name}: prefix not evaluated at {m}", needed=m)
    target = lam * float(sums[m])
    if sums[-1] < target:
        raise HorizonError(
            f"{p.name}: prefix reaches {float(sums[-1])!r}, window needs > {target!r}",
            needed=target,
        )
    return int(np.searchsorted(sums, target, side="right")) - 1


def backward_window_lower_index(p: WeightSequence, m: int, lam: float) -> int:
    """Smallest i with P_i > lam * P_m, for 0 < lam < 1.

    Needs nothing past the anchor, so the prefix extends on demand.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"backward window needs 0 < lam < 1, got {lam}")
    if m < 0:
        raise ValueError(f"window anchor must be >= 0, got {m}")
    sums = p.prefix_array(m)
    target = lam * float(sums[m])
    lo = int(np.searchsorted(sums, target, side="right"))
    # lam < 1 puts m itself in the window in exact arithmetic; keep that
    # guarantee even if lam*P_m rounds up onto P_m.
    return min(lo, m)


# ---------------------------------------------------------------------------
# Window descriptors
# ---------------------------------------------------------------------------


class WindowDirection(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class TrendSense(Enum):
    INF = "inf"
    SUP = "sup"


class _Functional(NamedTuple):
    """A window functional at anchor (m, n).

    shape: the axes the window extends along -- "p" rows i (column n only),
    "q" columns j (row m only), "pq" both.  reference: the value each cell
    x = u(i, j) is compared with -- "corner" u(m, n), "row" u(m, j), "col"
    u(i, n).  reduction: "drop" is min of x - ref on forward windows and min
    of ref - x on backward ones (real sequences only); "spread" is max of
    |x - ref|.  A drop is watched from below, a spread from above.
    """

    shape: str
    reference: str
    reduction: str

    @property
    def sense(self) -> TrendSense:
        return TrendSense.INF if self.reduction == "drop" else TrendSense.SUP


_FUNCTIONALS = {
    "sd_P": _Functional("p", "corner", "drop"),
    "sd_Q": _Functional("q", "corner", "drop"),
    "sd_strong_P": _Functional("pq", "row", "drop"),
    "sd_strong_Q": _Functional("pq", "col", "drop"),
    "sd_both": _Functional("pq", "corner", "drop"),
    "so_P": _Functional("p", "corner", "spread"),
    "so_Q": _Functional("q", "corner", "spread"),
    "so_strong_P": _Functional("pq", "row", "spread"),
    "so_strong_Q": _Functional("pq", "col", "spread"),
    "so_both": _Functional("pq", "corner", "spread"),
}


def window_functional_names() -> list[str]:
    return list(_FUNCTIONALS)


def _functional(name: str, seq: DoubleSequence, what: str | None = None) -> _Functional:
    """Descriptor of a named functional, refusing drops on complex sequences."""
    try:
        spec = _FUNCTIONALS[name]
    except KeyError:
        raise KeyError(
            f"unknown functional {name!r}; known: {', '.join(_FUNCTIONALS)}"
        ) from None
    if spec.reduction == "drop":
        _require_real(seq, what or name)
    return spec


# ---------------------------------------------------------------------------
# The window engine
# ---------------------------------------------------------------------------


def _axis_window(w, anchor, scale, direction, known) -> tuple[int, int]:
    """(lo, hi) of one axis's window, cached in known: the prefix only grows
    (past a forward window's edge first), so a resolved window is final."""
    key = (id(w), anchor, scale)
    if key not in known and direction is WindowDirection.BACKWARD:
        known[key] = backward_window_lower_index(w, anchor, scale), anchor
    elif key not in known:
        if scale <= 1.0:
            raise ValueError(f"forward window needs lam > 1, got {scale}")
        if anchor < 0:
            raise ValueError(f"window anchor must be >= 0, got {anchor}")
        w.ensure_sum_exceeds(scale * w.prefix(anchor))
        known[key] = anchor, window_upper_index(w, anchor, scale)
    return known[key]


def _resolve(spec, direction, p, q, m, n, lam, kappa, budget, known):
    """Row and column window (lo, hi) of one anchor, axis windows cached in
    known.  Grows the prefixes as needed; HorizonError propagates when
    max_index is hit first, and a rectangle over the cell budget raises
    ResourceLimitError.
    """
    rows = (m, m) if spec.shape == "q" else _axis_window(p, m, lam, direction, known)
    cols = (n, n) if spec.shape == "p" else _axis_window(q, n, kappa, direction, known)
    if spec.shape == "pq" and budget is not None:
        cells = (rows[1] - rows[0] + 1) * (cols[1] - cols[0] + 1)
        if cells > budget:
            raise ResourceLimitError(
                f"window [{rows[0]}..{rows[1]}]x[{cols[0]}..{cols[1]}] has {cells} cells, "
                f"budget {budget}", cells=cells
            )
    return rows, cols


class _Window(NamedTuple):
    """A functional's inclusive row and column window, anchored on row m."""

    spec: _Functional
    rows: tuple[int, int]
    cols: tuple[int, int]
    m: int


def _cuts(spans):
    """Edges cutting an axis at both ends of every span, and each span's
    (first, last + 1) segment: every span is a run of whole segments."""
    edges = sorted({e for lo, hi in spans for e in (lo, hi + 1)})
    at = {e: k for k, e in enumerate(edges)}
    return edges, [(at[lo], at[hi + 1]) for lo, hi in spans]


_WORSE = {"drop": np.minimum, "spread": np.maximum}


def _compare(reduction, forward, lo, hi, ref):
    """A functional's value from the minima lo and maxima hi of its window."""
    if reduction == "spread":
        return np.maximum(hi - ref, ref - lo)
    return lo - ref if forward else ref - hi


def _window_values(seq, direction, wins) -> list[float]:
    """Each window's functional value, from one pass over their union.

    The window edges cut rows and columns into segments; a row segment
    reads only the column segments some window pairs it with, in bands of
    at most _BAND_CELLS cells, and any non-finite cell raises
    NonFiniteValueError.  Each reference (reduction and corner u(m, n),
    anchor row u(m, .) or anchor column u(., n)) keeps its worst comparison
    per pair of segments; a window takes the worst over its segments.  Real
    bands compare extrema: column min/max over the row segment for corner
    and row references, row min/max per column segment for column ones.
    Rounding is monotone, so min x - r is min (x - r) and max(max x - r,
    r - min x) is max |x - r|.  Complex bands take |x - r| once per
    reference a row segment needs.
    """
    forward = direction is WindowDirection.FORWARD
    real = seq.kind is ScalarKind.REAL
    redges, rspans = _cuts([w.rows for w in wins])
    cedges, cspans = _cuts([w.cols for w in wins])
    nseg = len(redges) - 1
    cover = np.zeros((nseg, len(cedges) - 1), dtype=bool)
    for (s0, s1), (t0, t1) in zip(rspans, cspans):
        cover[s0:s1, t0:t1] = True
    # Column segment t of the union sits at positions cpos[t]..cpos[t + 1].
    cpos = np.concatenate([[0], np.cumsum(np.diff(cedges) * cover.any(axis=0))])
    # Each row segment's references, with the column segments their windows
    # span there; the anchor opens a forward window and closes a backward one.
    keys, need = [], [{} for _ in range(nseg)]
    for w, (s0, s1), (t0, t1) in zip(wins, rspans, cspans):
        ref = w.spec.reference
        at = int(cpos[t0] if forward else cpos[t1] - 1)
        key = (w.spec.reduction, ref, None if ref == "col" else w.m, None if ref == "row" else at)
        keys.append(key)
        for s in range(s0, s1):
            a, b = need[s].get(key, (t0, t1))
            need[s][key] = (min(a, t0), max(b, t1))
    ref_rows = {key[2]: None for key in keys if key[2] is not None}
    fill = {"drop": np.inf, "spread": -np.inf}
    tables = {key: np.full(cover.shape, fill[key[0]]) for key in dict.fromkeys(keys)}
    for s in range(nseg) if forward else range(nseg - 1, -1, -1):
        ts = np.flatnonzero(cover[s])
        if ts.size == 0:
            continue
        cols = np.concatenate([np.arange(cedges[t], cedges[t + 1]) for t in ts])
        pos = np.concatenate([np.arange(cpos[t], cpos[t + 1]) for t in ts])
        bounds = np.append(np.searchsorted(pos, cpos[ts]), pos.size)
        jobs = [(key, *np.searchsorted(ts, span)) for key, span in need[s].items()]
        col_refs = any(key[1] == "col" for key in need[s])
        step = max(1, _BAND_CELLS // cols.size)
        bands = range(redges[s], redges[s + 1], step)
        for b0 in bands if forward else reversed(bands):
            b1 = min(b0 + step, redges[s + 1])
            u = seq.block(np.arange(b0, b1), cols)
            for m in ref_rows:
                if b0 <= m < b1:
                    ref_rows[m] = np.full(int(cpos[-1]), np.nan, dtype=u.dtype)
                    ref_rows[m][pos] = u[m - b0]
            if real:
                # Extrema carry any nan or infinity of the band.
                col_lo, col_hi = u.min(axis=0), u.max(axis=0)
                _check_finite(seq, col_lo, col_hi)
                seg_lo = np.minimum.reduceat(col_lo, bounds[:-1])
                seg_hi = np.maximum.reduceat(col_hi, bounds[:-1])
                if col_refs:
                    row_lo = np.minimum.reduceat(u, bounds[:-1], axis=1)
                    row_hi = np.maximum.reduceat(u, bounds[:-1], axis=1)
            else:
                _check_finite(seq, u)
            for key, k0, k1 in jobs:
                reduction, ref, m, at = key
                worse, c0, c1 = _WORSE[reduction], bounds[k0], bounds[k1]
                if ref == "col":
                    r = u[:, c0 if forward else c1 - 1, None]
                else:
                    # A row reference's windows may leave column gaps its
                    # own row did not read; their nan entries go unused.
                    r = ref_rows[m][pos[c0:c1] if at is None else at]
                if not real:
                    top = np.maximum.reduceat(np.abs(u[:, c0:c1] - r), bounds[k0:k1] - c0, axis=1)
                    top = top.max(axis=0)
                elif ref == "corner":
                    top = _compare(reduction, forward, seg_lo[k0:k1], seg_hi[k0:k1], r)
                elif ref == "row":
                    d = _compare(reduction, forward, col_lo[c0:c1], col_hi[c0:c1], r)
                    top = worse.reduceat(d, bounds[k0:k1] - c0)
                else:
                    d = _compare(reduction, forward, row_lo[:, k0:k1], row_hi[:, k0:k1], r)
                    top = worse.reduce(d, axis=0)
                row = tables[key][s]
                row[ts[k0:k1]] = worse(row[ts[k0:k1]], top)
    return [
        float(_WORSE[key[0]].reduce(tables[key][s0:s1, t0:t1], axis=None))
        for key, (s0, s1), (t0, t1) in zip(keys, rspans, cspans)
    ]


def _rung_values(seq, p, q, functionals, horizons, lambda_ladder, kappa_ladder,
                 tail_fraction, budget, stop_at_gap):
    """(functional, descriptor, lam, kappa, horizon, tail cells, slots) per
    rung; a slot per anchor tried, in row-major order, holds its value or
    why it has none: ("horizon", HorizonError.needed) or ("budget", cells).
    With stop_at_gap the first such anchor ends its rung.  Every window is
    resolved before any is evaluated, one pass per horizon.  Raises what
    evaluating the rungs in turn would raise: any other error ends the
    resolution, raised after evaluating the windows resolved before it.
    """
    kappa_ladder = list(lambda_ladder if kappa_ladder is None else kappa_ladder)
    fwd = WindowDirection.FORWARD
    rungs, failure, known = [], None, {}
    try:
        for name in functionals:
            spec = _functional(name, seq)
            if len(kappa_ladder) != len(lambda_ladder):
                raise ValueError("kappa ladder must pair one-for-one with the lambda ladder")
            for (lam, kap), h in itertools.product(zip(lambda_ladder, kappa_ladder),
                                                   sorted(horizons)):
                t0 = math.ceil(tail_fraction * h)
                cells = sorted({t0, (t0 + h) // 2, h})
                slots = []
                rungs.append((name, spec, lam, kap, h, cells, slots))
                for m, n in itertools.product(cells, cells):
                    try:
                        win = _resolve(spec, fwd, p, q, m, n, lam, kap, budget, known)
                    except HorizonError as exc:
                        slots.append(("horizon", exc.needed))
                    except ResourceLimitError as exc:
                        slots.append(("budget", exc.cells))
                    else:
                        slots.append(_Window(spec, *win, m))
                        continue
                    if stop_at_gap:
                        break
    except Exception as exc:
        failure = exc
    wins = {}
    for *_, h, _, slots in rungs:
        wins.setdefault(h, []).extend(w for w in slots if isinstance(w, _Window))
    values = {h: iter(_window_values(seq, fwd, ws)) for h, ws in wins.items() if ws}
    if failure is not None:
        raise failure
    return [
        (*rung[:6], [next(values[rung[4]]) if isinstance(w, _Window) else w for w in rung[6]])
        for rung in rungs
    ]


# ---------------------------------------------------------------------------
# Scalar functionals
# ---------------------------------------------------------------------------


def window_functional(
    name: str, seq: DoubleSequence, p: WeightSequence | None, q: WeightSequence | None,
    m: int, n: int, lam: float | None, kappa: float | None,
    direction: WindowDirection = WindowDirection.FORWARD, budget: int = MAX_WINDOW_CELLS,
) -> float:
    """One named window functional at the anchor (m, n).

    Forward windows (lam, kappa > 1) start at the anchor: the drops read
    min of x - ref, e.g. sd_P is min over the row window of u(i, n) - u(m, n).
    Backward windows (lam, kappa in (0, 1)) end at it: the drops read min of
    ref - x, e.g. sd_both is min over the rectangle of u(m, n) - u(i, j).
    The spreads read max |x - ref| either way.  A line functional ignores
    the other axis, so the P forms need no q or kappa and the Q forms no p
    or lam.  A rectangle over budget cells raises ResourceLimitError before
    any cell is evaluated.
    """
    what = name if direction is WindowDirection.FORWARD else f"backward {name}"
    spec = _functional(name, seq, what)
    rows, cols = _resolve(spec, direction, p, q, m, n, lam, kappa, budget, {})
    return _window_values(seq, direction, [_Window(spec, rows, cols, m)])[0]


def sd_functional_P(seq, p, m, n, lam) -> float:
    """min over the row window of u(i, n) - u(m, n)."""
    return window_functional("sd_P", seq, p, None, m, n, lam, None)


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
    return _difference_bound(seq, p, q, m_range, n_range, signed=True)


def hardy_stat(seq, p, q, m_range, n_range) -> tuple[float, float]:
    """sup of |weighted one-step differences| over a range; complex allowed."""
    return _difference_bound(seq, p, q, m_range, n_range, signed=False)


def _difference_bound(seq, p, q, m_range, n_range, signed):
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
    return _difference_stats(u, cp, cq, signed)


def _difference_stats(u, cp, cq, signed) -> tuple[float, float]:
    """The min of cp (x) D10 u and of cq (x) D01 u over u[1:, 1:] (signed),
    or the max of cp (x) |D10 u| and cq (x) |D01 u|, for u a block with one
    row and one column before the range.  One difference array at a time,
    made real in place (by a fresh abs if u is complex)."""
    def stat(d, c):
        if not signed:
            d = np.abs(d, out=None if np.iscomplexobj(d) else d)
        d *= c
        return float(d.min() if signed else d.max())

    return stat(u[1:, 1:] - u[:-1, 1:], cp[:, None]), stat(u[1:, 1:] - u[1:, :-1], cq[None, :])


# ---------------------------------------------------------------------------
# Empirical limits
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
    starts = [math.ceil(tail_fraction * h) for h in ladder]
    squares = [vals[t0 : h + 1, t0 : h + 1] for t0, h in zip(starts, ladder)]
    return _limit_estimate(squares, ladder, tail_fraction, eps_dec)


def _limit_estimate(squares, ladder, tail_fraction, eps_dec) -> LimitEstimate:
    """empirical_limit from the tail square [ceil(tf*h), h]^2 of each rung h."""
    lhat = squares[-1][-1, -1].item()
    profile = []
    for h, sub in zip(ladder, squares):
        if np.iscomplexobj(sub):
            r = np.abs(sub - lhat).max()
        else:
            # Rounded subtraction is monotone and sign-symmetric, and abs
            # maps -0.0 to 0.0: the bits of |sub - lhat|.max(), no temporary.
            r = np.maximum(abs(sub.max() - lhat), abs(lhat - sub.min()))
        profile.append((h, float(r)))
    r = [v for _, v in profile]
    decreasing = r[-3] > r[-2] > r[-1]
    noise_floor = 64.0 * float(np.finfo(np.float64).eps) * max(1.0, abs(lhat))
    converged = r[-1] < eps_dec and (decreasing or r[-1] <= noise_floor)
    return LimitEstimate(
        value=lhat,
        tail_start=math.ceil(tail_fraction * ladder[-1]),
        residual_profile=tuple(profile),
        converged=converged,
        eps_dec=eps_dec,
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
        """Rungs of the narrowest sampled window scale, ordered by horizon."""
        lams = sorted({r.lam for r in self.rungs if r.stat is not None}, key=lambda x: (x is None, x))
        if not lams:
            return []
        if lams[0] is None:
            pick = None
        else:
            above = [x for x in lams if x > 1.0]
            pick = min(above) if above else max(lams)
        series = [r for r in self.rungs if r.lam == pick and r.stat is not None]
        return sorted(series, key=lambda r: r.horizon)

    def trend_holds(self, eps_dec: float) -> bool:
        """Finite stand-in for the iterated limit: at the narrowest sampled
        window scale, the inf-sense stat must sit at or above -eps_dec and
        not decrease over the last three horizons (sup-sense: at or below
        eps_dec and not increase)."""
        series = self.narrowest_series()
        if len(series) < 3:
            return False
        stats = [r.stat for r in series][-3:]
        slack = 1e-12 * (1.0 + max(abs(s) for s in stats))
        if self.sense is TrendSense.INF:
            monotone = all(b >= a - slack for a, b in zip(stats, stats[1:]))
            small = stats[-1] >= -eps_dec
        else:
            monotone = all(b <= a + slack for a, b in zip(stats, stats[1:]))
            small = stats[-1] <= eps_dec
        return monotone and small


def build_window_profiles(
    seq: DoubleSequence, p: WeightSequence, q: WeightSequence, functionals: list[str],
    horizons: list[int], lambda_ladder: list[float], kappa_ladder: list[float] | None = None,
    tail_fraction: float = 0.5, budget: int = MAX_WINDOW_CELLS,
) -> dict[str, DecisionProfile]:
    """Sample window functionals on tail cells across scales and horizons.

    Each rung takes the worst value (per the functional's sense) over a
    3x3 tail sample; a rung whose windows cannot be resolved within the
    index or cell budget gets stat None.  One pass over u per horizon
    serves every functional and scale.
    """
    ladder = _rung_values(seq, p, q, functionals, horizons, lambda_ladder, kappa_ladder,
                          tail_fraction, budget, stop_at_gap=True)
    rungs = {name: [] for name in functionals}
    for name, spec, lam, kap, h, _, slots in ladder:
        gap = next((s for s in slots if isinstance(s, tuple)), None)
        worst = min if spec.sense is TrendSense.INF else max
        stat, cells = (None, 0) if gap else (worst(slots), len(slots))
        rungs[name].append(ProfileRung(lam, kap, h, stat, cells, reason=gap))
    return {
        name: DecisionProfile(name, _functional(name, seq).sense, tuple(rs))
        for name, rs in rungs.items()
    }


def build_window_profile(
    seq: DoubleSequence, p: WeightSequence, q: WeightSequence, functional: str,
    horizons: list[int], lambda_ladder: list[float], kappa_ladder: list[float] | None = None,
    tail_fraction: float = 0.5, budget: int = MAX_WINDOW_CELLS,
) -> DecisionProfile:
    """build_window_profiles for one functional."""
    return build_window_profiles(seq, p, q, [functional], horizons, lambda_ladder,
                                 kappa_ladder, tail_fraction, budget)[functional]


def _bound_profiles(which, rungs) -> tuple[DecisionProfile, DecisionProfile]:
    """The tail profiles of landau_stat or hardy_stat, one per axis, from
    rungs (h, u, cp, cq): u on [t - 1..h]^2 and cp, cq = P_i/p_i, Q_j/q_j
    over [t..h], as _difference_stats reads them."""
    sense = TrendSense.INF if which == "landau" else TrendSense.SUP
    axes = ([], [])
    for h, u, cp, cq in rungs:
        for axis, stat in zip(axes, _difference_stats(u, cp, cq, signed=which == "landau")):
            axis.append(ProfileRung(lam=None, kappa=None, horizon=h, stat=stat, cells=cp.size * cq.size))
    return tuple(DecisionProfile(f"{which}_{a}", sense, tuple(rs)) for a, rs in zip("pq", axes))


# ---------------------------------------------------------------------------
# Vectorized window fields (shared window boundaries across a whole grid)
# ---------------------------------------------------------------------------


def window_upper_indices(p: WeightSequence, m_max: int, lam: float) -> np.ndarray:
    """window_upper_index for every anchor 0..m_max at once, extending the
    prefix as required."""
    if lam <= 1.0:
        raise ValueError(f"forward window needs lam > 1, got {lam}")
    p.ensure(m_max)
    p.ensure_sum_exceeds(lam * p.prefix(m_max))
    sums = p.prefix_snapshot()
    targets = lam * sums[: m_max + 1]
    return np.searchsorted(sums, targets, side="right").astype(np.int64) - 1


def _windowed_min_axis1(arr: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """out[:, c] = arr[:, lo[c]..hi[c]].min(axis=1) via a doubling table.

    Only two table levels are alive at a time, so memory stays at twice
    the input.  Exact: the result is a min of original entries.
    """
    lengths = hi - lo + 1
    if (lengths < 1).any():
        raise ValueError("windowed min needs lo <= hi")
    if hi.max() >= arr.shape[1]:
        raise ValueError("windowed min boundary outside array")
    ks = np.floor(np.log2(lengths)).astype(np.int64)
    out = np.empty((arr.shape[0], len(lo)), dtype=arr.dtype)
    level = arr
    max_k = int(ks.max())
    for k in range(max_k + 1):
        sel = np.nonzero(ks == k)[0]
        if sel.size:
            left = lo[sel]
            right = hi[sel] - (1 << k) + 1
            out[:, sel] = np.minimum(level[:, left], level[:, right])
        if k < max_k:
            shift = 1 << k
            level = np.minimum(level[:, : level.shape[1] - shift], level[:, shift:])
    return out


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

    Matches the scalar functionals bit for bit: every output cell is a min
    of the same value set followed by the same single subtraction.  The
    margin field is sd_both - sd_strong_p - sd_q.
    """
    _require_real(seq, "sd field")
    w_rows = window_upper_indices(p, m_max, lam)
    w_cols = window_upper_indices(q, n_max, kappa)
    mi_ext = int(w_rows[-1])
    ni_ext = int(w_cols[-1])
    cells = (mi_ext + 1) * (ni_ext + 1)
    if cells > MAX_WINDOW_CELLS:
        raise ResourceLimitError(f"field needs {cells} extended cells", cells=cells)
    u_ext = seq.block(np.arange(mi_ext + 1), np.arange(ni_ext + 1))
    _check_finite(seq, u_ext)
    rows = np.arange(m_max + 1, dtype=np.int64)
    cols = np.arange(n_max + 1, dtype=np.int64)
    # col_min[m, j] = min over i in [m .. w_rows[m]] of u[i, j]
    col_min = _windowed_min_axis1(u_ext.T, rows, w_rows).T
    u0 = u_ext[: m_max + 1, : n_max + 1]
    sd_q_field = _windowed_min_axis1(u_ext[: m_max + 1, :], cols, w_cols) - u0
    strong_p_field = _windowed_min_axis1(col_min - u_ext[: m_max + 1, :], cols, w_cols)
    both_field = _windowed_min_axis1(col_min, cols, w_cols) - u0
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
    from .transform import format_float

    with open(path, "w", newline="") as fh:
        fh.write("functional,lambda,kappa,horizon,tail_stat\n")
        for prof in profiles:
            for r in prof.rungs:
                lam = "" if r.lam is None else format_float(r.lam)
                kap = "" if r.kappa is None else format_float(r.kappa)
                stat = "" if r.stat is None else format_float(r.stat)
                fh.write(f"{prof.functional},{lam},{kap},{r.horizon},{stat}\n")


def profile_samples(
    seq: DoubleSequence, p: WeightSequence, q: WeightSequence, functional: str,
    horizons: list[int], lambda_ladder: list[float], kappa_ladder: list[float] | None = None,
    tail_fraction: float = 0.5, budget: int = MAX_WINDOW_CELLS,
) -> list[tuple[float, float, int, int, int, float | None]]:
    """Raw per-cell values behind a decision profile: rows (lambda, kappa,
    horizon, m, n, value) over the tail cells build_window_profile
    aggregates, value None where a window exceeds the budgets."""
    ladder = _rung_values(seq, p, q, [functional], horizons, lambda_ladder, kappa_ladder,
                          tail_fraction, budget, stop_at_gap=False)
    return [
        (lam, kap, h, m, n, None if isinstance(v, tuple) else v)
        for _, _, lam, kap, h, cells, slots in ladder
        for (m, n), v in zip(itertools.product(cells, cells), slots)
    ]


def export_samples_csv(samples, path: str, functional: str) -> None:
    """Per-cell sweep rows as functional,lambda,kappa,horizon,m,n,value."""
    from .transform import format_float

    with open(path, "w", newline="") as fh:
        fh.write("functional,lambda,kappa,horizon,m,n,value\n")
        for lam, kap, h, m, n, v in samples:
            value = "" if v is None else format_float(v)
            fh.write(
                f"{functional},{format_float(lam)},{format_float(kap)},{h},{m},{n},{value}\n"
            )
