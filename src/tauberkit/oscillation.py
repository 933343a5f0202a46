"""Finite-window oscillation functionals and their decision profiles.

Forward windows collect indices i with P_m <= P_i <= lam * P_m (lam > 1);
backward windows collect lam * P_m < P_i <= P_m (0 < lam < 1).  A window
functional is described by its shape (the axes its window extends along),
its reference cell and its reduction: the sd_* functionals take one-sided
drops from the reference (real sequences only), the so_* functionals
absolute spreads max |u - ref| (complex welcome).  Decision profiles sample
the functionals on a tail ladder of horizons so a caller can see whether a
condition is trending the way the limit theory needs it to.

One window engine computes every functional.  A profile rung first
resolves the windows of its 3x3 tail anchors, in anchor order and under the
per-anchor index and cell budgets.  It then evaluates u once on the union
of those windows, in row bands of at most _BAND_CELLS cells, and reduces
every anchor from the bands' extrema over the segments the window edges cut
the union into.  Min and max are exact and every value is still one
subtraction of the same two doubles, so the results match a per-anchor
evaluation bit for bit.  window_functional, one functional at one anchor,
is the engine's single-anchor case.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
# as unsampled rungs (profiles).  ~240 MB of float64 at the default.
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


def _check_finite(seq: DoubleSequence, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
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


def _forward_upper(p: WeightSequence, m: int, lam: float) -> int:
    """window_upper_index after growing the prefix past the window edge."""
    if lam <= 1.0:
        raise ValueError(f"forward window needs lam > 1, got {lam}")
    if m < 0:
        raise ValueError(f"window anchor must be >= 0, got {m}")
    p.ensure_sum_exceeds(lam * p.prefix(m))
    return window_upper_index(p, m, lam)


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


def _axis_window(w, anchor, scale, direction) -> tuple[int, int]:
    if direction is WindowDirection.FORWARD:
        return anchor, _forward_upper(w, anchor, scale)
    return backward_window_lower_index(w, anchor, scale), anchor


def _resolve(spec, direction, p, q, m, n, lam, kappa, budget):
    """Row and column window (lo, hi) of one anchor.

    Grows the prefixes as needed; HorizonError propagates when max_index is
    hit first, and a rectangle over the cell budget raises
    ResourceLimitError.
    """
    rows = (m, m) if spec.shape == "q" else _axis_window(p, m, lam, direction)
    cols = (n, n) if spec.shape == "p" else _axis_window(q, n, kappa, direction)
    if spec.shape == "pq" and budget is not None:
        cells = (rows[1] - rows[0] + 1) * (cols[1] - cols[0] + 1)
        if cells > budget:
            raise ResourceLimitError(
                f"window [{rows[0]}..{rows[1]}]x[{cols[0]}..{cols[1]}] has {cells} cells, "
                f"budget {budget}"
            )
    return rows, cols


def _union(wins):
    """Union of inclusive windows, cut into segments at every window edge.

    Returns the sorted index vector, the position of each segment's start
    in it (its length appended) and each window's (first, last + 1)
    segment: every window is a run of whole segments.
    """
    edges = sorted({e for lo, hi in wins for e in (lo, hi + 1)})
    segs = [(a, b) for a, b in zip(edges, edges[1:]) if any(lo <= a <= hi for lo, hi in wins)]
    idx = np.concatenate([np.arange(a, b) for a, b in segs])
    starts = np.cumsum([0] + [b - a for a, b in segs])
    first = {a: s for s, (a, _) in enumerate(segs)}
    last = {b: s + 1 for s, (_, b) in enumerate(segs)}
    return idx, starts, [(first[lo], last[hi + 1]) for lo, hi in wins]


def _compare(spec, forward, lo, hi, ref):
    """The functional's value from the window's minima lo and maxima hi."""
    if spec.reduction == "spread":
        return np.maximum(hi - ref, ref - lo)
    return lo - ref if forward else ref - hi


def _window_values(seq, spec, direction, row_wins, col_wins) -> np.ndarray:
    """One functional at every (row window, column window) pair.

    Evaluates u once on the union of the windows, in bands of rows of at
    most _BAND_CELLS cells, and raises NonFiniteValueError if any cell of it
    is not finite.  A real band is reduced to extrema: column minima and
    maxima per row segment or, for a column reference, row minima and
    maxima per column segment.  max |x - r| is then max(max x - r, r - min x),
    exact because rounding is monotone.  A complex band reduces |x - r| over
    each window's part of it.
    """
    forward = direction is WindowDirection.FORWARD
    rows, row_starts, row_spans = _union(row_wins)
    cols, col_starts, col_spans = _union(col_wins)
    # The anchor opens a forward window and closes a backward one.
    ref_col = [col_starts[t0] if forward else col_starts[t1] - 1 for t0, t1 in col_spans]
    if spec.reference != "col":
        refs = seq.block(np.array([lo if forward else hi for lo, hi in row_wins]), cols)
        _check_finite(seq, refs)
    real = seq.kind is ScalarKind.REAL
    worse = np.minimum if spec.reduction == "drop" else np.maximum
    nseg = len(row_starts) - 1
    # Per row segment: column minima and maxima, or for a column reference
    # the worst comparison for each column anchor.
    lo, hi = np.full((nseg, cols.size), np.inf), np.full((nseg, cols.size), -np.inf)
    acc = np.full((nseg, len(col_wins)), np.inf if worse is np.minimum else -np.inf)
    out = np.zeros((len(row_wins), len(col_wins)))
    band = max(1, _BAND_CELLS // cols.size)
    for b0 in range(0, rows.size, band):
        b1 = min(b0 + band, rows.size)
        u = seq.block(rows[b0:b1], cols)
        k0 = int(np.searchsorted(row_starts, b0, side="right")) - 1
        k1 = int(np.searchsorted(row_starts, b1))
        parts = [
            (s, max(row_starts[s], b0) - b0, min(row_starts[s + 1], b1) - b0)
            for s in range(k0, k1)
        ]
        if not real:
            _check_finite(seq, u)
            for a, (s0, s1) in enumerate(row_spans):
                r0, r1 = max(row_starts[s0], b0) - b0, min(row_starts[s1], b1) - b0
                if r0 >= r1:
                    continue
                for c, (t0, t1) in enumerate(col_spans):
                    c0, c1 = col_starts[t0], col_starts[t1]
                    if spec.reference == "corner":
                        ref = refs[a, ref_col[c]]
                    elif spec.reference == "row":
                        ref = refs[a, c0:c1]
                    else:
                        ref = u[r0:r1, ref_col[c], None]
                    out[a, c] = max(out[a, c], np.abs(u[r0:r1, c0:c1] - ref).max())
        elif spec.reference == "col":
            # Extrema carry any nan or infinity of the band.
            row_lo = np.minimum.reduceat(u, col_starts[:-1], axis=1)
            row_hi = np.maximum.reduceat(u, col_starts[:-1], axis=1)
            _check_finite(seq, row_lo)
            _check_finite(seq, row_hi)
            for c, (t0, t1) in enumerate(col_spans):
                wlo, whi = row_lo[:, t0:t1].min(axis=1), row_hi[:, t0:t1].max(axis=1)
                d = _compare(spec, forward, wlo, whi, u[:, ref_col[c]])
                for s, r0, r1 in parts:
                    acc[s, c] = worse(acc[s, c], worse.reduce(d[r0:r1]))
        else:
            for s, r0, r1 in parts:
                seg_lo, seg_hi = u[r0:r1].min(axis=0), u[r0:r1].max(axis=0)
                _check_finite(seq, seg_lo)
                _check_finite(seq, seg_hi)
                np.minimum(lo[s], seg_lo, out=lo[s])
                np.maximum(hi[s], seg_hi, out=hi[s])
    if not real:
        return out
    for a, (s0, s1) in enumerate(row_spans):
        if spec.reference == "col":
            out[a] = worse.reduce(acc[s0:s1], axis=0)
            continue
        wlo, whi = lo[s0:s1].min(axis=0), hi[s0:s1].max(axis=0)
        for c, (t0, t1) in enumerate(col_spans):
            c0, c1 = col_starts[t0], col_starts[t1]
            if spec.reference == "corner":
                ref = refs[a, ref_col[c]]
                out[a, c] = _compare(spec, forward, wlo[c0:c1].min(), whi[c0:c1].max(), ref)
            else:
                d = _compare(spec, forward, wlo[c0:c1], whi[c0:c1], refs[a, c0:c1])
                out[a, c] = worse.reduce(d)
    return out


def _tail_values(seq, spec, p, q, cells, lam, kappa, budget, stop_at_gap):
    """The functional at the anchors cells x cells, in row-major order.

    An anchor whose window runs past max_index or over the cell budget gets
    None; with stop_at_gap the first such anchor ends the walk.  Raises what
    evaluating each anchor in turn would raise, in the same order.
    """
    fwd = WindowDirection.FORWARD
    wins, failure = [], None
    for m, n in itertools.product(cells, cells):
        try:
            wins.append(_resolve(spec, fwd, p, q, m, n, lam, kappa, budget))
        except (HorizonError, ResourceLimitError):
            wins.append(None)
            if stop_at_gap:
                break
        except Exception as exc:
            # Anchors resolved before this one are evaluated first: a
            # non-finite cell in their windows is raised ahead of this error.
            failure = exc
            break
    k = len(cells)
    if failure is None and len(wins) == k * k and None not in wins:
        rows, cols = [w[0] for w in wins[::k]], [w[1] for w in wins[:k]]
        return _window_values(seq, spec, fwd, rows, cols).ravel().tolist()
    vals = [
        None if w is None else float(_window_values(seq, spec, fwd, [w[0]], [w[1]])[0, 0])
        for w in wins
    ]
    if failure is not None:
        raise failure
    return vals


# ---------------------------------------------------------------------------
# Scalar functionals
# ---------------------------------------------------------------------------


def window_functional(
    name: str,
    seq: DoubleSequence,
    p: WeightSequence | None,
    q: WeightSequence | None,
    m: int,
    n: int,
    lam: float | None,
    kappa: float | None,
    direction: WindowDirection = WindowDirection.FORWARD,
    budget: int = MAX_WINDOW_CELLS,
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
    rows, cols = _resolve(spec, direction, p, q, m, n, lam, kappa, budget)
    return float(_window_values(seq, spec, direction, [rows], [cols])[0, 0])


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
        raise ResourceLimitError(f"difference range has {cells} cells")
    u = seq.block(np.arange(m0 - 1, m1 + 1), np.arange(n0 - 1, n1 + 1))
    _check_finite(seq, u)
    d10 = u[1:, 1:] - u[:-1, 1:]
    d01 = u[1:, 1:] - u[1:, :-1]
    cp = p.prefix_array(m1)[m0:] / p.weights_array(m1)[m0:]
    cq = q.prefix_array(n1)[n0:] / q.weights_array(n1)[n0:]
    if signed:
        return float((cp[:, None] * d10).min()), float((cq[None, :] * d01).min())
    return (
        float((cp[:, None] * np.abs(d10)).max()),
        float((cq[None, :] * np.abs(d01)).max()),
    )


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
    lhat = vals[top, top].item()
    profile = []
    for h in ladder:
        t0 = math.ceil(tail_fraction * h)
        sub = vals[t0 : h + 1, t0 : h + 1]
        profile.append((h, float(np.abs(sub - lhat).max())))
    r = [v for _, v in profile]
    decreasing = r[-3] > r[-2] > r[-1]
    noise_floor = 64.0 * float(np.finfo(np.float64).eps) * max(1.0, abs(lhat))
    converged = r[-1] < eps_dec and (decreasing or r[-1] <= noise_floor)
    return LimitEstimate(
        value=lhat,
        tail_start=math.ceil(tail_fraction * top),
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


@dataclass(frozen=True)
class DecisionProfile:
    """Tail statistics of one functional across window scales and horizons.

    ``stat`` being None on a rung means the window could not be sampled
    within the index or cell budget; the trend logic then works from the
    rungs that were.
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


def _tail_cells(horizon: int, tail_fraction: float) -> list[int]:
    t0 = math.ceil(tail_fraction * horizon)
    return sorted({t0, (t0 + horizon) // 2, horizon})


def _ladder(seq, p, q, functional, horizons, lambda_ladder, kappa_ladder, tail_fraction,
            budget, stop_at_gap):
    """The functional's descriptor and (lam, kappa, horizon, tail cells,
    values) for every rung, values as _tail_values gives them."""
    spec = _functional(functional, seq)
    if kappa_ladder is None:
        kappa_ladder = list(lambda_ladder)
    if len(kappa_ladder) != len(lambda_ladder):
        raise ValueError("kappa ladder must pair one-for-one with the lambda ladder")
    rungs = []
    for lam, kap in zip(lambda_ladder, kappa_ladder):
        for h in sorted(horizons):
            cells = _tail_cells(h, tail_fraction)
            vals = _tail_values(seq, spec, p, q, cells, lam, kap, budget, stop_at_gap)
            rungs.append((lam, kap, h, cells, vals))
    return spec, rungs


def build_window_profile(
    seq: DoubleSequence,
    p: WeightSequence,
    q: WeightSequence,
    functional: str,
    horizons: list[int],
    lambda_ladder: list[float],
    kappa_ladder: list[float] | None = None,
    tail_fraction: float = 0.5,
    budget: int = MAX_WINDOW_CELLS,
) -> DecisionProfile:
    """Sample one window functional on tail cells across scales and horizons.

    Each rung takes the worst value (per the functional's sense) over a
    3x3 tail sample.  Rungs whose windows cannot be resolved within the
    prefix index budget or the cell budget get stat None.
    """
    spec, ladder = _ladder(seq, p, q, functional, horizons, lambda_ladder, kappa_ladder,
                           tail_fraction, budget, stop_at_gap=True)
    worst = min if spec.sense is TrendSense.INF else max
    rungs = []
    for lam, kap, h, _, vals in ladder:
        sampled = None not in vals
        stat, cells = (worst(vals), len(vals)) if sampled else (None, 0)
        rungs.append(ProfileRung(lam=lam, kappa=kap, horizon=h, stat=stat, cells=cells))
    return DecisionProfile(functional=functional, sense=spec.sense, rungs=tuple(rungs))


def build_bound_profile(
    seq: DoubleSequence,
    p: WeightSequence,
    q: WeightSequence,
    which: str,
    horizons: list[int],
    tail_fraction: float = 0.5,
) -> tuple[DecisionProfile, DecisionProfile]:
    """Tail profiles of the weighted difference bounds, one per axis."""
    if which == "landau":
        _require_real(seq, "signed difference bound")
        fn, sense = landau_stat, TrendSense.INF
    elif which == "hardy":
        fn, sense = hardy_stat, TrendSense.SUP
    else:
        raise KeyError(f"unknown bound {which!r}; expected 'landau' or 'hardy'")
    rows, cols = [], []
    for h in sorted(horizons):
        t0 = max(1, math.ceil(tail_fraction * h))
        row_stat, col_stat = fn(seq, p, q, (t0, h), (t0, h))
        count = (h - t0 + 1) ** 2
        rows.append(ProfileRung(lam=None, kappa=None, horizon=h, stat=row_stat, cells=count))
        cols.append(ProfileRung(lam=None, kappa=None, horizon=h, stat=col_stat, cells=count))
    return (
        DecisionProfile(f"{which}_p", sense, tuple(rows)),
        DecisionProfile(f"{which}_q", sense, tuple(cols)),
    )


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
        raise ResourceLimitError(f"field needs {cells} extended cells")
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
    seq: DoubleSequence,
    p: WeightSequence,
    q: WeightSequence,
    functional: str,
    horizons: list[int],
    lambda_ladder: list[float],
    kappa_ladder: list[float] | None = None,
    tail_fraction: float = 0.5,
    budget: int = MAX_WINDOW_CELLS,
) -> list[tuple[float, float, int, int, int, float | None]]:
    """Raw per-cell functional values behind a decision profile.

    Rows (lambda, kappa, horizon, m, n, value) over the same tail cells
    build_window_profile aggregates; value is None when that cell's window
    cannot be resolved within the budgets.
    """
    _, ladder = _ladder(seq, p, q, functional, horizons, lambda_ladder, kappa_ladder,
                        tail_fraction, budget, stop_at_gap=False)
    return [
        (lam, kap, h, m, n, v)
        for lam, kap, h, cells, vals in ladder
        for (m, n), v in zip(itertools.product(cells, cells), vals)
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
