"""Finite-window oscillation functionals and their decision profiles.

Forward windows collect indices i with P_m <= P_i <= lam * P_m (lam > 1);
backward windows collect lam * P_m < P_i <= P_m (0 < lam < 1).  The ten
forward functionals measure one-sided drops (sd_*, real sequences only) or
absolute spreads (so_*, complex welcome) of u over those windows, anchored
at the window corner.  Decision profiles sample the functionals on a tail
ladder of horizons so a caller can see whether a condition is trending the
way the limit theory needs it to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


def _require_real(seq: DoubleSequence, what: str) -> None:
    if seq.kind is not ScalarKind.REAL:
        raise ScalarKindError(f"{what} is order-sensitive; {seq.name} is complex-valued")


def _check_finite(seq: DoubleSequence, arr: np.ndarray) -> None:
    if seq.kind is ScalarKind.REAL:
        ok = np.isfinite(arr)
    else:
        ok = np.isfinite(arr.real) & np.isfinite(arr.imag)
    if not ok.all():
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
            f"{p.name}: prefix reaches {sums[-1]!r}, window needs > {target!r}",
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


def _row_window(seq, p, m, n, lam):
    hi = _forward_upper(p, m, lam)
    vals = seq.block(np.arange(m, hi + 1), np.array([n]))[:, 0]
    _check_finite(seq, vals)
    return vals


def _col_window(seq, q, m, n, kappa):
    hi = _forward_upper(q, n, kappa)
    vals = seq.block(np.array([m]), np.arange(n, hi + 1))[0, :]
    _check_finite(seq, vals)
    return vals


def _rect_window(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS):
    hi_p = _forward_upper(p, m, lam)
    hi_q = _forward_upper(q, n, kappa)
    cells = (hi_p - m + 1) * (hi_q - n + 1)
    if budget is not None and cells > budget:
        raise ResourceLimitError(
            f"window [{m}..{hi_p}]x[{n}..{hi_q}] has {cells} cells, budget {budget}"
        )
    block = seq.block(np.arange(m, hi_p + 1), np.arange(n, hi_q + 1))
    _check_finite(seq, block)
    return block


# ---------------------------------------------------------------------------
# Window descriptors
# ---------------------------------------------------------------------------


class WindowDirection(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class WindowParams:
    """Scale pair for a rectangle window; forward widens, backward narrows."""

    lam: float
    kappa: float
    direction: WindowDirection = WindowDirection.FORWARD

    def __post_init__(self):
        if self.direction is WindowDirection.FORWARD:
            if self.lam <= 1.0 or self.kappa <= 1.0:
                raise ValueError(
                    f"forward window scales must exceed 1, got ({self.lam}, {self.kappa})"
                )
        else:
            if not (0.0 < self.lam < 1.0 and 0.0 < self.kappa < 1.0):
                raise ValueError(
                    f"backward window scales must lie in (0, 1), got ({self.lam}, {self.kappa})"
                )


# ---------------------------------------------------------------------------
# Forward functionals
# ---------------------------------------------------------------------------


def sd_functional_P(seq, p, m, n, lam) -> float:
    """min over the row window of u(i, n) - u(m, n)."""
    _require_real(seq, "sd row functional")
    vals = _row_window(seq, p, m, n, lam)
    return float(vals.min() - vals[0])


def sd_functional_Q(seq, q, m, n, kappa) -> float:
    """min over the column window of u(m, j) - u(m, n)."""
    _require_real(seq, "sd column functional")
    vals = _col_window(seq, q, m, n, kappa)
    return float(vals.min() - vals[0])


def sd_functional_strong_P(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    """min over the rectangle window of u(i, j) - u(m, j)."""
    _require_real(seq, "sd strong row functional")
    block = _rect_window(seq, p, q, m, n, lam, kappa, budget)
    return float((block.min(axis=0) - block[0, :]).min())


def sd_functional_strong_Q(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    """min over the rectangle window of u(i, j) - u(i, n)."""
    _require_real(seq, "sd strong column functional")
    block = _rect_window(seq, p, q, m, n, lam, kappa, budget)
    return float((block.min(axis=1) - block[:, 0]).min())


def sd_functional_both(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    """min over the rectangle window of u(i, j) - u(m, n)."""
    _require_real(seq, "sd rectangle functional")
    block = _rect_window(seq, p, q, m, n, lam, kappa, budget)
    return float(block.min() - block[0, 0])


def so_functional_P(seq, p, m, n, lam) -> float:
    """max over the row window of |u(i, n) - u(m, n)|."""
    vals = _row_window(seq, p, m, n, lam)
    return float(np.abs(vals - vals[0]).max())


def so_functional_Q(seq, q, m, n, kappa) -> float:
    vals = _col_window(seq, q, m, n, kappa)
    return float(np.abs(vals - vals[0]).max())


def so_functional_strong_P(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    """max over the rectangle window of |u(i, j) - u(m, j)|."""
    block = _rect_window(seq, p, q, m, n, lam, kappa, budget)
    return float(np.abs(block - block[0:1, :]).max())


def so_functional_strong_Q(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    block = _rect_window(seq, p, q, m, n, lam, kappa, budget)
    return float(np.abs(block - block[:, 0:1]).max())


def so_functional_both(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    block = _rect_window(seq, p, q, m, n, lam, kappa, budget)
    return float(np.abs(block - block[0, 0]).max())


@dataclass(frozen=True)
class OscillationFunctionals:
    """All ten forward window functionals at one anchor.

    The sd_* entries are None for complex sequences; the so_* entries are
    always present and nonnegative.
    """

    m: int
    n: int
    lam: float
    kappa: float
    sd_P: float | None
    sd_Q: float | None
    sd_strong_P: float | None
    sd_strong_Q: float | None
    sd_both: float | None
    so_P: float
    so_Q: float
    so_strong_P: float
    so_strong_Q: float
    so_both: float


def evaluate_functionals(
    seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS
) -> OscillationFunctionals:
    """Every forward functional at (m, n) in one pass over the window."""
    block = _rect_window(seq, p, q, m, n, lam, kappa, budget)
    real = seq.kind is ScalarKind.REAL
    if real:
        row = block[:, 0]
        col = block[0, :]
        sd_vals = dict(
            sd_P=float(row.min() - row[0]),
            sd_Q=float(col.min() - col[0]),
            sd_strong_P=float((block.min(axis=0) - block[0, :]).min()),
            sd_strong_Q=float((block.min(axis=1) - block[:, 0]).min()),
            sd_both=float(block.min() - block[0, 0]),
        )
    else:
        sd_vals = dict(sd_P=None, sd_Q=None, sd_strong_P=None, sd_strong_Q=None, sd_both=None)
    return OscillationFunctionals(
        m=m,
        n=n,
        lam=lam,
        kappa=kappa,
        so_P=float(np.abs(block[:, 0] - block[0, 0]).max()),
        so_Q=float(np.abs(block[0, :] - block[0, 0]).max()),
        so_strong_P=float(np.abs(block - block[0:1, :]).max()),
        so_strong_Q=float(np.abs(block - block[:, 0:1]).max()),
        so_both=float(np.abs(block - block[0, 0]).max()),
        **sd_vals,
    )


# ---------------------------------------------------------------------------
# Backward functionals
# ---------------------------------------------------------------------------


def sd_P_backward(seq, p, m, n, lam) -> float:
    """min over the backward row window of u(m, n) - u(i, n)."""
    _require_real(seq, "backward sd row functional")
    lo = backward_window_lower_index(p, m, lam)
    vals = seq.block(np.arange(lo, m + 1), np.array([n]))[:, 0]
    _check_finite(seq, vals)
    return float(vals[-1] - vals.max())


def sd_Q_backward(seq, q, m, n, kappa) -> float:
    _require_real(seq, "backward sd column functional")
    lo = backward_window_lower_index(q, n, kappa)
    vals = seq.block(np.array([m]), np.arange(lo, n + 1))[0, :]
    _check_finite(seq, vals)
    return float(vals[-1] - vals.max())


def so_P_backward(seq, p, m, n, lam) -> float:
    """max over the backward row window of |u(m, n) - u(i, n)|."""
    lo = backward_window_lower_index(p, m, lam)
    vals = seq.block(np.arange(lo, m + 1), np.array([n]))[:, 0]
    _check_finite(seq, vals)
    return float(np.abs(vals[-1] - vals).max())


def so_Q_backward(seq, q, m, n, kappa) -> float:
    lo = backward_window_lower_index(q, n, kappa)
    vals = seq.block(np.array([m]), np.arange(lo, n + 1))[0, :]
    _check_finite(seq, vals)
    return float(np.abs(vals[-1] - vals).max())


def _rect_window_backward(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS):
    lo_p = backward_window_lower_index(p, m, lam)
    lo_q = backward_window_lower_index(q, n, kappa)
    cells = (m - lo_p + 1) * (n - lo_q + 1)
    if budget is not None and cells > budget:
        raise ResourceLimitError(
            f"window [{lo_p}..{m}]x[{lo_q}..{n}] has {cells} cells, budget {budget}"
        )
    block = seq.block(np.arange(lo_p, m + 1), np.arange(lo_q, n + 1))
    _check_finite(seq, block)
    return block


def sd_strong_P_backward(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    """min over the backward rectangle of u(m, j) - u(i, j)."""
    _require_real(seq, "backward sd strong row functional")
    block = _rect_window_backward(seq, p, q, m, n, lam, kappa, budget)
    return float((block[-1, :] - block.max(axis=0)).min())


def sd_strong_Q_backward(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    """min over the backward rectangle of u(i, n) - u(i, j)."""
    _require_real(seq, "backward sd strong column functional")
    block = _rect_window_backward(seq, p, q, m, n, lam, kappa, budget)
    return float((block[:, -1] - block.max(axis=1)).min())


def so_strong_P_backward(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    block = _rect_window_backward(seq, p, q, m, n, lam, kappa, budget)
    return float(np.abs(block[-1:, :] - block).max())


def so_strong_Q_backward(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    block = _rect_window_backward(seq, p, q, m, n, lam, kappa, budget)
    return float(np.abs(block[:, -1:] - block).max())


def sd_both_backward(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    """min over the backward rectangle of u(m, n) - u(i, j)."""
    _require_real(seq, "backward sd rectangle functional")
    block = _rect_window_backward(seq, p, q, m, n, lam, kappa, budget)
    return float(block[-1, -1] - block.max())


def so_both_backward(seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS) -> float:
    block = _rect_window_backward(seq, p, q, m, n, lam, kappa, budget)
    return float(np.abs(block - block[-1, -1]).max())


_BACKWARD_FUNCTIONALS = {
    "sd_P": ("p", sd_P_backward),
    "sd_Q": ("q", sd_Q_backward),
    "sd_strong_P": ("pq", sd_strong_P_backward),
    "sd_strong_Q": ("pq", sd_strong_Q_backward),
    "sd_both": ("pq", sd_both_backward),
    "so_P": ("p", so_P_backward),
    "so_Q": ("q", so_Q_backward),
    "so_strong_P": ("pq", so_strong_P_backward),
    "so_strong_Q": ("pq", so_strong_Q_backward),
    "so_both": ("pq", so_both_backward),
}


def backward_functionals(
    functional: str, seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS
) -> float:
    """Backward (primed) form of a named functional at one anchor.

    lam and kappa sit in (0, 1); the anchor contributes the reference
    value, so the row forms read u(m, n) - u(i, n) and the rectangle
    forms u(m, n) - u(i, j).
    """
    try:
        shape, fn = _BACKWARD_FUNCTIONALS[functional]
    except KeyError:
        raise KeyError(
            f"unknown functional {functional!r}; known: {', '.join(_BACKWARD_FUNCTIONALS)}"
        ) from None
    if shape == "p":
        return fn(seq, p, m, n, lam)
    if shape == "q":
        return fn(seq, q, m, n, kappa)
    return fn(seq, p, q, m, n, lam, kappa, budget)


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
    if eps_dec <= 0.0:
        raise ValueError(f"eps_dec must be > 0, got {eps_dec}")
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


class TrendSense(Enum):
    INF = "inf"
    SUP = "sup"


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


_WINDOW_FUNCTIONALS = {
    "sd_P": (sd_functional_P, "p", TrendSense.INF),
    "sd_Q": (sd_functional_Q, "q", TrendSense.INF),
    "sd_strong_P": (sd_functional_strong_P, "pq", TrendSense.INF),
    "sd_strong_Q": (sd_functional_strong_Q, "pq", TrendSense.INF),
    "sd_both": (sd_functional_both, "pq", TrendSense.INF),
    "so_P": (so_functional_P, "p", TrendSense.SUP),
    "so_Q": (so_functional_Q, "q", TrendSense.SUP),
    "so_strong_P": (so_functional_strong_P, "pq", TrendSense.SUP),
    "so_strong_Q": (so_functional_strong_Q, "pq", TrendSense.SUP),
    "so_both": (so_functional_both, "pq", TrendSense.SUP),
}


def window_functional_names() -> list[str]:
    return list(_WINDOW_FUNCTIONALS)


def _tail_cells(horizon: int, tail_fraction: float) -> list[int]:
    t0 = math.ceil(tail_fraction * horizon)
    return sorted({t0, (t0 + horizon) // 2, horizon})


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
    try:
        fn, shape, sense = _WINDOW_FUNCTIONALS[functional]
    except KeyError:
        raise KeyError(
            f"unknown functional {functional!r}; known: {', '.join(_WINDOW_FUNCTIONALS)}"
        ) from None
    if functional.startswith("sd"):
        _require_real(seq, functional)
    if kappa_ladder is None:
        kappa_ladder = list(lambda_ladder)
    if len(kappa_ladder) != len(lambda_ladder):
        raise ValueError("kappa ladder must pair one-for-one with the lambda ladder")
    horizons = sorted(horizons)
    rungs = []
    for lam, kap in zip(lambda_ladder, kappa_ladder):
        for h in horizons:
            cells = _tail_cells(h, tail_fraction)
            stat, used = _sample_rung(seq, p, q, fn, shape, sense, lam, kap, cells, budget)
            rungs.append(ProfileRung(lam=lam, kappa=kap, horizon=h, stat=stat, cells=used))
    return DecisionProfile(
        functional=functional,
        sense=sense,
        rungs=tuple(rungs),
    )


def _sample_rung(seq, p, q, fn, shape, sense, lam, kap, cells, budget):
    worst = None
    used = 0
    for m in cells:
        for n in cells:
            try:
                if shape == "p":
                    _extend_for(p, m, lam)
                    v = fn(seq, p, m, n, lam)
                    used += 1
                elif shape == "q":
                    _extend_for(q, n, kap)
                    v = fn(seq, q, m, n, kap)
                    used += 1
                else:
                    _extend_for(p, m, lam)
                    _extend_for(q, n, kap)
                    v = fn(seq, p, q, m, n, lam, kap, budget)
                    used += 1
            except (HorizonError, ResourceLimitError):
                return None, 0
            if worst is None:
                worst = v
            elif sense is TrendSense.INF:
                worst = min(worst, v)
            else:
                worst = max(worst, v)
    return worst, used


def _extend_for(w: WeightSequence, anchor: int, lam: float) -> None:
    # Push the prefix just past the window edge; HorizonError propagates
    # when max_index is hit first.
    w.ensure(anchor)
    w.ensure_sum_exceeds(lam * w.prefix(anchor))


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
        fn, sense = landau_stat, TrendSense.INF
    elif which == "hardy":
        fn, sense = hardy_stat, TrendSense.SUP
    else:
        raise KeyError(f"unknown bound {which!r}; expected 'landau' or 'hardy'")
    if which == "landau":
        _require_real(seq, "signed difference bound")
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
# Decomposition identity at a point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionSample:
    m: int
    n: int
    lam: float
    kappa: float
    sd_both: float
    sd_strong_P: float
    sd_Q: float
    margin: float


def decomposition_margin(
    seq, p, q, m, n, lam, kappa, budget=MAX_WINDOW_CELLS
) -> DecompositionSample:
    """How much sd_both exceeds the sum sd_strong_P + sd_Q at one anchor.

    Nonnegative in exact arithmetic; in floats each side carries one
    rounded subtraction per term, so callers should allow a few ulps.
    """
    both = sd_functional_both(seq, p, q, m, n, lam, kappa, budget)
    strong = sd_functional_strong_P(seq, p, q, m, n, lam, kappa, budget)
    drop = sd_functional_Q(seq, q, m, n, kappa)
    return DecompositionSample(
        m=m,
        n=n,
        lam=lam,
        kappa=kappa,
        sd_both=both,
        sd_strong_P=strong,
        sd_Q=drop,
        margin=both - strong - drop,
    )


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
    try:
        fn, shape, _sense = _WINDOW_FUNCTIONALS[functional]
    except KeyError:
        raise KeyError(
            f"unknown functional {functional!r}; known: {', '.join(_WINDOW_FUNCTIONALS)}"
        ) from None
    if functional.startswith("sd"):
        _require_real(seq, functional)
    if kappa_ladder is None:
        kappa_ladder = list(lambda_ladder)
    if len(kappa_ladder) != len(lambda_ladder):
        raise ValueError("kappa ladder must pair one-for-one with the lambda ladder")
    rows = []
    for lam, kap in zip(lambda_ladder, kappa_ladder):
        for h in sorted(horizons):
            for m in _tail_cells(h, tail_fraction):
                for n in _tail_cells(h, tail_fraction):
                    try:
                        if shape == "p":
                            _extend_for(p, m, lam)
                            v = fn(seq, p, m, n, lam)
                        elif shape == "q":
                            _extend_for(q, n, kap)
                            v = fn(seq, q, m, n, kap)
                        else:
                            _extend_for(p, m, lam)
                            _extend_for(q, n, kap)
                            v = fn(seq, p, q, m, n, lam, kap, budget)
                    except (HorizonError, ResourceLimitError):
                        v = None
                    rows.append((lam, kap, h, m, n, v))
    return rows


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
