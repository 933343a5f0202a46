"""Growth classification of weight partial sums.

Classifies a positive weight system by how its partial sums respond to
index doubling: power-like growth (regular variation, with an estimated
index), explosive growth (rapid variation), or neither at the sampled
horizon.  All estimates are finite-sample and say so in their names.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum

from .errors import PrefixOverflowError
from .sequences import WeightSequence


class VariationKind(Enum):
    REGULARLY_VARYING = "RegularlyVarying"
    RAPIDLY_VARYING = "RapidlyVarying"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class VariationClass:
    kind: VariationKind
    alpha_hat: float | None
    fit_residual: float | None
    ratio_profile: tuple[tuple[float, int, float], ...]
    lemma23_profile: tuple[tuple[int, float], ...]
    sv_residual: tuple[tuple[int, float], ...] | None
    tol: float
    horizon: int


def ratio_profile(
    p: WeightSequence,
    lambdas: list[float],
    m_samples: list[int],
) -> list[tuple[float, int, float]]:
    """Rows (lambda, m, P_floor(lambda m) / P_m) for every pair requested."""
    rows = []
    for lam in lambdas:
        if lam <= 0:
            raise ValueError(f"ratio scale must be > 0, got {lam}")
        for m in m_samples:
            if m < 1:
                raise ValueError(f"ratio sample index must be >= 1, got {m}")
            idx = int(math.floor(lam * m))
            rows.append((lam, m, p.prefix(idx) / p.prefix(m)))
    return rows


def _doubling_samples(horizon: int) -> list[int]:
    ms = sorted({horizon // 16, horizon // 8, horizon // 4, horizon // 2})
    if ms[0] < 2:
        raise ValueError(f"classification horizon {horizon} too small to sample")
    return ms


def estimate_rv_index(p: WeightSequence, horizon: int) -> tuple[float, float]:
    """Estimated variation index and the spread of its doubling samples.

    Each sample log2(P_2m / P_m) approaches the index like c/log m, so the
    samples are regressed against x = 1/log m and read off at x -> 0.  The
    returned residual is the largest deviation of a sample from the sample
    median, which is what downstream acceptance thresholds are quoted
    against.  The index is clamped at 0; partial sums cannot vary with a
    negative index.
    """
    if horizon < 64:
        raise ValueError(f"classification horizon must be >= 64, got {horizon}")
    p.ensure(horizon)
    ms = _doubling_samples(horizon)
    xs = [1.0 / math.log(m) for m in ms]
    ss = [math.log2(p.prefix(2 * m) / p.prefix(m)) for m in ms]
    xbar = sum(xs) / len(xs)
    sbar = sum(ss) / len(ss)
    sxx = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (s - sbar) for x, s in zip(xs, ss)) / sxx
    intercept = sbar - slope * xbar
    med = statistics.median(ss)
    fit_residual = max(abs(s - med) for s in ss)
    return max(intercept, 0.0), fit_residual


def lemma23_check(p: WeightSequence, horizon: int) -> list[tuple[int, float]]:
    """Samples of P_{m-1}/P_m along a doubling ladder up to the horizon.

    For power-like growth these climb to 1; for explosive growth they stay
    bounded away from it.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    p.ensure(horizon)
    ladder = []
    t = 1
    while t < horizon:
        ladder.append(t)
        t *= 2
    ladder.append(horizon)
    return [(m, p.prefix(m - 1) / p.prefix(m)) for m in ladder]


def classify(p: WeightSequence, horizon: int = 10**5, tol: float = 0.05) -> VariationClass:
    """Classify weight growth at a finite horizon.

    Rapid variation is recognized first, from the two largest doubling
    samples: both must show P_2m/P_m above 1/tol and P_{m/2}/P_m below tol.
    Otherwise the index is estimated; the verdict is regular variation when
    the doubling samples are mutually consistent (spread <= tol) and the
    consecutive-ratio profile has climbed within tol of 1.  Anything else
    is reported inconclusive rather than forced into a bucket.
    """
    if horizon < 64:
        raise ValueError(f"classification horizon must be >= 64, got {horizon}")
    if not 0.0 < tol < 0.5:
        raise ValueError(f"classification tol must lie in (0, 0.5), got {tol}")
    p.ensure(horizon)
    ms = _doubling_samples(horizon)
    lemma_profile = tuple(lemma23_check(p, horizon))
    ratios = tuple((lam, m, r) for lam, m, r in ratio_profile(p, [0.5, 2.0], ms))

    kind, alpha_hat, fit_residual, sv = VariationKind.RAPIDLY_VARYING, None, None, None
    if not all(p.prefix(2 * m) / p.prefix(m) > 1.0 / tol and p.prefix(m // 2) / p.prefix(m) < tol
               for m in ms[-2:]):
        kind = VariationKind.INCONCLUSIVE
        alpha, fit_residual = estimate_rv_index(p, horizon)
        if fit_residual <= tol and abs(lemma_profile[-1][1] - 1.0) <= tol:
            kind, alpha_hat = VariationKind.REGULARLY_VARYING, alpha
            sv = _slow_part_profile(p, horizon, alpha)
    return VariationClass(
        kind=kind,
        alpha_hat=alpha_hat,
        fit_residual=fit_residual,
        ratio_profile=ratios,
        lemma23_profile=lemma_profile,
        sv_residual=sv,
        tol=tol,
        horizon=horizon,
    )


def _slow_part_profile(
    p: WeightSequence, horizon: int, alpha_hat: float
) -> tuple[tuple[int, float], ...]:
    # Remainder after dividing out the fitted power, over the top octave.
    lo = max(1, horizon // 2)
    count = 8
    step = max(1, (horizon - lo) // (count - 1))
    ms = sorted({min(lo + k * step, horizon) for k in range(count)})
    return tuple((m, p.prefix(m) / (m + 1.0) ** alpha_hat) for m in ms)


def classify_adaptive(
    p: WeightSequence, horizon: int = 10**5, tol: float = 0.05
) -> tuple[VariationClass, int, str | None]:
    """classify(), halving the horizon when partial sums overflow the doubles.

    Returns the verdict, the horizon actually used, and a note when it had
    to back off (None when the request was honoured as given).
    """
    h = horizon
    while True:
        try:
            return (classify(p, h, tol), h, None if h == horizon else (
                f"partial sums overflow before index {horizon}; classified at {h}"
            ))
        except PrefixOverflowError:
            if h // 2 < 64:
                raise
            h //= 2


def classification_report(name: str, vc: VariationClass) -> dict:
    """JSON-ready summary with a stable key set.

    ``samples`` carries the scale-ratio table rows as [lambda, m, ratio];
    ``lemma23_tail`` is the final consecutive-prefix ratio.
    """
    return {
        "name": name,
        "kind": vc.kind.value,
        "alpha_hat": vc.alpha_hat,
        "fit_residual": vc.fit_residual,
        "tol": vc.tol,
        "horizon": vc.horizon,
        "lemma23_tail": vc.lemma23_profile[-1][1],
        "samples": [[lam, m, r] for lam, m, r in vc.ratio_profile],
    }
