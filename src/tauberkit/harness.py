"""Consistency harness tying transforms, windows, and verdicts together.

The lemma decompositions split u(m, n) - sigma(m, n) into four terms built
from corner means and a windowed average, exactly; their residuals are the
package's strongest internal check, since the left side and the terms are
computed by completely different routes.  A split streams its block once,
in row bands, through transform._corner_sums, whose error-free extraction
makes each band's partial sums exact, and holds only its window; its four
corner means keep the bits of four sigma_single calls, the math.fsum
oracle, which run instead where the block is over budget, a band raises,
or a term is not finite or could overflow.  The proof inequalities
replace the windowed average with worst-case window drops, which is the
step the limit theorems live on.
verify_theorem runs the full pipeline for one sequence/weight
configuration and returns a verdict that is honest about being
finite-sample.  Its limits and T42/T52 bound profiles are reduced from the
mean-field pass's bands as they go by (a second pass for a complex
sequence's residuals), by oscillation._TailStats, so it holds no tail square.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteValueError, PrefixOverflowError, ResourceLimitError, ScalarKindError
from .sequences import DoubleSequence, ScalarKind, WeightSequence, _check_grid, array_sequence
from .sequences import MAX_GRID_CELLS, geometric, harmonic, ones, power
from .transform import _SUM_CHUNK, _corner_sums, _exact_sum, _mean_field_pass, sigma_single
from .oscillation import DecisionProfile, LimitEstimate, TrendSense, _TailStats, build_window_profiles
from .variation import VariationClass, VariationKind, classification_report, classify_adaptive

_EPS = float(np.finfo(np.float64).eps)


class Theorem(Enum):
    T41 = "T41"
    T42 = "T42"
    T51 = "T51"
    T52 = "T52"


class Verdict(Enum):
    CONSISTENT_POSITIVE = "ConsistentPositive"
    CONSISTENT_NEGATIVE = "ConsistentNegative"
    VACUOUSLY_CONSISTENT = "VacuouslyConsistent"
    INCONSISTENT = "Inconsistent"


# ---------------------------------------------------------------------------
# Index choosers
# ---------------------------------------------------------------------------


def choose_mu(p: WeightSequence, m: int, delta: float) -> int:
    """Least i > m with P_i >= (1 + delta/2) * P_m."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"forward chooser needs a finite delta > 0, got {delta}")
    if m < 0:
        raise ValueError(f"chooser anchor must be >= 0, got {m}")
    target = (1.0 + delta / 2.0) * p.prefix(m)
    p.ensure_sum_exceeds(target)
    sums = p.prefix_snapshot()
    idx = int(np.searchsorted(sums, target, side="left"))
    return max(idx, m + 1)


def choose_mu_backward(p: WeightSequence, m: int, delta: float) -> int:
    """Largest i with (1 + delta/2) * P_i <= P_m, as computed in doubles.

    Raises ValueError when no index qualifies (the anchor sits too close
    to the origin for this delta).
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"backward chooser needs a finite delta > 0, got {delta}")
    if m < 0:
        raise ValueError(f"chooser anchor must be >= 0, got {m}")
    factor = 1.0 + delta / 2.0
    sums = p.prefix_array(m)
    scaled = factor * sums
    idx = int(np.searchsorted(scaled, sums[m], side="right")) - 1
    if idx < 0:
        raise ValueError(
            f"{p.name}: no index i has (1 + {delta}/2) * P_i <= P_{m} = {float(sums[m])!r}"
        )
    return idx


# ---------------------------------------------------------------------------
# Exact decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaDecomposition:
    """One split of u(m,n) - sigma(m,n) into corner-mean terms.

    residual = lhs - (term_corner + term_rows + term_cols -/+ term_window)
    with the window term subtracted on the forward split and added on the
    backward one.  rel_residual normalizes by the largest magnitude in
    sight, so 1e-15-ish means the identity held to rounding.
    """

    direction: str
    m: int
    n: int
    mu: int
    eta: int
    lhs: float | complex
    term_corner: float | complex
    term_rows: float | complex
    term_cols: float | complex
    term_window: float | complex
    residual: float | complex
    rel_residual: float


def _window_average(window, p, q, r0, c0, anchor, flip):
    """Weighted average of u - anchor (anchor - u when flipped) over
    window[1:, 1:], for window u on [r0..] x [c0..]; exact accumulation."""
    pw = p.weights_array(r0 + len(window) - 1)[r0 + 1 :]
    qw = q.weights_array(c0 + window.shape[1] - 1)[c0 + 1 :]
    diff = (anchor - window[1:, 1:]) if flip else (window[1:, 1:] - anchor)
    num = _exact_sum((pw[:, None] * qw[None, :]) * diff)
    dp = _exact_sum(pw)
    dq = _exact_sum(qw)
    return num / (dp * dq), dp, dq


def _corner_means(seq, p, q, corners):
    """sigma_single at each of the corners (m, n), (mu, n), (m, eta) and
    (mu, eta), with its bits, and u on the window [min(m, mu)..] x
    [min(n, eta)..] of the block [0..max(m, mu)] x [0..max(n, eta)].

    u is evaluated once, in row bands of about _SUM_CHUNK cells that go
    through _corner_sums and leave their window rows behind.  The means are
    None where _corner_sums finds a term that is not finite or could
    overflow, and both are None when the block is over budget or a band or
    the weights raise: the four sigma_single calls then decide, with their
    special values and errors, in their order.  The last of them sums the
    whole block, so it raises wherever the block was not evaluated.
    """
    (m, n), _, _, (mu, eta) = corners
    rows, cols = max(m, mu) + 1, max(n, eta) + 1
    if rows * cols > MAX_GRID_CELLS:
        return None, None
    r0, c0 = min(m, mu), min(n, eta)
    window = np.empty((rows - r0, cols - c0), np.complex128 if seq.kind is ScalarKind.COMPLEX else np.float64)

    def bands():
        step = max(1, _SUM_CHUNK // cols)
        for top in range(0, rows, step):
            u = seq.block(np.arange(top, min(top + step, rows)), np.arange(cols))
            window[max(top - r0, 0) : max(top + len(u) - r0, 0)] = u[max(r0 - top, 0) :, c0:]
            # sigma_single's products, with u multiplied into them in place
            with np.errstate(over="ignore", invalid="ignore"):
                terms = np.multiply(pw[top : top + len(u), None], qw[None, :], out=np.empty_like(u))
                np.multiply(terms, u, out=terms)
            yield top, terms

    try:
        pw, qw = p.weights_array(rows - 1), q.weights_array(cols - 1)
        sums = _corner_sums(bands(), r0, c0)
    except Exception:
        # Whatever the rule or the weights raise, sigma_single raises again.
        return None, None
    if sums is None:
        return None, window
    # The nested rectangles of _corner_sums are the corners, reversed on a backward split.
    return [s / (p.prefix(i) * q.prefix(j)) for s, (i, j) in zip(sums[:: 1 if mu > m else -1], corners)], window


def _lemma(forward, seq, p, q, m, n, mu, eta) -> tuple[LemmaDecomposition, np.ndarray]:
    """Split against the block between the anchor (m, n) and (mu, eta), and
    u on that block with its first row and column: [min(m, mu)..max(m, mu)]
    x [min(n, eta)..max(n, eta)].

    The forward block (m..mu] x (n..eta] needs mu > m and eta > n; the
    backward block (mu..m] x (eta..n] needs mu < m and eta < n and flips the
    sign of each mean difference and of the window term.
    """
    for a, b, x, y in (("m", "mu", m, mu), ("n", "eta", n, eta)):
        if forward and not 0 <= x < y:
            raise ValueError(f"forward split needs {b} > {a} >= 0, got {a}={x}, {b}={y}")
        if not forward and not 0 <= y < x:
            raise ValueError(f"backward split needs 0 <= {b} < {a}, got {b}={y}, {a}={x}")
    u_mn = seq.evaluate(m, n)
    corners = ((m, n), (mu, n), (m, eta), (mu, eta))
    means, window = _corner_means(seq, p, q, corners)
    if means is None:
        means = [sigma_single(seq, p, q, i, j) for i, j in corners]
    s_mn, s_mu_n, s_m_eta, s_mu_eta = means
    t_window, dp, dq = _window_average(window, p, q, min(m, mu), min(n, eta), u_mn, flip=not forward)
    p_mu = p.prefix(mu)
    q_eta = q.prefix(eta)
    corner = _exact_sum(np.array([s_mu_eta, -s_mu_n, -s_m_eta, s_mn]))
    t1 = (p_mu * q_eta) / (dp * dq) * corner
    t2 = p_mu / dp * (s_mu_n - s_mn if forward else s_mn - s_mu_n)
    t3 = q_eta / dq * (s_m_eta - s_mn if forward else s_mn - s_m_eta)
    lhs = u_mn - s_mn
    residual = _exact_sum(np.array([lhs, -t1, -t2, -t3, t_window if forward else -t_window]))
    scale = max(1.0, abs(lhs), abs(t1), abs(t2), abs(t3), abs(t_window))
    return LemmaDecomposition(
        direction="forward" if forward else "backward",
        m=m,
        n=n,
        mu=mu,
        eta=eta,
        lhs=lhs,
        term_corner=t1,
        term_rows=t2,
        term_cols=t3,
        term_window=t_window,
        residual=residual,
        rel_residual=abs(residual) / scale,
    ), window


def lemma_forward(
    seq: DoubleSequence, p: WeightSequence, q: WeightSequence, m: int, n: int, mu: int, eta: int
) -> LemmaDecomposition:
    """Split against the forward block (m..mu] x (n..eta]."""
    return _lemma(True, seq, p, q, m, n, mu, eta)[0]


def lemma_backward(
    seq: DoubleSequence, p: WeightSequence, q: WeightSequence, m: int, n: int, mu: int, eta: int
) -> LemmaDecomposition:
    """Split against the backward block (mu..m] x (eta..n]."""
    return _lemma(False, seq, p, q, m, n, mu, eta)[0]


# ---------------------------------------------------------------------------
# Proof-step inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProofInequality:
    direction: str
    m: int
    n: int
    mu: int
    eta: int
    lam: float
    kappa: float
    delta: float
    gamma: float
    lhs: float
    rhs: float
    margin: float
    slack: float
    holds: bool
    window_contained: bool
    term_corner: float
    term_rows: float
    term_cols: float
    bound_rect: float
    bound_line: float


def _least_drop(x, ref) -> float:
    """min of x - ref over a block x, with ref a column of one value per row
    of x or one value for all, and zeros ordered as IEEE 754's minimum
    orders them, as the window functionals do: a zero drop is -0.0 exactly
    when some x - ref is, a -0.0 cell against a +0.0 ref.  Rounding is
    monotone, so the row minima give the value."""
    low = float((x.min(axis=1) - ref[:, 0]).min())
    if low == 0.0:
        tied = (x == 0.0) & np.signbit(x) & (ref == 0.0) & ~np.signbit(ref)
        low = -0.0 if tied.any() else 0.0
    return low


def _proof_inequality(forward, seq, p, q, m, n, lam, kappa, delta, gamma) -> ProofInequality:
    """Bound u - sigma by corner-mean terms plus worst window drops or gains.

    Forward: the windowed average of u(i,j) - u(m,n) over the forward block
    is at least (worst drop of u(i,j) below u(i,n) on the rectangle) plus
    (worst drop of u(i,n) below u(m,n) along the row window), so
    subtracting those minima instead of the average can only raise the
    right side, which bounds u - sigma from above.  Backward mirrors this
    from below with the backward block and the worst gains up to the
    anchor.  holds allows a rounding slack proportional to the terms in
    play.

    lam and kappa are the scale pair the chooser block is meant to sit
    inside (above 1 forward, in (0, 1) backward); window_contained records
    whether it did: P_mu <= lam*P_m forward or P_mu > lam*P_m backward, and
    the same for Q_eta against kappa*Q_n.
    """
    if seq.kind is not ScalarKind.REAL:
        raise ScalarKindError(f"proof inequality is order-sensitive; {seq.name} is complex")
    if forward and not (lam > 1.0 and kappa > 1.0):
        raise ValueError(f"forward scales must exceed 1, got ({lam}, {kappa})")
    if not forward and not (0.0 < lam < 1.0 and 0.0 < kappa < 1.0):
        raise ValueError(f"backward scales must lie in (0, 1), got ({lam}, {kappa})")
    # Called through the public names, so a tracer that rebinds them sees
    # the chooser time apart from this step's own.
    choose = choose_mu if forward else choose_mu_backward
    mu = choose(p, m, delta)
    eta = choose(q, n, gamma)
    if not forward and (mu >= m or eta >= n):
        raise ValueError(
            f"backward block is empty at (m={m}, n={n}) with delta={delta}, gamma={gamma}"
        )
    dec, block = _lemma(forward, seq, p, q, m, n, mu, eta)
    if forward:
        contained = p.prefix(mu) <= lam * p.prefix(m) and q.prefix(eta) <= kappa * q.prefix(n)
    else:
        contained = p.prefix(mu) > lam * p.prefix(m) and q.prefix(eta) > kappa * q.prefix(n)
    # bound_rect: the worst drop of u(i, j) below u(i, n), or gain up to it;
    # bound_line: the same for u(i, n) against u(m, n).  A backward block is
    # read as the forward block of its mirrored negation, as
    # window_functional reads a backward window: fl(r - x) is fl(-x - -r).
    drops = block if forward else -block[::-1, ::-1]
    bound_rect = _least_drop(drops, drops[:, :1])
    bound_line = _least_drop(drops[:, :1], drops[:1, :1])
    bounds = [-bound_rect, -bound_line] if forward else [bound_rect, bound_line]
    rhs = float(_exact_sum(np.array([dec.term_corner, dec.term_rows, dec.term_cols, *bounds])))
    lhs = float(dec.lhs)
    scale = max(
        1.0,
        abs(lhs)
        + abs(dec.term_corner)
        + abs(dec.term_rows)
        + abs(dec.term_cols)
        + abs(bound_rect)
        + abs(bound_line),
    )
    # mean differences inside the lemma terms are amplified by ratio
    # prefactors of order 1/delta, so give the classifier more ulps than
    # the bare term sum would suggest
    slack = 1024.0 * _EPS * scale
    return ProofInequality(
        direction="forward" if forward else "backward",
        m=m,
        n=n,
        mu=mu,
        eta=eta,
        lam=lam,
        kappa=kappa,
        delta=delta,
        gamma=gamma,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs if forward else lhs - rhs,
        slack=slack,
        holds=lhs <= rhs + slack if forward else lhs >= rhs - slack,
        window_contained=bool(contained),
        term_corner=float(dec.term_corner),
        term_rows=float(dec.term_rows),
        term_cols=float(dec.term_cols),
        bound_rect=bound_rect,
        bound_line=bound_line,
    )


def proof_inequality_forward(
    seq: DoubleSequence, p: WeightSequence, q: WeightSequence, m: int, n: int,
    lam: float, kappa: float, delta: float, gamma: float,
) -> ProofInequality:
    """Bound u - sigma from above over the forward chooser block; lam, kappa > 1."""
    return _proof_inequality(True, seq, p, q, m, n, lam, kappa, delta, gamma)


def proof_inequality_backward(
    seq: DoubleSequence, p: WeightSequence, q: WeightSequence, m: int, n: int,
    lam: float, kappa: float, delta: float, gamma: float,
) -> ProofInequality:
    """Bound u - sigma from below over the backward chooser block; lam, kappa in (0, 1)."""
    return _proof_inequality(False, seq, p, q, m, n, lam, kappa, delta, gamma)


# ---------------------------------------------------------------------------
# Randomized identity suite
# ---------------------------------------------------------------------------


def lemma_residual_suite(trials: int = 100, grid: int = 20, seed: int = 0) -> list[LemmaDecomposition]:
    """Both decompositions on random grids with cycling weight families.

    Deterministic for a given (trials, grid, seed).  Residuals should sit
    at rounding level; anything else means a term is wrong.
    """
    if grid < 8:
        raise ValueError(f"suite grid must be >= 8, got {grid}")
    if trials < 1:
        raise ValueError(f"suite needs trials >= 1, got {trials}")
    if grid * grid > MAX_GRID_CELLS:
        raise ResourceLimitError(f"suite grid of {grid * grid} cells exceeds budget {MAX_GRID_CELLS}",
                                 cells=grid * grid)
    rng = np.random.default_rng(seed)
    # Built once: a split reads the same prefixes from a shared sequence.
    pool = [ones(), harmonic(), power(1.0), geometric(1.5)]
    out = []
    for t in range(trials):
        u = rng.uniform(-1.0, 1.0, size=(grid, grid))
        seq = array_sequence(u, name=f"random_{t}")
        p = pool[t % len(pool)]
        q = pool[(t // len(pool)) % len(pool)]
        m = int(rng.integers(1, grid - 2))
        n = int(rng.integers(1, grid - 2))
        mu = int(rng.integers(m + 1, grid))
        eta = int(rng.integers(n + 1, grid))
        out.append(lemma_forward(seq, p, q, m, n, mu, eta))
        mu_b = int(rng.integers(0, m))
        eta_b = int(rng.integers(0, n))
        out.append(lemma_backward(seq, p, q, m, n, mu_b, eta_b))
    return out


# ---------------------------------------------------------------------------
# Full verification pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarnessConfig:
    """Settings of one verify_theorem run, each checked once, when built.

    horizon, class_horizon >= 64; each ladder non-empty, finite, > 1 and
    strictly decreasing, kappa_ladder (None: lambda_ladder) one-for-one with
    lambda_ladder; tail_fraction in (0, 1); eps_dec, eps_agree (None: 0.02 *
    (1 + |sigma limit|)) finite and > 0; class_tol in (0, 0.5).  NaN fails
    every rule, and each error names its field.
    """

    horizon: int = 512
    lambda_ladder: tuple[float, ...] = (2.0, 1.5, 1.25, 1.1, 1.05)
    kappa_ladder: tuple[float, ...] | None = None
    tail_fraction: float = 0.5
    eps_dec: float = 0.05
    eps_agree: float | None = None
    class_horizon: int = 10**5
    class_tol: float = 0.05

    def __post_init__(self):
        for name in ("horizon", "class_horizon"):
            if not getattr(self, name) >= 64:
                raise ValueError(f"{name} must be >= 64, got {getattr(self, name)}")
        for name in ("lambda_ladder", "kappa_ladder"):
            ladder = getattr(self, name)
            if ladder is None:
                continue
            if not ladder:
                raise ValueError(f"{name} must not be empty")
            if not all(1.0 < x < math.inf for x in ladder):
                raise ValueError(f"{name} entries must be finite and > 1, got {ladder}")
            if not all(a > b for a, b in zip(ladder, ladder[1:])):
                raise ValueError(f"{name} must be strictly decreasing, got {ladder}")
        if self.kappa_ladder is not None and len(self.kappa_ladder) != len(self.lambda_ladder):
            raise ValueError("kappa_ladder must pair one-for-one with lambda_ladder")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValueError(f"tail_fraction must lie in (0, 1), got {self.tail_fraction}")
        for name in ("eps_dec", "eps_agree"):
            v = getattr(self, name)
            if v is not None and not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not 0.0 < self.class_tol < 0.5:
            raise ValueError(f"class_tol must lie in (0, 0.5), got {self.class_tol}")


def horizon_ladder(h: int) -> list[int]:
    """The horizons a run of horizon h samples its limits and profiles at."""
    return sorted({h // 8, h // 4, h // 2, h})


class _Rule(NamedTuple):
    """What a theorem asks of its condition profiles: all of every trend,
    and one of one_of if it names any.  order_sensitive: its conditions
    compare values, so they need a real sequence.  bound: for T42 and T52, the
    weighted difference bound whose p and q profiles they read, and its
    sense: INF, the least signed difference, or SUP, the largest |difference|.
    T41 and T51 read window functionals."""

    every: tuple[str, ...]
    one_of: tuple[str, ...]
    order_sensitive: bool
    bound: tuple[str, TrendSense] | None = None


_THEOREMS = {
    Theorem.T41: _Rule(("sd_P", "sd_Q"), ("sd_strong_P", "sd_strong_Q"), True),
    Theorem.T42: _Rule(("landau_p", "landau_q"), (), True, ("landau", TrendSense.INF)),
    Theorem.T51: _Rule(("so_P", "so_Q"), ("so_strong_P", "so_strong_Q"), False),
    Theorem.T52: _Rule(("hardy_p", "hardy_q"), (), False, ("hardy", TrendSense.SUP)),
}


@dataclass(frozen=True)
class TauberianReport:
    theorem: Theorem
    verdict: Verdict
    sequence: str
    weights_p: str
    weights_q: str
    weight_class_p: VariationClass
    weight_class_q: VariationClass
    class_notes: tuple[str | None, str | None]
    u_limit: LimitEstimate
    sigma_limit: LimitEstimate
    agreement_threshold: float
    limit_gap: float
    condition_profiles: dict[str, DecisionProfile] = field(repr=False)
    conditions_hold: bool = False
    hypotheses_hold: bool = False
    horizon: int = 0
    horizon_note: str | None = None


def _limits(seq, p, q, cfg, bound=None):
    """The grid horizon, its ladder, the limits of u and sigma on the tail
    squares [t..k]^2 of each rung k, t = ceil(tf * k), and, for a bound
    (name, sense) of _THEOREMS, that statistic's two profiles over the same
    squares (else None), reduced by oscillation._TailStats from the bands
    of a mean-field pass; for a complex sequence it only finds the
    estimates a second pass needs.  While u or the numerator is not finite
    in doubles, the horizon halves and the statistics start again.
    """
    h = cfg.horizon
    while True:
        ladder = horizon_ladder(h)
        _check_grid(seq, h, h)  # the pass checks no cell budget
        tails = _TailStats(seq, p, q, ladder, cfg.tail_fraction, bound)
        try:
            _mean_field_pass(seq, p, q, h, h, tails.visit)
            break
        except (NonFiniteValueError, PrefixOverflowError):
            if h // 2 < 64:
                raise
            h //= 2
    if seq.kind is ScalarKind.COMPLEX:
        tails = _TailStats(seq, p, q, ladder, cfg.tail_fraction, bound, tails.corner)
        _mean_field_pass(seq, p, q, h, h, tails.visit)
    u_limit, sigma_limit = tails.limits(cfg.eps_dec)
    return h, ladder, u_limit, sigma_limit, bound and tails.bound_profiles()


def verify_theorem(
    seq: DoubleSequence,
    p: WeightSequence,
    q: WeightSequence,
    theorem: Theorem,
    config: HarnessConfig | None = None,
) -> TauberianReport:
    """Run classification, transform, limits, and condition profiles, then
    score the configuration against one limit theorem.

    The verdict vocabulary is deliberately finite-sample: it reports
    whether what was computed is consistent with the theorem, never that
    the theorem "holds".  When the requested horizon is not computable in
    doubles (unbounded sequences, rapid weights), the grid horizon halves
    until it is, and the report says so.
    """
    cfg = config or HarnessConfig()
    rule = _THEOREMS[theorem]
    if rule.order_sensitive and seq.kind is not ScalarKind.REAL:
        raise ScalarKindError(
            f"{theorem.value} uses order-sensitive conditions; {seq.name} is complex"
        )
    class_p = classify_adaptive(p, cfg.class_horizon, cfg.class_tol)
    class_q = class_p if q is p else classify_adaptive(q, cfg.class_horizon, cfg.class_tol)
    vc_p, _, note_p = class_p
    vc_q, _, note_q = class_q

    h, ladder, u_limit, sigma_limit, bound_profiles = _limits(seq, p, q, cfg, rule.bound)
    horizon_note = (
        None
        if h == cfg.horizon
        else f"grid overflows doubles at horizon {cfg.horizon}; evaluated at {h}"
    )

    if rule.bound:
        profiles = {prof.functional: prof for prof in bound_profiles}
    else:
        profiles = build_window_profiles(
            seq,
            p,
            q,
            [*rule.every, *rule.one_of],
            ladder,
            cfg.lambda_ladder,
            cfg.kappa_ladder,
            cfg.tail_fraction,
        )

    tr = {name: prof.trend_holds(cfg.eps_dec) for name, prof in profiles.items()}
    conditions = all(tr[name] for name in rule.every) and (
        not rule.one_of or any(tr[name] for name in rule.one_of))

    weights_ok = (
        vc_p.kind is VariationKind.REGULARLY_VARYING
        and vc_q.kind is VariationKind.REGULARLY_VARYING
    )
    hypotheses = weights_ok and sigma_limit.converged and conditions
    threshold = (
        cfg.eps_agree
        if cfg.eps_agree is not None
        else 0.02 * (1.0 + abs(sigma_limit.value))
    )
    gap = abs(u_limit.value - sigma_limit.value)
    if hypotheses:
        verdict = (
            Verdict.CONSISTENT_POSITIVE
            if u_limit.converged and gap <= threshold
            else Verdict.INCONSISTENT
        )
    else:
        verdict = (
            Verdict.VACUOUSLY_CONSISTENT if u_limit.converged else Verdict.CONSISTENT_NEGATIVE
        )
    return TauberianReport(
        theorem=theorem,
        verdict=verdict,
        sequence=seq.name,
        weights_p=p.name,
        weights_q=q.name,
        weight_class_p=vc_p,
        weight_class_q=vc_q,
        class_notes=(note_p, note_q),
        u_limit=u_limit,
        sigma_limit=sigma_limit,
        agreement_threshold=float(threshold),
        limit_gap=float(gap),
        condition_profiles=profiles,
        conditions_hold=conditions,
        hypotheses_hold=hypotheses,
        horizon=h,
        horizon_note=horizon_note,
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _scalar_json(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


def _limit_json(est: LimitEstimate) -> dict:
    return {
        "value": _scalar_json(est.value),
        "tail_start": est.tail_start,
        "residual_profile": [[h, r] for h, r in est.residual_profile],
        "converged": est.converged,
        "eps_dec": est.eps_dec,
    }


def _profile_json(prof: DecisionProfile) -> dict:
    return {
        "functional": prof.functional,
        "sense": prof.sense.value,
        "rungs": [
            {
                "lambda": r.lam,
                "kappa": r.kappa,
                "horizon": r.horizon,
                "stat": r.stat,
                "cells": r.cells,
            }
            for r in prof.rungs
        ],
    }


def report_json(report: TauberianReport) -> dict:
    """JSON-ready dict with a stable key order for byte-identical dumps."""
    return {
        "theorem": report.theorem.value,
        "verdict": report.verdict.value,
        "sequence": report.sequence,
        "weights_p": report.weights_p,
        "weights_q": report.weights_q,
        "weight_class_p": classification_report(report.weights_p, report.weight_class_p),
        "weight_class_q": classification_report(report.weights_q, report.weight_class_q),
        "class_notes": list(report.class_notes),
        "u_limit": _limit_json(report.u_limit),
        "sigma_limit": _limit_json(report.sigma_limit),
        "agreement_threshold": report.agreement_threshold,
        "limit_gap": report.limit_gap,
        "conditions_hold": report.conditions_hold,
        "hypotheses_hold": report.hypotheses_hold,
        "horizon": report.horizon,
        "horizon_note": report.horizon_note,
        "condition_profiles": {
            name: _profile_json(prof) for name, prof in sorted(report.condition_profiles.items())
        },
    }
