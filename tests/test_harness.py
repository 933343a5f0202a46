"""Split choosers, exact decompositions, proof inequalities, and verdicts."""

import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import tauberkit as tk
from helpers import TIES_AND_CANCELLATIONS, oracle_calls, oracle_route, traced_peak
from tauberkit import harness, transform
from tauberkit.cli import expression_sequence
from tauberkit.transform import _exact_sum

ADD = tk.corpus_sequence("additive_convergent")
ALT = tk.corpus_sequence("alternating")

MATRIX_CONFIG = tk.HarnessConfig(horizon=512, class_horizon=4096)


# ---------------------------------------------------------------------------
# Choosers
# ---------------------------------------------------------------------------


def test_forward_chooser_anchor():
    assert tk.choose_mu(tk.ones(), 9, 1.0) == 14


def test_forward_chooser_postcondition_is_exact():
    for name in tk.weight_names():
        p = tk.corpus_weight(name)
        for m, delta in ((0, 0.5), (9, 1.0), (40, 0.2), (117, 0.8)):
            mu = tk.choose_mu(p, m, delta)
            target = (1.0 + delta / 2.0) * p.prefix(m)
            assert mu > m
            assert p.prefix(mu - 1) < target <= p.prefix(mu)


def test_forward_chooser_rejects_bad_parameters():
    with pytest.raises(ValueError, match="delta > 0"):
        tk.choose_mu(tk.ones(), 5, 0.0)
    with pytest.raises(ValueError, match=">= 0"):
        tk.choose_mu(tk.ones(), -1, 0.5)


def test_backward_chooser_anchor_inverts_the_forward_one():
    assert tk.choose_mu_backward(tk.ones(), 14, 1.0) == 9


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda v: tk.choose_mu(tk.ones(), 50, v), "forward chooser needs a finite delta > 0"),
        (lambda v: tk.choose_mu_backward(tk.ones(), 50, v),
         "backward chooser needs a finite delta > 0"),
        (lambda v: tk.empirical_limit(tk.eval_grid(tk.constant(), 64, 64), [8, 16, 32, 64],
                                      0.5, v),
         "eps_dec must be finite and > 0"),
    ],
    ids=["choose_mu", "choose_mu_backward", "empirical_limit"],
)
def test_thresholds_must_be_finite(call, message, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == f"{message}, got {value}"


def test_backward_chooser_raises_near_the_origin():
    with pytest.raises(ValueError) as exc:
        tk.choose_mu_backward(tk.ones(), 0, 1.0)
    assert str(exc.value) == "ones: no index i has (1 + 1.0/2) * P_i <= P_0 = 1.0"


# ---------------------------------------------------------------------------
# Exact decompositions
# ---------------------------------------------------------------------------


def test_forward_split_reproduces_the_gap():
    dec = tk.lemma_forward(ALT, tk.ones(), tk.ones(), 2, 2, 5, 4)
    gap = tk.eval_grid(ALT, 2, 2).values[2, 2] - tk.sigma_single(ALT, tk.ones(), tk.ones(), 2, 2)
    assert dec.lhs == pytest.approx(gap, rel=1e-15)
    assert dec.rel_residual <= 1e-12
    assert dec.direction == "forward"
    terms = [dec.term_corner, dec.term_rows, dec.term_cols, -dec.term_window]
    assert math.fsum(terms) == pytest.approx(gap, rel=1e-12)


def test_backward_split_reproduces_the_gap():
    dec = tk.lemma_backward(ALT, tk.ones(), tk.ones(), 5, 4, 2, 2)
    assert dec.rel_residual <= 1e-12
    assert dec.direction == "backward"


def test_split_preconditions_are_reported():
    c = tk.corpus_sequence("constant")
    with pytest.raises(ValueError, match="mu > m"):
        tk.lemma_forward(c, tk.ones(), tk.ones(), 5, 5, 3, 9)
    with pytest.raises(ValueError, match="eta > n"):
        tk.lemma_forward(c, tk.ones(), tk.ones(), 5, 5, 9, 3)
    with pytest.raises(ValueError, match="0 <= mu < m"):
        tk.lemma_backward(c, tk.ones(), tk.ones(), 5, 5, 7, 3)


def test_residual_suite_is_deterministic_and_tight():
    first = tk.lemma_residual_suite(20, 16, seed=3)
    second = tk.lemma_residual_suite(20, 16, seed=3)
    assert len(first) == 40
    assert [d.rel_residual for d in first] == [d.rel_residual for d in second]
    assert {d.direction for d in first} == {"forward", "backward"}
    assert max(d.rel_residual for d in first) <= 1e-9


# ---------------------------------------------------------------------------
# Proof inequalities
# ---------------------------------------------------------------------------


def test_forward_inequality_holds_on_convergent_input():
    r = tk.proof_inequality_forward(ADD, tk.ones(), tk.ones(), 40, 40, 1.5, 1.5, 0.5, 0.5)
    assert r.holds
    assert r.window_contained
    assert (r.mu, r.eta) == (51, 51)
    assert r.direction == "forward"
    assert r.lhs <= r.rhs + r.slack
    total = math.fsum(
        [r.term_corner, r.term_rows, r.term_cols, -r.bound_rect, -r.bound_line]
    )
    assert r.rhs == pytest.approx(total, rel=1e-15)


def test_backward_inequality_holds_on_convergent_input():
    r = tk.proof_inequality_backward(
        ADD, tk.ones(), tk.ones(), 40, 40, 1 / 1.5, 1 / 1.5, 0.5, 0.5
    )
    assert r.holds
    assert r.window_contained
    assert (r.mu, r.eta) == (31, 31)
    assert r.lhs >= r.rhs - r.slack


def test_forward_inequality_validates_scales():
    with pytest.raises(ValueError, match="exceed 1"):
        tk.proof_inequality_forward(ADD, tk.ones(), tk.ones(), 40, 40, 0.9, 1.5, 0.5, 0.5)
    # NaN fails every comparison, so it must fail the rule and not slip past it
    for lam, kappa in ((math.nan, 1.5), (1.5, math.nan)):
        with pytest.raises(ValueError) as exc:
            tk.proof_inequality_forward(ADD, tk.ones(), tk.ones(), 100, 100, lam, kappa, 0.5, 0.5)
        assert str(exc.value) == f"forward scales must exceed 1, got ({lam}, {kappa})"
    with pytest.raises(ValueError, match=r"in \(0, 1\)"):
        tk.proof_inequality_backward(ADD, tk.ones(), tk.ones(), 40, 40, 1.5, 0.5, 0.5, 0.5)


def test_backward_inequality_needs_room_below_the_anchor():
    with pytest.raises(ValueError):
        tk.proof_inequality_backward(ADD, tk.ones(), tk.ones(), 40, 0, 0.5, 0.5, 0.5, 0.5)


def test_inequalities_reject_complex_sequences():
    cz = tk.corpus_sequence("complex_convergent")
    with pytest.raises(tk.ScalarKindError):
        tk.proof_inequality_forward(cz, tk.ones(), tk.ones(), 40, 40, 1.5, 1.5, 0.5, 0.5)


def test_forward_inequality_reports_overflow_on_huge_cells():
    paper = tk.corpus_sequence("paper_unbounded")
    with pytest.raises(tk.NonFiniteValueError):
        tk.proof_inequality_forward(
            paper, tk.harmonic(), tk.harmonic(), 80, 80, 2.0, 2.0, 1.0, 1.0
        )


def test_inequality_slack_tracks_the_term_scale():
    # when the split terms dwarf the gap, holding is only meaningful to
    # rounding in those terms, and the record says so
    paper = tk.corpus_sequence("paper_unbounded")
    r = tk.proof_inequality_forward(
        paper, tk.harmonic(), tk.harmonic(), 80, 80, 1.5, 1.5, 0.5, 0.5
    )
    assert r.holds
    assert r.slack > abs(r.lhs)
    assert r.slack >= 1e-13 * max(abs(r.term_corner), abs(r.term_rows))


# Every field of forward and backward splits and inequalities, as the four
# functions returned them before each pair became one direction-parameterised
# function; a sign slip in one direction changes a repr here.
_FROZEN = [
    (
        ("lemma_forward", "additive_convergent", "harmonic", "ones", (40, 30, 55, 47)),
        "LemmaDecomposition(direction='forward', m=40, n=30, mu=55, eta=47, "
        "lhs=-0.6135000965896542, term_corner=1.8741136245556738e-14, "
        "term_rows=-0.47740852708760306, term_cols=-0.1655784359979289, "
        "term_window=-0.029486866495868694, residual=-9.678940807053897e-15, "
        "rel_residual=9.678940807053897e-15)",
    ),
    (
        ("lemma_backward", "additive_convergent", "harmonic", "ones", (40, 30, 25, 12)),
        "LemmaDecomposition(direction='backward', m=40, n=30, mu=25, eta=12, "
        "lhs=-0.6135000965896542, term_corner=0.0, term_rows=-0.4503863435875657, "
        "term_cols=-0.11457929422245902, term_window=-0.04853445877963214, "
        "residual=2.6367796834847468e-15, rel_residual=2.6367796834847468e-15)",
    ),
    (
        ("lemma_forward", "alternating", "ones", "harmonic", (40, 30, 55, 47)),
        "LemmaDecomposition(direction='forward', m=40, n=30, mu=55, eta=47, "
        "lhs=0.9957059783391837, term_corner=0.02155437063893634, "
        "term_rows=-0.016031014200380684, term_cols=-0.005773492135429377, "
        "term_window=-0.9959561140360575, residual=-1.0148132334464322e-16, "
        "rel_residual=1.0148132334464322e-16)",
    ),
    (
        ("lemma_backward", "alternating", "ones", "harmonic", (40, 30, 25, 12)),
        "LemmaDecomposition(direction='backward', m=40, n=30, mu=25, eta=12, "
        "lhs=0.9957059783391837, term_corner=-0.008496875421621653, "
        "term_rows=0.007442970878748174, term_cols=-0.004902043512474031, "
        "term_window=1.0016619263945312, residual=1.734723475976807e-17, "
        "rel_residual=1.7318452766003806e-17)",
    ),
    (
        ("proof_inequality_forward", "additive_convergent", "harmonic", "ones",
         (40, 30, 1.5, 1.5, 0.5, 0.5)),
        "ProofInequality(direction='forward', m=40, n=30, mu=121, eta=38, lam=1.5, kappa=1.5,"
        " delta=0.5, gamma=0.5, lhs=-0.6135000965896542, rhs=-0.5793870668270544, "
        "margin=0.03411302976259978, slack=3.0633514514158553e-13, holds=True, "
        "window_contained=True, term_corner=0.0, term_rows=-0.4991307897764554, "
        "term_cols=-0.1574508035014885, bound_rect=-0.01745397749597588, "
        "bound_line=-0.05974054895491365)",
    ),
    (
        ("proof_inequality_backward", "additive_convergent", "harmonic", "ones",
         (40, 30, 0.5, 0.5, 0.5, 0.5)),
        "ProofInequality(direction='backward', m=40, n=30, mu=16, eta=23, lam=0.5, kappa=0.5,"
        " delta=0.5, gamma=0.5, lhs=-0.6135000965896542, rhs=-0.6711134075495266, "
        "margin=0.05761331095987243, slack=2.9208729396014065e-13, holds=True, "
        "window_contained=True, term_corner=1.213145796101305e-14, "
        "term_rows=-0.4321915843961975, term_cols=-0.13836349420918836, "
        "bound_rect=-0.022128459102013442, bound_line=-0.07842986984213951)",
    ),
    (
        ("proof_inequality_forward", "alternating", "ones", "harmonic",
         (40, 30, 1.1, 1.1, 0.1, 0.1)),
        "ProofInequality(direction='forward', m=40, n=30, mu=43, eta=38, lam=1.1, kappa=1.1, "
        "delta=0.1, gamma=0.1, lhs=0.9957059783391837, rhs=4.00043841467934, "
        "margin=3.0047324363401557, slack=1.1667414029754962e-12, holds=True, "
        "window_contained=True, term_corner=0.0680576965285615, "
        "term_rows=-0.0629789843586384, term_cols=-0.004640297490583738, bound_rect=-2.0, "
        "bound_line=-2.0)",
    ),
    (
        ("proof_inequality_backward", "alternating", "ones", "harmonic",
         (40, 30, 0.9, 0.9, 0.2, 0.2)),
        "ProofInequality(direction='backward', m=40, n=30, mu=36, eta=20, lam=0.9, kappa=0.9,"
        " delta=0.2, gamma=0.2, lhs=0.9957059783391837, rhs=-2.004294021660816, margin=3.0, "
        "slack=6.842878968094732e-13, holds=True, window_contained=True, "
        "term_corner=0.004764998576798713, term_rows=-0.004294021660816249, "
        "term_cols=-0.004764998576798691, bound_rect=-2.0, bound_line=0.0)",
    ),
]


@pytest.mark.parametrize("case, expect", _FROZEN, ids=[f"{c[0]}-{c[1]}" for c, _ in _FROZEN])
def test_splits_and_inequalities_keep_every_field(case, expect):
    fn, seq, p, q, args = case
    got = getattr(tk, fn)(tk.corpus_sequence(seq), getattr(tk, p)(), getattr(tk, q)(), *args)
    assert repr(got) == expect


@pytest.mark.parametrize("fn, args", [
    ("lemma_forward", (10, 10, 15, 15)),
    ("lemma_backward", (10, 10, 5, 5)),
    ("proof_inequality_forward", (10, 10, 2.0, 2.0, 0.5, 0.5)),
    ("proof_inequality_backward", (10, 10, 0.5, 0.5, 0.5, 0.5)),
])
def test_window_differences_past_the_doubles_raise_no_warning(fn, args):
    # u - u(m, n) overflows to inf on this sequence: the window term and the
    # worst drop carry the infinity, and numpy's overflow warning stays off
    seq = expression_sequence("1.5e308*cos(pi*(m+n))")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = getattr(tk, fn)(seq, tk.ones(), tk.ones(), *args)
    assert math.isinf(got.term_window if fn.startswith("lemma") else got.bound_rect)


def _window_average(seq, p, q, i_lo, i_hi, j_lo, j_hi, anchor, flip):
    """Weighted average over [i_lo..i_hi] x [j_lo..j_hi] of u - anchor
    (anchor - u when flipped) from a block of its own, exact accumulation:
    the oracle of harness._lemma's window term, which reads the split's block."""
    pw = p.weights_array(i_hi)[i_lo:]
    qw = q.weights_array(j_hi)[j_lo:]
    block = seq.block(np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1))
    diff = (anchor - block) if flip else (block - anchor)
    num = _exact_sum((pw[:, None] * qw[None, :]) * diff)
    dp = _exact_sum(pw)
    dq = _exact_sum(qw)
    return num / (dp * dq), dp, dq


def _four_sum_lemma(direction, seq, p, q, m, n, mu, eta):
    """The split from four sigma_single calls from the origin, in this
    order: the oracle of the tests below."""
    forward = direction == "forward"
    u_mn = seq.evaluate(m, n)
    s_mn = tk.sigma_single(seq, p, q, m, n)
    s_mu_n = tk.sigma_single(seq, p, q, mu, n)
    s_m_eta = tk.sigma_single(seq, p, q, m, eta)
    s_mu_eta = tk.sigma_single(seq, p, q, mu, eta)
    t_window, dp, dq = _window_average(
        seq, p, q, min(m, mu) + 1, max(m, mu), min(n, eta) + 1, max(n, eta), u_mn,
        flip=not forward,
    )
    p_mu = p.prefix(mu)
    q_eta = q.prefix(eta)
    corner = _exact_sum(np.array([s_mu_eta, -s_mu_n, -s_m_eta, s_mn]))
    t1 = (p_mu * q_eta) / (dp * dq) * corner
    t2 = p_mu / dp * (s_mu_n - s_mn if forward else s_mn - s_mu_n)
    t3 = q_eta / dq * (s_m_eta - s_mn if forward else s_mn - s_m_eta)
    lhs = u_mn - s_mn
    residual = _exact_sum(np.array([lhs, -t1, -t2, -t3, t_window if forward else -t_window]))
    scale = max(1.0, abs(lhs), abs(t1), abs(t2), abs(t3), abs(t_window))
    return tk.LemmaDecomposition(direction, m, n, mu, eta, lhs, t1, t2, t3, t_window,
                                 residual, abs(residual) / scale)


def _outcome(fn, *args):
    """Each field's repr, or the error's type and text."""
    try:
        dec = fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return [repr(getattr(dec, f.name)) for f in dataclasses.fields(dec)]


def _both_outcomes(seq, p, q, m, n, mu, eta):
    direction = "forward" if mu > m else "backward"
    lemma = tk.lemma_forward if mu > m else tk.lemma_backward
    # fresh weights for each side, so neither reads the other's cache
    return (
        _outcome(lemma, seq, p(), q(), m, n, mu, eta),
        _outcome(_four_sum_lemma, direction, seq, p(), q(), m, n, mu, eta),
    )


_WEIGHTS = {"ones": tk.ones, "harmonic": tk.harmonic, "power": tk.power,
            "geometric:r=10": lambda: tk.geometric(10.0)}
# Forward then backward splits.  Near (150, 150), geometric:r=10 products
# reach 1e305: finite, but close enough to overflow that the oracle decides.
_SPLITS = [(40, 30, 55, 47), (3, 5, 4, 6), (150, 150, 152, 153),
           (40, 30, 25, 12), (1, 1, 0, 0), (152, 153, 150, 150)]


@pytest.mark.parametrize("wp, wq", [("ones", "ones"), ("harmonic", "power"), ("power", "harmonic"),
                                    ("geometric:r=10", "ones"),
                                    ("geometric:r=10", "geometric:r=10")])
@pytest.mark.parametrize("name", ["additive_convergent", "alternating", "separable_convergent",
                                  "complex_convergent"])
def test_splits_keep_the_bits_of_four_sigma_single_calls(name, wp, wq):
    seq = tk.corpus_sequence(name)
    for split in _SPLITS:
        new, old = _both_outcomes(seq, _WEIGHTS[wp], _WEIGHTS[wq], *split)
        assert new == old, split


def _set_band(monkeypatch, seq, band, m, n, mu, eta):
    """Cut seq's block of the split into bands of one row, or of rows that
    end just before row min(m, mu) or just after it; "default" keeps the
    band budget."""
    r0 = min(m, mu)
    rows = {"row": 1, "r0": max(r0, 1), "r0+1": r0 + 1}.get(band)
    if rows:
        monkeypatch.setattr(tk.sequences, "_BAND_BYTES", rows * (max(n, eta) + 1) * seq.kind.dtype.itemsize)


@pytest.mark.parametrize("wp, wq", [("ones", "ones"), ("power", "harmonic"),
                                    ("geometric:r=10", "geometric:r=10")])
@pytest.mark.parametrize("name", ["alternating", "complex_convergent"])
@pytest.mark.parametrize("band", ["row", "r0", "r0+1"])
def test_banded_splits_keep_the_bits_of_four_sigma_single_calls(monkeypatch, band, name, wp, wq):
    # the test above covers the default bands
    seq = tk.corpus_sequence(name)
    for split in _SPLITS:
        _set_band(monkeypatch, seq, band, *split)
        new, old = _both_outcomes(seq, _WEIGHTS[wp], _WEIGHTS[wq], *split)
        assert new == old, split


def _late_trouble(nan_row=-1, raise_row=-1):
    """additive_convergent with a NaN at (nan_row, 3), and a rule that
    raises on any block that holds raise_row."""
    def rule(M, N):
        if (M == raise_row).any():
            raise ArithmeticError(f"row {raise_row} is out of reach")
        return np.where((M == nan_row) & (N == 3), np.nan, ADD.rule(M, N))
    return tk.DoubleSequence("late", rule)


# Each trouble lies in rows past min(m, mu), so under every cut of _set_band
# but the default it shows up only in a band after the first.
# The last field says what _corner_means holds: no window when a band raises,
# the whole window when a band only failed the bound.
_LATE = {
    "raises": [(_late_trouble(raise_row=50), "ones", (40, 30, 55, 47), "none"),
               (_late_trouble(raise_row=38), "ones", (40, 30, 25, 12), "none")],
    "non-finite": [(_late_trouble(nan_row=50), "ones", (40, 30, 55, 47), "window"),
                   (_late_trouble(nan_row=38), "ones", (40, 30, 25, 12), "window")],
    "non-finite, then raises": [(_late_trouble(45, 50), "ones", (40, 30, 55, 47), "none"),
                                (_late_trouble(33, 38), "ones", (40, 30, 25, 12), "none")],
    "over the bound": [(tk.constant(1.5), "geometric:r=10", (150, 150, 152, 153), "window"),
                       (tk.constant(1.5), "geometric:r=10", (152, 153, 150, 150), "window")],
}


@pytest.mark.parametrize("band", ["row", "r0", "r0+1", "default"])
@pytest.mark.parametrize("trouble", list(_LATE))
def test_trouble_in_a_later_band_keeps_the_outcome_of_four_sigma_single_calls(monkeypatch, band, trouble):
    for seq, w, (m, n, mu, eta), held in _LATE[trouble]:
        _set_band(monkeypatch, seq, band, m, n, mu, eta)
        new, old = _both_outcomes(seq, _WEIGHTS[w], _WEIGHTS[w], m, n, mu, eta)
        assert new == old, (m, n, mu, eta)
        corners = ((m, n), (mu, n), (m, eta), (mu, eta))
        means, window = harness._corner_means(seq, _WEIGHTS[w](), _WEIGHTS[w](), corners)
        assert means is None
        if held == "none":
            assert window is None
        else:
            rows, cols = np.arange(min(m, mu), max(m, mu) + 1), np.arange(min(n, eta), max(n, eta) + 1)
            assert np.array_equal(window, seq.block(rows, cols), equal_nan=True)


@pytest.mark.parametrize("band", ["row", "r0", "default"])
@pytest.mark.parametrize("name, w, split", [("additive_convergent", "power", (40, 30, 55, 47)),
                                            ("alternating", "harmonic", (40, 30, 25, 12)),
                                            ("complex_convergent", "ones", (3, 5, 4, 6))])
def test_uncertified_split_fills_the_window_and_keeps_the_oracle_means(monkeypatch, band, name, w, split):
    calls = oracle_route(monkeypatch)
    m, n, mu, eta = split
    seq = tk.corpus_sequence(name)
    _set_band(monkeypatch, seq, band, *split)
    corners = ((m, n), (mu, n), (m, eta), (mu, eta))
    blocks = _counting_blocks(monkeypatch)
    means, window = harness._corner_means(seq, _WEIGHTS[w](), _WEIGHTS[w](), corners)
    assert means is None
    # one pass: every row of the block evaluated once, and the window held
    assert np.array_equal(np.concatenate([a for a, _ in blocks]), np.arange(max(m, mu) + 1))
    grid = tk.eval_grid(seq, max(m, mu), max(n, eta)).values
    assert np.array_equal(window, grid[min(m, mu) :, min(n, eta) :])
    new, old = _both_outcomes(seq, _WEIGHTS[w], _WEIGHTS[w], *split)
    assert new == old
    assert [args[3:] for args in calls] == list(corners)


def test_tripped_guard_reads_every_band(monkeypatch):
    m, n, mu, eta = 150, 150, 152, 153
    seq = tk.constant(1.5)
    _set_band(monkeypatch, seq, "row", m, n, mu, eta)
    corners = ((m, n), (mu, n), (m, eta), (mu, eta))
    blocks = _counting_blocks(monkeypatch)
    means, window = harness._corner_means(seq, _WEIGHTS["geometric:r=10"](), _WEIGHTS["geometric:r=10"](), corners)
    assert means is None
    assert np.array_equal(np.concatenate([a for a, _ in blocks]), np.arange(mu + 1))
    assert np.array_equal(window, tk.eval_grid(seq, mu, eta).values[m:, n:])


@pytest.mark.parametrize("terms, r0, c0, defers", TIES_AND_CANCELLATIONS)
@pytest.mark.parametrize("forward", [True, False])
def test_tied_and_cancelling_splits_keep_the_bits_of_the_oracle(monkeypatch, terms, r0, c0, defers, forward):
    # a zero row and column below and right of the block: the split
    # (r0, c0) against its far corner sums the block's own rectangles
    u = np.pad(np.array(terms), ((0, 1), (0, 1)))
    far = u.shape[0] - 1, u.shape[1] - 1
    split = (r0, c0, *far) if forward else (*far, r0, c0)
    calls = oracle_calls(monkeypatch)
    new, old = _both_outcomes(tk.array_sequence(u, name="tie"), tk.ones, tk.ones, *split)
    assert new == old
    assert len(calls) == (4 if defers else 0)


# Captured while a corner sum the certified pass could not vouch for went
# through a second, binned pass of the block, and kept while such sums went
# to sigma_single; extraction now certifies them and must keep every bit.
_SUITE_MD5 = {0: "3f0b0f4fca6f203faa5f49939e71fff3", 1: "41635983de1854ae4518994de9a1817c",
              2: "d15616e5864851b720b80e738b5940a1"}
_TIE_REPRS = {
    "forward": "LemmaDecomposition(direction='forward', m=10, n=10, mu=199, eta=199, "
               "lhs=-74439663262322.25, term_corner=74439663262322.25, term_rows=-74439663262322.25, "
               "term_cols=-74439663262322.25, term_window=0.0, residual=0.0, rel_residual=0.0)",
    "backward": "LemmaDecomposition(direction='backward', m=199, n=199, mu=10, eta=10, "
                "lhs=-225179981368.5248, term_corner=225179981368.5248, term_rows=-225179981368.52478, "
                "term_cols=-225179981368.52478, term_window=0.0, residual=-6.103515625e-05, "
                "rel_residual=2.710505431213761e-16)",
}


@pytest.mark.parametrize("seed", sorted(_SUITE_MD5))
def test_suite_keeps_its_golden_reprs(monkeypatch, seed):
    calls = oracle_calls(monkeypatch)
    reprs = "\n".join(repr(x) for x in tk.lemma_residual_suite(100, 20, seed))
    assert hashlib.md5(reprs.encode()).hexdigest() == _SUITE_MD5[seed]
    assert calls == []  # the suite's ties have exact parts, which fsum rounds


def test_tie_inside_one_quadrant_keeps_its_golden_reprs(monkeypatch):
    # 2^53 + 1 is exactly halfway between the doubles 2^53 and 2^53 + 2
    u = np.zeros((200, 200))
    u[0, 0], u[1, 0] = 2.0**53, 1.0
    seq = tk.array_sequence(u, name="tie")
    calls = oracle_calls(monkeypatch)
    assert repr(tk.lemma_forward(seq, tk.ones(), tk.ones(), 10, 10, 199, 199)) == _TIE_REPRS["forward"]
    assert repr(tk.lemma_backward(seq, tk.ones(), tk.ones(), 199, 199, 10, 10)) == _TIE_REPRS["backward"]
    assert calls == []


# Captured while the tie below went to four sigma_single calls.
_BANDED_TIE_REPR = (
    "LemmaDecomposition(direction='forward', m=10, n=10, mu=1599, eta=1599, lhs=-74439663262322.25, "
    "term_corner=74439663262322.25, term_rows=-74439663262322.23, term_cols=-74439663262322.23, "
    "term_window=0.0, residual=-0.03125, rel_residual=4.198030811863873e-16)"
)


def test_tie_in_a_banded_block_keeps_its_golden_repr(monkeypatch):
    # the tie above in a 1600² block, which the split reads in 40 bands
    u = np.zeros((1600, 1600))
    u[0, 0], u[1, 0] = 2.0**53, 1.0
    calls = oracle_calls(monkeypatch)
    dec = tk.lemma_forward(tk.array_sequence(u, name="tie"), tk.ones(), tk.ones(), 10, 10, 1599, 1599)
    assert repr(dec) == _BANDED_TIE_REPR
    assert calls == []


# Captured while two levels of extraction and an error bound certified these
# sums.  geometric(1.5) products at m = 600 span some 740 binades, which
# take about twenty levels of extraction.
_GEOMETRIC_REPRS = {
    "alternating": "LemmaDecomposition(direction='forward', m=600, n=600, mu=640, eta=620, lhs=0.96, "
                   "term_corner=2.082294565087436e-17, term_rows=-2.775557812578031e-17, "
                   "term_cols=-3.4704906279490807e-17, term_window=-0.9600000000000001, "
                   "residual=-6.938476370811889e-17, rel_residual=6.938476370811889e-17)",
    "complex_convergent": "LemmaDecomposition(direction='forward', m=600, n=600, mu=640, eta=620, "
                          "lhs=(0.0008234148765142724+5.409278045254151e-05j), "
                          "term_corner=(-0.00024182012353447815-5.3082960616192824e-05j), "
                          "term_rows=(8.327085690714269e-05+0.00021366949506253704j), "
                          "term_cols=(0.00011139964386765451+8.111416493622399e-05j), "
                          "term_window=(-0.000870564499274038+0.00018760791893007286j), "
                          "residual=(-8.470329472543003e-17+4.615990749357035e-17j), "
                          "rel_residual=9.646442451576662e-17)",
}


@pytest.mark.parametrize("name", sorted(_GEOMETRIC_REPRS))
def test_geometric_split_keeps_its_golden_repr(monkeypatch, name):
    calls = oracle_calls(monkeypatch)
    w = tk.geometric(1.5)
    dec = tk.lemma_forward(tk.corpus_sequence(name), w, w, 600, 600, 640, 620)
    assert repr(dec) == _GEOMETRIC_REPRS[name]
    assert calls == []


def test_split_keeps_the_intermediate_overflow_of_fsum():
    # every product is finite, but the block's sum overflows a double
    new, old = _both_outcomes(tk.constant(1.5), _WEIGHTS["geometric:r=10"],
                              _WEIGHTS["geometric:r=10"], 150, 150, 154, 154)
    assert new == old == "OverflowError: intermediate overflow in fsum"


def _two_poles(M, N):
    u = np.where((M == 3) & (N == 2), np.inf, np.ones(np.broadcast_shapes(M.shape, N.shape)))
    return np.where((M == 0) & (N == 9), np.nan, u)


def test_split_names_the_bad_cell_of_the_anchor_rectangle():
    # (0, 9) comes first in the whole block, but (3, 2) is the first bad
    # cell of the (m, n) rectangle, which is summed first
    seq = tk.DoubleSequence("poles", _two_poles)
    new, old = _both_outcomes(seq, tk.ones, tk.ones, 5, 5, 8, 12)
    assert new == old == "NonFiniteValueError: poles: non-finite value at (3, 2)"


def test_over_budget_split_raises_the_budget_error():
    new, old = _both_outcomes(tk.constant(), tk.ones, tk.ones, 20000, 20000, 20001, 20002)
    assert new == old == (
        "ResourceLimitError: constant(c=1): grid of 400040001 cells exceeds budget 268435456"
    )


@pytest.mark.parametrize(
    "call, cells, message",
    [
        (lambda: tk.eval_grid(tk.constant(), 20000, 20000), 400040001,
         "constant(c=1): grid of 400040001 cells exceeds budget 268435456"),
        (lambda: tk.hardy_stat(ADD, tk.ones(), tk.ones(), (1, 6000), (1, 6000)), 36012001,
         "difference range has 36012001 cells"),
        (lambda: tk.sd_field_components(ADD, tk.ones(), tk.ones(), 6000, 6000, 1.1, 1.1), 43573201,
         "field needs 43573201 extended cells"),
        (lambda: tk.lemma_residual_suite(trials=1, grid=20000), 400000000,
         "suite grid of 400000000 cells exceeds budget 268435456"),
    ],
    ids=["eval_grid", "hardy_stat", "sd_field_components", "lemma_residual_suite"],
)
def test_resource_limit_errors_carry_the_refused_cells(call, cells, message):
    with pytest.raises(tk.ResourceLimitError) as exc:
        call()
    assert str(exc.value) == message
    assert exc.value.cells == cells


def _counting_blocks(monkeypatch):
    """Record the row and column indices of every block evaluation."""
    calls = []
    block = tk.DoubleSequence.block

    def counting(self, m_idx, n_idx):
        calls.append((np.array(m_idx), np.array(n_idx)))
        return block(self, m_idx, n_idx)

    monkeypatch.setattr(tk.DoubleSequence, "block", counting)
    return calls


def _assert_anchor_then_bands(calls, m, n, rows, cols):
    """The anchor's own cell, then the block [0..rows) x [0..cols) of a
    real sequence in row bands of at most _BAND_BYTES (or one row): each
    cell once."""
    assert [(a.tolist(), b.tolist()) for a, b in calls[:1]] == [([m], [n])]
    bands = calls[1:]
    assert np.array_equal(np.concatenate([a for a, _ in bands]), np.arange(rows))
    assert all(np.array_equal(b, np.arange(cols)) for _, b in bands)
    assert sum(a.size * b.size for a, b in bands) == rows * cols
    assert max(a.size * b.size * 8 for a, b in bands) <= max(tk.sequences._BAND_BYTES, cols * 8)


@pytest.mark.parametrize("split", [(40, 30, 55, 47), (40, 30, 25, 12)])
def test_split_evaluates_one_block_and_the_window(monkeypatch, split):
    m, n, mu, eta = split
    lemma = tk.lemma_forward if mu > m else tk.lemma_backward
    for budget in (tk.sequences._BAND_BYTES, 800):  # one band, then bands of two or three rows
        monkeypatch.setattr(tk.sequences, "_BAND_BYTES", budget)
        calls = _counting_blocks(monkeypatch)
        lemma(ADD, tk.ones(), tk.harmonic(), m, n, mu, eta)
        # the window is copied out of the bands
        _assert_anchor_then_bands(calls, m, n, max(m, mu) + 1, max(n, eta) + 1)


@pytest.mark.parametrize("fn", [tk.proof_inequality_forward, tk.proof_inequality_backward])
def test_proof_step_evaluates_one_block_and_the_anchor(monkeypatch, fn):
    forward = fn is tk.proof_inequality_forward
    for budget in (tk.sequences._BAND_BYTES, 800):
        monkeypatch.setattr(tk.sequences, "_BAND_BYTES", budget)
        calls = _counting_blocks(monkeypatch)
        ineq = fn(ADD, tk.ones(), tk.harmonic(), 40, 30, *((1.1, 1.1, 0.1, 0.1) if forward else (0.9, 0.9, 0.2, 0.2)))
        rows, cols = max(ineq.m, ineq.mu) + 1, max(ineq.n, ineq.eta) + 1
        _assert_anchor_then_bands(calls, 40, 30, rows, cols)


@pytest.mark.parametrize("fn", [tk.proof_inequality_forward, tk.proof_inequality_backward])
def test_proof_step_sums_no_window_term(monkeypatch, fn):
    # the drops replace the window average, so no block reaches the exact sum
    shapes = []

    def exact_sum(arr):
        shapes.append(arr.shape)
        return _exact_sum(arr)

    monkeypatch.setattr(harness, "_exact_sum", exact_sum)
    forward = fn is tk.proof_inequality_forward
    fn(ADD, tk.ones(), tk.harmonic(), 40, 30, *((1.1, 1.1, 0.1, 0.1) if forward else (0.9, 0.9, 0.2, 0.2)))
    assert shapes and all(len(shape) < 2 for shape in shapes)


@pytest.mark.parametrize("fn, lam", [(tk.proof_inequality_forward, 2.0), (tk.proof_inequality_backward, 0.5)])
def test_proof_step_holds_its_window_and_one_band(fn, lam):
    # (1600, 1600) with delta = 0.5: the forward block is 1791 x 2002 cells
    # (27.4 MiB), its window 0.59 MiB; the backward block is 19.6 MiB
    args = (tk.corpus_sequence("alternating"), tk.power(), tk.ones(), 1600, 1600, lam, lam, 0.5, 0.5)
    fn(*args)  # the prefix caches are not part of the peak
    assert traced_peak(lambda: fn(*args)) <= 8 * 2**20


def test_horizon_ladder_steps_down_to_an_eighth():
    assert tk.harness.horizon_ladder(512) == [64, 128, 256, 512]
    assert tk.harness.horizon_ladder(100) == [12, 25, 50, 100]
    assert tk.harness.horizon_ladder(3) == [0, 1, 3]


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


EXPECTED_VERDICTS = {
    "additive_convergent": ["VacuouslyConsistent"] * 4,
    "alternating": ["ConsistentNegative"] * 4,
    "complex_convergent": [None, None, "ConsistentPositive", "VacuouslyConsistent"],
    "constant": ["ConsistentPositive"] * 4,
    "paper_unbounded": ["VacuouslyConsistent"] * 4,
    "separable_convergent": [
        "ConsistentPositive",
        "VacuouslyConsistent",
        "ConsistentPositive",
        "ConsistentPositive",
    ],
}


@pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
def test_verdict_matrix_under_unit_weights(name):
    seq = tk.corpus_sequence(name)
    for theorem, expected in zip(tk.Theorem, EXPECTED_VERDICTS[name]):
        if expected is None:
            with pytest.raises(tk.ScalarKindError):
                tk.verify_theorem(seq, tk.ones(), tk.ones(), theorem, MATRIX_CONFIG)
            continue
        rep = tk.verify_theorem(seq, tk.ones(), tk.ones(), theorem, MATRIX_CONFIG)
        assert rep.verdict.value == expected, (name, theorem)
        assert rep.verdict is not tk.Verdict.INCONSISTENT


def test_horizon_halves_until_the_grid_is_finite():
    rep = tk.verify_theorem(
        tk.corpus_sequence("paper_unbounded"), tk.ones(), tk.ones(), tk.Theorem.T41,
        tk.HarnessConfig(horizon=512, class_horizon=4096),
    )
    assert rep.horizon == 256
    assert rep.horizon_note == "grid overflows doubles at horizon 512; evaluated at 256"


def test_verify_theorem_raises_a_later_rule_error_before_an_earlier_nan():
    # the nan lies in an earlier band than the rows past the array; the
    # whole-grid pass raised the rule's error, and the horizon never halved
    u = np.zeros((200, 257))
    u[150, 5] = np.nan
    with pytest.raises(IndexError, match=r"index \(200, 0\) outside stored shape"):
        tk.verify_theorem(tk.array_sequence(u, "short"), tk.ones(), tk.ones(), tk.Theorem.T41,
                          tk.HarnessConfig(horizon=256, class_horizon=4096))


def test_verify_theorem_evaluates_each_grid_cell_once(monkeypatch):
    counts = np.zeros((257, 257), dtype=np.int64)
    block = tk.DoubleSequence.block

    def recording_block(self, m_idx, n_idx):
        # every block: the bound profiles read the mean-field pass's bands
        np.add.at(counts, np.ix_(m_idx, n_idx), 1)
        return block(self, m_idx, n_idx)

    monkeypatch.setattr(tk.DoubleSequence, "block", recording_block)
    for theorem in (tk.Theorem.T42, tk.Theorem.T52):
        counts[:] = 0
        tk.verify_theorem(ADD, tk.ones(), tk.ones(), theorem,
                          tk.HarnessConfig(horizon=256, class_horizon=4096))
        assert (counts == 1).all(), theorem


def test_bound_profiles_need_no_window_budget(monkeypatch):
    # the rungs at 32 and 64 read [15..32]^2 and [31..64]^2, 324 and 1156
    # cells of u, from the bands of the mean-field pass
    monkeypatch.setattr(tk.oscillation, "MAX_WINDOW_CELLS", 100)
    rep = tk.verify_theorem(ALT, tk.ones(), tk.ones(), tk.Theorem.T52,
                            tk.HarnessConfig(horizon=64, class_horizon=4096))
    assert [r.cells for r in rep.condition_profiles["hardy_p"].rungs] == [25, 81, 289, 1089]


def test_signed_bound_profiles_refuse_complex_sequences_before_evaluating():
    base = tk.corpus_sequence("complex_convergent")
    calls = []

    def rule(M, N):
        calls.append(np.broadcast(M, N).size)
        return base.rule(M, N)

    seq = tk.DoubleSequence(name="complex_convergent", rule=rule, kind=base.kind)
    cfg = tk.HarnessConfig(horizon=64, class_horizon=4096)
    with pytest.raises(tk.ScalarKindError) as exc:
        tk.verify_theorem(seq, tk.ones(), tk.ones(), tk.Theorem.T42, cfg)
    assert str(exc.value) == "T42 uses order-sensitive conditions; complex_convergent is complex"
    assert calls == []
    rep = tk.verify_theorem(seq, tk.ones(), tk.ones(), tk.Theorem.T52, cfg)
    assert len(rep.condition_profiles["hardy_p"].rungs) == 4 and calls


# The bounds (name, sense) of T42 and T52, by name.
_BOUNDS = {rule.bound[0]: rule.bound for rule in harness._THEOREMS.values() if rule.bound}
_ORACLE_SEQUENCES = ["additive_convergent", "alternating", "complex_convergent",
                     "sin(m) / (1 + n) + cos(n) / (2 + m)"]


# Bands of one row put a band edge at every t - 1, t and k of the ladder, and
# bands of seven rows end inside some squares; the default is one band.  The
# pass hands each square over band by band, so extrema or bound statistics
# folded from the wrong rows, a band's first difference row taken against
# the wrong row above, or sigma divided by the wrong weight sums, would miss
# the whole grid's bits.
@pytest.mark.parametrize("rows", [1, 7, None], ids=lambda r: f"band_rows={r}")
@pytest.mark.parametrize("tail_fraction", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("name", _ORACLE_SEQUENCES)
def test_limits_and_bound_profiles_match_their_whole_grid_oracles(monkeypatch, name, tail_fraction, rows):
    seq = tk.corpus_sequence(name) if name.isidentifier() else expression_sequence(name)
    p, q, h = tk.harmonic(), tk.power(1.5), 100
    cfg = tk.HarnessConfig(horizon=h, tail_fraction=tail_fraction, class_horizon=4096)
    sigma = tk.weighted_mean_field(seq, p, q, h, h).sigma  # one band
    if rows is not None:
        words = 2 if seq.kind is tk.ScalarKind.COMPLEX else 1
        monkeypatch.setattr(tk.sequences, "_BAND_BYTES", rows * (h + 1) * words * 8)
    stats = [tk.hardy_stat]
    if seq.kind is tk.ScalarKind.REAL:
        stats.append(tk.landau_stat)
    for bound, stat in [(None, None)] + [(_BOUNDS[stat.__name__.split("_")[0]], stat) for stat in stats]:
        got_h, ladder, u_limit, sigma_limit, profiles = harness._limits(seq, p, q, cfg, bound)
        assert got_h == h
        assert repr(u_limit) == repr(tk.empirical_limit(tk.eval_grid(seq, h, h), ladder, tail_fraction))
        assert repr(sigma_limit) == repr(tk.empirical_limit(sigma, ladder, tail_fraction))
        if bound is None:
            assert profiles is None
            continue
        tails = [(math.ceil(tail_fraction * k), k) for k in ladder]
        for axis, prof in enumerate(profiles):
            assert prof.functional == f"{bound[0]}_{'pq'[axis]}"
            assert [(r.horizon, r.cells) for r in prof.rungs] == [(k, (k + 1 - t) ** 2) for t, k in tails]
            want = [stat(seq, p, q, (t, k), (t, k))[axis] for t, k in tails]
            assert repr([r.stat for r in prof.rungs]) == repr(want)
        theorem = tk.Theorem.T42 if bound[0] == "landau" else tk.Theorem.T52
        rep = tk.verify_theorem(seq, p, q, theorem, cfg)
        assert repr(tuple(rep.condition_profiles[prof.functional] for prof in profiles)) == repr(profiles)


def _signed_zeros():
    """A 65 x 65 block of +0.0 and -0.0, so its differences are zeros of both signs."""
    u = np.zeros((65, 65))
    u[np.random.default_rng(3).random(u.shape) < 0.5] = -0.0
    return tk.array_sequence(u, "signed_zeros")


@pytest.mark.parametrize("rows", [1, 7, None], ids=lambda r: f"band_rows={r}")
def test_landau_minimum_of_signed_zero_differences_is_positive_zero(monkeypatch, rows):
    # numpy's min over zeros of both signs keeps whichever its reduction
    # order meets last: landau_stat gave -0.0 on some of these blocks
    seq = _signed_zeros()
    for r in ((1, 64), (1, 1), (4, 5), (4, 6), (30, 33), (9, 41)):
        assert repr(tk.landau_stat(seq, tk.ones(), tk.ones(), r, r)) == "(0.0, 0.0)", r
    if rows is not None:
        monkeypatch.setattr(tk.sequences, "_BAND_BYTES", rows * 65 * 8)
    cfg = tk.HarnessConfig(horizon=64, class_horizon=4096)
    _, _, u_limit, sigma_limit, profiles = harness._limits(seq, tk.ones(), tk.ones(), cfg, _BOUNDS["landau"])
    assert [repr(r.stat) for prof in profiles for r in prof.rungs] == ["0.0"] * 8
    assert [repr(r) for est in (u_limit, sigma_limit) for _, r in est.residual_profile] == ["0.0"] * 8


def test_every_banded_read_of_u_stays_within_the_band_budget(monkeypatch):
    # the pass and the window engine of a real and a complex analysis, a
    # lemma split and the mean field.  A read may be one row wider than the
    # budget, but none is here: the grids are narrower than a band, and the
    # engine cuts the union rows of the harmonic columns (wider than a
    # band) into column chunks.
    reads, block = [], tk.DoubleSequence.block

    def recorded(self, m_idx, n_idx):
        out = block(self, m_idx, n_idx)
        reads[-1].append(out)
        return out

    monkeypatch.setattr(tk.DoubleSequence, "block", recorded)
    cfg = tk.HarnessConfig(horizon=512, class_horizon=4096)
    cplx = tk.corpus_sequence("complex_convergent")
    ops = {
        "T41": lambda: tk.verify_theorem(ADD, tk.harmonic(), tk.harmonic(), tk.Theorem.T41, cfg),
        "T51": lambda: tk.verify_theorem(cplx, tk.ones(), tk.power(1.5), tk.Theorem.T51, cfg),
        "lemma": lambda: tk.lemma_forward(cplx, tk.ones(), tk.harmonic(), 300, 300, 400, 420),
        "field": lambda: tk.weighted_mean_field(ADD, tk.ones(), tk.ones(), 700, 700),
    }
    budget = tk.sequences._BAND_BYTES
    for name, op in ops.items():
        reads.append([])
        op()
        assert all(u.nbytes <= budget for u in reads[-1]), name
        assert sum(u.nbytes for u in reads[-1]) > 2 * budget, name  # so some reads are bands


def test_numpy_integer_horizons_give_the_report_of_python_ints():
    # a float horizon built and then failed: a TypeError in verify_theorem,
    # an IndexError in classify (the refusals are in test_cli's _RULES)
    cfg = tk.HarnessConfig(horizon=np.int64(64), class_horizon=np.int32(4096))
    assert type(cfg.horizon) is type(cfg.class_horizon) is int
    got = tk.verify_theorem(ADD, tk.ones(), tk.ones(), tk.Theorem.T41, cfg)
    want = tk.verify_theorem(ADD, tk.ones(), tk.ones(), tk.Theorem.T41, tk.HarnessConfig(horizon=64, class_horizon=4096))
    assert json.dumps(harness.report_json(got)) == json.dumps(harness.report_json(want))


def test_limits_hold_no_square_of_a_real_sequence():
    # bands of 2^16 words of u, the numerator and the scratch sigma: at H =
    # 2048 the tail squares of u and sigma took 22.5 MiB
    cfg = tk.HarnessConfig(horizon=2048, class_horizon=4096)
    p, q = tk.ones(), tk.ones()
    harness._limits(ADD, p, q, cfg, _BOUNDS["landau"])  # the prefix caches are not part of the peak
    assert traced_peak(lambda: harness._limits(ADD, p, q, cfg, _BOUNDS["landau"])) <= 3 * 2**20


def test_landau_profiles_at_a_large_horizon_stay_near_the_bare_pass():
    # T42 at H = 4096 held about 86 MiB of tail squares; the bound statistics
    # add a band's differences and one row to the pass's own bands
    cfg = tk.HarnessConfig(horizon=4096, class_horizon=4096)
    p, q = tk.ones(), tk.ones()
    tk.verify_theorem(ADD, p, q, tk.Theorem.T42, cfg)  # the prefix caches are not part of the peak
    bare = traced_peak(lambda: transform._mean_field_pass(ADD, p, q, 4096, 4096, lambda *band: None))
    assert traced_peak(lambda: tk.verify_theorem(ADD, p, q, tk.Theorem.T42, cfg)) <= bare + 2 * 2**20


@pytest.mark.parametrize("bound", [None, "hardy"])
@pytest.mark.parametrize("h", [1024, 2048])
def test_limits_hold_no_square_of_a_complex_sequence(h, bound):
    # two passes over bands of 2^16 words; kept whole, the tail squares of u
    # and sigma peaked at 12.0 (H = 1024) and 44.0 MiB (H = 2048)
    cfg = tk.HarnessConfig(horizon=h, class_horizon=4096)
    seq, p, q, bound = tk.corpus_sequence("complex_convergent"), tk.ones(), tk.ones(), _BOUNDS.get(bound)
    harness._limits(seq, p, q, cfg, bound)  # the prefix caches are not part of the peak
    assert traced_peak(lambda: harness._limits(seq, p, q, cfg, bound)) <= 3 * 2**20


def test_complex_limits_at_a_halved_horizon_match_their_oracles():
    # geometric row weights overflow the numerator at H = 1024: the first
    # pass halves the horizon to 512, where the second folds the residuals
    seq, p, q = tk.corpus_sequence("complex_convergent"), tk.geometric(), tk.ones()
    cfg = tk.HarnessConfig(horizon=1024, class_horizon=4096)
    h, ladder, u_limit, sigma_limit, profiles = harness._limits(seq, p, q, cfg, _BOUNDS["hardy"])
    assert h == 512
    sigma = tk.weighted_mean_field(seq, p, q, h, h).sigma
    assert repr(u_limit) == repr(tk.empirical_limit(tk.eval_grid(seq, h, h), ladder))
    assert repr(sigma_limit) == repr(tk.empirical_limit(sigma, ladder))
    tails = [(math.ceil(k / 2), k) for k in ladder]
    for axis, prof in enumerate(profiles):
        want = [tk.hardy_stat(seq, p, q, (t, k), (t, k))[axis] for t, k in tails]
        assert repr([r.stat for r in prof.rungs]) == repr(want)


@pytest.mark.parametrize("theorem", [tk.Theorem.T41, tk.Theorem.T52])
def test_verify_theorem_peak_memory_stays_below_half_a_grid(theorem):
    # measured 3.1 (T41, in the window profiles) and 1.9 MiB (T52)
    cfg = tk.HarnessConfig(horizon=1024, class_horizon=4096)
    p, q = tk.harmonic(), tk.power(1.5)
    tk.verify_theorem(ADD, p, q, theorem, cfg)  # the prefix caches are not part of the peak
    assert traced_peak(lambda: tk.verify_theorem(ADD, p, q, theorem, cfg)) < 1025 * 1025 * 8 / 2


def test_limit_residual_of_signed_zeros_is_zero():
    u = np.zeros((65, 65))
    u[::2, 1::3] = -0.0
    u[64, 64] = -0.0
    est = tk.empirical_limit(tk.eval_grid(tk.array_sequence(u), 64, 64), [8, 16, 32, 64])
    assert [repr(r) for _, r in est.residual_profile] == ["0.0"] * 4


def test_disagreeing_limits_are_flagged():
    cfg = tk.HarnessConfig(horizon=2048, eps_dec=0.1, eps_agree=0.01, class_horizon=4096)
    rep = tk.verify_theorem(ADD, tk.ones(), tk.ones(), tk.Theorem.T42, cfg)
    assert rep.hypotheses_hold
    assert rep.verdict is tk.Verdict.INCONSISTENT
    assert rep.limit_gap > rep.agreement_threshold


def test_report_serialization_layout():
    rep = tk.verify_theorem(ALT, tk.ones(), tk.ones(), tk.Theorem.T42, MATRIX_CONFIG)
    doc = tk.report_json(rep)
    assert sorted(doc) == [
        "agreement_threshold",
        "class_notes",
        "condition_profiles",
        "conditions_hold",
        "horizon",
        "horizon_note",
        "hypotheses_hold",
        "limit_gap",
        "sequence",
        "sigma_limit",
        "theorem",
        "u_limit",
        "verdict",
        "weight_class_p",
        "weight_class_q",
        "weights_p",
        "weights_q",
    ]
    assert doc["verdict"] == "ConsistentNegative"
    assert doc["theorem"] == "T42"
    assert doc["weight_class_p"]["kind"] == "RegularlyVarying"


def test_condition_profiles_carry_ladder_rungs():
    rep = tk.verify_theorem(ADD, tk.ones(), tk.ones(), tk.Theorem.T42,
                            tk.HarnessConfig(horizon=256, class_horizon=4096))
    assert set(rep.condition_profiles) == {"landau_p", "landau_q"}
    rungs = rep.condition_profiles["landau_p"].rungs
    assert [r.horizon for r in rungs] == [32, 64, 128, 256]
    stats = [r.stat for r in rungs]
    assert stats == sorted(stats)  # relaxing toward 0 from below


def test_enum_labels():
    assert [t.value for t in tk.Theorem] == ["T41", "T42", "T51", "T52"]
    assert {v.value for v in tk.Verdict} == {
        "ConsistentPositive",
        "ConsistentNegative",
        "VacuouslyConsistent",
        "Inconsistent",
    }
