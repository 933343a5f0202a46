"""Split choosers, exact decompositions, proof inequalities, and verdicts."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

import tauberkit as tk
from tauberkit import harness, transform
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
    corner, rows, cols, window = dec.terms
    assert math.fsum([corner, rows, cols, -window]) == pytest.approx(gap, rel=1e-12)


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


def _four_sum_lemma(direction, seq, p, q, m, n, mu, eta):
    """The split from four sigma_single calls from the origin, in this
    order: the oracle of the tests below."""
    forward = direction == "forward"
    u_mn = seq.evaluate(m, n)
    s_mn = tk.sigma_single(seq, p, q, m, n)
    s_mu_n = tk.sigma_single(seq, p, q, mu, n)
    s_m_eta = tk.sigma_single(seq, p, q, m, eta)
    s_mu_eta = tk.sigma_single(seq, p, q, mu, eta)
    t_window, dp, dq = harness._window_average(
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


@pytest.mark.parametrize("split", [(40, 30, 55, 47), (40, 30, 25, 12)])
def test_split_evaluates_one_block_and_the_window(monkeypatch, split):
    m, n, mu, eta = split
    cells = []
    block = tk.DoubleSequence.block

    def counting(self, m_idx, n_idx):
        out = block(self, m_idx, n_idx)
        cells.append(out.size)
        return out

    monkeypatch.setattr(tk.DoubleSequence, "block", counting)
    lemma = tk.lemma_forward if mu > m else tk.lemma_backward
    lemma(ADD, tk.ones(), tk.harmonic(), m, n, mu, eta)
    # the anchor's own cell, the block from the origin, the window block
    rows, cols = max(m, mu) + 1, max(n, eta) + 1
    assert cells == [1, rows * cols, abs(mu - m) * abs(eta - n)]


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


@pytest.mark.parametrize("tail_fraction", [0.5, 0.3])
def test_tail_squares_read_as_the_whole_grid(tail_fraction):
    h, ladder = 300, harness.horizon_ladder(300)
    whole = tk.eval_grid(tk.corpus_sequence("complex_convergent"), h, h)
    tails = harness._TailSquares(h, ladder, tail_fraction, whole.values.dtype)
    for t, sq in tails.squares:
        sq[:] = whole.values[t : t + len(sq), t : t + len(sq)]
    for k in ladder:
        t = math.ceil(tail_fraction * k)
        assert np.array_equal(tails.values[t : k + 1, t : k + 1], whole.values[t : k + 1, t : k + 1])
        assert tails.values[k, k] == whole.values[k, k]
    with pytest.raises(IndexError, match="lies in no tail square"):
        tails.values[0, 0]
    got = tk.empirical_limit(tails, ladder, tail_fraction)
    assert repr(got) == repr(tk.empirical_limit(whole, ladder, tail_fraction))


def test_verify_theorem_evaluates_each_grid_cell_once(monkeypatch):
    counts = np.zeros((257, 257), dtype=np.int64)
    block = tk.DoubleSequence.block

    def recording_block(self, m_idx, n_idx):
        # only the mean-field pass's own evaluations: T42's bound profiles
        # read the tails again, through blocks of their own
        if sys._getframe(1).f_code is transform._mean_field_bands.__code__:
            np.add.at(counts, np.ix_(m_idx, n_idx), 1)
        return block(self, m_idx, n_idx)

    monkeypatch.setattr(tk.DoubleSequence, "block", recording_block)
    tk.verify_theorem(ADD, tk.ones(), tk.ones(), tk.Theorem.T42,
                      tk.HarnessConfig(horizon=256, class_horizon=4096))
    assert (counts == 1).all()


@pytest.mark.parametrize("theorem", [tk.Theorem.T41, tk.Theorem.T52])
def test_verify_theorem_peak_memory_stays_below_two_grids(theorem):
    cfg = tk.HarnessConfig(horizon=1024, class_horizon=4096)
    p, q = tk.harmonic(), tk.power(1.5)
    tk.verify_theorem(ADD, p, q, theorem, cfg)  # the prefix caches are not part of the peak
    tracemalloc.start()
    try:
        tk.verify_theorem(ADD, p, q, theorem, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1025 * 1025 * 8


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
