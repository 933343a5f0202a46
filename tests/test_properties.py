"""Property tests for the identities the numeric paths are built on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tauberkit as tk
from helpers import direct_sigma

WEIGHT_POOL = ["ones", "harmonic", "power", "wobble"]

weights = st.sampled_from(WEIGHT_POOL).map(tk.corpus_weight)
positive_weights = st.lists(
    st.floats(min_value=0.05, max_value=20.0, allow_nan=False), min_size=4, max_size=24
)
small_grids = st.integers(min_value=4, max_value=12).flatmap(
    lambda side: st.lists(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=side,
            max_size=side,
        ),
        min_size=side,
        max_size=side,
    )
)


@given(positive_weights)
def test_prefix_agrees_with_exact_summation(vals):
    p = tk.WeightSequence(lambda m: vals[m], name="listed", max_index=len(vals) - 1)
    sums = p.prefix_array(len(vals) - 1)
    for m in range(len(vals)):
        exact = math.fsum(vals[: m + 1])
        assert sums[m] == pytest.approx(exact, rel=4e-16)


@settings(max_examples=40, deadline=None)
@given(small_grids, st.randoms(use_true_random=False))
def test_mean_field_matches_direct_summation(cells, rnd):
    u = np.array(cells)
    side = u.shape[0]
    p = tk.corpus_weight(rnd.choice(WEIGHT_POOL))
    q = tk.corpus_weight(rnd.choice(WEIGHT_POOL))
    fld = tk.weighted_mean_field(tk.array_sequence(u), p, q, side - 1, side - 1)
    m = rnd.randrange(side)
    n = rnd.randrange(side)
    want = direct_sigma(u, p.weights_array(side - 1), q.weights_array(side - 1), m, n)
    assert fld.sigma.values[m, n] == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_grids, st.randoms(use_true_random=False))
def test_forward_split_identity_on_random_grids(cells, rnd):
    u = np.array(cells)
    side = u.shape[0]
    if side < 5:
        return
    seq = tk.array_sequence(u)
    p = tk.corpus_weight(rnd.choice(WEIGHT_POOL))
    q = tk.corpus_weight(rnd.choice(WEIGHT_POOL))
    m = rnd.randrange(0, side - 2)
    n = rnd.randrange(0, side - 2)
    mu = rnd.randrange(m + 1, side)
    eta = rnd.randrange(n + 1, side)
    dec = tk.lemma_forward(seq, p, q, m, n, mu, eta)
    assert dec.rel_residual <= 1e-9


@settings(max_examples=40, deadline=None)
@given(small_grids, st.randoms(use_true_random=False))
def test_backward_split_identity_on_random_grids(cells, rnd):
    u = np.array(cells)
    side = u.shape[0]
    seq = tk.array_sequence(u)
    p = tk.corpus_weight(rnd.choice(WEIGHT_POOL))
    q = tk.corpus_weight(rnd.choice(WEIGHT_POOL))
    m = rnd.randrange(1, side)
    n = rnd.randrange(1, side)
    mu = rnd.randrange(0, m)
    eta = rnd.randrange(0, n)
    dec = tk.lemma_backward(seq, p, q, m, n, mu, eta)
    assert dec.rel_residual <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    weights,
    st.integers(min_value=0, max_value=300),
    st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
)
def test_forward_chooser_postcondition(p, m, delta):
    mu = tk.choose_mu(p, m, delta)
    target = (1.0 + delta / 2.0) * p.prefix(m)
    assert mu > m
    assert p.prefix(mu - 1) < target <= p.prefix(mu)


@settings(max_examples=60, deadline=None)
@given(
    weights,
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
)
def test_backward_chooser_matches_its_contract(p, m, delta):
    factor = 1.0 + delta / 2.0
    sums = p.prefix_array(m)
    try:
        mu = tk.choose_mu_backward(p, m, delta)
    except ValueError:
        assert not any(factor * sums[i] <= sums[m] for i in range(m + 1))
        return
    assert 0 <= mu <= m
    assert factor * sums[mu] <= sums[m]
    if mu < m:
        assert factor * sums[mu + 1] > sums[m]


@settings(max_examples=60, deadline=None)
@given(
    weights,
    st.integers(min_value=0, max_value=200),
    st.floats(min_value=1.01, max_value=2.0, allow_nan=False),
    st.floats(min_value=1.01, max_value=2.0, allow_nan=False),
)
def test_window_upper_index_is_monotone_in_the_scale(p, m, lam_a, lam_b):
    lo, hi = sorted((lam_a, lam_b))
    p.ensure_sum_exceeds(hi * p.prefix(m))
    assert tk.window_edge(p, m, lo) <= tk.window_edge(p, m, hi)


@settings(max_examples=30, deadline=None)
@given(small_grids, st.randoms(use_true_random=False))
def test_rectangle_functional_never_beats_its_parts(cells, rnd):
    u = np.array(cells)
    side = u.shape[0]
    seq = tk.array_sequence(u)
    # unit weights keep the scale-1.3 windows inside the finite grid
    p = tk.ones()
    q = tk.ones()
    m = rnd.randrange(0, side // 2)
    n = rnd.randrange(0, side // 2)
    both, strong_p, sd_q = (
        tk.window_functional(name, seq, p, q, m, n, 1.3, 1.3)
        for name in ("sd_both", "sd_strong_P", "sd_Q")
    )
    scale = max(1.0, abs(both), abs(sd_q), abs(strong_p))
    assert both - strong_p - sd_q >= -1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100))
def test_telescoping_row_differences(n):
    seq = tk.corpus_sequence("additive_convergent")
    g = tk.eval_grid(seq, 16, n)
    total = math.fsum(seq.evaluate(i, n) - seq.evaluate(i - 1, n) for i in range(1, 17))
    assert total == pytest.approx(g.values[16, n] - g.values[0, n], rel=1e-12, abs=1e-15)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=64, max_value=256),
    st.floats(min_value=0.01, max_value=0.4, allow_nan=False),
)
def test_limit_estimate_invariant(top, eps_dec):
    top = (top // 8) * 8
    g = tk.eval_grid(tk.corpus_sequence("additive_convergent"), top, top)
    ladder = [top // 8, top // 4, top // 2, top]
    est = tk.empirical_limit(g, ladder, eps_dec=eps_dec)
    assert est.eps_dec == eps_dec
    final = est.residual_profile[-1][1]
    if est.converged:
        assert final < eps_dec
    else:
        assert final >= eps_dec or final > est.residual_profile[-2][1]


# Window engine against a per-window reference.  Cells repeat and hold
# zeros of both signs, so extrema tie: the engine must then give what one
# reduction per window gives, with IEEE 754's minimum ordering -0.0 below
# +0.0 (numpy's own min picks between tied zeros by its reduction layout).
_CELLS = [0.0, -0.0, 0.0, -0.0, 1.0, 0.5, -1.0]
_COMPLEX_CELLS = [0.0, -0.0, 1.0, -1.0j, 0.5 + 0.5j, complex(-0.0, 0.0)]
_FORWARD_REFERENCE = {"corner": lambda b: b[0, 0], "row": lambda b: b[:1, :], "col": lambda b: b[:, :1]}
_BACKWARD_REFERENCE = {"corner": lambda b: b[-1, -1], "row": lambda b: b[-1:, :], "col": lambda b: b[:, -1:]}


def _least(d):
    lo = d.min()
    return lo if lo != 0 else (-0.0 if np.signbit(d[d == 0]).any() else 0.0)


def _window_reference(spec, block, forward):
    ref = (_FORWARD_REFERENCE if forward else _BACKWARD_REFERENCE)[spec.reference](block)
    d = block - ref if forward else ref - block
    return repr(float(_least(d) if spec.sense is tk.oscillation.TrendSense.INF else np.abs(d).max()))


@st.composite
def _window_sets(draw):
    rows, cols = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    complex_ = draw(st.booleans())
    u = np.array(draw(st.lists(st.sampled_from(_COMPLEX_CELLS if complex_ else _CELLS),
                               min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    names = [n for n in tk.window_functional_names() if not (complex_ and n.startswith("sd"))]
    wins = []
    for _ in range(draw(st.integers(1, 8))):
        spec = tk.oscillation._FUNCTIONALS[draw(st.sampled_from(names))]
        m, n = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        r1 = m if spec.shape == "q" else draw(st.integers(m, rows - 1))
        c1 = n if spec.shape == "p" else draw(st.integers(n, cols - 1))
        wins.append(tk.oscillation._Window(spec, (m, r1), (n, c1)))
    return u, wins


@pytest.mark.parametrize("band_cells", [None, 64, 4], ids=["default_bands", "64_cells", "4_cells"])
@settings(max_examples=300, deadline=None)
@given(case=_window_sets())
def test_window_engine_matches_a_per_window_reference_bitwise(band_cells, case):
    u, wins = case
    want = [_window_reference(w.spec, u[w.rows[0] : w.rows[1] + 1, w.cols[0] : w.cols[1] + 1], True)
            for w in wins]
    with pytest.MonkeyPatch.context() as mp:
        if band_cells is not None:
            mp.setattr(tk.oscillation, "_BAND_CELLS", band_cells)
        got = tk.oscillation._window_values(tk.array_sequence(u), wins)
    assert [repr(v) for v in got] == want


@pytest.mark.parametrize("band_cells", [None, 64, 4], ids=["default_bands", "64_cells", "4_cells"])
@settings(max_examples=100, deadline=None)
@given(case=_window_sets(), scales=st.lists(st.floats(0.01, 0.99), min_size=16, max_size=16))
def test_backward_windows_match_a_per_window_reference_bitwise(band_cells, case, scales):
    # window_functional evaluates a backward window as the forward window
    # of the mirrored, negated block
    u, wins = case
    seq, ones = tk.array_sequence(u), tk.ones()
    for w, lam, kappa in zip(wins, scales[::2], scales[1::2]):
        name = next(k for k, v in tk.oscillation._FUNCTIONALS.items() if v == w.spec)
        (m, n), shape = (w.rows[1], w.cols[1]), w.spec.shape
        r0 = m if shape == "q" else tk.window_edge(ones, m, lam)
        c0 = n if shape == "p" else tk.window_edge(ones, n, kappa)
        want = _window_reference(w.spec, u[r0 : m + 1, c0 : n + 1], False)
        with pytest.MonkeyPatch.context() as mp:
            if band_cells is not None:
                mp.setattr(tk.oscillation, "_BAND_CELLS", band_cells)
            got = tk.window_functional(name, seq, ones, ones, m, n, lam, kappa)
        assert repr(got) == want


# Proof-step drops against the same reference: bound_rect is the
# sd_strong_Q drop of the chooser block and bound_line the sd_P drop of its
# anchor column, on the forward block or, backward, as ref - x.
@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=256, max_size=256),
       forward=st.booleans(), m=st.integers(0, 7), n=st.integers(0, 7),
       delta=st.floats(0.05, 2.0), gamma=st.floats(0.05, 2.0))
def test_proof_step_drops_match_a_per_window_reference_bitwise(cells, forward, m, n, delta, gamma):
    u = np.array(cells).reshape(16, 16)
    if forward:
        got = tk.proof_inequality_forward(tk.array_sequence(u), tk.ones(), tk.ones(), m, n, 2.0, 2.0, delta, gamma)
    else:
        m, n = m + 8, n + 8
        try:
            got = tk.proof_inequality_backward(tk.array_sequence(u), tk.ones(), tk.ones(), m, n, 0.5, 0.5, delta, gamma)
        except ValueError:  # the backward chooser block is empty
            return
    block = u[min(m, got.mu) : max(m, got.mu) + 1, min(n, got.eta) : max(n, got.eta) + 1]
    refs = _FORWARD_REFERENCE if forward else _BACKWARD_REFERENCE
    col = refs["col"](block)
    drop = (lambda x, r: x - r) if forward else (lambda x, r: r - x)
    assert repr(got.bound_rect) == repr(float(_least(drop(block, col))))
    assert repr(got.bound_line) == repr(float(_least(drop(col, refs["corner"](block)))))
