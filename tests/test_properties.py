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
