"""Window indexing, the one-sided and absolute window functionals, and limits."""

import dataclasses

import numpy as np
import pytest

import tauberkit as tk

ADD = tk.corpus_sequence("additive_convergent")
EPS = float(np.finfo(np.float64).eps)
ALT = tk.corpus_sequence("alternating")
FORWARD = tk.WindowDirection.FORWARD
BACKWARD = tk.WindowDirection.BACKWARD


# ---------------------------------------------------------------------------
# Window index helpers
# ---------------------------------------------------------------------------


def test_forward_window_upper_index_anchor():
    p = tk.ones()
    p.ensure_sum_exceeds(1.5 * p.prefix(100))
    assert tk.window_upper_index(p, 100, 1.5) == 150


def test_forward_window_requires_evaluated_prefix():
    with pytest.raises(tk.HorizonError) as exc:
        tk.window_upper_index(tk.ones(), 100, 1.5)
    assert exc.value.needed == 100
    p = tk.ones()
    p.ensure(1000)  # one chunk: P_0..P_1023
    with pytest.raises(tk.HorizonError) as exc:
        tk.window_upper_index(p, 1000, 1.5)
    assert str(exc.value) == "ones: prefix reaches 1024.0, window needs > 1501.5"


def test_forward_window_rejects_unit_scale():
    p = tk.ones()
    p.ensure(10)
    with pytest.raises(ValueError, match="lam > 1"):
        tk.window_upper_index(p, 5, 1.0)


def test_backward_window_lower_index_anchor():
    assert tk.backward_window_lower_index(tk.ones(), 10, 0.5) == 5
    assert tk.backward_window_lower_index(tk.ones(), 0, 0.5) == 0


def test_window_widens_with_the_scale():
    p = tk.harmonic()
    p.ensure_sum_exceeds(2.0 * p.prefix(50))
    narrow = tk.window_upper_index(p, 50, 1.1)
    wide = tk.window_upper_index(p, 50, 2.0)
    assert narrow <= wide


# ---------------------------------------------------------------------------
# Scalar functionals
# ---------------------------------------------------------------------------


def test_one_sided_row_functional_anchor():
    assert tk.sd_functional_P(ADD, tk.ones(), 100, 50, 1.5) == -0.01716816747352823


def test_one_sided_column_functional_anchor():
    got = tk.window_functional("sd_Q", ADD, None, tk.ones(), 100, 50, None, 1.5)
    assert got == -0.022871979222665706


def test_rectangle_functional_anchor():
    got = tk.window_functional("sd_both", ADD, tk.ones(), tk.ones(), 100, 50, 1.5, 1.5)
    assert got == -0.040040146696193935


def test_column_anchored_variants_match_on_additive_structure():
    # separable increments make the column-anchored minimum coincide with
    # the plainly anchored one
    strong_p = tk.window_functional("sd_strong_P", ADD, tk.ones(), tk.ones(), 100, 50, 1.5, 1.5)
    strong_q = tk.window_functional("sd_strong_Q", ADD, tk.ones(), tk.ones(), 100, 50, 1.5, 1.5)
    assert strong_p == tk.sd_functional_P(ADD, tk.ones(), 100, 50, 1.5)
    assert strong_q == tk.window_functional("sd_Q", ADD, None, tk.ones(), 100, 50, None, 1.5)


def test_checkerboard_row_functional_hits_the_full_swing():
    assert tk.sd_functional_P(ALT, tk.ones(), 9, 1, 1.2) == -2.0


def test_absolute_functional_dominates_the_one_sided_one():
    sd = tk.sd_functional_P(ADD, tk.ones(), 100, 50, 1.5)
    so = tk.window_functional("so_P", ADD, tk.ones(), None, 100, 50, 1.5, None)
    assert so >= abs(sd)
    assert so == 0.01716816747352823


def test_absolute_functionals_accept_complex_sequences():
    cz = tk.corpus_sequence("complex_convergent")
    assert tk.window_functional("so_P", cz, tk.ones(), None, 50, 50, 1.5, None) > 0.0
    with pytest.raises(tk.ScalarKindError, match="order-sensitive"):
        tk.sd_functional_P(cz, tk.ones(), 50, 50, 1.5)


def test_row_functional_minimum_decreases_as_the_window_grows():
    vals = [tk.sd_functional_P(ADD, tk.ones(), 100, 50, lam) for lam in (1.1, 1.5, 2.0)]
    assert vals[0] >= vals[1] >= vals[2]


def test_backward_functionals_anchor_values():
    args = (ALT, tk.ones(), tk.ones())
    assert tk.window_functional("sd_P", *args, 9, 0, 0.5, 0.5, BACKWARD) == -2.0
    assert tk.window_functional("sd_P", *args, 9, 9, 0.5, 0.5, BACKWARD) == 0.0
    assert tk.window_functional("so_both", *args, 9, 9, 0.5, 0.5, BACKWARD) == 2.0


def test_backward_functionals_vanish_on_empty_windows():
    args = (ALT, tk.ones(), tk.ones(), 0, 0, 0.5, 0.5, BACKWARD)
    assert tk.window_functional("sd_P", *args) == 0.0


def test_backward_dispatch_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown functional"):
        tk.window_functional("nope", ALT, tk.ones(), tk.ones(), 5, 5, 0.5, 0.5, BACKWARD)


def test_functional_name_registry():
    assert tk.window_functional_names() == [
        "sd_P",
        "sd_Q",
        "sd_strong_P",
        "sd_strong_Q",
        "sd_both",
        "so_P",
        "so_Q",
        "so_strong_P",
        "so_strong_Q",
        "so_both",
    ]


def test_window_functional_validates_scales_by_direction():
    args = (ADD, tk.ones(), tk.ones(), 20, 20)
    assert tk.window_functional("sd_both", *args, 1.5, 1.25) <= 0.0
    with pytest.raises(ValueError, match="lam > 1"):
        tk.window_functional("sd_both", *args, 0.9, 1.5)
    assert tk.window_functional("sd_both", *args, 0.5, 0.5, BACKWARD) <= 0.0
    with pytest.raises(ValueError, match="0 < lam < 1"):
        tk.window_functional("sd_both", *args, 1.5, 1.5, BACKWARD)


def test_window_functionals_at_one_anchor_hang_together():
    fns = {
        name: tk.window_functional(name, ADD, tk.ones(), tk.ones(), 100, 50, 1.5, 1.5)
        for name in tk.window_functional_names()
    }
    assert fns["sd_P"] == tk.sd_functional_P(ADD, tk.ones(), 100, 50, 1.5)
    assert fns["sd_both"] <= fns["sd_Q"] + fns["sd_strong_P"] + 1e-12
    for name in ("so_P", "so_Q", "so_strong_P", "so_strong_Q", "so_both"):
        assert fns[name] >= 0.0


# Values the per-name functions (sd_functional_Q, so_both_backward, ...)
# returned before window_functional replaced them, with harmonic row and unit
# column weights at the anchor (100, 50).
_PINNED_ANCHORS = {"forward": (1.5, 1.25), "backward": (0.5, 0.8)}
_PINNED = {
    ("additive_convergent", "sd_P", "forward"): "-0.07769241338823374",
    ("additive_convergent", "sd_Q", "forward"): "-0.01263569579582291",
    ("additive_convergent", "sd_strong_P", "forward"): "-0.07769241338823374",
    ("additive_convergent", "sd_strong_Q", "forward"): "-0.01263569579582291",
    ("additive_convergent", "sd_both", "forward"): "-0.09032810918405665",
    ("additive_convergent", "so_P", "forward"): "0.07769241338823374",
    ("additive_convergent", "so_Q", "forward"): "0.01263569579582291",
    ("additive_convergent", "so_strong_P", "forward"): "0.07769241338823374",
    ("additive_convergent", "so_strong_Q", "forward"): "0.01263569579582291",
    ("additive_convergent", "so_both", "forward"): "0.09032810918405665",
    ("additive_convergent", "sd_P", "backward"): "-0.23890212612566497",
    ("additive_convergent", "sd_Q", "backward"): "-0.014461517141737046",
    ("additive_convergent", "sd_strong_P", "backward"): "-0.23890212612566497",
    ("additive_convergent", "sd_strong_Q", "backward"): "-0.014461517141737046",
    ("additive_convergent", "sd_both", "backward"): "-0.253363643267402",
    ("additive_convergent", "so_P", "backward"): "0.23890212612566497",
    ("additive_convergent", "so_Q", "backward"): "0.014461517141737046",
    ("additive_convergent", "so_strong_P", "backward"): "0.23890212612566497",
    ("additive_convergent", "so_strong_Q", "backward"): "0.014461517141737046",
    ("additive_convergent", "so_both", "backward"): "0.253363643267402",
    ("complex_convergent", "so_P", "forward"): "0.012997921664538158",
    ("complex_convergent", "so_Q", "forward"): "0.012997921664538158",
    ("complex_convergent", "so_strong_P", "forward"): "0.012997921664538158",
    ("complex_convergent", "so_strong_Q", "forward"): "0.012997921664538158",
    ("complex_convergent", "so_both", "forward"): "0.012997921664538158",
    ("complex_convergent", "so_P", "backward"): "0.022945930908475527",
    ("complex_convergent", "so_Q", "backward"): "0.013267281249985668",
    ("complex_convergent", "so_strong_P", "backward"): "0.02662089652102262",
    ("complex_convergent", "so_strong_Q", "backward"): "0.03612463430528874",
    ("complex_convergent", "so_both", "backward"): "0.025881014966728438",
}


def test_window_functional_keeps_the_values_of_the_per_name_functions():
    for (seq_name, name, direction), expect in _PINNED.items():
        lam, kappa = _PINNED_ANCHORS[direction]
        got = tk.window_functional(
            name, tk.corpus_sequence(seq_name), tk.harmonic(), tk.ones(), 100, 50, lam, kappa,
            tk.WindowDirection(direction),
        )
        assert repr(got) == expect, (seq_name, name, direction)


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------


def test_field_components_match_the_scalar_functionals_bitwise():
    comp = tk.sd_field_components(ADD, tk.ones(), tk.ones(), 100, 60, 1.5, 1.5)
    assert set(comp) == {"sd_Q", "sd_strong_P", "sd_both", "margin"}
    for name in ("sd_Q", "sd_strong_P", "sd_both"):
        expect = tk.window_functional(name, ADD, tk.ones(), tk.ones(), 100, 50, 1.5, 1.5)
        assert comp[name][100, 50] == expect, name


def test_field_margin_is_the_component_surplus():
    comp = tk.sd_field_components(ADD, tk.ones(), tk.ones(), 60, 60, 1.5, 1.5)
    recon = comp["sd_Q"] + comp["sd_strong_P"] - comp["sd_both"]
    # margin is assembled from the same three arrays, so only association
    # order separates them
    assert np.abs(comp["margin"] - recon).max() <= 16 * EPS
    assert comp["margin"].min() >= 0.0


def test_decomposition_margin_sample():
    args = (ADD, tk.ones(), tk.ones(), 100, 50, 1.5, 1.5)
    both, strong_p, sd_q = (
        tk.window_functional(name, *args) for name in ("sd_both", "sd_strong_P", "sd_Q")
    )
    margin = both - strong_p - sd_q
    assert margin == pytest.approx(sd_q + strong_p - both, abs=1e-15)
    assert margin >= 0.0


# ---------------------------------------------------------------------------
# Empirical limits
# ---------------------------------------------------------------------------


def test_empirical_limit_on_slowly_converging_grid():
    est = tk.empirical_limit(tk.eval_grid(ADD, 512, 512), [64, 128, 256, 512])
    assert est.value == pytest.approx(1.3203986648584198, rel=1e-12)
    assert est.converged
    assert est.tail_start == 256
    horizons = [h for h, _ in est.residual_profile]
    residuals = [r for _, r in est.residual_profile]
    assert horizons == [64, 128, 256, 512]
    assert residuals == sorted(residuals, reverse=True)
    assert residuals[-1] < est.eps_dec


def test_empirical_limit_is_exact_off_the_exceptional_band():
    paper = tk.corpus_sequence("paper_unbounded")
    est = tk.empirical_limit(tk.eval_grid(paper, 64, 64), [8, 16, 32, 64])
    assert est.value == 2.0
    assert est.converged
    assert all(r == 0.0 for _, r in est.residual_profile)


def test_empirical_limit_rejects_divergent_oscillation():
    est = tk.empirical_limit(tk.eval_grid(ALT, 200, 200), [25, 50, 100, 200])
    assert not est.converged
    assert all(r == 2.0 for _, r in est.residual_profile)


def test_empirical_limit_needs_three_ladder_rungs():
    g = tk.eval_grid(tk.corpus_sequence("constant"), 32, 32)
    with pytest.raises(ValueError, match="at least 3 ladder rungs"):
        tk.empirical_limit(g, [16, 32])


def test_empirical_limit_ladder_must_fit_the_grid():
    g = tk.eval_grid(tk.corpus_sequence("constant"), 16, 16)
    with pytest.raises(tk.HorizonError, match="outside grid"):
        tk.empirical_limit(g, [4, 8, 16, 32])


# ---------------------------------------------------------------------------
# Scaled difference statistics
# ---------------------------------------------------------------------------


def test_lower_difference_stat_on_convergent_tail():
    got = tk.landau_stat(ADD, tk.ones(), tk.ones(), (250, 500), (250, 500))
    assert got == (-0.03266541101737852, -0.03266541101737852)


def test_lower_difference_stat_from_the_origin():
    got = tk.landau_stat(ADD, tk.ones(), tk.ones(), (1, 500), (1, 500))
    assert got[0] == -1.0649116285242526


def test_absolute_difference_stat_grows_on_checkerboard():
    assert tk.hardy_stat(ALT, tk.ones(), tk.ones(), (1, 200), (1, 200)) == (402.0, 402.0)


def _whole_range_bound(seq, p, q, m_range, n_range, signed):
    """landau_stat (signed) or hardy_stat as the one-block _difference_bound
    of commit f5b4103 computed them, before the row bands replaced it."""
    (m0, m1), (n0, n1) = m_range, n_range
    u = seq.block(np.arange(m0 - 1, m1 + 1), np.arange(n0 - 1, n1 + 1))
    if not np.isfinite(u).all():
        raise tk.NonFiniteValueError(f"{seq.name}: non-finite value inside a window")
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


# The ranges read 37 to 40 columns of u: bands of 40 cells are one row, of
# 120 cells three rows, of 492 cells twelve or thirteen.
@pytest.mark.parametrize("band_cells", [None, 40, 120, 41 * 12], ids=lambda c: f"band_cells={c}")
@pytest.mark.parametrize("weights", ["ones", "harmonic", "power"])
def test_banded_difference_bounds_keep_the_one_block_bits(monkeypatch, band_cells, weights):
    if band_cells is not None:
        monkeypatch.setattr(tk.oscillation, "_BAND_CELLS", band_cells)
    for seq_name in _SEQUENCES + ["paper_unbounded"]:
        seq = tk.corpus_sequence(seq_name)
        stats = [(tk.hardy_stat, False)]
        if seq.kind is tk.ScalarKind.REAL:
            stats.append((tk.landau_stat, True))
        for fn, signed in stats:
            for m_range, n_range in (((1, 36), (1, 36)), ((5, 40), (2, 40)), ((17, 17), (3, 41))):
                args = (seq, _WEIGHTS[weights](), tk.harmonic(), m_range, n_range)
                got = fn(*args)
                assert repr(got) == repr(_whole_range_bound(*args, signed)), (seq_name, m_range, n_range)


def _nan_at(m, n):
    u = np.zeros((30, 30))
    u[m, n] = np.nan
    return tk.array_sequence(u, f"nan_at({m}, {n})")


@pytest.mark.parametrize("band_cells", [None, 40], ids=lambda c: f"band_cells={c}")
def test_banded_difference_bound_reports_a_later_nan_before_a_weight_error(monkeypatch, band_cells):
    if band_cells is not None:
        monkeypatch.setattr(tk.oscillation, "_BAND_CELLS", band_cells)
    bad = tk.WeightSequence(lambda k: 1.0 if k < 3 else -1.0, "sign_flip(3)")
    with pytest.raises(tk.NonFiniteValueError, match="non-finite value inside a window"):
        tk.hardy_stat(_nan_at(25, 20), bad, tk.ones(), (1, 28), (1, 28))
    with pytest.raises(tk.WeightDomainError, match=r"sign_flip\(3\): weight p_3"):
        tk.hardy_stat(_nan_at(29, 29), bad, tk.ones(), (1, 28), (1, 28))


@pytest.mark.parametrize("band_cells", [None, 40], ids=lambda c: f"band_cells={c}")
def test_banded_difference_bound_reports_a_later_rule_error_before_a_nan(monkeypatch, band_cells):
    if band_cells is not None:
        monkeypatch.setattr(tk.oscillation, "_BAND_CELLS", band_cells)
    args = (_nan_at(3, 5), tk.ones(), tk.ones(), (1, 32), (1, 28))
    with pytest.raises(IndexError) as want:
        _whole_range_bound(*args, False)
    with pytest.raises(IndexError) as got:
        tk.hardy_stat(*args)
    assert str(got.value) == str(want.value) == "nan_at(3, 5): index (30, 0) outside stored shape (30, 30)"


def test_difference_stats_reject_ranges_from_zero():
    with pytest.raises(ValueError, match="start at 1"):
        tk.landau_stat(ADD, tk.ones(), tk.ones(), (0, 5), (1, 5))


# ---------------------------------------------------------------------------
# Profiles and CSV export
# ---------------------------------------------------------------------------


def test_profile_samples_walk_the_tail_cells():
    rows = tk.profile_samples(
        tk.corpus_sequence("constant"), tk.ones(), tk.ones(), "sd_P", [32, 64], [1.5]
    )
    assert len(rows) == 18
    assert all(v == 0.0 for *_, v in rows)
    lam, kap, h, m, n, _ = rows[0]
    assert (lam, kap, h) == (1.5, 1.5, 32)
    assert m >= 16 and n >= 16


def test_profile_samples_return_none_beyond_the_cell_budget():
    rows = tk.profile_samples(
        tk.corpus_sequence("constant"), tk.ones(), tk.ones(), "sd_both", [64], [2.0], budget=10
    )
    assert rows
    assert all(v is None for *_, v in rows)


def test_export_samples_csv_layout(tmp_path):
    rows = tk.profile_samples(
        tk.corpus_sequence("constant"), tk.ones(), tk.ones(), "sd_P", [32], [1.5]
    )
    out = tmp_path / "samples.csv"
    tk.export_samples_csv(rows, str(out), "sd_P")
    lines = out.read_text().splitlines()
    assert lines[0] == "functional,lambda,kappa,horizon,m,n,value"
    assert len(lines) == 1 + len(rows)
    assert lines[1].startswith("sd_P,1.5,1.5,32,")


def test_window_profile_and_csv_layout(tmp_path):
    prof = tk.build_window_profile(ADD, tk.ones(), tk.ones(), "sd_P", [64, 128], [1.5, 1.1])
    assert prof.functional == "sd_P"
    assert len(prof.rungs) == 4
    stats = {(r.lam, r.horizon): r.stat for r in prof.rungs}
    # narrower scale, deeper horizon: the one-sided minimum relaxes toward 0
    assert stats[(1.1, 128)] > stats[(1.5, 64)]
    out = tmp_path / "profiles.csv"
    tk.export_profiles_csv([prof], str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "functional,lambda,kappa,horizon,tail_stat"
    assert lines[1].startswith("sd_P,1.5,1.5,64,")


# ---------------------------------------------------------------------------
# The window engine against a per-anchor reference
# ---------------------------------------------------------------------------

# Each anchor evaluates its own window and reduces it with the plain
# formulas; a rung is unsampled from its first anchor past a budget.
_REF_FORMULAS = {
    "sd_P": lambda b: b[:, 0].min() - b[0, 0],
    "sd_Q": lambda b: b[0, :].min() - b[0, 0],
    "sd_strong_P": lambda b: (b.min(axis=0) - b[0, :]).min(),
    "sd_strong_Q": lambda b: (b.min(axis=1) - b[:, 0]).min(),
    "sd_both": lambda b: b.min() - b[0, 0],
    "so_P": lambda b: np.abs(b[:, 0] - b[0, 0]).max(),
    "so_Q": lambda b: np.abs(b[0, :] - b[0, 0]).max(),
    "so_strong_P": lambda b: np.abs(b - b[0:1, :]).max(),
    "so_strong_Q": lambda b: np.abs(b - b[:, 0:1]).max(),
    "so_both": lambda b: np.abs(b - b[0, 0]).max(),
}
_REF_SHAPES = {"sd_P": "p", "so_P": "p", "sd_Q": "q", "so_Q": "q"}


def _ref_upper(w, anchor, scale):
    w.ensure_sum_exceeds(scale * w.prefix(anchor))
    return tk.window_upper_index(w, anchor, scale)


def _ref_value(seq, p, q, name, m, n, lam, kappa, budget):
    shape = _REF_SHAPES.get(name, "pq")
    hp = m if shape == "q" else _ref_upper(p, m, lam)
    hq = n if shape == "p" else _ref_upper(q, n, kappa)
    if shape == "pq" and (hp - m + 1) * (hq - n + 1) > budget:
        raise tk.ResourceLimitError("over budget")
    b = seq.block(np.arange(m, hp + 1), np.arange(n, hq + 1))
    if not (np.isfinite(b.real) & np.isfinite(b.imag)).all():
        raise tk.NonFiniteValueError("non-finite")
    return float(_REF_FORMULAS[name](b))


def _ref_rung(seq, p, q, name, h, lam, budget, stop_at_gap):
    t0 = -(-h // 2)
    cells = sorted({t0, (t0 + h) // 2, h})
    vals = []
    for m in cells:
        for n in cells:
            try:
                vals.append(_ref_value(seq, p, q, name, m, n, lam, lam, budget))
            except (tk.HorizonError, tk.ResourceLimitError):
                vals.append(None)
                if stop_at_gap:
                    return vals
    return vals


def _ref_profile(seq, p, q, name, horizons, ladder, budget):
    worst = min if name.startswith("sd") else max
    stats = []
    for lam in ladder:
        for h in horizons:
            vals = _ref_rung(seq, p, q, name, h, lam, budget, stop_at_gap=True)
            stats.append(None if None in vals else (repr(worst(vals)), len(vals)))
    return stats


def _ref_samples(seq, p, q, name, horizons, ladder, budget):
    return [
        v
        for lam in ladder
        for h in horizons
        for v in _ref_rung(seq, p, q, name, h, lam, budget, stop_at_gap=False)
    ]


def _engine_profile(seq, p, q, name, horizons, ladder, budget):
    prof = tk.build_window_profile(seq, p, q, name, horizons, ladder, budget=budget)
    return [None if r.stat is None else (repr(r.stat), r.cells) for r in prof.rungs]


def _engine_samples(seq, p, q, name, horizons, ladder, budget):
    rows = tk.profile_samples(seq, p, q, name, horizons, ladder, budget=budget)
    return [v for *_, v in rows]


def _bits(vals):
    # repr tells 0.0 from -0.0 and pins every last bit
    return [repr(v) for v in vals]


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except tk.TauberkitError as exc:
        return type(exc).__name__


_WEIGHTS = {
    "ones": tk.ones,
    "harmonic": tk.harmonic,
    "power": lambda: tk.power(1.5),
}
# (2.0, 1.5): windows of neighbouring tail anchors overlap; (1.1, 1.05):
# they leave gaps between them.
_LADDERS = {"ones": [2.0, 1.05], "harmonic": [1.25, 1.05], "power": [1.5, 1.1]}
_SEQUENCES = ["additive_convergent", "alternating", "separable_convergent", "complex_convergent"]


@pytest.fixture(params=[None, 64], ids=["default_bands", "tiny_bands"])
def band_cells(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(tk.oscillation, "_BAND_CELLS", request.param)


@pytest.mark.parametrize("weights", sorted(_WEIGHTS))
@pytest.mark.parametrize("name", list(_REF_FORMULAS))
def test_engine_matches_the_per_anchor_reference_bitwise(band_cells, name, weights):
    horizons = [24, 40]
    ladder = _LADDERS[weights]
    for seq_name in _SEQUENCES:
        seq = tk.corpus_sequence(seq_name)
        if name.startswith("sd") and seq.kind is tk.ScalarKind.COMPLEX:
            continue
        args = (seq, _WEIGHTS[weights](), tk.ones(), name, horizons, ladder, 10**6)
        assert _engine_profile(*args) == _ref_profile(*args), seq_name
        assert _bits(_engine_samples(*args)) == _bits(_ref_samples(*args)), seq_name


# The backward forms read from the window's last cell, the anchor.
_REF_BACKWARD = {
    "sd_P": lambda b: b[-1, -1] - b[:, -1].max(),
    "sd_Q": lambda b: b[-1, -1] - b[-1, :].max(),
    "sd_strong_P": lambda b: (b[-1, :] - b.max(axis=0)).min(),
    "sd_strong_Q": lambda b: (b[:, -1] - b.max(axis=1)).min(),
    "sd_both": lambda b: b[-1, -1] - b.max(),
    "so_P": lambda b: np.abs(b[-1, -1] - b[:, -1]).max(),
    "so_Q": lambda b: np.abs(b[-1, -1] - b[-1, :]).max(),
    "so_strong_P": lambda b: np.abs(b[-1:, :] - b).max(),
    "so_strong_Q": lambda b: np.abs(b[:, -1:] - b).max(),
    "so_both": lambda b: np.abs(b - b[-1, -1]).max(),
}


@pytest.mark.parametrize("direction", list(tk.WindowDirection))
@pytest.mark.parametrize("name", list(_REF_BACKWARD))
def test_window_functional_matches_the_per_anchor_reference_bitwise(band_cells, name, direction):
    shape = _REF_SHAPES.get(name, "pq")
    forward = direction is FORWARD
    scales = ((1.5, 1.5), (1.1, 2.0)) if forward else ((0.5, 0.5), (0.9, 0.3))
    for seq_name in _SEQUENCES:
        seq = tk.corpus_sequence(seq_name)
        if name.startswith("sd") and seq.kind is tk.ScalarKind.COMPLEX:
            continue
        for m, n in ((40, 25), (7, 60), (0, 0), (90, 90)):
            for lam, kappa in scales:
                p, q = tk.harmonic(), tk.ones()
                if forward:
                    expect = _ref_value(seq, p, q, name, m, n, lam, kappa, 10**6)
                else:
                    lo_p = m if shape == "q" else tk.backward_window_lower_index(p, m, lam)
                    lo_q = n if shape == "p" else tk.backward_window_lower_index(q, n, kappa)
                    block = seq.block(np.arange(lo_p, m + 1), np.arange(lo_q, n + 1))
                    expect = float(_REF_BACKWARD[name](block))
                got = tk.window_functional(name, seq, p, q, m, n, lam, kappa, direction)
                assert repr(got) == repr(expect), (seq_name, m, n, lam, kappa)


@pytest.mark.parametrize("direction", list(tk.WindowDirection))
def test_window_functional_checks_the_budget_before_reading_cells(direction):
    # the anchor's own cell is infinite, but the rectangle is over budget
    seq = _poisoned((100, 50))
    lam = 1.5 if direction is FORWARD else 0.5
    args = (seq, tk.ones(), tk.ones(), 100, 50, lam, lam, direction)
    with pytest.raises(tk.ResourceLimitError):
        tk.window_functional("so_both", *args, budget=100)
    with pytest.raises(tk.NonFiniteValueError):
        tk.window_functional("so_both", *args)


@pytest.mark.parametrize("name", ["sd_strong_Q", "so_both", "so_Q"])
def test_engine_keeps_the_per_anchor_budget_and_horizon_rules(band_cells, name):
    # a max_index that the widest anchors' windows run past, and (line
    # functionals have none) a cell budget that admits the anchor (48, 32)
    # but not (32, 64) before it
    cases = [(lambda: tk.WeightSequence(lambda k: 1.0, name="short", max_index=90), 10**6)]
    if name != "so_Q":
        cases.append((tk.ones, 500))
    for make, budget in cases:
        for seq_name in ("additive_convergent", "complex_convergent"):
            seq = tk.corpus_sequence(seq_name)
            if name.startswith("sd") and seq.kind is tk.ScalarKind.COMPLEX:
                continue
            args = (seq, make(), make(), name, [32, 64], [1.5], budget)
            ref = _ref_profile(*args)
            assert _engine_profile(*args) == ref
            assert None in ref and any(r is not None for r in ref)
            samples = _ref_samples(*args)
            assert _bits(_engine_samples(*args)) == _bits(samples)
            # a failed anchor does not hide the anchors after it
            first_gap = samples.index(None)
            assert any(v is not None for v in samples[first_gap:])


def _poisoned(cell):
    """additive_convergent with one infinite cell."""
    base = tk.corpus_sequence("additive_convergent")
    bm, bn = cell

    def rule(M, N):
        return np.where((M == bm) & (N == bn), np.inf, base.rule(M, N))

    return tk.DoubleSequence(name="poisoned", rule=rule)


@pytest.mark.parametrize("cell", [(16, 16), (24, 40), (40, 24), (70, 70), (90, 50)])
@pytest.mark.parametrize("name", ["sd_strong_P", "so_strong_Q", "sd_Q"])
def test_non_finite_cells_raise_exactly_where_per_anchor_evaluation_does(band_cells, name, cell):
    seq = _poisoned(cell)
    # budget 600 stops a rung part-way through its anchors
    for budget in (10**6, 600):
        args = (seq, tk.ones(), tk.ones(), name, [32, 48], [1.5], budget)
        assert _outcome(_engine_profile, *args) == _outcome(_ref_profile, *args)
        assert _outcome(_engine_samples, *args) == _outcome(_ref_samples, *args)


@pytest.mark.parametrize("cell", [(16, 16), (30, 60), (60, 30)])
def test_a_weight_error_is_raised_after_earlier_anchors_are_checked(cell):
    # rows' weights break at index 60, which only the window of m = 48 needs;
    # (60, 30) lies in that window alone
    def make():
        return tk.WeightSequence(lambda k: 1.0 if k < 60 else -1.0, name="breaks")

    seq = _poisoned(cell)
    args = (seq, make(), tk.ones(), "sd_strong_P", [32, 48], [1.5], 10**6)
    expect = _outcome(_ref_profile, *(args[:1] + (make(),) + args[2:]))
    assert expect == ("WeightDomainError" if cell == (60, 30) else "NonFiniteValueError")
    assert _outcome(_engine_profile, *args) == expect
    args = (seq, make(), tk.ones(), "sd_strong_P", [32, 48], [1.5], 10**6)
    assert _outcome(_engine_samples, *args) == expect


# ---------------------------------------------------------------------------
# One pass per horizon for a whole set of functionals
# ---------------------------------------------------------------------------

_THEOREM_SETS = {
    "T41": ["sd_P", "sd_Q", "sd_strong_P", "sd_strong_Q"],
    "T51": ["so_P", "so_Q", "so_strong_P", "so_strong_Q"],
}


def _engine_profiles(seq, p, q, names, horizons, ladder, budget):
    profs = tk.build_window_profiles(seq, p, q, names, horizons, ladder, budget=budget)
    assert list(profs) == names
    return [
        [None if r.stat is None else (repr(r.stat), r.cells) for r in prof.rungs]
        for prof in profs.values()
    ]


def _ref_profiles(seq, p, q, names, horizons, ladder, budget):
    # one profile after another, as a caller of build_window_profile would
    return [_ref_profile(seq, p, q, name, horizons, ladder, budget) for name in names]


# 500 cells admit the anchor (20, 20) of a lam = 2 rung at horizon 40 but
# not (20, 30) after it, so such rungs stop part-way.
@pytest.mark.parametrize("budget", [10**6, 500])
@pytest.mark.parametrize("theorem", sorted(_THEOREM_SETS))
def test_shared_pass_matches_the_per_anchor_reference_bitwise(band_cells, theorem, budget):
    names = _THEOREM_SETS[theorem]
    stats = []
    for seq_name in _SEQUENCES:
        seq = tk.corpus_sequence(seq_name)
        if theorem == "T41" and seq.kind is tk.ScalarKind.COMPLEX:
            continue
        for weights in sorted(_WEIGHTS):
            args = (names, [24, 40], _LADDERS[weights], budget)
            got = _engine_profiles(seq, _WEIGHTS[weights](), tk.ones(), *args)
            assert got == _ref_profiles(seq, _WEIGHTS[weights](), tk.ones(), *args), seq_name
            stats += [r for prof in got for r in prof]
    assert any(r is not None for r in stats)
    assert (None in stats) == (budget == 500)


def test_shared_pass_reads_no_cell_that_no_rung_reads():
    # At horizon 32 the tail anchors are 16, 24 and 32.  Row 60 lies only in
    # lam = 2 row windows and column 60 only in kappa = 2 column windows,
    # and no rung pairs the two; (60, 17) lies in the (2.0, 1.1) rung's.
    args = (tk.ones(), tk.ones(), _THEOREM_SETS["T41"], [32], [1.1, 2.0], [2.0, 1.1])
    profs = tk.build_window_profiles(_poisoned((60, 60)), *args)
    clean = tk.build_window_profiles(ADD, *args)
    assert profs == clean
    assert all(r.stat is not None for prof in profs.values() for r in prof.rungs)
    with pytest.raises(tk.NonFiniteValueError):
        tk.build_window_profiles(_poisoned((60, 17)), *args)


@pytest.mark.parametrize("cell", [(16, 16), (30, 60), (60, 30), (40, 40)])
@pytest.mark.parametrize("breaks", [False, True])
def test_errors_of_a_later_functional_are_raised_where_per_profile_evaluation_does(
    band_cells, cell, breaks
):
    # sd_Q reads rows 16..48 at the anchors' own rows only.  (40, 40) and
    # (30, 60) lie in windows of sd_strong_P alone; with breaking row weights
    # the anchor m = 48 of its second rung raises, and (60, 30) lies in that
    # anchor's window alone.
    def make():
        if breaks:
            return tk.WeightSequence(lambda k: 1.0 if k < 60 else -1.0, name="breaks")
        return tk.ones()

    names = ["sd_Q", "sd_strong_P"]
    args = (names, [32, 48], [1.5], 10**6)
    seq = _poisoned(cell)
    expect = _outcome(_ref_profiles, seq, make(), tk.ones(), *args)
    if breaks and cell == (60, 30):
        assert expect == "WeightDomainError"
    else:
        assert expect == "NonFiniteValueError"
    assert _outcome(_engine_profiles, seq, make(), tk.ones(), *args) == expect


def test_verify_theorem_reads_each_window_cell_of_a_horizon_once(monkeypatch):
    cells, inside = [0], [False]
    block, values = tk.DoubleSequence.block, tk.oscillation._window_values

    def counted_block(self, i, j):
        out = block(self, i, j)
        cells[0] += out.size if inside[0] else 0
        return out

    def flagged_values(*args):
        inside[0] = True
        try:
            return values(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(tk.DoubleSequence, "block", counted_block)
    monkeypatch.setattr(tk.oscillation, "_window_values", flagged_values)
    tk.verify_theorem(ALT, tk.ones(), tk.ones(), tk.Theorem.T41, tk.HarnessConfig(horizon=256))
    # one read of each horizon's union, against 664,028 when every rung
    # read its own union
    assert cells[0] == 198_736


def test_unsampled_rungs_say_why():
    short = tk.WeightSequence(lambda k: 1.0, name="short", max_index=90)
    prof = tk.build_window_profile(ADD, short, short, "so_both", [32, 64], [1.5])
    with pytest.raises(tk.HorizonError) as exc:
        tk.window_functional("so_both", ADD, short, short, 64, 32, 1.5, 1.5)
    assert [r.reason for r in prof.rungs] == [None, ("horizon", exc.value.needed)]

    prof = tk.build_window_profile(ADD, tk.ones(), tk.ones(), "so_both", [32, 64], [1.5],
                                   budget=500)
    with pytest.raises(tk.ResourceLimitError) as exc:
        tk.window_functional("so_both", ADD, tk.ones(), tk.ones(), 32, 64, 1.5, 1.5, budget=500)
    assert [r.reason for r in prof.rungs] == [None, ("budget", exc.value.cells)]
    # the reason is a note on the rung, not part of its value
    gap = prof.rungs[1]
    assert gap.stat is None and gap == dataclasses.replace(gap, reason=None)
