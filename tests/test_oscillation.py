"""Window indexing, the one-sided and absolute window functionals, and limits."""

import dataclasses
import math

import numpy as np
import pytest

import tauberkit as tk
from helpers import traced_peak
from tauberkit import harness, oscillation
from tauberkit.cli import expression_sequence

ADD = tk.corpus_sequence("additive_convergent")
EPS = float(np.finfo(np.float64).eps)
ALT = tk.corpus_sequence("alternating")


# ---------------------------------------------------------------------------
# Window index helpers
# ---------------------------------------------------------------------------


def test_forward_window_upper_index_anchor():
    p = tk.ones()
    assert p.first_above(1.5 * p.prefix(100)) == 151
    assert tk.window_edge(p, 100, 1.5) == 150


def test_forward_window_grows_the_prefix_past_its_edge():
    p = tk.ones()
    assert tk.window_edge(p, 100, 1.5) == 150
    assert p.evaluated_count > 150
    p = tk.ones()
    p.ensure(1000)  # one chunk: P_0..P_1023
    assert tk.window_edge(p, 1000, 1.5) == 1500
    # max_index comes first: needed is the anchor, then the window's threshold
    with pytest.raises(tk.HorizonError) as exc:
        tk.window_edge(tk.WeightSequence(lambda k: 1.0, "short", max_index=90), 100, 1.5)
    assert exc.value.needed == 100
    with pytest.raises(tk.HorizonError) as exc:
        tk.window_edge(tk.WeightSequence(lambda k: 1.0, "short", max_index=90), 80, 1.5)
    assert exc.value.needed == 1.5 * 81.0


def test_forward_window_upper_index_takes_an_array_of_anchors():
    for make, lam in ((tk.ones, 1.5), (tk.harmonic, 1.1), (lambda: tk.power(1.5), 2.0),
                      (tk.ones, 0.5), (tk.harmonic, 0.9), (lambda: tk.power(1.5), 0.5)):
        anchors = np.arange(0, 300, 7)
        got = tk.window_edge(make(), anchors, lam)
        p = make()
        expect = [tk.window_edge(p, int(m), lam) for m in anchors]
        assert got.dtype == np.int64 and got.tolist() == expect


def test_forward_window_rejects_unit_scale():
    p = tk.ones()
    p.ensure(10)
    with pytest.raises(ValueError, match="lam > 1"):
        tk.window_edge(p, 5, 1.0)
    # profiles sample forward windows only
    for ladder in ([1.0], [0.5]):
        with pytest.raises(ValueError, match="lam > 1"):
            tk.build_window_profiles(ADD, p, p, ["sd_P"], [64], ladder)
    # the whole-grid fields read both scales as upper edges
    for lam, kappa in ((0.99, 1.5), (1.5, 0.99), (0.5, 0.5), (1.0, 1.5)):
        with pytest.raises(ValueError, match="lam > 1"):
            tk.sd_field_components(ADD, tk.ones(), tk.ones(), 39, 39, lam, kappa)


def test_backward_window_lower_index_anchor():
    assert tk.window_edge(tk.ones(), 10, 0.5) == 5
    assert tk.window_edge(tk.ones(), 0, 0.5) == 0


def test_window_widens_with_the_scale():
    p = tk.harmonic()
    p.first_above(2.0 * p.prefix(50))
    narrow = tk.window_edge(p, 50, 1.1)
    wide = tk.window_edge(p, 50, 2.0)
    assert narrow <= wide


# ---------------------------------------------------------------------------
# Scalar functionals
# ---------------------------------------------------------------------------


def test_one_sided_row_functional_anchor():
    got = tk.window_functional("sd_P", ADD, tk.ones(), None, 100, 50, 1.5, None)
    assert got == -0.01716816747352823


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
    assert strong_p == tk.window_functional("sd_P", ADD, tk.ones(), None, 100, 50, 1.5, None)
    assert strong_q == tk.window_functional("sd_Q", ADD, None, tk.ones(), 100, 50, None, 1.5)


def test_checkerboard_row_functional_hits_the_full_swing():
    assert tk.window_functional("sd_P", ALT, tk.ones(), None, 9, 1, 1.2, None) == -2.0


def test_absolute_functional_dominates_the_one_sided_one():
    sd = tk.window_functional("sd_P", ADD, tk.ones(), None, 100, 50, 1.5, None)
    so = tk.window_functional("so_P", ADD, tk.ones(), None, 100, 50, 1.5, None)
    assert so >= abs(sd)
    assert so == 0.01716816747352823


def test_absolute_functionals_accept_complex_sequences():
    cz = tk.corpus_sequence("complex_convergent")
    assert tk.window_functional("so_P", cz, tk.ones(), None, 50, 50, 1.5, None) > 0.0
    with pytest.raises(tk.ScalarKindError, match="order-sensitive"):
        tk.window_functional("sd_P", cz, tk.ones(), None, 50, 50, 1.5, None)


def test_row_functional_minimum_decreases_as_the_window_grows():
    vals = [
        tk.window_functional("sd_P", ADD, tk.ones(), None, 100, 50, lam, None)
        for lam in (1.1, 1.5, 2.0)
    ]
    assert vals[0] >= vals[1] >= vals[2]


def test_backward_functionals_anchor_values():
    args = (ALT, tk.ones(), tk.ones())
    assert tk.window_functional("sd_P", *args, 9, 0, 0.5, 0.5) == -2.0
    assert tk.window_functional("sd_P", *args, 9, 9, 0.5, 0.5) == 0.0
    assert tk.window_functional("so_both", *args, 9, 9, 0.5, 0.5) == 2.0


def test_backward_functionals_vanish_on_empty_windows():
    args = (ALT, tk.ones(), tk.ones(), 0, 0, 0.5, 0.5)
    assert tk.window_functional("sd_P", *args) == 0.0


def test_backward_dispatch_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown functional"):
        tk.window_functional("nope", ALT, tk.ones(), tk.ones(), 5, 5, 0.5, 0.5)


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
    assert tk.window_functional("sd_both", *args, 0.5, 0.5) <= 0.0
    for lam, kappa in ((0.9, 1.5), (1.5, 0.5)):
        with pytest.raises(ValueError, match="opposite sides of 1"):
            tk.window_functional("sd_both", *args, lam, kappa)
    for lam in (1.0, 0.0, -0.5):
        with pytest.raises(ValueError, match="lam > 1"):
            tk.window_functional("sd_both", *args, lam, lam)
    # a line functional reads its own axis's scale only
    assert tk.window_functional("sd_P", *args, 0.5, 1.5) == tk.window_functional(
        "sd_P", ADD, tk.ones(), None, 20, 20, 0.5, None
    )


@pytest.mark.parametrize("missing", ["p", "lam", "q", "kappa"])
def test_window_functional_names_a_missing_weight_or_scale(missing):
    p = tk.ones()
    args = {"p": p, "q": p, "lam": 1.5, "kappa": 1.5, missing: None}
    name = "sd_P" if missing in ("p", "lam") else "sd_Q"
    for fn in (name, "sd_both"):
        with pytest.raises(ValueError, match=f"needs {missing}, got None"):
            tk.window_functional(fn, ADD, args["p"], args["q"], 10, 10, args["lam"], args["kappa"])
    assert p.evaluated_count == 0  # refused before any prefix grows


def test_window_functionals_at_one_anchor_hang_together():
    fns = {
        name: tk.window_functional(name, ADD, tk.ones(), tk.ones(), 100, 50, 1.5, 1.5)
        for name in tk.window_functional_names()
    }
    assert fns["sd_P"] == tk.window_functional("sd_P", ADD, tk.ones(), None, 100, 50, 1.5, None)
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
            name, tk.corpus_sequence(seq_name), tk.harmonic(), tk.ones(), 100, 50, lam, kappa
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


# additive_convergent is separable, so its margin is 0 up to rounding;
# alternating's is 2 wherever the windows see both signs.
@pytest.mark.parametrize("name", ["additive_convergent", "alternating"])
def test_field_margin_is_the_component_surplus(name):
    comp = tk.sd_field_components(tk.corpus_sequence(name), tk.ones(), tk.ones(), 60, 60, 1.5, 1.5)
    parts = [comp["sd_both"], comp["sd_strong_P"], comp["sd_Q"]]
    assert np.array_equal(comp["margin"], parts[0] - parts[1] - parts[2])
    # bounded as test_criterion_08 bounds it: rounding takes the margin of
    # sin(m)*cos(n)/(m+1) here to -5.6e-18
    scale = np.maximum.reduce([np.ones_like(comp["margin"]), *map(np.abs, parts)])
    assert (comp["margin"] >= -EPS * scale).all()


def _signed_zeros():
    """A block of -1, 0.5 and 1 with about 30 % +0.0 and 30 % -0.0 cells."""
    rng = np.random.default_rng(21)
    u = rng.choice([-1.0, 0.5, 1.0], size=(80, 80))
    zeros = rng.random(u.shape)
    u[zeros < 0.6] = 0.0
    u[zeros < 0.3] = -0.0
    return tk.array_sequence(u, "signed_zeros")


# Plain per-window formulas.  The fields read -0.0 as 0.0, since a min over
# zeros of both signs keeps whichever its reduction order meets last, so
# the reference windows do too.
_FIELD_REFS = {
    "sd_Q": lambda b: b[0].min() - b[0, 0],
    "sd_strong_P": lambda b: (b.min(axis=0) - b[0]).min(),
    "sd_both": lambda b: b.min() - b[0, 0],
}


@pytest.mark.parametrize("weights", ["ones", "power"])
@pytest.mark.parametrize("seq", [ADD, ALT, _signed_zeros()], ids=lambda s: s.name)
def test_field_components_match_a_per_cell_minimum_bytewise(seq, weights):
    lam, kappa = 1.5, 1.25
    comp = tk.sd_field_components(seq, _WEIGHTS[weights](), tk.ones(), 39, 39, lam, kappa)
    p, q = _WEIGHTS[weights](), tk.ones()
    rows = [tk.window_edge(p, m, lam) for m in range(40)]
    cols = [tk.window_edge(q, n, kappa) for n in range(40)]
    for name, ref in _FIELD_REFS.items():
        expect = np.array([
            [ref(seq.block(np.arange(m, rows[m] + 1), np.arange(n, cols[n] + 1)) + 0.0) for n in range(40)]
            for m in range(40)
        ])
        assert comp[name].tobytes() == expect.tobytes(), name


@pytest.mark.parametrize("name, expect", [("additive_convergent", 0.0), ("alternating", 2.0)])
def test_decomposition_margin_sample(name, expect):
    args = (tk.corpus_sequence(name), tk.ones(), tk.ones(), 100, 50, 1.5, 1.5)
    both, strong_p, sd_q = (
        tk.window_functional(fn, *args) for fn in ("sd_both", "sd_strong_P", "sd_Q")
    )
    margin = tk.sd_field_components(*args[:3], 100, 60, 1.5, 1.5)["margin"][100, 50]
    assert margin == both - strong_p - sd_q == expect


# ---------------------------------------------------------------------------
# Empirical limits
# ---------------------------------------------------------------------------


def test_complex_limit_residuals_keep_one_reduction_bits_in_row_chunks():
    # |x - estimate| a few rows at a time: the whole top square of this grid
    # took a 6.3 MiB temporary; the chunks cut each square's rows unevenly
    grid = tk.eval_grid(tk.corpus_sequence("complex_convergent"), 1024, 1024)
    ladder = [100, 256, 700, 1024]
    peak = traced_peak(lambda: tk.empirical_limit(grid, ladder, 0.3))
    est = tk.empirical_limit(grid, ladder, 0.3)
    lhat = grid.values[1024, 1024]
    want = [float(np.abs(grid.values[t : h + 1, t : h + 1] - lhat).max()) for t, h in
            ((30, 100), (77, 256), (210, 700), (308, 1024))]
    assert repr(est.residual_profile) == repr(tuple(zip(ladder, want)))
    assert peak <= 2**20


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
    of commit f5b4103 computed them, before the row bands replaced it, with
    a zero minimum read as +0.0."""
    (m0, m1), (n0, n1) = m_range, n_range
    u = seq.block(np.arange(m0 - 1, m1 + 1), np.arange(n0 - 1, n1 + 1))
    if not np.isfinite(u).all():
        raise tk.NonFiniteValueError(f"{seq.name}: non-finite value inside a window")
    d10 = u[1:, 1:] - u[:-1, 1:]
    d01 = u[1:, 1:] - u[1:, :-1]
    cp = p.prefix_array(m1)[m0:] / p.weights_array(m1)[m0:]
    cq = q.prefix_array(n1)[n0:] / q.weights_array(n1)[n0:]
    if signed:
        return float((cp[:, None] * d10).min() + 0.0), float((cq[None, :] * d01).min() + 0.0)
    return (
        float((cp[:, None] * np.abs(d10)).max()),
        float((cq[None, :] * np.abs(d01)).max()),
    )


@pytest.mark.parametrize("weights", ["ones", "harmonic", "power"])
def test_banded_difference_bounds_keep_the_one_block_bits(weights):
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


def test_banded_difference_bound_reports_a_later_nan_before_a_weight_error():
    bad = tk.WeightSequence(lambda k: 1.0 if k < 3 else -1.0, "sign_flip(3)")
    with pytest.raises(tk.NonFiniteValueError, match="non-finite value inside a window"):
        tk.hardy_stat(_nan_at(25, 20), bad, tk.ones(), (1, 28), (1, 28))
    with pytest.raises(tk.WeightDomainError, match=r"sign_flip\(3\): weight p_3"):
        tk.hardy_stat(_nan_at(29, 29), bad, tk.ones(), (1, 28), (1, 28))


def test_banded_difference_bound_reports_a_later_rule_error_before_a_nan():
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


def test_profile_samples_return_none_beyond_the_cell_budget(monkeypatch):
    monkeypatch.setattr(tk.oscillation, "MAX_WINDOW_CELLS", 10)
    rows = tk.profile_samples(
        tk.corpus_sequence("constant"), tk.ones(), tk.ones(), "sd_both", [64], [2.0]
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
    # a scale passed as an int is written as the float it stands for
    tk.export_samples_csv([(10**17, 2, 32, 16, 16, None)], str(out), "sd_P")
    assert out.read_text().splitlines()[1] == "sd_P,1e+17,2,32,16,16,"
    # a line functional's other scale is missing, and written as an empty field
    for functional, lam, kappa, line in [
        ("sd_Q", None, 1.5, b"sd_Q,,1.5,64,32,32,-0.027956273416001931\n"),
        ("sd_P", 1.5, None, b"sd_P,1.5,,64,32,32,-0.027956273416001931\n"),
    ]:
        rows = tk.profile_samples(ADD, tk.ones(), tk.ones(), functional, [64], [lam], [kappa])
        tk.export_samples_csv(rows[:1], str(out), functional)
        assert out.read_bytes() == b"functional,lambda,kappa,horizon,m,n,value\n" + line


@pytest.mark.parametrize("tail_fraction", [math.nan, math.inf, 0.0, 1.0, 1.5, -0.5])
def test_profile_builders_refuse_tail_fractions_outside_the_unit_interval(tail_fraction):
    # empirical_limit's rule, checked before any window is resolved: NaN and
    # inf raised from math.ceil, -0.5 a negative anchor, and 1.5 sampled
    # anchors past the horizon
    message = f"tail fraction must lie in (0, 1), got {tail_fraction}"
    for build, functionals in [(tk.build_window_profiles, ["sd_P"]), (tk.profile_samples, "sd_P")]:
        with pytest.raises(ValueError) as exc:
            build(ADD, tk.ones(), tk.ones(), functionals, [64], [1.5], tail_fraction=tail_fraction)
        assert str(exc.value) == message


def test_window_profile_and_csv_layout(tmp_path):
    profs = tk.build_window_profiles(ADD, tk.ones(), tk.ones(), ["sd_P"], [64, 128], [1.5, 1.1])
    prof = profs["sd_P"]
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
    rung = oscillation.ProfileRung(lam=10**17, kappa=2, horizon=64, stat=None, cells=0)
    tk.export_profiles_csv([tk.DecisionProfile("sd_P", oscillation.TrendSense.INF, (rung,))], str(out))
    assert out.read_text().splitlines()[1] == "sd_P,1e+17,2,64,"


def test_profile_rungs_pick_signed_zeros_as_the_builtins_do():
    # u holds +0.0 and -0.0, so a rung's nine anchor values can hold zeros
    # of both signs; builtin min and max keep the first of them, where
    # numpy's reductions pick by their layout and flipped the sign of 35
    # of these rungs
    seq = expression_sequence("-(0*m)+0*sin(n)")
    names = [n for n in tk.window_functional_names() if not n.endswith("_both")]
    p, q, ladder = tk.ones(), tk.ones(), harness.horizon_ladder(64)
    lams = list(tk.HarnessConfig().lambda_ladder)
    profiles = tk.build_window_profiles(seq, p, q, names, ladder, lams)
    rungs = oscillation._rung_values(seq, p, q, names, ladder, lams, None, 0.5, stop_at_gap=True)
    got = [r.stat for name in names for r in profiles[name].rungs]
    want = [(min if name.startswith("sd") else max)(slots) for name, *_, slots in rungs]
    assert len(got) == 160 and repr(got) == repr(want)
    assert "-0.0" in map(repr, got) and "0.0" in map(repr, got)


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
    w.first_above(scale * w.prefix(anchor))
    return tk.window_edge(w, anchor, scale)


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tk.oscillation, "MAX_WINDOW_CELLS", budget)
        prof = tk.build_window_profiles(seq, p, q, [name], horizons, ladder)[name]
    return [None if r.stat is None else (repr(r.stat), r.cells) for r in prof.rungs]


def _engine_samples(seq, p, q, name, horizons, ladder, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tk.oscillation, "MAX_WINDOW_CELLS", budget)
        rows = tk.profile_samples(seq, p, q, name, horizons, ladder)
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
        monkeypatch.setattr(tk.sequences, "_BAND_BYTES", request.param * 8)


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


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("name", list(_REF_BACKWARD))
def test_window_functional_matches_the_per_anchor_reference_bitwise(band_cells, name, direction):
    shape = _REF_SHAPES.get(name, "pq")
    forward = direction == "forward"
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
                    lo_p = m if shape == "q" else tk.window_edge(p, m, lam)
                    lo_q = n if shape == "p" else tk.window_edge(q, n, kappa)
                    block = seq.block(np.arange(lo_p, m + 1), np.arange(lo_q, n + 1))
                    expect = float(_REF_BACKWARD[name](block))
                got = tk.window_functional(name, seq, p, q, m, n, lam, kappa)
                assert repr(got) == repr(expect), (seq_name, m, n, lam, kappa)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_window_functional_checks_the_budget_before_reading_cells(monkeypatch, direction):
    # the anchor's own cell is infinite, but the rectangle is over budget
    seq = _poisoned((100, 50))
    lam = 1.5 if direction == "forward" else 0.5
    args = (seq, tk.ones(), tk.ones(), 100, 50, lam, lam)
    with monkeypatch.context() as mp:
        mp.setattr(tk.oscillation, "MAX_WINDOW_CELLS", 100)
        with pytest.raises(tk.ResourceLimitError):
            tk.window_functional("so_both", *args)
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tk.oscillation, "MAX_WINDOW_CELLS", budget)
        profs = tk.build_window_profiles(seq, p, q, names, horizons, ladder)
    assert list(profs) == names
    return [
        [None if r.stat is None else (repr(r.stat), r.cells) for r in prof.rungs]
        for prof in profs.values()
    ]


def _ref_profiles(seq, p, q, names, horizons, ladder, budget):
    # one profile after another, as one build_window_profiles call per name would
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


def test_no_engine_read_exceeds_a_band(monkeypatch):
    # With harmonic weights the sd_Q windows of horizon 512 end near column
    # 512**2, so one union row is wider than a band: it is read in chunks.
    sizes, widest, inside = [], [0], [False]
    block, values = tk.DoubleSequence.block, tk.oscillation._window_values

    def counted_block(self, i, j):
        out = block(self, i, j)
        if inside[0]:
            sizes.append(out.size)
        return out

    def flagged_values(seq, wins):
        inside[0], widest[0] = True, max(widest[0], *(w.cols[1] for w in wins))
        try:
            return values(seq, wins)
        finally:
            inside[0] = False

    args = (ADD, tk.harmonic(), tk.harmonic(), _THEOREM_SETS["T41"], [64, 128, 256, 512], [2.0, 1.25])
    monkeypatch.setattr(tk.DoubleSequence, "block", counted_block)
    monkeypatch.setattr(tk.oscillation, "_window_values", flagged_values)
    profiles = tk.build_window_profiles(*args)
    assert widest[0] > tk.sequences._BAND_BYTES // 8 >= max(sizes)
    # chunks keep the values of one-band reads
    monkeypatch.setattr(tk.sequences, "_BAND_BYTES", (1 << 22) * 8)
    assert tk.build_window_profiles(*args) == profiles


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


def test_unsampled_rungs_say_why(monkeypatch):
    short = tk.WeightSequence(lambda k: 1.0, name="short", max_index=90)
    prof = tk.build_window_profiles(ADD, short, short, ["so_both"], [32, 64], [1.5])["so_both"]
    with pytest.raises(tk.HorizonError) as exc:
        tk.window_functional("so_both", ADD, short, short, 64, 32, 1.5, 1.5)
    assert [r.reason for r in prof.rungs] == [None, ("horizon", exc.value.needed)]

    monkeypatch.setattr(tk.oscillation, "MAX_WINDOW_CELLS", 500)
    prof = tk.build_window_profiles(ADD, tk.ones(), tk.ones(), ["so_both"], [32, 64], [1.5])["so_both"]
    with pytest.raises(tk.ResourceLimitError) as exc:
        tk.window_functional("so_both", ADD, tk.ones(), tk.ones(), 32, 64, 1.5, 1.5)
    assert [r.reason for r in prof.rungs] == [None, ("budget", exc.value.cells)]
    # the reason is a note on the rung, not part of its value
    gap = prof.rungs[1]
    assert gap.stat is None and gap == dataclasses.replace(gap, reason=None)


@pytest.mark.parametrize("shape", [(1,), (7,), (40, 2), (300,)])
def test_unique_matches_numpy_unique(shape):
    a = np.random.default_rng(len(shape) + shape[0]).integers(-5, 9, size=shape)
    values, inverse = oscillation._unique(a)
    want, want_inverse = np.unique(a.ravel(), return_inverse=True)
    assert values.tolist() == want.tolist()
    assert inverse.tolist() == want_inverse.tolist()
