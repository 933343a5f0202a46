"""Weighted mean fields against direct summation, plus overflow reporting."""

import math
import tracemalloc

import numpy as np
import pytest

import tauberkit as tk
from helpers import direct_sigma, direct_sigma_grid
from tauberkit.transform import _SUM_CHUNK, _exact_sum

EPS = float(np.finfo(np.float64).eps)


@pytest.mark.parametrize("wname", ["geometric", "harmonic", "ones", "power", "wobble"])
def test_mean_field_matches_direct_summation(wname):
    rng = np.random.default_rng(hash(wname) % 2**32)
    u = rng.uniform(-1.0, 1.0, (12, 12))
    seq = tk.array_sequence(u)
    p = tk.corpus_weight(wname) if wname != "geometric" else tk.corpus_weight(wname, r=1.5)
    q = tk.corpus_weight("harmonic")
    fld = tk.weighted_mean_field(seq, p, q, 11, 11)
    expect = direct_sigma_grid(u, p.weights_array(11), q.weights_array(11))
    assert np.max(np.abs(fld.sigma.values - expect) / np.maximum(1.0, np.abs(expect))) <= 1e-12


def test_single_cell_mean_agrees_with_field():
    seq = tk.corpus_sequence("additive_convergent")
    p, q = tk.ones(), tk.harmonic()
    fld = tk.weighted_mean_field(seq, p, q, 40, 40)
    for m, n in ((0, 0), (3, 17), (40, 40)):
        single = tk.sigma_single(seq, p, q, m, n)
        assert single == pytest.approx(fld.sigma.values[m, n], rel=1e-12)


def test_single_cell_mean_on_unbounded_example():
    paper = tk.corpus_sequence("paper_unbounded")
    assert tk.sigma_single(paper, tk.ones(), tk.ones(), 1, 1) == 3.0


def test_numerator_equals_sigma_times_prefixes():
    # sigma is stored already divided; the undone product must match the
    # accumulated numerator to a couple of ulps
    rng = np.random.default_rng(7)
    u = rng.uniform(-1.0, 1.0, (25, 25))
    fld = tk.weighted_mean_field(tk.array_sequence(u), tk.harmonic(), tk.power(1.0), 24, 24)
    recon = fld.sigma.values * np.outer(fld.p_prefix, fld.q_prefix)
    scale = np.maximum(1.0, np.abs(fld.numerator.values))
    assert np.max(np.abs(recon - fld.numerator.values) / scale) <= 2.0 * EPS


def test_numerator_satisfies_the_inclusion_exclusion_recurrence():
    rng = np.random.default_rng(8)
    u = rng.uniform(-1.0, 1.0, (20, 20))
    p, q = tk.ones(), tk.harmonic()
    fld = tk.weighted_mean_field(tk.array_sequence(u), p, q, 19, 19)
    nmr = fld.numerator.values
    pw = p.weights_array(19)
    qw = q.weights_array(19)
    for m in range(1, 20):
        for n in range(1, 20):
            cell = nmr[m, n] - nmr[m - 1, n] - nmr[m, n - 1] + nmr[m - 1, n - 1]
            term = pw[m] * qw[n] * u[m, n]
            scale = max(abs(nmr[m, n]), abs(nmr[m - 1, n]), abs(nmr[m, n - 1]), 1.0)
            assert abs(cell - term) <= 4.0 * EPS * scale


def test_mean_field_records_prefixes():
    p, q = tk.harmonic(), tk.ones()
    fld = tk.weighted_mean_field(tk.corpus_sequence("constant"), p, q, 15, 10)
    assert np.array_equal(fld.p_prefix, p.prefix_array(15))
    assert np.array_equal(fld.q_prefix, q.prefix_array(10))
    assert fld.sequence_name == "constant(c=1)"


def test_non_finite_sequence_cell_is_named():
    with pytest.raises(tk.NonFiniteValueError, match=r"non-finite value at \(1, 365\)"):
        tk.eval_grid(tk.corpus_sequence("paper_unbounded"), 400, 400)


def test_numerator_overflow_is_named():
    with pytest.raises(tk.PrefixOverflowError, match=r"numerator overflowed at \(\d+, \d+\)"):
        tk.weighted_mean_field(
            tk.corpus_sequence("constant"), tk.geometric(2.0), tk.geometric(2.0), 600, 600
        )


def test_complex_sequence_mean_field():
    seq = tk.corpus_sequence("complex_convergent")
    fld = tk.weighted_mean_field(seq, tk.ones(), tk.ones(), 10, 10)
    assert np.iscomplexobj(fld.sigma.values)
    u = tk.eval_grid(seq, 10, 10).values
    pw = qw = np.ones(11)
    want_re = direct_sigma(u.real, pw, qw, 10, 10)
    want_im = direct_sigma(u.imag, pw, qw, 10, 10)
    got = fld.sigma.values[10, 10]
    assert got.real == pytest.approx(want_re, rel=1e-12)
    assert got.imag == pytest.approx(want_im, rel=1e-12)


@pytest.mark.parametrize("name", ["additive_convergent", "complex_convergent"])
def test_mean_field_peak_memory_stays_within_three_grids(name):
    seq = tk.corpus_sequence(name)
    p, q = tk.ones(), tk.harmonic()
    p.ensure(300)  # the prefix caches are not part of the field's peak
    q.ensure(300)
    tracemalloc.start()
    try:
        fld = tk.weighted_mean_field(seq, p, q, 255, 255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * fld.sigma.values.nbytes


@pytest.mark.parametrize("name", ["additive_convergent", "complex_convergent"])
def test_single_mean_peak_memory_stays_within_three_blocks(name):
    seq = tk.corpus_sequence(name)
    p, q = tk.ones(), tk.harmonic()
    p.ensure(1000)  # the prefix caches are not part of the mean's peak
    q.ensure(1000)
    tracemalloc.start()
    try:
        tk.sigma_single(seq, p, q, 999, 999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * tk.eval_grid(seq, 999, 999).values.nbytes


@pytest.mark.parametrize(
    "size", [1, _SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1, 3 * _SUM_CHUNK + 5]
)
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_chunked_exact_sum_matches_one_fsum_over_the_whole_list(size, kind):
    rng = np.random.default_rng(size)

    def spread():
        # magnitudes over 2^-60..2^60, so any rounded partial sum would show
        return rng.standard_normal(size) * 2.0 ** rng.integers(-60, 60, size)

    if kind == "real":
        vals = spread()
        want = math.fsum(vals.tolist())
    else:
        vals = spread() + 1j * spread()
        want = complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))
    assert _exact_sum(vals) == want


def test_export_grid_csv_layout(tmp_path):
    fld = tk.weighted_mean_field(tk.corpus_sequence("constant"), tk.ones(), tk.ones(), 4, 3)
    out = tmp_path / "grid.csv"
    tk.export_grid_csv(fld.sigma, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "m,n,value_re,value_im"
    assert len(lines) == 1 + 5 * 4
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert float(first[3]) == 0.0
