"""Weighted mean fields against direct summation, plus overflow reporting."""

import contextlib
import dataclasses
import decimal
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tauberkit as tk
from helpers import TIES_AND_CANCELLATIONS, direct_sigma, direct_sigma_grid, run_python, traced_peak
from tauberkit import transform
from tauberkit.cli import parse_sequence_spec
from tauberkit.sequences import _first_nonfinite
from tauberkit.transform import (
    _SUM_CHUNK,
    _TEXT_BAND,
    _corner_sums,
    _exact_sum,
    _text_words,
    format_float,
)

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


def test_mean_field_refuses_an_over_budget_grid_before_allocating_it():
    # a sigma grid of 10^12 cells would fail to allocate with a MemoryError
    with pytest.raises(tk.ResourceLimitError, match="exceeds budget"):
        tk.weighted_mean_field(tk.corpus_sequence("additive_convergent"), tk.ones(), tk.ones(),
                               10**6, 10**6)


# A child caps its address space 256 MiB above what it holds and asks for a
# 12001^2 grid (1.07 GiB).
_OUT_OF_MEMORY = r"""
import re, resource
import tauberkit as tk
with open("/proc/self/status") as fh:
    held = int(re.search(r"VmSize:\s*(\d+) kB", fh.read()).group(1)) << 10
resource.setrlimit(resource.RLIMIT_AS, (held + (256 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    tk.weighted_mean_field(tk.corpus_sequence("constant"), tk.ones(), tk.ones(), 12000, 12000)
except MemoryError:
    print("MemoryError")
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmSize")
def test_mean_field_out_of_memory_is_a_memory_error(tmp_path):
    # sigma's pages come from mmap, whose failure is an OSError; an OSError
    # would read as bad input (exit 2) on the command line
    res = run_python("-c", _OUT_OF_MEMORY, cwd=tmp_path)
    assert (res.returncode, res.stdout) == (0, "MemoryError\n"), res.stderr


@pytest.mark.parametrize("name", ["additive_convergent", "complex_convergent"])
def test_mean_field_peak_memory_stays_within_one_grid(name):
    # sigma and one band of u and of the numerator, 2^16 words each: 1.15
    # (real) and 1.08 (complex) grids.  sigma sits on an anonymous mapping,
    # which tracemalloc does not see, so its bytes are added to the traced
    # peak.  At 255^2 a band's arrays weigh about a whole grid, so that size
    # cannot tell one grid from two.
    seq = tk.corpus_sequence(name)
    p, q = tk.ones(), tk.harmonic()
    p.ensure(1100)  # the prefix caches are not part of the field's peak
    q.ensure(1100)
    grid_bytes = 1024 * 1024 * (16 if seq.kind is tk.ScalarKind.COMPLEX else 8)
    peak = traced_peak(lambda: tk.weighted_mean_field(seq, p, q, 1023, 1023)) + grid_bytes
    assert peak <= 1.25 * grid_bytes


def _whole_grid_mean_field(seq, p, q, m_max, n_max):
    """sigma as the whole-grid pass of commit f5b4103 computed it, before
    the row bands replaced it: u whole, then one cumsum of the whole grid
    down and one across."""
    u = tk.eval_grid(seq, m_max, n_max).values
    pw = p.weights_array(m_max)
    qw = q.weights_array(n_max)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.multiply(pw[:, None], qw[None, :], out=np.empty(u.shape, u.dtype))
        np.multiply(s, u, out=s)
        np.cumsum(s, axis=0, out=s)
        np.cumsum(s, axis=1, out=s)
    bad = _first_nonfinite(s)
    if bad is not None:
        raise tk.PrefixOverflowError(f"{seq.name}: weighted numerator overflowed at {bad}")
    pp = p.prefix_array(m_max)
    qp = q.prefix_array(n_max)
    sigma = np.multiply(pp[:, None], qp[None, :], out=np.empty_like(s))
    np.divide(s, sigma, out=sigma)
    return sigma


_FAMILIES = ["geometric", "harmonic", "ones", "power", "wobble"]


def _family(name):
    return tk.corpus_weight(name, r=1.5) if name == "geometric" else tk.corpus_weight(name)


def _signed_zeros():
    u = np.random.default_rng(5).uniform(-1.0, 1.0, (12, 12)) * 2.0 ** -1070
    u[::3, ::2] = -0.0
    return tk.array_sequence(u, "signed_zeros")


@contextlib.contextmanager
def _bands(monkeypatch, seq, rows, m_max, n_max, last_row=None):
    """Yield seq with its rule wrapped to log the rows of each block call,
    and the mean-field pass set to bands of ``rows`` rows of an
    (n_max + 1)-column grid (None keeps the default, one band for these
    grids; a complex cell counts two 8-byte words of _BAND_BYTES).  On exit,
    check that the pass asked for u band by band, top to bottom, down to the
    band of last_row (m_max by default)."""
    step = rows or m_max + 1
    if rows is not None:
        words = 2 if seq.kind is tk.ScalarKind.COMPLEX else 1
        monkeypatch.setattr(tk.sequences, "_BAND_BYTES", rows * (n_max + 1) * words * 8)
    calls = []

    def rule(M, N):
        calls.append((int(M[0, 0]), len(M)))
        return seq.rule(M, N)

    yield dataclasses.replace(seq, rule=rule)
    last_row = m_max if last_row is None else last_row
    assert calls == [(r0, min(step, m_max + 1 - r0)) for r0 in range(0, last_row + 1, step)]


def _sequences():
    specs = ("additive_convergent", "complex_convergent", "1/(m+1)+sin(n)/(n+1)")
    return [*map(parse_sequence_spec, specs), _signed_zeros()]


# Twelve-row grids: bands of 5 rows leave a short last band, 4 rows divide
# the grid exactly, 7 rows leave a short second band, and 11 rows leave one
# row past them.
_BAND_ROWS = [None, 1, 4, 5, 7, 11]


@pytest.mark.parametrize("rows", _BAND_ROWS, ids=lambda r: f"band_rows={r}")
@pytest.mark.parametrize("family", _FAMILIES)
def test_banded_mean_field_keeps_the_whole_grid_bits(monkeypatch, rows, family):
    q_family = _FAMILIES[(_FAMILIES.index(family) + 1) % len(_FAMILIES)]
    for seq in _sequences():
        for m_max, n_max in ((11, 11), (11, 7)):
            p, q = _family(family), _family(q_family)
            with _bands(monkeypatch, seq, rows, m_max, n_max) as banded:
                fld = tk.weighted_mean_field(banded, p, q, m_max, n_max)
            sigma = _whole_grid_mean_field(seq, p, q, m_max, n_max)
            assert fld.sigma.values.tobytes() == sigma.tobytes(), (seq.name, m_max, n_max)


# Squares [t..k]^2 that callers reduce from the bands: some start and end
# inside one band, some span bands, one reaches the last row.
_SQUARES = [(1, 7), (3, 6), (5, 5), (6, 7), (9, 11)]


@pytest.mark.parametrize("rows", _BAND_ROWS, ids=lambda r: f"band_rows={r}")
def test_mean_field_pass_hands_over_each_band_with_the_grid_bits(monkeypatch, rows):
    p, q = tk.harmonic(), tk.power(1.5)
    for seq in _sequences():
        for m_max, n_max in ((11, 11), (11, 7)):
            u = tk.eval_grid(seq, m_max, n_max).values
            sigma = tk.weighted_mean_field(seq, p, q, m_max, n_max).sigma.values
            squares = [(t, k) for t, k in _SQUARES if k <= n_max]
            got_u, got_sigma = np.empty_like(u), [np.empty((k + 1 - t,) * 2, u.dtype) for t, k in squares]
            tops = []

            def visit(r0, band, s, pp, qp):
                tops.append(r0)
                got_u[r0 : r0 + len(band)] = band
                # each square's rows in this band, divided on their own
                for (t, k), dst in zip(squares, got_sigma):
                    if (lo := max(r0, t)) < (hi := min(r0 + len(s), k + 1)):
                        transform._divide(s[lo - r0 : hi - r0, t : k + 1], pp[lo:hi], qp[t : k + 1],
                                          dst[lo - t : hi - t])

            with _bands(monkeypatch, seq, rows, m_max, n_max) as banded:
                transform._mean_field_pass(banded, p, q, m_max, n_max, visit)
            where = (seq.name, m_max, n_max)
            assert tops == list(range(0, m_max + 1, rows or m_max + 1)), where
            assert got_u.tobytes() == u.tobytes(), where
            for (t, k), got in zip(squares, got_sigma):
                assert got.tobytes() == sigma[t : k + 1, t : k + 1].tobytes(), (*where, t, k)


def _raised(fn, *args):
    with pytest.raises((tk.TauberkitError, IndexError)) as exc:
        fn(*args)
    return exc.value


def _overflowing(nan_at=None, rows=12, at=1):
    """u = 1 on a rows x 8 array but for two cells of 1e308 in row ``at``,
    whose sum overflows the numerator there, and a nan at nan_at."""
    u = np.ones((rows, 8))
    u[at, 2:4] = 1e308
    if nan_at is not None:
        u[nan_at] = np.nan
    return tk.array_sequence(u, "overflowing")


def _overflowing_to_nan():
    """Numerator columns that overflow to +inf (column 2) and to -inf
    (column 5) in row 6: the cumsum along the row turns inf into nan."""
    u = np.ones((12, 8))
    u[5:7, 2] = 1e308
    u[5:7, 5] = -1e308
    return tk.array_sequence(u, "overflowing")


def _sign_flip(at):
    return tk.WeightSequence(lambda k: 1.0 if k < at else -1.0, f"sign_flip({at})")


@pytest.mark.parametrize("rows", [None, 2, 3], ids=lambda r: f"band_rows={r}")
@pytest.mark.parametrize(
    "case, first_bad_row",
    [
        # an overflow in an early band, a non-finite u cell in a later one
        (lambda: (_overflowing((9, 3)), tk.ones(), tk.ones()), 1),
        # a weight error, then a non-finite u cell in a later band
        (lambda: (_overflowing((9, 3)), _sign_flip(2), tk.ones()), 0),
        # p's weight error before q's, both before the overflow
        (lambda: (_overflowing(), _sign_flip(4), _sign_flip(3)), 0),
        # an overflow alone
        (lambda: (_overflowing(), tk.ones(), tk.ones()), 1),
        # a nan in an early band, then rows past the array: the rule's error
        (lambda: (_overflowing((2, 3), rows=9), tk.ones(), tk.ones()), 1),
        # a nan in an early band, then an overflow in a later one
        (lambda: (_overflowing((2, 3), at=8), tk.ones(), tk.ones()), 2),
        # an overflow in the middle of a row, which ends it in nan
        (lambda: (_overflowing_to_nan(), tk.ones(), tk.ones()), 6),
    ],
    ids=["overflow_then_nan", "weights_then_nan", "p_then_q", "overflow_alone", "nan_then_rule",
         "nan_then_overflow", "overflow_to_nan"],
)
def test_banded_mean_field_raises_the_whole_grid_error(monkeypatch, rows, case, first_bad_row):
    seq, p, q = case()
    want = _raised(_whole_grid_mean_field, seq, p, q, 11, 7)
    seq, p, q = case()
    # the rule refuses row 9 of a nine-row array, and no band after it is asked for
    last_row = 9 if isinstance(want, IndexError) else None
    with _bands(monkeypatch, seq, rows, 11, 7, last_row) as banded:
        got = _raised(tk.weighted_mean_field, banded, p, q, 11, 7)
    assert (type(got), str(got)) == (type(want), str(want))
    # the pass raises the same, and hands over only the bands above the
    # first weight error, non-finite numerator cell or rule error
    seq, p, q = case()
    tops = []
    with _bands(monkeypatch, seq, rows, 11, 7, last_row) as banded:
        passed = _raised(transform._mean_field_pass, banded, p, q, 11, 7, lambda r0, *band: tops.append(r0))
    assert (type(passed), str(passed)) == (type(want), str(want))
    step = rows or 12
    assert tops == list(range(0, first_bad_row - first_bad_row % step, step))
    if isinstance(want, tk.NonFiniteValueError):
        assert (got.m, got.n) == (want.m, want.n)


@pytest.mark.parametrize("name", ["additive_convergent", "complex_convergent"])
def test_single_mean_peak_memory_stays_within_three_blocks(name):
    seq = tk.corpus_sequence(name)
    p, q = tk.ones(), tk.harmonic()
    p.ensure(1000)  # the prefix caches are not part of the mean's peak
    q.ensure(1000)
    peak = traced_peak(lambda: tk.sigma_single(seq, p, q, 999, 999))
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


def _random_doubles(rng, size, top_exponent):
    """Doubles with uniform random sign, 52-bit fraction and biased exponent
    in [0, top_exponent]: every binade from the subnormals up."""
    bits = rng.integers(0, 1 << 52, size, dtype=np.int64)
    bits |= rng.integers(0, top_exponent + 1, size, dtype=np.int64) << 52
    bits |= rng.integers(0, 2, size, dtype=np.int64) << 63
    return bits.view(np.float64)


def _tie(rng, size):
    """size integers below 2^53, so doubles, of one sign and summing to
    2^53 + 1: the sum lies halfway between the doubles 2^53 and 2^53 + 2,
    and some plain sum on the way to it rounds."""
    rest = rng.integers(2**52 // (size - 1) + 1, 2**53 // (size - 1), size - 1)
    vals = np.append(rest, 2**53 + 1 - int(rest.sum())).astype(np.float64)
    return vals if rng.integers(2) else -vals


@st.composite
def corner_blocks(draw):
    """A block, a split (r0, c0), a seed-built value pattern and the
    block cut into row bands, in a drawn order.

    The fill keeps each rectangle's sum of magnitudes below 2^1018, inside
    the kernel's overflow guard, so no block is left to the oracle.  Some
    shapes hold more than one chunk of cells, or a single row or column
    longer than one chunk.  The "tie" fill puts the whole block's sum
    exactly halfway between two doubles, and complex blocks scale their re
    and im parts apart, though the two share one extraction.  The "spread",
    "subnormal" and "cancel" fills span more binades than two extractions
    take.
    """
    rows, cols = draw(
        st.tuples(st.integers(1, 40), st.integers(1, 40))
        | st.sampled_from([(1, _SUM_CHUNK + 3), (_SUM_CHUNK + 3, 1), (2, 40000), (300, 300)])
    )
    r0, c0 = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    fills = ["spread", "cancel", "subnormal", "zero", "negzero", "zero_corner", "tie"]
    fill = draw(st.sampled_from(fills))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = rows * cols
    top = 2040 - size.bit_length()

    def part():
        if fill in ("zero", "negzero"):
            return np.full(size, 0.0 if fill == "zero" else -0.0)
        if fill == "tie" and size > 1:
            return _tie(rng, size) * 2.0 ** int(rng.integers(-60, 60))
        vals = _random_doubles(rng, size, 0 if fill == "subnormal" else top)
        if fill == "cancel":
            # half the cells cancel another cell exactly, and the rest are
            # tiny against them
            perm = rng.permutation(size)
            half = size // 2
            vals[perm[:half]] = -vals[perm[half : 2 * half]]
            vals[perm[2 * half :]] *= 2.0**-600
        return vals

    vals = part() + 1j * part() if draw(st.booleans()) else part()
    terms = vals.reshape(rows, cols)
    if fill == "zero_corner":
        terms[: r0 + 1, : c0 + 1] = draw(st.sampled_from([0.0, -0.0]))
    cuts = sorted(draw(st.sets(st.integers(1, rows - 1), max_size=6))) if rows > 1 else []
    edges = [0, *cuts, rows]
    order = draw(st.permutations(range(len(edges) - 1)))
    return terms, r0, c0, [(edges[i], terms[edges[i] : edges[i + 1]]) for i in order]


def _rectangle_sums(terms, r0, c0):
    return [_exact_sum(terms[: r0 + 1, : c0 + 1]), _exact_sum(terms[:, : c0 + 1]),
            _exact_sum(terms[: r0 + 1]), _exact_sum(terms)]


def _certified_or_none(got, terms, r0, c0):
    """got is None, left to the oracle, or fsum's four sums to the bit."""
    # repr tells -0.0 from 0.0 as well as every other pair of doubles apart
    return got is None or [repr(x) for x in got] == [repr(x) for x in _rectangle_sums(terms, r0, c0)]


@settings(max_examples=150, deadline=None)
@given(corner_blocks())
def test_corner_sums_equal_fsum_of_each_rectangle(case):
    terms, r0, c0, bands = case
    whole, banded = _corner_sums([(0, terms)], r0, c0), _corner_sums(bands, r0, c0)
    assert whole is not None and banded is not None
    assert _certified_or_none(whole, terms, r0, c0)
    assert _certified_or_none(banded, terms, r0, c0)


def _row_bands(terms, rng):
    """terms cut into row bands at up to five drawn rows, in a drawn order."""
    cuts = sorted(set(rng.integers(1, len(terms), 5).tolist())) if len(terms) > 1 else []
    edges = [0, *cuts, len(terms)]
    return [(edges[i], terms[edges[i] : edges[i + 1]]) for i in rng.permutation(len(edges) - 1)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(-1074, 950), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans())
def test_multiples_of_one_power_of_two_certify(rows, cols, k, seed, cplx, tie):
    # times 2^k, integers below 2^53 over a drawn number of binades whose
    # magnitudes sum below 2^53, so every sum is a double, or a tie whose
    # whole sum lies halfway between two: both extractions leave nothing
    # over, so math.fsum rounds exact parts, ties included
    rng = np.random.default_rng(seed)
    size = rows * cols

    def part():
        if tie and size > 1:
            ints = _tie(rng, size)
        else:
            ints = rng.integers(-(2**53 // size), 2**53 // size + 1, size) >> rng.integers(0, 53, size)
        return np.ldexp(ints.astype(np.float64), k).reshape(rows, cols)

    terms = part() + 1j * part() if cplx else part()
    _assert_fsum_bits(terms, int(rng.integers(rows)), int(rng.integers(cols)), rng)


def _assert_fsum_bits(terms, r0, c0, rng):
    """_corner_sums of terms, whole and in drawn row bands, gives fsum's
    four sums to the bit, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bands in ([(0, terms)], _row_bands(terms, rng)):
            got = _corner_sums(bands, r0, c0)
            assert got is not None
            assert [repr(x) for x in got] == [repr(x) for x in _rectangle_sums(terms, r0, c0)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rows, cols", [(2, 3), (37, 53), (300, 200)])
def test_values_from_subnormals_to_2_1000_sum_exactly(rows, cols, seed):
    # every binade from the subnormals to 2^1000: forty to sixty levels of
    # extraction, each taking at least 23 binades, before nothing is left
    rng = np.random.default_rng(seed)
    terms = _random_doubles(rng, rows * cols, 2023).reshape(rows, cols)
    terms[0, 0] = 2.0**1000
    _assert_fsum_bits(terms, int(rng.integers(rows)), int(rng.integers(cols)), rng)


def test_complex_ties_with_parts_scaled_apart_sum_exactly():
    # the "tie" fill of corner_blocks, each part of a complex block scaled by
    # its own 2^k: the re and im lanes share one extraction, set by the
    # larger part, and the later levels take the smaller part's bits
    rng = np.random.default_rng(29)
    for _ in range(200):
        rows, cols = int(rng.integers(1, 41)), int(rng.integers(2, 41))

        def part():
            return _tie(rng, rows * cols) * 2.0 ** int(rng.integers(-60, 60))

        terms = (part() + 1j * part()).reshape(rows, cols)
        _assert_fsum_bits(terms, int(rng.integers(rows)), int(rng.integers(cols)), rng)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 7), (300, 300)])
def test_corner_sums_at_the_overflow_guard(rows, cols, cplx):
    # peak * cells just below 2^1018 is summed and keeps fsum's bits; at
    # 2^1018, at the top of the doubles and past them it is None, and no
    # case warns of an overflow
    rng = np.random.default_rng(rows * cols)
    edge = 2.0**1018 / (rows * cols)

    def part(peak):
        vals = rng.choice([-1.0, 1.0], (rows, cols)) * rng.uniform(0.5, 1.0, (rows, cols)) * peak
        vals.flat[rng.integers(vals.size)] = peak
        return vals

    for peak, summed in ((math.nextafter(edge, 0.0), True), (edge, False), (2.0**1023, False),
                         (math.inf, False), (math.nan, False)):
        terms = part(peak).astype(complex if cplx else float)
        if cplx:  # assigned, since 1j * inf has a NaN real part
            terms.imag = part(peak / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bands in ([(0, terms)], _row_bands(terms, rng)):
                got = _corner_sums(bands, rows // 2, cols // 2)
                if summed:
                    assert [repr(x) for x in got] == [repr(x) for x in _rectangle_sums(terms, rows // 2, cols // 2)]
                else:
                    assert got is None


def test_positive_power_weighted_block_certifies_every_sum():
    u = tk.corpus_sequence("additive_convergent").block(np.arange(300), np.arange(300))
    w = tk.power(1.5).weights_array(299)
    terms = w[:, None] * w[None, :] * u
    step = tk.sequences._BAND_BYTES // (8 * 300)  # rows of a lemma band
    bands = [(top, terms[top : top + step]) for top in range(0, 300, step)]
    for r0, c0 in ((0, 0), (149, 211), (299, 299)):
        got = _corner_sums(bands, r0, c0)
        assert got is not None
        assert [repr(x) for x in got] == [repr(x) for x in _rectangle_sums(terms, r0, c0)]


@pytest.mark.parametrize("terms, r0, c0, defers", TIES_AND_CANCELLATIONS)
def test_ties_and_cancellations_defer_to_the_oracle(terms, r0, c0, defers):
    terms = np.array(terms)
    got = _corner_sums([(0, terms)], r0, c0)
    assert (got is None) == defers
    assert _certified_or_none(got, terms, r0, c0)


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


def _export_cell_by_cell(grid, path):
    """The writer as it was before rows were formatted whole: the reference."""
    complex_kind = grid.kind is tk.ScalarKind.COMPLEX
    with open(path, "w", newline="") as fh:
        fh.write("m,n,value_re,value_im\n")
        vals = grid.values
        for m in range(grid.m_max + 1):
            row = vals[m]
            for n in range(grid.n_max + 1):
                v = row[n]
                if complex_kind:
                    fh.write(f"{m},{n},{format_float(v.real)},{format_float(v.imag)}\n")
                else:
                    fh.write(f"{m},{n},{format_float(v)},0\n")


_EDGE_VALUES = np.array([[-0.0, 5e-324, 1e-300], [5e300, -1.5, -2.5e-310]])


def _oracle_grids():
    for name, wp, wq in (
        ("additive_convergent", "ones", "ones"),
        ("complex_convergent", "harmonic", "power"),
        ("1/(m+1)+sin(n)/(n+1)", "power", "harmonic"),
    ):
        seq = parse_sequence_spec(name)
        for h in (0, 1, 300):
            yield f"{name}@{h}", tk.weighted_mean_field(
                seq, tk.corpus_weight(wp), tk.corpus_weight(wq), h, h
            ).sigma
    seq = tk.corpus_sequence("complex_convergent")
    yield "non-square", tk.weighted_mean_field(seq, tk.ones(), tk.harmonic(), 7, 19).sigma
    yield "edge values", tk.Grid(1, 2, _EDGE_VALUES)
    signed = _EDGE_VALUES + 1j * np.array([[-0.0, 0.0, -0.0], [-5e-324, 0.0, -1e-300]])
    yield "complex signed zeros", tk.Grid(1, 2, signed, tk.ScalarKind.COMPLEX)
    yield "complex signed zero cell", tk.Grid(0, 0, np.array([[complex(-0.0, -0.0)]]), tk.ScalarKind.COMPLEX)
    strided = np.arange(48.0).reshape(6, 8) / 7.0
    yield "non-contiguous real", tk.Grid(2, 3, strided[::2, ::2])
    yield "non-contiguous complex", tk.Grid(2, 3, (strided * (1 - 3j))[::2, 1::2], tk.ScalarKind.COMPLEX)
    yield "complex kind, real dtype", tk.Grid(1, 2, _EDGE_VALUES, tk.ScalarKind.COMPLEX)
    nan, inf = float("nan"), float("inf")
    yield "non-finite real", tk.Grid(1, 2, np.array([[nan, inf, -inf], [-nan, 1.5, -0.0]]))
    yield "non-finite complex", tk.Grid(1, 1, np.array(
        [[complex(nan, 1.5), complex(-2.5, inf)], [complex(-inf, -nan), complex(0.1, -inf)]]
    ), tk.ScalarKind.COMPLEX)
    # %g writes 9.9999999999999991e-05 but 0.0001, and 10000000000000000 but
    # 1e+17; the doubles 1e-14 and 1e+98 lie below their powers of ten, and
    # their 17 digits round up to one
    switches = np.array([math.nextafter(1e-4, 0), 1e-4, 1e16, math.nextafter(1e17, 0), 1e17, 1e-14, 1e98])
    yield "form switches", tk.Grid(1, 6, np.stack([switches, -switches]))
    yield "complex form switches", tk.Grid(0, 6, (switches - 1j * switches[::-1])[None], tk.ScalarKind.COMPLEX)
    near_2_53 = 2.0**53 + np.arange(-4.0, 5.0)
    yield "integers near 2^53", tk.Grid(1, 8, np.stack([near_2_53, -near_2_53]))
    # 2^-25 = 2.98023223876953125e-08 and n / 4 for odd n just below 2^53
    # have 18 significant digits ending in 5: a tie at the 17th digit
    ties = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), np.arange(2.0**53 - 99, 2.0**53, 2) / 4])
    yield "powers of two and ties", tk.Grid(1, ties.size // 2 - 1, ties.reshape(2, -1))
    subnormal = np.array([5e-324, -5e-324, 1e-310, -2.5e-320, 2.225073858507201e-308, 2.2250738585072014e-308])
    yield "subnormal row", tk.Grid(0, 5, subnormal[None])
    rng = np.random.default_rng(2024)
    spread = rng.standard_normal((3, _TEXT_BAND + 7)) * 10.0 ** rng.integers(-320, 306, (3, _TEXT_BAND + 7))
    spread[:, ::97] = 0.0
    yield "mixed signs and exponents over bands", tk.Grid(2, _TEXT_BAND + 6, spread)
    yield "complex mixed signs and exponents over bands", tk.Grid(
        1, _TEXT_BAND + 6, spread[:2] + 1j * spread[1:][::-1], tk.ScalarKind.COMPLEX
    )


@pytest.mark.parametrize("grid", [pytest.param(g, id=label) for label, g in _oracle_grids()])
def test_export_grid_csv_writes_the_bytes_of_the_cell_by_cell_writer(tmp_path, grid):
    tk.export_grid_csv(grid, str(tmp_path / "rows.csv"))
    _export_cell_by_cell(grid, str(tmp_path / "cells.csv"))
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def _near_tie(x: float) -> bool:
    """Whether the exact decimal value of x lies within 2^-30 of a half unit
    of its 17th significant digit, where %.17g's rounding is not certified."""
    scaled = Fraction(x) * Fraction(10) ** (16 - decimal.Decimal(x).adjusted())
    return abs(scaled - math.floor(scaled) - Fraction(1, 2)) <= Fraction(1, 2**30)


# Raw bit patterns: every exponent field, subnormals, signed zeros, nan
# payloads and both infinities are reached.
doubles_by_bits = st.builds(
    lambda sign, exponent, fraction: (sign << 63) | (exponent << 52) | fraction,
    st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(doubles_by_bits, min_size=1, max_size=64))
def test_text_kernel_writes_the_bytes_of_percent_17g(tmp_path_factory, patterns):
    v = np.array(patterns, np.uint64).view(np.float64)
    words = np.empty((v.size, 4), np.uint64)
    _text_words(v, 0, words)
    for x, row in zip(v.tolist(), words):
        text = row.tobytes().translate(None, b"\0")
        if row[0] == 1:
            # only what the kernel cannot certify is left to b"%.17g" % x
            assert text == b"\1"
            assert not 1e-280 < abs(x) < 1e280 or _near_tie(x), x
        else:
            assert text == b"%.17g" % x
    out = tmp_path_factory.mktemp("export")
    grid = tk.Grid(0, v.size - 1, v[None])
    tk.export_grid_csv(grid, str(out / "kernel.csv"))
    _export_cell_by_cell(grid, str(out / "cells.csv"))
    assert (out / "kernel.csv").read_bytes() == (out / "cells.csv").read_bytes()


@pytest.mark.parametrize("existing", [None, b"m,n,value_re,value_im\n0,0,1,0\n"])
def test_failed_export_leaves_no_partial_file(tmp_path, monkeypatch, existing):
    target = tmp_path / "sigma.csv"
    if existing is not None:
        target.write_bytes(existing)
    grid = tk.Grid(2, _TEXT_BAND - 1, np.full((3, _TEXT_BAND), 0.25))  # three bands
    calls = []

    def fail_on_second_band(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("second band")
        return _text_words(*args)

    monkeypatch.setattr(transform, "_text_words", fail_on_second_band)
    with pytest.raises(RuntimeError, match="second band"):
        tk.export_grid_csv(grid, str(target))
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["sigma.csv"])
    if existing is not None:
        assert target.read_bytes() == existing
    monkeypatch.undo()
    tk.export_grid_csv(grid, str(target))
    assert [p.name for p in tmp_path.iterdir()] == ["sigma.csv"]
    assert target.read_bytes().count(b"\n") == 1 + grid.values.size
