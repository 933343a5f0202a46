"""Corpus sequences and weight families: definitions, prefixes, guard rails."""

import math
import sys
import threading

import numpy as np
import pytest

import tauberkit as tk


def test_sequence_names_are_sorted_and_complete():
    assert tk.sequence_names() == [
        "additive_convergent",
        "alternating",
        "complex_convergent",
        "constant",
        "paper_unbounded",
        "separable_convergent",
    ]


def test_weight_names_are_sorted_and_complete():
    assert tk.weight_names() == ["geometric", "harmonic", "ones", "power", "wobble"]


def test_unknown_sequence_name_raises():
    with pytest.raises(KeyError):
        tk.corpus_sequence("no_such_sequence")


def test_unbounded_example_row_rule_wins_over_column_rule():
    # the m == 1 clause takes precedence at the crossing cell (1, 3)
    g = tk.eval_grid(tk.corpus_sequence("paper_unbounded"), 6, 6)
    assert g.values[1, 3] == 343.0
    assert g.values[1, 5] == 7.0**5
    assert g.values[2, 3] == 7.0**4
    assert g.values[0, 0] == 2.0
    assert g.values[5, 5] == 2.0


def test_alternating_is_a_parity_checkerboard():
    g = tk.eval_grid(tk.corpus_sequence("alternating"), 7, 7)
    i, j = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    assert np.array_equal(g.values, (-1.0) ** (i + j))


def test_alternating_parity_rule_matches_the_modulo_form_bitwise():
    rows, cols = np.arange(1000, 1300), np.arange(300)
    got = tk.corpus_sequence("alternating").block(rows, cols)
    M, N = rows[:, None], cols[None, :]
    old = np.where((M + N) % 2 == 0, 1.0, -1.0)
    assert got.dtype == old.dtype and got.shape == (300, 300)
    assert got.tobytes() == old.tobytes()


def test_constant_sequence_is_flat():
    g = tk.eval_grid(tk.corpus_sequence("constant"), 5, 5)
    assert np.array_equal(g.values, np.ones((6, 6)))


def test_additive_convergent_settles_near_one():
    # the log-reciprocal terms decay, but only like 1/log
    g = tk.eval_grid(tk.corpus_sequence("additive_convergent"), 400, 400)
    assert abs(g.values[400, 400] - 1.0) < 0.35
    assert abs(g.values[100, 100] - 1.0) > abs(g.values[400, 400] - 1.0)


def test_complex_corpus_sequence_has_complex_kind():
    seq = tk.corpus_sequence("complex_convergent")
    assert seq.kind is tk.ScalarKind.COMPLEX
    g = tk.eval_grid(seq, 8, 8)
    assert np.iscomplexobj(g.values)


def test_real_corpus_sequences_have_real_kind():
    for name in tk.sequence_names():
        if name == "complex_convergent":
            continue
        assert tk.corpus_sequence(name).kind is tk.ScalarKind.REAL


def test_array_sequence_reproduces_its_values():
    rng = np.random.default_rng(11)
    u = rng.uniform(-1.0, 1.0, (9, 7))
    seq = tk.array_sequence(u, name="snapshot")
    assert seq.name == "snapshot"
    g = tk.eval_grid(seq, 8, 6)
    assert np.array_equal(g.values, u)


def test_grid_records_extents_and_kind():
    g = tk.eval_grid(tk.corpus_sequence("constant"), 4, 6)
    assert (g.m_max, g.n_max) == (4, 6)
    assert g.values.shape == (5, 7)
    assert g.kind is tk.ScalarKind.REAL


def test_real_grids_refuse_complex_values():
    with pytest.raises(ValueError, match="a real grid cannot hold complex128 values"):
        tk.Grid(0, 1, np.array([[1 + 2j, 3j]]))
    # a complex grid may hold real values: the complex export writes 0 parts
    g = tk.Grid(0, 1, np.array([[1.0, 2.0]]), tk.ScalarKind.COMPLEX)
    assert g.values.dtype == np.float64


def test_row_difference_anchors_at_one():
    with pytest.raises(ValueError, match="needs m >= 1"):
        tk.delta10(tk.corpus_sequence("constant"), 0, 3)
    with pytest.raises(ValueError, match="needs n >= 1"):
        tk.delta01(tk.corpus_sequence("constant"), 3, 0)


def test_differences_telescope_along_a_row():
    seq = tk.corpus_sequence("additive_convergent")
    g = tk.eval_grid(seq, 12, 5)
    total = math.fsum(tk.delta10(seq, i, 5) for i in range(1, 13))
    assert total == pytest.approx(g.values[12, 5] - g.values[0, 5], rel=1e-12)


# ---------------------------------------------------------------------------
# Weight families
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["geometric", "harmonic", "ones", "power", "wobble"])
def test_prefix_matches_exact_summation(name):
    p = tk.corpus_weight(name)
    horizon = 200
    w = p.weights_array(horizon)
    assert np.all(w > 0.0)
    sums = p.prefix_array(horizon)
    for m in (0, 1, 7, 50, 200):
        exact = math.fsum(w[: m + 1])
        assert sums[m] == pytest.approx(exact, rel=4e-16)
    assert np.all(np.diff(sums) > 0.0)


def test_ones_prefix_is_the_index_plus_one():
    p = tk.ones()
    assert np.array_equal(p.prefix_array(50), np.arange(1.0, 52.0))


def test_odd_integer_weight_has_square_prefix():
    p = tk.WeightSequence(lambda m: 2.0 * m + 1.0, name="odd")
    sums = p.prefix_array(100)
    assert np.array_equal(sums, (np.arange(101.0) + 1.0) ** 2)


def test_ensure_sum_exceeds_extends_far_enough():
    p = tk.harmonic()
    p.ensure_sum_exceeds(8.0)
    assert p.prefix_snapshot()[-1] > 8.0


def test_ensure_sum_exceeds_rejects_non_finite_targets():
    with pytest.raises(ValueError, match="finite"):
        tk.geometric(2.0).ensure_sum_exceeds(float("inf"))


def test_geometric_prefix_overflow_is_reported():
    with pytest.raises(tk.PrefixOverflowError, match="overflowed at index 1023"):
        tk.geometric(2.0).ensure(2000)


def test_weight_rule_overflow_is_reported_as_prefix_overflow():
    # 10.0**309 overflows the rule itself while P_308 is still finite
    tk.geometric(10.0).ensure(308)
    with pytest.raises(tk.PrefixOverflowError, match="overflowed at index 309") as info:
        tk.geometric(10.0).ensure(400)
    assert isinstance(info.value.__cause__, OverflowError)


def test_power_weights_reject_non_summable_exponents():
    with pytest.raises(tk.WeightDomainError, match="beta > -1"):
        tk.power(-1.5)


def test_max_index_guard_raises_horizon_error():
    p = tk.WeightSequence(lambda m: 1.0, name="tiny", max_index=100)
    with pytest.raises(tk.HorizonError, match="beyond max_index"):
        p.ensure(101)


def test_weight_spec_parameters_reach_the_constructor():
    p = tk.corpus_weight("geometric", r=1.5)
    assert p.prefix(1) == pytest.approx(2.5)


def test_weight_at_matches_weights_array():
    p = tk.harmonic()
    w = p.weights_array(20)
    assert all(p.weight_at(i) == w[i] for i in range(21))


# ---------------------------------------------------------------------------
# Chunked prefix engine against the scalar Neumaier loop
# ---------------------------------------------------------------------------


def scalar_prefix(rule, count):
    """Weights and partial sums by the one-index-at-a-time Neumaier loop."""
    weights, sums = [], []
    s = c = 0.0
    for k in range(count):
        pk = float(rule(k))
        t = s + pk
        if abs(s) >= abs(pk):
            c += (s - t) + pk
        else:
            c += (pk - t) + s
        s = t
        weights.append(pk)
        sums.append(t + c)
    return np.array(weights), np.array(sums)


ENGINE_CASES = {
    "ones": tk.ones,
    "harmonic": tk.harmonic,
    "power": lambda: tk.power(1.5),
    "power_negative": lambda: tk.power(-0.5),
    "geometric": lambda: tk.geometric(1.0001),
    "wobble": tk.wobble,
    "odd": lambda: tk.WeightSequence(lambda m: 2.0 * m + 1.0, name="odd"),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_chunked_prefix_is_bit_identical_to_the_scalar_loop(case):
    p = ENGINE_CASES[case]()
    # Interleaved requests: inside the first chunk, at chunk edges, a
    # threshold crossing, and a jump past the largest chunk.
    p.ensure(0)
    p.ensure(1023)
    p.ensure(1024)
    p.ensure_sum_exceeds(p.prefix(3000) * 1.01)
    p.ensure(70_000)
    p.ensure_sum_exceeds(p.prefix(70_000) * 1.001)
    p.ensure(150_000)
    count = p.evaluated_count
    weights, sums = scalar_prefix(p._weight, count)
    assert p.weights_array(count - 1).tobytes() == weights.tobytes()
    assert p.prefix_array(count - 1).tobytes() == sums.tobytes()


def test_geometric_prefix_below_the_overflow_index_succeeds():
    p = tk.geometric(2.0)
    p.ensure(500)
    assert p.prefix(500) == 2.0**501 - 1.0


def _bad_at_300(kind):
    def rule(m):
        if m != 300:
            return 1.0
        if kind == "raise":
            raise ZeroDivisionError("no weight at 300")
        return -1.0

    return tk.WeightSequence(rule, name="bad")


@pytest.mark.parametrize(
    "kind, error", [("raise", ZeroDivisionError), ("negative", tk.WeightDomainError)]
)
def test_a_bad_index_raises_only_once_it_is_needed(kind, error):
    p = _bad_at_300(kind)
    p.ensure(299)
    assert p.prefix(299) == 300.0
    with pytest.raises(error):
        p.ensure(300)
    assert p.evaluated_count == 300


@pytest.mark.parametrize("kind", ["raise", "negative"])
def test_ensure_sum_exceeds_stops_before_a_bad_index_past_the_crossing(kind):
    p = _bad_at_300(kind)
    assert p.ensure_sum_exceeds(99.5) == 99
    assert p.ensure_sum_exceeds(299.5) == 299
    assert p.evaluated_count == 300
    with pytest.raises((ZeroDivisionError, tk.WeightDomainError)):
        p.ensure_sum_exceeds(300.0)


def test_horizon_error_reports_what_was_needed_at_max_index():
    p = tk.WeightSequence(lambda m: 1.0, name="tiny", max_index=5000)
    with pytest.raises(tk.HorizonError) as info:
        p.ensure(5001)
    assert info.value.needed == 5001
    with pytest.raises(tk.HorizonError, match="reached index 5000") as info:
        p.ensure_sum_exceeds(1e6)
    assert info.value.needed == 1e6
    assert p.evaluated_count == 5001
    p.ensure(5000)


def test_prefix_error_messages_are_stable():
    flat = tk.WeightSequence(lambda m: 1.0 if m < 2000 else 1e-30, name="flat")
    flat.ensure(1999)  # the failing index then opens the next chunk
    with pytest.raises(tk.MonotonicityError) as info:
        flat.ensure(5000)
    assert str(info.value) == (
        "flat: partial sum failed to increase at index 2000 "
        "(P_1999 = 2000.0, P_2000 = 2000.0)"
    )
    with pytest.raises(tk.WeightDomainError) as info:
        _bad_at_300("negative").ensure(400)
    assert str(info.value) == "bad: weight p_300 = -1.0 is not positive and finite"


def test_concurrent_readers_see_consistent_published_prefixes():
    # requests stop at 300_000; chunks overshoot a request by at most 2**16
    reference = tk.harmonic().prefix_array(400_000)
    p = tk.harmonic()
    problems = []

    def work(seed):
        rnd = np.random.default_rng(seed)
        for _ in range(40):
            if rnd.random() < 0.5:
                p.ensure(int(rnd.integers(0, 300_000)))
            else:
                p.ensure_sum_exceeds(float(rnd.uniform(0.0, reference[300_000])))
            snap = p.prefix_snapshot()
            if snap.size and snap.tobytes() != reference[: snap.size].tobytes():
                problems.append(snap.size)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not problems
