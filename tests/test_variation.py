"""Growth classification of weight prefixes: index fits and the rapid test."""

import math

import pytest

import tauberkit as tk


def test_kind_labels():
    assert {k.value for k in tk.VariationKind} == {
        "RegularlyVarying",
        "RapidlyVarying",
        "Inconclusive",
    }


def test_ones_classifies_near_index_one():
    vc = tk.classify(tk.ones(), 10**4, 0.05)
    assert vc.kind is tk.VariationKind.REGULARLY_VARYING
    assert abs(vc.alpha_hat - 1.0) <= 0.01
    assert vc.fit_residual <= 0.05


def test_odd_integer_weight_classifies_near_index_two():
    p = tk.WeightSequence(lambda m: 2.0 * m + 1.0, name="odd")
    vc = tk.classify(p, 10**4, 0.05)
    assert vc.kind is tk.VariationKind.REGULARLY_VARYING
    assert abs(vc.alpha_hat - 2.0) <= 0.01


def test_harmonic_classifies_as_slowly_varying():
    vc = tk.classify(tk.harmonic(), 10**4, 0.05)
    assert vc.kind is tk.VariationKind.REGULARLY_VARYING
    assert abs(vc.alpha_hat) <= 0.05


def test_geometric_classifies_as_rapid_with_half_tail():
    vc, used, note = tk.classify_adaptive(tk.geometric(2.0), 10**5, 0.05)
    assert vc.kind is tk.VariationKind.RAPIDLY_VARYING
    assert used == 781
    assert "overflow" in note
    k, tail = vc.lemma23_profile[-1]
    assert abs(tail - 0.5) <= 1e-12


def test_adaptive_classification_without_overflow_keeps_the_horizon():
    vc, used, note = tk.classify_adaptive(tk.ones(), 4096, 0.05)
    assert used == 4096
    assert note is None
    assert vc.kind is tk.VariationKind.REGULARLY_VARYING


def test_wobble_is_inconclusive():
    vc = tk.classify(tk.corpus_weight("wobble"), 4096, 0.05)
    assert vc.kind is tk.VariationKind.INCONCLUSIVE
    assert vc.alpha_hat is None
    assert vc.fit_residual > vc.tol


def test_classification_is_invariant_under_weight_scaling():
    base = tk.classify(tk.power(1.0), 4096, 0.05)
    scaled = tk.classify(
        tk.WeightSequence(lambda m: 3.0 * (m + 1.0), name="scaled"), 4096, 0.05
    )
    assert scaled.kind is base.kind
    assert scaled.alpha_hat == pytest.approx(base.alpha_hat, abs=1e-12)


def test_classification_report_layout():
    vc = tk.classify(tk.ones(), 4096, 0.05)
    rec = tk.classification_report("ones", vc)
    assert set(rec) == {
        "name",
        "kind",
        "alpha_hat",
        "fit_residual",
        "tol",
        "horizon",
        "lemma23_tail",
        "samples",
    }
    assert rec["kind"] == "RegularlyVarying"
    assert rec["name"] == "ones"
    assert rec["horizon"] == 4096


def test_classification_report_with_no_index():
    vc = tk.classify(tk.corpus_weight("wobble"), 4096, 0.05)
    rec = tk.classification_report("wobble", vc)
    assert rec["alpha_hat"] is None
    assert rec["kind"] == "Inconclusive"


def test_ratio_profile_covers_the_sample_grid():
    rows = tk.ratio_profile(tk.ones(), [2.0, 1.5], [64, 128, 256, 512])
    assert len(rows) == 8
    for lam, m, ratio in rows:
        assert lam in (2.0, 1.5)
        # for linear prefixes the dilation ratio approaches lam itself
        assert ratio == pytest.approx(lam, rel=0.05)


@pytest.mark.parametrize("lam, m, message", [
    (0.0, 64, "ratio scale must be > 0, got 0.0"),
    (-1.0, 64, "ratio scale must be > 0, got -1.0"),
    (math.nan, 64, "ratio scale must be > 0, got nan"),
    (math.inf, 64, "ratio scale must be finite, got inf"),
    (2.0, 0, "ratio sample index must be >= 1, got 0"),
])
def test_ratio_profile_refuses_bad_scales_and_samples(lam, m, message):
    with pytest.raises(ValueError) as exc:
        tk.ratio_profile(tk.ones(), [lam], [m])
    assert str(exc.value) == message


@pytest.mark.parametrize("lam, m", [(1e308, 10), (1.5e308, 2), (2.0, 10**308)])
def test_ratio_profile_refuses_scales_whose_product_overflows(lam, m):
    with pytest.raises(ValueError) as exc:
        tk.ratio_profile(tk.ones(), [lam], [m])
    assert str(exc.value) == f"ratio scale times sample index must be finite, got {lam} * {m}"


def test_lemma23_tail_for_geometric_growth():
    rows = tk.lemma23_check(tk.geometric(2.0), 512)
    assert all(0.0 < v < 1.0 for _, v in rows)
    assert [k for k, _ in rows] == sorted(k for k, _ in rows)
    assert rows[-1][1] == pytest.approx(0.5, abs=1e-12)


def test_estimate_rv_index_on_linear_prefix():
    alpha, resid = tk.estimate_rv_index(tk.ones(), 4096)
    assert abs(alpha - 1.0) <= 0.05
    assert resid >= 0.0


def test_classify_records_its_horizon_and_tolerance():
    vc = tk.classify(tk.ones(), 4096, 0.05)
    assert (vc.horizon, vc.tol) == (4096, 0.05)
    assert vc.lemma23_profile[-1][0] == 4096
