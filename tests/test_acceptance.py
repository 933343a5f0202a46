"""Acceptance gate: one test per numbered criterion, at the stated tolerances.

Each test is self-contained and runs well under a minute.  Criterion 3
asserts the documented convergence budget for the regularity positive case;
the unweighted means of the additive corpus sequence decay like 1/log M, so
the 0.2 budget at M = 400 is not reachable and the test records that honestly.
"""

import json

import numpy as np
import pytest

import tauberkit as tk
from helpers import direct_sigma, run_tauberkit

EPS = float(np.finfo(np.float64).eps)
REAL_SEQUENCES = [
    "constant",
    "paper_unbounded",
    "alternating",
    "additive_convergent",
    "separable_convergent",
]


def test_criterion_01_split_identity_suite():
    suite = tk.lemma_residual_suite(trials=100, grid=20, seed=0)
    assert len(suite) == 200
    assert {d.direction for d in suite} == {"forward", "backward"}
    assert max(d.rel_residual for d in suite) <= 1e-9


def test_criterion_02_prefix_field_matches_direct_summation():
    names = tk.weight_names()
    for k in range(20):
        rng = np.random.default_rng(3000 + k)
        u = rng.uniform(-1.0, 1.0, (30, 30))
        seq = tk.array_sequence(u, name=f"draw{k}")
        p = tk.corpus_weight(names[k % len(names)])
        q = tk.corpus_weight(names[(k + 2) % len(names)])
        fld = tk.weighted_mean_field(seq, p, q, 29, 29)
        pw, qw = p.weights_array(29), q.weights_array(29)
        for m in range(30):
            for n in range(30):
                want = direct_sigma(u, pw, qw, m, n)
                assert abs(fld.sigma.values[m, n] - want) <= 1e-12 * max(1.0, abs(want))


def test_criterion_03_bounded_convergent_means_settle():
    seq = tk.corpus_sequence("additive_convergent")
    gaps = [
        abs(tk.sigma_single(seq, tk.ones(), tk.ones(), M, M) - 1.0)
        for M in (50, 100, 200, 400)
    ]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.2


def test_criterion_04_unbounded_sequence_converges_but_its_means_do_not():
    paper = tk.corpus_sequence("paper_unbounded")
    est = tk.empirical_limit(tk.eval_grid(paper, 64, 64), [8, 16, 32, 64], tail_fraction=0.5)
    assert est.value == 2.0
    assert est.converged
    fld = tk.weighted_mean_field(paper, tk.ones(), tk.ones(), 16, 16)
    assert np.abs(fld.sigma.values - 2.0).max() > 1e3


def test_criterion_05_checkerboard_is_summable_but_not_convergent():
    alt = tk.corpus_sequence("alternating")
    sigma = tk.weighted_mean_field(alt, tk.ones(), tk.ones(), 200, 200).sigma
    sig_est = tk.empirical_limit(sigma, [25, 50, 100, 200])
    assert sig_est.converged
    assert abs(sig_est.value) <= 1 / 201
    assert abs(tk.sigma_single(alt, tk.ones(), tk.ones(), 200, 200)) <= 1 / 201
    u_est = tk.empirical_limit(tk.eval_grid(alt, 200, 200), [25, 50, 100, 200])
    assert not u_est.converged
    assert tk.hardy_stat(alt, tk.ones(), tk.ones(), (1, 200), (1, 200))[0] >= 2 * 201
    rep = tk.verify_theorem(
        alt, tk.ones(), tk.ones(), tk.Theorem.T42,
        tk.HarnessConfig(horizon=256, class_horizon=4096),
    )
    assert rep.verdict is tk.Verdict.CONSISTENT_NEGATIVE


def _stat_bound(report):
    return max(
        abs(r.stat)
        for prof in report.condition_profiles.values()
        for r in prof.rungs
        if r.stat is not None
    )


def test_criterion_06_tauberian_positive_cases():
    add = tk.corpus_sequence("additive_convergent")
    unit = tk.HarnessConfig(horizon=2048, eps_dec=0.1, eps_agree=0.1, class_horizon=4096)
    for theorem in (tk.Theorem.T42, tk.Theorem.T52):
        rep = tk.verify_theorem(add, tk.ones(), tk.ones(), theorem, unit)
        assert rep.verdict is tk.Verdict.CONSISTENT_POSITIVE, theorem
        assert rep.limit_gap <= 0.1
        assert _stat_bound(rep) <= 1.0
    # log-scale means need a wider horizon and settle more slowly; the
    # documented stat bound for this pair is 0.2 and the limits agree to 0.7
    logs = tk.HarnessConfig(horizon=4096, eps_dec=0.2, eps_agree=0.7, class_horizon=20000)
    for theorem in (tk.Theorem.T42, tk.Theorem.T52):
        rep = tk.verify_theorem(add, tk.harmonic(), tk.harmonic(), theorem, logs)
        assert rep.verdict is tk.Verdict.CONSISTENT_POSITIVE, theorem
        assert rep.limit_gap <= 0.7
        assert _stat_bound(rep) <= 0.2


def test_criterion_07_variation_classifier():
    ones = tk.classify(tk.ones(), 10**5, 0.05)
    assert ones.kind is tk.VariationKind.REGULARLY_VARYING
    assert abs(ones.alpha_hat - 1.0) <= 0.01

    odd = tk.classify(tk.WeightSequence(lambda m: 2.0 * m + 1.0, name="odd"), 10**5, 0.05)
    assert odd.kind is tk.VariationKind.REGULARLY_VARYING
    assert abs(odd.alpha_hat - 2.0) <= 0.01

    log = tk.classify(tk.harmonic(), 10**5, 0.05)
    assert log.kind is tk.VariationKind.REGULARLY_VARYING
    assert abs(log.alpha_hat) <= 0.05

    rapid, _, _ = tk.classify_adaptive(tk.geometric(2.0), 10**5, 0.05)
    assert rapid.kind is tk.VariationKind.RAPIDLY_VARYING
    assert abs(rapid.lemma23_profile[-1][1] - 0.5) <= 1e-12


def test_criterion_08_decomposition_inequality_field():
    overflowed = []
    for sname in REAL_SEQUENCES:
        for wname in ("ones", "harmonic"):
            for lam in (1.1, 1.5):
                for kap in (1.1, 1.5):
                    seq = tk.corpus_sequence(sname)
                    p = tk.corpus_weight(wname)
                    q = tk.corpus_weight(wname)
                    try:
                        comp = tk.sd_field_components(seq, p, q, 100, 100, lam, kap)
                    except tk.NonFiniteValueError:
                        overflowed.append((sname, wname, lam, kap))
                        continue
                    scale = np.maximum.reduce(
                        [
                            np.ones_like(comp["margin"]),
                            np.abs(comp["sd_Q"]),
                            np.abs(comp["sd_strong_P"]),
                            np.abs(comp["sd_both"]),
                        ]
                    )
                    assert (comp["margin"] >= -EPS * scale).all(), (sname, wname, lam, kap)
    # the only grids whose window cells leave double range
    assert overflowed == [
        ("paper_unbounded", "harmonic", 1.1, 1.5),
        ("paper_unbounded", "harmonic", 1.5, 1.1),
        ("paper_unbounded", "harmonic", 1.5, 1.5),
    ]


def test_criterion_09_proof_inequality_suites():
    overflowed = []
    for wname in ("ones", "harmonic"):
        for sname in REAL_SEQUENCES:
            for m in (10, 20, 40, 80):
                for d in (0.2, 0.5, 1.0):
                    seq = tk.corpus_sequence(sname)
                    p = tk.corpus_weight(wname)
                    q = tk.corpus_weight(wname)
                    lam = 1.0 + d
                    try:
                        fw = tk.proof_inequality_forward(seq, p, q, m, m, lam, lam, d, d)
                        assert fw.holds, ("forward", sname, wname, m, d, fw.margin)
                    except tk.NonFiniteValueError:
                        overflowed.append((sname, wname, m, d))
                    bw = tk.proof_inequality_backward(
                        seq, p, q, m, m, 1 / lam, 1 / lam, d, d
                    )
                    assert bw.holds, ("backward", sname, wname, m, d, bw.margin)
    assert overflowed == [("paper_unbounded", "harmonic", 80, 1.0)]


def test_criterion_10_window_machinery_against_linear_scans():
    rng = np.random.default_rng(20260817)
    names = tk.weight_names()
    pool = {nm: tk.corpus_weight(nm) for nm in names}
    for _ in range(1000):
        p = pool[names[int(rng.integers(len(names)))]]
        m = int(rng.integers(0, 257))
        lam = float(1.0 + rng.uniform(0.01, 1.0))
        delta = float(rng.uniform(0.05, 1.0))

        # the sums up to the first one past the bound, read for the scan
        sums = p.prefix_array(int(p.first_above(lam * p.prefix(m))))
        bound = lam * sums[m]
        i = m
        while i + 1 < len(sums) and sums[i + 1] <= bound:
            i += 1
        assert tk.window_edge(p, m, lam) == i

        mu = tk.choose_mu(p, m, delta)
        target = (1.0 + delta / 2.0) * p.prefix(m)
        sums = p.prefix_array(mu)
        j = m + 1
        while sums[j] < target:
            j += 1
        assert mu == j
        assert sums[mu - 1] < target <= sums[mu]

        factor = 1.0 + delta / 2.0
        expect = next(
            (i2 for i2 in range(m, -1, -1) if factor * sums[i2] <= sums[m]), None
        )
        try:
            got = tk.choose_mu_backward(p, m, delta)
        except ValueError:
            got = None
        assert got == expect


def test_criterion_11_lower_bound_bridges_to_the_window_functional():
    seq = tk.corpus_sequence("additive_convergent")
    for wname in ("ones", "harmonic"):
        p = tk.corpus_weight(wname)
        for m in (50, 100, 200, 400):
            n = m
            grid_cache = None
            for lam in (2.0, 1.5, 1.25, 1.1, 1.05):
                p.first_above(lam * p.prefix(m))
                mu = tk.window_edge(p, m, lam)
                pref = p.prefix_array(mu)
                w = p.weights_array(mu)
                if grid_cache is None or grid_cache.m_max < mu:
                    grid_cache = tk.eval_grid(seq, mu, n)
                col = grid_cache.values[: mu + 1, n]
                i = np.arange(m + 1, mu + 1)
                drops = (pref[i] / w[i]) * (col[i] - col[i - 1])
                m1 = max(0.0, float(-drops.min()))
                bound = -m1 * (pref[mu] / pref[m] - 1.0)
                value = tk.window_functional("sd_P", seq, p, None, m, n, lam, None)
                assert value >= bound - 1e-12, (wname, m, lam, value, bound)


def test_criterion_12_cli_determinism_and_exit_codes(tmp_path):
    def run(*args):
        return run_tauberkit(*args, cwd=tmp_path)

    for sub in ("a", "b"):
        res = run("verify-lemma", "--seed", "0", "--count", "25", "--out", sub)
        assert res.returncode == 0, res.stderr
    assert (tmp_path / "a" / "lemma_residuals.csv").read_bytes() == (
        tmp_path / "b" / "lemma_residuals.csv"
    ).read_bytes()

    res = run(
        "analyze", "--sequence", "additive_convergent", "--weights-p", "geometric",
        "--theorem", "T41", "--horizon", "128",
    )
    assert res.returncode == 5, res.stderr
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["weight_class_p"]["kind"] == "RapidlyVarying"

    res = run("transform", "--sequence", "constant", "--horizon", "10")
    assert res.returncode == 2, res.stderr
