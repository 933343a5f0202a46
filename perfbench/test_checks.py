"""The benchmark's own tests: references reproduce known values, and every
output check rejects a deliberately corrupted artifact.

    python3 -m pytest perfbench -q
"""
import dataclasses
import json
import math

import pytest

import checks
import run
import workloads

tk = run._import_program()


def cli(tmp_path, *argv):
    return tk.cli.main([*argv, "--out", str(tmp_path)])


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def test_additive_convergent_gap_at_400():
    sigma, _ = checks.reference_sigma("additive_convergent", "ones", "ones", 400, 400)
    assert sigma - 1.0 == pytest.approx(0.426891262008055, rel=0, abs=1e-15)


def test_closed_form_prefixes():
    assert checks.prefix_sums("ones", [9])[9] == 10.0
    assert checks.prefix_sums("power", [3])[3] == 10.0
    assert checks.prefix_sums("power:beta=2", [3])[3] == 30.0
    assert checks.prefix_sums("geometric", [4])[4] == 31.0
    assert checks.prefix_sums("harmonic", [3, 1])[3] == pytest.approx(25 / 12, rel=1e-16)
    wobble = checks.prefix_sums("wobble", [0, 1])
    assert wobble[1] == pytest.approx(1.0 + 2.0 ** (1.0 + math.sin(math.log(2.0))), rel=1e-15)


def test_linear_scan_choosers():
    assert checks.chooser_forward("ones", 9, 1.0) == 14
    assert checks.chooser_forward("ones", 3, 0.5) == 4
    assert checks.chooser_backward("ones", 9, 0.5) == 7
    assert checks.chooser_forward("power", 10, 0.5) == 12


def test_geometric_horizon_ladder():
    assert checks.geometric_horizon(10**5) == 781
    assert checks.geometric_horizon(10**6) == 976
    assert checks.geometric_horizon(512) == 512


def test_alternating_and_complex_references_match_direct_sums():
    assert checks.reference_sigma("alternating", "ones", "ones", 64, 64)[0] == 1.0 / 65**2
    m, n = 12, 17
    for wp, wq in (("power", "ones"), ("harmonic", "power:beta=2")):
        pw, qw = checks.weight_values(wp, m), checks.weight_values(wq, n)
        terms = [pw[i] * qw[j] * checks.sequence_value("complex_convergent", i, j)
                 for i in range(m + 1) for j in range(n + 1)]
        direct = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        direct /= math.fsum(pw.tolist()) * math.fsum(qw.tolist())
        got, _ = checks.reference_sigma("complex_convergent", wp, wq, m, n)
        assert abs(got - direct) <= 1e-15 * abs(direct)


def test_workloads_are_seeded_and_whole_rounds():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 3, 12)
        assert a == workloads.build(name, 3, 12)
        per_round = len(workloads.build(name, 3, 1))
        assert len(workloads.build(name, 3, 60)) % per_round == 0
    faults = [op["fault"] for op in workloads.build("verdicts", 1, 1) if op.get("fault")]
    assert sorted(faults) == ["F1", "F1", "F2", "F3"]


# ---------------------------------------------------------------------------
# Every check accepts the real artifact and rejects a corrupted one
# ---------------------------------------------------------------------------


def _rewrite_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_variation_check(tmp_path):
    code = cli(tmp_path, "classify-weights", "--weights", "harmonic", "--horizon", "4096")
    assert checks.check_variation("harmonic", 4096, code, tmp_path) == []
    assert checks.check_variation("harmonic", 4096, 3, tmp_path)

    def bump(doc):
        doc["samples"][2][2] *= 1 + 1e-9
    _rewrite_json(tmp_path / "variation.json", bump)
    assert checks.check_variation("harmonic", 4096, code, tmp_path)


def test_variation_check_exact_ratios_and_geometric_horizon(tmp_path):
    code = cli(tmp_path, "classify-weights", "--weights", "power", "--horizon", "4096")
    assert checks.check_variation("power", 4096, code, tmp_path) == []

    def ulp(doc):
        doc["samples"][0][2] = math.nextafter(doc["samples"][0][2], 2.0)
    _rewrite_json(tmp_path / "variation.json", ulp)
    assert checks.check_variation("power", 4096, code, tmp_path)

    code = cli(tmp_path, "classify-weights", "--weights", "geometric", "--horizon", "100000")
    assert checks.check_variation("geometric", 100000, code, tmp_path) == []

    def halve(doc):
        doc["horizon_used"] //= 2
    _rewrite_json(tmp_path / "variation.json", halve)
    assert checks.check_variation("geometric", 100000, code, tmp_path)


def _analyze_op(seq, theorem, h, wp="ones", wq="ones"):
    op = workloads._analyze(seq, theorem, h, wp, wq)
    op["argv"] += ["--class-horizon", "4096"]
    return op


@pytest.mark.parametrize("seq,theorem", [("alternating", "T51"), ("alternating", "T42"),
                                          ("additive_convergent", "T41")])
def test_report_check(tmp_path, seq, theorem):
    op = _analyze_op(seq, theorem, 256)
    code = cli(tmp_path, *op["argv"])
    assert checks.check_report(op, code, tmp_path) == []
    assert checks.check_report(op, 4 if code == 0 else 0, tmp_path)

    def sigma(doc):
        doc["sigma_limit"]["value"] += 1e-9
    _rewrite_json(tmp_path / "report.json", sigma)
    assert checks.check_report(op, code, tmp_path)


def test_report_check_rejects_a_wrong_profile_and_class(tmp_path):
    op = _analyze_op("alternating", "T51", 256)
    code = cli(tmp_path, *op["argv"])
    report = tmp_path / "report.json"
    original = report.read_text()

    def stat(doc):
        doc["condition_profiles"]["so_P"]["rungs"][3]["stat"] = 1.999
    _rewrite_json(report, stat)
    assert checks.check_report(op, code, tmp_path)

    report.write_text(original)

    def ratio(doc):
        doc["weight_class_q"]["samples"][1][2] = math.nextafter(doc["weight_class_q"]["samples"][1][2], 0.0)
    _rewrite_json(report, ratio)
    assert checks.check_report(op, code, tmp_path)

    report.unlink()
    assert checks.check_report(op, code, tmp_path)


def test_complex_report_check(tmp_path):
    op = _analyze_op("complex_convergent", "T52", 128, "power", "power")
    code = cli(tmp_path, *op["argv"])
    assert checks.check_report(op, code, tmp_path) == []

    def imag(doc):
        doc["sigma_limit"]["value"]["im"] += 1e-9
    _rewrite_json(tmp_path / "report.json", imag)
    assert checks.check_report(op, code, tmp_path)


def test_sweep_check(tmp_path):
    op = next(o for o in workloads.verdicts(None) if o["check"] == "sweep")
    argv = [a if a != "2048" else "256" for a in op["argv"]]
    code = cli(tmp_path, *argv)
    assert checks.check_sweep(op, code, tmp_path) == []
    path = tmp_path / "sweep.csv"
    lines = path.read_text().splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0] + ",1.5"
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_sweep(op, code, tmp_path)


@pytest.mark.parametrize("seq,wp,wq", [("additive_convergent", "harmonic", "power"),
                                        ("complex_convergent", "harmonic", "ones"),
                                        ("1/(m+1)+sin(n)/(n+1)", "power", "harmonic")])
def test_sigma_csv_check(tmp_path, seq, wp, wq):
    h = 64
    op = dict(sequence=seq, weights_p=wp, weights_q=wq, horizon=h,
              cells=[(h, h), (0, 0), (17, 40), (64, 3)])
    code = cli(tmp_path, "transform", "--sequence", seq, "--weights-p", wp,
               "--weights-q", wq, "--horizon", str(h))
    assert checks.check_sigma_csv(op, code, tmp_path) == []
    path = tmp_path / "sigma.csv"
    text = path.read_text()
    path.write_text(text.replace("m,n,value_re,value_im", "m,n,value_re,value_i", 1))
    assert checks.check_sigma_csv(op, code, tmp_path)
    lines = text.splitlines()
    row = 1 + 17 * (h + 1) + 40
    m, n, re_s, im_s = lines[row].split(",")
    lines[row] = f"{m},{n},{float(re_s) * (1 + 1e-9)!r},{im_s}"
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_sigma_csv(op, code, tmp_path)
    del lines[row]
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_sigma_csv(op, code, tmp_path)


def test_lemma_csv_check(tmp_path):
    op = dict(expect_rows=20)
    code = cli(tmp_path, "verify-lemma", "--seed", "5", "--count", "10", "--grid", "12")
    assert checks.check_lemma_csv(op, code, tmp_path) == []
    path = tmp_path / "lemma_residuals.csv"
    lines = path.read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + ",2e-9"
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_lemma_csv(op, code, tmp_path)

    op = dict(expect_rows=1, split=(40, 37), delta=0.5, weights_p="power", weights_q="ones")
    code = cli(tmp_path, "verify-lemma", "--sequence", "additive_convergent", "--weights-p",
               "power", "--m", "40", "--n", "37", "--delta", "0.5", "--gamma", "0.5")
    assert checks.check_lemma_csv(op, code, tmp_path) == []
    m, n, mu, eta, rest = path.read_text().splitlines()[1].split(",", 4)
    path.write_text(f"m,n,mu,eta,direction,residual\n{m},{n},{int(mu) + 1},{eta},{rest}\n")
    assert checks.check_lemma_csv(op, code, tmp_path)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_proof_check(direction):
    op = dict(direction=direction, sequence="separable_convergent", weights_p="power",
              weights_q="power:beta=2", m=90, n=70, delta=0.5,
              lam=2.0 if direction == "forward" else 0.5)
    _, code, error, ineq, _ = run.run_op(tk, dict(op, kind="proof"), None)
    assert error is None
    assert checks.check_proof(op, ineq) == []
    assert checks.check_proof(op, dataclasses.replace(ineq, mu=ineq.mu + 1))
    assert checks.check_proof(op, dataclasses.replace(ineq, lhs=ineq.lhs + 1e-10))
    assert checks.check_proof(op, dataclasses.replace(ineq, holds=False))


def test_a_failure_that_is_not_a_named_fault_makes_the_run_incorrect(tmp_path):
    op = dict(kind="cli", check="sigma_csv", argv=["transform", "--horizon", "8"])
    failure, problems = run.judge_op(op, None, "ZeroDivisionError: boom", None, "", tmp_path)
    assert failure == "ZeroDivisionError: boom"
    assert problems and "not a named fault" in problems[0]
    failure, problems = run.judge_op(op, 1, None, None, "Traceback ...\n", tmp_path)
    assert failure and problems
    failure, problems = run.judge_op(dict(op, fault="F2"), None, "TypeError: x", None, "", tmp_path)
    assert failure == "TypeError: x" and problems == []


def test_usage_error_check():
    op = dict(label="bad input")
    assert checks.check_usage_error(op, 2, "error: unknown weight parameter\n") == []
    assert checks.check_usage_error(op, 1, "error: unknown weight parameter\n")
    assert checks.check_usage_error(op, 2, "Traceback (most recent call last):\n  ...\n")


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_layer_metrics_take_self_time():
    import spans
    recs = [
        ["cli.main", 0.0, 10.0, -1, 0, True, None],
        ["harness.verify_theorem", 1.0, 9.0, 0, 0, True, {"halvings": 1}],
        ["WeightSequence.ensure", 2.0, 5.0, 1, 0, True, {"indices": 100}],
        ["DoubleSequence.block", 5.0, 6.0, 1, 0, True, {"cells": 12}],
    ]
    out = spans.layer_metrics(recs)
    assert out["cli.self_s"] == 2.0
    assert out["harness.verify_self_s"] == 4.0
    assert out["sequences.prefix_s"] == 3.0
    assert out["sequences.prefix_indices"] == 100
    assert out["sequences.block_cells"] == 12
    assert out["harness.grid_halvings"] == 1


def test_tracer_sees_calls_bound_by_name_and_restores_them(tmp_path):
    import spans
    original = tk.cli.weighted_mean_field
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli(tmp_path, "transform", "--sequence", "alternating", "--horizon", "64")
    finally:
        tracer.uninstall()
    assert tk.cli.weighted_mean_field is original
    names = {rec[0] for rec in tracer.spans}
    assert {"cli.main", "transform.weighted_mean_field", "transform.export_grid_csv",
            "WeightSequence.ensure", "DoubleSequence.block"} <= names
    out = spans.layer_metrics(tracer.spans)
    assert out["transform.mean_field_cells"] == 65 * 65
    assert out["transform.export_csv_bytes"] == (tmp_path / "sigma.csv").stat().st_size
