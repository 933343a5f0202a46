"""Command line flows: artifacts, exit codes, determinism, config handling."""

import hashlib
import json
from dataclasses import fields

import pytest

from tauberkit import HarnessConfig
from tauberkit.cli import (
    RunConfig,
    _load_config_file,
    expression_sequence,
    main,
    parse_sequence_spec,
    parse_weight_spec,
)
from helpers import run_tauberkit

NAN, INF = float("nan"), float("inf")


def run_cli(*args, cwd):
    return run_tauberkit(*args, cwd=cwd)


def test_classify_writes_variation_report(tmp_path):
    res = run_cli(
        "classify-weights", "--weights", "ones", "--horizon", "4096", "--out", "w",
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert "RegularlyVarying" in res.stdout
    doc = json.loads((tmp_path / "w" / "variation.json").read_text())
    assert set(doc) == {
        "alpha_hat", "fit_residual", "horizon", "horizon_requested", "horizon_used",
        "kind", "lemma23_tail", "name", "note", "samples", "tol",
    }
    assert doc["kind"] == "RegularlyVarying"
    assert doc["name"] == "ones"


def test_classify_exits_three_when_inconclusive(tmp_path):
    res = run_cli(
        "classify-weights", "--weights", "wobble", "--horizon", "4096", cwd=tmp_path
    )
    assert res.returncode == 3, res.stderr
    doc = json.loads((tmp_path / "variation.json").read_text())
    assert doc["kind"] == "Inconclusive"


def test_transform_exports_the_sigma_grid(tmp_path):
    res = run_cli(
        "transform", "--sequence", "constant", "--horizon", "64", "--out", "t",
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "t" / "sigma.csv").read_text().splitlines()
    assert lines[0] == "m,n,value_re,value_im"
    assert len(lines) == 1 + 65 * 65


def test_transform_accepts_grid_expressions(tmp_path):
    res = run_cli(
        "transform", "--sequence", "1/(m+1)+sin(n)/(n+1)", "--horizon", "64",
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "sigma.csv").exists()


def test_analyze_exits_five_on_rapidly_varying_weights(tmp_path):
    res = run_cli(
        "analyze", "--sequence", "additive_convergent", "--weights-p", "geometric",
        "--theorem", "T41", "--horizon", "128", cwd=tmp_path,
    )
    assert res.returncode == 5, res.stderr
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["weight_class_p"]["kind"] == "RapidlyVarying"


def test_analyze_reports_a_positive_verdict(tmp_path):
    res = run_cli(
        "analyze", "--sequence", "separable_convergent", "--theorem", "T41",
        "--out", "a", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "a" / "report.json").read_text())
    assert doc["verdict"] == "ConsistentPositive"
    assert doc["theorem"] == "T41"
    profiles = (tmp_path / "a" / "profiles.csv").read_text().splitlines()
    assert profiles[0] == "functional,lambda,kappa,horizon,tail_stat"
    assert len(profiles) > 1


def test_analyze_exits_four_when_limits_disagree(tmp_path):
    res = run_cli(
        "analyze", "--sequence", "additive_convergent", "--theorem", "T42",
        "--horizon", "2048", "--eps-dec", "0.1", "--eps-agree", "0.01",
        "--class-horizon", "4096", cwd=tmp_path,
    )
    assert res.returncode == 4, res.stderr
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["verdict"] == "Inconsistent"


@pytest.mark.parametrize("sequence", ["constant", "paper_unbounded"])
def test_analyze_writes_reports_when_limits_sit_at_the_noise_floor(tmp_path, sequence):
    # the tail equals the corner to rounding, so the limit converges outright
    res = run_cli(
        "analyze", "--sequence", sequence, "--horizon", "128", "--class-horizon", "4096",
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["u_limit"]["converged"] is True
    assert (tmp_path / "profiles.csv").read_text().startswith("functional,")


def test_analyze_rejects_unknown_weight_parameters(tmp_path):
    res = run_cli("analyze", "--weights-p", "power:zeta=3", cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.splitlines() == [
        "error: weight family 'power' takes no parameter zeta; accepted: beta"
    ]


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ("analyze", "--sequence", "complex_convergent", "--theorem", "T41"),
            "error: T41 uses order-sensitive conditions; complex_convergent is complex",
        ),
        (
            ("sweep", "--sequence", "complex_convergent", "--functional", "sd_P"),
            "error: sd_P is order-sensitive; complex_convergent is complex-valued",
        ),
    ],
)
def test_order_sensitive_checks_on_complex_sequences_exit_two(tmp_path, args, message):
    res = run_cli(*args, cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.splitlines() == [message]


@pytest.mark.parametrize(
    "args, code",
    [
        (("classify-weights", "--weights", "geometric:r=10"), 0),
        (("analyze", "--weights-p", "geometric:r=10", "--horizon", "64"), 5),
    ],
)
def test_weights_that_overflow_before_their_sums_back_off(tmp_path, args, code):
    # 10**309 overflows the weight rule while the partial sum is still finite
    res = run_cli(*args, cwd=tmp_path)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    if args[0] == "classify-weights":
        note = json.loads((tmp_path / "variation.json").read_text())["note"]
    else:
        note = json.loads((tmp_path / "report.json").read_text())["class_notes"][0]
    assert note == "partial sums overflow before index 100000; classified at 195"


@pytest.mark.parametrize(
    "args, code, message",
    [
        (
            ("transform", "--horizon", "64", "--sequence", "1/(m-3)"),
            1,
            "error: 1/(m-3): non-finite value at (3, 0)",
        ),
        (
            ("transform", "--horizon", "64", "--out", "taken"),
            2,
            "error: [Errno 17] File exists: 'taken'",
        ),
        (
            # refused before the suite allocates its 7.28 TiB of grids
            ("verify-lemma", "--grid", "1000000", "--count", "1"),
            1,
            "error: suite grid of 1000000000000 cells exceeds budget 268435456",
        ),
    ],
)
def test_failures_exit_with_one_error_line(tmp_path, args, code, message):
    (tmp_path / "taken").write_text("a file where --out wants a directory\n")
    res = run_cli(*args, cwd=tmp_path)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines() == [message]


# One case per row of the README exit-code table; bad usage has three.
@pytest.mark.parametrize(
    "args, code",
    [
        (("transform", "--horizon", "64"), 0),
        (("transform", "--horizon", "64", "--sequence", "1/(m-3)"), 1),
        (("analyze", "--weights-p", "power:zeta=3"), 2),
        (("transform", "--horizon", "10"), 2),
        (("transform", "--config", "wrong_type.json"), 2),
        (("classify-weights", "--weights", "wobble", "--horizon", "4096"), 3),
        (
            ("analyze", "--sequence", "additive_convergent", "--theorem", "T51",
             "--horizon", "2048", "--class-horizon", "4096"),
            4,
        ),
        (("analyze", "--weights-p", "geometric:r=10", "--horizon", "64"), 5),
    ],
)
def test_exit_code_matrix(tmp_path, args, code):
    (tmp_path / "wrong_type.json").write_text(json.dumps({"horizon": "abc"}))
    res = run_cli(*args, cwd=tmp_path)
    assert res.returncode == code, res.stderr
    if code:
        assert "Traceback" not in res.stderr


# md5 of sigma.csv from `transform --horizon 64`, captured at commit 3fec5e8,
# whose writer formatted one cell per call (Python 3.11, numpy 2.4, x86-64).
# The expression goes through numpy's sin, so another numpy build may round
# it differently.
@pytest.mark.parametrize(
    "sequence, weights_p, weights_q, digest",
    [
        ("additive_convergent", "ones", "ones", "7aa237e4ff177a504c27d3a1937365c8"),
        ("complex_convergent", "harmonic", "power", "5cf6fd303bb9dd8302ad3cf9cabde154"),
        ("1/(m+1)+sin(n)/(n+1)", "ones", "ones", "0394414ff0067be8a4102f0e659ffc3f"),
    ],
)
def test_transform_keeps_its_golden_bytes(tmp_path, sequence, weights_p, weights_q, digest):
    res = run_cli(
        "transform", "--horizon", "64", "--sequence", sequence,
        "--weights-p", weights_p, "--weights-q", weights_q, cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert hashlib.md5((tmp_path / "sigma.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("depth", [200, 3000])
def test_deeply_nested_expressions_exit_two(tmp_path, depth):
    expr = "(" * depth + "m+n" + ")" * depth
    res = run_cli("transform", "--horizon", "64", "--sequence", expr, cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.splitlines() == ["error: expression nested deeper than 100 levels"]


def test_verify_lemma_is_deterministic(tmp_path):
    for sub in ("r1", "r2"):
        res = run_cli(
            "verify-lemma", "--seed", "7", "--count", "40", "--out", sub, cwd=tmp_path
        )
        assert res.returncode == 0, res.stderr
        assert "max relative residual" in res.stdout
    first = (tmp_path / "r1" / "lemma_residuals.csv").read_bytes()
    second = (tmp_path / "r2" / "lemma_residuals.csv").read_bytes()
    assert first == second
    header = first.decode().splitlines()[0]
    assert header == "m,n,mu,eta,direction,residual"


def test_verify_lemma_single_split(tmp_path):
    res = run_cli(
        "verify-lemma", "--sequence", "alternating", "--m", "2", "--n", "2",
        "--mu", "5", "--eta", "4", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "lemma_residuals.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2,2,5,4,forward,")


def test_verify_lemma_rejects_bad_splits(tmp_path):
    res = run_cli(
        "verify-lemma", "--sequence", "constant", "--m", "5", "--n", "5",
        "--mu", "3", "--eta", "7", cwd=tmp_path,
    )
    assert res.returncode == 2, res.stderr
    assert "mu > m" in res.stderr


def test_sweep_exports_functional_samples(tmp_path):
    res = run_cli(
        "sweep", "--sequence", "alternating", "--functional", "so_both",
        "--horizon", "64", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "functional,lambda,kappa,horizon,m,n,value"
    assert len(lines) > 1
    values = {line.rsplit(",", 1)[1] for line in lines[1:]}
    # full swing once the window spans both parities; the tightest
    # (1.05, 1.05) windows hold a single same-parity cell, giving 0
    assert values == {"0", "2"}


def test_sweep_accepts_a_kappa_ladder(tmp_path):
    res = run_cli(
        "sweep", "--sequence", "constant", "--functional", "sd_both",
        "--lambdas", "2.0,1.5", "--kappas", "1.5,1.1", "--horizon", "64",
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert any(line.split(",")[1:3] == ["2", "1.5"] for line in lines[1:])


def test_small_horizon_exits_two(tmp_path):
    res = run_cli("transform", "--sequence", "constant", "--horizon", "10", cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "horizon" in res.stderr


def test_unknown_config_key_exits_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 128, "no_such_knob": 1}))
    res = run_cli("transform", "--config", "cfg.json", cwd=tmp_path)
    assert res.returncode == 2, res.stderr


def test_malformed_config_exits_two(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    res = run_cli("transform", "--config", "bad.json", cwd=tmp_path)
    assert res.returncode == 2, res.stderr


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"horizon": "abc"}, 'error: config key horizon must be an integer, got "abc"'),
        ({"lambda_ladder": 3}, "error: config key lambda_ladder must be a list of numbers, got 3"),
    ],
)
def test_wrong_typed_config_values_exit_two(tmp_path, doc, message):
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    res = run_cli("transform", "--config", "cfg.json", cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.splitlines() == [message]


def test_config_files_take_ints_for_floats_and_null_for_optional_fields(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 64, "delta": 1, "lambda_ladder": [2, 1.5], "eps_agree": None}))
    assert _load_config_file(str(cfg)) == {
        "horizon": 64, "delta": 1, "lambda_ladder": (2.0, 1.5), "eps_agree": None,
    }


def test_flags_override_config_files(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sequence": "constant", "horizon": 128}))
    res = run_cli("transform", "--config", "cfg.json", "--horizon", "64", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "sigma.csv").read_text().splitlines()
    assert len(lines) == 1 + 65 * 65


def test_unknown_sequence_name_exits_two(tmp_path):
    res = run_cli("transform", "--sequence", "mystery", cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "unknown sequence" in res.stderr


# ---------------------------------------------------------------------------
# Spec parsing used by the commands
# ---------------------------------------------------------------------------


def test_sequence_spec_accepts_corpus_names_and_expressions():
    # corpus factories bake their parameters into the name
    assert parse_sequence_spec("constant").name == "constant(c=1)"
    expr = parse_sequence_spec("1/(m+1)")
    assert expr.name == "1/(m+1)"
    import tauberkit as tk

    assert tk.eval_grid(expr, 3, 0).values[3, 0] == pytest.approx(0.25)


def test_sequence_spec_rejects_bare_unknown_words():
    with pytest.raises(ValueError, match="unknown sequence"):
        parse_sequence_spec("mystery")


def test_weight_spec_passes_parameters():
    p = parse_weight_spec("geometric:r=1.5")
    assert p.prefix(1) == pytest.approx(2.5)
    with pytest.raises(ValueError, match="unknown weight"):
        parse_weight_spec("mystery")


def test_expression_parser_rejects_garbage():
    with pytest.raises(ValueError):
        expression_sequence("1 +* 2")
    with pytest.raises(ValueError, match="unknown name"):
        expression_sequence("q/(m+1)")


def test_spec_parameters_must_belong_to_the_factory():
    with pytest.raises(ValueError, match="accepted: beta"):
        parse_weight_spec("power:zeta=3")
    with pytest.raises(ValueError, match="accepted: none"):
        parse_sequence_spec("alternating:c=2")
    assert parse_sequence_spec("constant:c=2").declared_limit == 2.0


def test_expression_nesting_is_capped_but_long_chains_are_not():
    import tauberkit as tk

    nested = expression_sequence("(" * 50 + "m-n" + ")" * 50)
    assert tk.eval_grid(nested, 2, 3).values[2, 3] == -1.0
    assert expression_sequence("-" * 100 + "m").evaluate(3, 0) == 3.0
    with pytest.raises(ValueError, match="nested deeper"):
        expression_sequence("sin(" * 101 + "m" + ")" * 101)
    # flat chains compile to one loop, so their length costs no stack depth
    chain = expression_sequence("m" + "+m" * 3000 + "-n/2" * 4)
    assert chain.evaluate(2, 4) == 3001 * 2 - 8.0


def test_run_config_validates_ladders():
    with pytest.raises(ValueError):
        RunConfig(lambda_ladder=(1.5, 2.0)).validate()  # must decrease
    with pytest.raises(ValueError):
        RunConfig(lambda_ladder=(2.0, 1.0)).validate()  # entries must exceed 1
    with pytest.raises(ValueError):
        RunConfig(kappa_ladder=(2.0,)).validate()  # must pair with lambdas
    RunConfig().validate()


# One case per rule: its boundary value, NaN and, for ladders and the
# thresholds that must be finite, inf.  HarnessConfig owns the rules of the
# harness settings and RunConfig.validate those of the CLI-only ones; the
# CLI prints the same text as its one error line.  An argv of None marks a
# value no flag or config key can carry (NaN for an integer).
_RULES = [
    ("horizon", 63, ("transform", "--horizon", "63"), "horizon must be >= 64, got 63"),
    ("horizon", NAN, None, "horizon must be >= 64, got nan"),
    ("class_horizon", 63, ("analyze", "--class-horizon", "63"), "class_horizon must be >= 64, got 63"),
    ("class_horizon", NAN, None, "class_horizon must be >= 64, got nan"),
    ("lambda_ladder", (), ("analyze", "--config", "empty_ladder.json"), "lambda_ladder must not be empty"),
    (
        "lambda_ladder", (2.0, 1.0), ("analyze", "--lambdas", "2,1"),
        "lambda_ladder entries must be finite and > 1, got (2.0, 1.0)",
    ),
    (
        "lambda_ladder", (NAN,), ("analyze", "--lambdas", "nan"),
        "lambda_ladder entries must be finite and > 1, got (nan,)",
    ),
    (
        "lambda_ladder", (INF, 2.0), ("sweep", "--lambdas", "inf,2"),
        "lambda_ladder entries must be finite and > 1, got (inf, 2.0)",
    ),
    (
        "lambda_ladder", (1.5, 1.5), ("analyze", "--lambdas", "1.5,1.5"),
        "lambda_ladder must be strictly decreasing, got (1.5, 1.5)",
    ),
    (
        "lambda_ladder", (1.5, 2.0), ("analyze", "--lambdas", "1.5,2"),
        "lambda_ladder must be strictly decreasing, got (1.5, 2.0)",
    ),
    (
        "kappa_ladder", (1.0,), ("analyze", "--kappas", "1"),
        "kappa_ladder entries must be finite and > 1, got (1.0,)",
    ),
    (
        "kappa_ladder", (NAN,), ("sweep", "--kappas", "nan"),
        "kappa_ladder entries must be finite and > 1, got (nan,)",
    ),
    (
        "kappa_ladder", (INF,), ("analyze", "--kappas", "inf"),
        "kappa_ladder entries must be finite and > 1, got (inf,)",
    ),
    (
        "kappa_ladder", (2.0, 2.0), ("analyze", "--kappas", "2,2"),
        "kappa_ladder must be strictly decreasing, got (2.0, 2.0)",
    ),
    (
        "kappa_ladder", (2.0,), ("analyze", "--kappas", "2"),
        "kappa_ladder must pair one-for-one with lambda_ladder",
    ),
    ("tail_fraction", 0.0, ("analyze", "--tail-fraction", "0"), "tail_fraction must lie in (0, 1), got 0.0"),
    ("tail_fraction", 1.0, ("sweep", "--tail-fraction", "1"), "tail_fraction must lie in (0, 1), got 1.0"),
    ("tail_fraction", NAN, ("analyze", "--tail-fraction", "nan"), "tail_fraction must lie in (0, 1), got nan"),
    ("eps_dec", 0.0, ("analyze", "--eps-dec", "0"), "eps_dec must be finite and > 0, got 0.0"),
    ("eps_dec", NAN, ("analyze", "--eps-dec", "nan"), "eps_dec must be finite and > 0, got nan"),
    ("eps_dec", INF, ("analyze", "--eps-dec", "inf"), "eps_dec must be finite and > 0, got inf"),
    ("eps_agree", 0.0, ("analyze", "--eps-agree", "0"), "eps_agree must be finite and > 0, got 0.0"),
    ("eps_agree", NAN, ("analyze", "--eps-agree", "nan"), "eps_agree must be finite and > 0, got nan"),
    ("eps_agree", INF, ("analyze", "--eps-agree", "inf"), "eps_agree must be finite and > 0, got inf"),
    ("class_tol", 0.0, ("classify-weights", "--tol", "0"), "class_tol must lie in (0, 0.5), got 0.0"),
    ("class_tol", 0.5, ("analyze", "--tol", "0.5"), "class_tol must lie in (0, 0.5), got 0.5"),
    ("class_tol", NAN, ("classify-weights", "--tol", "nan"), "class_tol must lie in (0, 0.5), got nan"),
    ("delta", 0.0, ("verify-lemma", "--delta", "0"), "delta must be finite and > 0, got 0.0"),
    ("delta", INF, ("verify-lemma", "--delta", "inf"), "delta must be finite and > 0, got inf"),
    ("gamma", NAN, ("verify-lemma", "--gamma", "nan"), "gamma must be finite and > 0, got nan"),
    ("seed", -1, ("verify-lemma", "--seed", "-1"), "seed must be >= 0, got -1"),
    ("count", 0, ("verify-lemma", "--count", "0"), "count must be >= 1, got 0"),
    ("grid", 7, ("verify-lemma", "--grid", "7"), "grid must be >= 8, got 7"),
    ("grid", NAN, None, "grid must be >= 8, got nan"),
]


@pytest.mark.parametrize(
    "field, value, argv, message", _RULES, ids=[f"{c[0]}={c[1]}" for c in _RULES]
)
def test_each_rule_refuses_alike_in_the_library_and_the_cli(
    tmp_path, monkeypatch, capsys, field, value, argv, message
):
    if field in {f.name for f in fields(HarnessConfig)}:
        build = HarnessConfig
    else:
        def build(**kw):
            RunConfig(**kw).validate()
    with pytest.raises(ValueError) as info:
        build(**{field: value})
    assert str(info.value) == message
    if argv is None:
        return
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty_ladder.json").write_text(json.dumps({"lambda_ladder": []}))
    assert main(list(argv)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_run_config_maps_every_harness_field():
    mapped = RunConfig(
        horizon=100, lambda_ladder=(3.0, 2.0), kappa_ladder=(4.0, 1.5), tail_fraction=0.25,
        eps_dec=0.1, eps_agree=0.7, class_horizon=128, tol=0.3,
    ).harness()
    assert {f.name: getattr(mapped, f.name) for f in fields(HarnessConfig)} == {
        "horizon": 100, "lambda_ladder": (3.0, 2.0), "kappa_ladder": (4.0, 1.5),
        "tail_fraction": 0.25, "eps_dec": 0.1, "eps_agree": 0.7, "class_horizon": 128,
        "class_tol": 0.3,
    }
    assert RunConfig().harness() == HarnessConfig()


def test_analyze_accepts_an_agreement_threshold_above_one_half(tmp_path):
    res = run_cli("analyze", "--eps-agree", "0.7", "--horizon", "64", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads((tmp_path / "report.json").read_text())["agreement_threshold"] == 0.7
