"""Command line flows: artifacts, exit codes, determinism, config handling."""

import hashlib
import json
import os
import re
from dataclasses import fields

import pytest

from tauberkit import HarnessConfig, sequence_names
from tauberkit.cli import (
    RunConfig,
    _load_config_file,
    expression_sequence,
    main,
    parse_sequence_spec,
    parse_weight_spec,
)
from helpers import run_python, run_tauberkit, traced_peak

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
        (
            ("analyze", "--sequence", "constant:c=1,c=2"),
            2,
            "error: parameter c given twice in 'c=1,c=2'",
        ),
        (
            ("analyze", "--sequence", "constant:c=1e"),
            2,
            "error: bad value '1e' for parameter c in 'c=1e'",
        ),
        (
            ("analyze", "--sequence", "(m"),
            2,
            "error: expected ) at end of expression in '(m'",
        ),
        (
            ("transform", "--horizon", "64", "--sequence", " "),
            2,
            "error: unexpected end of expression in ' '",
        ),
        (
            ("transform", "--horizon", "64", "--weights-p", "power:beta=nan"),
            2,
            "error: value 'nan' of parameter beta is not a number",
        ),
        (
            ("transform", "--horizon", "64", "--weights-p", "power:beta=inf"),
            2,
            "error: value 'inf' of parameter beta is not a number",
        ),
        (
            ("transform", "--horizon", "64", "--weights-p", "power:beta=1e999"),
            2,
            "error: power weights need a finite beta > -1, got inf",
        ),
        (
            ("transform", "--horizon", "64", "--weights-q", "geometric:r=1e999"),
            2,
            "error: geometric weights need a finite r > 1, got inf",
        ),
        (
            # a finite exponent whose weights overflow is a failed computation
            ("transform", "--horizon", "64", "--weights-p", "power:beta=1000"),
            1,
            "error: power(beta=1000): partial sum overflowed at index 2",
        ),
        # every term is finite, but the oracle's sum of a corner overflows
        (("verify-lemma", "--sequence", "1e307", "--m", "5", "--n", "5"), 1,
         "error: intermediate overflow in fsum"),
        # the oracle's terms overflow: numpy's warning stays off stderr
        (("verify-lemma", "--sequence", "1e300*(m+1)", "--weights-p", "power:beta=3",
          "--weights-q", "power:beta=3", "--m", "100", "--n", "100"), 1,
         "error: intermediate overflow in fsum"),
        # flag errors take the same path as any other bad input
        (("analyze", "--horizon", "abc"), 2, "error: argument --horizon: invalid int value: 'abc'"),
        (("analyze", "--lambdas", "2,x"), 2, "error: argument --lambdas: bad ladder '2,x'"),
        (("analyze", "--bogus"), 2, "error: unrecognized arguments: --bogus"),
        (
            ("analyze", "--theorem", "T99"),
            2,
            "error: argument --theorem: invalid choice: 'T99' (choose from 'T41', 'T42', 'T51', 'T52')",
        ),
        ((), 2, "error: the following arguments are required: command"),
    ],
)
def test_failures_exit_with_one_error_line(tmp_path, args, code, message):
    (tmp_path / "taken").write_text("a file where --out wants a directory\n")
    res = run_cli(*args, cwd=tmp_path)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines() == [message]


def test_help_exits_zero(capsys):
    assert main(["analyze", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: tauberkit analyze")


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
# it differently.  The --horizon 300 digests (90,601 cells, several bands of
# the text kernel each) were captured at commit e0d2d7f, whose writer
# formatted one %-template per row, before the kernel replaced it.
@pytest.mark.parametrize(
    "horizon, sequence, weights_p, weights_q, digest",
    [
        (64, "additive_convergent", "ones", "ones", "7aa237e4ff177a504c27d3a1937365c8"),
        (64, "complex_convergent", "harmonic", "power", "5cf6fd303bb9dd8302ad3cf9cabde154"),
        (64, "1/(m+1)+sin(n)/(n+1)", "ones", "ones", "0394414ff0067be8a4102f0e659ffc3f"),
        (300, "additive_convergent", "ones", "ones", "f56e62a52d141be2b8793d44568239d0"),
        (300, "complex_convergent", "harmonic", "power", "fd3a0d65b34cc20e034c4f42ef60df9c"),
        (300, "1/(m+1)+sin(n)/(n+1)", "power", "harmonic", "c3a222908d5c16d568c647f9e377805f"),
    ],
)
def test_transform_keeps_its_golden_bytes(tmp_path, horizon, sequence, weights_p, weights_q, digest):
    res = run_cli(
        "transform", "--horizon", str(horizon), "--sequence", sequence,
        "--weights-p", weights_p, "--weights-q", weights_q, cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert hashlib.md5((tmp_path / "sigma.csv").read_bytes()).hexdigest() == digest


# md5 of report.json and profiles.csv from `analyze --horizon 256`, captured at
# commit e1195a1, whose window engine evaluated each profile rung on its own
# (Python 3.11, numpy 2.4, x86-64).
@pytest.mark.parametrize(
    "sequence, theorem, weights, report_digest, profiles_digest",
    [
        ("alternating", "T41", "ones",
         "68c55abea31f4929221c8eacc48fa7fd", "97c9eeb42c092c48e55a993330af7f6f"),
        ("alternating", "T51", "ones",
         "2e0dfee8979aec5543c80b61dbf8b03d", "172eac40901f2734d716288d35f1617a"),
        ("complex_convergent", "T51", "power",
         "68d10117ddd0a5ae81804f08ddef046a", "642ff2c142dbfc2e91d88205b28af90d"),
    ],
)
def test_analyze_keeps_its_golden_bytes(
    tmp_path, sequence, theorem, weights, report_digest, profiles_digest
):
    res = run_cli(
        "analyze", "--horizon", "256", "--sequence", sequence, "--theorem", theorem,
        "--weights-p", weights, "--weights-q", weights, cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert hashlib.md5((tmp_path / "report.json").read_bytes()).hexdigest() == report_digest
    assert hashlib.md5((tmp_path / "profiles.csv").read_bytes()).hexdigest() == profiles_digest


# md5 of report.json and profiles.csv from `analyze --horizon 300`, captured at
# commit f5b4103, the parent of the banded mean-field pass, whose analyze
# evaluated u and sigma on the whole grid (Python 3.11, numpy 2.4, x86-64).
# At horizon 300 the pass takes several row bands.
@pytest.mark.parametrize(
    "sequence, theorem, weights, report_digest, profiles_digest",
    [
        ("additive_convergent", "T41", "ones",
         "e05ab8687c78865033f88b6856f7a353", "dab9d78181c254b29898834c66992a83"),
        ("additive_convergent", "T42", "ones",
         "a18c20be6cc5e8b663d24fa24a71ae58", "a11609c59723a517190f37f7ba9f7dfc"),
        ("additive_convergent", "T51", "ones",
         "cfd469cfd150ef700ae9b53b44d7a325", "2e92790e0b0702e7db34bedd0eaed58f"),
        ("additive_convergent", "T52", "ones",
         "e27d9e8df6db52d655ee1a046900ea21", "f2f24999518a608b56fa131fb34de97d"),
        ("alternating", "T41", "ones",
         "9a910690402ef1c913d4d58381156f5a", "f97159a15848b6581bc8e12537706d8c"),
        ("alternating", "T42", "ones",
         "4690afbc48f6b8354b57f81ca00dd65a", "b5233fe39af11ff72a6a298194e7f273"),
        ("alternating", "T51", "ones",
         "5474dc0386b5f74ac3bbde48bdd88136", "608902f6b121b9dbdd3eb0d340196088"),
        ("alternating", "T52", "ones",
         "2903846fe532dea00762b04ec34b6da0", "c92d46f3c064c4fa748a2767fdbf7287"),
        ("complex_convergent", "T51", "power",
         "a2f74b7a1dbed061bdc39d8a49e5f610", "b67abd3707bfb9de6683c52d8132d61a"),
        ("complex_convergent", "T52", "power",
         "03363a52cb23060511f48750cde564e3", "2de40b4bffa86cdccc0fbb4e13b54bb6"),
    ],
)
def test_banded_analyze_keeps_the_whole_grid_bytes(
    tmp_path, sequence, theorem, weights, report_digest, profiles_digest
):
    code = main([
        "analyze", "--horizon", "300", "--sequence", sequence, "--theorem", theorem,
        "--weights-p", weights, "--weights-q", weights, "--out", str(tmp_path),
    ])
    assert code == 0
    assert hashlib.md5((tmp_path / "report.json").read_bytes()).hexdigest() == report_digest
    assert hashlib.md5((tmp_path / "profiles.csv").read_bytes()).hexdigest() == profiles_digest


# md5 of report.json and profiles.csv of complex analyze runs whose limits
# take two mean-field passes, captured at commit 41c9385, when one pass kept
# the complex tail squares whole.  With geometric row weights the numerator
# overflows at horizon 1024, so both passes run at the halved horizon 512.
@pytest.mark.parametrize(
    "flags, code, report_digest, profiles_digest",
    [
        (["--theorem", "T52", "--horizon", "1024", "--weights-p", "geometric"], 5,
         "08ce642840c426ee7d14d6c31829699a", "f010be6ac2f796191641936ce1fb542b"),
        (["--theorem", "T51", "--horizon", "1024", "--weights-p", "geometric"], 5,
         "cd00f5857ff719feb3e0e25e557e74fe", "7e9b86bc26575b4574b945f7000fa1b2"),
        (["--theorem", "T52", "--horizon", "300", "--tail-fraction", "0.9"], 0,
         "4c66094691afee5c17c10a54db83a793", "e38dacca9432b24cf2138b95f48fb774"),
        (["--theorem", "T51", "--horizon", "256", "--tail-fraction", "0.3"], 0,
         "85eafb10d0983531c10184c13d023711", "ccbb04a9329cf6e5027f2fe47a8e8042"),
    ],
)
def test_complex_analyze_keeps_its_golden_bytes(tmp_path, flags, code, report_digest, profiles_digest):
    assert main(["analyze", "--sequence", "complex_convergent", *flags, "--out", str(tmp_path)]) == code
    assert hashlib.md5((tmp_path / "report.json").read_bytes()).hexdigest() == report_digest
    assert hashlib.md5((tmp_path / "profiles.csv").read_bytes()).hexdigest() == profiles_digest


def test_transform_failing_in_a_later_band_leaves_sigma_csv_alone(tmp_path):
    # 217 rows a band at horizon 300 (2^16 words of 301 columns), so row 250
    # lies in the second band
    out = tmp_path / "t"
    out.mkdir()
    (out / "sigma.csv").write_text("earlier run\n")
    res = run_cli("transform", "--horizon", "300", "--sequence", "1/(m-250)", "--out", "t",
                  cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.splitlines() == ["error: 1/(m-250): non-finite value at (250, 0)"]
    assert [f.name for f in out.iterdir()] == ["sigma.csv"]
    assert (out / "sigma.csv").read_text() == "earlier run\n"


@pytest.mark.parametrize("sequence, weights, grid_bytes", [
    ("additive_convergent", "ones", 1025 * 1025 * 8),
    ("complex_convergent", "power", 1025 * 1025 * 16),
])
def test_transform_peak_memory_stays_near_two_grids(tmp_path, sequence, weights, grid_bytes):
    # sigma alone, filled band by band, then the export's scratch of about
    # 2 MiB: 1.30 (real) and 1.18 (complex) grids.  sigma sits on an
    # anonymous mapping, which tracemalloc does not see, so its bytes are
    # added to the traced peak.
    argv = ["transform", "--sequence", sequence, "--weights-p", weights,
            "--horizon", "1024", "--out", str(tmp_path)]
    main(argv)  # imports and lazily built tables are not part of the peak
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv))) + grid_bytes
    assert codes == [0]
    assert peak < 1.45 * grid_bytes


# A child frees an 8 MiB array, which lifts glibc's dynamic mmap threshold
# as a long-lived process's temporaries do, runs transform at each horizon
# given and prints how far its peak RSS rose above that warm-up.  VmHWM is
# the peak of the child's own memory: ru_maxrss starts from the RSS of the
# process that forked it, here the whole test session.
_TRANSFORM_RUN_PEAK = r"""
import contextlib, io, sys
import numpy as np
from helpers import peak_kib
from tauberkit.cli import main

warm_up = np.ones(1 << 20)
del warm_up
warm = peak_kib()
for horizon in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["transform", "--sequence", "1/(m+1)+sin(n)/(n+1)", "--horizon", horizon, "--out", horizon]) == 0
print(peak_kib() - warm)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_a_run_of_transforms_peaks_as_its_largest_alone(tmp_path):
    # A grid on the malloc heap left a hole there once freed, so the 1279
    # transform after smaller ones peaked about 4.2 MiB higher than on its
    # own, nearly a 768^2 grid; sigma on pages of its own goes back when
    # freed, and the two peaks agree within 0.2 MiB.
    excess = []
    for horizons in (["767", "511", "767", "1279"], ["1279"]):
        cwd = tmp_path / str(len(horizons))
        cwd.mkdir()
        res = run_python("-c", _TRANSFORM_RUN_PEAK, *horizons, cwd=cwd)
        assert res.returncode == 0, res.stderr
        excess.append(int(res.stdout))
    run, alone = excess
    assert run - alone <= 1024, excess


# A child frees 8 MiB, as a run of other work would, then runs harmonic T41
# on additive_convergent at H = 2048, whose forward window edges reach index
# 7.5M of the weights.
_HARMONIC_WINDOWS_PEAK = r"""
import contextlib, io
import numpy as np
from helpers import peak_kib
from tauberkit.cli import main

warm_up = np.ones(1 << 20)
del warm_up
warm = peak_kib()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["analyze", "--sequence", "additive_convergent", "--theorem", "T41",
                 "--weights-p", "harmonic", "--weights-q", "harmonic", "--horizon", "2048"]) == 0
print(peak_kib() - warm)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_far_window_edges_keep_no_partial_sums_behind(tmp_path):
    # Keeping every partial sum up to the farthest edge, 7.5M of them, rose
    # 58-59 MiB above the warm-up; past the sums that are read, the weights
    # keep a checkpoint per chunk of 2^16 indices, and the run rises 0.8 MiB.
    res = run_python("-c", _HARMONIC_WINDOWS_PEAK, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) <= 8 * 1024


# A child caps its address space 256 MiB above what it holds and asks for a
# 12001^2 sigma grid (1.07 GiB).
_TRANSFORM_OUT_OF_MEMORY = r"""
import re, resource, sys
from tauberkit.cli import main
with open("/proc/self/status") as fh:
    held = int(re.search(r"VmSize:\s*(\d+) kB", fh.read()).group(1)) << 10
resource.setrlimit(resource.RLIMIT_AS, (held + (256 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(["transform", "--horizon", "12000"]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmSize")
def test_transform_out_of_memory_exits_one_with_one_line(tmp_path):
    res = run_python("-c", _TRANSFORM_OUT_OF_MEMORY, cwd=tmp_path)
    assert res.returncode == 1, res.stderr
    assert res.stderr.splitlines() == ["error: cannot allocate a 12001x12001 float64 grid"]
    assert not (tmp_path / "sigma.csv").exists()


def test_transform_overflow_of_the_weight_products_exits_one(tmp_path):
    # p_109 q_200 = 1e309 overflows before u = 1e-300 multiplies it in, though
    # the numerator is finite; P_109 Q_200 overflows too, so re-forming only
    # the numerator would not give the mean (see ROADMAP).  Pinned as it is.
    res = run_cli(
        "transform", "--sequence", "1e-300", "--weights-p", "geometric:r=10",
        "--weights-q", "geometric:r=10", "--horizon", "200", cwd=tmp_path,
    )
    assert res.returncode == 1, res.stderr
    assert res.stderr.splitlines() == ["error: 1e-300: weighted numerator overflowed at (109, 200)"]
    assert not (tmp_path / "sigma.csv").exists()


# md5 of sweep.csv, captured at commit e1195a1 like the analyze digests above.
def test_sweep_keeps_its_golden_bytes(tmp_path):
    res = run_cli(
        "sweep", "--sequence", "alternating", "--functional", "so_both", "--horizon", "256",
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    digest = hashlib.md5((tmp_path / "sweep.csv").read_bytes()).hexdigest()
    assert digest == "61b7a8a96c9a17ab13f67451211f8974"


@pytest.mark.parametrize("command", [
    ["analyze", "--sequence", "alternating", "--theorem", "T41", "--horizon", "64"],
    ["sweep", "--sequence", "alternating", "--functional", "so_both", "--horizon", "64"],
])
def test_window_profiles_leave_numpy_ma_unimported(tmp_path, command):
    # np.unique imports numpy.ma on its first call in a process, about 10 ms
    code = f"import sys; from tauberkit.cli import main; print(main({command!r}), 'numpy.ma' in sys.modules)"
    res = run_python("-c", code, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 False"


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


def test_verify_lemma_past_the_doubles_fails_without_warnings(tmp_path):
    # window - anchor overflows, so the residual is nan: the run fails, and
    # stderr carries no numpy warning
    res = run_cli(
        "verify-lemma", "--sequence", "1.5e308*cos(pi*(m+n))", "--m", "10", "--n", "10",
        cwd=tmp_path,
    )
    assert res.returncode == 1
    assert res.stderr == ""
    assert "max relative residual nan over 1 splits" in res.stdout


def test_verify_lemma_rejects_bad_splits(tmp_path):
    res = run_cli(
        "verify-lemma", "--sequence", "constant", "--m", "5", "--n", "5",
        "--mu", "3", "--eta", "7", cwd=tmp_path,
    )
    assert res.returncode == 2, res.stderr
    assert "mu > m" in res.stderr


@pytest.mark.parametrize("split", [("--mu", "5"), ("--eta", "4"), ("--m", "2", "--mu", "5"),
                                   ("--n", "2", "--eta", "4")])
def test_verify_lemma_refuses_a_partial_split(tmp_path, monkeypatch, capsys, split):
    # a split flag without both anchors must not fall back to the random suite
    monkeypatch.chdir(tmp_path)
    assert main(["verify-lemma", "--sequence", "alternating", *split]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: an explicit split needs both --m and --n"]
    assert not (tmp_path / "lemma_residuals.csv").exists()


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
    assert res.stderr.splitlines() == ["error: unknown config keys: no_such_knob"]


def test_malformed_config_exits_two(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    res = run_cli("transform", "--config", "bad.json", cwd=tmp_path)
    assert res.returncode == 2, res.stderr


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"horizon": "abc"}, 'error: config key horizon must be an integer, got "abc"'),
        ({"lambda_ladder": 3}, "error: config key lambda_ladder must be a list of numbers, got 3"),
        ([1, 2], "error: config file cfg.json must hold a JSON object"),
        ({"sequence": 5}, "error: config key sequence must be a string, got 5"),
        ({"eps_agree": "x"}, 'error: config key eps_agree must be a number or null, got "x"'),
        ({"theorem": "T99"}, "error: theorem must be one of T41, T42, T51, T52, got T99"),
        (
            {"functional": "sd_X"},
            "error: functional must be one of sd_P, sd_Q, sd_strong_P, sd_strong_Q, sd_both, "
            "so_P, so_Q, so_strong_P, so_strong_Q, so_both, got sd_X",
        ),
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
    for text in ("m+", "m^", ""):
        message = f"unexpected end of expression in '{text}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            expression_sequence(text)
    for text, what in (("(m", ")"), ("pow(m,n", ")"), ("pow(m", ","), ("sin", "(")):
        message = f"expected {what} at end of expression in '{text}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            expression_sequence(text)
    with pytest.raises(ValueError, match=r"^expected \) at token 2 in '\(m n\)'$"):
        expression_sequence("(m n)")


@pytest.mark.parametrize("text", ["m + 1 ", "sin( n ) ", "m/(n+1)\t\n", " m "])
def test_expressions_may_end_in_whitespace(text):
    import tauberkit as tk

    want = tk.eval_grid(expression_sequence(text.strip()), 5, 5).values
    assert tk.eval_grid(expression_sequence(text), 5, 5).values.tobytes() == want.tobytes()


def test_expression_operands_broadcast_and_divide_by_zero_quietly():
    import numpy as np

    assert expression_sequence("1/0").evaluate(2, 3) == INF
    got = expression_sequence("m - 2*n + pi").block(np.arange(4), np.arange(3))
    want = np.arange(4.0)[:, None] - 2.0 * np.arange(3.0)[None, :] + np.pi
    assert got.shape == (4, 3) and got.tobytes() == want.tobytes()


def test_powers_keep_the_bits_of_full_shape_operands():
    import numpy as np

    # numpy may take its sqrt or reciprocal path for an exponent of 0.5 or -1
    # that repeats with stride 0, and round differently from pow
    rows, cols = np.arange(3000), np.arange(3)
    base = np.arange(1.0, 3001.0)[:, None]
    for text, exponent in (("(m+1)^0.5", 0.5), ("(m+1)^-1", -1.0), ("pow(m+1, n)", cols * 1.0)):
        shape = np.broadcast_shapes(base.shape, np.shape(exponent))
        want = np.power(np.full(shape, base), np.full(shape, exponent))
        got = expression_sequence(text).block(rows, cols)
        assert got.tobytes() == np.broadcast_to(want, got.shape).tobytes(), text
    assert expression_sequence("2^3^2").evaluate(0, 0) == 512.0
    assert expression_sequence("-m^2").evaluate(3, 0) == -9.0


def test_spec_parameters_must_belong_to_the_factory():
    with pytest.raises(ValueError, match="accepted: beta"):
        parse_weight_spec("power:zeta=3")
    with pytest.raises(ValueError, match="accepted: none"):
        parse_sequence_spec("alternating:c=2")
    with pytest.raises(ValueError, match=r"^parameter c given twice in 'c=1,c=2'$"):
        parse_sequence_spec("constant:c=1,c=2")
    with pytest.raises(ValueError, match=r"^bad value '1\.5\.' for parameter beta in 'beta=1\.5\.'$"):
        parse_weight_spec("power:beta=1.5.")
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
# value no flag or config key can carry (NaN or a fraction for an integer).
_RULES = [
    ("horizon", 63, ("transform", "--horizon", "63"), "horizon must be >= 64, got 63"),
    ("horizon", NAN, None, "horizon must be >= 64, got nan"),
    ("horizon", 100.5, None, "horizon must be an integer, got 100.5"),
    ("horizon", 128.0, None, "horizon must be an integer, got 128.0"),
    ("horizon", True, None, "horizon must be >= 64, got True"),
    ("class_horizon", 63, ("analyze", "--class-horizon", "63"), "class_horizon must be >= 64, got 63"),
    ("class_horizon", NAN, None, "class_horizon must be >= 64, got nan"),
    ("class_horizon", 1000.5, None, "class_horizon must be an integer, got 1000.5"),
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


# One child process prints, per corpus sequence, command and horizon, the
# exit code and the md5 of every artifact.
_ARTIFACT_DIGESTS = """
import contextlib, hashlib, io
from pathlib import Path
import tauberkit as tk
from tauberkit.cli import main
for name in tk.sequence_names():
    theorem = "T51" if name == "complex_convergent" else "T41"
    for horizon in ("64", "300"):
        for cmd in (["transform"], ["analyze", "--theorem", theorem]):
            out = Path(name, cmd[0], horizon)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([*cmd, "--sequence", name, "--horizon", horizon, "--out", str(out)])
            files = sorted(out.iterdir()) if out.exists() else []
            print(name, cmd[0], horizon, code, *(f"{f.name}:{hashlib.md5(f.read_bytes()).hexdigest()}" for f in files))
"""


def test_corpus_artifacts_keep_their_bits_without_avx512_kernels(tmp_path):
    # numpy dispatches AVX-512 kernels at run time where the CPU has them,
    # and some of them round transcendental functions differently from the
    # baseline ones.  The corpus artifacts must not depend on that, except
    # paper_unbounded's: its rule evaluates np.power(7.0, k), which the
    # AVX-512 kernel rounds differently at some k (with numpy 2.4.6 on an
    # AVX-512 Xeon, sigma.csv at horizons 64 and 300).  Expressions through
    # cli._FUNCTIONS depend on it too and are not checked.
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    groups = [g for g in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
              if g in umath.__cpu_dispatch__ and umath.__cpu_features__.get(g)]
    if not groups:
        pytest.skip("numpy dispatches no AVX-512 kernels on this CPU")
    runs = []
    for disabled in (None, " ".join(groups)):
        cwd = tmp_path / ("without" if disabled else "with")
        cwd.mkdir()
        res = run_python("-c", _ARTIFACT_DIGESTS, cwd=cwd, env={"NPY_DISABLE_CPU_FEATURES": disabled or ""})
        assert res.returncode == 0, res.stderr
        runs.append(res.stdout.splitlines())
    with_avx512, without = runs
    assert len(with_avx512) == len(without) == 2 * 2 * len(sequence_names())
    differ = {a.split()[0] for a, b in zip(with_avx512, without) if a != b}
    assert differ <= {"paper_unbounded"}
