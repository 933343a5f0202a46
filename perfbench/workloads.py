"""The benchmark's workloads: fixed operation lists built from a seed.

An operation is a dict.  ``kind`` is "cli" for an argv passed to
``tauberkit.cli.main`` (the runner appends ``--out``), or "proof" for a
direct call of ``proof_inequality_forward`` / ``proof_inequality_backward``.
``check`` names the output check in ``checks.py``; ``fault`` names the
known fault in the program (F1-F3, see README.md) that makes an operation
fail today.

The seed drives the verify-lemma suite seeds, the proof-inequality and
explicit-split anchors and the sampled check cells.  Anchors sit up to 2 %
above fixed bases, so the work of a round barely depends on the seed.
Each list interleaves its kinds of operation, so that a slow spell of the
machine hits every kind alike.
"""
from __future__ import annotations

import random

FAMILIES = ("ones", "harmonic", "power", "geometric", "wobble")


def _analyze(seq, theorem, horizon, wp="ones", wq="ones", fault=None, expect_horizon=True):
    argv = ["analyze", "--sequence", seq, "--theorem", theorem, "--horizon", str(horizon)]
    if wp != "ones":
        argv += ["--weights-p", wp]
    if wq != "ones":
        argv += ["--weights-q", wq]
    return dict(kind="cli", check="report", argv=argv, sequence=seq, weights_p=wp,
                weights_q=wq, fault=fault,
                expect_horizon=horizon if expect_horizon else None)


def verdicts(rng: random.Random) -> list[dict]:
    analyses = [_analyze(seq, th, h)
                for h in (1024, 2048)
                for th in ("T41", "T51", "T42", "T52")
                for seq in ("additive_convergent", "alternating")]
    # classify-weights for every family at the class horizon analyze uses.
    # At 10^6 these classifications are nearly all pure-Python prefix loop,
    # whose speed swings most with the load on the shared box (see README).
    classify = [dict(kind="cli", check="variation", weights=w, horizon=10**5,
                     argv=["classify-weights", "--weights", w, "--horizon", str(10**5)])
                for w in FAMILIES]
    extras = [
        _analyze("complex_convergent", "T51", 1024, "power", "power"),
        dict(kind="cli", check="sweep", expect_rows=5 * 4 * 9,
             argv=["sweep", "--sequence", "alternating", "--functional", "so_both",
                   "--horizon", "2048"]),
        _analyze("paper_unbounded", "T41", 512, fault="F1", expect_horizon=False),
        _analyze("complex_convergent", "T52", 1024, "power", "power"),
        _analyze("constant", "T41", 512, fault="F1"),
        dict(kind="cli", check="usage_error", fault="F2", label="analyze --weights-p power:zeta=3",
             argv=["analyze", "--sequence", "additive_convergent", "--weights-p", "power:zeta=3"]),
        dict(kind="cli", check="usage_error", fault="F3", label="analyze on a 200-deep expression",
             argv=["analyze", "--sequence", "(" * 200 + "m+n" + ")" * 200, "--horizon", "64"]),
    ]
    return _interleave(analyses, _interleave(extras, classify))


def grid_export(rng: random.Random) -> list[dict]:
    # Six exports of about a second each, one larger and one smaller: the
    # median operation then sits inside a cluster of similar ones, not
    # between two exports of different size.
    specs = [
        ("additive_convergent", "ones", "ones", 768),
        ("complex_convergent", "harmonic", "ones", 512),
        ("1/(m+1)+sin(n)/(n+1)", "power", "harmonic", 768),
        ("1/(m+1)+sin(n)/(n+1)", "ones", "ones", 1280),
        ("additive_convergent", "harmonic", "power", 768),
        ("complex_convergent", "power", "power", 512),
        ("1/(m+1)+sin(n)/(n+1)", "ones", "power", 512),
        ("additive_convergent", "power", "ones", 768),
    ]
    ops = []
    for seq, wp, wq, h in specs:
        cells = [(h, h)] + [(rng.randrange(h + 1), rng.randrange(h + 1)) for _ in range(3)]
        ops.append(dict(kind="cli", check="sigma_csv", sequence=seq, weights_p=wp,
                        weights_q=wq, horizon=h, cells=cells,
                        argv=["transform", "--sequence", seq, "--weights-p", wp,
                              "--weights-q", wq, "--horizon", str(h)]))
    return ops


def lemma_checks(rng: random.Random) -> list[dict]:
    def jitter(base):
        return base + rng.randrange(base // 50 + 1)

    # Every rectangle these anchors sum over stays below 3.8M cells (30 MiB
    # of float64) even at the top of the jitter, clear of glibc's 32 MiB
    # largest mmap threshold: arrays that cross it for some seeds and not
    # for others made the peak resident set jump by 10 % between seeds.
    pairs = [
        ("additive_convergent", "ones", "ones", 300),
        ("separable_convergent", "power", "ones", 1500),
        ("alternating", "ones", "power:beta=2", 700),
        ("additive_convergent", "power", "power", 1400),
        ("separable_convergent", "ones", "ones", 1000),
        ("alternating", "power", "ones", 1600),
    ]
    proofs = []
    for seq, wp, wq, base in pairs:
        m, n = jitter(base), jitter(base)
        for direction in ("forward", "backward"):
            proofs.append(dict(kind="proof", check="proof", direction=direction, sequence=seq,
                               weights_p=wp, weights_q=wq, m=m, n=n, delta=0.5,
                               lam=2.0 if direction == "forward" else 0.5))
    cli = []
    for k in range(2):
        cli.append(dict(kind="cli", check="lemma_csv", expect_rows=200,
                        argv=["verify-lemma", "--seed", str(rng.randrange(2**31)),
                              "--count", "100", "--grid", "20"]))
    for seq, wp, wq, base in (("additive_convergent", "ones", "ones", 900),
                              ("separable_convergent", "power", "power:beta=2", 600)):
        m, n = jitter(base), jitter(base)
        cli.append(dict(kind="cli", check="lemma_csv", expect_rows=1, split=(m, n), delta=0.5,
                        weights_p=wp, weights_q=wq,
                        argv=["verify-lemma", "--sequence", seq, "--weights-p", wp,
                              "--weights-q", wq, "--m", str(m), "--n", str(n),
                              "--delta", "0.5", "--gamma", "0.5"]))
    return _interleave(proofs, cli)


def _interleave(major: list[dict], minor: list[dict]) -> list[dict]:
    """Spread the minor operations evenly through the major ones."""
    out = list(major)
    step = len(major) / (len(minor) + 1)
    for k, op in reversed(list(enumerate(minor))):
        out.insert(round(step * (k + 1)), op)
    return out


WORKLOADS = {
    "verdicts": verdicts,
    "grid_export": grid_export,
    "lemma_checks": lemma_checks,
}

# Every workload's round takes at most about this long on a 2-vCPU x86-64
# box.  A run holds seconds // ROUND_SECONDS rounds: the work of a run is
# fixed by --seconds, never by the clock during the run.
ROUND_SECONDS = 12


def build(workload: str, seed: int, seconds: int) -> list[dict]:
    """The run's operations: whole rounds of the workload's list."""
    rounds = max(1, seconds // ROUND_SECONDS)
    rng = random.Random(f"{workload}:{seed}")
    return [op for _ in range(rounds) for op in WORKLOADS[workload](rng)]
