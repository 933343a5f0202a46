"""Output checks computed apart from tauberkit.

Every reference here comes from closed forms or from ``math.fsum`` over the
benchmark's own weight and sequence formulas; nothing calls into the
package.  Each ``check_*`` function returns a list of problems, empty when
the artifact is right.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# Weight families: p_k and exact prefix sums P_m = p_0 + ... + p_m
# ---------------------------------------------------------------------------

DEFAULT_PARAMS = {"ones": {}, "harmonic": {}, "power": {"beta": 1.0},
                  "geometric": {"r": 2.0}, "wobble": {}}


def parse_weight(spec: str) -> tuple[str, dict]:
    name, _, rest = spec.partition(":")
    params = dict(DEFAULT_PARAMS[name])
    for part in filter(None, rest.split(",")):
        key, _, value = part.partition("=")
        params[key.strip()] = float(value)
    return name, params


def weight_values(spec: str, k_max: int) -> np.ndarray:
    """p_0..p_{k_max} from the family's defining formula."""
    name, prm = parse_weight(spec)
    k = np.arange(k_max + 1, dtype=np.float64)
    if name == "ones":
        return np.ones_like(k)
    if name == "harmonic":
        return 1.0 / (k + 1.0)
    if name == "power":
        return (k + 1.0) ** prm["beta"]
    if name == "geometric":
        return prm["r"] ** k
    return (k + 1.0) ** (1.0 + np.sin(np.log(k + 1.0)))


def exact_prefix(spec: str, m: int) -> int | None:
    """P_m as an integer where a closed form exists, else None."""
    name, prm = parse_weight(spec)
    if name == "ones":
        return m + 1
    if name == "power" and prm["beta"] == 1.0:
        return (m + 1) * (m + 2) // 2
    if name == "power" and prm["beta"] == 2.0:
        return (m + 1) * (m + 2) * (2 * m + 3) // 6
    if name == "geometric" and prm["r"] == 2.0:
        return 2 ** (m + 1) - 1
    return None


def prefix_sums(spec: str, indices) -> dict[int, float]:
    """P_i for each requested index: the closed form rounded once where one
    exists, else chunked math.fsum over the weight formula (each chunk sum is
    exact up to one rounding, so the result is within a few ulps)."""
    want = sorted(set(int(i) for i in indices))
    out = {}
    if prefix_is_exact(spec):
        for i in want:
            out[i] = float(exact_prefix(spec, i))
        return out
    w = weight_values(spec, want[-1])
    chunks: list[float] = []
    done = 0
    for i in want:
        if i + 1 > done:
            chunks.append(math.fsum(w[done:i + 1].tolist()))
            done = i + 1
        out[i] = math.fsum(chunks)
    return out


def prefix_is_exact(spec: str) -> bool:
    return exact_prefix(spec, 0) is not None


def _close(a: float, b: float) -> bool:
    """Equal to 1e-12 relative, for prefixes that are not exact integers."""
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Sequences: u(m, n) from the corpus definitions
# ---------------------------------------------------------------------------

SEPARABLE = {
    # u(m, n) = a(m) + b(n)
    "additive_convergent": (lambda m: 1.0 + 1.0 / np.log(m + 2.0), lambda n: 1.0 / np.log(n + 2.0)),
    "separable_convergent": (lambda m: 2.0 - 1.0 / (m + 1.0), lambda n: 1.0 + 1.0 / (n + 1.0)),
    "1/(m+1)+sin(n)/(n+1)": (lambda m: 1.0 / (m + 1.0), lambda n: np.sin(n) / (n + 1.0)),
    "constant": (lambda m: np.ones_like(m), lambda n: np.zeros_like(n)),
}


def sequence_value(seq: str, m: int, n: int) -> complex | float:
    if seq in SEPARABLE:
        a, b = SEPARABLE[seq]
        return float(a(np.float64(m)) + b(np.float64(n)))
    if seq == "alternating":
        return 1.0 if (m + n) % 2 == 0 else -1.0
    if seq == "complex_convergent":
        return (1.0 + 0.5j) + complex(math.cos(m + n), math.sin(m + n)) / (m + n + 2.0)
    raise KeyError(seq)


def reference_sigma(seq: str, wp: str, wq: str, m: int, n: int) -> tuple[complex | float, float]:
    """sigma(m, n) and the weighted mean of |u| over the same rectangle.

    Separable and product sequences reduce to one-dimensional fsums; the
    complex spiral depends on m + n only, so it reduces to a sum over
    anti-diagonals of the exact weight convolution.
    """
    pw = weight_values(wp, m)
    qw = weight_values(wq, n)
    dp = math.fsum(pw.tolist())
    dq = math.fsum(qw.tolist())
    if seq in SEPARABLE:
        a, b = SEPARABLE[seq]
        av = a(np.arange(m + 1, dtype=np.float64))
        bv = b(np.arange(n + 1, dtype=np.float64))
        val = math.fsum((pw * av).tolist()) / dp + math.fsum((qw * bv).tolist()) / dq
        mag = math.fsum((pw * np.abs(av)).tolist()) / dp + math.fsum((qw * np.abs(bv)).tolist()) / dq
        return val, mag
    if seq == "alternating":
        sp = math.fsum((pw * np.where(np.arange(m + 1) % 2 == 0, 1.0, -1.0)).tolist())
        sq = math.fsum((qw * np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)).tolist())
        return (sp * sq) / (dp * dq), 1.0
    if seq == "complex_convergent":
        conv = _exact_convolution(wp, wq, m, n)
        s = np.arange(m + n + 1, dtype=np.float64)
        spiral = conv / (s + 2.0)
        re = math.fsum([*conv.tolist(), *(spiral * np.cos(s)).tolist()])
        im = math.fsum([*(0.5 * conv).tolist(), *(spiral * np.sin(s)).tolist()])
        mag = math.fsum((conv * np.abs((1.0 + 0.5j) + np.exp(1j * s) / (s + 2.0))).tolist())
        return complex(re, im) / (dp * dq), mag / (dp * dq)
    raise KeyError(seq)


def _exact_convolution(wp: str, wq: str, m: int, n: int) -> np.ndarray:
    """c_s = sum_{i+j=s} p_i q_j, exact in integers for integer weights and
    otherwise one fsum per anti-diagonal."""
    if all(parse_weight(w)[0] in ("ones", "power") and parse_weight(w)[1].get("beta", 1.0) in (1.0, 2.0)
           for w in (wp, wq)):
        pi = np.rint(weight_values(wp, m)).astype(np.int64)
        qi = np.rint(weight_values(wq, n)).astype(np.int64)
        return np.convolve(pi, qi).astype(np.float64)
    pw = weight_values(wp, m)
    qw = weight_values(wq, n)
    out = np.empty(m + n + 1)
    for s in range(m + n + 1):
        lo, hi = max(0, s - n), min(m, s)
        out[s] = math.fsum((pw[lo:hi + 1] * qw[s - hi:s - lo + 1][::-1]).tolist())
    return out


# ---------------------------------------------------------------------------
# Choosers by linear scan over exact prefixes
# ---------------------------------------------------------------------------


def chooser_forward(spec: str, m: int, delta: float) -> int:
    """Least i > m with P_i >= (1 + delta/2) * P_m, scanning upward."""
    target = (1.0 + delta / 2.0) * float(exact_prefix(spec, m))
    i = m + 1
    while float(exact_prefix(spec, i)) < target:
        i += 1
    return i


def chooser_backward(spec: str, m: int, delta: float) -> int:
    """Largest i with (1 + delta/2) * P_i <= P_m, scanning downward."""
    factor = 1.0 + delta / 2.0
    pm = float(exact_prefix(spec, m))
    i = m
    while i >= 0 and factor * float(exact_prefix(spec, i)) > pm:
        i -= 1
    return i


# ---------------------------------------------------------------------------
# Artifact checks
# ---------------------------------------------------------------------------

EXPECTED_KIND = {"ones": "RegularlyVarying", "harmonic": "RegularlyVarying",
                 "power": "RegularlyVarying", "geometric": "RapidlyVarying",
                 "wobble": "Inconclusive"}


def expected_index(spec: str) -> float | None:
    """Regular-variation index of P: beta + 1 for power weights."""
    name, prm = parse_weight(spec)
    if name == "power":
        return prm["beta"] + 1.0
    return {"ones": 1.0, "harmonic": 0.0}.get(name)


def check_class_samples(spec: str, doc: dict) -> list[str]:
    """Prefix ratios P_floor(lam m)/P_m and the final P_{h-1}/P_h of one
    classification, against exact prefixes."""
    problems = []
    h = doc["horizon"]
    idx = [h - 1, h]
    for lam, m, _ in doc["samples"]:
        idx += [m, int(math.floor(lam * m))]
    ref = prefix_sums(spec, idx)
    # Integer prefixes below 2**53 are exact doubles, so their ratios must
    # match bit for bit; others get a relative tolerance.
    exact = prefix_is_exact(spec) and exact_prefix(spec, max(idx)) < 2**53
    for lam, m, ratio in doc["samples"]:
        want = ref[int(math.floor(lam * m))] / ref[m]
        if not (ratio == want if exact else _close(ratio, want)):
            problems.append(f"{spec}: ratio at lambda={lam}, m={m} is {ratio!r}, expected {want!r}")
    tail = ref[h - 1] / ref[h]
    if not (doc["lemma23_tail"] == tail if exact else _close(doc["lemma23_tail"], tail)):
        problems.append(f"{spec}: lemma23_tail {doc['lemma23_tail']!r}, expected {tail!r}")
    name = parse_weight(spec)[0]
    if doc["kind"] != EXPECTED_KIND[name]:
        problems.append(f"{spec}: kind {doc['kind']}, expected {EXPECTED_KIND[name]}")
    alpha = expected_index(spec)
    if doc["kind"] == "RegularlyVarying" and alpha is not None and abs(doc["alpha_hat"] - alpha) > doc["tol"]:
        problems.append(f"{spec}: alpha_hat {doc['alpha_hat']} not within {doc['tol']} of {alpha}")
    return problems


def geometric_horizon(requested: int) -> int:
    """Horizon classify_adaptive must settle on for geometric(r=2).

    P_k = 2^(k+1) - 1 overflows doubles at k = 1023, and classification at
    horizon h reads prefixes up to index h, so the halving ladder stops at
    the first h <= 1022.
    """
    h = requested
    while h > 1022:
        h //= 2
    return h


def check_variation(spec: str, requested: int, exit_code: int, out: Path) -> list[str]:
    path = out / "variation.json"
    if not path.exists():
        return [f"{spec}: no variation.json"]
    doc = json.loads(path.read_text())
    problems = check_class_samples(spec, doc)
    want_h = geometric_horizon(requested) if parse_weight(spec) == ("geometric", {"r": 2.0}) else requested
    if doc["horizon_used"] != want_h or doc["horizon"] != want_h:
        problems.append(f"{spec}: horizon_used {doc['horizon_used']}, expected {want_h}")
    if (doc["note"] is None) != (want_h == requested):
        problems.append(f"{spec}: note {doc['note']!r} disagrees with the horizon used")
    want_code = 3 if doc["kind"] == "Inconclusive" else 0
    if exit_code != want_code:
        problems.append(f"{spec}: exit {exit_code} for kind {doc['kind']}, expected {want_code}")
    return problems


def profile_stats(doc: dict, functional: str) -> list[tuple[float, int, float | None]]:
    return [(r["lambda"], r["horizon"], r["stat"]) for r in doc["condition_profiles"][functional]["rungs"]]


def check_report(op: dict, exit_code: int, out: Path) -> list[str]:
    """One analyze run: exit code against the written report, the weight
    classes, the two limit estimates, and closed-form profiles."""
    label = " ".join(op["argv"][:5])
    path = out / "report.json"
    if not path.exists():
        return [f"{label}: no report.json (exit {exit_code})"]
    doc = json.loads(path.read_text())
    problems = []
    rv = doc["weight_class_p"]["kind"] == "RegularlyVarying" and doc["weight_class_q"]["kind"] == "RegularlyVarying"
    want_code = 5 if not rv else (4 if doc["verdict"] == "Inconsistent" else 0)
    if exit_code != want_code:
        problems.append(f"{label}: exit {exit_code}, report implies {want_code} ({doc['verdict']})")
    if not (out / "profiles.csv").exists():
        problems.append(f"{label}: no profiles.csv")
    for side in ("p", "q"):
        spec = op["weights_" + side]
        problems += check_class_samples(spec, doc["weight_class_" + side])
    seq, h = op["sequence"], doc["horizon"]
    if op.get("expect_horizon") is not None and h != op["expect_horizon"]:
        problems.append(f"{label}: evaluated at horizon {h}, expected {op['expect_horizon']}")
    if seq in SEPARABLE or seq in ("alternating", "complex_convergent"):
        want_sigma, mag = reference_sigma(seq, op["weights_p"], op["weights_q"], h, h)
        got = doc["sigma_limit"]["value"]
        got = complex(got["re"], got["im"]) if isinstance(got, dict) else got
        if abs(got - want_sigma) > 1e-11 * mag:
            problems.append(f"{label}: sigma({h},{h}) = {got!r}, expected {want_sigma!r}")
        want_u = sequence_value(seq, h, h)
        got_u = doc["u_limit"]["value"]
        got_u = complex(got_u["re"], got_u["im"]) if isinstance(got_u, dict) else got_u
        if abs(got_u - want_u) > 1e-14 * max(1.0, abs(want_u)):
            problems.append(f"{label}: u({h},{h}) = {got_u!r}, expected {want_u!r}")
    if seq == "alternating":
        # u alternates in sign.  The tail anchors of the horizons 1024 and
        # 2048 (h/2, 3h/4, h of each rung) all have m + n even, so u = 1
        # there, and every window of two or more cells drops to -1: the
        # worst one-sided drop is -2 and the worst spread 2.  Under unit
        # weights the weighted one-step differences are 2(m+1) in size,
        # largest at m = h.
        for name in doc["condition_profiles"]:
            for lam, rung_h, stat in profile_stats(doc, name):
                want = {"sd": -2.0, "so": 2.0, "landau": -2.0 * (rung_h + 1),
                        "hardy": 2.0 * (rung_h + 1)}[name.partition("_")[0]]
                if stat is not None and stat != want:
                    problems.append(f"{label}: {name} at lambda={lam}, h={rung_h} is {stat!r}, expected {want}")
    return problems


def check_sweep(op: dict, exit_code: int, out: Path) -> list[str]:
    """so_both on alternating under unit weights: 2.0 at every sampled cell
    whose window holds more than one cell, 0.0 where it holds only (m, n)."""
    path = out / "sweep.csv"
    if exit_code != 0 or not path.exists():
        return [f"sweep: exit {exit_code}, sweep.csv present: {path.exists()}"]
    lines = path.read_text().splitlines()
    problems = []
    if lines[0] != "functional,lambda,kappa,horizon,m,n,value":
        problems.append(f"sweep: header {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != op["expect_rows"]:
        problems.append(f"sweep: {len(rows)} rows, expected {op['expect_rows']}")
    sampled = [r for r in rows if r[6] != ""]
    if not sampled:
        problems.append("sweep: no cell was sampled")
    bad = []
    for row in sampled:
        lam, kap, m, n = float(row[1]), float(row[2]), int(row[4]), int(row[5])
        # the window's last index is the largest i with P_i = i + 1 <= lam * P_m
        wide = math.floor(lam * (m + 1)) - 1 > m or math.floor(kap * (n + 1)) - 1 > n
        if row[0] != "so_both" or float(row[6]) != (2.0 if wide else 0.0):
            bad.append(row)
    if bad:
        problems.append(f"sweep: {len(bad)} cells differ from so_both = 2, first {bad[0]}")
    return problems


def check_sigma_csv(op: dict, exit_code: int, out: Path) -> list[str]:
    """Shape of sigma.csv, and seeded sample cells against exact sums."""
    path = out / "sigma.csv"
    label = f"transform {op['sequence']} {op['weights_p']}/{op['weights_q']} H={op['horizon']}"
    if exit_code != 0 or not path.exists():
        return [f"{label}: exit {exit_code}, sigma.csv present: {path.exists()}"]
    h = op["horizon"]
    # The grid is written row-major, so cell (m, n) is on line 1 + m(h+1) + n.
    wanted = {1 + m * (h + 1) + n: (m, n) for m, n in op["cells"]}
    found = {}
    problems = []
    with open(path, "rb") as fh:
        # Small chunks keep the split lines from raising the run's peak RSS.
        lines, carry = 0, b""  # complete lines so far; the unfinished one
        while chunk := fh.read(1 << 16):
            parts = (carry + chunk).split(b"\n")
            carry = parts.pop()
            for row in wanted:
                if lines <= row < lines + len(parts):
                    found[row] = parts[row - lines].decode()
            if lines == 0 and parts[:1] != [b"m,n,value_re,value_im"]:
                problems.append(f"{label}: bad header")
            lines += len(parts)
    if lines != 1 + (h + 1) ** 2 or carry:
        problems.append(f"{label}: {lines - 1} rows, expected {(h + 1) ** 2}")
    for row, (m, n) in wanted.items():
        fields = found.get(row, "").split(",")
        if len(fields) != 4 or fields[:2] != [str(m), str(n)]:
            problems.append(f"{label}: line {row} is {found.get(row)!r}, expected cell ({m}, {n})")
            continue
        _, _, re_s, im_s = fields
        got = complex(float(re_s), float(im_s))
        want, mag = reference_sigma(op["sequence"], op["weights_p"], op["weights_q"], m, n)
        if abs(got - want) > 1e-11 * mag:
            problems.append(f"{label}: sigma({m},{n}) = {got!r}, expected {want!r}")
        if op["sequence"] != "complex_convergent" and im_s != "0":
            problems.append(f"{label}: real grid has imaginary part {im_s!r} at ({m},{n})")
    return problems


def check_lemma_csv(op: dict, exit_code: int, out: Path) -> list[str]:
    """Residuals at rounding level; explicit splits use the linear-scan chooser."""
    path = out / "lemma_residuals.csv"
    if exit_code != 0 or not path.exists():
        return [f"verify-lemma: exit {exit_code}, csv present: {path.exists()}"]
    lines = path.read_text().splitlines()
    problems = []
    if lines[0] != "m,n,mu,eta,direction,residual":
        problems.append(f"verify-lemma: header {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != op["expect_rows"]:
        problems.append(f"verify-lemma: {len(rows)} rows, expected {op['expect_rows']}")
    for m, n, mu, eta, direction, res in rows:
        m, n, mu, eta = int(m), int(n), int(mu), int(eta)
        if not float(res) <= 1e-9:
            problems.append(f"verify-lemma: residual {res} at ({m},{n},{mu},{eta})")
        fwd = direction == "forward"
        if (mu > m) != fwd or (eta > n) != fwd:
            problems.append(f"verify-lemma: {direction} split ({m},{n},{mu},{eta}) points the wrong way")
    if "split" in op:
        m, n = op["split"]
        want = [str(m), str(n), str(chooser_forward(op["weights_p"], m, op["delta"])),
                str(chooser_forward(op["weights_q"], n, op["delta"]))]
        if rows and rows[0][:4] != want:
            problems.append(f"verify-lemma: split {rows[0][:4]}, linear scan gives {want}")
    return problems


def check_proof(op: dict, ineq) -> list[str]:
    """One proof inequality: it holds, its chooser indices match a linear
    scan, and its left side u(m,n) - sigma(m,n) matches exact sums."""
    m, n, d = op["m"], op["n"], op["delta"]
    label = f"proof {op['direction']} {op['sequence']} {op['weights_p']}/{op['weights_q']} ({m},{n})"
    problems = []
    if not ineq.holds or not ineq.margin >= -ineq.slack:
        problems.append(f"{label}: fails, margin {ineq.margin!r} slack {ineq.slack!r}")
    chooser = chooser_forward if op["direction"] == "forward" else chooser_backward
    want = (chooser(op["weights_p"], m, d), chooser(op["weights_q"], n, d))
    if (ineq.mu, ineq.eta) != want:
        problems.append(f"{label}: chooser gave {(ineq.mu, ineq.eta)}, linear scan {want}")
    sigma, mag = reference_sigma(op["sequence"], op["weights_p"], op["weights_q"], m, n)
    lhs = sequence_value(op["sequence"], m, n) - sigma
    if abs(ineq.lhs - lhs) > 1e-12 * (mag + abs(sequence_value(op["sequence"], m, n))):
        problems.append(f"{label}: lhs {ineq.lhs!r}, expected {lhs!r}")
    return problems


def check_usage_error(op: dict, exit_code: int, stderr: str) -> list[str]:
    """A bad input must end in exit 2 with a one-line error message."""
    lines = stderr.strip().splitlines()
    if exit_code != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
        return [f"{op['label']}: exit {exit_code}, stderr {stderr.strip()[:200]!r}"]
    return []
