"""Command line front end.

Five subcommands: classify-weights, transform, analyze, verify-lemma, and
sweep.  Options resolve as flags over config file over defaults, and the
result is checked once; HarnessConfig owns the harness settings' rules.
Outputs are deterministic: fixed file names inside --out, floats printed
with 17 significant digits, randomized runs driven entirely by --seed.

Exit codes: 0 success, 1 a numeric failure or a request over the cell
budget stopped the run (or a verify-lemma residual landed above tolerance),
2 bad usage or configuration, a value outside its rule included, 3 weight
classification came back inconclusive, 4 analyze produced an inconsistent
verdict, 5 analyze ran on weights outside the regularly varying class
(report still written).
"""
from __future__ import annotations

import argparse
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ScalarKindError, TauberkitError
from .harness import (
    HarnessConfig,
    Theorem,
    Verdict,
    choose_mu,
    horizon_ladder,
    lemma_forward,
    lemma_residual_suite,
    report_json,
    verify_theorem,
)
from .oscillation import export_profiles_csv, export_samples_csv, profile_samples, window_functional_names
from .sequences import (
    DoubleSequence,
    corpus_sequence,
    corpus_weight,
    sequence_names,
    weight_names,
)
from .transform import export_grid_csv, format_float, weighted_mean_field
from .variation import VariationKind, classification_report, classify_adaptive


@dataclass(frozen=True)
class RunConfig:
    """Every setting a subcommand can consume, named as in config files.

    harness() maps the harness settings onto a HarnessConfig, which owns
    their rules, under the same names except that ``tol`` is ``class_tol``.
    """

    sequence: str = "additive_convergent"
    weights_p: str = "ones"
    weights_q: str = "ones"
    theorem: str = "T41"
    functional: str = "sd_P"
    horizon: int = 512
    lambda_ladder: tuple[float, ...] = (2.0, 1.5, 1.25, 1.1, 1.05)
    kappa_ladder: tuple[float, ...] | None = None
    delta: float = 0.5
    gamma: float = 0.5
    tail_fraction: float = 0.5
    tol: float = 0.05
    eps_dec: float = 0.05
    eps_agree: float | None = None
    class_horizon: int = 10**5
    seed: int = 0
    count: int = 100
    grid: int = 20
    out_dir: str = "."

    def harness(self) -> HarnessConfig:
        """The harness settings among these fields; building them checks their rules."""
        shared = {
            f.name: getattr(self, f.name) for f in fields(HarnessConfig) if f.name != "class_tol"
        }
        return HarnessConfig(class_tol=self.tol, **shared)

    def validate(self) -> None:
        """Raise ValueError unless every field keeps its rule; harness() checks most."""
        self.harness()
        for name in ("delta", "gamma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.theorem not in {t.value for t in Theorem}:
            raise ValueError(f"theorem must be one of T41, T42, T51, T52, got {self.theorem}")
        if self.functional not in window_functional_names():
            raise ValueError(
                f"functional must be one of {', '.join(window_functional_names())}, "
                f"got {self.functional}"
            )
        for name, least in (("seed", 0), ("count", 1), ("grid", 8)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


def _is_number(x, integral: bool = False) -> bool:
    return not isinstance(x, bool) and isinstance(x, int if integral else (int, float))


def _check_config_value(key: str, annotation: str, value) -> None:
    """Raise ValueError unless a JSON config value fits its RunConfig field.

    ``annotation`` is the field's annotation text.  A float field takes any
    number, an int field only an integer, a ladder a list of numbers, and
    a field annotated ``| None`` also takes null.
    """
    optional = annotation.endswith(" | None")
    if value is None and optional:
        return
    if annotation.startswith("tuple"):
        ok, expected = isinstance(value, list) and all(map(_is_number, value)), "a list of numbers"
    elif annotation.startswith("float"):
        ok, expected = _is_number(value), "a number"
    elif annotation == "int":
        ok, expected = _is_number(value, integral=True), "an integer"
    else:
        ok, expected = isinstance(value, str), "a string"
    if not ok:
        expected += " or null" if optional else ""
        raise ValueError(f"config key {key} must be {expected}, got {json.dumps(value)}")


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for f in fields(RunConfig):
        if f.name in data:
            _check_config_value(f.name, f.type, data[f.name])
    for key in ("lambda_ladder", "kappa_ladder"):
        if data.get(key) is not None:
            data[key] = tuple(float(x) for x in data[key])
    return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **_load_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = v
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Sequence expressions
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<id>[A-Za-z_]+)|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = {
    "log": np.log,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


# Deepest nesting of parentheses, calls, unary minus and powers accepted;
# each level costs the parser about five stack frames.
MAX_EXPR_DEPTH = 100


class _ExprParser:
    """Recursive-descent parser for grid expressions in m and n.

    Grammar: + - * / ^ (right-assoc), unary minus, parentheses, the
    variables m and n, pi and e, one-argument log/exp/sin/cos/sqrt/abs,
    and two-argument pow.  Compiles to a closure over numpy index arrays.
    Chains of + - and * / compile to one loop each, so only nesting, which
    is capped at MAX_EXPR_DEPTH, deepens the parser or the closure.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = self._lex(text)
        self.pos = 0
        self.depth = 0

    @staticmethod
    def _lex(text: str):
        tokens = []
        pos = 0
        while pos < len(text):
            mt = _TOKEN.match(text, pos)
            if not mt or mt.end() == pos:
                raise ValueError(f"bad character {text[pos]!r} in expression at {pos}")
            if mt.lastgroup == "num":
                tokens.append(("num", float(mt.group("num"))))
            elif mt.group("id"):
                tokens.append(("id", mt.group("id")))
            else:
                tokens.append(("op", mt.group("op")))
            pos = mt.end()
        tokens.append(("end", None))
        return tokens

    def _peek(self):
        return self.tokens[self.pos]

    def _take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind and tok[0] != kind or value is not None and tok[1] != value:
            raise ValueError(f"expected {value or kind} at token {self.pos} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self._expr()
        if self._peek()[0] != "end":
            raise ValueError(f"trailing input after expression in {self.text!r}")
        return node

    def _chain(self, operand, ops):
        """Left-associative chain ``a op b op c ...`` evaluated in one loop."""
        first = operand()
        rest = []
        while self._peek()[0] == "op" and self._peek()[1] in ops:
            rest.append((ops[self._take()[1]], operand()))
        if not rest:
            return first

        def node(M, N):
            acc = first(M, N)
            for op, rhs in rest:
                acc = op(acc, rhs(M, N))
            return acc

        return node

    def _expr(self):
        return self._chain(self._term, {"+": operator.add, "-": operator.sub})

    def _term(self):
        return self._chain(self._unary, {"*": operator.mul, "/": operator.truediv})

    def _unary(self):
        # depth counts the enclosing levels; the outermost one is level 0.
        if self.depth > MAX_EXPR_DEPTH:
            raise ValueError(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        self.depth += 1
        try:
            if self._peek() == ("op", "-"):
                self._take()
                inner = self._unary()
                return lambda M, N: -inner(M, N)
            return self._power()
        finally:
            self.depth -= 1

    def _power(self):
        base = self._atom()
        if self._peek() == ("op", "^"):
            self._take()
            exponent = self._unary()
            return lambda M, N: np.power(base(M, N), exponent(M, N))
        return base

    def _atom(self):
        kind, value = self._peek()
        if kind == "num":
            self._take()
            return lambda M, N, v=value: np.full(np.broadcast_shapes(M.shape, N.shape), v)
        if kind == "id":
            self._take()
            if value == "m":
                return lambda M, N: np.broadcast_to(M, np.broadcast_shapes(M.shape, N.shape)).astype(np.float64)
            if value == "n":
                return lambda M, N: np.broadcast_to(N, np.broadcast_shapes(M.shape, N.shape)).astype(np.float64)
            if value == "pi":
                return lambda M, N: np.full(np.broadcast_shapes(M.shape, N.shape), math.pi)
            if value == "e":
                return lambda M, N: np.full(np.broadcast_shapes(M.shape, N.shape), math.e)
            if value == "pow":
                self._take("op", "(")
                a = self._expr()
                self._take("op", ",")
                b = self._expr()
                self._take("op", ")")
                return lambda M, N: np.power(a(M, N), b(M, N))
            if value in _FUNCTIONS:
                fn = _FUNCTIONS[value]
                self._take("op", "(")
                inner = self._expr()
                self._take("op", ")")
                return lambda M, N: fn(inner(M, N))
            raise ValueError(f"unknown name {value!r} in expression")
        if (kind, value) == ("op", "("):
            self._take()
            node = self._expr()
            self._take("op", ")")
            return node
        raise ValueError(f"unexpected token {value!r} in {self.text!r}")


def expression_sequence(text: str) -> DoubleSequence:
    """Compile an expression in m and n into a real sequence."""
    rule = _ExprParser(text).parse()
    return DoubleSequence(name=text, rule=rule)


_PARAM_SPEC = re.compile(r"^([A-Za-z_]+)=([-+0-9.eE]+)$")


def _parse_params(spec: str) -> dict[str, float]:
    params = {}
    for part in spec.split(","):
        mt = _PARAM_SPEC.match(part.strip())
        if not mt:
            raise ValueError(f"bad parameter {part!r}; expected key=value")
        params[mt.group(1)] = float(mt.group(2))
    return params


def parse_sequence_spec(spec: str) -> DoubleSequence:
    """A corpus name, optionally with key=value parameters after a colon,
    or a free-form expression in m and n."""
    name, _, rest = spec.partition(":")
    if name in sequence_names():
        return corpus_sequence(name, **(_parse_params(rest) if rest else {}))
    if re.fullmatch(r"[A-Za-z_]+", spec) and spec not in ("m", "n"):
        raise ValueError(
            f"unknown sequence {spec!r}; known: {', '.join(sequence_names())} "
            f"(or an expression in m and n)"
        )
    return expression_sequence(spec)


def parse_weight_spec(spec: str):
    name, _, rest = spec.partition(":")
    if name not in weight_names():
        raise ValueError(f"unknown weight family {name!r}; known: {', '.join(weight_names())}")
    return corpus_weight(name, **(_parse_params(rest) if rest else {}))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _weight_pair(cfg: RunConfig):
    """Row and column weights; one spec for both axes gives one shared object,
    so its prefix cache and classification are computed once."""
    p = parse_weight_spec(cfg.weights_p)
    q = p if cfg.weights_q == cfg.weights_p else parse_weight_spec(cfg.weights_q)
    return p, q


def cmd_classify_weights(cfg: RunConfig) -> int:
    p = parse_weight_spec(cfg.weights_p)
    vc, used, note = classify_adaptive(p, cfg.class_horizon, cfg.tol)
    payload = classification_report(p.name, vc)
    payload["horizon_requested"] = cfg.class_horizon
    payload["horizon_used"] = used
    payload["note"] = note
    _write_json(_out_dir(cfg) / "variation.json", payload)
    print(f"{p.name}: {vc.kind.value}" + (f" alpha_hat={format_float(vc.alpha_hat)}" if vc.alpha_hat is not None else ""))
    return 3 if vc.kind is VariationKind.INCONCLUSIVE else 0


def cmd_transform(cfg: RunConfig) -> int:
    seq = parse_sequence_spec(cfg.sequence)
    p, q = _weight_pair(cfg)
    fieldv = weighted_mean_field(seq, p, q, cfg.horizon, cfg.horizon)
    out = _out_dir(cfg) / "sigma.csv"
    export_grid_csv(fieldv.sigma, str(out))
    print(f"wrote {out}")
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    seq = parse_sequence_spec(cfg.sequence)
    p, q = _weight_pair(cfg)
    report = verify_theorem(seq, p, q, Theorem(cfg.theorem), cfg.harness())
    out = _out_dir(cfg)
    _write_json(out / "report.json", report_json(report))
    export_profiles_csv(list(report.condition_profiles.values()), str(out / "profiles.csv"))
    print(f"{cfg.theorem} on {seq.name}: {report.verdict.value}")
    if (
        report.weight_class_p.kind is not VariationKind.REGULARLY_VARYING
        or report.weight_class_q.kind is not VariationKind.REGULARLY_VARYING
    ):
        return 5
    return 4 if report.verdict is Verdict.INCONSISTENT else 0


def cmd_verify_lemma(
    cfg: RunConfig,
    m: int | None = None,
    n: int | None = None,
    mu: int | None = None,
    eta: int | None = None,
) -> int:
    """Randomized residual suite by default; --m/--n pin one explicit split."""
    if m is not None or n is not None:
        if m is None or n is None:
            raise ValueError("an explicit split needs both --m and --n")
        seq = parse_sequence_spec(cfg.sequence)
        p, q = _weight_pair(cfg)
        if mu is None:
            mu = choose_mu(p, m, cfg.delta)
        if eta is None:
            eta = choose_mu(q, n, cfg.gamma)
        results = [lemma_forward(seq, p, q, m, n, mu, eta)]
    else:
        results = lemma_residual_suite(cfg.count, cfg.grid, cfg.seed)
    out = _out_dir(cfg) / "lemma_residuals.csv"
    with open(out, "w", newline="") as fh:
        fh.write("m,n,mu,eta,direction,residual\n")
        for dec in results:
            fh.write(
                f"{dec.m},{dec.n},{dec.mu},{dec.eta},{dec.direction},"
                f"{format_float(dec.rel_residual)}\n"
            )
    worst = max(dec.rel_residual for dec in results)
    print(f"wrote {out}")
    print(f"max relative residual {format_float(worst)} over {len(results)} splits")
    return 0 if worst <= 1e-9 else 1


def cmd_sweep(cfg: RunConfig) -> int:
    seq = parse_sequence_spec(cfg.sequence)
    p, q = _weight_pair(cfg)
    ladder = horizon_ladder(cfg.horizon)
    samples = profile_samples(
        seq,
        p,
        q,
        cfg.functional,
        ladder,
        list(cfg.lambda_ladder),
        kappa_ladder=list(cfg.kappa_ladder) if cfg.kappa_ladder else None,
        tail_fraction=cfg.tail_fraction,
    )
    out = _out_dir(cfg) / "sweep.csv"
    export_samples_csv(samples, str(out), cfg.functional)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser, horizon_dest: str = "horizon") -> None:
    sp.add_argument("--config", help="JSON file with RunConfig fields")
    sp.add_argument("--seed", type=int, help="seed for randomized commands")
    sp.add_argument("--horizon", dest=horizon_dest, type=int, help="grid extent (>= 64)")
    sp.add_argument("--out", dest="out_dir", help="output directory (default .)")


def _add_sequence_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--sequence", help="corpus name or expression in m and n")
    sp.add_argument("--weights-p", dest="weights_p", help="row weight family, e.g. power:beta=1.5")
    sp.add_argument("--weights-q", dest="weights_q", help="column weight family")


def _add_scale_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--lambdas", dest="lambda_ladder", type=_ladder, help="comma-separated, decreasing, all > 1")
    sp.add_argument("--kappas", dest="kappa_ladder", type=_ladder, help="column ladder (defaults to --lambdas)")
    sp.add_argument("--tail-fraction", dest="tail_fraction", type=float)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tauberkit",
        description="Weighted means of double sequences and their limit checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify-weights", help="classify weight growth")
    _add_common(sp, horizon_dest="class_horizon")
    sp.add_argument("--weights", dest="weights_p", help="weight family, e.g. power:beta=1.5")
    sp.add_argument("--tol", type=float, help="classification tolerance")

    sp = sub.add_parser("transform", help="export the weighted mean grid")
    _add_common(sp)
    _add_sequence_flags(sp)

    sp = sub.add_parser("analyze", help="full verdict for one theorem")
    _add_common(sp)
    _add_sequence_flags(sp)
    sp.add_argument("--theorem", choices=[t.value for t in Theorem])
    _add_scale_flags(sp)
    sp.add_argument("--eps-dec", dest="eps_dec", type=float)
    sp.add_argument("--eps-agree", dest="eps_agree", type=float)
    sp.add_argument("--tol", type=float, help="classification tolerance")
    sp.add_argument("--class-horizon", dest="class_horizon", type=int)

    sp = sub.add_parser("verify-lemma", help="decomposition residuals on random grids")
    _add_common(sp)
    sp.add_argument("--count", type=int, help="number of random grids")
    sp.add_argument("--grid", type=int, help="random grid side length")
    _add_sequence_flags(sp)
    sp.add_argument("--m", type=int, help="row anchor for one explicit split")
    sp.add_argument("--n", type=int, help="column anchor for one explicit split")
    sp.add_argument("--mu", type=int, help="row split (default: chooser at --delta)")
    sp.add_argument("--eta", type=int, help="column split (default: chooser at --gamma)")
    sp.add_argument("--delta", type=float)
    sp.add_argument("--gamma", type=float)

    sp = sub.add_parser("sweep", help="per-cell values of one functional across scales")
    _add_common(sp)
    _add_sequence_flags(sp)
    sp.add_argument("--functional", choices=window_functional_names())
    _add_scale_flags(sp)

    return ap


def _ladder(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}") from None


_COMMANDS = {
    "classify-weights": cmd_classify_weights,
    "transform": cmd_transform,
    "analyze": cmd_analyze,
    "verify-lemma": cmd_verify_lemma,
    "sweep": cmd_sweep,
}


# Exit code of each failure, first match wins: bad names, parameters,
# files and config, an order-sensitive check asked of a complex sequence,
# and a bad weight (a TauberkitError that is also a ValueError) exit 2;
# any other failure of the computation exits 1.
_EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (ValueError, 2),
    (KeyError, 2),
    (OSError, 2),
    (ScalarKindError, 2),
    (TauberkitError, 1),
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = resolve_config(args)
        if args.command == "verify-lemma":
            return cmd_verify_lemma(cfg, m=args.m, n=args.n, mu=args.mu, eta=args.eta)
        return _COMMANDS[args.command](cfg)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
