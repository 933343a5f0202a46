"""Double sequences, positive weight systems, and finite evaluation grids.

A DoubleSequence is a pure rule on the integer quarter-plane m,n >= 0,
evaluated through a single vectorized path so scalar lookups and bulk grids
agree bit for bit.  A WeightSequence owns a one-sided positive weight rule
together with a cache of its partial sums.
"""
from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    HorizonError,
    MonotonicityError,
    NonFiniteValueError,
    PrefixOverflowError,
    ResourceLimitError,
    WeightDomainError,
)

# Hard ceiling on the cells of one grid, ~2 GiB of float64.  eval_grid (u)
# and weighted_mean_field (sigma) hold one whole grid each, sigma_single two
# (u and its products; a lemma split runs it where its band pass fails).
# analyze refuses the same horizons but holds only row bands.
MAX_GRID_CELLS = 1 << 28

# Bytes of u in one band of _row_bands.  On a 2-vCPU Xeon (numpy 2.4), the
# window engine's T41 and T51 sets at H = 2048 ran within 6 % of 2^20-byte
# bands and 3-13 % faster than 2^18 (medians of three processes).
_BAND_BYTES = 1 << 19


class ScalarKind(Enum):
    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        """The dtype that holds a value of this kind."""
        return np.dtype(np.float64 if self is ScalarKind.REAL else np.complex128)


@dataclass(frozen=True)
class DoubleSequence:
    """A rule u(m, n) on m, n >= 0 with a declared scalar kind.

    ``rule`` receives integer ndarrays (broadcastable to a common shape) and
    must return values of that shape.  Scalar evaluation goes through the
    same code path as block evaluation, so there is exactly one rounding
    story per cell.
    """

    name: str
    rule: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kind: ScalarKind = ScalarKind.REAL
    declared_limit: float | complex | None = None

    def block(self, m_idx: np.ndarray, n_idx: np.ndarray) -> np.ndarray:
        """Evaluate on the product of two index vectors; shape (len(m), len(n))."""
        m_idx = np.asarray(m_idx, dtype=np.int64)
        n_idx = np.asarray(n_idx, dtype=np.int64)
        if m_idx.size and m_idx.min() < 0:
            raise ValueError(f"{self.name}: negative row index {int(m_idx.min())}")
        if n_idx.size and n_idx.min() < 0:
            raise ValueError(f"{self.name}: negative column index {int(n_idx.min())}")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = self.rule(m_idx[:, None], n_idx[None, :])
        out = np.asarray(out, dtype=self.kind.dtype)
        if out.shape != (m_idx.size, n_idx.size):
            out = np.broadcast_to(out, (m_idx.size, n_idx.size)).copy()
        return out

    def evaluate(self, m: int, n: int) -> float | complex:
        if m < 0 or n < 0:
            raise ValueError(f"{self.name}: indices must be >= 0, got ({m}, {n})")
        return self.block(np.array([m]), np.array([n]))[0, 0].item()


@dataclass(frozen=True)
class Grid:
    """A materialized rectangle of sequence values, rows 0..m_max, cols 0..n_max."""

    m_max: int
    n_max: int
    values: np.ndarray = field(repr=False)
    kind: ScalarKind = ScalarKind.REAL

    def __post_init__(self):
        expect = (self.m_max + 1, self.n_max + 1)
        if self.values.shape != expect:
            raise ValueError(f"grid shape {self.values.shape} != {expect}")
        if self.kind is ScalarKind.REAL and np.iscomplexobj(self.values):
            raise ValueError(f"a real grid cannot hold {self.values.dtype} values")


def _check_grid(seq: DoubleSequence, m_max: int, n_max: int) -> None:
    """Refuse negative bounds and grids over MAX_GRID_CELLS."""
    if m_max < 0 or n_max < 0:
        raise ValueError(f"grid bounds must be >= 0, got ({m_max}, {n_max})")
    cells = (m_max + 1) * (n_max + 1)
    if cells > MAX_GRID_CELLS:
        raise ResourceLimitError(
            f"{seq.name}: grid of {cells} cells exceeds budget {MAX_GRID_CELLS}", cells=cells
        )


def eval_grid(seq: DoubleSequence, m_max: int, n_max: int) -> Grid:
    """Materialize u on [0..m_max] x [0..n_max], rejecting non-finite cells."""
    _check_grid(seq, m_max, n_max)
    vals = seq.block(np.arange(m_max + 1), np.arange(n_max + 1))
    bad = _first_nonfinite(vals)
    if bad is not None:
        raise NonFiniteValueError(f"{seq.name}: non-finite value at {bad}", m=bad[0], n=bad[1])
    return Grid(m_max, n_max, vals, seq.kind)


def _row_bands(seq: DoubleSequence, rows: range, cols: np.ndarray):
    """(first row, u) for u on rows x cols, top to bottom, in bands of at most
    _BAND_BYTES of u, or one row: how every banded reader of u reads it."""
    step = max(1, _BAND_BYTES // (seq.kind.dtype.itemsize * len(cols)))
    for r0 in rows[::step]:
        yield r0, seq.block(np.arange(r0, min(r0 + step, rows.stop)), cols)


def _first_nonfinite(arr: np.ndarray) -> tuple[int, int] | None:
    """Row-major first cell of a 2-D array that is nan or infinite, else None.

    A complex value is finite only when both of its parts are.
    """
    finite = np.isfinite(arr)
    if finite.all():
        return None
    m, n = np.unravel_index(int(finite.argmin()), arr.shape)
    return int(m), int(n)


class WeightSequence:
    """Positive one-sided weights p_0, p_1, ... with cached partial sums.

    Partial sums are accumulated with compensated (Neumaier) summation in
    float64.  ``weight`` is the scalar rule and the reference:
    ``weights(k0, k1)``, if given, must return ``weight(k)`` for k in
    k0..k1-1 as a float64 array, bit for bit, and raise where ``weight``
    raises.  Indices are evaluated in chunks: ``weights`` over the chunk (by
    default, or when it raises, the scalar rule one index at a time), the
    recurrence as two sequential cumulative sums (bit-identical to the
    one-index-at-a-time loop), then the loop's checks in its order -- weight
    domain, overflow, monotonicity -- up to the first bad index.  A bad
    index raises only when the caller needed it (``ensure``: an index at or
    below its target; ``first_above``: no earlier sum exceeds the largest
    value); otherwise growth stops just before it.  Sums are stored as far
    as ``ensure`` asked; past that, one checkpoint per chunk keeps its end
    k, the state (acc, comp) there and P_(k-1), from which the recurrence
    restarts bit for bit to evaluate a chunk again where it is read.
    ``weights_array`` evaluates ``weights`` again: the bits the sums used.
    """

    # Indices a growth step evaluates: at least the first, at most the
    # second, so the chunk's temporaries stay small.
    _MIN_CHUNK = 1 << 10
    _MAX_CHUNK = 1 << 16

    def __init__(self, weight: Callable[[int], float], name: str, max_index: int = 1 << 23,
                 weights: Callable[[int, int], np.ndarray] | None = None):
        self.name = name
        self.max_index = int(max_index)
        self._weight = weight
        self._weights_over = weights or (
            lambda k0, k1: np.fromiter(map(weight, range(k0, k1)), np.float64, k1 - k0)
        )
        self._sums = np.empty(1024, dtype=np.float64)
        # Checkpoints (k, acc, comp, P_(k-1)) at the end of the stored sums
        # and of each chunk past them; (first index, sums) of the last chunk.
        self._marks = [(0, 0.0, 0.0, -math.inf)]
        self._chunk = (-1, None)

    def ensure(self, m: int) -> None:
        """Store the sums of indices 0..m, evaluating as needed; m = -1 asks for none."""
        if m < -1:
            raise ValueError(f"{self.name}: prefix index must be >= -1, got {m}")
        if m < self._marks[0][0]:
            return
        if m > self.max_index:
            raise HorizonError(f"{self.name}: index {m} beyond max_index {self.max_index}", needed=m)
        target = max(m + 1, 2 * self.evaluated_count)
        while self._marks[0][0] <= m:
            if len(self._marks) == 1:
                self._extend(target, lambda k: k <= m)
            k0, sums = self._chunk_at(1)
            end = k0 + len(sums)
            if end > len(self._sums):
                grown = np.empty(max(end, 2 * len(self._sums)), dtype=np.float64)
                grown[:k0] = self._sums[:k0]
                self._sums = grown
            self._sums[k0:end] = sums
            del self._marks[0]
            self._chunk = (-1, None)  # stored now; kept, it lifted verdicts' peak RSS 0.4 MiB

    def first_above(self, values, side: str = "right") -> np.ndarray:
        """np.searchsorted of values in the unbounded sums P_0, P_1, ..., as
        an int64 array of the values' shape: evaluates indices until a sum
        exceeds the largest value, which must be finite (HorizonError if
        max_index comes first), then searches each value in the stored sums
        or in the one chunk that holds its crossing."""
        values = np.asarray(values, dtype=np.float64)
        top = float(values.max())
        if not math.isfinite(top):
            raise ValueError(f"{self.name}: threshold must be finite, got {top}")
        while self._marks[-1][3] <= top:
            if self.evaluated_count > self.max_index:
                raise HorizonError(f"{self.name}: partial sums reached index {self.max_index} "
                                   f"without exceeding {top}", needed=top)
            self._extend(2 * self.evaluated_count, lambda k: self._marks[-1][3] <= top)
        # A crossing at or below checkpoint s's sum lies in the stored sums
        # (s = 0) or the chunk ending at s; the last chunk, likely kept, first.
        at_mark = np.searchsorted([mark[3] for mark in self._marks], values, side)
        out = np.empty(values.shape, dtype=np.int64)
        for s in np.flatnonzero(np.bincount(at_mark.ravel()))[::-1]:
            k0, sums = self._chunk_at(s) if s else (0, self._sums[: self._marks[0][0]])
            out[at_mark == s] = k0 + np.searchsorted(sums, values[at_mark == s], side)
        return out

    def _chunk_at(self, s: int) -> tuple[int, np.ndarray]:
        """(first index, sums) of the chunk that ends at checkpoint s."""
        k0, acc, comp, _ = self._marks[s - 1]
        if self._chunk[0] != k0:
            self._chunk = (k0, self._evaluate(k0, self._marks[s][0], acc, comp)[4])
        return self._chunk

    def _evaluate(self, k0: int, k1: int, acc: float, comp: float):
        """(weights, the rule's error, t, c, sums) of indices k0..k1-1 from the
        state (acc, comp) before k0, stopping where the rule raised."""
        try:
            w = self._weights_over(k0, k1)
            rule_error = None
        except Exception:
            # Re-run the chunk one index at a time to pin the failing one.
            vals = []
            for k in range(k0, k1):
                try:
                    vals.append(float(self._weight(k)))
                except Exception as exc:
                    rule_error = exc
                    break
            w = np.array(vals, dtype=np.float64)
        n = w.size
        # Neumaier recurrence: t_k = t_{k-1} + p_k, c_k = c_{k-1} + err_k.
        # np.add.accumulate runs left to right, so every rounding matches
        # the scalar loop.
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.concatenate(([acc], w))
            np.add.accumulate(t, out=t)
            s, t = t[:-1], t[1:]
            # Neumaier's error (big - t) + small, with big the larger of s
            # and w in magnitude: only the chosen branch is evaluated.  It
            # goes into the two magnitudes' buffers: fresh np.where outputs
            # kept the heap about a quarter MiB higher for later operations.
            err, small = np.abs(s), np.abs(w)
            mask = err >= small
            np.copyto(err, w)
            np.copyto(err, s, where=mask)
            np.copyto(small, s)
            np.copyto(small, w, where=mask)
            del mask
            err -= t
            err += small
            del small
            c = np.concatenate(([comp], err))
            del err
            np.add.accumulate(c, out=c)
            c = c[1:]
            return w, rule_error, t, c, t + c

    def _extend(self, target: int, needed: Callable[[int], bool]) -> None:
        """Evaluate a chunk past the last checkpoint towards ``target``; its
        valid prefix becomes a checkpoint and the last chunk.  ``needed(k)``,
        asked once the indices below k are kept, says whether a failure at
        index k concerns the caller."""
        k0, acc, comp, prev = self._marks[-1]
        k1 = min(max(target, k0 + self._MIN_CHUNK), k0 + self._MAX_CHUNK, self.max_index + 1)
        w, rule_error, t, c, published = self._evaluate(k0, k1, acc, comp)
        n = w.size
        bad_domain = ~np.isfinite(w) | (w <= 0.0)
        bad_overflow = ~np.isfinite(published)
        bad = bad_domain | bad_overflow
        # Each sum must exceed the one before it, the first the checkpoint's.
        bad[1:] |= published[1:] <= published[:-1]
        bad[:1] |= published[:1] <= prev
        j = int(bad.argmax()) if bad.any() else n
        if j:
            self._marks.append((k0 + j, float(t[j - 1]), float(c[j - 1]), float(published[j - 1])))
            self._chunk = (k0, published[:j])
        k = k0 + j
        if (j == n and rule_error is None) or not needed(k):
            return
        if j == n:
            if isinstance(rule_error, OverflowError):
                # The weight itself left the doubles, so the sum cannot stay finite.
                raise PrefixOverflowError(f"{self.name}: partial sum overflowed at index {k}") from rule_error
            raise rule_error
        if bad_domain[j]:
            raise WeightDomainError(
                f"{self.name}: weight p_{k} = {float(w[j])} is not positive and finite"
            )
        if bad_overflow[j]:
            raise PrefixOverflowError(f"{self.name}: partial sum overflowed at index {k}")
        raise MonotonicityError(
            f"{self.name}: partial sum failed to increase at index {k} "
            f"(P_{k - 1} = {self._marks[-1][3]!r}, P_{k} = {float(published[j])!r})"
        )

    @property
    def evaluated_count(self) -> int:
        """Indices evaluated once so far, stored or not (chunks may overshoot a request)."""
        return self._marks[-1][0]

    def prefix(self, m: int) -> float:
        """Partial sum p_0 + ... + p_m; prefix(-1) is 0 by convention."""
        self.ensure(m)
        return float(self._sums[m]) if m >= 0 else 0.0

    def prefix_array(self, m: int) -> np.ndarray:
        """Partial sums P_0..P_m as a fresh array, extending as needed."""
        self.ensure(m)
        return self._sums[: m + 1].copy()

    def weights_array(self, m: int) -> np.ndarray:
        """Weights p_0..p_m as a fresh array, extending the sums as needed."""
        self.ensure(m)
        return self._weights_over(0, m + 1)


# ---------------------------------------------------------------------------
# Named corpus
# ---------------------------------------------------------------------------


def constant(c: float = 1.0) -> DoubleSequence:
    """u(m, n) = c everywhere."""
    cv = float(c)
    return DoubleSequence(
        name=f"constant(c={cv:g})",
        rule=lambda M, N: np.full(np.broadcast_shapes(M.shape, N.shape), cv),
        declared_limit=cv,
    )


def paper_unbounded() -> DoubleSequence:
    """Bounded off two exceptional lines, with 7-power growth along them.

    Row m = 1 carries 7^n, column n = 3 carries 7^(m+2) (the overlap cell
    (1, 3) takes the row value 343), everything else is 2.  Converges to 2
    in the rectangular sense while being unbounded, which is exactly the
    separation the averaging theory needs a witness for.
    """

    def rule(M, N):
        row = np.power(7.0, N.astype(np.float64))
        col = np.power(7.0, (M + 2).astype(np.float64))
        return np.where(M == 1, row, np.where(N == 3, col, 2.0))

    return DoubleSequence(
        name="paper_unbounded",
        rule=rule,
        declared_limit=2.0,
    )


def alternating() -> DoubleSequence:
    """u(m, n) = (-1)^(m+n); bounded, nowhere convergent."""
    return DoubleSequence(
        name="alternating",
        # a row's sign times a column's: no full-size integer or bool grid
        rule=lambda M, N: (1.0 - 2.0 * (M & 1)) * (1.0 - 2.0 * (N & 1)),
        declared_limit=None,
    )


def additive_convergent(limit: float = 1.0) -> DoubleSequence:
    """u(m, n) = limit + 1/log(m+2) + 1/log(n+2); slow one-sided decay."""
    lv = float(limit)
    return DoubleSequence(
        name=f"additive_convergent(limit={lv:g})",
        rule=lambda M, N: lv + 1.0 / np.log(M + 2.0) + 1.0 / np.log(N + 2.0),
        declared_limit=lv,
    )


def separable_convergent() -> DoubleSequence:
    """u(m, n) = (2 - 1/(m+1)) + (1 + 1/(n+1)); product-type structure, limit 3."""
    return DoubleSequence(
        name="separable_convergent",
        rule=lambda M, N: (2.0 - 1.0 / (M + 1.0)) + (1.0 + 1.0 / (N + 1.0)),
        declared_limit=3.0,
    )


def complex_convergent() -> DoubleSequence:
    """Complex spiral decaying onto 1 + 0.5j; exercises the modulus-based ops."""

    def spiral(k):
        return (1.0 + 0.5j) + np.exp(1j * k) / (k + 2.0)

    def rule(M, N):
        # u depends on m + n alone: a block of R x C cells has R + C - 1
        # distinct sums, so evaluate each once and gather (same bits).
        s = M + N
        if s.size:
            lo, hi = int(s.min()), int(s.max())
            if hi - lo < s.size:
                s -= lo
                return spiral(np.arange(lo, hi + 1))[s]
        return spiral(s)

    return DoubleSequence(
        name="complex_convergent",
        rule=rule,
        kind=ScalarKind.COMPLEX,
        declared_limit=1.0 + 0.5j,
    )


def array_sequence(values: np.ndarray, name: str = "array") -> DoubleSequence:
    """Wrap a fixed 2-D array as a sequence; indices outside it raise."""
    arr = np.array(values, copy=True)
    if arr.ndim != 2:
        raise ValueError(f"array sequence needs a 2-D array, got shape {arr.shape}")
    kind = ScalarKind.COMPLEX if np.iscomplexobj(arr) else ScalarKind.REAL
    arr = arr.astype(kind.dtype)

    def rule(M, N):
        if M.max() >= arr.shape[0] or N.max() >= arr.shape[1]:
            # the row-major first index outside: a block split in row bands
            # names the same one
            M, N = np.broadcast_arrays(M, N)
            at = np.argmax((M >= arr.shape[0]) | (N >= arr.shape[1]))
            raise IndexError(
                f"{name}: index ({int(M.flat[at])}, {int(N.flat[at])}) outside "
                f"stored shape {arr.shape}"
            )
        return arr[M, N]

    return DoubleSequence(name=name, rule=rule, kind=kind)


# The array forms of the weight rules below keep every bit of the scalar
# ones: numpy only for exactly rounded operations, and libm's pow, sin and
# log through maps of the math functions (numpy's SIMD pow can differ from
# libm's in the last bit at about 5 % of indices), with float arguments
# built lazily so a chunk holds no list of them.  geometric has none: its
# partial sum overflows within about a thousand indices at r = 2, so the
# scalar rule costs next to nothing there.


def _plus_one(k0: int, k1: int):
    """float(k + 1) for k in k0..k1-1, one at a time."""
    return map(float, range(k0 + 1, k1 + 1))


def ones() -> WeightSequence:
    """p_m = 1; partial sums m + 1."""
    return WeightSequence(lambda m: 1.0, name="ones", weights=lambda k0, k1: np.ones(k1 - k0))


def harmonic() -> WeightSequence:
    """p_m = 1/(m+1); partial sums grow like log m (slowly varying)."""
    return WeightSequence(
        lambda m: 1.0 / (m + 1.0),
        name="harmonic",
        weights=lambda k0, k1: 1.0 / (np.arange(k0, k1) + 1.0),
    )


def power(beta: float = 1.0) -> WeightSequence:
    """p_m = (m+1)^beta for finite beta > -1; partial sums vary regularly with index beta+1."""
    bv = float(beta)
    if not -1.0 < bv < math.inf:  # nan fails too
        raise WeightDomainError(f"power weights need a finite beta > -1, got {bv}")
    return WeightSequence(
        lambda m: (m + 1.0) ** bv,
        name=f"power(beta={bv:g})",
        weights=lambda k0, k1: np.fromiter(
            map(math.pow, _plus_one(k0, k1), itertools.repeat(bv)), np.float64, k1 - k0
        ),
    )


def geometric(r: float = 2.0) -> WeightSequence:
    """p_m = r^m for finite r > 1; partial sums vary rapidly."""
    rv = float(r)
    if not 1.0 < rv < math.inf:  # nan fails too
        raise WeightDomainError(f"geometric weights need a finite r > 1, got {rv}")
    return WeightSequence(lambda m: rv**m, name=f"geometric(r={rv:g})")


def wobble() -> WeightSequence:
    """p_m = (m+1)^(1 + sin(log(m+1))); log-periodic exponent, defeats a single index."""

    def weights(k0, k1):
        exponents = map((1.0).__add__, map(math.sin, map(math.log, _plus_one(k0, k1))))
        return np.fromiter(map(math.pow, _plus_one(k0, k1), exponents), np.float64, k1 - k0)

    return WeightSequence(
        lambda m: (m + 1.0) ** (1.0 + math.sin(math.log(m + 1.0))),
        name="wobble",
        weights=weights,
    )


_SEQUENCE_FACTORIES: dict[str, Callable[..., DoubleSequence]] = {
    "constant": constant,
    "paper_unbounded": paper_unbounded,
    "alternating": alternating,
    "additive_convergent": additive_convergent,
    "separable_convergent": separable_convergent,
    "complex_convergent": complex_convergent,
}

_WEIGHT_FACTORIES: dict[str, Callable[..., WeightSequence]] = {
    "ones": ones,
    "harmonic": harmonic,
    "power": power,
    "geometric": geometric,
    "wobble": wobble,
}


def sequence_names() -> list[str]:
    return sorted(_SEQUENCE_FACTORIES)


def weight_names() -> list[str]:
    return sorted(_WEIGHT_FACTORIES)


def _build(factories: dict[str, Callable], label: str, name: str, params: dict):
    """Call the named factory, rejecting parameters its signature lacks."""
    try:
        factory = factories[name]
    except KeyError:
        raise KeyError(
            f"unknown {label} {name!r}; known: {', '.join(sorted(factories))}"
        ) from None
    accepted = list(inspect.signature(factory).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"{label} {name!r} takes no parameter {', '.join(unknown)}; "
            f"accepted: {', '.join(accepted) or 'none'}"
        )
    return factory(**params)


def corpus_sequence(name: str, **params) -> DoubleSequence:
    return _build(_SEQUENCE_FACTORIES, "sequence", name, params)


def corpus_weight(name: str, **params) -> WeightSequence:
    return _build(_WEIGHT_FACTORIES, "weight family", name, params)
