"""Double sequences, positive weight systems, and finite evaluation grids.

A DoubleSequence is a pure rule on the integer quarter-plane m,n >= 0,
evaluated through a single vectorized path so scalar lookups and bulk grids
agree bit for bit.  A WeightSequence owns a one-sided positive weight rule
together with a cached, extendable array of partial sums; the cache is
grow-only and safe to read concurrently while one writer extends it.
"""
from __future__ import annotations

import inspect
import math
import threading
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

# Hard ceiling on the cells of one grid, ~2 GiB of float64.  Only eval_grid
# and weighted_mean_field hold a whole grid; analyze refuses the same
# horizons but holds only row bands and the ladder's tail squares.
MAX_GRID_CELLS = 1 << 28


class ScalarKind(Enum):
    REAL = "real"
    COMPLEX = "complex"


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
    declared_bounded: bool = True

    def block(self, m_idx: np.ndarray, n_idx: np.ndarray) -> np.ndarray:
        """Evaluate on the product of two index vectors; shape (len(m), len(n))."""
        m_idx = np.asarray(m_idx, dtype=np.int64)
        n_idx = np.asarray(n_idx, dtype=np.int64)
        if m_idx.size and m_idx.min() < 0:
            raise ValueError(f"{self.name}: negative row index {int(m_idx.min())}")
        if n_idx.size and n_idx.min() < 0:
            raise ValueError(f"{self.name}: negative column index {int(n_idx.min())}")
        dtype = np.complex128 if self.kind is ScalarKind.COMPLEX else np.float64
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = self.rule(m_idx[:, None], n_idx[None, :])
        out = np.asarray(out, dtype=dtype)
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


def _first_nonfinite(arr: np.ndarray) -> tuple[int, int] | None:
    """Row-major first cell of a 2-D array that is nan or infinite, else None.

    A complex value is finite only when both of its parts are.
    """
    finite = np.isfinite(arr)
    if finite.all():
        return None
    m, n = np.unravel_index(int(finite.argmin()), arr.shape)
    return int(m), int(n)


def delta10(seq: DoubleSequence, m: int, n: int) -> float | complex:
    """Row difference u(m, n) - u(m-1, n); requires m >= 1."""
    if m < 1:
        raise ValueError(f"row difference needs m >= 1, got m={m}")
    return seq.evaluate(m, n) - seq.evaluate(m - 1, n)


def delta01(seq: DoubleSequence, m: int, n: int) -> float | complex:
    """Column difference u(m, n) - u(m, n-1); requires n >= 1."""
    if n < 1:
        raise ValueError(f"column difference needs n >= 1, got n={n}")
    return seq.evaluate(m, n) - seq.evaluate(m, n - 1)


class WeightSequence:
    """Positive one-sided weights p_0, p_1, ... with cached partial sums.

    Partial sums are accumulated with compensated (Neumaier) summation and
    published as float64.  The cache grows in chunks: a chunk evaluates the
    scalar weight rule at each of its indices, runs the Neumaier recurrence
    as two sequential cumulative sums (bit-identical to the one-index-at-a-
    time loop), and checks the chunk in the loop's order -- weight domain,
    then overflow, then monotonicity -- to find its first bad index.  The
    valid prefix is published with one count update, written last.  A bad
    index raises only when the caller needed it (``ensure``: an index at or
    below its target; ``ensure_sum_exceeds``: no earlier sum exceeds the
    threshold); otherwise growth stops just before it and a later request
    that needs it raises there.

    Readers take a snapshot without locking: the published count is read
    before the buffer reference, and buffers are never shrunk or mutated
    below the count, so a stale pair is still internally consistent.
    Writers serialize on a lock and extension is idempotent.
    """

    # Indices a growth step evaluates: at least the first, at most the
    # second, so the chunk's temporaries stay small.
    _MIN_CHUNK = 1 << 10
    _MAX_CHUNK = 1 << 16

    def __init__(
        self,
        weight: Callable[[int], float],
        name: str,
        max_index: int = 1 << 23,
    ):
        self.name = name
        self.max_index = int(max_index)
        self._weight = weight
        self._lock = threading.Lock()
        self._weights = np.empty(1024, dtype=np.float64)
        self._sums = np.empty(1024, dtype=np.float64)
        self._count = 0
        self._acc = 0.0
        self._comp = 0.0

    # -- writers ---------------------------------------------------------

    def ensure(self, m: int) -> None:
        """Extend the cache so indices 0..m are evaluated."""
        if m < self._count:
            return
        if m > self.max_index:
            raise HorizonError(
                f"{self.name}: index {m} beyond max_index {self.max_index}",
                needed=m,
            )
        with self._lock:
            target = max(m + 1, 2 * self._count)
            while self._count <= m:
                self._extend(target, lambda k: k <= m)

    def ensure_sum_exceeds(self, threshold: float) -> int:
        """Grow until the last partial sum strictly exceeds ``threshold``.

        Returns the first index whose partial sum exceeds it.  Raises
        HorizonError if max_index is reached first.
        """
        if not math.isfinite(threshold):
            raise ValueError(f"{self.name}: threshold must be finite, got {threshold}")
        with self._lock:
            while self._count == 0 or self._sums[self._count - 1] <= threshold:
                if self._count > self.max_index:
                    raise HorizonError(
                        f"{self.name}: partial sums reached index {self.max_index} "
                        f"without exceeding {threshold}",
                        needed=threshold,
                    )
                self._extend(
                    2 * self._count,
                    lambda k: k == 0 or self._sums[k - 1] <= threshold,
                )
            sums = self._sums[: self._count]
        return int(np.searchsorted(sums, threshold, side="right"))

    def _extend(self, target: int, needed: Callable[[int], bool]) -> None:
        """Evaluate one chunk towards ``target`` and publish its valid prefix.

        ``needed(k)`` says whether a failure at index k concerns the caller;
        it is asked after the indices below k are published.  Caller holds
        the lock.
        """
        k0 = self._count
        k1 = min(max(target, k0 + self._MIN_CHUNK), k0 + self._MAX_CHUNK, self.max_index + 1)
        try:
            w = np.fromiter(map(self._weight, range(k0, k1)), np.float64, k1 - k0)
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
            t = np.empty(n + 1)
            t[0] = self._acc
            t[1:] = w
            np.add.accumulate(t, out=t)
            s, t = t[:-1], t[1:]
            err = np.where(np.abs(s) >= np.abs(w), (s - t) + w, (w - t) + s)
            c = np.empty(n + 1)
            c[0] = self._comp
            c[1:] = err
            np.add.accumulate(c, out=c)
            c = c[1:]
            published = t + c
            bad_domain = ~np.isfinite(w) | (w <= 0.0)
            bad_overflow = ~np.isfinite(published)
            prev = np.empty(n)
            prev[:1] = self._sums[k0 - 1] if k0 > 0 else -np.inf
            prev[1:] = published[:-1]
            bad = bad_domain | bad_overflow | (published <= prev)
        j = int(bad.argmax()) if bad.any() else n
        if j:
            end = k0 + j
            if end > len(self._weights):
                self._grow(end)
            self._weights[k0:end] = w[:j]
            self._sums[k0:end] = published[:j]
            self._acc, self._comp = float(t[j - 1]), float(c[j - 1])
            # Publish last: readers snapshot count before buffers.
            self._count = end
        k = k0 + j
        if (j == n and rule_error is None) or not needed(k):
            return
        if j == n:
            if isinstance(rule_error, OverflowError):
                # The weight itself left the doubles, so the sum cannot stay finite.
                raise PrefixOverflowError(
                    f"{self.name}: partial sum overflowed at index {k}"
                ) from rule_error
            raise rule_error
        if bad_domain[j]:
            raise WeightDomainError(
                f"{self.name}: weight p_{k} = {float(w[j])} is not positive and finite"
            )
        if bad_overflow[j]:
            raise PrefixOverflowError(f"{self.name}: partial sum overflowed at index {k}")
        raise MonotonicityError(
            f"{self.name}: partial sum failed to increase at index {k} "
            f"(P_{k - 1} = {float(self._sums[k - 1])!r}, P_{k} = {float(published[j])!r})"
        )

    def _grow(self, size: int) -> None:
        new_w = np.empty(max(size, 2 * len(self._weights)), dtype=np.float64)
        new_s = np.empty_like(new_w)
        new_w[: self._count] = self._weights[: self._count]
        new_s[: self._count] = self._sums[: self._count]
        self._weights = new_w
        self._sums = new_s

    # -- readers ---------------------------------------------------------

    @property
    def evaluated_count(self) -> int:
        """Indices evaluated and published so far (chunks may overshoot a request)."""
        return self._count

    def weight_at(self, m: int) -> float:
        if m < 0:
            raise ValueError(f"{self.name}: weight index must be >= 0, got {m}")
        self.ensure(m)
        return float(self._weights[m])

    def prefix(self, m: int) -> float:
        """Partial sum p_0 + ... + p_m; prefix(-1) is 0 by convention."""
        if m == -1:
            return 0.0
        if m < -1:
            raise ValueError(f"{self.name}: prefix index must be >= -1, got {m}")
        self.ensure(m)
        return float(self._sums[m])

    def prefix_snapshot(self) -> np.ndarray:
        """Read-only view of all published partial sums (no extension)."""
        count = self._count
        view = self._sums[:count]
        view.flags.writeable = False
        return view

    def prefix_array(self, m: int) -> np.ndarray:
        """Partial sums P_0..P_m as a fresh array, extending as needed."""
        self.ensure(m)
        return self._sums[: m + 1].copy()

    def weights_array(self, m: int) -> np.ndarray:
        self.ensure(m)
        return self._weights[: m + 1].copy()


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
        declared_bounded=False,
    )


def alternating() -> DoubleSequence:
    """u(m, n) = (-1)^(m+n); bounded, nowhere convergent."""
    return DoubleSequence(
        name="alternating",
        # m + n is odd where the low bits differ: one bool per cell and no
        # full-size integer sum, so the rule is fast and light on memory.
        rule=lambda M, N: np.where((M & 1) != (N & 1), -1.0, 1.0),
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
    return DoubleSequence(
        name="complex_convergent",
        rule=lambda M, N: (1.0 + 0.5j) + np.exp(1j * (M + N)) / (M + N + 2.0),
        kind=ScalarKind.COMPLEX,
        declared_limit=1.0 + 0.5j,
    )


def array_sequence(values: np.ndarray, name: str = "array") -> DoubleSequence:
    """Wrap a fixed 2-D array as a sequence; indices outside it raise."""
    arr = np.array(values, copy=True)
    if arr.ndim != 2:
        raise ValueError(f"array sequence needs a 2-D array, got shape {arr.shape}")
    kind = ScalarKind.COMPLEX if np.iscomplexobj(arr) else ScalarKind.REAL
    arr = arr.astype(np.complex128 if kind is ScalarKind.COMPLEX else np.float64)

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


def ones() -> WeightSequence:
    """p_m = 1; partial sums m + 1."""
    return WeightSequence(lambda m: 1.0, name="ones")


def harmonic() -> WeightSequence:
    """p_m = 1/(m+1); partial sums grow like log m (slowly varying)."""
    return WeightSequence(lambda m: 1.0 / (m + 1.0), name="harmonic")


def power(beta: float = 1.0) -> WeightSequence:
    """p_m = (m+1)^beta for beta > -1; partial sums vary regularly with index beta+1."""
    bv = float(beta)
    if bv <= -1.0:
        raise WeightDomainError(f"power weights need beta > -1, got {bv}")
    return WeightSequence(lambda m: (m + 1.0) ** bv, name=f"power(beta={bv:g})")


def geometric(r: float = 2.0) -> WeightSequence:
    """p_m = r^m for r > 1; partial sums vary rapidly."""
    rv = float(r)
    if rv <= 1.0:
        raise WeightDomainError(f"geometric weights need r > 1, got {rv}")
    return WeightSequence(lambda m: rv**m, name=f"geometric(r={rv:g})")


def wobble() -> WeightSequence:
    """p_m = (m+1)^(1 + sin(log(m+1))); log-periodic exponent, defeats a single index."""
    return WeightSequence(
        lambda m: (m + 1.0) ** (1.0 + math.sin(math.log(m + 1.0))),
        name="wobble",
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
