"""Seeded Monte-Carlo engine and the exact brute-force oracle.

Every simulated trajectory is drawn by `_draws`, in blocks of at most
`_BLOCK_STEPS` steps, so memory stays bounded on any horizon. `_step_rows`
picks the stepper for a block of runs: `_run_steps` advances one list of
counters in pure Python, at about 1.2 us a step; `_run_rows` advances the
runs together, as the rows of one (runs x m) array, one NumPy pass of about
15 us per step whatever the row count. Both apply the same CU, LB or UB
rule. Sandwich traces and the oracle call `_run_steps` directly.

The estimation error of an absent item is never sampled: conditionally on
the final counters, its expectation over the item's uniformly random
d-subset has the exact order-statistic form

    E[min over a random d-subset] =
        sum_{r=1}^{m-d+1} y_(r) * C(m-r, d-1) / C(m, d)

with y_(1) <= ... <= y_(m) the ascending-sorted counters. Summing over
sorted positions rather than distinct values makes ties a non-issue.

Reproducibility: every run r derives its own generator from the master
seed through the splitmix64 finalizer applied to seed + r * golden-gamma,
so runs can be computed in any order, alone or stepped together, without
changing results.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Hashable, Iterator, Sequence

import numpy as np

from .config import SketchConfig
from .errors import ConfigurationError

GAP_HISTOGRAM_LEVELS = 10
ORACLE_LEAF_GUARD = 10**6

_CU, _LB, _UB = 0, 1, 2
_VARIANT_CODES = {"cu": _CU, "lb": _LB, "ub": _UB}
# Steps drawn and decoded at a time: bounds the decoded selections' memory
# on long trajectories while keeping NumPy's per-call cost negligible.
_BLOCK_STEPS = 1024
# Pool cells `_selections` decodes at a time: 8 MiB of int64. A (1024, m)
# pool at m=200000 would take 1.6 GB.
_DECODE_CELLS = 1 << 20
# `_step_rows` steps fewer rows than this one by one through `_run_steps`,
# and more together through `_run_rows`. A `_run_rows` pass has a fixed NumPy
# cost of about 15 us, against about 1.2 us per run-step for `_run_steps`:
# at T=250 the batched path broke even at 8-12 runs (m=50/d=4, m=10/d=9,
# m=8/d=2) and was 35-45% faster at 16. One run of 10^5 steps took 1.42 s
# batched against 0.29 s alone (2-core Xeon, NumPy 2.4).
_MIN_BATCH_RUNS = 16
# Runs stepped together by one `_run_rows` call. At m=50, d=4, T=250 and
# 2000 runs, blocks of 32/64/128/256 took 0.45/0.34/0.31/0.27 s and raised
# peak RSS by 1.43/1.43/1.95/3.52 MB, against 0.77 s and 1.18 MB for the
# run-by-run loop: 64 keeps the added memory to 0.25 MB.
_BATCH_RUNS = 64

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(seed: int, run_index: int) -> int:
    """splitmix64 finalizer over seed + run * golden-gamma; the documented
    per-run substream derivation."""
    z = (seed + run_index * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream(seed: int, run_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(mix64(seed, run_index)))


@dataclass(frozen=True)
class SimConfig:
    m: int
    d: int
    T: int
    runs: int
    seed: int
    variant: str = "cu"  # "cu", "lb", or "ub"
    g: int | None = None  # required for lb/ub

    def __post_init__(self):
        SketchConfig(self.m, self.d)
        if self.T < 1:
            raise ConfigurationError(f"T must be >= 1, got {self.T}")
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")
        if self.variant not in _VARIANT_CODES:
            raise ConfigurationError(f"variant must be one of cu/lb/ub, got {self.variant!r}")
        if self.variant != "cu" and (self.g is None or self.g < 1):
            raise ConfigurationError("lb/ub simulation requires a gap cap g >= 1")


@dataclass(frozen=True)
class TrajectoryResult:
    values: np.ndarray
    gap_trace: np.ndarray
    conditional_error: float

    @property
    def counter_rate(self) -> float:
        T = len(self.gap_trace)
        return float(self.values.sum()) / (T * len(self.values))


@dataclass
class SimStats:
    config: SimConfig
    mean_error_rate: float
    stderr_error_rate: float
    mean_counter_rate: float
    gap_histogram: dict[int, float]  # level -> fraction of steps with gap >= level
    per_run_errors: list[float] = field(default_factory=list)
    per_run_counter_rates: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mean_error_rate": self.mean_error_rate,
            "stderr_error_rate": self.stderr_error_rate,
            "mean_counter_rate": self.mean_counter_rate,
            "gap_histogram": {str(k): v for k, v in self.gap_histogram.items()},
        }

    def to_csv(self) -> str:
        """Per-run rows then histogram rows; column order fixed."""
        lines = ["run,error,counter_rate"]
        for i, (e, c) in enumerate(zip(self.per_run_errors, self.per_run_counter_rates)):
            lines.append(f"{i},{e!r},{c!r}")
        lines.append("g,fraction")
        for level in sorted(self.gap_histogram):
            lines.append(f"{level},{self.gap_histogram[level]!r}")
        return "\n".join(lines) + "\n"


def expected_min_over_subsets(values: Sequence[int], d: int) -> float:
    """Exact E[min over a uniformly random d-subset] of the given counters."""
    return _expected_min_numerator(values, d) / math.comb(len(values), d)


def _expected_min_numerator(values: Sequence[int], d: int) -> int:
    """C(m, d) times E[min over a uniformly random d-subset], an integer.

    Computed on Python ints: NumPy's fixed-width integers would wrap silently
    in the products.
    """
    return sum(map(operator.mul, sorted(map(int, values)), _order_weights(len(values), d)))


@functools.lru_cache(maxsize=8)
def _order_weights(m: int, d: int) -> tuple[int, ...]:
    """C(m - r, d - 1) for sorted positions r = 1 .. m - d + 1."""
    return tuple(math.comb(m - r, d - 1) for r in range(1, m - d + 2))


def _selections(u: np.ndarray, m: int) -> np.ndarray:
    """Decode each row of a (T, d) uniform array into d distinct counter indices.

    Partial Fisher-Yates shuffle, vectorized over the rows, with the index
    arithmetic of `uniform_select`: row t gives the subset `uniform_select`
    draws from the same d doubles (unsorted). Each row needs a working pool
    of m indices, so rows are decoded at most `_DECODE_CELLS` pool cells at
    a time, and only the (T, d) selections are kept.
    """
    T, d = u.shape
    chunk = max(1, _DECODE_CELLS // m)
    if T > chunk:
        return np.concatenate([_selections(u[i : i + chunk], m) for i in range(0, T, chunk)])
    rows = np.arange(T)
    pool = np.tile(np.arange(m, dtype=np.int64), (T, 1))
    for j in range(d):
        r = j + np.minimum((u[:, j] * (m - j)).astype(np.int64), m - j - 1)
        picked = pool[rows, r]
        pool[rows, r] = pool[:, j]
        pool[:, j] = picked
    return pool[:, :d].copy()  # not a view that would keep the pool alive


def _run_steps(
    values: list[int],
    selections: Sequence[Sequence[int]],
    variant: int,
    g: int,
    snapshots: np.ndarray | None = None,
) -> list[int]:
    """Advance `values` in place, one step per selection; return the gap trace.

    CU increments the selected counters that sit at the selection's minimum.
    When the gap equals g and only maxima are selected, LB leaves the
    counters unchanged and UB also lifts every counter at the minimum.
    The minimum, maximum and count at the minimum are tracked, so a step
    costs O(d) unless the minimum level empties. If `snapshots` is given,
    its row t receives the counters after step t.
    """
    value_at = values.__getitem__
    vmin, vmax = min(values), max(values)
    nmin = values.count(vmin)
    gaps = []
    for t, sel in enumerate(selections):
        sel_min = min(map(value_at, sel))
        at_cap = variant != _CU and vmax - vmin == g and sel_min == vmax
        if not (at_cap and variant == _LB):
            n_inc = 0
            for i in sel:
                if values[i] == sel_min:
                    values[i] += 1
                    n_inc += 1
            if sel_min == vmax:
                vmax += 1
            if sel_min == vmin:
                nmin -= n_inc
                if nmin == 0:  # every counter at the minimum moved up by one
                    vmin += 1
                    nmin = values.count(vmin)
            if at_cap:  # UB: lift every counter at the minimum; the gap stays g
                values[:] = [x + 1 if x == vmin else x for x in values]
                vmin += 1
                nmin = values.count(vmin)
        gaps.append(vmax - vmin)
        if snapshots is not None:
            snapshots[t] = values
    return gaps


def _run_rows(values: np.ndarray, sel: np.ndarray, variant: int, g: int) -> np.ndarray:
    """Advance every row of the (R, m) counters in place; return the (R, T) gap trace.

    Row i takes the selections sel[:, i] of the (T, R, d) array, one per
    step, under the rule of `_run_steps`; each step is one NumPy pass over
    all rows. The selected counters are gathered and scattered through flat
    indices: the d indices of a selection are distinct, so adding the
    increment mask in one fancy assignment is safe.
    """
    n_rows, m = values.shape
    flat = values.reshape(-1)  # a view: values is C-contiguous
    row_start = (np.arange(n_rows) * m)[:, None]
    gaps = np.empty((len(sel), n_rows), dtype=np.int64)
    vmin, vmax = values.min(axis=1), values.max(axis=1)
    for step, step_sel in zip(gaps, sel):
        at = step_sel + row_start
        picked = flat[at]
        sel_min = picked.min(axis=1)
        inc = picked == sel_min[:, None]
        if variant != _CU:
            at_cap = (vmax - vmin == g) & (sel_min == vmax)
            if variant == _LB:
                inc[at_cap] = False
        flat[at] = picked + inc
        if variant == _UB and at_cap.any():  # lift the minimum of the rows at the cap
            lifted = values[at_cap]
            lifted += lifted == vmin[at_cap, None]
            values[at_cap] = lifted
        values.min(axis=1, out=vmin)
        values.max(axis=1, out=vmax)
        np.subtract(vmax, vmin, out=step)
    return gaps.T


def _draws(seed: int, runs: range, T: int, m: int, d: int) -> Iterator[np.ndarray]:
    """The T selections of each run, in (steps, runs, d) blocks of at most _BLOCK_STEPS steps.

    Each run draws from its own substream; several runs are decoded together.
    """
    rngs = [substream(seed, r) for r in runs]
    for start in range(0, T, _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, T - start)
        sel = np.empty((steps, len(rngs), d), dtype=np.int32)  # counter indices < m
        group = max(1, _BLOCK_STEPS // steps)
        for i in range(0, len(rngs), group):
            u = np.concatenate([rng.random((steps, d)) for rng in rngs[i : i + group]])
            sel[:, i : i + group] = _selections(u, m).reshape(-1, steps, d).transpose(1, 0, 2)
        yield sel


def _step_rows(values: np.ndarray, sel: np.ndarray, variant: int, g: int) -> np.ndarray:
    """Step the rows as `_run_rows` does; below `_MIN_BATCH_RUNS` rows, one by one."""
    if len(values) >= _MIN_BATCH_RUNS:
        return _run_rows(values, sel, variant, g)
    gaps = np.empty((len(values), len(sel)), dtype=np.int64)
    for row, trace, row_sel in zip(values, gaps, sel.transpose(1, 0, 2)):
        counters = row.tolist()
        trace[:] = _run_steps(counters, row_sel.tolist(), variant, g)
        row[:] = counters
    return gaps


def _run_blocks(runs: int, most: int) -> Iterator[range]:
    """Runs 0 .. runs - 1 in the fewest near-equal ranges of at most `most` runs."""
    n_blocks = -(-runs // most)
    ends = [runs * i // n_blocks for i in range(n_blocks + 1)]
    return map(range, ends, ends[1:])


def run_trajectory(config: SimConfig, run_index: int = 0) -> TrajectoryResult:
    """One seeded trajectory; exact conditional error from the final counters."""
    values = np.zeros((1, config.m), dtype=np.int64)
    blocks = _draws(config.seed, range(run_index, run_index + 1), config.T, config.m, config.d)
    variant = _VARIANT_CODES[config.variant]
    gaps = [_step_rows(values, sel, variant, config.g or 0)[0] for sel in blocks]
    return TrajectoryResult(
        values=values[0],
        gap_trace=np.concatenate(gaps),
        conditional_error=expected_min_over_subsets(values[0], config.d),
    )


def _stderr(values: Sequence[float], mean: float) -> float:
    """Standard error of the mean from the two-pass sample variance; NaN below two values."""
    n = len(values)
    if n < 2:
        return float("nan")
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1) / n)


def estimate_error(config: SimConfig) -> SimStats:
    """Average the exact conditional errors over independent seeded runs.

    Each run's error is C(m, d)^-1 times the integer numerator of
    `expected_min_over_subsets`, taken on Python ints from its sorted counters.
    """
    m, d, T = config.m, config.d, config.T
    variant, g = _VARIANT_CODES[config.variant], config.g or 0
    subsets = math.comb(m, d)
    errors: list[float] = []
    rates: list[float] = []
    counts = np.zeros(GAP_HISTOGRAM_LEVELS + 1, dtype=np.int64)
    for runs in _run_blocks(config.runs, _BATCH_RUNS):
        values = np.zeros((len(runs), m), dtype=np.int64)
        for sel in _draws(config.seed, runs, T, m, d):
            gaps = np.minimum(_step_rows(values, sel, variant, g), GAP_HISTOGRAM_LEVELS)
            counts += np.bincount(gaps.ravel(), minlength=len(counts))  # last bin: larger gaps too
        rows = np.sort(values, axis=1).tolist()  # sorted rows: the numerator's sort is a scan
        errors += [_expected_min_numerator(row, d) / subsets / T for row in rows]
        rates += [sum(row) / (T * m) for row in rows]

    mean = math.fsum(errors) / len(errors)
    tails = np.cumsum(counts[::-1])[::-1].tolist()  # tails[level]: steps with gap >= level
    histogram = {
        level: tails[level] / (T * config.runs) for level in range(1, GAP_HISTOGRAM_LEVELS + 1)
    }
    return SimStats(
        config=config,
        mean_error_rate=mean,
        stderr_error_rate=_stderr(errors, mean),
        mean_counter_rate=math.fsum(rates) / len(rates),
        gap_histogram=histogram,
        per_run_errors=errors,
        per_run_counter_rates=rates,
    )


@dataclass(frozen=True)
class SandwichReport:
    ok: bool
    first_violation: tuple[int, int] | None = None  # (step, counter index)

    def __bool__(self) -> bool:
        return self.ok


def sandwich_trace(m: int, d: int, g: int, T: int, seed: int) -> SandwichReport:
    """Drive LB(g), LB(g+1), CU, UB(g+1), UB(g) on one selection sequence.

    Verifies the element-wise ordering
    LB(g) <= LB(g+1) <= CU <= UB(g+1) <= UB(g) after every step, holding
    the snapshots of one block of steps at a time.
    """
    if g < 1:
        raise ConfigurationError(f"g must be >= 1, got {g}")
    SketchConfig(m, d)
    chains = [(_LB, g), (_LB, g + 1), (_CU, 0), (_UB, g + 1), (_UB, g)]
    counters = [[0] * m for _ in chains]
    done = 0  # steps of the earlier blocks
    for sel in _draws(seed, range(1), T, m, d):
        selections = sel[:, 0].tolist()
        snapshots = np.empty((len(chains), len(selections), m), dtype=np.int64)
        for (variant, cap), values, snaps in zip(chains, counters, snapshots):
            _run_steps(values, selections, variant, cap, snaps)
        bad = snapshots[:-1] > snapshots[1:]  # (adjacent chain pair, step, counter)
        steps = np.flatnonzero(bad.any(axis=(0, 2)))
        if len(steps):
            t = int(steps[0])
            index = int(np.flatnonzero(bad[:, t])[0]) % m  # first pair in chain order, then index
            return SandwichReport(ok=False, first_violation=(done + t + 1, index))
        done += len(selections)
    return SandwichReport(ok=True)


@dataclass(frozen=True)
class ProbeItemStats:
    item: Hashable
    count: int
    mean_error: float
    stderr: float


@dataclass(frozen=True)
class WorstCaseReport:
    items: list[ProbeItemStats]
    absent_mean: float
    absent_stderr: float
    ok: bool  # every present-item mean <= absent mean + 3 combined stderr


def worst_case_probe(
    m: int, d: int, stream: Sequence[Hashable], runs: int, seed: int
) -> WorstCaseReport:
    """Compare present-item errors against the absent-item error on a stream.

    Hash assignments are redrawn each run: as with `IdealHashTable`, each
    distinct item draws one uniform subset, in first-seen order, from the
    run's substream, as `_draws` draws its selections; a group of runs holds
    at most `_DECODE_CELLS` subset cells. The absent item's error uses the
    exact subset expectation, present items use their assigned subsets.
    """
    SketchConfig(m, d)
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    slot: dict[Hashable, int] = {}  # distinct items in first-seen order
    order = np.array([slot.setdefault(item, len(slot)) for item in stream], dtype=np.intp)
    if not slot:
        raise ConfigurationError("stream must hold at least one item")
    count_of = np.bincount(order)

    run_errors = np.empty((runs, len(slot)))
    absent_sum = 0.0
    absent_errors = []
    group = min(_BATCH_RUNS, max(1, _DECODE_CELLS // (len(slot) * d)))
    for block in _run_blocks(runs, group):
        subsets = np.concatenate(list(_draws(seed, block, len(slot), m, d)))  # (items, runs, d)
        values = np.zeros((len(block), m), dtype=np.int64)
        for start in range(0, len(order), _BLOCK_STEPS):
            _step_rows(values, subsets[order[start : start + _BLOCK_STEPS]], _CU, 0)
        picked = values[np.arange(len(block))[:, None], subsets]
        run_errors[block] = picked.min(axis=2).T - count_of
        for row in values.tolist():
            abs_err = expected_min_over_subsets(row, d)
            absent_sum += abs_err
            absent_errors.append(abs_err)

    absent_mean = absent_sum / runs
    absent_se = _stderr(absent_errors, absent_mean)
    items = []
    ok = True
    means = run_errors.sum(axis=0) / runs  # integer errors: exact sums in any order
    stats = zip(slot, count_of.tolist(), means.tolist(), run_errors.T.tolist())
    for item, count, mean, column in stats:
        se = _stderr(column, mean)
        items.append(ProbeItemStats(item=item, count=count, mean_error=mean, stderr=se))
        margin = 3.0 * math.hypot(se, absent_se) if runs > 1 else 0.0
        if mean > absent_mean + margin:
            ok = False
    return WorstCaseReport(items=items, absent_mean=absent_mean, absent_stderr=absent_se, ok=ok)


@dataclass(frozen=True)
class OracleResult:
    m: int
    d: int
    T: int
    exact_expected_error: Fraction

    @property
    def value(self) -> float:
        return float(self.exact_expected_error)

    @property
    def per_step(self) -> Fraction:
        return self.exact_expected_error / self.T


def brute_force_expected_error(m: int, d: int, T: int) -> OracleResult:
    """Exact E[error at horizon T] by enumerating every selection sequence.

    Averages the exact conditional subset expectation uniformly over all
    C(m, d)^T equally likely sequences; the result is an exact rational.
    The sequences are walked depth first, so each shared prefix is stepped
    once and only the counters along the current path are held.
    """
    SketchConfig(m, d)
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    n_subsets = math.comb(m, d)
    leaves = n_subsets**T
    if leaves > ORACLE_LEAF_GUARD:
        raise ConfigurationError(
            f"C({m},{d})^{T} = {leaves} sequences exceeds the {ORACLE_LEAF_GUARD} guard"
        )
    steps = [(s,) for s in combinations(range(m), d)]  # one-step selection sequences

    def numerators(values: list[int], steps_left: int) -> int:
        if steps_left == 0:
            return _expected_min_numerator(values, d)
        total = 0
        for step in steps:
            child = values.copy()
            _run_steps(child, step, _CU, 0)
            total += numerators(child, steps_left - 1)
        return total

    total = numerators([0] * m, T)
    return OracleResult(
        m=m, d=d, T=T, exact_expected_error=Fraction(total, n_subsets * leaves)
    )
