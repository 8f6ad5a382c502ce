"""Seeded Monte-Carlo engine and the exact oracle.

Every simulated trajectory is drawn by `_draws`, in blocks of at most
`_BLOCK_STEPS` steps, so memory stays bounded on any horizon. A group of
runs fills one buffer of uniforms, and `_selections` decodes it by tracing
each pick back through the earlier swaps of a partial Fisher-Yates
shuffle, with no m-wide index pool. `_step_rows` picks the stepper for a
block of runs: `_run_steps` advances one list of counters in pure Python,
at about 1.2 us a step; `_run_rows` advances the runs together, as the
columns of one (m x runs) array, one NumPy pass per step of 9-17 us at up
to 20 runs and about 36 us at 500 (m=50, d=4). Both apply the same CU, LB
or UB rule, and `_run_rows` can give each run its own rule and cap:
sandwich traces (`sandwich_traces`) step the five chains of many cases as
the columns of one pass and compare adjacent chains after every step. The
exact oracle, a walk over the sorted offset tuples that CU, LB or UB reach
(`exact_errors`), calls `_run_steps` directly.

The estimation error of an absent item is never sampled: conditionally on
the final counters, its expectation over the item's uniformly random
d-subset has the exact order-statistic form

    E[min over a random d-subset] =
        sum_{r=1}^{m-d+1} y_(r) * C(m-r, d-1) / C(m, d)

with y_(1) <= ... <= y_(m) the ascending-sorted counters. Summing over
sorted positions rather than distinct values makes ties a non-issue. The
numerator is summed exactly: in int64 when it cannot overflow, on Python
ints otherwise (`_numerators`).

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
# imported with the module: NumPy loads `numpy.random` lazily, and its first
# use would otherwise add its import to the first run's time
from numpy.random import PCG64, Generator

from .config import SketchConfig
from .errors import ConfigurationError

GAP_HISTOGRAM_LEVELS = 10
# (state, subset) pairs the exact oracle may step over its whole walk.
ORACLE_LEAF_GUARD = 10**6

_CU, _LB, _UB = 0, 1, 2
_VARIANT_CODES = {"cu": _CU, "lb": _LB, "ub": _UB}
# Steps drawn and decoded at a time: bounds the decoded selections' memory
# on long trajectories while keeping NumPy's per-call cost negligible.
_BLOCK_STEPS = 1024
# Selection cells one group of runs holds at a time: a sandwich chunk's
# (steps, d, chains) block and a worst-case probe's (items, d, runs)
# subsets, each cell of the smallest unsigned dtype that holds m - 1.
_DECODE_CELLS = 1 << 20
# Uniform cells `_draws` fills and decodes at a time (256 KiB of doubles).
# At T=250 and 2000 runs, 2^15 cells took 10-30% less time than 2^14 from
# d=11 on (m=20 to 128), where a group holds 2 to 11 runs, and as long at
# m=50, d=4. `estimate_error`'s tracemalloc peak at m=50, d=4 reads
# 1.86 MiB at 2^14 cells and 2.05 MiB at 2^15 (2.02 MiB with the pool).
_DRAW_CELLS = 1 << 15
# `_step_rows` steps fewer runs than this one by one through `_run_steps`,
# and more together through `_run_rows`. A `_run_rows` pass costs 9-17 us at
# up to 20 runs (m=8/d=2 to m=50/d=4), against 0.6-1.3 us per run-step for
# `_run_steps`, so stepping alone breaks even at 12-15 runs. In
# `estimate_error`, which adds each pass's gaps to its histogram, the
# batched path broke even at 16-20 runs at T=250 (m=50/d=4, m=10/d=9,
# m=8/d=2) and was 15-40% faster at 24. One run of 10^5 steps at m=50/d=4
# took 1.12 s batched against 0.09 s alone (2-core Xeon, NumPy 2.4).
_MIN_BATCH_RUNS = 16
# Runs stepped together by one `_run_rows` call. At m=50, d=4, T=250 and
# 2000 runs, `estimate_error` took 0.148/0.102/0.079/0.069/0.069 s in blocks
# of 64/128/256/512/1000 runs, with tracemalloc peaks of
# 0.5/0.7/1.1/1.9/3.4 MiB; the `simulate` command's peak RSS read
# 37.9/37.9/38.4/39.2/40.4 MiB (medians of 9, 2-core Xeon, NumPy 2.4,
# draw groups of 2^14 cells).
# 2000 `run_trajectory` calls, one run each, took 0.92 s. 512 matches
# 1000's time at half its added memory.
_BATCH_RUNS = 512
# The chains a sandwich trace steps: LB(g), LB(g+1), CU, UB(g+1), UB(g).
_CHAINS = 5

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64): the 64-bit mask would alias it to another seed."""
    if not 0 <= seed <= _MASK64:
        raise ConfigurationError(f"seed must lie in [0, 2**64), got {seed}")


def mix64(seed: int, run_index: int) -> int:
    """splitmix64 finalizer over seed + run * golden-gamma; the documented
    per-run substream derivation. Refuses a seed as `_check_seed` does."""
    _check_seed(seed)
    z = (seed + run_index * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream(seed: int, run_index: int) -> Generator:
    return Generator(PCG64(mix64(seed, run_index)))


@dataclass(frozen=True)
class SimConfig:
    m: int
    d: int
    T: int
    runs: int
    seed: int
    variant: str = "cu"  # "cu", "lb", or "ub"
    g: int | None = None  # required for lb/ub, refused for cu

    def __post_init__(self):
        _check_walk(self.m, self.d, self.T, self.variant, self.g)
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")
        _check_seed(self.seed)


def _check_walk(m: int, d: int, T: int, variant: str, g: int | None) -> None:
    """Refuse a bad (m, d), T < 1, an unknown variant, LB or UB without a cap
    g >= 1, and CU with a cap."""
    SketchConfig(m, d)
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    if variant not in _VARIANT_CODES:
        raise ConfigurationError(f"variant must be one of cu/lb/ub, got {variant!r}")
    if variant != "cu" and (g is None or g < 1):
        raise ConfigurationError("lb/ub simulation requires a gap cap g >= 1")
    if variant == "cu" and g is not None:
        raise ConfigurationError("a gap cap g applies only to the lb/ub variants")


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


def _numerators(ordered: np.ndarray, d: int) -> list[int]:
    """`_expected_min_numerator` of each column of the (m, R) counters, sorted along axis 0.

    One int64 product of the weights with the smallest m - d + 1 rows when
    no sum can pass 2^63: every term is nonnegative and the weights sum to
    C(m, d), so max(counter) * C(m, d) bounds each partial sum. A zero
    maximum counts as 1, so that each weight fits int64 as well. Otherwise
    column by column on Python ints.
    """
    m = len(ordered)
    if max(1, int(ordered[-1].max())) * math.comb(m, d) < 2**63:
        weights = np.array(_order_weights(m, d), dtype=np.int64)
        return (weights @ ordered[: m - d + 1]).tolist()
    return [_expected_min_numerator(column, d) for column in ordered.T.tolist()]


@functools.lru_cache(maxsize=8)
def _order_weights(m: int, d: int) -> tuple[int, ...]:
    """C(m - r, d - 1) for sorted positions r = 1 .. m - d + 1."""
    return tuple(math.comb(m - r, d - 1) for r in range(1, m - d + 2))


def _selections(u: np.ndarray, m: int) -> np.ndarray:
    """Decode each (..., d) row of uniforms into d distinct counter indices.

    The partial Fisher-Yates shuffle of `uniform_select`, vectorized over
    the rows: row t gives the subset `uniform_select` draws from the same d
    doubles (unsorted). Pick j is the pool entry at r_j = j + floor(u_j (m - j))
    (clipped to m - 1) after swaps 0 .. j - 1, and swap k exchanges
    positions k and r_k. So the pick is found by tracing r_j back through
    the earlier swaps, latest first: a position equal to r_k came from k.
    A traced position never falls to k itself, since it stays above every
    earlier swap's own index. The picks are held as the rows of one
    (d, ...) array, and swap k traces all later picks at once, so the
    d(d - 1)/2 comparisons take d - 1 passes, with no m-wide pool. Those
    comparisons grow as d^2 against the pool's m + d cells a row: at T=250,
    `estimate_error` ran 1.1-2x as fast as with the pool from d=4 to
    d=24 (m=20 to 50), about as fast at m=64, d=32, and 1.3x as slow at
    m=128, d=64. Indices are held in the smallest unsigned dtype that holds
    m - 1; the result has u's shape, as a view of that array.
    """
    d = u.shape[-1]
    dtype = np.min_scalar_type(m - 1)
    # floor(min(x, c)) = min(floor(x), c) for an integer c; the cast floors x >= 0
    picks = np.stack(
        [np.minimum(u[..., j] * (m - j), m - j - 1).astype(dtype) + dtype.type(j) for j in range(d)]
    )
    # row k still holds r_k: only the passes of swaps 0 .. k - 1 write to it,
    # and they run later
    for k in range(d - 2, -1, -1):
        later = picks[k + 1 :]
        np.copyto(later, dtype.type(k), where=later == picks[k])
    return np.moveaxis(picks, 0, -1)


def _run_steps(
    values: list[int],
    selections: Sequence[Sequence[int]],
    variant: int,
    g: int,
) -> list[int]:
    """Advance `values` in place, one step per selection; return the gap trace.

    CU increments the selected counters that sit at the selection's minimum.
    When the gap equals g and only maxima are selected, LB leaves the
    counters unchanged and UB also lifts every counter at the minimum.
    The minimum, maximum and count at the minimum are tracked, so a step
    costs O(d) unless the minimum level empties.
    """
    value_at = values.__getitem__
    vmin, vmax = min(values), max(values)
    nmin = values.count(vmin)
    gaps = []
    for sel in selections:
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
    return gaps


def _run_rows(
    values: np.ndarray,
    sel: np.ndarray,
    variant: int | np.ndarray,
    g: int | np.ndarray,
) -> Iterator[np.ndarray]:
    """Advance every column of the (m, R) counters in place; yield each step's (R,) gaps.

    Column r takes the selections sel[:, :, r] of the (T, d, R) array, one
    per step, under the rule of `_run_steps`; each step is one NumPy pass
    over all columns, and its gaps are yielded, as a new array, while the
    counters hold that step. `variant` and `g` are one code and cap for
    every column, or arrays of R of them, so runs under different rules
    step together; when no run is LB or UB, a step does no capped-rule work.
    Runs lie along the last axis, so every reduction (over a selection and
    over the counters) runs along axis 0. The selected counters are gathered
    and scattered through the flat indices sel * R + r: a selection's
    indices are distinct, or repeat an index with the same value and
    increment, so adding the increment mask in one fancy assignment is safe.
    The maximum needs no reduction: it moves up by one exactly when every
    pick sits at it and is incremented; a UB lift stops below it.
    """
    n_runs = values.shape[1]
    flat = values.reshape(-1)  # a view: values is C-contiguous
    run = np.arange(n_runs)
    vmin, vmax = values.min(axis=0), values.max(axis=0)
    capped = bool(np.any(np.not_equal(variant, _CU)))
    if capped:
        cap = np.where(np.equal(variant, _CU), -1, g)  # no gap is -1: CU runs never sit at it
        lb_runs, ub_runs = np.equal(variant, _LB), np.equal(variant, _UB)
    for step_sel in sel:
        at = np.multiply(step_sel, n_runs, dtype=np.intp)  # widened from the draws' dtype
        at += run
        picked = flat[at]
        sel_min = picked.min(axis=0)
        inc = picked == sel_min
        top = sel_min == vmax  # every pick sits at the maximum, which moves up by one
        if capped:
            at_cap = (vmax - vmin == cap) & top
            held = at_cap & lb_runs
            inc &= ~held
            top &= ~held
            lift = at_cap & ub_runs
        flat[at] = picked + inc
        if capped and lift.any():  # lift the minimum of the UB runs at the cap
            lifted = values[:, lift]
            lifted += lifted == vmin[lift]
            values[:, lift] = lifted
        values.min(axis=0, out=vmin)
        vmax += top
        yield vmax - vmin


def _draws(seed: int, runs: range, T: int, m: int, d: int) -> Iterator[np.ndarray]:
    """The T selections of each run, in (steps, d, runs) blocks of at most _BLOCK_STEPS steps.

    Each run draws from its own substream. Runs are taken in groups of
    about `_DRAW_CELLS` uniforms: each run of a group writes its (steps, d)
    doubles into one reused (runs, steps, d) buffer, and the group is
    decoded by one `_selections` call. The indices keep `_selections`'
    dtype, the smallest unsigned one that holds m - 1.
    """
    rngs = [substream(seed, r) for r in runs]
    for start in range(0, T, _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, T - start)
        sel = np.empty((steps, d, len(rngs)), dtype=np.min_scalar_type(m - 1))
        group = max(1, _DRAW_CELLS // (steps * d))
        buffer = np.empty((min(group, len(rngs)), steps, d))
        for i in range(0, len(rngs), group):
            part = rngs[i : i + group]
            u = buffer[: len(part)]
            for rng, row in zip(part, u):
                rng.random(out=row)
            sel[..., i : i + group] = _selections(u, m).transpose(1, 2, 0)
        yield sel


def _step_rows(
    values: np.ndarray, sel: np.ndarray, variant: int, g: int
) -> Iterator[np.ndarray]:
    """Step the columns as `_run_rows` does and yield the gaps in step order.

    From `_MIN_BATCH_RUNS` columns up these are `_run_rows`' (R,) gaps of
    each step; below it the columns are stepped one by one through
    `_run_steps`, and the block's (steps, R) gaps are yielded at once.
    """
    if values.shape[1] >= _MIN_BATCH_RUNS:
        yield from _run_rows(values, sel, variant, g)
        return
    gaps = np.empty((len(sel), values.shape[1]), dtype=np.int64)
    for column, trace, run_sel in zip(values.T, gaps.T, sel.transpose(2, 0, 1)):
        counters = column.tolist()
        trace[:] = _run_steps(counters, run_sel.tolist(), variant, g)
        column[:] = counters
    yield gaps


def _run_blocks(runs: int, most: int) -> Iterator[range]:
    """Runs 0 .. runs - 1 in the fewest near-equal ranges of at most `most` runs."""
    n_blocks = -(-runs // most)
    ends = [runs * i // n_blocks for i in range(n_blocks + 1)]
    return map(range, ends, ends[1:])


def run_trajectory(config: SimConfig, run_index: int = 0) -> TrajectoryResult:
    """One seeded trajectory; exact conditional error from the final counters."""
    values = np.zeros((config.m, 1), dtype=np.int64)
    blocks = _draws(config.seed, range(run_index, run_index + 1), config.T, config.m, config.d)
    variant, g = _VARIANT_CODES[config.variant], config.g or 0
    gaps = [gap.ravel() for sel in blocks for gap in _step_rows(values, sel, variant, g)]
    return TrajectoryResult(
        values=values[:, 0],
        gap_trace=np.concatenate(gaps),
        conditional_error=expected_min_over_subsets(values[:, 0], config.d),
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
    `expected_min_over_subsets`, summed exactly from its sorted counters
    (`_numerators`: in int64 when no sum can overflow, on Python ints
    otherwise), so every float is the one a Python-int sum gives.
    Runs are stepped in blocks of at most `_BATCH_RUNS`, and each step's
    clipped gaps are added to the histogram as they are yielded, so no
    (runs, T) gap trace is ever held.
    """
    m, d, T = config.m, config.d, config.T
    variant, g = _VARIANT_CODES[config.variant], config.g or 0
    subsets = math.comb(m, d)
    errors: list[float] = []
    rates: list[float] = []
    counts = np.zeros(GAP_HISTOGRAM_LEVELS + 1, dtype=np.int64)
    for runs in _run_blocks(config.runs, _BATCH_RUNS):
        values = np.zeros((m, len(runs)), dtype=np.int64)
        for sel in _draws(config.seed, runs, T, m, d):
            for gaps in _step_rows(values, sel, variant, g):  # one step's gaps, or a block's
                np.minimum(gaps, GAP_HISTOGRAM_LEVELS, out=gaps)  # last bin: larger gaps too
                counts += np.bincount(gaps.ravel(), minlength=len(counts))
        errors += [n / subsets / T for n in _numerators(np.sort(values, axis=0), d)]
        rates += [total / (T * m) for total in values.sum(axis=0).tolist()]

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
    """The sandwich report of one case: `sandwich_traces([(m, d, g, T, seed)])[0]`."""
    return sandwich_traces([(m, d, g, T, seed)])[0]


def sandwich_traces(cases: Sequence[tuple[int, int, int, int, int]]) -> list[SandwichReport]:
    """Drive LB(g), LB(g+1), CU, UB(g+1), UB(g) on each case's selection sequence.

    Verifies, for each (m, d, g, T, seed), the element-wise ordering
    LB(g) <= LB(g+1) <= CU <= UB(g+1) <= UB(g) after each of its T steps,
    on the selections `_draws(seed, range(1), T, m, d)` draws. Cases with
    the same m are stepped together (`_sandwich_chunk`), in chunks of at
    most `_BATCH_RUNS` cases, fewer where one block of a chunk's selections
    for its five chains would pass `_DECODE_CELLS` cells. A bad (m, d),
    T < 1, g < 1 or seed is refused before anything is stepped, as
    `_check_walk` and `_check_seed` refuse it.
    """
    for m, d, g, T, seed in cases:
        _check_walk(m, d, T, "lb", g)
        _check_seed(seed)
    by_m: dict[int, list[int]] = {}
    for i, case in enumerate(cases):
        by_m.setdefault(case[0], []).append(i)
    reports: list = [None] * len(cases)
    for group in by_m.values():
        steps = min(_BLOCK_STEPS, max(cases[i][3] for i in group))
        width = max(cases[i][1] for i in group)
        most = min(_BATCH_RUNS, max(1, _DECODE_CELLS // (_CHAINS * steps * width)))
        for block in _run_blocks(len(group), most):
            chunk = [group[k] for k in block]
            for i, report in zip(chunk, _sandwich_chunk([cases[i] for i in chunk])):
                reports[i] = report
    return reports


def _sandwich_chunk(cases: Sequence[tuple[int, int, int, int, int]]) -> list[SandwichReport]:
    """The reports of n cases sharing one m, their 5n chains the columns of one `_run_rows` pass.

    Column k * n + c holds chain k of case c, in the order of `sandwich_traces`;
    each block of steps is one `_selections` decode and one pass.
    A case with d below the chunk's widest repeats its first pick, which
    changes nothing under the rule; steps past a case's T are stepped but
    not compared. A case's first violation is its earliest step, then the
    first adjacent chain pair in chain order, then the first counter index.
    """
    n, m = len(cases), cases[0][0]
    _, ds, gs, horizons, seeds = zip(*cases)
    width, longest = max(ds), max(horizons)
    values = np.zeros((m, _CHAINS * n), dtype=np.int64)
    chains = values.reshape(m, _CHAINS, n)  # a view
    variant = np.repeat([_LB, _LB, _CU, _UB, _UB], n)
    g = np.array(gs)
    caps = np.concatenate([g, g + 1, 0 * g, g + 1, g])
    padded = np.arange(width)[:, None] >= np.array(ds)  # (pick, case): picks past its d
    rngs = [substream(seed, 0) for seed in seeds]
    first: dict[int, tuple[int, int]] = {}  # case -> (step, counter index)
    bad = np.empty((m, _CHAINS - 1, n), dtype=bool)

    for start in range(0, longest, _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, longest - start)
        u = np.zeros((steps, n, width))
        for c, (rng, d, T) in enumerate(zip(rngs, ds, horizons)):
            if T > start:
                mine = min(steps, T - start)
                u[:mine, c, :d] = rng.random((mine, d))
        sel = _selections(u, m).transpose(0, 2, 1)
        sel = np.where(padded, sel[:, :1], sel)
        for t, _ in enumerate(_run_rows(values, np.tile(sel, _CHAINS), variant, caps)):
            np.greater(chains[:, :-1], chains[:, 1:], out=bad)
            if bad.any():
                step = start + t + 1
                for c in np.flatnonzero(bad.any(axis=(0, 1))).tolist():
                    if c not in first and step <= horizons[c]:
                        first[c] = (step, int(np.flatnonzero(bad[:, :, c].T)[0]) % m)
    return [SandwichReport(ok=c not in first, first_violation=first.get(c)) for c in range(n)]


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
        subsets = np.concatenate(list(_draws(seed, block, len(slot), m, d)))  # (items, d, runs)
        values = np.zeros((m, len(block)), dtype=np.int64)
        for start in range(0, len(order), _BLOCK_STEPS):
            for _ in _step_rows(values, subsets[order[start : start + _BLOCK_STEPS]], _CU, 0):
                pass
        picked = values[subsets, np.arange(len(block))]  # (items, d, runs)
        run_errors[block] = picked.min(axis=1).T - count_of
        for row in values.T.tolist():
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


def exact_errors(m: int, d: int, T: int, variant: str = "cu", g: int | None = None) -> list:
    """Exact E[error after t steps] as Fractions, t = 0 .. T, over every selection sequence.

    The rules commute with permuting the counters and read only the offsets
    (counters less their minimum), so `reach` maps each sorted offset tuple
    to the number of sequences reaching it and the sum of their minima; a
    capped walk stays finite. A tuple's successors and E[min] are worked out
    once. A step lifts the minimum by at most one. E[err_t] is the sum of
    minima * C(m, d) + count * C(m, d) E[min over a subset of the offsets],
    over C(m, d)^(t + 1). Refused once the steps left would take the (state,
    subset) pairs walked past ORACLE_LEAF_GUARD, at least one state a step.
    """
    _check_walk(m, d, T, variant, g)
    code, cap = _VARIANT_CODES[variant], g or 0
    steps = [(s,) for s in combinations(range(m), d)]  # one-step selection sequences
    per = len(steps)
    reach = {(0,) * m: (1, 0)}
    moves: dict[tuple[int, ...], dict] = {}  # offsets -> {(child, lift): subsets}
    errors = [Fraction(0)]
    numerator = functools.cache(lambda offsets: _expected_min_numerator(offsets, d))
    stepped = 0
    for t in range(1, T + 1):
        least = stepped + (len(reach) + T - t) * per
        if least > ORACLE_LEAF_GUARD:
            raise ConfigurationError(
                f"the oracle would step at least {least} (state, subset) pairs, "
                f"above the {ORACLE_LEAF_GUARD} guard"
            )
        stepped += len(reach) * per
        after: dict[tuple[int, ...], tuple[int, int]] = {}
        for offsets, (count, minima) in reach.items():
            if offsets not in moves:
                tally = moves[offsets] = {}
                for step in steps:
                    child = list(offsets)
                    _run_steps(child, step, code, cap)
                    lift = 0 if 0 in child else 1
                    key = (tuple(sorted(x - lift for x in child)), lift)
                    tally[key] = tally.get(key, 0) + 1
            for (child, lift), n in moves[offsets].items():
                reached, low_sum = after.get(child, (0, 0))
                after[child] = (reached + count * n, low_sum + (minima + lift * count) * n)
        reach = after
        total = sum(
            minima * per + count * numerator(offsets)
            for offsets, (count, minima) in reach.items()
        )
        errors.append(Fraction(total, per ** (t + 1)))
    return errors


def brute_force_expected_error(m: int, d: int, T: int) -> OracleResult:
    """Exact E[error at horizon T] under CU: the last value of `exact_errors`."""
    return OracleResult(m=m, d=d, T=T, exact_expected_error=exact_errors(m, d, T)[T])
