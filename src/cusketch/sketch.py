"""Counter arrays and update rules.

Implements the conservative update (CU) rule, the two gap-capped variants
(LB and UB), uniform selection of d counters, and the memoized ideal-hash
model that assigns each item a fixed random d-subset.

Counter indices are 0-based throughout. Selection sets are stored as sorted
tuples so that equality tests and memoization have a canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable

import numpy as np

from .config import SketchConfig
from .errors import ConfigurationError

SelectionSet = tuple[int, ...]


@dataclass(frozen=True)
class CounterArray:
    """The m counter values after `steps` update steps."""

    values: np.ndarray
    steps: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.int64))

    @property
    def m(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CappedSketch:
    """A counter array driven by the LB or UB gap-capped update rule."""

    counters: CounterArray
    g: int
    variant: str  # "lb" or "ub"

    def __post_init__(self):
        if self.variant not in ("lb", "ub"):
            raise ConfigurationError(f"variant must be 'lb' or 'ub', got {self.variant!r}")
        if self.g < 1:
            raise ConfigurationError(f"gap cap g must be >= 1, got {self.g}")


def zero_counters(config: SketchConfig) -> CounterArray:
    return CounterArray(np.zeros(config.m, dtype=np.int64), steps=0)


def _check_selection(counters: CounterArray, s: SelectionSet) -> None:
    if len(set(s)) != len(s):
        raise ConfigurationError(f"selection indices must be distinct: {s}")
    for u in s:
        if not 0 <= u < counters.m:
            raise ConfigurationError(f"counter index {u} out of range [0, {counters.m})")


def cu_update(counters: CounterArray, s: SelectionSet) -> CounterArray:
    """Conservative update: increment the selected counters at the selected minimum."""
    _check_selection(counters, s)
    sel = list(s)
    values = counters.values.copy()
    vmin = values[sel].min()
    for u in sel:
        if values[u] == vmin:
            values[u] += 1
    return CounterArray(values, counters.steps + 1)


def query(counters: CounterArray, s: SelectionSet) -> int:
    """Point estimate: minimum value over the item's selected counters."""
    _check_selection(counters, s)
    return int(counters.values[list(s)].min())


def gap(counters: CounterArray) -> int:
    """Difference between maximum and minimum counter values."""
    return int(counters.values.max() - counters.values.min())


def delta_of(counters: CounterArray) -> tuple[int, ...]:
    """Offset histogram: entry l counts counters exactly l above the minimum.

    Trailing zeros are trimmed, so the length is gap + 1 and the sum is m.
    """
    offsets = counters.values - counters.values.min()
    counts = np.bincount(offsets)
    return tuple(int(c) for c in counts)


def lb_update(state: CappedSketch, s: SelectionSet) -> CappedSketch:
    """LB rule: freeze the sketch when the cap is hit and only maxima are selected."""
    if state.variant != "lb":
        raise ConfigurationError("lb_update requires an LB sketch")
    counters = state.counters
    _check_selection(counters, s)
    values = counters.values
    sel = list(s)
    if gap(counters) == state.g and values[sel].min() == values.max():
        return replace(state, counters=CounterArray(values.copy(), counters.steps + 1))
    return replace(state, counters=cu_update(counters, s))


def ub_update(state: CappedSketch, s: SelectionSet) -> CappedSketch:
    """UB rule: on a capped max-only selection, also lift every minimum counter."""
    if state.variant != "ub":
        raise ConfigurationError("ub_update requires an UB sketch")
    counters = state.counters
    _check_selection(counters, s)
    values = counters.values
    sel = list(s)
    boost = gap(counters) == state.g and values[sel].min() == values.max()
    vmin = values.min()
    updated = cu_update(counters, s)
    if boost:
        new_values = updated.values.copy()
        new_values[values == vmin] += 1
        updated = CounterArray(new_values, updated.steps)
    return replace(state, counters=updated)


def uniform_select(config: SketchConfig, rng: np.random.Generator) -> SelectionSet:
    """Draw a uniformly random d-subset of the m counters.

    Partial Fisher-Yates shuffle: exact uniformity over all C(m, d) subsets,
    O(d) work per draw after the O(m) pool setup.
    """
    m, d = config.m, config.d
    pool = list(range(m))
    for j in range(d):
        # min() guards against u * (m - j) rounding up to exactly m - j
        r = j + min(int(rng.random() * (m - j)), m - j - 1)
        pool[j], pool[r] = pool[r], pool[j]
    return tuple(sorted(pool[:d]))


@dataclass
class IdealHashTable:
    """Memoized ideal hashing: each item keeps its first uniformly drawn subset."""

    config: SketchConfig
    assignments: dict[Hashable, SelectionSet] = field(default_factory=dict)

    def select(self, item: Hashable, rng: np.random.Generator) -> SelectionSet:
        s = self.assignments.get(item)
        if s is None:
            s = uniform_select(self.config, rng)
            self.assignments[item] = s
        return s
