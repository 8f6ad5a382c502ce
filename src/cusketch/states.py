"""Enumeration and ranking of the gap-capped offset-histogram state space.

A state is the vector k = (k_0, ..., k_g) where k_l counts the counters
exactly l above the current minimum. Valid states satisfy

    sum(k) = m,   k_0 >= 1,   k_{L(k)} >= d,   L(k) <= g,

with L(k) the highest occupied level. The number of such states is
C(m + g - d, g).

With spare = m - 1 - d, a state of level L >= 1 is (1 + c_0, c_1, ...,
c_{L-1}, d + c_L, 0, ...) for a composition (c_0, ..., c_L) of spare into
L + 1 non-negative parts, so a state's index is its composition's rank
(Knuth, TAOCP 4A, 7.2.1.3) plus the sizes of the lower levels' blocks.
Ranking replaces any lookup table from states to indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SketchConfig
from .errors import ConfigurationError, InternalConsistencyError

DeltaState = tuple[int, ...]


def state_space_size(m: int, d: int, g: int) -> int:
    return math.comb(m + g - d, g)


def _count_dtype(m: int) -> np.dtype:
    """The smallest signed integer type of int8, int16 and int64 that holds m.

    A state's entries are counter counts, at most m. At m=50 the g=5 state
    array takes 14 MB as int8 where int64 took 113 MB.
    """
    for dtype in (np.int8, np.int16):
        if m <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def validate_params(m: int, d: int, g: int) -> None:
    SketchConfig(m, d)
    if g < 1:
        raise ConfigurationError(
            f"gap cap g must be >= 1, got {g} (the capped update rules are "
            "undefined for g = 0)"
        )


@dataclass
class StateSpace:
    """All valid offset histograms for (m, d, g), ranked in enumeration order."""

    m: int
    d: int
    g: int
    states: np.ndarray  # shape (N, g + 1), column-major, dtype `_count_dtype(m)`

    def __len__(self) -> int:
        return len(self.states)

    def state(self, i: int) -> DeltaState:
        return tuple(int(x) for x in self.states[i])

    def index(self, k: DeltaState) -> int:
        i = int(self.rank([self.pad(k)])[0])
        if i < 0:
            raise ConfigurationError(
                f"{tuple(k)} is not a state for m={self.m}, d={self.d}, g={self.g}"
            )
        return i

    def pad(self, k: DeltaState) -> DeltaState:
        """Extend a trimmed offset histogram to the fixed g + 1 length."""
        if len(k) > self.g + 1:
            raise ConfigurationError(f"state {k} exceeds gap cap g={self.g}")
        return tuple(k) + (0,) * (self.g + 1 - len(k))

    @property
    def initial_index(self) -> int:
        return 0

    def _levels(self, rows: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Prefix sums S_j = k_0 + ... + k_j for j < g, and the top level L.

        For rows with non-negative entries summing to m, L (the highest
        occupied level) is the number of prefixes short of m. Works column
        by column, which is fastest on the column-major arrays used here.
        """
        prefix = [rows[:, 0]]
        for j in range(1, self.g):
            prefix.append(prefix[-1] + rows[:, j])
        top = np.zeros(len(rows), dtype=np.int64)
        for s in prefix:
            top += s < self.m
        return prefix, top

    @cached_property
    def offset_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(position, starts): each state's label in ascending total offset
        off(k) = sum_l l k_l, ties in rank order (so the start state, alone
        at off 0, keeps 0), and the first label of each offset level, then N.
        l k_l overflows int8 at m = 50; int32 holds g m for any admitted chain.
        """
        off = np.zeros(len(self), dtype=np.int32)
        for level in range(1, self.g + 1):
            off += np.multiply(self.states[:, level], level, dtype=np.int32)
        position = np.empty(len(self), dtype=np.int32)
        position[np.argsort(off, kind="stable")] = np.arange(len(self), dtype=np.int32)
        sizes = np.bincount(off)
        return position, np.concatenate(([0], np.cumsum(sizes[sizes > 0])))

    @cached_property
    def _rank_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Block offsets per level and the flattened table of composition counts.

        counts[a + 1, b] = C(a + b, b), the number of compositions of a into
        b + 1 parts; row 0 holds zeros for a = -1.
        """
        spare, g = max(self.m - 1 - self.d, 0), self.g
        counts = np.zeros((spare + 2, g + 1), dtype=np.int64)
        counts[1:, 0] = 1
        for b in range(1, g + 1):
            counts[1:, b] = np.cumsum(counts[1:, b - 1])
        # the start state, then C(spare + l, l) states for each level l < g
        offsets = np.concatenate(([0, 1], 1 + np.cumsum(counts[spare + 1, 1:g])))
        return offsets, counts.ravel()

    def rank(self, rows) -> np.ndarray:
        """Index of each row in `states`, or -1 for a row that is not a state.

        A state sums to m, has k_0 >= 1, no negative entry and at least d
        counters on its top level L, and sits after the start state and the
        lower levels' blocks. Within its block, compositions (c_0, ..., c_L)
        of spare come in descending lexicographic order, so each part j < L
        adds the count of compositions with the same earlier parts and a
        larger part j: C(rem - 1 + L - j, L - j), where rem = spare - c_0 -
        ... - c_j = m - d - S_j is what the later parts hold; the term is 0
        when rem = 0. For j >= L, S_j = m, so the table index is negative
        and clips to a zero entry, which ranks m = d's lone start state 0.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.g + 1:
            raise ConfigurationError(f"state rows must have shape (n, {self.g + 1})")
        offsets, counts = self._rank_table
        g = self.g
        prefix, top = self._levels(rows)
        member = (prefix[-1] + rows[:, g] == self.m) & (rows[:, 0] >= 1)
        for level in range(1, g + 1):
            k = rows[:, level]
            member &= (k >= 0) & ((top != level) | (k >= self.d))
        out = offsets[top]
        for j, s in enumerate(prefix):
            out += counts.take((self.m - self.d - s) * (g + 1) + (top - j), mode="clip")
        out[~member] = -1
        return out


def enumerate_states(m: int, d: int, g: int) -> StateSpace:
    """Build the full state space in a deterministic order.

    States are grouped by highest occupied level L ascending and sorted in
    descending lexicographic order within each group, so index 0 is always
    the all-at-minimum start state (m, 0, ..., 0).

    The blocks are built level by level from `tails`: every L-tuple
    (c_1, ..., c_L) of non-negatives with sum <= spare, ordered by sum
    ascending, then descending lexicographically. Level L's compositions are
    (spare - sum, tail) for the tails in that order. States and tails are
    stored in `_count_dtype(m)`; tail sums are taken in int64.
    """
    validate_params(m, d, g)
    spare = m - 1 - d
    n = state_space_size(m, d, g)
    dtype = _count_dtype(m)
    states = np.zeros((n, g + 1), dtype=dtype, order="F")  # levels contiguous
    states[0, 0] = m
    start = 1
    tails = np.zeros((1, 0), dtype=dtype)
    for level in range(1, g + 1):
        if spare < 0:
            break  # d = m: the top level can never hold d counters unless L = 0
        sums = tails.sum(axis=1, dtype=np.int64)
        ends = np.searchsorted(sums, np.arange(spare + 1), side="right")
        tails = np.concatenate([
            np.column_stack(((s - sums[:end]).astype(dtype), tails[:end]))
            for s, end in enumerate(ends)
        ])
        block = states[start : start + len(tails)]
        block[:, 0] = 1 + spare - tails.sum(axis=1, dtype=np.int64)
        block[:, 1 : level + 1] = tails
        block[:, level] += d
        start += len(tails)
    if start != n:
        raise InternalConsistencyError(
            f"enumerated {start} states, expected C({m + g - d},{g}) = {n}"
        )
    return StateSpace(m=m, d=d, g=g, states=states)
