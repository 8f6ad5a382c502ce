"""Transition and conditional-error kernels of the gap-capped chains.

An update step is summarized by the event (v, c): v is the offset level of
the selected minimum and c the number of selected counters at that level.
Given the event, the next state is deterministic; the event probability
depends only on the current state, and beta is the conditional probability
that an absent item's estimate grows by one during the transition. The
event pass, `_event_pass`, is the one derivation of targets, probabilities
and betas; the test suite checks every row of P and r it yields, on small
chains, against the sketch's update rule applied to each d-subset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, InternalConsistencyError
from .states import StateSpace, state_space_size, validate_params

ROW_SUM_TOL = 1e-12
# Largest transition matrix, in estimated bytes, that a chain may build; see
# `check_kernel_size`. At m=50, d=4 the g=5 chain (about 0.7 GB) passes and
# g=6 (about 6.8 GB) fails.
KERNEL_BYTES_GUARD = 2 * 2**30
# Bytes per stored edge of P: a float64 probability and an int32 index.
BYTES_PER_EDGE = 12
# Each event's sources are handled in blocks of at most this many, so a
# large chain keeps each block's temporaries small enough to stay in cache.
_BLOCK_ROWS = 1 << 14


class Edges(NamedTuple):
    """Per-edge arrays of a kernel, one entry per (state, event) pair."""

    src: np.ndarray
    dst: np.ndarray
    v: np.ndarray
    c: np.ndarray
    p: np.ndarray
    beta: np.ndarray


@dataclass
class TransitionKernel:
    """What the bounds read of one chain variant: P and the reward vector.

    `p` is the transition matrix in CSR form, one row per source state with
    sorted int32 column indices; `p.T` is P^T as a CSC view of the same
    arrays. `r` is the per-state expected error increment, the row sums of P
    element-wise B. `n_edges` counts (state, event) pairs and is read off
    P: distinct events of a state reach distinct targets, so each edge is
    one stored nonzero. `edges()` re-derives the per-event edge list from
    the full event pass of `variant`; each edge is one event (v, c) of one
    source state. A UB kernel is an LB kernel re-targeted (`retarget_capped`
    in place, or `retarget_copy` beside it), so its P and r hold the same
    bits that pass gives. The re-targeting is the only work UB adds to LB's
    build. A re-targeted copy shares P's values and row pointers with the
    LB kernel it came from, so two kernels may hold one P's `data`.
    """

    space: StateSpace
    variant: str  # "lb" or "ub"
    p: sp.csr_matrix
    r: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.p.nnz

    def transition_matrix(self) -> sp.csr_matrix:
        return self.p

    def expected_increment(self) -> np.ndarray:
        """Per-state expected error increment: row sums of P element-wise B."""
        return self.r

    def edges(self) -> Edges:
        """Every edge in event order: (v, c) ascending, then source state."""
        v, c, src, dst, p, beta = zip(*_event_pass(self.space, self.variant))
        sizes = [len(rows) for rows in src]
        v, c = (np.repeat(np.array(x, dtype=np.int32), sizes) for x in (v, c))
        src, dst, p, beta = map(np.concatenate, (src, dst, p, beta))
        return Edges(src, dst, v, c, p, beta)


def _comb_table(nmax: int, rmax: int) -> np.ndarray:
    """C(n, r) for n in [0, nmax], r in [0, rmax], as float64.

    Entries are exact while below 2**53, which covers every r <= d at desk
    scale; beyond that the double-precision ratio is still accurate to
    ~1e-15 relative, well inside every tolerance used here.
    """
    table = np.zeros((nmax + 1, rmax + 1))
    for n in range(nmax + 1):
        for r in range(min(n, rmax) + 1):
            table[n, r] = float(math.comb(n, r))
    return table


def check_kernel_size(m: int, d: int, g: int) -> None:
    """Refuse a chain whose P would exceed KERNEL_BYTES_GUARD, before allocating.

    The estimate counts (g + 1) * d events per state, an upper bound on the
    edges, at BYTES_PER_EDGE each.
    """
    validate_params(m, d, g)
    estimate = state_space_size(m, d, g) * (g + 1) * d * BYTES_PER_EDGE
    if estimate > KERNEL_BYTES_GUARD:
        raise ConfigurationError(
            f"the (m={m}, d={d}, g={g}) chain needs about {estimate / 2**30:.1f} GiB "
            f"for its transition matrix, above the {KERNEL_BYTES_GUARD / 2**30:.0f} GiB guard"
        )


def _levels_above(space: StateSpace):
    """Yield (v, k_v, sum_{l > v} k_l) over all states, for each level v."""
    # sum_{l <= v} k_l; int32 holds m for every chain the size guard admits
    below = np.zeros(len(space), dtype=np.int32)
    for v in range(space.g + 1):
        kv = space.states[:, v]
        below += kv
        yield v, kv, space.m - below


def _live(kv: np.ndarray, above: np.ndarray, c: int, d: int) -> np.ndarray:
    """Mask of states where event (v, c) has positive probability.

    That probability is C(k_v, c) C(above, d - c) / C(m, d), with above =
    sum_{l > v} k_l, so the event is live exactly where k_v >= c and
    above >= d - c.
    """
    return (kv >= c) & (above >= d - c)


def _check_variant(variant: str) -> None:
    if variant not in ("lb", "ub"):
        raise ConfigurationError(f"variant must be 'lb' or 'ub', got {variant!r}")


def _event_pass(space: StateSpace, variant: str, capped_only: bool = False):
    """Yield (v, c, src, dst, p, beta) per event (v, c) and block of sources.

    The one place an edge is made, ranked and checked. One rule makes every
    target: lift c counters from level v to v + 1 (UB's capped event also
    lifts all of level 0), then shift a row whose level 0 is empty down one
    level. LB's capped event alone is the frozen self-loop, with beta = 0.
    Events come in (v, c) ascending order, each event's live sources in
    ascending blocks of at most _BLOCK_ROWS. The pass aborts on a target
    outside the state space (rank -1), on a beta outside [0, 1], and, after
    the last block, on a source whose event probabilities do not sum to 1
    within ROW_SUM_TOL. With `capped_only` it yields the capped event (g, d)
    alone, the last in pass order, and skips the row-sum check, which needs
    every event, and the N-sized sums that check reads.
    """
    _check_variant(variant)
    m, d, g = space.m, space.d, space.g
    comb = _comb_table(m, d)
    denom = float(math.comb(m, d))
    row_sums = None if capped_only else np.zeros(len(space))
    for v, kv, above in _levels_above(space):
        for c in range(1, d + 1):
            capped = v == g and c == d
            if capped_only and not capped:
                continue
            live = np.flatnonzero(_live(kv, above, c, d))
            for start in range(0, len(live), _BLOCK_ROWS):
                rows = live[start : start + _BLOCK_ROWS]
                above_r = above[rows]
                p = comb[kv[rows], c] * comb[above_r, d - c] / denom
                beta = (comb[above_r + c, d] - comb[above_r, d]) / denom

                k = np.zeros((g + 2, len(rows)), dtype=np.int64)  # levels x sources
                k[:-1] = space.states.T.take(rows, axis=1)  # widened from the states' dtype
                if capped and variant == "lb":
                    beta = np.zeros(len(rows))  # frozen: self-loop, no error growth
                else:
                    if capped:  # the d maxima are boosted, and every minimum with them
                        beta = (1 + denom - comb[m - k[0], d]) / denom
                        k[1], k[0] = k[0] + k[1], 0
                    k[v] -= c
                    k[v + 1] += c
                    empty = k[0] == 0
                    k[:-1, empty] = k[1:, empty]

                dst = space.rank(k[:-1].T)  # column-major, like `states`
                if (dst < 0).any():  # report the first row ranked -1
                    raise InternalConsistencyError(
                        f"transition target left the state space: {k[:-1, dst.argmin()].tolist()}"
                    )
                if not (beta.min() >= 0 and beta.max() <= 1):  # NaN fails too
                    raise InternalConsistencyError("beta values escaped [0, 1]")
                if row_sums is not None:
                    row_sums[rows] += p
                yield v, c, rows, dst, p, beta
    if row_sums is None:
        return
    worst = float(np.abs(row_sums - 1.0).max())
    if not worst <= ROW_SUM_TOL:
        raise InternalConsistencyError(f"kernel row sums deviate from 1 by {worst:.3e}")


def build_kernel(space: StateSpace, variant: str) -> TransitionKernel:
    """Construct LB's P and r from one vectorized pass over the events; UB's
    kernel is LB's with the capped event re-targeted (`retarget_capped`).

    After the size guard, which keeps every index within int32, each state's
    edges are counted and then written straight into P's CSR arrays (rows =
    sources) at 12 B per edge. Each edge is one stored nonzero, as distinct
    events of a state reach distinct targets: the total offset sum_l l k_l
    changes by +c for a move that keeps level 0 occupied, c - m for the
    all-minima move (c = k_0; 0 only at d = m, where it is the lone event),
    d + k_0 - m <= 0 for UB's capped event and 0 for LB's frozen self-loop.
    No two of these coincide, and two moves with equal c differ as vectors.
    So LB's frozen self-loop is the only diagonal entry of LB's P.

    UB's kernel costs LB's build plus the re-targeting. `chain_values`
    builds only LB's and re-targets it or a copy of it, so there UB's
    seconds count no build and LB's count the one both chains share.
    """
    _check_variant(variant)
    check_kernel_size(space.m, space.d, space.g)
    n = len(space)
    indptr = np.zeros(n + 1, dtype=np.int32)
    for _, kv, above in _levels_above(space):
        for c in range(1, space.d + 1):
            indptr[1:] += _live(kv, above, c, space.d)  # each state's edge count
    np.cumsum(indptr, out=indptr)
    n_edges = int(indptr[-1])
    cols = np.empty(n_edges, dtype=np.int32)
    data = np.empty(n_edges)
    fill = indptr[:-1].copy()  # next free slot in each source's row

    r = np.zeros(n)
    for _, _, rows, dst, p, beta in _event_pass(space, "lb"):
        slots = fill[rows]
        cols[slots] = dst
        data[slots] = p
        fill[rows] += 1
        r[rows] += p * beta
    p = sp.csr_matrix((data, cols, indptr), shape=(n, n))
    p.sort_indices()
    kernel = TransitionKernel(space=space, variant="lb", p=p, r=r)
    if variant == "ub":
        retarget_capped(kernel)
    return kernel


def retarget_capped(kernel: TransitionKernel) -> None:
    """Turn LB's kernel into UB's in place, without a second P.

    Only the column indices of P and r change; `retarget_copy` re-targets a
    copy of those two and keeps LB's kernel.

    The chains differ only on the capped event (g, d), with the same
    probability p on both: LB's edge is the row's self-loop, UB's goes to
    the lifted target with UB's beta. Each capped row has its self-loop's
    column re-pointed to UB's target and gains p * beta in r. The capped
    event is the last in pass order and LB adds p * 0 there, so r becomes
    UB's bit for bit. Targets and betas come from `_event_pass` restricted
    to the capped event, with its rank and beta checks; the row sums are
    LB's, already checked.

    No row needs re-sorting. A capped row's state has its top level at g,
    and `StateSpace.rank` orders states by top level, then by descending
    lexicographic order of the histogram. The all-minima move is the one
    target with top level g - 1, so it alone ranks below the source; every
    other move takes counters off the first level it changes, so it ranks
    above. UB's target keeps top level g, and at the first level where it
    differs from the source it holds more counters, as its levels shift
    down past the lifted minima; so it ranks between the two, where the
    self-loop sat.
    """
    if kernel.variant != "lb":
        raise ConfigurationError(f"only an LB kernel can be re-targeted, got {kernel.variant!r}")
    p, r = kernel.p, kernel.r
    for _, _, rows, dst, prob, beta in _event_pass(kernel.space, "ub", capped_only=True):
        first = p.indptr[rows]
        slots = first + (p.indices[first] != rows)  # after the all-minima move, if live
        if not (p.indices[slots] == rows).all():
            raise InternalConsistencyError("a capped row's self-loop is not where its rank puts it")
        p.indices[slots] = dst
        r[rows] += prob * beta
    kernel.variant = "ub"


def retarget_copy(kernel: TransitionKernel) -> TransitionKernel:
    """UB's kernel from LB's, leaving LB's intact.

    The copy shares P's values and row pointers with LB's kernel, which the
    re-targeting leaves as they are, and holds its own column indices and r,
    which `retarget_capped` re-targets: 4 B per edge and 8 B per state more
    than LB's kernel alone.
    """
    p = kernel.p
    p = sp.csr_matrix((p.data, p.indices.copy(), p.indptr), shape=p.shape)
    copy = TransitionKernel(kernel.space, kernel.variant, p, kernel.r.copy())
    retarget_capped(copy)
    return copy


def dump_kernel(space: StateSpace, variant: str, fh: TextIO) -> None:
    """Write a chain as JSON {m, d, g, variant, states, edges}, one block at a time.

    `edges` holds [src, dst, v, c, p, beta] per edge, in `edges()` order. The
    bytes are those of `json.dump` of the whole layout, but the memory does
    not grow with the edge count.
    """
    header = {"m": space.m, "d": space.d, "g": space.g, "variant": variant}
    fh.write(json.dumps(header)[:-1] + ', "states": [')
    for start in range(0, len(space), _BLOCK_ROWS):
        block = space.states[start : start + _BLOCK_ROWS].tolist()
        fh.write((", " if start else "") + json.dumps(block)[1:-1])
    fh.write('], "edges": [')
    sep = ""
    for v, c, src, dst, p, beta in _event_pass(space, variant):
        row = f"[%d, %d, {v}, {c}, %r, %r]".__mod__  # json's text for ints and floats
        rows = zip(src.tolist(), dst.tolist(), p.tolist(), beta.tolist())
        fh.write(sep + ", ".join(map(row, rows)))
        sep = ", "
    fh.write("]}")
