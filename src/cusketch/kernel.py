"""Transition and conditional-error kernels of the gap-capped chains.

An update step is summarized by the event (v, c): v is the offset level of
the selected minimum and c the number of selected counters at that level.
Given the event, the next state is deterministic; the event probability
depends only on the current state, and beta is the conditional probability
that an absent item's estimate grows by one during the transition. The
event pass, `_event_pass`, is the one derivation of targets, probabilities
and betas; the test suite checks every row of P and r it yields, on small
chains, against the sketch's update rule applied to each d-subset. The pass
reads one block of rows of the state space at a time and ranks targets in
the whole space, so the build, UB's re-targeting and the dump go block by
block: beyond P and r, only the dump holds an N-sized array, its row sums.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import TextIO

import numpy as np

from .errors import ConfigurationError, InternalConsistencyError
from .states import StateSpace, state_space_size, validate_params

ROW_SUM_TOL = 1e-12
# Largest transition matrix, in estimated bytes, that a chain may build; see
# `check_kernel_size`. At m=50, d=4 the g=5 chain (about 0.7 GB) passes and
# g=6 (about 6.8 GB) fails.
KERNEL_BYTES_GUARD = 2 * 2**30
# Bytes per stored edge of P: a float64 probability and an int32 index.
BYTES_PER_EDGE = 12
# States are read in blocks of at most this many rows, so every temporary of
# a build, a re-targeting or a dump is block-sized, not N-sized.
_BLOCK_ROWS = 1 << 14


def _load_sparsetools():
    """SciPy's compiled sparse routines, loaded from their file alone.

    The bounds need two of them, `csr_matvec` and `csr_sort_indices`.
    Importing them through `scipy.sparse` would run its package init, which
    loads `numpy.f2py`, `numpy.testing`, `unittest` and more: about 0.15 s
    and 15 MB of peak RSS that every command would pay. `find_spec` locates
    SciPy without importing it, and the extension needs only NumPy. It is
    the same object code as `scipy.sparse`'s, so every product keeps SciPy's
    bits.
    """
    name = "scipy.sparse._sparsetools"
    scipy = importlib.util.find_spec("scipy")
    spec = None
    if scipy is not None:
        sparse = os.path.join(scipy.submodule_search_locations[0], "sparse")
        spec = FileFinder(sparse, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"SciPy's compiled module {name} was not found", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sparsetools = _load_sparsetools()


@dataclass
class TransitionKernel:
    """What the bounds read of one chain variant: P and the reward vector.

    P is held as its three CSR arrays, one row per source state: `indptr`
    (int32, N + 1 row starts), `indices` (int32 column indices, sorted
    within each row) and `data` (float64 probabilities). `r` is the
    per-state expected error increment, the row sums of P element-wise B.
    `n_edges` counts (state, event) pairs and is read off `indptr`: distinct
    events of a state reach distinct targets, so each edge is one stored
    nonzero. A UB kernel is an LB kernel re-targeted in place
    (`retarget_capped`), so its P and r hold the bits UB's own event pass
    gives, and the re-targeting is the only work UB adds to LB's build.
    """

    space: StateSpace
    variant: str  # "lb" or "ub"
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    r: np.ndarray
    order: str = "rank"  # state i is row i, or "offset": `StateSpace.offset_order`

    @property
    def n_edges(self) -> int:
        return int(self.indptr[-1])

    @property
    def p(self):
        """P as a `scipy.sparse.csr_matrix` over the kernel's own arrays, made on each read.

        No array is copied, so a write through the view writes the kernel.
        It is for readers off every command's path, such as the tests;
        `scipy.sparse` is imported on the first read, not with the module.
        """
        import scipy.sparse

        n = len(self.indptr) - 1
        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr), shape=(n, n))

    def transition_matrix(self):
        return self.p

    def expected_increment(self) -> np.ndarray:
        """Per-state expected error increment: row sums of P element-wise B."""
        return self.r


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


def _blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each run of at most _BLOCK_ROWS of n states, in order."""
    return [(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS)]


def _levels_above(block: np.ndarray, m: int):
    """Yield (v, k_v, sum_{l > v} k_l) over a block of states, for each level v."""
    # sum_{l <= v} k_l; int32 holds m for every chain the size guard admits
    below = np.zeros(len(block), dtype=np.int32)
    for v in range(block.shape[1]):
        kv = block[:, v]
        below += kv
        yield v, kv, m - below


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


def _event_pass(
    space: StateSpace,
    variant: str,
    start: int = 0,
    stop: int | None = None,
    event: tuple[int, int] | None = None,
):
    """Yield (v, c, rows, dst, p, beta) per event (v, c) of the states [start, stop).

    The one place an edge is made, ranked and checked. The block is a view
    of `space.states`; `rows` are its live sources, as indices local to the
    block, and `dst` their targets, ranked in the whole space. One rule
    makes every target: lift c counters from level v to v + 1 (UB's capped
    event also lifts all of level 0), then shift a row whose level 0 is
    empty down one level. LB's capped event alone is the frozen self-loop,
    with beta = 0. Events come in (v, c) ascending order. The pass aborts on
    a target outside the state space (rank -1), on a beta outside [0, 1],
    and, after the last event, on a source of the block whose event
    probabilities do not sum to 1 within ROW_SUM_TOL. With `event` it
    yields that event alone and skips the row-sum check, which needs every
    event. Every temporary is block-sized.
    """
    _check_variant(variant)
    m, d, g = space.m, space.d, space.g
    block = space.states[start:stop]
    comb = _comb_table(m, d)
    denom = float(math.comb(m, d))
    row_sums = None if event is not None else np.zeros(len(block))
    for v, kv, above in _levels_above(block, m):
        for c in range(1, d + 1):
            if event is not None and event != (v, c):
                continue
            capped = v == g and c == d
            rows = np.flatnonzero(_live(kv, above, c, d))
            if not len(rows):
                continue
            above_r = above[rows]
            p = comb[kv[rows], c] * comb[above_r, d - c] / denom
            beta = (comb[above_r + c, d] - comb[above_r, d]) / denom

            k = np.zeros((g + 2, len(rows)), dtype=np.int64)  # levels x sources
            k[:-1] = block.T.take(rows, axis=1)  # widened from the states' dtype
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
    if row_sums is not None:
        _check_row_sums(row_sums)


def _check_row_sums(row_sums: np.ndarray) -> None:
    worst = float(np.abs(row_sums - 1.0).max())
    if not worst <= ROW_SUM_TOL:
        raise InternalConsistencyError(f"kernel row sums deviate from 1 by {worst:.3e}")


def _relabel(space: StateSpace, order: str):
    """The map from rank indices (an array or a slice) to a kernel's labels in this order."""
    if order not in ("rank", "offset"):
        raise ConfigurationError(f"order must be 'rank' or 'offset', got {order!r}")
    return space.offset_order[0].__getitem__ if order == "offset" else lambda ranks: ranks


def build_kernel(space: StateSpace, variant: str, order: str = "rank") -> TransitionKernel:
    """Construct LB's P and r from one vectorized pass over the events; UB's
    kernel is LB's with the capped event re-targeted (`retarget_capped`).

    After the size guard, which keeps every index within int32, each state's
    edges are counted and then written straight into P's CSR arrays (rows =
    sources) at 12 B per edge. Both passes go block by block, so the only
    N-sized arrays are P's own and r. Each edge is one stored nonzero, as
    distinct events of a state reach distinct targets: the total offset
    off(k) = sum_l l k_l changes by +c for a move that keeps level 0
    occupied, c - m for the all-minima move (c = k_0; 0 only at d = m,
    where it is the lone event), d + k_0 - m <= 0 for UB's capped event and
    0 for LB's frozen self-loop. No two of these coincide, and two moves
    with equal c differ as vectors. So LB's frozen self-loop is the only
    diagonal entry of LB's P, and every other edge changes off. Each
    state's row, targets and r entry go to its label in `order`, so
    an offset-order kernel is the rank-order one permuted, bit for bit: each
    offset level is one block of rows, with no edge inside it but self-loops.

    UB's kernel costs LB's build plus the re-targeting. `chain_values`
    builds only LB's and re-targets it in place, so there UB's seconds count
    no build.
    """
    _check_variant(variant)
    label = _relabel(space, order)
    m, d = space.m, space.d
    check_kernel_size(m, d, space.g)
    n = len(space)
    indptr = np.zeros(n + 1, dtype=np.int32)
    for start, stop in _blocks(n):
        counts = np.zeros(stop - start, dtype=np.int32)  # each state's edge count
        for _, kv, above in _levels_above(space.states[start:stop], m):
            for c in range(1, d + 1):
                counts += _live(kv, above, c, d)
        indptr[1:][label(slice(start, stop))] = counts
    np.cumsum(indptr, out=indptr)
    n_edges = int(indptr[-1])
    cols = np.empty(n_edges, dtype=np.int32)
    data = np.empty(n_edges)

    r = np.zeros(n)
    for start, stop in _blocks(n):
        fill = indptr[label(slice(start, stop))].copy()  # next free slot in each source's row
        for _, _, rows, dst, p, beta in _event_pass(space, "lb", start, stop):
            slots = fill[rows]
            cols[slots] = label(dst)
            data[slots] = p
            fill[rows] += 1
            r[label(rows + start)] += p * beta
    sparsetools.csr_sort_indices(n, indptr, cols, data)
    kernel = TransitionKernel(space, "lb", data, cols, indptr, r, order)
    if variant == "ub":
        retarget_capped(kernel)
    return kernel


def retarget_capped(kernel: TransitionKernel) -> None:
    """Turn LB's kernel into UB's in place, without a second P.

    Only the column indices of P and r change. The chains differ only on
    the capped event (g, d), with the same probability p on both: LB's edge
    is the row's self-loop, UB's goes to the lifted target with UB's beta.
    Each capped row has its self-loop's column re-pointed to UB's target
    and gains p * beta in r. The capped event is the last in pass order and
    LB adds p * 0 there, so r becomes UB's bit for bit. Targets and betas
    come from `_event_pass` restricted to the capped event, block by block,
    with its rank and beta checks, relabelled in the kernel's order; the
    row sums are LB's, already checked.

    No row needs re-sorting: in either order the all-minima move alone
    sorts below the source, and UB's target between the two, where the
    self-loop sat. Rank order (`StateSpace.rank`) sorts by top level, then
    by descending lexicographic order. A capped row has top level g; the
    all-minima move alone drops it to g - 1, every other move takes
    counters off the first level it changes, and UB's target keeps level g
    but holds more counters at its first difference, as its levels shift
    down past the lifted minima. Offset order sorts by off: the all-minima
    move changes it by k_0 - m, every other LB move by +c > 0, and UB's
    target by d + k_0 - m, in (k_0 - m, 0], where 0 makes it the source.
    """
    if kernel.variant != "lb":
        raise ConfigurationError(f"only an LB kernel can be re-targeted, got {kernel.variant!r}")
    space, indices, indptr, r = kernel.space, kernel.indices, kernel.indptr, kernel.r
    label = _relabel(space, kernel.order)
    capped = (space.g, space.d)
    for start, stop in _blocks(len(space)):
        for _, _, rows, dst, prob, beta in _event_pass(space, "ub", start, stop, capped):
            rows = label(rows + start)
            first = indptr[rows]
            slots = first + (indices[first] != rows)  # after the all-minima move, if live
            if not (indices[slots] == rows).all():
                raise InternalConsistencyError(
                    "a capped row's self-loop is not where its label puts it"
                )
            indices[slots] = label(dst)
            r[rows] += prob * beta
    kernel.variant = "ub"


def dump_kernel(space: StateSpace, variant: str, fh: TextIO) -> None:
    """Write a chain as JSON {m, d, g, variant, states, edges}, one block at a time.

    `edges` holds [src, dst, v, c, p, beta] per edge in event order: (v, c)
    ascending, then source state. So each event runs over every block of
    states before the next, and the row sums are checked once all are
    written. The bytes are those of `json.dump` of the whole layout, but the
    memory grows only by 8 B per state, not with the edge count.
    """
    header = {"m": space.m, "d": space.d, "g": space.g, "variant": variant}
    fh.write(json.dumps(header)[:-1] + ', "states": [')
    blocks = _blocks(len(space))
    for start, stop in blocks:
        fh.write((", " if start else "") + json.dumps(space.states[start:stop].tolist())[1:-1])
    fh.write('], "edges": [')
    row_sums = np.zeros(len(space))
    sep = ""
    for v in range(space.g + 1):
        for c in range(1, space.d + 1):
            row = f"[%d, %d, {v}, {c}, %r, %r]".__mod__  # json's text for ints and floats
            for start, stop in blocks:
                for _, _, src, dst, p, beta in _event_pass(space, variant, start, stop, (v, c)):
                    src = src + start
                    row_sums[src] += p
                    rows = zip(src.tolist(), dst.tolist(), p.tolist(), beta.tolist())
                    fh.write(sep + ", ".join(map(row, rows)))
                    sep = ", "
    _check_row_sums(row_sums)
    fh.write("]}")
