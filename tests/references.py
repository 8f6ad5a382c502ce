"""Forward references the tests check the package against; no command reads them."""

from typing import Iterator, NamedTuple

import numpy as np

from cusketch.errors import ConfigurationError
from cusketch.kernel import TransitionKernel, _event_pass

OCCUPANCY_TOL = 1e-12


def occupancy_sequence(kernel: TransitionKernel, T: int) -> Iterator[np.ndarray]:
    """Yield the state distribution at steps 0 .. T-1, one vector at a time.

    The forward reference for the backward sum. Step 0 is the point mass on
    the all-at-minimum state. Each vector is renormalized to wash out float
    drift; the correction is ~1e-16 per step.
    """
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    pt = kernel.p.T
    pi = np.zeros(len(kernel.space))
    pi[kernel.space.initial_index] = 1.0
    for _ in range(T):
        yield pi
        pi = pt @ pi
        total = pi.sum()
        if abs(total - 1.0) > OCCUPANCY_TOL:
            pi = pi / total


class Edges(NamedTuple):
    """Per-edge arrays of a kernel, one entry per (state, event) pair."""

    src: np.ndarray
    dst: np.ndarray
    v: np.ndarray
    c: np.ndarray
    p: np.ndarray
    beta: np.ndarray


def kernel_edges(kernel: TransitionKernel) -> Edges:
    """Every edge in event order: (v, c) ascending, then source state.

    One event pass over the whole space as a single block, so the sources
    are global state indices.
    """
    v, c, src, dst, p, beta = zip(*_event_pass(kernel.space, kernel.variant))
    sizes = [len(rows) for rows in src]
    v, c = (np.repeat(np.array(x, dtype=np.int32), sizes) for x in (v, c))
    src, dst, p, beta = map(np.concatenate, (src, dst, p, beta))
    return Edges(src, dst, v, c, p, beta)


def pool_selections(u: np.ndarray, m: int) -> np.ndarray:
    """Decode each row of a (T, d) uniform array into d distinct counter indices.

    The partial Fisher-Yates shuffle of `uniform_select` on an explicit pool
    of m indices per row, every swap carried out: the reference for the
    package's trace-back decode. Indices are held in the smallest unsigned
    dtype that holds m - 1.
    """
    T, d = u.shape
    rows = np.arange(T)
    pool = np.tile(np.arange(m, dtype=np.min_scalar_type(m - 1)), (T, 1))
    for j in range(d):
        r = j + np.minimum((u[:, j] * (m - j)).astype(np.int64), m - j - 1)
        picked = pool[rows, r]
        pool[rows, r] = pool[:, j]
        pool[:, j] = picked
    return pool[:, :d].copy()
