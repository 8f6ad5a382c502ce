"""Finite-horizon and asymptotic error bounds from the capped chains.

The LB chain's time-averaged expected error increment lower-bounds the
average estimation error of the plain conservative-update sketch; the UB
chain's upper-bounds it. Both are computed by evolving the occupancy vector
of the offset-histogram chain and weighting it by the per-state expected
error increment (the row sums of P element-wise B).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import ConfigurationError, InternalConsistencyError, NonConvergenceError
from .kernel import TransitionKernel, build_kernel, check_kernel_size
from .states import enumerate_states

DIRECT_SOLVE_LIMIT = 2000
OCCUPANCY_TOL = 1e-12


@dataclass(frozen=True)
class BoundResult:
    """Lower/upper bound pair for one (m, d, g) at horizon T (None = limit)."""

    m: int
    d: int
    g: int
    T: int | None
    lower: float
    upper: float
    lower_seconds: float
    upper_seconds: float


def occupancy_sequence(kernel: TransitionKernel, T: int) -> Iterator[np.ndarray]:
    """Yield the state distribution at steps 0 .. T-1.

    Step 0 is the point mass on the all-at-minimum state. Each vector is
    renormalized to wash out float drift; the correction is ~1e-16 per step.
    """
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    pi = np.zeros(len(kernel.space))
    pi[kernel.space.initial_index] = 1.0
    for _ in range(T):
        yield pi
        pi = kernel.pt @ pi
        total = pi.sum()
        if abs(total - 1.0) > OCCUPANCY_TOL:
            pi = pi / total


def evolve_occupancy(kernel: TransitionKernel, T: int) -> np.ndarray:
    """Materialized occupancy vectors, shape (T, n_states)."""
    return np.stack(list(occupancy_sequence(kernel, T)))


def expected_error_from_kernel(kernel: TransitionKernel, T: int) -> float:
    """Average expected error increment over the first T steps.

    The occupancy vectors are summed and weighted by r once at the end: one
    dot product per step would wake a multi-threaded BLAS T times.
    """
    occupied = np.zeros(len(kernel.space))
    for pi in occupancy_sequence(kernel, T):
        occupied += pi
    return float(occupied @ kernel.r) / T


def expected_error(m: int, d: int, g: int, T: int, variant: str) -> float:
    """The finite-horizon bound: lower for "lb", upper for "ub"."""
    check_kernel_size(m, d, g)
    space = enumerate_states(m, d, g)
    kernel = build_kernel(space, variant)
    return expected_error_from_kernel(kernel, T)


def stationary(
    kernel: TransitionKernel,
    tol: float = 1e-12,
    max_iters: int = 10**6,
) -> np.ndarray:
    """Limiting distribution by power iteration from the start state.

    The chain is ergodic, so the iteration converges to the unique
    stationary vector. For small spaces a direct linear solve of the
    balance equations cross-checks the result.
    """
    if tol <= 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    n = len(kernel.space)
    pt = kernel.pt
    pi = np.zeros(n)
    pi[kernel.space.initial_index] = 1.0
    residual = np.inf
    for it in range(max_iters):
        nxt = pt @ pi
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).max())
        if residual <= tol:
            break  # pi itself satisfies ||pi P - pi||_inf <= tol
        pi = nxt
    else:
        raise NonConvergenceError(
            f"power iteration residual {residual:.3e} > tol {tol:.1e} "
            f"after {max_iters} iterations",
            residual=residual,
            iterations=max_iters,
        )

    if n <= DIRECT_SOLVE_LIMIT:
        direct = _stationary_direct(pt, n)
        if float(np.abs(direct - pi).max()) > max(1e-8, 100 * tol):
            raise InternalConsistencyError(
                "power iteration and direct solve disagree on the stationary vector"
            )
    return pi


def _stationary_direct(pt: sp.csr_matrix, n: int) -> np.ndarray:
    """Solve (P^T - I) pi = 0 with sum(pi) = 1 by replacing one equation."""
    a = (pt - sp.eye(n)).tolil()
    a[n - 1, :] = 1.0
    b = np.zeros(n)
    b[n - 1] = 1.0
    sol = scipy.sparse.linalg.spsolve(a.tocsr(), b)
    return np.asarray(sol)


def asymptotic_error_from_kernel(kernel: TransitionKernel, tol: float = 1e-12) -> float:
    pi = stationary(kernel, tol=tol)
    return float(pi @ kernel.r)


def asymptotic_error(
    m: int, d: int, g: int, variant: str, tol: float = 1e-12
) -> float:
    """Long-run bound: the limit of the finite-horizon bound as T grows."""
    check_kernel_size(m, d, g)
    space = enumerate_states(m, d, g)
    kernel = build_kernel(space, variant)
    return asymptotic_error_from_kernel(kernel, tol=tol)


def compute_bounds(m: int, d: int, g: int, T: int | None) -> BoundResult:
    """Both bounds with per-variant wall times; T=None means the T -> oo limit.

    Each chain's kernel is dropped before the next is built, so only one is
    held at a time.
    """
    check_kernel_size(m, d, g)
    space = enumerate_states(m, d, g)
    results = {}
    timings = {}
    for variant in ("lb", "ub"):
        start = time.perf_counter()
        kernel = build_kernel(space, variant)
        if T is None:
            value = asymptotic_error_from_kernel(kernel)
        else:
            value = expected_error_from_kernel(kernel, T)
        del kernel
        timings[variant] = time.perf_counter() - start
        results[variant] = value
    return BoundResult(
        m=m,
        d=d,
        g=g,
        T=T,
        lower=results["lb"],
        upper=results["ub"],
        lower_seconds=timings["lb"],
        upper_seconds=timings["ub"],
    )
