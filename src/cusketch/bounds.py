"""Finite-horizon and asymptotic error bounds from the capped chains.

The LB chain's time-averaged expected error increment lower-bounds the
average estimation error of the plain conservative-update sketch; the UB
chain's upper-bounds it. With r the per-state expected error increment (the
row sums of P element-wise B), the finite-horizon bound is
(1/T) sum_{t<T} e_0^T P^t r. It is summed backward, h <- r + P h, which
reads P row by row; the long-run bound weights the stationary vector of the
chain by r.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import ConfigurationError, InternalConsistencyError, NonConvergenceError
from .kernel import KERNEL_BYTES_GUARD, TransitionKernel, build_kernel, check_kernel_size
from .states import enumerate_states

DIRECT_SOLVE_LIMIT = 2000
OCCUPANCY_TOL = 1e-12
# Arnoldi basis size for the stationary start vector. 40 raised the peak RSS
# of `asymptotic --m 50 --d 4 --g 3` from 72.2 to 76.2 MB and ran no faster.
ARNOLDI_NCV = 20
# Rounding floor of one power step, relative to max(pi). Once converged,
# ||pi P - pi||_inf / max(pi) fluctuates between 0 and 7 eps (median at most
# 1.7 eps) on chains of 2 to 230,300 states, so a residual at or below the
# floor is noise that no further step reduces reliably.
RESIDUAL_FLOOR = 8 * np.finfo(float).eps
# Power steps after which `stationary` raises NonConvergenceError.
MAX_POWER_ITERS = 10**6


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
    pt = kernel.p.T
    pi = np.zeros(len(kernel.space))
    pi[kernel.space.initial_index] = 1.0
    for _ in range(T):
        yield pi
        pi = pt @ pi
        total = pi.sum()
        if abs(total - 1.0) > OCCUPANCY_TOL:
            pi = pi / total


def evolve_occupancy(kernel: TransitionKernel, T: int) -> np.ndarray:
    """Materialized occupancy vectors, shape (T, n_states).

    Refused before allocating when the array would exceed KERNEL_BYTES_GUARD.
    """
    size = T * len(kernel.space) * 8
    if size > KERNEL_BYTES_GUARD:
        raise ConfigurationError(
            f"{T} occupancy vectors of {len(kernel.space)} states need "
            f"{size / 2**30:.1f} GiB, above the {KERNEL_BYTES_GUARD / 2**30:.0f} GiB guard"
        )
    return np.stack(list(occupancy_sequence(kernel, T)))


def expected_error_from_kernel(kernel: TransitionKernel, T: int) -> float:
    """Average expected error increment over the first T steps.

    Backward induction (Puterman, Markov Decision Processes, 1994, ch. 4):
    after j steps of h <- r + P h from h = r, h = sum_{t<=j} P^t r, so after
    T - 1 steps h[start] / T is the bound. P is read row by row, so no P^T
    is formed, and with P and r nonnegative no renormalization is needed.
    """
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    p, r = kernel.p, kernel.r
    h = r.copy()
    for _ in range(T - 1):
        h = p @ h
        h += r
    return float(h[kernel.space.initial_index]) / T


def stationary(kernel: TransitionKernel, tol: float = 1e-12) -> np.ndarray:
    """Limiting distribution by power iteration from an Arnoldi estimate.

    The chain is ergodic, so the iteration converges to the unique
    stationary vector from any start; the Arnoldi start only saves the
    thousands of steps a slowly rotating second eigenvalue pair costs. The
    iteration stops once ||pi P - pi||_inf <= tol, and raises
    NonConvergenceError once the residual sits at its rounding floor above
    tol. For small spaces a direct linear solve of the balance equations
    cross-checks the result.
    """
    _check_tol(tol)
    n = len(kernel.space)
    pt = kernel.p.T
    pi = _start_vector(kernel)
    residual = np.inf
    for it in range(MAX_POWER_ITERS):
        nxt = pt @ pi
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).max())
        if residual <= tol:
            break  # pi itself satisfies ||pi P - pi||_inf <= tol
        if residual <= RESIDUAL_FLOOR and residual <= RESIDUAL_FLOOR * pi.max():
            raise NonConvergenceError(
                f"power iteration residual {residual:.3e} > tol {tol:.1e} "
                f"is at the float64 rounding floor after {it + 1} iterations",
                residual=residual,
                iterations=it + 1,
            )
        pi = nxt
    else:
        raise NonConvergenceError(
            f"power iteration residual {residual:.3e} > tol {tol:.1e} "
            f"after {MAX_POWER_ITERS} iterations",
            residual=residual,
            iterations=MAX_POWER_ITERS,
        )

    if n <= DIRECT_SOLVE_LIMIT:
        direct = _stationary_direct(pt, n)
        # `not <=` also fails the NaN a singular balance system solves to
        if not float(np.abs(direct - pi).max()) <= max(1e-8, 100 * tol):
            raise InternalConsistencyError(
                "power iteration and direct solve disagree on the stationary vector"
            )
    return pi


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is not a finite positive number, NaN included."""
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"tol must be finite and positive, got {tol}")


def _start_vector(kernel: TransitionKernel) -> np.ndarray:
    """The dominant eigenvector of P^T as a distribution, else the start state.

    ARPACK needs k < n - 1, so a two-state chain starts from the solution of
    its balance equation, pi_0 P_01 = pi_1 P_10: from the point mass, with
    lambda_2 = -(m-1)/m, it needs hundreds of power steps. A one-state chain
    starts from the point mass, its stationary vector. (np.linalg.eig gives
    the same start, but loading LAPACK's eigensolver raised the peak RSS of
    `verify --level full` by 1.1 MB.)
    Any ARPACK failure starts from the point mass on the initial state. The
    uniform v0 matters: from the point mass ARPACK converged to a wrong Ritz
    vector on the m=50, d=4, g=3 chains.
    """
    n = len(kernel.space)
    vec = None
    if n == 2:
        vec = np.array([kernel.p[1, 0], kernel.p[0, 1]])  # (P_10, P_01)
    elif n > 2:
        try:
            _, vecs = scipy.sparse.linalg.eigs(
                kernel.p.T, k=1, which="LM", tol=0, v0=np.full(n, 1.0 / n),
                ncv=min(n, ARNOLDI_NCV),
            )
        except scipy.sparse.linalg.ArpackError:  # includes ArpackNoConvergence
            pass
        else:
            vec = vecs[:, 0]
    if vec is not None:
        with np.errstate(all="ignore"):
            pi = (vec / vec.sum()).real
        np.clip(pi, 0.0, None, out=pi)
        total = pi.sum()
        if np.isfinite(total) and total > 0:
            return pi / total
    pi = np.zeros(n)
    pi[kernel.space.initial_index] = 1.0
    return pi


def _stationary_direct(pt: sp.csc_matrix, n: int) -> np.ndarray:
    """Solve (P^T - I) pi = 0 with sum(pi) = 1 by replacing one equation."""
    a = (pt - sp.eye(n)).tolil()
    a[n - 1, :] = 1.0
    b = np.zeros(n)
    b[n - 1] = 1.0
    sol = scipy.sparse.linalg.spsolve(a.tocsr(), b)
    return np.asarray(sol)


class ChainValue(NamedTuple):
    """One chain's bound, its event count and the wall time to build and evaluate it."""

    value: float
    n_edges: int
    seconds: float


def chain_values(
    m: int,
    d: int,
    g: int,
    T: int | None,
    variants: Sequence[str] = ("lb", "ub"),
    tol: float = 1e-12,
) -> dict[str, ChainValue]:
    """Evaluate each variant's chain at horizon T, or in the limit for T=None.

    The tolerance and size guards run and the state space is enumerated once
    for all variants. Each kernel is dropped before the next is built, so
    only one is held at a time.
    """
    if T is None:
        _check_tol(tol)
    check_kernel_size(m, d, g)
    space = enumerate_states(m, d, g)
    chains = {}
    for variant in variants:
        start = time.perf_counter()
        kernel = build_kernel(space, variant)
        if T is None:
            value = float(stationary(kernel, tol=tol) @ kernel.r)
        else:
            value = expected_error_from_kernel(kernel, T)
        chains[variant] = ChainValue(value, kernel.n_edges, time.perf_counter() - start)
        del kernel  # hold one chain at a time
    return chains


def expected_error(m: int, d: int, g: int, T: int, variant: str) -> float:
    """The finite-horizon bound: lower for "lb", upper for "ub"."""
    return chain_values(m, d, g, T, (variant,))[variant].value


def asymptotic_error(
    m: int, d: int, g: int, variant: str, tol: float = 1e-12
) -> float:
    """Long-run bound: the limit of the finite-horizon bound as T grows."""
    return chain_values(m, d, g, None, (variant,), tol)[variant].value


def compute_bounds(m: int, d: int, g: int, T: int | None) -> BoundResult:
    """Both bounds with per-variant wall times; T=None means the T -> oo limit."""
    lb, ub = chain_values(m, d, g, T).values()
    return BoundResult(m, d, g, T, lb.value, ub.value, lb.seconds, ub.seconds)
