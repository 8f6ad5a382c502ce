"""Finite-horizon and asymptotic error bounds from the capped chains.

The LB chain's time-averaged expected error increment lower-bounds the
average estimation error of the plain conservative-update sketch; the UB
chain's upper-bounds it. With r the per-state expected error increment (the
row sums of P element-wise B), the finite-horizon bound is
(1/T) sum_{t<T} e_0^T P^t r. It is summed backward, h <- r + P h, which
reads P row by row. The long-run bound is pi.r, pi the chain's stationary
vector. It comes from a BiCGSTAB solve of the Poisson equation
(I - P + 1 e_0^T) h = r, which also reads P row by row, and is certified by
Odoni's interval: for any h, pi.r lies between the least and greatest entry
of r + P h - h (`long_run_interval`). A chain whose interval is wider than
tol gets one more BiCGSTAB solve of the same system, right-preconditioned
by an incomplete LU factor (`_ilu_solve`, the only step that imports
`scipy.sparse`) if it has at most ILU_MAX_STATES states, and raises
NonConvergenceError if that interval is too wide as well or the step is
not tried.

Every product with P outside that step goes through `_products`, which
calls SciPy's compiled `csr_matvec` on the kernel's CSR arrays: on a P of at
least SPLIT_MIN_NNZ nonzeros it splits the rows into two parts of equal
nonzero count, one for the calling thread and one for a one-thread pool, and
either way it gives the bits of `p @ x`.

`chain_values` is the one entry point: it guards, builds and evaluates each
chain, one after the other, and returns its value, edge count and seconds;
UB's kernel is LB's, re-targeted in place once LB's value is known, so one P
is held at a time. `expected_error` and `asymptotic_error` are its only
views, one chain's value each.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, NonConvergenceError
from .kernel import KERNEL_BYTES_GUARD, TransitionKernel, build_kernel, check_kernel_size
from .kernel import retarget_capped, sparsetools
from .states import StateSpace, enumerate_states

# the CSR kernel behind SciPy's `p @ x`, here called on a range of rows
_csr_matvec = sparsetools.csr_matvec

# Rounding floor of one power step, relative to max(pi). Once converged,
# ||pi P - pi||_inf / max(pi) fluctuates between 0 and 7 eps (median at most
# 1.7 eps) on chains of 2 to 230,300 states, so a residual at or below the
# floor is noise that no further step reduces reliably.
RESIDUAL_FLOOR = 8 * np.finfo(float).eps
# Power steps after which `stationary` raises NonConvergenceError.
MAX_POWER_ITERS = 10**6
# BiCGSTAB iterations (two mat-vecs each) before one Poisson solve gives up.
# The m=50, d=4, g=3 chains need 134 (LB) and 111 (UB).
MAX_KRYLOV_ITERS = 1000
# `_ilu_solve`'s incomplete LU (drop tolerance, fill bound over the nonzeros
# of I - P + 1 e_0^T, column order), which right-preconditions BiCGSTAB on
# the LB chains that plain BiCGSTAB leaves wide. In natural (lexicographic)
# state order (100,4,3) LB factored in 3.5 s at (1e-5, 10), in COLAMD's in
# 22 s. (1e-4, 10) factored (100,1,3) and (100,4,3) LB in 1.0 and 2.6 s,
# (1e-3, 10) in 8.6 and 1.5 s, and a fill bound of 5 took 23-38 s.
ILU_DROP_TOL = 1e-4
ILU_FILL_FACTOR = 10
ILU_ORDER = "NATURAL"
# States above which a chain goes without the ILU step. The step's time
# follows the chain's structure more than its size. In a survey of LB
# chains that reach the step (2-core Xeon, the other core often busy),
# `spilu` took 1-10 s on (100,4,3), (100,1,3), (120,3,3), (120,1,3),
# (150,3,3) and (150,1,3), of 156,849 to 573,800 states, 78 s on (180,3,3)
# (955,860) and 209 s on (150,5,3) (529,396). On the (m,2,2) chains it
# grew as the square of the states: 25/133/247/370/1,061 s at m = 400/600/
# 700/800/1000 (79,800 to 499,500 states), about 7 minutes at the cap.
# (200,2,3), 1,333,300 states, spent about 20 minutes and 1.2 GB in it.
ILU_MAX_STATES = 5 << 16
# Nonzeros of P from which `_products` splits each mat-vec by rows over two
# threads. On a 2-core Xeon, against one thread, a split step took 1.29x as
# long at m=50, d=4, g=3 (207k nonzeros), where the hand-off costs more than
# it saves, 1.03-1.06x at 0.6-1.9M nonzeros, 0.56-1.00x at g=4 (3.2M) and
# about 0.55x at g=5 (38.7M); the gain varies with the load on the other core.
SPLIT_MIN_NNZ = 1 << 20


@contextmanager
def _products(p) -> Iterator[Callable[..., None]]:
    """Yield product(x, out, add=None), which writes P x, plus add if given, into out.

    `p` is anything with P's CSR arrays `indptr`, `indices` and `data`, such
    as a kernel. Each product has the bits of `p @ x` (then `+= add`): SciPy's
    `csr_matvec` sums each row into a zeroed entry in stored order, so
    splitting the rows changes no sum. From SPLIT_MIN_NNZ nonzeros on, the
    rows are cut where half of P's nonzeros lie on each side (Williams et
    al., SC'07). The calling thread computes the first part and a one-thread
    pool, shut down on exit, the second. `csr_matvec` releases the GIL, so
    the two parts run on two cores at once. A fault in the pool's part is
    raised by the product with its own type and message; an interrupt or
    fault on the calling thread leaves the pool, whose shutdown joins its
    thread once its current part is done.
    """
    indptr, indices, data = p.indptr, p.indices, p.data
    n, nnz = len(indptr) - 1, int(indptr[-1])

    def run(a: int, b: int, x, out, add) -> None:
        y = out[a:b]
        y.fill(0.0)
        _csr_matvec(b - a, n, indptr[a : b + 1], indices, data, x, y)
        if add is not None:
            y += add[a:b]

    if nnz < SPLIT_MIN_NNZ:
        yield lambda x, out, add=None: run(0, n, x, out, add)
        return
    cut = int(np.searchsorted(indptr, nnz // 2))
    with ThreadPoolExecutor(1, thread_name_prefix="cusketch-matvec") as pool:
        def product(x, out, add=None) -> None:
            second = pool.submit(run, cut, n, x, out, add)
            run(0, cut, x, out, add)
            second.result()
        yield product


def expected_error_from_kernel(kernel: TransitionKernel, T: int) -> float:
    """Average expected error increment over the first T steps.

    Backward induction (Puterman, Markov Decision Processes, 1994, ch. 4):
    after j steps of h <- r + P h from h = r, h = sum_{t<=j} P^t r, so after
    T - 1 steps h[start] / T is the bound. P is read row by row, so no P^T
    is formed, and with P and r nonnegative no renormalization is needed.
    The steps alternate between two N-vectors, and each product is split
    over two threads on a large P (`_products`).
    """
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    r = kernel.r
    h, nxt = r.copy(), np.empty_like(r)
    with _products(kernel) as product:
        for _ in range(T - 1):
            product(h, nxt, r)
            h, nxt = nxt, h
    return float(h[kernel.space.initial_index]) / T


def stationary(kernel: TransitionKernel, tol: float = 1e-12) -> np.ndarray:
    """Limiting distribution by power iteration from the start state, for the benchmark harness.

    It stops once ||pi P - pi||_inf <= tol, and raises NonConvergenceError
    once the residual sits at its rounding floor above tol. No code in the
    package calls it: `_long_run_value` certifies pi.r without pi.
    """
    _check_tol(tol)
    pt = kernel.p.T
    pi = np.eye(1, len(kernel.r), kernel.space.initial_index)[0]
    residual = np.inf
    for it in range(MAX_POWER_ITERS):
        nxt = pt @ pi
        nxt /= nxt.sum()
        residual = float(np.abs(nxt - pi).max())
        if residual <= tol:
            break  # pi itself satisfies ||pi P - pi||_inf <= tol
        if residual <= RESIDUAL_FLOOR * pi.max():
            raise NonConvergenceError(
                f"power iteration residual {residual:.3e} > tol {tol:.1e} "
                f"is at the float64 rounding floor after {it + 1} iterations"
            )
        pi = nxt
    else:
        raise NonConvergenceError(
            f"power iteration residual {residual:.3e} > tol {tol:.1e} "
            f"after {MAX_POWER_ITERS} iterations"
        )
    return pi


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is not a finite positive number, NaN included."""
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"tol must be finite and positive, got {tol}")


def _poisson_solve(
    kernel: TransitionKernel, tol: float, precondition: Callable | None = None
) -> np.ndarray:
    """An approximate solution h of (I - P + 1 e_0^T) h = r by BiCGSTAB.

    The exact solution has h[0] = pi.r and r + P h - h = h[0] everywhere, so
    the smaller h's residual, the narrower its Odoni interval. The iteration
    is van der Vorst's (SIAM J. Sci. Stat. Comput. 13, 1992) as SciPy's
    `bicgstab` runs it, from h = 0 until the residual's 2-norm is at most
    tol / 4, a breakdown, or MAX_KRYLOV_ITERS iterations. The residual is
    updated by recursion, which drifts from the true one, so a solve that
    met tol may still leave a wide interval. The returned h may be
    anything, NaN included, as only its interval is trusted. The
    mat-vec reads P row by row, split over two threads on a large P
    (`_products`). Inner products use `np.einsum`, not BLAS:
    OpenBLAS splits a dot product of over 10,000 entries across two
    threads, and with the second core busy that made `bicgstab`'s m=50, d=4,
    g=3 LB solve take 1-6 s instead of 0.1 s. BiCGSTAB on the transposed
    system for pi breaks down on many chains with d <= 3.

    `precondition`, if given, maps a vector x to M^-1 x for a preconditioner
    M of the system, applied on the right as `bicgstab` applies its M: each
    search direction and each s is mapped before its mat-vec and its update
    of h, so the residual stays that of the unpreconditioned system. Without
    it, the iteration is the unpreconditioned one, bit for bit.
    """
    r = kernel.r
    tiny = np.finfo(float).eps ** 2  # `bicgstab`'s breakdown threshold

    def a(x: np.ndarray) -> np.ndarray:
        y = np.empty_like(x)
        product(x, y)
        np.subtract(x, y, out=y)
        y += x[0]
        return y

    def dot(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.einsum("i,i", x, y))

    direction, v = np.zeros_like(r), np.zeros_like(r)
    rho_prev = alpha = omega = 1.0
    stop = (tol / 4) ** 2
    h, res, shadow = np.zeros_like(r), r.copy(), r.copy()
    with _products(kernel) as product, np.errstate(all="ignore"):
        for _ in range(MAX_KRYLOV_ITERS):
            rho = dot(shadow, res)
            if dot(res, res) <= stop or abs(rho) < tiny or abs(omega) < tiny:
                break
            direction -= omega * v
            direction *= (rho / rho_prev) * (alpha / omega)
            direction += res
            d_hat = direction if precondition is None else precondition(direction)
            v = a(d_hat)
            alpha = rho / dot(shadow, v)
            s = res - alpha * v
            h += alpha * d_hat
            if dot(s, s) <= stop:
                break
            s_hat = s if precondition is None else precondition(s)
            t = a(s_hat)
            omega = dot(t, s) / dot(t, t)
            h += omega * s_hat
            res = s - omega * t
            rho_prev = rho
    return h


def long_run_interval(kernel: TransitionKernel, h: np.ndarray) -> tuple[float, float]:
    """An interval [lo, hi] that holds the chain's long-run value pi.r, for any h.

    With e = r + P h - h, pi.e = pi.r because pi P = pi, so pi.r, a convex
    combination of e, lies in [min e, max e] (Odoni, Oper. Res. 17, 1969),
    for the chain whose P and r are stored. The interval is widened by the
    rounding of e in float64: each entry is a sum of k = (row nonzeros) + 2
    terms, off by at most gamma_k (r + P|h| + |h|) with
    gamma_k = k u / (1 - k u), u the unit roundoff (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 3.1). It is then
    intersected with [min r, max r], which holds pi.r too, so a non-finite
    or useless h gives that interval. The closer h is to the Poisson
    solution, the narrower the interval. The two products with P are split
    over two threads on a large P (`_products`).
    """
    r = kernel.r
    lo, hi = float(r.min()), float(r.max())
    if not np.isfinite(h).all():
        return lo, hi
    k = int(np.diff(kernel.indptr).max()) + 2
    u = float(np.finfo(float).eps) / 2
    gamma = k * u / (1 - k * u)
    abs_h = np.abs(h)
    ph = np.empty_like(r)
    with _products(kernel) as product, np.errstate(over="ignore", invalid="ignore"):
        product(h, ph)
        e = r + ph - h
        product(abs_h, ph)
        slack = gamma * float((r + ph + abs_h).max())
        e_lo, e_hi = float(e.min()) - slack, float(e.max()) + slack
    # `>` and `<` are False for a NaN bound, which then leaves [min r, max r]
    return (e_lo if e_lo > lo else lo), (e_hi if e_hi < hi else hi)


def _ilu_solve(kernel: TransitionKernel, tol: float) -> np.ndarray:
    """An approximate solution h of `_poisson_solve`'s system by ILU-preconditioned BiCGSTAB.

    SuperLU's threshold incomplete LU (`spilu`; Saad, Iterative Methods for
    Sparse Linear Systems, 2003, ch. 10) of I - P + 1 e_0^T right-
    preconditions `_poisson_solve`. Only h's interval is trusted, so a zero
    pivot gives NaN. The import is here, not with the module:
    `scipy.sparse.linalg` loads SciPy's own OpenBLAS, about 10 MB of peak
    RSS that plain BiCGSTAB's chains never use.
    """
    import scipy.sparse
    import scipy.sparse.linalg as sla

    n = len(kernel.r)
    border = scipy.sparse.csr_matrix((np.ones(n), (np.arange(n), np.zeros(n, int))), (n, n))
    a = (scipy.sparse.identity(n, format="csr") - kernel.p + border).tocsc()
    try:
        ilu = sla.spilu(a, ILU_DROP_TOL, ILU_FILL_FACTOR, permc_spec=ILU_ORDER)
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        return np.full(n, np.nan)
    return _poisson_solve(kernel, tol, ilu.solve)


def _long_run_value(kernel: TransitionKernel, tol: float) -> float:
    """The chain's long-run value pi.r, certified by Odoni's interval.

    One BiCGSTAB solve comes first. A chain whose interval it leaves wider
    than tol, whether its solve met tol on the drifted residual, broke down
    or ran out of iterations, gets a second BiCGSTAB solve, right-
    preconditioned by an incomplete LU factor (`_ilu_solve`), if the chain
    has at most ILU_MAX_STATES states and that factor fits ILU_FILL_FACTOR
    x (nonzeros + 2N) x 12 bytes within KERNEL_BYTES_GUARD. LB reports the
    interval's low end and UB its high end, so each bound errs only on its
    own safe side. An interval still wider than tol raises
    NonConvergenceError.
    """
    lo, hi = long_run_interval(kernel, _poisson_solve(kernel, tol))
    if hi - lo > tol:
        states = len(kernel.r)
        factor_bytes = ILU_FILL_FACTOR * (kernel.n_edges + 2 * states) * 12
        how = f"after BiCGSTAB; its ILU factor could need {factor_bytes} B, over the guard"
        if states > ILU_MAX_STATES:
            how = f"after BiCGSTAB; its {states} states are over the ILU step's cap of {ILU_MAX_STATES}"
        elif factor_bytes <= KERNEL_BYTES_GUARD:
            lo, hi = long_run_interval(kernel, _ilu_solve(kernel, tol))
            how = "after ILU-preconditioned BiCGSTAB"
        if hi - lo > tol:
            raise NonConvergenceError(
                f"the {kernel.variant} chain's long-run interval is {hi - lo:.3e} wide "
                f"> tol {tol:.1e} {how}"
            )
    return lo if kernel.variant == "lb" else hi


class ChainValue(NamedTuple):
    """One chain's bound, its event count and the wall time spent on it.

    `seconds` is the wall time of the chain's own build, or of its
    re-targeting when it is UB's chain after LB's, and of its evaluation.
    """

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

    The horizon, tolerance and size guards run before anything is built, and
    the state space is enumerated once for all variants. The chains are
    evaluated one after the other (`expected_error_from_kernel`, or
    `_long_run_value` for the limit), and UB is never built by a second
    event pass: once LB's value is known, LB's kernel is re-targeted in
    place (`retarget_capped`), so one P is held at a time. On a large P each
    mat-vec is split over two threads (`_products`). Each value is the one a
    chain evaluated alone gives, bit for bit.
    """
    return _chain_values(m, d, g, T, variants, tol)[1]


def _chain_values(
    m: int, d: int, g: int, T: int | None, variants: Sequence[str], tol: float = 1e-12
) -> tuple[StateSpace, dict[str, ChainValue]]:
    """`chain_values`' body, which also returns the one state space it enumerated."""
    if T is None:
        _check_tol(tol)
    elif T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    check_kernel_size(m, d, g)
    space = enumerate_states(m, d, g)
    chains = {}
    kernel = None
    for variant in variants:
        start = time.perf_counter()
        if kernel is not None and (kernel.variant, variant) == ("lb", "ub"):
            retarget_capped(kernel)
        else:
            kernel = None  # hold one chain at a time
            kernel = build_kernel(space, variant)
        if T is None:
            value = _long_run_value(kernel, tol)
        else:
            value = expected_error_from_kernel(kernel, T)
        chains[variant] = ChainValue(value, kernel.n_edges, time.perf_counter() - start)
    return space, chains


def expected_error(m: int, d: int, g: int, T: int, variant: str) -> float:
    """The finite-horizon bound: lower for "lb", upper for "ub"."""
    return chain_values(m, d, g, T, (variant,))[variant].value


def asymptotic_error(
    m: int, d: int, g: int, variant: str, tol: float = 1e-12
) -> float:
    """Long-run bound: the limit of the finite-horizon bound as T grows."""
    return chain_values(m, d, g, None, (variant,), tol)[variant].value
