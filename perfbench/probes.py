"""Per-layer probes: the benchmark calls each layer's public functions itself.

Every timed call is a span of its layer under one run span, and each time
below is read from those spans. Peak memory comes from a second call under
`tracemalloc`, so allocation tracing never slows a timed call. Sizes follow
the workload each metric should move: states, kernel and evolution at
Table 1's g=4 (LB chain), the stationary solve at asymptotic-g3 (LB chain),
trajectories at simulate-mc, and sandwich traces, oracle cases and sketch
updates at the sizes `verify --level full` draws. Probe inputs derive from
the benchmark seed, and the results are checked like the workloads' are.
"""

from __future__ import annotations

import math
import statistics
import tracemalloc

import numpy as np
from cusketch.bounds import expected_error, expected_error_from_kernel, stationary
from cusketch.closed_form import g1_asymptotic
from cusketch.config import SketchConfig
from cusketch.kernel import build_kernel
from cusketch.simulate import (
    SimConfig,
    brute_force_expected_error,
    run_trajectory,
    sandwich_trace,
)
from cusketch.sketch import (
    CappedSketch,
    cu_update,
    lb_update,
    ub_update,
    uniform_select,
    zero_counters,
)
from cusketch.states import enumerate_states
from spans import Tracer, duration
from workloads import (
    ASYMPTOTIC_TOL,
    PINNED_ASYMPTOTIC_G3,
    PINNED_TABLE1,
    TABLE1_TOL,
)

M, D, T = 50, 4, 250
TRAJECTORIES = 2000
SANDWICHES = 1000
SKETCH_INSTANCES = 300
G1_SWEEPS = 50
ORACLE_CASES = [(m, 2, t) for m in (3, 4) for t in (1, 2, 3)]
MB = 2**20


def _peak_mb(fn, *args) -> float:
    """Peak bytes allocated during one call, per tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def _array_bytes(obj) -> int:
    """Bytes of the NumPy arrays and sparse matrices an object holds directly."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif hasattr(value, "indptr"):  # a scipy.sparse compressed matrix
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
    return total


def _p50_p99(samples: list[float]) -> tuple[float, float]:
    cuts = statistics.quantiles(samples, n=100)
    return cuts[49], cuts[98]


def _verify_instances(rng: np.random.Generator, n: int):
    """(m, d, g, T, seed) drawn the way `verify --level full` draws sandwich cases."""
    for _ in range(n):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, m + 1))
        g = int(rng.integers(1, 4))
        t = int(rng.integers(1, 51))
        yield m, d, g, t, int(rng.integers(0, 2**63))


class _Probe:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.metrics: dict[str, tuple[float, str]] = {}
        self.problems: list[str] = []

    def timed(self, name: str, layer: str, fn, *args):
        """Call fn inside a span; return (result, seconds)."""
        span_id = self.tracer.open(name, layer)
        try:
            result = fn(*args)
        finally:
            self.tracer.close(span_id)
        return result, duration(self.tracer.spans[span_id])

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def expect(self, what: str, got: float, want: float, tol: float) -> None:
        if not abs(got - want) <= tol:
            self.problems.append(f"{what} = {got!r}, expected {want!r} (tol {tol:g})")

    def states_kernel_evolution(self) -> None:
        space, secs = self.timed("states.enumerate_states", "states", enumerate_states, M, D, 4)
        self.put("states.enumerate_s", secs, "s")
        self.put("states.peak_mb", _peak_mb(enumerate_states, M, D, 4), "MB")
        self.put("states.n_states", len(space), "count")

        kernel, secs = self.timed("kernel.build_kernel", "kernel", build_kernel, space, "lb")
        self.put("kernel.build_s", secs, "s")
        self.put("kernel.peak_mb", _peak_mb(build_kernel, space, "lb"), "MB")
        self.put("kernel.n_edges", kernel.n_edges, "count")
        # the P^T -> CSR conversion both bounds paths make before iterating
        pt, secs = self.timed("kernel.transition_matrix", "kernel",
                              lambda: kernel.transition_matrix().T.tocsr())
        self.put("kernel.matrix_s", secs, "s")
        self.put("kernel.nnz", pt.nnz, "count")
        self.put("kernel.bytes_per_edge", _array_bytes(kernel) / kernel.n_edges, "B")

        value, secs = self.timed("bounds.expected_error_from_kernel", "bounds",
                                 expected_error_from_kernel, kernel, T)
        self.expect("g=4 lower bound", value, PINNED_TABLE1[4][0], TABLE1_TOL)
        self.put("bounds.evolve_s", secs, "s")
        self.put("bounds.evolve_peak_mb", _peak_mb(expected_error_from_kernel, kernel, T), "MB")
        self.put("bounds.edge_updates_per_s", pt.nnz * T / secs, "1/s")

    def stationary_solve(self) -> None:
        kernel = build_kernel(enumerate_states(M, D, 3), "lb")
        pi, secs = self.timed("bounds.stationary", "bounds", stationary, kernel)
        self.expect("g=3 long-run lower bound", float(pi @ kernel.expected_increment()),
                    PINNED_ASYMPTOTIC_G3[0], ASYMPTOTIC_TOL)
        self.put("bounds.stationary_s", secs, "s")
        self.put("bounds.stationary_peak_mb", _peak_mb(stationary, kernel), "MB")

    def closed_form(self) -> None:
        def sweep():
            return [g1_asymptotic(m) for m in range(3, 21)]

        secs = [self.timed("closed_form.g1_asymptotic", "closed_form", sweep)[1]
                for _ in range(G1_SWEEPS)]
        self.put("closed_form.g1_s", statistics.median(secs), "s")

    def trajectories(self, seed: int) -> None:
        config = SimConfig(m=M, d=D, T=T, runs=TRAJECTORIES, seed=seed)
        secs = [self.timed("simulate.run_trajectory", "simulate", run_trajectory, config, i)[1]
                for i in range(TRAJECTORIES)]
        p50, p99 = _p50_p99(secs)
        self.put("simulate.trajectory_s.p50", p50, "s")
        self.put("simulate.trajectory_s.p99", p99, "s")
        self.put("simulate.steps_per_s", TRAJECTORIES * T / math.fsum(secs), "1/s")

    def sandwiches_and_oracle(self, rng: np.random.Generator) -> None:
        secs = []
        for m, d, g, t, s in _verify_instances(rng, SANDWICHES):
            report, sec = self.timed("simulate.sandwich_trace", "simulate",
                                     sandwich_trace, m, d, g, t, s)
            secs.append(sec)
            if not report.ok:
                self.problems.append(f"sandwich violated at m={m} d={d} g={g} T={t} seed={s}")
        p50, p99 = _p50_p99(secs)
        self.put("simulate.sandwich_s.p50", p50, "s")
        self.put("simulate.sandwich_s.p99", p99, "s")

        total = 0.0
        for m, d, t in ORACLE_CASES:
            result, sec = self.timed("simulate.brute_force_expected_error", "simulate",
                                     brute_force_expected_error, m, d, t)
            total += sec
            self.expect(f"oracle m={m} d={d} T={t} vs LB chain",
                        expected_error(m, d, t, t, "lb"), float(result.per_step), 1e-10)
        self.put("simulate.oracle_s", total, "s")
        self.put("simulate.oracle_leaves",
                 sum(math.comb(m, d) ** t for m, d, t in ORACLE_CASES), "count")

    def sketch_updates(self, rng: np.random.Generator) -> None:
        secs, updates = [], 0
        for m, d, g, t, s in _verify_instances(rng, SKETCH_INSTANCES):
            config = SketchConfig(m, d)
            sub = np.random.Generator(np.random.PCG64(s))
            selections = [uniform_select(config, sub) for _ in range(t)]

            def drive():
                cu = zero_counters(config)
                lo = CappedSketch(zero_counters(config), g, "lb")
                hi = CappedSketch(zero_counters(config), g, "ub")
                for sel in selections:
                    cu = cu_update(cu, sel)
                    lo = lb_update(lo, sel)
                    hi = ub_update(hi, sel)
                return lo.counters.values, cu.values, hi.counters.values

            (lo, cu, hi), sec = self.timed("sketch.updates", "sketch", drive)
            secs.append(sec)
            updates += 3 * t
            if (lo > cu).any() or (cu > hi).any():
                self.problems.append(f"LB <= CU <= UB broken at m={m} d={d} g={g} T={t}")
        self.put("sketch.update_us", math.fsum(secs) / updates * 1e6, "us")
        self.put("sketch.updates", updates, "count")


def run_probes(tracer: Tracer, seed: int) -> dict:
    """All per-layer probe metrics as {"metrics": {name: [value, unit]}, "problems": [...]}."""
    probe = _Probe(tracer)
    rng = np.random.Generator(np.random.PCG64(seed))
    with tracer.span("run.probes", "run"):
        probe.states_kernel_evolution()
        probe.stationary_solve()
        probe.closed_form()
        probe.trajectories(seed)
        probe.sandwiches_and_oracle(rng)
        probe.sketch_updates(rng)
    return {"metrics": probe.metrics, "problems": probe.problems}
