"""Conservative-update count-min sketches with provable error bounds.

Public surface: sketch update rules and selection models (`sketch`), the
gap-capped Markov chain machinery (`states`, `kernel`, `bounds`), closed
forms for d = m - 1 (`closed_form`), the Monte-Carlo engine and the exact
walk over sorted offset tuples for CU, LB and UB (`simulate`), and a CLI
(`cusketch`).
"""

from .bounds import asymptotic_error, expected_error
from .config import SketchConfig
from .kernel import TransitionKernel, build_kernel
from .simulate import (
    OracleResult,
    SimConfig,
    SimStats,
    brute_force_expected_error,
    estimate_error,
    run_trajectory,
    sandwich_trace,
    sandwich_traces,
    worst_case_probe,
)
from .sketch import (
    CappedSketch,
    CounterArray,
    IdealHashTable,
    cu_update,
    delta_of,
    gap,
    lb_update,
    query,
    ub_update,
    uniform_select,
    zero_counters,
)
from .states import StateSpace, enumerate_states, state_space_size

__version__ = "0.1.0"

# The trajectory stepper is pure Python; kept as a name that run records report.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "CappedSketch",
    "CounterArray",
    "IdealHashTable",
    "OracleResult",
    "SimConfig",
    "SimStats",
    "SketchConfig",
    "StateSpace",
    "TransitionKernel",
    "asymptotic_error",
    "brute_force_expected_error",
    "build_kernel",
    "cu_update",
    "delta_of",
    "enumerate_states",
    "estimate_error",
    "expected_error",
    "gap",
    "lb_update",
    "query",
    "run_trajectory",
    "sandwich_trace",
    "sandwich_traces",
    "state_space_size",
    "ub_update",
    "uniform_select",
    "worst_case_probe",
    "zero_counters",
]
