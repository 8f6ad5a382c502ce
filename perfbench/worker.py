"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py op <workload> <seed> <trace 0|1> <spawned_at>
    python3 perfbench/worker.py probe <seed> <spawned_at>

`spawned_at` is the parent's `time.perf_counter()` just before it started
this process; set-up time runs from there until `cusketch.cli` and its
NumPy/SciPy imports are ready for the first call. `op` runs one workload's
CLI call and checks its output; `probe` runs the per-layer probes. The last
line of standard output is one JSON object describing the operation.
"""

import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import Tracer, traced_layers
from workloads import WORKLOADS, Workload

SRC = Path(__file__).resolve().parent.parent / "src"


def _setup(spawned_at: float) -> float:
    """Import the CLI from this checkout's sources; return the set-up time.

    The harness's own imports above run first; cusketch imports all of them
    too, so they add well under a millisecond to the figure.
    """
    sys.path.insert(0, str(SRC))
    import cusketch.cli

    setup_s = time.perf_counter() - spawned_at
    if not Path(cusketch.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cusketch imported from {cusketch.cli.__file__}, not {SRC}")
    return setup_s


def run_op(workload: Workload, seed: int, tracer: Tracer | None = None) -> dict:
    """Call `cusketch.cli.main` for the workload and check what it printed.

    With a tracer, every call into a layer during the CLI call is a span
    under one run span.
    """
    from cusketch import cli

    out, err = io.StringIO(), io.StringIO()
    problems = []
    code = None
    argv = workload.argv(seed)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = cli.main(argv)
            else:
                with traced_layers(tracer):
                    start = time.perf_counter()
                    with tracer.span(f"run.{workload.name}", "run"):
                        code = cli.main(argv)
    except Exception as exc:  # a crashing operation is counted, not fatal
        problems.append("raised " + "".join(traceback.format_exception_only(exc)).strip())
    solve_s = time.perf_counter() - start
    if not problems:
        try:
            problems = workload.check(code, out.getvalue(), seed)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {exc!r}"]
    return {"solve_s": solve_s, "problems": problems}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with NumPy, if it can be asked."""
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment() -> dict:
    import cusketch
    import numpy
    import scipy

    return {
        "backend": cusketch.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "CU_BOUND_THREADS": os.environ.get("CU_BOUND_THREADS"),
        "CUSKETCH_BACKEND": os.environ.get("CUSKETCH_BACKEND"),
    }


def _resources() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": own.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    }


def main(argv: list[str]) -> dict:
    mode, *rest = argv
    setup_s = _setup(float(rest[-1]))
    if mode == "op":
        name, seed, trace = rest[0], int(rest[1]), rest[2] == "1"
        tracer = Tracer(f"{name}-seed{seed}-pid{os.getpid()}") if trace else None
        result = run_op(WORKLOADS[name], seed, tracer)
        result.update(_resources())
        if tracer is not None:
            result["spans"] = tracer.spans
    elif mode == "probe":
        from probes import run_probes

        seed = int(rest[0])
        tracer = Tracer(f"probes-seed{seed}-pid{os.getpid()}")
        result = run_probes(tracer, seed)
        result["spans"] = tracer.spans
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["setup_s"] = setup_s
    result["env"] = _environment()
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
