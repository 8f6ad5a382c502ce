"""Command-line front end.

Subcommands:
    bounds       finite-horizon lower/upper error bounds for (m, d, g, T)
    asymptotic   T -> infinity limits of the bounds
    closed-form  d = m - 1 birth-death results and g = 1 limits
    simulate     seeded Monte-Carlo estimate of the average error
    oracle       exact expected error, summed over sorted offset tuples
    table1       bound table for m=50, d=4, T=250 over a range of g
    verify       run the cross-check suites (exit 3 on any failure)

Every other command emits one machine-readable record (JSON by default, CSV
with --format csv) containing the echoed command, its parameters, the
results with numbers rendered as full-precision decimal strings, and the
wall time; `simulate --format csv` writes per-run rows instead. Exit codes:
0 success, 1 invalid or oversized input (bad flags, parameters out of range
or past a size guard), 2 numeric non-convergence, 3 verification failure:
a failed `verify` check, or an internal-consistency error in any command
(`table1` rows that do not nest across g, a long-run value outside its
certified interval, ...). `verify` prints one ok/FAIL line per check; a
check that raises fails, with its message on stderr, and the remaining
checks still run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial

from numpy.random import PCG64, Generator

from . import closed_form as cf
from .bounds import _chain_values, chain_values
from .errors import ConfigurationError, InternalConsistencyError, NonConvergenceError
from .kernel import build_kernel, dump_kernel, retarget_capped
from .simulate import (
    SimConfig,
    brute_force_expected_error,
    estimate_error,
    exact_errors,
    sandwich_traces,
)
from .states import enumerate_states, state_space_size

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, not argparse's default 2
        raise ConfigurationError(message)


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return x


def _stringify(obj):
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_stringify(v) for v in obj]
    return _fmt(obj)


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], _fmt(obj)))
    return rows


def _out(text: str) -> None:
    """Write text to stdout and flush it.

    A reader may close the pipe early (`cusketch verify | head -1`). That
    ends the output, not the command: stdout's descriptor is pointed at
    os.devnull, as the Python docs' note on SIGPIPE advises, so the rest of
    the output and the exit flush go nowhere, and the command still returns
    the status it computes.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        _out(json.dumps(_stringify(record), indent=2) + "\n")
    else:
        rows = ["key,value"] + [f"{key},{value}" for key, value in _flatten(record)]
        _out("\n".join(rows) + "\n")


def _variants(args) -> tuple[str, ...]:
    return ("lb", "ub") if args.variant == "both" else (args.variant,)


def _bound_key(variant: str) -> str:
    return "lower" if variant == "lb" else "upper"


def _dump_whole(space, variant: str, path: str) -> None:
    """Dump to a new file beside `path`, renamed onto it once whole, else removed."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            dump_kernel(space, variant, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_bounds(args):
    variants = _variants(args)
    # the dumps reuse the state space the chains were built on
    space, chains = _chain_values(args.m, args.d, args.g, args.t, variants)
    results: dict = {"n_states": state_space_size(args.m, args.d, args.g)}
    for variant, chain in chains.items():
        results[_bound_key(variant)] = chain.value
        results[f"{variant}_edges"] = chain.n_edges
        results[f"{variant}_seconds"] = chain.seconds
        if args.dump_kernel:
            path = args.dump_kernel
            if len(variants) > 1:
                path = f"{path.removesuffix('.json')}.{variant}.json"
            try:
                _dump_whole(space, variant, path)
            except OSError as exc:
                raise ConfigurationError(f"cannot write {path}: {exc.strerror}") from exc
            results[f"{variant}_kernel_dump"] = path
    parameters = {"m": args.m, "d": args.d, "g": args.g, "t": args.t, "variant": args.variant}
    return parameters, results


def _cmd_asymptotic(args):
    chains = chain_values(args.m, args.d, args.g, None, _variants(args), args.tol)
    results = {"n_states": state_space_size(args.m, args.d, args.g), "tol": args.tol}
    for variant, chain in chains.items():
        results[_bound_key(variant)] = chain.value
    parameters = {"m": args.m, "d": args.d, "g": args.g, "variant": args.variant, "tol": args.tol}
    return parameters, results


def _cmd_closed_form(args):
    g1_lower, g1_upper = cf.g1_asymptotic(args.m)
    gmax = args.g if args.g is not None else 10
    cf.bd_gap_tail(args.m, gmax)  # refuses g outside 1 .. GAP_TAIL_GMAX up front
    results = {
        "pi": [cf.bd_limiting(args.m, f) for f in range(11)],
        "error_rate": cf.bd_error_rate(args.m),
        "counter_rate": cf.bd_growth_rate(args.m) / args.m,
        "gap_tail": {str(g): cf.bd_gap_tail(args.m, g) for g in range(1, gmax + 1)},
        "g1_lower": g1_lower,
        "g1_upper": g1_upper,
    }
    return {"m": args.m, "g": args.g}, results


def _cmd_simulate(args):
    config = SimConfig(
        m=args.m,
        d=args.d,
        T=args.t,
        runs=args.runs,
        seed=args.seed,
        variant=args.variant,
        g=args.cap,
    )
    stats = estimate_error(config)
    if args.format == "csv":
        _out(stats.to_csv())
        return EXIT_OK
    parameters = {
        "m": args.m,
        "d": args.d,
        "t": args.t,
        "runs": args.runs,
        "seed": args.seed,
        "variant": args.variant,
        "cap": args.cap,
    }
    return parameters, stats.to_dict()


def _cmd_oracle(args):
    result = brute_force_expected_error(args.m, args.d, args.t)
    results = {
        "expected_error": float(result.exact_expected_error),
        "expected_error_exact": str(result.exact_expected_error),
        "expected_error_per_step": float(result.per_step),
    }
    return {"m": args.m, "d": args.d, "t": args.t}, results


def _cmd_table1(args):
    if args.gmax >= 4:
        print(
            "warning: on a 2-core 2.1 GHz Xeon --gmax 4 takes about 2 s and "
            "--gmax 5 25-26 s, with a 575 MB peak",
            file=sys.stderr,
        )
    rows = []
    lower, upper = -math.inf, math.inf  # the previous row's bounds
    for g in range(1, args.gmax + 1):
        start = time.perf_counter()
        lb, ub = chain_values(50, 4, g, 250).values()
        # a looser cap gives tighter bounds: LB_g-1 <= LB_g <= UB_g <= UB_g-1
        if not lower <= lb.value <= ub.value <= upper:
            raise InternalConsistencyError(
                f"the g={g} bounds [{lb.value!r}, {ub.value!r}] are crossed or "
                f"leave the previous row's [{lower!r}, {upper!r}]"
            )
        lower, upper = lb.value, ub.value
        rows.append(
            {
                "g": g,
                "lower": lb.value,
                "upper": ub.value,
                "lower_seconds": lb.seconds,
                "upper_seconds": ub.seconds,
            }
        )
        print(
            f"g={g}  lower={lb.value:.5f}  upper={ub.value:.5f}  "
            f"({time.perf_counter() - start:.2f} s)",
            file=sys.stderr,
        )
    return {"m": 50, "d": 4, "t": 250, "gmax": args.gmax}, {"rows": rows}


def _oracle_agrees(m: int, d: int, T: int) -> bool:
    """At each g <= T both chains equal the exact walk under their own rule, and
    LB <= CU <= UB; at g = T no cap binds, so both equal CU's exact value."""
    cu = exact_errors(m, d, T)[T] / T
    for g in range(1, T + 1):
        for variant, chain in chain_values(m, d, g, T).items():
            exact = cu if g == T else exact_errors(m, d, T, variant, g)[T] / T
            if abs(chain.value - exact) > 1e-12 or (exact > cu if variant == "lb" else exact < cu):
                raise InternalConsistencyError(
                    f"at g={g} the {variant} chain gives {chain.value!r}, "
                    f"the exact walk {float(exact)!r} and CU {float(cu)!r}")
    return True


def _sandwiches_hold(n: int, tmax: int) -> bool:
    rng = Generator(PCG64(12345))
    cases = []
    for _ in range(n):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, m + 1))
        g = int(rng.integers(1, 4))
        T = int(rng.integers(1, tmax + 1))
        cases.append((m, d, g, T, int(rng.integers(0, 2**63))))
    return all(sandwich_traces(cases))


def _kernels_build() -> bool:
    for m in range(3, 9):
        for d in (2, m - 1):
            for g in (1, 2, 3):
                # LB's kernel, then UB's; each raises on any inconsistency
                retarget_capped(build_kernel(enumerate_states(m, d, g), "lb"))
    return True


def _closed_forms_agree(mmax: int) -> bool:
    return all(
        abs(chain.value - exact) <= 1e-10
        for m in range(3, mmax + 1)
        for chain, exact in zip(chain_values(m, m - 1, 1, None).values(), cf.g1_asymptotic(m))
    )


def _long_run_rates_match() -> bool:
    stats = estimate_error(SimConfig(m=10, d=9, T=10**5, runs=1, seed=7, variant="cu"))
    return abs(stats.mean_error_rate - 0.5) < 0.01 and abs(stats.mean_counter_rate - 0.5) < 0.01


def _verify_checks(level: str):
    """Yield (name, check) pairs for the cross-check suite; check() is True on a pass."""
    oracle_cases = [(3, 2, 1), (3, 2, 2), (4, 2, 1)]
    if level == "full":
        oracle_cases = [(m, 2, T) for m in (3, 4) for T in (1, 2, 3)]
    for m, d, T in oracle_cases:
        yield f"oracle-equivalence m={m} d={d} T={T}", partial(_oracle_agrees, m, d, T)
    n_sandwich = 1000 if level == "full" else 100
    tmax = 50 if level == "full" else 30
    yield f"pathwise-sandwich x{n_sandwich}", partial(_sandwiches_hold, n_sandwich, tmax)
    yield "kernel-soundness m<=8", _kernels_build
    mmax = 20 if level == "full" else 8
    yield f"closed-form-vs-markov m<={mmax}", partial(_closed_forms_agree, mmax)
    if level == "full":
        yield "long-run-rates m=10 d=9", _long_run_rates_match


def _cmd_verify(args) -> int:
    """Run every check; one that raises a library error fails and the rest still run."""
    started = time.perf_counter()
    failures = 0
    for name, check in _verify_checks(args.level):
        try:
            ok = check()
        except (ConfigurationError, NonConvergenceError, InternalConsistencyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            ok = False
        _out(f"{'ok  ' if ok else 'FAIL'}  {name}\n")
        failures += not ok
    _out(f"verify {args.level}: {failures} failure(s) "
         f"in {time.perf_counter() - started:.1f} s\n")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="cusketch", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, t_flag=True):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if t_flag:
            p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("bounds", help="finite-horizon error bounds")
    common(p)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--variant", choices=("lb", "ub", "both"), default="both")
    p.add_argument("--dump-kernel", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("asymptotic", help="long-run error bounds")
    common(p, t_flag=False)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--variant", choices=("lb", "ub", "both"), default="both")
    p.add_argument(
        "--tol", type=float, default=1e-12,
        help="largest width of a limit's certified interval; a chain that "
        "BiCGSTAB leaves wider gets a second BiCGSTAB solve, right-preconditioned "
        "by an incomplete LU factor, and one still wider exits with code 2 "
        "(default: %(default)s)",
    )
    p.set_defaults(func=_cmd_asymptotic)

    p = sub.add_parser("closed-form", help="d = m - 1 closed-form results")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("simulate", help="Monte-Carlo error estimate")
    common(p)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--variant", choices=("cu", "lb", "ub"), default="cu")
    p.add_argument("--cap", type=int, default=None, help="gap cap g for lb/ub")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="exact expected error over sorted offset tuples")
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("table1", help="bound table for m=50, d=4, T=250")
    p.add_argument("--gmax", type=int, choices=range(1, 6), default=3)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("verify", help="run the cross-check suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place an outcome becomes output and an exit code.

    A record command's handler returns (parameters, results), emitted here
    as one record; `verify` and `simulate --format csv` write their own
    text and return an exit code.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.perf_counter()
        outcome = args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if isinstance(outcome, int):
        return outcome
    parameters, results = outcome
    record = {
        "command": args.subcommand,
        "parameters": parameters,
        "results": results,
        "wall_time_s": time.perf_counter() - started,
    }
    _emit(record, args.format)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
