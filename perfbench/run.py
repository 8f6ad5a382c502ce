"""cusketch benchmark: run one workload for a while and report its metrics.

    python3 perfbench/run.py --workload table1-g4 --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the program is taken
from its `src/` directory, so nothing needs building. Each operation is a
fresh single-threaded process (`worker.py`) that imports `cusketch.cli`, calls
`cusketch.cli.main([...])` once and checks what it printed. Operations repeat
in a closed loop, one at a time, until `--seconds` is used up (at least
MIN_OPS of them), and every metric is the median over them.

--trace 0 reports the end-to-end metrics. --trace 1 runs the per-layer probes
(`probes.py`) once, then alternates untraced and traced operations for
`--seconds` more (at least one pair); their spans give the trace overhead and
coverage. Human-readable lines come first; the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Details of the run, and any spans, are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from spans import END, PARENT, SPAN_ID, START, nesting_problems, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 3
MIN_TRACE_PAIRS = 1
# No operation starts, or keeps running, this long after the run began, so a
# run always ends within three minutes.
DEADLINE_S = 165.0
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _worker(args: list[str], deadline: float) -> dict:
    """Run one operation in a fresh process; failures come back as problems."""
    env = dict(os.environ)
    env.pop("CU_BOUND_THREADS", None)  # no simulation worker pool
    env.pop("CUSKETCH_BACKEND", None)  # the backend the package picks itself
    timeout = deadline - perf_counter()
    if timeout <= 0:
        return {"problems": ["no time left before the run's deadline"]}
    spawned_at = perf_counter()
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"killed after {timeout:.0f} s"]}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"problems": [f"worker exited with code {proc.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


def _repeat(step, stop_at: float, minimum: int, deadline: float) -> list:
    """Call step() in a closed loop until `stop_at`, at least `minimum` times.

    A further call starts only if a typical call still ends by `stop_at`.
    """
    results, took = [], []
    while True:
        t0 = perf_counter()
        results.append(step())
        took.append(perf_counter() - t0)
        now = perf_counter()
        if now + max(took) > deadline:
            break
        if len(results) >= minimum and now + statistics.median(took) > stop_at:
            break
    return results


def end_to_end(ops: list[dict]) -> dict:
    measured = [op for op in ops if "solve_s" in op]
    if not measured:
        return {}
    return {name: {"value": statistics.median(op[name] for op in measured), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def _coverage(spans: list[list]) -> float:
    """Time inside layer spans directly under the run span, over the run span."""
    root = next(s for s in spans if s[PARENT] is None)
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] == root[SPAN_ID])
    return covered / (root[END] - root[START])


def per_layer(pairs: list[tuple[dict, dict]], probe: dict) -> dict:
    """Probe metrics, plus trace overhead and coverage from (untraced, traced) pairs."""
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in probe.get("metrics", {}).items()}
    # the two sides of a pair run back to back, so machine drift mostly cancels
    ratios = [spanned["solve_s"] / plain["solve_s"] for plain, spanned in pairs
              if "solve_s" in plain and "spans" in spanned]
    if ratios:
        metrics["trace.overhead_frac"] = {"value": statistics.median(ratios) - 1,
                                          "unit": "ratio"}
        metrics["trace.coverage_frac"] = {
            "value": statistics.median(_coverage(t["spans"]) for _, t in pairs if "spans" in t),
            "unit": "ratio",
        }
    return metrics


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(ops: list[dict]) -> dict:
    env = next((op["env"] for op in ops if "env" in op), {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **env,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _write_spans(path: Path, ops: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write("run_id,span_id,parent_id,name,start,end\n")
        for op in ops:
            for run_id, span_id, parent, name, start, end in op.get("spans", []):
                parent = "" if parent is None else parent
                fh.write(f"{run_id},{span_id},{parent},{name},{start!r},{end!r}\n")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "cusketch" / "cli.py").is_file():
        print(f"error: no cusketch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = perf_counter()
    deadline = started + DEADLINE_S
    op_args = ["op", args.workload, str(args.seed)]
    traced: list[dict] = []

    if args.trace == 0:
        ops = _repeat(lambda: _worker(op_args + ["0"], deadline),
                      started + args.seconds, MIN_OPS, deadline)
        metrics = end_to_end(ops)
    else:
        probe = _worker(["probe", str(args.seed)], deadline)
        turn = itertools.count()

        def pair():
            # alternate which side goes first so drift hits both alike
            if next(turn) % 2:
                spanned = _worker(op_args + ["1"], deadline)
                return _worker(op_args + ["0"], deadline), spanned
            return _worker(op_args + ["0"], deadline), _worker(op_args + ["1"], deadline)

        pairs = _repeat(pair, perf_counter() + args.seconds, MIN_TRACE_PAIRS, deadline)
        traced = [spanned for _, spanned in pairs]
        ops = [plain for plain, _ in pairs] + traced + [probe]
        for op in traced + [probe]:
            if "spans" in op:
                op.setdefault("problems", []).extend(nesting_problems(op["spans"]))
        metrics = per_layer(pairs, probe)

    failed = [op for op in ops if op.get("problems")]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(ops),
        "failed_frac": {"value": len(failed) / len(ops), "unit": "ratio",
                        "base": f"{len(failed)} of {len(ops)} operations"},
        "problems": list(dict.fromkeys(p for op in failed for p in op["problems"])),
        "metrics": metrics,
        "operations": [{k: v for k, v in op.items() if k not in ("spans", "env")}
                       for op in ops],
    }
    if args.trace:
        report["self_s"] = {name: secs / max(1, len(traced)) for name, secs in sorted(
            self_times([s for op in traced for s in op.get("spans", [])]).items(),
            key=lambda kv: -kv[1])}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        _write_spans(OUT / f"spans-{args.workload}.csv", traced + [probe])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(ops)}  (details in {OUT.relative_to(ROOT)}/{stem}.json)")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<28} {report['failed_frac']['value']:>14.6g} ratio  "
          f"({report['failed_frac']['base']})")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    if args.trace:
        print("  traced CLI self time per span (s, mean per operation):")
        for name, secs in list(report["self_s"].items())[:8]:
            print(f"    {name:<44} {secs:.4f}")
    print("environment " + json.dumps(report["environment"]))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
