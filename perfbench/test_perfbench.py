"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

Takes about a minute: the metric-name test runs the benchmark twice.
"""

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import cusketch.cli  # noqa: E402
from spans import Tracer, nesting_problems  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import (  # noqa: E402
    PINNED_ASYMPTOTIC_G3,
    WORKLOADS,
    Workload,
    check_asymptotic,
    check_table1,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_wrong_pinned_value_is_a_failed_operation():
    lower, upper = PINNED_ASYMPTOTIC_G3
    wrong = dataclasses.replace(
        WORKLOADS["asymptotic-g3"],
        check=functools.partial(check_asymptotic, pins=(lower + 1e-6, upper)),
    )
    assert run_op(WORKLOADS["asymptotic-g3"], 1)["problems"] == []
    problems = run_op(wrong, 1)["problems"]
    assert len(problems) == 1 and problems[0].startswith("lower = ")


def test_nonzero_cli_exit_is_a_failed_operation():
    bad = Workload("bad-flags", lambda seed: ["table1", "--gmax", "9"], check_table1)
    assert run_op(bad, 1)["problems"] == ["exit code 1"]


def test_layer_spans_nest_inside_the_run_span():
    tiny = Workload("tiny", lambda seed: ["bounds", "--m", "8", "--d", "2", "--g", "2", "--t", "20"],
                    lambda code, out, seed: [] if code == 0 else [f"exit code {code}"])
    tracer = Tracer("tiny-run")
    assert run_op(tiny, 1, tracer)["problems"] == []
    spans = tracer.spans
    assert nesting_problems(spans) == []
    roots = [s for s in spans if s[2] is None]
    assert [s[3] for s in roots] == ["run.tiny"]
    layers = {s[3].split(".")[0] for s in spans if s[2] is not None}
    assert {"states", "kernel", "bounds"} <= layers
    # wrappers are gone once the operation returns
    assert not hasattr(cusketch.cli.enumerate_states, "__wrapped__")

    outside = [list(s) for s in spans]
    outside[1][5] = outside[0][5] + 1.0  # a layer span ending after its run span
    assert nesting_problems(outside)
    orphan = [list(s) for s in spans[1:]]  # run span missing
    assert nesting_problems(orphan)


def test_spec_names_workloads_and_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "asymptotic-g3", "--seed", "3", "--seconds", "1",
                      "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert "failed_frac" in proc.stdout


def test_without_program_sources_it_exits_nonzero_without_a_result():
    (BENCH / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=BENCH / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench("--workload", "table1-g4", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
