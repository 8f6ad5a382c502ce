"""The four benchmark workloads: the CLI call each makes and the gate its output must pass.

Each gate takes the CLI's exit code and captured standard output and returns a
list of problems; an empty list means the operation produced a correct result.
Pinned values were recorded from the commit that introduced this benchmark.
None of the gates use `REFERENCE_TABLE`: its tabulated values average steps
1..T while the program averages steps 0..T-1, so they would fail every run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable

# table1 --gmax 4: (lower, upper) at m=50, d=4, T=250 for g = 1..4.
PINNED_TABLE1 = {
    1: (0.018535740622022616, 0.076229982738485857),
    2: (0.029445301201333349, 0.040728699069150359),
    3: (0.034070454768365101, 0.036225691863619791),
    4: (0.035261189757294961, 0.035570436559816322),
}
# 250 sparse mat-vecs in float64: reordering the sums (another kernel layout,
# another renormalisation) moves the result by a few ulps, far below 1e-12,
# while the bounds of neighbouring g rows differ by 1e-3 or more.
TABLE1_TOL = 1e-12

# asymptotic --m 50 --d 4 --g 3: (lower, upper) from power iteration.
PINNED_ASYMPTOTIC_G3 = (0.034978754420538362, 0.037924141739897083)
# The g=2 limits, against which g=3 must be at least as tight.
ASYMPTOTIC_G2 = (0.02964053109318545, 0.04251444832333998)
# Power iteration stops once ||pi P - pi||_inf <= 1e-12; another solver
# meeting the same stopping rule may land elsewhere inside that tolerance,
# which moves pi.r by more than rounding but far less than 1e-9.
ASYMPTOTIC_TOL = 1e-9

# simulate at this seed must reproduce this record's results exactly.
SIMULATE_PINNED_SEED = 1
PINNED_SIMULATE_RESULTS = {
    "mean_error_rate": "0.035473454346504563",
    "stderr_error_rate": "2.2664812574732031e-05",
    "mean_counter_rate": "0.038449360000000002",
    "gap_histogram": {
        "1": "1",
        "2": "0.93981400000000004",
        "3": "0.61154200000000003",
        "4": "0.16331599999999999",
        "5": "0.025350000000000001",
        "6": "0.003692",
        "7": "0.00043600000000000003",
        "8": "3.8000000000000002e-05",
        "9": "0",
        "10": "0",
    },
}
# Standard errors by which the Monte-Carlo mean may stray outside the g=4 bounds.
SIMULATE_STDERRS = 4.0

VERIFY_CHECKS = [
    "oracle-equivalence m=3 d=2 T=1",
    "oracle-equivalence m=3 d=2 T=2",
    "oracle-equivalence m=3 d=2 T=3",
    "oracle-equivalence m=4 d=2 T=1",
    "oracle-equivalence m=4 d=2 T=2",
    "oracle-equivalence m=4 d=2 T=3",
    "pathwise-sandwich x1000",
    "kernel-soundness m<=8",
    "closed-form-vs-markov m<=20",
    "long-run-rates m=10 d=9",
]


def _record(code: int, stdout: str) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not one JSON record: {exc}"]


def _off(name: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) > tol:
        return [f"{name} = {got!r}, pinned {want!r} (tol {tol:g})"]
    return []


def check_table1(code: int, stdout: str, seed: int, pins: dict = PINNED_TABLE1) -> list[str]:
    record, problems = _record(code, stdout)
    if record is None:
        return problems
    rows = record["results"]["rows"]
    if [row["g"] for row in rows] != sorted(pins):
        return [f"rows for g={[row['g'] for row in rows]}, expected {sorted(pins)}"]
    lows = [float(row["lower"]) for row in rows]
    ups = [float(row["upper"]) for row in rows]
    for g, lo, up in zip(sorted(pins), lows, ups):
        problems += _off(f"g={g} lower", lo, pins[g][0], TABLE1_TOL)
        problems += _off(f"g={g} upper", up, pins[g][1], TABLE1_TOL)
        if lo > up:
            problems.append(f"g={g}: lower {lo!r} > upper {up!r}")
    if any(a > b for a, b in zip(lows, lows[1:])):
        problems.append(f"lower bounds not non-decreasing in g: {lows}")
    if any(a < b for a, b in zip(ups, ups[1:])):
        problems.append(f"upper bounds not non-increasing in g: {ups}")
    return problems


def check_asymptotic(
    code: int, stdout: str, seed: int, pins: tuple = PINNED_ASYMPTOTIC_G3
) -> list[str]:
    record, problems = _record(code, stdout)
    if record is None:
        return problems
    lo = float(record["results"]["lower"])
    up = float(record["results"]["upper"])
    problems += _off("lower", lo, pins[0], ASYMPTOTIC_TOL)
    problems += _off("upper", up, pins[1], ASYMPTOTIC_TOL)
    if lo > up:
        problems.append(f"lower {lo!r} > upper {up!r}")
    if lo < ASYMPTOTIC_G2[0] or up > ASYMPTOTIC_G2[1]:
        problems.append(f"g=3 limits ({lo!r}, {up!r}) looser than g=2 {ASYMPTOTIC_G2}")
    return problems


def check_simulate(
    code: int, stdout: str, seed: int, pins: dict = PINNED_SIMULATE_RESULTS
) -> list[str]:
    record, problems = _record(code, stdout)
    if record is None:
        return problems
    results = record["results"]
    mean = float(results["mean_error_rate"])
    margin = SIMULATE_STDERRS * float(results["stderr_error_rate"])
    lo, up = PINNED_TABLE1[4]
    if not lo - margin <= mean <= up + margin:
        problems.append(
            f"mean_error_rate {mean!r} outside g=4 bounds [{lo!r}, {up!r}] +- {margin!r}"
        )
    if seed == SIMULATE_PINNED_SEED and results != pins:
        problems.append(f"seed {seed} results differ from the pinned record: {results}")
    return problems


def check_verify(code: int, stdout: str, seed: int, names: list = VERIFY_CHECKS) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    lines = [line for line in stdout.splitlines() if not line.startswith("verify ")]
    found = []
    for line in lines:
        match = re.fullmatch(r"(\S+)\s+(.*)", line)
        if match is None:
            problems.append(f"unparsed line {line!r}")
            continue
        status, name = match.groups()
        found.append(name)
        if status != "ok":
            problems.append(f"check {name!r} reads {status!r}")
    if found != names:
        problems.append(f"checks run {found}, expected {names}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    check: Callable[[int, str, int], list[str]]


# Why each workload is here, and what it leaves out, is in README.md. Only
# simulate-mc takes its input from the seed; the others are fixed instances.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "table1-g4",
            lambda seed: ["table1", "--gmax", "4"],
            check_table1,
        ),
        Workload(
            "asymptotic-g3",
            lambda seed: ["asymptotic", "--m", "50", "--d", "4", "--g", "3"],
            check_asymptotic,
        ),
        Workload(
            "simulate-mc",
            lambda seed: ["simulate", "--m", "50", "--d", "4", "--t", "250",
                          "--runs", "2000", "--seed", str(seed)],
            check_simulate,
        ),
        Workload(
            "verify-full",
            lambda seed: ["verify", "--level", "full"],
            check_verify,
        ),
    ]
}
