"""End-to-end acceptance checks.

One test per criterion; each prints a single pass/fail line directly to
the terminal (bypassing capture) before asserting, so a full run always
shows the per-criterion verdict:

    criterion 1 (bound table m=50 d=4 T=250): FAIL ...
    criterion 2 (oracle equivalence): PASS
    ...

Criterion 1 compares against externally tabulated 5-decimal reference
values. The implementation here averages the expected per-step error over
steps 0..T-1, the convention pinned exactly by the oracle in
criterion 2; the reference table is reproduced only by averaging over
steps 1..T instead. The table test therefore fails honestly at the stated
tolerance, and a companion diagnostic test demonstrates that the shifted
window reproduces every tabulated value.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cusketch.bounds import asymptotic_error, expected_error
from cusketch.closed_form import bd_gap_tail, g1_asymptotic
from cusketch.kernel import build_kernel
from cusketch.simulate import (
    _VARIANT_CODES,
    SimConfig,
    _run_steps,
    brute_force_expected_error,
    estimate_error,
    sandwich_traces,
    substream,
    worst_case_probe,
)
from cusketch.sketch import uniform_select
from cusketch.config import SketchConfig
from cusketch.states import enumerate_states
from references import occupancy_sequence

REFERENCE_TABLE = {
    1: (0.01860, 0.07654),
    2: (0.02956, 0.04090),
    3: (0.03420, 0.03637),
    4: (0.03540, 0.03572),
    5: (0.03559, 0.03562),
}
TABLE_TOL = 1e-4


def _verdict(capsys, number, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f"  {detail}" if detail and not ok else ""
        print(f"criterion {number} ({name}): {status}{suffix}")


def _table_deviations(gs):
    rows = []
    for g in gs:
        lo = expected_error(50, 4, g, 250, "lb")
        hi = expected_error(50, 4, g, 250, "ub")
        ref_lo, ref_hi = REFERENCE_TABLE[g]
        rows.append((g, lo, hi, abs(lo - ref_lo), abs(hi - ref_hi)))
    return rows


def test_criterion_1_bound_table(capsys):
    rows = _table_deviations((1, 2, 3))
    worst = max(max(dlo, dhi) for _, _, _, dlo, dhi in rows)
    ok = worst <= TABLE_TOL
    detail = "; ".join(
        f"g={g}: lower {lo:.5f} (|err| {dlo:.1e}), upper {hi:.5f} (|err| {dhi:.1e})"
        for g, lo, hi, dlo, dhi in rows
    )
    _verdict(capsys, 1, "bound table m=50 d=4 T=250", ok, detail)
    assert ok, detail


@pytest.mark.slow
@pytest.mark.parametrize("g", [4, 5])
def test_criterion_1_bound_table_slow(capsys, g):
    ((g_, lo, hi, dlo, dhi),) = _table_deviations((g,))
    ok = max(dlo, dhi) <= TABLE_TOL
    detail = f"g={g}: lower {lo:.5f} (|err| {dlo:.1e}), upper {hi:.5f} (|err| {dhi:.1e})"
    _verdict(capsys, 1, f"bound table slow row g={g}", ok, detail)
    assert ok, detail


def test_bound_table_discrepancy_is_a_one_step_window_shift():
    """Diagnostic for criterion 1: averaging the occupancy over steps 1..T
    instead of 0..T-1 reproduces every tabulated value within tolerance."""
    for g, (ref_lo, ref_hi) in list(REFERENCE_TABLE.items())[:3]:
        space = enumerate_states(50, 4, g)
        for variant, ref in (("lb", ref_lo), ("ub", ref_hi)):
            kernel = build_kernel(space, variant)
            r = kernel.r
            pis = occupancy_sequence(kernel, 251)  # pi(0) .. pi(250)
            next(pis)
            shifted = float(np.mean([pi @ r for pi in pis]))
            assert shifted == pytest.approx(ref, abs=TABLE_TOL)


def test_criterion_2_oracle_equivalence(capsys):
    ok = True
    details = []
    for m in (3, 4):
        for T in (1, 2, 3):
            exact = brute_force_expected_error(m, 2, T).per_step
            for variant in ("lb", "ub"):
                got = expected_error(m, 2, T, T, variant)
                if abs(got - float(exact)) > 1e-10:
                    ok = False
                    details.append(f"m={m} T={T} {variant}: {got} != {exact}")
    assert brute_force_expected_error(3, 2, 1).per_step == Fraction(1, 3)
    assert brute_force_expected_error(3, 2, 2).per_step == Fraction(4, 9)
    _verdict(capsys, 2, "oracle equivalence", ok, "; ".join(details))
    assert ok, details


def test_criterion_3_monotone_squeeze(capsys):
    m, d, T = 10, 3, 20
    lowers = [expected_error(m, d, g, T, "lb") for g in range(1, 6)]
    uppers = [expected_error(m, d, g, T, "ub") for g in range(1, 6)]
    ok = (
        all(a < b for a, b in zip(lowers, lowers[1:]))
        and all(a > b for a, b in zip(uppers, uppers[1:]))
        and all(lo <= hi for lo, hi in zip(lowers, uppers))
    )
    _verdict(capsys, 3, "monotone squeeze m=10 d=3 T=20", ok,
             f"lowers={lowers} uppers={uppers}")
    assert ok


def test_criterion_4_closed_form_agreement(capsys):
    ok = True
    details = []
    for m in range(3, 21):
        lo, hi = g1_asymptotic(m)
        got_lo = asymptotic_error(m, m - 1, 1, "lb")
        got_hi = asymptotic_error(m, m - 1, 1, "ub")
        if abs(got_lo - lo) > 1e-10 or abs(got_hi - hi) > 1e-10:
            ok = False
            details.append(f"m={m}: ({got_lo}, {got_hi}) != ({lo}, {hi})")
    if abs(asymptotic_error(3, 2, 1, "lb") - 0.4) > 1e-10:
        ok = False
        details.append("m=3 lower regression")
    if abs(asymptotic_error(3, 2, 1, "ub") - 0.6) > 1e-10:
        ok = False
        details.append("m=3 upper regression")
    _verdict(capsys, 4, "closed-form agreement d=m-1 g=1", ok, "; ".join(details))
    assert ok, details


def test_criterion_5_long_run_rates(capsys):
    m, T = 10, 10**5
    stats = estimate_error(SimConfig(m=m, d=m - 1, T=T, runs=1, seed=7, variant="cu"))
    tails = stats.gap_histogram
    ok = abs(stats.mean_error_rate - 0.5) < 0.01
    ok = ok and abs(stats.mean_counter_rate - 0.5) < 0.01
    details = [
        f"error_rate={stats.mean_error_rate:.4f}",
        f"counter_rate={stats.mean_counter_rate:.4f}",
    ]
    for g in range(1, 5):
        p = bd_gap_tail(m, g)
        stderr = math.sqrt(p * (1 - p) / T)
        if abs(tails[g] - p) > 3 * stderr:
            ok = False
            details.append(f"gap tail g={g}: {tails[g]:.5f} vs {p:.5f} (3se={3*stderr:.1e})")
    _verdict(capsys, 5, "long-run rates m=10 d=9", ok, "; ".join(details))
    assert ok, details


def test_criterion_6_pathwise_sandwich(capsys):
    rng = np.random.Generator(np.random.PCG64(20240817))
    cases = []
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, m + 1))
        g = int(rng.integers(1, 4))
        T = int(rng.integers(1, 51))
        cases.append((m, d, g, T, int(rng.integers(0, 2**63))))
    reports = sandwich_traces(cases)
    ok = all(reports)
    detail = ""
    if not ok:
        (m, d, g, T, _), report = next((c, r) for c, r in zip(cases, reports) if not r)
        detail = f"violation at m={m} d={d} g={g} T={T}: {report.first_violation}"
    _verdict(capsys, 6, "pathwise sandwich x1000", ok, detail)
    assert ok, detail


def test_criterion_7_kernel_soundness(capsys):
    ok = True
    details = []
    for m in range(2, 13):
        for d in {1, 2, m - 1, m} - {0}:
            if not 1 <= d <= m:
                continue
            for g in range(1, 5):
                space = enumerate_states(m, d, g)
                if len(space) != math.comb(m + g - d, g):
                    ok = False
                    details.append(f"count m={m} d={d} g={g}")
                for variant in ("lb", "ub"):
                    try:
                        build_kernel(space, variant)  # internal checks raise
                    except Exception as exc:  # pragma: no cover - diagnostic
                        ok = False
                        details.append(f"kernel m={m} d={d} g={g} {variant}: {exc}")

    # Sampled selections, stepped by the LB and UB rules, reach each target
    # of the sampled states as often as P's row says.
    m, d, g, n_draws = 8, 3, 2, 20000
    space = enumerate_states(m, d, g)
    config = SketchConfig(m, d)
    rows = {variant: build_kernel(space, variant).p for variant in ("lb", "ub")}
    rng = substream(4242, 0)
    state_ids = rng.choice(len(space), size=10, replace=False)
    for i in state_ids:
        k = space.state(int(i))
        counters = [level for level, count in enumerate(k) for _ in range(count)]
        tallies = {variant: {} for variant in rows}  # offset tuple -> draws reaching it
        for _ in range(n_draws):
            sel = [uniform_select(config, rng)]
            for variant, tally in tallies.items():
                child = counters.copy()
                _run_steps(child, sel, _VARIANT_CODES[variant], g)
                low = min(child)
                key = tuple(sorted(x - low for x in child))
                tally[key] = tally.get(key, 0) + 1
        for variant, tally in tallies.items():
            histograms = [[key.count(level) for level in range(g + 1)] for key in tally]
            targets = space.rank(histograms)
            if (targets < 0).any():
                ok = False
                details.append(f"state {k} {variant}: a draw left the state space")
                continue
            observed = np.zeros(len(space))
            np.add.at(observed, targets, list(tally.values()))
            observed /= n_draws
            expected = rows[variant][int(i)].toarray().ravel()
            for j in np.flatnonzero((observed > 0) | (expected > 0)):
                p = expected[j]
                stderr = math.sqrt(p * (1 - p) / n_draws)
                if abs(observed[j] - p) > 3 * stderr + 1e-12:
                    ok = False
                    details.append(
                        f"state {k} {variant} target {space.state(j)}: "
                        f"{observed[j]:.4f} vs {p:.4f}"
                    )
    _verdict(capsys, 7, "kernel soundness m<=12 g<=4", ok, "; ".join(details))
    assert ok, details


def test_criterion_8_present_vs_absent_errors(capsys):
    T = 200
    rng = substream(99, 0)
    zipf_weights = 1.0 / np.arange(1, 21)
    streams = {
        "constant": ["a"] * T,
        "alternating": ["a", "b"] * (T // 2),
        "zipf-like": [
            f"z{i}" for i in rng.choice(20, size=T, p=zipf_weights / zipf_weights.sum())
        ],
        "distinct": [f"u{i}" for i in range(T)],
        "half-repeats": ["hot"] * (T // 2) + [f"v{i}" for i in range(T // 2)],
    }
    ok = True
    details = []
    for name, stream in streams.items():
        report = worst_case_probe(m=20, d=3, stream=stream, runs=2000, seed=13)
        if not report.ok:
            ok = False
            worst = max(report.items, key=lambda s: s.mean_error)
            details.append(
                f"{name}: item {worst.item!r} mean {worst.mean_error:.4f} "
                f"> absent {report.absent_mean:.4f}"
            )
    _verdict(capsys, 8, "present vs absent errors on 5 streams", ok, "; ".join(details))
    assert ok, details
