import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cusketch.simulate
from cusketch.closed_form import bd_gap_tail
from cusketch.config import SketchConfig
from cusketch.errors import ConfigurationError
from cusketch.simulate import (
    _BATCH_RUNS,
    _BLOCK_STEPS,
    _DECODE_CELLS,
    _MIN_BATCH_RUNS,
    _VARIANT_CODES,
    GAP_HISTOGRAM_LEVELS,
    SimConfig,
    _run_rows,
    _run_steps,
    _selections,
    _stderr,
    brute_force_expected_error,
    estimate_error,
    expected_min_over_subsets,
    mix64,
    run_trajectory,
    sandwich_trace,
    substream,
    worst_case_probe,
)
from cusketch.sketch import (
    CappedSketch,
    IdealHashTable,
    cu_update,
    lb_update,
    ub_update,
    uniform_select,
    zero_counters,
)


class TestSubstreams:
    def test_mix64_is_deterministic_and_64_bit(self):
        a = mix64(12345, 7)
        assert a == mix64(12345, 7)
        assert 0 <= a < 2**64

    def test_runs_get_distinct_streams(self):
        outputs = {mix64(42, r) for r in range(1000)}
        assert len(outputs) == 1000

    def test_substream_replays(self):
        x = substream(9, 3).random(5)
        y = substream(9, 3).random(5)
        assert (x == y).all()


class TestSimConfig:
    def test_capped_variant_requires_g(self):
        with pytest.raises(ConfigurationError):
            SimConfig(m=4, d=2, T=10, runs=1, seed=0, variant="lb")

    def test_bad_variant(self):
        with pytest.raises(ConfigurationError):
            SimConfig(m=4, d=2, T=10, runs=1, seed=0, variant="min")

    def test_bad_horizon(self):
        with pytest.raises(ConfigurationError):
            SimConfig(m=4, d=2, T=0, runs=1, seed=0)


class TestExpectedMinOverSubsets:
    def test_two_ones_one_zero(self):
        assert expected_min_over_subsets([1, 1, 0], 2) == pytest.approx(1 / 3)

    def test_full_selection_returns_minimum(self):
        assert expected_min_over_subsets([5, 3, 9], 3) == 3.0

    def test_singleton_selection_returns_mean(self):
        vals = [2, 7, 1, 4]
        assert expected_min_over_subsets(vals, 1) == pytest.approx(np.mean(vals))

    def test_matches_direct_enumeration(self, rng):
        from itertools import combinations

        for _ in range(20):
            m = int(rng.integers(3, 8))
            d = int(rng.integers(1, m + 1))
            vals = rng.integers(0, 10, size=m).tolist()
            direct = np.mean([min(vals[i] for i in s) for s in combinations(range(m), d)])
            assert expected_min_over_subsets(vals, d) == pytest.approx(direct, abs=1e-12)

    def test_ties_handled(self):
        assert expected_min_over_subsets([2, 2, 2, 2], 2) == 2.0


class TestTrajectories:
    def test_deterministic_for_fixed_seed(self):
        config = SimConfig(m=6, d=3, T=500, runs=1, seed=77)
        a = run_trajectory(config, 0)
        b = run_trajectory(config, 0)
        assert (a.values == b.values).all()
        assert (a.gap_trace == b.gap_trace).all()

    def test_counter_sum_bounded_by_steps(self):
        config = SimConfig(m=5, d=2, T=300, runs=1, seed=3)
        traj = run_trajectory(config, 0)
        total = int(traj.values.sum())
        assert config.T <= total <= config.T * config.d
        assert traj.counter_rate == pytest.approx(total / (config.T * config.m))

    def test_capped_variants_respect_cap(self):
        for variant in ("lb", "ub"):
            config = SimConfig(m=5, d=2, T=400, runs=1, seed=11, variant=variant, g=2)
            traj = run_trajectory(config, 0)
            assert traj.gap_trace.max() <= 2
            assert int(traj.values.max() - traj.values.min()) <= 2


def _selection_from_uniforms(row, m):
    """One row decoded by the scalar partial Fisher-Yates loop, sorted."""
    idx = list(range(m))
    for j, x in enumerate(row):
        r = j + min(int(x * (m - j)), m - j - 1)
        idx[j], idx[r] = idx[r], idx[j]
    return tuple(sorted(idx[: len(row)]))


def _spec_run(m, d, variant, g, u):
    """Final counters and gap trace from the one-step spec functions."""
    counters = zero_counters(SketchConfig(m, d))
    state = counters if variant == "cu" else CappedSketch(counters, g, variant)
    step = {"cu": cu_update, "lb": lb_update, "ub": ub_update}[variant]
    gaps = []
    for row in u:
        state = step(state, _selection_from_uniforms(row, m))
        values = state.values if variant == "cu" else state.counters.values
        gaps.append(int(values.max() - values.min()))
    return values.tolist(), gaps


def _stepper_run(m, variant, g, u):
    values = [0] * m
    return values, _run_steps(values, _selections(u, m).tolist(), _VARIANT_CODES[variant], g)


def _rows_run(m, variant, g, u):
    """Final counters and gap trace of each row of the (R, T, d) draws, stepped together."""
    values = np.zeros((len(u), m), dtype=np.int64)
    sel = np.stack([_selections(row, m) for row in u], axis=1)  # (T, R, d)
    gaps = _run_rows(values, sel, _VARIANT_CODES[variant], g)
    return list(zip(values.tolist(), gaps.tolist()))


class TestStepperMatchesPureOperations:
    """The stepper and the one-step functional operations must agree when
    driven by selections decoded from the same uniform draws."""

    def test_cu(self):
        m, d, T = 7, 3, 200
        u = np.random.Generator(np.random.PCG64(1)).random((T, d))
        assert _stepper_run(m, "cu", 0, u) == _spec_run(m, d, "cu", 0, u)

    @pytest.mark.parametrize("variant", ["lb", "ub"])
    def test_capped(self, variant):
        m, d, g, T = 6, 2, 2, 200
        u = np.random.Generator(np.random.PCG64(2)).random((T, d))
        assert _stepper_run(m, variant, g, u) == _spec_run(m, d, variant, g, u)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 8),
        data=st.data(),
        g=st.integers(1, 3),
        T=st.integers(1, 60),
        variant=st.sampled_from(["cu", "lb", "ub"]),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 5),
    )
    def test_matches_spec_on_random_instances(self, m, data, g, T, variant, seed, rows):
        d = data.draw(st.integers(1, m), label="d")
        u = np.random.Generator(np.random.PCG64(seed)).random((rows, T, d))
        assert _stepper_run(m, variant, g, u[0]) == _spec_run(m, d, variant, g, u[0])
        assert _rows_run(m, variant, g, u) == [_spec_run(m, d, variant, g, row) for row in u]

    def test_snapshots_record_counters_after_each_step(self):
        m, d, T = 5, 2, 40
        u = np.random.Generator(np.random.PCG64(3)).random((T, d))
        selections = _selections(u, m).tolist()
        snapshots = np.empty((T, m), dtype=np.int64)
        values = [0] * m
        _run_steps(values, selections, _VARIANT_CODES["ub"], 1, snapshots)
        for t in range(T):
            replay = [0] * m
            _run_steps(replay, selections[: t + 1], _VARIANT_CODES["ub"], 1)
            assert snapshots[t].tolist() == replay
        assert snapshots[-1].tolist() == values


class TestSelections:
    @pytest.mark.parametrize("m,d", [(2, 1), (5, 2), (10, 9), (6, 6), (50, 4)])
    def test_matches_uniform_select_on_same_substream(self, m, d):
        T = 300
        decoded = _selections(substream(8, 1).random((T, d)), m)
        rng = substream(8, 1)
        direct = [uniform_select(SketchConfig(m, d), rng) for _ in range(T)]
        assert [tuple(sorted(row)) for row in decoded] == direct

    def test_decode_memory_is_bounded_by_the_chunk_budget(self):
        # One (1024, m) pool at m=200000 would take 1.6 GB.
        u = substream(3, 0).random((1024, 2))
        tracemalloc.start()
        try:
            sel = _selections(u, 200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sel.shape == (1024, 2)
        assert peak < 32 * 2**20

    def test_chunked_decode_equals_one_shot(self, monkeypatch):
        u = substream(4, 0).random((101, 3))
        whole = _selections(u, 7)
        assert whole.base is None  # not a view that keeps the (T, m) pool alive
        monkeypatch.setattr(cusketch.simulate, "_DECODE_CELLS", 16)  # 2 rows a chunk
        assert np.array_equal(_selections(u, 7), whole)

    def test_blocked_trajectory_matches_one_decode(self):
        config = SimConfig(m=7, d=3, T=2500, runs=1, seed=5, variant="ub", g=2)
        traj = run_trajectory(config, 4)
        u = substream(config.seed, 4).random((config.T, config.d))
        values, trace = _stepper_run(config.m, "ub", 2, u)
        assert traj.values.tolist() == values
        assert traj.gap_trace.tolist() == trace


class TestEstimateError:
    def test_stats_shape_and_determinism(self):
        config = SimConfig(m=5, d=2, T=200, runs=8, seed=21)
        s1 = estimate_error(config)
        s2 = estimate_error(config)
        assert s1.mean_error_rate == s2.mean_error_rate
        assert len(s1.per_run_errors) == 8
        assert 0.0 <= s1.mean_error_rate <= 1.0
        assert s1.gap_histogram[1] >= s1.gap_histogram[2]

    def test_pinned_seeded_record(self):
        stats = estimate_error(SimConfig(m=50, d=4, T=250, runs=20, seed=1))
        assert stats.to_dict() == {
            "mean_error_rate": 0.035414851063829786,
            "stderr_error_rate": 0.00021463628478871017,
            "mean_counter_rate": 0.03832,
            "gap_histogram": {
                "1": 1.0, "2": 0.937, "3": 0.5986, "4": 0.1572, "5": 0.0242,
                "6": 0.0002, "7": 0.0, "8": 0.0, "9": 0.0, "10": 0.0,
            },
        }

    def test_csv_layout(self):
        config = SimConfig(m=4, d=2, T=50, runs=2, seed=5)
        text = estimate_error(config).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "run,error,counter_rate"
        assert lines[3] == "g,fraction"
        assert lines[1].startswith("0,")
        for i, line in enumerate(lines[1:3]):
            index, error, rate = line.split(",")
            assert int(index) == i and float(error) >= 0.0 and float(rate) > 0.0

    @pytest.mark.parametrize("runs", [1, _MIN_BATCH_RUNS - 1, _MIN_BATCH_RUNS, _BATCH_RUNS + 7])
    @pytest.mark.parametrize("variant,g", [("cu", None), ("lb", 1), ("ub", 2)])
    def test_matches_run_by_run_trajectories(self, runs, variant, g):
        """Runs stepped alone or together in blocks give each run's own trajectory."""
        config = SimConfig(m=7, d=3, T=_BLOCK_STEPS + 30, runs=runs, seed=13,
                           variant=variant, g=g)
        stats = estimate_error(config)
        trajectories = [run_trajectory(config, r) for r in range(runs)]
        assert stats.per_run_errors == [t.conditional_error / config.T for t in trajectories]
        assert stats.per_run_counter_rates == [t.counter_rate for t in trajectories]
        assert stats.gap_histogram == {
            level: sum(int((t.gap_trace >= level).sum()) for t in trajectories)
            / (config.T * runs)
            for level in range(1, GAP_HISTOGRAM_LEVELS + 1)
        }

    def test_conditional_error_is_exact_on_large_counters(self):
        # At m=64, d=32 the weights C(64 - r, 31) reach 9.2e17, so int64
        # products of counters near 467 wrap around.
        config = SimConfig(m=64, d=32, T=3000, runs=1, seed=3)
        values = run_trajectory(config).values.tolist()
        y = sorted(values)
        exact = sum(y[r - 1] * math.comb(64 - r, 31) for r in range(1, 34)) / math.comb(64, 32)
        assert run_trajectory(config).conditional_error == exact
        assert min(values) <= exact <= max(values)
        rate = estimate_error(config).mean_error_rate
        assert rate == exact / config.T
        assert min(values) / config.T <= rate <= max(values) / config.T


class TestStderr:
    def test_two_pass_survives_a_large_offset(self):
        # sum of squares ~3e16 is past 2**53, where a one-pass variance cancels
        values = [1e8, 1e8 + 1, 1e8 + 2]
        assert _stderr(values, math.fsum(values) / 3) == pytest.approx(math.sqrt(1 / 3), rel=1e-12)

    def test_single_value_has_no_stderr(self):
        assert math.isnan(_stderr([0.5], 0.5))

    def test_probe_stderr_is_two_pass_over_runs(self):
        m, d, runs, seed = 9, 3, 40, 5
        stream = ["a", "b", "a", "c"] * 10
        errors: dict = {}
        absent = []
        for run in range(runs):
            rng = substream(seed, run)
            table = IdealHashTable(SketchConfig(m, d))
            selections = [table.select(item, rng) for item in stream]
            values = [0] * m
            _run_steps(values, selections, _VARIANT_CODES["cu"], 0)
            for item, subset in table.assignments.items():
                err = min(values[i] for i in subset) - stream.count(item)
                errors.setdefault(item, []).append(err)
            absent.append(expected_min_over_subsets(values, d))
        report = worst_case_probe(m, d, stream, runs, seed)
        for stats in report.items:
            expected = np.std(errors[stats.item], ddof=1) / math.sqrt(runs)
            assert stats.stderr == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert report.absent_stderr == pytest.approx(
            np.std(absent, ddof=1) / math.sqrt(runs), rel=1e-12
        )


def _sandwich_reference(m, d, g, T, seed, fault=None):
    """First violation over the whole horizon, every chain's (T, m) snapshots held at once.

    A `fault` step lifts CU above UB(g+1) at counter 4 from that step on.
    """
    selections = _selections(substream(seed, 0).random((T, d)), m).tolist()
    chains = [("lb", g), ("lb", g + 1), ("cu", 0), ("ub", g + 1), ("ub", g)]
    snapshots = np.empty((len(chains), T, m), dtype=np.int64)
    for (variant, cap), snaps in zip(chains, snapshots):
        _run_steps([0] * m, selections, _VARIANT_CODES[variant], cap, snaps)
    if fault is not None:
        snapshots[2, fault - 1 :, 4] += 10**6
    bad = snapshots[:-1] > snapshots[1:]
    steps = np.flatnonzero(bad.any(axis=(0, 2)))
    if not len(steps):
        return None
    t = int(steps[0])
    return t + 1, int(np.flatnonzero(bad[:, t])[0]) % m


class TestSandwich:
    def test_ordering_holds_on_seeded_traces(self):
        for seed in range(10):
            report = sandwich_trace(m=6, d=2, g=2, T=80, seed=seed)
            assert report.ok and report.first_violation is None

    def test_invalid_cap(self):
        with pytest.raises(ConfigurationError):
            sandwich_trace(m=4, d=2, g=0, T=10, seed=0)

    @pytest.mark.parametrize("ub_fault,expected", [(True, (4, 0)), (False, (7, 2))])
    def test_first_violation_is_earliest_step_then_chain_order(
        self, monkeypatch, ub_fault, expected
    ):
        import cusketch.simulate as sim

        run_steps = sim._run_steps

        def faulty(values, selections, variant, g, snapshots=None):
            trace = run_steps(values, selections, variant, g, snapshots)
            if variant == sim._CU:
                snapshots[6:, 4] += 100  # CU above UB(3) at counter 4 from step 7
            elif variant == sim._LB and g == 2:
                snapshots[6:, 2] += 100  # LB(2) above LB(3) at counter 2 from step 7
            elif variant == sim._UB and g == 2 and ub_fault:
                snapshots[3:, 0] -= 100  # UB(3) above UB(2) at counter 0 from step 4
            return trace

        monkeypatch.setattr(sim, "_run_steps", faulty)
        report = sandwich_trace(m=6, d=2, g=2, T=20, seed=1)
        assert not report.ok
        assert report.first_violation == expected

    @pytest.mark.parametrize("m,d,g,seed", [(6, 2, 2, 0), (9, 4, 1, 3), (5, 5, 3, 7)])
    def test_blocked_trace_matches_whole_horizon(self, m, d, g, seed):
        T = 2 * _BLOCK_STEPS + 17
        report = sandwich_trace(m, d, g, T, seed)
        assert report.ok and _sandwich_reference(m, d, g, T, seed) is None

    @pytest.mark.parametrize(
        "fault", [3, _BLOCK_STEPS, _BLOCK_STEPS + 1, _BLOCK_STEPS + 6, 2 * _BLOCK_STEPS + 17]
    )
    def test_fault_in_any_block_reports_the_global_step(self, monkeypatch, fault):
        m, d, g, T, seed = 6, 2, 2, 2 * _BLOCK_STEPS + 17, 1
        run_steps = cusketch.simulate._run_steps
        done = [0]  # CU steps of the earlier blocks

        def faulty(values, selections, variant, cap, snapshots=None):
            trace = run_steps(values, selections, variant, cap, snapshots)
            if variant == _VARIANT_CODES["cu"]:
                snapshots[max(0, fault - 1 - done[0]) :, 4] += 10**6
                done[0] += len(selections)
            return trace

        monkeypatch.setattr(cusketch.simulate, "_run_steps", faulty)
        report = sandwich_trace(m, d, g, T, seed)
        assert report.first_violation == (fault, 4) == _sandwich_reference(m, d, g, T, seed, fault)

    def test_memory_holds_one_block_of_snapshots(self):
        # the five (T, m) int64 snapshot arrays of the whole horizon take 38 MB here
        tracemalloc.start()
        try:
            report = sandwich_trace(m=50, d=4, g=3, T=20_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 12 * 2**20


def _probe_reference(m, d, stream, runs, seed):
    """Per-item counts, per-run present-item errors and absent errors, run by run."""
    slot = {}
    order = [slot.setdefault(item, len(slot)) for item in stream]
    counts = np.bincount(order).tolist()
    present, absent = [], []
    for run in range(runs):
        subsets = _selections(substream(seed, run).random((len(slot), d)), m).tolist()
        values = [0] * m
        _run_steps(values, [subsets[i] for i in order], _VARIANT_CODES["cu"], 0)
        present.append([min(values[i] for i in s) - c for s, c in zip(subsets, counts)])
        absent.append(expected_min_over_subsets(values, d))
    return list(slot), counts, present, absent


def _check_probe_against_reference(m, d, stream, runs, seed):
    items, counts, present, absent = _probe_reference(m, d, stream, runs, seed)
    report = worst_case_probe(m, d, stream, runs, seed)
    assert [s.item for s in report.items] == items
    assert [s.count for s in report.items] == counts
    means = [sum(column) / runs for column in zip(*present)]
    assert [s.mean_error for s in report.items] == means
    stderrs = [_stderr(list(column), mean) for column, mean in zip(zip(*present), means)]
    assert np.array_equal([s.stderr for s in report.items], stderrs, equal_nan=True)
    total = 0.0
    for err in absent:  # summed in run order
        total += err
    assert report.absent_mean == total / runs
    assert np.array_equal(report.absent_stderr, _stderr(absent, total / runs), equal_nan=True)


class TestWorstCaseProbe:
    def test_zero_runs_rejected(self):
        with pytest.raises(ConfigurationError, match="runs must be >= 1, got 0"):
            worst_case_probe(m=12, d=3, stream=["x"], runs=0, seed=1)

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one item"):
            worst_case_probe(m=12, d=3, stream=[], runs=2, seed=1)

    @pytest.mark.parametrize("runs", [1, _MIN_BATCH_RUNS - 1, _MIN_BATCH_RUNS, 70])
    def test_matches_run_by_run_reference(self, runs):
        rng = substream(99, 0)
        weights = 1.0 / np.arange(1, 21)
        stream = [f"z{i}" for i in rng.choice(20, size=200, p=weights / weights.sum())]
        _check_probe_against_reference(20, 3, stream, runs, 13)

    def test_long_stream_matches_run_by_run_reference(self):
        stream = [i % (_BLOCK_STEPS + 500) for i in range(3 * _BLOCK_STEPS)]
        _check_probe_against_reference(9, 3, stream, _MIN_BATCH_RUNS + 4, 4)

    def test_run_groups_hold_at_most_the_cell_budget(self, monkeypatch):
        d, runs, stream = 3, 4, list(range(10**5))
        draws = cusketch.simulate._draws
        groups = []

        def spy(seed, block, T, m, d):
            groups.append((block, T))
            return draws(seed, block, T, m, d)

        monkeypatch.setattr(cusketch.simulate, "_draws", spy)
        worst_case_probe(20, d, stream, runs, 1)
        assert [run for block, _ in groups for run in block] == list(range(runs))
        assert all(len(block) * T * d <= _DECODE_CELLS for block, T in groups)
        assert max(len(block) for block, _ in groups) > 1

    @pytest.mark.slow
    def test_memory_with_many_distinct_items(self):
        # Four runs in one group would hold 8M subset cells and their gathered
        # counters, about 140 MB at the peak; one run at a time peaks near 71 MB.
        stream = list(range(10**5))
        tracemalloc.start()
        try:
            worst_case_probe(40, 20, stream, 4, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_distinct_stream_matches_absent_error(self):
        stream = [f"x{i}" for i in range(60)]
        report = worst_case_probe(m=12, d=3, stream=stream, runs=200, seed=19)
        assert report.ok
        assert len(report.items) == 60

    def test_repeated_item_error_stays_below_absent(self):
        stream = ["hot"] * 100
        report = worst_case_probe(m=10, d=3, stream=stream, runs=200, seed=23)
        assert report.ok
        hot = report.items[0]
        assert hot.count == 100
        assert hot.mean_error <= report.absent_mean + 3 * math.hypot(
            hot.stderr, report.absent_stderr
        )


    @pytest.mark.parametrize(
        "stream", [["a", "b", "a", "c"] * 10, [f"x{i % 7}" for i in range(30)], ["hot"] * 5]
    )
    def test_matches_per_item_hash_table(self, stream):
        """The block decode draws what IdealHashTable draws, item by item."""
        m, d, runs, seed = 9, 3, 40, 5
        config = SketchConfig(m, d)
        sums: dict = {}
        absent = 0.0
        for run in range(runs):
            rng = substream(seed, run)
            table = IdealHashTable(config)
            selections = [table.select(item, rng) for item in stream]
            values = [0] * m
            _run_steps(values, selections, _VARIANT_CODES["cu"], 0)
            for item, subset in table.assignments.items():
                err = min(values[i] for i in subset) - stream.count(item)
                sums[item] = sums.get(item, 0.0) + err
            absent += expected_min_over_subsets(values, d)
        report = worst_case_probe(m, d, stream, runs, seed)
        assert [s.item for s in report.items] == list(sums)
        assert [s.mean_error for s in report.items] == [v / runs for v in sums.values()]
        assert report.absent_mean == absent / runs


class TestGapTail:
    def test_long_run_matches_birth_death_tail(self):
        m, T = 8, 200_000
        config = SimConfig(m=m, d=m - 1, T=T, runs=1, seed=2024, variant="cu")
        tails = estimate_error(config).gap_histogram
        for g in (1, 2, 3):
            expected = bd_gap_tail(m, g)
            stderr = math.sqrt(expected * (1 - expected) / T)
            assert abs(tails[g] - expected) < 4 * stderr + 1e-3


class TestBruteForceOracle:
    def test_single_step(self):
        res = brute_force_expected_error(3, 2, 1)
        assert res.exact_expected_error == Fraction(1, 3)

    def test_two_steps(self):
        res = brute_force_expected_error(3, 2, 2)
        assert res.exact_expected_error == Fraction(8, 9)
        assert res.per_step == Fraction(4, 9)

    def test_pinned_exact_values(self):
        # recorded when each leaf re-ran all T steps from zero counters
        assert brute_force_expected_error(3, 2, 6).exact_expected_error == Fraction(688, 243)
        assert brute_force_expected_error(3, 2, 3).exact_expected_error == Fraction(35, 27)
        assert brute_force_expected_error(4, 2, 3).exact_expected_error == Fraction(47, 54)
        assert brute_force_expected_error(3, 1, 4).exact_expected_error == Fraction(4, 3)
        assert brute_force_expected_error(4, 3, 3).exact_expected_error == Fraction(39, 32)

    def test_guard_on_huge_enumerations(self):
        with pytest.raises(ConfigurationError, match="guard"):
            brute_force_expected_error(10, 5, 4)

    def test_monte_carlo_agrees_with_oracle(self):
        exact = brute_force_expected_error(4, 2, 3)
        config = SimConfig(m=4, d=2, T=3, runs=4000, seed=31)
        stats = estimate_error(config)
        mc = stats.mean_error_rate * config.T  # undo the per-step scaling
        stderr = stats.stderr_error_rate * config.T
        assert abs(mc - exact.value) < 4 * stderr
