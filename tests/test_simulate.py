import itertools
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
    _draws,
    _expected_min_numerator,
    _numerators,
    _run_rows,
    _run_steps,
    _selections,
    _stderr,
    brute_force_expected_error,
    estimate_error,
    exact_errors,
    expected_min_over_subsets,
    mix64,
    run_trajectory,
    sandwich_trace,
    sandwich_traces,
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
from references import pool_selections


class TestSubstreams:
    def test_mix64_is_deterministic_and_64_bit(self):
        a = mix64(12345, 7)
        assert a == mix64(12345, 7)
        assert 0 <= a < 2**64

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_mix64_accepts_every_64_bit_seed(self, seed):
        assert 0 <= mix64(seed, 3) < 2**64

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_mix64_refuses_a_seed_the_mask_would_alias(self, seed):
        with pytest.raises(ConfigurationError, match=f"seed .*got {seed}"):
            mix64(seed, 0)

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
        with pytest.raises(ConfigurationError, match="g >= 1"):
            exact_errors(4, 2, 10, "ub", 0)

    def test_cap_refused_for_plain_cu(self):
        with pytest.raises(ConfigurationError, match="lb/ub"):
            SimConfig(m=4, d=2, T=10, runs=1, seed=0, g=3)
        with pytest.raises(ConfigurationError, match="lb/ub"):
            exact_errors(4, 2, 10, "cu", 3)

    def test_bad_variant(self):
        with pytest.raises(ConfigurationError):
            SimConfig(m=4, d=2, T=10, runs=1, seed=0, variant="min")
        with pytest.raises(ConfigurationError, match="cu/lb/ub"):
            exact_errors(4, 2, 10, "min")

    def test_bad_horizon(self):
        with pytest.raises(ConfigurationError):
            SimConfig(m=4, d=2, T=0, runs=1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused_at_construction(self, seed):
        with pytest.raises(ConfigurationError, match=f"seed .*got {seed}"):
            SimConfig(m=5, d=2, T=10, runs=3, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_every_64_bit_seed_builds(self, seed):
        assert SimConfig(m=5, d=2, T=10, runs=3, seed=seed).seed == seed


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
    """Final counters and gap trace of each run of the (R, T, d) draws, stepped together."""
    values = np.zeros((m, len(u)), dtype=np.int64)
    sel = np.stack([_selections(row, m) for row in u], axis=2)  # (T, d, R)
    gaps = np.array(list(_run_rows(values, sel, _VARIANT_CODES[variant], g)))  # (T, R)
    return list(zip(values.T.tolist(), gaps.T.tolist()))


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
        """One step at a time, `_run_steps` gives each prefix's counters and the whole trace."""
        m, d, T = 5, 2, 40
        u = np.random.Generator(np.random.PCG64(3)).random((T, d))
        selections = _selections(u, m).tolist()
        values, trace = [0] * m, []
        for t, sel in enumerate(selections):
            trace += _run_steps(values, [sel], _VARIANT_CODES["ub"], 1)
            replay = [0] * m
            _run_steps(replay, selections[: t + 1], _VARIANT_CODES["ub"], 1)
            assert values == replay
        whole = [0] * m
        assert _run_steps(whole, selections, _VARIANT_CODES["ub"], 1) == trace
        assert whole == values

    @pytest.mark.parametrize("rules", ["mixed", "all-cu"])
    def test_mixed_rows_match_run_steps_row_by_row(self, rules):
        """Rows under their own variant, cap and padded d step as `_run_steps` steps each alone."""
        rng = np.random.Generator(np.random.PCG64(6))
        m, width, T, n_rows = 7, 4, 300, 15
        variants = np.zeros(n_rows, dtype=np.int64)
        if rules == "mixed":
            variants[:] = np.arange(n_rows) % 3
        caps = np.where(variants == _VARIANT_CODES["cu"], 0, rng.integers(1, 4, n_rows))
        ds = rng.integers(1, width + 1, n_rows)
        sel = _selections(rng.random((T * n_rows, width)), m).reshape(T, n_rows, width)
        sel = sel.transpose(0, 2, 1)  # (T, d, R)
        padded = np.where(np.arange(width)[:, None] >= ds, sel[:, :1], sel)
        values = np.zeros((m, n_rows), dtype=np.int64)
        gaps = np.array(list(_run_rows(values, padded, variants, caps)))  # (T, R)
        for i in range(n_rows):
            alone = [0] * m
            trace = _run_steps(alone, sel[:, : ds[i], i].tolist(), int(variants[i]), int(caps[i]))
            assert values[:, i].tolist() == alone
            assert gaps[:, i].tolist() == trace


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

    @pytest.mark.parametrize(
        "m,d", [(2, 1), (3, 2), (5, 5), (8, 3), (10, 9), (50, 4), (300, 5), (64, 32), (200, 64)]
    )
    def test_trace_back_equals_the_pool_decode(self, m, d):
        u = substream(9, m).random((2000, d))
        u[0] = 0.0
        u[1] = 1.0 - 2.0**-53  # u (m - j) rounds up to m - j: the clip picks the last entry
        u[2, ::2] = 1.0 - 2.0**-53
        expected = pool_selections(u, m)
        decoded = _selections(u, m)
        assert decoded.dtype == expected.dtype
        assert np.array_equal(decoded, expected)
        cube = _selections(u.reshape(4, 500, d), m)
        assert cube.shape == (4, 500, d) and cube.dtype == expected.dtype
        assert np.array_equal(cube.reshape(-1, d), expected)

    def test_chunked_decode_equals_one_shot(self, monkeypatch):
        m, d, T, runs = 7, 3, 101, 23
        [whole] = _draws(4, range(runs), T, m, d)  # every run in one group
        u = np.stack([substream(4, r).random((T, d)) for r in range(runs)])  # (R, T, d)
        expected = pool_selections(u.reshape(-1, d), m).reshape(runs, T, d).transpose(1, 2, 0)
        assert whole.dtype == expected.dtype and np.array_equal(whole, expected)
        monkeypatch.setattr(cusketch.simulate, "_DRAW_CELLS", 2 * T * d)  # 2 runs a group
        [chunked] = _draws(4, range(runs), T, m, d)
        assert chunked.dtype == whole.dtype and np.array_equal(chunked, whole)

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

    @pytest.mark.parametrize(
        "runs", [1, _MIN_BATCH_RUNS - 1, _MIN_BATCH_RUNS, 71, _BATCH_RUNS + 7])
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

    def test_memory_holds_one_block_of_runs(self):
        # One block of 512 runs holds its (T, d, runs) uint8 selections, its
        # counters and its generators: about 2.0 MiB at the peak. A (runs, T)
        # int64 gap trace would add 1 MB for one block, 4 MB for all runs.
        tracemalloc.start()
        try:
            estimate_error(SimConfig(m=50, d=4, T=250, runs=2000, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    @pytest.mark.parametrize("top", [5, 6])
    def test_numerators_match_python_ints_on_both_sides_of_the_guard(self, top):
        # C(64, 32) = 1.83e18: counters up to 5 keep 5 C(64, 32) < 2^63 and
        # are summed in int64; 6 C(64, 32) > 2^63 goes to Python ints, where
        # an int64 sum would wrap
        m, d = 64, 32
        rng = np.random.Generator(np.random.PCG64(top))
        ordered = np.sort(rng.integers(0, top + 1, (m, 40)), axis=0)
        ordered[-1] = top
        assert (top * math.comb(m, d) < 2**63) == (top == 5)
        expected = [_expected_min_numerator(column, d) for column in ordered.T.tolist()]
        assert _numerators(ordered, d) == expected
        if top == 6:
            weights = np.array(cusketch.simulate._order_weights(m, d), dtype=np.int64)
            wrapped = (weights @ np.full((m - d + 1, 1), top)).tolist()  # int64 wraps
            assert wrapped != [_expected_min_numerator([top] * m, d)]

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


def _chain_snapshots(m, d, g, T, seed):
    """The (5, T, m) counters of LB(g), LB(g+1), CU, UB(g+1), UB(g) after each step,
    replayed one `_run_steps` call a step."""
    selections = _selections(substream(seed, 0).random((T, d)), m).tolist()
    chains = [("lb", g), ("lb", g + 1), ("cu", 0), ("ub", g + 1), ("ub", g)]
    snapshots = np.empty((len(chains), T, m), dtype=np.int64)
    for (variant, cap), snaps in zip(chains, snapshots):
        values = [0] * m
        for sel, snap in zip(selections, snaps):
            _run_steps(values, [sel], _VARIANT_CODES[variant], cap)
            snap[:] = values
    return snapshots


def _sandwich_reference(m, d, g, T, seed, faults=()):
    """First violation over the whole horizon, every chain's (T, m) snapshots held at once.

    A fault (chain, index, step, shift) adds shift to that chain's counter
    at index from that step on; a fault past T never shows.
    """
    snapshots = _chain_snapshots(m, d, g, T, seed)
    for chain, index, step, shift in faults:
        snapshots[chain, step - 1 :, index] += shift
    bad = snapshots[:-1] > snapshots[1:]
    steps = np.flatnonzero(bad.any(axis=(0, 2)))
    if not len(steps):
        return None
    t = int(steps[0])
    return t + 1, int(np.flatnonzero(bad[:, t])[0]) % m


def _inject_faults(monkeypatch, faults):
    """Make the sandwich comparisons of each case in `faults` see its faults.

    `faults` maps a case to (chain, index, step, shift) tuples, as
    `_sandwich_reference` takes them. The shifts are added to the chunk's
    counters just before each step's gaps are yielded to the comparison and
    taken off when the next step is asked for, so the stepping is unchanged;
    column chain * n + c holds that chain of case c.
    """
    chunk, done = [], [0]  # the cases of the chunk being stepped, its steps so far
    sandwich_chunk = cusketch.simulate._sandwich_chunk
    run_rows = cusketch.simulate._run_rows

    def chunk_spy(cases):
        chunk[:], done[0] = cases, 0
        return sandwich_chunk(cases)

    def rows_spy(values, sel, variant, g):
        n = len(chunk)
        for t, gaps in enumerate(run_rows(values, sel, variant, g)):
            step = done[0] + t + 1
            shifts = [
                (chain * n + c, index, shift)
                for c, case in enumerate(chunk)
                for chain, index, start, shift in faults.get(case, ())
                if step >= start
            ]
            for column, index, shift in shifts:
                values[index, column] += shift
            yield gaps
            for column, index, shift in shifts:
                values[index, column] -= shift
        done[0] += len(sel)

    monkeypatch.setattr(cusketch.simulate, "_sandwich_chunk", chunk_spy)
    monkeypatch.setattr(cusketch.simulate, "_run_rows", rows_spy)


def _record_counters(monkeypatch):
    """A list that receives a copy of the (m, R) counters after every `_run_rows` step."""
    snapshots = []
    run_rows = cusketch.simulate._run_rows

    def rows_spy(values, sel, variant, g):
        for gaps in run_rows(values, sel, variant, g):
            snapshots.append(values.copy())
            yield gaps

    monkeypatch.setattr(cusketch.simulate, "_run_rows", rows_spy)
    return snapshots


_sandwich_cases = st.integers(2, 8).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.integers(1, m),
        st.integers(1, 3),
        st.integers(1, 40) | st.integers(_BLOCK_STEPS - 2, _BLOCK_STEPS + 20),
        st.integers(0, 2**64 - 1),
    )
)


class TestSandwich:
    def test_ordering_holds_on_seeded_traces(self):
        for seed in range(10):
            report = sandwich_trace(m=6, d=2, g=2, T=80, seed=seed)
            assert report.ok and report.first_violation is None

    @pytest.mark.parametrize("g,T", [(0, 10), (1, 0), (1, -5)])
    def test_invalid_cap(self, g, T):
        with pytest.raises(ConfigurationError):
            sandwich_trace(m=4, d=2, g=g, T=T, seed=0)

    def test_bad_case_refused_before_any_step(self, monkeypatch):
        def stepper(*args):
            raise AssertionError("stepped a batch holding a bad case")

        monkeypatch.setattr(cusketch.simulate, "_run_rows", stepper)
        for bad in [(4, 5, 1, 10, 0), (4, 2, 1, 10, -1), (3, 2, 1, 10, 2**64)]:
            with pytest.raises(ConfigurationError):
                sandwich_traces([(4, 2, 1, 10, 0), bad])

    @pytest.mark.parametrize("ub_fault,expected", [(True, (4, 0)), (False, (7, 4))])
    def test_first_violation_is_earliest_step_then_chain_order(
        self, monkeypatch, ub_fault, expected
    ):
        case = (6, 2, 2, 20, 1)
        faults = [
            (2, 2, 7, 100),  # CU above UB(3) at counter 2 from step 7
            (0, 4, 7, 100),  # LB(2) above LB(3) at counter 4 from step 7: the first pair
        ]
        if ub_fault:
            faults.append((4, 0, 4, -100))  # UB(3) above UB(2) at counter 0 from step 4
        _inject_faults(monkeypatch, {case: faults})
        report = sandwich_trace(*case)
        assert not report.ok
        assert report.first_violation == expected == _sandwich_reference(*case, faults)

    @pytest.mark.parametrize("m,d,g,seed", [(6, 2, 2, 0), (9, 4, 1, 3), (5, 5, 3, 7)])
    def test_blocked_trace_matches_whole_horizon(self, m, d, g, seed):
        T = 2 * _BLOCK_STEPS + 17
        report = sandwich_trace(m, d, g, T, seed)
        assert report.ok and _sandwich_reference(m, d, g, T, seed) is None

    @pytest.mark.parametrize(
        "fault", [3, _BLOCK_STEPS, _BLOCK_STEPS + 1, _BLOCK_STEPS + 6, 2 * _BLOCK_STEPS + 17]
    )
    def test_fault_in_any_block_reports_the_global_step(self, monkeypatch, fault):
        case = (6, 2, 2, 2 * _BLOCK_STEPS + 17, 1)
        faults = [(2, 4, fault, 10**6)]  # CU above UB(3) at counter 4 from the fault on
        _inject_faults(monkeypatch, {case: faults})
        report = sandwich_trace(*case)
        assert report.first_violation == (fault, 4) == _sandwich_reference(*case, faults)

    @pytest.mark.parametrize("fault", [5, _BLOCK_STEPS, _BLOCK_STEPS + 1])
    def test_fault_in_one_case_leaves_the_others_alone(self, monkeypatch, fault):
        T = _BLOCK_STEPS + 9
        cases = [(6, 2, 2, T, 0), (6, 6, 2, T, 1), (6, 3, 2, 40, 2), (6, 1, 2, T, 3)]
        _inject_faults(monkeypatch, {
            cases[1]: [(2, 4, fault, 10**6)],  # CU above UB(3) at counter 4
            cases[2]: [(2, 4, 41, 10**6)],  # the same, stepped but past the case's T
        })
        reports = sandwich_traces(cases)
        assert [r.first_violation for r in reports] == [None, (fault, 4), None, None]

    def test_narrow_case_steps_as_it_would_alone(self, monkeypatch):
        narrow, wide = (6, 2, 2, 30, 1), (6, 5, 1, 20, 2)
        snapshots = _record_counters(monkeypatch)
        assert all(sandwich_traces([narrow, wide]))
        # (step, counter, chain, case) to (step, chain, case, counter)
        batch = np.array(snapshots).reshape(30, 6, 5, 2).transpose(0, 2, 3, 1)
        for c, (m, d, g, T, seed) in enumerate([narrow, wide]):
            alone = _chain_snapshots(m, d, g, T, seed).transpose(1, 0, 2)  # (step, chain, counter)
            assert np.array_equal(batch[:T, :, c], alone)
        snapshots.clear()
        assert sandwich_trace(*narrow)
        assert np.array_equal(np.array(snapshots).transpose(0, 2, 1), batch[:, :, 0])

    @settings(max_examples=25, deadline=None)
    @given(cases=st.lists(_sandwich_cases, min_size=1, max_size=8), data=st.data())
    def test_mixed_batches_match_the_per_case_reference(self, cases, data):
        faults = {}
        for m, d, g, T, seed in cases:
            fault = st.tuples(
                st.integers(0, 4), st.integers(0, m - 1), st.integers(1, T + 3),
                st.sampled_from([-(10**6), 10**6]),
            )
            faults[(m, d, g, T, seed)] = data.draw(st.lists(fault, max_size=2))
        with pytest.MonkeyPatch.context() as monkeypatch:
            _inject_faults(monkeypatch, faults)
            reports = sandwich_traces(cases)
        assert [r.first_violation for r in reports] == [
            _sandwich_reference(*case, faults[case]) for case in cases
        ]
        assert [r.ok for r in reports] == [r.first_violation is None for r in reports]

    def test_chunks_hold_at_most_the_cell_budget(self, monkeypatch):
        cases = [(6, 3, 1, 50, seed) for seed in range(10)] + [(7, 2, 2, 9, 0)]
        whole = sandwich_traces(cases)
        chunks = []
        sandwich_chunk = cusketch.simulate._sandwich_chunk

        def spy(chunk):
            chunks.append(chunk)
            return sandwich_chunk(chunk)

        monkeypatch.setattr(cusketch.simulate, "_sandwich_chunk", spy)
        monkeypatch.setattr(cusketch.simulate, "_DECODE_CELLS", 5 * 50 * 3 * 4)  # 4 cases
        assert sandwich_traces(cases) == whole
        assert chunks == [cases[0:3], cases[3:6], cases[6:10], cases[10:]]

    def test_memory_holds_one_block_of_snapshots(self):
        # the five chains' (T, m) int64 counters over the whole horizon would
        # take 38 MB here; one block of steps is drawn and stepped at a time
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


def _depth_first_reference(m, d, T):
    """The exact expected error by walking every selection sequence depth first."""
    steps = [(s,) for s in itertools.combinations(range(m), d)]

    def numerators(values, steps_left):
        if steps_left == 0:
            return cusketch.simulate._expected_min_numerator(values, d)
        total = 0
        for step in steps:
            child = values.copy()
            _run_steps(child, step, cusketch.simulate._CU, 0)
            total += numerators(child, steps_left - 1)
        return total

    return Fraction(numerators([0] * m, T), len(steps) ** (T + 1))


def _small_oracle_cases():
    """Every (m, d, T) with m <= 5 and C(m, d)^T <= 2 * 10^4, and T <= 6 for d = m."""
    for m in range(2, 6):
        for d in range(1, m + 1):
            for T in range(1, 15):  # 2^15 sequences are over the limit
                if math.comb(m, d) ** T <= 2 * 10**4 and (d < m or T <= 6):
                    yield m, d, T


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

    def test_matches_depth_first_walk_of_every_sequence(self):
        cases = list(_small_oracle_cases())
        assert len(cases) == 95
        for m, d, T in cases:
            exact = brute_force_expected_error(m, d, T).exact_expected_error
            assert exact == _depth_first_reference(m, d, T), (m, d, T)

    def test_full_selection_over_a_long_horizon(self):
        # d = m: every step lifts every counter, one state and one subset
        assert brute_force_expected_error(3, 3, 1000).per_step == 1

    def test_guard_on_huge_enumerations(self, monkeypatch):
        def stepper(*args):
            raise AssertionError("stepped a walk the guard refuses up front")

        monkeypatch.setattr(cusketch.simulate, "_run_steps", stepper)
        # T * C(20, 10) = 1,108,536 stepped states, at least one per step
        for variant, g in (("cu", None), ("lb", 1), ("ub", 1)):
            with pytest.raises(ConfigurationError, match="guard"):
                exact_errors(20, 10, 6, variant, g)

    def test_guard_refuses_mid_walk(self, monkeypatch):
        calls = []
        real = cusketch.simulate._run_steps

        def stepper(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cusketch.simulate, "_run_steps", stepper)
        monkeypatch.setattr(cusketch.simulate, "ORACLE_LEAF_GUARD", 100)
        # 20 * C(3, 2) = 60 is within the budget, the distinct states are
        # not: under CU the gap grows, and at g = 1 the walk's two offset
        # tuples are counted again at every step
        for variant, g in (("cu", None), ("lb", 1), ("ub", 1)):
            calls.clear()
            with pytest.raises(ConfigurationError, match="guard"):
                exact_errors(3, 2, 20, variant, g)
            assert 0 < len(calls) <= 100

    def test_monte_carlo_agrees_with_oracle(self):
        exact = brute_force_expected_error(4, 2, 3)
        config = SimConfig(m=4, d=2, T=3, runs=4000, seed=31)
        stats = estimate_error(config)
        mc = stats.mean_error_rate * config.T  # undo the per-step scaling
        stderr = stats.stderr_error_rate * config.T
        assert abs(mc - exact.value) < 4 * stderr
