import collections
import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cusketch.bounds
import cusketch.cli
from cusketch.bounds import ChainValue, chain_values
from cusketch.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from cusketch.errors import InternalConsistencyError

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBounds:
    def test_json_record_and_values(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--m", "3", "--d", "2", "--g", "1", "--t", "2")
        assert rc == EXIT_OK
        record = json.loads(out)
        assert record["command"] == "bounds"
        assert record["parameters"]["m"] == 3
        assert float(record["results"]["lower"]) == pytest.approx(7 / 18, abs=1e-12)
        assert float(record["results"]["upper"]) == pytest.approx(5 / 9, abs=1e-12)
        # floats are rendered as full-precision strings, not JSON numbers
        assert isinstance(record["results"]["lower"], str)
        assert float(record["wall_time_s"]) >= 0

    def test_csv_format(self, capsys):
        rc, out, _ = run(
            capsys, "bounds", "--m", "3", "--d", "2", "--g", "1", "--t", "2",
            "--format", "csv",
        )
        assert rc == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert {"results.lower", "results.upper", "parameters.m"} <= keys

    def test_single_variant(self, capsys):
        rc, out, _ = run(
            capsys, "bounds", "--m", "3", "--d", "2", "--g", "1", "--t", "2",
            "--variant", "lb",
        )
        record = json.loads(out)
        assert "lower" in record["results"] and "upper" not in record["results"]

    def test_kernel_dump(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        rc, out, _ = run(
            capsys, "bounds", "--m", "4", "--d", "2", "--g", "2", "--t", "3",
            "--dump-kernel", str(path),
        )
        assert rc == EXIT_OK
        record = json.loads(out)
        for variant in ("lb", "ub"):
            dumped = json.loads(Path(record["results"][f"{variant}_kernel_dump"]).read_text())
            assert dumped["variant"] == variant and dumped["m"] == 4

    @pytest.mark.parametrize("variant", ["lb", "ub"])
    def test_kernel_dump_matches_recorded_copy(self, capsys, tmp_path, variant):
        path = tmp_path / "k.json"
        rc, _, _ = run(
            capsys, "bounds", "--m", "6", "--d", "3", "--g", "2", "--t", "5",
            "--variant", variant, "--dump-kernel", str(path),
        )
        assert rc == EXIT_OK
        assert path.read_bytes() == (DATA / f"kernel_6_3_2.{variant}.json").read_bytes()

    def test_unwritable_kernel_dump_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "k.json"
        rc, out, err = run(
            capsys, "bounds", "--m", "6", "--d", "2", "--g", "2", "--t", "5",
            "--variant", "lb", "--dump-kernel", str(path),
        )
        assert rc == EXIT_USAGE and out == ""
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err

    def test_failed_kernel_dump_leaves_the_path_as_it_was(self, capsys, monkeypatch, tmp_path):
        def full_disk(space, variant, fh):
            fh.write('{"m": 6, "d"')
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cusketch.cli, "dump_kernel", full_disk)
        path = tmp_path / "k.json"
        path.write_bytes(b"earlier dump")
        rc, out, err = run(
            capsys, "bounds", "--m", "6", "--d", "3", "--g", "2", "--t", "5",
            "--variant", "lb", "--dump-kernel", str(path),
        )
        assert rc == EXIT_USAGE and out == ""
        assert str(path) in err and os.strerror(errno.ENOSPC) in err
        assert path.read_bytes() == b"earlier dump"
        assert list(tmp_path.iterdir()) == [path]

    def test_kernel_dump_enumerates_the_states_once(self, capsys, monkeypatch, tmp_path):
        spaces = []
        enumerate_states = cusketch.bounds.enumerate_states

        def spy(*args):
            spaces.append(args)
            return enumerate_states(*args)

        monkeypatch.setattr(cusketch.bounds, "enumerate_states", spy)
        monkeypatch.setattr(cusketch.cli, "enumerate_states", spy)
        path = tmp_path / "k.json"
        rc, _, _ = run(
            capsys, "bounds", "--m", "6", "--d", "3", "--g", "2", "--t", "5",
            "--dump-kernel", str(path),
        )
        assert rc == EXIT_OK and spaces == [(6, 3, 2)]
        for variant in ("lb", "ub"):
            dumped = (tmp_path / f"k.{variant}.json").read_bytes()
            assert dumped == (DATA / f"kernel_6_3_2.{variant}.json").read_bytes()

    def test_zero_horizon_is_usage_error_before_enumerating(self, capsys, monkeypatch):
        def enumerate_states(*args):
            raise AssertionError("enumerated a state space for T = 0")

        monkeypatch.setattr(cusketch.bounds, "enumerate_states", enumerate_states)
        rc, out, err = run(
            capsys, "bounds", "--m", "50", "--d", "4", "--g", "5", "--t", "0", "--variant", "lb"
        )
        assert rc == EXIT_USAGE
        assert out == "" and "T must be >= 1" in err

    @pytest.mark.parametrize("command", ["bounds", "asymptotic"])
    def test_oversized_chain_is_usage_error_without_allocating(
        self, capsys, monkeypatch, command
    ):
        import cusketch.cli as cli_mod

        def enumerate_states(*args):
            raise AssertionError("enumerated a state space past the size guard")

        monkeypatch.setattr(cli_mod, "enumerate_states", enumerate_states)
        monkeypatch.setattr(cusketch.bounds, "enumerate_states", enumerate_states)
        argv = [command, "--m", "50", "--d", "4", "--g", "6"]
        rc, out, err = run(capsys, *argv, *(["--t", "10"] if command == "bounds" else []))
        assert rc == EXIT_USAGE
        assert out == "" and "guard" in err


    def test_one_kernel_alive_at_a_time(self, capsys, kernel_refs):
        rc, _, _ = run(capsys, "bounds", "--m", "6", "--d", "2", "--g", "2", "--t", "5")
        assert rc == EXIT_OK
        assert len(kernel_refs) == 1  # UB's kernel is a re-targeted copy of LB's
        assert all(ref() is None for ref in kernel_refs)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--m", "6", "--d", "2", "--g", "2", "--t", "5"],
        ["asymptotic", "--m", "6", "--d", "2", "--g", "2"],
    ])
    def test_state_space_enumerated_once(self, capsys, monkeypatch, argv):
        import cusketch.cli as cli_mod

        calls = []
        real = cusketch.bounds.enumerate_states

        def enumerate_states(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli_mod, "enumerate_states", enumerate_states)
        monkeypatch.setattr(cusketch.bounds, "enumerate_states", enumerate_states)
        rc, _, _ = run(capsys, *argv)
        assert rc == EXIT_OK
        assert calls == [(6, 2, 2)]


class TestAsymptotic:
    def test_two_state_limits(self, capsys):
        rc, out, _ = run(capsys, "asymptotic", "--m", "3", "--d", "2", "--g", "1")
        assert rc == EXIT_OK
        record = json.loads(out)
        assert float(record["results"]["lower"]) == pytest.approx(0.4, abs=1e-10)
        assert float(record["results"]["upper"]) == pytest.approx(0.6, abs=1e-10)

    def test_non_convergence_exit_code(self, capsys):
        # no interval is 1e-300 wide: its rounding slack alone is wider
        rc, _, err = run(
            capsys, "asymptotic", "--m", "6", "--d", "2", "--g", "2", "--tol", "1e-300"
        )
        assert rc == EXIT_NO_CONVERGENCE
        # the message states the width, and nothing appends it again
        pattern = r"is (\S+) wide > tol 1.0e-300 after renewal-preconditioned BiCGSTAB\n"
        [width] = re.findall(pattern, err)
        assert err.count(width) == 1

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "m, d, g", [(400, 2, 2), (1000, 2, 2), (150, 5, 3), (180, 3, 3), (200, 2, 3)]
    )
    def test_large_wide_lb_chains_certify(self, capsys, m, d, g):
        # LB chains of 79,800 to 1,333,300 states that plain BiCGSTAB leaves
        # wide, whose incomplete LU factors take 25 s to 20 minutes; the one
        # preconditioned solve certifies each at tol 1e-12 within 10 s
        start = time.perf_counter()
        rc, out, err = run(
            capsys, "asymptotic", "--m", str(m), "--d", str(d), "--g", str(g), "--variant", "lb"
        )
        assert rc == EXIT_OK, err
        assert time.perf_counter() - start <= 10
        assert json.loads(out)["results"]["tol"] == "9.9999999999999998e-13"

    def test_internal_consistency_error_exit_code(self, capsys, monkeypatch):
        def long_run_value(kernel, tol):
            raise InternalConsistencyError("injected long-run fault")

        monkeypatch.setattr(cusketch.bounds, "_long_run_value", long_run_value)
        rc, out, err = run(capsys, "asymptotic", "--m", "5", "--d", "2", "--g", "2")
        assert rc == EXIT_VERIFY_FAILED
        assert out == "" and err == "error: injected long-run fault\n"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_usage_error_before_enumerating(
        self, capsys, monkeypatch, tol
    ):
        def enumerate_states(*args):
            raise AssertionError("enumerated a state space for an invalid tol")

        monkeypatch.setattr(cusketch.bounds, "enumerate_states", enumerate_states)
        rc, out, err = run(
            capsys, "asymptotic", "--m", "5", "--d", "2", "--g", "2", "--tol", tol
        )
        assert rc == EXIT_USAGE
        assert out == "" and "tol must be finite and positive" in err


def _without_wall_time(out: str) -> str:
    """A record's text with its wall time masked (JSON) or its row dropped (CSV)."""
    out = re.sub(r'"wall_time_s": "[^"]*"', '"wall_time_s": "*"', out)
    return re.sub(r"^wall_time_s,.*\n", "", out, flags=re.MULTILINE)


class TestClosedForm:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--m", "3"), "0ebffb66c268cdde5ad8dc48719c14ddebd2d10be203e77afd3510904ad46978"),
            (("--m", "10", "--g", "40"),
             "e8b3daa60a92710bfba9d8f783be26b21f0b8de7a4219f4e2118c89ed254146a"),
            (("--m", "1000000"), "a00751f55d1eb67dee0a462eba5737dccc2b0d6d3e6ce91a824e04bc109b4d4a"),
            (("--m", "3", "--g", "1075"),
             "528a1311ad66bb108d402e74ceddb46b7e8f145736990db1e592e712db72e8bd"),
            (("--m", "10", "--format", "csv"),
             "421435a8f343f900cc2e3412b0068ed75cf53c1273450a103dab45d9ee61f0ed"),
        ],
        ids=["m3", "m10-g40", "m1e6", "m3-g1075", "m10-csv"],
    )
    def test_pinned_record(self, capsys, argv, digest):
        """Every closed-form value, bit for bit, in both formats."""
        rc, out, _ = run(capsys, "closed-form", *argv)
        assert rc == EXIT_OK
        assert hashlib.sha256(_without_wall_time(out).encode()).hexdigest() == digest

    def test_m3(self, capsys):
        rc, out, _ = run(capsys, "closed-form", "--m", "3")
        assert rc == EXIT_OK
        record = json.loads(out)
        assert float(record["results"]["pi"][0]) == pytest.approx(1 / 4)
        assert float(record["results"]["g1_lower"]) == pytest.approx(0.4)
        assert float(record["results"]["g1_upper"]) == pytest.approx(0.6)
        assert float(record["results"]["error_rate"]) == 0.5
        assert float(record["results"]["counter_rate"]) == 0.5
        assert float(record["results"]["gap_tail"]["1"]) == pytest.approx(3 / 4)

    @pytest.mark.parametrize("g", ["0", "-3"])
    def test_g_below_one_rejected(self, capsys, g):
        rc, out, err = run(capsys, "closed-form", "--m", "5", "--g", g)
        assert rc == EXIT_USAGE
        assert out == "" and f"g must be >= 1, got {g}" in err

    def test_largest_g_keeps_the_last_nonzero_tail(self, capsys):
        rc, out, _ = run(capsys, "closed-form", "--m", "3", "--g", "1075")
        assert rc == EXIT_OK
        tail = json.loads(out)["results"]["gap_tail"]
        assert len(tail) == 1075 and tail["1075"] == "4.9406564584124654e-324"

    @pytest.mark.parametrize("g", ["1076", "40000", str(10**9)])
    def test_g_past_the_last_nonzero_tail_rejected(self, capsys, g):
        rc, out, err = run(capsys, "closed-form", "--m", "3", "--g", g)
        assert rc == EXIT_USAGE
        assert out == "" and f"g must be <= 1075, got {g}" in err

    def test_m2_rejected(self, capsys):
        rc, _, err = run(capsys, "closed-form", "--m", "2")
        assert rc == EXIT_USAGE
        assert "error" in err


class TestSimulate:
    def test_deterministic_json(self, capsys):
        argv = ("simulate", "--m", "5", "--d", "2", "--t", "100",
                "--runs", "4", "--seed", "9")
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2 == EXIT_OK
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["results"] == r2["results"]

    def test_pinned_seeded_results(self, capsys):
        """The seeded record `perfbench` pins for simulate-mc: stepping changes must keep it."""
        rc, out, _ = run(
            capsys, "simulate", "--m", "50", "--d", "4", "--t", "250",
            "--runs", "2000", "--seed", "1",
        )
        assert rc == EXIT_OK
        assert json.loads(out)["results"] == {
            "mean_error_rate": "0.035473454346504563",
            "stderr_error_rate": "2.2664812574732031e-05",
            "mean_counter_rate": "0.038449360000000002",
            "gap_histogram": {
                "1": "1", "2": "0.93981400000000004", "3": "0.61154200000000003",
                "4": "0.16331599999999999", "5": "0.025350000000000001", "6": "0.003692",
                "7": "0.00043600000000000003", "8": "3.8000000000000002e-05",
                "9": "0", "10": "0",
            },
        }

    def test_pinned_per_run_csv(self, capsys):
        """Every run's error and counter rate, bit for bit: 600 runs cross a block boundary."""
        rc, out, _ = run(
            capsys, "simulate", "--m", "50", "--d", "4", "--t", "250",
            "--runs", "600", "--seed", "1", "--format", "csv",
        )
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b1f0d707c01bf299fea4cd6b2f027dd585779cb838914a967a60d5ea624a567e"
        )

    def test_csv_per_run_rows(self, capsys):
        rc, out, _ = run(
            capsys, "simulate", "--m", "5", "--d", "2", "--t", "50",
            "--runs", "3", "--seed", "1", "--format", "csv",
        )
        assert rc == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "run,error,counter_rate"
        assert lines[4] == "g,fraction"
        for i, line in enumerate(lines[1:4]):
            index, error, rate = line.split(",")
            assert int(index) == i and float(error) >= 0.0 and float(rate) > 0.0

    def test_cap_without_capped_variant_is_usage_error(self, capsys):
        rc, out, err = run(
            capsys, "simulate", "--m", "6", "--d", "2", "--t", "5",
            "--runs", "2", "--seed", "1", "--cap", "3",
        )
        assert rc == EXIT_USAGE
        assert out == "" and "lb/ub" in err

    def test_negative_seed_is_usage_error(self, capsys):
        rc, out, err = run(
            capsys, "simulate", "--m", "5", "--d", "2", "--t", "10",
            "--runs", "3", "--seed", "-1",
        )
        assert rc == EXIT_USAGE
        assert out == "" and err.startswith("error:") and "seed" in err and "-1" in err

    def test_capped_variant_needs_cap(self, capsys):
        rc, _, err = run(
            capsys, "simulate", "--m", "5", "--d", "2", "--t", "50",
            "--runs", "2", "--seed", "1", "--variant", "lb",
        )
        assert rc == EXIT_USAGE


class TestOracle:
    def test_exact_rational_echoed(self, capsys):
        rc, out, _ = run(capsys, "oracle", "--m", "3", "--d", "2", "--t", "2")
        assert rc == EXIT_OK
        record = json.loads(out)
        assert record["results"]["expected_error_exact"] == "8/9"
        assert float(record["results"]["expected_error_per_step"]) == pytest.approx(4 / 9)

    def test_size_guard_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "oracle", "--m", "20", "--d", "10", "--t", "6")
        assert rc == EXIT_USAGE
        assert "guard" in err

    def test_full_selection_over_a_long_horizon(self, capsys):
        rc, out, _ = run(capsys, "oracle", "--m", "3", "--d", "3", "--t", "1000")
        assert rc == EXIT_OK
        assert json.loads(out)["results"]["expected_error_per_step"] == "1"

    @pytest.mark.parametrize("t", ["100000000", "9013"])
    def test_long_horizon_refused_in_one_short_line(self, capsys, t):
        started = time.perf_counter()
        rc, out, err = run(capsys, "oracle", "--m", "3", "--d", "2", "--t", t)
        seconds = time.perf_counter() - started
        assert rc == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "guard" in err and len(err) < 200
        if t == "100000000":
            assert seconds < 1.0  # refused before stepping, no power of C(3, 2) formed


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        rc, _, err = run(capsys, "bounds", "--m", "3", "--d", "2", "--t", "2")
        assert rc == EXIT_USAGE

    def test_invalid_g(self, capsys):
        rc, _, _ = run(capsys, "bounds", "--m", "3", "--d", "2", "--g", "0", "--t", "2")
        assert rc == EXIT_USAGE

    def test_d_larger_than_m(self, capsys):
        rc, _, _ = run(capsys, "bounds", "--m", "3", "--d", "4", "--g", "1", "--t", "2")
        assert rc == EXIT_USAGE

    def test_table1_gmax_range(self, capsys):
        rc, _, err = run(capsys, "table1", "--gmax", "6")
        assert rc == EXIT_USAGE
        assert "gmax" in err


class TestTable1:
    def test_g1_row(self, capsys):
        rc, out, err = run(capsys, "table1", "--gmax", "1")
        assert rc == EXIT_OK
        record = json.loads(out)
        row = record["results"]["rows"][0]
        assert row["g"] == 1
        assert float(row["lower"]) < float(row["upper"])

    def test_warning_for_large_gmax_precedes_work(self, capsys, monkeypatch):
        import cusketch.cli as cli_mod

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "chain_values", boom)
        with pytest.raises(KeyboardInterrupt):
            run(capsys, "table1", "--gmax", "4")
        _, err = capsys.readouterr()
        assert "warning" in err

    def test_row_line_gives_the_row_wall_time(self, capsys, monkeypatch):
        import cusketch.cli as cli_mod

        # the row line times the row itself, not the sum of the chains' seconds
        chains = {"lb": ChainValue(0.25, 7, 100.0), "ub": ChainValue(0.5, 7, 100.0)}
        monkeypatch.setattr(cli_mod, "chain_values", lambda *args: chains)
        rc, out, err = run(capsys, "table1", "--gmax", "1")
        assert rc == EXIT_OK
        assert "g=1  lower=0.25000  upper=0.50000  (0.00 s)" in err
        row = json.loads(out)["results"]["rows"][0]
        assert float(row["lower_seconds"]) == float(row["upper_seconds"]) == 100.0

    @pytest.mark.parametrize(
        "rows",
        [
            [(0.5, 0.25)],  # LB above UB
            [(0.25, 0.5), (0.2, 0.4)],  # LB falls as g grows
            [(0.25, 0.5), (0.3, 0.6)],  # UB rises as g grows
        ],
    )
    def test_rows_that_do_not_nest_exit_3(self, capsys, monkeypatch, rows):
        import cusketch.cli as cli_mod

        def chain_values(m, d, g, T):
            lower, upper = rows[g - 1]
            return {"lb": ChainValue(lower, 7, 0.0), "ub": ChainValue(upper, 7, 0.0)}

        monkeypatch.setattr(cli_mod, "chain_values", chain_values)
        rc, out, err = run(capsys, "table1", "--gmax", str(len(rows)))
        assert rc == EXIT_VERIFY_FAILED
        assert out == ""
        assert err.splitlines()[-1].startswith(f"error: the g={len(rows)} bounds")

    def test_rows_are_the_chain_values(self, capsys):
        rc, out, _ = run(capsys, "table1", "--gmax", "2")
        assert rc == EXIT_OK
        rows = json.loads(out)["results"]["rows"]
        assert [row["g"] for row in rows] == [1, 2]
        for row in rows:
            chains = chain_values(50, 4, row["g"], 250)
            for variant, key in (("lb", "lower"), ("ub", "upper")):
                assert row[key] == format(chains[variant].value, ".17g")
                assert float(row[f"{key}_seconds"]) >= 0


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--level", "quick")
        assert rc == EXIT_OK
        assert "FAIL" not in out
        assert "verify quick: 0 failure(s)" in out

    def test_sandwich_check_steps_each_chunk_in_one_pass(self, monkeypatch):
        import cusketch.simulate as sim

        def run_steps(*args):
            raise AssertionError("stepped a sandwich chain alone")

        chunks, passes = [], []
        sandwich_chunk, run_rows = sim._sandwich_chunk, sim._run_rows

        def chunk_spy(cases):
            chunks.append(cases)
            return sandwich_chunk(cases)

        def rows_spy(values, *args):
            passes.append(values.shape[1])
            return run_rows(values, *args)

        monkeypatch.setattr(sim, "_run_steps", run_steps)
        monkeypatch.setattr(sim, "_sandwich_chunk", chunk_spy)
        monkeypatch.setattr(sim, "_run_rows", rows_spy)
        check = dict(cusketch.cli._verify_checks("full"))["pathwise-sandwich x1000"]
        assert check()
        per_m = collections.Counter(case[0] for chunk in chunks for case in chunk)
        assert sum(per_m.values()) == 1000
        assert len(chunks) == sum(-(-n // sim._BATCH_RUNS) for n in per_m.values())
        assert all(len({case[0] for case in chunk}) == 1 for chunk in chunks)
        assert passes == [5 * len(chunk) for chunk in chunks]  # one pass per chunk

    def test_failure_exit_code(self, capsys, monkeypatch):
        import cusketch.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "_verify_checks", lambda level: iter([("forced", lambda: False)])
        )
        rc, out, _ = run(capsys, "verify")
        assert rc == EXIT_VERIFY_FAILED
        assert "FAIL" in out

    def test_raising_checks_fail_and_the_rest_still_run(self, capsys, monkeypatch):
        import cusketch.cli as cli_mod

        def build_kernel(space, variant):
            raise InternalConsistencyError("injected kernel fault")

        monkeypatch.setattr(cli_mod, "build_kernel", build_kernel)
        # every solve gives up at once, so BiCGSTAB certifies nothing
        monkeypatch.setattr(cusketch.bounds, "MAX_KRYLOV_ITERS", 0)
        rc, out, err = run(capsys, "verify", "--level", "full")
        assert rc == EXIT_VERIFY_FAILED
        lines = out.splitlines()
        assert lines[-4:-1] == [
            "FAIL  kernel-soundness m<=8",
            "FAIL  closed-form-vs-markov m<=20",
            "ok    long-run-rates m=10 d=9",
        ]
        assert all(line.startswith("ok  ") for line in lines[:-4])
        assert lines[-1].startswith("verify full: 2 failure(s)")
        assert "kernel-soundness m<=8: injected kernel fault" in err
        assert "closed-form-vs-markov m<=20: the lb chain's long-run interval is" in err
        assert "after renewal-preconditioned BiCGSTAB" in err

    def test_unretargeted_ub_fails_the_oracle_check_where_the_cap_binds(self, capsys, monkeypatch):
        # UB's chain left as LB's agrees with CU wherever g = T, so only the
        # binding-cap comparison with the exact walk can catch it
        monkeypatch.setattr(cusketch.bounds, "retarget_capped", lambda kernel: None)
        rc, out, err = run(capsys, "verify", "--level", "quick")
        assert rc == EXIT_VERIFY_FAILED
        assert out.splitlines()[:3] == [
            "ok    oracle-equivalence m=3 d=2 T=1",
            "FAIL  oracle-equivalence m=3 d=2 T=2",
            "ok    oracle-equivalence m=4 d=2 T=1",
        ]
        assert "T=2: at g=1 the ub chain gives 0.38888888888888884, the exact walk 0.55" in err


class TestClosedStdout:
    """A reader that closes the pipe early ends the output, not the command."""

    def run_closed(self, monkeypatch, *argv):
        """main(argv) writing to a pipe whose reader has gone.

        sys.stdout is swapped in the test body: pytest's capture replaces it
        again between a fixture's set-up and the test call.
        """
        read_fd, write_fd = os.pipe()
        os.close(read_fd)  # writes now fail with BrokenPipeError
        with open(write_fd, "w", buffering=1) as writer, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", writer)
            return main(list(argv))

    def test_record_command_returns_its_status(self, monkeypatch):
        assert self.run_closed(monkeypatch, "closed-form", "--m", "3") == EXIT_OK

    def test_verify_runs_to_its_own_status(self, monkeypatch):
        import cusketch.cli as cli_mod

        checks = [("first", lambda: True), ("second", lambda: False)]
        monkeypatch.setattr(cli_mod, "_verify_checks", lambda level: iter(checks))
        assert self.run_closed(monkeypatch, "verify") == EXIT_VERIFY_FAILED


# Runs in a fresh interpreter: the test process has already imported
# scipy.sparse.linalg. Each command's output is discarded except the last.
_SOLVER_IMPORT_PROBE = """
import contextlib, io, json, sys
from cusketch.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return main(argv.split()), out.getvalue()

codes = [run(argv)[0] for argv in (
    "table1 --gmax 2",
    "asymptotic --m 50 --d 4 --g 2",
    "simulate --m 5 --d 2 --t 20 --runs 10 --seed 1",
    "verify --level quick",
)]
rc, out = run("asymptotic --m 200 --d 3 --g 1 --variant lb")
loaded = [name for name in ("scipy.sparse", "scipy.sparse.linalg") if name in sys.modules]
lower = json.loads(out)["results"]["lower"]
print(json.dumps({"codes": codes + [rc], "loaded": loaded, "lower": lower}))
"""


def test_solver_stack_never_loads():
    src = str(Path(cusketch.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SOLVER_IMPORT_PROBE], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [EXIT_OK] * 5
    # the CSR routines come without `scipy.sparse`, and every long-run value
    # comes from the package's own BiCGSTAB, the (200, 3, 1) LB chain's too,
    # which plain BiCGSTAB leaves 2.2e-3 wide
    assert report["loaded"] == []
    assert report["lower"] == "0.0025625508887314012"
