import errno
import json
import os
import sys
import time
from pathlib import Path

import pytest

import cusketch.bounds
import cusketch.cli
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
        assert len(kernel_refs) == 2
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

    def test_non_convergence_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cusketch.bounds, "MAX_POWER_ITERS", 3)
        rc, _, err = run(
            capsys, "asymptotic", "--m", "6", "--d", "2", "--g", "2", "--tol", "1e-300"
        )
        assert rc == EXIT_NO_CONVERGENCE
        assert "residual" in err


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


class TestClosedForm:
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

        def boom(**kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "compute_bounds", boom)
        with pytest.raises(KeyboardInterrupt):
            run(capsys, "table1", "--gmax", "4")
        _, err = capsys.readouterr()
        assert "warning" in err


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--level", "quick")
        assert rc == EXIT_OK
        assert "FAIL" not in out
        assert "verify quick: 0 failure(s)" in out

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
        monkeypatch.setattr(cusketch.bounds, "MAX_POWER_ITERS", 0)  # every solve gives up
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
        assert "closed-form-vs-markov m<=20: power iteration residual" in err


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
