import csv
import io
import json
import math
import os

import jsonschema
import pytest

import spinqpe.cli as cli
import spinqpe.extraction as extraction
import spinqpe.qpe as qpe
from spinqpe import RUN_RECORD_SCHEMA, TOOL_VERSION
from spinqpe.cli import main

PI = math.pi
C2 = math.cos(PI / 12) ** 2
S2 = math.sin(PI / 12) ** 2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_record(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    record = json.loads(out)
    jsonschema.validate(record, RUN_RECORD_SCHEMA)
    return record


def entries_by_bits(record, which):
    return {e["bits"]: e["probability"]
            for e in record["histograms"][which]["entries"]}


class TestAnalytic:
    def test_pi_third_point(self, capsys):
        record = run_record(capsys, "analytic", "--eta", "pi/3", "--delta", "pi/3")
        analytic = record["analytic"]
        assert analytic["C2"] == pytest.approx(0.9330, abs=1e-4)
        assert analytic["half_absA2"] == pytest.approx(0.7165, abs=1e-4)
        assert analytic["theta"] == pytest.approx(-0.3217505543966422, abs=1e-10)
        assert analytic["theta_arctan"] == pytest.approx(analytic["theta"], abs=1e-10)
        assert record["estimates"]["C"] is None
        assert record["version"] == TOOL_VERSION

    def test_zero_eta(self, capsys):
        record = run_record(capsys, "analytic", "--eta", "0", "--delta", "pi/2")
        assert record["analytic"]["theta"] == pytest.approx(0.0, abs=1e-15)

    def test_zero_delta(self, capsys):
        record = run_record(capsys, "analytic", "--eta", "pi/3", "--delta", "0")
        assert record["analytic"]["theta"] == pytest.approx(0.0, abs=1e-15)
        assert record["analytic"]["absA"] == pytest.approx(1.0, abs=1e-12)


class TestQpev:
    def test_exact_default_configuration(self, capsys):
        record = run_record(capsys, "qpev", "--eta", "pi/3", "--aux", "pi/4",
                            "--n", "10", "--exact")
        bins = entries_by_bits(record, "qpev")
        assert set(bins) == {"0.1111000000", "0.0001000000"}
        assert bins["0.1111000000"] == pytest.approx(0.9330, abs=1e-4)
        assert bins["0.0001000000"] == pytest.approx(0.0670, abs=1e-4)
        assert record["estimates"]["C"] == pytest.approx(math.cos(PI / 12), abs=1e-10)
        assert record["config"]["mode"] == "exact"
        assert record["histograms"]["qpeh"] is None

    def test_sampled_within_three_sigma(self, capsys):
        record = run_record(capsys, "qpev", "--eta", "pi/3", "--aux", "pi/4",
                            "--n", "10", "--shots", "10000", "--seed", "7")
        bins = entries_by_bits(record, "qpev")
        sigma = math.sqrt(C2 * (1 - C2) / 10000)
        assert abs(bins["0.1111000000"] - C2) <= 3 * sigma
        assert record["config"]["shots"] == 10000
        assert record["config"]["seed"] == 7
        assert record["histograms"]["qpev"]["mode"] == "sampled"

    def test_zero_eta_splits_evenly(self, capsys):
        record = run_record(capsys, "qpev", "--eta", "0", "--aux", "pi/4", "--exact")
        bins = entries_by_bits(record, "qpev")
        assert bins["0.1111000000"] == pytest.approx(0.5, abs=1e-10)
        assert bins["0.0001000000"] == pytest.approx(0.5, abs=1e-10)

    def test_non_dyadic_refused_without_flag(self, capsys):
        code, out, err = run(capsys, "qpev", "--eta", "pi/3", "--aux", "1.0")
        assert code == 3
        error = json.loads(err)["error"]
        assert error["exit_code"] == 3
        assert "allow-leakage" in error["message"]

    def test_non_dyadic_allowed_with_flag(self, capsys):
        record = run_record(capsys, "qpev", "--eta", "pi/3", "--aux", "1.0",
                            "--n", "6", "--allow-leakage")
        decoded = record["decoded"]["qpev"]
        assert decoded["window"] == 2
        assert not decoded["dyadic_exact"]
        assert 0.90 <= decoded["coverage"] < 1.0


class TestQpeh:
    def test_exact_default_configuration(self, capsys):
        record = run_record(capsys, "qpeh", "--eta", "pi/3", "--delta", "pi/3",
                            "--aux", "pi/4", "--n", "10", "--exact")
        bins = entries_by_bits(record, "qpeh")
        assert bins["0.1111000000"] == pytest.approx(0.71650, abs=1e-4)
        assert bins["0.0001000000"] == pytest.approx(0.28350, abs=1e-4)
        assert record["estimates"]["absA"] == pytest.approx(
            math.sqrt(2 * 0.7165063509461096), abs=1e-9)

    def test_sampled_within_three_sigma(self, capsys):
        record = run_record(capsys, "qpeh", "--eta", "pi/3", "--delta", "pi/3",
                            "--shots", "10000", "--seed", "3")
        bins = entries_by_bits(record, "qpeh")
        sigma = math.sqrt(0.7165 * 0.2835 / 10000)
        assert abs(bins["0.1111000000"] - 0.7165063509461096) <= 3 * sigma

    def test_zero_delta_splits_evenly(self, capsys):
        record = run_record(capsys, "qpeh", "--eta", "pi/3", "--delta", "0", "--exact")
        bins = entries_by_bits(record, "qpeh")
        assert bins["0.1111000000"] == pytest.approx(0.5, abs=1e-10)


class TestPipeline:
    def test_exact_default_configuration(self, capsys):
        record = run_record(capsys, "pipeline", "--eta", "pi/3", "--delta", "pi/3",
                            "--exact")
        assert abs(record["residuals"]["theta"]) <= 1e-8
        assert record["estimates"]["theta"] == pytest.approx(
            math.atan(-1 / 3), abs=1e-8)
        assert record["estimates"]["delta"] == pytest.approx(PI / 3, abs=1e-8)
        assert record["config"]["branch"] == "principal"
        assert record["histograms"]["qpev"] is not None
        assert record["histograms"]["qpeh"] is not None

    def test_sampled_fixed_seed(self, capsys):
        record = run_record(capsys, "pipeline", "--eta", "pi/3", "--delta", "pi/3",
                            "--shots", "10000", "--seed", "1")
        assert abs(record["residuals"]["theta"]) <= 0.03

    def test_singular_configuration_exits_three(self, capsys):
        code, out, err = run(capsys, "pipeline", "--eta", "pi/2", "--delta", "pi/3")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "SingularConfigurationError"
        assert json.loads(err)["error"]["message"] == (
            "2*S*C = 0.000e+00 below 1e-06; sin(delta) cannot be inferred near eta = +-pi/2")

    @pytest.mark.parametrize("eta, window", [("1.2", "minus"), ("-1.2", "plus")])
    def test_empty_sampled_window_is_named(self, capsys, eta, window):
        """w_minus is about 0.034 at eta 1.2, and seed 2 draws none of the
        100 shots there: the error names the window and the shot count,
        not eta."""
        code, out, err = run(capsys, "pipeline", f"--eta={eta}", "--delta", "0.3",
                             "--n", "10", "--shots", "100", "--seed", "2")
        assert (code, out) == (3, "") and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "SingularConfigurationError"
        assert error["message"].startswith(
            f"the qpev {window} window drew 0 of 100 shots, so 2*S*C = 0 ")

    def test_byte_identical_reruns(self, capsys):
        args = ("pipeline", "--eta", "pi/3", "--delta", "pi/3",
                "--shots", "5000", "--seed", "21")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_command_echo_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "record.json"
        args = ["pipeline", "--eta", "pi/3", "--delta", "pi/3",
                "--exact", "--out", str(out_path)]
        assert main(args) == 0
        first = out_path.read_bytes()
        record = json.loads(first)
        assert record["command"] == args
        assert main(record["command"]) == 0
        assert out_path.read_bytes() == first


class TestSweep:
    def test_grid_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--eta-range", "0.3:0.9",
                           "--delta-range", "0.3:0.9", "--steps", "3",
                           "--out", str(out_path))
        assert code == 0, err
        with out_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert list(rows[0]) == ["eta", "delta", "C2", "half_absA2",
                                 "theta_analytic", "theta_est", "residual_theta"]
        for row in rows:
            assert abs(float(row["residual_theta"])) <= 1e-8

    def test_single_point_matches_pipeline(self, capsys):
        code, out, _ = run(capsys, "sweep", "--eta-range", "pi/3:pi/3",
                           "--delta-range", "pi/3:pi/3", "--steps", "5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        record = run_record(capsys, "pipeline", "--eta", "pi/3",
                            "--delta", "pi/3", "--exact")
        assert float(rows[0]["theta_est"]) == pytest.approx(
            record["estimates"]["theta"], abs=1e-12)
        assert float(rows[0]["C2"]) == pytest.approx(C2, abs=1e-12)

    @pytest.mark.parametrize("ranges", [
        ("--eta-range=-0.0:-0.6", "--delta-range=-0.3:0.3"),
        ("--eta-range=-0.6:0.6", "--delta-range=-0.0:-0.6"),
    ], ids=["eta-minus-zero", "eta-zero"])
    def test_analytic_columns_are_the_analytic_record(self, capsys, ranges):
        """At every point, C2, half_absA2 and theta_analytic are the text
        of the analytic record's C2, half_absA2 and theta, to the sign of
        a zero: one grid holds eta = -0.0 and the other eta = 0.0."""
        code, out, _ = run(capsys, "sweep", *ranges, "--steps", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["eta"] for row in rows} & {"-0.0", "0.0"}
        for row in rows:
            record = run_record(capsys, "analytic", f"--eta={row['eta']}",
                                f"--delta={row['delta']}")
            analytic = record["analytic"]
            assert [row["C2"], row["half_absA2"], row["theta_analytic"]] == [
                repr(analytic[key]) for key in ("C2", "half_absA2", "theta")]

    @pytest.mark.parametrize("n", [4, 10])
    def test_builds_no_kernel_and_no_histogram(self, capsys, monkeypatch, n):
        """A sweep reads only the decode windows: it calls neither
        readout_kernel nor Histogram, and its CSV is unchanged by that."""
        argv = ("sweep", "--eta-range", "0.2:1.3", "--delta-range=-1.3:1.3",
                "--steps", "4", "--n", str(n))
        code, before, _ = run(capsys, *argv)
        assert code == 0
        calls = []

        def refused(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a sweep built a readout kernel or a histogram")

        for module in (qpe, extraction, cli):
            monkeypatch.setattr(module, "readout_kernel", refused, raising=False)
            monkeypatch.setattr(module, "Histogram", refused, raising=False)
        code, after, _ = run(capsys, *argv)
        assert code == 0 and after == before
        assert calls == []

    def test_range_outside_half_pi_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--eta-range", "0.2:1.6",
                           "--delta-range", "0.2:0.4")
        assert code == 3
        assert "pi/2" in json.loads(err)["error"]["message"]

    def test_malformed_range_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--eta-range", "0.2",
                           "--delta-range", "0.2:0.4")
        assert code == 3


class TestOutputAndErrors:
    def test_csv_format_single_record(self, capsys):
        code, out, _ = run(capsys, "qpev", "--eta", "pi/3", "--exact",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["C"]) == pytest.approx(math.cos(PI / 12), abs=1e-10)
        assert rows[0]["mode"] == "exact"
        assert rows[0]["theta"] == ""

    def test_angle_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "qpev", "--eta", "pizza")
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "AngleParseError"
        assert "position" in error["message"]

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["qpev", "--eta", "pi/3", "--bogus"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag, argv", [
        ("--aux", ["qpev", "--eta", "0.3", "--aux", "-pi/4"]),
        ("--eta", ["qpev", "--eta", "-1e-3"]),
        ("--eta-range", ["sweep", "--eta-range", "-1.0:0.5", "--delta-range", "0.2:0.3"]),
    ], ids=["aux", "eta", "eta-range"])
    def test_negative_value_needs_the_attached_form(self, capsys, flag, argv):
        """argparse reads a separate -pi/4 as a flag: one JSON error line,
        exit 2. Attached to its flag the same value parses."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ArgumentError"
        assert error["message"] == f"argument {flag}: expected one argument"

    def test_attached_negative_pi_fraction_parses(self, capsys):
        record = run_record(capsys, "qpev", "--eta=-1e-3", "--aux=-pi/4", "--n", "4")
        assert record["config"]["aux_v"] == -PI / 4
        assert record["config"]["eta"] == -1e-3

    def test_shots_and_exact_conflict(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["qpev", "--eta", "pi/3", "--shots", "100", "--exact"])
        assert excinfo.value.code == 2

    def test_unwritable_out_exits_four(self, capsys, tmp_path):
        target = tmp_path / "missing" / "record.json"
        code, _, err = run(capsys, "analytic", "--eta", "pi/3",
                           "--delta", "pi/3", "--out", str(target))
        assert code == 4
        assert json.loads(err)["error"]["exit_code"] == 4

    @pytest.mark.parametrize("out, error", [
        ("", "FileNotFoundError"), ("missing/", "IsADirectoryError")])
    def test_out_is_opened_as_written(self, capsys, tmp_path, monkeypatch, out, error):
        """--out names the file as given, not normalized: a trailing slash
        names a directory, so no file "missing" is made."""
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, "analytic", "--eta", "pi/3", "--delta", "pi/3",
                                "--out", out)
        assert (code, stdout, json.loads(err)["error"]["type"]) == (4, "", error)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["analytic", "--eta", "pi/3", "--delta", "pi/3"],
        ["qpev", "--eta", "pi/3", "--n", "4"],
        ["pipeline", "--eta", "pi/3", "--delta", "pi/3", "--n", "4"],
    ], ids=["analytic", "qpev", "pipeline"])
    def test_out_path_with_a_non_utf8_byte(self, capsys, tmp_path, argv, fmt):
        """A file name the OS passes with a byte that is not UTF-8 reaches
        Python as a lone surrogate. The record lands in that file whole,
        and its command holds the name: the CSV field as the raw byte, the
        JSON string as an escape."""
        target = tmp_path / os.fsdecode(b"rec-\xff.csv")
        argv = [*argv, "--format", fmt, "--out", str(target)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "", "")
        raw = target.read_bytes()
        if fmt == "csv":
            assert os.fsencode(str(target)) in raw
            text = raw.decode("utf-8", errors="surrogateescape")
            rows = list(csv.DictReader(io.StringIO(text, newline="")))
            assert len(rows) == 1 and rows[0]["command"] == " ".join(argv)
        else:
            record = json.loads(raw.decode("utf-8"))
            jsonschema.validate(record, RUN_RECORD_SCHEMA)
            assert record["command"] == argv

    def test_warnings_do_not_change_exit_code(self, capsys):
        # 11/32 pi puts the eigenphase half a bin off center at n = 6, the
        # worst leakage case; coverage drops below the default threshold
        record = run_record(capsys, "qpev", "--eta", "pi/3", "--aux", "11/32pi",
                            "--n", "6", "--allow-leakage")
        assert any("leakage" in w for w in record["warnings"])
        assert record["decoded"]["qpev"]["coverage"] < 0.98

    def test_schema_accepts_every_command(self, capsys, tmp_path):
        run_record(capsys, "analytic", "--eta", "pi/4", "--delta", "pi/5")
        run_record(capsys, "qpev", "--eta", "pi/4", "--exact")
        run_record(capsys, "qpeh", "--eta", "pi/4", "--delta", "pi/5", "--exact")
        run_record(capsys, "pipeline", "--eta", "pi/4", "--delta", "pi/5", "--exact")
