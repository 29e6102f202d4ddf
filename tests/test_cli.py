"""The command-line surface: output formats, exit codes, file round-trips."""
import json

import pytest

from gossamer.cli import main

HEAVYSIDE = '{"breakpoints": ["0"], "levels": ["0", "1"]}'


@pytest.fixture
def heavyside_file(tmp_path):
    path = tmp_path / "heavyside.json"
    path.write_text(HEAVYSIDE, encoding="utf-8")
    return str(path)


class TestRiemann:
    def test_human_output(self, capsys):
        assert main(["riemann", "--poly", "x^2"]) == 0
        out = capsys.readouterr().out
        assert "sum = 1/3 + 1/2*w^-1 + 1/6*w^-2; st = 1/3" in out

    def test_json_output(self, capsys):
        assert main(["riemann", "--poly", "x^2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sum"] == "1/3 + 1/2*w^-1 + 1/6*w^-2"
        assert data["standard_part"] == "1/3"
        assert data["remainder"] == "1/2*w^-1 + 1/6*w^-2"

    def test_parse_error_is_usage(self, capsys):
        assert main(["riemann", "--poly", "x^^2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_infinite_count_is_usage(self):
        assert main(["riemann", "--poly", "x^2", "--nu-exp", "-1"]) == 2

    def test_remainder_at_requested_count(self, capsys):
        assert main(["riemann", "--poly", "x^2 + x", "--nu-exp", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sum"] == "5/6 + w^-2 + 1/6*w^-4"
        assert data["remainder"] == "w^-2 + 1/6*w^-4"


class TestFtc:
    def test_human_output(self, capsys):
        assert main(["ftc", "--poly", "x^2", "--x", "2"]) == 0
        out = capsys.readouterr().out
        assert "quotient = 4 + 2*w^-1 + 1/3*w^-2; recovered = 4; equal = true" in out

    def test_h_must_be_infinitesimal(self):
        assert main(["ftc", "--poly", "x^2", "--x", "2", "--h-exp", "1"]) == 2


class TestSum:
    def test_demo_example(self, capsys):
        assert main(["sum", "--term", "k", "--from", "3", "--to", "10"]) == 0
        out = capsys.readouterr().out
        assert "value = 52; oracle match = true" in out

    def test_json_fields(self, capsys):
        assert main(["sum", "--term", "k^2", "--from", "3", "--to", "10", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "380"  # 9+16+25+36+49+64+81+100
        assert data["closed_form"] == "1/3*n^3 + 1/2*n^2 + 1/6*n"
        assert data["match"] is True

    def test_infinite_endpoint(self, capsys):
        assert main(["sum", "--term", "k", "--from", "1", "--to", "w", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "1/2*w^2 + 1/2*w"

    def test_non_integer_finite_part_is_usage(self, capsys):
        assert main(["sum", "--term", "k", "--from", "1", "--to", "w+1/2"]) == 2
        assert "integer finite part" in capsys.readouterr().err

    def test_empty_range_is_usage(self):
        assert main(["sum", "--term", "k", "--from", "5", "--to", "3"]) == 2


class TestSmooth:
    def test_demo_example(self, heavyside_file, capsys):
        assert main(["smooth", "--input", heavyside_file, "--shape", "linear", "--eps-exp", "-1"]) == 0
        out = capsys.readouterr().out
        assert "area_delta = 0, budget = w^-1" in out

    def test_json_fields(self, heavyside_file, capsys):
        assert (
            main(["smooth", "--input", heavyside_file, "--shape", "cubic", "--eps-exp", "-2", "--json"])
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["area_delta"] == "0"
        assert data["budget_total"] == "w^-2"
        assert data["delta_infinitesimal"] is True
        assert data["round_trip_identity"] is True

    def test_emit_csv(self, heavyside_file, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        assert (
            main(
                [
                    "smooth", "--input", heavyside_file, "--shape", "quintic",
                    "--eps-exp", "-1", "--emit-csv", str(csv_path), "--samples", "11",
                ]
            )
            == 0
        )
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("#") and "stand-in" in lines[0]
        assert lines[1] == "x,y"
        assert len(lines) == 13

    def test_logistic_requires_csv(self, heavyside_file):
        assert main(["smooth", "--input", heavyside_file, "--shape", "logistic"]) == 2

    def test_logistic_with_csv(self, heavyside_file, tmp_path):
        csv_path = tmp_path / "s.csv"
        assert (
            main(["smooth", "--input", heavyside_file, "--shape", "logistic", "--emit-csv", str(csv_path)])
            == 0
        )
        assert csv_path.exists()

    def test_missing_file_is_usage(self):
        assert main(["smooth", "--input", "/nonexistent.json"]) == 2

    def test_malformed_json_is_usage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"breakpoints": ["1"]}', encoding="utf-8")
        assert main(["smooth", "--input", str(bad)]) == 2

    def test_positive_eps_is_usage(self, heavyside_file):
        assert main(["smooth", "--input", heavyside_file, "--eps-exp", "1"]) == 2


class TestPipeline:
    def test_structured_trace(self, capsys):
        assert main(["pipeline", "--poly", "x^2"]) == 0
        data = json.loads(capsys.readouterr().out)
        stages = data["stages"]
        assert [s["stage"] for s in stages] == [1, 2, 3, 4]
        assert all(set(s) == {"stage", "expression", "value"} for s in stages)
        assert stages[0]["value"] == stages[1]["value"] == stages[2]["value"] == "1/3"
        assert stages[3]["value"] == "1/3 + 1/2*w^-1 + 1/6*w^-2"


class TestVerify:
    def test_passes(self, capsys):
        assert main(["verify", "--suite", "ftc", "--seed", "42", "--cases", "5"]) == 0
        assert "failed=0" in capsys.readouterr().out

    def test_json_deterministic(self, capsys):
        main(["verify", "--suite", "gossamer-axioms", "--seed", "1", "--cases", "6", "--json"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "gossamer-axioms", "--seed", "1", "--cases", "6", "--json"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("cases", ["0", "-5"])
    def test_nonpositive_case_count_is_usage(self, cases, capsys):
        assert main(["verify", "--suite", "riemann", "--cases", cases]) == 2
        assert "cases must be at least 1" in capsys.readouterr().err

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestEnvFloor:
    def test_trunc_floor_override(self, monkeypatch, capsys):
        monkeypatch.setenv("GOSSAMER_TRUNC_FLOOR", "-2")
        assert main(["riemann", "--poly", "x^2"]) == 0
        out = capsys.readouterr().out
        assert "sum = 1/3 + 1/2*w^-1 + 1/6*w^-2; st = 1/3" in out
        monkeypatch.setenv("GOSSAMER_TRUNC_FLOOR", "-1")
        assert main(["riemann", "--poly", "x^2"]) == 0
        assert "sum = 1/3 + 1/2*w^-1; st = 1/3" in capsys.readouterr().out
