"""The command-line surface: output formats, exit codes, file round-trips."""
import hashlib
import json

import pytest

import gossamer.cli
import gossamer.report
from gossamer.cli import MAX_CASES, MAX_SAMPLES, main
from gossamer.polynomial import MAX_PARSE_DEGREE
from gossamer.report import SUITE_NAMES, run_suite
from gossamer.steps import BridgeShape

HEAVYSIDE = '{"breakpoints": ["0"], "levels": ["0", "1"]}'


def option_error(capsys) -> str:
    """stderr after an option-range usage exit, which names no parse position."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "position" not in err
    return err


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

    def test_degree_limit(self, capsys):
        assert main(["riemann", "--poly", f"x^{MAX_PARSE_DEGREE} + 1"]) == 0
        capsys.readouterr()
        # Rejected before the coefficient list is allocated.
        for poly in (f"x^{MAX_PARSE_DEGREE + 1}", "x^1000000000"):
            assert main(["riemann", "--poly", poly]) == 2
            assert f"degree above {MAX_PARSE_DEGREE}" in capsys.readouterr().err

    def test_non_infinite_count_is_usage(self, capsys):
        assert main(["riemann", "--poly", "x^2", "--nu-exp", "-1"]) == 2
        assert option_error(capsys).startswith("error: --nu-exp must be positive")

    def test_remainder_at_requested_count(self, capsys):
        assert main(["riemann", "--poly", "x^2 + x", "--nu-exp", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["sum"] == "5/6 + w^-2 + 1/6*w^-4"
        assert data["remainder"] == "w^-2 + 1/6*w^-4"

    @pytest.mark.parametrize("nu_exp, truncated", [("3", True), ("1", False)])
    def test_json_says_when_a_term_dropped(self, capsys, nu_exp, truncated):
        # At w^3 the sum's w^-18 term lies below the floor, -16.
        assert main(["riemann", "--poly", "x^6 + x", "--nu-exp", nu_exp, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["truncated"] is truncated


class TestFtc:
    def test_human_output(self, capsys):
        assert main(["ftc", "--poly", "x^2", "--x", "2"]) == 0
        out = capsys.readouterr().out
        assert "quotient = 4 + 2*w^-1 + 1/3*w^-2; recovered = 4; equal = true" in out

    @pytest.mark.parametrize(
        "argv, truncated",
        [
            (["--poly", "x^20", "--x", "1", "--h-exp", "-1"], True),
            (["--poly", "x^2", "--x", "1"], False),
        ],
    )
    def test_json_says_when_the_quotient_dropped_a_term(self, capsys, argv, truncated):
        # (F(1 + h) - F(1))/h for F of degree 21 reaches h^20 = w^-20, below the floor.
        assert main(["ftc", *argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["truncated"] is truncated

    def test_h_must_be_infinitesimal(self, capsys):
        assert main(["ftc", "--poly", "x^2", "--x", "2", "--h-exp", "1"]) == 2
        assert option_error(capsys).startswith("error: --h-exp must be negative")

    def test_h_below_the_floor_is_usage(self, capsys):
        # w^-17 truncates to 0 at the floor of -16; w^-16 is kept.
        assert main(["ftc", "--poly", "x^2", "--x", "2", "--h-exp", "-17"]) == 2
        assert option_error(capsys).startswith("error: --h-exp must be at least -16, the truncation")
        assert main(["ftc", "--poly", "x^2", "--x", "2", "--h-exp", "-16"]) == 0


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

    def test_infinitesimal_term_is_usage(self, capsys):
        # w^-1's finite part is the integer 0; the message names its w^-1 term.
        assert main(["sum", "--term", "k", "--from", "1", "--to", "w^-1"]) == 2
        assert "endpoint needs no infinitesimal term, got w^-1" in capsys.readouterr().err

    def test_empty_range_is_usage(self):
        assert main(["sum", "--term", "k", "--from", "5", "--to", "3"]) == 2

    @pytest.mark.parametrize(
        "option, text",
        [("--from", "w^-20"), ("--to", "w+w^-17")],
        ids=["from-drops-all", "to-drops-a-term"],
    )
    def test_term_below_the_floor_is_usage(self, option, text, capsys):
        # Parsed at the default floor, the w^-20 or w^-17 term would drop
        # and the endpoint read as 0 or w.
        argv = ["sum", "--term", "k", "--from", "1", "--to", "5", "--json"]
        argv[argv.index(option) + 1] = text
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument {option}: endpoint {text!r} has a term below the floor w^-16\n"
        )

    def test_infinite_endpoint_reports_the_prefix_sum_oracle(self, capsys):
        assert main(["sum", "--term", "k^2", "--from", "1", "--to", "w", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["oracle"] == "brute-force prefix sums at n = 0..3"
        assert data["match"] is True
        assert data["truncated"] is False

    def test_long_range_is_closed_form(self, capsys):
        assert main(["sum", "--term", "k^2", "--from", "1", "--to", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "value = 333333833333500000; oracle match = true" in out


# (argv, message): a zero denominator in a coefficient or an exponent is
# malformed input, whether the subcommand or argparse reads the term.
ZERO_DENOMINATORS = [
    (["riemann", "--poly=1/0*x"], "error: zero denominator in '1/0*x' at position 0"),
    (["riemann", "--poly=x^1/0"], "error: zero denominator in 'x^1/0' at position 0"),
    (["sum", "--term=1/0", "--from=1", "--to=3"], "error: zero denominator in '1/0' at position 0"),
    (
        ["sum", "--term=k", "--from=1", "--to=w^1/0"],
        "error: argument --to: zero denominator in 'w^1/0' at position 0",
    ),
]


@pytest.mark.parametrize("argv, message", ZERO_DENOMINATORS, ids=[" ".join(a) for a, _ in ZERO_DENOMINATORS])
def test_zero_denominator_is_usage(argv, message, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reads --to
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.endswith(f"{message}\n")


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
        assert data["truncated"] is False

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
        assert lines[0] == (
            "# smoothed step function; shape=quintic; eps=w^-1 rendered at finite stand-in "
            "half-width 1/4; x and y exact, each rounded once to the nearest float"
        )
        # x = -1 + i/5 and y, each the float nearest the exact value: at
        # t = 1/10 the quintic is 107/12500, and 1 - that at t = 9/10.
        assert lines[1:] == [
            "x,y", "-1.0,0.0", "-0.8,0.0", "-0.6,0.0", "-0.4,0.0", "-0.2,0.00856", "0.0,0.5",
            "0.2,0.99144", "0.4,1.0", "0.6,1.0", "0.8,1.0", "1.0,1.0",
        ]

    @pytest.mark.parametrize(
        "width, exact",
        [("0.25", "1/4"), ("1e-3", "1/1000"), ("2/3", "2/3")],
        ids=["decimal", "exponent", "fraction"],
    )
    def test_standin_width_is_read_exactly(self, width, exact, heavyside_file, tmp_path):
        csv_path = tmp_path / "curve.csv"
        argv = ["smooth", "--input", heavyside_file, "--emit-csv", str(csv_path), "--standin-width", width]
        assert main(argv) == 0
        assert f"stand-in half-width {exact};" in csv_path.read_text().splitlines()[0]

    @pytest.mark.parametrize("width", ["0", "-1/4"])
    def test_standin_width_must_be_positive(self, width, heavyside_file, tmp_path, capsys):
        # 0 is no stand-in for a default: it is rejected like any width <= 0.
        csv_path = tmp_path / "curve.csv"
        argv = ["smooth", "--input", heavyside_file, "--emit-csv", str(csv_path), "--standin-width", width]
        assert main(argv) == 2
        assert option_error(capsys) == "error: stand-in half-width must be positive\n"
        assert not csv_path.exists()

    @pytest.mark.parametrize("samples", ["1", str(MAX_SAMPLES + 1)])
    def test_samples_out_of_range_is_usage(self, samples, heavyside_file, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        argv = ["smooth", "--input", heavyside_file, "--emit-csv", str(csv_path), "--samples", samples]
        assert main(argv) == 2
        assert f"between 2 and {MAX_SAMPLES}" in option_error(capsys)
        assert not csv_path.exists()

    def test_logistic_requires_csv(self, heavyside_file, capsys):
        # Only the exact polynomial shapes remain: the logistic curve never met its ends.
        with pytest.raises(SystemExit) as excinfo:
            main(["smooth", "--input", heavyside_file, "--shape", "logistic"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'logistic'" in capsys.readouterr().err

    def test_logistic_with_csv(self, heavyside_file, tmp_path, capsys):
        # A CSV does not bring the logistic shape back, and no file is written.
        csv_path = tmp_path / "s.csv"
        argv = ["smooth", "--input", heavyside_file, "--shape", "logistic", "--emit-csv", str(csv_path)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice: 'logistic'" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_missing_file_is_usage(self):
        assert main(["smooth", "--input", "/nonexistent.json"]) == 2

    def test_malformed_json_is_usage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"breakpoints": ["1"]}', encoding="utf-8")
        assert main(["smooth", "--input", str(bad)]) == 2

    def test_positive_eps_is_usage(self, heavyside_file, capsys):
        assert main(["smooth", "--input", heavyside_file, "--eps-exp", "1"]) == 2
        assert option_error(capsys).startswith("error: --eps-exp must be negative")

    def test_eps_below_the_floor_is_usage(self, heavyside_file, capsys):
        assert main(["smooth", "--input", heavyside_file, "--eps-exp", "-17"]) == 2
        assert option_error(capsys).startswith("error: --eps-exp must be at least -16, the truncation")
        assert main(["smooth", "--input", heavyside_file, "--eps-exp", "-16"]) == 0

    @pytest.mark.parametrize(
        "text, entry",
        [('{"breakpoints": [0.1], "levels": ["0", "1"]}', "breakpoints[0]"),
         ('{"breakpoints": ["1/2"], "levels": [0, true]}', "levels[1]")],
    )
    def test_inexact_json_entry_is_usage(self, text, entry, tmp_path, capsys):
        path = tmp_path / "step.json"
        path.write_text(text, encoding="utf-8")
        assert main(["smooth", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {entry}: expected a rational")


class TestPipeline:
    def test_structured_trace(self, capsys):
        assert main(["pipeline", "--poly", "x^2"]) == 0
        data = json.loads(capsys.readouterr().out)
        stages = data["stages"]
        assert [s["stage"] for s in stages] == [1, 2, 3, 4]
        assert all(set(s) == {"stage", "expression", "value"} for s in stages)
        assert stages[0]["value"] == stages[1]["value"] == stages[2]["value"] == "1/3"
        assert stages[3]["value"] == "1/3 + 1/2*w^-1 + 1/6*w^-2"

    @pytest.mark.parametrize("nu_exp, truncated", [("3", True), ("1", False)])
    def test_says_when_a_stage_dropped_a_term(self, capsys, nu_exp, truncated):
        # At w^3 the sum's w^-18 term lies below the floor, -16.
        assert main(["pipeline", "--poly", "x^6 + x", "--nu-exp", nu_exp]) == 0
        assert json.loads(capsys.readouterr().out)["truncated"] is truncated

    @pytest.mark.parametrize("nu_exp", ["0", "-1"])
    def test_non_infinite_count_is_usage(self, nu_exp, capsys):
        assert main(["pipeline", "--poly", "x^2", "--nu-exp", nu_exp]) == 2
        assert option_error(capsys).startswith("error: --nu-exp must be positive")

    def test_truncated_zero_remainder_prints_null(self, capsys):
        # The remainder 1/2*w^-17 prints as "0" below the floor, yet it is
        # not zero, so it has no verdict against the zero integral.
        assert main(["pipeline", "--poly", "x - 1/2", "--nu-exp", "17"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["remainder"] == "0" and data["truncated"] is True
        assert data["remainder_negligible"] is None

    def test_zero_integral_prints_null_and_exits_0(self, capsys):
        # No verdict is no failure: the remainder is printed, the exit is 0.
        assert main(["pipeline", "--poly", "x - 1/2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stages"][2]["value"] == "0"
        assert data["remainder"] == "1/2*w^-1"
        assert data["remainder_negligible"] is None


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

    @pytest.mark.parametrize("cases", [str(MAX_CASES + 1), "100000000"])
    def test_case_count_above_the_bound_is_usage(self, cases, capsys, monkeypatch):
        # Rejected before any case runs: 10^8 riemann cases would run for days.
        monkeypatch.setattr(gossamer.report, "run_suite", None)
        assert main(["verify", "--suite", "riemann", "--cases", cases]) == 2
        assert f"--cases must be at most {MAX_CASES}" in option_error(capsys)

    def test_case_count_at_the_bound_runs(self, monkeypatch):
        asked = []

        def one_case(suite, seed, cases):
            asked.append(cases)
            return run_suite(suite, seed, 1)

        monkeypatch.setattr(gossamer.report, "run_suite", one_case)
        assert main(["verify", "--suite", "riemann", "--cases", str(MAX_CASES)]) == 0
        assert asked == [MAX_CASES]

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestParserChoices:
    """The parser spells out its choices, so building it loads neither report nor steps."""

    def test_suite_choices_are_the_report_suites(self):
        assert gossamer.cli._SUITE_NAMES == SUITE_NAMES

    def test_shape_aliases_cover_every_bridge_shape(self):
        aliases = gossamer.cli._SHAPE_ALIASES
        assert {BridgeShape(value) for value in aliases.values()} == set(BridgeShape)
        assert all(aliases[shape.value] == shape.value for shape in BridgeShape)


# sha256 of each --help text at 80 columns, recorded when the parser still
# read its choices from report and steps, and for ``smooth`` again when
# ``--shape`` lost ``logistic``; the same on Python 3.10-3.12.
HELP_DIGESTS = {
    "gossamer": "dbd3c810c1750b1b5f9eeb74213ffae92b6ec6bf69065b03eb4afa13da1b430c",
    "verify": "0254a121110f8c66bdea4944272e7189e1769754cc9d79bcc991a1e13b8d1a7a",
    "riemann": "633c5e50b64ec34cf402dfeceffb51f14b42d9e521e38abfc3eb1c4104d1f5b3",
    "ftc": "0a0052b8bcd23b199e1c11cd57cf591188f41ef06fc723446348e7e1bb1887b3",
    "sum": "cea4f0e6e1c93650b6d346a0b83976ceb01bfc167617a8e25e98d1944240d896",
    "smooth": "ee16fa6da842bbe0787a24068eba3793173ce2accb0e6f63d25d1862e6b3774d",
    "pipeline": "60dbfd29a1bc06a9dae94054140b8c964e51cffdc8b79398669ec1a25effb64e",
}


@pytest.mark.parametrize("command, digest", HELP_DIGESTS.items())
def test_help_matches_recorded_digest(command, digest, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"] if command == "gossamer" else [command, "--help"])
    assert excinfo.value.code == 0
    assert sha256(capsys.readouterr().out) == digest


class TestNegativeRationalValues:
    """A bare negative value after an option, a rational or an expression, reads as its ``=`` form."""

    FTC = ("ftc", "--poly", "x^2", "--x", "2")
    SMOOTH = ("smooth", "--shape", "linear", "--json")
    CASES = {
        "ftc-h-exp": (FTC, ("--h-exp", "-1/2")),
        "ftc-x": (("ftc", "--poly", "x^2"), ("--x", "-1/2")),
        "ftc-a": (FTC, ("--a", "-3/4")),
        "smooth-eps-exp": (SMOOTH, ("--eps-exp", "-3/2")),
        "smooth-from": (SMOOTH, ("--from", "-1/2")),
        "smooth-to": (SMOOTH + ("--from", "-3"), ("--to", "-1/2")),
        "riemann-poly": (("riemann", "--json"), ("--poly", "-x^2")),
        "pipeline-poly": (("pipeline",), ("--poly", "-x^3 + x")),
        "ftc-poly": (("ftc", "--x", "2"), ("--poly", "-1/2*x^2")),
        "sum-term": (("sum", "--from", "1", "--to", "3"), ("--term", "-k^2")),
        "sum-from": (("sum", "--term", "k", "--to", "-1"), ("--from", "-w")),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bare_value_matches_equals_form(self, case, heavyside_file, capsys):
        head, (option, value) = self.CASES[case]
        if head[0] == "smooth":
            head = (*head, "--input", heavyside_file)
        assert main([*head, f"{option}={value}"]) == 0
        expected = capsys.readouterr().out
        assert main([*head, option, value]) == 0
        assert capsys.readouterr().out == expected


class TestEnvFloor:
    """The environment sets no floor: an ambient value cannot change an answer."""

    def test_sum_ignores_floor_variable(self, monkeypatch, capsys):
        # Read as a floor of 1, it would drop every finite term: value = 0.
        monkeypatch.setenv("GOSSAMER_TRUNC_FLOOR", "1")
        assert main(["sum", "--term", "k", "--from", "1", "--to", "w"]) == 0
        assert "value = 1/2*w^2 + 1/2*w; oracle match = true" in capsys.readouterr().out

    def test_verify_ignores_floor_variable(self, monkeypatch, capsys):
        # Read as a floor of -2, it would flatten a step h to 0: exit 2.
        monkeypatch.setenv("GOSSAMER_TRUNC_FLOOR", "-2")
        assert main(["verify", "--cases", "20", "--seed", "1"]) == 0
        assert capsys.readouterr().err == ""


# sha256 of the stdout of each command.  Payloads are exact, so a refactor
# must leave every byte in place; a change that means to move one updates
# the digest and says why.  The ftc, pipeline and smooth payloads gained a
# "truncated" field: their JSON_DIGESTS entry is the digest of the payload
# without it, so no older byte can move, and WITH_TRUNCATED pins the whole.
STAIRCASE = '{"breakpoints": ["-1", "1/2", "3"], "levels": ["0", "2", "-1/3", "5"]}'
POLYS = ("x^2", "3*x^6 - 2*x^3 + x", "1/2*x^5 + x^4 - 7/3*x + 2")
SPARSE = ("x^40 - 3*x^17 + 1/2*x^5 + 2", "5/3*x^40 + x^33 - 7*x^2")  # terms down to w^-120, far below the floor
JSON_DIGESTS = [
    (("riemann", "--poly", POLYS[0], "--nu-exp", "1", "--json"),
     "9298164599d002ef9bdfa62646b6573b1704fb49663aa77d3bec5ac22ec68a0f"),
    (("riemann", "--poly", POLYS[0], "--nu-exp", "2", "--json"),
     "a71eefc696115306bfdfbe129dc930b347e9289b342fffda90632211239107e1"),
    (("riemann", "--poly", POLYS[0], "--nu-exp", "1/2", "--json"),
     "c0ad9d9e446857c482bbe100424bea5ae87bb646dee2b670f0bb739abb19f239"),
    (("riemann", "--poly", POLYS[1], "--nu-exp", "1", "--json"),
     "fb24946d39216916cdea4ca1e6c4561ea5049709ff558218b15e710b6b7f72f1"),
    (("riemann", "--poly", POLYS[1], "--nu-exp", "2", "--json"),
     "30a5c99f06631b5db8d90b2fd76f4f72ffd0e0f2190bec215329b177b1ada499"),
    (("riemann", "--poly", POLYS[1], "--nu-exp", "1/2", "--json"),
     "5c98f0c33e7f69703c65db7f188b53cd4b532a45170cb5cd3d24a5bc64cc6e80"),
    (("riemann", "--poly", POLYS[2], "--nu-exp", "1", "--json"),
     "fb347eba9fda8620ef07977ad4b205a128c3ef063b7d42b16e2f909373c72765"),
    (("riemann", "--poly", POLYS[2], "--nu-exp", "2", "--json"),
     "bfe49653cedd3101bc2126681feff096967ff2705df936fd707c3d52111a22e2"),
    (("riemann", "--poly", POLYS[2], "--nu-exp", "1/2", "--json"),
     "2e5374d494df7a46865a6e11ddb4aab704413987866031a029354c224895a82c"),
    (("pipeline", "--poly", POLYS[0], "--nu-exp", "1"),
     "5db7ee50e1f1eb620f2d1c4fdb7083e4f5171bc403116f5e73560b53e8d3125d"),
    (("pipeline", "--poly", POLYS[1], "--nu-exp", "2"),
     "b06b9566539b76b60fc32749aa51d7fa25574016060a5ba844c09d05170392c6"),
    (("pipeline", "--poly", POLYS[2], "--nu-exp", "1/2"),
     "8b96214e70dca20420065fb7196fea1d999605979a393c7e38d83cb4e41d48d2"),
    (("ftc", "--poly", POLYS[0], "--a=0", "--x=2", "--h-exp=-1", "--json"),
     "7d94ecc5e7417508116d7d123572f387b2963d8c9d4beeb6cb097f8e56b015ba"),
    (("ftc", "--poly", POLYS[1], "--a=-1/2", "--x=3/4", "--h-exp=-2", "--json"),
     "51bb4b4c01a3efa3dd72726335033bc9d337b66d13934290b51eb7ba65463d04"),
    (("ftc", "--poly", POLYS[2], "--a=1", "--x=-5/3", "--h-exp=-1/2", "--json"),
     "d735b0b4791d77596711fff209187d690ea5ab053d78314e1397fde643708c91"),
    (("smooth", "--input", HEAVYSIDE, "--shape", "linear", "--eps-exp=-1", "--json"),
     "f2d55d2488e2f9fbf011b963a643c1d29bf0ed12cfc1b946cc284c12230a92b4"),
    (("smooth", "--input", STAIRCASE, "--shape", "cubic", "--eps-exp=-2", "--json"),
     "c7e46dabf5a8e5a774ecad21d0510af1a4980c88b2a06cb1f4e58ab470994b6e"),
    (("smooth", "--input", STAIRCASE, "--shape", "quintic", "--eps-exp=-1/2", "--json"),
     "3b72ce5b7a6d2ca7b78628728ab6d6c11f8af1362d97fa5a43bc6ce111183714"),
    (("riemann", "--poly", SPARSE[0], "--nu-exp", "3", "--json"),
     "e0172800a267c4ef5c32aea2345fc9b4ba6bbfca3820da68659dad0721777b44"),
    (("riemann", "--poly", SPARSE[1], "--nu-exp", "3", "--json"),
     "4c8776c6464427411eacfb469e72b0d2a0e922eb5811588c33fd7b0321f4c746"),
    (("pipeline", "--poly", SPARSE[0], "--nu-exp", "3"),
     "7738820657ec43b981699074b503d988d79748b5567b0e5616c8146eca116474"),
]


WITH_TRUNCATED = {
    JSON_DIGESTS[9][0]: "c412df3f42a23485edce0e17d4954f3ea6d345025d545067d2198a15cac583db",
    JSON_DIGESTS[10][0]: "ee813eb18a06763b108d9d6bb9a3b8ede5f6b4c23c90bb0f109397d80f7be6da",
    JSON_DIGESTS[11][0]: "20ea5ca1ab93d8d579fe6a6129d2427edad282cdef42467754646ed5e6ed7be3",
    JSON_DIGESTS[12][0]: "b6ffe1fc66e3f594c3a0e1f2e9241d0d9e8163255e90a15e917a32b103c22bc5",
    JSON_DIGESTS[13][0]: "581dcd6162eb57624fba5c02d8609f7d490443dd23e02b25b11e8438e42ac9aa",
    JSON_DIGESTS[14][0]: "5b3f280539ce25563630afb44fc6d8ccb8900c6cbfc427c639fb795837981afb",
    JSON_DIGESTS[15][0]: "c56bd431428000b646163c540d5078efe88cbb350d9b3b01be8251ff90247a0d",
    JSON_DIGESTS[16][0]: "0a60abe66f8cb43bb1051723db7ef861918599c6bbe3132315422a531846a6db",
    JSON_DIGESTS[17][0]: "22ba2790799b2e0bf783012475a59f954509a4f307561258eb1c725f2d8e11be",
    JSON_DIGESTS[20][0]: "2c74721149effa438d1f305aa290ad6aa8c9de375ead2c78f4c8f7ffada96314",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", JSON_DIGESTS)
def test_json_payload_matches_recorded_digest(argv, digest, tmp_path, capsys):
    command = argv
    if argv[0] == "smooth":  # the step function is passed as a file
        path = tmp_path / "step.json"
        path.write_text(argv[2], encoding="utf-8")
        command = (argv[0], argv[1], str(path), *argv[3:])
    assert main(list(command)) == 0
    out = capsys.readouterr().out
    if argv[0] in ("ftc", "pipeline", "smooth"):
        assert sha256(out) == WITH_TRUNCATED[argv]
        payload = json.loads(out)
        del payload["truncated"]
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert sha256(out) == digest
