import json

import pytest

from crnkit.cli import run

DIATOMIC = "X1 -> 2 X2 @ 2\n2 X2 -> X1 @ 1\n"
BD = "species: A\n0 -> A @ 3\nA -> 0 @ 1\n"
AUTOCATALYSIS = "2 A -> 3 A @ 1\n"


@pytest.fixture
def dia_file(tmp_path):
    path = tmp_path / "dia.crn"
    path.write_text(DIATOMIC)
    return str(path)


@pytest.fixture
def bd_file(tmp_path):
    path = tmp_path / "bd.crn"
    path.write_text(BD)
    return str(path)


def run_json(args, capsys):
    code = run(args)
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"generated_at"' not in line
    )


class TestParseCommand:
    def test_canonical_reprint(self, dia_file, capsys):
        assert run(["parse", dia_file]) == 0
        out = capsys.readouterr().out
        assert out == "species: X1 X2\nX1 -> 2 X2 @ 2\n2 X2 -> X1 @ 1\n"

    def test_bad_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.crn"
        path.write_text("A -> B @ -1\n")
        assert run(["parse", str(path)]) == 1
        assert "E_RATE" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert run(["parse", "/nonexistent/net.crn"]) == 1


class TestAnalyzeCommand:
    def test_diatomic_report(self, dia_file, capsys):
        code, doc = run_json(["analyze", dia_file], capsys)
        assert code == 0
        assert doc["schema_version"] == 1
        assert doc["deficiency"] == 0
        assert doc["weakly_reversible"] is True
        assert doc["conserved_basis"] == [[2, 1]]

    def test_deterministic_apart_from_timestamp(self, dia_file, capsys):
        run(["analyze", dia_file])
        first = capsys.readouterr().out
        run(["analyze", dia_file])
        second = capsys.readouterr().out
        assert strip_timestamp(first) == strip_timestamp(second)

    def test_out_flag_writes_file(self, dia_file, tmp_path):
        target = tmp_path / "report.json"
        assert run(["analyze", dia_file, "--out", str(target)]) == 0
        assert json.loads(target.read_text())["deficiency"] == 0


class TestAckCommand:
    def test_balanced_state_exits_0(self, dia_file, capsys):
        code, doc = run_json(["ack", dia_file, "--c", "0.5,1"], capsys)
        assert code == 0
        assert doc["complex_balanced"] is True
        assert doc["interior_residual_l1"] <= 1e-8

    def test_unbalanced_state_exits_1(self, dia_file, capsys):
        code, doc = run_json(["ack", dia_file, "--c", "1,1"], capsys)
        assert code == 1
        assert doc["complex_balanced"] is False
        assert doc["interior_residual_l1"] > 0.1

    def test_explicit_caps(self, bd_file, capsys):
        code, doc = run_json(["ack", bd_file, "--c", "3", "--caps", "40"], capsys)
        assert code == 0 and doc["caps"] == [40]

    @pytest.mark.parametrize("c", ["inf,1", "nan,1"])
    @pytest.mark.parametrize("caps", [[], ["--caps", "10,10"]])
    def test_non_finite_means_are_typed_errors(self, dia_file, capsys, c, caps):
        assert run(["ack", dia_file, "--c", c, *caps]) == 1
        assert "error[E_VALUE]" in capsys.readouterr().err


class TestRateAndEquilibrium:
    def test_rate_csv(self, bd_file, capsys):
        assert run(["rate", bd_file, "--x0", "0", "--t-end", "5", "--dt", "0.05"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,A"
        final = float(lines[-1].split(",")[1])
        assert abs(final - 3.0 * (1 - 2.718281828459045 ** -5.0)) < 1e-5

    def test_rate_rk45(self, bd_file, capsys):
        assert run(["rate", bd_file, "--x0", "0", "--t-end", "5", "--method", "rk45"]) == 0

    def test_equilibrium_json(self, dia_file, capsys):
        code, doc = run_json(["equilibrium", dia_file, "--x0", "1,0"], capsys)
        assert code == 0
        c = doc["equilibrium"]
        assert abs(2 * c[0] + c[1] - 2.0) < 1e-6
        assert doc["residual_inf"] < 1e-9


class TestMasterCommand:
    def test_pure_start_distribution(self, bd_file, capsys):
        code = run(["master", bd_file, "--n0", "0", "--caps", "15", "--t-end", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "A,probability"
        mass = sum(float(line.split(",")[1]) for line in lines[1:])
        assert abs(mass - 1.0) < 1e-9

    def test_requires_exactly_one_start(self, bd_file, capsys):
        assert run(["master", bd_file, "--caps", "10"]) == 1
        assert run(["master", bd_file, "--n0", "0", "--c", "1"]) == 1

    @pytest.mark.parametrize(
        "extra, code",
        [
            (["--n0", "0", "--caps", "15", "--t-end", "inf"], "E_VALUE"),
            (["--n0", "0", "--caps", "15", "--t-end", "nan"], "E_VALUE"),
            (["--n0", "0", "--caps", "15", "--t-end", "-1"], "E_VALUE"),
            (["--n0", "0", "--caps", "15", "--t-end", "1e12"], "E_BUDGET"),
            (["--c", "inf"], "E_VALUE"),
        ],
    )
    def test_bad_numbers_are_typed_errors(self, bd_file, capsys, extra, code):
        assert run(["master", bd_file, *extra]) == 1
        assert f"error[{code}]" in capsys.readouterr().err


class TestSsaCommand:
    def test_trajectory_csv(self, dia_file, capsys):
        assert run(["ssa", dia_file, "--n0", "1,0", "--t-end", "5", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,X1,X2"
        for line in lines[1:]:
            _, n1, n2 = line.split(",")
            assert 2 * int(n1) + int(n2) == 2

    def test_histogram_csv(self, bd_file, capsys):
        code = run(
            ["ssa", bd_file, "--n0", "0", "--histogram", "--burn-in", "5",
             "--samples", "500", "--interval", "0.5", "--seed", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "A,count,frequency"
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 500

    def test_seeded_runs_identical(self, bd_file, capsys):
        run(["ssa", bd_file, "--n0", "0", "--t-end", "3", "--seed", "11"])
        first = capsys.readouterr().out
        run(["ssa", bd_file, "--n0", "0", "--t-end", "3", "--seed", "11"])
        assert capsys.readouterr().out == first


class TestNoetherCommand:
    def test_diatomic_report(self, dia_file, capsys):
        code, doc = run_json(["noether", dia_file, "--c", "0.5,1"], capsys)
        assert code == 0
        assert doc["conserved_basis"] == [[2, 1]]
        assert doc["commutator_max_abs"] == [0.0]
        assert doc["symmetry"]["predicted_c"] == [2.0, 2.0]
        assert doc["projection"]["interior_residual_l1"] <= 1e-8

    def test_no_conserved_basis(self, bd_file, capsys):
        code, doc = run_json(["noether", bd_file, "--c", "3"], capsys)
        assert code == 0
        assert doc["conserved_basis"] == []
        assert "symmetry" not in doc


class TestTypedErrors:
    @pytest.mark.parametrize(
        "text, args, code",
        [
            (BD, ["rate", "--x0", "nan"], "E_VALUE"),
            (BD, ["rate", "--x0", "inf"], "E_VALUE"),
            (BD, ["equilibrium", "--x0", "nan"], "E_VALUE"),
            (BD, ["equilibrium", "--x0", "inf"], "E_VALUE"),
            (AUTOCATALYSIS, ["rate", "--x0", "1"], "E_EXPLODE"),
            (AUTOCATALYSIS, ["equilibrium", "--x0", "1"], "E_EXPLODE"),
            (DIATOMIC, ["noether", "--c", "0.5,1", "--s", "nan"], "E_VALUE"),
        ],
    )
    def test_bad_inputs_end_in_typed_errors(self, tmp_path, capsys, text, args, code):
        path = tmp_path / "net.crn"
        path.write_text(text)
        assert run([args[0], str(path), *args[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error[{code}]" in captured.err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate", "x.crn"]) == 2

    def test_missing_required_flag(self, dia_file, capsys):
        assert run(["ack", dia_file]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2
