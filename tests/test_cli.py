"""CLI contract: exit codes, output formats, schema validity, determinism."""

import json

import jsonschema
import pytest

from qdice import cli


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "weak-cf", "--p", "0.5", "--eta", "0.2071068")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_alice_star"] == pytest.approx(0.7071, abs=1e-4)
        assert payload["p_bob_star"] == pytest.approx(0.7071, abs=1e-4)

    def test_invalid_range_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "weak-cf", "--p", "1.2", "--eta", "0.0")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "weak-cf", "--p", "0.5", "--eta", "0.1", "--bogus")
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "nonsense")
        assert code == 1

    def test_verification_mismatch_exits_two(self, capsys, tmp_path):
        # a fabricated report violating the two-party bound
        report = {
            "n_outcomes": 2,
            "n_parties": 2,
            "force_probs": [[0.7, 1.0], [0.7, 1.0]],
            "honest_probs": [0.5, 0.5],
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        code, out, _ = run_cli(capsys, "bounds", "check", "--report", str(path))
        assert code == 2
        assert json.loads(out)["all_pass"] is False

    def test_missing_report_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "check", "--report", "/no/such/file.json")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("weak-cf", "--p", "0.5", "--eta", "nan"),
            ("weak-cf", "--p", "nan", "--eta", "0.1"),
            ("weak-cf", "--p", "0.5", "--eta", "inf"),
            ("oracle", "--p", "0.5", "--eta", "nan", "--resolution", "10"),
        ],
    )
    def test_non_finite_weak_cf_params_exit_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("grid", ["1", "0", "-3"])
    def test_degenerate_grid_is_a_usage_error(self, capsys, grid):
        code, out, err = run_cli(capsys, "--grid", grid, "weak-cf", "--p", "0.3", "--eta", "0.2")
        assert code == 1
        assert out == ""
        assert "grid_points must be >= 2" in err
        assert "argmax" not in err and "mismatch" not in err


class TestSchemas:
    def test_weak_cf(self, capsys, schema_loader):
        _, out, _ = run_cli(capsys, "weak-cf", "--p", "0.4", "--eta", "0.3")
        jsonschema.validate(json.loads(out), schema_loader("weak_cf"))

    def test_oracle(self, capsys, schema_loader):
        _, out, _ = run_cli(capsys, "oracle", "--p", "0.5", "--eta", "0.2", "--resolution", "16")
        jsonschema.validate(json.loads(out), schema_loader("oracle"))

    def test_six_round(self, capsys, schema_loader):
        _, out, _ = run_cli(capsys, "six-round", "--variant", "case2")
        jsonschema.validate(json.loads(out), schema_loader("six_round"))

    def test_weak_dr(self, capsys, schema_loader):
        _, out, _ = run_cli(
            capsys, "weak-dr", "--n", "4", "--biases", "0.05,0.04,0.03", "--party", "2"
        )
        jsonschema.validate(json.loads(out), schema_loader("weak_dr"))

    def test_strong_cf(self, capsys, schema_loader):
        _, out, _ = run_cli(capsys, "strong-cf", "--p0", "0.66", "--eps", "0.001")
        jsonschema.validate(json.loads(out), schema_loader("strong_cf"))

    def test_strong_dr(self, capsys, schema_loader):
        _, out, _ = run_cli(capsys, "strong-dr", "--n", "7", "--delta", "0.01", "--target", "3")
        jsonschema.validate(json.loads(out), schema_loader("strong_dr"))

    def test_multiparty_pairing(self, capsys, schema_loader):
        _, out, _ = run_cli(capsys, "multiparty", "--m", "2", "--n", "3")
        jsonschema.validate(json.loads(out), schema_loader("multiparty_pairing"))

    def test_multiparty_example(self, capsys, schema_loader):
        _, out, _ = run_cli(capsys, "multiparty", "example3")
        jsonschema.validate(json.loads(out), schema_loader("multiparty_example3"))

    def test_colbeck(self, capsys, schema_loader):
        _, out, _ = run_cli(capsys, "colbeck", "--n", "4", "--runs", "500")
        jsonschema.validate(json.loads(out), schema_loader("colbeck"))

    def test_bounds(self, capsys, schema_loader, tmp_path):
        report = {
            "n_outcomes": 2,
            "n_parties": 2,
            "force_probs": [[0.8, 0.8], [0.8, 0.8]],
            "honest_probs": [0.5, 0.5],
        }
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(report))
        code, out, _ = run_cli(capsys, "bounds", "check", "--report", str(path))
        assert code == 0
        jsonschema.validate(json.loads(out), schema_loader("bounds_check"))

    def test_reproduce(self, capsys, schema_loader):
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema_loader("reproduce"))
        assert payload["all_pass"] is True


class TestFormats:
    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "table", "strong-dr", "--n", "5")
        assert code == 0
        assert "adversary_success" in out
        assert "0.447214" in out  # six significant digits

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "weak-cf", "--p", "0.5", "--eta", "0.2071068")
        assert code == 0
        header, values = out.strip().split("\n")
        assert header.split(",")[:2] == ["p", "eta"]
        assert "0.707106762373095" in values  # 15 significant digits

    def test_reproduce_table(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "table", "reproduce")
        assert code == 0
        assert "six-round case1 bias" in out

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "--output", str(path), "colbeck", "--n", "3")
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["pa_exact"] == "2/3"


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_byte_identical_reruns(self, capsys, fmt):
        argv = ["--format", fmt, "--seed", "5", "colbeck", "--n", "3", "--runs", "2000"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_reproduce_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "--seed", "3", "reproduce")
        _, second, _ = run_cli(capsys, "--seed", "3", "reproduce")
        assert first == second
