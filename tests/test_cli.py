"""CLI contract: exit codes, output formats, schema validity, determinism."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, SCHEMA_DIR
from qdice import cli, colbeck_dr, multiparty, optimize, reproduce, sixround_dr, strong_cf, strong_dr, weak_cf, weak_dr

GOLDEN_DIR = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    """The parser of each subcommand, by name."""
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


SUBCOMMANDS = (
    "weak-cf", "six-round", "weak-dr", "strong-cf", "strong-dr",
    "multiparty", "three-party", "colbeck", "bounds", "reproduce",
)


class TestSubcommands:
    """One subcommand per protocol, whose flags argparse alone validates."""

    def test_help_lists_one_subcommand_per_protocol(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "{" + ",".join(SUBCOMMANDS) + "}" in out
        assert tuple(subcommand_parsers()) == SUBCOMMANDS

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_no_subcommand_takes_a_positional_argument(self, name):
        assert all(action.option_strings for action in subcommand_parsers()[name]._actions)

    def test_each_subcommand_has_one_schema_named_after_it(self):
        # schemas/<subcommand with - as _>.schema.json, and no schema for anything else
        schemas = sorted(path.name for path in SCHEMA_DIR.glob("*.schema.json"))
        assert schemas == sorted(f"{name.replace('-', '_')}.schema.json" for name in subcommand_parsers())


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
        code, out, _ = run_cli(capsys, "bounds", "--report", str(path))
        assert code == 2
        assert json.loads(out)["all_pass"] is False

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("strong-cf", "--p0", "0.5", "--eps", "2"), "eps0 must lie in"),
            (("multiparty", "--m", "1", "--n", "2", "--eps-bar", "5"), "eps_bar must lie in"),
            # an empty list is a list of no biases, not the default's zeros
            (("weak-dr", "--n", "3", "--biases", ""), "error: expected 2 stage biases, got 0\n"),
            # the three-party example reads none of the pairing flags
            (
                ("three-party", "--m", "2", "--n", "3", "--eps-bar", "0.1"),
                "error: unrecognized arguments: --m 2 --n 3 --eps-bar 0.1\n",
            ),
            (("three-party", "--eps-bar", "0"), "error: unrecognized arguments: --eps-bar 0\n"),
            # the pairing protocol needs both sizes
            (("multiparty", "--m", "2"), "error: the following arguments are required: --n\n"),
        ],
    )
    def test_out_of_range_values_exit_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("n", ["2", "3", "6", "12"])
    def test_weak_dr_with_default_zero_biases_exits_zero(self, capsys, n):
        # the honest float chain rounds eps_bar to 1.1e-16 at N = 3 and to
        # -1.1e-16 at N = 6; with every bias 0 it is exactly 0 and the bound holds
        code, out, err = run_cli(capsys, "weak-dr", "--n", n)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["eps_bar"] == 0.0 and payload["bound"] == 0.0 and payload["holds"] is True

    @pytest.mark.parametrize("bias, eps_bar", [("1e-300", 5e-301), ("5e-324", 0.0)])
    def test_weak_dr_tiny_bias_is_decided_exactly(self, capsys, bias, eps_bar):
        # the float eps_bar, 1.1e-16 of rounding, would exceed the bound 3 * bias;
        # the exact eps_bar is bias / 2, correctly rounded
        code, out, err = run_cli(capsys, "weak-dr", "--n", "3", "--biases", f"0,{bias}")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert (payload["eps_bar"], payload["bound"], payload["holds"]) == (eps_bar, 3 * float(bias), True)

    @pytest.mark.parametrize(
        "argv, losing",
        [
            (("--n", "3", "--biases", "0,1e-300"), "0.6666666666666666"),
            (("--n", "3"), "0.6666666666666666"),
            (("--n", "6"), "0.8333333333333334"),
            (("--n", "7", "--party", "7"), "0.8571428571428571"),
        ],
    )
    def test_weak_dr_prints_the_losing_prob_of_an_exact_eps_bar(self, capsys, argv, losing):
        # (N-1)/N + eps_bar correctly rounded; the float chain prints 0.6666666666666667,
        # 0.8333333333333333 and 0.8571428571428572 here
        code, out, _ = run_cli(capsys, "weak-dr", *argv)
        assert code == 0
        assert f'"max_losing_prob": {losing},' in out

    def test_missing_report_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--report", "/no/such/file.json")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("weak-cf", "--p", "0.5", "--eta", "nan"),
            ("weak-cf", "--p", "nan", "--eta", "0.1"),
            ("weak-cf", "--p", "0.5", "--eta", "inf"),
        ],
    )
    def test_non_finite_weak_cf_params_exit_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("strong-dr", "--n", "4", "--delta", "nan"),
            ("multiparty", "--m", "1", "--n", "2", "--eps-bar", "nan"),
            ("strong-cf", "--p0", "0.5", "--eps", "nan"),
            ("strong-cf", "--p0", "inf"),
            ("weak-dr", "--n", "3", "--biases", "nan,0"),
            ("weak-dr", "--n", "3", "--biases", "0.1,inf"),
            ("--tol", "nan", "six-round"),
            ("six-round", "--tol", "inf"),
        ],
    )
    def test_non_finite_floats_rejected_at_parse_time(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "must be a finite number" in err

    # "-1e-12" would parse as a flag, so it is given as --tol=-1e-12
    @pytest.mark.parametrize("tol", [("--tol", "-1"), ("--tol", "-0.5"), ("--tol=-1e-12",)])
    @pytest.mark.parametrize("command", [("six-round",), ("bounds", "--report", "unused.json")])
    def test_negative_tol_rejected_at_parse_time(self, capsys, command, tol):
        # before or after the subcommand name; never the mismatch exit 2
        for argv in ((*tol, *command), (*command, *tol)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            assert out == ""
            assert "--tol: must not be negative" in err

    def test_zero_tol_is_accepted(self, capsys):
        code, out, err = run_cli(capsys, "--tol", "0", "strong-cf", "--p0", "0.5")
        assert code == 0, err
        assert out

    def test_unparseable_bias_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "weak-dr", "--n", "3", "--biases", "0.1,abc")
        assert code == 1
        assert out == ""
        assert "invalid float value: 'abc'" in err

    def test_unwritable_output_exits_one(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, "--output", str(path), "strong-cf", "--p0", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_nan_in_a_record_is_an_error_not_a_token(self, capsys, monkeypatch):
        nan_analysis = weak_cf.CheatAnalysis(0.5, 0.2, 0.7, 0.7, float("nan"), (1.0, 0.0, 0.0, 0.0))
        monkeypatch.setattr(weak_cf, "alice_cheat_oracle", lambda params: nan_analysis)
        code, out, err = run_cli(capsys, "weak-cf", "--p", "0.5", "--eta", "0.2")
        assert code == 1
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_in_a_row_is_an_error_not_a_token(self, capsys, monkeypatch, bad):
        rows = reproduce.build_rows()
        rows[3]["computed_value"] = bad
        monkeypatch.setattr(reproduce, "build_rows", lambda: rows)
        code, out, err = run_cli(capsys, "reproduce")
        assert code == 1
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("where", ["before", "after"])
    @pytest.mark.parametrize("grid", ["1", "10000", "9" * 400])
    def test_the_removed_grid_flag_is_a_usage_error(self, capsys, where, grid):
        argv = ["weak-cf", "--p", "0.3", "--eta", "0.2"]
        argv = ["--grid", grid, *argv] if where == "before" else [*argv, "--grid", grid]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: qdice")
        # before the subcommand, argparse alone would report the value as an invalid subcommand
        assert err.endswith(f"error: unrecognized arguments: --grid {grid}\n")

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--bogus", "3", "weak-cf", "--p", "0.3", "--eta", "0.2"), "--bogus 3"),
            (("--seed", "-1", "--bogus", "-1", "reproduce"), "--bogus -1"),
            (("--bogus", "3"), "--bogus 3"),
            (("--bogus", "reproduce"), "--bogus"),
            (("--bogus=3", "reproduce"), "--bogus=3"),
        ],
    )
    def test_an_unknown_option_before_the_subcommand_is_named(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: qdice") and err.endswith(f"error: unrecognized arguments: {named}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("5", "--bogus"), "argument command: invalid choice: '5'"),
            (("--tol", "abc", "reproduce"), "argument --tol: invalid float value: 'abc'"),
            (("--output",), "argument --output: expected one argument"),
            ((), "the following arguments are required: command"),
        ],
    )
    def test_other_top_level_errors_keep_argparses_message(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: qdice") and f"error: {message}" in err

    def test_help_names_no_grid_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "--grid" not in out

    @pytest.mark.parametrize("n", [str(weak_dr.MAX_PARTIES + 1), "100000000000", "1" + "0" * 400])
    def test_weak_dr_past_the_party_cap_is_a_usage_error(self, capsys, n):
        code, out, err = run_cli(capsys, "weak-dr", "--n", n)
        assert code == 1
        assert out == ""
        assert err == f"error: need at most {weak_dr.MAX_PARTIES} parties, got {n}\n"

    @pytest.mark.parametrize("n", [str(strong_dr.MAX_OUTCOMES + 1), "100000000000", "1" + "0" * 400])
    def test_strong_dr_past_the_outcome_cap_is_a_usage_error(self, capsys, n):
        code, out, err = run_cli(capsys, "strong-dr", "--n", n)
        assert code == 1
        assert out == ""
        assert err == f"error: need at most {strong_dr.MAX_OUTCOMES} outcomes, got {n}\n"


def _off_by_a_micro(monkeypatch):
    oracle = weak_cf.alice_cheat_oracle

    def shifted(params):
        result = oracle(params)
        return dataclasses.replace(result, p_alice_star=result.p_alice_star + 1e-6)

    monkeypatch.setattr(weak_cf, "alice_cheat_oracle", shifted)


def _shifted_strong_cf_target(monkeypatch):
    solve = strong_cf.solve_params
    monkeypatch.setattr(strong_cf, "solve_params", lambda p0, eps=0.0: solve(p0 + 1e-9, eps))


def _failing_reproduce_row(monkeypatch):
    rows = reproduce.build_rows()
    rows[2]["passed"] = False
    monkeypatch.setattr(reproduce, "build_rows", lambda: rows)


# argv, the monkeypatch that forces the mismatch (None: a real input
# reaches it), and a phrase of the reason
MISMATCHES = {
    "weak-cf": (("weak-cf", "--p", "0.4", "--eta", "0.2"), _off_by_a_micro, "and closed form"),
    "weak-cf-tol": (("--tol", "0", "weak-cf", "--p", "0.3", "--eta", "0.1"), None, "> --tol 0.0"),
    "six-round": (("--tol", "0", "six-round", "--variant", "case2"), None, "more than --tol 0.0"),
    "weak-dr": (
        ("weak-dr", "--n", "3", "--biases", "0.1,0.1"),
        lambda mp: mp.setattr(
            weak_dr, "checked_losing_prob", lambda spec, party: (0.9, weak_dr.BoundCheck(0.5, 0.3, False))
        ),
        "party 1: eps_bar 0.5 is not below the bound 0.3",
    ),
    "weak-dr-honest": (
        ("weak-dr", "--n", "3"),
        lambda mp: mp.setattr(weak_dr, "honest_distribution", lambda n: [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
        "honest probabilities are not all 1/3",
    ),
    "strong-cf": (("strong-cf", "--p0", "0.6"), _shifted_strong_cf_target, "round trip error"),
    "strong-dr": (
        ("strong-dr", "--n", "2"),
        lambda mp: mp.setattr(strong_dr, "honest_leaf_probs", lambda tree: [Fraction(1, 4), Fraction(3, 4)]),
        "not all 1/2",
    ),
    "strong-dr-path": (
        ("strong-dr", "--n", "5"),
        lambda mp: mp.setattr(strong_dr, "path_to", lambda tree, target: [Fraction(1, 2)]),
        "the path's edge product 1/2 differs from the leaf probability 1/5",
    ),
    "strong-dr-forcing": (
        ("strong-dr", "--n", "5"),
        lambda mp: mp.setattr(strong_dr, "adversary_success", lambda tree, target, delta: 0.9),
        "forcing probability 0.9 at delta 0 misses the symmetric bound",
    ),
    "multiparty-pairing": (
        ("multiparty", "--m", "1", "--n", "2"),
        lambda mp: mp.setattr(multiparty, "coalition_force_prob", lambda protocol, eps_bar: 0.5),
        "misses the symmetric bound",
    ),
    "three-party": (
        ("three-party",),
        lambda mp: mp.setattr(multiparty, "three_party_example_bias", lambda: (0.5, 0.69336)),
        "below the Kitaev bound 0.69336",
    ),
    "colbeck": (
        ("colbeck", "--n", "3"),
        lambda mp: mp.setattr(colbeck_dr, "bob_cheat_oracle", lambda n: Fraction(1, 2)),
        "oracle 1/2 differs from 5/9",
    ),
    "reproduce": (("reproduce",), _failing_reproduce_row, "1 of 13 rows fail their tolerance: six-round case1 bias"),
}


class TestMismatchReasons:
    """Every exit 2 writes one line on stderr saying which check failed."""

    @pytest.mark.parametrize("name", sorted(MISMATCHES))
    def test_exit_two_says_why(self, capsys, monkeypatch, name):
        argv, force, phrase = MISMATCHES[name]
        if force is not None:
            force(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)  # the record is still written in full
        assert err.count("\n") == 1 and err.startswith("verification mismatch: ")
        assert phrase in err

    def test_bounds_check_says_which_outcome_fails(self, capsys, tmp_path):
        report = {
            "n_outcomes": 2,
            "n_parties": 2,
            "force_probs": [[0.7, 1.0], [0.7, 0.7]],
            "honest_probs": [0.5, 0.5],
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        code, out, err = run_cli(capsys, "bounds", "--report", str(path))
        assert code == 2
        assert json.loads(out)["per_outcome"] == [False, True]  # 0.7 * 0.7 < 1/2 at outcome 0
        assert err == "verification mismatch: kitaev_two_party fails at outcome index [0]\n"

    @pytest.mark.parametrize(
        "command",
        [("six-round", "--variant", "case2"), ("weak-cf", "--p", "0.3", "--eta", "0.1")],
        ids=["six-round", "weak-cf"],
    )
    def test_mismatch_stdout_matches_a_passing_tolerance(self, capsys, command):
        # the reason goes to stderr only: stdout is the record of the same run
        code, failing, err = run_cli(capsys, "--tol", "0", *command)
        _, passing, quiet = run_cli(capsys, *command)
        assert code == 2 and failing == passing and err and not quiet



def _object_schemas(schema):
    """Every subschema, at any depth, that lists properties."""
    if isinstance(schema, dict):
        if "properties" in schema:
            yield schema
        for value in schema.values():
            yield from _object_schemas(value)
    elif isinstance(schema, list):
        for value in schema:
            yield from _object_schemas(value)


class TestSchemas:
    # every record prints each of its keys, so no schema leaves one optional
    @pytest.mark.parametrize("name", sorted(path.name.split(".")[0] for path in SCHEMA_DIR.glob("*.schema.json")))
    def test_every_object_requires_exactly_its_properties(self, schema_loader, name):
        schema = schema_loader(name)
        jsonschema.Draft7Validator.check_schema(schema)
        objects = list(_object_schemas(schema))
        assert objects
        for obj in objects:
            assert sorted(obj["required"]) == sorted(obj["properties"])

    # the argv of a record for each schema that fixes a top-level value by `const`
    CONST_ARGV = {"weak_cf": ("weak-cf", "--p", "0.3", "--eta", "0.1")}

    def test_every_const_is_the_value_printed(self, capsys, schema_loader):
        consts = {}
        for path in SCHEMA_DIR.glob("*.schema.json"):
            name = path.name.split(".")[0]
            fixed = {k: v["const"] for k, v in schema_loader(name)["properties"].items() if "const" in v}
            if fixed:
                consts[name] = fixed
        assert set(consts) == set(self.CONST_ARGV)
        for name, fixed in consts.items():
            code, out, err = run_cli(capsys, *self.CONST_ARGV[name])
            assert code == 0, err
            record = json.loads(out)
            assert {key: record[key] for key in fixed} == fixed, name

    def test_six_round_variants_are_the_parsers_choices(self, schema_loader):
        variant = next(a for a in subcommand_parsers()["six-round"]._actions if a.dest == "variant")
        assert schema_loader("six_round")["properties"]["variant"]["enum"] == list(variant.choices)

    def test_bounds_check_names_are_the_ones_printed(self, capsys, schema_loader, tmp_path):
        printed = []
        for parties in (2, 3):
            path = tmp_path / f"{parties}.json"
            path.write_text(json.dumps({
                "n_outcomes": 2,
                "n_parties": parties,
                "force_probs": [[1.0, 1.0]] * parties,
                "honest_probs": [0.5, 0.5],
            }))
            code, out, err = run_cli(capsys, "bounds", "--report", str(path))
            assert code == 0, err
            printed.append(json.loads(out)["check"])
        assert printed == schema_loader("bounds")["properties"]["check"]["enum"]

    def test_weak_cf(self, capsys, schema_loader):
        _, out, _ = run_cli(capsys, "weak-cf", "--p", "0.4", "--eta", "0.3")
        jsonschema.validate(json.loads(out), schema_loader("weak_cf"))

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
        jsonschema.validate(json.loads(out), schema_loader("multiparty"))

    def test_multiparty_pairing_past_sys_maxsize(self, capsys, schema_loader):
        # n^m = 10^20 outcomes: more than a list can hold
        code, out, err = run_cli(capsys, "multiparty", "--m", "20", "--n", "10")
        assert code == 0, err
        payload = json.loads(out)
        jsonschema.validate(payload, schema_loader("multiparty"))
        assert payload["n_outcomes"] == 10**20
        assert payload["honest_prob_exact"] == "1/100000000000000000000"

    def test_multiparty_pairing_past_the_float_range(self, capsys, schema_loader):
        # n = 10^400 does not fit a float: 1/sqrt(n) goes through logarithms
        code, out, err = run_cli(capsys, "multiparty", "--m", "1", "--n", str(10**400))
        assert code == 0, err
        payload = json.loads(out)
        jsonschema.validate(payload, schema_loader("multiparty"))
        assert payload["coalition_force_prob"] == payload["symmetric_bound"] == 1.0000000000000348e-200

    def test_three_party(self, capsys, schema_loader):
        _, out, _ = run_cli(capsys, "three-party")
        jsonschema.validate(json.loads(out), schema_loader("three_party"))

    def test_colbeck(self, capsys, schema_loader):
        _, out, _ = run_cli(capsys, "colbeck", "--n", "4")
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
        code, out, _ = run_cli(capsys, "bounds", "--report", str(path))
        assert code == 0
        jsonschema.validate(json.loads(out), schema_loader("bounds"))

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


def _reference_rows_json(rows):
    doc = {"rows": rows, "all_pass": all(r["passed"] for r in rows)}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_ROW_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e308])
)
_ROW_TEXT = st.one_of(
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "é ψ 中 \U0001f3b2", "\n\t\x00\u2028"]),
    # the row boundary of one `_ROW_ENCODER` call, and its parts, inside a quantity's text
    st.sampled_from(["}", "{", "},", "},\n      {", "a}\n{b", "},\\n      {", "\n    },\n    {\n      "]),
    st.lists(st.sampled_from(["}", "{", ",", "\n", " ", "x"]), max_size=12).map("".join),
)


def _readme_examples() -> list[list[str]]:
    """The argv of each `qdice ...` line in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", (REPO_ROOT / "README.md").read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("qdice ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


class TestReadmeExamples:
    """Every CLI example the README shows runs and exits 0."""

    def test_every_subcommand_has_an_example(self):
        assert sorted({argv[0] for argv in _readme_examples()}) == sorted(SUBCOMMANDS)

    @pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
    def test_example_exits_zero(self, capsys, monkeypatch, tmp_path, argv):
        # the bounds example reads report.json from the working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "report.json").write_text(json.dumps({
            "n_outcomes": 2, "n_parties": 2, "force_probs": [[0.8, 0.8], [0.8, 0.8]], "honest_probs": [0.5, 0.5],
        }))
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out


class TestRowsJson:
    """The reproduce rows' json is the text `json.dumps(..., indent=2)` writes."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        rows=st.lists(
            st.fixed_dictionaries({
                "quantity": _ROW_TEXT,
                "reported_value": _ROW_FLOATS,
                "computed_value": _ROW_FLOATS,
                "abs_diff": _ROW_FLOATS,
                "tolerance": _ROW_FLOATS,
                "passed": st.booleans(),
            }),
            min_size=1,
            max_size=16,
        )
    )
    def test_matches_the_indenting_encoder(self, rows):
        buf = io.StringIO()
        cli._emit_rows(rows, "json", buf)
        assert buf.getvalue() == _reference_rows_json(rows)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_raises_before_writing(self, bad):
        rows = reproduce.build_rows()
        rows[-1]["abs_diff"] = bad
        buf = io.StringIO()
        with pytest.raises(ValueError):
            cli._emit_rows(rows, "json", buf)
        assert buf.getvalue() == ""


class TestGlobalFlagPlacement:
    def test_readme_reproduce_table(self, capsys):
        code, after, _ = run_cli(capsys, "reproduce", "--format", "table")
        assert code == 0
        _, before, _ = run_cli(capsys, "--format", "table", "reproduce")
        assert after == before

    # six-round case2's losing probabilities of Alice and Claire differ by
    # 1.1e-16: --tol 0 exits 2 where the default exits 0
    SIX_ROUND = ("six-round", "--variant", "case2")

    @pytest.mark.parametrize("flag", [("--tol", "0"), ("--format", "csv")])
    def test_both_orders_byte_identical(self, capsys, flag):
        before = run_cli(capsys, *flag, *self.SIX_ROUND)
        after = run_cli(capsys, *self.SIX_ROUND, *flag)
        assert before == after
        assert before != run_cli(capsys, *self.SIX_ROUND)
        assert before[0] == (2 if flag[0] == "--tol" else 0)

    def test_flag_before_survives_subcommand_defaults(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        argv = ["--format", "csv", "--output", str(path), "--tol", "0", *self.SIX_ROUND]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "--tol 0.0" in err
        _, direct, _ = run_cli(capsys, *self.SIX_ROUND, "--tol", "0", "--format", "csv")
        assert path.read_text() == direct

    def test_flag_after_overrides_flag_before(self, capsys):
        assert run_cli(capsys, "--tol", "0", *self.SIX_ROUND, "--tol", "1e-9") == run_cli(capsys, *self.SIX_ROUND)
        assert run_cli(capsys, "--tol", "1e-9", *self.SIX_ROUND, "--tol", "0")[0] == 2
        both = run_cli(capsys, "--format", "table", *self.SIX_ROUND, "--format", "csv")
        assert both == run_cli(capsys, "--format", "csv", *self.SIX_ROUND)


def _float_text():
    return st.one_of(st.floats(min_value=0.0, max_value=0.5).map(repr), st.floats().map(repr))


@st.composite
def _argv(draw):
    """A subcommand with drawn arguments, plus global flags before or after it."""
    f, i = _float_text, st.integers
    command = draw(st.sampled_from([
        ["weak-cf", "--p", f(), "--eta", f()],
        ["strong-cf", "--p0", f(), "--eps", f()],
        ["strong-dr", "--n", i(0, 9).map(str), "--delta", f(), "--target", i(0, 9).map(str)],
        ["multiparty", "--m", i(0, 3).map(str), "--n", i(0, 4).map(str), "--eps-bar", f()],
        ["three-party"],
        ["weak-dr", "--n", i(1, 5).map(str), "--biases", st.lists(f(), min_size=1, max_size=4).map(",".join),
         "--party", i(0, 5).map(str)],
        ["colbeck", "--n", i(0, 6).map(str)],
        ["six-round", "--variant", st.sampled_from(["case1", "case2"])],
        ["reproduce"],
        ["bounds", "--report", st.just(_REPORT)],
    ]))
    command = [draw(part) if isinstance(part, st.SearchStrategy) else part for part in command]
    flags = []
    # plain decimals such as "-0.25" reach --tol's own check; argparse reads
    # an exponent form such as "-1e-05" (which f() draws) as a flag instead
    tol = st.one_of(f(), st.floats(min_value=-2.0, max_value=-1e-9).map(lambda x: f"{x:.12f}"))
    for flag, value in (
        ("--tol", tol),
        ("--seed", i(0, 5).map(str)),
        ("--format", st.sampled_from(["json", "table", "csv"])),
        ("--output", st.just(_OUTPUT)),
    ):
        if draw(st.booleans()):
            flags += [flag, draw(value)]
    return flags + command if draw(st.booleans()) else command + flags


_OUTPUT = "<output file>"  # stands for a fresh path in a temporary directory
_REPORT = "<report file>"  # stands for a path holding the drawn report text


@st.composite
def _report(draw):
    """(kind, text) of a bias report file; text is None for a missing path.

    A two-party or multi-party report with drawn forcing probabilities,
    left valid, given a field of the wrong type, given a NaN, infinite or
    out-of-range probability, or cut short into malformed JSON.
    """
    n, m = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    unit = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.9, max_value=1.0))
    report = {
        "n_outcomes": n,
        "n_parties": m,
        "force_probs": draw(st.lists(st.lists(unit, min_size=n, max_size=n), min_size=m, max_size=m)),
        "honest_probs": [1.0 / n] * n,
    }
    kind = draw(st.sampled_from(["valid", "wrong type", "bad probability", "malformed", "missing"]))
    if kind == "missing":
        return kind, None
    if kind == "wrong type":
        report[draw(st.sampled_from(sorted(report)))] = draw(st.one_of(
            st.none(), st.booleans(), st.text(max_size=3), st.floats(), st.integers(-3, 5),
            st.lists(st.one_of(st.text(max_size=2), st.integers(0, 1)), max_size=3),
            st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
        ))
    elif kind == "bad probability":
        row = draw(st.sampled_from([*report["force_probs"], report["honest_probs"]]))
        row[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [float("nan"), float("inf"), -float("inf"), -0.5, 1.5, -5e-324, 10**400]
        ))
    text = json.dumps(report)  # writes NaN and Infinity as Python's json reads them
    if kind == "malformed":  # a proper prefix of an object is never JSON
        text = text[: draw(st.integers(0, len(text) - 1))]
    return kind, text


def _no_constants(token):
    raise ValueError(f"non-JSON constant {token}")


class TestArgvProperty:
    # reproduce in each format, to stdout and to a file, besides the drawn argvs
    @example(argv=["--format", "json", "reproduce"], report=("missing", None))
    @example(argv=["--format", "table", "reproduce"], report=("missing", None))
    @example(argv=["reproduce", "--format", "csv"], report=("missing", None))
    @example(argv=["--output", _OUTPUT, "reproduce", "--format", "json"], report=("missing", None))
    @example(argv=["reproduce", "--format", "table", "--output", _OUTPUT], report=("missing", None))
    @example(argv=["--format", "csv", "--output", _OUTPUT, "reproduce"], report=("missing", None))
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(argv=_argv(), report=_report())
    def test_exit_code_json_and_no_traceback(self, argv, report):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path, report_path = Path(tmp) / "out", Path(tmp) / "report.json"
            if report[1] is not None:
                report_path.write_text(report[1])
            substitutes = {_OUTPUT: str(path), _REPORT: str(report_path)}
            argv = [substitutes.get(arg, arg) for arg in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            text, err = out.getvalue(), err.getvalue()
            if str(path) in argv:  # the results go to the file alone
                assert text == ""
                text = path.read_text() if path.exists() else ""
        assert code in (0, 1, 2)
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        if code != 1:
            assert text.endswith("\n")
        if text and fmt == "json":
            json.loads(text, parse_constant=_no_constants)
        elif text and fmt == "csv":
            header, *records = list(csv.reader(io.StringIO(text)))
            assert records and all(len(record) == len(header) for record in records)
        assert "Traceback" not in err
        if code == 2:  # a check failed: one line on stderr says which
            assert err.startswith("verification mismatch: ")
            assert err.count("\n") == 1
        if "bounds" in argv:
            self.check_bounds_contract(code, text, err, fmt)
        if any(x in ("nan", "inf", "-inf") for arg in argv for x in arg.split(",")):
            assert code == 1
        tol = argv[argv.index("--tol") + 1] if "--tol" in argv else "0"
        if tol.startswith("-") and tol != "-0.0":  # negative, or -nan / -inf
            assert code == 1

    @example(report=("valid", json.dumps({
        "n_outcomes": 3, "n_parties": 3, "force_probs": [[1.0] * 3] * 3, "honest_probs": [1 / 3] * 3,
    })), fmt="json")
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(report=_report(), fmt=st.sampled_from(["json", "table", "csv"]))
    def test_bounds_check_on_drawn_reports(self, report, fmt):
        kind, report_text = report
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            if report_text is not None:
                path.write_text(report_text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(["--format", fmt, "bounds", "--report", str(path)])
        self.check_bounds_contract(code, out.getvalue(), err.getvalue(), fmt)
        if kind in ("missing", "malformed", "bad probability"):
            assert code == 1
        elif kind == "valid":  # one outcome has no symmetric bound
            assert code in ((0, 2) if json.loads(report_text)["n_outcomes"] >= 2 else (1,))

    @staticmethod
    def check_bounds_contract(code, text, err, fmt):
        """A report that cannot be read or checked is one `error:` line and no
        output; a checked one is a full record, with one line saying which
        outcome fails when the bound does not hold."""
        assert code in (0, 1, 2) and "Traceback" not in err
        lines = err.splitlines()
        if code == 1:
            assert text == ""
            assert len([line for line in lines if line.startswith("error:")]) == 1
            return
        assert lines == [] if code == 0 else lines[0].startswith("verification mismatch: ") and len(lines) == 1
        assert text.endswith("\n")
        if fmt == "json":
            record = json.loads(text, parse_constant=_no_constants)
            assert record["all_pass"] is (code == 0)


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_byte_identical_reruns(self, capsys, fmt):
        argv = ["--format", fmt, "weak-cf", "--p", "0.3", "--eta", "0.1"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_reproduce_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "--seed", "3", "reproduce")
        _, second, _ = run_cli(capsys, "--seed", "3", "reproduce")
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ("weak-cf", "--p", "0.3", "--eta", "0.1"),
            ("six-round", "--variant", "case2"),
            ("weak-dr", "--n", "5", "--biases", "0.01,0.02,0,0.03"),
            ("strong-cf", "--p0", "0.3", "--eps", "0.05"),
            ("strong-dr", "--n", "7", "--delta", "0.01", "--target", "3"),
            ("multiparty", "--m", "2", "--n", "3"),
            ("three-party",),
            ("colbeck", "--n", "9"),
            ("bounds", "--report", _REPORT),
            ("reproduce",),
        ],
    )
    def test_no_subcommand_reads_the_seed(self, capsys, tmp_path, argv):
        # nothing is sampled, so --seed is accepted and changes nothing
        report = tmp_path / "report.json"
        report.write_text('{"n_outcomes": 2, "n_parties": 2, "force_probs": [[0.8, 0.8], [0.8, 0.8]], '
                          '"honest_probs": [0.5, 0.5]}')
        argv = [str(report) if arg == _REPORT else arg for arg in argv]
        outs = {run_cli(capsys, *seed, *argv) for seed in ((), ("--seed", "0"), ("--seed", "7"), ("--seed", "-3"))}
        assert len(outs) == 1
        assert next(iter(outs))[0] == 0


class TestGoldenReproduce:
    # tests/data/reproduce_seed0.* hold `qdice --seed 0 --format FMT reproduce`
    # stdout, recorded when the weak-DR row became the exact worst-case
    # check; performance work must keep every byte of it
    @pytest.mark.parametrize("fmt", ["json", "table", "csv"])
    def test_stdout_is_byte_identical_to_golden(self, capsys, fmt):
        code, out, err = run_cli(capsys, "--seed", "0", "--format", fmt, "reproduce")
        assert code == 0, err
        assert out.encode() == (GOLDEN_DIR / f"reproduce_seed0.{fmt}").read_bytes()


class TestGoldenExactCommands:
    # stdout of the exact Colbeck subcommand, recorded before its Fraction
    # kernel was rewritten on integer chain products; of six-round and the
    # three-party example, recorded before the shared exact-root kernel and
    # the inlined n = 1 family record; and of strong-dr, weak-dr and
    # multiparty, recorded when their records came to state the leaf
    # probability, the honest probability and the stage rule once; of weak-cf
    # (then the `oracle` subcommand) and strong-cf, recorded before their
    # records came to be laid out in the cli alone
    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("strong-dr", "--n", "37", "--delta", "0.01", "--target", "5"), "strong_dr_n37_delta0.01_target5.json"),
            (("weak-dr", "--n", "12"), "weak_dr_n12.json"),
            (("colbeck", "--n", "9"), "colbeck_n9.json"),
            *(
                (("--format", fmt, "six-round", "--variant", variant), f"six_round_{variant}.{fmt}")
                for variant in ("case1", "case2")
                for fmt in ("json", "table", "csv")
            ),
            (("three-party",), "three_party.json"),
            # each in every format: the table and csv cells share one formatter
            *(
                (("--format", fmt, *argv), f"{stem}.{fmt}")
                for argv, stem in (
                    (("multiparty", "--m", "2", "--n", "3"), "multiparty_m2_n3"),
                    # an explicit zero bias is the default's record
                    (("multiparty", "--m", "2", "--n", "3", "--eps-bar", "0"), "multiparty_m2_n3"),
                    (("multiparty", "--m", "3", "--n", "4"), "multiparty_m3_n4"),
                    (
                        ("strong-dr", "--n", "7", "--delta", "0.01", "--target", "3"),
                        "strong_dr_n7_delta0.01_target3",
                    ),
                    (("weak-cf", "--p", "0.3", "--eta", "0.1"), "weak_cf_p0.3_eta0.1"),
                    (("strong-cf", "--p0", "0.3", "--eps", "0.05"), "strong_cf_p0.3_eps0.05"),
                )
                for fmt in ("json", "table", "csv")
            ),
        ],
    )
    def test_stdout_is_byte_identical_to_golden(self, capsys, argv, golden):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out.encode() == (GOLDEN_DIR / golden).read_bytes()


class TestSixRoundWork:
    def test_one_maximization_per_run(self, capsys, monkeypatch):
        # solve's one search serves its cross-check, its certificate and its
        # losing probabilities; the command reuses those instead of a second
        calls = []
        maximize = optimize.maximize_unimodal

        def counting(*args, **kwargs):
            calls.append(args)
            return maximize(*args, **kwargs)

        # sixround_dr reaches the maximizer only through weak_cf
        assert not hasattr(sixround_dr, "maximize_unimodal")
        for module in (optimize, weak_cf):
            monkeypatch.setattr(module, "maximize_unimodal", counting)
        code, out, err = run_cli(capsys, "six-round", "--variant", "case1")
        assert code == 0, err
        # each one takes the objective alone
        assert [len(args) for args in calls] == [1]
        assert out.encode() == (GOLDEN_DIR / "six_round_case1.json").read_bytes()

    def test_two_maximizations_of_63_evaluations_per_reproduce(self, capsys, monkeypatch):
        # one per six-round variant, in its solve; the other rows make none
        probes = []
        maximize = optimize.maximize_unimodal

        def counting(f):
            seen = []
            probes.append(seen)
            return maximize(lambda x: seen.append(x) or f(x))

        for module in (optimize, weak_cf):
            monkeypatch.setattr(module, "maximize_unimodal", counting)
        code, out, err = run_cli(capsys, "reproduce")
        assert code == 0, err
        assert [len(seen) for seen in probes] == [63] * 2
        assert out.encode() == (GOLDEN_DIR / "reproduce_seed0.json").read_bytes()


class TestStrongCFWork:
    def test_one_honest_probability_per_run(self, capsys, monkeypatch):
        # the record prints the honest P0 once, and computes it once
        calls = []
        honest_prob = strong_cf.honest_prob

        def counting(params):
            calls.append(params)
            return honest_prob(params)

        monkeypatch.setattr(strong_cf, "honest_prob", counting)
        code, out, err = run_cli(capsys, "strong-cf", "--p0", "0.3", "--eps", "0.05")
        assert code == 0, err
        assert len(calls) == 1
        assert out.encode() == (GOLDEN_DIR / "strong_cf_p0.3_eps0.05.json").read_bytes()


class TestMalformedBiasReport:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("{}", "lacks n_outcomes"),
            ('{"n_outcomes": 2, "n_parties": 2, "force_probs": 5, "honest_probs": [0.5, 0.5]}', "must be lists"),
            ("[1, 2]", "must be a JSON object"),
            ('{"n_outcomes": 2.9, "n_parties": 2, "force_probs": [[0.8, 0.8], [0.8, 0.8]], '
             '"honest_probs": [0.5, 0.5]}', "must be integers"),
            ('{"n_outcomes": 2, "n_parties": 2, "force_probs": [[true, 0.8], [0.8, "0.8"]], '
             '"honest_probs": [0.5, 0.5]}', "must be numbers"),
            ('{"n_outcomes": 2, "n_parties": 2, "force_probs": [[0.8, 0.8], [0.8, 0.8]], '
             '"honest_probs": [NaN, 0.5]}', "honest probabilities must lie in [0, 1]"),
            ('{"n_outcomes": 2, "n_parties": 2, "force_probs": [[0.8, 0.8], [0.8, 0.8]], '
             '"honest_probs": [1.5, -0.5]}', "honest probabilities must lie in [0, 1]"),
            ('{"n_outcomes": 2, "n_parties": 2, "force_probs": [[1' + "0" * 400 + ', 0.8], [0.8, 0.8]], '
             '"honest_probs": [0.5, 0.5]}', "past the float range"),
            ("[" * 100_000 + "]" * 100_000, "nests too deeply"),
        ],
    )
    def test_exits_one_without_a_traceback(self, capsys, tmp_path, text, message):
        path = tmp_path / "report.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "bounds", "--report", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


class TestModuleEntryPoint:
    def test_python_dash_m_reproduce_matches_golden(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "qdice", "--seed", "0", "reproduce"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == (GOLDEN_DIR / "reproduce_seed0.json").read_bytes()


class TestParserReuse:
    """One parser serves every `run` in a process; no argv leaks into the next."""

    def test_parser_is_built_once(self):
        assert cli._shared_parser() is cli._shared_parser()
        assert cli.build_parser() is not cli._shared_parser()

    def test_format_does_not_leak(self, capsys):
        golden = (GOLDEN_DIR / "reproduce_seed0.json").read_bytes()
        for first in (["--format", "table", "reproduce"], ["reproduce", "--format", "csv"]):
            code, out, _ = run_cli(capsys, *first)
            assert code == 0 and not out.startswith("{")
            code, out, _ = run_cli(capsys, "reproduce")
            assert code == 0 and out.encode() == golden

    def test_tol_does_not_leak(self, capsys):
        golden = (GOLDEN_DIR / "six_round_case2.json").read_bytes()
        command = ["six-round", "--variant", "case2"]
        for first in (["--tol", "0", *command], [*command, "--tol", "0"]):
            assert run_cli(capsys, *first)[0] == 2
            code, out, err = run_cli(capsys, *command)
            assert code == 0 and err == "" and out.encode() == golden
