"""Command-line front end.

Results go to stdout in the chosen format (table, json, or csv);
diagnostics go to stderr. Exit codes: 0 on success, 1 on invalid
arguments, 2 when a check fails, with a one-line reason on stderr. When a
subcommand's own comparison or a reproduction row fails its tolerance,
the full record is still written first; when a library cross-check raises
CrossCheckError, there is no record and nothing goes to stdout. Output is
deterministic for a fixed argv and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import takewhile
from math import isfinite, prod

from . import bounds, colbeck_dr, multiparty, reproduce, sixround_dr, strong_cf, strong_dr, weak_cf, weak_dr
from .errors import CrossCheckError, QdiceError

USAGE_EXIT = 1
MISMATCH_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract here is 1."""

    commands: tuple[str, ...] = ()  # the subcommand names, set on the top-level parser

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type: a finite float that is not negative."""
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text!r}")
    return value


def _finite_floats(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated finite floats; empty text gives ()."""
    return tuple(_finite_float(item) for item in text.split(",")) if text else ()


def _fmt(x, spec: str) -> str:
    """One table or csv cell: a float by `spec` (never a bool, which is an
    int), a dict or list as compact JSON, anything else by str."""
    if isinstance(x, float):
        return format(x, spec)
    if isinstance(x, (dict, list)):
        return json.dumps(x, separators=(",", ":"))
    return str(x)


def _emit_record(record: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(record, out, indent=2, allow_nan=False)
        out.write("\n")
    elif fmt == "csv":
        _emit_rows([record], "csv", out)
    else:
        for key, value in record.items():
            out.write(f"{key} = {_fmt(value, '.6g')}\n")


# Encodes a list of flat rows with each key laid out as `json.dumps(...,
# indent=2)` lays it out at depth 3.
# Without an indent the encoder may use its C implementation.
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False)


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    """Write reproduction rows as json, csv or an aligned table.

    The json text is byte for byte `json.dumps({"rows": rows, "all_pass":
    ...}, indent=2, allow_nan=False)` plus a newline. rows must be a
    non-empty list of non-empty flat dicts (as `reproduce._row` builds and
    the reproduce schema requires), so all rows are encoded in one
    `_ROW_ENCODER` call and only the fixed frame is written around them.
    That call separates the rows by `},`, a newline, six spaces and `{`,
    which occur together nowhere else: a flat row's values hold no brace
    outside a string, and JSON escapes every newline inside one. Each such
    boundary is re-indented to the depth-2 layout. A NaN or inf raises
    ValueError before anything is written. The csv and table cells are
    `_fmt`'s, which writes a nested value as compact JSON, so one record
    with nested values is a valid csv row list too.
    """
    if fmt == "json":
        body = _ROW_ENCODER.encode(rows)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        all_pass = "true" if all(r["passed"] for r in rows) else "false"
        out.write(f'{{\n  "rows": [\n    {{\n      {body}\n    }}\n  ],\n  "all_pass": {all_pass}\n}}\n')
        return
    columns = list(rows[0].keys())
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt(r[c], ".15g") for c in columns])
        return
    cells = [[_fmt(r[c], ".6g") for c in columns] for r in rows]
    widths = [max(len(col), *(len(row[i]) for row in cells)) for i, col in enumerate(columns)]
    out.write("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)).rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in cells:
        out.write("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))).rstrip() + "\n")


def _all_equal(values: list, value) -> bool:
    """Whether the list is non-empty and every entry equals value. list.count
    tries identity before ==, so a list that repeats one object, as
    `honest_leaf_probs` and `honest_distribution` do for equal values, is
    checked in C."""
    return bool(values) and values[0] == value and values.count(values[0]) == len(values)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (record dict | rows list, mismatch),
# where mismatch is None or the one-line reason a check failed (exit 2)
# ---------------------------------------------------------------------------

def _cmd_weak_cf(args) -> tuple[dict, str | None]:
    params = weak_cf.WeakCFParams(args.p, args.eta)
    oracle = weak_cf.alice_cheat_oracle(params)
    closed = weak_cf.alice_opt_cheat(params)
    diff = abs(oracle.p_alice_star - closed.p_alice_star)
    record = {
        "p": params.p,
        "eta": params.eta,
        "p_alice_star": oracle.p_alice_star,
        "p_bob_star": weak_cf.bob_opt_cheat(params),
        "delta_star": oracle.delta_star,
        "method": "oracle",
        "closed_form": closed.p_alice_star,
        "abs_diff": diff,
        "maximizer_alphas": list(oracle.maximizer_alphas),
    }
    # the value, then the split delta*: the oracle's maximizer against B/(A+B)
    routes = {"": (oracle.p_alice_star, closed.p_alice_star), " split": (oracle.delta_star, closed.delta_star)}
    for what, (ours, theirs) in routes.items():
        gap = abs(ours - theirs)
        if not gap <= args.tol:  # fails closed on NaN
            return record, (
                f"oracle{what} {ours!r} and closed form{what} {theirs!r} differ by {gap!r} > --tol {args.tol!r}"
            )
    return record, None


def _cmd_six_round(args) -> tuple[dict, str | None]:
    solution = sixround_dr.solve(args.variant)
    pa, pb, pc = solution.losing_probs
    record = {
        "variant": args.variant,
        "eta_star": solution.eta_star,
        "p_bar_star": solution.p_bar_star,
        "bias": solution.bias,
        "constraint_residual": solution.constraint_residual,
        "losing_prob_alice": pa,
        "losing_prob_bob": pb,
        "losing_prob_claire": pc,
    }
    if abs(pa - pc) <= args.tol:
        return record, None
    return record, f"losing probabilities of Alice {pa!r} and Claire {pc!r} differ by more than --tol {args.tol!r}"


def _cmd_weak_dr(args) -> tuple[dict, str | None]:
    honest = weak_dr.honest_distribution(args.n)  # checks n before the default biases are built
    spec = weak_dr.TournamentSpec(args.n, (0.0,) * (args.n - 1) if args.biases is None else args.biases)
    losing, check = weak_dr.checked_losing_prob(spec, args.party)
    prob = honest[args.party - 1]  # the party is checked by checked_losing_prob
    record = {
        "n_parties": spec.n_parties,
        "stage_biases": list(spec.stage_biases),
        "honest_party": args.party,
        "honest_prob": float(prob),
        "honest_prob_exact": f"{prob.numerator}/{prob.denominator}",
        "max_losing_prob": losing,
        "eps_bar": check.eps_bar,
        "bound": check.bound,
        "holds": check.holds,
    }
    if not _all_equal(honest, Fraction(1, args.n)):
        return record, f"honest probabilities are not all 1/{args.n}"
    if check.holds:
        return record, None
    return record, f"party {args.party}: eps_bar {check.eps_bar!r} is not below the bound {check.bound!r}"


def _cmd_strong_cf(args) -> tuple[dict, str | None]:
    params = strong_cf.solve_params(args.p0, eps=args.eps)
    report = strong_cf.cheat_probs(params)
    honest = report.honest_p0
    roundtrip = abs(honest - args.p0)
    record = {
        "params": {
            "q": params.q,
            "z0": params.z0,
            "z1": params.z1,
            "p0": params.pp0,
            "p1": params.pp1,
            "eps": params.eps,
        },
        "p0_honest": honest,
        "pa0": report.pa0,
        "qa0": report.qa0,
        "pa1": report.pa1,
        "qa1": report.qa1,
        "pb0": report.pb0,
        "pb1": report.pb1,
        "kitaev_products": list(report.kitaev_products),
        "honest_roundtrip_error": roundtrip,
    }
    if roundtrip <= 1e-12:
        return record, None
    return record, f"honest P0 round trip error {roundtrip!r} > 1e-12"


def _cmd_strong_dr(args) -> tuple[dict, str | None]:
    tree = strong_dr.build_tree(args.n)
    forcing = strong_dr.adversary_success(tree, args.target, args.delta)  # checks delta, then the target
    leaves = strong_dr.honest_leaf_probs(tree)
    leaf = leaves[args.target - 1]
    path = strong_dr.path_to(tree, args.target)
    record = {
        "n": args.n,
        "target": args.target,
        "delta": args.delta,
        "adversary_success": forcing,
        "leaf_prob": float(leaf),
        "leaf_prob_exact": f"{leaf.numerator}/{leaf.denominator}",
        "path": [{"num": edge.numerator, "den": edge.denominator} for edge in path],
        "depth": strong_dr.depth(tree),
    }
    if not _all_equal(leaves, Fraction(1, args.n)):
        return record, f"honest leaf probabilities are not all 1/{args.n}"
    if prod(path) != leaf:
        return record, f"the path's edge product {prod(path)} differs from the leaf probability {leaf}"
    # claim (ii): the forcing probability at delta 0 saturates Kitaev's (1/N)^(1/2)
    honest_forcing = strong_dr.adversary_success(tree, args.target, 0.0)
    bound = bounds.symmetric_min(args.n, 2)
    if abs(honest_forcing - bound) <= 1e-12:
        return record, None
    return record, (
        f"forcing probability {honest_forcing!r} at delta 0 misses the symmetric bound {bound!r} by more than 1e-12"
    )


def _cmd_multiparty(args) -> tuple[dict, str | None]:
    protocol = multiparty.build_pairing(args.m, args.n)
    prob = multiparty.honest_outcome_prob(protocol)
    value = multiparty.coalition_force_prob(protocol, args.eps_bar)
    bound = bounds.symmetric_min(protocol.n_outcomes, protocol.n_parties)
    record = {
        "m": protocol.m,
        "n": protocol.n,
        "n_parties": protocol.n_parties,
        "n_outcomes": protocol.n_outcomes,
        "honest_prob_exact": f"{prob.numerator}/{prob.denominator}",
        "coalition_force_prob": value,
        "symmetric_bound": bound,
    }
    if args.eps_bar != 0.0 or abs(value - bound) <= 1e-12:
        return record, None
    return record, f"coalition force probability {value!r} misses the symmetric bound {bound!r} by more than 1e-12"


def _cmd_three_party(args) -> tuple[dict, str | None]:
    value, bound = multiparty.three_party_example_bias()
    record = {
        "protocol": "three-party three-sided example",
        "coalition_value": value,
        "kitaev_bound": bound,
        "abs_gap": value - bound,
    }
    if value >= bound:
        return record, None
    return record, f"coalition value {value!r} is below the Kitaev bound {bound!r}"


def _cmd_colbeck(args) -> tuple[dict, str | None]:
    pa, pb = colbeck_dr.cheat_probs(args.n)
    oracle = colbeck_dr.bob_cheat_oracle(args.n)
    record = {
        "n": args.n,
        "pa": float(pa),
        "pb": float(pb),
        "pa_exact": f"{pa.numerator}/{pa.denominator}",
        "pb_exact": f"{pb.numerator}/{pb.denominator}",
        "bob_oracle_exact": f"{oracle.numerator}/{oracle.denominator}",
        "oracle_matches": oracle == pb,
        "kitaev_product_times_n": float(args.n * pa * pb),
    }
    if record["oracle_matches"]:
        return record, None
    return record, f"Bob's enumeration oracle {record['bob_oracle_exact']} differs from {record['pb_exact']}"


def _cmd_bounds(args) -> tuple[dict, str | None]:
    with open(args.report) as fh:
        try:
            decoded = json.load(fh)
        except RecursionError:  # json's C decoder recurses once per nesting level
            raise ValueError("the report nests too deeply to decode") from None
    report = bounds.BiasReport.from_json_dict(decoded)
    if report.n_parties == 2:
        per_outcome = bounds.kitaev_two_party(report, tol=args.tol)
        which = "kitaev_two_party"
    else:
        per_outcome = bounds.kitaev_multi(report, tol=args.tol)
        which = "kitaev_multi"
    record = {
        "check": which,
        "n_outcomes": report.n_outcomes,
        "n_parties": report.n_parties,
        "per_outcome": per_outcome,
        "all_pass": all(per_outcome),
        "symmetric_min": bounds.symmetric_min(report.n_outcomes, report.n_parties),
    }
    if record["all_pass"]:
        return record, None
    failed = [i for i, ok in enumerate(per_outcome) if not ok]
    return record, f"{which} fails at outcome index {failed}"


def _cmd_reproduce(args) -> tuple[list[dict], str | None]:
    rows = reproduce.build_rows()
    failed = [r["quantity"] for r in rows if not r["passed"]]
    if not failed:
        return rows, None
    return rows, f"{len(failed)} of {len(rows)} rows fail their tolerance: {'; '.join(failed)}"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """The flags every subcommand shares. Copies given after the subcommand
    suppress their defaults, so they never overwrite one given before it."""

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--tol", type=_tolerance, default=default(1e-9), help="cross-check tolerance")
    parser.add_argument("--seed", type=int, default=default(0), help="accepted; no subcommand reads it")
    parser.add_argument(
        "--format", dest="fmt", choices=("table", "json", "csv"), default=default("json")
    )
    parser.add_argument("--output", default=default(None), help="write results here instead of stdout")


@cache
def _global_flags() -> argparse.ArgumentParser:
    """The shared flags alone, with suppressed defaults: the parent of every
    subcommand's parser, and what `run` reads a failed argv's prefix with."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    _add_global_flags(parser, suppress=True)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The qdice parser. Its top level raises argparse.ArgumentError rather
    than exiting, so that `run` can name an unknown leading option."""
    parser = _Parser(prog="qdice", description=__doc__, exit_on_error=False)
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help, parents=[_global_flags()])

    p = command("weak-cf", help="three-round weak imbalanced CF: exact adversary oracle vs closed form")
    p.add_argument("--p", type=_finite_float, required=True)
    p.add_argument("--eta", type=_finite_float, required=True)
    p.set_defaults(handler=_cmd_weak_cf)

    p = command("six-round", help="six-round weak three-sided DR solution")
    p.add_argument("--variant", choices=("case1", "case2"), default="case1")
    p.set_defaults(handler=_cmd_six_round)

    p = command("weak-dr", help="weak DR tournament losing probability and bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--biases", type=_finite_floats, default=None, help="comma-separated stage biases")
    p.add_argument("--party", type=int, default=1)
    p.set_defaults(handler=_cmd_weak_dr)

    p = command("strong-cf", help="optimal strong imbalanced CF parameters and cheats")
    p.add_argument("--p0", type=_finite_float, required=True)
    p.add_argument("--eps", type=_finite_float, default=0.0)
    p.set_defaults(handler=_cmd_strong_cf)

    p = command("strong-dr", help="recursive-bisection strong N-sided DR")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=_finite_float, default=0.0)
    p.add_argument("--target", type=int, default=1)
    p.set_defaults(handler=_cmd_strong_dr)

    p = command("multiparty", help="2m-party n^m-sided pairing protocol")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps-bar", type=_finite_float, default=0.0)
    p.set_defaults(handler=_cmd_multiparty)

    p = command("three-party", help="three-party three-sided example")
    p.set_defaults(handler=_cmd_three_party)

    p = command("colbeck", help="three-round entanglement-based strong DR")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_colbeck)

    p = command("bounds", help="check a bias report against the product bounds")
    p.add_argument("--report", required=True, help="path to a BiasReport JSON file")
    p.set_defaults(handler=_cmd_bounds)

    p = command("reproduce", help="recompute headline numbers as one table")
    p.set_defaults(handler=_cmd_reproduce)

    parser.commands = tuple(sub.choices)
    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every `run` in this process uses: built once, since
    parse_args keeps no state between calls."""
    return build_parser()


def _top_level_error(parser: _Parser, exc: argparse.ArgumentError, argv: list[str]) -> str:
    """argparse's message, except for an unknown option before the subcommand.

    argparse sets such an option aside and reads its value as the subcommand,
    so `--grid 5 weak-cf` reads as the invalid choice '5'. Here the tokens
    that the shared flags leave over before the subcommand are named instead.
    """
    if exc.argument_name == "command":
        try:
            extras = _global_flags().parse_known_args(argv)[1]
        except argparse.ArgumentError:
            return str(exc)
        leading = list(takewhile(lambda arg: arg not in parser.commands, extras))
        if leading and leading[0].startswith("-"):
            return f"unrecognized arguments: {' '.join(leading)}"
    return str(exc)


def run(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = parser.parse_args(argv)
        except argparse.ArgumentError as exc:
            parser.error(_top_level_error(parser, exc, argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        result, mismatch = args.handler(args)
        buf = io.StringIO()
        if isinstance(result, list):
            _emit_rows(result, args.fmt, buf)
        else:
            _emit_record(result, args.fmt, buf)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(buf.getvalue())
        else:
            sys.stdout.write(buf.getvalue())
    except CrossCheckError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return MISMATCH_EXIT
    except (QdiceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if mismatch is not None:
        print(f"verification mismatch: {mismatch}", file=sys.stderr)
        return MISMATCH_EXIT
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
