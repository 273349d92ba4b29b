"""The benchmark's seeded workloads: input generation, one operation, and its checks.

Each workload turns the workload seed into one *pass*: a fixed list of
operation inputs built from plain Python values. The harness cycles over the
pass, so a run of any length executes the same operations in the same order,
and a traced run made of whole passes repeats its counts exactly.

`op(x)` is the only code the harness times. It calls qdice's public
functions and returns everything `check` needs, so `check` never calls back
into qdice. `check(pos, x, out)` returns None when the output is correct and
a one-line reason when it is not; `final()` adds the run-level checks that
need many operations (sampled win frequencies).
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from qdice import bounds, cli, colbeck_dr, multiparty, strong_cf, strong_dr, weak_cf, weak_dr

SEED_SPACE = 2**31 - 1


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _spread(rng: np.random.Generator, lo: int, hi: int, count: int) -> list[int]:
    """`count` integers covering [lo, hi] evenly, each drawn within its own stratum, in seeded order.

    Stratified draws give every seed nearly the same mix of problem sizes,
    so the cost of a pass does not depend on the seed.
    """
    width = (hi - lo + 1) / count
    xs = [lo + int((k + rng.uniform()) * width) for k in range(count)]
    rng.shuffle(xs)
    return xs


def _p_eta(rng: np.random.Generator) -> tuple[float, float]:
    """(p, eta) from the `weak_cf.param_grid` region: p in [0.08, 0.92], eta <= 0.95(1-p)."""
    p = float(rng.uniform(0.08, 0.92))
    return p, float(rng.uniform(0.0, 0.95 * (1.0 - p)))


class Reproduce:
    """The paper's headline pass: `qdice --seed s reproduce`, run in process."""

    name = "reproduce"
    pass_size = 2  # one drawn seed, run twice so every pass checks byte-identical output

    def __init__(self):
        self.outputs: dict[int, str] = {}

    def inputs(self, seed: int) -> list[int]:
        return [int(_rng(seed).integers(0, SEED_SPACE))] * self.pass_size

    def op(self, s: int):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.run(["--seed", str(s), "reproduce"])
        return code, buf.getvalue()

    def check(self, pos: int, s: int, out) -> str | None:
        code, text = out
        if code != 0:
            return f"seed {s}: exit code {code}"
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"seed {s}: stdout is not JSON ({exc})"
        rows = doc.get("rows", [])
        failing = [r["quantity"] for r in rows if not r["passed"]]
        if len(rows) != 13 or failing or doc.get("all_pass") is not True:
            return f"seed {s}: {len(rows)} rows, failing {failing}"
        first = self.outputs.setdefault(s, text)
        if text != first:
            return f"seed {s}: stdout differs from an earlier run with the same seed"
        return None

    def final(self) -> list[str]:
        return []


class OracleGrid:
    """Brute-force adversary oracle next to the closed form it checks."""

    name = "oracle-grid"
    pass_size = 15
    # Two ops at the acceptance suite's resolution for one at the CLI default,
    # so the median falls inside the r = 24 mode instead of between the modes.
    resolutions = (24, 24, 60)

    def inputs(self, seed: int) -> list[tuple[float, float, int]]:
        rng = _rng(seed)
        return [
            (*_p_eta(rng), self.resolutions[i % len(self.resolutions)])
            for i in range(self.pass_size)
        ]

    def op(self, x):
        p, eta, r = x
        params = weak_cf.WeakCFParams(p, eta)
        return weak_cf.alice_cheat_oracle(params, r), weak_cf.alice_opt_cheat(params)

    def check(self, pos: int, x, out) -> str | None:
        oracle, closed = out
        diff = abs(oracle.p_alice_star - closed.p_alice_star)
        a_uu, a_dd = oracle.maximizer_alphas[2], oracle.maximizer_alphas[3]
        if diff > 1e-4 or a_uu**2 >= 1e-6 or a_dd**2 >= 1e-6:
            return f"(p, eta, r) = {x}: |oracle - closed| = {diff:.3g}, a_uu = {a_uu:.3g}, a_dd = {a_dd:.3g}"
        return None

    def final(self) -> list[str]:
        return []


class HonestSim:
    """Seeded honest executions through the `quantum_core` state-vector simulator."""

    name = "honest-sim"
    pass_size = 1500
    sigmas = 4.0

    def __init__(self):
        self.weak_bob_wins: dict[int, tuple[float, bool]] = {}
        self.colbeck_ones: dict[int, tuple[int, bool]] = {}

    def inputs(self, seed: int) -> list[tuple]:
        # Two weak-CF runs for each Colbeck run, so the median op is a weak-CF run.
        rng = _rng(seed)
        colbeck_n = iter(_spread(rng, 2, 16, self.pass_size // 3))
        xs = []
        for i in range(self.pass_size):
            if i % 3 == 2:
                xs.append(("colbeck", next(colbeck_n), int(rng.integers(0, SEED_SPACE))))
            else:
                xs.append(("weak", *_p_eta(rng), int(rng.integers(0, SEED_SPACE))))
        return xs

    def op(self, x):
        if x[0] == "weak":
            _, p, eta, s = x
            return weak_cf.honest_run(weak_cf.WeakCFParams(p, eta), s)
        _, n, s = x
        return colbeck_dr.honest_run(n, s)

    def check(self, pos: int, x, out) -> str | None:
        result, tr = out
        if abs(tr["verification_probability"] - 1.0) > 1e-9:
            return f"{x}: verification probability {tr['verification_probability']!r}"
        if x[0] == "weak":
            if result not in ("alice", "bob") or abs(tr["bob_win_probability"] - x[1]) > 1e-9:
                return f"{x}: winner {result!r}, bob win probability {tr['bob_win_probability']!r}"
            self.weak_bob_wins.setdefault(pos, (x[1], result == "bob"))
            return None
        n = x[1]
        if not 1 <= result <= n or tr["alice_index"] != tr["bob_index"]:
            return f"{x}: outcome {result}, indices {tr['alice_index']} / {tr['bob_index']}"
        if abs(tr["bob_agree_probability"] - 1.0) > 1e-9:
            return f"{x}: parties agree with probability {tr['bob_agree_probability']!r}"
        self.colbeck_ones.setdefault(pos, (n, result == 1))
        return None

    def final(self) -> list[str]:
        """Counted once per distinct input: within `sigmas` standard deviations of p or 1/N."""
        failures = []
        for label, samples in (
            ("weak-CF Bob wins", list(self.weak_bob_wins.values())),
            ("Colbeck outcome 1", [(1.0 / n, hit) for n, hit in self.colbeck_ones.values()]),
        ):
            mean = sum(q for q, _ in samples)
            sd = math.sqrt(sum(q * (1.0 - q) for q, _ in samples))
            hits = sum(hit for _, hit in samples)
            if abs(hits - mean) > self.sigmas * sd:
                failures.append(
                    f"{label}: {hits} of {len(samples)}, expected {mean:.1f} +- {sd:.1f}"
                )
        return failures


class ExactSweep:
    """The exact-rational and closed-form modules, one seeded case per op."""

    name = "exact-sweep"
    pass_size = 500
    kinds = ("weak_dr", "strong_dr", "strong_cf", "colbeck", "multiparty")

    def inputs(self, seed: int) -> list[tuple]:
        rng = _rng(seed)
        per_kind = self.pass_size // len(self.kinds)
        weak_n = _spread(rng, 2, 32, per_kind)
        tree_n = _spread(rng, 2, 256, per_kind)
        colbeck_n = _spread(rng, 2, 100, per_kind)
        pairings = [(m, n) for m in (1, 2, 3) for n in range(2, 7)]
        pairing = [pairings[k] for k in _spread(rng, 0, len(pairings) - 1, per_kind)]
        xs = []
        for i in range(per_kind):
            n = weak_n[i]
            xs.append(("weak_dr", n, tuple(float(b) for b in rng.uniform(0.0, 1.0 / (2 * n), size=n - 1))))
            n = tree_n[i]
            xs.append(("strong_dr", n, int(rng.integers(1, n + 1)), float(rng.uniform(0.0, 0.1))))
            xs.append(("strong_cf", float(rng.uniform(0.01, 0.99))))
            xs.append(("colbeck", colbeck_n[i]))
            xs.append(("multiparty", *pairing[i]))
        return xs

    def op(self, x):
        kind = x[0]
        if kind == "weak_dr":
            _, n, biases = x
            spec = weak_dr.TournamentSpec(n, biases)
            checks = [weak_dr.bias_bound_check(spec, k) for k in range(1, n + 1)]
            return checks, weak_dr.honest_distribution(n)
        if kind == "strong_dr":
            _, n, target, delta = x
            tree = strong_dr.build_tree(n)
            return (
                strong_dr.honest_leaf_probs(tree),
                strong_dr.path_to(tree, target),
                strong_dr.adversary_success(tree, target, 0.0),
                strong_dr.adversary_success(tree, target, delta),
                strong_dr.depth(tree),
            )
        if kind == "strong_cf":
            p0 = x[1]
            rep = strong_cf.cheat_probs(strong_cf.solve_params(p0))
            report = bounds.BiasReport(
                n_outcomes=2,
                n_parties=2,
                force_probs=((rep.alice_force_0, rep.alice_force_1), (rep.pb0, rep.pb1)),
                honest_probs=(p0, 1.0 - p0),
            )
            return rep, bounds.kitaev_two_party(report)
        if kind == "colbeck":
            n = x[1]
            return colbeck_dr.bob_cheat_oracle(n), colbeck_dr.cheat_probs(n)
        _, m, n = x
        protocol = multiparty.build_pairing(m, n)
        probs = multiparty.honest_outcome_probs(protocol)
        force = multiparty.coalition_force_prob(protocol)
        report = bounds.BiasReport(
            n_outcomes=protocol.n_outcomes,
            n_parties=protocol.n_parties,
            force_probs=((force,) * protocol.n_outcomes,) * protocol.n_parties,
            honest_probs=tuple(probs),
        )
        return probs, bounds.kitaev_multi(report)

    def check(self, pos: int, x, out) -> str | None:
        kind = x[0]
        if kind == "weak_dr":
            checks, dist = out
            n = x[1]
            if not all(c.holds for c in checks) or dist != [Fraction(1, n)] * n:
                return f"{x[:2]}: bound holds {[c.holds for c in checks]}, honest {dist}"
        elif kind == "strong_dr":
            leaves, path, forced, forced_delta, tree_depth = out
            n = x[1]
            path_prob = math.prod(path, start=Fraction(1))
            if (
                leaves != [Fraction(1, n)] * n
                or path_prob != Fraction(1, n)
                or abs(forced - n**-0.5) > 1e-12
                or forced_delta < forced
                or tree_depth != (n - 1).bit_length()
            ):
                return f"{x}: path {path_prob}, forced {forced!r} / {forced_delta!r}, depth {tree_depth}"
        elif kind == "strong_cf":
            rep, holds = out
            p0 = x[1]
            products = rep.kitaev_products
            if (
                not all(holds)
                or abs(rep.honest_p0 - p0) > 1e-12
                or abs(products[0] - p0) > 1e-12
                or abs(products[1] - (1.0 - p0)) > 1e-12
            ):
                return f"{x}: honest {rep.honest_p0!r}, products {products}, bound holds {holds}"
        elif kind == "colbeck":
            oracle, (pa, pb) = out
            n = x[1]
            if oracle != pb or pa != Fraction(n + 1, 2 * n):
                return f"{x}: oracle {oracle}, closed forms {pa}, {pb}"
        else:
            probs, holds = out
            n_outcomes = x[2] ** x[1]
            if probs != [Fraction(1, n_outcomes)] * n_outcomes or not all(holds):
                return f"{x}: honest {set(probs)}, bound holds {set(holds)}"
        return None

    def final(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Reproduce, OracleGrid, HonestSim, ExactSweep)}
