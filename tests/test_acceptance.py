"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s) and enforces
its runtime budget. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from conftest import param_grid
from qdice import (
    bounds,
    cli,
    colbeck_dr,
    multiparty,
    quantum_core,
    reproduce,
    sixround_dr,
    strong_cf,
    strong_dr,
    weak_cf,
    weak_dr,
)

S2 = sqrt(2.0)


def report(number: int, label: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.2f} s)")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_balanced_fair_point():
    t0 = time.perf_counter()
    eta = weak_cf.fair_eta_balanced()
    params = weak_cf.WeakCFParams(0.5, eta)
    alice = weak_cf.alice_opt_cheat(params)
    ok = (
        abs(eta - (S2 - 1) / 2) <= 1e-9
        and abs(alice.p_alice_star - 1 / S2) <= 1e-9
        and abs(weak_cf.bob_opt_cheat(params) - 1 / S2) <= 1e-9
    )
    elapsed = time.perf_counter() - t0
    report(1, "balanced fair point eta=(sqrt2-1)/2, P*=1/sqrt2 @1e-9", ok and elapsed < 1.0, elapsed)


def test_criterion_2_oracle_equivalence_grid():
    t0 = time.perf_counter()
    worst = 0.0
    alphas_ok = True
    for params in param_grid(10, 10):
        oracle = weak_cf.alice_cheat_oracle(params, grid_resolution=24)
        closed = weak_cf.alice_opt_cheat(params)
        worst = max(worst, abs(oracle.p_alice_star - closed.p_alice_star))
        _, _, a_uu, a_dd = oracle.maximizer_alphas
        alphas_ok = alphas_ok and a_uu**2 <= 1e-12 and a_dd**2 <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and alphas_ok and elapsed < 30.0
    report(2, f"oracle vs closed form on 10x10 grid, worst |diff|={worst:.2e} @1e-9", ok, elapsed)


def test_criterion_3_six_round_biases():
    t0 = time.perf_counter()
    case1 = sixround_dr.solve("case1")
    case2 = sixround_dr.solve("case2")
    ok = (
        abs(case1.bias - 0.181) <= 1e-3
        and abs(case1.p_bar_star - 0.848) <= 1e-3
        and abs(case2.bias - 0.199) <= 1e-3
    )
    elapsed = time.perf_counter() - t0
    report(3, "six-round biases 0.181 / 0.199, losing prob 0.848 @1e-3", ok and elapsed < 5.0, elapsed)


def test_criterion_4_strong_cf_sweep():
    t0 = time.perf_counter()
    eps = 1e-6
    ok = True
    for x in np.linspace(0.001, 0.999, 999):
        params = strong_cf.solve_params(x)
        in_range = all(0.0 <= v <= 1.0 for v in (params.q, params.z0, params.z1, params.pp0, params.pp1))
        roundtrip = abs(strong_cf.honest_prob(params) - x) <= 1e-12
        base = strong_cf.cheat_probs(params)
        products = base.kitaev_products
        saturated = abs(products[0] - x) <= 1e-12 and abs(products[1] - (1 - x)) <= 1e-12
        bumped = strong_cf.cheat_probs(strong_cf.solve_params(x, eps=eps))
        s0, s1 = sqrt(x), sqrt(1 - x)
        slopes = (
            abs((bumped.pa0 - base.pa0) / eps - s1) <= 1e-9
            and abs((bumped.pa1 - base.pa1) / eps - s0) <= 1e-9
            and abs((bumped.pb0 - base.pb0) / eps - (1 - s0 + s1) / 2) <= 1e-9
            and abs((bumped.pb1 - base.pb1) / eps - (1 + s0 - s1) / 2) <= 1e-9
        )
        ok = ok and in_range and roundtrip and saturated and slopes
    elapsed = time.perf_counter() - t0
    report(4, "strong CF sweep: range, roundtrip @1e-12, saturation @1e-12, slopes @1e-9",
           ok and elapsed < 5.0, elapsed)


def test_criterion_5_strong_dr_uniformity():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 65):
        tree = strong_dr.build_tree(n)
        ok = ok and strong_dr.honest_leaf_probs(tree) == [Fraction(1, n)] * n
        ok = ok and abs(strong_dr.adversary_success(tree, 1, 0.0) - 1 / sqrt(n)) <= 1e-12
    leftmost = Fraction(1)
    for edge in strong_dr.path_to(strong_dr.build_tree(5), 1):
        leftmost *= edge
    ok = ok and leftmost == Fraction(1, 5)
    elapsed = time.perf_counter() - t0
    report(5, "strong DR N in [2,64]: exact 1/N leaves, 1/sqrt(N) @1e-12, Fig-1 path",
           ok and elapsed < 2.0, elapsed)


def test_criterion_6_multiparty():
    t0 = time.perf_counter()
    ok = True
    for m, n in ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 5)):
        protocol = multiparty.build_pairing(m, n)
        value = multiparty.coalition_force_prob(protocol)
        target = (1.0 / protocol.n_outcomes) ** (1.0 / protocol.n_parties)
        ok = ok and abs(value - target) <= 1e-12
    value, bound = multiparty.three_party_example_bias()
    ok = ok and abs(value - 0.69363) <= 5e-6 and abs(bound - 0.69336) <= 5e-6
    elapsed = time.perf_counter() - t0
    report(6, "pairing saturates (1/N)^(1/M) @1e-12; example 0.69363/0.69336 @5e-6",
           ok and elapsed < 1.0, elapsed)


def test_criterion_7_colbeck():
    t0 = time.perf_counter()
    pa3, pb3 = colbeck_dr.cheat_probs(3)
    ok = pa3 == Fraction(2, 3) and pb3 == Fraction(5, 9)
    for n in range(2, 101):
        ok = ok and colbeck_dr.bob_cheat_oracle(n) == colbeck_dr.cheat_probs(n)[1]
    n_big = 10**6
    pa, pb = colbeck_dr.cheat_probs(n_big)
    ok = ok and abs(float(n_big * pa * pb) - 1.0) <= 0.01
    # the honest outcome is uniform: both halves of the simulated pair agree on
    # each i with probability 1/N
    for n in range(2, colbeck_dr.SIM_MAX_N + 1):
        pair = colbeck_dr.entangled_pair(n, "A", "B")
        for i in range(n):
            agree = quantum_core.basis_state((n, n), ("A", "B"), (i, i))
            ok = ok and abs(quantum_core.subspace_probability(pair, [agree]) - 1 / n) <= 1e-14
    elapsed = time.perf_counter() - t0
    report(7, "colbeck: N=3 exact, oracle N<=100 exact, limit @1%, pair uniform N<=16 @1e-14",
           ok and elapsed < 60.0, elapsed)


def test_criterion_8_tournament_bias_bound(random_tournament):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240809)
    ok = True
    for _ in range(1000):
        spec = random_tournament(rng, max_parties=10)
        n, delta_max = spec.n_parties, max(spec.stage_biases)
        denominator, numerators = weak_dr._worst_case_constants(n, weak_dr._harmonic_table(n))
        for party in range(1, n + 1):
            check = weak_dr.bias_bound_check(spec, party)
            # the float eps_bar stays within rounding of the exact worst case
            constant = float(Fraction(numerators[party - 1], denominator))
            ok = ok and check.holds and check.eps_bar <= constant * delta_max + 1e-15
    ok = ok and weak_dr.bound_property_sweep() == 1.0
    for n in range(2, 11):
        ok = ok and weak_dr.honest_distribution(n) == [Fraction(1, n)] * n
    elapsed = time.perf_counter() - t0
    report(8, "1000 random tournaments: eps_bar <= worst-case constant * delta_max < N*delta_max; "
           "exact uniform honest", ok and elapsed < 5.0, elapsed)


def test_criterion_9_reproduce():
    t0 = time.perf_counter()
    rows = reproduce.build_rows()
    again = reproduce.build_rows()
    ok = all(r["passed"] for r in rows)
    ok = ok and json.dumps(rows) == json.dumps(again)  # deterministic
    elapsed = time.perf_counter() - t0
    report(9, f"reproduce: {len(rows)} rows all pass, deterministic", ok and elapsed < 60.0, elapsed)


def test_exact_kernels_wall_budget():
    # on a 2-core Xeon each budget is over 10x the kernel's time (medians of
    # 9 calls: 2.4 ms, 24 ms, 0.14 ms, 0.5 ms and 17 ms, in order), while the
    # stagewise Fraction chain took 6.4 s for the first case, an unreduced
    # (num, den) suffix pair, growing like N!, 2.6 s for the second, a walk
    # over every tree node 39 ms for the fourth, and the generator pair
    # count 1.0 s for the last
    n_weak, n_weak_large, n_tree, n_colbeck = 2000, 20_000, 2**14, 3000
    n_cap = strong_dr.MAX_OUTCOMES
    cases = [
        ("weak_dr.honest_distribution", 0.5, lambda: weak_dr.honest_distribution(n_weak),
         [Fraction(1, n_weak)] * n_weak),
        ("weak_dr.honest_distribution", 0.5, lambda: weak_dr.honest_distribution(n_weak_large),
         [Fraction(1, n_weak_large)] * n_weak_large),
        ("strong_dr.honest_leaf_probs", 1.0, lambda: strong_dr.honest_leaf_probs(strong_dr.build_tree(n_tree)),
         [Fraction(1, n_tree)] * n_tree),
        ("strong_dr.honest_leaf_probs", 0.02, lambda: strong_dr.honest_leaf_probs(strong_dr.build_tree(n_cap)),
         [Fraction(1, n_cap)] * n_cap),
        ("colbeck_dr.bob_cheat_oracle", 0.25, lambda: colbeck_dr.bob_cheat_oracle(n_colbeck),
         Fraction(2 * n_colbeck - 1, n_colbeck**2)),
    ]
    for name, budget, kernel, expected in cases:
        t0 = time.perf_counter()
        value = kernel()
        elapsed = time.perf_counter() - t0
        assert value == expected, name
        assert elapsed < budget, f"{name} took {elapsed:.2f} s (budget {budget} s)"


def test_records_at_the_caps_are_small_and_fast(capsys):
    # each budget is over 10x the in-process `cli.run` on a 2-core Xeon
    # (first call 5.5 ms and 1.3 ms, medians of 9 calls 0.8 ms and 1.0 ms),
    # while listing every tree node and every stage wrote 22.4 MB in 1.7 s
    # and 20.3 MB in 1.1 s
    cases = [
        (("strong-dr", "--n", str(strong_dr.MAX_OUTCOMES)), 2_000, 0.1),
        (("multiparty", "--m", "9000", "--n", "3"), 16_000, 0.02),
    ]
    for argv, max_bytes, budget in cases:
        t0 = time.perf_counter()
        code = cli.run(list(argv))
        elapsed = time.perf_counter() - t0
        size = len(capsys.readouterr().out.encode())
        assert code == 0, argv
        assert size < max_bytes, f"{argv} wrote {size} B (cap {max_bytes} B)"
        assert elapsed < budget, f"{argv} took {elapsed:.3f} s (budget {budget} s)"
