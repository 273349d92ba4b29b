"""One-table reproduction of the headline numbers.

Each row recomputes a quantity from scratch and compares it to the value
reported in the literature at an explicit tolerance. Tolerances are pinned
to how precisely each source value is quoted: machine precision for exact
closed forms, the quoted number of digits otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt

from . import colbeck_dr, multiparty, sixround_dr, strong_cf, strong_dr, weak_cf, weak_dr


def _row(quantity: str, reported_value: float, computed: float, tol: float) -> dict:
    diff = abs(computed - reported_value)
    return {
        "quantity": quantity,
        "reported_value": reported_value,
        "computed_value": float(computed),
        "abs_diff": diff,
        "tolerance": tol,
        "passed": diff <= tol,
    }


def build_rows() -> list[dict]:
    rows: list[dict] = []

    eta = weak_cf.fair_eta_balanced()
    fair_cheat = weak_cf.bob_opt_cheat(weak_cf.WeakCFParams(0.5, eta))
    rows.append(_row("balanced weak CF fair eta", (sqrt(2.0) - 1.0) / 2.0, eta, 1e-9))
    rows.append(_row("balanced weak CF fair cheat value", 1.0 / sqrt(2.0), fair_cheat, 1e-9))

    case1 = sixround_dr.solve("case1")
    case2 = sixround_dr.solve("case2")
    rows.append(_row("six-round case1 bias", 0.181, case1.bias, 1e-3))
    rows.append(_row("six-round case1 common losing prob", 0.848, case1.p_bar_star, 1e-3))
    rows.append(_row("six-round case2 bias", 0.199, case2.bias, 1e-3))

    products = strong_cf.cheat_probs(strong_cf.solve_params(0.5)).kitaev_products
    rows.append(_row("strong CF balanced product (outcome 0)", 0.5, products[0], 1e-12))
    rows.append(_row("strong CF balanced product (outcome 1)", 0.5, products[1], 1e-12))

    leftmost = strong_dr.honest_leaf_probs(strong_dr.build_tree(5))[0]
    rows.append(_row("strong DR N=5 leftmost leaf probability", 0.2, float(leftmost), 0.0))

    pa, pb = colbeck_dr.cheat_probs(3)
    rows.append(_row("colbeck N=3 alice cheat", float(Fraction(2, 3)), float(pa), 0.0))
    rows.append(_row("colbeck N=3 bob cheat", float(Fraction(5, 9)), float(pb), 0.0))

    value, bound = multiparty.three_party_example_bias()
    rows.append(_row("three-party example coalition value", 0.69363, value, 5e-6))
    rows.append(_row("three-party example Kitaev bound", 0.69336, bound, 5e-6))

    share = weak_dr.bound_property_sweep()
    rows.append(_row("weak DR bias bound at its worst case (N=2..10, every party)", 1.0, share, 0.0))

    return rows
