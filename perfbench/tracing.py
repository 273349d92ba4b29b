"""Span tracing from outside qdice: wrap public functions, keep spans in memory.

`Tracer.install()` replaces each traced function at every qdice module that
binds it by name (so `sixround_dr.alice_opt_cheat` is wrapped as well as
`weak_cf.alice_opt_cheat`), and `uninstall()` puts the originals back. Each
call records one span `(name, start, end, parent, op_id)`, where `parent` is
the index of the enclosing span or -1. Self time is a span's duration minus
the durations of its direct children; busy time counts only spans with no
enclosing span of the same name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

from qdice import quantum_core

TRACED = (
    "optimize.maximize_unimodal",
    "optimize.bisect_root",
    "weak_cf.alice_opt_cheat",
    "weak_cf.alice_cheat_oracle",
    "weak_cf.honest_run",
    "sixround_dr.solve",
    "quantum_core.apply",
    "quantum_core.project",
    "quantum_core.measure_projector",
    "quantum_core.measure_computational",
    "quantum_core.subspace_probability",
    "colbeck_dr.honest_run",
    "colbeck_dr.bob_cheat_oracle",
    "weak_dr.bound_property_sweep",
    "weak_dr.bias_bound_check",
    "weak_dr.honest_distribution",
    "strong_dr.build_tree",
    "strong_dr.path_to",
    "strong_dr.honest_leaf_probs",
    "strong_dr.adversary_success",
    "strong_cf.solve_params",
    "strong_cf.cheat_probs",
    "multiparty.build_pairing",
    "multiparty.honest_outcome_probs",
    "multiparty.coalition_force_prob",
    "multiparty.chooser_force_probs",
    "multiparty.three_party_example_bias",
    "bounds.kitaev_two_party",
    "bounds.kitaev_multi",
    "reproduce.build_rows",
    "cli.run",
)
EVAL_COUNTED = ("optimize.maximize_unimodal", "optimize.bisect_root")
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in TRACED))
CONSTRUCTED = "quantum_core.StateVector.constructed"
ORACLE = "weak_cf.alice_cheat_oracle"


def oracle_states_scored(grid_resolution: int) -> int:
    """Candidate preparations `alice_cheat_oracle` scores: the coarse grid plus 14 zoom grids."""
    return grid_resolution**3 + 14 * 11**3


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "1/op"
        units[f"{name}.busy_s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
    for name in EVAL_COUNTED:
        units[f"{name}.evals"] = "1/op"
    units["optimize.maximize_unimodal.evals_per_call"] = "1/call"
    units[f"{ORACLE}.states_scored"] = "1/op"
    units[CONSTRUCTED] = "1/op"
    for module in MODULES:
        units[f"{module}.errors"] = "1/op"
    units["traced.ops_per_s"] = "1/s"
    return units


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, busy seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy_s"] += end - start
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_error: BaseException | None = None

    def _counting(self, key: str, f):
        def counted(x):
            self.counts[key] += 1
            return f(x)

        return counted

    def _wrap(self, name: str, fn):
        module = name.split(".")[0]
        count_evals = name in EVAL_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_evals:
                if args:
                    args = (self._counting(f"{name}.evals", args[0]),) + args[1:]
                else:
                    kwargs["f"] = self._counting(f"{name}.evals", kwargs["f"])
            if name == ORACLE:
                resolution = args[1] if len(args) > 1 else kwargs.get("grid_resolution", 60)
                self.counts[f"{ORACLE}.states_scored"] += oracle_states_scored(resolution)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._last_error:  # count where it was raised, not at every caller
                    self._last_error = exc
                    self.counts[f"{module}.errors"] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("qdice.")]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"qdice.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

        post_init = quantum_core.StateVector.__post_init__

        def counted_post_init(state):
            self.counts[CONSTRUCTED] += 1
            post_init(state)

        self._patch(quantum_core.StateVector, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics normalised per operation (and per call for evals_per_call)."""
        rows = summarize(self.spans)
        metrics: dict[str, float] = {}
        for name in TRACED:
            row = rows.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in ("calls", "busy_s", "self_s"):
                metrics[f"{name}.{key}"] = row[key] / n_ops
        for name in EVAL_COUNTED:
            metrics[f"{name}.evals"] = self.counts[f"{name}.evals"] / n_ops
        calls = rows.get("optimize.maximize_unimodal", {"calls": 0})["calls"]
        evals = self.counts["optimize.maximize_unimodal.evals"]
        metrics["optimize.maximize_unimodal.evals_per_call"] = evals / calls if calls else 0.0
        for key in (f"{ORACLE}.states_scored", CONSTRUCTED):
            metrics[key] = self.counts[key] / n_ops
        for module in MODULES:
            metrics[f"{module}.errors"] = self.counts[f"{module}.errors"] / n_ops
        return metrics

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:  # [name, start, end, parent, op_id]
                fh.write(json.dumps(span) + "\n")
