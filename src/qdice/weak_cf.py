"""Three-round weak imbalanced coin flipping over three qubits.

Alice prepares sqrt(1-p-eta)|ud> + sqrt(p+eta)|du> and sends the second
qubit to Bob, who rotates it against a fresh |d> ancilla and tests for
|ud> on qubits 2,3. Bob wins on success (Alice then verifies qubit 1 is
|d>); otherwise Alice wins and must pass Bob's three-qubit verification.
Honest Bob wins with probability exactly p; the slack parameter eta trades
Alice's cheating room against Bob's.

Alice's cheat is computed two independent ways and cross-checked by
`alice_opt_cheat`: a closed form obtained by Cauchy-Schwarz, and numeric
maximization of the raw objective over delta in [0, 1], golden-section
search on plain floats plus the two ends, 63 evaluations in all. It runs
that search once and keeps its argmax on the CheatAnalysis, so a caller
that needs the raw objective near the same (p, eta) evaluates it at that
split (`alice_split_cheat`) instead of searching again. Both routes take A
and B from `_objective_coeffs`, which refuses p = 1; the objective's
coefficients are checked once per maximization, when `_objective(A, B)`
builds the function the search calls, and that function checks only that
delta lies in [0, 1]. Bob's is p + eta (always announce a win), read
from `bob_opt_cheat` alone.
The adversary oracle additionally covers Alice's full four-amplitude
preparation: an exact rank-1 maximum, certified by simulation. The
balanced fair point is the exact root of a quadratic, from the shared
kernel in `optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, nan, sqrt
from typing import Callable

import numpy as np

from . import quantum_core as qc
from .errors import CrossCheckError, ParameterRangeError
from .optimize import certify_sign_change, maximize_unimodal, sqrt2_quadratic_root

UP, DOWN = 0, 1
CROSS_CHECK_TOL = 1e-9
ORACLE_TOL = 1e-12  # oracle's simulated certificates


@dataclass(frozen=True)
class WeakCFParams:
    """Protocol parameters: Bob's honest winning probability p and slack eta."""

    p: float
    eta: float

    def __post_init__(self):
        if not (isfinite(self.p) and isfinite(self.eta)):
            raise ParameterRangeError(f"p and eta must be finite, got p={self.p}, eta={self.eta}")
        if not 0.0 <= self.p <= 1.0:
            raise ParameterRangeError(f"p must lie in [0, 1], got {self.p}")
        if self.eta < 0.0 or self.eta > 1.0 - self.p + 1e-12:
            raise ParameterRangeError(
                f"eta must lie in [0, 1-p] = [0, {1.0 - self.p}], got {self.eta}"
            )
        if self.eta > 1.0 - self.p:  # within 1e-12 above the cap: clamp
            object.__setattr__(self, "eta", 1.0 - self.p)


@dataclass(frozen=True)
class CheatAnalysis:
    """Alice's maximal winning probability, with the optimizing delta."""

    p_alice_star: float
    delta_star: float
    maximizer_alphas: tuple[float, float, float, float] | None = None  # oracle only
    search_delta: float | None = None  # closed_form: the numeric search's argmax


# ---------------------------------------------------------------------------
# Protocol states and operators
# ---------------------------------------------------------------------------

def initial_state(params: WeakCFParams) -> qc.StateVector:
    """Alice's honest two-qubit preparation."""
    amps = np.zeros(4, dtype=complex)
    amps[UP * 2 + DOWN] = sqrt(max(1.0 - params.p - params.eta, 0.0))
    amps[DOWN * 2 + UP] = sqrt(params.p + params.eta)
    return qc.StateVector((2, 2), ("q1", "q2"), amps)


def rotation_unitary(params: WeakCFParams) -> qc.UnitaryOp:
    """Bob's two-qubit rotation on (q2, q3); acts trivially on |uu> and |dd>.

    On the span of |ud>, |du> it is the real orthogonal involution with
    cos = sqrt(p/(p+eta)), sin = sqrt(eta/(p+eta)).
    """
    total = params.p + params.eta
    if total == 0.0:  # zero-amplitude sector, any unitary works; pick identity
        c, s = 1.0, 0.0
    else:
        c, s = sqrt(params.p / total), sqrt(params.eta / total)
    m = np.zeros((4, 4), dtype=complex)  # np.eye's entries, without its Python-level wrapper
    ud, du = UP * 2 + DOWN, DOWN * 2 + UP
    m[UP * 2 + UP, UP * 2 + UP] = m[DOWN * 2 + DOWN, DOWN * 2 + DOWN] = 1.0
    m[ud, ud], m[du, ud] = c, s
    m[ud, du], m[du, du] = s, -c
    return qc.UnitaryOp(m, ("q2", "q3"))


# The protocol's fixed states and tests, built and checked once at import so
# that no call's work depends on what ran before it: Bob's |d> ancilla, his
# win sector, where qubits 2, 3 read |ud> (q1 free), and the |dud> that
# Alice checks after Bob wins.
_ANCILLA_D = qc.basis_state((2,), ("q3",), (DOWN,))
_WIN_SECTOR = qc.Subspace(
    [qc.basis_state((2, 2, 2), ("q1", "q2", "q3"), (x, UP, DOWN)) for x in (UP, DOWN)]
)
_BOB_WIN_CHECK = qc.Subspace([qc.basis_state((2, 2, 2), ("q1", "q2", "q3"), (DOWN, UP, DOWN))])


def alice_pass_state(params: WeakCFParams) -> qc.StateVector:
    """The three-qubit verification state Bob tests Alice against."""
    denom = 1.0 - params.p
    if denom <= 0.0:
        raise ParameterRangeError("verification state undefined at p = 1")
    amps = np.zeros(8, dtype=complex)
    amps[UP * 4 + DOWN * 2 + DOWN] = sqrt(max(1.0 - params.p - params.eta, 0.0) / denom)
    amps[DOWN * 4 + DOWN * 2 + UP] = sqrt(params.eta / denom)
    return qc.StateVector((2, 2, 2), ("q1", "q2", "q3"), amps)


# ---------------------------------------------------------------------------
# Honest execution
# ---------------------------------------------------------------------------

def honest_run(params: WeakCFParams, seed: int | np.random.Generator) -> tuple[str, dict]:
    """Execute the protocol with both parties honest.

    Returns (winner, transcript). The transcript records each round's state
    and the analytic probability of every test, so callers can assert the
    protocol's completeness without relying on the sampled branch.
    """
    rng = np.random.default_rng(seed)
    psi0 = initial_state(params)
    psi_full = qc.tensor(psi0, _ANCILLA_D)
    psi1 = qc.apply(rotation_unitary(params), psi_full)

    result = qc.measure_projector(psi1, _WIN_SECTOR, rng)
    transcript = {
        "params": {"p": params.p, "eta": params.eta},
        "psi0": psi0,
        "psi1": psi1,
        "bob_win_probability": result.inside_probability,
        "bob_found_ud": result.outcome_index == 0,
    }

    if result.outcome_index == 0:
        # Bob won; Alice verifies his first qubit is |d>
        transcript["verification_probability"] = qc.subspace_probability(
            result.post_state, _BOB_WIN_CHECK
        )
        return "bob", transcript

    # Alice won; she must pass Bob's three-qubit test
    p_pass = abs(qc.overlap(alice_pass_state(params), result.post_state)) ** 2
    transcript["verification_probability"] = p_pass
    return "alice", transcript


# ---------------------------------------------------------------------------
# Optimal cheats
# ---------------------------------------------------------------------------

def _objective_coeffs(params: WeakCFParams) -> tuple[float, float]:
    """Coefficients (A, B) of Alice's objective (sqrt(A(1-d)) + sqrt(B d))^2.

    Both routes to Alice's cheat start here, so this is where p = 1, at
    which A and B divide by zero, raises ParameterRangeError.
    """
    p, eta = params.p, params.eta
    if p >= 1.0:
        raise ParameterRangeError("alice_opt_cheat undefined at p = 1")
    a = (1.0 - p - eta) / (1.0 - p)
    b = 0.0 if eta == 0.0 else eta**2 / ((1.0 - p) * (p + eta))
    return a, b


def _objective(a: float, b: float) -> Callable[[float], float]:
    """The function d -> (sqrt(A(1-d)) + sqrt(B d))^2 for coefficients from
    `_objective_coeffs`. A and B are checked here, once: unless A >= 0 and
    B >= 0 (so also where either is NaN) the function is NaN everywhere.
    Otherwise it is NaN unless 0 <= d <= 1, where math.sqrt could raise."""
    if not (a >= 0.0 and b >= 0.0):
        return lambda delta: nan

    def objective(delta: float) -> float:
        if not 0.0 <= delta <= 1.0:
            return nan
        s = sqrt(a * (1.0 - delta)) + sqrt(b * delta)
        return s * s

    return objective


def alice_split_cheat(params: WeakCFParams, delta: float) -> float:
    """Alice's winning probability when she prepares with split delta: the
    raw objective (sqrt(A(1-d)) + sqrt(B d))^2 at d = delta, never A + B.

    At the argmax of a search at nearby parameters (`CheatAnalysis.search_delta`)
    this is a fresh search's maximum to rounding: the objective is flat at
    its optimum, so a split h away loses at most sup|f''| h^2 / 2. That
    fails as eta nears 1 - p, where A -> 0 puts the optimum near delta = 1
    and the curvature there grows without bound.
    """
    return _objective(*_objective_coeffs(params))(delta)


def bob_opt_cheat(params: WeakCFParams) -> float:
    """Bob's maximal winning probability: p + eta, by always announcing a win."""
    return params.p + params.eta


def alice_opt_cheat(params: WeakCFParams) -> CheatAnalysis:
    """Alice's maximal winning probability, closed form cross-checked numerically.

    The closed form follows from Cauchy-Schwarz: the maximum is A + B,
    attained at delta* = B/(A+B). The numeric route is one
    `maximize_unimodal` search (63 evaluations) of the raw objective
    (sqrt(A(1-d)) + sqrt(B d))^2 over the same A and B, never forming
    A + B. The objective is the square of a concave function >= 0, so it
    is unimodal for every (p, eta), and a NaN or negative coefficient makes
    it NaN everywhere. Disagreement beyond 1e-9, or a NaN on either side,
    raises CrossCheckError. The search's argmax is kept as `search_delta`.
    """
    a, b = _objective_coeffs(params)
    closed = a + b
    delta_star = 0.0 if closed == 0.0 else b / closed

    search_delta, numeric = maximize_unimodal(_objective(a, b))
    if not abs(numeric - closed) <= CROSS_CHECK_TOL:  # fails closed on NaN
        raise CrossCheckError(
            f"closed-form {closed!r} vs numeric {numeric!r} differ beyond {CROSS_CHECK_TOL}"
        )
    return CheatAnalysis(p_alice_star=closed, delta_star=delta_star, search_delta=search_delta)


_FAIR_QUADRATIC = ((4, 0), (4, 0), (-1, 0))  # 4 eta^2 + 4 eta - 1 = 0


def _balanced_residual(eta: float) -> float:
    """P_A* - P_B* of the balanced protocol at eta, from the closed form A + B."""
    params = WeakCFParams(0.5, eta)
    a, b = _objective_coeffs(params)
    return (a + b) - bob_opt_cheat(params)


def fair_eta_balanced() -> float:
    """Solve P_A*(1/2, eta) = P_B*(1/2, eta) for the balanced protocol's eta*.

    At p = 1/2 the equation A + B = p + eta clears to 4 eta^2 + 4 eta - 1
    = 0, whose root in [0, 1/2] is eta* = (sqrt(2) - 1)/2; the common
    value 1/sqrt(2) is Bob's cheat there,
    `bob_opt_cheat(WeakCFParams(0.5, eta*))`.
    `optimize.sqrt2_quadratic_root` returns eta* correctly
    rounded, and the float residual (A + B) - (p + eta) must change sign
    across eta* -/+ 1e-12 (`optimize.certify_sign_change`). Either failure
    raises CrossCheckError.
    """
    eta = sqrt2_quadratic_root(_FAIR_QUADRATIC, Fraction(0), Fraction(1, 2))
    certify_sign_change(_balanced_residual, eta)
    return eta


# ---------------------------------------------------------------------------
# Adversary oracle (full four-amplitude preparation)
# ---------------------------------------------------------------------------

# Alice's preparation basis (q1, q2), in the order of CheatAnalysis.maximizer_alphas
_PREP_BASIS = ((UP, DOWN), (DOWN, UP), (UP, UP), (DOWN, DOWN))  # a_ud, a_du, a_uu, a_dd
# e_r tensor |d> for each preparation basis state, stacked at import
_PREP_STACK = qc.stack(
    [qc.basis_state((2, 2, 2), ("q1", "q2", "q3"), (i, j, DOWN)) for i, j in _PREP_BASIS]
)


def _preparation(alphas) -> qc.StateVector:
    """alpha tensor |d>: Alice's preparation alphas = (a_ud, a_du, a_uu, a_dd),
    a unit vector, against Bob's |d> ancilla, written straight into the
    three-qubit amplitudes: a_r at e_r tensor |d>, zero elsewhere."""
    amps = np.zeros(8, dtype=complex)
    for (i, j), a in zip(_PREP_BASIS, alphas):
        amps[i * 4 + j * 2 + DOWN] = a
    return qc.StateVector((2, 2, 2), ("q1", "q2", "q3"), amps)


def _scores(rotated: qc.StateStack, xi: qc.StateVector) -> list[float]:
    """P_fail * P_test of each state of a stack after Bob's rotation.

    P_fail is the probability that Bob's |ud> test fails and P_test that
    the renormalized post-failure state passes Alice's verification
    against xi. The whole stack goes through one projection out of the win
    sector, and the post states it keeps through one `overlap_all` with xi
    (per state, bit for bit `overlap`); a state Bob's test cannot fail on
    has P_fail 0.0 and no post state, and scores 0.
    """
    probs, posts = qc.project_all(rotated, _WIN_SECTOR, inside=False)
    passes = iter(qc.overlap_all(xi, posts).tolist() if posts is not None else ())
    return [p_fail * abs(next(passes)) ** 2 if p_fail else 0.0 for p_fail in probs]


def alice_cheat_oracle(params: WeakCFParams, grid_resolution: int = 60) -> CheatAnalysis:
    """Alice's optimal cheat over her full preparation space: the exact rank-1
    maximum, certified by simulation.

    Her payoff P_fail * P_test equals |<xi|U(alpha tensor |d>)>|^2, a rank-1
    quadratic form in the preparation alpha, so its maximum over unit alpha
    is ||v||^2 with v_r = <xi|U(e_r tensor |d>)> (ancillas give her no
    advantage). Both U and xi come from the simulated protocol, not from the
    closed form; they are built once per call and shared by both
    certificates, and Bob's win sector is a `qc.Subspace` built and checked
    once, at import. So a call checks no space, basis or target tuple
    again: it pays for its numpy kernels, U's unitarity check and the norm
    check of each of its 12 states. One `apply_all` of U to the four basis
    preparations gives the images whose `overlap_all` with xi is v; each
    basis preparation goes through U this once. The maximizer |v| / ||v||,
    tensored with |d>, is pushed through U by `apply` (never formed from
    the images) and stacked after the four images, and that five-row
    stack is scored in one pass (`_scores`): one `project_all` out of Bob's
    win sector and one `overlap_all` with xi. Every row's score is bit for
    bit its one-row pass. Two simulated
    certificates must hold within ORACLE_TOL: rows 0-3, the four basis
    preparations, sum to ||v||^2 (the maximum of the simulated payoff
    form, so no preparation beats the value), and row 4, the maximizer,
    attains ||v||^2. Either failure, a NaN, or a non-finite ||v||^2
    raises CrossCheckError.

    grid_resolution is validated (>= 10) for compatibility but no longer
    affects the result.
    """
    if grid_resolution < 10:
        raise ParameterRangeError(f"grid_resolution must be >= 10, got {grid_resolution}")
    u, xi = rotation_unitary(params), alice_pass_state(params)
    images = qc.apply_all(u, _PREP_STACK)  # U (e_r tensor |d>), one row each
    v = qc.overlap_all(xi, images)
    w = np.abs(v)
    value = float(w @ w)
    if not isfinite(value):  # no maximizer to score
        raise CrossCheckError(f"oracle value ||v||^2 = {value!r} is not finite")
    alphas = tuple((w / sqrt(value)).tolist())

    rows = qc.stack([images, qc.apply(u, _preparation(alphas))])
    *basis, attained = _scores(rows, xi)
    upper = sum(basis)
    if not abs(upper - value) <= ORACLE_TOL:  # fails closed on NaN
        raise CrossCheckError(f"basis preparations score {upper!r}, not ||v||^2 = {value!r}")
    if not abs(attained - value) <= ORACLE_TOL:
        raise CrossCheckError(f"oracle maximizer attains {attained!r}, not ||v||^2 = {value!r}")

    a_ud, a_du = alphas[0], alphas[1]
    weight = a_ud**2 + a_du**2
    delta_star = a_du**2 / weight if weight > 0 else float("nan")
    return CheatAnalysis(p_alice_star=value, delta_star=delta_star, maximizer_alphas=alphas)
