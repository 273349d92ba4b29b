"""Three-round weak imbalanced coin flipping over three qubits.

Alice prepares sqrt(1-p-eta)|ud> + sqrt(p+eta)|du> and sends the second
qubit to Bob, who rotates it against a fresh |d> ancilla and tests for
|ud> on qubits 2,3. Bob wins on success (Alice then verifies qubit 1 is
|d>); otherwise Alice wins and must pass Bob's three-qubit verification.
Honest Bob wins with probability exactly p; the slack parameter eta trades
Alice's cheating room against Bob's.

Cheat analyses are computed two independent ways and cross-checked: a
closed form obtained by Cauchy-Schwarz, and numeric maximization. The
adversary oracle additionally brute-forces Alice's full four-amplitude
preparation through the simulated protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sqrt
from typing import Iterator

import numpy as np

from . import quantum_core as qc
from .errors import (
    CrossCheckError,
    DegenerateProtocolError,
    ParameterRangeError,
    ResolutionTooCoarseError,
)
from .optimize import bisect_root, maximize_unimodal

UP, DOWN = 0, 1
CROSS_CHECK_TOL = 1e-9


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
    """Maximal winning probabilities for both parties, with the optimizing delta."""

    p: float
    eta: float
    p_alice_star: float
    p_bob_star: float
    delta_star: float
    method: str  # closed_form | numeric_grid | oracle
    maximizer_alphas: tuple[float, float, float, float] | None = field(default=None)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "eta": self.eta,
            "p_alice_star": self.p_alice_star,
            "p_bob_star": self.p_bob_star,
            "delta_star": self.delta_star,
            "method": self.method,
        }


@dataclass(frozen=True)
class FairPoint:
    """Balanced fair operating point: common cheat value and its residual."""

    eta: float
    p_star: float
    residual: float


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
    m = np.eye(4, dtype=complex)
    ud, du = UP * 2 + DOWN, DOWN * 2 + UP
    m[ud, ud], m[du, ud] = c, s
    m[ud, du], m[du, du] = s, -c
    return qc.UnitaryOp(m, ("q2", "q3"))


def bob_win_sector() -> list[qc.StateVector]:
    """Basis of the subspace where qubits 2, 3 read |ud> (q1 free)."""
    return [
        qc.basis_state((2, 2, 2), ("q1", "q2", "q3"), (x, UP, DOWN)) for x in (UP, DOWN)
    ]


def alice_pass_state(params: WeakCFParams) -> qc.StateVector:
    """The three-qubit verification state Bob tests Alice against."""
    denom = 1.0 - params.p
    if denom <= 0.0:
        raise DegenerateProtocolError("verification state undefined at p = 1")
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
    rng = qc.as_generator(seed)
    psi0 = initial_state(params)
    psi_full = qc.tensor(psi0, qc.basis_state((2,), ("q3",), (DOWN,)))
    psi1 = qc.apply(rotation_unitary(params), psi_full)

    sector = bob_win_sector()
    p_bob_win = qc.subspace_probability(psi1, sector)
    result = qc.measure_projector(psi1, sector, rng)
    transcript = {
        "params": {"p": params.p, "eta": params.eta},
        "psi0": psi0.to_json_dict(),
        "psi1": psi1.to_json_dict(),
        "bob_win_probability": p_bob_win,
        "bob_found_ud": result.outcome_index == 0,
    }

    if result.outcome_index == 0:
        # Bob won; Alice verifies his first qubit is |d>
        check = [qc.basis_state((2, 2, 2), ("q1", "q2", "q3"), (DOWN, UP, DOWN))]
        transcript["verification_probability"] = qc.subspace_probability(result.post_state, check)
        return "bob", transcript

    # Alice won; she must pass Bob's three-qubit test
    p_pass = abs(qc.overlap(alice_pass_state(params), result.post_state)) ** 2
    transcript["verification_probability"] = p_pass
    return "alice", transcript


def honest_alice_win_probability(params: WeakCFParams) -> float:
    """Analytic probability that honest Alice wins (eta-independent, = 1-p)."""
    psi0 = initial_state(params)
    psi_full = qc.tensor(psi0, qc.basis_state((2,), ("q3",), (DOWN,)))
    psi1 = qc.apply(rotation_unitary(params), psi_full)
    return 1.0 - qc.subspace_probability(psi1, bob_win_sector())


# ---------------------------------------------------------------------------
# Optimal cheats
# ---------------------------------------------------------------------------

def _objective_coeffs(params: WeakCFParams) -> tuple[float, float]:
    """Coefficients (A, B) of Alice's objective (sqrt(A(1-d)) + sqrt(B d))^2."""
    p, eta = params.p, params.eta
    a = (1.0 - p - eta) / (1.0 - p)
    b = 0.0 if eta == 0.0 else eta**2 / ((1.0 - p) * (p + eta))
    return a, b


def alice_objective(params: WeakCFParams, delta):
    """Alice's winning probability when she shifts weight delta to |du>.

    delta may be a float or an ndarray (evaluated elementwise).
    """
    a, b = _objective_coeffs(params)
    return (np.sqrt(a * (1.0 - delta)) + np.sqrt(b * delta)) ** 2


def alice_opt_cheat(params: WeakCFParams, grid_points: int = 10_000) -> CheatAnalysis:
    """Alice's maximal winning probability, closed form cross-checked by grid.

    The closed form follows from Cauchy-Schwarz: the maximum is A + B,
    attained at delta* = B/(A+B). The numeric route re-maximizes the raw
    objective with a grid plus golden-section refinement; disagreement
    beyond 1e-9, or a NaN on either side, raises CrossCheckError.
    """
    if params.p >= 1.0:
        raise DegenerateProtocolError("alice_opt_cheat undefined at p = 1")
    a, b = _objective_coeffs(params)
    closed = a + b
    delta_star = 0.0 if closed == 0.0 else b / closed

    _, numeric = maximize_unimodal(
        lambda d: alice_objective(params, d), 0.0, 1.0, grid_points=grid_points
    )
    if not abs(numeric - closed) <= CROSS_CHECK_TOL:  # fails closed on NaN
        raise CrossCheckError(
            f"closed-form {closed!r} vs numeric {numeric!r} differ beyond {CROSS_CHECK_TOL}"
        )
    return CheatAnalysis(
        p=params.p,
        eta=params.eta,
        p_alice_star=closed,
        p_bob_star=params.p + params.eta,
        delta_star=delta_star,
        method="closed_form",
    )


def bob_opt_cheat(params: WeakCFParams) -> CheatAnalysis:
    """Bob's maximal winning probability: always announce a win, p + eta."""
    delta_star = float("nan")
    p_alice = float("nan")
    if params.p < 1.0:
        a, b = _objective_coeffs(params)
        p_alice = a + b
        delta_star = 0.0 if p_alice == 0.0 else b / p_alice
    return CheatAnalysis(
        p=params.p,
        eta=params.eta,
        p_alice_star=p_alice,
        p_bob_star=params.p + params.eta,
        delta_star=delta_star,
        method="closed_form",
    )


def fair_eta_balanced(tol: float = 1e-12) -> FairPoint:
    """Solve P_A*(1/2, eta) = P_B*(1/2, eta) for the balanced protocol.

    Both cheat values are monotone in eta in opposite directions, so the
    root is unique; it lands at eta = (sqrt(2)-1)/2 with common value
    1/sqrt(2).
    """

    def residual(eta: float) -> float:
        params = WeakCFParams(0.5, eta)
        a, b = _objective_coeffs(params)
        return (a + b) - (params.p + params.eta)

    eta = bisect_root(residual, 0.0, 0.5, tol=tol)
    return FairPoint(eta=eta, p_star=0.5 + eta, residual=residual(eta))


# ---------------------------------------------------------------------------
# Brute-force adversary oracle (full four-amplitude preparation)
# ---------------------------------------------------------------------------

def _embedded_rotation(params: WeakCFParams) -> np.ndarray:
    """The 8x8 action of Bob's rotation on (q1,q2,q3), built column by column
    through the generic apply() machinery."""
    u = rotation_unitary(params)
    cols = []
    for k in range(8):
        e = qc.basis_state((2, 2, 2), ("q1", "q2", "q3"), np.unravel_index(k, (2, 2, 2)))
        cols.append(qc.apply(u, e).amps)
    return np.array(cols).T


def _oracle_tables(params: WeakCFParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Precomputed images of Alice's four preparations under Bob's rotation.

    Returns (images_re, images_im, xi amplitudes, win-sector flat indices).
    Row r of the images is U (e_r tensor |d>) for the preparation basis
    order (ud, du, uu, dd).
    """
    u8 = _embedded_rotation(params)
    # q3 starts in |d>: flat index = 4*i + 2*j + 1 for (q1, q2) = (i, j)
    prep_idx = [
        UP * 4 + DOWN * 2 + DOWN,    # a_ud
        DOWN * 4 + UP * 2 + DOWN,    # a_du
        UP * 4 + UP * 2 + DOWN,      # a_uu
        DOWN * 4 + DOWN * 2 + DOWN,  # a_dd
    ]
    images = u8[:, prep_idx].T
    win_idx = [UP * 4 + UP * 2 + DOWN, DOWN * 4 + UP * 2 + DOWN]
    return images.real.copy(), images.imag.copy(), alice_pass_state(params).amps, win_idx


def _payoff_batch(tables, alphas: np.ndarray) -> np.ndarray:
    """Alice's cheating payoff P_fail * P_test for a batch of preparations.

    alphas has shape (k, 4) with columns (a_ud, a_du, a_uu, a_dd), each row
    a unit vector of non-negative reals. Each candidate is pushed through
    the protocol: apply Bob's rotation, take the probability his |ud> test
    fails, renormalize the surviving state, and score Alice's verification
    overlap. Real and imaginary parts are carried separately so the batch
    runs on real BLAS.
    """
    images_re, images_im, xi, win_idx = tables
    post_re = alphas @ images_re
    post_im = alphas @ images_im
    p_fail = 1.0 - (post_re[:, win_idx] ** 2 + post_im[:, win_idx] ** 2).sum(axis=1)
    # The verification state has no weight in the win sector, so projecting
    # the sector out first leaves the overlap with it unchanged.
    ov_re = post_re @ xi.real + post_im @ xi.imag
    ov_im = post_im @ xi.real - post_re @ xi.imag
    ov_sq = ov_re**2 + ov_im**2
    p_test = np.divide(ov_sq, p_fail, out=np.zeros_like(ov_sq), where=p_fail > 1e-15)
    return p_fail * p_test


def _angles_to_alphas(t1: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> np.ndarray:
    """Hyperspherical angles -> non-negative unit 4-vectors (a_ud, a_du, a_uu, a_dd)."""
    s1, s2 = np.sin(t1), np.sin(t2)
    return np.stack(
        [np.cos(t1), s1 * np.cos(t2), s1 * s2 * np.cos(t3), s1 * s2 * np.sin(t3)],
        axis=-1,
    )


def _grid_eval(tables, axes: list[np.ndarray]):
    """Best (payoff, angle triple) over the outer product of the angle axes.

    The preparation amplitudes factor over the angles, so the post-rotation
    amplitudes are accumulated axis by axis and only one (n2, n3, 8) slab is
    held per t1 slice; this keeps a 200^3 grid within a few hundred MB of
    traffic instead of materializing 8 million states.
    """
    images_re, images_im, xi, win_idx = tables
    t1, t2, t3 = axes
    c1, s1 = np.cos(t1), np.sin(t1)
    c2, s2 = np.cos(t2), np.sin(t2)
    c3, s3 = np.cos(t3), np.sin(t3)

    best_val, best_angles = -1.0, np.array([t1[0], t2[0], t3[0]])

    def accumulate(images):
        slab3 = np.multiply.outer(c3, images[2]) + np.multiply.outer(s3, images[3])
        return (
            np.multiply.outer(c2, images[1])[:, None, :]
            + s2[:, None, None] * slab3[None, :, :]
        )  # (n2, n3, 8), still missing the t1 factors

    a23_re, a23_im = accumulate(images_re), accumulate(images_im)
    xi_re, xi_im = xi.real, xi.imag
    for i, (c, s) in enumerate(zip(c1, s1)):
        post_re = c * images_re[0] + s * a23_re
        post_im = c * images_im[0] + s * a23_im
        p_fail = 1.0 - (post_re[..., win_idx] ** 2 + post_im[..., win_idx] ** 2).sum(axis=-1)
        ov_re = post_re @ xi_re + post_im @ xi_im
        ov_im = post_im @ xi_re - post_re @ xi_im
        ov_sq = ov_re**2 + ov_im**2
        payoff = np.divide(ov_sq, p_fail, out=np.zeros_like(ov_sq), where=p_fail > 1e-15) * p_fail
        j = int(np.argmax(payoff))
        if payoff.flat[j] > best_val:
            j2, j3 = np.unravel_index(j, payoff.shape)
            best_val = float(payoff.flat[j])
            best_angles = np.array([t1[i], t2[j2], t3[j3]])
    return best_val, best_angles


def alice_cheat_oracle(params: WeakCFParams, grid_resolution: int = 60) -> CheatAnalysis:
    """Brute-force Alice's optimal cheat over her full preparation space.

    Scans the non-negative unit 3-sphere of preparation amplitudes (ancillas
    give Alice no advantage, and phases are irrelevant since every target
    amplitude is non-negative) with `grid_resolution` points per
    hyperspherical angle, then iteratively zooms the grid around the best
    triple. Independent of the closed form: each candidate is scored by
    simulating the protocol's rotation, test, and verification.
    """
    if grid_resolution < 10:
        raise ResolutionTooCoarseError(f"grid_resolution must be >= 10, got {grid_resolution}")
    tables = _oracle_tables(params)
    half_pi = np.pi / 2.0
    axes = [np.linspace(0.0, half_pi, grid_resolution) for _ in range(3)]
    best_val, best = _grid_eval(tables, axes)

    width = half_pi / (grid_resolution - 1)
    for _ in range(14):  # zoom: 11^3 local grid, shrinking window
        axes = [
            np.clip(np.linspace(c - width, c + width, 11), 0.0, half_pi) for c in best
        ]
        val, angles = _grid_eval(tables, axes)
        # each window contains the previous best point, so val never regresses
        if val >= best_val:
            best_val, best = val, angles
        width *= 0.35

    alphas = tuple(float(x) for x in _angles_to_alphas(*(np.asarray([t]) for t in best))[0])
    a_ud, a_du = alphas[0], alphas[1]
    weight = a_ud**2 + a_du**2
    delta_star = a_du**2 / weight if weight > 0 else float("nan")
    return CheatAnalysis(
        p=params.p,
        eta=params.eta,
        p_alice_star=best_val,
        p_bob_star=params.p + params.eta,
        delta_star=delta_star,
        method="oracle",
        maximizer_alphas=alphas,
    )


def param_grid(n_p: int = 10, n_eta: int = 10) -> Iterator[WeakCFParams]:
    """An n_p x n_eta sweep of valid (p, eta) pairs, p in (0,1), eta <= 1-p."""
    for p in np.linspace(0.08, 0.92, n_p):
        for frac in np.linspace(0.0, 0.95, n_eta):
            yield WeakCFParams(float(p), float(frac * (1.0 - p)))
