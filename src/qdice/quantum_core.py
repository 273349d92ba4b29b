"""Exact state-vector simulation over small labeled tensor-product spaces.

States live in a Hilbert space built from named subsystems. Amplitudes are
stored densely in lexicographic order over the subsystem labels in their
declaration order, so transcripts are reproducible byte-for-byte. All
operations are pure: they return new values and never mutate inputs, and
every sampling operation takes its randomness (a seed or a generator)
explicitly.

Amplitudes are double-precision complex. The protocols analyzed here only
ever need real amplitudes, but the type is complex for generality.

A StateVector's amplitudes are read-only and no caller holds a writable
reference to them, so one state can be shared freely. A caller's array is
copied and fully validated; the arrays that `tensor`, `apply`, the
projections and `measure_computational` have just allocated are adopted
without a copy or a second dims/labels/shape check, since their inputs
passed those checks, but every state, however built, passes the norm check.
States that are compared, projected or measured together must list their
subsystems in the same order; a different order raises
DimensionMismatchError rather than silently pairing the wrong amplitudes.

A StateStack holds k states over one space as the rows of one read-only
(k, dim) array, and is only ever passed whole; `stack` builds one from
states and stacks, concatenating their rows. `apply_all`, `project_all`
and `overlap_all` push a whole stack through the kernels that `apply`,
`project`, `measure_projector` and `overlap` run as their one-row case, so
row r's result is the scalar call's, bit for bit. The stack axis leads
the state's axes, so numpy's matmul makes one BLAS product per state, the
product the scalar call makes; one 2-D product over all k states would
not (OpenBLAS rounds the columns past a multiple of four with other
kernels). A stacked projection checks its basis once, takes <b|s> for
every row with one `np.vecdot` per basis state (the BLAS dot that
`np.vdot` takes), sums every row's in-span vector onto zeros in basis
order, takes every row's squared norm with two row-wise `np.vecdot`s on
the real and imaginary parts, and divides and norm-checks the rows it
keeps as one stack. It returns every row's probability, 0.0 for a row
whose probability vanishes where the scalar `project` raises, and the
kept rows' post states as one StateStack.

The hot paths avoid per-call numpy overhead without changing a bit of their
results. `tensor` takes the outer product directly rather than through
`np.kron` (the same products). `apply` looks its axis permutation up in a
bounded cache keyed on (dims, labels, targets). `UnitaryOp`'s unitarity
check subtracts a cached read-only complex identity in place, projections
sum their in-span vector onto one zeroed buffer and take their probability
from numpy's own 2-norm formula, inlined, and `measure_computational`
copies the drawn outcome's slice into zeros rather than zeroing every
other outcome. The computational-basis draw is defined here, by
`_draw_index`, rather than by `Generator.choice`: the same cumulative-sum
search on one double of the stream, so outcomes and generator states are
`choice`'s. The marginal, the draw and the unitarity check call the ufunc
methods that `sum`, `cumsum` and `max` wrap (`add.reduce`,
`add.accumulate`, `maximum.reduce`) directly.
A seed becomes a stream through `np.random.default_rng`, which returns a
`Generator` unchanged, and renormalizing divides by `math.sqrt`, the same
correctly rounded root as `np.sqrt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, prod, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, NonOrthogonalBasisError

NORM_TOL = 1e-12
ORTHO_TOL = 1e-10
_VANISHING = 1e-15  # a projection below this probability has no post state
_SUM_ATOL = sqrt(np.finfo(np.float64).eps)  # Generator.choice's tolerance on sum(p) - 1


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over a labeled tensor-product basis."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)  # a copy: the caller's array stays writable
        amps.setflags(write=False)
        # one dict update sets the frozen fields, as `_adopt` does
        self.__dict__.update(dims=tuple(map(int, self.dims)), labels=tuple(self.labels), amps=amps)
        if len(self.dims) != len(self.labels):
            raise DimensionMismatchError("dims and labels must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise DimensionMismatchError(f"duplicate subsystem labels: {self.labels}")
        if amps.shape != (prod(self.dims),):
            raise DimensionMismatchError(
                f"expected {prod(self.dims)} amplitudes, got {amps.shape}"
            )
        _check_norm(amps)


def _check_norm(amps: np.ndarray) -> None:
    """The check every state passes, whichever way it is built: amps is one
    state, or a (k, dim) stack whose rows are checked one by one."""
    if amps.ndim == 1:
        n = sqrt(np.vdot(amps, amps).real)
    else:  # a stack: the BLAS dot that np.vdot takes, row by row; the first bad row is reported
        norms = [sqrt(square) for square in np.vecdot(amps, amps).real.tolist()]
        n = next((x for x in norms if not abs(x - 1.0) <= NORM_TOL), 1.0)
    if not abs(n - 1.0) <= NORM_TOL:  # fails closed on NaN
        raise DimensionMismatchError(f"state not normalized: |psi| = {n!r}")


def _adopt(dims: tuple[int, ...], labels: tuple[str, ...], amps: np.ndarray) -> StateVector:
    """A state over a complex array this module just allocated and nothing else holds.

    dims and labels come from states that passed `StateVector`'s checks, and
    amps has their shape, so only the norm is checked. The array is adopted
    without a copy and write-protected. Bypassing the dataclass `__init__`
    and `__post_init__` halves the cost of a small state.
    """
    _check_norm(amps)
    amps.setflags(write=False)
    state = object.__new__(StateVector)
    state.__dict__.update(dims=dims, labels=labels, amps=amps)
    return state


@dataclass(frozen=True, eq=False)
class StateStack:
    """k >= 1 normalized states over one labeled space: row r of the read-only
    (k, dim) amps is state r. Built from states by `stack` and returned by
    `apply_all`; a caller's array is copied and every row checked."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)  # a copy: the caller's array stays writable
        amps.setflags(write=False)
        self.__dict__.update(dims=tuple(map(int, self.dims)), labels=tuple(self.labels), amps=amps)
        if amps.ndim != 2 or len(amps) == 0:
            raise DimensionMismatchError(f"expected a (k, dim) array with k >= 1, got {amps.shape}")
        for row in amps:  # every StateVector check, row by row
            StateVector(self.dims, self.labels, row)


def _stack(dims: tuple[int, ...], labels: tuple[str, ...], amps: np.ndarray) -> StateStack:
    """A stack over a (k, dim) array this module just allocated, whose rows are already checked."""
    amps.setflags(write=False)
    out = object.__new__(StateStack)
    out.__dict__.update(dims=dims, labels=labels, amps=amps)
    return out


def _adopt_stack(dims: tuple[int, ...], labels: tuple[str, ...], amps: np.ndarray) -> StateStack:
    """`_adopt` for a (k, dim) array: every row passes the norm check."""
    _check_norm(amps)
    return _stack(dims, labels, amps)


def _check_same_space(dims: tuple[int, ...], labels: tuple[str, ...], states) -> None:
    for s in states:
        if s.dims != dims:
            raise DimensionMismatchError(f"dims differ: {dims} vs {s.dims}")
        if s.labels != labels:
            raise DimensionMismatchError(f"subsystem labels differ: {labels} vs {s.labels}")


def stack(states: Sequence[StateVector | StateStack]) -> StateStack:
    """The states, which must share dims and labels in one order, as one stack.

    A StateStack item contributes its rows in order. Every state and row
    already passed the norm check, so only the space is checked.
    """
    if not states:
        raise DimensionMismatchError("a stack needs at least one state")
    first = states[0]
    _check_same_space(first.dims, first.labels, states)
    dim = first.amps.shape[-1]  # a state is a one-row block
    return _stack(first.dims, first.labels, np.concatenate([s.amps.reshape(-1, dim) for s in states]))


def _flat_index(dims: tuple[int, ...], indices: tuple[int, ...]) -> int:
    try:
        return int(np.ravel_multi_index(indices, dims))
    except ValueError:  # wrong length or out of range
        raise DimensionMismatchError(f"basis indices {indices} do not fit dims {dims}") from None


def basis_state(dims: Sequence[int], labels: Sequence[str], indices: Sequence[int]) -> StateVector:
    """The product basis state |i1 i2 ...> with the given subsystem indices."""
    dims = tuple(map(int, dims))
    amps = np.zeros(prod(dims), dtype=complex)
    amps[_flat_index(dims, tuple(map(int, indices)))] = 1.0
    return StateVector(dims, labels, amps)


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """The complex n x n identity, shared read-only by every unitarity check."""
    eye = np.eye(n, dtype=complex)
    eye.setflags(write=False)
    return eye


@dataclass(frozen=True)
class UnitaryOp:
    """A unitary matrix acting on an ordered subset of subsystems."""

    matrix: np.ndarray
    target_subsystems: tuple[str, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)  # a copy: the caller's array stays writable
        m.setflags(write=False)
        self.__dict__.update(matrix=m, target_subsystems=tuple(self.target_subsystems))
        if len(set(self.target_subsystems)) != len(self.target_subsystems):
            raise DimensionMismatchError(f"duplicate target labels: {self.target_subsystems}")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got {m.shape}")
        # sum |m_ij|^2 is NaN or inf for a NaN or inf entry, or one whose
        # square overflows; np.vdot (BLAS, no ufunc) reports it with no
        # RuntimeWarning, and only a finite matrix goes on to the gram
        dev = np.vdot(m, m).real
        if isfinite(dev):
            gram = m.conj().T @ m
            gram -= _identity(m.shape[0])
            dev = np.maximum.reduce(np.abs(gram), axis=None)  # what .max() calls
        if not dev <= NORM_TOL:  # fails closed on NaN
            raise DimensionMismatchError(f"matrix is not unitary: max |U+U - I| = {dev:.3g}")


@dataclass(frozen=True)
class MeasurementResult:
    """One sampled outcome of a projective measurement.

    inside_probability is the Born probability of outcome 0 ("inside") for
    `measure_projector`, whichever outcome was drawn; None otherwise.
    """

    outcome_index: int
    probability: float
    post_state: StateVector
    inside_probability: float | None = None


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; a's subsystems precede b's in the combined ordering."""
    if set(a.labels) & set(b.labels):
        raise DimensionMismatchError("tensor factors share subsystem labels")
    # the products np.kron forms for 1-D factors, without its generic reshaping
    amps = np.multiply.outer(a.amps, b.amps).reshape(-1)
    return _adopt(a.dims + b.dims, a.labels + b.labels, amps)


class _ApplyPlan(NamedTuple):
    """How `apply` permutes a stack of states so their target subsystems lead, and back."""

    d_target: int  # product of the target subsystems' dims
    stacked_shape: tuple[int, ...]  # (-1, *dims): a stack of any length, axis 0 the stack's
    order: tuple[int, ...]  # the stack axis, the target axes, then the rest in state order
    matrix_shape: tuple[int, int, int]  # (-1, d_target, product of the other dims)
    permuted_shape: tuple[int, ...]  # the stacked shape in `order`
    inverse: tuple[int, ...]  # the permutation that undoes `order`


@lru_cache(maxsize=128)
def _apply_plan(
    dims: tuple[int, ...], labels: tuple[str, ...], targets: tuple[str, ...]
) -> _ApplyPlan:
    # an unknown label raises here, and lru_cache caches no exception
    for lbl in targets:
        if lbl not in labels:
            raise DimensionMismatchError(f"state has no subsystem named {lbl!r}")
    axes = [labels.index(lbl) for lbl in targets]
    rest = [ax for ax in range(len(dims)) if ax not in axes]
    d_target = prod(dims[ax] for ax in axes)
    order = (0, *(ax + 1 for ax in axes + rest))
    return _ApplyPlan(
        d_target,
        (-1, *dims),
        order,
        (-1, d_target, prod(dims[ax] for ax in rest)),
        (-1, *(dims[ax] for ax in axes + rest)),
        tuple(order.index(ax) for ax in range(len(order))),
    )


def _apply_amps(
    u: UnitaryOp, dims: tuple[int, ...], labels: tuple[str, ...], amps: np.ndarray
) -> np.ndarray:
    """u applied to a (dim,) state or to every row of a (k, dim) stack; the result has amps's shape.

    With the stack axis ahead of the state's axes, numpy's matmul makes one
    BLAS product per state, the (d_target, rest) product of the scalar call.
    One 2-D product over the whole stack would not do: OpenBLAS rounds the
    columns past a multiple of four with other kernels.
    """
    d_target, stacked_shape, order, matrix_shape, permuted_shape, inverse = _apply_plan(
        dims, labels, u.target_subsystems
    )
    if u.matrix.shape[0] != d_target:
        raise DimensionMismatchError(
            f"matrix dim {u.matrix.shape[0]} != target subsystem dim {d_target}"
        )
    out = u.matrix @ amps.reshape(stacked_shape).transpose(order).reshape(matrix_shape)
    # undo the transpose: scatter target axes back to their original slots
    return out.reshape(permuted_shape).transpose(inverse).reshape(amps.shape)


def apply(u: UnitaryOp, s: StateVector) -> StateVector:
    """Apply u to its target subsystems, acting as identity on all others."""
    return _adopt(s.dims, s.labels, _apply_amps(u, s.dims, s.labels, s.amps))


def apply_all(u: UnitaryOp, states: StateStack) -> StateStack:
    """`apply` to every state of the stack, in one pass; row r is `apply(u, states[r])`."""
    amps = _apply_amps(u, states.dims, states.labels, states.amps)
    return _adopt_stack(states.dims, states.labels, amps)


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>; its squared modulus is the transition probability."""
    _check_same_space(a.dims, a.labels, (b,))
    return complex(np.vdot(a.amps, b.amps))


def overlap_all(a: StateVector, states: StateStack) -> np.ndarray:
    """<a|s> for every state s of the stack, bit for bit `overlap(a, s)`.

    `np.vecdot` conjugates a and takes the BLAS dot that `np.vdot` takes with each row.
    """
    _check_same_space(a.dims, a.labels, (states,))
    return np.vecdot(a.amps, states.amps)


def _check_orthonormal(basis_states: Sequence[StateVector]) -> None:
    """Every pair of the basis states, which share one space, is orthogonal."""
    for i, u in enumerate(basis_states):
        for v in basis_states[i + 1 :]:
            dev = abs(np.vdot(u.amps, v.amps))
            if dev > ORTHO_TOL:
                raise NonOrthogonalBasisError(
                    f"basis states {i} and later are not orthogonal: |<u|v>| = {dev:.3g}"
                )


def _span_coefficients(
    dims: tuple[int, ...],
    labels: tuple[str, ...],
    rows: np.ndarray,
    basis_states: Sequence[StateVector],
) -> list[np.ndarray]:
    """<b|s> for every row s of the (k, dim) rows, as one (k, 1) column per
    basis state b, after checking the basis lies in the rows' space and is
    orthonormal.

    `np.vecdot` conjugates b and takes one BLAS dot with each row: bit for
    bit the `np.vdot(b, s)` that `overlap` takes.
    """
    _check_same_space(dims, labels, basis_states)
    _check_orthonormal(basis_states)
    return [np.vecdot(b.amps, rows, keepdims=True) for b in basis_states]


def _weight(coeffs: list[np.ndarray], r: int) -> float:
    """sum |<b|s>|^2 over the basis for row r, term by term in basis order."""
    return float(sum(abs(c.item(r)) ** 2 for c in coeffs))


def _project_rows(
    dims: tuple[int, ...],
    labels: tuple[str, ...],
    rows: np.ndarray,
    basis_states: Sequence[StateVector],
    coeffs: list[np.ndarray],
    inside: bool,
) -> tuple[list[float], StateStack | None]:
    """`project_all` of the (k, dim) rows, their coefficients from
    `_span_coefficients` already taken."""
    # summed onto zeros in basis order, so -0.0 components become +0.0
    in_span = np.zeros(rows.shape, dtype=complex)
    for c, b in zip(coeffs, basis_states):
        in_span += c * b.amps
    targets = in_span if inside else rows - in_span
    # np.linalg.norm's own formula for a complex vector, row by row, without its dispatch
    re, im = targets.real, targets.imag
    probs = [sqrt(square) ** 2 for square in (np.vecdot(re, re) + np.vecdot(im, im)).tolist()]
    # a vanishing row reads 0.0; a NaN row is kept, and fails the norm check
    probs = [0.0 if p < _VANISHING else p for p in probs]
    kept = [r for r, p in enumerate(probs) if p]
    if not kept:
        return probs, None
    roots = np.array([sqrt(probs[r]) for r in kept])[:, None]
    return probs, _adopt_stack(dims, labels, targets.take(kept, axis=0) / roots)


def _project_one(
    s: StateVector, basis_states: Sequence[StateVector], coeffs: list[np.ndarray], inside: bool
) -> tuple[float, StateVector]:
    """`project` of s, its coefficients already taken; a vanishing probability raises."""
    (p,), posts = _project_rows(s.dims, s.labels, s.amps.reshape(1, -1), basis_states, coeffs, inside)
    if posts is None:
        raise DimensionMismatchError("projection has vanishing probability, cannot renormalize")
    post = object.__new__(StateVector)  # the stack's one row, already norm-checked
    post.__dict__.update(dims=s.dims, labels=s.labels, amps=posts.amps[0])
    return p, post


def subspace_probability(s: StateVector, basis_states: Sequence[StateVector]) -> float:
    """Probability that s is found in the span of the given orthonormal states."""
    return _weight(_span_coefficients(s.dims, s.labels, s.amps.reshape(1, -1), basis_states), 0)


def project(
    s: StateVector, basis_states: Sequence[StateVector], inside: bool = True
) -> tuple[float, StateVector]:
    """Project s onto the span of basis_states (or its complement) and renormalize.

    Returns (probability of that outcome, renormalized post state); a
    vanishing probability raises DimensionMismatchError.
    """
    coeffs = _span_coefficients(s.dims, s.labels, s.amps.reshape(1, -1), basis_states)
    return _project_one(s, basis_states, coeffs, inside)


def project_all(
    states: StateStack, basis_states: Sequence[StateVector], inside: bool = True
) -> tuple[list[float], StateStack | None]:
    """`project` of every state of the stack, with one check of the basis.

    Returns (probs, posts): probs[r] is the probability of row r's outcome,
    and posts stacks the renormalized post states of the rows whose
    probability does not vanish, in row order (None if every row's does).
    A vanishing row's probability reads 0.0 where `project` raises; each
    kept row's probability and post state are `project`'s, bit for bit.
    """
    coeffs = _span_coefficients(states.dims, states.labels, states.amps, basis_states)
    return _project_rows(states.dims, states.labels, states.amps, basis_states, coeffs, inside)


def measure_projector(
    s: StateVector, basis_states: Sequence[StateVector], seed: int | np.random.Generator
) -> MeasurementResult:
    """Two-outcome projective measurement {P, 1-P} with P spanned by basis_states.

    Outcome index 0 means "inside the subspace", 1 means "outside". The
    outcome is sampled from the Born probabilities using the given seed or
    generator; the post state is the renormalized projection. The basis is
    checked and its overlaps with s are taken once, for both steps. The
    result's inside_probability equals `subspace_probability(s, basis_states)`.
    """
    coeffs = _span_coefficients(s.dims, s.labels, s.amps.reshape(1, -1), basis_states)
    p_in = _weight(coeffs, 0)
    rng = np.random.default_rng(seed)
    inside = bool(rng.random() < p_in)
    prob, post = _project_one(s, basis_states, coeffs, inside)
    return MeasurementResult(0 if inside else 1, prob, post, p_in)


def _draw_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn as `rng.choice(len(probs), p=probs)` draws it, from one double of the stream.

    The same arithmetic as `choice`: the cumulative sums, scaled by their
    last, searched for one uniform draw, so the index and the generator's
    state after it are `choice`'s. Like `choice`, it rejects probabilities
    that are NaN or do not sum to 1 within sqrt(eps) before it draws (on
    the plain sum rather than `choice`'s Kahan sum, which differ only by
    rounding); probs are squared moduli, never negative.
    """
    cdf = np.add.accumulate(probs)  # what probs.cumsum() calls
    total = float(cdf[-1])
    if not abs(total - 1.0) <= _SUM_ATOL:  # fails closed on NaN
        raise ValueError(f"probabilities do not sum to 1: sum = {total!r}")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def measure_computational(
    s: StateVector, label: str, seed: int | np.random.Generator
) -> MeasurementResult:
    """Full projective measurement of one subsystem in its computational basis.

    Samples an outcome index for the named subsystem from the Born marginal,
    collapses that subsystem, and renormalizes the rest.
    """
    if label not in s.labels:
        raise DimensionMismatchError(f"state has no subsystem named {label!r}")
    ax = s.labels.index(label)
    probs_nd = np.abs(s.amps.reshape(s.dims))
    np.square(probs_nd, out=probs_nd)  # the ** 2 of a float array, in place
    # add.reduce is what ndarray.sum calls, without its Python wrapper
    marginal = np.add.reduce(probs_nd, axis=tuple(i for i in range(len(s.dims)) if i != ax))
    marginal /= np.add.reduce(marginal)
    outcome = _draw_index(marginal, np.random.default_rng(seed))
    picker = tuple(outcome if i == ax else slice(None) for i in range(len(s.dims)))
    # every other outcome's amplitudes stay +0.0, as if zeroed one by one
    new_nd = np.zeros(s.dims, dtype=complex)
    new_nd[picker] = s.amps.reshape(s.dims)[picker]
    p = float(marginal[outcome])
    post = _adopt(s.dims, s.labels, new_nd.reshape(-1) / sqrt(p))
    return MeasurementResult(outcome, p, post)
