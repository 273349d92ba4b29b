"""Exact state-vector simulation over small labeled tensor-product spaces.

States live in a Hilbert space built from named subsystems. Amplitudes are
stored densely in lexicographic order over the subsystem labels in their
declaration order, so transcripts are reproducible byte-for-byte. All
operations are pure: they return new values and never mutate inputs, and
every sampling operation takes its randomness (a seed or a generator)
explicitly.

Amplitudes are double-precision complex. The protocols analyzed here only
ever need real amplitudes, but the type is complex for generality.

Structure is checked once, values on every call. A space, its dims and
labels, is checked through one bounded cache per distinct space, and an
operator's target labels likewise, so a state built from a caller's array
costs its copy, its shape check and its norm check, and an operator its
copy and its unitarity check. An invalid space or target tuple raises on
every call, since the caches keep no exception.

A StateVector's amplitudes are read-only and no caller holds a writable
reference to them, so one state can be shared freely. A caller's array is
copied; the arrays that `tensor`, `apply`, the projections and
`measure_computational` have just allocated are adopted without a copy or
a shape check, since their inputs passed those checks, but every state,
however built, passes the norm check. States that are compared, projected
or measured together must list their subsystems in the same order; a
different order raises DimensionMismatchError rather than silently
pairing the wrong amplitudes.

A Subspace is a projective test: the span of one or more orthonormal basis
states over one space, checked once, when it is built. `project`,
`project_all`, `subspace_probability` and `measure_projector` take only a
Subspace, which they match against the state's space.

A StateStack holds k >= 1 states over one space as the rows of one
read-only (k, dim) array, and is only ever passed whole. Only `stack`,
which concatenates the rows of states and stacks, and the stacked kernels
build one. `apply_all`, `project_all` and `overlap_all` push a whole stack
through the kernels that `apply`, `project`, `measure_projector` and
`overlap` run as their one-row case, so row r's result is the scalar
call's, bit for bit. The stack axis leads the state's axes, so numpy's
matmul makes one BLAS product per state, the product the scalar call
makes; one 2-D product over all k states would not (OpenBLAS rounds the
columns past a multiple of four with other kernels).

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

from .errors import DimensionMismatchError

NORM_TOL = 1e-12
ORTHO_TOL = 1e-10
_VANISHING = 1e-15  # a projection below this probability has no post state
_SUM_ATOL = sqrt(np.finfo(np.float64).eps)  # Generator.choice's tolerance on sum(p) - 1


@lru_cache(maxsize=128)
def _space(dims: tuple, labels: tuple) -> tuple[tuple[int, ...], tuple[str, ...], int]:
    """(dims, labels, dim) of a labeled space, checked once per distinct space.

    The dims come back as Python ints and dim is their product. A space
    with a label per dim, no label twice, is cached; an invalid one raises
    on every call, as lru_cache caches no exception.
    """
    dims = tuple(map(int, dims))
    if len(dims) != len(labels):
        raise DimensionMismatchError("dims and labels must have equal length")
    if len(set(labels)) != len(labels):
        raise DimensionMismatchError(f"duplicate subsystem labels: {labels}")
    return dims, labels, prod(dims)


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over a labeled tensor-product basis."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)  # a copy: the caller's array stays writable
        amps.setflags(write=False)
        dims, labels, dim = _space(tuple(self.dims), tuple(self.labels))
        # one dict update sets the frozen fields, as `_adopt` does
        self.__dict__.update(dims=dims, labels=labels, amps=amps)
        if amps.shape != (dim,):
            raise DimensionMismatchError(f"expected {dim} amplitudes, got {amps.shape}")
        _check_norm(amps)


def _check_norm(amps: np.ndarray) -> None:
    """The check every state passes, whichever way it is built: amps is one
    state, or a (k, dim) stack whose rows are checked in one loop."""
    # a stack's rows take the BLAS dot that np.vdot takes; the first bad row is reported
    squares = np.vecdot(amps, amps).real.tolist() if amps.ndim == 2 else (np.vdot(amps, amps).real,)
    for square in squares:
        n = sqrt(square)
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


@dataclass(frozen=True, eq=False, init=False)
class StateStack:
    """k >= 1 normalized states over one labeled space: row r of the read-only
    (k, dim) amps is state r. Built only by `stack` and the stacked kernels."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    amps: np.ndarray


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


def _check_same_space(dims: tuple[int, ...], labels: tuple[str, ...], s) -> None:
    """s, a state, stack or subspace, lists the subsystems of (dims, labels) in their order."""
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
    for s in states:
        _check_same_space(first.dims, first.labels, s)
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


@lru_cache(maxsize=128)
def _targets(targets: tuple[str, ...]) -> tuple[str, ...]:
    """An operator's target labels, checked once per distinct tuple: no label twice."""
    if len(set(targets)) != len(targets):
        raise DimensionMismatchError(f"duplicate target labels: {targets}")
    return targets


@dataclass(frozen=True)
class UnitaryOp:
    """A unitary matrix acting on an ordered subset of subsystems."""

    matrix: np.ndarray
    target_subsystems: tuple[str, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)  # a copy: the caller's array stays writable
        m.setflags(write=False)
        self.__dict__.update(matrix=m, target_subsystems=_targets(tuple(self.target_subsystems)))
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
    _check_same_space(a.dims, a.labels, b)
    return complex(np.vdot(a.amps, b.amps))


def overlap_all(a: StateVector, states: StateStack) -> np.ndarray:
    """<a|s> for every state s of the stack, bit for bit `overlap(a, s)`.

    `np.vecdot` conjugates a and takes the BLAS dot that `np.vdot` takes with each row.
    """
    _check_same_space(a.dims, a.labels, states)
    return np.vecdot(a.amps, states.amps)


@dataclass(frozen=True, eq=False, init=False)
class Subspace:
    """The span of one or more orthonormal states over one labeled space: a
    projective test, checked once, when it is built.

    Its basis states must share dims and labels in one order and be
    pairwise orthogonal; each already passed the norm check. `basis` holds
    them as the rows of one read-only (m, dim) array.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]
    basis: np.ndarray

    def __init__(self, basis_states: Sequence[StateVector]):
        if not basis_states:
            raise DimensionMismatchError("a subspace needs at least one basis state")
        rows = stack(basis_states)
        for i, u in enumerate(rows.amps):
            for v in rows.amps[i + 1 :]:
                dev = abs(np.vdot(u, v))
                if dev > ORTHO_TOL:
                    raise DimensionMismatchError(
                        f"basis states {i} and later are not orthogonal: |<u|v>| = {dev:.3g}"
                    )
        self.__dict__.update(dims=rows.dims, labels=rows.labels, basis=rows.amps)


def _coefficients(s: StateVector | StateStack, subspace: Subspace) -> np.ndarray:
    """<b|r> for every row r of s, a state or a stack, and every basis state b,
    as a (k, m) array, once the subspace is matched against s's space.

    One broadcast `np.vecdot` conjugates each b and takes one BLAS dot with
    each row: bit for bit the `np.vdot(b, r)` that `overlap` takes.
    """
    _check_same_space(s.dims, s.labels, subspace)
    return np.vecdot(subspace.basis, s.amps.reshape(-1, 1, s.amps.shape[-1]))


def _weight(coeffs: np.ndarray, r: int) -> float:
    """sum |<b|s>|^2 over the basis for row r, term by term in basis order."""
    return float(sum(abs(c) ** 2 for c in coeffs[r].tolist()))


def _project_rows(
    s: StateVector | StateStack, subspace: Subspace, coeffs: np.ndarray, inside: bool
) -> tuple[list[float], StateStack | None]:
    """`project_all` of the rows of s, a state or a stack, their coefficients
    from `_coefficients` already taken."""
    rows = s.amps.reshape(-1, s.amps.shape[-1])
    # summed onto zeros in basis order, so -0.0 components become +0.0
    in_span = np.zeros(rows.shape, dtype=complex)
    for j, b in enumerate(subspace.basis):
        in_span += coeffs[:, j, None] * b
    targets = in_span if inside else rows - in_span
    # np.linalg.norm's own formula for a complex vector, row by row, without its dispatch
    re, im = targets.real, targets.imag
    # a vanishing row reads 0.0; a NaN row is kept, and fails the norm check
    probs = [
        0.0 if (p := sqrt(square) ** 2) < _VANISHING else p
        for square in (np.vecdot(re, re) + np.vecdot(im, im)).tolist()
    ]
    if 0.0 in probs:  # the kept rows are taken only when some row vanishes
        kept = [r for r, p in enumerate(probs) if p]
        if not kept:
            return probs, None
        targets = targets.take(kept, axis=0)
        roots = [sqrt(probs[r]) for r in kept]
    else:
        roots = [sqrt(p) for p in probs]
    targets /= np.array(roots)[:, None]  # targets is a fresh array
    return probs, _adopt_stack(s.dims, s.labels, targets)


def _project_one(
    s: StateVector, subspace: Subspace, coeffs: np.ndarray, inside: bool
) -> tuple[float, StateVector]:
    """`project` of s, its coefficients already taken; a vanishing probability raises."""
    (p,), posts = _project_rows(s, subspace, coeffs, inside)
    if posts is None:
        raise DimensionMismatchError("projection has vanishing probability, cannot renormalize")
    post = object.__new__(StateVector)  # the stack's one row, already norm-checked
    post.__dict__.update(dims=s.dims, labels=s.labels, amps=posts.amps[0])
    return p, post


def subspace_probability(s: StateVector, subspace: Subspace) -> float:
    """Probability that s is found in the subspace."""
    return _weight(_coefficients(s, subspace), 0)


def project(s: StateVector, subspace: Subspace, inside: bool = True) -> tuple[float, StateVector]:
    """Project s onto the subspace (or onto its complement) and renormalize.

    Returns (probability of that outcome, renormalized post state); a
    vanishing probability raises DimensionMismatchError.
    """
    return _project_one(s, subspace, _coefficients(s, subspace), inside)


def project_all(
    states: StateStack, subspace: Subspace, inside: bool = True
) -> tuple[list[float], StateStack | None]:
    """`project` of every state of the stack, in one pass.

    Returns (probs, posts): probs[r] is the probability of row r's outcome,
    and posts stacks the renormalized post states of the rows whose
    probability does not vanish, in row order (None if every row's does).
    A vanishing row's probability reads 0.0 where `project` raises; each
    kept row's probability and post state are `project`'s, bit for bit.
    """
    return _project_rows(states, subspace, _coefficients(states, subspace), inside)


def measure_projector(
    s: StateVector, subspace: Subspace, seed: int | np.random.Generator
) -> MeasurementResult:
    """Two-outcome projective measurement {P, 1-P} with P the projector onto the subspace.

    Outcome index 0 means "inside the subspace", 1 means "outside". The
    outcome is sampled from the Born probabilities using the given seed or
    generator; the post state is the renormalized projection. The overlaps
    of s with the basis are taken once, for both steps. The result's
    inside_probability equals `subspace_probability(s, subspace)`.
    """
    coeffs = _coefficients(s, subspace)
    p_in = _weight(coeffs, 0)
    rng = np.random.default_rng(seed)
    inside = bool(rng.random() < p_in)
    prob, post = _project_one(s, subspace, coeffs, inside)
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
