"""State-vector substrate: tensor products, unitaries, measurement, overlaps."""

import json
from math import inf, nan, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import state_json
from qdice import quantum_core as qc
from qdice import weak_cf
from qdice.colbeck_dr import entangled_pair
from qdice.errors import DimensionMismatchError, NonOrthogonalBasisError
from qdice.weak_cf import UP, DOWN, WeakCFParams, initial_state, rotation_unitary

S2 = sqrt(2.0)


def ket(*indices):
    return qc.basis_state((2,) * len(indices), tuple(f"q{i+1}" for i in range(len(indices))), indices)


def amplitude(state, indices):
    """The amplitude of the basis state with the given per-subsystem indices."""
    return complex(state.amps[np.ravel_multi_index(indices, state.dims)])


def random_state(rng, dims, labels, signed_zeros=False):
    """A seeded random complex state; signed_zeros puts -0.0 and +0.0 parts in."""
    n = int(np.prod(dims))
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps /= np.linalg.norm(amps)
    if signed_zeros and n == 1:
        amps[0] = complex(-0.0, -1.0)
    elif signed_zeros:
        amps.real[0] = -0.0
        amps.imag[-1] = -0.0
        if n > 2:
            amps[1] = complex(-0.0, 0.0)
        amps /= np.linalg.norm(amps)
    return qc.StateVector(dims, labels, amps)


class TestTensor:
    def test_product_basis_state(self):
        up, down = ket(UP), qc.basis_state((2,), ("q2",), (DOWN,))
        combined = qc.tensor(up, down)
        assert combined.dims == (2, 2)
        assert amplitude(combined, (UP, DOWN)) == 1.0
        assert np.count_nonzero(combined.amps) == 1

    def test_protocol_state_with_ancilla(self):
        # equal-weight preparation at p = 1/2, eta = 0
        psi0 = initial_state(WeakCFParams(0.5, 0.0))
        full = qc.tensor(psi0, qc.basis_state((2,), ("q3",), (DOWN,)))
        assert amplitude(full, (UP, DOWN, DOWN)) == pytest.approx(1 / S2, abs=1e-15)
        assert amplitude(full, (DOWN, UP, DOWN)) == pytest.approx(1 / S2, abs=1e-15)
        assert np.count_nonzero(full.amps) == 2

    def test_two_entangled_pairs(self):
        pair1 = entangled_pair(2, "a1", "b1")
        pair2 = entangled_pair(2, "a2", "b2")
        both = qc.tensor(pair1, pair2)
        assert both.amps.size == 16
        nonzero = both.amps[np.abs(both.amps) > 0]
        assert len(nonzero) == 4
        np.testing.assert_allclose(nonzero, 0.5, atol=1e-15)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DimensionMismatchError):
            qc.tensor(ket(UP), ket(DOWN))

    @pytest.mark.parametrize("signed_zeros", [False, True])
    @pytest.mark.parametrize(
        "dims_a, dims_b", [((2,), (2,)), ((2, 2), (2,)), ((2, 3), (3,)), ((3,), (2, 2)), ((4,), (1,))]
    )
    def test_matches_kron_bit_for_bit(self, dims_a, dims_b, signed_zeros):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            a = random_state(rng, dims_a, tuple(f"a{i}" for i in range(len(dims_a))), signed_zeros)
            b = random_state(rng, dims_b, tuple(f"b{i}" for i in range(len(dims_b))), signed_zeros)
            out = qc.tensor(a, b)
            assert out.dims == dims_a + dims_b
            assert out.amps.tobytes() == np.kron(a.amps, b.amps).tobytes()


class TestApply:
    def test_identity_leaves_state_alone(self):
        psi = initial_state(WeakCFParams(0.3, 0.1))
        ident = qc.UnitaryOp(np.eye(4), ("q1", "q2"))
        np.testing.assert_allclose(qc.apply(ident, psi).amps, psi.amps, atol=1e-15)

    def test_rotation_produces_three_term_state(self):
        # balanced case with eta = (sqrt(2)-1)/2: amplitudes
        # (sqrt(1-p-eta), sqrt(p), sqrt(eta)) on |udd>, |dud>, |ddu>
        p, eta = 0.5, (S2 - 1) / 2
        params = WeakCFParams(p, eta)
        full = qc.tensor(initial_state(params), qc.basis_state((2,), ("q3",), (DOWN,)))
        psi1 = qc.apply(rotation_unitary(params), full)
        assert amplitude(psi1, (UP, DOWN, DOWN)) == pytest.approx(sqrt(1 - p - eta), abs=1e-12)
        assert amplitude(psi1, (DOWN, UP, DOWN)) == pytest.approx(sqrt(p), abs=1e-12)
        assert amplitude(psi1, (DOWN, DOWN, UP)) == pytest.approx(sqrt(eta), abs=1e-12)

    def test_rotation_is_self_inverse_on_swap_sector(self):
        # the restriction to span{|ud>, |du>} is a real orthogonal involution
        for p, eta in [(0.5, 0.2071), (0.3, 0.4), (0.7, 0.05)]:
            m = rotation_unitary(WeakCFParams(p, eta)).matrix
            np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-12)

    def test_unitary_applied_on_subsystem_only(self):
        params = WeakCFParams(0.4, 0.2)
        full = qc.tensor(initial_state(params), qc.basis_state((2,), ("q3",), (DOWN,)))
        psi1 = qc.apply(rotation_unitary(params), full)
        # q1 marginal is untouched by a (q2, q3) unitary
        before = np.abs(full.amps.reshape(2, 4)) ** 2
        after = np.abs(psi1.amps.reshape(2, 4)) ** 2
        np.testing.assert_allclose(before.sum(axis=1), after.sum(axis=1), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            qc.apply(qc.UnitaryOp(np.eye(4), ("q1", "q2")), ket(UP))
        with pytest.raises(DimensionMismatchError):
            qc.apply(qc.UnitaryOp(np.eye(2), ("qX",)), ket(UP))

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(DimensionMismatchError):
            qc.UnitaryOp(np.array([[1.0, 1.0], [0.0, 1.0]]), ("q1",))

    @pytest.mark.filterwarnings("error")  # and rejected without a warning
    @pytest.mark.parametrize("bad", [nan, inf, -inf, complex(0.0, nan), complex(inf, 0.0)])
    def test_non_finite_matrix_entry_rejected(self, bad):
        for entry in ((0, 0), (0, 1)):
            m = np.eye(2, dtype=complex)
            m[entry] = bad
            with pytest.raises(DimensionMismatchError, match="not unitary"):
                qc.UnitaryOp(m, ("q1",))

    @pytest.mark.filterwarnings("error")  # and rejected without a warning
    @pytest.mark.parametrize("huge", [1e200, -1e200, complex(1e160, 1e160)])
    def test_an_entry_whose_square_overflows_is_rejected(self, huge):
        for entry in ((0, 0), (0, 1)):
            m = np.eye(2, dtype=complex)
            m[entry] = huge
            with pytest.raises(DimensionMismatchError, match="not unitary"):
                qc.UnitaryOp(m, ("q1",))

    def test_duplicate_target_labels_rejected(self):
        with pytest.raises(DimensionMismatchError, match="duplicate target labels"):
            qc.UnitaryOp(np.eye(4), ("q1", "q1"))

    def test_caller_matrix_stays_writable(self):
        m = np.eye(2, dtype=complex)
        op = qc.UnitaryOp(m, ("q1",))
        m[0, 0] = 5.0
        assert m.flags.writeable and op.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_plan_cache_is_bounded(self):
        qc.apply(qc.UnitaryOp(np.eye(2), ("q2",)), ket(UP, DOWN))
        info = qc._apply_plan.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize

    def test_repeated_oracle_calls_add_no_plan_misses(self):
        weak_cf.alice_cheat_oracle(WeakCFParams(0.4, 0.3))
        misses = qc._apply_plan.cache_info().misses
        for params in (WeakCFParams(0.4, 0.3), WeakCFParams(0.5, 0.2), WeakCFParams(0.1, 0.8)):
            weak_cf.alice_cheat_oracle(params)
        assert qc._apply_plan.cache_info().misses == misses

    def test_unknown_target_raises_on_every_call(self):
        op = qc.UnitaryOp(np.eye(2), ("qX",))
        for _ in range(3):
            with pytest.raises(DimensionMismatchError, match="no subsystem named 'qX'"):
                qc.apply(op, ket(UP, DOWN))

    def test_plan_does_not_skip_the_dimension_check(self):
        state = qc.basis_state((2, 3), ("q1", "q2"), (0, 1))
        qc.apply(qc.UnitaryOp(np.eye(3), ("q2",)), state)
        with pytest.raises(DimensionMismatchError, match="matrix dim 2 != target subsystem dim 3"):
            qc.apply(qc.UnitaryOp(np.eye(2), ("q2",)), state)

    def test_cached_identity_is_read_only_and_untouched(self):
        eye = qc._identity(2)
        assert qc._identity(2) is eye
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0
        for bad in (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[nan, 0.0], [0.0, 1.0]]),
                    np.array([[inf, 0.0], [0.0, 1.0]])):
            with pytest.raises(DimensionMismatchError, match="not unitary"):
                qc.UnitaryOp(bad, ("q1",))
        qc.UnitaryOp(np.array([[0.0, 1.0], [1.0, 0.0]]), ("q1",))
        # the complex identity the complex gram subtracts, so no check casts one
        assert eye.dtype == complex and eye.tobytes() == np.eye(2, dtype=complex).tobytes()

    def test_permuted_targets_act_on_the_named_subsystems(self):
        # a CNOT with control q3 and target q1, on a state whose order is (q1, q2, q3)
        cnot = np.eye(4)[[0, 1, 3, 2]]
        state = qc.basis_state((2, 3, 2), ("q1", "q2", "q3"), (0, 2, 1))
        out = qc.apply(qc.UnitaryOp(cnot, ("q3", "q1")), state)
        assert amplitude(out, (1, 2, 1)) == 1.0


class TestMeasureProjector:
    def test_certain_outcome(self):
        state = ket(UP, DOWN)
        result = qc.measure_projector(state, [ket(UP, DOWN)], seed=0)
        assert result.outcome_index == 0
        assert result.probability == pytest.approx(1.0, abs=1e-15)

    def test_bob_win_probability_is_exactly_p(self):
        for p, eta in [(0.5, 0.2071), (1 / 3, 0.1), (0.8, 0.0)]:
            params = WeakCFParams(p, eta)
            full = qc.tensor(initial_state(params), qc.basis_state((2,), ("q3",), (DOWN,)))
            psi1 = qc.apply(rotation_unitary(params), full)
            sector = [
                qc.basis_state((2, 2, 2), ("q1", "q2", "q3"), (x, UP, DOWN)) for x in (UP, DOWN)
            ]
            assert qc.subspace_probability(psi1, sector) == pytest.approx(p, abs=1e-12)

    def test_post_failure_state_is_verification_state(self):
        # Alice's surviving branch projects onto the verification state exactly
        from qdice.weak_cf import _WIN_SECTOR, alice_pass_state

        params = WeakCFParams(0.4, 0.25)
        full = qc.tensor(initial_state(params), qc.basis_state((2,), ("q3",), (DOWN,)))
        psi1 = qc.apply(rotation_unitary(params), full)
        _, post = qc.project(psi1, _WIN_SECTOR, inside=False)
        assert abs(qc.overlap(alice_pass_state(params), post)) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )

    def test_completeness(self):
        params = WeakCFParams(0.37, 0.21)
        full = qc.tensor(initial_state(params), qc.basis_state((2,), ("q3",), (DOWN,)))
        psi1 = qc.apply(rotation_unitary(params), full)
        sector = [qc.basis_state((2, 2, 2), ("q1", "q2", "q3"), (x, UP, DOWN)) for x in (UP, DOWN)]
        p_in = qc.subspace_probability(psi1, sector)
        p_out, _ = qc.project(psi1, sector, inside=False)
        assert p_in + p_out == pytest.approx(1.0, abs=1e-12)

    def test_inside_probability_is_subspace_probability(self):
        params = WeakCFParams(0.37, 0.21)
        full = qc.tensor(initial_state(params), qc.basis_state((2,), ("q3",), (DOWN,)))
        psi1 = qc.apply(rotation_unitary(params), full)
        sector = [qc.basis_state((2, 2, 2), ("q1", "q2", "q3"), (x, UP, DOWN)) for x in (UP, DOWN)]
        p_in = qc.subspace_probability(psi1, sector)
        outcomes = set()
        for seed in range(12):
            result = qc.measure_projector(psi1, sector, seed)
            outcomes.add(result.outcome_index)
            assert result.inside_probability == p_in  # bit for bit, whichever outcome was drawn
        assert outcomes == {0, 1}

    def test_computational_measurement_has_no_inside_probability(self):
        assert qc.measure_computational(ket(UP, DOWN), "q1", seed=0).inside_probability is None

    def test_non_orthogonal_basis_rejected(self):
        tilted = qc.StateVector((2,), ("q1",), np.array([1 / S2, 1 / S2]))
        with pytest.raises(NonOrthogonalBasisError):
            qc.measure_projector(ket(UP), [ket(UP), tilted], seed=0)

    def test_empty_basis(self):
        state = qc.StateVector((2,), ("q1",), np.array([0.6, 0.8]))
        p, post = qc.project(state, [], inside=False)
        assert p == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_array_equal(post.amps, state.amps)
        with pytest.raises(DimensionMismatchError, match="vanishing"):
            qc.project(state, [], inside=True)

    def test_in_span_vector_starts_from_positive_zero(self):
        # <1|s> = -0.8 makes the in-span product's first real part -0.0; summed
        # from zero, as sum() did, it is +0.0, so the complement keeps the
        # state's -0.0 there, and the renormalized post state does too
        state = qc.StateVector((2,), ("q1",), np.array([complex(-0.0, -0.6), -0.8]))
        basis = [ket(1)]
        c = qc.overlap(basis[0], state)
        assert np.signbit((c * basis[0].amps).real[0])
        want = state.amps - sum(c * b.amps for b in basis)
        p, post = qc.project(state, basis, inside=False)
        assert post.amps.tobytes() == (want / np.sqrt(p)).tobytes()
        assert np.signbit(post.amps.real[0])

    def test_born_rule_sampling(self):
        # 1e5 seeded two-outcome measurements of a known state
        theta = 0.7
        state = qc.StateVector((2,), ("q1",), np.array([np.cos(theta), np.sin(theta)]))
        target = [qc.basis_state((2,), ("q1",), (0,))]
        p = np.cos(theta) ** 2
        rng = np.random.default_rng(12345)
        n = 100_000
        hits = sum(qc.measure_projector(state, target, rng).outcome_index == 0 for _ in range(n))
        sigma = sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 4 * sigma


class TestMeasureComputational:
    def test_collapses_entangled_pair(self):
        pair = entangled_pair(3, "a", "b")
        first = qc.measure_computational(pair, "a", seed=3)
        assert first.probability == pytest.approx(1 / 3, abs=1e-12)
        second = qc.measure_computational(first.post_state, "b", seed=4)
        assert second.outcome_index == first.outcome_index
        assert second.probability == pytest.approx(1.0, abs=1e-12)

    def test_unknown_label_rejected(self):
        with pytest.raises(DimensionMismatchError):
            qc.measure_computational(ket(UP), "nope", seed=0)

    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 3), (1, 2)])
    def test_matches_the_zeroing_loop_bit_for_bit(self, dims):
        rng = np.random.default_rng(99)
        labels = tuple(f"s{i}" for i in range(len(dims)))
        for signed_zeros in (False, True):
            state = random_state(rng, dims, labels, signed_zeros)
            for ax, label in enumerate(labels):
                seen = set()
                for seed in range(40):
                    got = qc.measure_computational(state, label, seed)
                    want = _measure_computational_by_loop(state, label, seed)
                    assert got.outcome_index == want.outcome_index
                    assert got.probability == want.probability
                    assert got.post_state.amps.tobytes() == want.post_state.amps.tobytes()
                    seen.add(got.outcome_index)
                assert seen == set(range(dims[ax]))


def _measure_computational_by_loop(s, label, seed):
    """The reference collapse: copy every amplitude, then zero each other outcome."""
    ax = s.labels.index(label)
    probs_nd = np.abs(s.amps.reshape(s.dims)) ** 2
    marginal = probs_nd.sum(axis=tuple(i for i in range(len(s.dims)) if i != ax))
    marginal = marginal / marginal.sum()
    outcome = int(np.random.default_rng(seed).choice(len(marginal), p=marginal))
    picker = [slice(None)] * len(s.dims)
    new_nd = s.amps.reshape(s.dims).copy()
    for k in range(s.dims[ax]):
        if k != outcome:
            picker[ax] = k
            new_nd[tuple(picker)] = 0.0
    p = float(marginal[outcome])
    post = qc.StateVector(s.dims, s.labels, new_nd.reshape(-1) / np.sqrt(p))
    return qc.MeasurementResult(outcome, p, post)


def _marginal(s, label):
    """The Born marginal of one subsystem, formed as `measure_computational` forms it."""
    ax = s.labels.index(label)
    probs_nd = np.abs(s.amps.reshape(s.dims)) ** 2
    marginal = probs_nd.sum(axis=tuple(i for i in range(len(s.dims)) if i != ax))
    return marginal / marginal.sum()


def _marginal_cases():
    """One-subsystem states for N = 1..16 with zero-probability outcomes first, in the middle and last."""
    rng = np.random.default_rng(314)
    for n in range(1, 17):
        zero_sets = [()]
        if n >= 2:
            zero_sets += [(0,), (n - 1,)]
        if n >= 3:
            zero_sets.append((n // 2,))
        if n >= 4:
            zero_sets.append((0, n // 2, n - 1))
        for zeros in zero_sets:
            amps = rng.normal(size=n) + 1j * rng.normal(size=n)
            amps[list(zeros)] = 0.0
            yield qc.StateVector((n,), ("q",), amps / np.linalg.norm(amps)), "q"
    state = random_state(rng, (2, 3, 2), ("a", "b", "c"), signed_zeros=True)
    for label in state.labels:
        yield state, label


class TestComputationalDraw:
    """`measure_computational` draws what `Generator.choice` draws, from the same stream."""

    def test_outcome_and_generator_state_equal_choice(self):
        seen_last = False
        for state, label in _marginal_cases():
            m = _marginal(state, label)
            for seed in range(12):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = qc.measure_computational(state, label, ours)
                want = int(theirs.choice(len(m), p=m))
                assert got.outcome_index == want
                assert m[want] > 0.0  # a zero-probability outcome is never drawn
                assert ours.bit_generator.state == theirs.bit_generator.state
                seen_last |= want == len(m) - 1 and len(m) > 1
        assert seen_last

    def test_draw_on_a_shared_stream_stays_in_step(self):
        state, label = next(c for c in _marginal_cases() if c[0].dims == (7,))
        m = _marginal(state, label)
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        got = [qc.measure_computational(state, label, ours).outcome_index for _ in range(200)]
        assert got == [int(theirs.choice(len(m), p=m)) for _ in range(200)]
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "probs", [[nan, 1.0], [0.5, nan], [0.5, 0.6], [0.3, 0.3], [inf, 0.0], [0.0, 0.0]]
    )
    def test_probability_check_fails_closed(self, probs):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            np.random.default_rng(5).choice(2, p=np.array(probs))
        with pytest.raises(ValueError, match="do not sum to 1"):
            qc._draw_index(np.array(probs), rng)
        assert rng.bit_generator.state == before  # nothing was drawn

    @pytest.mark.parametrize(
        "probs, u, index",
        [
            ([0.0, 0.5, 0.5], 0.0, 1),  # a zero-probability first outcome is never drawn
            ([0.25, 0.25, 0.5], 0.5, 2),  # a draw on a boundary goes right, as in choice
            ([0.5, 0.5 + 1e-9], 0.4999999999, 1),  # searched in the cdf scaled by its last
        ],
    )
    def test_draw_searches_the_scaled_cdf_to_the_right(self, probs, u, index):
        class Fixed:
            def random(self):
                return u

        assert qc._draw_index(np.array(probs), Fixed()) == index

    def test_probability_check_has_the_tolerance_of_choice(self):
        # choice accepts a sum within sqrt(eps) of 1 and scales by the total
        for probs in ([0.5, 0.5 + 1e-9], [0.25, 0.25, 0.5 - 1e-9]):
            p = np.array(probs)
            for seed in range(20):
                want = np.random.default_rng(seed).choice(len(p), p=p)
                assert qc._draw_index(p, np.random.default_rng(seed)) == want
        with pytest.raises(ValueError):
            qc._draw_index(np.array([0.5, 0.5 + 1e-7]), np.random.default_rng(0))


class TestOverlap:
    def test_self_overlap_is_one(self):
        psi = initial_state(WeakCFParams(0.25, 0.3))
        assert qc.overlap(psi, psi) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_basis_states(self):
        assert qc.overlap(ket(UP, DOWN), ket(DOWN, UP)) == 0.0

    def test_schmidt_term_weight(self):
        psi3 = entangled_pair(3, "a", "b")
        target = qc.basis_state((3, 3), ("a", "b"), (2, 2))
        assert abs(qc.overlap(psi3, target)) ** 2 == pytest.approx(1 / 3, abs=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qc.overlap(ket(UP), ket(UP, DOWN))


class TestLabelOrder:
    # one physical state, |q1 = u, q2 = d>, written in both subsystem orders
    forward = qc.basis_state((2, 2), ("q1", "q2"), (UP, DOWN))
    swapped = qc.basis_state((2, 2), ("q2", "q1"), (DOWN, UP))

    def test_overlap_rejects_a_different_order(self):
        with pytest.raises(DimensionMismatchError, match="labels differ"):
            qc.overlap(self.forward, self.swapped)

    def test_overlap_rejects_different_names(self):
        with pytest.raises(DimensionMismatchError, match="labels differ"):
            qc.overlap(ket(UP), qc.basis_state((2,), ("q9",), (UP,)))

    def test_projections_reject_a_different_order(self):
        for call in (
            lambda: qc.project(self.forward, [self.swapped]),
            lambda: qc.project(self.forward, [self.swapped], inside=False),
            lambda: qc.subspace_probability(self.forward, [self.swapped]),
            lambda: qc.measure_projector(self.forward, [self.swapped], seed=0),
        ):
            with pytest.raises(DimensionMismatchError, match="labels differ"):
                call()


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestInvariants:
    def test_norm_preservation_random_unitaries(self):
        rng = np.random.default_rng(7)
        for dims in [(2,), (2, 2), (4, 2), (2, 2, 2, 2), (16,)]:
            labels = tuple(f"s{i}" for i in range(len(dims)))
            amps = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
            amps /= np.linalg.norm(amps)
            state = qc.StateVector(dims, labels, amps)
            u = qc.UnitaryOp(_haar_unitary(state.amps.size, rng), labels)
            assert np.linalg.norm(qc.apply(u, state).amps) == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(DimensionMismatchError):
            qc.StateVector((2,), ("q1",), np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "amps",
        [[nan, 0.0], [1.0, nan], [inf, 0.0], [-inf, 0.0], [complex(0.0, nan), 1.0], [inf, nan]],
    )
    def test_non_finite_amplitudes_rejected(self, amps):
        with pytest.raises(DimensionMismatchError, match="not normalized"):
            qc.StateVector((2,), ("q1",), np.array(amps))

    def test_caller_amplitudes_stay_writable(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        state = qc.StateVector((2,), ("q1",), amps)
        amps[0] = 0.0
        amps[1] = 1.0
        assert amps.flags.writeable
        assert (amplitude(state, (0,)), amplitude(state, (1,))) == (1.0, 0.0)
        with pytest.raises(ValueError):
            state.amps[0] = 0.0

    def test_basis_state_is_the_same_from_any_sequence_and_read_only(self):
        from_lists = qc.basis_state([2, 2], ["c1", "c2"], [1, 0])
        from_tuples = qc.basis_state((2, 2), ("c1", "c2"), (1, 0))
        from_numpy = qc.basis_state(np.array([2, 2]), ("c1", "c2"), np.array([1, 0]))
        assert _same_bits(from_lists, from_tuples) and _same_bits(from_numpy, from_tuples)
        assert from_numpy.dims == (2, 2) and type(from_numpy.dims[0]) is int
        assert from_lists.labels == ("c1", "c2")
        with pytest.raises(ValueError):
            from_lists.amps[2] = 0.0
        with pytest.raises(AttributeError):
            from_lists.amps = np.array([1.0, 0.0, 0.0, 0.0])
        assert amplitude(from_tuples, (1, 0)) == 1.0 and np.count_nonzero(from_tuples.amps) == 1

    @pytest.mark.parametrize("indices", [(2, 0), (0,), (-1, 0), (0, 0, 0)])
    def test_bad_basis_indices_raise_on_every_call(self, indices):
        for _ in range(2):
            with pytest.raises(DimensionMismatchError, match="do not fit dims"):
                qc.basis_state((2, 2), ("c1", "c2"), indices)

    @pytest.mark.parametrize(
        "amps",
        [[1.0, 1.0], [0.5, 0.0], [nan, 0.0], [1.0, nan], [inf, 0.0], [complex(0.0, nan), 1.0]],
    )
    def test_adopted_arrays_are_norm_checked(self, amps):
        with pytest.raises(DimensionMismatchError, match="not normalized"):
            qc._adopt((2,), ("q1",), np.array(amps, dtype=complex))

    def test_results_are_read_only_and_share_no_caller_memory(self):
        rng = np.random.default_rng(3)
        caller = {
            "a": random_state(rng, (2, 3), ("a0", "a1")).amps.copy(),
            "b": random_state(rng, (2,), ("b0",)).amps.copy(),
            "u": _haar_unitary(3, rng),
            "basis": np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=complex),
        }
        a = qc.StateVector((2, 3), ("a0", "a1"), caller["a"])
        b = qc.StateVector((2,), ("b0",), caller["b"])
        basis = [qc.StateVector((2, 3), ("a0", "a1"), caller["basis"])]
        results = {
            "tensor": qc.tensor(a, b),
            "apply": qc.apply(qc.UnitaryOp(caller["u"], ("a1",)), a),
            "project in": qc.project(a, basis)[1],
            "project out": qc.project(a, basis, inside=False)[1],
            "measure_projector": qc.measure_projector(a, basis, seed=1).post_state,
            "measure_computational": qc.measure_computational(a, "a1", seed=1).post_state,
        }
        for name, out in results.items():
            assert not out.amps.flags.writeable, name
            for held in [*caller.values(), a.amps, b.amps, basis[0].amps]:
                assert not np.shares_memory(out.amps, held), name
        assert all(arr.flags.writeable for arr in caller.values())

    def test_json_amplitudes_match_the_per_element_pairs(self):
        # the bit-identity golden stores states through state_json
        rng = np.random.default_rng(5)
        for dims in [(2,), (2, 2), (2, 3), (2, 2, 2)]:
            labels = tuple(f"s{i}" for i in range(len(dims)))
            state = random_state(rng, dims, labels, signed_zeros=True)
            pairs = [[float(a.real), float(a.imag)] for a in state.amps]
            amps = state_json(state)["amps"]
            # json.dumps tells -0.0 from 0.0, which == on floats does not
            assert json.dumps(amps) == json.dumps(pairs)
            assert all(type(x) is float for pair in amps for x in pair)
        assert "-0.0" in json.dumps(state_json(state)["amps"])

    def test_json_serialization_shape(self):
        psi = initial_state(WeakCFParams(0.5, 0.1))
        d = state_json(psi)
        assert d["dims"] == [2, 2]
        assert d["labels"] == ["q1", "q2"]
        assert len(d["amps"]) == 4
        assert all(len(pair) == 2 for pair in d["amps"])


def _labels(dims):
    return tuple(f"s{i}" for i in range(len(dims)))


def _random_stack(rng, dims, k):
    """k seeded random complex states over dims, with -0.0 and +0.0 parts in every other one."""
    return [random_state(rng, dims, _labels(dims), signed_zeros=bool(r % 2)) for r in range(k)]


def _orthonormal_basis(rng, dims, m):
    """m random orthonormal complex states over dims: the columns of a QR factor."""
    n = int(np.prod(dims))
    q, _ = np.linalg.qr(rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
    return [qc.StateVector(dims, _labels(dims), q[:, j]) for j in range(m)]


def _one_hot_basis(dims, picks, negative_zeros):
    """Computational basis states; negative_zeros writes their zero entries as -0.0."""
    n = int(np.prod(dims))
    basis = []
    for i in picks:
        amps = np.full(n, -0.0 if negative_zeros else 0.0, dtype=complex)
        amps[i] = 1.0
        basis.append(qc.StateVector(dims, _labels(dims), amps))
    return basis


def _rows(states: qc.StateStack) -> list[qc.StateVector]:
    """Each row of a stack as its own state."""
    return [qc.StateVector(states.dims, states.labels, row) for row in states.amps]


def _same_bits(a: qc.StateVector, b: qc.StateVector) -> bool:
    return a.amps.tobytes() == b.amps.tobytes() and (a.dims, a.labels) == (b.dims, b.labels)


def _assert_project_all_is_the_loop(states, basis, inside):
    """`project_all` of the stacked states against the per-state `project`
    loop, bit for bit: a row where `project` raises for a vanishing
    probability reads 0.0 and has no post state."""
    probs, posts = qc.project_all(qc.stack(states), basis, inside)
    want_probs, want_posts = [], []
    for state in states:
        try:
            p, post = qc.project(state, basis, inside)
        except DimensionMismatchError as exc:
            assert "vanishing" in str(exc)
            want_probs.append(0.0)
            continue
        want_probs.append(p)
        want_posts.append(post)
    assert [p.hex() for p in probs] == [p.hex() for p in want_probs]
    if not want_posts:
        assert posts is None
        return
    assert not posts.amps.flags.writeable
    assert len(posts.amps) == len(want_posts)
    for got, want in zip(_rows(posts), want_posts):
        assert _same_bits(got, want)


# (dims, targets): the rest of the state spans 1, 2, 3 or 4 columns per state, so
# stacks cross the matmul's blocks of four columns; targets also come permuted
APPLY_CASES = [
    ((2,), (0,)),
    ((2, 2), (1,)),
    ((2, 2, 2), (1, 2)),
    ((2, 3, 2), (2, 0)),
    ((3, 2, 2), (0,)),
    ((2, 2, 2, 2), (3, 1)),
    ((4, 3), (0,)),
]


class TestStacks:
    @pytest.mark.parametrize("dims, targets", APPLY_CASES)
    def test_apply_all_is_the_per_state_loop_bit_for_bit(self, dims, targets):
        rng = np.random.default_rng(31)
        labels = _labels(dims)
        d = int(np.prod([dims[t] for t in targets]))
        for k in (1, 2, 3, 4, 5, 7):
            u = qc.UnitaryOp(_haar_unitary(d, rng), tuple(labels[t] for t in targets))
            states = _random_stack(rng, dims, k)
            out = qc.apply_all(u, qc.stack(states))
            assert out.amps.shape[0] == k and not out.amps.flags.writeable
            for got, state in zip(_rows(out), states, strict=True):
                assert _same_bits(got, qc.apply(u, state))

    @pytest.mark.parametrize("inside", [True, False])
    @pytest.mark.parametrize("basis_kind", ["one-hot", "one-hot -0.0", "random"])
    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2), (2, 3, 2)])
    def test_project_all_is_the_per_state_loop_bit_for_bit(self, dims, basis_kind, inside):
        rng = np.random.default_rng(47)
        n = int(np.prod(dims))
        for m in range(n):  # the empty basis too
            if basis_kind == "random":
                basis = _orthonormal_basis(rng, dims, m) if m else []
            else:
                picks = rng.permutation(n)[:m]
                basis = _one_hot_basis(dims, picks, negative_zeros=basis_kind.endswith("-0.0"))
            for k in (1, 2, 4, 5):
                _assert_project_all_is_the_loop(_random_stack(rng, dims, k), basis, inside)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        dims=st.sampled_from([(2,), (3,), (2, 2), (2, 3), (2, 2, 2), (2, 3, 2), (4, 4), (2, 2, 2, 2)]),
        seed=st.integers(0, 2**32 - 1),
        one_hot=st.sampled_from([None, 0.0, -0.0]),
        inside=st.booleans(),
        data=st.data(),
    )
    def test_project_all_is_the_loop_on_any_stack(self, dims, seed, one_hot, inside, data):
        # rows are random states, with or without signed zeros, or columns of
        # the basis's unitary: a column in the basis vanishes outside it and
        # a column past it vanishes inside
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        if one_hot is None:
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        else:
            q = np.full((n, n), one_hot, dtype=complex)
            q[rng.permutation(n), np.arange(n)] = 1.0
        columns = [qc.StateVector(dims, _labels(dims), q[:, j]) for j in range(n)]
        basis = columns[: data.draw(st.integers(0, n), label="m")]
        kinds = data.draw(st.lists(st.integers(-2, n - 1), min_size=1, max_size=6), label="rows")
        states = [
            columns[kind] if kind >= 0 else random_state(rng, dims, _labels(dims), kind == -2)
            for kind in kinds
        ]
        _assert_project_all_is_the_loop(states, basis, inside)

    def test_one_row_stack_is_the_scalar_call(self):
        rng = np.random.default_rng(5)
        dims = (2, 3, 2)
        state = random_state(rng, dims, _labels(dims), signed_zeros=True)
        u = qc.UnitaryOp(_haar_unitary(6, rng), ("s1", "s0"))
        basis = _orthonormal_basis(rng, dims, 5)
        one = qc.stack([state])
        assert one.amps.tobytes() == state.amps.tobytes() and _same_bits(*_rows(one), state)
        assert _same_bits(*_rows(qc.apply_all(u, one)), qc.apply(u, state))
        for inside in (True, False):
            (p,), posts = qc.project_all(one, basis, inside)
            want_p, want_post = qc.project(state, basis, inside)
            assert p == want_p and _same_bits(*_rows(posts), want_post)
        assert qc.overlap_all(basis[0], one).tolist() == [qc.overlap(basis[0], state)]

    def test_overlap_all_is_the_per_state_overlap_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for dims in [(2,), (2, 2, 2), (2, 3, 2), (4, 4)]:
            states = _random_stack(rng, dims, 5)
            bras = (random_state(rng, dims, _labels(dims), True), *_one_hot_basis(dims, [0], True))
            for a in bras:
                got = qc.overlap_all(a, qc.stack(states))
                want = np.array([qc.overlap(a, s) for s in states])
                assert got.tobytes() == want.tobytes()

    def test_a_vanishing_row_comes_back_with_probability_zero(self):
        basis = [ket(UP)]
        inside, outside = ket(UP), ket(DOWN)
        tilted = qc.StateVector((2,), ("q1",), np.array([0.6, 0.8]))
        probs, posts = qc.project_all(qc.stack([inside, tilted, outside]), basis, inside=False)
        assert probs[0] == 0.0 and probs[2] == 1.0
        assert probs[1] == pytest.approx(0.64, abs=1e-15)
        assert len(posts.amps) == 2  # the vanishing row has no post state
        assert qc.project_all(qc.stack([outside]), basis, inside=True) == ([0.0], None)
        with pytest.raises(DimensionMismatchError, match="vanishing"):
            qc.project(inside, basis, inside=False)  # the scalar call still raises

    def test_the_oracle_rows_that_bob_cannot_fail_on_vanish(self):
        # at eta = 0 Bob's rotation keeps |ud> on (q2, q3): the preparations
        # a_du and a_uu land in his win sector, a_ud and a_dd miss it
        rotated = qc.apply_all(rotation_unitary(WeakCFParams(0.5, 0.0)), weak_cf._PREP_STACK)
        probs, posts = qc.project_all(rotated, weak_cf._WIN_SECTOR, inside=False)
        assert probs == [1.0, 0.0, 0.0, 1.0]
        assert posts.amps.tobytes() == rotated.amps[[0, 3]].tobytes()

    @pytest.mark.parametrize(
        "bad_row",
        [
            [nan, 0.0], [1.0, nan], [inf, 0.0], [complex(0.0, nan), 1.0],
            [1.0, 1.0], [0.5, 0.0], [0.0, 0.0],
        ],
    )
    def test_a_nan_or_unnormalized_row_fails_closed(self, bad_row):
        rows = np.array([[0.6, 0.8], bad_row, [1.0, 0.0]], dtype=complex)
        with pytest.raises(DimensionMismatchError, match="not normalized"):
            qc.StateStack((2,), ("q1",), rows)
        with np.errstate(invalid="ignore"):  # vecdot warns on a non-finite row
            with pytest.raises(DimensionMismatchError, match="not normalized"):
                qc._adopt_stack((2,), ("q1",), rows.copy())
            with pytest.raises(DimensionMismatchError, match="not normalized"):
                qc._check_norm(rows)

    def test_a_caller_built_stack_is_copied_and_checked(self):
        rows = np.array([[0.6, 0.8], [1.0, 0.0]], dtype=complex)
        built = qc.StateStack([2], ["q1"], rows)
        rows[0, 0] = 5.0
        assert rows.flags.writeable and built.amps[0, 0] == 0.6
        assert (built.dims, built.labels, built.amps.shape) == ((2,), ("q1",), (2, 2))
        with pytest.raises(ValueError):
            built.amps[0, 0] = 1.0
        for bad in (np.zeros((0, 2)), np.array([1.0, 0.0]), np.eye(3)):
            with pytest.raises(DimensionMismatchError):
                qc.StateStack((2,), ("q1",), bad)
        with pytest.raises(DimensionMismatchError, match="duplicate"):
            qc.StateStack((2, 2), ("q1", "q1"), np.eye(4)[:1])

    def test_stacks_of_mismatched_states_raise(self):
        forward, swapped = TestLabelOrder.forward, TestLabelOrder.swapped
        with pytest.raises(DimensionMismatchError, match="labels differ"):
            qc.stack([forward, swapped])
        with pytest.raises(DimensionMismatchError, match="dims differ"):
            qc.stack([ket(UP), ket(UP, DOWN)])
        with pytest.raises(DimensionMismatchError, match="at least one"):
            qc.stack([])
        one = qc.stack([forward])
        for call in (
            lambda: qc.project_all(one, [swapped]),
            lambda: qc.overlap_all(swapped, one),
        ):
            with pytest.raises(DimensionMismatchError, match="labels differ"):
                call()
        with pytest.raises(DimensionMismatchError, match="dims differ"):
            qc.project_all(one, [ket(UP)])
        with pytest.raises(NonOrthogonalBasisError):
            qc.project_all(one, [forward, forward])

    def test_a_stack_of_stacks_and_states_is_their_rows_in_order(self, monkeypatch):
        rng = np.random.default_rng(12)
        states = _random_stack(rng, (2, 3), 5)
        want = qc.stack(states)
        checked = []
        monkeypatch.setattr(qc, "_check_norm", checked.append)  # rows already passed it
        for parts in (
            [qc.stack(states[:4]), states[4]],
            [states[0], qc.stack(states[1:3]), qc.stack(states[3:])],
            [want],
        ):
            got = qc.stack(parts)
            assert got.amps.tobytes() == want.amps.tobytes()
            assert (got.dims, got.labels) == (want.dims, want.labels)
            assert not got.amps.flags.writeable
            assert not any(np.shares_memory(got.amps, part.amps) for part in parts)
        assert checked == []
        forward, swapped = TestLabelOrder.forward, TestLabelOrder.swapped
        with pytest.raises(DimensionMismatchError, match="labels differ"):
            qc.stack([qc.stack([forward]), swapped])

    def test_stacks_share_no_caller_memory(self):
        rng = np.random.default_rng(8)
        states = _random_stack(rng, (2, 3), 3)
        u = qc.UnitaryOp(_haar_unitary(3, rng), ("s1",))
        built = qc.stack(states)
        applied = qc.apply_all(u, built)
        basis = [qc.basis_state((2, 3), ("s0", "s1"), (0, 0))]
        _, posts = qc.project_all(applied, basis)
        for out in (built.amps, applied.amps, posts.amps):
            assert not out.flags.writeable
            for held in (*(s.amps for s in states), built.amps if out is not built.amps else None):
                assert held is None or not np.shares_memory(out, held)
