import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qubitbath.acceptance import reference_sandwich_table
from qubitbath.errors import ValidationError
from qubitbath.operator_space import (
    BATH_GROUND,
    PAULIS,
    PauliLabel,
    SIGMA_MINUS,
    coherence4,
    from_coherence4,
    initial_joint_vector,
    sandwich_superop_rep,
    vectorize2q,
)
from qubitbath.oracles import (
    bloch_to_coherence4,
    coherence4_to_bloch,
    devectorize2q,
    partial_trace_bath,
)

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def bath_coeffs(v: np.ndarray) -> np.ndarray:
    """Coherence 4-vector of the bath qubit: the system traced out of the 4x4 matrix."""
    rho = devectorize2q(v).reshape(2, 2, 2, 2)
    return coherence4(np.einsum("iaib->ab", rho)).real


def random_hermitian(entries: np.ndarray) -> np.ndarray:
    """Hermitian 4x4 built from a real (4, 4, 2) block of draws."""
    a = entries[..., 0] + 1j * entries[..., 1]
    return a + a.conj().T


class TestPauliBasics:
    def test_identity(self):
        assert np.array_equal(PAULIS[PauliLabel.I.value], np.eye(2))

    def test_z_convention(self):
        assert np.array_equal(PAULIS[PauliLabel.Z.value], np.diag([1.0, -1.0]))

    def test_x_squares_to_identity(self):
        sx = PAULIS[PauliLabel.X.value]
        assert np.array_equal(sx @ sx, np.eye(2))

    def test_ground_state_and_lowering_convention(self):
        # |0_B> is the sigma_z = -1 eigenstate and sigma_minus lowers into it
        assert np.allclose(PAULIS[3] @ BATH_GROUND, -BATH_GROUND)
        assert np.array_equal(SIGMA_MINUS, np.array([[0, 0], [1, 0]], dtype=complex))


class TestVectorize:
    def test_initial_product_state_layout(self):
        x0, y0, z0 = 0.3, -0.4, 0.5
        rho_s = from_coherence4(bloch_to_coherence4((x0, y0, z0)))
        rho_b = np.outer(BATH_GROUND, BATH_GROUND.conj())
        v = vectorize2q(np.kron(rho_s, rho_b))
        expected = 0.25 * np.array(
            [1, 0, 0, -1, x0, 0, 0, -x0, y0, 0, 0, -y0, z0, 0, 0, -z0]
        )
        assert v == pytest.approx(expected, abs=1e-15)
        assert np.array_equal(v, initial_joint_vector((x0, y0, z0)))

    def test_maximally_mixed(self):
        v = vectorize2q(np.eye(4) / 4.0)
        expected = np.zeros(16)
        expected[0] = 0.25
        assert np.array_equal(v, expected)

    def test_product_of_x_and_z_eigenstates(self):
        rho = np.kron((np.eye(2) + PAULIS[1]) / 2, (np.eye(2) - PAULIS[3]) / 2)
        v = vectorize2q(rho)
        expected = np.zeros(16)
        expected[0] = 0.25   # I (x) I
        expected[3] = -0.25  # I (x) sz
        expected[4] = 0.25   # sx (x) I
        expected[7] = -0.25  # sx (x) sz
        assert v == pytest.approx(expected, abs=1e-15)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 1e-6j
        with pytest.raises(ValidationError, match="Hermitian"):
            vectorize2q(rho)

    def test_tolerates_round_off_asymmetry(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 1e-13j
        rho[1, 0] = -1e-13j  # still slightly non-Hermitian, below tolerance
        vectorize2q(rho)

    def test_rejects_wrong_shape_and_non_finite(self):
        with pytest.raises(ValidationError):
            vectorize2q(np.eye(2))
        bad = np.eye(4, dtype=complex)
        bad[2, 2] = np.inf
        with pytest.raises(ValidationError):
            vectorize2q(bad)


class TestDevectorize:
    def test_zero(self):
        assert np.array_equal(devectorize2q(np.zeros(16)), np.zeros((4, 4)))

    def test_identity_component(self):
        v = np.zeros(16)
        v[0] = 0.25
        assert np.array_equal(devectorize2q(v), np.eye(4) / 4.0)

    def test_initial_vector_is_projector_product(self):
        rho = devectorize2q(initial_joint_vector((0.0, 0.0, 1.0)))
        up = np.array([1.0, 0.0])  # system sigma_z = +1 eigenstate
        expected = np.kron(np.outer(up, up), np.outer(BATH_GROUND, BATH_GROUND.conj()))
        assert rho == pytest.approx(expected, abs=1e-15)
        # it is a rank-one projector
        eigs = np.linalg.eigvalsh(rho)
        assert eigs == pytest.approx([0, 0, 0, 1.0], abs=1e-13)

    @given(hnp.arrays(float, (4, 4, 2), elements=finite))
    def test_round_trip(self, entries):
        rho = random_hermitian(entries)
        back = devectorize2q(vectorize2q(rho))
        assert np.abs(back - rho).max() <= 1e-12

    @given(hnp.arrays(float, (16,), elements=finite))
    def test_trace_identity(self, v):
        assert np.trace(devectorize2q(v)) == pytest.approx(4.0 * v[0], abs=1e-13)

    @given(
        hnp.arrays(float, (4, 4, 2), elements=finite),
        hnp.arrays(float, (4, 4, 2), elements=finite),
        st.floats(-3, 3, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
    )
    def test_linearity(self, e1, e2, a, b):
        r1, r2 = random_hermitian(e1), random_hermitian(e2)
        lhs = vectorize2q(a * r1 + b * r2)
        rhs = a * vectorize2q(r1) + b * vectorize2q(r2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSandwichSuperop:
    def test_identity_pair(self):
        assert np.array_equal(
            sandwich_superop_rep(PauliLabel.I, PauliLabel.I), np.eye(4)
        )

    def test_xx_pair(self):
        assert np.array_equal(
            sandwich_superop_rep(PauliLabel.X, PauliLabel.X),
            np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex),
        )

    @pytest.mark.parametrize("labels", list(reference_sandwich_table().keys()))
    def test_matches_published_table(self, labels):
        a, b = labels
        built = sandwich_superop_rep(PauliLabel[a], PauliLabel[b])
        assert np.array_equal(built, reference_sandwich_table()[labels])

    @given(hnp.arrays(float, (2, 2, 2), elements=finite))
    def test_action_agrees_with_direct_product(self, entries):
        op = entries[..., 0] + 1j * entries[..., 1]
        op = op + op.conj().T
        rep = sandwich_superop_rep(PauliLabel.Y, PauliLabel.Z)
        via_rep = from_coherence4(rep @ coherence4(op))
        direct = PAULIS[2] @ op @ PAULIS[3]
        assert np.abs(via_rep - direct).max() <= 1e-12


class TestPartialTraces:
    def test_bath_trace_of_initial_vector(self):
        v = initial_joint_vector((0.2, -0.1, 0.7))
        coeffs = partial_trace_bath(v)
        assert coeffs == pytest.approx([0.5, 0.1, -0.05, 0.35], abs=1e-15)
        assert coherence4_to_bloch(coeffs) == pytest.approx([0.2, -0.1, 0.7])

    def test_system_trace_of_initial_vector(self):
        bloch = coherence4_to_bloch(bath_coeffs(initial_joint_vector((0.3, 0, 0))))
        assert bloch == pytest.approx([0.0, 0.0, -1.0])

    def test_maximally_mixed(self):
        v = np.zeros(16)
        v[0] = 0.25
        assert partial_trace_bath(v) == pytest.approx([0.5, 0, 0, 0])
        assert bath_coeffs(v) == pytest.approx([0.5, 0, 0, 0])

    @given(
        hnp.arrays(float, (3,), elements=st.floats(-0.5, 0.5, allow_nan=False)),
        hnp.arrays(float, (3,), elements=st.floats(-0.5, 0.5, allow_nan=False)),
    )
    def test_product_state_traces(self, bs, bb):
        rho_s = from_coherence4(bloch_to_coherence4(bs))
        rho_b = from_coherence4(bloch_to_coherence4(bb))
        v = vectorize2q(np.kron(rho_s, rho_b))
        assert coherence4_to_bloch(partial_trace_bath(v)) == pytest.approx(bs, abs=1e-12)
        assert coherence4_to_bloch(bath_coeffs(v)) == pytest.approx(bb, abs=1e-12)
