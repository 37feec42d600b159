"""Pauli-basis algebra for one and two qubits.

Everything downstream works in the coherence (Pauli-coefficient)
representation: a single-qubit operator A is stored as the real 4-vector
(w, x, y, z) with A = w*I + x*sx + y*sy + z*sz, and a two-qubit operator as
the real 16-vector v with rho = sum_ij v[4*i+j] * kron(sigma_i, sigma_j),
index i running over the system qubit and j over the bath qubit, both in
the order (I, x, y, z).

Conventions fixed here and relied on everywhere else:

* a normalized single-qubit state has w = 1/2 and Bloch vector (2x, 2y, 2z);
* a normalized two-qubit state has v[0] = 1/4;
* the bath ground state ``|0_B>`` is the sigma_z = -1 eigenstate, i.e. the
  second computational basis vector, so the cooling jump operator
  ``sigma_minus = |0_B><1_B|`` has matrix [[0, 0], [1, 0]].
"""

from __future__ import annotations

from enum import Enum

import numpy as np

class PauliLabel(Enum):
    """The four single-qubit basis labels; ``I`` is the 2x2 identity."""

    I = 0
    X = 1
    Y = 2
    Z = 3


SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Pauli matrices indexed by PauliLabel.value.
PAULIS = np.stack([SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z])

#: kron(sigma_i, sigma_j) for the 16 two-qubit basis elements, row-major in (i, j).
PAULIS_2Q = np.stack(
    [np.kron(PAULIS[i], PAULIS[j]) for i in range(4) for j in range(4)]
)


def coherence4(op: np.ndarray) -> np.ndarray:
    """Complex expansion coefficients (w, x, y, z) of a 2x2 operator.

    ``op = w*I + x*sx + y*sy + z*sz`` with coefficients Tr(op @ sigma)/2.
    The result is complex; it is real exactly when ``op`` is Hermitian.
    """
    op = np.asarray(op, dtype=complex)
    return np.einsum("kab,ba->k", PAULIS, op) / 2.0


def initial_joint_vector(bloch) -> np.ndarray:
    """Coherence 16-vector of ``rho_S(bloch) (x) |0_B><0_B|``.

    This is the canonical initial condition of the model: an arbitrary
    system state alongside the bath in its ground state.
    """
    x0, y0, z0 = (float(c) for c in bloch)
    return 0.25 * np.array(
        [1, 0, 0, -1, x0, 0, 0, -x0, y0, 0, 0, -y0, z0, 0, 0, -z0], dtype=float
    )


def sandwich_superop_rep(a: PauliLabel, b: PauliLabel) -> np.ndarray:
    """4x4 matrix of the map ``rho -> sigma_a @ rho @ sigma_b`` on coherence vectors.

    Built generically: apply the map to each Pauli basis element and
    re-decompose.  Entries are complex in general.  The generator's two
    parts in :mod:`qubitbath.lindblad` are sums of Kronecker products of
    these matrices, and those sums are real.
    """
    sa = PAULIS[PauliLabel(a).value]
    sb = PAULIS[PauliLabel(b).value]
    cols = [coherence4(sa @ PAULIS[k] @ sb) for k in range(4)]
    return np.stack(cols, axis=1)
