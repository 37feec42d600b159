"""The two constant parts of the 16x16 generator, pinned bit for bit.

``build_generator`` returns ``xi * COUPLING_PART + kappa * COOLING_PART``,
so every propagated number rests on these two matrices.  Their SHA-256 was
computed with numpy 2.4.6; a change in how they are built must leave it
unchanged, signed zeros included (``np.array_equal`` does not see -0.0
against +0.0, so the bytes are compared).

The parts are sums of Kronecker products of the sandwich matrices; the
generic decomposition in :mod:`qubitbath.oracles` is the second route.
"""

import hashlib

from qubitbath import lindblad
from qubitbath.lindblad import COOLING_PART, COUPLING_PART
from qubitbath.oracles import bath_dissipator_matrix, generic_generator_parts

PARTS_SHA256 = "2f3f90b6f295332455b6bcc71b761b616b264c5de4b8881fee17b3fe9cd16ac3"


def test_parts_digest():
    digest = hashlib.sha256(COUPLING_PART.tobytes() + COOLING_PART.tobytes()).hexdigest()
    assert digest == PARTS_SHA256


def test_parts_equal_the_generic_decomposition_byte_for_byte():
    coupling, cooling = generic_generator_parts()
    assert coupling.tobytes() == COUPLING_PART.tobytes()
    assert cooling.tobytes() == COOLING_PART.tobytes()


def test_sandwich_sums_are_exactly_real():
    for part in lindblad._sandwich_parts():
        assert part.shape == (16, 16)
        assert not part.imag.any()


def test_bath_damping_equals_the_dissipator_of_sigma_minus():
    # ties sigma_minus = (X - iY)/2 to SIGMA_MINUS and the sigma_z = -1 ground state
    damping = lindblad._bath_damping()
    assert not damping.imag.any()
    assert (damping.real + 0.0).tobytes() == bath_dissipator_matrix(1.0).tobytes()
