"""The boundary between the production routes and :mod:`qubitbath.oracles`."""

import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qubitbath
from qubitbath import analytic, lindblad, markovianity, operator_space, oracles
from qubitbath.errors import SingularMapError, ValidationError
from qubitbath.lindblad import ModelParams

SRC = pathlib.Path(qubitbath.__file__).parent

#: every second route, by the production module it used to live in
MOVED = {
    lindblad: ["evolve_expm", "evolve_ode", "bath_propagator", "bath_dissipator_matrix"],
    markovianity: [
        "system_map", "intermediate_map", "choi_matrix", "choi_min_eigenvalue",
        "trace_distance", "density_trace_distance",
    ],
    analytic: ["coherence_log_derivative", "_nearest_zero", "dephasing_rate"],
    operator_space: [
        "devectorize2q", "bloch_to_coherence4", "coherence4_to_bloch", "partial_trace_bath",
        "vectorize2q", "from_coherence4", "BATH_GROUND", "BATH_EXCITED", "SIGMA_MINUS", "SIGMA_PLUS",
    ],
}


def imports_oracles(path: pathlib.Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            relative = node.level == 1 and (
                node.module == "oracles" or (node.module is None and any(a.name == "oracles" for a in node.names))
            )
            if relative or node.module == "qubitbath.oracles":
                return True
        elif isinstance(node, ast.Import) and any(a.name == "qubitbath.oracles" for a in node.names):
            return True
    return False


def test_only_acceptance_imports_oracles():
    importers = [p.stem for p in sorted(SRC.glob("*.py")) if p.stem != "oracles" and imports_oracles(p)]
    assert importers == ["acceptance"]


def test_package_import_leaves_oracles_unloaded():
    code = "import sys, qubitbath; assert 'qubitbath.oracles' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})


@pytest.mark.parametrize("module,name", [(m, n) for m, names in MOVED.items() for n in names])
def test_moved_name_lives_only_in_oracles(module, name):
    moved = getattr(oracles, name)
    assert callable(moved) or (name.isupper() and isinstance(moved, np.ndarray))
    assert not hasattr(module, name)
    assert not hasattr(qubitbath, name)


class TestIntermediateMaps:
    """The batched intermediate maps against their one-point calls."""

    def test_every_lane_equals_the_one_point_call(self):
        points = [ModelParams(1.0, 4.0), ModelParams(1.0, 8.0), ModelParams(0.5, 20.0), ModelParams(2.0, 0.0)] * 3
        intervals = [(0.0, 0.0), (0.0, 0.7), (0.3, 0.3), (1.2, 2.5), (0.5, 60.0), (3.0, 3.1)] * 2
        maps = oracles._intermediate_maps(points, intervals)
        assert maps.shape == (12, 4, 4)
        for lane, params, (s, t) in zip(maps, points, intervals):
            assert np.array_equal(lane, oracles.intermediate_map(params, s, t))
            # diag(1, 1, r, r) with r from the one-point coherence factors
            ratio = analytic.coherence_factor(params, t) / analytic.coherence_factor(params, s)
            assert np.array_equal(lane, np.diag([1.0, 1.0, ratio, ratio]))

    def test_first_bad_lane_raises_the_one_point_error(self):
        params = ModelParams(1.0, 4.0)
        zero = analytic.increase_intervals(params, 1)[0, 0]
        cases = [
            ((zero, zero + 0.1), SingularMapError, f"coherence factor vanishes at s={zero:.6g}"),
            ((2.0, 1.0), ValidationError, "need 0 <= s <= t, got s=2.0, t=1.0"),
        ]
        for bad, error, message in cases:
            with pytest.raises(error) as one:
                oracles.intermediate_map(params, *bad)
            with pytest.raises(error) as batched:
                oracles._intermediate_maps([params] * 3, [(0.0, 1.0), bad, (0.5, 1.0)])
            assert str(batched.value) == str(one.value)
            assert str(one.value).startswith(message)
