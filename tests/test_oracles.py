"""The boundary between the production routes and :mod:`qubitbath.oracles`."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import qubitbath
from qubitbath import analytic, lindblad, markovianity, operator_space, oracles

SRC = pathlib.Path(qubitbath.__file__).parent

#: every second route, by the production module it used to live in
MOVED = {
    lindblad: ["evolve_expm", "evolve_ode", "bath_propagator", "bath_dissipator_matrix"],
    markovianity: [
        "system_map", "intermediate_map", "choi_matrix", "choi_min_eigenvalue",
        "trace_distance", "density_trace_distance",
    ],
    analytic: ["coherence_log_derivative", "_nearest_zero", "dephasing_rate"],
    operator_space: ["devectorize2q", "bloch_to_coherence4", "coherence4_to_bloch", "partial_trace_bath"],
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
    assert callable(getattr(oracles, name))
    assert not hasattr(module, name)
    assert not hasattr(qubitbath, name)
