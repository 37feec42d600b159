"""``qubitbath verify`` fails when the physics it checks is broken.

Each case copies the package source, applies one textual mutation, asserts
that the mutation happened (so a refactor cannot silently turn it into a
no-op), and runs ``python -m qubitbath.cli verify`` on the mutated copy.
The run must end with exit 3 and name the checks that see the fault.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import qubitbath

SRC = pathlib.Path(qubitbath.__file__).parent

#: (module file, original text, mutated text, checks that must FAIL)
MUTATIONS = {
    # S(a, b) becomes S(b, a): the coupling part changes sign, so the
    # generator built from the sandwich matrices is wrong, not only the table
    "sandwich-transposed": (
        "operator_space.py",
        "sa @ PAULIS[k] @ sb",
        "sb @ PAULIS[k] @ sa",
        {"generator_fidelity", "superoperator_table"},
    ),
}


def failed_checks(stdout: str) -> set[str]:
    return {line.split()[0] for line in stdout.splitlines() if line.split()[1:2] == ["FAIL"]}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_verify_fails_on_mutation(name, tmp_path):
    module, original, mutated, must_fail = MUTATIONS[name]
    package = tmp_path / "src" / "qubitbath"
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
    source = package / module
    text = source.read_text(encoding="utf-8")
    assert text.count(original) == 1
    source.write_text(text.replace(original, mutated), encoding="utf-8")

    env = {**os.environ, "PYTHONPATH": str(package.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "qubitbath.cli", "verify"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 3, run.stdout + run.stderr
    assert must_fail <= failed_checks(run.stdout), run.stdout
