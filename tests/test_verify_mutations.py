"""``qubitbath verify`` fails when the physics it checks is broken.

Each case copies the package source, applies one textual mutation, asserts
that the mutation happened (so a refactor cannot silently turn it into a
no-op), and runs ``python -m qubitbath.cli verify`` on the mutated copy.
The run must end with exit 3, and exactly the checks that see the fault
must fail, each printing the detail expected of it.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import qubitbath

SRC = pathlib.Path(qubitbath.__file__).parent

#: (module file, original text, mutated text, {check that must FAIL: text its line holds})
MUTATIONS = {
    # S(a, b) becomes S(b, a): the coupling part changes sign, so the
    # generator built from the sandwich matrices is wrong, not only the table,
    # and so is the propagation from it
    "sandwich-transposed": (
        "operator_space.py",
        "sa @ PAULIS[k] @ sb",
        "sb @ PAULIS[k] @ sa",
        {
            "generator_fidelity": "generator deviates",
            "analytic_numeric_oracle": "closed form - propagated",
            "conservation": "trace dev",
            "superoperator_table": "s_IX deviates",
        },
    ),
    # the coupling part is antisymmetric, so its transpose turns xi into -xi; the dynamics
    # depends on xi**2 and |xi| alone, so only the generator table sees it, and the
    # sandwich table and the threshold, which do not involve it, stay green
    "generator-coupling-transposed": (
        "lindblad.py",
        "params.xi * COUPLING_PART",
        "params.xi * COUPLING_PART.T",
        {"generator_fidelity": "generator deviates"},
    ),
    # 63 for 64 in the discriminant moves the transition to sqrt(63)|xi|: the threshold, the
    # measure's closed form and the predicted windows all move with it
    "discriminant-63": (
        "lindblad.py",
        "64.0 * self.xi**2",
        "63.0 * self.xi**2",
        {
            "threshold_reproduction": "max |kappa* - 8|xi||",
            "blp_closed_form": "max |numeric - analytic|",
            "contour_sign_structure": "no positive value in window",
        },
    ),
    "blp-analytic-exponent": (
        "analytic.py",
        "x = params.kappa * math.pi / math.sqrt(-params.discriminant)",
        "x = 1.01 * params.kappa * math.pi / math.sqrt(-params.discriminant)",
        {"blp_closed_form": "max |numeric - analytic|"},
    ),
    # the windows beyond half the horizon leave more than BLP_REL_TAIL of the measure
    "blp-horizon-halved": (
        "analytic.py",
        "return n * spacing + 0.25 * spacing, n",
        "return 0.5 * (n * spacing + 0.25 * spacing), n",
        {"blp_closed_form": "tail bound 5.400e-04 not satisfied at kappa=2.0"},
    ),
    "bath-correlation-rate": (
        "analytic.py",
        "np.exp(-0.5 * kappa * arr)",
        "np.exp(-0.49 * kappa * arr)",
        {"bath_correlation": "max |numeric - exp(-kappa*tau/2)|"},
    ),
    # the bath's IZ term scaled past 1 keeps the trace but not positivity: the oracle states start
    # with the eigenvalue -0.125, and only the minimum eigenvalue sees it (coefficient 3 does not
    # feed coefficient 12, so the propagated c stays right)
    "initial-state-not-positive": (
        "operator_space.py",
        "[1, 0, 0, -1, x0,",
        "[1, 0, 0, -1.5, x0,",
        {"conservation": "min eig -1.25e-01 (>=-1e-10)"},
    ),
    # the detector's increase sign flipped: it finds the windows where the trace distance falls, so the
    # numeric measure sums decreases and disagrees with the closed form and the other two criteria;
    # contour_sign_structure reads the value route, d|c|/dt itself, and stays green
    "increase-sign-flipped": (
        "analytic.py",
        "return sinhc * (kt4 * sinhc + cosh) < 0",
        "return sinhc * (kt4 * sinhc + cosh) > 0",
        {
            "blp_closed_form": "max |numeric - analytic| = 8.004e-01",
            "criteria_agreement": "200 disagreements, first: (0.25, 0.0, 'rate=False cp=False blp=True')",
        },
    ),
    # the closed-form Choi minimum halved: the generic Choi operator of the worst interval disagrees
    "choi-minimum-halved": (
        "markovianity.py",
        "0.5 * (1.0 - np.abs(ratio))",
        "0.25 * (1.0 - np.abs(ratio))",
        {"criteria_agreement": "Choi minimum -3.750e-01, generic -7.499e-01"},
    ),
}


def failed_checks(stdout: str) -> dict[str, str]:
    """The summary lines of the checks that FAIL, by check name."""
    return {line.split()[0]: line for line in stdout.splitlines() if line.split()[1:2] == ["FAIL"]}


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
    failed = failed_checks(run.stdout)
    assert set(failed) == set(must_fail), run.stdout
    for check, text in must_fail.items():
        assert text in failed[check], failed[check]
