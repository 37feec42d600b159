"""The README's ``python`` examples run as written.

The blocks are executed in order in one namespace, as a reader pasting
them into one session would; the second block reuses ``params`` from the
first.  The values the examples state in comments are then checked.
"""

import pathlib
import re

import numpy as np
import pytest

from qubitbath import DivisibilityVerdict

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


@pytest.fixture(scope="module")
def namespace():
    names = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), names)
    return names


def test_readme_has_two_python_blocks():
    assert len(BLOCKS) == 2


def test_library_example_states_what_it_computes(namespace):
    params, grid, traj = namespace["params"], namespace["grid"], namespace["traj"]
    assert np.allclose(namespace["coherence_factor"](params, grid.times()), 4 * traj[:, 12], atol=1e-12)
    assert f"{namespace['blp_analytic'](params):.5f}" == "0.19479"
    assert abs(namespace["threshold_scan"](xi=1.0, kappa_lo=1.0, kappa_hi=20.0) - 8.0) <= 1e-6


def test_oracle_example_matches_the_witness(namespace):
    witness = namespace["witness"]
    assert witness.verdict is DivisibilityVerdict.NON_DIVISIBLE
    generic = namespace["choi_min_eigenvalue"](namespace["intermediate_map"](namespace["params"], *witness.worst_interval))
    assert generic == pytest.approx(witness.min_choi_eigenvalue, abs=1e-12)
