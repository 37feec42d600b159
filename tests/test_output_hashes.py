"""Byte-identity guard for the command-line outputs.

Pins the SHA-256 of what the README commands write, plus the JSON variants
of ``evolve``, ``contour`` and ``blp`` and an underdamped ``evolve`` whose
negative and exponent-form values the README commands do not reach.  Three
in-process digests pin the numbers under them: the closed-form kernel
across the three regimes, the trace-distance windows that
``verify``'s criteria_agreement check finds, and the random pairs that
``blp_numeric`` draws for a seed.  A refactor that is meant to leave behaviour
unchanged must leave every digest unchanged; a deliberate output change
updates the digest together with a line in CHANGES.md saying why.

The digests were computed with numpy 2.4.6 on CPython 3.11 (x86-64); the
last bits of the transcendental functions may differ on another numpy or
libm build, so a mismatch there is a platform difference, not a
regression, until reproduced on that platform's own baseline.
"""

import hashlib

import numpy as np
import pytest

import qubitbath.cli as cli
from qubitbath.analytic import (
    abs_coherence_derivative,
    coherence_factor,
    coherence_factor_with_derivative,
    has_information_backflow,
    increase_intervals,
)
from qubitbath.errors import PoleError
from qubitbath.lindblad import ModelParams
from qubitbath.markovianity import blp_numeric
from qubitbath.oracles import coherence_log_derivative

EVOLVE = ["evolve", "--xi", "1", "--kappa", "8", "--bloch", "0,0,1", "--t-max", "10", "--dt", "0.01"]
CONTOUR = ["contour", "--xi", "1", "--kappa-range", "0:14:141", "--t-max", "10", "--dt", "0.01"]
BLP = ["blp", "--xi", "1", "--kappa-range", "0:8:17", "--pairs", "16", "--seed", "0"]
# kappa below 8|xi| with a tilted Bloch vector: negative y, exponent-form gaps
EVOLVE_UNDERDAMPED = ["evolve", "--xi", "1", "--kappa", "4", "--bloch=0.3,-0.2,0.5", "--t-max", "20", "--dt", "0.002"]
THRESHOLD = ["threshold", "--xi", "2", "--kappa-range", "8:40", "--tol", "1e-6"]

FILE_OUTPUTS = {
    "evolve-csv": (EVOLVE, "2095e654a959fd4c906b3f4cd3dd1559977f3a045ed1d6963f0273a214f92339"),
    "contour-csv": (CONTOUR, "d66249c5cb767d673fb59c736bf5d7e758d3f29835ac2ac3b8a388efe4339317"),
    "blp-csv": (BLP, "43cb66f74e9a4f6f6e37d9c3c29b4dfa54adaa9d4c6468e4bba4132cae5b6bd8"),
    "evolve-json": (EVOLVE + ["--format", "json"], "6d1b5c746f9569d7c89f5fd55ff1ccfcd65ba32f6c82a699660698c0b7d81466"),
    "blp-json": (BLP + ["--format", "json"], "de408263d4b66d43d534e65b20dc8d7a35255d1827b6b6f63ba1da9be88f6eb1"),
    "contour-json": (CONTOUR + ["--format", "json"], "5f95cbf9f2c0ad84f1e46d233ee28fe39bef5106f2852b133e3129ec1ecb8b4a"),
    "evolve-underdamped-csv": (EVOLVE_UNDERDAMPED, "e023d2c5338438adbb8d8e39aa8ee258a9814ff3ed24932004108cf7a287670f"),
    "evolve-underdamped-json": (
        EVOLVE_UNDERDAMPED + ["--format", "json"],
        "288aa5870d1cbe256de00fd5297f7f48b2618ba6c72d4fb5c70bc133ec8af2eb",
    ),
}


@pytest.mark.parametrize("name", sorted(FILE_OUTPUTS))
def test_file_output_digest(name, tmp_path):
    argv, digest = FILE_OUTPUTS[name]
    out = tmp_path / name
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_threshold_stdout_digest(capsys):
    assert cli.main(THRESHOLD) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2960e086cd65dd84becd226bfff2e1ec2ef4d2436f21376473df7c93cc4e834a"
    )


# underdamped (incl. kappa = 0 and negative xi), critical and both sides of
# it inside the REGIME_TOL band, overdamped (incl. xi = 0); the overdamped
# points reach s = disc*(t/4)**2 > 900, where the long-time form takes over
KERNEL_PARAMS = [
    (1.0, 4.0), (-0.5, 3.9), (1.0, 0.0), (1.0, 8.0), (1.0, 8.0 * (1 + 1e-9)),
    (1.0, 8.0 * (1 - 1e-9)), (1.0, 8.5), (1.0, 20.0), (0.0, 3.0), (1e-3, 50.0),
]
KERNEL_TIMES = [0.0, 1e-170, 1e-8, 0.1, 1.0, 3.7, 6.0, 7.0, 10.0, 50.0, 200.0, 1e3, 1e5]


def test_closed_form_kernel_digest():
    digest = hashlib.sha256()
    times = np.array(KERNEL_TIMES)
    for xi, kappa in KERNEL_PARAMS:
        params = ModelParams(xi, kappa)
        for fn in (coherence_factor, lambda p, t: coherence_factor_with_derivative(p, t)[1], abs_coherence_derivative):
            digest.update(np.asarray(fn(params, times)).tobytes())
            digest.update(np.array([fn(params, t) for t in KERNEL_TIMES]).tobytes())
        for t in KERNEL_TIMES:
            try:
                digest.update(np.float64(coherence_log_derivative(params, t)).tobytes())
            except PoleError:
                digest.update(b"pole")
    assert digest.hexdigest() == "00944ffb32f8a6d06fd1ed1617017329ebbc7b16345a5a921eec5d4410a6fa99"


def test_criteria_agreement_edges_digest():
    # the grid, horizons and blp_numeric calls of acceptance's criteria_agreement
    digest = hashlib.sha256()
    for xi in np.linspace(0.25, 2.0, 20):
        for f in np.linspace(0.0, 1.9, 20):
            kappa = float(f * 8.0 * xi)
            if kappa == 0.0:
                continue
            params = ModelParams(float(xi), kappa)
            horizon = None
            if has_information_backflow(params):
                horizon = 1.25 * increase_intervals(params, 1)[0, 1]
            segments = blp_numeric(params, horizon=horizon, n_pairs=0).segments
            digest.update(np.array(segments, dtype=float).tobytes() + b";")
    assert digest.hexdigest() == "74c63d9935b3885a1269444fd0676514ee69a84e934e59e1aa9a406d6cca6a33"


def test_random_pair_stream_digest():
    # which pairs a seed draws, read through their measures as float hex
    digest = hashlib.sha256()
    for xi, kappa, horizon, n_pairs, seed in [(1, 4, None, 64, 11), (1, 0, 10.0, 64, 11), (2, 1, None, 16, 0)]:
        result = blp_numeric(ModelParams(xi, kappa), horizon=horizon, n_pairs=n_pairs, seed=seed)
        digest.update(" ".join(v.hex() for v in result.random_values).encode())
    assert digest.hexdigest() == "bdeaca69eb5e25f5f8fb7e440543d144ba2d74a1bafb8d2306edd3da6641f556"
