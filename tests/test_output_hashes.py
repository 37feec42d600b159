"""Byte-identity guard for the command-line outputs.

Pins the SHA-256 of what the README commands write, plus the JSON variants
of ``evolve``, ``contour`` and ``blp`` and an underdamped ``evolve`` whose
negative and exponent-form values the README commands do not reach.  A refactor that is meant to leave behaviour
unchanged must leave every digest unchanged; a deliberate output change
updates the digest together with a line in CHANGES.md saying why.

The digests were computed with numpy 2.4.6 on CPython 3.11 (x86-64); the
last bits of the transcendental functions may differ on another numpy or
libm build, so a mismatch there is a platform difference, not a
regression, until reproduced on that platform's own baseline.
"""

import hashlib

import pytest

import qubitbath.cli as cli

EVOLVE = ["evolve", "--xi", "1", "--kappa", "8", "--bloch", "0,0,1", "--t-max", "10", "--dt", "0.01"]
CONTOUR = ["contour", "--xi", "1", "--kappa-range", "0:14:141", "--t-max", "10", "--dt", "0.01"]
BLP = ["blp", "--xi", "1", "--kappa-range", "0:8:17", "--pairs", "16", "--seed", "0"]
# kappa below 8|xi| with a tilted Bloch vector: negative y, exponent-form gaps
EVOLVE_UNDERDAMPED = ["evolve", "--xi", "1", "--kappa", "4", "--bloch=0.3,-0.2,0.5", "--t-max", "20", "--dt", "0.002"]
THRESHOLD = ["threshold", "--xi", "2", "--kappa-range", "8:40", "--tol", "1e-6"]

FILE_OUTPUTS = {
    "evolve-csv": (EVOLVE, "24c2f735571b8365315a9d332053fdb4da126ee2f6f0ab979412f8ad88e75603"),
    "contour-csv": (CONTOUR, "d66249c5cb767d673fb59c736bf5d7e758d3f29835ac2ac3b8a388efe4339317"),
    "blp-csv": (BLP, "43cb66f74e9a4f6f6e37d9c3c29b4dfa54adaa9d4c6468e4bba4132cae5b6bd8"),
    "evolve-json": (EVOLVE + ["--format", "json"], "0bb9f90dd81309ad7c2d237c7e623549c507973f033693ac6e51b67f4ccf9722"),
    "blp-json": (BLP + ["--format", "json"], "de408263d4b66d43d534e65b20dc8d7a35255d1827b6b6f63ba1da9be88f6eb1"),
    "contour-json": (CONTOUR + ["--format", "json"], "5f95cbf9f2c0ad84f1e46d233ee28fe39bef5106f2852b133e3129ec1ecb8b4a"),
    "evolve-underdamped-csv": (EVOLVE_UNDERDAMPED, "19aad1f0b78eb0b447aaade2af609d18f576e7d4c1e7de3da1b25471cd31ee1c"),
    "evolve-underdamped-json": (
        EVOLVE_UNDERDAMPED + ["--format", "json"],
        "adbceabc620a6f349120588cb825b5f3931711228ec06a95eaa6036f2ea82d12",
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
