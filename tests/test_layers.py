"""The package's layer rule, read from the import statements of its modules.

:mod:`qubitbath.oracles` holds the second routes, and ``acceptance`` is the
only production module that may import it.  ``acceptance`` and ``cli`` sit
on top: no library module imports either.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qubitbath"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def imported_modules(path: pathlib.Path) -> set[str]:
    """The ``qubitbath`` modules the source file imports, relatively or by package name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("qubitbath."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "qubitbath" and not module.startswith("qubitbath."):
                    continue
                module = module.removeprefix("qubitbath").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # from . import x / from qubitbath import x
                found.update(a.name for a in node.names)
    return found & set(MODULES)


def test_the_package_has_the_expected_modules():
    assert {"acceptance", "cli", "oracles", "markovianity", "analytic", "lindblad"} <= set(MODULES)


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"acceptance", "oracles"}))
def test_production_does_not_import_the_oracles(name):
    assert "oracles" not in imported_modules(PACKAGE / f"{name}.py")


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"acceptance", "cli"}))
def test_library_does_not_import_acceptance_or_cli(name):
    assert not imported_modules(PACKAGE / f"{name}.py") & {"acceptance", "cli"}


def test_the_rule_sees_every_import_form(tmp_path):
    forms = [
        "from .oracles import trace_distance",
        "from . import oracles",
        "import qubitbath.oracles",
        "from qubitbath.oracles import trace_distance",
        "from qubitbath import oracles",
    ]
    for line in forms:
        source = tmp_path / "module.py"
        source.write_text(f"import numpy\n\n\ndef f():\n    {line}\n")
        assert imported_modules(source) == {"oracles"}, line
