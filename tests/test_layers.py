"""Import rules between the package's modules, read from their source.

The verifier is the acceptance gate, so it must share no code with the
solvers it judges; and the exact searches in tests/reference.py are test
code that the package never imports.
"""

import ast
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "snpmux"
_TESTS = Path(__file__).resolve().parent


def _imports(path):
    """The absolute names of every module the file imports, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package: from .x import y
                base = "snpmux." + base if base else "snpmux"
            names.add(base)
            # from . import x, or from snpmux import x, may name a module
            names.update(base + "." + alias.name for alias in node.names)
    return names


def test_decodability_imports_no_solver():
    names = _imports(_PACKAGE / "decodability.py")
    assert not names & {"snpmux.solvers", "snpmux.partition"}, sorted(names)


def test_package_imports_no_test_code():
    test_modules = {"tests"} | {path.stem for path in _TESTS.glob("*.py")}
    paths = sorted(_PACKAGE.glob("*.py"))
    assert "reference" in test_modules and {"solvers.py", "cli.py"} <= {p.name for p in paths}
    for path in paths:
        names = _imports(path)
        assert not {name.split(".")[0] for name in names} & test_modules, (path.name, sorted(names))
