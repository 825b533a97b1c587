"""The package runs on the Python standard library alone."""

import ast
import sys
from pathlib import Path

import geomstir

PACKAGE = Path(geomstir.__file__).parent


def _imported_top_names(tree: ast.AST):
    # every import statement, including those inside functions; relative
    # imports (level > 0) stay inside the package
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        (path.name, name)
        for path in sources
        for name in _imported_top_names(ast.parse(path.read_text(), str(path)))
        if name not in sys.stdlib_module_names and name != "geomstir"
    }
    assert not foreign, sorted(foreign)


def test_series_holds_no_polynomials():
    # Series coefficients are rationals; polynomial-valued generating
    # functions are assembled by their builders in geom and euler
    path = PACKAGE / "series.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    assert "xpoly" not in names, sorted(names)
