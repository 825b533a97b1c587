"""The package runs on the Python standard library alone, computes in exact
arithmetic, imports only what it reads, every memo in it has a named bound,
and every name it exports has a reader outside the tests."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import geomstir

PACKAGE = Path(geomstir.__file__).parent
REPO = Path(__file__).resolve().parent.parent


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


def test_only_format_sig_makes_floats():
    # the package computes over Fractions; the one float is the display
    # rendering of the asymptotic error columns
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "asymptotics.py":
            allowed = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                       and fn.name == "format_sig" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "float" and id(node) not in allowed:
                found.add((path.name, node.lineno, "float()"))
            elif isinstance(node, ast.Attribute) and node.attr in ("exp", "lgamma") \
                    and isinstance(node.value, ast.Name) and node.value.id == "math":
                found.add((path.name, node.lineno, f"math.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found.update((path.name, node.lineno, f"math.{alias.name}")
                             for alias in node.names if alias.name in ("exp", "lgamma"))
    assert not found, sorted(found)


def _unread_imports(source: str):
    """(line, name) of each name the module imports but never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_every_import_is_read():
    # __init__.py imports to re-export; every other module reads what it imports
    found = {
        (path.name, *unread)
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for unread in _unread_imports(path.read_text())
    }
    assert not found, sorted(found)


@pytest.mark.parametrize("source, unread", [
    ("import math\nmath.comb(2, 1)", []),
    ("import math\n", [(1, "math")]),
    ("import os.path\nos.sep", []),
    ("from .series import gff, _q\n_q(1)", [(1, "gff")]),
    ("from .geom import a_eval as ev\nev()", []),
    ("from __future__ import annotations", []),
    ("from .series import Series\ndef f() -> Series: pass", []),
])
def test_import_guard_flags_unread_names(source, unread):
    assert list(_unread_imports(source)) == unread


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


def test_families_read_no_integer_rows():
    # geom, exppoly and euler reach the triangle through weighted_row and
    # _value_sweep, so its integer scaling stays behind stirling.py
    hidden = {"stirling_int_row", "StirlingTable"}
    for name in ("geom.py", "exppoly.py", "euler.py"):
        path = PACKAGE / name
        used = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2] for alias in node.names)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        assert not used & hidden, (name, sorted(used & hidden))


def _referenced_names(paths) -> set[str]:
    """Every Name, Attribute, imported name and last part of a "geomstir.*"
    string (a tracer target) in the files at paths."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.startswith("geomstir."):
                names.add(node.value.rpartition(".")[2])
    return names


def _reader_names() -> set[str]:
    # every name read by the package (outside __init__), its scripts or its
    # benchmark; the tests are not readers
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    for folder in ("scripts", "perfbench"):
        found = sorted((REPO / folder).glob("*.py"))
        assert found, folder
        paths += found
    return _referenced_names(paths)


def test_every_export_has_a_reader():
    # a name in __all__ that only its own tests call is surface, not a route
    unread = set(geomstir.__all__) - _reader_names()
    assert not unread, sorted(unread)


def test_every_method_of_an_export_has_a_reader():
    # a second spelling on an exported class (a method or property nothing
    # outside the tests reads) is surface too; dunder operators are exempt
    names = _reader_names()
    unread = sorted(
        f"{export}.{name}"
        for export in geomstir.__all__
        if inspect.isclass(cls := getattr(geomstir, export))
        for name, value in vars(cls).items()
        if not (name.startswith("__") and name.endswith("__"))
        and (callable(value) or isinstance(value, (property, classmethod, staticmethod)))
        and name not in names
    )
    assert not unread, unread


def _named_bounds() -> set[str]:
    # the memo bounds that sit side by side in series.py
    tree = ast.parse((PACKAGE / "series.py").read_text())
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.endswith("_CACHE_SIZE")}


def _is_lru(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "lru_cache"
            or isinstance(node, ast.Attribute) and node.attr == "lru_cache")


def _unbounded_memos(source: str, bounds: set[str]):
    """(line, text) of each memo that is not lru_cache(maxsize=<bound or 0>)."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node.lineno, "from functools import cache"
        elif isinstance(node, ast.Attribute) and node.attr == "cache" \
                and isinstance(node.value, ast.Name) and node.value.id == "functools":
            yield node.lineno, ast.unparse(node)
        elif _is_lru(node) and id(node) not in called:
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Call) and _is_lru(node.func):
            size = {kw.arg: kw.value for kw in node.keywords}.get("maxsize")
            if not (isinstance(size, ast.Name) and size.id in bounds
                    or isinstance(size, ast.Constant) and type(size.value) is int
                    and size.value == 0):
                yield node.lineno, ast.unparse(node)


def test_every_memo_has_a_named_bound():
    bounds = _named_bounds()
    assert {"TABLE_CACHE_SIZE", "POLY_CACHE_SIZE", "SERIES_CACHE_SIZE"} <= bounds
    found = {
        (path.name, *memo)
        for path in sorted(PACKAGE.glob("*.py"))
        for memo in _unbounded_memos(path.read_text(), bounds)
    }
    assert not found, sorted(found)


@pytest.mark.parametrize("source, flagged", [
    ("@lru_cache(maxsize=POLY_CACHE_SIZE)\ndef f(): pass", False),
    ("@lru_cache(maxsize=0)\ndef f(): pass", False),
    ("@lru_cache\ndef f(): pass", True),
    ("@lru_cache()\ndef f(): pass", True),
    ("@lru_cache(maxsize=None)\ndef f(): pass", True),
    ("@functools.lru_cache(64)\ndef f(): pass", True),
    ("@lru_cache(maxsize=4096)\ndef f(): pass", True),
    ("from functools import cache", True),
    ("g = functools.cache(f)", True),
])
def test_memo_guard_flags_unbounded_memos(source, flagged):
    assert bool(list(_unbounded_memos(source, {"POLY_CACHE_SIZE"}))) is flagged


def _is_dict(node: ast.AST) -> bool:
    return (isinstance(node, (ast.Dict, ast.DictComp))
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict")


_DICT_WRITERS = {"setdefault", "update", "__setitem__"}


def _dict_caches(source: str):
    """(line, name) of each write a function makes into a module-level dict
    (a {...}, dict comprehension or dict(...) bound at the top level): a memo
    with no bound that the lru_cache guard cannot see."""
    tree = ast.parse(source)
    dicts = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_dict(node.value):
            dicts.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and _is_dict(node.value) and isinstance(node.target, ast.Name):
            dicts.add(node.target.id)
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        inner = list(ast.walk(fn))
        local = {n.id for n in inner if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local |= {n.arg for n in inner if isinstance(n, ast.arg)}
        local -= {name for n in inner if isinstance(n, ast.Global) for name in n.names}
        shared = dicts - local
        for node in inner:
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _DICT_WRITERS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in shared:
                yield node.lineno, target.id


def test_no_module_level_dict_is_a_cache():
    found = {
        (path.name, *write)
        for path in sorted(PACKAGE.glob("*.py"))
        for write in _dict_caches(path.read_text())
    }
    assert not found, sorted(found)


@pytest.mark.parametrize("source, flagged", [
    ("_memo = {}\ndef f(k):\n    _memo[k] = 1", True),
    ("_memo = dict()\ndef f(k):\n    return _memo.setdefault(k, 1)", True),
    ("_memo: dict = {}\ndef f(k, v):\n    _memo.update({k: v})", True),
    ("_memo = {k: 0 for k in 'ab'}\nclass C:\n    def f(self, k):\n        _memo[k] += 1",
     True),
    ("_memo = {}\ndef f(k):\n    global _memo\n    _memo = {}\n    _memo[k] = 1", True),
    ("g = lambda k: _memo.__setitem__(k, 1)\n_memo = {}", True),
    ("_TABLE = {'a': 1}\ndef f(k):\n    return _TABLE[k]", False),
    ("_TABLE = {}\n_TABLE['a'] = 1", False),                       # filled at import
    ("def f(k):\n    memo = {}\n    memo[k] = 1", False),           # a local dict
    ("_memo = {}\ndef f(k):\n    _memo = {}\n    _memo[k] = 1", False),  # shadowed
    ("_memo = {}\ndef f(_memo, k):\n    _memo[k] = 1", False),      # a parameter
])
def test_dict_cache_guard_flags_module_level_writes(source, flagged):
    assert bool(list(_dict_caches(source))) is flagged
