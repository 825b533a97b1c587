"""The package runs on the Python standard library alone, computes in exact
arithmetic, imports only what it reads, every memo in it has a named bound
and grows as it is read only through series._upto, every name it exports
has a reader outside the tests, fmpq alone builds the integer-numerator
layout and does its arithmetic, and no dataclass declares a private field."""

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


def _package_imports(source: str):
    """(module, name) of each name the module imports from the package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or node.module.partition(".")[0] == "geomstir"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.partition(".")[0] == "geomstir")


def test_oracle_imports_only_its_memo_bound():
    # the oracle counts by direct construction, so agreement with the routes
    # it checks is meaningful only while it shares none of their arithmetic:
    # from the package it takes one memo bound
    oracle = (PACKAGE / "oracle.py").read_text()
    assert list(_package_imports(oracle)) == [("series", "SECTION_CACHE_SIZE")]


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


def test_harness_writes_its_own_a_triangles():
    # the A-family displays name their own triangles and weights, so the
    # harness reads neither of the ones a_explicit is computed from
    path = PACKAGE / "harness.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module in ("geom", "geomstir.geom"):
            imported.update(alias.name for alias in node.names)
    assert not imported & {"_stirling_a", "_a_ratio"}, sorted(imported)


def _size_cap_reads(source: str):
    """(line, name) of each read or import of a size cap that series._check_size
    compares, or of an import of asymptotics."""
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if (node.module or "").rpartition(".")[2] == "asymptotics":
                names.append("asymptotics")
        elif isinstance(node, ast.Import):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        yield from ((node.lineno, name) for name in names
                    if name in ("MAX_N_BITS", "MAX_LAMBDA_BITS", "asymptotics"))


def test_only_series_compares_the_size_caps():
    # the size rules sit in series._check_size alone: no other module reads
    # their caps, so no module writes a second copy of a rule, and the harness
    # takes nothing from asymptotics
    found = {(path.name, line, name)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "series.py"
             for line, name in _size_cap_reads(path.read_text())
             if name != "asymptotics" or path.name == "harness.py"}
    assert not found, sorted(found)


@pytest.mark.parametrize("source, reads", [
    ("from .series import _check_size\n_check_size(4, ())", []),
    ("from .series import MAX_N_BITS", [(1, "MAX_N_BITS")]),
    ("from . import series\nif n > series.MAX_LAMBDA_BITS: pass",
     [(2, "MAX_LAMBDA_BITS")]),
    ("from .asymptotics import format_sig", [(1, "asymptotics")]),
    ("import geomstir.asymptotics", [(1, "asymptotics")]),
])
def test_size_cap_guard_flags_reads(source, reads):
    assert sorted(_size_cap_reads(source)) == reads


def _layout_calls(source: str):
    """(line, callee) of each call of lcm or object.__new__."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "lcm" \
                    or isinstance(f, ast.Attribute) and (f.attr == "lcm" or (
                        f.attr == "__new__" and isinstance(f.value, ast.Name)
                        and f.value.id == "object")):
                yield node.lineno, ast.unparse(f)


def test_only_fmpq_builds_the_numerator_layout():
    # XPolynomial and Series share one integer-numerator layout: fmpq alone
    # scales rationals to the lcm of their denominators and makes instances
    # that skip the canonicaliser, so no module writes a second copy of it
    found = {(path.name, line, callee)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "fmpq.py"
             for line, callee in _layout_calls(path.read_text())}
    assert not found, sorted(found)


@pytest.mark.parametrize("source, calls", [
    ("from .fmpq import _scaled\n_scaled(cs)", []),
    ("import math\nmath.gcd(a, b)", []),
    ("object.__setattr__(self, '_key', key)", []),
    ("from math import lcm\nd = lcm(2, 3)", [(2, "lcm")]),
    ("import math\nd = math.lcm(*ds)", [(2, "math.lcm")]),
    ("p = object.__new__(Series)", [(1, "object.__new__")]),
])
def test_layout_guard_flags_calls(source, calls):
    assert sorted(_layout_calls(source)) == calls


def _is_dataclass_decorator(node: ast.AST) -> bool:
    f = node.func if isinstance(node, ast.Call) else node
    return (isinstance(f, ast.Name) and f.id == "dataclass"
            or isinstance(f, ast.Attribute) and f.attr == "dataclass")


def _private_fields(source: str):
    """(line, class, field) of each field a dataclass declares under a name
    that starts with an underscore."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) \
                and any(map(_is_dataclass_decorator, node.decorator_list)):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
                        and stmt.target.id.startswith("_"):
                    yield stmt.lineno, node.name, stmt.target.id


def test_no_dataclass_declares_a_private_field():
    # a record is its parameters: private state such as a parameter record's
    # int key lives in a slot of its base, out of fields, asdict and replace
    found = {(path.name, *hit)
             for path in sorted(PACKAGE.glob("*.py"))
             for hit in _private_fields(path.read_text())}
    assert not found, sorted(found)


@pytest.mark.parametrize("source, hits", [
    ("@dataclass(frozen=True)\nclass P:\n    lam: int\n    alpha: Fraction", []),
    ("class P:\n    _key: tuple = ()", []),                     # not a dataclass
    ("@dataclass\nclass P:\n    __slots__ = ('_key',)\n    lam: int", []),
    ("@dataclass(frozen=True, slots=True)\nclass P:\n    lam: int\n"
     "    _key: tuple = field(init=False, repr=False)", [(4, "P", "_key")]),
    ("@dataclasses.dataclass\nclass P:\n    _memo: dict", [(3, "P", "_memo")]),
])
def test_private_field_guard_flags_underscored_fields(source, hits):
    assert list(_private_fields(source)) == hits


_KERNELS = ("_sum", "_product")


def _kernel_reads(source: str):
    """(line, name) of each import or call of fmpq's _sum or _product."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name in _KERNELS)
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in _KERNELS:
                yield node.lineno, ast.unparse(f)


def test_only_fmpq_reads_the_sum_and_product_kernels():
    # +, - and * of XPolynomial and Series are fmpq._Fmpq's: no other module
    # adds or convolves numerator lists itself, so neither class writes a
    # second copy of its arithmetic
    found = {(path.name, line, name)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "fmpq.py"
             for line, name in _kernel_reads(path.read_text())}
    assert not found, sorted(found)


@pytest.mark.parametrize("source, reads", [
    ("from .fmpq import _Fmpq, _canon, _compose\n_canon(cls, num, 1)", []),
    ("total = sum(xs)\n_binomial_sum(n, term)\n_row_product(a, b, n)", []),
    ("p * q + 1", []),
    ("from .fmpq import _canon, _sum\n_sum(cls, a, 1, b, 1)",
     [(1, "_sum"), (2, "_sum")]),
    ("from .fmpq import _product as conv\nconv(a, b)", [(1, "_product")]),
    ("from . import fmpq\nfmpq._product(a, b, 3)", [(2, "fmpq._product")]),
])
def test_kernel_guard_flags_reads(source, reads):
    assert sorted(_kernel_reads(source)) == reads


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


def test_every_tracer_probe_resolves():
    # perfbench/tracing.py wraps the program's functions by dotted name, so a
    # program change that drops or renames a probed name breaks traced runs;
    # the tracer is read and run here, not imported, so nothing is written there
    import types

    import geomstir.cli  # noqa: F401  (loads every module a probe names)

    path = REPO / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    targets = [t for _, ts in tracing.probes() for t in ts]
    assert targets
    for target in targets:
        assert callable(tracing._resolve(target)[2]), target


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


def _extend_loops(source: str):
    """(line, function) of each `while len(...) <= ...` or `< ...` loop, the
    shape of a memo extended in place until it holds an index."""
    tree = ast.parse(source)
    owner = {}  # ast.walk meets an outer function before the ones inside it
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    for node in ast.walk(tree):
        if not isinstance(node, ast.While):
            continue
        test = node.test
        if isinstance(test, ast.Compare) and isinstance(test.left, ast.Call) \
                and isinstance(test.left.func, ast.Name) and test.left.func.id == "len" \
                and isinstance(test.ops[0], (ast.Lt, ast.LtE)):
            yield node.lineno, owner.get(id(node), "<module>")


def test_memos_grow_only_through_upto():
    # a memo that grows as it is read holds (values, source) and is extended
    # by series._upto alone, so every such memo is read the same way
    found = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, name in _extend_loops(path.read_text())
    }
    assert found == {("series.py", "_upto")}, sorted(found)


@pytest.mark.parametrize("source, loops", [
    ("def f(v, n):\n    while len(v) <= n:\n        v.append(0)", [(2, "f")]),
    ("def f(v, n):\n    while len(v) < n + 1:\n        v.append(0)", [(2, "f")]),
    ("def f(v):\n    def g():\n        while len(v) < 3:\n            v.append(0)",
     [(3, "g")]),
    ("while len(v) <= 3:\n    v.append(0)", [(1, "<module>")]),
    ("def f(v):\n    while len(v) > 1:\n        v.pop()", []),
    ("def f(v):\n    while v:\n        v.pop()", []),
    ("def f(v, n):\n    if len(v) <= n:\n        v.append(0)", []),
])
def test_extend_loop_guard_flags_len_bounded_loops(source, loops):
    assert list(_extend_loops(source)) == loops
