import ast
import importlib
import pathlib
import pkgutil

import pytest

import qflat

# every module of the package but the console entry point, which has no API
MODULES = sorted(m.name for m in pkgutil.iter_modules(qflat.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"qflat.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing
    exec(f"from qflat.{name} import *", {})


def test_every_private_helper_is_read_in_the_package():
    # a module-level _name that no source of the package reads again is dead
    # code, even when a test still calls it
    defined, read = {}, set()
    for path in sorted(pathlib.Path(qflat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert defined
    dead = sorted(f"{path}:{name}" for name, path in defined.items() if name not in read)
    assert not dead, dead


# bench/tracing.py wraps qflat.cli.hypergeom_poly, which cli itself no longer
# calls; the exemption goes once the benchmark's targets are revised
# (ROADMAP item 4)
UNREAD_IMPORTS = {("cli.py", "hypergeom_poly")}


def test_every_import_is_read_by_its_module():
    # a module-level import that its module neither reads nor lists in
    # __all__ only grows the compiled module
    unread = []
    for path in sorted(pathlib.Path(qflat.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set(importlib.import_module(f"qflat.{path.stem}").__dict__
                       .get("__all__", ()))
        unread += [(path.name, name) for name in bound
                   if name not in read | exported
                   and (path.name, name) not in UNREAD_IMPORTS]
    assert not unread, unread


# the parameter box is stated once, by quadrature._check_grid; every other
# module asks that check instead of reading the bounds
BOX_BOUNDS = {"MIN_TAU", "MAX_TAU", "TOL_MIN", "TOL_MAX", "MAX_DEGREE", "MAX_DIM"}


def test_box_bounds_are_read_by_quadrature_only():
    readers = set()
    for path in sorted(pathlib.Path(qflat.__file__).parent.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            readers.update(f"{path.name}:{name}" for name in names if name in BOX_BOUNDS)
    assert not readers, sorted(readers)


def _sites(tree, match):
    """The innermost function around each node of ``tree`` that ``match``
    accepts, or "<module>" for a node outside every function."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if match(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def _refers_to(node, name):
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def test_error_rule_is_stated_by_settle_only():
    # quadrature._settle forms every term of a cell's error and raises every
    # ConvergenceError; the rounding floor is read there alone, as the panel
    # target tol/2 lies above it at every tol
    built, floor = [], set()
    for path in sorted(pathlib.Path(qflat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        built += [f"{path.stem}.{where}" for where in _sites(
            tree, lambda node: isinstance(node, ast.Call)
            and _refers_to(node.func, "ConvergenceError"))]
        floor.update(f"{path.stem}.{where}" for where in _sites(
            tree, lambda node: _refers_to(node, "_ROUND_C")
            and not isinstance(getattr(node, "ctx", None), ast.Store)))
    assert built == ["quadrature._settle"]
    assert floor == {"quadrature._settle"}


def test_quadrature_reads_no_sign():
    # every integrand of q_p's class is positive, so no step of the engine
    # carries a sign
    tree = ast.parse((pathlib.Path(qflat.__file__).parent / "quadrature.py").read_text())
    readers = _sites(tree, lambda node: _refers_to(node, "sign")
                     or _refers_to(node, "copysign"))
    assert not readers, readers


# start-up is timed up to the parsed argv, so an import moved into a
# function body only moves its cost past that point; cli reads
# centrality_check through flatness at each call, where bench/tracing.py
# wraps it
DEFERRED_IMPORTS = {"cli._rows_centrality: from .flatness import centrality_check"}


def test_imports_are_module_level_and_none_is_dataclasses():
    # @dataclass writes, compiles and runs the source of every method of
    # every record at import; a NamedTuple compiles only its constructor
    deferred, dataclasses = set(), []
    for path in sorted(pathlib.Path(qflat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred.update(
                    f"{path.stem}.{node.name}: {ast.unparse(inner)}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom)))
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            dataclasses += [f"{path.name}: {ast.unparse(node)}" for name in modules
                            if name.split(".")[0] == "dataclasses"]
    assert not deferred - DEFERRED_IMPORTS, sorted(deferred - DEFERRED_IMPORTS)
    assert not dataclasses, dataclasses
