"""The package's public names, checked statically from the source with ast.

Every name a module lists in __all__ exists in it; every name the package
re-exports is in its module's __all__; no module imports a name it never
uses, so a deleted API leaves no import behind; and every public name has a
caller outside the tests, so no API lives on for its own tests alone, and
so has every private function, constant and method.  A snapshot of the public names makes every addition or removal of API show in
a diff of this file.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sgsurrogate"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def bound_by_import(node):
    """The names an import statement binds, each with the statement's line."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]


def defined(tree) -> set:
    """The names the module's top-level statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(name for name, _ in bound_by_import(node))
    return names


def exported(tree) -> list:
    """The strings of the module's __all__, or [] without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def unused_imports(tree) -> list:
    """(name, line) of each imported name the module never reads."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported(tree))
    imports = [b for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for b in bound_by_import(node)]
    return [(name, line) for name, line in imports if name not in used]


def loaded(tree, strings: bool = False) -> set:
    """The names the tree loads, as an ast.Name or the attribute of an ast.Attribute.

    With `strings`, the dot-separated parts of every string constant count
    too, for code that names functions in strings ("module.Class.method").
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def callers() -> set:
    """The names loaded by the package (bar __init__), the demos and the benchmark.

    The benchmark's tracer names the functions it wraps in strings.
    """
    names = set().union(*(loaded(tree) for module, tree in MODULES.items()
                          if module != "__init__"))
    for folder, strings in (("demos", False), ("perfbench", True)):
        for path in sorted((ROOT / folder).glob("*.py")):
            names |= loaded(ast.parse(path.read_text(), filename=str(path)), strings)
    return names


def test_every_module_parsed():
    assert {"core", "smooth", "io", "moments", "adapt", "__init__"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_all_names_exist(module):
    tree = MODULES[module]
    missing = [name for name in exported(tree) if name not in defined(tree)]
    assert not missing, f"{module}.__all__ names undefined {missing}"


def test_reexports_are_in_their_modules_all():
    outside = []
    for node in MODULES["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = exported(MODULES[node.module])
            outside += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert not outside, f"re-exported but not in their module's __all__: {outside}"


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_no_unused_imports(module):
    # __init__ is left out: its imports are the package's public names
    unused = unused_imports(MODULES[module])
    assert not unused, f"{module} imports names it never uses: {unused}"


# the package's public names and every module's __all__, sorted
PUBLIC_API = {
    "sgsurrogate": [
        "AdaptiveConfig", "BuildResult", "ContractViolationError", "DimensionMismatchError",
        "EmptyModelError", "EvaluationError", "GridPoint", "HierarchicalNode",
        "InvalidNodeError", "LevelRecord", "LineGroup", "METHODS", "ModelFunction",
        "MomentEstimate", "MonteCarloEstimate", "OutOfDomainError", "PersistenceError",
        "RegionDatabase", "SmoothRegion", "SparseGridError", "StudyReport", "StudyRow",
        "SurrogateModel", "benchmark_names", "build", "coordinates",
        "derivative_scan", "draw_test_points", "get_benchmark", "group_lines", "join_codes",
        "load_surrogate", "max_abs_error", "mc_reference", "moments",
        "refine_candidates", "rmse", "run_asgc", "run_csc", "run_easgc", "run_study",
        "save_surrogate", "spline_value", "split_codes",
    ],
    "adapt": [
        "AdaptiveConfig", "BuildResult", "LevelRecord", "ModelFunction", "refine_candidates",
        "run_asgc", "run_csc",
    ],
    "cli": [],
    "core": [
        "GridPoint", "HierarchicalNode", "KEY_LIMIT", "MAX_LEVEL", "SurrogateModel",
        "coordinates", "dyadic_codes", "join_codes", "split_codes",
    ],
    "errors": [
        "ContractViolationError", "DimensionMismatchError", "EmptyModelError",
        "EvaluationError", "InvalidNodeError", "OutOfDomainError", "PersistenceError",
        "SparseGridError",
    ],
    "harness": [
        "CSV_COLUMNS", "METHODS", "MonteCarloEstimate", "StudyReport", "StudyRow", "build",
        "draw_test_points", "max_abs_error", "mc_reference", "rmse", "run_study",
    ],
    "io": ["load_surrogate", "save_surrogate"],
    "models": [
        "GenzParams", "POISSON_BLOCK", "PoissonSpec", "TrussSpec", "benchmark_names",
        "genz_corner_peak", "genz_defaults", "genz_discontinuous", "genz_oscillatory",
        "get_benchmark", "line_singularity", "solve_member_forces", "truss_member4_force",
        "xi_coefficient",
    ],
    "moments": ["MomentEstimate", "moments"],
    "smooth": [
        "LineGroup", "RegionDatabase", "SmoothRegion", "StoreOutcome", "derivative_scan",
        "group_lines", "run_easgc", "spline_value",
    ],
}


def test_every_public_name_has_a_caller():
    # a public name that only the tests load is dead API: delete it, or
    # call it from the package, a demo or the benchmark
    called = callers()
    uncalled = {module: names for module, tree in MODULES.items()
                if (names := [name for name in exported(tree) if name not in called])}
    assert not uncalled, f"public names no code outside tests/ loads: {uncalled}"


def test_every_public_member_of_an_exported_class_has_a_caller():
    # the same rule one level down: a public method or property of an
    # exported class that only the tests load is dead API
    called = callers()
    uncalled = [f"{module}.{cls.name}.{item.name}" for module, tree in MODULES.items()
                for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name in exported(tree)
                for item in cls.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_") and item.name not in called]
    assert not uncalled, f"public members no code outside tests/ loads: {uncalled}"


def private_names(tree) -> list:
    """The module's private functions, classes and constants, and the private
    methods of its classes, as `name` or `Class.name` (dunders are not
    private)."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    imported = {name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for name, _ in bound_by_import(node)}
    return sorted(name for name in defined(tree) - imported if private(name)) + [
        f"{cls.name}.{item.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and private(item.name)]


def test_every_private_name_has_a_caller():
    # the public rule for private names: a helper, constant or method that
    # nothing outside the tests loads is dead code, however private
    called = callers()
    uncalled = {module: names for module, tree in MODULES.items()
                if (names := [name for name in private_names(tree)
                              if name.split(".")[-1] not in called])}
    assert not uncalled, f"private names no code outside tests/ loads: {uncalled}"


def test_public_api_snapshot():
    got = {module: sorted(exported(tree)) for module, tree in MODULES.items()
           if module != "__init__"}
    got["sgsurrogate"] = sorted(name for name in defined(MODULES["__init__"])
                                if not name.startswith("_"))
    assert got == PUBLIC_API


def test_the_checks_catch_what_they_look_for():
    # each check, on a small module that breaks its rule
    tree = ast.parse("import enum\nfrom .core import GridPoint, split_codes\n"
                     "__all__ = ['f', 'gone']\n\ndef f():\n    return split_codes\n")
    assert [n for n in exported(tree) if n not in defined(tree)] == ["gone"]
    assert [name for name, _ in unused_imports(tree)] == ["enum", "GridPoint"]
    # an import binds a name without loading it; a string names it only
    # where strings count
    caller = ast.parse("from m import gone\nimport m\nm.f()\nlabel = 'm.gone'\n")
    assert [n for n in exported(tree) if n not in loaded(caller)] == ["gone"]
    assert [n for n in exported(tree) if n not in loaded(caller, strings=True)] == []
    # private names: helpers, constants and methods, bar imports and dunders
    tree = ast.parse("from .core import _readonly\n_K = 2\n__all__ = []\n\n"
                     "def _f():\n    return _K\n\nclass _C:\n    def __init__(self):\n"
                     "        pass\n\n    def _m(self):\n        pass\n")
    assert private_names(tree) == ["_C", "_K", "_f", "_C._m"]
    assert [n for n in private_names(tree) if n.split(".")[-1] not in loaded(tree)] == [
        "_C", "_f", "_C._m"]
