"""The package's public names, checked statically from the source with ast.

Every name a module lists in __all__ exists in it; every name the package
re-exports is in its module's __all__; and no module imports a name it never
uses, so a deleted API leaves no import behind.  A snapshot of the public
names makes every addition or removal of API show in a diff of this file.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sgsurrogate"
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
        "SurrogateModel", "benchmark_names", "build", "config_from_mapping", "coordinates",
        "derivative_scan", "draw_test_points", "get_benchmark", "group_lines", "join_codes",
        "load_surrogate", "max_abs_error", "mc_reference", "moments", "parse_config",
        "refine_candidates", "rmse", "run_asgc", "run_csc", "run_easgc", "run_study",
        "save_surrogate", "spline_value", "split_codes", "weight_1d",
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
        "config_from_mapping", "draw_test_points", "max_abs_error", "mc_reference",
        "parse_config", "rmse", "run_study",
    ],
    "io": ["load_surrogate", "save_surrogate"],
    "models": [
        "GenzParams", "POISSON_BLOCK", "PoissonSpec", "TrussSpec", "benchmark_names",
        "diffusion_field", "genz_corner_peak", "genz_defaults", "genz_discontinuous",
        "genz_oscillatory", "get_benchmark", "line_singularity", "poisson_solve",
        "solve_member_forces", "truss_member4_force", "xi_coefficient",
    ],
    "moments": ["MomentEstimate", "moments", "weight_1d"],
    "smooth": [
        "LineGroup", "RegionDatabase", "SmoothRegion", "StoreOutcome", "derivative_scan",
        "group_lines", "run_easgc", "spline_value",
    ],
}


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
