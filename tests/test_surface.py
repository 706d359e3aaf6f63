"""The package's public surface and the hygiene of its imports."""

import ast
from pathlib import Path

import kerntest
from test_bench_hooks import _load

SRC = Path(kerntest.__file__).resolve().parent

PUBLIC = [
    "AggregatedTestResult", "ConfigError", "DataError", "DesignSet", "KernelCollection", "KernelSpec",
    "KerntestError", "ModelSampleData", "PairedData", "PoolConfig", "PrivacyParams", "ReplicateSpec",
    "RobustParams", "ScoreField", "Sensitivity", "TestResult", "TwoSampleData",
    "aggregated_test", "bandwidth_grid", "block_statistic", "core_matrix_hsic", "core_matrix_hsic_wild",
    "core_matrix_ksd", "core_matrix_mmd", "dp_test", "gaussian_kernel", "global_sensitivity",
    "goodness_of_fit_test", "gram_matrix", "harmonic_weights", "imq_kernel", "incomplete_statistic",
    "independence_test", "kernel_bound", "laplace_inverse_cdf", "laplace_kernel", "median_heuristic",
    "min_replicates", "pool", "pooled_test", "robust_test", "standard_gaussian_score", "student_t_score",
    "test_decision", "two_sample_test", "u_statistic", "v_statistic",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 47
    assert sorted(kerntest.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(kerntest, name) is not None


def _module_name(path: Path) -> str:
    parts = ("kerntest",) + path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports and never reads (``__all__`` counts as a read)."""
    tree = ast.parse(path.read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_only_run_test_reads_replicates_and_decides():
    # every test goes through testing.run_test: no other function draws the
    # replicate values or makes a decision
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in ("collection_replicates", "test_decision"):
                        callers.add((_module_name(path), func.name, name))
    assert callers == {
        ("kerntest.testing", "run_test", "collection_replicates"),
        ("kerntest.testing", "run_test", "test_decision"),
    }


def test_every_import_is_used():
    # the benchmark's traced pass wraps these names where they are imported,
    # so a module keeps them though it never calls them
    pinned = {(path, attr) for path, attr, *_ in _load("spans").TARGETS}
    unused = {
        (_module_name(path), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in _unused_imports(path)
    }
    assert unused - pinned == set()


def _definitions(tree: ast.Module) -> set[str]:
    """A module's top-level functions, classes and assigned names, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("__")}


def test_every_definition_is_used():
    # a top-level definition is read by some module of the package (by name or
    # as an attribute), exported by an __all__, or wrapped by name by the
    # benchmark's traced pass (rademacher, say, where engines imports it)
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    read = {attr for _, attr, *_ in _load("spans").TARGETS}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
    unused = {(_module_name(path), name) for path, tree in trees.items() for name in _definitions(tree) - read}
    assert unused == set()
