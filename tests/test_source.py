"""Rules on the package source that no behaviour test can see.

Validation must not rest on assert statements, which python -O strips:
every check in the package raises an exception of its own.  numpy is the
one dependency: networkx, sympy and scipy may serve scratch prototypes,
but neither the package nor its tests import them.  The package's __all__
names exactly its public names: a name removed from the package leaves it
too.  One module, norton, assembles a NortonAlgebra, so a built and a
cached algebra take their structure constants from the same code.  Only
binop calls its Fraction entry points, evaluate_parenthesization and
tensor_fingerprint: Fractions stay at its API edge, and the package
computes in integer rows.  One module, intlinalg, holds the array policy:
only it names a float type, so its exact products alone decide when a
float holds an integer product exactly, and only it sets a block size (a
module-level *_CELLS constant), so every blocked loop sizes its blocks
by row_blocks.  Only graphs reads a graph's .dist: a lattice graph's
distances are its incidence, and anywhere else a read would form the
whole n x n matrix for what rows of the incidence Gram give.  Five small
helpers memoize across calls, and nothing else may use functools.cache or
lru_cache: a memo that outlives a call speeds up only a process that
repeats the call, never a command that builds one graph per process, and
it holds what it keeps for the process's life.  isinstance tests a
family class only in the six functions that state the paper's formulas and
theorem; everywhere else a family is read through what they return.  Every
memo binop keeps on an operation is set in BilinearOperation._set_table, so
each operation starts with empty ones.  The class count's grouping names a
tree by its position alone: none of its functions names a tree object, the
tree enumeration or tree_index.  The test configuration makes a
DeprecationWarning an error, but not the one Hypothesis's failure report
raises, so a failing property test fails like any other and the run goes on.
"""

import ast
import subprocess
import sys
import types
from pathlib import Path

import nortonalg


def test_package_has_no_assert_statements():
    paths = sorted(Path(nortonalg.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_and_tests_import_no_scratch_libraries():
    paths = [
        *sorted(Path(nortonalg.__file__).parent.glob("*.py")),
        *sorted(Path(__file__).parent.glob("*.py")),
    ]
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}"
                for name in names
                if name.split(".")[0] in ("networkx", "sympy", "scipy")
            ]
    assert found == []


def test_all_names_exactly_the_public_names():
    public = [
        name
        for name, value in vars(nortonalg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(nortonalg.__all__) == sorted(public)
    assert [name for name in nortonalg.__all__ if not hasattr(nortonalg, name)] == []


def test_only_norton_constructs_a_norton_algebra():
    paths = sorted(Path(nortonalg.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        if path.name != "norton.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "NortonAlgebra" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def test_only_binop_calls_its_fraction_entry_points():
    paths = sorted(Path(nortonalg.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        if path.name != "binop.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        & {"evaluate_parenthesization", "tensor_fingerprint"}
    ]
    assert found == []


def test_only_intlinalg_names_a_float_type_or_a_block_size():
    paths = sorted(Path(nortonalg.__file__).parent.glob("*.py"))
    found = []
    for path in paths:
        if path.name == "intlinalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("float32", "float64")
        ]
        found += [
            f"{path.name}:{node.lineno}"
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id.endswith("_CELLS")
        ]
    assert found == []


def test_only_graphs_reads_the_distance_matrix():
    paths = sorted(Path(nortonalg.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        if path.name != "graphs.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "dist"
    ]
    assert found == []


def test_binop_memos_start_in_set_table():
    # every attribute binop stores on an operation other than self, whole or
    # by item, is first set in _set_table, so an operation made by any route
    # (from_int_table, _split's blocks, a test's fresh copy) starts empty
    path = Path(nortonalg.__file__).parent / "binop.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    set_table = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_set_table"
    )

    def stored(nodes, on_self):
        found = set()
        for node in nodes:
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                node = node.value
            elif not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)):
                continue
            if isinstance(node, ast.Attribute) and (getattr(node.value, "id", None) == "self") == on_self:
                found.add(node.attr)
        return found

    initialised = stored(ast.walk(set_table), True)
    elsewhere = stored(ast.walk(tree), False)
    assert {"_reps", "_tensor_cache", "_tensor_cells", "_blocks"} <= elsewhere
    assert elsewhere <= initialised


# the class count's grouping, which names trees by position alone
COUNT_PATH = {
    "binop._group",
    "binop._group_connected",
    "binop._child_pairs",
    "binop._probe_tensor",
    "binop._class_tensor",
    "binop.count_classes_exact",
    "classify.count_norton_classes",
}


def test_count_path_names_no_tree():
    # a tree object, its enumeration or its index on the count path would be
    # a second naming beside the position
    tree_names = {"enumerate_trees", "BinaryTree", "tree_index"}
    seen, found = set(), []
    for module in ("binop", "classify"):
        path = Path(nortonalg.__file__).parent / f"{module}.py"
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, ast.FunctionDef) and f"{module}.{fn.name}" in COUNT_PATH:
                seen.add(f"{module}.{fn.name}")
                found += [
                    f"{module}.{fn.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if {getattr(node, "id", None), getattr(node, "attr", None)} & tree_names
                ]
    assert seen == COUNT_PATH
    assert found == []


# the only functions that functools.cache or lru_cache may decorate
MEMOIZED = {
    "graphs._place_values",
    "graphs._leading_one_vectors",
    "trees._trees",
    "trees._depths",
    "cli._build_parser",
}


def _memo_sites(path):
    """Every function of one module decorated with functools.cache or
    lru_cache, as module.qualified_name, and every other call of either,
    as module:line."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {"cache", "lru_cache"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in ("cache", "lru_cache") and alias.asname
    }

    def memo(node):
        node = node.func if isinstance(node, ast.Call) else node
        return (getattr(node, "id", None) or getattr(node, "attr", None)) in names

    found, decorators = set(), set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                decorators.update(map(id, child.decorator_list))
                if any(map(memo, child.decorator_list)):
                    found.add(f"{path.stem}.{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    found |= {
        f"{path.stem}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and memo(node) and id(node) not in decorators
    }
    return found


def test_only_five_helpers_memoize_across_calls():
    paths = sorted(Path(nortonalg.__file__).parent.glob("*.py"))
    assert set().union(*map(_memo_sites, paths)) == MEMOIZED


# the only functions whose isinstance calls may name a family class
FAMILY_TABLES = {
    "norton.family_constants",
    "spectral.closed_form_eigenvalue",
    "spectral.closed_form_multiplicity",
    "classify.predicted_branch",
    "classify.pattern_coefficients",
    "classify.d22_hamming_aligned_operation",
}


def _family_isinstance_sites(path):
    """module.function for every isinstance call of one module whose class
    argument names a family class (a name ending in Family), module:line
    outside any function."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.stem}.{child.name}")
                continue
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", None) == "isinstance"
                and len(child.args) == 2
                and any(
                    (getattr(n, "id", None) or getattr(n, "attr", None) or "").endswith("Family")
                    for n in ast.walk(child.args[1])
                )
            ):
                found.add(where or f"{path.stem}:{child.lineno}")
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_only_the_family_tables_test_a_family_class():
    paths = sorted(Path(nortonalg.__file__).parent.glob("*.py"))
    assert set().union(*map(_family_isinstance_sites, paths)) <= FAMILY_TABLES


def test_a_failing_property_test_fails_and_the_run_goes_on(tmp_path):
    # Hypothesis's failure report imports a module that warns with a
    # DeprecationWarning; under the error filter alone that warning is a
    # pytest INTERNALERROR, exit 3, and the tests after it never run
    (tmp_path / "test_child.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_after():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    command = ["-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path), "-q"]
    result = subprocess.run(
        [sys.executable, *command, "-p", "no:cacheprovider", "test_child.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
