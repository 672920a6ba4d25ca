"""Every module of the package uses each name it imports. The package
__init__ is exempt: it imports names only to re-export them.

The gate-level reference engine is a leaf: no product module imports it,
and the package does not export it."""

import ast
from pathlib import Path

import pytest

import spinqpe

MODULES = sorted(path for path in Path(spinqpe.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement in `source` and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = ("import os\nimport os.path as osp\nimport sys\n"
              "from math import pi, tau\nfrom json import dumps as d\n"
              "sys.exit(pi)\n")
    assert unused_imports(source) == ["d", "os", "osp", "tau"]


def test_checker_counts_attribute_and_annotation_use():
    source = "import numpy\nfrom typing import Any\ndef f(x: Any): return numpy.pi\n"
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_all_lists_exactly_the_reexported_names():
    """`spinqpe.__all__` names every name `__init__.py` imports, and no other."""
    tree = ast.parse(Path(spinqpe.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(spinqpe.__all__) == sorted(imported)
    assert len(set(spinqpe.__all__)) == len(spinqpe.__all__)


# The gate-level reference engine: the simulator, the inverse Fourier
# transform plan, and in `qpe` only `run_circuit` and its two readouts.
REFERENCE_MODULES = {"statevector", "iqft"}
REFERENCE_READERS = {"run_circuit", "exact_histogram", "sample"}
REFERENCE_GATES = {"hadamard", "rotation_power"}
UNEXPORTED = [
    "StateVector", "new_state", "apply_single", "apply_controlled", "probabilities",
    "exact_histogram", "sample", "IqftPlan", "PlanStep", "build_iqft", "apply_iqft",
    "dense_iqft_reference", "hadamard", "identity", "pauli_x", "phase", "rotation",
    "rotation_power",
]


def tree_of(module: str) -> ast.Module:
    return ast.parse((Path(spinqpe.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(tree: ast.Module) -> dict:
    """Package module -> the names this module imports from it by a
    relative import; `from . import m` counts as importing `m` itself."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                found.setdefault(node.module or alias.name, set()).add(alias.asname or alias.name)
    return found


@pytest.mark.parametrize("module", ["angles", "errors", "precession", "extraction",
                                    "records", "cli", "gates", "__main__"])
def test_product_module_imports_no_reference_engine(module):
    assert not REFERENCE_MODULES & set(package_imports(tree_of(module)))


def test_reference_engine_is_a_leaf():
    """`statevector` and `iqft` import from the package only `errors`,
    `gates` and each other, and `statevector` defines only the simulator."""
    for module in REFERENCE_MODULES:
        assert set(package_imports(tree_of(module))) <= {"errors", "gates"} | REFERENCE_MODULES
    defined = set()
    for node in tree_of("statevector").body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets)
    public = {name for name in defined if not name.startswith("_")}
    assert public == {"MAX_QUBITS", "StateVector", "new_state", "apply_single",
                      "apply_controlled", "probabilities"}


def test_qpe_reads_the_reference_engine_only_in_run_circuit():
    """Every name `qpe` imports from the reference engine, and the gates
    only the circuit applies, is read only inside `run_circuit` and its
    two readouts."""
    tree = tree_of("qpe")
    imports = package_imports(tree)
    engine = set().union(*(imports.get(module, set()) for module in REFERENCE_MODULES))
    assert engine, "qpe no longer imports the reference engine"
    engine |= REFERENCE_GATES
    readers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert REFERENCE_READERS <= readers
    outside = sorted({node.id for stmt in tree.body
                      if getattr(stmt, "name", None) not in REFERENCE_READERS
                      for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and node.id in engine})
    assert outside == []


def test_package_does_not_export_the_reference_engine():
    assert len(spinqpe.__all__) == 43
    exported = [name for name in UNEXPORTED
                if name in spinqpe.__all__ or hasattr(spinqpe, name)]
    assert exported == []
