"""Every module of the package uses each name it imports. The package
__init__ is exempt: it imports names only to re-export them.

The gate-level reference engine is a leaf: no product module imports it,
and the package does not export it.

No module imports numpy when it is imported, only inside the functions
that build or read an array, so a sweep or an analytic record never
loads it. Nor does any import a standard module that is slow to load and
that the package can do without: its value classes need no dataclasses
(which loads inspect), its annotations no typing, its one file write no
pathlib. A canonical launch loads no argparse (nor its gettext), and one
that writes no JSON record, a sweep among them, loads no json.

Every import in src/, tests/ and perfbench/ is one that CI can satisfy:
the standard library, a module of the repository, or a dependency or
test extra that pyproject.toml declares."""

import ast
import os
import re
import subprocess
import sys
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
    "dense_iqft_reference", "hadamard", "pauli_x", "phase", "rotation",
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
    # TYPE_CHECKING is the annotations-only flag every module sets
    assert public == {"MAX_QUBITS", "StateVector", "new_state", "apply_single",
                      "apply_controlled", "probabilities", "TYPE_CHECKING"}


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


#: what `qpe` alone knows of how an exact readout is read: its dust
#: floor, the target's eigen-overlaps, the cached window readout (the
#: kernel at the window outcomes), the Python readout, the window-mass
#: rule and the one window step; `extraction` reads an exact run through
#: `decode_exact`
READOUT_MODEL = {"PROBABILITY_FLOOR", "_target_overlaps", "_window_readout",
                 "_exact_readout", "window_mass", "_decode_windows"}


@pytest.mark.parametrize("module", sorted(path.stem for path in Path(spinqpe.__file__).parent
                                          .glob("*.py") if path.stem != "qpe"))
def test_only_qpe_reads_the_readout_model(module):
    """No other module imports a readout-model name from `qpe` or reads
    one as an attribute, so the readout is read in one module."""
    tree = tree_of(module)
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "qpe"
                for alias in node.names}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not READOUT_MODEL & (imported | read)


def test_package_does_not_export_the_reference_engine():
    assert len(spinqpe.__all__) == 37
    exported = [name for name in UNEXPORTED
                if name in spinqpe.__all__ or hasattr(spinqpe, name)]
    assert exported == []


def top_level_imports(tree: ast.Module) -> set:
    """The top-level module names that `tree` imports when it runs: at
    module level, outside functions, classes and `if TYPE_CHECKING:`."""
    found = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_checker_finds_top_level_imports():
    source = ("import os.path\nfrom json import dumps\nfrom . import gates\n"
              "from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n    import numpy as np\n"
              "try:\n    import csv\nexcept ImportError:\n    pass\n"
              "def f():\n    import numpy\n"
              "class C:\n    import math\n")
    assert top_level_imports(ast.parse(source)) == {"os", "json", "typing", "csv"}


@pytest.mark.parametrize("path", sorted(Path(spinqpe.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_imports_no_numpy_at_import(path):
    assert "numpy" not in top_level_imports(ast.parse(path.read_text(encoding="utf-8")))


#: standard modules no module of the package imports when it is imported
SLOW_STDLIB = {"dataclasses", "inspect", "typing", "pathlib"}


@pytest.mark.parametrize("path", sorted(Path(spinqpe.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_imports_no_slow_stdlib_at_import(path):
    assert not SLOW_STDLIB & top_level_imports(ast.parse(path.read_text(encoding="utf-8")))


#: standard modules only a launch that needs argparse loads: help, a usage
#: error, or argv that `cli._parse_canonical` does not read
PARSER_STDLIB = {"argparse", "gettext"}


def loaded_after(argv: list, modules: set, *flags: str) -> str:
    """"CODE ON_IMPORT AFTER": the exit code of `cli.main(argv)` in a fresh
    interpreter started with `flags`, and which of `modules` were loaded
    after importing the CLI and after running it."""
    code = ("import sys, io, contextlib\n"
            "import spinqpe.cli\n"
            f"loaded = {sorted(modules)!r}\n"
            "on_import = [name for name in loaded if name in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = spinqpe.cli.main({argv!r})\n"
            "print(code, on_import, [name for name in loaded if name in sys.modules])\n")
    src = str(Path(spinqpe.__file__).parents[1])
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src}, check=True)
    return done.stdout


def test_cold_sweep_loads_no_slow_module():
    """With no site hook (-S), importing the CLI and running a canonical
    sweep load none of the slow standard modules, nor numpy, argparse,
    gettext or json."""
    argv = ["sweep", "--eta-range", "0.2:1.3", "--delta-range", "0.2:1.3", "--steps", "3"]
    modules = SLOW_STDLIB | PARSER_STDLIB | {"numpy", "json"}
    assert loaded_after(argv, modules, "-S") == "0 [] []\n"


def test_canonical_exact_pipeline_loads_no_parser():
    """A canonical exact pipeline writes a JSON record, so it loads json,
    but it loads neither argparse nor gettext."""
    argv = ["pipeline", "--eta", "pi/3", "--delta", "pi/3", "--exact", "--n", "4"]
    assert loaded_after(argv, PARSER_STDLIB) == "0 [] []\n"


def test_cold_sweep_help_still_comes_from_argparse():
    src = str(Path(spinqpe.__file__).parents[1])
    done = subprocess.run([sys.executable, "-S", "-m", "spinqpe", "sweep", "--help"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: spinqpe sweep")


@pytest.mark.parametrize("argv, exit_code", [
    (["sweep", "--eta-range", "0.2:1.3", "--delta-range=-1.3:1.3", "--steps", "3", "--n", "10"],
     0),
    (["analytic", "--eta", "pi/3", "--delta", "pi/3"], 0),
    (["pipeline", "--eta", "pi/3", "--delta", "pi/3", "--exact", "--n", "10"], 0),
    (["qpev", "--eta", "0.4", "--exact", "--n", "16"], 0),
    (["qpeh", "--eta", "0.4", "--delta", "0.3", "--aux", "pi/2", "--exact", "--n", "12"], 0),
    (["sweep", "--eta-range", "0.2:1.3", "--delta-range", "0.2:1.3", "--steps", "3", "--n", "3"],
     3),
], ids=["sweep", "analytic", "exact-pipeline", "exact-qpev", "exact-qpeh",
        "sweep-overlapping-windows"])
def test_command_never_loads_numpy(argv, exit_code):
    """In a fresh interpreter, the command runs and exits with its code
    with numpy never imported: an exact run at a dyadic angle reads its
    two bins in pure Python, and a sweep whose windows overlap exits 3
    after reading the kernel at them in pure Python."""
    code = ("import sys, io, contextlib\n"
            "from spinqpe.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, 'numpy' in sys.modules)\n")
    src = str(Path(spinqpe.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.split() == [str(exit_code), "False"], done.stderr


ROOT = Path(__file__).resolve().parent.parent


def declared_dependencies() -> set:
    """The names in pyproject.toml's `dependencies` and its `test` extra,
    what `pip install .[test]` installs (read by regex: Python 3.10 has no
    tomllib)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    lists = re.findall(r"^(?:dependencies|test) = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    return {re.match(r"[A-Za-z0-9_.]+", spec).group()
            for body in lists for spec in re.findall(r'"([^"]+)"', body)}


def test_every_import_is_installed_by_ci():
    """Every module that src/, tests/ or perfbench/ imports, at any depth,
    is in the standard library, is one of their own modules, or is a
    declared dependency: a test that imports a package installed here but
    not by `.[test]` would pass here and fail in CI."""
    paths = sorted(path for root in ("src", "tests", "perfbench")
                   for path in (ROOT / root).rglob("*.py"))
    local = {path.stem for path in paths} | {path.parent.name for path in paths
                                             if path.name == "__init__.py"}
    declared = declared_dependencies()
    assert {"numpy", "pytest"} <= declared
    undeclared = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if not (top in sys.stdlib_module_names or top in local or top in declared):
                    undeclared.setdefault(top, path.relative_to(ROOT).as_posix())
    assert undeclared == {}
