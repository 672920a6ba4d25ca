"""Every module of the package uses each name it imports. The package
__init__ is exempt: it imports names only to re-export them."""

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
